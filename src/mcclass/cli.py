"""Command-line front end.

Subcommands: weight, axioms, expand, conjectures, limit, interpolate,
newton.  All output is deterministic for fixed inputs and flags; every
subcommand runs in one process, and --jobs is accepted and changes
nothing.  A restricted table (weight --restrict) is written one class
at a time, as each class is rendered.  Exit code 0 means success/pass,
1 means a report contains violations, 2 means a computation fault
(running out of memory included) or bad input.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import sys

from .combi import Composition, IndexTuple, Permutation, enumerate_index_tuples
from .report import Report
from .ring import (Cocharacter, InfiniteLimitError, RationalExpr, RingError,
                   dumps_canonical, format_poly, format_ypoly, limit_at_infinity,
                   poly_from_json, poly_to_json, rational_from_json, rational_to_json)
from .weightfn import (TorusSpecialization, VariablePanel, c_prime_mu_at, chern_products,
                       euler_product, localization_table, tangent_weights, weight_function)

DEFAULT_MAX_N = 6


class CliError(Exception):
    pass


def _max_n() -> int:
    raw = os.environ.get("MCCLASS_MAX_N")
    if raw is None:
        return DEFAULT_MAX_N
    try:
        return int(raw)
    except ValueError:
        raise CliError(f"MCCLASS_MAX_N must be an integer, got {raw!r}")


def _guard_n(n: int) -> None:
    if n < 1:
        raise CliError("n must be positive")
    limit = _max_n()
    if n > limit:
        raise CliError(f"n={n} exceeds the configured maximum {limit} "
                       "(set MCCLASS_MAX_N to override)")


def _parse_mu(text: str) -> Composition:
    try:
        return Composition(tuple(int(x) for x in text.split(",")))
    except ValueError as err:
        raise CliError(f"bad composition {text!r}: {err}")


def _parse_blocks(text: str, mu: Composition) -> IndexTuple:
    body = text.strip()
    if not body.startswith("{") or not body.endswith("}"):
        raise CliError(f"bad index tuple {text!r}; expected like " + '"{1},{2}"')
    parts = body[1:-1].split("},{")
    try:
        blocks = tuple(tuple(int(x) for x in p.split(",")) for p in parts)
        return IndexTuple(mu, blocks)
    except ValueError as err:
        raise CliError(f"bad index tuple {text!r}: {err}")


def _parse_perm(text: str, n: int | None = None) -> Permutation:
    try:
        w = Permutation(tuple(int(x) for x in text.split(",")))
    except ValueError as err:
        raise CliError(f"bad permutation {text!r}: {err}")
    if n is not None and w.n != n:
        raise CliError(f"permutation {text!r} is not on {n} letters")
    return w


def _load_json_file(path: str, what: str, parse):
    """parse() applied to the JSON in the file at path; an unreadable
    file, bad JSON, a missing key, a value of the wrong type or one the
    ring refuses (a zero denominator) is bad input."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as err:
        raise CliError(f"cannot read {what} {path!r}: {err.strerror}")
    except json.JSONDecodeError as err:
        raise CliError(f"{what} {path!r} is not valid JSON: {err}")
    try:
        return parse(obj)
    except KeyError as err:
        raise CliError(f"{what} {path!r} lacks the key {err}")
    except (AttributeError, TypeError, ValueError, RingError) as err:
        raise CliError(f"malformed {what} {path!r}: {err}")


def _emit(text, path: str | None) -> None:
    """Write text, a string or its pieces in order, to path or stdout,
    ending it with a newline if it does not end with one.  A path that
    cannot be opened for writing is bad input."""
    try:
        out = (open(path, "w", encoding="utf-8") if path is not None
               else contextlib.nullcontext(sys.stdout))
    except OSError as err:
        raise CliError(f"cannot write output {path!r}: {err.strerror}")
    with out as fh:
        last = ""
        for piece in [text] if isinstance(text, str) else text:
            fh.write(piece)
            last = piece or last
        if not last.endswith("\n"):
            fh.write("\n")


def _report_exit(report: Report) -> int:
    return 0 if report.ok else 1


def _report_text(report: Report, title: str) -> str:
    """title, then per check its count and violations, with witnesses."""
    by_check: dict = {}
    for e in report.entries:
        by_check.setdefault(e.check, []).append(e)
    lines = [title]
    for check, entries in by_check.items():
        bad = [e for e in entries if not e.ok]
        status = "pass" if not bad else "FAIL"
        lines.append(f"  {check}: {len(entries)} checks, {len(bad)} violations [{status}]")
        lines.extend(f"    violation at {e.pair}: {e.witness}" for e in bad)
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# weight
# ---------------------------------------------------------------------------


def cmd_weight(args) -> int:
    mu = _parse_mu(args.mu)
    _guard_n(mu.n)
    points = enumerate_index_tuples(mu)
    if args.all:
        targets = points
    elif args.I:
        targets = [_parse_blocks(args.I, mu)]
    else:
        raise CliError("weight needs --I or --all")
    if args.restrict:
        table = localization_table(mu, modified=(args.kind == "modified"), cells=targets)
        pieces = _restricted_classes(mu, points, table, args.kind, args.format)
        if args.format == "json":
            # the classes are separated the way dumps_canonical joins a list
            head = (f'{{"mu": {dumps_canonical(list(mu.parts))}, '
                    f'"kind": {dumps_canonical(args.kind)}, "classes": [')
            _emit(itertools.chain((head,), _separated(pieces, ", "), ("]}",)), args.output)
        else:
            _emit(_separated(pieces, "\n"), args.output)
        return 0

    panel = VariablePanel(mu)
    if args.kind != "plain":
        c, cp = chern_products(mu, panel)
        den = c if args.kind == "modified" else cp
    out = []
    for I in targets:
        W = weight_function(I, panel)
        if args.kind == "plain":
            value = poly_to_json(W)
            text = format_poly(W)
        else:
            ratio = RationalExpr(W, den)
            value = rational_to_json(ratio)
            text = f"({format_poly(ratio.num)}) / ({format_poly(ratio.den)})"
        out.append((I, value, text))
    if args.format == "json":
        body = {"mu": list(mu.parts), "kind": args.kind,
                "weights": [{"I": I.to_json(), "value": v} for I, v, _ in out]}
        _emit(dumps_canonical(body), args.output)
    else:
        _emit("\n".join(f"W[{I}] ({args.kind}) = {t}" for I, _, t in out), args.output)
    return 0


def _restricted_classes(mu: Composition, points, table, kind: str, fmt: str):
    """Each class of a restricted table rendered in fmt, one string per
    class, as the class is reached.  A Segre entry is f(J) / c'_mu(J) with
    the monomial content of c'_mu(J) folded into f(J), as RationalExpr
    folds it; each point's folded c'_mu(J) is rendered once."""
    render = poly_to_json if fmt == "json" else format_poly
    if kind == "segre":
        spec = TorusSpecialization.standard(mu.n)
        dens = {}
        for J in points:
            den = c_prime_mu_at(J, spec)
            shift = tuple(-m for m in den.min_exponents())
            dens[J] = shift, render(den.shift(shift))
        for I, row in table.items():
            entries = [(J, render(f.shift(dens[J][0])), dens[J][1]) for J, f in row.items()]
            if fmt == "json":
                yield dumps_canonical({"I": I.to_json(), "entries": [
                    {"point": J.to_json(), "value": {"num": num, "den": den}}
                    for J, num, den in entries]})
            else:
                yield "\n".join([f"segre class of cell {I.to_json()['blocks']}:"] + [
                    f"  at {J.to_json()['blocks']}: ({num}) / ({den})"
                    for J, num, den in entries])
    elif fmt == "json":
        ordered = sorted(points, key=lambda J: J.blocks)
        for I, row in table.items():
            yield dumps_canonical({"I": I.to_json(), "mu": list(mu.parts), "entries": [
                {"point": J.to_json(), "value": render(row[J])} for J in ordered]})
    else:
        for I, row in table.items():
            yield "\n".join([f"class of cell {I} ({kind}):"]
                            + [f"  at {J}: {render(f)}" for J, f in row.items()])


def _separated(pieces, sep: str):
    """The pieces in order with sep between each two."""
    return itertools.islice(itertools.chain.from_iterable((sep, p) for p in pieces), 1, None)


# ---------------------------------------------------------------------------
# axioms
# ---------------------------------------------------------------------------


def cmd_axioms(args) -> int:
    from .axioms import run_axiom_suite
    _guard_n(args.n)
    report = run_axiom_suite(args.n)
    _emit(dumps_canonical(report.entries_json()) if args.format == "json"
          else _report_text(report, f"axiom suite for full flags on {args.n} letters:"),
          args.output)
    return _report_exit(report)


# ---------------------------------------------------------------------------
# expand
# ---------------------------------------------------------------------------


def cmd_expand(args) -> int:
    from .expand import Expander, format_expansion, specialize_nonequivariant
    _guard_n(args.n)
    if args.all:
        cells = None
    elif args.p:
        cells = [_parse_perm(args.p, args.n)]
    else:
        raise CliError("expand needs --p or --all")

    def render(e) -> str:
        if args.format == "text":
            return format_expansion(e, nonequivariant=args.nonequivariant)
        if args.nonequivariant:
            return dumps_canonical(
                {"p": list(e.p.word),
                 "coeffs": [{"w": list(w.word), "y": list(c)}
                            for w, c in sorted(specialize_nonequivariant(e).items(),
                                               key=lambda kv: (kv[0].length(), kv[0].word))]})
        return dumps_canonical(e.to_json())

    # each cell is rendered as the walk yields it, so only text is held,
    # and the sorted texts are written one by one, never joined; the JSON
    # cells are separated the way dumps_canonical joins a list
    printed = sorted(((p.length(), p.word), render(e))
                     for p, e in Expander(args.n).walk(cells))
    body = _separated((text for _, text in printed), ", " if args.format == "json" else "\n\n")
    _emit(itertools.chain(("[",), body, ("]",)) if args.format == "json" else body,
          args.output)
    return 0


# ---------------------------------------------------------------------------
# conjectures
# ---------------------------------------------------------------------------


def cmd_conjectures(args) -> int:
    from .expand import CONJECTURE_CHECKS, check_conjectures
    _guard_n(args.n)
    checks = args.checks.split(",") if args.checks else list(CONJECTURE_CHECKS)
    unknown = [c for c in checks if c not in CONJECTURE_CHECKS]
    if unknown:
        raise CliError(f"unknown check {unknown[0]!r}; choose among "
                       + ",".join(CONJECTURE_CHECKS))
    report = check_conjectures(args.n, checks)
    _emit(dumps_canonical(report.to_json()) if args.format == "json"
          else _report_text(report, f"conjecture checks on {args.n} letters:"), args.output)
    return _report_exit(report)


# ---------------------------------------------------------------------------
# limit
# ---------------------------------------------------------------------------


def _ratio_from_json(obj):
    if "den" in obj:
        return rational_from_json(obj)
    return RationalExpr(poly_from_json(obj))


def cmd_limit(args) -> int:
    from .axioms import quadratic_cone_ratio
    if args.klass:
        ratio = _load_json_file(args.klass, "class file", _ratio_from_json)
    else:
        ratio = quadratic_cone_ratio()
    results = []
    for text in args.cocharacter:
        try:
            d = Cocharacter(tuple(int(x) for x in text.split(",")))
        except ValueError as err:
            raise CliError(f"bad cocharacter {text!r}: {err}")
        if len(d.weights) != len(ratio.vars):
            raise CliError(f"cocharacter {text!r} has {len(d.weights)} entries, "
                           f"the class has {len(ratio.vars)} variables")
        try:
            value = limit_at_infinity(ratio, d)
            results.append({"cocharacter": list(d.weights),
                            "limit": list(value), "finite": True})
        except InfiniteLimitError:
            results.append({"cocharacter": list(d.weights),
                            "limit": None, "finite": False})
    if args.format == "json":
        _emit(dumps_canonical({"results": results}), args.output)
    else:
        lines = []
        for r in results:
            val = format_ypoly(tuple(r["limit"])) if r["finite"] else "infinite"
            lines.append(f"limit at {tuple(r['cocharacter'])}: {val}")
        _emit("\n".join(lines), args.output)
    return 0


# ---------------------------------------------------------------------------
# interpolate
# ---------------------------------------------------------------------------


def cmd_interpolate(args) -> int:
    from .interp import OrbitProblem, solve_csm, solve_fundamental
    if args.data:
        problem = _load_json_file(args.data, "orbit data", OrbitProblem.from_json)
    else:
        from importlib.resources import files
        data = files("mcclass.data").joinpath("a2quiver.json").read_text(encoding="utf-8")
        problem = OrbitProblem.from_json(json.loads(data))
    try:
        problem.orbit(args.target)
    except KeyError as err:
        raise CliError(err.args[0])
    if args.mode == "fundamental":
        sol = solve_fundamental(problem, args.target)
        if args.format == "json":
            _emit(dumps_canonical({"target": args.target, "mode": "fundamental",
                                   **sol.to_json()}), args.output)
        else:
            _emit(f"fundamental class of {args.target}: {sol}", args.output)
        return 0
    sol = solve_csm(problem, args.target)
    if args.format == "json":
        _emit(dumps_canonical({"target": args.target, "mode": "csm", **sol.to_json()}),
              args.output)
    else:
        lines = [f"csm class of {args.target}: {sol.expansion}",
                 f"lowest degree component: {sol.lowest_degree}",
                 f"fundamental class: {sol.fundamental}",
                 f"lowest degree matches fundamental: {sol.lowest_matches_fundamental}"]
        for name, val in sol.restrictions.items():
            lines.append(f"restriction at {name}: {format_poly(val)}")
        _emit("\n".join(lines), args.output)
    return 0


# ---------------------------------------------------------------------------
# newton
# ---------------------------------------------------------------------------


def _parse_point(text: str, dim: int) -> tuple:
    from fractions import Fraction
    try:
        x = tuple(Fraction(v) for v in text.split(","))
    except (ValueError, ZeroDivisionError) as err:
        raise CliError(f"bad point {text!r}: {err}")
    if len(x) != dim:
        raise CliError(f"point {text!r} has dimension {len(x)}, "
                       f"the polytope has dimension {dim}")
    return x


def cmd_newton(args) -> int:
    from .newton import contains_point, newton_polytope, project_sum_zero, render_svg
    if args.pair:
        if args.n != 3:
            raise CliError("polygon pictures are drawn for n = 3 only")
        try:
            p_text, q_text = args.pair.split(":")
        except ValueError:
            raise CliError('bad --pair; expected like "2,3,1:3,2,1"')
        p = _parse_perm(p_text, 3)
        q = _parse_perm(q_text, 3)
        I, J = p.to_index_tuple(), q.to_index_tuple()
        ek = euler_product(tangent_weights(J)[1], TorusSpecialization.standard(3))
        val = localization_table(Composition((1, 1, 1)), cells=[I])[I][J]
        # ek is a product of binomials 1 - tau_a/tau_b with a != b, never zero
        layers = [("ek-polygon", project_sum_zero(sorted(ek.support())))]
        if not val.is_zero():
            layers.append(("class-polygon", project_sum_zero(sorted(val.support()))))
        svg = render_svg(layers)
        _emit(svg, args.svg or args.output)
        return 0
    if args.klass:
        P = _load_json_file(args.klass, "class file",
                            lambda obj: newton_polytope(poly_from_json(obj)))
        if args.contains:
            x = _parse_point(args.contains, P.dim)
            inside = contains_point(P, x)
            _emit(dumps_canonical({"point": [str(v) for v in x], "contains": inside})
                  if args.format == "json" else f"contains {args.contains}: {inside}",
                  args.output)
            return 0 if inside else 1
        if args.format == "json":
            _emit(dumps_canonical(P.to_json()), args.output)
        else:
            _emit("\n".join(",".join(map(str, pt)) for pt in P.points), args.output)
        return 0
    raise CliError("newton needs --pair or --class")


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mcclass",
        description="Exact calculator for equivariant characteristic classes "
                    "of Schubert and matrix Schubert cells.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, fmt=("text", "json")):
        p.add_argument("--format", choices=fmt, default="text")
        p.add_argument("--output", help="write output to this path")
        p.add_argument("--jobs", type=int, default=None,
                       help="accepted and ignored: every subcommand runs in one process")

    w = sub.add_parser("weight", help="weight functions and localization tables")
    w.add_argument("--mu", required=True, help="composition, e.g. 1,1,1")
    w.add_argument("--I", help='index tuple, e.g. "{1},{2}"')
    w.add_argument("--all", action="store_true", help="all index tuples")
    w.add_argument("--kind", choices=("plain", "modified", "segre"), default="plain")
    w.add_argument("--restrict", action="store_true",
                   help="emit fixed-point restrictions instead of global classes")
    common(w)
    w.set_defaults(func=cmd_weight)

    a = sub.add_parser("axioms", help="verify the axiomatic characterization")
    a.add_argument("--n", type=int, required=True)
    common(a)
    a.set_defaults(func=cmd_axioms)

    e = sub.add_parser("expand", help="structure-sheaf basis expansions")
    e.add_argument("--n", type=int, required=True)
    e.add_argument("--p", help="permutation, e.g. 2,3,1")
    e.add_argument("--all", action="store_true")
    e.add_argument("--nonequivariant", action="store_true",
                   help="specialize every torus variable to 1")
    common(e)
    e.set_defaults(func=cmd_expand)

    c = sub.add_parser("conjectures", help="sign, log-concavity and s-delta reports")
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--checks", help="comma list among sign,log,sdelta (default all)")
    common(c)
    c.set_defaults(func=cmd_conjectures)

    l = sub.add_parser("limit", help="one-parameter limits of a class ratio")
    l.add_argument("--cocharacter", action="append", required=True,
                   help="exponents, e.g. -1,0,0 (repeatable)")
    l.add_argument("--class", dest="klass",
                   help="JSON file with a polynomial or num/den ratio "
                        "(default: the quadratic-cone example)")
    common(l)
    l.set_defaults(func=cmd_limit)

    ip = sub.add_parser("interpolate", help="fundamental/CSM interpolation solver")
    ip.add_argument("--data", help="orbit data JSON (default: bundled A2 quiver)")
    ip.add_argument("--target", required=True)
    ip.add_argument("--mode", choices=("fundamental", "csm"), default="fundamental")
    common(ip)
    ip.set_defaults(func=cmd_interpolate)

    nw = sub.add_parser("newton", help="Newton polytopes, containment, pictures")
    nw.add_argument("--n", type=int, default=3)
    nw.add_argument("--pair", help='two permutations, e.g. "2,3,1:3,2,1"')
    nw.add_argument("--svg", help="write the picture to this path")
    nw.add_argument("--class", dest="klass", help="polynomial JSON file")
    nw.add_argument("--contains", help="comma-separated rational point")
    common(nw, fmt=("text", "json", "svg"))
    nw.set_defaults(func=cmd_newton)

    return ap


def _join_negative_values(argv):
    """Glue option values that start with a minus (e.g. cocharacters like
    -1,2,0) onto their flag so argparse does not read them as options."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if (tok in ("--cocharacter", "--contains") and i + 1 < len(argv)
                and argv[i + 1].startswith("-")):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
            continue
        out.append(tok)
        i += 1
    return out


def main(argv=None) -> int:
    ap = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = ap.parse_args(_join_negative_values(list(argv)))
    try:
        return args.func(args)
    except CliError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (RingError, ValueError, OSError) as err:
        print(f"computation fault: {err}", file=sys.stderr)
        return 2
    except MemoryError:
        print("computation fault: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
