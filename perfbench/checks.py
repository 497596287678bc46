"""Independent checks of every job's output, and their self-test.

Nothing here imports mcclass: the Bruhat order, the y-polynomial sums
and the polynomial arithmetic on the quiver classes are this file's
own, so a fault in the program's kernels cannot hide itself.  Each
check returns a list of problems; an empty list is a pass.
"""

from __future__ import annotations

import copy
import itertools

# ---------------------------------------------------------------------------
# Permutations and the Bruhat order
# ---------------------------------------------------------------------------


def perms(n: int) -> list:
    return list(itertools.permutations(range(1, n + 1)))


def length(w) -> int:
    return sum(1 for i, j in itertools.combinations(range(len(w)), 2) if w[i] > w[j])


def bruhat_leq(u, v) -> bool:
    """Tableau criterion: every sorted prefix of u lies below that of v."""
    return all(a <= b
               for i in range(1, len(u))
               for a, b in zip(sorted(u[:i]), sorted(v[:i])))


def interval_pairs(n: int) -> set:
    """All pairs (u, v) with u <= v; 1, 3, 19, 213, 3781 for n = 1..5."""
    ws = perms(n)
    return {(u, v) for u in ws for v in ws if bruhat_leq(u, v)}


def _word(text: str) -> tuple:
    """'{3},{1},{2}' or '3,1,2' -> (3, 1, 2)."""
    return tuple(int(x) for x in text.replace("{", "").replace("}", "").split(","))


# ---------------------------------------------------------------------------
# Integer polynomials in y, as lists of coefficients
# ---------------------------------------------------------------------------


def y_add(a, b) -> list:
    out = [0] * max(len(a), len(b))
    for i, v in enumerate(a):
        out[i] += v
    for i, v in enumerate(b):
        out[i] += v
    while out and out[-1] == 0:
        out.pop()
    return out


def minus_y_power(k: int) -> list:
    """(-y)^k."""
    return [0] * k + [(-1) ** k]


def at_torus_one(terms) -> list:
    """Send every torus variable to 1: sum the y-coefficients of all terms."""
    total: list = []
    for _exp, ycoeffs in terms:
        total = y_add(total, ycoeffs)
    return total


def strictly_log_concave(seq) -> bool:
    return all(seq[k] * seq[k] > seq[k - 1] * seq[k + 1] for k in range(1, len(seq) - 1))


# ---------------------------------------------------------------------------
# Checks per workload
# ---------------------------------------------------------------------------


def _check_report(entries, check: str, want_pairs: set, problems: list) -> None:
    got = [(tuple(_word(x) if x is not None else None for x in e["pair"]))
           for e in entries if e["check"] == check]
    if len(got) != len(want_pairs) or set(got) != want_pairs:
        problems.append(f"{check}: {len(got)} entries on the wrong pairs, "
                        f"want {len(want_pairs)}")
    bad = sum(1 for e in entries if e["check"] == check and not e["pass"])
    if bad:
        problems.append(f"{check}: {bad} violations")


def check_axioms(output: dict, n: int) -> list:
    """normalization n!, support n!^2 - B, divisibility B, smallness
    B - n!, additivity n! and Segre n!, where B counts Bruhat pairs."""
    ws = perms(n)
    leq = interval_pairs(n)
    entries = output["entries"]
    problems: list = []
    expected = {
        "normalization": {(w, w) for w in ws},
        "support": {(u, v) for u in ws for v in ws} - leq,
        "divisibility": leq,
        "smallness": {(u, v) for u, v in leq if u != v},
        "additivity": {(None, w) for w in ws},
        "segre": {(None, w) for w in ws},
    }
    for check, pairs in expected.items():
        _check_report(entries, check, pairs, problems)
    if sum(len(p) for p in expected.values()) != len(entries):
        problems.append(f"{len(entries)} entries in all, some of no known check")
    return problems


def check_expansions(expansions, n: int) -> list:
    """Support {w : p <= w}, and coefficients summing at torus 1 to the
    chi_y genus (-y)^(N - l(p)) of the cell, an affine space."""
    top = n * (n - 1) // 2
    problems: list = []
    for e in expansions:
        p = tuple(e["p"])
        support = {tuple(c["w"]) for c in e["coeffs"]}
        want = {w for w in perms(n) if bruhat_leq(p, w)}
        if support != want or len(e["coeffs"]) != len(want):
            problems.append(f"expansion of {p}: support of {len(support)} cells, "
                            f"want {len(want)}")
        total: list = []
        for c in e["coeffs"]:
            total = y_add(total, at_torus_one(c["terms"]))
        if total != minus_y_power(top - length(p)):
            problems.append(f"expansion of {p}: coefficients sum to {total}, "
                            f"want {minus_y_power(top - length(p))}")
    return problems


def check_conjectures(output: dict, n: int) -> list:
    leq = interval_pairs(n)
    problems: list = []
    for entries, check in zip(output["reports"], ("sign", "log-concavity", "s-delta")):
        _check_report(entries, check, leq, problems)
    if len(output["expansions"]) != len(perms(n)):
        problems.append(f"{len(output['expansions'])} expansions, want {len(perms(n))}")
    return problems + check_expansions(output["expansions"], n)


def check_nonequivariant(output: dict, n: int) -> list:
    """Expansion checks, strict log-concavity recomputed here, and the
    program's printed specialization equal to this file's."""
    (e,) = output["expansions"]
    problems = check_expansions(output["expansions"], n)
    ours = {tuple(c["w"]): at_torus_one(c["terms"]) for c in e["coeffs"]}
    printed = {tuple(c["w"]): list(c["y"]) for c in output["specialized"]}
    if printed != ours:
        problems.append(f"expansion of {tuple(e['p'])}: printed coefficients differ")
    for w, seq in ours.items():
        if not strictly_log_concave(seq):
            problems.append(f"coefficient of {w} in the expansion of {tuple(e['p'])} "
                            f"is not strictly log-concave: {seq}")
    return problems


# Polynomials in a1, a2, b1, b2, b3 as {exponent tuple: int}.
QUIVER_VARS = ("a1", "a2", "b1", "b2", "b3")


def p_add(f: dict, g: dict) -> dict:
    out = dict(f)
    for e, c in g.items():
        out[e] = out.get(e, 0) + c
        if out[e] == 0:
            del out[e]
    return out


def p_mul(f: dict, g: dict) -> dict:
    out: dict = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def p_linear(const: int, coeffs: dict) -> dict:
    out = {(0,) * 5: const} if const else {}
    for var, c in coeffs.items():
        e = [0] * 5
        e[QUIVER_VARS.index(var)] = 1
        out = p_add(out, {tuple(e): c})
    return out


def p_elementary(vs, k: int) -> dict:
    out: dict = {}
    for comb in itertools.combinations(vs, k):
        out = p_add(out, {tuple(1 if v in comb else 0 for v in QUIVER_VARS): 1})
    return out


GENERATORS = {"A1": p_elementary(("a1", "a2"), 1), "A2": p_elementary(("a1", "a2"), 2),
              "B1": p_elementary(("b1", "b2", "b3"), 1),
              "B2": p_elementary(("b1", "b2", "b3"), 2),
              "B3": p_elementary(("b1", "b2", "b3"), 3)}


def p_from_named(coeffs) -> dict:
    """Sum of c * monomial, monomials named like 'A1^2*B3' or '1'."""
    total: dict = {}
    for name, c in coeffs:
        term = {(0,) * 5: c}
        if name != "1":
            for factor in name.split("*"):
                gen, _, power = factor.partition("^")
                for _ in range(int(power or 1)):
                    term = p_mul(term, GENERATORS[gen])
        total = p_add(total, term)
    return total


def p_lowest(f: dict) -> dict:
    low = min(sum(e) for e in f)
    return {e: c for e, c in f.items() if sum(e) == low}


def _chern_hom() -> dict:
    """Total Chern class prod_{i <= 2, j <= 3} (1 + b_j - a_i) of Hom(C^2, C^3)."""
    out = {(0,) * 5: 1}
    for a in ("a1", "a2"):
        for b in ("b1", "b2", "b3"):
            out = p_mul(out, p_linear(1, {b: 1, a: -1}))
    return out


def _euler_hom() -> dict:
    out = {(0,) * 5: 1}
    for a in ("a1", "a2"):
        for b in ("b1", "b2", "b3"):
            out = p_mul(out, p_linear(0, {b: 1, a: -1}))
    return out


FUNDAMENTALS = {
    "omega0": p_from_named([("1", 1)]),
    "omega1": p_from_named([("B2", 1), ("A1*B1", -1), ("A1^2", 1), ("A2", -1)]),
    "omega2": _euler_hom(),
}


def check_quiver_round(outputs: list) -> list:
    """The three CSM classes sum to c(Hom(C^2, C^3)); each fundamental
    class is the known one and is the lowest-degree part of the CSM class."""
    problems: list = []
    if sorted(o["target"] for o in outputs) != sorted(FUNDAMENTALS):
        problems.append(f"targets {[o['target'] for o in outputs]}")
        return problems
    total: dict = {}
    for o in outputs:
        csm = p_from_named(o["csm"])
        total = p_add(total, csm)
        fundamental = p_from_named(o["fundamental"])
        if fundamental != FUNDAMENTALS[o["target"]]:
            problems.append(f"{o['target']}: wrong fundamental class {o['fundamental']}")
        if not csm or p_lowest(csm) != fundamental:
            problems.append(f"{o['target']}: lowest-degree part of the CSM class "
                            "is not the fundamental class")
        if o["lowest_matches_fundamental"] is not True:
            problems.append(f"{o['target']}: lowest_degree_matches_fundamental is false")
    if total != _chern_hom():
        problems.append("CSM classes do not sum to the total Chern class of Hom(C^2, C^3)")
    return problems


def check_round(workload: str, outputs: list) -> list:
    """Problems with one round of a workload's outputs."""
    if workload == "fl4-axioms":
        return [q for o in outputs for q in check_axioms(o, 4)]
    if workload == "fl4-conjectures":
        return [q for o in outputs for q in check_conjectures(o, 4)]
    if workload == "fl5-noneq":
        return [q for o in outputs for q in check_nonequivariant(o, 5)]
    if workload == "quiver-csm":
        return check_quiver_round(outputs)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# Self-test: every check must reject a corrupted output
# ---------------------------------------------------------------------------


def _flip_first_coefficient(output: dict) -> None:
    """Negate the first coefficient whose value at torus 1 is nonzero."""
    for e in output["expansions"]:
        for c in e["coeffs"]:
            if at_torus_one(c["terms"]):
                c["terms"] = [[exp, [-v for v in y]] for exp, y in c["terms"]]
                return
    raise ValueError("no coefficient to corrupt")


def _drop_entry(entries: list) -> None:
    del entries[len(entries) // 2]


def corruptions(workload: str, outputs: list):
    """(what, corrupted round) pairs, each of which must fail its check."""
    def corrupted(edit):
        bad = copy.deepcopy(outputs)
        edit(bad)
        return bad

    if workload == "fl4-axioms":
        yield "report entry dropped", corrupted(lambda o: _drop_entry(o[0]["entries"]))
    if workload == "fl4-conjectures":
        yield "report entry dropped", corrupted(lambda o: _drop_entry(o[0]["reports"][1]))
        yield "coefficient sign flipped", corrupted(lambda o: _flip_first_coefficient(o[0]))
    if workload == "fl5-noneq":
        yield "coefficient sign flipped", corrupted(lambda o: _flip_first_coefficient(o[0]))
    if workload == "quiver-csm":
        def bump(o):
            name, c = o[0]["csm"][-1]
            o[0]["csm"][-1] = [name, c + 1]
        yield "CSM coefficient changed", corrupted(bump)


def self_test(workload: str, outputs: list) -> list:
    """Names of the corruptions that the checks let through."""
    return [what for what, bad in corruptions(workload, outputs)
            if not check_round(workload, bad)]
