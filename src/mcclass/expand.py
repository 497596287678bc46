"""Expansion of cell classes in the structure-sheaf basis, the
non-equivariant and ratio-variable specializations, and the conjecture
checks (signs, log-concavity, shifted-variable signs).

Expansions are produced by the left Demazure-Lusztig recursion
(Aluffi-Mihalcea-Schuermann-Su, arXiv:1902.10101): a sparse two-term
step on the coefficients, walked depth-first down the tree of left
parents from the point class, holding only the current path.  The step
is division-free and needs no ring product: it is accumulated term by
term, one output cell at a time, on the packed coefficients of `ring`
under its digit guard, as the localization rows are.  The conjecture
checks read each cell's expansion as the walk yields it.  The localization
rows of the basis (isobaric Demazure recursion) and the
Bruhat-triangular back-substitution stay here as the independent
oracle that the test suite pins the recursion against.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from operator import add, mul
from typing import Mapping, Sequence

from .combi import (Composition, Permutation, bruhat_leq, left_ascent, left_parent_edges,
                    permutations_by_length, tree_walk, weak_order_walk)
from .report import Report, ReportEntry
from .ring import (YP_PACK_BITS, LaurentPoly, digit_guard, exact_divide, format_poly_ygrouped,
                   pack_poly, poly_to_json, substitute_ones, unpack_polys, yp_subst)
from .weightfn import TorusSpecialization, demazure_step, top_cell_row


class NegativeRatioExponentError(ValueError):
    """A coefficient needed a negative power of a ratio variable."""


# ---------------------------------------------------------------------------
# Oracle: basis rows by the isobaric Demazure recursion, expansions by the
# triangular solve.  Only the tests use these.
# ---------------------------------------------------------------------------


def structure_sheaf_rows(n: int, spec: TorusSpecialization | None = None) -> dict:
    """Localization rows of every basis class, keyed by permutation,
    seeded with the point class (top_cell_row of the full flag)."""
    if spec is None:
        spec = TorusSpecialization.standard(n)
    seed = {J.to_permutation(): f for J, f in top_cell_row(Composition((1,) * n), spec).items()}
    return dict(tree_walk(Permutation.longest(n), seed, weak_order_walk(n),
                          lambda row, i: demazure_step(row, i, spec)))


@dataclass(frozen=True)
class Expansion:
    """Coefficients of one cell class in the structure-sheaf basis."""

    p: Permutation
    coeffs: dict  # w -> LaurentPoly (nonzero)
    spec: TorusSpecialization

    def sorted_items(self):
        return sorted(self.coeffs.items(), key=lambda kv: (kv[0].length(), kv[0].word))

    def to_json(self) -> dict:
        return {"p": list(self.p.word),
                "coeffs": [{"w": list(w.word), "poly": poly_to_json(c)}
                           for w, c in self.sorted_items()]}


def expand_by_solve(p: Permutation, wrow: Mapping[Permutation, LaurentPoly],
                    basis_rows: Mapping[Permutation, Mapping], spec: TorusSpecialization,
                    order: Sequence[Permutation] | None = None) -> Expansion:
    """Back-substitution of the Bruhat-triangular linear system
    row(p) = sum_w c_w * row([w]) along a linear extension of the
    closure order; every division by a diagonal entry must be exact."""
    perms = permutations_by_length(spec.n)
    if order is None:
        order = perms
    else:
        if sorted(order, key=lambda w: w.word) != sorted(perms, key=lambda w: w.word):
            raise ValueError("order must enumerate all permutations")
        for a, b in itertools.combinations(range(len(order)), 2):
            if bruhat_leq(order[b], order[a]) and order[a] != order[b]:
                raise ValueError("order is not a linear extension of the closure order")
    coeffs: dict = {}
    for v in order:
        rem = wrow[v]
        for w, cw in coeffs.items():
            bwv = basis_rows[w].get(v)
            if bwv is None or bwv.is_zero():
                continue
            rem = rem - cw * bwv
        if rem.is_zero():
            continue
        coeffs[v] = exact_divide(rem, basis_rows[v][v])
    return Expansion(p, coeffs, spec)


# ---------------------------------------------------------------------------
# Expansions by the left Demazure-Lusztig recursion
# ---------------------------------------------------------------------------


def _cell_terms(c: tuple | None, partner: tuple | None, i: int, ascent: bool) -> tuple:
    """One output cell of `left_step` as a packed polynomial, from the
    packed coefficients c and partner of x and s_i x (or None).

    Write a term of an input coefficient as v tau^e, with
    (a, b) = (e_i, e_{i+1}) and rest the other exponents.  d(tau^e) is
    a geometric sum between the two exponents, so the second part of
    the step is

        (1 + y beta) d(tau^e) - (1 + y + y beta) tau^e
            = -(1 + y) S(a, b) - y beta s(tau^e),

    where S(a, b) = sum_{j=a..b} tau_i^j tau_{i+1}^(a+b-j) rest is a
    signed sum (for a > b, minus the sum over j = b+1..a-1).  An ascent
    cell x also receives (1 + y beta) s(c_x), whose y beta part cancels
    the last piece, and (1 + y beta) s(c_{s_i x}).  Every piece keeps
    a + b and rest, so the cell is built by index shifts and integer
    sums: (1 + y) v is v + (v << YP_PACK_BITS) and y v is
    v << YP_PACK_BITS, without a ring product or a division.

    A term of c_x lands on at most |a - b| + 1 keys with (1 + y) and on
    one more key, so the output's digits sum in absolute value to at
    most (2 span + 3) B(c_x) + 2 B(c_{s_i x}), span the largest |a - b|
    in c_x.  That is the returned bound, which ring.digit_guard checks.
    """
    p, q = i - 1, i
    acc: dict = {}
    get = acc.get
    bound = 0
    if c is not None:
        terms, bound = c
        span = 0
        for e, v in terms.items():
            a, b = e[p], e[q]
            head, tail = e[:p], e[q + 1:]
            vy = v << YP_PACK_BITS
            if a <= b:
                d, u, js = b - a, -v - vy, range(a, b + 1)
            else:
                d, u, js = a - b, v + vy, range(b + 1, a)
            if d > span:
                span = d
            for j in js:
                key = head + (j, a + b - j) + tail
                acc[key] = get(key, 0) + u
            if ascent:
                key, u = head + (b, a) + tail, v
            else:
                key, u = head + (b + 1, a - 1) + tail, -vy
            acc[key] = get(key, 0) + u
        bound *= 2 * span + 3
    if partner is not None:
        terms, partner_bound = partner
        for e, v in terms.items():
            a, b = e[p], e[q]
            head, tail = e[:p], e[q + 1:]
            key = head + (b, a) + tail
            acc[key] = get(key, 0) + v
            key = head + (b + 1, a - 1) + tail
            acc[key] = get(key, 0) + (v << YP_PACK_BITS)
        bound += 2 * partner_bound
    return {e: u for e, u in acc.items() if u}, bound


def left_step(coeffs: Mapping[Permutation, tuple], i: int) -> dict:
    """Packed coefficients (ring.pack_poly) of mC[w] from those of
    mC[s_i w], where s_i w (the values i and i+1 of w swapped) is one
    longer than w:

        c_x O_x -> (1 + y beta) s(c_x) O_x'
                   + ((1 + y beta) d(c_x) - (1 + y + y beta) c_x) O_x

    with beta = tau_i/tau_{i+1}, s exchanging tau_i and tau_{i+1},
    d(c) = tau_i (c - s c)/(tau_i - tau_{i+1}), and x' = s_i x when that
    is shorter than x, else x' = x.  So an output cell x with i before
    i+1 gathers from c_x and c_{s_i x}, and one with i+1 before i from
    c_x alone; each cell is built term by term (`_cell_terms`, under
    ring.digit_guard) and finished before the next.  Returns the nonzero
    coefficients, in the standard torus variables.
    """
    out: dict = {}
    seen = set()
    for x in coeffs:
        cells = (((x, True),) if left_ascent(x, i)
                 else ((x.swap_values(i), True), (x, False)))
        for w, ascent in cells:
            if w in seen:
                continue
            seen.add(w)
            partner = coeffs.get(w.swap_values(i)) if ascent else None
            cell = digit_guard(_cell_terms, (coeffs.get(w), partner), i, ascent)
            if cell[0]:
                out[w] = cell
    return out


class Expander:
    """Expansions of cell classes of Fl(n) in the structure-sheaf basis,
    by the left Demazure-Lusztig recursion from the point class.

    Every cell w other than w0 has one left parent s_i w, with i the
    smallest left ascent of w, so the cells form a tree rooted at w0;
    `walk` takes it depth-first (tree_walk) and holds only the
    coefficients on its current path.  jobs is accepted and changes
    nothing: the walk runs in one process.

    The recursion runs on the standard torus, on packed coefficients
    (ring.pack_poly), and a yielded cell is decoded once.  For another
    torus specialization the packed values are first summed per image
    exponent of the specialization's compiled map and only the image
    terms are decoded; the equivariant expansion is the unique
    solution of a triangular system whose diagonal stays nonzero under
    the specializations used here, so the mapped coefficients are the
    specialized solution exactly.

    A two-term operator that transports localization rows (right,
    GKM-local) cannot act sparsely on this basis; the left operator
    acts on the coefficients instead and needs no localization rows.
    """

    def __init__(self, n: int, spec: TorusSpecialization | None = None, jobs: int = 1):
        self.n = n
        self.spec = spec if spec is not None else TorusSpecialization.standard(n)
        self._standard = TorusSpecialization.standard(n)

    def walk(self, cells=None):
        """Yield (p, expansion of p) for every p in cells (default: every
        permutation), depth-first down the left-parent edges."""
        w0 = Permutation.longest(self.n)
        std, spec = self._standard, self.spec
        image = None if spec == std else spec.from_standard.map_terms
        edges = left_parent_edges(permutations_by_length(self.n), w0)
        seed = {w0: pack_poly(std.one())}
        for p, packed in tree_walk(w0, seed, edges, left_step, cells):
            terms = {w: t for w, (t, _) in packed.items()}
            if image is not None:
                terms = {w: m for w, t in terms.items() for m in [image(t, add, mul)] if m}
            yield p, Expansion(p, unpack_polys(terms, spec.vars), spec)

    def expand(self, p: Permutation) -> Expansion:
        """The expansion of p alone: one chain of left steps from w0."""
        if p.n != self.n:
            raise ValueError(f"cell {p} is not a permutation of 1..{self.n}")
        return next(self.walk([p]))[1]

    @cached_property
    def expansions(self) -> dict:
        """Every expansion, in (length, word) order of the cells."""
        return dict(sorted(self.walk(), key=lambda kv: _cell_key(kv[0])))


def _cell_key(w: Permutation) -> tuple:
    return w.length(), w.word


# ---------------------------------------------------------------------------
# Specializations
# ---------------------------------------------------------------------------


def specialize_nonequivariant(e: Expansion) -> dict:
    """Send every torus variable to 1; coefficients become y-polynomials."""
    return {w: substitute_ones(c) for w, c in e.coeffs.items()}


def ratio_exponents(exp: Sequence[int]) -> tuple:
    """Rewrite a degree-zero tau-exponent vector in the variables
    r_i = tau_i/tau_{i+1}: the r-exponents are the partial sums."""
    partial = 0
    out = []
    for x in exp[:-1]:
        partial += x
        out.append(partial)
    if partial + exp[-1] != 0:
        raise ValueError("exponent vector is not of degree zero")
    return tuple(out)


def substitute_s_delta(e: Expansion) -> dict:
    """Substitute tau_i/tau_{i+1} = 1 + s_i and y = -1 - delta in every
    coefficient; the result is a polynomial in s_1..s_{n-1} whose
    parameter slot carries delta.

    Raises NegativeRatioExponentError when a coefficient is not a
    polynomial in the ratio variables.
    """
    n = e.p.n
    if e.spec.vars != TorusSpecialization.standard(n).vars:
        raise ValueError("ratio-variable substitution needs the standard torus")
    svars = tuple(f"s{i}" for i in range(1, n))
    one = LaurentPoly.one(svars)
    out = {}
    for w, c in e.coeffs.items():
        acc = LaurentPoly.zero(svars)
        for exp, ypol in c.sorted_terms():
            k = ratio_exponents(exp)
            if any(x < 0 for x in k):
                raise NegativeRatioExponentError(
                    f"coefficient of [{w}] in the expansion of [{e.p}] needs "
                    f"a negative ratio power: exponent {exp}")
            delta_poly = yp_subst(ypol, (-1, -1))
            term = LaurentPoly.constant(svars, delta_poly)
            for idx, ki in enumerate(k):
                if ki:
                    term = term * (one + LaurentPoly.variable(svars, svars[idx])) ** ki
            acc = acc + term
        out[w] = acc
    return out


# ---------------------------------------------------------------------------
# Conjecture checkers
# ---------------------------------------------------------------------------


def _sign_of(x: int) -> int:
    return (x > 0) - (x < 0)


def _sign_entry(p: Permutation, w: Permutation, c: LaurentPoly, parity: int,
                check: str, degree: str) -> ReportEntry:
    """Every monomial of c has the sign (-1)^parity; the witness lists
    the terms that do not."""
    want = -1 if parity % 2 else 1
    bad = [{"exp": list(exp), degree: k, "coeff": ck}
           for exp, pol in c.sorted_terms() for k, ck in enumerate(pol)
           if ck and _sign_of(ck) != want]
    return ReportEntry(pair=(str(p), str(w)), check=check, ok=not bad,
                       witness={"terms": bad} if bad else None)


def _sign_entries(p: Permutation, e: Expansion) -> list:
    """Every tau,y-monomial of the coefficient of [w] in the expansion
    of the class of p has sign (-1)^(l(p) - l(w))."""
    return [_sign_entry(p, w, c, p.length() - w.length(), "sign", "ydeg")
            for w, c in e.sorted_items()]


def is_strictly_log_concave(seq: Sequence[int]) -> bool:
    """a_k^2 > a_{k-1} a_{k+1} for every interior index."""
    for k in range(1, len(seq) - 1):
        if seq[k] * seq[k] <= seq[k - 1] * seq[k + 1]:
            return False
    return True


def _log_entries(p: Permutation, e: Expansion) -> list:
    """Strict log-concavity of every non-equivariant coefficient."""
    out = []
    for w, c in e.sorted_items():
        seq = substitute_ones(c)
        ok = is_strictly_log_concave(seq)
        out.append(ReportEntry(pair=(str(p), str(w)), check="log-concavity", ok=ok,
                               witness=None if ok else {"coefficients": list(seq)}))
    return out


def _sdelta_entries(p: Permutation, e: Expansion) -> list:
    """Every s,delta-monomial of every rewritten coefficient has a sign
    depending on w only: the parity of the dimension of the cell of w.

    On four letters the total dimension is even, so this agrees with
    the codimension parity visible in the printed examples; the n = 2
    and n = 3 cases separate the two readings and pin the dimension
    normalization (codimension parity fails already on the one-term
    expansion of the point class there).
    """
    try:
        rewritten = substitute_s_delta(e)
    except NegativeRatioExponentError as err:
        return [ReportEntry(pair=(str(p), None), check="s-delta", ok=False,
                            witness={"error": str(err)})]
    total = p.n * (p.n - 1) // 2
    return [_sign_entry(p, w, rewritten[w], total - w.length(), "s-delta", "deltadeg")
            for w in sorted(rewritten, key=_cell_key)]


# The per-cell checks, in report order: name -> check(p, expansion of p).
CONJECTURE_CHECKS = {"sign": _sign_entries, "log": _log_entries, "sdelta": _sdelta_entries}


def check_conjectures(n: int, checks=tuple(CONJECTURE_CHECKS),
                      expander: Expander | None = None) -> Report:
    """The named checks in one report, from one walk of the left-parent
    tree: each cell's expansion is fed to every check, then dropped.
    Entries run check by check in CONJECTURE_CHECKS order, each in the
    (length, word) order of the cells."""
    if expander is None:
        expander = Expander(n)
    found = {name: [] for name in CONJECTURE_CHECKS if name in checks}
    for p, e in expander.walk():
        for name, cells in found.items():
            cells.append((_cell_key(p), CONJECTURE_CHECKS[name](p, e)))
    report = Report("conjectures")
    for cells in found.values():
        for _, entries in sorted(cells, key=lambda kv: kv[0]):
            report.entries.extend(entries)
    return report


def check_sign_conjecture(n: int, expander: Expander | None = None) -> Report:
    return Report("sign-conjecture", check_conjectures(n, ("sign",), expander).entries)


def check_log_concavity(n: int, expander: Expander | None = None,
                        jobs: int = 1) -> Report:
    return Report("log-concavity", check_conjectures(n, ("log",), expander).entries)


def check_s_delta_signs(n: int, expander: Expander | None = None) -> Report:
    return Report("s-delta-signs", check_conjectures(n, ("sdelta",), expander).entries)


# ---------------------------------------------------------------------------
# Emitters
# ---------------------------------------------------------------------------


def _coeff_display(c: LaurentPoly):
    """(sign, body) with the overall minus pulled out of all-negative
    coefficients, the way the expansions are traditionally printed."""
    negative = not c.is_zero() and all(ck <= 0 for ypol in c.terms.values() for ck in ypol)
    return ("-" if negative else "+"), format_poly_ygrouped(c, negate=negative)


def format_expansion(e: Expansion, nonequivariant: bool = False) -> str:
    """One line per class: mC[p] = (coeff)*[w] +- ..., basis classes
    ordered primary by length, secondary lexicographically."""
    name = "mC[" + ",".join(map(str, e.p.word)) + "]"
    items = e.sorted_items()
    if nonequivariant:
        from .ring import format_ypoly
        rendered = []
        for w, c in items:
            seq = substitute_ones(c)
            if not seq:
                continue
            sign = "-" if all(v < 0 for v in seq) else "+"
            body = format_ypoly(tuple(abs(v) for v in seq) if sign == "-" else seq)
            rendered.append((w, sign, body))
    else:
        rendered = []
        for w, c in items:
            sign, body = _coeff_display(c)
            rendered.append((w, sign, body))
    if not rendered:
        return f"{name} = 0"
    parts = [name, "="]
    for idx, (w, sign, body) in enumerate(rendered):
        wname = "[" + ",".join(map(str, w.word)) + "]"
        if idx == 0:
            lead = f"-({body})*{wname}" if sign == "-" else f"({body})*{wname}"
            parts.append(lead)
        else:
            parts.append(f"{sign} ({body})*{wname}")
    return " ".join(parts)
