"""Expansion of cell classes in the structure-sheaf basis, the
non-equivariant and ratio-variable specializations, and the three
conjecture checkers (signs, log-concavity, shifted-variable signs).

Expansions are produced by the left Demazure-Lusztig recursion
(Aluffi-Mihalcea-Schuermann-Su, arXiv:1902.10101): a sparse two-term
step on the coefficients, walked down from the point class.  The step
is division-free and needs no ring product: it is accumulated term by
term on plain dicts, one output cell at a time.  The localization rows
of the basis (isobaric Demazure recursion) and the Bruhat-triangular
back-substitution stay here as the independent oracle that the test
suite pins the recursion against.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from operator import add, neg, sub
from typing import Mapping, Sequence

from .combi import Permutation, bruhat_leq, permutations_by_length, weak_order_walk
from .report import Report, ReportEntry
from .ring import (LaurentPoly, exact_divide, format_poly_ygrouped, monomial_substitute,
                   poly_to_json, substitute_ones, yp_subst)
from .weightfn import TorusSpecialization, demazure_step, point_cell_row


class NegativeRatioExponentError(ValueError):
    """A coefficient needed a negative power of a ratio variable."""


# ---------------------------------------------------------------------------
# Oracle: basis rows by the isobaric Demazure recursion, expansions by the
# triangular solve.  Only the tests use these.
# ---------------------------------------------------------------------------


def structure_sheaf_rows(n: int, spec: TorusSpecialization | None = None) -> dict:
    """Localization rows of every basis class, keyed by permutation,
    seeded with the point class (point_cell_row)."""
    if spec is None:
        spec = TorusSpecialization.standard(n)
    rows = {Permutation.longest(n): point_cell_row(n, spec)}
    for w, parent, i in weak_order_walk(n):
        rows[w] = demazure_step(rows[parent], i, spec)
    return rows


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


def _cell_terms(c: LaurentPoly | None, partner: LaurentPoly | None, i: int,
                ascent: bool) -> dict:
    """Canonical terms of one output cell of `left_step`.

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
    a + b and rest, so the cell is built by index shifts and tuple sums
    of y-coefficients, without a ring product or a division.
    """
    p, q = i - 1, i
    width = 1 + max(max(map(len, poly.terms.values()), default=0)
                    for poly in (c, partner) if poly is not None)
    acc: dict = {}
    get = acc.get
    if c is not None:
        for e, v in c.terms.items():
            a, b = e[p], e[q]
            head, tail = e[:p], e[q + 1:]
            vp = v + (0,) * (width - len(v))
            vs = (0,) + vp[:-1]
            if a <= b:
                u, js = tuple(map(sub, map(neg, vp), vs)), range(a, b + 1)
            else:
                u, js = tuple(map(add, vp, vs)), range(b + 1, a)
            for j in js:
                key = head + (j, a + b - j) + tail
                old = get(key)
                acc[key] = u if old is None else tuple(map(add, old, u))
            if ascent:
                key, u = head + (b, a) + tail, vp
            else:
                key, u = head + (b + 1, a - 1) + tail, tuple(map(neg, vs))
            old = get(key)
            acc[key] = u if old is None else tuple(map(add, old, u))
    if partner is not None:
        for e, v in partner.terms.items():
            a, b = e[p], e[q]
            head, tail = e[:p], e[q + 1:]
            vp = v + (0,) * (width - len(v))
            for key, u in ((head + (b, a) + tail, vp),
                           (head + (b + 1, a - 1) + tail, (0,) + vp[:-1])):
                old = get(key)
                acc[key] = u if old is None else tuple(map(add, old, u))
    out = {}
    for e, u in acc.items():
        if not u[-1]:
            k = width - 1
            while k and not u[k - 1]:
                k -= 1
            if not k:
                continue
            u = u[:k]
        out[e] = u
    return out


def left_step(coeffs: Mapping[Permutation, LaurentPoly], i: int,
              spec: TorusSpecialization) -> dict:
    """Coefficients of mC[w] from those of mC[s_i w], where s_i w (the
    values i and i+1 of w swapped) is one longer than w:

        c_x O_x -> (1 + y beta) s(c_x) O_x'
                   + ((1 + y beta) d(c_x) - (1 + y + y beta) c_x) O_x

    with beta = tau_i/tau_{i+1}, s exchanging tau_i and tau_{i+1},
    d(c) = tau_i (c - s c)/(tau_i - tau_{i+1}), and x' = s_i x when that
    is shorter than x, else x' = x.  So an output cell x with i before
    i+1 gathers from c_x and c_{s_i x}, and one with i+1 before i from
    c_x alone; each cell is built term by term (`_cell_terms`) and
    finished before the next.  Needs the standard torus; returns the
    nonzero coefficients.
    """
    out: dict = {}
    seen = set()
    for x in coeffs:
        cells = (((x, True),) if _is_ascent(x, i)
                 else ((x.swap_values(i), True), (x, False)))
        for w, ascent in cells:
            if w in seen:
                continue
            seen.add(w)
            partner = coeffs.get(w.swap_values(i)) if ascent else None
            terms = _cell_terms(coeffs.get(w), partner, i, ascent)
            if terms:
                out[w] = LaurentPoly._from_trimmed(spec.vars, terms)
    return out


def _is_ascent(w: Permutation, i: int) -> bool:
    """Value i comes before i+1 in w, i.e. l(s_i w) = l(w) + 1."""
    return w.word.index(i) < w.word.index(i + 1)


def _left_parent(w: Permutation) -> int:
    """The smallest i with l(s_i w) = l(w) + 1."""
    return next(i for i in range(1, w.n) if _is_ascent(w, i))


class Expander:
    """Expansions of every cell class of Fl(n) in the structure-sheaf
    basis, by the left Demazure-Lusztig recursion from the point class.

    The recursion runs on the standard torus.  For another torus
    specialization each coefficient is mapped through the
    specialization afterwards; the equivariant expansion is the unique
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
        self.jobs = jobs
        self._standard = TorusSpecialization.standard(n)
        w0 = Permutation.longest(n)
        self._memo = {w0: {w0: self._standard.one()}}

    def _coeffs(self, p: Permutation) -> dict:
        """Standard-torus coefficients of p, walking the chain of left
        parents up to the first one already known."""
        chain = []
        w = p
        while w not in self._memo:
            i = _left_parent(w)
            chain.append((w, i))
            w = w.swap_values(i)
        for w, i in reversed(chain):
            self._memo[w] = left_step(self._memo[w.swap_values(i)], i, self._standard)
        return self._memo[p]

    def _fill_in_parallel(self, perms) -> None:
        """perms in (length, word) order; the steps of one length level
        are independent of each other."""
        import multiprocessing as mp
        with mp.get_context("spawn").Pool(self.jobs) as pool:
            for _, level in itertools.groupby(reversed(perms), key=Permutation.length):
                todo = [(w, _left_parent(w)) for w in level if w not in self._memo]
                results = pool.starmap(left_step, [(self._memo[w.swap_values(i)], i,
                                                    self._standard) for w, i in todo])
                self._memo.update(zip((w for w, _ in todo), results))

    def expand(self, p: Permutation) -> Expansion:
        coeffs = self._coeffs(p)
        if self.spec != self._standard:
            images = {v: (1, dict(zip(self.spec.vars, exp)))
                      for v, exp in zip(self._standard.vars, self.spec.images)}
            coeffs = {w: monomial_substitute(c, images, self.spec.vars)
                      for w, c in coeffs.items()}
            coeffs = {w: c for w, c in coeffs.items() if not c.is_zero()}
        return Expansion(p, coeffs, self.spec)

    @cached_property
    def expansions(self) -> dict:
        perms = permutations_by_length(self.n)
        if self.jobs > 1:
            self._fill_in_parallel(perms)
        return {p: self.expand(p) for p in perms}


def expand(p: Permutation, spec: TorusSpecialization | None = None) -> Expansion:
    """Expansion of the class of the cell of p in the basis."""
    return Expander(p.n, spec).expand(p)


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


def check_sign_conjecture(n: int, expander: Expander | None = None) -> Report:
    """Every tau,y-monomial of the coefficient of [w] in the expansion
    of the class of p has sign (-1)^(l(p) - l(w))."""
    if expander is None:
        expander = Expander(n)
    report = Report("sign-conjecture")
    for p, e in sorted(expander.expansions.items(), key=lambda kv: (kv[0].length(), kv[0].word)):
        lp = p.length()
        for w, c in e.sorted_items():
            want = 1 if (lp - w.length()) % 2 == 0 else -1
            bad = []
            for exp, ypol in c.sorted_terms():
                for k, ck in enumerate(ypol):
                    if ck and _sign_of(ck) != want:
                        bad.append({"exp": list(exp), "ydeg": k, "coeff": ck})
            report.add(ReportEntry(pair=(str(p), str(w)), check="sign",
                                   ok=not bad,
                                   witness={"terms": bad} if bad else None))
    return report


def is_strictly_log_concave(seq: Sequence[int]) -> bool:
    """a_k^2 > a_{k-1} a_{k+1} for every interior index."""
    for k in range(1, len(seq) - 1):
        if seq[k] * seq[k] <= seq[k - 1] * seq[k + 1]:
            return False
    return True


def check_log_concavity(n: int, expander: Expander | None = None,
                        jobs: int = 1) -> Report:
    """Strict log-concavity of every non-equivariant coefficient."""
    if expander is None:
        expander = Expander(n, jobs=jobs)
    report = Report("log-concavity")
    for p, e in sorted(expander.expansions.items(), key=lambda kv: (kv[0].length(), kv[0].word)):
        for w, c in e.sorted_items():
            seq = substitute_ones(c)
            ok = is_strictly_log_concave(seq)
            report.add(ReportEntry(pair=(str(p), str(w)), check="log-concavity",
                                   ok=ok,
                                   witness=None if ok else {"coefficients": list(seq)}))
    return report


def check_s_delta_signs(n: int, expander: Expander | None = None) -> Report:
    """Every s,delta-monomial of every rewritten coefficient has a sign
    depending on w only: the parity of the dimension of the cell of w.

    On four letters the total dimension is even, so this agrees with
    the codimension parity visible in the printed examples; the n = 2
    and n = 3 cases separate the two readings and pin the dimension
    normalization (codimension parity fails already on the one-term
    expansion of the point class there).
    """
    if expander is None:
        expander = Expander(n)
    total = n * (n - 1) // 2
    report = Report("s-delta-signs")
    for p, e in sorted(expander.expansions.items(), key=lambda kv: (kv[0].length(), kv[0].word)):
        try:
            rewritten = substitute_s_delta(e)
        except NegativeRatioExponentError as err:
            report.add(ReportEntry(pair=(str(p), None), check="s-delta",
                                   ok=False, witness={"error": str(err)}))
            continue
        for w in sorted(rewritten, key=lambda w: (w.length(), w.word)):
            want = 1 if (total - w.length()) % 2 == 0 else -1
            bad = []
            for exp, dpol in rewritten[w].sorted_terms():
                for k, ck in enumerate(dpol):
                    if ck and _sign_of(ck) != want:
                        bad.append({"exp": list(exp), "deltadeg": k, "coeff": ck})
            report.add(ReportEntry(pair=(str(p), str(w)), check="s-delta",
                                   ok=not bad,
                                   witness={"terms": bad} if bad else None))
    return report


# ---------------------------------------------------------------------------
# Emitters
# ---------------------------------------------------------------------------


def _coeff_display(c: LaurentPoly, param: str = "y"):
    """(sign, body) with the overall minus pulled out of all-negative
    coefficients, the way the expansions are traditionally printed."""
    negative = not c.is_zero() and all(ck <= 0 for ypol in c.terms.values() for ck in ypol)
    return ("-" if negative else "+"), format_poly_ygrouped(c, param, negate=negative)


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
