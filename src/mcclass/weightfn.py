"""Weight functions of cells and their fixed-point localization tables.

The weight function of an index tuple I is a symmetrization of an
explicit product U_I of three-case binomial factors.  Its fixed-point
restrictions assemble into localization tables which equal the
equivariant motivic Chern classes of matrix Schubert cells (plain) and
of flag-variety Schubert cells (modified, after division by a Chern
product).

localization_table takes one route for every composition: a depth-first
walk over the cells of G/P by the left Demazure-Lusztig step on ring's
packed coefficients, seeded with the closed-form row of the top cell.
A table is a plain dict {I: {J: f}} on the standard torus t1..tn; a
caller that wants another TorusSpecialization maps the entries itself.
weight_function symmetrizes globally and restriction_direct at one fixed
point, the route the test suite builds its oracle tables from.  Both read
the three cases from psi_factor, and both divide by their Vandermonde
product through _divide_by_differences, one line quotient per difference.
So every division in the module is ring.line_quotient, a quotient by
1 - tau^D along lines of exponents.

The tangent weights at a fixed point are stated once, by
combi.tangent_weights (imported here), and multiplied out by
euler_product and chern_factor_product; the top cell's row, the axiom
checks and the polygon pictures read them from here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from operator import sub
from typing import Mapping, Sequence

from .combi import (Composition, IndexTuple, Permutation, enumerate_index_tuples,
                    left_parent_edges, tangent_weights, tree_walk)
from .ring import (YP_ONE, YP_ONE_PLUS_Y, YP_PACK_BITS, YP_Y, LaurentPoly, MonomialMap,
                   RationalExpr, ZeroDenominatorError, digit_guard, line_quotient,
                   monomial_substitute, pack_poly, unpack_polys)

# ---------------------------------------------------------------------------
# Variable panels and torus specializations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VariablePanel:
    """Chern-root variables a{j}_{k} per flag step, with the last group t{k}."""

    mu: Composition
    groups: tuple

    def __init__(self, mu: Composition | Sequence[int]):
        if not isinstance(mu, Composition):
            mu = Composition(mu)
        sums = mu.partial_sums
        groups = []
        for j in range(1, mu.num_blocks + 1):
            size = sums[j - 1]
            if j == mu.num_blocks:
                groups.append(tuple(f"t{k}" for k in range(1, size + 1)))
            else:
                groups.append(tuple(f"a{j}_{k}" for k in range(1, size + 1)))
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "groups", tuple(groups))

    @property
    def vars(self) -> tuple:
        return tuple(v for g in self.groups for v in g)

    def var(self, j: int, a: int) -> str:
        """Name of the a-th Chern root of the j-th step (both 1-based)."""
        return self.groups[j - 1][a - 1]

    def one(self) -> LaurentPoly:
        return LaurentPoly.one(self.vars)

    def ratio(self, top: str, bottom: str) -> LaurentPoly:
        """The monomial top/bottom."""
        vars = self.vars
        e = [0] * len(vars)
        e[vars.index(top)] += 1
        e[vars.index(bottom)] -= 1
        return LaurentPoly.monomial(vars, e)


@dataclass(frozen=True)
class TorusSpecialization:
    """Monomial images of the torus variables tau_1..tau_n.

    The standard specialization keeps tau_i as independent variables
    t1..tn.  The one-parameter specialization sends tau_i to t^i, which
    keeps every needed binomial nonzero while collapsing polynomials in
    t1..tn to univariate data; it computes non-equivariant answers exactly.
    """

    n: int
    vars: tuple
    images: tuple  # images[i-1] = exponent vector of tau_i

    @classmethod
    def standard(cls, n: int) -> "TorusSpecialization":
        vars = tuple(f"t{k}" for k in range(1, n + 1))
        images = tuple(tuple(1 if j == i else 0 for j in range(n)) for i in range(n))
        return cls(n, vars, images)

    @classmethod
    def one_parameter(cls, n: int) -> "TorusSpecialization":
        return cls(n, ("t",), tuple((i,) for i in range(1, n + 1)))

    def zero_exp(self) -> tuple:
        return (0,) * len(self.vars)

    @cached_property
    def from_standard(self) -> MonomialMap:
        """tau_i -> its image, from the standard variables t1..tn."""
        return MonomialMap(tuple(f"t{k}" for k in range(1, self.n + 1)),
                           {f"t{i}": (1, dict(zip(self.vars, e)))
                            for i, e in enumerate(self.images, start=1)},
                           self.vars)

    def specialize(self, p: LaurentPoly) -> LaurentPoly:
        """The image of a polynomial in the standard variables t1..tn,
        through the map compiled on first use."""
        return self.from_standard(p)

    def tau_exp(self, i: int) -> tuple:
        return self.images[i - 1]

    def ratio_exp(self, i: int, j: int) -> tuple:
        """Exponent vector of tau_i / tau_j."""
        return tuple(a - b for a, b in zip(self.images[i - 1], self.images[j - 1]))

    def ratio(self, i: int, j: int) -> LaurentPoly:
        return LaurentPoly.monomial(self.vars, self.ratio_exp(i, j))

    def one(self) -> LaurentPoly:
        return LaurentPoly.one(self.vars)

    def zero(self) -> LaurentPoly:
        return LaurentPoly.zero(self.vars)

    def one_minus_ratio(self, i: int, j: int) -> LaurentPoly:
        """1 - tau_i/tau_j; nonzero whenever i != j."""
        e = self.ratio_exp(i, j)
        if not any(e):
            return self.zero()
        return LaurentPoly(self.vars, {self.zero_exp(): YP_ONE, e: (-1,)})

    def one_plus_y_ratio(self, i: int, j: int) -> LaurentPoly:
        """1 + y*tau_i/tau_j."""
        e = self.ratio_exp(i, j)
        if not any(e):
            return LaurentPoly.constant(self.vars, YP_ONE_PLUS_Y)
        return LaurentPoly(self.vars, {self.zero_exp(): YP_ONE, e: YP_Y})

    def tau_diff(self, i: int, j: int) -> LaurentPoly:
        """tau_i - tau_j = tau_i (1 - tau_j/tau_i)."""
        return self.one_minus_ratio(j, i).shift(self.tau_exp(i))


# ---------------------------------------------------------------------------
# The three-case factor and the unsymmetrized term
# ---------------------------------------------------------------------------

PSI_LESS = "1-xi"
PSI_EQUAL = "(1+y)xi"
PSI_GREATER = "1+y*xi"


@dataclass(frozen=True)
class PsiFactor:
    """One factor of the unsymmetrized product: a function of a monomial.

    kind selects among 1 - xi, (1+y)*xi and 1 + y*xi according to the
    comparison of the interlaced union entries.
    """

    kind: str

    def __call__(self, xi: LaurentPoly) -> LaurentPoly:
        one = LaurentPoly.one(xi.vars)
        if self.kind == PSI_LESS:
            return one - xi
        if self.kind == PSI_EQUAL:
            return xi.scale_ypoly(YP_ONE_PLUS_Y)
        return one + xi.scale_ypoly(YP_Y)


def psi_factor(I: IndexTuple, j: int, a: int, b: int) -> PsiFactor:
    """Case split on i^{(j+1)}_b versus i^{(j)}_a (all indices 1-based)."""
    upper = I.unions[j][b - 1]
    lower = I.unions[j - 1][a - 1]
    if upper < lower:
        return PsiFactor(PSI_LESS)
    if upper == lower:
        return PsiFactor(PSI_EQUAL)
    return PsiFactor(PSI_GREATER)


def _u_numerator(I: IndexTuple, panel: VariablePanel) -> LaurentPoly:
    """The numerator of u_term: the psi products times the
    upper-triangular factors 1 + y*alpha_b/alpha_a (a < b)."""
    sums = I.mu.partial_sums
    out = panel.one()
    for j in range(1, I.mu.num_blocks):
        for a in range(1, sums[j - 1] + 1):
            for b in range(1, sums[j] + 1):
                xi = panel.ratio(panel.var(j, a), panel.var(j + 1, b))
                out = out * psi_factor(I, j, a, b)(xi)
        for a in range(1, sums[j - 1] + 1):
            for b in range(a + 1, sums[j - 1] + 1):
                out = out * (panel.one()
                             + panel.ratio(panel.var(j, b), panel.var(j, a)).scale_ypoly(YP_Y))
    return out


def u_term(I: IndexTuple, panel: VariablePanel | None = None) -> RationalExpr:
    """The unsymmetrized rational term whose orbit sum is the weight function."""
    if panel is None:
        panel = VariablePanel(I.mu)
    sums = I.mu.partial_sums
    den = panel.one()
    for j in range(1, I.mu.num_blocks):
        for a in range(1, sums[j - 1] + 1):
            for b in range(a + 1, sums[j - 1] + 1):
                den = den * (panel.one() - panel.ratio(panel.var(j, b), panel.var(j, a)))
    return RationalExpr(_u_numerator(I, panel), den)


def _symmetrizer_group(mu: Composition):
    """Tuples (sigma_1, ..., sigma_{N-1}), each a permutation of a group."""
    sums = mu.partial_sums
    pools = [list(itertools.permutations(range(sums[j - 1])))
             for j in range(1, mu.num_blocks)]
    return itertools.product(*pools)


def _perm_sign(p: Sequence[int]) -> int:
    inv = 0
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            if p[i] > p[j]:
                inv += 1
    return -1 if inv % 2 else 1


def weight_function(I: IndexTuple, panel: VariablePanel | None = None) -> LaurentPoly:
    """The symmetrized weight function W_I as a Laurent polynomial.

    All symmetrizer terms are placed over the common denominator
    prod (alpha_a - alpha_b); the summed numerator is then divided by
    each difference along lines.  A division failure is an
    implementation fault, never a valid outcome.
    """
    if panel is None:
        panel = VariablePanel(I.mu)
    sums = I.mu.partial_sums
    # u_term times prod (alpha_a - alpha_b): each factor 1 - alpha_b/alpha_a
    # of its denominator absorbs one alpha_a, size - a of them per alpha_a
    mono = [0] * len(panel.vars)
    for j in range(1, I.mu.num_blocks):
        for a in range(1, sums[j - 1] + 1):
            mono[panel.vars.index(panel.var(j, a))] = sums[j - 1] - a
    base = _u_numerator(I, panel).shift(mono)
    total = LaurentPoly.zero(panel.vars)
    for sigma in _symmetrizer_group(I.mu):
        sign = 1
        mapping = {}
        for j, sj in enumerate(sigma, start=1):
            sign *= _perm_sign(sj)
            for a, target in enumerate(sj):
                mapping[panel.var(j, a + 1)] = panel.var(j, target + 1)
        term = base.rename_vars(mapping)
        total = total + (term if sign > 0 else -term)
    unit = {v: tuple(int(u == v) for u in panel.vars) for v in panel.vars}
    return _divide_by_differences(total, [(unit[a], unit[b]) for group in panel.groups[:-1]
                                          for a, b in itertools.combinations(group, 2)])


def chern_products(mu: Composition | Sequence[int],
                   panel: VariablePanel | None = None):
    """The two Chern-type products (c_mu, c'_mu) over the variable panel."""
    if not isinstance(mu, Composition):
        mu = Composition(mu)
    if panel is None:
        panel = VariablePanel(mu)
    sums = mu.partial_sums
    c = panel.one()
    cp = panel.one()
    for j in range(1, mu.num_blocks):
        for a in range(1, sums[j - 1] + 1):
            for b in range(1, sums[j - 1] + 1):
                c = c * (panel.one()
                         + panel.ratio(panel.var(j, b), panel.var(j, a)).scale_ypoly(YP_Y))
        for a in range(1, sums[j] + 1):
            for b in range(1, sums[j - 1] + 1):
                cp = cp * (panel.one()
                           + panel.ratio(panel.var(j, b), panel.var(j + 1, a)).scale_ypoly(YP_Y))
    return c, cp


# ---------------------------------------------------------------------------
# Fixed-point restriction
# ---------------------------------------------------------------------------


def _block_images(J: IndexTuple):
    """tau indices assigned to each group: sorted unions of J."""
    return [list(u) for u in J.unions]


def restrict_to_fixed_point(W: LaurentPoly, J: IndexTuple,
                            spec: TorusSpecialization | None = None,
                            panel: VariablePanel | None = None) -> LaurentPoly:
    """Substitute the Chern-root multisets by the tau values at J.

    W must be symmetric in each group for the multiset substitution to
    be well defined; the substitution assigns group j's variables the
    tau images of the sorted union I^{(j)}.
    """
    if panel is None:
        panel = VariablePanel(J.mu)
    if spec is None:
        spec = TorusSpecialization.standard(J.mu.n)
    images: dict = {}
    tJ = _block_images(J)
    for j in range(1, J.mu.num_blocks + 1):
        for a, tau_index in enumerate(tJ[j - 1], start=1):
            e = spec.tau_exp(tau_index)
            images[panel.var(j, a)] = (1, {v: k for v, k in zip(spec.vars, e) if k})
    return monomial_substitute(W, images, out_vars=spec.vars)


def chern_factor_product(pairs, spec: TorusSpecialization) -> LaurentPoly:
    """The product over factor pairs (i, j) of 1 + y*tau_i/tau_j; on the
    pairs of tangent_weights, of 1 + y/chi over the weights chi."""
    out = spec.one()
    for i, j in pairs:
        out = out * spec.one_plus_y_ratio(i, j)
    return out


def euler_product(pairs, spec: TorusSpecialization) -> LaurentPoly:
    """The product over pairs (a, b) of 1 - tau_a/tau_b; on the pairs of
    tangent_weights, of 1 - 1/chi over the weights chi."""
    out = spec.one()
    for a, b in pairs:
        out = out * spec.one_minus_ratio(a, b)
    return out


def c_mu_factors(J: IndexTuple) -> list:
    """Factor pairs of c_mu restricted at the fixed point J."""
    return [(b, a) for idx in _block_images(J)[:-1] for a in idx for b in idx]


def c_prime_mu_factors(J: IndexTuple) -> list:
    """Factor pairs of c'_mu restricted at the fixed point J."""
    tJ = _block_images(J)
    return [(b, a) for j in range(len(tJ) - 1) for a in tJ[j + 1] for b in tJ[j]]


def c_mu_at(J: IndexTuple, spec: TorusSpecialization) -> LaurentPoly:
    """Restriction of c_mu at the fixed point J."""
    return chern_factor_product(c_mu_factors(J), spec)


def c_prime_mu_at(J: IndexTuple, spec: TorusSpecialization) -> LaurentPoly:
    """Restriction of c'_mu at the fixed point J."""
    return chern_factor_product(c_prime_mu_factors(J), spec)


# ---------------------------------------------------------------------------
# Direct localization: evaluate the symmetrization at a fixed point.  No
# route of the package calls it; the tests' oracle tables and
# perfbench/job.py do.
# ---------------------------------------------------------------------------

def restriction_direct(I: IndexTuple, J: IndexTuple,
                       spec: TorusSpecialization | None = None) -> LaurentPoly:
    """W_I restricted at the fixed point J, by direct symmetrization.

    Each symmetrizer term is evaluated after the tau substitution; the
    signed sum is divided by the substituted Vandermonde product, the
    differences of the tau images inside each of J's blocks, along
    lines.  Terms with a vanishing 1 - xi factor are pruned early.
    """
    mu = I.mu
    if spec is None:
        spec = TorusSpecialization.standard(mu.n)
    sums = mu.partial_sums
    psi = [(j - 1, a - 1, b - 1, psi_factor(I, j, a, b).kind)
           for j in range(1, mu.num_blocks)
           for a in range(1, sums[j - 1] + 1) for b in range(1, sums[j] + 1)]
    tJ = _block_images(J)
    total = spec.zero()
    for sigma in _symmetrizer_group(mu):
        # tau index assigned to panel slot (j, a): groups j < N permuted.
        assign = [[tJ[j][k] for k in sj] for j, sj in enumerate(sigma)]
        assign.append(tJ[-1])
        if any(kind == PSI_LESS and assign[j][a] == assign[j + 1][b]
               for j, a, b, kind in psi):
            continue
        term = spec.one()
        shift = spec.zero_exp()
        for j, a, b, kind in psi:
            lower, upper = assign[j][a], assign[j + 1][b]
            if kind == PSI_LESS:
                term = term * spec.one_minus_ratio(lower, upper)
            elif kind == PSI_GREATER:
                term = term * spec.one_plus_y_ratio(lower, upper)
            else:
                # (1+y) * xi: the monomial xi joins the shift below
                term = term.scale_ypoly(YP_ONE_PLUS_Y)
                shift = tuple(s + x for s, x in zip(shift, spec.ratio_exp(lower, upper)))
        for group in assign[:-1]:
            size = len(group)
            for a in range(size):
                for b in range(a + 1, size):
                    term = term * spec.one_plus_y_ratio(group[b], group[a])
                # the monomial prod alpha_a^(size - a) from the common denominator
                shift = tuple(s + x * (size - 1 - a)
                              for s, x in zip(shift, spec.tau_exp(group[a])))
        term = term.shift(shift)
        sign = 1
        for sj in sigma:
            sign *= _perm_sign(sj)
        total = total + (term if sign > 0 else -term)
    return _divide_by_differences(total, [(spec.tau_exp(a), spec.tau_exp(b))
                                          for idx in tJ[:-1]
                                          for a, b in itertools.combinations(idx, 2)])


# ---------------------------------------------------------------------------
# Localization tables
# ---------------------------------------------------------------------------


def top_cell(mu: Composition) -> IndexTuple:
    """The point cell: each block holds the largest values left by the earlier ones."""
    return IndexTuple(mu, [range(mu.n - end + 1, mu.n - end + size + 1)
                           for end, size in zip(mu.partial_sums, mu.parts)])


def top_cell_row(mu: Composition, spec: TorusSpecialization) -> dict:
    """Modified row of the top cell, keyed by the points of mu in order: by
    support zero but at the cell's own point, and there, by normalization,
    the Euler product of the normal weights.  The cell is a point: every
    weight there is normal, so there is no Chern factor."""
    top = top_cell(mu)
    row = {J: spec.zero() for J in enumerate_index_tuples(mu)}
    row[top] = euler_product(tangent_weights(top)[1], spec)
    return row


def left_row_step(row: Mapping[IndexTuple, tuple], i: int) -> dict:
    """The row f' of s_i I (values i, i+1 swapped) from the row f of I,
    when s_i I is one shorter than I, on plain and modified rows alike:
        f'(J) = ((1 + y*tau^D) s(f(s_i J)) - (1 + y) f(J)) / (1 - tau^D)
    with D = e_i - e_{i+1} and s exchanging tau_i and tau_{i+1}: the left
    Demazure-Lusztig operator (Aluffi-Mihalcea-Schuermann-Su) on fixed
    points, on packed rows (ring.pack_poly) on the standard torus, each
    entry built under ring.digit_guard.  The numerator is built by
    exponent shifts and divided along lines (ring.line_quotient);
    f'(s_i J) = s(f'(J)) + s(f(J)) - f(s_i J), so each pair divides once."""
    out = dict.fromkeys(row)
    vars = TorusSpecialization.standard(next(iter(row)).mu.n).vars
    for J, fJ in row.items():
        if out[J] is None:
            sJ = J.swap_values(i)
            fsJ = row[sJ]
            out[J] = q = digit_guard(_left_quotient, (fJ, fsJ), i, vars)
            if sJ != J:
                out[sJ] = digit_guard(_left_partner, (q, fJ, fsJ), i)
    return out


def _left_partner(q: tuple, fJ: tuple, fsJ: tuple, i: int) -> tuple:
    """f'(s_i J) = s(q + f(J)) - f(s_i J) of left_row_step, q = f'(J)."""
    p = i - 1
    acc = {e: -v for e, v in fsJ[0].items()}
    get = acc.get
    for terms, _ in (q, fJ):
        for e, v in terms.items():
            key = e[:p] + (e[i], e[p]) + e[i + 1:]
            acc[key] = get(key, 0) + v
    return {e: v for e, v in acc.items() if v}, q[1] + fJ[1] + fsJ[1]


def _left_quotient(fJ: tuple, fsJ: tuple, i: int, vars: tuple) -> tuple:
    """((1 + y*tau^D) s(f(s_i J)) - (1 + y) f(J)) / (1 - tau^D) of left_row_step."""
    p = i - 1
    acc = {e: -v - (v << YP_PACK_BITS) for e, v in fJ[0].items()}
    get = acc.get
    for e, v in fsJ[0].items():
        head, tail = e[:p], e[i + 1:]
        key = head + (e[i], e[p]) + tail
        acc[key] = get(key, 0) + v
        key = head + (e[i] + 1, e[p] - 1) + tail
        acc[key] = get(key, 0) + (v << YP_PACK_BITS)
    D = tuple(1 if k == p else -1 if k == i else 0 for k in range(len(vars)))
    return line_quotient((acc, 2 * (fJ[1] + fsJ[1])), D, vars)


def _divide_by_differences(f: LaurentPoly, pairs) -> LaurentPoly:
    """f / prod (tau^a - tau^b) over pairs (a, b) of exponent vectors.
    Each factor is tau^a (1 - tau^(b - a)): a shift by -a, then a packed
    ring.line_quotient in the direction b - a.  NonDivisibleError if the
    product does not divide f, ZeroDenominatorError if some a = b."""
    pairs = [(a, tuple(map(sub, b, a))) for a, b in pairs]
    if any(not any(D) for _, D in pairs):
        raise ZeroDenominatorError("division by tau^a - tau^b across equal torus images")
    terms, bound = pack_poly(f)
    for a, D in pairs:
        shifted = {tuple(map(sub, e, a)): v for e, v in terms.items()}
        terms, bound = digit_guard(line_quotient, ((shifted, bound),), D, f.vars)
    return unpack_polys({0: terms}, f.vars)[0]


def localization_table(mu: Composition | Sequence[int], modified: bool = True,
                       cells=None) -> dict:
    """Localization tables of the given cells (default: every cell) on the
    standard torus t1..tn: {I: {J: f}}, rows and their points in the order
    of enumerate_index_tuples, or the rows in the order of cells.

    One depth-first walk (tree_walk) of left_row_step down the left
    parents from the top cell's row, packed once, holding only the
    current path and decoding each row once.  The step commutes with
    c_mu (c_mu at s_i J, swapped, is c_mu at J), so plain rows start
    from the top row times c_mu."""
    if not isinstance(mu, Composition):
        mu = Composition(mu)
    spec = TorusSpecialization.standard(mu.n)
    points = enumerate_index_tuples(mu)
    top = top_cell(mu)
    seed = top_cell_row(mu, spec)
    if not modified:
        seed[top] = seed[top] * c_mu_at(top, spec)
    seed = {J: pack_poly(f) for J, f in seed.items()}
    rows = {I: unpack_polys({J: terms for J, (terms, _) in row.items()}, spec.vars)
            for I, row in tree_walk(top, seed, left_parent_edges(points, top),
                                    left_row_step, cells)}
    return {I: rows[I] for I in (points if cells is None else cells)}


def full_flag_table_recursive(n: int) -> dict:
    """Modified rows of all Fl(n) cells on the standard torus, keyed by
    permutation."""
    return {I.to_permutation(): {J.to_permutation(): f for J, f in row.items()}
            for I, row in localization_table(Composition((1,) * n)).items()}


# ---------------------------------------------------------------------------
# Right steps on full-flag rows, which no route of the package takes.  The
# isobaric Demazure operator pi_i builds the basis rows of the expansion
# oracle; T_i = (1 + y*beta) pi_i - 1 takes the modified row of w to that
# of w*s_i when that is one shorter, which the tests cross-check.
# ---------------------------------------------------------------------------


def descent_step(row: Mapping[Permutation, LaurentPoly], i: int,
                 spec: TorusSpecialization) -> dict:
    """T_i f = (1 + y*beta) pi_i f - f on a modified row f, beta = tau^D
    in the spec's exponents; pi_i divides once per pair v, v*s_i."""
    q = demazure_step(row, i, spec)
    return {v: q[v] + q[v].shift(spec.ratio_exp(v(i), v(i + 1))).scale_ypoly(YP_Y) - fv
            for v, fv in row.items()}


def demazure_step(row: Mapping[Permutation, LaurentPoly], i: int,
                  spec: TorusSpecialization) -> dict:
    """(pi_i f)(v) = (f(v) - beta * f(v s_i)) / (1 - beta) with
    beta = tau_{v(i)} / tau_{v(i+1)}: the isobaric Demazure operator,
    pushforward along the P^1-fibration G/B -> G/P_i pulled back to G/B.
    The value at v s_i is the same, so each pair divides once, along lines.
    """
    out = {}
    for v in row:
        vs = v.swap_positions(i)
        g = out.get(vs)
        out[v] = g if g is not None else _isobaric(row[v], row[vs],
                                                   spec.ratio_exp(v(i), v(i + 1)))
    return out


def _isobaric(fv: LaurentPoly, fvs: LaurentPoly, D: tuple) -> LaurentPoly:
    """(f(v) - tau^D f(v*s_i)) / (1 - tau^D) of demazure_step."""
    return _divide_by_differences(fv - fvs.shift(D), [((0,) * len(D), D)])
