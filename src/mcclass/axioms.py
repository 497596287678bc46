"""Axiomatic checks on localized classes: normalization, divisibility,
support, strict polytope smallness, additivity and Segre consistency,
plus the quadratic-cone example.

Each check takes the one table it checks, {I: {J: f}} on the standard
torus t1..tn as localization_table returns it, and reads n from the
table's points; run_axiom_suite builds the full-flag table and runs all
six.

The checks read the tangent weights at each fixed point from
weightfn.tangent_weights, split into the cell and the normal pairs, and
multiply them out as euler_product (normal) and chern_factor_product
(cell, or all of them).
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping

from .combi import Composition, IndexTuple, closure_leq
from .newton import LatticePolytope, is_vertex, minkowski_sum, newton_polytope, polytope_contained
from .report import Report, ReportEntry
from .ring import (LaurentPoly, NonDivisibleError, RationalExpr, YP_ONE_PLUS_Y, YP_ZERO,
                   divisible_by_y_binomials, exact_divide, yp_add)
from .weightfn import (TorusSpecialization, c_mu_factors, c_prime_mu_factors,
                       chern_factor_product, euler_product, localization_table,
                       tangent_weights)


def _exponents(pairs, spec: TorusSpecialization) -> Counter:
    """The multiset of exponents e of the binomials 1 + y*tau^e of the
    factor pairs."""
    return Counter(spec.ratio_exp(i, j) for i, j in pairs)


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def _torus(table: Mapping) -> TorusSpecialization:
    """The standard torus t1..tn of a table {I: {J: f}}."""
    return TorusSpecialization.standard(next(iter(table)).mu.n)


def check_normalization(table: Mapping) -> Report:
    """Diagonal identity: each class restricts at its own point to
    the normal Euler factor times the cell Chern factor."""
    spec = _torus(table)
    report = Report("normalization")
    for I, row in table.items():
        cell, normal = tangent_weights(I)
        expected = euler_product(normal, spec) * chern_factor_product(cell, spec)
        got = row[I]
        report.add(ReportEntry(pair=(str(I), str(I)), check="normalization",
                               ok=(got == expected),
                               witness=None if got == expected else
                               {"got": _pstr(got), "expected": _pstr(expected)}))
    return report


def check_support(table: Mapping) -> Report:
    """Vanishing off the cell closure: the restriction at J is zero
    unless the cell of J lies in the closure of the cell of I."""
    report = Report("support")
    for I, row in table.items():
        for J, val in row.items():
            if closure_leq(I, J):
                continue
            report.add(ReportEntry(pair=(str(I), str(J)), check="support",
                                   ok=val.is_zero(),
                                   witness=None if val.is_zero() else
                                   {"restriction": _pstr(val)}))
    return report


def check_divisibility(table: Mapping) -> Report:
    """Every restriction is divisible by the cell Chern factor of the
    point where it is restricted.

    The factor is a product of binomials 1 + y*tau^e, so divisibility is
    decided by root vanishing (divisible_by_y_binomials); long division
    runs only to give a failing entry its remainder."""
    spec = _torus(table)
    cells = {J: tangent_weights(J)[0] for J in table}
    exponents = {J: _exponents(cells[J], spec) for J in table}
    report = Report("divisibility")
    for I, row in table.items():
        for J, val in row.items():
            if val.is_zero():
                continue
            ok = divisible_by_y_binomials(val, exponents[J])
            witness = None if ok else {
                "remainder": _division_remainder(val, chern_factor_product(cells[J], spec))}
            report.add(ReportEntry(pair=(str(I), str(J)), check="divisibility",
                                   ok=ok, witness=witness))
    return report


def _division_remainder(val: LaurentPoly, divisor: LaurentPoly):
    """The remainder that long division leaves, for a non-divisible val."""
    try:
        exact_divide(val, divisor)
    except NonDivisibleError as err:
        return _pstr(err.remainder) if err.remainder is not None else None
    raise AssertionError("root vanishing and long division disagree")


def check_smallness_strict(table: Mapping) -> Report:
    """Strict polytope containment with an origin-vertex certificate.

    For every ordered pair I != J with a nonzero restriction:
      * the support polytope of the restriction sits inside the
        Minkowski sum of the shifted Euler polytope and the cell Chern
        polytope at J,
      * that sum is properly contained in the diagonal polytope at J,
      * the origin is a vertex of the diagonal polytope but lies
        outside the off-diagonal polytope.

    The conditions on J alone (the sum inside the diagonal polytope,
    strictness, the origin a vertex) are certified once per J, and
    each generator point, the origin included, is tested against J's
    bound at most once.  An off-diagonal polytope inside a bound that
    misses the origin misses it too, without a hull of its own.
    """
    spec = _torus(table)
    report = Report("smallness")
    origin = spec.zero_exp()
    per_point = {J: _smallness_at(J, table[J][J], spec) for J in table}
    inside = {J: {} for J in table}  # generator point -> in J's bound?
    for I, row in table.items():
        for J, val in row.items():
            if I == J or val.is_zero():
                continue
            small = newton_polytope(val)
            bound, escape, own_problems = per_point[J]
            problems = []
            escaped = not _all_inside(bound, inside[J], small.points)
            if escaped:
                problems.append(escape)
            problems.extend(own_problems)
            # a polytope inside J's bound misses the origin when the bound
            # does, and then needs no hull of its own
            if ((escaped or _all_inside(bound, inside[J], (origin,)))
                    and small.contains_point(origin)):
                problems.append("origin lies in the off-diagonal polytope")
            report.add(ReportEntry(pair=(str(I), str(J)), check="smallness",
                                   ok=not problems,
                                   witness={"problems": problems} if problems else None))
    return report


def _smallness_at(J: IndexTuple, diag: LaurentPoly, spec: TorusSpecialization) -> tuple:
    """J's share of strict smallness: the polytope bounding every
    off-diagonal polytope at J, the problem reported when one escapes
    it, and the problems of J's own certificates, in report order."""
    cell, normal = tangent_weights(J)
    ek_minus_1 = euler_product(normal, spec) - spec.one()
    big = newton_polytope(diag)
    problems = []
    if ek_minus_1.is_zero():
        # codimension zero cell: no normal directions, the bound
        # degenerates and only the origin conditions remain
        bound = big
        escape = "restriction polytope escapes the diagonal polytope"
    else:
        bound = minkowski_sum(newton_polytope(ek_minus_1),
                              newton_polytope(chern_factor_product(cell, spec)))
        escape = "restriction polytope escapes the Minkowski bound"
        if not polytope_contained(bound, big):
            problems.append("Minkowski bound escapes the diagonal polytope")
        if polytope_contained(big, bound):
            problems.append("containment in the diagonal polytope is not strict")
    if not is_vertex(big, spec.zero_exp()):
        problems.append("origin is not a vertex of the diagonal polytope")
    return bound, escape, problems


def _all_inside(bound: LatticePolytope, inside: dict, points) -> bool:
    """Every point lies in bound; inside memoizes each point's answer."""
    for p in points:
        hit = inside.get(p)
        if hit is None:
            hit = inside[p] = bound.contains_point(p)
        if not hit:
            return False
    return True


def check_additivity(table: Mapping) -> Report:
    """Sum over all cells of the modified rows equals the ambient
    lambda_y class of the cotangent directions at every point."""
    spec = _torus(table)
    report = Report("additivity")
    points = list(table)
    for J in points:
        terms: dict = {}
        for I in points:
            for e, c in table[I][J].terms.items():
                terms[e] = yp_add(terms.get(e, YP_ZERO), c)
        total = LaurentPoly(spec.vars, terms)
        cell, normal = tangent_weights(J)
        expected = chern_factor_product(cell + normal, spec)
        report.add(ReportEntry(pair=(None, str(J)), check="additivity",
                               ok=(total == expected),
                               witness=None if total == expected else
                               {"got": _pstr(total), "expected": _pstr(expected)}))
    return report


def check_segre_consistency(table: Mapping) -> Report:
    """The two Chern products restrict compatibly with the tangent
    weights: c_mu * prod(1 + y/chi) = c'_mu at every fixed point, which
    makes the plain/modified/Segre normalizations agree.

    Both sides are products of binomials 1 + y*tau^e, which are
    irreducible and associate only when equal, so the identity holds
    exactly when the two multisets of exponents e agree.  The products
    are multiplied out only for the witness of a failing point."""
    spec = _torus(table)
    report = Report("segre")
    for J in table:
        cell, normal = tangent_weights(J)
        lhs = [*c_mu_factors(J), *cell, *normal]
        rhs = c_prime_mu_factors(J)
        ok = _exponents(lhs, spec) == _exponents(rhs, spec)
        report.add(ReportEntry(pair=(None, str(J)), check="segre", ok=ok,
                               witness=None if ok else
                               {"lhs": _pstr(chern_factor_product(lhs, spec)),
                                "rhs": _pstr(chern_factor_product(rhs, spec))}))
    return report


def run_axiom_suite(n: int, jobs: int = 1) -> Report:
    """All checks for the full flag variety on n letters, one report.

    The table comes from localization_table's left recursion, walked in
    one process; jobs changes nothing.
    """
    table = localization_table(Composition((1,) * n))
    combined = Report("axioms")
    for check in (check_normalization, check_support, check_divisibility,
                  check_smallness_strict, check_additivity, check_segre_consistency):
        combined.extend(check(table))
    return combined


def _pstr(p) -> str:
    from .ring import format_poly
    if isinstance(p, LaurentPoly):
        return format_poly(p)
    return str(p)


# ---------------------------------------------------------------------------
# The quadratic cone example
# ---------------------------------------------------------------------------

CONE_VARS = ("al", "be", "ga")


def quadratic_cone_class() -> LaurentPoly:
    """Motivic Chern class of the nondegenerate quadratic-cone complement,
    a torus acting on C^4 with characters al*be, al/be, al*ga, al/ga:

        (1+y)^2 * ( y^2/al^4
                    + y*(be/al^3 + ga/al^3 + 1/(al^3*be) + 1/(al^3*ga)
                         - 1/al^2 - 1/al^4)
                    + 1/al^2 ).
    """
    v = CONE_VARS
    inner = LaurentPoly(v, {
        (-4, 0, 0): (0, -1, 1),  # (y^2 - y) / al^4
        (-3, 1, 0): (0, 1),      # y * be / al^3
        (-3, 0, 1): (0, 1),      # y * ga / al^3
        (-3, -1, 0): (0, 1),     # y / (al^3 be)
        (-3, 0, -1): (0, 1),     # y / (al^3 ga)
        (-2, 0, 0): (1, -1),     # (1 - y) / al^2
    })
    one_plus_y = LaurentPoly.constant(v, YP_ONE_PLUS_Y)
    return one_plus_y * one_plus_y * inner


def quadratic_cone_euler() -> LaurentPoly:
    """prod over the four torus characters chi of (1 - 1/chi)."""
    v = CONE_VARS
    one = LaurentPoly.one(v)
    chars = [(1, 1, 0), (1, -1, 0), (1, 0, 1), (1, 0, -1)]
    out = one
    for e in chars:
        out = out * (one - LaurentPoly.monomial(v, tuple(-x for x in e)))
    return out


def quadratic_cone_ratio() -> RationalExpr:
    """The class divided by the Euler factor, ready for limit taking."""
    return RationalExpr(quadratic_cone_class(), quadratic_cone_euler())
