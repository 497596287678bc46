import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcclass.axioms import quadratic_cone_euler
from mcclass.combi import Composition, Permutation
from mcclass.newton import (LatticePolytope, ZeroPolynomialError, contains_point,
                            hull_2d, is_vertex, minkowski_sum, newton_polytope,
                            polytope_contained, project_sum_zero, render_svg)
from mcclass.ring import LaurentPoly
from mcclass.weightfn import (TorusSpecialization, chern_factor_product, euler_product,
                              localization_table, tangent_weights)
from oracles import lp_contains, lp_is_vertex

V2 = ("t1", "t2")


def seg():
    return LatticePolytope(2, [(0, 0), (-1, 1)])


def polytopes_equal(A: LatticePolytope, B: LatticePolytope) -> bool:
    return polytope_contained(A, B) and polytope_contained(B, A)


def translate(P: LatticePolytope, v) -> LatticePolytope:
    return LatticePolytope(P.dim, [tuple(a + b for a, b in zip(p, v)) for p in P.points])


# ---------------------------------------------------------------------------
# newton_polytope
# ---------------------------------------------------------------------------


def test_newton_polytope_binomial():
    p = LaurentPoly.one(V2) - LaurentPoly.monomial(V2, (-1, 1))
    assert newton_polytope(p).points == ((-1, 1), (0, 0))


def test_newton_polytope_single_monomial():
    p = LaurentPoly.monomial(V2, (-1, 1), (1, 1))
    assert newton_polytope(p).points == ((-1, 1),)


def test_newton_polytope_zero_rejected():
    with pytest.raises(ZeroPolynomialError):
        newton_polytope(LaurentPoly.zero(V2))


def test_newton_polytope_quadratic_cone_euler():
    # sixteen sign-subsets, two landing on the same exponent vector
    P = newton_polytope(quadratic_cone_euler())
    assert len(P.points) == 15
    assert is_vertex(P, (0, 0, 0))
    assert contains_point(P, (0, 0, 0))


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------


def test_contains_midpoint():
    assert contains_point(seg(), (Fraction(-1, 2), Fraction(1, 2)))


def test_contains_outside():
    assert not contains_point(seg(), (1, 0))


def test_polytope_contained_examples():
    assert polytope_contained(LatticePolytope(2, [(-1, 1)]), seg())
    assert polytope_contained(seg(), seg())
    assert not polytope_contained(seg(), LatticePolytope(2, [(-1, 1)]))


def test_is_vertex_examples():
    assert is_vertex(seg(), (0, 0))
    tri = LatticePolytope(2, [(0, 0), (3, 0), (0, 3), (1, 1)])
    assert not is_vertex(tri, (1, 1))
    assert is_vertex(tri, (3, 0))
    # a vertex is a generator: a point outside the hull is none
    assert not is_vertex(tri, (5, 5))
    assert not is_vertex(LatticePolytope(2, [(1, 0)]), (0, 0))


def test_minkowski_examples():
    origin = LatticePolytope(2, [(0, 0)])
    assert minkowski_sum(origin, seg()).points == seg().points
    para = minkowski_sum(seg(), LatticePolytope(2, [(0, 0), (1, 1)]))
    assert set(para.points) == {(0, 0), (-1, 1), (1, 1), (0, 2)}
    got = minkowski_sum(LatticePolytope(2, [(-1, 1)]), seg())
    assert set(got.points) == {(-1, 1), (-2, 2)}


# ---------------------------------------------------------------------------
# oracle comparison
# ---------------------------------------------------------------------------


def _oracle_contains(points, x):
    """Caratheodory: x is in the hull iff some <= d+1 points contain it
    in their affine span with nonnegative barycentric weights."""
    d = len(x)
    for k in range(1, d + 2):
        for subset in itertools.combinations(points, k):
            # solve sum l_i p_i = x, sum l_i = 1 by exact elimination
            rows = [[Fraction(p[i]) for p in subset] for i in range(d)]
            rows.append([Fraction(1)] * k)
            rhs = [Fraction(v) for v in x] + [Fraction(1)]
            sol = _lstsq_exact(rows, rhs)
            if sol is not None and all(v >= 0 for v in sol):
                return True
    return False


def _lstsq_exact(rows, rhs):
    m, n = len(rows), len(rows[0])
    aug = [row[:] + [b] for row, b in zip(rows, rhs)]
    piv = []
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, m) if aug[i][c] != 0), None)
        if pr is None:
            continue
        aug[r], aug[pr] = aug[pr], aug[r]
        pv = aug[r][c]
        aug[r] = [v / pv for v in aug[r]]
        for i in range(m):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        piv.append(c)
        r += 1
    for i in range(r, m):
        if aug[i][n] != 0:
            return None
    if len(piv) < n:
        return None  # underdetermined subsets are skipped by the oracle
    out = [Fraction(0)] * n
    for i, c in enumerate(piv):
        out[c] = aug[i][n]
    return out


@st.composite
def instances(draw):
    # integer generators; a query point with rational coordinates of
    # denominator 1 to 4, so that the LP's scaling to integers is covered
    dim = draw(st.integers(1, 4))
    npts = draw(st.integers(1, 6))
    pts = [tuple(draw(st.integers(-4, 4)) for _ in range(dim)) for _ in range(npts)]
    qx = tuple(draw(st.fractions(min_value=-5, max_value=5, max_denominator=4))
               for _ in range(dim))
    return dim, pts, qx


@given(instances())
@settings(max_examples=60, deadline=None)
def test_contains_point_matches_bruteforce_oracle(case):
    dim, pts, x = case
    P = LatticePolytope(dim, pts)
    assert contains_point(P, x) == _oracle_contains(P.points, x)


@given(instances())
@settings(max_examples=60, deadline=None)
def test_is_vertex_matches_bruteforce_oracle(case):
    # a vertex is a generator outside the hull of the other generators
    dim, pts, x = case
    P = LatticePolytope(dim, pts)
    for p in P.points:
        rest = [q for q in P.points if q != p]
        assert is_vertex(P, p) == (not rest or not _oracle_contains(rest, p))
    near = tuple(int(v) for v in x)
    if near not in P.points:
        assert not is_vertex(P, near)


@given(instances())
@settings(max_examples=30, deadline=None)
def test_containment_partial_order(case):
    dim, pts, _ = case
    A = LatticePolytope(dim, pts)
    B = LatticePolytope(dim, pts + [pts[0]])
    assert polytope_contained(A, B) and polytope_contained(B, A)
    assert polytopes_equal(A, B)


@given(instances())
@settings(max_examples=30, deadline=None)
def test_minkowski_contains_translates(case):
    dim, pts, _ = case
    A = LatticePolytope(dim, pts[:max(1, len(pts) // 2)])
    B = LatticePolytope(dim, pts)
    S = minkowski_sum(A, B)
    for b in B.points:
        assert polytope_contained(translate(A, b), S)
    for a in A.points:
        assert polytope_contained(translate(B, a), S)


# ---------------------------------------------------------------------------
# the polytopes of strict smallness
# ---------------------------------------------------------------------------


def _subset_sum_contains(P, x):
    """Membership in a generalized permutahedron: the coordinate sum of
    the generators, and <1_S, x> <= max_p <1_S, p> for every proper
    subset S."""
    n = P.dim
    if sum(x) != sum(P.points[0]):
        return False
    for mask in range(1, 2 ** n - 1):
        S = [i for i in range(n) if mask >> i & 1]
        if sum(x[i] for i in S) > max(sum(p[i] for i in S) for p in P.points):
            return False
    return True


@pytest.mark.parametrize("n", [3, 4])
def test_diagonal_polytope_matches_subset_sum_oracle(n):
    # the diagonal polytope at J is a Minkowski sum of root segments, so
    # its facets are subset-sum bounds; compare at every lattice point of
    # its bounding box (the Minkowski bound is no such polytope)
    table = localization_table(Composition((1,) * n))
    checked = 0
    for J in table:
        P = newton_polytope(table[J][J])
        for x in itertools.product(*(range(lo, hi + 1) for lo, hi in P.box)):
            assert contains_point(P, x) == _subset_sum_contains(P, x), (str(J), x)
            checked += 1
    assert checked == {3: 162, 4: 6144}[n]


@pytest.mark.slow
@pytest.mark.parametrize("word", [(5, 4, 3, 2, 1), (4, 5, 3, 2, 1), (1, 5, 4, 3, 2)])
def test_smallness_polytopes_match_lp_oracle_n5(word):
    # hull against simplex on J's bound and diagonal polytopes: each one's
    # generators in the other, the points around the origin, and the
    # origin as a vertex of the diagonal polytope
    spec = TorusSpecialization.standard(5)
    J = Permutation(word).to_index_tuple()
    row = localization_table(Composition((1,) * 5), cells=[J])[J]
    cell, normal = tangent_weights(J)
    big = newton_polytope(row[J])
    bound = minkowski_sum(newton_polytope(euler_product(normal, spec) - spec.one()),
                          newton_polytope(chern_factor_product(cell, spec)))
    near = [x for x in itertools.product((-1, 0, 1), repeat=5) if sum(x) == 0]
    for P, queries in ((big, bound.points + tuple(near)), (bound, big.points + tuple(near))):
        for x in queries:
            assert contains_point(P, x) == lp_contains(P, x), x
    origin = spec.zero_exp()
    assert is_vertex(big, origin) == lp_is_vertex(big, origin)


# ---------------------------------------------------------------------------
# pictures
# ---------------------------------------------------------------------------


def test_project_sum_zero_injective_on_plane():
    pts = [(1, -1, 0), (0, 1, -1), (2, -1, -1), (0, 0, 0)]
    proj = project_sum_zero(pts)
    assert len(set(proj)) == len(set(pts))


def test_hull_2d_square():
    pts = [(0, 0), (2, 0), (2, 2), (0, 2), (1, 1)]
    hull = hull_2d(pts)
    assert set(hull) == {(0, 0), (2, 0), (2, 2), (0, 2)}


def test_render_svg_deterministic(golden):
    layers = [("ek-polygon", [(0, 0), (2, 0), (0, 2)]),
              ("class-polygon", [(1, 1)])]
    svg = render_svg(layers)
    assert render_svg(layers) == svg
    golden("triangle.svg", svg)
