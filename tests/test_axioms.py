from collections import Counter

import pytest

import mcclass.newton
from mcclass.axioms import (_smallness_at, check_additivity, check_divisibility,
                            check_normalization, check_segre_consistency,
                            check_smallness_strict, check_support, quadratic_cone_class,
                            quadratic_cone_euler, run_axiom_suite)
from mcclass.combi import Composition, IndexTuple, Permutation, enumerate_index_tuples, length
from mcclass.newton import newton_polytope, is_vertex
from mcclass.ring import LaurentPoly, exact_divide, format_poly
from mcclass.weightfn import (TorusSpecialization, c_mu_at, chern_factor_product,
                              euler_product, localization_table, tangent_weights)
from oracles import direct_table, lp_contains, lp_is_vertex


def test_tangent_weights_n2():
    # the pair (a, b) is the weight tau_b/tau_a
    open_cell = IndexTuple((1, 1), [(1,), (2,)])
    point_cell = IndexTuple((1, 1), [(2,), (1,)])
    assert tangent_weights(open_cell) == (((1, 2),), ())
    assert tangent_weights(point_cell) == ((), ((2, 1),))


def test_tangent_weights_n1_empty():
    I = IndexTuple((1,), [(1,)])
    assert tangent_weights(I) == ((), ())


@pytest.mark.parametrize("parts", [(1, 1), (2, 1), (1, 1, 1), (2, 2), (1, 2, 1)])
def test_counts_match_codimension(parts):
    mu = Composition(parts)
    dim = None
    for I in enumerate_index_tuples(mu):
        cell, normal = tangent_weights(I)
        if dim is None:
            dim = len(cell) + len(normal)
        assert len(cell) + len(normal) == dim
        assert len(normal) == length(I)


def test_point_cell_euler_is_nonzero_with_origin_vertex():
    for n in (2, 3, 4):
        mu = Composition((1,) * n)
        spec = TorusSpecialization.standard(n)
        for I in enumerate_index_tuples(mu):
            ek = euler_product(tangent_weights(I)[1], spec)
            assert not ek.is_zero()
            assert is_vertex(newton_polytope(ek), spec.zero_exp())


@pytest.mark.parametrize("n", [1, 2, 3])
def test_axiom_suite_small(n):
    report = run_axiom_suite(n)
    assert report.ok, [e.to_json() for e in report.violations]


@pytest.mark.slow
def test_axiom_suite_n4():
    report = run_axiom_suite(4)
    assert report.ok, [e.to_json() for e in report.violations]


def test_polytope_answers_match_lp_oracle(monkeypatch):
    # every membership, containment and vertex question the suite asks at
    # n <= 4, answered from cached facets, against the simplex
    import mcclass.axioms as axioms
    import mcclass.newton as newton
    asked = []

    def recorder(kind, fn):
        def answer(P, x):
            got = fn(P, x)
            asked.append((kind, P, x, got))
            return got
        return answer

    monkeypatch.setattr(newton, "contains_point", recorder("contains", newton.contains_point))
    monkeypatch.setattr(axioms, "polytope_contained",
                        recorder("contained", axioms.polytope_contained))
    monkeypatch.setattr(axioms, "is_vertex", recorder("vertex", axioms.is_vertex))
    for n in (2, 3, 4):
        assert run_axiom_suite(n).ok
    oracle = {"contains": lp_contains, "vertex": lp_is_vertex,
              "contained": lambda A, B: all(lp_contains(B, p) for p in A.points)}
    counts = Counter((kind, got) for kind, _, _, got in asked)
    assert counts == {("contains", True): 1870, ("contains", False): 58,
                      ("contained", True): 29, ("contained", False): 29,
                      ("vertex", True): 32}
    for kind, P, x, got in asked:
        assert got == oracle[kind](P, x), (kind, P, x)


def test_checks_individually_n3():
    table = direct_table(Composition((1, 1, 1)), modified=True)
    assert check_normalization(table).ok
    assert check_support(table).ok
    assert check_divisibility(table).ok
    assert check_smallness_strict(table).ok
    assert check_additivity(table).ok
    assert check_segre_consistency(table).ok


def test_smallness_n2_instance():
    # the single nonzero off-diagonal pair at n=2: polytopes by hand
    mu = Composition((1, 1))
    spec = TorusSpecialization.standard(2)
    table = direct_table(mu, modified=True, spec=spec)
    I = IndexTuple(mu, [(1,), (2,)])
    J = IndexTuple(mu, [(2,), (1,)])
    small = newton_polytope(table[I][J])
    assert small.points == ((-1, 1),)
    big = newton_polytope(table[J][J])
    assert set(big.points) == {(0, 0), (-1, 1)}
    assert is_vertex(big, (0, 0))
    assert not small.contains_point((0, 0))


def test_smallness_builds_hulls_only_for_the_per_point_polytopes(monkeypatch):
    # every off-diagonal polytope of the correct n = 4 table lies in J's
    # bound, and the origin lies outside that bound wherever it lies in
    # the polytope's bounding box, so the origin test builds no hull: only
    # J's bound and diagonal polytopes get one (the 12 off-diagonal hulls
    # built for the origin test alone are gone)
    spec = TorusSpecialization.standard(4)
    table = localization_table(Composition((1, 1, 1, 1)))
    per_point = set()
    for J in table:
        per_point.add(newton_polytope(table[J][J]).points)
        per_point.add(_smallness_at(J, table[J][J], spec)[0].points)
    built = []
    build = mcclass.newton._h_representation

    def counting(points, dim):
        built.append(points)
        return build(points, dim)

    monkeypatch.setattr(mcclass.newton, "_h_representation", counting)
    assert check_smallness_strict(table).ok
    assert set(built) <= per_point
    assert len(built) == 41


def test_smallness_witnesses_on_corrupted_n3_table():
    # corrupt off-diagonal and diagonal entries of the n = 3 table and pin
    # every failing pair's problems, in the order the check reports them
    mu = Composition((1, 1, 1))
    spec = TorusSpecialization.standard(3)
    table = {I: dict(row) for I, row in localization_table(mu).items()}

    def P(word):
        return IndexTuple(mu, [(int(c),) for c in word])

    def mono(*e):
        return LaurentPoly.monomial(spec.vars, e)

    one = LaurentPoly.one(spec.vars)
    # off-diagonal: the origin plus a far monomial; a far monomial at the
    # codimension-zero point
    table[P("123")][P("132")] = table[P("123")][P("132")] + one + mono(3, 0, -3)
    table[P("231")][P("321")] = table[P("231")][P("321")] + one + mono(0, 3, -3)
    table[P("132")][P("123")] = mono(-3, 0, 3)
    # off-diagonal: the origin alone, inside the diagonal polytope of the
    # codimension-zero point, whose bound holds the origin
    table[P("213")][P("123")] = one
    # diagonal: the origin stops being a vertex; the bound stops fitting;
    # the diagonal loses the origin and shrinks to the bound itself
    table[P("213")][P("213")] = table[P("213")][P("213")] + mono(1, -1, 0)
    table[P("321")][P("321")] = one
    cell, normal = tangent_weights(P("312"))
    table[P("312")][P("312")] = ((euler_product(normal, spec) - one)
                                 * chern_factor_product(cell, spec))

    report = check_smallness_strict(table)
    escapes_mid = "restriction polytope escapes the Minkowski bound"
    escapes_big = "restriction polytope escapes the diagonal polytope"
    mid_escapes = "Minkowski bound escapes the diagonal polytope"
    not_strict = "containment in the diagonal polytope is not strict"
    not_vertex = "origin is not a vertex of the diagonal polytope"
    origin_in = "origin lies in the off-diagonal polytope"
    w0 = "{3},{2},{1}"
    assert len(report.entries) == 15
    assert [(e.pair, e.witness["problems"]) for e in report.violations] == [
        (("{1},{2},{3}", "{1},{3},{2}"), [escapes_mid, origin_in]),
        (("{1},{2},{3}", "{2},{1},{3}"), [not_vertex]),
        (("{1},{2},{3}", "{3},{1},{2}"), [not_strict, not_vertex]),
        (("{1},{2},{3}", w0), [mid_escapes]),
        (("{1},{3},{2}", "{1},{2},{3}"), [escapes_big]),
        (("{1},{3},{2}", "{3},{1},{2}"), [not_strict, not_vertex]),
        (("{1},{3},{2}", w0), [mid_escapes]),
        (("{2},{1},{3}", "{1},{2},{3}"), [origin_in]),
        (("{2},{1},{3}", "{3},{1},{2}"), [not_strict, not_vertex]),
        (("{2},{1},{3}", w0), [mid_escapes]),
        (("{2},{3},{1}", w0), [escapes_mid, mid_escapes, origin_in]),
        (("{3},{1},{2}", w0), [mid_escapes]),
    ]


def test_divisibility_witnesses_on_corrupted_n3_table():
    # corrupt entries of the n = 3 table, some into values the cell Chern
    # factor still divides, and pin every failing entry's remainder
    mu = Composition((1, 1, 1))
    spec = TorusSpecialization.standard(3)
    table = {I: dict(row) for I, row in localization_table(mu).items()}

    def P(word):
        return IndexTuple(mu, [(int(c),) for c in word])

    def mono(*e, c=1):
        return LaurentPoly.monomial(spec.vars, e, c)

    one = LaurentPoly.one(spec.vars)
    f = spec.one_plus_y_ratio
    # not divisible: plus 1; plus one of the two cell factors; times a
    # normal factor plus y; a value off the support
    table[P("123")][P("132")] = table[P("123")][P("132")] + one
    table[P("213")][P("213")] = table[P("213")][P("213")] + f(2, 3)
    table[P("123")][P("123")] = table[P("123")][P("123")] * f(2, 3) + mono(0, 0, 0, c=(0, 1))
    table[P("231")][P("312")] = mono(1, -1, 0, c=(1, 1))
    # still divisible: plus a multiple of the cell factor; anything at the
    # point cell, whose cell factor is 1
    table[P("132")][P("132")] = table[P("132")][P("132")] + f(1, 3) * f(1, 2) * mono(0, 1, 0)
    table[P("123")][P("321")] = table[P("123")][P("321")] + mono(2, -1, 0)

    report = check_divisibility(table)
    assert len(report.entries) == 20
    assert [(e.pair, e.witness["remainder"]) for e in report.violations] == [
        (("{1},{2},{3}", "{1},{2},{3}"), "y"),
        (("{1},{2},{3}", "{1},{3},{2}"),
         "t3/t2 + t3/t2*y + 1 + t1*t3/t2^2*y + t1*t3/t2^2*y^2 + t1/t2*y + t1/t2*y^2"
         " + t1^2/t2^2*y^2 + t1^2/t2^2*y^3"),
        (("{2},{1},{3}", "{2},{1},{3}"), "-t2/t1 - t2^2/(t1*t3)*y + 1 - t2^2/t3^2*y^2"),
        (("{2},{3},{1}", "{3},{1},{2}"), "t1/t2 + t1/t2*y"),
    ]


@pytest.mark.parametrize("corrupt", [lambda fs: fs[:-1], lambda fs: fs + fs[:1]],
                         ids=["drop-last", "repeat-first"])
def test_segre_witnesses_are_the_expanded_products(monkeypatch, corrupt):
    # corrupt every c'_mu factor list, once so that the factor sets differ
    # and once so that only the multiplicities do: each point fails, and
    # its witness is the two products multiplied out
    import mcclass.axioms as axioms
    from mcclass.weightfn import c_prime_mu_factors
    mu = Composition((1, 1, 1))
    spec = TorusSpecialization.standard(3)
    table = localization_table(mu)
    assert check_segre_consistency(table).ok
    monkeypatch.setattr(axioms, "c_prime_mu_factors", lambda J: corrupt(c_prime_mu_factors(J)))
    report = check_segre_consistency(table)
    assert len(report.violations) == len(report.entries) == 6
    for entry, J in zip(report.entries, table):
        assert entry.pair == (None, str(J))
        cell, normal = tangent_weights(J)
        assert entry.witness == {
            "lhs": format_poly(c_mu_at(J, spec) * chern_factor_product(cell + normal, spec)),
            "rhs": format_poly(chern_factor_product(corrupt(c_prime_mu_factors(J)), spec)),
        }


def test_report_json_shape():
    report = check_normalization(localization_table((1, 1)))
    blob = report.to_json()
    assert blob["violations"] == 0
    assert blob["checked"] == 2


# ---------------------------------------------------------------------------
# quadratic cone
# ---------------------------------------------------------------------------


def test_cone_divisible_by_one_plus_y_twice():
    mc = quadratic_cone_class()
    oy = LaurentPoly.constant(mc.vars, (1, 1))
    once = exact_divide(mc, oy)
    twice = exact_divide(once, oy)
    assert not twice.is_zero()


def test_cone_y_zero_is_alpha_minus_2():
    mc = quadratic_cone_class()
    at0 = mc.subst_y(())
    assert at0 == LaurentPoly.monomial(mc.vars, (-2, 0, 0))


def test_cone_euler_factors():
    ek = quadratic_cone_euler()
    assert ek.terms[(0, 0, 0)] == (1,)
    assert (-4, 0, 0) in ek.terms


@pytest.mark.parametrize("parts", [(1, 5), (2, 4), (3, 3)])
def test_axioms_on_n6_two_block_flags(parts):
    # the first n = 6 tables, built by the left recursion, beyond the reach
    # of the direct oracle: the row-local axioms and additivity must hold
    table = localization_table(Composition(parts))
    for check in (check_normalization, check_support, check_divisibility, check_additivity):
        report = check(table)
        assert report.ok, [e.to_json() for e in report.violations]
