import functools
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcclass.combi import (Composition, IndexTuple, Permutation, closure_leq,
                           enumerate_index_tuples, length, weak_order_walk)
from mcclass.ring import (LaurentPoly, MonomialMap, NonDivisibleError, PackingOverflowError,
                          RationalExpr, ZeroDenominatorError, exact_divide, pack_poly,
                          unpack_polys)
import mcclass.cli
import mcclass.weightfn
from mcclass.weightfn import (PSI_EQUAL, PSI_GREATER, PSI_LESS, TorusSpecialization,
                              VariablePanel, c_mu_at, c_prime_mu_at, chern_factor_product,
                              chern_products, demazure_step, descent_step,
                              full_flag_table_recursive, left_row_step, localization_table,
                              psi_factor, restrict_to_fixed_point, restriction_direct,
                              tangent_weights, top_cell_row, u_term, weight_function)
from oracles import (digit_sum, direct_table, modified_restriction_direct,
                     monomial_substitute_loop, ring_demazure_step, ring_descent_step,
                     ring_left_row_step)

MU11 = Composition((1, 1))
I12 = IndexTuple(MU11, [(1,), (2,)])
I21 = IndexTuple(MU11, [(2,), (1,)])


def spec2():
    return TorusSpecialization.standard(2)


def specialized(table, spec):
    """A table on the standard torus with every entry mapped through spec."""
    return {I: {J: spec.specialize(f) for J, f in row.items()} for I, row in table.items()}


# ---------------------------------------------------------------------------
# psi factors
# ---------------------------------------------------------------------------


def test_psi_cases_mu_1_1():
    assert psi_factor(I12, 1, 1, 1).kind == PSI_EQUAL
    assert psi_factor(I12, 1, 1, 2).kind == PSI_GREATER
    assert psi_factor(I21, 1, 1, 1).kind == PSI_LESS


def test_psi_factor_applies_to_monomial():
    panel = VariablePanel(MU11)
    xi = panel.ratio("a1_1", "t1")
    out = psi_factor(I12, 1, 1, 1)(xi)
    assert out == xi.scale_ypoly((1, 1))


# ---------------------------------------------------------------------------
# u_term and weight functions
# ---------------------------------------------------------------------------


def _u12_expected(panel):
    # (1+y)(a/t1) * (1 + y a/t2)
    a_over_t1 = panel.ratio("a1_1", "t1")
    a_over_t2 = panel.ratio("a1_1", "t2")
    return a_over_t1.scale_ypoly((1, 1)) * (panel.one() + a_over_t2.scale_ypoly((0, 1)))


def _u21_expected(panel):
    a_over_t1 = panel.ratio("a1_1", "t1")
    a_over_t2 = panel.ratio("a1_1", "t2")
    return (panel.one() - a_over_t1) * a_over_t2.scale_ypoly((1, 1))


def test_u_term_mu_1_1():
    panel = VariablePanel(MU11)
    u = u_term(I12, panel)
    assert u == RationalExpr(_u12_expected(panel))
    u2 = u_term(I21, panel)
    assert u2 == RationalExpr(_u21_expected(panel))


def test_u_term_single_block_is_one():
    mu = Composition((2,))
    I = IndexTuple(mu, [(1, 2)])
    u = u_term(I)
    assert u.num == u.den  # the empty product


def test_weight_function_mu_1_1():
    panel = VariablePanel(MU11)
    assert weight_function(I12, panel) == _u12_expected(panel)
    assert weight_function(I21, panel) == _u21_expected(panel)


def test_weight_function_symmetric_in_groups():
    mu = Composition((1, 1, 1))
    panel = VariablePanel(mu)
    for I in enumerate_index_tuples(mu):
        W = weight_function(I, panel)
        swapped = W.rename_vars({"a2_1": "a2_2", "a2_2": "a2_1"})
        assert swapped == W


def test_weight_function_restriction_example_open_cell_n3():
    # W restricted at the identity point equals c_mu * prod (1 + y t_i/t_j)
    mu = Composition((1, 1, 1))
    spec = TorusSpecialization.standard(3)
    I = IndexTuple(mu, [(1,), (2,), (3,)])
    got = modified_restriction_direct(I, I, spec)
    expected = (spec.one_plus_y_ratio(1, 2) * spec.one_plus_y_ratio(1, 3)
                * spec.one_plus_y_ratio(2, 3))
    assert got == expected


# ---------------------------------------------------------------------------
# chern products
# ---------------------------------------------------------------------------


def test_chern_products_mu_1_1():
    panel = VariablePanel(MU11)
    c, cp = chern_products(MU11, panel)
    assert c == LaurentPoly.constant(panel.vars, (1, 1))
    expected_cp = ((panel.one() + panel.ratio("a1_1", "t1").scale_ypoly((0, 1)))
                   * (panel.one() + panel.ratio("a1_1", "t2").scale_ypoly((0, 1))))
    assert cp == expected_cp


def test_chern_products_mu_1():
    mu = Composition((1,))
    c, cp = chern_products(mu)
    assert c.is_one() and cp.is_one()


def test_chern_products_mu_1_1_1_c():
    mu = Composition((1, 1, 1))
    panel = VariablePanel(mu)
    c, _ = chern_products(mu, panel)
    expected = (LaurentPoly.constant(panel.vars, (1, 1)) ** 3
                * (panel.one() + panel.ratio("a2_1", "a2_2").scale_ypoly((0, 1)))
                * (panel.one() + panel.ratio("a2_2", "a2_1").scale_ypoly((0, 1))))
    assert c == expected


# ---------------------------------------------------------------------------
# fixed-point restrictions (the n = 2 oracle values)
# ---------------------------------------------------------------------------


def test_modified_restrictions_n2():
    spec = spec2()
    assert modified_restriction_direct(I12, I12, spec) == \
        spec.one() + spec.ratio(1, 2).scale_ypoly((0, 1))
    assert modified_restriction_direct(I12, I21, spec) == \
        spec.ratio(2, 1).scale_ypoly((1, 1))
    assert modified_restriction_direct(I21, I12, spec).is_zero()
    assert modified_restriction_direct(I21, I21, spec) == \
        spec.one() - spec.ratio(2, 1)


def test_restriction_direct_agrees_with_global_substitution():
    for mu in (MU11, Composition((2, 1)), Composition((1, 1, 1))):
        panel = VariablePanel(mu)
        spec = TorusSpecialization.standard(mu.n)
        for I in enumerate_index_tuples(mu):
            W = weight_function(I, panel)
            for J in enumerate_index_tuples(mu):
                direct = restriction_direct(I, J, spec)
                global_ = restrict_to_fixed_point(W, J, spec, panel)
                assert direct == global_, (I, J)


def test_localization_table_mu_1():
    table = localization_table(Composition((1,)))
    (I,) = table
    assert table[I][I].is_one()


# ---------------------------------------------------------------------------
# invariants across a panel of compositions
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("parts", [(1, 1), (2, 1), (1, 2), (1, 1, 1), (2, 2),
                                   (1, 1, 2), (1, 2, 1), (1, 1, 1, 1)])
def test_additivity_identity(parts):
    mu = Composition(parts)
    spec = TorusSpecialization.standard(mu.n)
    table = localization_table(mu)
    points = list(table)
    for J in points:
        total = spec.zero()
        for I in points:
            total = total + table[I][J]
        cell, normal = tangent_weights(J)
        assert total == chern_factor_product(cell + normal, spec), J


@pytest.mark.parametrize("parts", [(1, 1), (2, 1), (1, 1, 1), (2, 2), (1, 1, 1, 1)])
def test_support_triangularity(parts):
    table = localization_table(Composition(parts))
    for I in table:
        for J, val in table[I].items():
            if not closure_leq(I, J):
                assert val.is_zero(), (I, J)


@pytest.mark.parametrize("parts", [(1, 1), (2, 1), (1, 1, 1), (2, 2)])
def test_segre_consistency(parts):
    # c_mu at J times the full lambda_y tangent product equals c'_mu at J,
    # so the plain/modified/Segre normalizations agree at every point.
    mu = Composition(parts)
    spec = TorusSpecialization.standard(mu.n)
    for J in enumerate_index_tuples(mu):
        cell, normal = tangent_weights(J)
        lhs = c_mu_at(J, spec) * chern_factor_product(cell + normal, spec)
        assert lhs == c_prime_mu_at(J, spec), J


# ---------------------------------------------------------------------------
# the recursion route
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("modified", [True, False])
def test_recursion_matches_direct(n, modified):
    mu = Composition((1,) * n)
    direct = direct_table(mu, modified=modified)
    rec = localization_table(mu, modified=modified)
    for I in direct:
        assert direct[I] == rec[I]


@pytest.mark.slow
def test_recursion_matches_direct_n4():
    mu = Composition((1, 1, 1, 1))
    direct = direct_table(mu, modified=True)
    rec = localization_table(mu, modified=True)
    for I in direct:
        assert direct[I] == rec[I]


@functools.cache
def fl5_one_parameter_rows():
    """The production table at n = 5 on the one-parameter torus, built
    once per session."""
    return specialized(full_flag_table_recursive(5), TorusSpecialization.one_parameter(5))


@pytest.mark.slow
def test_recursion_matches_direct_one_parameter_spot_n5():
    # honest spot check of the fast route at n = 5: a few direct entries,
    # two of them in the closed-form row of the point cell
    spec = TorusSpecialization.one_parameter(5)
    rows = fl5_one_parameter_rows()
    cases = [((1, 2, 3, 4, 5), (5, 4, 3, 2, 1)),
             ((2, 1, 3, 4, 5), (2, 1, 3, 4, 5)),
             ((3, 1, 4, 2, 5), (5, 3, 4, 2, 1)),
             ((5, 4, 3, 2, 1), (5, 4, 3, 2, 1)),
             ((5, 4, 3, 2, 1), (4, 5, 3, 2, 1))]
    for pw, vw in cases:
        I = Permutation(pw).to_index_tuple()
        J = Permutation(vw).to_index_tuple()
        direct = modified_restriction_direct(I, J, spec)
        assert rows[Permutation(pw)][Permutation(vw)] == direct


TORI = {"standard": TorusSpecialization.standard,
        "one_parameter": TorusSpecialization.one_parameter}


@pytest.mark.parametrize("torus", sorted(TORI))
@pytest.mark.parametrize("n", [3, 4])
def test_specialize_matches_loop_oracle(n, torus, monkeypatch):
    # every entry of the plain and the modified standard tables, through
    # one map compiled on the first call
    spec = TORI[torus](n)
    images = {f"t{i}": (1, dict(zip(spec.vars, e))) for i, e in enumerate(spec.images, 1)}
    spec.specialize(LaurentPoly.zero(TorusSpecialization.standard(n).vars))

    def refuse(*args):
        raise AssertionError("a monomial map was compiled twice")

    monkeypatch.setattr(MonomialMap, "__init__", refuse)
    for modified in (True, False):
        for row in localization_table(Composition((1,) * n), modified=modified).values():
            for f in row.values():
                assert spec.specialize(f) == monomial_substitute_loop(f, images, spec.vars)


def compositions(n):
    if n == 0:
        yield ()
    for k in range(1, n + 1):
        for rest in compositions(n - k):
            yield (k,) + rest


# ---------------------------------------------------------------------------
# tangent weights at the fixed points
# ---------------------------------------------------------------------------


def test_tangent_weights_split_by_the_rule_up_to_n5():
    # every pair (a, b) with a in an earlier block than b, ordered by the
    # two blocks, then the places of a and b in them; normal exactly when
    # a > b, as many as the length of the cell
    cells = 0
    for n in range(1, 6):
        for parts in compositions(n):
            for J in enumerate_index_tuples(Composition(parts)):
                place = {x: (j, i) for j, block in enumerate(J.blocks)
                         for i, x in enumerate(block)}
                pairs = sorted(((a, b) for a in place for b in place
                                if place[a][0] < place[b][0]),
                               key=lambda ab: (place[ab[0]][0], place[ab[1]][0],
                                               place[ab[0]][1], place[ab[1]][1]))
                cell, normal = tangent_weights(J)
                assert cell == tuple((a, b) for a, b in pairs if a < b), J
                assert normal == tuple((a, b) for a, b in pairs if a > b), J
                assert len(normal) == length(J), J
                cells += 1
    assert cells == 633


# ---------------------------------------------------------------------------
# division by products of differences
# ---------------------------------------------------------------------------


def product_of_differences(vars, pairs) -> LaurentPoly:
    """prod (x^a - x^b) over pairs (a, b) of exponent vectors, multiplied out."""
    out = LaurentPoly.one(vars)
    for a, b in pairs:
        out = out * (LaurentPoly.monomial(vars, a) - LaurentPoly.monomial(vars, b))
    return out


@pytest.fixture
def pinned_divisions(monkeypatch):
    """Every _divide_by_differences call of weightfn checked against
    exact_divide by the multiplied-out product; returns the number of
    differences of each call."""
    divide = mcclass.weightfn._divide_by_differences
    seen = []

    def pinned(f, pairs):
        pairs = list(pairs)
        got = divide(f, pairs)
        assert got == exact_divide(f, product_of_differences(f.vars, pairs))
        seen.append(len(pairs))
        return got

    monkeypatch.setattr(mcclass.weightfn, "_divide_by_differences", pinned)
    return seen


# weight_function of (2,1,1) and (1,1,1,1) takes minutes; these are the
# other compositions with n <= 4
GLOBAL_MUS = [mu for n in range(1, 5) for mu in compositions(n)
              if mu not in ((2, 1, 1), (1, 1, 1, 1))]


@pytest.mark.slow
def test_weight_function_division_matches_exact_divide(pinned_divisions):
    for mu in GLOBAL_MUS:
        panel = VariablePanel(mu)
        for I in enumerate_index_tuples(Composition(mu)):
            weight_function(I, panel)
    assert any(pinned_divisions)


@pytest.mark.slow
@pytest.mark.parametrize("torus", sorted(TORI))
def test_restriction_direct_division_matches_exact_divide(pinned_divisions, torus):
    for mu in (mu for n in range(1, 5) for mu in compositions(n)):
        mu = Composition(mu)
        spec = TORI[torus](mu.n)
        points = enumerate_index_tuples(mu)
        for I in points:
            for J in points:
                restriction_direct(I, J, spec)
    assert any(pinned_divisions)


@st.composite
def divisions(draw):
    """(f, pairs): f a multiple of the product of differences over pairs,
    plus sometimes a random polynomial, in three variables or one."""
    vars = draw(st.sampled_from([("x", "y1", "z"), ("t",)]))
    exps = st.tuples(*[st.integers(-2, 2)] * len(vars))
    pairs = draw(st.lists(st.tuples(exps, exps).filter(lambda ab: ab[0] != ab[1]),
                          max_size=3))
    terms = draw(st.dictionaries(exps, st.lists(st.integers(-4, 4), min_size=1, max_size=3)
                                 .map(tuple), max_size=4))
    f = LaurentPoly(vars, terms) * product_of_differences(vars, pairs)
    if draw(st.booleans()):
        f = f + LaurentPoly(vars, {draw(exps): (draw(st.integers(-3, 3)),)})
    return f, pairs


@given(divisions())
@settings(max_examples=150, deadline=None)
def test_divide_by_differences_matches_exact_divide(case):
    f, pairs = case
    product = product_of_differences(f.vars, pairs)
    try:
        want = exact_divide(f, product)
    except NonDivisibleError:
        with pytest.raises(NonDivisibleError):
            mcclass.weightfn._divide_by_differences(f, pairs)
    else:
        assert mcclass.weightfn._divide_by_differences(f, pairs) == want


@pytest.mark.parametrize("pairs", [[((1, 0), (1, 0))], [((1, 0), (0, 1)), ((0, 1), (0, 1))],
                                   [((0, 2), (1, 0)), ((2, 0), (2, 0))]])
@pytest.mark.parametrize("f", [LaurentPoly.zero(("s", "t")), LaurentPoly.one(("s", "t"))])
def test_divide_by_differences_rejects_equal_images(f, pairs):
    # exact_divide refuses the zero product before it tries to divide,
    # so does the line route, whether or not f is divisible by the rest
    with pytest.raises(ZeroDenominatorError):
        exact_divide(f, product_of_differences(f.vars, pairs))
    with pytest.raises(ZeroDenominatorError):
        mcclass.weightfn._divide_by_differences(f, pairs)


@pytest.mark.parametrize("torus", sorted(TORI))
@pytest.mark.parametrize("n", [2, 3, 4])
def test_point_cell_row_matches_direct(n, torus):
    # the closed-form seed of every composition of n: the row of the
    # longest cell, keyed by the points in enumeration order
    spec = TORI[torus](n)
    for parts in compositions(n):
        points = enumerate_index_tuples(Composition(parts))
        top = max(points, key=length)
        row = top_cell_row(Composition(parts), spec)
        assert list(row) == points
        for J in points:
            assert row[J] == modified_restriction_direct(top, J, spec), (parts, J)


# ---------------------------------------------------------------------------
# partial flags against the direct oracle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("torus", sorted(TORI))
@pytest.mark.parametrize("parts", [(2,), (3,), (1, 2), (2, 1), (4,), (1, 3), (3, 1),
                                   (2, 2), (1, 1, 2),
                                   pytest.param((1, 2, 1), marks=pytest.mark.slow),
                                   pytest.param((2, 1, 1), marks=pytest.mark.slow)])
def test_pushforward_matches_direct(parts, torus):
    mu = Composition(parts)
    spec = TORI[torus](mu.n)
    for modified in (True, False):
        direct = direct_table(mu, modified=modified, spec=spec)
        table = specialized(localization_table(mu, modified=modified), spec)
        assert list(table) == list(direct)
        for I in direct:
            assert list(table[I].items()) == list(direct[I].items()), (I, modified)


@pytest.mark.parametrize("parts", [(1, 3), (2, 2), (1, 2, 1), (1, 1, 1, 1)])
def test_localization_table_of_some_cells(parts):
    # each cell alone, and a pair, gives its row of the whole table
    mu = Composition(parts)
    points = enumerate_index_tuples(mu)
    for modified in (True, False):
        whole = localization_table(mu, modified=modified)
        for cells in [[I] for I in points] + [[points[-1], points[0]]]:
            table = localization_table(mu, modified=modified, cells=cells)
            assert list(table) == cells
            for I in cells:
                assert table[I] == whole[I], (I, modified)


def test_recursive_rows_of_some_cells():
    # on the standard torus of Fl(4) only the asked rows are yielded, each
    # equal to its row of the whole table, the top cell among them
    whole = full_flag_table_recursive(4)
    for cells in ([Permutation((1, 2, 3, 4))], [Permutation((4, 3, 1, 2))],
                  [Permutation((2, 1, 4, 3)), Permutation((3, 4, 1, 2))],
                  [Permutation.longest(4)]):
        table = localization_table((1, 1, 1, 1), cells=[w.to_index_tuple() for w in cells])
        rows = {I.to_permutation(): {J.to_permutation(): f for J, f in row.items()}
                for I, row in table.items()}
        assert list(rows) == cells
        for w in cells:
            assert rows[w] == whole[w], w


@pytest.mark.slow
@pytest.mark.parametrize("parts", [(2, 2, 1), (1, 4), (2, 3)])
def test_pushforward_spot_checks_n5(parts):
    # the row of the open cell and the whole diagonal
    mu = Composition(parts)
    spec = TorusSpecialization.one_parameter(5)
    table = localization_table(mu)
    points = list(table)
    for I, J in [(points[0], J) for J in points] + [(I, I) for I in points[1:]]:
        assert spec.specialize(table[I][J]) == modified_restriction_direct(I, J, spec), (I, J)


def _step_outcome(step, *args):
    try:
        return step(*args)
    except NonDivisibleError:
        return "not divisible"


def draw_poly(draw, vars, max_terms):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        e = tuple(draw(st.integers(-2, 2)) for _ in vars)
        terms[e] = tuple(draw(st.integers(-3, 3)) for _ in range(draw(st.integers(1, 3))))
    return LaurentPoly(vars, terms)


@st.composite
def exchange_inputs(draw):
    """A full row for a random step i on the standard or the one-parameter
    torus, n <= 4.  f(v*s_i) - f(v) is a multiple of tau_v(i) - tau_v(i+1)
    for every v, which makes the step exact, unless one entry is perturbed."""
    n = draw(st.integers(2, 4))
    spec = draw(st.sampled_from([TorusSpecialization.standard(n),
                                 TorusSpecialization.one_parameter(n)]))
    i = draw(st.integers(1, n - 1))

    poly = functools.partial(draw_poly, draw, spec.vars)
    row = {}
    for word in itertools.permutations(range(1, n + 1)):
        v = Permutation(word)
        if v in row:
            continue
        vs = v.swap_positions(i)
        row[v] = poly(3)
        row[vs] = row[v] + spec.tau_diff(v(i), v(i + 1)) * poly(2)
    if draw(st.booleans()):
        v = draw(st.sampled_from(sorted(row, key=lambda w: w.word)))
        row[v] = row[v] + poly(2)
    return row, i, spec


@given(exchange_inputs())
@settings(max_examples=150, deadline=None)
def test_descent_step_matches_ring_oracle(inputs):
    row, i, spec = inputs
    got = _step_outcome(descent_step, row, i, spec)
    assert got == _step_outcome(ring_descent_step, row, i, spec)


@given(exchange_inputs())
@settings(max_examples=150, deadline=None)
def test_demazure_step_matches_ring_oracle(inputs):
    # the rows that make the exchange exact make the Demazure step exact too:
    # tau_a - tau_b is a unit times 1 - tau_a/tau_b
    row, i, spec = inputs
    got = _step_outcome(demazure_step, row, i, spec)
    assert got == _step_outcome(ring_demazure_step, row, i, spec)


def test_descent_step_divides_once_per_pair(monkeypatch):
    # T_i = (1 + y*beta) pi_i - 1 divides once per pair v, v*s_i: n!/2 = 12
    # line quotients at n = 4, where one division per point would make 24
    calls = []
    quotient = mcclass.weightfn.line_quotient

    def counted(*args):
        calls.append(args)
        return quotient(*args)

    monkeypatch.setattr(mcclass.weightfn, "line_quotient", counted)
    spec = TorusSpecialization.standard(4)
    row = {J.to_permutation(): f for J, f in top_cell_row(Composition((1, 1, 1, 1)), spec).items()}
    got = descent_step(row, 2, spec)
    assert len(calls) == 12
    assert got == ring_descent_step(row, 2, spec)


@st.composite
def left_inputs(draw):
    """A row over the points of a random composition with n <= 4 on the
    standard torus, for a random step i.  f(s_i J) - f(J) is a multiple of
    t_i - t_(i+1) at every J, which makes the left step exact, unless one
    entry is perturbed.  The row is then multiplied by 1 or by a
    y-polynomial with a digit of 2^40, so that packed digits carry into
    each other; the step is Z[y]-linear."""
    n = draw(st.integers(2, 4))
    mu = Composition(draw(st.sampled_from(list(compositions(n)))))
    spec = TorusSpecialization.standard(n)
    i = draw(st.integers(1, n - 1))

    poly = functools.partial(draw_poly, draw, spec.vars)
    points = enumerate_index_tuples(mu)
    row = {}
    for J in points:
        if J in row:
            continue
        sJ = IndexTuple(mu, [[{i: i + 1, i + 1: i}.get(x, x) for x in b] for b in J.blocks])
        row[J] = poly(3)
        if sJ != J:
            row[sJ] = row[J] + spec.tau_diff(i, i + 1) * poly(2)
    if draw(st.booleans()):
        J = draw(st.sampled_from(points))
        row[J] = row[J] + poly(2)
    scale = draw(st.sampled_from([(1,), (2 ** 40, -3)]))
    return {J: row[J].scale_ypoly(scale) for J in points}, i


def packed_row_step(row, i):
    """left_row_step on the packed row, unpacked; every bound it returns
    is at least the digit sum it bounds."""
    got = left_row_step({J: pack_poly(f) for J, f in row.items()}, i)
    for terms, bound in got.values():
        assert bound >= digit_sum(terms)
    vars = next(iter(row.values())).vars
    return unpack_polys({J: terms for J, (terms, _) in got.items()}, vars)


@given(left_inputs())
@settings(max_examples=150, deadline=None)
def test_left_row_step_matches_ring_oracle(inputs):
    row, i = inputs
    assert _step_outcome(packed_row_step, row, i) == _step_outcome(ring_left_row_step, row, i)


@pytest.mark.parametrize("parts, pairs", [((1, 1, 1, 1), 12), ((1, 2, 1), 7)])
def test_left_row_step_divides_once_per_pair(monkeypatch, parts, pairs):
    # one line quotient per pair J, s_2 J; on (1,2,1) the two points with
    # 2 and 3 in the middle block are pairs of one
    calls = []
    quotient = mcclass.weightfn.line_quotient

    def counted(*args):
        calls.append(args)
        return quotient(*args)

    row = next(iter(localization_table(parts).values()))
    monkeypatch.setattr(mcclass.weightfn, "line_quotient", counted)
    got = packed_row_step(row, 2)
    assert len(calls) == pairs
    assert got == ring_left_row_step(row, 2)
    assert list(got) == list(row)


def test_left_row_step_remeasures_a_bound_at_the_limit():
    # the top row of (1,2,1) with every bound just below 2^63: each step's
    # bound reaches the limit, its inputs are measured and it is redone
    row = next(iter(localization_table((1, 2, 1)).values()))
    packed = {J: pack_poly(f) for J, f in row.items()}
    loose = {J: (terms, 2 ** 63 - 1) for J, (terms, _) in packed.items()}
    got = left_row_step(loose, 2)
    assert ({J: terms for J, (terms, _) in got.items()}
            == {J: terms for J, (terms, _) in left_row_step(packed, 2).items()})
    for terms, bound in got.values():
        assert digit_sum(terms) <= bound < 2 ** 63


def test_left_row_step_raises_when_measured_digits_overflow(monkeypatch, capsys):
    # the top cell's row times 2^62: the first step's measured digits overflow
    top_row = mcclass.weightfn.top_cell_row
    monkeypatch.setattr(mcclass.weightfn, "top_cell_row",
                        lambda mu, spec: {J: f.scale_ypoly((2 ** 62,))
                                          for J, f in top_row(mu, spec).items()})
    with pytest.raises(PackingOverflowError):
        localization_table((1, 2))
    assert mcclass.cli.main(["weight", "--mu", "1,2", "--all", "--restrict"]) == 2
    assert capsys.readouterr().err.startswith("computation fault: packed y-digits")


@pytest.mark.slow
def test_descent_step_spot_checks_n5():
    # the left-built one-parameter table at n = 5 against the right exchange
    # formula, from the top of the weak order down to the last step, which
    # yields the identity's row
    spec = TorusSpecialization.one_parameter(5)
    rows = fl5_one_parameter_rows()
    walk = list(weak_order_walk(5))
    for w, parent, i in walk[:3] + walk[60:62] + walk[-2:]:
        assert ring_descent_step(rows[parent], i, spec) == rows[w], w

