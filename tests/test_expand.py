import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frozen_expansions import EXPANSIONS_N3, NONEQ_OPEN_N4
from mcclass.combi import Composition, Permutation, bruhat_leq, left_parent
import mcclass.cli
import mcclass.expand
from mcclass.expand import (CONJECTURE_CHECKS, Expander, NegativeRatioExponentError,
                            check_conjectures, check_log_concavity,
                            check_s_delta_signs, check_sign_conjecture, expand_by_solve,
                            format_expansion, is_strictly_log_concave, left_step,
                            ratio_exponents, specialize_nonequivariant,
                            structure_sheaf_rows, substitute_s_delta)
from mcclass.ring import (LaurentPoly, PackingOverflowError, RingError, dumps_canonical,
                          exact_divide, monomial_substitute, substitute_ones, yp_add, yp_pack,
                          yp_unpack)
from mcclass.weightfn import TorusSpecialization, demazure_step, full_flag_table_recursive
from oracles import digit_sum


def perm(*w):
    return Permutation(w)


# ---------------------------------------------------------------------------
# structure sheaf table
# ---------------------------------------------------------------------------


def test_basis_n2_pinned_values():
    spec = TorusSpecialization.standard(2)
    rows = structure_sheaf_rows(2, spec)
    point = rows[perm(2, 1)]
    assert point[perm(2, 1)] == spec.one() - spec.ratio(2, 1)
    assert point[perm(1, 2)].is_zero()
    full = rows[perm(1, 2)]
    assert full[perm(1, 2)].is_one() and full[perm(2, 1)].is_one()


def test_basis_identity_row_is_one():
    for n in (2, 3, 4):
        rows = structure_sheaf_rows(n)
        idrow = rows[Permutation.identity(n)]
        assert all(v.is_one() for v in idrow.values())


def test_basis_diagonals_are_euler_products():
    from mcclass.weightfn import euler_product, tangent_weights
    for n in (2, 3):
        spec = TorusSpecialization.standard(n)
        rows = structure_sheaf_rows(n, spec)
        for w, row in rows.items():
            expected = euler_product(tangent_weights(w.to_index_tuple())[1], spec)
            assert row[w] == expected


def test_basis_support_triangular():
    rows = structure_sheaf_rows(3)
    for w, row in rows.items():
        for v, val in row.items():
            if not bruhat_leq(w, v):
                assert val.is_zero()


def test_basis_independent_of_descent_path():
    # rebuild each row along a different reduced path and compare
    spec = TorusSpecialization.standard(3)
    rows = structure_sheaf_rows(3, spec)
    w0 = Permutation.longest(3)
    for w in rows:
        for i in range(1, 3):
            ws = w.swap_positions(i)
            if ws.length() == w.length() + 1:
                assert demazure_step(rows[ws], i, spec) == rows[w]


def test_basis_recovered_from_frozen_expansions():
    # invert the frozen triangular system: localization rows plus the
    # pinned coefficients determine the basis table; compare with the
    # Demazure recursion
    spec = TorusSpecialization.standard(3)
    wrows = full_flag_table_recursive(3)
    rows = structure_sheaf_rows(3, spec)
    perms = sorted(wrows, key=lambda w: (w.length(), w.word))
    coeff = {p: {perm(*w): c for w, c in EXPANSIONS_N3[p.word].items()} for p in perms}
    recovered = {}
    for p in sorted(perms, key=lambda w: (-w.length(), w.word)):
        for v in perms:
            rem = wrows[p][v]
            for u in perms:
                if u == p or u not in coeff[p]:
                    continue
                if u in recovered:
                    rem = rem - coeff[p][u] * recovered[u][v]
            recovered.setdefault(p, {})[v] = (spec.zero() if rem.is_zero()
                                              else exact_divide(rem, coeff[p][p]))
    for w in perms:
        assert recovered[w] == rows[w], w


# ---------------------------------------------------------------------------
# expansions
# ---------------------------------------------------------------------------


def test_expand_n2():
    ex = Expander(2)
    e = ex.expand(perm(1, 2))
    spec = ex.spec
    assert e.coeffs[perm(1, 2)] == spec.one() + spec.ratio(1, 2).scale_ypoly((0, 1))
    expected = -(spec.one() + spec.ratio(1, 2)).scale_ypoly((0, 1)) - spec.one()
    assert e.coeffs[perm(2, 1)] == expected


def test_expand_n3_matches_frozen_table():
    ex = Expander(3)
    for pw, expected in EXPANSIONS_N3.items():
        e = ex.expand(perm(*pw))
        got = {w.word: c for w, c in e.coeffs.items()}
        assert set(got) == set(expected), pw
        for w, c in expected.items():
            assert got[w] == c, (pw, w)


def test_expand_rejects_cell_of_other_size():
    with pytest.raises(ValueError, match="1,2,3.*1..4"):
        Expander(4).expand(perm(1, 2, 3))


def test_expand_point_cell_trivial():
    ex = Expander(3)
    e = ex.expand(perm(3, 2, 1))
    assert list(e.coeffs) == [perm(3, 2, 1)]
    assert e.coeffs[perm(3, 2, 1)].is_one()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_left_recursion_matches_solve(n):
    # the left Demazure-Lusztig recursion against the triangular solve
    # on the localization rows, for every cell
    spec = TorusSpecialization.standard(n)
    wrows = full_flag_table_recursive(n)
    basis_rows = structure_sheaf_rows(n, spec)
    ex = Expander(n)
    assert set(ex.expansions) == set(wrows)
    for p, e in ex.expansions.items():
        assert e.coeffs == expand_by_solve(p, wrows[p], basis_rows, spec).coeffs, p


def test_one_parameter_expander_matches_one_parameter_solve():
    n = 4
    spec = TorusSpecialization.one_parameter(n)
    wrows = {p: {v: spec.specialize(f) for v, f in row.items()}
             for p, row in full_flag_table_recursive(n).items()}
    basis_rows = structure_sheaf_rows(n, spec)
    ex = Expander(n, spec)
    for p, e in ex.expansions.items():
        assert e.spec == spec
        assert e.coeffs == expand_by_solve(p, wrows[p], basis_rows, spec).coeffs, p


def test_chain_walk_matches_full_walk():
    # expand(p) walks only the chain from the point class down to p
    full = Expander(4).expansions
    for p in (Permutation.identity(4), perm(1, 3, 2, 4), perm(4, 1, 3, 2)):
        assert Expander(4).expand(p) == full[p]


@pytest.fixture
def left_steps(monkeypatch):
    """The i of every left_step call the walk makes."""
    calls = []
    step = mcclass.expand.left_step

    def counted(coeffs, i):
        calls.append(i)
        return step(coeffs, i)

    monkeypatch.setattr(mcclass.expand, "left_step", counted)
    return calls


def test_walk_takes_one_step_per_cell(left_steps):
    # 23 left-parent edges below w0 at n = 4, each stepped once
    assert len(Expander(4).expansions) == 24
    assert len(left_steps) == 23
    w0 = Permutation.longest(4)
    for p in (Permutation.identity(4), perm(1, 3, 2, 4), perm(4, 1, 3, 2), w0):
        del left_steps[:]
        Expander(4).expand(p)
        assert len(left_steps) == w0.length() - p.length(), p


# ---------------------------------------------------------------------------
# the fused left step against the ring formula
# ---------------------------------------------------------------------------


def oracle_left_step(coeffs, i, spec):
    """The left Demazure-Lusztig step written with ring operations:
    c_x O_x -> (1 + y beta) s(c_x) O_x'
               + ((1 + y beta) d(c_x) - (1 + y + y beta) c_x) O_x
    with beta = tau_i/tau_{i+1} and d(c) = tau_i (c - s c)/(tau_i - tau_{i+1})
    by exact division."""
    one_plus_yb = spec.one_plus_y_ratio(i, i + 1)
    one_plus_y_plus_yb = one_plus_yb + LaurentPoly.y(spec.vars)
    tau_i = spec.tau_exp(i)
    tau_diff = spec.tau_diff(i, i + 1)
    ti, tj = spec.vars[i - 1], spec.vars[i]
    swap = {ti: (1, {tj: 1}), tj: (1, {ti: 1})}
    zero = spec.zero()
    out = {}
    for x, c in coeffs.items():
        sc = monomial_substitute(c, swap)
        xs = x if x.word.index(i) < x.word.index(i + 1) else x.swap_values(i)
        out[xs] = out.get(xs, zero) + one_plus_yb * sc
        rest = -(one_plus_y_plus_yb * c)
        diff = c - sc
        if not diff.is_zero():
            rest = rest + one_plus_yb * exact_divide(diff.shift(tau_i), tau_diff)
        out[x] = out.get(x, zero) + rest
    return {x: c for x, c in out.items() if not c.is_zero()}


@st.composite
def step_inputs(draw):
    """(coeffs, i, spec): random permutations of n <= 4 carrying random
    Laurent polynomials (negative exponents, several y-degrees, zero
    polynomials and zero y-entries included) and a random i; the
    y-digits are small, or up to 2^40 in absolute value so that packed
    digits carry into each other."""
    n = draw(st.integers(2, 4))
    spec = TorusSpecialization.standard(n)
    perms = [Permutation(w) for w in itertools.permutations(range(1, n + 1))]
    digit = draw(st.sampled_from([5, 2 ** 40]))
    coeffs = {}
    for w in draw(st.lists(st.sampled_from(perms), max_size=6, unique=True)):
        terms = {}
        for _ in range(draw(st.integers(0, 4))):
            exp = tuple(draw(st.integers(-3, 3)) for _ in spec.vars)
            ydeg = draw(st.integers(1, 4))
            terms[exp] = tuple(draw(st.integers(-digit, digit)) for _ in range(ydeg))
        coeffs[w] = LaurentPoly(spec.vars, terms)
    return coeffs, draw(st.integers(1, n - 1)), spec


def pack(coeffs):
    """Packed coefficients as the walk carries them, each with its exact
    digit sum as its bound."""
    out = {}
    for w, c in coeffs.items():
        terms = {e: yp_pack(v) for e, v in c.terms.items()}
        out[w] = (terms, digit_sum(terms))
    return out


def unpack(packed, spec):
    return {w: LaurentPoly._from_trimmed(spec.vars, {e: yp_unpack(v) for e, v in terms.items()})
            for w, (terms, _) in packed.items()}


def _assert_canonical(coeffs):
    # rebuilding through the trimming constructor changes nothing
    for c in coeffs.values():
        assert c.terms and c == LaurentPoly(c.vars, c.terms)


@given(step_inputs())
@settings(max_examples=150, deadline=None)
def test_left_step_matches_ring_oracle(args):
    coeffs, i, spec = args
    packed = left_step(pack(coeffs), i)
    for terms, bound in packed.values():
        assert bound >= digit_sum(terms)
    got = unpack(packed, spec)
    assert got == oracle_left_step(coeffs, i, spec)
    _assert_canonical(got)


def test_left_step_raises_when_digit_bound_reaches_limit():
    # c_21 = d: the descent cell 21 gets -(1 + y) d - y d t1/t2, whose
    # digits sum to 3 d, the bound 3 B (span 0); the ascent cell 12 gets
    # 2 B from its partner 21.  So the measured digits overflow exactly
    # when 3 d reaches 2^63
    spec = TorusSpecialization.standard(2)
    x = perm(2, 1)
    d = 2 ** 63 // 3
    coeffs = {x: LaurentPoly.constant(spec.vars, d)}
    ok = left_step(pack(coeffs), 1)
    assert ok[x][1] == digit_sum(ok[x][0]) == 3 * d < 2 ** 63
    assert unpack(ok, spec) == oracle_left_step(coeffs, 1, spec)
    with pytest.raises(PackingOverflowError) as err:
        left_step(pack({x: LaurentPoly.constant(spec.vars, d + 1)}), 1)
    assert isinstance(err.value, RingError)


def test_left_step_remeasures_a_bound_at_the_limit():
    # a carried bound just below 2^63 over small digits: the step's bound
    # reaches the limit, the input is measured and the step redone
    spec = TorusSpecialization.standard(3)
    coeffs = {perm(3, 1, 2): LaurentPoly(spec.vars, {(0, 1, -1): (1, -2), (2, 0, 0): (0, 3)}),
              perm(3, 2, 1): LaurentPoly(spec.vars, {(1, 0, 0): (-1,)})}
    loose = {w: (terms, 2 ** 63 - 1) for w, (terms, _) in pack(coeffs).items()}
    got = left_step(loose, 2)
    assert got == left_step(pack(coeffs), 2)
    assert unpack(got, spec) == oracle_left_step(coeffs, 2, spec)


def test_left_step_raises_through_the_cli(monkeypatch, capsys):
    # the point class with digit 2^62: the first step's measured digits overflow
    monkeypatch.setattr(mcclass.expand, "pack_poly",
                        lambda p: pack({None: p.scale_ypoly((2 ** 62,))})[None])
    with pytest.raises(PackingOverflowError):
        Expander(3).expand(perm(1, 2, 3))
    assert mcclass.cli.main(["expand", "--n", "3", "--p", "1,2,3"]) == 2
    assert capsys.readouterr().err.startswith("computation fault: packed y-digits")


@pytest.fixture(scope="module")
def expander5():
    return Expander(5)


@pytest.mark.slow
def test_left_step_spot_checks_n5(expander5):
    # one ring-formula step from the production parent; (1,3,4,5,2) has
    # length 3, and its parent carries 912 terms
    for word in [(1, 3, 4, 5, 2), (5, 1, 2, 3, 4), (2, 5, 4, 3, 1), (5, 4, 3, 1, 2)]:
        w = Permutation(word)
        i = left_parent(w)
        parent = expander5.expand(w.swap_values(i)).coeffs
        got = expander5.expand(w).coeffs
        assert oracle_left_step(parent, i, expander5.spec) == got, word
        _assert_canonical(got)


@pytest.mark.slow
@pytest.mark.parametrize("word", [(1, 2, 3, 4, 5), (1, 3, 2, 4, 5)])
def test_one_parameter_cells_n5(word):
    # the one-parameter walk specializes before it decodes; it must equal
    # the specialized standard coefficients, and the chi_y genus of the
    # cell, dimension 10 - l(p), is the sum of the coefficients at tau = 1
    p = Permutation(word)
    spec = TorusSpecialization.one_parameter(5)
    standard = Expander(5).expand(p).coeffs
    specialized = {w: c for w, c in ((w, spec.specialize(c)) for w, c in standard.items())
                   if not c.is_zero()}
    assert Expander(5, spec).expand(p).coeffs == specialized
    total = ()
    for c in standard.values():
        total = yp_add(total, substitute_ones(c))
    k = 10 - p.length()
    assert total == (0,) * k + ((-1) ** k,)


def _conjugate(w):
    """w0 w w0."""
    n = w.n
    return Permutation(tuple(n + 1 - v for v in reversed(w.word)))


@pytest.mark.parametrize("n, count", [(3, 19), (4, 213), (5, 3781)])
def test_diagram_symmetry(n, count, request):
    # c[w0 p w0, w0 x w0](tau) = c[p, x](tau_i -> 1/tau_{n+1-i}): the
    # exponent vector is reversed and negated, and the supports pair up
    ex = request.getfixturevalue("expander5") if n == 5 else Expander(n)
    expansions = ex.expansions
    assert sum(len(e.coeffs) for e in expansions.values()) == count
    for p, e in expansions.items():
        mirror = expansions[_conjugate(p)].coeffs
        assert set(mirror) == {_conjugate(x) for x in e.coeffs}, p
        for x, c in e.coeffs.items():
            flipped = {tuple(-v for v in reversed(k)): yc for k, yc in c.terms.items()}
            assert mirror[_conjugate(x)].terms == flipped, (p, x)


@pytest.mark.parametrize("n", [2, 3])
def test_reconstruction_identity(n):
    spec = TorusSpecialization.standard(n)
    wrows = full_flag_table_recursive(n)
    basis_rows = structure_sheaf_rows(n, spec)
    for p, e in Expander(n).expansions.items():
        for v in wrows[p]:
            total = spec.zero()
            for w, c in e.coeffs.items():
                total = total + c * basis_rows[w][v]
            assert total == wrows[p][v], (p, v)


def test_triangularity_of_coefficients():
    ex = Expander(3)
    for p, e in ex.expansions.items():
        for w in e.coeffs:
            assert bruhat_leq(p, w)


def test_solve_order_independence():
    spec = TorusSpecialization.standard(3)
    wrows = full_flag_table_recursive(3)
    basis_rows = structure_sheaf_rows(3, spec)
    perms = sorted(wrows, key=lambda w: (w.length(), w.word))
    alt_order = sorted(perms, key=lambda w: (w.length(), tuple(reversed(w.word))))
    for p in perms:
        a = expand_by_solve(p, wrows[p], basis_rows, spec)
        b = expand_by_solve(p, wrows[p], basis_rows, spec, order=alt_order)
        assert a.coeffs == b.coeffs


def test_leading_coefficient_constant_term_is_one():
    for n in (2, 3, 4):
        ex = Expander(n)
        for p, e in ex.expansions.items():
            lead = e.coeffs[p]
            at_y0 = substitute_ones(lead.subst_y(()))
            assert at_y0 == (1,), p


# ---------------------------------------------------------------------------
# specializations
# ---------------------------------------------------------------------------


def test_nonequivariant_open_cell_n4_matches_frozen():
    ex = Expander(4)
    got = specialize_nonequivariant(ex.expand(Permutation.identity(4)))
    for w, expected in NONEQ_OPEN_N4.items():
        assert got[perm(*w)] == expected, w


def test_nonequivariant_route_via_one_parameter_spec():
    one_param = Expander(4, TorusSpecialization.one_parameter(4))
    via_one_param = specialize_nonequivariant(one_param.expand(Permutation.identity(4)))
    table = {p: specialize_nonequivariant(e) for p, e in Expander(4).expansions.items()}
    got = table[Permutation.identity(4)]
    for w, expected in NONEQ_OPEN_N4.items():
        assert got[perm(*w)] == expected, w
        assert via_one_param[perm(*w)] == expected, w


def test_nonequivariant_n2_point_coefficient():
    ex = Expander(2)
    got = specialize_nonequivariant(ex.expand(Permutation.identity(2)))
    assert got[perm(2, 1)] == (-1, -2)  # -(2y+1)


def test_ratio_exponents():
    assert ratio_exponents((1, 0, -1)) == (1, 1)
    assert ratio_exponents((0, 0, 0)) == (0, 0)
    with pytest.raises(ValueError):
        ratio_exponents((1, 0, 0))


def test_substitute_s_delta_simple():
    ex = Expander(2)
    sd = substitute_s_delta(ex.expand(perm(2, 1)))
    assert sd[perm(2, 1)].is_one()


def test_substitute_s_delta_spot_values_n4():
    ex = Expander(4)
    sd = substitute_s_delta(ex.expand(perm(4, 3, 1, 2)))
    svars = ("s1", "s2", "s3")
    one = LaurentPoly.one(svars)
    s1 = LaurentPoly.variable(svars, "s1")
    # -(s1 + delta*(1 + s1))
    expected = -(s1 + (one + s1).scale_ypoly((0, 1)))
    assert sd[perm(4, 3, 1, 2)] == expected


def test_substitute_s_delta_delta0_product():
    ex = Expander(4)
    sd = substitute_s_delta(ex.expand(perm(1, 4, 3, 2)))
    c = sd[perm(4, 3, 2, 1)]
    d0 = LaurentPoly(c.vars, {e: (v[0],) for e, v in c.terms.items() if v and v[0]})
    svars = c.vars
    one = LaurentPoly.one(svars)
    s1, s2, s3 = (LaurentPoly.variable(svars, v) for v in svars)
    assert d0 == (one + s1) ** 3 * (one + s2) ** 2 * (one + s3)


# ---------------------------------------------------------------------------
# conjecture checkers
# ---------------------------------------------------------------------------


def test_log_concavity_helpers():
    assert is_strictly_log_concave((1,))
    assert is_strictly_log_concave((1, 5))
    assert is_strictly_log_concave((1, 3, 4))
    assert not is_strictly_log_concave((1, 1, 1))
    assert not is_strictly_log_concave((1, 2, 8))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_conjectures_small(n):
    assert check_sign_conjecture(n).ok
    assert check_log_concavity(n).ok
    assert check_s_delta_signs(n).ok


def test_golden_conjectures_n4_entries(golden, left_steps):
    # every entry of the three reports, in report order, from one walk
    report = check_conjectures(4, tuple(CONJECTURE_CHECKS))
    assert len(left_steps) == 23
    golden("conjectures_n4_entries.json", dumps_canonical(report.entries_json()) + "\n")


@pytest.mark.slow
def test_conjectures_n4():
    ex = Expander(4)
    assert check_sign_conjecture(4, ex).ok
    assert check_log_concavity(4, ex).ok
    assert check_s_delta_signs(4, ex).ok
    assert check_log_concavity(4).entries_json() == check_log_concavity(4, ex).entries_json()


# ---------------------------------------------------------------------------
# emitters
# ---------------------------------------------------------------------------


def test_format_expansion_layout():
    ex = Expander(3)
    line = format_expansion(ex.expand(perm(2, 3, 1)))
    assert line == ("mC[2,3,1] = (t2/t3*y + 1)*[2,3,1] "
                    "- ((1 + t2/t3)*y + 1)*[3,2,1]")


def test_expansion_json_ordering():
    ex = Expander(3)
    blob = ex.expand(perm(1, 3, 2)).to_json()
    ws = [tuple(c["w"]) for c in blob["coeffs"]]
    lengths = [perm(*w).length() for w in ws]
    assert lengths == sorted(lengths)
    assert blob["p"] == [1, 3, 2]
