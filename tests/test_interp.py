import json
import pathlib
import re
from fractions import Fraction
from importlib.resources import files

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcclass.interp import (NonUniqueError, NoSolutionError, OrbitProblem,
                            SymmetricAnsatz, solve_csm, solve_fundamental,
                            solve_unique_fractions)
from mcclass.ring import LaurentPoly, MonomialMap, format_poly
from oracles import (giambelli_thom_porteous, hom_orbit_data, monomial_substitute_loop,
                     oracle_basis, restrict, solve_csm_with_quotients,
                     solve_fundamental_per_class, solve_unique_bareiss, solve_unique_gauss_jordan)

ORACLES = [solve_unique_gauss_jordan, solve_unique_bareiss]


@pytest.fixture(scope="module")
def a2():
    data = files("mcclass.data").joinpath("a2quiver.json").read_text(encoding="utf-8")
    return OrbitProblem.from_json(json.loads(data))


def coeff_dict(expansion):
    return dict(expansion.coeffs)


def sparse(rows):
    """Dense integer rows as the sparse rows the production solver takes."""
    return [{c: v for c, v in enumerate(row) if v} for row in rows]


def solve_dense(rows, rhs):
    """The production solver on dense rows, through `sparse`."""
    return solve_unique_fractions(sparse(rows), rhs, width=len(rows[0]))


def densified(oracle):
    """A dense oracle in the calling convention of the production solver."""
    def solve(rows, rhs, *, width):
        return oracle([[row.get(c, 0) for c in range(width)] for row in rows], rhs)
    return solve


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------


def test_two_solvers_agree_on_small_system():
    rows = [[2, 1, 0], [1, -1, 1], [0, 3, -2], [1, 1, 1]]
    rhs = [3, 0, 3, 2]
    a = solve_dense(rows, rhs)
    b = solve_unique_bareiss(rows, rhs)
    c = solve_unique_gauss_jordan(rows, rhs)
    assert a == b == c == [Fraction(1), Fraction(1), Fraction(0)]
    for row, want in zip(rows, rhs):
        assert sum(Fraction(c) * x for c, x in zip(row, a)) == want


def test_inconsistent_system_detected():
    with pytest.raises(NoSolutionError):
        solve_dense([[1, 0], [1, 0]], [1, 2])


def test_underdetermined_system_detected():
    with pytest.raises(NonUniqueError):
        solve_dense([[1, 1]], [1])


def test_solver_error_contract():
    with pytest.raises(NonUniqueError, match="^no equations$"):
        solve_unique_fractions([], [], width=2)
    # inconsistency wins over rank deficiency
    with pytest.raises(NoSolutionError, match="^inconsistent linear system$"):
        solve_dense([[1, 1, 0], [2, 2, 0]], [1, 3])
    with pytest.raises(NonUniqueError, match="^solution space has dimension 2$"):
        solve_dense([[0, 0, 0], [1, 2, 3], [2, 4, 6]], [0, 1, 2])
    assert solve_dense([[]], [0]) == []
    # absent columns are zero, and a row may list its columns in any order
    assert solve_unique_fractions([{1: 2, 0: 1}, {1: 1}], [4, 1], width=2) == [2, 1]
    with pytest.raises(NonUniqueError, match="^solution space has dimension 1$"):
        solve_unique_fractions([{0: 1}], [1], width=2)


@pytest.mark.parametrize("rows, rhs, want", [
    # both pivots negative: -2 on column 0, then -3 on column 1
    ([[-2, 1], [1, 1]], [3, -1], [Fraction(-4, 3), Fraction(1, 3)]),
    # x0 reads x1 = -1/2 (through the pivot -2) and x2 = -1/6, over the
    # common denominator 6 of 2 and 6
    ([[1, 1, 1], [0, -2, 0], [0, 0, 6]], [0, 1, -1],
     [Fraction(2, 3), Fraction(-1, 2), Fraction(-1, 6)]),
], ids=["negative-pivots", "mixed-denominators"])
def test_back_substitution_over_integer_pairs(rows, rhs, want):
    got = solve_dense(rows, rhs)
    assert got == want
    assert all(type(x) is Fraction for x in got)
    for oracle in ORACLES:
        assert oracle(rows, rhs) == want, oracle.__name__


@pytest.mark.parametrize("rows, inconsistent, consistent", [
    # a zero row under a system of full rank
    ([[1, 0], [0, 1], [0, 0]], [1, 2, 3], [1, 2, 0]),
    # the last row is -2 times the first
    ([[2, -1], [0, 1], [-4, 2]], [1, 1, -1], [1, 1, -2]),
], ids=["zero-row", "multiple-of-a-row"])
def test_right_hand_side_alone_makes_the_system_inconsistent(rows, inconsistent, consistent):
    for solve in [solve_dense] + ORACLES:
        with pytest.raises(NoSolutionError, match="^inconsistent linear system$"):
            solve(rows, inconsistent)
        assert solve(rows, consistent) == solve_dense(rows, consistent)


def _outcome(solver, rows, rhs):
    try:
        return solver(rows, rhs)
    except (NoSolutionError, NonUniqueError) as err:
        return type(err), str(err)


@st.composite
def small_systems(draw):
    """Integer systems of 1-7 rows and 1-5 columns, mixing free rows, rows
    consistent with a hidden integer point, duplicates, zero rows, rows
    zero except for the right-hand side, and combinations of earlier rows
    (rank deficiency) whose right-hand side may be perturbed
    (inconsistency)."""
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, 7))
    entry = st.integers(-3, 3)
    dense = st.lists(entry, min_size=n, max_size=n)
    point = draw(dense)
    rows, rhs = [], []
    for _ in range(m):
        kind = draw(st.sampled_from(["free", "consistent", "duplicate", "zero",
                                     "rhs-only", "combination"]))
        if kind in ("duplicate", "combination") and not rows:
            kind = "consistent"
        if kind == "free":
            row, b = draw(dense), draw(entry)
        elif kind == "consistent":
            row = draw(dense)
            b = sum(a * x for a, x in zip(row, point))
        elif kind == "duplicate":
            i = draw(st.integers(0, len(rows) - 1))
            row, b = list(rows[i]), rhs[i]
        elif kind == "zero":
            row, b = [0] * n, 0
        elif kind == "rhs-only":
            row, b = [0] * n, draw(entry.filter(bool))
        else:
            i = draw(st.integers(0, len(rows) - 1))
            j = draw(st.integers(0, len(rows) - 1))
            p, q = draw(entry), draw(entry)
            row = [p * u + q * v for u, v in zip(rows[i], rows[j])]
            b = p * rhs[i] + q * rhs[j] + draw(st.sampled_from([0, 0, 1]))
        rows.append(row)
        rhs.append(b)
    return rows, rhs


@settings(max_examples=400, deadline=None)
@given(small_systems())
def test_solver_matches_oracles_on_small_systems(system):
    rows, rhs = system
    got = _outcome(solve_dense, rows, rhs)
    for oracle in ORACLES:
        assert _outcome(oracle, rows, rhs) == got, oracle.__name__
    if isinstance(got, list):
        for row, want in zip(rows, rhs):
            assert sum(c * x for c, x in zip(row, got)) == want


# ---------------------------------------------------------------------------
# ansatz
# ---------------------------------------------------------------------------


def test_ansatz_basis_counts():
    ansatz = SymmetricAnsatz.from_groups([("A", ("a1", "a2")),
                                          ("B", ("b1", "b2", "b3"))])
    # degree-2 monomials in A1, A2, B1, B2, B3: A1^2, A1 B1, A2, B1^2, B2
    names, degrees, matrix = ansatz.basis(2, homogeneous=True)
    assert len(names) == 5
    assert set(names) == {"A1^2", "A1*B1", "A2", "B1^2", "B2"}
    assert degrees == [2] * 5
    assert all(sum(e) == 2 for e in matrix)


def test_ansatz_generators_are_symmetric():
    ansatz = SymmetricAnsatz.from_groups([("A", ("a1", "a2"))])
    (name1, deg1, e1), (name2, deg2, e2) = ansatz.generators()
    assert (name1, deg1, e1) == ("A1", 1, {(1, 0): 1, (0, 1): 1})
    assert (name2, deg2, e2) == ("A2", 2, {(1, 1): 1})
    for terms in (e1, e2):
        assert {(b, a): c for (a, b), c in terms.items()} == terms


THREE_GROUPS = SymmetricAnsatz.from_groups([("A", ("a1", "a2")), ("B", ("b1", "b2", "b3")),
                                            ("C", ("c1",))])


@pytest.mark.parametrize("which, top", [("bundled-quiver", 6), ("three-groups", 5)])
@pytest.mark.parametrize("homogeneous", [False, True], ids=["inhomogeneous", "homogeneous"])
def test_basis_matches_the_oracle_basis(a2, which, top, homogeneous):
    # names, order, weighted degrees and every coefficient, column by column
    ansatz = a2.ansatz if which == "bundled-quiver" else THREE_GROUPS
    for degree in range(top + 1):
        names, weights, matrix = ansatz.basis(degree, homogeneous)
        want = oracle_basis(ansatz, degree, homogeneous)
        assert names == [name for name, _, _ in want], degree
        assert weights == [w for _, w, _ in want], degree
        columns = [{} for _ in names]
        for e, row in matrix.items():
            assert list(row) == sorted(row), e
            for j, c in row.items():
                assert type(c) is int and c
                columns[j][e] = c
        for j, (_, _, p) in enumerate(want):
            assert columns[j] == {e: c[0] for e, c in p.terms.items()}, names[j]
            assert all(len(c) == 1 for c in p.terms.values())


# ---------------------------------------------------------------------------
# fundamental classes
# ---------------------------------------------------------------------------


def test_fundamental_omega1(a2):
    sol = solve_fundamental(a2, "omega1")
    assert dict(sol.coeffs) == {"A1^2": 1, "A2": -1, "A1*B1": -1, "B2": 1}


def test_fundamental_open_orbit_is_one(a2):
    sol = solve_fundamental(a2, "omega0")
    assert dict(sol.coeffs) == {"1": 1}


def test_fundamental_omega2_dual_solver_oracle(a2):
    a = solve_fundamental(a2, "omega2", solver=solve_unique_fractions)
    b = solve_fundamental(a2, "omega2", solver=densified(solve_unique_bareiss))
    assert a.coeffs == b.coeffs
    # normalization: restriction at omega2 (the identity map) is the Euler class
    o2 = a2.orbit("omega2")
    assert restrict(a2, a.poly, o2) == o2.euler


def test_restrict_matches_loop_oracle(a2):
    # every basis class the CSM solves use, at every orbit
    for p in (p for _, _, p in oracle_basis(a2.ansatz, 6)):
        for o in a2.orbits:
            images = {v: (1, {img: 1}) for v, img in o.phi.items()}
            assert restrict(a2, p, o) == monomial_substitute_loop(p, images, a2.all_vars)


def test_restrict_compiles_nothing_per_call(a2, monkeypatch):
    # the restriction maps are compiled when the problem is built
    def refuse(*args):
        raise AssertionError("a monomial map was compiled after load")

    monkeypatch.setattr(MonomialMap, "__init__", refuse)
    sol = solve_csm(a2, "omega1")
    assert sol.restrictions["omega0"].is_zero()


def test_fundamental_vanishes_on_open_orbit(a2):
    for target in ("omega1", "omega2"):
        sol = solve_fundamental(a2, target)
        assert restrict(a2, sol.poly, a2.orbit("omega0")).is_zero()


# ---------------------------------------------------------------------------
# CSM classes
# ---------------------------------------------------------------------------


def test_csm_omega1(a2):
    sol = solve_csm(a2, "omega1")
    o1 = a2.orbit("omega1")
    assert sol.restrictions["omega1"] == o1.euler * o1.tangent_c
    assert sol.restrictions["omega0"].is_zero()
    assert sol.lowest_matches_fundamental
    assert dict(sol.lowest_degree.coeffs) == {"A1^2": 1, "A2": -1, "A1*B1": -1, "B2": 1}


def test_csm_degree2_component_equals_fundamental(a2):
    sol = solve_csm(a2, "omega1")
    deg2 = {e: c for e, c in sol.expansion.poly.terms.items() if sum(e) == 2}
    fund = dict(sol.fundamental.poly.terms)
    assert deg2 == fund


def test_csm_open_orbit_normalization(a2):
    sol = solve_csm(a2, "omega0")
    o0 = a2.orbit("omega0")
    assert sol.restrictions["omega0"] == o0.tangent_c  # euler = 1
    assert sol.lowest_matches_fundamental


@pytest.mark.parametrize("oracle", ORACLES, ids=lambda f: f.__name__)
@pytest.mark.parametrize("target", ["omega0", "omega1", "omega2"])
def test_csm_matches_oracle_solvers(a2, target, oracle):
    got = solve_csm(a2, target)
    want = solve_csm(a2, target, solver=densified(oracle))
    assert got.expansion.coeffs == want.expansion.coeffs
    assert got.lowest_degree.coeffs == want.lowest_degree.coeffs
    assert got.fundamental.coeffs == want.fundamental.coeffs
    assert got.restrictions == want.restrictions


@pytest.mark.parametrize("target", ["omega0", "omega1", "omega2"])
def test_csm_fundamental_equals_standalone_solve(a2, target):
    # solve_csm reads the fundamental class off its own restricted basis
    assert solve_csm(a2, target).fundamental == solve_fundamental(a2, target)


def test_csm_report_json(a2):
    sol = solve_csm(a2, "omega1")
    blob = sol.to_json()
    assert blob["lowest_degree_matches_fundamental"] is True
    assert "csm" in blob and "restrictions" in blob


def test_euler_zero_rejected():
    from mcclass.interp import OrbitSpec
    vars = ("a1",)
    with pytest.raises(ValueError):
        OrbitSpec("bad", 1, {}, LaurentPoly.zero(vars), LaurentPoly.one(vars))


def test_orbit_data_that_cannot_define_the_classes_rejected():
    from mcclass.interp import OrbitSpec
    vars = ("a1",)
    a1 = LaurentPoly.variable(vars, "a1")
    with pytest.raises(ValueError, match="tangent Chern class must be nonzero"):
        OrbitSpec("bad", 1, {}, a1, LaurentPoly.zero(vars))
    with pytest.raises(ValueError, match="homogeneous of degree codim = 2"):
        OrbitSpec("bad", 2, {}, a1, LaurentPoly.one(vars))
    with pytest.raises(ValueError, match="homogeneous of degree codim = 1"):
        OrbitSpec("bad", 1, {}, a1 + 1, LaurentPoly.one(vars))
    OrbitSpec("good", 1, {}, a1, a1 + 1)


# ---------------------------------------------------------------------------
# rank stratifications of Hom(C^m, C^n)
# ---------------------------------------------------------------------------


def _csm_outcome(solve, problem, target):
    """Everything a CSM solve returns, or the type and message of its error."""
    try:
        sol = solve(problem, target)
    except (NoSolutionError, NonUniqueError) as err:
        return type(err), str(err)
    return (sol.expansion.coeffs, sol.lowest_degree.coeffs, sol.fundamental.coeffs,
            sol.restrictions)


def _assert_fundamental_matches_per_class_oracle(problem, target):
    """solve_fundamental and its per-class oracle give the same class, or
    the same error."""
    outcomes = []
    for solve in (solve_fundamental, solve_fundamental_per_class):
        try:
            sol = solve(problem, target)
        except (NoSolutionError, NonUniqueError) as err:
            outcomes.append((type(err), str(err)))
        else:
            outcomes.append((sol.coeffs, sol.poly))
    assert outcomes[0] == outcomes[1], target


def test_generated_hom_2_3_is_the_bundled_quiver(a2):
    assert OrbitProblem.from_json(hom_orbit_data(2, 3)) == a2


@pytest.mark.parametrize("m, n", [(1, 1), (2, 2), (2, 3), (2, 4), (3, 3)])
def test_csm_matches_quotient_oracle_on_rank_stratifications(m, n):
    # and the fundamental classes match the per-class oracle
    problem = OrbitProblem.from_json(hom_orbit_data(m, n))
    for o in problem.orbits:
        got = _csm_outcome(solve_csm, problem, o.name)
        assert isinstance(got[0], tuple), got
        assert got == _csm_outcome(solve_csm_with_quotients, problem, o.name), o.name
        _assert_fundamental_matches_per_class_oracle(problem, o.name)


@pytest.mark.parametrize("m, n, k", [(1, 1, 0), (2, 2, 1), (2, 2, 2), (2, 3, 1), (2, 3, 2)])
def test_csm_matches_quotient_oracle_with_constant_tangent_class(m, n, k):
    # omega_k's tangent class becomes the constant 2: no quotient unknown,
    # and where codim(omega_k) <= the degree bound, rows for the monomials
    # of degree >= codim; some of these problems have no solution
    data = hom_orbit_data(m, n)
    data["orbits"][k]["tangent_c"] = [{"const": 2}]
    problem = OrbitProblem.from_json(data)
    for o in problem.orbits:
        want = _csm_outcome(solve_csm_with_quotients, problem, o.name)
        assert _csm_outcome(solve_csm, problem, o.name) == want, o.name
        _assert_fundamental_matches_per_class_oracle(problem, o.name)


def test_csm_and_quotient_oracle_agree_on_a_degenerate_problem():
    # without omega1 nothing pins the classes of degree >= 2 at omega0
    data = hom_orbit_data(2, 3)
    del data["orbits"][1]
    problem = OrbitProblem.from_json(data)
    for solve in (solve_csm, solve_csm_with_quotients):
        with pytest.raises(NonUniqueError, match="^solution space has dimension 24$"):
            solve(problem, "omega0")
    for o in problem.orbits:
        _assert_fundamental_matches_per_class_oracle(problem, o.name)


def _collapsing_orbit(codim, euler):
    """Orbit data on a1, a2 with one orbit p where both variables go to t."""
    return OrbitProblem.from_json({
        "vars": ["a1", "a2"], "symmetry": [["a1", "a2"]],
        "orbits": [{"name": "p", "codim": codim, "phi": {"a1": "t", "a2": "t"},
                    "euler": euler, "tangent_c": [{"const": 1}]}]})


@pytest.mark.parametrize("codim, euler, error, message", [
    # A1 restricts to 2t, so the class restricting to t is A1/2
    (1, [{"coeffs": {"t": 1}}], NoSolutionError, "non-integral coefficient 1/2 on A1"),
    # no symmetric class restricts to a1, which is not a class in t
    (1, [{"coeffs": {"a1": 1}}], NoSolutionError, "inconsistent linear system"),
    # A1^2 and A2 restrict to 4t^2 and t^2
    (2, [{"coeffs": {"t": 1}}, {"coeffs": {"t": 1}}], NonUniqueError,
     "solution space has dimension 1"),
], ids=["non-integral", "inconsistent", "non-unique"])
def test_solver_verdicts_match_per_class_oracles(codim, euler, error, message):
    problem = _collapsing_orbit(codim, euler)
    for solve in (solve_fundamental, solve_fundamental_per_class,
                  solve_csm, solve_csm_with_quotients):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            solve(problem, "p")


@pytest.mark.parametrize("m, n", [(m, n) for m in range(1, 4) for n in range(m, 7 - m)])
def test_fundamental_classes_are_giambelli_thom_porteous(m, n):
    problem = OrbitProblem.from_json(hom_orbit_data(m, n))
    for k, o in enumerate(problem.orbits):
        want = giambelli_thom_porteous(m, n, k)
        assert solve_fundamental(problem, o.name).poly == want, o.name
        assert solve_csm(problem, o.name).fundamental.poly == want, o.name


def test_giambelli_thom_porteous_sign_matches_the_golden(a2):
    # omega1 of Hom(C^2, C^3): c_2(B - A) = B2 - A1*B1 + A1^2 - A2
    golden = pathlib.Path(__file__).parent / "golden" / "interpolate_csm_omega1.json"
    blob = json.loads(golden.read_text(encoding="utf-8"))
    basis = {name: p for name, _, p in oracle_basis(a2.ansatz, 2, homogeneous=True)}
    coeffs = {c["monomial"]: c["coeff"] for c in blob["fundamental_class"]["coefficients"]}
    assert coeffs == {"B2": 1, "A1*B1": -1, "A1^2": 1, "A2": -1}
    total = LaurentPoly.zero(a2.ansatz.vars)
    for name, c in coeffs.items():
        total = total + basis[name].scale_ypoly((c,))
    assert total == giambelli_thom_porteous(2, 3, 1)


@pytest.mark.parametrize("m, n", [(2, 2), (2, 4), (3, 3)])
def test_csm_classes_add_up_to_total_chern_class(m, n):
    # CSM additivity: the orbits partition Hom(C^m, C^n)
    problem = OrbitProblem.from_json(hom_orbit_data(m, n))
    vars = problem.ansatz.vars
    total = LaurentPoly.zero(vars)
    for o in problem.orbits:
        total = total + solve_csm(problem, o.name).expansion.poly
    want = LaurentPoly.one(vars)
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            weight = LaurentPoly.variable(vars, f"b{j}") - LaurentPoly.variable(vars, f"a{i}")
            want = want * (weight + 1)
    assert total == want


def _open_orbit_only(**changes):
    """An edit that replaces the data by one open orbit over a and b, with
    changes to its top-level keys or, under "orbit", to the orbit."""
    orbit = {"name": "open", "codim": 0, "phi": {}, "euler": [], "tangent_c": [],
             **changes.pop("orbit", {})}

    def edit(d):
        d.clear()
        d.update({"vars": ["a", "b"], "orbits": [orbit], **changes})
    return edit


@pytest.mark.parametrize("edit, message", [
    (lambda d: d["orbits"][1].update(codim=1.5), "orbit omega1: codim 1.5 is not an integer"),
    (lambda d: d["orbits"][1].update(codim=True), "orbit omega1: codim True is not an integer"),
    (lambda d: d["orbits"][1]["euler"][0]["coeffs"].update(b2=1.5),
     "orbit omega1: euler coefficient of b2 1.5 is not an integer"),
    (lambda d: d["orbits"][0]["tangent_c"][0].update(const="2"),
     "orbit omega0: tangent_c const '2' is not an integer"),
    (lambda d: d["orbits"][0]["tangent_c"][0].update(const=True),
     "orbit omega0: tangent_c const True is not an integer"),
    (lambda d: d["orbits"][1]["tangent_c"][0]["coeffs"].update(zz=1),
     "orbit omega1: tangent_c names 'zz', which is neither an ansatz variable nor a phi image"),
    (lambda d: d["symmetry"][1].append("c1"), "symmetry variable 'c1' is not in vars"),
    (lambda d: d["symmetry"][1].append("a2"), "variable 'a2' lies in two symmetry blocks"),
    (lambda d: d.update(groups=[{"label": "A", "vars": ["a1", "a2"]},
                                {"label": "B", "vars": ["b1", "b2", "b4"]}]),
     "symmetry variable 'b4' is not in vars"),
    (lambda d: d.pop("vars") and d.update(groups=[{"label": "A", "vars": ["a1", "a2"]},
                                                  {"label": "B", "vars": ["a2", "b1"]}]),
     "variable 'a2' lies in two symmetry blocks"),
    (lambda d: d["vars"].append("a1"), "vars lists 'a1' twice"),
    (lambda d: d.update(groups=[{"label": "A", "vars": ["a1", "a2"]},
                                {"label": "A", "vars": ["b1", "b2", "b3"]}]),
     "group label 'A' is given twice"),
    # a string or an object where a list is required is not read as one
    (_open_orbit_only(vars="ab"), "vars 'ab' is not a list of names"),
    (_open_orbit_only(vars=["a", 1]), "vars ['a', 1] is not a list of names"),
    (_open_orbit_only(symmetry="ab"), "symmetry 'ab' is not a list"),
    (_open_orbit_only(symmetry=["ab"]), "symmetry block 'ab' is not a list of names"),
    (_open_orbit_only(symmetry=[[]]), "symmetry block [] is empty"),
    (_open_orbit_only(groups=[{"label": "A", "vars": "ab"}]),
     "group A: vars 'ab' is not a list of names"),
    (_open_orbit_only(groups=[{"label": ["A"], "vars": ["a", "b"]}]),
     "group label ['A'] is not a string"),
    (_open_orbit_only(orbits={}), "orbits {} is not a list"),
    (_open_orbit_only(orbit={"euler": {}}), "orbit open: euler {} is not a list"),
    (_open_orbit_only(orbit={"tangent_c": "1"}), "orbit open: tangent_c '1' is not a list"),
    (_open_orbit_only(orbit={"name": ["open"]}), "orbit name ['open'] is not a string"),
    # a list, a string or a number where an object is required
    (_open_orbit_only(orbit={"phi": []}), "orbit open: phi [] is not an object"),
    (_open_orbit_only(orbit={"euler": [5]}), "orbit open: euler factor 5 is not an object"),
    (_open_orbit_only(orbit={"tangent_c": [{"const": 1, "coeffs": ["a"]}]}),
     "orbit open: tangent_c coeffs ['a'] is not an object"),
    (_open_orbit_only(orbits=["open"]), "orbit 'open' is not an object"),
    (_open_orbit_only(groups=[["a", "b"]]), "group ['a', 'b'] is not an object"),
    (lambda d: [1, 2], "orbit data [1, 2] is not an object"),
], ids=["codim-float", "codim-bool", "coefficient-float", "const-string", "const-bool",
        "unknown-factor-variable", "symmetry-outside-vars", "symmetry-overlap",
        "group-outside-vars", "group-overlap", "repeated-var", "group-label-twice",
        "vars-a-string", "var-not-a-string", "symmetry-a-string", "symmetry-block-a-string",
        "symmetry-block-empty",
        "group-vars-a-string", "group-label-not-a-string", "orbits-an-object",
        "euler-an-object", "tangent-a-string", "orbit-name-a-list",
        "phi-a-list", "factor-a-number", "coeffs-a-list", "orbit-a-string", "group-a-list",
        "data-a-list"])
def test_malformed_orbit_data_names_the_fault(edit, message):
    # an edit changes the data in place, or returns data to use instead
    data = hom_orbit_data(2, 3)
    data = edit(data) or data
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        OrbitProblem.from_json(data)


def test_groups_with_vars_keep_leftovers_as_singletons():
    data = hom_orbit_data(2, 3)
    data["vars"].append("c1")
    data["groups"] = [{"label": "A", "vars": ["a1", "a2"]},
                      {"label": "B", "vars": ["b1", "b2", "b3"]}]
    ansatz = OrbitProblem.from_json(data).ansatz
    assert ansatz.groups == (("A", ("a1", "a2")), ("B", ("b1", "b2", "b3")), ("C", ("c1",)))


@pytest.mark.parametrize("symmetry, labels", [
    # leftover singletons whose letters read A or B
    ([["a1", "a2"]], ["A", "B", "B2", "B3", "A3"]),
    # two blocks whose first variables both read A
    ([["a1", "a2"], ["b1", "b2"], ["a3", "b3"]], ["A", "B", "A3"]),
])
def test_generated_labels_are_unique(symmetry, labels):
    data = hom_orbit_data(2, 3)
    data["vars"].append("a3")
    data["symmetry"] = symmetry
    ansatz = OrbitProblem.from_json(data).ansatz
    assert [label for label, _ in ansatz.groups] == labels
    names = [name for name, _, _ in ansatz.generators()]
    assert len(set(names)) == len(names), names
    basis, _, _ = ansatz.basis(2, homogeneous=True)
    assert len(set(basis)) == len(basis), basis


def test_generated_labels_avoid_explicit_ones():
    data = hom_orbit_data(2, 3)
    data["vars"] += ["a3", "b4"]
    data["groups"] = [{"label": "A", "vars": ["a1", "a2"]},
                      {"label": "B", "vars": ["b1", "b2", "b3"]}]
    ansatz = OrbitProblem.from_json(data).ansatz
    assert [label for label, _ in ansatz.groups] == ["A", "B", "A3", "B4"]
