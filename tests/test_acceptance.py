"""Acceptance suite: one test per numbered criterion, each printing a
pass/fail line with its runtime.  All comparisons are exact symbolic
equality after canonicalization; there are no tolerances anywhere.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import json
import pathlib
import subprocess
import sys
import time
from contextlib import contextmanager

ROOT = pathlib.Path(__file__).resolve().parent.parent

import pytest

from frozen_expansions import DEEPEST_OPEN_N5, EXPANSIONS_N3, NONEQ_OPEN_N4
from mcclass.axioms import (check_additivity, check_divisibility,
                            check_normalization, check_smallness_strict,
                            check_support, quadratic_cone_class,
                            quadratic_cone_ratio)
from mcclass.combi import Composition, Permutation
from mcclass.expand import (Expander, check_log_concavity, check_s_delta_signs,
                            check_sign_conjecture, is_strictly_log_concave,
                            specialize_nonequivariant, substitute_s_delta)
from mcclass.ring import (Cocharacter, LaurentPoly, exact_divide, limit_at_infinity,
                          substitute_ones)
from mcclass.weightfn import TorusSpecialization
from oracles import direct_table


@contextmanager
def criterion(number, description):
    t0 = time.time()
    failed = False
    try:
        yield
    except BaseException:
        failed = True
        raise
    finally:
        status = "FAIL" if failed else "PASS"
        print(f"\nACCEPTANCE {number}: {status} ({time.time() - t0:.1f}s) {description}")


@pytest.fixture(scope="module")
def n4_table():
    return direct_table(Composition((1, 1, 1, 1)), modified=True,
                        spec=TorusSpecialization.standard(4))


def test_criterion_1_fl3_expansion_table():
    with criterion(1, "Fl(3) expansion table reproduces every printed coefficient"):
        ex = Expander(3)
        for pw, expected in EXPANSIONS_N3.items():
            e = ex.expand(Permutation(pw))
            got = {w.word: c for w, c in e.coeffs.items()}
            assert set(got) == set(expected), pw
            for w, c in expected.items():
                assert got[w] == c, (pw, w)


def test_criterion_2_fl4_nonequivariant_open_cell():
    with criterion(2, "Fl(4) non-equivariant open cell matches all 24 printed coefficients"):
        t0 = time.time()
        ex = Expander(4)
        got = specialize_nonequivariant(ex.expand(Permutation.identity(4)))
        assert len(got) == 24
        for w, expected in NONEQ_OPEN_N4.items():
            assert got[Permutation(w)] == expected, w
        assert time.time() - t0 < 60


def test_criterion_3_fl5_deepest_coefficient():
    with criterion(3, "Fl(5) deepest coefficient of the open cell, strictly log-concave"):
        t0 = time.time()
        spec = TorusSpecialization.one_parameter(5)
        ex = Expander(5, spec)
        e = ex.expand(Permutation.identity(5))
        seq = substitute_ones(e.coeffs[Permutation.longest(5)])
        assert seq == DEEPEST_OPEN_N5
        assert is_strictly_log_concave(seq)
        assert time.time() - t0 < 600


def test_criterion_4_quadratic_cone():
    with criterion(4, "quadratic cone: three limits and (y+1)-divisibility"):
        ratio = quadratic_cone_ratio()
        assert limit_at_infinity(ratio, Cocharacter((1, 0, 0))) == ()
        # y^4 + (y+1)(1-y)^2 - 1
        assert limit_at_infinity(ratio, Cocharacter((-1, 0, 0))) == (0, -1, -1, 1, 1)
        # -y (y+1)^2
        assert limit_at_infinity(ratio, Cocharacter((-1, 2, 0))) == (0, -1, -2, -1)
        mc = quadratic_cone_class()
        oy = LaurentPoly.constant(mc.vars, (1, 1))
        exact_divide(mc, oy)


def test_criterion_5_interpolation():
    with criterion(5, "interpolation: fundamental and CSM classes of the rank-one orbit"):
        from importlib.resources import files
        from mcclass.interp import OrbitProblem, solve_csm, solve_fundamental
        data = files("mcclass.data").joinpath("a2quiver.json").read_text(encoding="utf-8")
        problem = OrbitProblem.from_json(json.loads(data))
        fund = solve_fundamental(problem, "omega1")
        assert dict(fund.coeffs) == {"A1^2": 1, "A2": -1, "A1*B1": -1, "B2": 1}
        sol = solve_csm(problem, "omega1")  # raises NonUniqueError otherwise
        o1 = problem.orbit("omega1")
        assert sol.restrictions["omega1"] == o1.euler * o1.tangent_c
        assert sol.lowest_matches_fundamental


@pytest.mark.slow
def test_criterion_6_axiom_suite(n4_table):
    with criterion(6, "axioms (normalization, divisibility, support, strict smallness), n in {2,3,4}"):
        t0 = time.time()
        for n in (2, 3):
            mu = Composition((1,) * n)
            spec = TorusSpecialization.standard(n)
            table = direct_table(mu, modified=True, spec=spec)
            for rep in (check_normalization(table),
                        check_divisibility(table),
                        check_support(table),
                        check_smallness_strict(table)):
                assert rep.ok, rep.summary()
        table = n4_table
        for rep in (check_normalization(table),
                    check_divisibility(table),
                    check_support(table),
                    check_smallness_strict(table)):
            assert rep.ok, rep.summary()
        assert time.time() - t0 < 180


@pytest.mark.slow
def test_criterion_7_additivity(n4_table):
    with criterion(7, "additivity of modified rows against the ambient class, n <= 4"):
        for n in (1, 2, 3):
            mu = Composition((1,) * n)
            spec = TorusSpecialization.standard(n)
            table = direct_table(mu, modified=True, spec=spec)
            assert check_additivity(table).ok
        assert check_additivity(n4_table).ok


def test_criterion_8_conjecture_reports():
    with criterion(8, "sign and s-delta conjectures n <= 4; log-concavity n <= 5"):
        for n in (1, 2, 3, 4):
            ex = Expander(n)
            assert check_sign_conjecture(n, ex).ok, n
            assert check_s_delta_signs(n, ex).ok, n
        for n in (1, 2, 3, 4, 5):
            assert check_log_concavity(n).ok, n


def test_criterion_9_ratio_variable_spot_values():
    with criterion(9, "ratio-variable spot values of the two pinned expansions"):
        ex = Expander(4)
        sd = substitute_s_delta(ex.expand(Permutation((4, 3, 1, 2))))
        svars = ("s1", "s2", "s3")
        one = LaurentPoly.one(svars)
        s1 = LaurentPoly.variable(svars, "s1")
        s2 = LaurentPoly.variable(svars, "s2")
        s3 = LaurentPoly.variable(svars, "s3")
        assert sd[Permutation((4, 3, 1, 2))] == -(s1 + (one + s1).scale_ypoly((0, 1)))

        sd2 = substitute_s_delta(ex.expand(Permutation((1, 4, 3, 2))))
        c = sd2[Permutation((4, 3, 2, 1))]
        d0 = LaurentPoly(c.vars, {e: (v[0],) for e, v in c.terms.items() if v and v[0]})
        assert d0 == (one + s1) ** 3 * (one + s2) ** 2 * (one + s3)


def test_criterion_9_second_spot_value_as_stated():
    """The deepest coefficient of the expansion of the cell of (4,3,1,2),
    rewritten in s and delta, is 1 + 2*delta + s1 + s1*delta.

    The value pinned here before was 1 + delta, which is wrong. Let
    u = (4,3,1,2) = s1 * w0. The cell of u is an A^1, and its closure is
    a P^1 with fixed points u and w0. So the expansion has two terms,
    mC = c_u O_u + c_w0 O_w0.

    Non-equivariantly, chi(O_P^1) = chi(O_pt) = 1. So c_u + c_w0 at
    tau = 1 equals chi_y(A^1) = chi_y(P^1) - chi_y(pt) = -y = 1 + delta.
    Criterion 9 pins c_u = -(s1 + (1 + s1) delta), which is -delta at
    s = 0. That forces c_w0 = 1 + 2*delta at s = 0. The old pin 1 + delta
    is the chi_y genus of the whole cell, not its w0 coefficient.

    Equivariantly, let a be the tangent weight at u. Localization on the
    P^1 gives mC|_u = 1 + y e^{-a} and mC|_w0 = (1 + y e^{a}) - (1 - e^{a}).
    Solving for the O-basis coefficients gives
    c_w0 = -(1 + y + y e^{-a}), with e^{-a} = t1/t2. Substituting
    y = -1 - delta and t1/t2 = 1 + s1 gives 1 + 2*delta + s1 + s1*delta.
    This has the same shape as the frozen three-letter coefficient of
    (3,1,2) at (3,2,1).
    """
    with criterion("9b", "deepest s-delta coefficient of the (4,3,1,2) cell, 1 + 2*delta + s1 + s1*delta"):
        ex = Expander(4)
        sd = substitute_s_delta(ex.expand(Permutation((4, 3, 1, 2))))
        svars = ("s1", "s2", "s3")
        one = LaurentPoly.one(svars)
        s1 = LaurentPoly.variable(svars, "s1")
        delta = one.scale_ypoly((0, 1))
        expected = one + delta + delta + s1 + s1 * delta
        got = sd[Permutation((4, 3, 2, 1))]
        assert got == expected, (
            f"got {got!r}, expected {expected!r}; the parameter slot of "
            f"substitute_s_delta output prints as y but carries delta")


def test_criterion_10_determinism_serial_vs_parallel():
    with criterion(10, "serial and parallel runs produce byte-identical output"):
        for cmd in (["axioms", "--n", "3", "--format", "json"],
                    ["conjectures", "--n", "3", "--format", "json"],
                    ["weight", "--mu", "1,1,1", "--all", "--restrict",
                     "--kind", "modified", "--format", "json"]):
            base = [sys.executable, "-m", "mcclass"] + cmd
            a = subprocess.run(base + ["--jobs", "1"], capture_output=True, cwd=ROOT)
            b = subprocess.run(base + ["--jobs", "2"], capture_output=True, cwd=ROOT)
            assert a.returncode == 0 and b.returncode == 0, (a.stderr, b.stderr)
            assert a.stdout == b.stdout, cmd
