"""Independent routes that the tests pin production code against.

- `solve_unique_gauss_jordan` and `solve_unique_bareiss`, the oracles for
  the production solver `mcclass.interp.solve_unique_fractions`.  Both
  take dense integer rows and a right-hand side, and return the unique
  solution as Fractions or raise NoSolutionError / NonUniqueError, with
  the inconsistency check taking precedence.
- `ring_descent_step`, the exchange operator of
  `mcclass.weightfn.descent_step` written with ring products and exact
  division.
"""

from fractions import Fraction
from typing import Mapping

from mcclass.combi import Permutation
from mcclass.interp import NonUniqueError, NoSolutionError
from mcclass.ring import YP_ONE_PLUS_Y, LaurentPoly, exact_divide
from mcclass.weightfn import TorusSpecialization


def solve_unique_gauss_jordan(rows, rhs):
    """Dense Gauss-Jordan over Fractions, every row reduced across its full
    width."""
    m = len(rows)
    if m == 0:
        raise NonUniqueError("no equations")
    n = len(rows[0])
    aug = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    pivots = []
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, m) if aug[i][c] != 0), None)
        if pr is None:
            continue
        aug[r], aug[pr] = aug[pr], aug[r]
        pv = aug[r][c]
        aug[r] = [x / pv for x in aug[r]]
        for i in range(m):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if aug[i][n] != 0:
            raise NoSolutionError("inconsistent linear system")
    if len(pivots) < n:
        raise NonUniqueError(f"solution space has dimension {n - len(pivots)}")
    x = [Fraction(0)] * n
    for i, c in enumerate(pivots):
        x[c] = aug[i][n]
    return x


def solve_unique_bareiss(rows, rhs):
    """Dense fraction-free Bareiss elimination over the integers.

    Forward elimination transforms only the rows below each pivot (the
    exact divisibility by the previous pivot holds there), then exact
    back-substitution finishes over rationals.
    """
    m = len(rows)
    n = len(rows[0]) if rows else 0
    aug = [[int(x) for x in row] + [int(b)] for row, b in zip(rows, rhs)]
    prev = 1
    r = 0
    pivots = []
    for c in range(n):
        pr = next((i for i in range(r, m) if aug[i][c] != 0), None)
        if pr is None:
            continue
        aug[r], aug[pr] = aug[pr], aug[r]
        piv = aug[r][c]
        for i in range(r + 1, m):
            fi = aug[i][c]
            aug[i] = [(piv * aug[i][k] - fi * aug[r][k]) // prev
                      for k in range(n + 1)]
        prev = piv
        pivots.append(c)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if any(aug[i][k] for k in range(n)):
            raise AssertionError("elimination left a nonzero reduced row")
        if aug[i][n] != 0:
            raise NoSolutionError("inconsistent linear system")
    if len(pivots) < n:
        raise NonUniqueError(f"solution space has dimension {n - len(pivots)}")
    x = [Fraction(0)] * n
    for i in reversed(range(len(pivots))):
        c = pivots[i]
        acc = Fraction(aug[i][n])
        for j in range(c + 1, n):
            acc -= Fraction(aug[i][j]) * x[j]
        x[c] = acc / aug[i][c]
    return x


def ring_descent_step(row: Mapping[Permutation, LaurentPoly], i: int,
                      spec: TorusSpecialization) -> dict:
    """g(v) = A*((1 + y*A/B) * f(v*s_i) - (1 + y) * f(v)) / (A - B), with
    A = tau_{v(i)} and B = tau_{v(i+1)}, by ring products and exact_divide."""
    out = {}
    for v, fv in row.items():
        vs = v.swap_positions(i)
        ai, bi = v(i), v(i + 1)
        fvs = row[vs]
        x = fvs * spec.one_plus_y_ratio(ai, bi) - fv.scale_ypoly(YP_ONE_PLUS_Y)
        if x.is_zero():
            out[v] = x
            continue
        x = x.shift(spec.tau_exp(ai))
        out[v] = exact_divide(x, spec.tau_diff(ai, bi))
    return out
