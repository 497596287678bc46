"""Independent routes that the tests pin production code against.

- `solve_unique_gauss_jordan` and `solve_unique_bareiss`, the oracles for
  the production solver `mcclass.interp.solve_unique_fractions`.  Both
  take dense integer rows and a right-hand side, and return the unique
  solution as Fractions or raise NoSolutionError / NonUniqueError, with
  the inconsistency check taking precedence.  The production solver
  takes sparse rows {column: int} and the width by keyword; the tests
  compare the two through adapters (`sparse` and `densified` in
  test_interp.py), so the oracles see dense rows.
- `ring_left_row_step`, the left Demazure-Lusztig step on the rows of a
  flag variety G/P written with ring products and exact division: the
  oracle of `mcclass.weightfn.left_row_step`, the step of
  `localization_table` for every composition.  `digit_sum` measures
  the digits of packed terms, which every digit bound must cover.
- `ring_descent_step` and `ring_demazure_step`, the right steps on
  full-flag rows written the same way.  `ring_descent_step` is the
  exchange formula, an independent form of the Demazure-Lusztig
  operator T_i = (1 + y*beta) pi_i - 1 that `mcclass.weightfn.descent_step`
  builds on the isobaric Demazure operator pi_i; `ring_demazure_step` is
  pi_i itself, the operator of `mcclass.weightfn.demazure_step`.  The
  tests cross-check the left-built full-flag rows against the exchange
  formula.
- `direct_table` and `modified_restriction_direct`, localization by
  direct symmetrization at each fixed point, the oracle of
  `mcclass.weightfn.localization_table` for every composition.
- `convex_feasible`, a phase-one simplex on a fraction-free integer
  tableau, and `lp_contains` and `lp_is_vertex` built on it: the oracles
  of `mcclass.newton.contains_point` and `is_vertex`, which answer from
  the cached H-representation of the polytope.
- `monomial_substitute_loop`, a monomial substitution that builds dense
  image vectors on every call and adds every exponent into every output
  slot: the oracle of `mcclass.ring.MonomialMap`, the compiled kernel
  behind `monomial_substitute`, `TorusSpecialization.specialize`,
  `OrbitProblem.restrict` and the limits.
- `hom_orbit_data(m, n)`, the rank stratification of Hom(C^m, C^n) as
  orbit data, and `solve_csm_with_quotients`, the CSM solve with a full
  quotient unknown for every monomial below codim(o) at every other
  orbit: the oracle of `mcclass.interp.solve_csm`, which sizes each
  quotient by the degree bound and drops it for a constant tangent class.
  Both it and `solve_fundamental_per_class`, the oracle of
  `mcclass.interp.solve_fundamental`, restrict every basis class to every
  orbit on its own and read the equations off the restricted classes
  monomial by monomial (`_system_from_identities`), where production
  restricts the basis's coefficient matrix in one pass per orbit.
- `oracle_basis`, the symmetric ansatz's basis with every class
  multiplied out by LaurentPoly products: the oracle of
  `mcclass.interp.SymmetricAnsatz.basis`, which builds the coefficient
  matrix on integer terms.  Both oracle solvers above use it.
- `giambelli_thom_porteous(m, n, k)`, the fundamental class of the
  closure of omega_k in Hom(C^m, C^n) as the k x k determinant
  det(c_{n-m+k+j-i}(B - A)): the oracle of both interpolation routes to
  it on the rank stratifications.
- `format_poly_factors` and `format_poly_ygrouped_lists`, renderings that
  build a factor list and join it for every (term, y-degree) pair, and
  group (monomial, coefficient) pairs by y-degree before rendering them:
  the oracles of `mcclass.ring.format_poly` and `format_poly_ygrouped`.
"""

import functools
import itertools
from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, Sequence

from mcclass.combi import Composition, IndexTuple, Permutation, enumerate_index_tuples
from mcclass.interp import (CsmSolution, NonUniqueError, NoSolutionError, SymmetricExpansion,
                            _monomials_up_to, solve_unique_fractions)
from mcclass.newton import LatticePolytope
from mcclass.ring import (YP_ONE_PLUS_Y, LaurentPoly, _monomial_str, exact_divide, yp_add,
                          yp_scale, yp_unpack)
from mcclass.weightfn import TorusSpecialization, c_mu_at, restriction_direct


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


def digit_sum(terms: Mapping) -> int:
    """The sum of the absolute values of all y-digits of packed terms."""
    return sum(abs(d) for v in terms.values() for d in yp_unpack(v))


def ring_left_row_step(row: Mapping[IndexTuple, LaurentPoly], i: int) -> dict:
    """f'(J) = ((1 + y*t_i/t_(i+1)) s(f(s_i J)) - (1 + y) f(J)) / (1 - t_i/t_(i+1))
    at every point J of a row on the standard torus, s exchanging t_i and
    t_(i+1), by ring products and exact_divide."""
    spec = TorusSpecialization.standard(next(iter(row)).mu.n)
    swap = {f"t{i}": f"t{i + 1}", f"t{i + 1}": f"t{i}"}
    out = {}
    for J, fJ in row.items():
        sJ = IndexTuple(J.mu, [[{i: i + 1, i + 1: i}.get(x, x) for x in b] for b in J.blocks])
        num = (row[sJ].rename_vars(swap) * spec.one_plus_y_ratio(i, i + 1)
               - fJ.scale_ypoly(YP_ONE_PLUS_Y))
        out[J] = num if num.is_zero() else exact_divide(num, spec.one_minus_ratio(i, i + 1))
    return out


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


def ring_demazure_step(row: Mapping[Permutation, LaurentPoly], i: int,
                       spec: TorusSpecialization) -> dict:
    """(f(v) - beta * f(v*s_i)) / (1 - beta), beta = tau_{v(i)}/tau_{v(i+1)},
    at every v, by ring products and exact_divide."""
    out = {}
    for v, fv in row.items():
        vs = v.swap_positions(i)
        ai, bi = v(i), v(i + 1)
        num = fv - row[vs] * spec.ratio(ai, bi)
        if num.is_zero():
            out[v] = num
            continue
        out[v] = exact_divide(num, spec.one_minus_ratio(ai, bi))
    return out


def modified_restriction_direct(I: IndexTuple, J: IndexTuple,
                                spec: TorusSpecialization | None = None) -> LaurentPoly:
    """Restriction of the modified weight function: divide by c_mu at J."""
    if spec is None:
        spec = TorusSpecialization.standard(I.mu.n)
    plain = restriction_direct(I, J, spec)
    if plain.is_zero():
        return plain
    return exact_divide(plain, c_mu_at(J, spec))


def direct_table(mu: Composition | Sequence[int], modified: bool = True,
                 spec: TorusSpecialization | None = None) -> dict:
    """Localization tables of every cell by direct symmetrization at
    every fixed point: {I: {J: f}}.

    Cached, so a table is built once per session; callers must not
    mutate it.
    """
    if not isinstance(mu, Composition):
        mu = Composition(mu)
    if spec is None:
        spec = TorusSpecialization.standard(mu.n)
    return _direct_table(mu, modified, spec)


@functools.cache
def _direct_table(mu: Composition, modified: bool, spec: TorusSpecialization) -> dict:
    restrict = modified_restriction_direct if modified else restriction_direct
    points = enumerate_index_tuples(mu)
    return {I: {J: restrict(I, J, spec) for J in points} for I in points}





def convex_feasible(gens: Sequence[Sequence[int]], x: Sequence[Fraction]) -> bool:
    """Phase one of the simplex method with Bland's rule, on a
    fraction-free integer tableau: x is a convex combination of gens
    exactly when the artificial variables can all be driven to zero.

    The coordinate rows are scaled once by the lcm of the denominators
    of x.  Each row is kept up to a positive factor: a pivot replaces a
    row by piv*row - f*pivot_row (piv > 0) and divides it by the gcd of
    its entries, so the signs, and with them every choice the rule
    makes, are those of the rational tableau of the scaled system.
    """
    m = len(x) + 1
    n = len(gens)
    if n == 0:
        return False

    scale = lcm(*(v.denominator for v in x))
    rows = []
    for i in range(m):
        if i < m - 1:
            row = [g[i] * scale for g in gens]
            rhs = int(x[i] * scale)
        else:
            row = [1] * n
            rhs = 1
        if rhs < 0:
            row = [-v for v in row]
            rhs = -rhs
        art = [0] * m
        art[i] = 1
        rows.append(row + art + [rhs])
    ncols = n + m
    basis = [n + i for i in range(m)]

    obj = [-sum(row[j] for row in rows) for j in range(n)] + [0] * m
    obj.append(-sum(row[ncols] for row in rows))

    while True:
        enter = next((j for j in range(ncols) if obj[j] < 0), -1)
        if enter < 0:
            break
        # ratio test rhs/a over a > 0, compared by cross-multiplying
        leave = -1
        for i, row in enumerate(rows):
            a = row[enter]
            if a > 0:
                if leave < 0:
                    leave = i
                    continue
                lhs = row[ncols] * rows[leave][enter]
                best = rows[leave][ncols] * a
                if lhs < best or (lhs == best and basis[i] < basis[leave]):
                    leave = i
        if leave < 0:
            # unbounded phase-one objective cannot happen; defensive
            return False
        pivot_row = rows[leave]
        piv = pivot_row[enter]
        for i, row in enumerate(rows):
            f = row[enter]
            if i != leave and f != 0:
                rows[i] = _eliminate(row, pivot_row, piv, f)
        obj = _eliminate(obj, pivot_row, piv, obj[enter])
        basis[leave] = enter

    return obj[ncols] == 0


def _eliminate(row: list, pivot_row: list, piv: int, f: int) -> list:
    """piv*row - f*pivot_row divided by the gcd of its entries."""
    out = [piv * a - f * b for a, b in zip(row, pivot_row)]
    g = gcd(*out)
    return out if g <= 1 else [v // g for v in out]


def lp_contains(P: LatticePolytope, x: Sequence) -> bool:
    """x in conv(P.points) by the simplex alone, for rational x."""
    return convex_feasible(P.points, tuple(Fraction(v) for v in x))


def lp_is_vertex(P: LatticePolytope, x: Sequence[int]) -> bool:
    """x is a generator outside the hull of the remaining generators."""
    x = tuple(x)
    rest = [p for p in P.points if p != x]
    return x in P.points and (not rest or not convex_feasible(rest, x))


def monomial_substitute_loop(p: LaurentPoly, images: Mapping,
                             out_vars: Sequence[str] | None = None) -> LaurentPoly:
    """Send each variable to a scalar monomial, images mapping a name to
    (scalar, {var: exponent}) and unmapped variables to themselves; the
    same ValueErrors as the production kernel, raised from the loop."""
    if out_vars is None:
        out_vars = p.vars
    out_vars = tuple(out_vars)
    index = {v: i for i, v in enumerate(out_vars)}
    nv = len(out_vars)

    scalars = []
    vectors = []
    for v in p.vars:
        if v in images:
            scalar, exps = images[v]
            if scalar == 0:
                raise ValueError(f"variable {v} mapped to zero scalar")
            vec = [0] * nv
            for name, e in exps.items():
                if name not in index:
                    raise ValueError(f"image variable {name} not in output variables")
                vec[index[name]] += e
        else:
            if v not in index:
                raise ValueError(f"unmapped variable {v} not in output variables")
            scalar = 1
            vec = [0] * nv
            vec[index[v]] = 1
        scalars.append(scalar)
        vectors.append(tuple(vec))

    out: dict = {}
    for e, c in p.terms.items():
        ne = [0] * nv
        num = 1
        for k, ek in enumerate(e):
            if ek == 0:
                continue
            vec = vectors[k]
            for i in range(nv):
                ne[i] += vec[i] * ek
            s = scalars[k]
            if s != 1:
                if ek > 0:
                    num *= s ** ek
                elif s == -1:
                    num *= (-1) ** (-ek)
                else:
                    raise ValueError(
                        f"negative power of scalar {s} is not an integer")
        key = tuple(ne)
        cc = yp_scale(c, num)
        prev = out.get(key)
        if prev is None:
            out[key] = cc
        else:
            s2 = yp_add(prev, cc)
            if s2:
                out[key] = s2
            else:
                del out[key]
    return LaurentPoly(out_vars, out)


def hom_orbit_data(m: int, n: int) -> dict:
    """The orbits of GL_m x GL_n on Hom(C^m, C^n), as orbit data for
    `OrbitProblem.from_json`.  omega_k (k = 0..m) is the set of maps with a
    k-dimensional kernel: rank r = m - k, codimension k(n - m + k).  At its
    point, phi sends a_i and b_i to t_i for i <= r; the Euler factors are
    the weights b_j - a_i with i, j > r; the tangent factors are 1 + w for
    the other weights w = phi(b_j) - phi(a_i) that are nonzero."""
    a = [f"a{i}" for i in range(1, m + 1)]
    b = [f"b{j}" for j in range(1, n + 1)]
    orbits = []
    for k in range(m + 1):
        r = m - k
        phi = {}
        for i in range(1, r + 1):
            phi[f"a{i}"] = phi[f"b{i}"] = f"t{i}"
        euler, tangent = [], []
        for i in range(1, m + 1):
            for j in range(1, n + 1):
                if i > r and j > r:
                    euler.append({"const": 0, "coeffs": {f"b{j}": 1, f"a{i}": -1}})
                elif i != j:
                    weight = {phi.get(f"b{j}", f"b{j}"): 1, phi.get(f"a{i}", f"a{i}"): -1}
                    tangent.append({"const": 1, "coeffs": weight})
        orbits.append({"name": f"omega{k}", "codim": k * (n - m + k), "phi": phi,
                       "euler": euler, "tangent_c": tangent})
    return {"vars": a + b, "symmetry": [a, b], "orbits": orbits}


def oracle_basis(ansatz, degree: int, homogeneous: bool = False) -> list:
    """The basis of `SymmetricAnsatz.basis` as (name, weighted degree,
    class) triples in the same order, every elementary symmetric
    generator summed and every class multiplied out by LaurentPoly
    products over the ansatz's variables."""
    vars = ansatz.vars
    gens = []
    for label, vs in ansatz.groups:
        for k in range(1, len(vs) + 1):
            e_k = LaurentPoly.zero(vars)
            for comb in itertools.combinations(vs, k):
                term = LaurentPoly.one(vars)
                for v in comb:
                    term = term * LaurentPoly.variable(vars, v)
                e_k = e_k + term
            gens.append((f"{label}{k}", k, e_k))
    out = []

    def rec(idx, deg_left, name_parts, poly):
        if idx == len(gens):
            if not homogeneous or deg_left == 0:
                out.append(("*".join(name_parts) or "1", degree - deg_left, poly))
            return
        gname, gdeg, gpoly = gens[idx]
        power, acc = 0, poly
        while power * gdeg <= deg_left:
            part = [f"{gname}^{power}" if power > 1 else gname] if power else []
            rec(idx + 1, deg_left - power * gdeg, name_parts + part, acc)
            power += 1
            if power * gdeg <= deg_left:
                acc = acc * gpoly

    rec(0, degree, [], LaurentPoly.one(vars))
    return out


def _degree(p: LaurentPoly) -> int:
    return max((sum(e) for e in p.terms), default=-1)


def _system_from_identities(identities):
    """Sparse rows of the linear system: one equation per monomial of
    every polynomial identity sum_j x_j * P_j == target.

    identities holds (columns, target) pairs, columns being (j, P_j)
    pairs in ascending j.  Each row is a dict {j: coefficient of the
    monomial in P_j} over the P_j that have the monomial, so its
    columns come in ascending order; the rows of one identity come in
    sorted monomial order.  Coefficients are read at y^0: every class
    here has a trivial parameter slot.
    """
    rows = []
    rhs = []
    for columns, target in identities:
        by_mono = {}
        for j, p in columns:
            for mono, c in p.terms.items():
                row = by_mono.get(mono)
                if row is None:
                    by_mono[mono] = {j: c[0]}
                else:
                    row[j] = c[0]
        for mono in target.terms:
            by_mono.setdefault(mono, {})
        for mono in sorted(by_mono):
            rows.append(by_mono[mono])
            c = target.terms.get(mono)
            rhs.append(c[0] if c else 0)
    return rows, rhs


def _as_expansion(names, polys, values, vars) -> SymmetricExpansion:
    """The class sum_j values[j] * polys[j], written over vars, with its
    nonzero coefficients; raise NoSolutionError on a non-integral one."""
    coeffs = []
    total = None
    for name, poly, v in zip(names, polys, values):
        if v == 0:
            continue
        if v.denominator != 1:
            raise NoSolutionError(f"non-integral coefficient {v} on {name}")
        c = int(v)
        coeffs.append((name, c))
        contrib = poly.scale_ypoly((c,))
        total = contrib if total is None else total + contrib
    if total is None:
        return SymmetricExpansion((), LaurentPoly.zero(vars))
    return SymmetricExpansion(tuple(coeffs), total)


def solve_fundamental_per_class(problem, target: str, solver=solve_unique_fractions):
    """The fundamental class of target with every basis class of degree
    codim(target) restricted on its own to the target and to every orbit
    of codimension <= codim(target), and the equations read off those
    restricted classes monomial by monomial."""
    t = problem.orbit(target)
    basis = oracle_basis(problem.ansatz, t.codim, homogeneous=True)
    names = [name for name, _, _ in basis]
    polys = [p for _, _, p in basis]
    zero = LaurentPoly.zero(problem.all_vars)
    identities = []
    for o in problem.orbits:
        columns = [(j, problem.restrict(p, o)) for j, p in enumerate(polys)]
        if o.name == t.name:
            identities.append((columns, o.euler))
        elif o.codim <= t.codim:
            identities.append((columns, zero))
    rows, rhs = _system_from_identities(identities)
    values = solver(rows, rhs, width=len(polys))
    return _as_expansion(names, polys, values, problem.ansatz.vars)


def giambelli_thom_porteous(m: int, n: int, k: int) -> LaurentPoly:
    """The fundamental class of the closure of omega_k in Hom(C^m, C^n)
    (the maps with a k-dimensional kernel), over the variables a1..am,
    b1..bn of `hom_orbit_data`: the k x k determinant
    det(c_{n-m+k+j-i}(B - A)), with c(B - A) = prod(1 + b_j) / prod(1 + a_i),
    so that c_d(B - A) = sum_q (-1)^q e_{d-q}(b) h_q(a)."""
    a = [f"a{i}" for i in range(1, m + 1)]
    b = [f"b{j}" for j in range(1, n + 1)]
    vars = tuple(a + b)
    zero = LaurentPoly.zero(vars)

    def monomial_sum(choices):
        out = zero
        for chosen in choices:
            term = LaurentPoly.one(vars)
            for v in chosen:
                term = term * LaurentPoly.variable(vars, v)
            out = out + term
        return out

    def c(d):
        out = zero
        for q in range(d + 1):
            term = (monomial_sum(itertools.combinations(b, d - q))
                    * monomial_sum(itertools.combinations_with_replacement(a, q)))
            out = out - term if q % 2 else out + term
        return out

    entries = [[c(n - m + k + j - i) for j in range(k)] for i in range(k)]
    det = zero
    for perm in itertools.permutations(range(k)):
        term = LaurentPoly.one(vars)
        for i, j in enumerate(perm):
            term = term * entries[i][j]
        inversions = sum(1 for x, y in itertools.combinations(perm, 2) if x > y)
        det = det - term if inversions % 2 else det + term
    return det


def solve_csm_with_quotients(problem, target: str, solver=solve_unique_fractions):
    """The CSM class of target with a full quotient at every other orbit:
    phi_o(P) - tangent_c * Q == 0 with one unknown for every monomial of Q
    in o's image variables up to degree codim(o) - 1, whatever the degree
    bound and the tangent class, every basis class restricted to every
    orbit, and the fundamental class solved on its own basis by
    `solve_fundamental_per_class`."""
    t = problem.orbit(target)
    target_value = t.euler * t.tangent_c
    bound = _degree(target_value)
    for o in problem.orbits:
        if o.name != target:
            bound = max(bound, o.codim + _degree(o.tangent_c) - 1)
    basis = oracle_basis(problem.ansatz, bound)
    names = [name for name, _, _ in basis]
    polys = [p for _, _, p in basis]
    zero = LaurentPoly.zero(problem.all_vars)
    width = len(polys)
    identities = []
    for o in problem.orbits:
        columns = [(j, problem.restrict(p, o)) for j, p in enumerate(polys)]
        if o.name == target:
            identities.append((columns, target_value))
            continue
        image_vars = sorted({o.phi.get(v, v) for v in problem.ansatz.vars})
        for mono in _monomials_up_to(problem.all_vars, image_vars, o.codim - 1):
            columns.append((width, (-o.tangent_c).shift(mono)))
            width += 1
        identities.append((columns, zero))
    rows, rhs = _system_from_identities(identities)
    values = solver(rows, rhs, width=width)[:len(polys)]
    expansion = _as_expansion(names, polys, values, problem.ansatz.vars)
    fundamental = solve_fundamental_per_class(problem, target, solver)
    low = max(_degree(fundamental.poly), 0)
    low_cols = [j for j, v in enumerate(values) if v != 0 and _degree(polys[j]) == low]
    lowest = _as_expansion([names[j] for j in low_cols], [polys[j] for j in low_cols],
                           [values[j] for j in low_cols], problem.ansatz.vars)
    restrictions = {o.name: problem.restrict(expansion.poly, o) for o in problem.orbits}
    return CsmSolution(expansion, restrictions, lowest, fundamental)


def format_poly_factors(p: LaurentPoly) -> str:
    """Flat rendering of p: terms in exponent order, y ascending, each
    body a joined factor list."""
    if p.is_zero():
        return "0"
    parts = []
    for e, c in p.sorted_terms():
        mono = _monomial_str(p.vars, e)
        for k, ck in enumerate(c):
            if ck == 0:
                continue
            factors = []
            if abs(ck) != 1 or (mono == "1" and k == 0):
                factors.append(str(abs(ck)))
            if mono != "1":
                factors.append(mono)
            if k == 1:
                factors.append("y")
            elif k > 1:
                factors.append(f"y^{k}")
            body = "*".join(factors) if factors else "1"
            if not parts:
                parts.append(body if ck > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if ck > 0 else f"- {body}")
    return " ".join(parts)


def format_poly_ygrouped_lists(p: LaurentPoly, negate: bool = False) -> str:
    """Rendering of p (of -p when negate is set) grouped by descending
    powers of y, from (monomial, coefficient) lists per y-degree."""
    if p.is_zero():
        return "0"
    sign = -1 if negate else 1
    by_deg: dict = {}
    for e, c in p.sorted_terms():
        mono = _monomial_str(p.vars, e)
        for k, ck in enumerate(c):
            if ck:
                by_deg.setdefault(k, []).append((mono, sign * ck))
    parts = []
    for k in sorted(by_deg, reverse=True):
        monos = by_deg[k]
        body_parts = []
        for mono, ck in monos:
            if mono == "1":
                body = str(abs(ck))
            elif abs(ck) == 1:
                body = mono
            else:
                body = f"{abs(ck)}*{mono}"
            if not body_parts:
                body_parts.append(body if ck > 0 else f"-{body}")
            else:
                body_parts.append(f"+ {body}" if ck > 0 else f"- {body}")
        body = " ".join(body_parts)
        if k == 0:
            piece = body
            plain = len(monos) == 1
        else:
            ystr = "y" if k == 1 else f"y^{k}"
            if len(monos) == 1 and monos[0][1] in (1, -1) and not body.startswith("-"):
                piece = f"{body}*{ystr}" if body != "1" else ystr
            else:
                piece = f"({body})*{ystr}"
            plain = True
        if not parts:
            parts.append(piece)
        elif piece.startswith("-") and plain:
            parts.append(f"- {piece[1:]}")
        else:
            parts.append(f"+ {piece}")
    return " ".join(parts)
