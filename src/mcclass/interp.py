"""Interpolation solvers for cohomological classes of orbits.

Given per-orbit restriction maps, Euler classes of normal spaces and
total Chern classes of tangent spaces, the fundamental class of an
orbit closure is the unique homogeneous solution of the vanishing and
normalization constraints, and the CSM class is the unique
inhomogeneous solution of the divisibility, normalization and degree
constraints.  Both are found as exact rational linear systems over a
symmetric-polynomial ansatz; answers are verified to be integral.

A system is held sparse: one row per monomial of each polynomial
identity, a dict {column: int} of its nonzero coefficients, with a
separate right-hand side and the column count passed as `width`.  Each
orbit's restriction is compiled once, when the problem is built, into a
monomial map of the ring kernel.

The basis is built once, directly as its coefficient matrix
{monomial: {column: coefficient}}, and each orbit restricts the whole
basis in one pass of its monomial map: the row of an image monomial is
the sum of the rows of the monomials mapped to it, so every distinct
basis monomial is scattered once per orbit, however many basis classes
share it.  The rows of an identity are then read off the restricted
matrix in sorted monomial order.  After the solve, the class, its
lowest-degree part and the fundamental class are read off the same
matrix as integer terms.

The CSM system has the basis classes up to the degree bound B of the
constraints as unknowns, plus, at each non-target orbit o whose
tangent class c has degree d > 0, one unknown per monomial of the
quotient Q in phi_o(P) = c * Q up to degree min(codim(o) - 1, B - d)
(the quotient window: a solution has deg Q <= B - d).  When c is a
constant, P/c is always a polynomial, so o adds no quotient unknown,
only the rows saying that phi_o(P) has no monomial of degree >=
codim(o), and nothing when B < codim(o).  The fundamental class's rows
are the degree-codim(target) rows of the same restricted matrices.

All cohomology classes here are ordinary integer polynomials
(Chern-root degree one per variable, no parameter y), so every
polynomial computation runs on integer terms {exponent: int}: the
generators, the basis classes (multiplied out once, into the
coefficient matrix), the orbit classes read from JSON, the target
value and the restrictions of the solution.  LaurentPoly appears only
at the API boundary: OrbitSpec.euler and tangent_c,
SymmetricExpansion.poly and CsmSolution.restrictions, each wrapped once
from integer terms.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping, Sequence
from fractions import Fraction
from math import gcd
from operator import add, mul

from .record import record
from .ring import LaurentPoly, MonomialMap, format_poly, json_integer


class NoSolutionError(ValueError):
    """The interpolation constraints are inconsistent."""


class NonUniqueError(ValueError):
    """The interpolation constraints do not pin a unique class."""


# ---------------------------------------------------------------------------
# Orbit data
# ---------------------------------------------------------------------------


@record
class OrbitSpec:
    """One orbit: restriction map, Euler class and tangent Chern class
    (both already written in the image variables of the restriction).
    The Euler class must be nonzero and homogeneous of degree codim,
    and the tangent Chern class nonzero; otherwise the classes are not
    defined by the constraints, and ValueError is raised."""

    name: str
    codim: int
    phi: dict          # variable -> image variable (unmapped: identity)
    euler: LaurentPoly
    tangent_c: LaurentPoly

    def __post_init__(self):
        if self.euler.is_zero():
            raise ValueError(f"orbit {self.name}: Euler class must be nonzero")
        if any(sum(e) != self.codim for e in self.euler.terms):
            raise ValueError(f"orbit {self.name}: Euler class must be homogeneous "
                             f"of degree codim = {self.codim}")
        if self.tangent_c.is_zero():
            raise ValueError(f"orbit {self.name}: tangent Chern class must be nonzero")


@record
class SymmetricAnsatz:
    """Monomials in elementary symmetric generators up to a degree bound.

    groups is a list of (label, variables); the generators of a group
    are its elementary symmetric polynomials E_label_k of degree k.
    """

    groups: tuple
    vars: tuple

    @classmethod
    def from_groups(cls, groups: Sequence) -> "SymmetricAnsatz":
        groups = tuple((label, tuple(vs)) for label, vs in groups)
        vars = tuple(v for _, vs in groups for v in vs)
        return cls(groups, vars)

    def generators(self):
        """(name, degree, terms) for every elementary symmetric generator,
        in group order then degree order; terms is the generator's
        {exponent: 1} over vars."""
        index = {v: i for i, v in enumerate(self.vars)}
        out = []
        for label, vs in self.groups:
            for k in range(1, len(vs) + 1):
                terms = {}
                for comb in itertools.combinations(vs, k):
                    e = [0] * len(self.vars)
                    for v in comb:
                        e[index[v]] = 1
                    terms[tuple(e)] = 1
                out.append((f"{label}{k}", k, terms))
        return out

    def basis(self, degree: int, homogeneous: bool = False):
        """The monomials in the generators with weighted degree <= degree
        (== degree when homogeneous), in an order that does not depend on
        degree, as (names, degrees, matrix): their names, their weighted
        degrees, and the coefficient matrix {monomial: {column:
        coefficient}} of the classes they multiply out to, each row's
        columns in ascending order.  Each class is one integer product of
        its prefix's class (shared along the enumeration) with a
        generator."""
        gens = self.generators()
        names, degrees, matrix = [], [], {}

        def rec(idx: int, deg_left: int, name_parts, terms: dict):
            if idx == len(gens):
                deg = degree - deg_left
                if homogeneous and deg != degree:
                    return
                j = len(names)
                names.append("*".join(name_parts) if name_parts else "1")
                degrees.append(deg)
                for e, c in terms.items():
                    row = matrix.get(e)
                    if row is None:
                        matrix[e] = {j: c}
                    else:
                        row[j] = c
                return
            gname, gdeg, gterms = gens[idx]
            power = 0
            acc = terms
            while power * gdeg <= deg_left:
                parts = name_parts + ([f"{gname}^{power}" if power > 1 else gname]
                                      if power else [])
                rec(idx + 1, deg_left - power * gdeg, parts, acc)
                power += 1
                if power * gdeg <= deg_left:
                    acc = _mul(acc, gterms)

        rec(0, degree, [], {(0,) * len(self.vars): 1})
        return names, degrees, matrix


def _mul(p: dict, q: dict) -> dict:
    """The product of the integer polynomials p and q, {exponent: int}
    without zero values."""
    out: dict = {}
    for e, c in p.items():
        for f, d in q.items():
            k = tuple(map(add, e, f))
            v = out.get(k, 0) + c * d
            if v:
                out[k] = v
            else:
                del out[k]
    return out


def _poly(vars: tuple, terms: dict) -> LaurentPoly:
    """The integer polynomial terms as a LaurentPoly over vars, with a
    trivial y-slot."""
    return LaurentPoly._from_trimmed(vars, {e: (c,) for e, c in terms.items()})


def _int_terms(p: LaurentPoly) -> dict:
    """The terms of p, a class with a trivial y-slot, as {exponent: int}."""
    return {e: c[0] for e, c in p.terms.items()}


# ---------------------------------------------------------------------------
# JSON ingestion
# ---------------------------------------------------------------------------


def _poly_from_factors(factors, vars, where: str) -> LaurentPoly:
    """Product of affine-linear factors {const, coeffs: {var: c}} over
    vars, each factor and its coeffs a JSON object with integer const and
    c, multiplied out on integer terms and wrapped once; where names the
    orbit and the key in an error."""
    _json_list(factors, where)
    index = {v: i for i, v in enumerate(vars)}
    one = (0,) * len(vars)
    out = {one: 1}
    for f in factors:
        _json_object(f, f"{where} factor")
        const = json_integer(f.get("const", 0), f"{where} const")
        term = {one: const} if const else {}
        for v, c in _json_object(f.get("coeffs", {}), f"{where} coeffs").items():
            if v not in index:
                raise ValueError(f"{where} names {v!r}, which is neither an ansatz "
                                 "variable nor a phi image")
            c = json_integer(c, f"{where} coefficient of {v}")
            if c:
                e = [0] * len(vars)
                e[index[v]] = 1
                term[tuple(e)] = c
        out = _mul(out, term)
    return _poly(vars, out)


def _json_list(value, what: str) -> list:
    """value, if it is a JSON list; otherwise ValueError naming what it is."""
    if type(value) is not list:
        raise ValueError(f"{what} {value!r} is not a list")
    return value


def _json_object(value, what: str) -> dict:
    """value, if it is a JSON object; otherwise ValueError naming what it is."""
    if type(value) is not dict:
        raise ValueError(f"{what} {value!r} is not an object")
    return value


def _json_names(value, what: str) -> list:
    """value, if it is a JSON list of strings; otherwise ValueError naming
    what it is."""
    if type(value) is not list or not all(type(v) is str for v in value):
        raise ValueError(f"{what} {value!r} is not a list of names")
    return value


def _auto_label(vars: Sequence[str], taken: set) -> str:
    """A label not in taken, which it joins: the letters of the first
    variable upper-cased, or, when that is taken, the whole first
    variable upper-cased, then with _2, _3, ... appended."""
    head = vars[0]
    label = ("".join(ch for ch in head if ch.isalpha()) or head).upper()
    if label in taken:
        label = head.upper()
    unique, k = label, 2
    while unique in taken:
        unique, k = f"{label}_{k}", k + 1
    taken.add(unique)
    return unique


def _groups_from_json(obj: Mapping):
    """Accept either explicit labelled groups or a flat variable list
    with symmetry blocks; leftovers of vars become singleton groups.
    Lists of names must be JSON lists of strings, and each group a JSON
    object.  An empty symmetry block, a block variable that is not in
    vars (when vars is given), one that lies in two blocks, and a label
    given to two groups are rejected; generated labels avoid every label
    before them."""
    taken: set = set()
    if "groups" in obj:
        blocks = []
        for g in _json_list(obj["groups"], "groups"):
            label = _json_object(g, "group")["label"]
            if type(label) is not str:
                raise ValueError(f"group label {label!r} is not a string")
            if label in taken:
                raise ValueError(f"group label {label!r} is given twice")
            taken.add(label)
            blocks.append((label, tuple(_json_names(g["vars"], f"group {label}: vars"))))
        vars = (_json_names(obj["vars"], "vars") if "vars" in obj
                else list(dict.fromkeys(v for _, b in blocks for v in b)))
    else:
        blocks = []
        for b in _json_list(obj.get("symmetry", []), "symmetry"):
            if not _json_names(b, "symmetry block"):
                raise ValueError("symmetry block [] is empty")
            blocks.append((_auto_label(b, taken), tuple(b)))
        vars = _json_names(obj["vars"], "vars")
    for v in vars:
        if vars.count(v) > 1:
            raise ValueError(f"vars lists {v!r} twice")
    covered = set()
    for _, block in blocks:
        for v in block:
            if v in covered:
                raise ValueError(f"variable {v!r} lies in two symmetry blocks")
            if v not in vars:
                raise ValueError(f"symmetry variable {v!r} is not in vars")
            covered.add(v)
    return blocks + [(_auto_label((v,), taken), (v,)) for v in vars if v not in covered]


def _orbits_from_json(obj: Mapping, ansatz_vars: tuple) -> list:
    """The orbit entries, after rejecting orbits that are not a list, an
    entry or a phi that is not an object, a name that is not a string, a
    repeated orbit name, a phi key that is not an ansatz variable and a
    phi image that is not a variable name."""
    orbits = _json_list(obj["orbits"], "orbits")
    names = set()
    for o in orbits:
        name = _json_object(o, "orbit")["name"]
        if type(name) is not str:
            raise ValueError(f"orbit name {name!r} is not a string")
        if name in names:
            raise ValueError(f"duplicate orbit name {name!r}")
        names.add(name)
        for v, img in _json_object(o.get("phi", {}), f"orbit {name}: phi").items():
            if v not in ansatz_vars:
                raise ValueError(f"orbit {name}: phi key {v!r} is not an ansatz variable")
            if not isinstance(img, str):
                raise ValueError(f"orbit {name}: phi image {img!r} of {v} is not a variable name")
    return orbits


@record
class OrbitProblem:
    """Orbit data over a symmetric ansatz.  Each orbit's restriction map,
    from the ansatz variables to all_vars, is compiled once here into
    restriction_maps (orbit name -> MonomialMap), which is not a field:
    it takes no part in equality, hashing or the repr."""

    ansatz: SymmetricAnsatz
    orbits: tuple
    all_vars: tuple  # base variables plus every restriction image variable

    def __post_init__(self):
        object.__setattr__(self, "restriction_maps", {
            o.name: MonomialMap(self.ansatz.vars, {v: (1, {img: 1}) for v, img in o.phi.items()},
                                self.all_vars)
            for o in self.orbits})

    @classmethod
    def from_json(cls, obj: Mapping) -> "OrbitProblem":
        ansatz = SymmetricAnsatz.from_groups(_groups_from_json(_json_object(obj, "orbit data")))
        entries = _orbits_from_json(obj, ansatz.vars)
        base = list(ansatz.vars)
        extra = []
        for o in entries:
            for img in o.get("phi", {}).values():
                if img not in base and img not in extra:
                    extra.append(img)
        all_vars = tuple(base + sorted(extra))
        orbits = []
        for o in entries:
            name = o["name"]
            euler = _poly_from_factors(o.get("euler", []), all_vars, f"orbit {name}: euler")
            tangent = _poly_from_factors(o.get("tangent_c", []), all_vars,
                                         f"orbit {name}: tangent_c")
            codim = json_integer(o["codim"], f"orbit {name}: codim")
            orbits.append(OrbitSpec(name, codim, dict(o.get("phi", {})), euler, tangent))
        return cls(ansatz, tuple(orbits), all_vars)

    def orbit(self, name: str) -> OrbitSpec:
        for o in self.orbits:
            if o.name == name:
                return o
        raise KeyError(f"unknown orbit {name!r}")


# ---------------------------------------------------------------------------
# Exact linear algebra
# ---------------------------------------------------------------------------


def solve_unique_fractions(rows, rhs, *, width):
    """The unique solution of rows * x == rhs in `width` unknowns, as
    Fractions, or raise NoSolutionError (inconsistent) before
    NonUniqueError (rank < width).

    Each row is a sparse dict {column: int} with columns in
    0..width-1; absent columns are zero, and listing a row's columns
    in ascending order lets equal rows be found as duplicates and
    reduced once.  Fraction-free elimination over the integers: each
    distinct row, with its right-hand side under key width, is reduced
    against the pivot rows kept so far, lowest column first, by the
    cross-multiplication b/g * row - a/g * pivot (g = gcd(a, b)), and
    divided by its content; what is left becomes the pivot of its
    lowest column.  Back-substitution keeps each value as a reduced
    integer pair (numerator, positive denominator), over the common
    denominator of the values it reads, and builds a Fraction only for
    each value returned.
    """
    if not rows:
        raise NonUniqueError("no equations")
    n = width
    pivots = {}
    for items, b in dict.fromkeys((tuple(row.items()), b) for row, b in zip(rows, rhs)):
        row = {c: v for c, v in items if v}
        if b:
            row[n] = b
        while row:
            c = min(row)
            if c == n:
                raise NoSolutionError("inconsistent linear system")
            pivot = pivots.get(c)
            if pivot is None:
                pivots[c] = row
                break
            g = gcd(row[c], pivot[c])
            a, b = row[c] // g, pivot[c] // g
            # row is this loop's own dict, so b == 1 may reduce it in place
            reduced = row if b == 1 else {k: b * v for k, v in row.items()}
            for k, v in pivot.items():
                w = reduced.get(k, 0) - a * v
                if w:
                    reduced[k] = w
                else:
                    del reduced[k]
            g = gcd(*reduced.values())
            row = {k: v // g for k, v in reduced.items()} if g > 1 else reduced
    if len(pivots) < n:
        raise NonUniqueError(f"solution space has dimension {n - len(pivots)}")
    nums, dens = [0] * n, [1] * n
    for c in range(n - 1, -1, -1):
        pivot = pivots[c]
        num, den = pivot.get(n, 0), 1
        for k, v in pivot.items():
            if c < k < n and nums[k]:
                dk = dens[k]
                if dk == den:
                    num -= v * nums[k]
                else:
                    g = gcd(den, dk)
                    num = num * (dk // g) - v * nums[k] * (den // g)
                    den = den // g * dk
        den *= pivot[c]
        g = gcd(num, den)
        if den < 0:
            g = -g
        nums[c], dens[c] = num // g, den // g
    return [Fraction(a, b) for a, b in zip(nums, dens)]


# ---------------------------------------------------------------------------
# Solvers
# ---------------------------------------------------------------------------


@record
class SymmetricExpansion:
    """A class written in the symmetric-generator monomial basis."""

    coeffs: tuple  # ((name, coefficient), ...) nonzero, deterministic order
    poly: LaurentPoly  # the class in the ansatz variables

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for name, c in self.coeffs:
            body = name if abs(c) == 1 and name != "1" else (
                str(abs(c)) if name == "1" else f"{abs(c)}*{name}")
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def to_json(self) -> dict:
        return {"coefficients": [{"monomial": n, "coeff": c} for n, c in self.coeffs]}


def _add_rows(r: dict, s: dict) -> dict:
    """The sparse row r + s, without its zero entries."""
    out = r.copy()
    for j, c in s.items():
        c += out.get(j, 0)
        if c:
            out[j] = c
        else:
            del out[j]
    return out


def _scale_row(r: dict, k: int) -> dict:
    return {j: k * c for j, c in r.items()}


def _restrict_matrix(problem: OrbitProblem, o: OrbitSpec, matrix: dict) -> dict:
    """The basis restricted to o, as its coefficient matrix over
    all_vars: each image monomial's row is the sum of the rows of the
    monomials mapped to it (its fiber), with zero entries and rows
    dropped and columns in ascending order, so that it lists exactly the
    classes whose restriction has the monomial."""
    out = problem.restriction_maps[o.name].map_terms(matrix, _add_rows, _scale_row)
    for e, row in out.items():
        cols = sorted(row)
        if cols != list(row):
            out[e] = {j: row[j] for j in cols}
    return out


def _add_identity(rows: list, rhs: list, restricted: dict, target: dict | None = None) -> None:
    """Append the equations of sum_j x_j * P_j == target at one orbit,
    restricted being the matrix of the P_j there and target a
    {monomial: int}: one row per monomial of either, in sorted monomial
    order."""
    if target:
        keys = restricted.keys() | target.keys()
        for e in sorted(keys):
            rows.append(restricted.get(e, {}))
            rhs.append(target.get(e, 0))
    else:
        for e in sorted(restricted):
            rows.append(restricted[e])
            rhs.append(0)


def _integral(names, values) -> list:
    """values as ints; raise NoSolutionError at the first non-integral
    one, in column order."""
    out = []
    for name, v in zip(names, values):
        if v.denominator != 1:
            raise NoSolutionError(f"non-integral coefficient {v} on {name}")
        out.append(v.numerator)
    return out


def _fundamental_values(problem: OrbitProblem, t: OrbitSpec, names, restricted,
                        solver) -> list:
    """The integral coefficients of the fundamental class of t over the
    homogeneous basis classes of degree codim(t) named by names;
    restricted maps the name of t and of every orbit of codimension <=
    codim(t) to the coefficient matrix of those classes there."""
    rows, rhs = [], []
    for o in problem.orbits:
        if o.name == t.name:
            _add_identity(rows, rhs, restricted[o.name], _int_terms(o.euler))
        elif o.codim <= t.codim:
            _add_identity(rows, rhs, restricted[o.name])
    return _integral(names, solver(rows, rhs, width=len(names)))


def _expansion(names, values, cols, terms: dict, vars) -> SymmetricExpansion:
    return SymmetricExpansion(tuple((names[j], values[j]) for j in cols if values[j]),
                              _poly(vars, terms))


def _combine(matrix: dict, values) -> dict:
    """The integer terms of sum_j values[j] * (class j), the classes
    given by their coefficient matrix."""
    out = {}
    for e, row in matrix.items():
        c = sum(values[j] * v for j, v in row.items())
        if c:
            out[e] = c
    return out


def solve_fundamental(problem: OrbitProblem, target: str,
                      solver=solve_unique_fractions) -> SymmetricExpansion:
    """The unique homogeneous class of degree codim(target) vanishing on
    every orbit of codimension <= codim(target) and restricting to the
    Euler class at the target."""
    t = problem.orbit(target)
    names, _, matrix = problem.ansatz.basis(t.codim, homogeneous=True)
    restricted = {o.name: _restrict_matrix(problem, o, matrix) for o in problem.orbits
                  if o.name == target or o.codim <= t.codim}
    values = _fundamental_values(problem, t, names, restricted, solver)
    return _expansion(names, values, range(len(names)), _combine(matrix, values),
                      problem.ansatz.vars)


@record
class CsmSolution:
    expansion: SymmetricExpansion
    restrictions: dict          # orbit name -> LaurentPoly
    lowest_degree: SymmetricExpansion
    fundamental: SymmetricExpansion

    @property
    def lowest_matches_fundamental(self) -> bool:
        return self.lowest_degree.coeffs == self.fundamental.coeffs

    def to_json(self) -> dict:
        return {
            "csm": self.expansion.to_json(),
            "restrictions": {k: format_poly(v) for k, v in self.restrictions.items()},
            "lowest_degree_component": self.lowest_degree.to_json(),
            "fundamental_class": self.fundamental.to_json(),
            "lowest_degree_matches_fundamental": self.lowest_matches_fundamental,
        }


def solve_csm(problem: OrbitProblem, target: str,
              solver=solve_unique_fractions) -> CsmSolution:
    """The unique inhomogeneous class restricting to euler*tangent_c at
    the target and, at every other orbit o, divisible by tangent_c with
    a quotient of degree below codim(o): phi_o(P) = tangent_c * Q.

    The basis runs up to the degree bound B of the constraints.  Q is
    fixed by P, since tangent_c != 0, so each orbit gets only the
    unknowns a solution can use:
    - quotient window: with d = deg(tangent_c), any solution has
      deg Q = deg phi_o(P) - d <= B - d, so Q's monomials run up to
      min(codim(o) - 1, B - d); below 0 the identity is phi_o(P) == 0;
    - constant tangent class (d == 0): phi_o(P) / tangent_c is always a
      polynomial, so there is no quotient unknown, and the only rows
      say that the monomials of phi_o(P) of degree >= codim(o) vanish.
      As the basis classes are homogeneous, these rows are those of the
      basis's monomials of degree >= codim(o), and there are none when
      B < codim(o).
    Dropping unknowns that are forced to zero or fixed by P leaves the
    solution, the dimension of a solution space and an inconsistency as
    they were.

    The basis is held once, as its coefficient matrix, and each orbit
    restricts it in one pass (see _restrict_matrix).  The fundamental
    class's rows are the degree-codim(target) rows of the same restricted
    matrices, at the target and at every orbit of codimension <=
    codim(target): those rows hold exactly the basis classes of degree
    codim(target), which are basis(codim, homogeneous=True) in its order,
    since the basis enumerates its monomials in an order that does not
    depend on the degree bound, and the bound is at least codim since
    tangent_c != 0.  The expansion, its lowest-degree part and the
    fundamental class are then read off the matrix on integer terms; the
    fundamental class is nonzero and homogeneous of degree codim(target),
    so the lowest-degree part compared with it is the part of that
    degree.  The returned restrictions are those of the solution, at
    every orbit, mapped on its integer terms.
    """
    t = problem.orbit(target)
    target_value = _mul(_int_terms(t.euler), _int_terms(t.tangent_c))
    # tangent_c != 0 (OrbitSpec), so d below is its top degree
    tangent_degree = {o.name: max(map(sum, o.tangent_c.terms)) for o in problem.orbits}
    # euler is homogeneous of degree codim (OrbitSpec), so
    # deg(euler * tangent_c) = codim + deg(tangent_c)
    bound = t.codim + tangent_degree[target]
    for o in problem.orbits:
        if o.name != target:
            bound = max(bound, o.codim + tangent_degree[o.name] - 1)

    names, degrees, matrix = problem.ansatz.basis(bound)
    fund = [j for j, deg in enumerate(degrees) if deg == t.codim]
    index = {j: i for i, j in enumerate(fund)}
    width = len(names)
    rows, rhs = [], []
    fund_restricted = {}
    for o in problem.orbits:
        d = tangent_degree[o.name]
        if o.name != target and d == 0:
            restricted = _restrict_matrix(problem, o, {e: row for e, row in matrix.items()
                                                       if sum(e) >= o.codim})
        else:
            restricted = _restrict_matrix(problem, o, matrix)
        if o.name == target or o.codim <= t.codim:
            fund_restricted[o.name] = {e: {index[j]: c for j, c in row.items()}
                                       for e, row in restricted.items()
                                       if sum(e) == t.codim}
        if o.name == target:
            _add_identity(rows, rhs, restricted, target_value)
            continue
        if d > 0:
            # phi(P) - tangent_c * Q == 0 with Q an unknown quotient in
            # the image variables, in the window above
            quotient: dict = {}
            neg_tangent = [(e, -c[0]) for e, c in o.tangent_c.terms.items()]
            image_vars = sorted({o.phi.get(v, v) for v in problem.ansatz.vars})
            for mono in _monomials_up_to(problem.all_vars, image_vars,
                                         min(o.codim - 1, bound - d)):
                for e, c in neg_tangent:
                    key = tuple(a + b for a, b in zip(e, mono))
                    row = quotient.get(key)
                    if row is None:
                        quotient[key] = {width: c}
                    else:
                        row[width] = c
                width += 1
            for e, q in quotient.items():
                row = restricted.get(e)
                restricted[e] = row | q if row else q
        _add_identity(rows, rhs, restricted)
    values = _integral(names, solver(rows, rhs, width=width)[:len(names)])
    fund_names = [names[j] for j in fund]
    fund_values = _fundamental_values(problem, t, fund_names, fund_restricted, solver)

    csm_terms = _combine(matrix, values)
    restrictions = {o.name: _poly(problem.all_vars,
                                  problem.restriction_maps[o.name].map_terms(csm_terms, add, mul))
                    for o in problem.orbits}
    # the rows of degree codim(target) hold only the columns fund
    low_rows = {e: row for e, row in matrix.items() if sum(e) == t.codim}
    low_terms = _combine(low_rows, values)
    fund_terms = _combine(low_rows, dict(zip(fund, fund_values)))
    vars = problem.ansatz.vars
    return CsmSolution(_expansion(names, values, range(len(names)), csm_terms, vars),
                       restrictions,
                       _expansion(names, values, fund, low_terms, vars),
                       _expansion(fund_names, fund_values, range(len(fund)), fund_terms, vars))


def _monomials_up_to(all_vars, image_vars, degree):
    """Exponent vectors over all_vars supported on image_vars with total
    degree <= degree (empty when degree < 0)."""
    if degree < 0:
        return []
    idx = [all_vars.index(v) for v in image_vars]
    out = []

    def rec(pos, left, current):
        if pos == len(idx):
            out.append(tuple(current))
            return
        for k in range(left + 1):
            nxt = list(current)
            nxt[idx[pos]] = k
            rec(pos + 1, left - k, nxt)

    rec(0, degree, [0] * len(all_vars))
    return sorted(out)
