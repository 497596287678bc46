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

The CSM system has the basis classes up to the degree bound B of the
constraints as unknowns, plus, at each non-target orbit o whose
tangent class c has degree d > 0, one unknown per monomial of the
quotient Q in phi_o(P) = c * Q up to degree min(codim(o) - 1, B - d)
(the quotient window: a solution has deg Q <= B - d).  When c is a
constant, P/c is always a polynomial, so o adds no quotient unknown,
only the rows saying that phi_o(P) has no monomial of degree >=
codim(o), and nothing when B < codim(o).  A basis class is restricted
only to the orbits that read it: the target, the orbits that add rows
and the orbits of codimension <= codim(target), from whose
degree-codim columns of the same basis the fundamental class is read.

All cohomology classes here are ordinary polynomials (Chern-root
degree one per variable); the shared Laurent kernel is used with
nonnegative exponents and a trivial parameter slot.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Mapping, Sequence

from .ring import LaurentPoly, MonomialMap, format_poly, json_integer


class NoSolutionError(ValueError):
    """The interpolation constraints are inconsistent."""


class NonUniqueError(ValueError):
    """The interpolation constraints do not pin a unique class."""


# ---------------------------------------------------------------------------
# Orbit data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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
        """(name, degree, polynomial) for every elementary symmetric
        generator, in group order then degree order."""
        out = []
        for label, vs in self.groups:
            for k in range(1, len(vs) + 1):
                out.append((f"{label}{k}", k, _esym(self.vars, vs, k)))
        return out

    def basis(self, degree: int, homogeneous: bool = False):
        """Monomials in the generators with weighted degree <= degree
        (== degree when homogeneous), as (name, polynomial) pairs in a
        deterministic order."""
        gens = self.generators()
        out = []

        def rec(idx: int, deg_left: int, name_parts, poly: LaurentPoly):
            if idx == len(gens):
                deg = degree - deg_left
                if homogeneous and deg != degree:
                    return
                out.append(("*".join(name_parts) if name_parts else "1", poly))
                return
            gname, gdeg, gpoly = gens[idx]
            power = 0
            acc = poly
            while power * gdeg <= deg_left:
                parts = name_parts + ([f"{gname}^{power}" if power > 1 else gname]
                                      if power else [])
                rec(idx + 1, deg_left - power * gdeg, parts, acc)
                power += 1
                if power * gdeg <= deg_left:
                    acc = acc * gpoly
            return

        rec(0, degree, [], LaurentPoly.one(self.vars))
        return out


def _esym(all_vars: Sequence[str], vs: Sequence[str], k: int) -> LaurentPoly:
    out = LaurentPoly.zero(all_vars)
    for comb in itertools.combinations(vs, k):
        e = [0] * len(all_vars)
        for v in comb:
            e[all_vars.index(v)] = 1
        out = out + LaurentPoly.monomial(all_vars, e)
    return out


# ---------------------------------------------------------------------------
# JSON ingestion
# ---------------------------------------------------------------------------


def _poly_from_factors(factors, vars, where: str) -> LaurentPoly:
    """Product of affine-linear factors {const, coeffs: {var: c}} over
    vars, with integer const and c; where names the orbit and the key in
    an error."""
    out = LaurentPoly.one(vars)
    for f in factors:
        term = LaurentPoly.constant(vars, json_integer(f.get("const", 0), f"{where} const"))
        for v, c in f.get("coeffs", {}).items():
            if v not in vars:
                raise ValueError(f"{where} names {v!r}, which is neither an ansatz "
                                 "variable nor a phi image")
            c = json_integer(c, f"{where} coefficient of {v}")
            term = term + LaurentPoly.variable(vars, v).scale_ypoly((c,))
        out = out * term
    return out


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
    A block variable that is not in vars (when vars is given), one that
    lies in two blocks, and a label given to two groups are rejected;
    generated labels avoid every label before them."""
    taken: set = set()
    if "groups" in obj:
        blocks = [(g["label"], tuple(g["vars"])) for g in obj["groups"]]
        for label, _ in blocks:
            if label in taken:
                raise ValueError(f"group label {label!r} is given twice")
            taken.add(label)
        vars = (list(obj["vars"]) if "vars" in obj
                else list(dict.fromkeys(v for _, b in blocks for v in b)))
    else:
        blocks = [(_auto_label(b, taken), tuple(b)) for b in obj.get("symmetry", [])]
        vars = list(obj["vars"])
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
    """The orbit entries, after rejecting a repeated orbit name, a phi
    key that is not an ansatz variable and a phi image that is not a
    variable name."""
    orbits = list(obj["orbits"])
    names = set()
    for o in orbits:
        name = o["name"]
        if name in names:
            raise ValueError(f"duplicate orbit name {name!r}")
        names.add(name)
        for v, img in o.get("phi", {}).items():
            if v not in ansatz_vars:
                raise ValueError(f"orbit {name}: phi key {v!r} is not an ansatz variable")
            if not isinstance(img, str):
                raise ValueError(f"orbit {name}: phi image {img!r} of {v} is not a variable name")
    return orbits


@dataclass(frozen=True)
class OrbitProblem:
    """Orbit data over a symmetric ansatz.  Each orbit's restriction map,
    from the ansatz variables to all_vars, is compiled once here;
    restrict only applies it."""

    ansatz: SymmetricAnsatz
    orbits: tuple
    all_vars: tuple  # base variables plus every restriction image variable
    restriction_maps: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "restriction_maps", {
            o.name: MonomialMap(self.ansatz.vars, {v: (1, {img: 1}) for v, img in o.phi.items()},
                                self.all_vars)
            for o in self.orbits})

    @classmethod
    def from_json(cls, obj: Mapping) -> "OrbitProblem":
        ansatz = SymmetricAnsatz.from_groups(_groups_from_json(obj))
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

    def restrict(self, p: LaurentPoly, o: OrbitSpec) -> LaurentPoly:
        """The restriction to o of a class p in the ansatz variables,
        written over all_vars, by o's map compiled at construction."""
        return self.restriction_maps[o.name](p)


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
    lowest column.  A back-substitution over Fractions finishes.
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
            reduced = {k: b * v for k, v in row.items()}
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
    x = [Fraction(0)] * n
    for c in range(n - 1, -1, -1):
        pivot = pivots[c]
        acc = Fraction(pivot.get(n, 0))
        for k, v in pivot.items():
            if c < k < n:
                acc -= v * x[k]
        x[c] = acc / pivot[c]
    return x


# ---------------------------------------------------------------------------
# Solvers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
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


def _fundamental(problem: OrbitProblem, t: OrbitSpec, names, polys, restricted,
                 solver) -> SymmetricExpansion:
    """The fundamental class of t over the homogeneous basis classes
    (names, polys) of degree codim(t); restricted(k) gives the classes
    restricted to problem.orbits[k], and is called for every orbit the
    constraints read (t and each orbit of codimension <= codim(t))."""
    zero = LaurentPoly.zero(problem.all_vars)
    identities = []
    for k, o in enumerate(problem.orbits):
        if o.name == t.name:
            identities.append((enumerate(restricted(k)), o.euler))
        elif o.codim <= t.codim:
            identities.append((enumerate(restricted(k)), zero))
    rows, rhs = _system_from_identities(identities)
    values = solver(rows, rhs, width=len(polys))
    return _as_expansion(names, polys, values, problem.ansatz.vars)


def solve_fundamental(problem: OrbitProblem, target: str,
                      solver=solve_unique_fractions) -> SymmetricExpansion:
    """The unique homogeneous class of degree codim(target) vanishing on
    every orbit of codimension <= codim(target) and restricting to the
    Euler class at the target."""
    t = problem.orbit(target)
    basis = problem.ansatz.basis(t.codim, homogeneous=True)
    names = [n for n, _ in basis]
    polys = [p for _, p in basis]
    return _fundamental(problem, t, names, polys,
                        lambda k: [problem.restrict(p, problem.orbits[k]) for p in polys],
                        solver)


@dataclass(frozen=True)
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


def _degree(p: LaurentPoly) -> int:
    if p.is_zero():
        return -1
    return max(sum(e) for e in p.terms)


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
      As the basis classes are homogeneous, only those of degree
      >= codim(o) are restricted, and none when B < codim(o).
    Dropping unknowns that are forced to zero or fixed by P leaves the
    solution, the dimension of a solution space and an inconsistency as
    they were.  A basis class is restricted only to the orbits that read
    it: the target, the orbits that add rows, and the orbits of
    codimension <= codim(target), which the fundamental class reads off
    the classes of degree codim(target): the basis enumerates its
    monomials in an order that does not depend on the degree bound, so
    they are basis(codim, homogeneous=True) in its order, and the bound
    is at least codim since tangent_c != 0.  The returned restrictions
    are those of the solution, at every orbit.
    """
    t = problem.orbit(target)
    target_value = t.euler * t.tangent_c
    # euler is homogeneous of degree codim (OrbitSpec), so
    # deg(euler * tangent_c) = codim + deg(tangent_c)
    bound = _degree(target_value)
    for o in problem.orbits:
        if o.name != target:
            bound = max(bound, o.codim + _degree(o.tangent_c) - 1)

    basis = problem.ansatz.basis(bound)
    names = [n for n, _ in basis]
    polys = [p for _, p in basis]
    degrees = [_degree(p) for p in polys]
    restricted = [{} for _ in problem.orbits]

    def columns(k, cols):
        """(j, polys[j] restricted to orbit k) for j in cols, each
        restricted once."""
        memo, o = restricted[k], problem.orbits[k]
        for j in cols:
            if j not in memo:
                memo[j] = problem.restrict(polys[j], o)
        return [(j, memo[j]) for j in cols]

    zero = LaurentPoly.zero(problem.all_vars)
    width = len(polys)
    identities = []
    for k, o in enumerate(problem.orbits):
        if o.name == target:
            identities.append((columns(k, range(len(polys))), target_value))
            continue
        d = _degree(o.tangent_c)
        if d == 0:
            identities.append((columns(k, [j for j, e in enumerate(degrees)
                                           if e >= o.codim]), zero))
            continue
        # phi(P) - tangent_c * Q == 0 with Q an unknown quotient in the
        # image variables, in the window above
        cols = columns(k, range(len(polys)))
        neg_tangent = -o.tangent_c
        image_vars = sorted({o.phi.get(v, v) for v in problem.ansatz.vars})
        for mono in _monomials_up_to(problem.all_vars, image_vars,
                                     min(o.codim - 1, bound - d)):
            cols.append((width, neg_tangent.shift(mono)))
            width += 1
        identities.append((cols, zero))
    rows, rhs = _system_from_identities(identities)
    values = solver(rows, rhs, width=width)[:len(polys)]
    expansion = _as_expansion(names, polys, values, problem.ansatz.vars)
    restrictions = {o.name: problem.restrict(expansion.poly, o) for o in problem.orbits}

    fund = [j for j, d in enumerate(degrees) if d == t.codim]
    fundamental = _fundamental(problem, t, [names[j] for j in fund],
                               [polys[j] for j in fund],
                               lambda k: [r for _, r in columns(k, fund)], solver)

    low = max(_degree(fundamental.poly), 0)
    low_cols = [j for j, v in enumerate(values) if v != 0 and degrees[j] == low]
    lowest = _as_expansion([names[j] for j in low_cols], [polys[j] for j in low_cols],
                           [values[j] for j in low_cols], problem.ansatz.vars)
    return CsmSolution(expansion, restrictions, lowest, fundamental)


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
