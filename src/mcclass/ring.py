"""Exact multivariate Laurent polynomial arithmetic over Z[y].

The coefficient domain is the univariate integer polynomial ring Z[y],
where y is a distinguished formal parameter (it is never a torus
variable).  A Laurent polynomial is stored as a map from integer
exponent vectors to nonzero y-coefficient tuples; this canonical form
makes equality testing exact and serialization reproducible.

All values are immutable after construction and all operations are
pure, so they are safe to evaluate in parallel across independent
inputs.  The public constructor re-trims and copies its terms; kernels
that already produce canonical terms wrap them with the trusted
`LaurentPoly._from_trimmed` instead.

Packed coefficients.  Both walks of the left Demazure-Lusztig step, on
localization rows (weightfn) and on basis coefficients (expand), hold a
y-coefficient as one integer, its value at y = 2^YP_PACK_BITS (yp_pack):
adding is integer addition and multiplying by y a shift.  A packed
polynomial is (terms, bound), terms mapping exponent vectors to nonzero
packed values and bound at least the sum of the absolute values of all
its y-digits.  Below YP_PACK_LIMIT every digit reads back exactly and a
value is zero only when its y-polynomial is; digit_guard keeps it there.
"""

from __future__ import annotations

import json
from collections.abc import Mapping, Sequence
from functools import lru_cache
from math import comb
from operator import add, sub

from .record import record

# ---------------------------------------------------------------------------
# Coefficients: univariate integer polynomials in y, as tuples (c0, c1, ...)
# with no trailing zeros.  The empty tuple is zero.
# ---------------------------------------------------------------------------

Ypoly = tuple

YP_ZERO: Ypoly = ()
YP_ONE: Ypoly = (1,)
YP_Y: Ypoly = (0, 1)
YP_ONE_PLUS_Y: Ypoly = (1, 1)


class RingError(Exception):
    """Base class for arithmetic failures in this module."""


class NonDivisibleError(RingError):
    """Exact division failed; carries the offending remainder."""

    def __init__(self, message: str, remainder=None):
        super().__init__(message)
        self.remainder = remainder


class InfiniteLimitError(RingError):
    """A one-parameter limit does not exist as a finite class."""


class ZeroDenominatorError(RingError):
    """A denominator vanished where a nonzero one is required."""


def yp_trim(c: Sequence) -> Ypoly:
    n = len(c)
    while n > 0 and c[n - 1] == 0:
        n -= 1
    return tuple(c[:n])


def yp_add(a: Ypoly, b: Ypoly) -> Ypoly:
    if not a:
        return b
    if not b:
        return a
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, v in enumerate(b):
        out[i] += v
    return yp_trim(out)


def yp_neg(a: Ypoly) -> Ypoly:
    return tuple(-v for v in a)


def yp_sub(a: Ypoly, b: Ypoly) -> Ypoly:
    return yp_add(a, yp_neg(b))


def yp_mul(a: Ypoly, b: Ypoly) -> Ypoly:
    if not a or not b:
        return YP_ZERO
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return yp_trim(out)


def yp_scale(a: Ypoly, c: int) -> Ypoly:
    if c == 0:
        return YP_ZERO
    return tuple(v * c for v in a)


def yp_exact_div(a: Ypoly, b: Ypoly) -> Ypoly:
    """Divide a by b in Z[y], raising NonDivisibleError unless exact."""
    if not b:
        raise ZeroDenominatorError("division of y-polynomials by zero")
    if not a:
        return YP_ZERO
    if len(a) < len(b):
        raise NonDivisibleError("y-degree too small", remainder=a)
    rem = list(a)
    lead = b[-1]
    q = [0] * (len(a) - len(b) + 1)
    for k in range(len(q) - 1, -1, -1):
        c = rem[k + len(b) - 1]
        if c % lead != 0:
            raise NonDivisibleError("leading y-coefficient not divisible",
                                    remainder=yp_trim(rem))
        t = c // lead
        q[k] = t
        if t:
            for j, bj in enumerate(b):
                rem[k + j] -= t * bj
    if any(rem):
        raise NonDivisibleError("nonzero y-remainder", remainder=yp_trim(rem))
    return yp_trim(q)


def yp_subst(a: Ypoly, value: Ypoly) -> Ypoly:
    """Evaluate a at y = value (value itself a y-polynomial)."""
    out = YP_ZERO
    for c in reversed(a):
        out = yp_add(yp_mul(out, value), (c,) if c else YP_ZERO)
    return out


YP_PACK_BITS = 64
YP_PACK_LIMIT = 1 << (YP_PACK_BITS - 1)
_YP_PACK_MASK = (1 << YP_PACK_BITS) - 1


class PackingOverflowError(RingError):
    """A packed y-coefficient may hold a digit outside the balanced range,
    so it could no longer be read back exactly."""


def yp_pack(a: Ypoly) -> int:
    """The value of a at y = 2^YP_PACK_BITS; every coefficient must lie
    strictly inside (-YP_PACK_LIMIT, YP_PACK_LIMIT)."""
    x = 0
    for c in reversed(a):
        if not -YP_PACK_LIMIT < c < YP_PACK_LIMIT:
            raise PackingOverflowError(f"y-coefficient {c} does not fit in a packed digit")
        x = (x << YP_PACK_BITS) + c
    return x


def yp_unpack(x: int) -> Ypoly:
    """The trimmed y-polynomial whose packed value is x, each digit read
    in the balanced range; the inverse of yp_pack."""
    out = []
    while x:
        c = x & _YP_PACK_MASK
        if c >= YP_PACK_LIMIT:
            c -= 1 << YP_PACK_BITS
        out.append(c)
        x = (x - c) >> YP_PACK_BITS
    return tuple(out)


def format_ypoly(a: Ypoly) -> str:
    if not a:
        return "0"
    parts = []
    for k in range(len(a) - 1, -1, -1):
        c = a[k]
        if c == 0:
            continue
        if k == 0:
            body = str(abs(c))
        else:
            ystr = "y" if k == 1 else f"y^{k}"
            body = ystr if abs(c) == 1 else f"{abs(c)}*{ystr}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


# ---------------------------------------------------------------------------
# Laurent polynomials
# ---------------------------------------------------------------------------


class LaurentPoly:
    """A Laurent polynomial in named torus variables over Z[y].

    terms maps exponent vectors (tuples of ints, one slot per variable)
    to nonzero y-coefficient tuples.  The zero polynomial has an empty
    term map; an empty variable list is allowed and holds constants.
    """

    __slots__ = ("vars", "terms", "_hash")

    def __init__(self, vars: Sequence[str], terms: Mapping[tuple, Ypoly]):
        vars = tuple(vars)
        nv = len(vars)
        clean = {}
        for e, c in terms.items():
            c = yp_trim(tuple(c))
            if not c:
                continue
            e = tuple(e)
            if len(e) != nv:
                raise ValueError(f"exponent vector {e} does not match variables {vars}")
            clean[e] = c
        object.__setattr__(self, "vars", vars)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def _from_trimmed(cls, vars: tuple, terms: dict) -> "LaurentPoly":
        """Trusted constructor for kernels that build canonical terms
        themselves: no re-trim and no copy.  The caller guarantees that
        vars is a tuple, every key an exponent tuple of len(vars) ints,
        every value a nonzero y-tuple without trailing zeros, and that
        it does not touch the dict afterwards."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "vars", vars)
        object.__setattr__(obj, "terms", terms)
        object.__setattr__(obj, "_hash", None)
        return obj

    @classmethod
    def zero(cls, vars: Sequence[str]) -> "LaurentPoly":
        return cls(vars, {})

    @classmethod
    def constant(cls, vars: Sequence[str], c: Ypoly | int) -> "LaurentPoly":
        if isinstance(c, int):
            c = (c,) if c else YP_ZERO
        return cls(vars, {(0,) * len(vars): c})

    @classmethod
    def one(cls, vars: Sequence[str]) -> "LaurentPoly":
        return cls.constant(vars, 1)

    @classmethod
    def y(cls, vars: Sequence[str]) -> "LaurentPoly":
        return cls.constant(vars, YP_Y)

    @classmethod
    def monomial(cls, vars: Sequence[str], exp: Sequence[int],
                 c: Ypoly | int = 1) -> "LaurentPoly":
        if isinstance(c, int):
            c = (c,) if c else YP_ZERO
        return cls(vars, {tuple(exp): c})

    @classmethod
    def variable(cls, vars: Sequence[str], name: str) -> "LaurentPoly":
        i = tuple(vars).index(name)
        e = [0] * len(vars)
        e[i] = 1
        return cls.monomial(vars, e)

    # -- basic structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return self.terms == {(0,) * len(self.vars): YP_ONE}

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def support(self) -> set:
        """Exponent vectors carrying a nonzero y-coefficient."""
        return set(self.terms)

    def sorted_terms(self):
        """Terms in canonical order: lexicographic on exponent vectors."""
        return sorted(self.terms.items())

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.vars, frozenset(self.terms.items())))
            object.__setattr__(self, "_hash", h)
        return h

    def __reduce__(self):
        return (LaurentPoly, (self.vars, self.terms))

    def __repr__(self):
        return f"LaurentPoly({format_poly(self)!r})"

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other) -> "LaurentPoly":
        if isinstance(other, LaurentPoly):
            if other.vars != self.vars:
                raise ValueError(f"variable mismatch: {self.vars} vs {other.vars}")
            return other
        if isinstance(other, int):
            return LaurentPoly.constant(self.vars, other)
        if isinstance(other, tuple):
            return LaurentPoly.constant(self.vars, other)
        return NotImplemented

    def __add__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.terms:
            return other
        if not other.terms:
            return self
        out = dict(self.terms)
        for e, c in other.terms.items():
            prev = out.get(e)
            if prev is None:
                out[e] = c
            else:
                s = yp_add(prev, c)
                if s:
                    out[e] = s
                else:
                    del out[e]
        return LaurentPoly(self.vars, out)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.vars, {e: yp_neg(c) for e, c in self.terms.items()})

    def __sub__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "LaurentPoly":
        return (-self) + other

    def __mul__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.terms, other.terms
        if not a or not b:
            return LaurentPoly.zero(self.vars)
        if len(a) > len(b):
            a, b = b, a
        out: dict = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                c = yp_mul(ca, cb)
                prev = out.get(e)
                if prev is None:
                    out[e] = c
                else:
                    s = yp_add(prev, c)
                    if s:
                        out[e] = s
                    else:
                        del out[e]
        return LaurentPoly(self.vars, out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "LaurentPoly":
        if k < 0:
            raise ValueError(f"negative power {k} of a Laurent polynomial")
        out = LaurentPoly.one(self.vars)
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def scale_ypoly(self, c: Ypoly) -> "LaurentPoly":
        if not c:
            return LaurentPoly.zero(self.vars)
        return LaurentPoly(self.vars, {e: yp_mul(v, c) for e, v in self.terms.items()})

    def shift(self, exp: Sequence[int]) -> "LaurentPoly":
        """Multiply by the monomial with the given exponent vector."""
        exp = tuple(exp)
        return LaurentPoly(self.vars,
                           {tuple(a + b for a, b in zip(e, exp)): c
                            for e, c in self.terms.items()})

    # -- variable plumbing --------------------------------------------------

    def rename_vars(self, mapping: Mapping[str, str]) -> "LaurentPoly":
        """Permute or rename variables (a bijection onto the same set)."""
        new = tuple(mapping.get(v, v) for v in self.vars)
        if sorted(new) != sorted(self.vars):
            raise ValueError("rename must permute the variable list")
        images = {v: (1, {w: 1}) for v, w in zip(self.vars, new)}
        return MonomialMap(self.vars, images, self.vars)(self)

    def subst_y(self, value: Ypoly) -> "LaurentPoly":
        """Substitute a y-polynomial for the parameter y."""
        out = LaurentPoly.zero(self.vars)
        for e, c in self.terms.items():
            nc = yp_subst(c, value)
            if nc:
                out = out + LaurentPoly.monomial(self.vars, e, nc)
        return out

    def min_exponents(self):
        """Per-variable minimum exponent over the support (zero poly: zeros)."""
        if not self.terms:
            return (0,) * len(self.vars)
        cols = zip(*self.terms)
        return tuple(min(col) for col in cols)


# ---------------------------------------------------------------------------
# Substitution: one monomial-map kernel.  A map is compiled once from its
# input variables, its images and its output variables; applying it is one
# pass over the terms.  Restriction to orbits, torus specialization, the
# cocharacter collapse of the limits and variable renaming all run on it.
# ---------------------------------------------------------------------------

MonomialImage = tuple  # (scalar, {var: exponent})


class MonomialMap:
    """A ring homomorphism sending each input variable to a scalar
    monomial in the output variables; the parameter y is untouched.

    images maps an input variable to (scalar, exponent map); input
    variables not mentioned are sent to themselves.  Compiling raises
    ValueError on a zero scalar, on an image variable that is not an
    output variable, and on an unmapped input variable that is not one.
    Each input variable is held as the sparse list of (output index,
    exponent) of its image; the scalars other than 1 are held apart.
    """

    __slots__ = ("in_vars", "out_vars", "_scatters", "_scalars")

    def __init__(self, in_vars: Sequence[str], images: Mapping[str, MonomialImage],
                 out_vars: Sequence[str]):
        in_vars, out_vars = tuple(in_vars), tuple(out_vars)
        index = {v: i for i, v in enumerate(out_vars)}
        scatters = []
        scalars = []
        for j, v in enumerate(in_vars):
            if v in images:
                scalar, exps = images[v]
                if scalar == 0:
                    raise ValueError(f"variable {v} mapped to zero scalar")
                for name in exps:
                    if name not in index:
                        raise ValueError(f"image variable {name} not in output variables")
                scatters.append(tuple((index[name], e) for name, e in exps.items() if e))
                if scalar != 1:
                    scalars.append((j, scalar))
            else:
                if v not in index:
                    raise ValueError(f"unmapped variable {v} not in output variables")
                scatters.append(((index[v], 1),))
        self.in_vars = in_vars
        self.out_vars = out_vars
        self._scatters = tuple(scatters)
        self._scalars = tuple(scalars)

    def map_terms(self, terms: Mapping[tuple, object], add, scale) -> dict:
        """The image {exponent: value} of terms {exponent: value} in the
        input variables: each exponent scattered, each value scaled by
        its scalar power (scale(value, num)), colliding values merged by
        add and sums that are zero (false) dropped.  The values may be
        y-tuples (yp_add, yp_scale), packed integers (+, *) or the
        sparse rows {column: int} of a coefficient matrix (a row sum
        that returns a new dict, since add must not change its
        arguments, which may be the input's own values).  Raises
        ValueError where a negative power of a scalar other than +-1
        would be required (a division inside Z)."""
        nv = len(self.out_vars)
        scatters, scalars = self._scatters, self._scalars
        out: dict = {}
        for e, c in terms.items():
            ne = [0] * nv
            for scatter, k in zip(scatters, e):
                if k:
                    for i, x in scatter:
                        ne[i] += x * k
            key = tuple(ne)
            if scalars:
                num = 1
                for j, s in scalars:
                    k = e[j]
                    if k > 0:
                        num *= s ** k
                    elif k < 0:
                        if s != -1:
                            raise ValueError(f"negative power of scalar {s} is not an integer")
                        num *= (-1) ** -k
                if num != 1:
                    c = scale(c, num)
            prev = out.get(key)
            if prev is None:
                out[key] = c
            else:
                total = add(prev, c)
                if total:
                    out[key] = total
                else:
                    del out[key]
        return out

    def __call__(self, p: LaurentPoly) -> LaurentPoly:
        """The image of p, a polynomial in the input variables (see
        map_terms)."""
        if p.vars != self.in_vars:
            raise ValueError(f"variable mismatch: {p.vars} vs {self.in_vars}")
        return LaurentPoly._from_trimmed(self.out_vars, self.map_terms(p.terms, yp_add, yp_scale))


def monomial_substitute(p: LaurentPoly,
                        images: Mapping[str, MonomialImage],
                        out_vars: Sequence[str] | None = None) -> LaurentPoly:
    """Apply a ring homomorphism sending each variable to a scalar monomial.

    images maps a variable name to (scalar, exponent map); variables not
    mentioned are sent to themselves.  The parameter y is untouched.
    Raises ValueError if a negative power of a non-unit scalar would be
    required (a division inside Z), or on a zero scalar.
    """
    return MonomialMap(p.vars, images, p.vars if out_vars is None else out_vars)(p)


def substitute_ones(p: LaurentPoly) -> Ypoly:
    """Send every torus variable to 1, leaving a y-polynomial."""
    out = YP_ZERO
    for c in p.terms.values():
        out = yp_add(out, c)
    return out


# ---------------------------------------------------------------------------
# Exact division
# ---------------------------------------------------------------------------


def _split_by_var(p: LaurentPoly, k: int) -> dict:
    """Group terms by the exponent of variable k; values zero that slot."""
    out: dict = {}
    for e, c in p.terms.items():
        d = e[k]
        key = e[:k] + (0,) + e[k + 1:]
        slot = out.setdefault(d, {})
        slot[key] = c
    return out


def exact_divide(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    """Return r with r*q == p, or raise NonDivisibleError.

    Implemented by iterated univariate division: pick a variable with
    exponent spread in q, view both sides as univariate with Laurent
    coefficients, and require a zero remainder at every level.
    """
    if q.vars != p.vars:
        raise ValueError("variable mismatch in exact_divide")
    if q.is_zero():
        raise ZeroDenominatorError("division by the zero polynomial")
    if p.is_zero():
        return p

    # Monomial divisor: divide term by term.
    if q.is_monomial():
        ((eq, cq),) = q.terms.items()
        out = {}
        for e, c in p.terms.items():
            out[tuple(a - b for a, b in zip(e, eq))] = yp_exact_div(c, cq)
        return LaurentPoly(p.vars, out)

    # Pick the pivot variable with the smallest exponent spread in q.
    spreads = []
    for k in range(len(q.vars)):
        col = [e[k] for e in q.terms]
        spread = max(col) - min(col)
        if spread > 0:
            spreads.append((spread, k))
    if not spreads:
        # q has a single exponent vector but several y-terms: monomial case
        # already handled, so this cannot happen.
        raise AssertionError("non-monomial divisor without exponent spread")
    _, k = min(spreads)

    qs = _split_by_var(q, k)
    ps = _split_by_var(p, k)
    dq = max(qs)
    q_lead = LaurentPoly(p.vars, qs[dq])
    # the lowest var-k parts of an exact quotient and of q multiply to the
    # lowest part of p, so no quotient term lies below this var-k degree
    floor = min(ps) - min(qs)
    vars = p.vars

    def remainder():
        return LaurentPoly(vars, {e[:k] + (d,) + e[k + 1:]: c
                                  for d, slot in ps.items()
                                  for e, c in slot.items()})

    quot: dict = {}
    while ps:
        dp = max(ps)
        if all(not slot for slot in ps.values()):
            break
        shift = dp - dq
        if shift < floor:
            raise NonDivisibleError("quotient degree below its bound", remainder=remainder())
        lead = LaurentPoly(vars, ps[dp])
        try:
            t = exact_divide(lead, q_lead)
        except NonDivisibleError as err:
            raise NonDivisibleError("leading coefficient not divisible",
                                    remainder=remainder()) from err
        for e, c in t.terms.items():
            quot[e[:k] + (e[k] + shift,) + e[k + 1:]] = c
        # ps -= t * q  (with the var-k shift applied)
        for dq2, slot in qs.items():
            prod = LaurentPoly(vars, slot) * t
            if prod.is_zero():
                continue
            d = dq2 + shift
            cur = ps.get(d, {})
            for e, c in prod.terms.items():
                key = e[:k] + (0,) + e[k + 1:]
                prev = cur.get(key)
                s = yp_sub(prev, c) if prev is not None else yp_neg(c)
                if s:
                    cur[key] = s
                elif prev is not None:
                    del cur[key]
            if cur:
                ps[d] = cur
            elif d in ps:
                del ps[d]
        if dp in ps and not ps[dp]:
            del ps[dp]
        if ps and max(ps) >= dp:
            raise AssertionError("division failed to reduce degree")
    if ps:
        raise NonDivisibleError("nonzero remainder", remainder=remainder())
    return LaurentPoly(vars, quot)


def divisible_by_y_binomials(p: LaurentPoly, exponents: Mapping[tuple, int]) -> bool:
    """Whether the product of (1 + y*x^e)^m over exponents {e: m} divides p.

    1 + y*x^e = x^e * (y + x^-e) is monic in y up to a unit, so its m-th
    power divides p exactly when the Hasse derivatives D^j p, j < m,
    vanish at y = -x^-e.  The binomials are irreducible and pairwise
    non-associate for distinct e, so the product divides p exactly when
    each power does.  No division is carried out.

    The root sends a term c_k y^k x^x to (-1)^k c_k x^(x - k e).  So
    each term is keyed once by its line base + t e (_lines), and on each
    line the digits are summed at the integer positions t - k (at t when
    e = 0), one line at a time.
    """
    for e, m in exponents.items():
        step = 1 if any(e) else 0
        for line in _lines(p.terms, e)[0].values():
            for j in range(m):
                acc: dict = {}
                get = acc.get
                for t, c in line:
                    for s, ck in enumerate(c[j:]):
                        if ck:
                            # the term ck y^(s+j) of p gives C(s+j, j) ck y^s in D^j p
                            v = comb(s + j, j) * ck if j else ck
                            pos = t - step * s
                            acc[pos] = get(pos, 0) + (-v if s & 1 else v)
                if any(acc.values()):
                    return False
    return True


def _lines(terms: Mapping, D: tuple) -> tuple:
    """(lines, multiple): the terms c tau^e grouped by the lines of
    direction D, lines = {base: [(k, c)]} with e = base + k D (k = 0 when
    D = 0), and multiple(k) = k D, memoized."""
    p = next((j for j, d in enumerate(D) if d), None)
    multiples: dict = {}

    def multiple(k):
        m = multiples.get(k)
        if m is None:
            m = multiples[k] = tuple(k * x for x in D)
        return m

    lines: dict = {}
    for e, c in terms.items():
        k = 0 if p is None else e[p] // D[p]
        lines.setdefault(tuple(map(sub, e, multiple(k))) if k else e, []).append((k, c))
    return lines, multiple


# ---------------------------------------------------------------------------
# Packed polynomials (terms, bound); see the module docstring
# ---------------------------------------------------------------------------


def pack_poly(p: LaurentPoly) -> tuple:
    """p as a packed polynomial, its bound the exact digit sum."""
    return ({e: yp_pack(c) for e, c in p.terms.items()},
            sum(abs(d) for c in p.terms.values() for d in c))


def unpack_polys(packed: Mapping, vars: tuple) -> dict:
    """{key: canonical LaurentPoly in vars} from {key: packed terms} with
    digits in the balanced range, each distinct value decoded once per
    call: a memo kept longer grows with every value it meets."""
    unpack = lru_cache(maxsize=None)(yp_unpack)
    return {key: LaurentPoly._from_trimmed(vars, {e: unpack(v) for e, v in terms.items()})
            for key, terms in packed.items()}


def digit_guard(step, packed: tuple, *args) -> tuple:
    """step(*packed, *args), a kernel that sums the packed polynomials (or
    None) in packed into one, bounded from their bounds.  If that reaches
    YP_PACK_LIMIT, the inputs' digit sums are measured (exactly, as their
    bounds are below it) and the step redone from them; PackingOverflowError
    if the limit is reached again."""
    out = step(*packed, *args)
    if out[1] >= YP_PACK_LIMIT:
        packed = tuple(x and (x[0], sum(abs(d) for v in x[0].values() for d in yp_unpack(v)))
                       for x in packed)
        out = step(*packed, *args)
        if out[1] >= YP_PACK_LIMIT:
            raise PackingOverflowError(f"packed y-digits bounded only by {out[1]}")
    return out


def line_quotient(packed: tuple, D: tuple, vars: tuple) -> tuple:
    """The packed quotient of (terms, bound) = sum_e terms[e] tau^e by
    1 - tau^D, D nonzero.  Along a line m + kD the numerator coefficient
    at k is q_k - q_(k-1), so q_k is the prefix sum up to k; the division
    is exact iff every line sums to zero, one integer compare per line,
    else NonDivisibleError carries the line sums, decoded in vars.  The
    longest line's span times the numerator's bound bounds the quotient."""
    terms, bound = packed
    lines, multiple = _lines(terms, D)
    out: dict = {}
    stray: dict = {}
    longest = 0
    for base, points in lines.items():
        points.sort()
        run, last = 0, points[0][0]
        for k, u in points:
            if run:
                for j in range(last, k):
                    out[tuple(map(add, base, multiple(j)))] = run
            run, last = run + u, k
        if run:
            stray[tuple(map(add, base, multiple(last)))] = run
        longest = max(longest, last - points[0][0] + 1)
    if stray:
        raise NonDivisibleError("numerator not divisible by 1 - tau^D",
                                remainder=unpack_polys({0: stray}, vars)[0])
    return out, longest * bound


# ---------------------------------------------------------------------------
# Rational expressions and one-parameter limits
# ---------------------------------------------------------------------------


@record
class Cocharacter:
    """Exponents d_i of the substitution tau_i -> xi^{d_i}."""

    weights: tuple

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(int(w) for w in self.weights))


class RationalExpr:
    """A quotient num/den of Laurent polynomials in canonical form.

    Monomial content of the denominator is folded into the numerator,
    so den has per-variable minimum exponent 0 and is not divisible by
    any variable.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly | None = None):
        if den is None:
            den = LaurentPoly.one(num.vars)
        if den.vars != num.vars:
            raise ValueError("variable mismatch in RationalExpr")
        if den.is_zero():
            raise ZeroDenominatorError("rational expression with zero denominator")
        m = den.min_exponents()
        if any(m):
            neg = tuple(-x for x in m)
            den = den.shift(neg)
            num = num.shift(neg)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RationalExpr is immutable")

    def __reduce__(self):
        return (RationalExpr, (self.num, self.den))

    @property
    def vars(self):
        return self.num.vars

    def __eq__(self, other):
        if not isinstance(other, RationalExpr):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __mul__(self, other):
        if isinstance(other, RationalExpr):
            return RationalExpr(self.num * other.num, self.den * other.den)
        return RationalExpr(self.num * other, self.den)

    def __repr__(self):
        return f"RationalExpr(({format_poly(self.num)}) / ({format_poly(self.den)}))"


def _collapse(vars: tuple, d: Cocharacter) -> MonomialMap:
    """The map tau_i -> xi^{d_i} from vars to the single variable xi."""
    if len(d.weights) != len(vars):
        raise ValueError("cocharacter length does not match variable list")
    return MonomialMap(vars, {v: (1, {"xi": w}) for v, w in zip(vars, d.weights)}, ("xi",))


def limit_at_infinity(f: RationalExpr, d: Cocharacter) -> Ypoly:
    """Limit of f as xi -> infinity along tau_i = xi^{d_i}.

    Zero when the numerator degree is smaller, the exact ratio of
    leading coefficients when the degrees agree, and InfiniteLimitError
    when the numerator degree is larger.
    """
    collapse = _collapse(f.vars, d)
    num = collapse(f.num).terms
    den = collapse(f.den).terms
    if not den:
        raise ZeroDenominatorError("denominator vanishes under the cocharacter")
    if not num:
        return YP_ZERO
    dn, dd = max(num), max(den)  # exponent vectors (degree,) in xi
    if dn < dd:
        return YP_ZERO
    if dn > dd:
        raise InfiniteLimitError(f"numerator degree {dn[0]} exceeds denominator degree {dd[0]}")
    return yp_exact_div(num[dn], den[dd])


# ---------------------------------------------------------------------------
# Serialization and formatting
# ---------------------------------------------------------------------------


def poly_to_json(p: LaurentPoly) -> dict:
    return {"vars": list(p.vars),
            "terms": [{"exp": list(e), "y": list(c)} for e, c in p.sorted_terms()]}


def json_integer(value, what: str) -> int:
    """value, if it is a JSON integer (a bool is not one); otherwise
    ValueError naming what it is."""
    if type(value) is not int:
        raise ValueError(f"{what} {value!r} is not an integer")
    return value


def poly_from_json(obj: Mapping) -> LaurentPoly:
    """The polynomial that poly_to_json writes: a list of distinct
    variable names, and terms whose exponents and y-coefficients are
    JSON integers, each exponent vector given once.  Anything else is
    ValueError, never coerced."""
    vars = obj["vars"]
    if type(vars) is not list or not all(type(v) is str for v in vars):
        raise ValueError(f"vars {vars!r} is not a list of names")
    if len(set(vars)) != len(vars):
        raise ValueError(f"vars {vars!r} name a variable twice")
    terms = {}
    for t in obj["terms"]:
        e = tuple(json_integer(x, "exponent") for x in t["exp"])
        if e in terms:
            raise ValueError(f"exponent vector {list(e)} is given twice")
        terms[e] = tuple(json_integer(c, "y-coefficient") for c in t["y"])
    return LaurentPoly(vars, terms)


def rational_to_json(f: RationalExpr) -> dict:
    return {"num": poly_to_json(f.num), "den": poly_to_json(f.den)}


def rational_from_json(obj: Mapping) -> RationalExpr:
    return RationalExpr(poly_from_json(obj["num"]), poly_from_json(obj["den"]))


def dumps_canonical(obj) -> str:
    """Deterministic JSON encoding used by every emitter."""
    return json.dumps(obj, separators=(", ", ": "), sort_keys=False)


def _monomial_str(vars, e) -> str:
    num = []
    den = []
    for v, k in zip(vars, e):
        if k == 0:
            continue
        body = v if abs(k) == 1 else f"{v}^{abs(k)}"
        (num if k > 0 else den).append(body)
    ns = "*".join(num)
    if not den:
        return ns or "1"
    ds = "*".join(den)
    if len(den) > 1:
        ds = f"({ds})"
    return f"{ns or '1'}/{ds}"


def _y_powers(width: int) -> list:
    """The strings "", "y", "y^2", ..., y^(width - 1)."""
    return ["", "y"] + [f"y^{k}" for k in range(2, width)]


def _signed(pieces: list) -> str:
    """Pieces "+ body" or "- body" joined, the first written as body or -body."""
    out = " ".join(pieces)
    return out[2:] if out[0] == "+" else "-" + out[2:]


def format_poly(p: LaurentPoly) -> str:
    """Canonical flat rendering: terms in exponent order, y ascending."""
    if p.is_zero():
        return "0"
    ys = _y_powers(max(map(len, p.terms.values())))
    pieces = []
    for e, c in p.sorted_terms():
        mono = _monomial_str(p.vars, e)
        for k, ck in enumerate(c):
            if ck:
                tail = mono if not k else ys[k] if mono == "1" else f"{mono}*{ys[k]}"
                a = abs(ck)
                body = str(a) if tail == "1" else tail if a == 1 else f"{a}*{tail}"
                pieces.append(f"+ {body}" if ck > 0 else f"- {body}")
    return _signed(pieces)


def format_poly_ygrouped(p: LaurentPoly, negate: bool = False) -> str:
    """Display form grouped by descending powers of y; of -p when negate
    is set."""
    if p.is_zero():
        return "0"
    by_deg: dict = {}
    units = set()  # degrees with a coefficient 1
    for e, c in p.sorted_terms():
        mono = _monomial_str(p.vars, e)
        for k, ck in enumerate(c):
            if ck:
                if negate:
                    ck = -ck
                a = abs(ck)
                body = str(a) if mono == "1" else mono if a == 1 else f"{a}*{mono}"
                by_deg.setdefault(k, []).append(f"+ {body}" if ck > 0 else f"- {body}")
                if ck == 1:
                    units.add(k)
    ys = _y_powers(max(by_deg) + 1)
    parts = []
    for k in sorted(by_deg, reverse=True):
        pieces = by_deg[k]
        body = _signed(pieces)
        if not k:
            parts.append(f"- {body[1:]}" if len(pieces) == 1 and body[0] == "-"
                         else f"+ {body}")
        elif len(pieces) == 1 and k in units:
            parts.append(f"+ {ys[k]}" if body == "1" else f"+ {body}*{ys[k]}")
        else:
            parts.append(f"+ ({body})*{ys[k]}")
    return _signed(parts)
