"""Lattice polytopes from Laurent supports, with exact H-representations.

A polytope is given by its generator set (deduplicated integer
vectors).  The first question that needs its facets computes its exact
integer H-representation once and caches it: the equalities of the
affine hull, and the facets of the polytope projected onto the pivot
coordinates of the hull, found by the double description method
(Motzkin; Fukuda and Prodon, "Double description method revisited",
1996).  Membership, containment and vertex questions are then integer
dot products against those rows (a rational query point is scaled to
integers once), so every answer is exact, never a float heuristic.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import mul

from .record import record
from .ring import LaurentPoly


class ZeroPolynomialError(ValueError):
    """The Newton polytope of the zero polynomial is undefined."""


@record
class HRepresentation:
    """conv(generators) as {x : u.x = c for every (u, c) in equalities,
    a.(x at pivots) <= b for every (a, b) in facets}, all integers.

    Projecting onto the pivot coordinates is injective on the affine
    hull, so the projected polytope is full-dimensional there and its
    facets are unique up to a positive factor; each is primitive.
    """

    pivots: tuple
    equalities: tuple
    facets: tuple


@record
class LatticePolytope:
    """Finite set of integer generator vectors; the H-representation is
    computed on first use and cached."""

    dim: int
    points: tuple

    def __init__(self, dim: int, points: Iterable[Sequence[int]]):
        pts = sorted({tuple(int(x) for x in p) for p in points})
        for p in pts:
            if len(p) != dim:
                raise ValueError(f"point {p} does not have dimension {dim}")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "points", tuple(pts))

    def contains_point(self, x: Sequence) -> bool:
        return contains_point(self, x)

    def to_json(self) -> dict:
        return {"dim": self.dim, "points": [list(p) for p in self.points]}

    @cached_property
    def point_set(self) -> frozenset:
        return frozenset(self.points)

    @cached_property
    def box(self) -> tuple:
        """Per coordinate, the least and greatest generator entry."""
        return tuple((min(col), max(col)) for col in zip(*self.points))

    @cached_property
    def hrep(self) -> HRepresentation:
        return _h_representation(self.points, self.dim)


def newton_polytope(p: LaurentPoly) -> LatticePolytope:
    """Generators are the exponent vectors of the support; the parameter
    y is a constant for this purpose, never a direction."""
    if p.is_zero():
        raise ZeroPolynomialError("zero polynomial has no Newton polytope")
    return LatticePolytope(len(p.vars), p.support())


def minkowski_sum(A: LatticePolytope, B: LatticePolytope) -> LatticePolytope:
    if A.dim != B.dim:
        raise ValueError("dimension mismatch in Minkowski sum")
    return LatticePolytope(A.dim, [tuple(a + b for a, b in zip(p, q))
                                   for p in A.points for q in B.points])


# ---------------------------------------------------------------------------
# Exact H-representation: affine hull, then double description
# ---------------------------------------------------------------------------


def _primitive(v: list) -> list:
    g = gcd(*v)
    return v if g <= 1 else [a // g for a in v]


def _reduced_basis(rows: Iterable[Sequence[int]], ncols: int) -> dict:
    """{pivot column: row}, an integer basis of the span of rows in
    reduced echelon form: each row is primitive, positive at its pivot
    and zero at every other row's pivot."""
    basis: dict = {}
    for row in rows:
        row = list(row)
        for c, b in basis.items():
            if row[c]:
                row = _primitive([b[c] * v - row[c] * w for v, w in zip(row, b)])
        c = next((k for k in range(ncols) if row[k]), None)
        if c is None:
            continue
        if row[c] < 0:
            row = [-v for v in row]
        for k, b in basis.items():
            if b[c]:
                basis[k] = _primitive([row[c] * v - b[c] * w for v, w in zip(b, row)])
        basis[c] = row
    return basis


def _null_space(basis: dict, ncols: int) -> list:
    """Primitive integer vectors u spanning {u : row.u = 0 for every row
    of the reduced basis}, one per non-pivot column."""
    scale = lcm(*(row[c] for c, row in basis.items()))
    out = []
    for f in range(ncols):
        if f in basis:
            continue
        u = [0] * ncols
        u[f] = scale
        for c, row in basis.items():
            u[c] = -row[f] * (scale // row[c])
        out.append(tuple(_primitive(u)))
    return out


def _h_representation(points: Sequence[tuple], dim: int) -> HRepresentation:
    # the differences p - p0 span the hull's direction; a difference that
    # the current normals u already annihilate adds nothing to it
    p0 = points[0]
    basis: dict = {}
    normals = _null_space(basis, dim)
    for p in points[1:]:
        d = tuple(a - b for a, b in zip(p, p0))
        if any(_dot(u, d) for u in normals):
            basis = _reduced_basis([*basis.values(), d], dim)
            normals = _null_space(basis, dim)
    pivots = tuple(sorted(basis))
    equalities = tuple((u, _dot(u, p0)) for u in normals)
    projected = sorted({tuple(p[c] for c in pivots) for p in points})
    return HRepresentation(pivots, equalities, _facets(projected))


def _facets(pts: list) -> tuple:
    """The facets (a, b), a.q <= b, of conv(pts), a full-dimensional
    polytope in Z^r, by double description on the pointed cone
    {(a, b) : a.q <= b for every q}, whose extreme rays are the facets.

    A ray v = (a, b) has slack v.(-q, 1) = b - a.q at q.  The cone
    starts as that of a simplex of pts and takes the other points in
    turn, farthest from the centroid first, so that the early hulls are
    large and most later points leave the rays unchanged.  A new ray
    comes only from an adjacent pair of rays on the two sides of the new
    point: no third ray is tight wherever both are (the combinatorial
    test, on zero sets held as int bitmasks).
    """
    r = len(pts[0])
    if r == 0:
        return ()
    m = len(pts)
    total = [sum(col) for col in zip(*pts)]
    order = sorted(pts, key=lambda q: (-sum((m * v - t) ** 2 for v, t in zip(q, total)), q))
    simplex = [order[0]]
    for q in order[1:]:
        diffs = [tuple(a - b for a, b in zip(s, order[0])) for s in simplex[1:] + [q]]
        if len(_reduced_basis(diffs, r)) == len(diffs):
            simplex.append(q)
            if len(simplex) == r + 1:
                break
    rest = [q for q in order if q not in simplex]
    lifted = [tuple(-v for v in q) + (1,) for q in simplex + rest]

    rays = []
    zeros = []
    for j, qj in enumerate(simplex):
        face = [q for q in simplex if q != qj]
        (a,) = _null_space(_reduced_basis(
            [tuple(x - y for x, y in zip(q, face[0])) for q in face[1:]], r), r)
        v = a + (_dot(a, face[0]),)
        if _dot(v, lifted[j]) < 0:
            v = tuple(-x for x in v)
        rays.append(v)
        zeros.append(((1 << (r + 1)) - 1) ^ (1 << j))

    least = r - 1  # the rank a common zero set of adjacent rays needs
    for k in range(r + 1, len(lifted)):
        h = lifted[k]
        bit = 1 << k
        slack = [_dot(v, h) for v in rays]
        neg = [(v, s, z) for v, s, z in zip(rays, slack, zeros) if s < 0]
        new = []
        for vi, si, zi in zip(rays, slack, zeros) if neg else ():
            if si <= 0:
                continue
            for vj, sj, zj in neg:
                common = zi & zj
                # distinct extreme rays have distinct zero sets
                if common.bit_count() < least or any(
                        (z & common) == common and z != zi and z != zj for z in zeros):
                    continue
                new.append((tuple(_primitive([si * x - sj * y for x, y in zip(vj, vi)])),
                            common | bit))
        kept = [(v, z | bit if s == 0 else z)
                for v, s, z in zip(rays, slack, zeros) if s >= 0] + new
        rays = [v for v, _ in kept]
        zeros = [z for _, z in kept]
    return tuple(sorted((v[:-1], v[-1]) for v in rays))


def _dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(map(mul, u, v))


# ---------------------------------------------------------------------------
# Queries against the cached representation
# ---------------------------------------------------------------------------


def _scaled(x: Sequence) -> tuple:
    """(s, s*x) with s the lcm of the denominators of x, so that s*x is
    an integer vector; s = 1 for an integer x, which skips Fraction."""
    if all(type(v) is int for v in x):
        return 1, tuple(x)
    x = tuple(Fraction(v) for v in x)
    s = lcm(*(v.denominator for v in x))
    return s, tuple(int(v * s) for v in x)


def contains_point(P: LatticePolytope, x: Sequence) -> bool:
    """Exact test x in conv(P.points); x may have rational coordinates."""
    x = tuple(x)
    if len(x) != P.dim:
        raise ValueError("dimension mismatch in contains_point")
    if not P.points:
        return False
    s, X = _scaled(x)
    if s == 1 and X in P.point_set:
        return True
    for v, (lo, hi) in zip(X, P.box):
        if not lo * s <= v <= hi * s:
            return False
    H = P.hrep
    if any(_dot(u, X) != c * s for u, c in H.equalities):
        return False
    Xp = [X[c] for c in H.pivots]
    return all(_dot(a, Xp) <= b * s for a, b in H.facets)


def polytope_contained(A: LatticePolytope, B: LatticePolytope) -> bool:
    """Hull containment conv(A) within conv(B): test every generator."""
    if A.dim != B.dim:
        raise ValueError("dimension mismatch in polytope_contained")
    return all(contains_point(B, p) for p in A.points)


def is_vertex(P: LatticePolytope, x: Sequence[int]) -> bool:
    """True when x is a vertex of conv(P.points): a generator at which
    the tight facets have rank equal to the affine dimension.  A
    one-point polytope's point is a vertex; a point that is not a
    generator is never one."""
    x = tuple(int(v) for v in x)
    if x not in P.point_set:
        return False
    H = P.hrep
    xp = [x[c] for c in H.pivots]
    tight = [a for a, b in H.facets if _dot(a, xp) == b]
    return len(_reduced_basis(tight, len(xp))) == len(xp)


# ---------------------------------------------------------------------------
# Planar pictures: sum-zero projection and SVG emission
# ---------------------------------------------------------------------------


def project_sum_zero(points: Iterable[Sequence[int]]) -> list:
    """Linear projection (e1 - e2, e1 + e2 - 2*e3), injective on the
    sum-zero plane of Z^3; keeps integer coordinates."""
    out = []
    for p in points:
        if len(p) != 3:
            raise ValueError("sum-zero projection needs 3 coordinates")
        out.append((p[0] - p[1], p[0] + p[1] - 2 * p[2]))
    return out


def hull_2d(points: Sequence[tuple]) -> list:
    """Convex hull in the plane (monotone chain), exact integer input."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return list(pts)

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


SVG_STYLE = (".ek-polygon { fill: #2b50c8; fill-opacity: 0.30; stroke: #2b50c8; "
             "stroke-width: 2; }\n"
             ".class-polygon { fill: #7a28b8; fill-opacity: 0.45; stroke: #7a28b8; "
             "stroke-width: 2; }\n"
             ".generator { fill: #222222; }\n"
             ".axis { stroke: #999999; stroke-width: 1; }")


SVG_SCALE = 32  # pixels per lattice step
SVG_MARGIN = 24  # pixels around the drawing


def render_svg(layers: Sequence[tuple]) -> str:
    """Deterministic SVG: layers are (css_class, list of 2D integer points).

    Every layer draws its convex hull as a polygon (or a segment/point)
    plus markers on the generators.
    """
    all_pts = [p for _, pts in layers for p in pts]
    if not all_pts:
        raise ValueError("nothing to draw")
    xs = [p[0] for p in all_pts]
    ys = [p[1] for p in all_pts]
    scale, margin = SVG_SCALE, SVG_MARGIN
    x0, x1 = min(xs + [0]), max(xs + [0])
    y0, y1 = min(ys + [0]), max(ys + [0])
    w = (x1 - x0) * scale + 2 * margin
    h = (y1 - y0) * scale + 2 * margin

    def pix(p):
        return (margin + (p[0] - x0) * scale, margin + (y1 - p[1]) * scale)

    lines = [f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {w} {h}">',
             f"<style>{SVG_STYLE}</style>"]
    ox, oy = pix((0, 0))
    lines.append(f'<line class="axis" x1="{margin // 2}" y1="{oy}" '
                 f'x2="{w - margin // 2}" y2="{oy}"/>')
    lines.append(f'<line class="axis" x1="{ox}" y1="{margin // 2}" '
                 f'x2="{ox}" y2="{h - margin // 2}"/>')
    for css, pts in layers:
        hull = hull_2d(pts)
        coords = " ".join(f"{x},{y}" for x, y in (pix(p) for p in hull))
        if len(hull) >= 3:
            lines.append(f'<polygon class="{css}" points="{coords}"/>')
        elif len(hull) == 2:
            (xa, ya), (xb, yb) = (pix(hull[0]), pix(hull[1]))
            lines.append(f'<line class="{css}" x1="{xa}" y1="{ya}" '
                         f'x2="{xb}" y2="{yb}"/>')
        for p in sorted(set(pts)):
            x, y = pix(p)
            lines.append(f'<circle class="generator" cx="{x}" cy="{y}" r="3"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
