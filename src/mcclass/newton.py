"""Lattice polytopes from Laurent supports, with an exact integer LP.

A polytope is stored as its generator set (deduplicated integer
vectors); the convex hull is never materialized.  Membership and
containment questions are decided by a phase-one simplex on a
fraction-free integer tableau (a rational query point is scaled to
integers once), so every answer is exact, never a float heuristic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .ring import LaurentPoly


class ZeroPolynomialError(ValueError):
    """The Newton polytope of the zero polynomial is undefined."""


@dataclass(frozen=True)
class LatticePolytope:
    """Finite set of integer generator vectors; hull implicit."""

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
# Exact feasibility: is x a convex combination of the generators?
# ---------------------------------------------------------------------------


def _convex_feasible(gens: Sequence[Sequence[int]], x: Sequence[Fraction]) -> bool:
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


def contains_point(P: LatticePolytope, x: Sequence) -> bool:
    """Exact test x in conv(P.points); x may have rational coordinates."""
    x = tuple(Fraction(v) for v in x)
    if len(x) != P.dim:
        raise ValueError("dimension mismatch in contains_point")
    if not P.points:
        return False
    if x in P.points:
        return True
    # cheap bounding-box refutation before the simplex
    for k in range(P.dim):
        col = [p[k] for p in P.points]
        if x[k] < min(col) or x[k] > max(col):
            return False
    return _convex_feasible(P.points, x)


def polytope_contained(A: LatticePolytope, B: LatticePolytope) -> bool:
    """Hull containment conv(A) within conv(B): test every generator."""
    if A.dim != B.dim:
        raise ValueError("dimension mismatch in polytope_contained")
    return all(contains_point(B, p) for p in A.points)


def is_vertex(P: LatticePolytope, x: Sequence[int]) -> bool:
    """True when x is a generator outside the hull of the remaining
    generators; a point that is not a generator is never a vertex."""
    x = tuple(int(v) for v in x)
    if x not in P.points:
        return False
    rest = [p for p in P.points if p != x]
    return not rest or not contains_point(LatticePolytope(P.dim, rest), x)


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


def render_svg(layers: Sequence[tuple], scale: int = 32, margin: int = 24) -> str:
    """Deterministic SVG: layers are (css_class, list of 2D integer points).

    Every layer draws its convex hull as a polygon (or a segment/point)
    plus markers on the generators.
    """
    all_pts = [p for _, pts in layers for p in pts]
    if not all_pts:
        raise ValueError("nothing to draw")
    xs = [p[0] for p in all_pts]
    ys = [p[1] for p in all_pts]
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
