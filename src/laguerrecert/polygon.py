"""Lower boundary polygons of valuation points, with exact rational slopes.

Orientation: for an expansion f = sum b_i * phi**i of length n+1, the point
at abscissa i carries the valuation of b_{n-i}, so the x-axis counts down
from the leading part.  Many texts use the opposite convention; everything
in this package uses this one.  Floating point is forbidden here: slopes
and tie detection are exact Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, repeat
from operator import ne, sub

from .polyring import PhiExpansion, gauss_valuation
from .primes import _require_prime

Point = tuple[int, int]


@dataclass(frozen=True)
class NewtonPolygon:
    """Materialized points plus the vertices of their lower boundary.

    Vertices obey the construction rule: from each vertex, move along the
    chord of minimal slope, and among chords of equal minimal slope take
    the one reaching the largest abscissa (so edges absorb collinear
    interior points).  Slopes strictly increase left to right.
    """

    points: tuple[Point, ...]
    vertices: tuple[Point, ...]

    @property
    def edges(self) -> tuple[tuple[Point, Point, Fraction], ...]:
        out = []
        for (i0, h0), (i1, h1) in zip(self.vertices, self.vertices[1:]):
            out.append(((i0, h0), (i1, h1), Fraction(h1 - h0, i1 - i0)))
        return tuple(out)

    @property
    def slopes(self) -> tuple[Fraction, ...]:
        return tuple(e[2] for e in self.edges)

    def to_jsonable(self) -> dict:
        return {
            "vertices": [[i, h] for i, h in self.vertices],
            "slopes": [f"{s.numerator}/{s.denominator}" for s in self.slopes],
        }


def polygon_from_points(points) -> NewtonPolygon:
    """Lower boundary by Andrew's monotone chain on integer cross products.

    Scanning left to right, the last vertex is dropped while the chord from
    the one before it to the new point does not rise above it, so
    collinear points are absorbed into one edge (the greedy minimal-slope
    rule with ties going to the largest index yields the same vertices).
    """
    pts = sorted(points)
    if not pts:
        raise ValueError("need at least one point")
    if len({i for i, _ in pts}) != len(pts):
        raise ValueError("indices must be distinct")
    vertices: list[Point] = []
    for i, h in pts:
        while len(vertices) >= 2:
            (i0, h0), (i1, h1) = vertices[-2], vertices[-1]
            if (h1 - h0) * (i - i0) >= (h - h0) * (i1 - i0):
                vertices.pop()
            else:
                break
        vertices.append((i, h))
    for (i0, h0), (i1, h1), (i2, h2) in zip(vertices, vertices[1:], vertices[2:]):
        if (h1 - h0) * (i2 - i1) >= (h2 - h1) * (i1 - i0):
            raise ArithmeticError("polygon slopes must strictly increase")
    return NewtonPolygon(points=tuple(pts), vertices=tuple(vertices))


def anchored_polygon(heights, exact_height) -> NewtonPolygon:
    """Polygon of the points (i, heights[i]), each vertex re-checked.

    The heights are claimed valuations from some cheaper route;
    exact_height(i) recomputes the one at abscissa i directly.  Raises
    ArithmeticError unless the two agree at every vertex.

    The hull is built on the two ends of each flat run of equal heights,
    found in one pass that compares the heights with themselves shifted by
    one.  A point inside a flat run lies on the horizontal chord between
    the run's ends, so it is never a vertex, and the lower boundary of a
    subset holding every vertex is the boundary of all the points: the
    vertices are exactly those of all len(heights) points, which the
    returned polygon keeps.
    """
    heights = list(heights)
    last = len(heights) - 1
    starts = list(compress(range(1, last + 1), map(ne, heights[1:], heights)))
    ends = sorted({0, last, *starts, *map(sub, starts, repeat(1))}) if heights else []
    hull = polygon_from_points(zip(ends, map(heights.__getitem__, ends)))
    for i, h in hull.vertices:
        if exact_height(i) != h:
            raise ArithmeticError(f"height {h} at abscissa {i} disagrees with its anchor")
    return NewtonPolygon(points=tuple(enumerate(heights)), vertices=hull.vertices)


def build_polygon(expansion: PhiExpansion, p: int) -> NewtonPolygon:
    """Polygon of an expansion with respect to p, leading part at abscissa 0.

    Requires both the constant part and the leading part to be nonzero;
    a zero constant part means the base polynomial divides the target and
    must be stripped first.
    """
    _require_prime(p)
    parts = expansion.parts
    if not parts or parts[-1].is_zero:
        raise ValueError("expansion must have a nonzero leading part")
    if parts[0].is_zero:
        raise ValueError(
            "constant part is zero: the target is divisible by the base; "
            "strip that factor before building the polygon")
    n = expansion.n
    points = []
    for i in range(n + 1):
        part = parts[n - i]
        if not part.is_zero:
            points.append((i, gauss_valuation(p, part)))
    return polygon_from_points(points)


def bruteforce_lower_hull(points) -> NewtonPolygon:
    """Lower boundary recomputed from the pairwise-slope definition.

    Test oracle, O(n^2) and independent of the monotone chain: a point
    lies on the lower boundary iff its maximal slope from the left does not
    exceed its minimal slope to the right (no chord passes strictly below
    it), and it is a vertex iff that inequality is strict (equality means
    it sits inside a straight edge).
    """
    pts = sorted(points)
    if len(pts) < 2:
        raise ValueError("need at least two points")
    if len({i for i, _ in pts}) != len(pts):
        raise ValueError("indices must be distinct")

    vertices = [pts[0]]
    for idx in range(1, len(pts) - 1):
        i, h = pts[idx]
        left_max = max(Fraction(h - hj, i - ij) for ij, hj in pts[:idx])
        right_min = min(Fraction(hj - h, ij - i) for ij, hj in pts[idx + 1:])
        if left_max < right_min:
            vertices.append((i, h))
    vertices.append(pts[-1])
    return NewtonPolygon(points=tuple(pts), vertices=tuple(vertices))


def rightmost_slope(polygon: NewtonPolygon) -> Fraction:
    """Slope of the final edge; cross-checked against the chord maximum.

    The final edge slope equals the maximum over all earlier points of the
    chord slope to the last vertex; both are compared by integer cross
    multiplication and must agree.
    """
    vertices = polygon.vertices
    if len(vertices) < 2:
        raise ValueError("polygon has no edges")
    (i0, h0), (iN, hN) = vertices[-2], vertices[-1]
    num, den = hN - h0, iN - i0
    chord = None
    for i, h in polygon.points:
        if i < iN and (chord is None or (hN - h) * chord[1] > chord[0] * (iN - i)):
            chord = (hN - h, iN - i)
    if chord is None or num * chord[1] != chord[0] * den:
        raise ArithmeticError("final edge must realize the maximal chord slope")
    return Fraction(num, den)
