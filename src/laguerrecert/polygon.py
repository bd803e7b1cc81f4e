"""Lower boundary polygons of valuation points, with exact rational slopes.

Orientation: for an expansion f = sum b_i * phi**i of length n+1, the point
at abscissa i carries the valuation of b_{n-i}, so the x-axis counts down
from the leading part.  Many texts use the opposite convention; everything
in this package uses this one.  Floating point is forbidden here: slopes
and tie detection are exact Fractions.

build_polygon values every part of an expansion.  The verifier's heights
are a step function of the abscissa with O(m/p) steps, and step_polygon
builds its polygon on the low end of each step alone: its vertices, the
largest abscissa of height below 1 and the rightmost slope's chord maximum
are those of all the points.  confirm_vertex_heights then checks the
claimed heights at the vertices only, against integers the caller builds
by another route.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .polyring import Poly, gauss_valuation
from .primes import _require_prime

Point = tuple[int, int]


class NewtonPolygon(NamedTuple):
    """Materialized points plus the vertices of their lower boundary.

    The points are every valued part (build_polygon), or only the ends,
    and the low end of each step, of a step function (step_polygon).

    Vertices obey the construction rule: from each vertex, move along the
    chord of minimal slope, and among chords of equal minimal slope take
    the one reaching the largest abscissa (so edges absorb collinear
    interior points).  Slopes strictly increase left to right.
    """

    points: tuple[Point, ...]
    vertices: tuple[Point, ...]

    @property
    def slopes(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(h1 - h0, i1 - i0) for (i0, h0), (i1, h1)
                     in zip(self.vertices, self.vertices[1:]))

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


def step_polygon(steps, end: int) -> NewtonPolygon:
    """Polygon of a step function's heights on 0..end, on the low end of each
    step only.

    The height is 0 at abscissa 0 and rises by steps[a] from a to a+1 (a
    negative value drops), so it is flat between the abscissas a in 0..end-1
    that steps holds with a nonzero value.  The polygon keeps 0, end and the
    low end of each such step: the foot a of a rise, a+1 after a drop, each
    abscissa once; at most len(steps) + 2 points.  No other point can matter:
    - A point i kept by no step is a weak local maximum: the step into it is
      a rise or flat (a drop would keep i) and the step out of it is a drop
      or flat (a rise would keep i).  A vertex needs the slope into it below
      the slope out of it, and here the first is >= 0 >= the second, so i is
      never a vertex, and the boundary of a subset holding every vertex is
      the boundary of all the points.
    - The largest i with h < 1 (exclusion_bounds' k_lo) is end, or the next
      height is at least 1, so the step at i is a rise and i its foot.
    - The chord slope (h_end - h)/(end - i) to the last point is largest at
      the last edge's left vertex, so the maximum that rightmost_slope
      cross-checks is the same on the kept points.
    polygon_from_points builds the hull, and the heights are claims until
    confirm_vertex_heights has checked them.
    """
    order = sorted(steps)
    if order and not 0 <= order[0] <= order[-1] < end:
        raise ValueError(f"step abscissas must lie in 0..{end - 1}")
    points = [(0, 0)]
    h = 0
    for a in order:
        step = steps[a]
        if step > 0 and points[-1][0] != a:
            points.append((a, h))
        h += step
        if step < 0:
            points.append((a + 1, h))
    if points[-1][0] != end:
        points.append((end, h))
    return polygon_from_points(points)


def confirm_vertex_heights(polygon: NewtonPolygon, p: int, anchors) -> None:
    """Check each vertex height h at abscissa i as the p-adic valuation of
    the integer anchors[i]: h >= 0, and r = anchors[i] mod p**(h+1) is
    nonzero and divisible by p**h, else ArithmeticError.

    Only the vertices are read, one anchor each, and each anchor is reduced
    once: r holds both conditions, p**h | c and p**(h+1) not dividing c.
    The heights between the vertices stand on the route that produced them.
    The anchors come from another route (the verifier builds them from the
    definition of the parts, its heights are telescoped along their ratio),
    so each checks the other.
    """
    for i, h in polygon.vertices:
        if h < 0 or not (r := anchors[i] % p ** (h + 1)) or r % p ** h:
            raise ArithmeticError(f"height {h} at abscissa {i} disagrees with its anchor")


def build_polygon(parts: tuple[Poly, ...], p: int) -> NewtonPolygon:
    """Polygon of the parts of an expansion (phi_expand) with respect to p,
    leading part at abscissa 0.

    Requires both the constant part and the leading part to be nonzero;
    a zero constant part means the base polynomial divides the target and
    must be stripped first.
    """
    _require_prime(p)
    if not parts or parts[-1].is_zero:
        raise ValueError("expansion must have a nonzero leading part")
    if parts[0].is_zero:
        raise ValueError(
            "constant part is zero: the target is divisible by the base; "
            "strip that factor before building the polygon")
    n = len(parts) - 1
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
    multiplication and must agree.  The maximum is reached at the final
    edge's left vertex, so a polygon that keeps every vertex of a larger
    point set, as step_polygon's does, has that set's maximum.
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
