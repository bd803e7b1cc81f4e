import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from laguerrecert.polygon import (breakpoint_polygon, bruteforce_lower_hull,
                                  build_polygon, confirm_vertex_heights,
                                  polygon_from_points, rightmost_slope)
from laguerrecert.polyring import X, phi_expand


def test_single_edge_quadratic():
    polygon = build_polygon(phi_expand(X**2 + 8 * X + 12, X), 2)
    assert polygon.points == ((0, 0), (1, 3), (2, 2))
    assert polygon.vertices == ((0, 0), (2, 2))
    assert polygon.slopes == (Fraction(1),)
    brute = bruteforce_lower_hull(polygon.points)
    assert brute.vertices == polygon.vertices


def test_pure_power_rejected(phi17):
    with pytest.raises(ValueError, match="divisible by the base"):
        build_polygon(phi_expand(phi17**3, phi17), 5)


def test_two_point_unit_slope(phi17):
    polygon = build_polygon(phi_expand(phi17 + 2, phi17), 2)
    assert polygon.vertices == ((0, 0), (1, 1))
    assert rightmost_slope(polygon) == 1


def test_bruteforce_examples():
    hull = bruteforce_lower_hull([(0, 0), (1, 3), (2, 2)])
    assert hull.vertices == ((0, 0), (2, 2))
    hull = bruteforce_lower_hull([(0, 0), (1, 0)])
    assert hull.vertices == ((0, 0), (1, 0))
    assert hull.slopes == (Fraction(0),)
    hull = bruteforce_lower_hull([(0, 5), (3, 0)])
    assert hull.slopes == (Fraction(-5, 3),)


def test_bruteforce_rejects_degenerate_input():
    with pytest.raises(ValueError):
        bruteforce_lower_hull([(0, 1)])
    with pytest.raises(ValueError):
        bruteforce_lower_hull([(0, 1), (0, 2)])


def test_collinear_points_form_one_edge():
    polygon = polygon_from_points([(0, 0), (1, 1), (2, 2), (3, 3)])
    assert polygon.vertices == ((0, 0), (3, 3))
    assert bruteforce_lower_hull(polygon.points).vertices == polygon.vertices


def test_missing_interior_points_allowed():
    polygon = polygon_from_points([(0, 2), (3, 0), (5, 4)])
    assert polygon.vertices == ((0, 2), (3, 0), (5, 4))
    assert polygon.slopes == (Fraction(-2, 3), Fraction(2))


def test_rightmost_slope_flat():
    polygon = polygon_from_points([(0, 1), (1, 1), (2, 1)])
    assert rightmost_slope(polygon) == 0


def test_rightmost_slope_requires_edge():
    with pytest.raises(ValueError):
        rightmost_slope(polygon_from_points([(0, 3)]))


def test_rightmost_slope_on_coefficient_vector():
    # two-level family at m=8, parameter 1, prime 7: valuations of the
    # coefficients of the monic model, leading part at abscissa 0
    from laguerrecert.laguerre import laguerre_coefficients
    from laguerrecert.primes import vp_rat

    b = laguerre_coefficients(8, 1) + (Fraction(1),)
    points = [(8 - j, vp_rat(7, b[j])) for j in range(9)]
    polygon = polygon_from_points(points)
    assert rightmost_slope(polygon) == Fraction(1, 7)
    v0 = vp_rat(7, b[0])
    assert rightmost_slope(polygon) == max(
        Fraction(v0 - vp_rat(7, b[j]), j) for j in range(1, 9))


def test_to_jsonable_slope_strings():
    polygon = polygon_from_points([(0, 5), (3, 0)])
    data = polygon.to_jsonable()
    assert data == {"vertices": [[0, 5], [3, 0]], "slopes": ["-5/3"]}


def _on_or_above(point, v0, v1):
    (x, y), (x0, y0), (x1, y1) = point, v0, v1
    if not x0 <= x <= x1:
        return True
    return Fraction(y) >= Fraction(y0) + Fraction(y1 - y0, x1 - x0) * (x - x0)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_greedy_matches_bruteforce(seed):
    rng = random.Random(seed)
    n = rng.randrange(2, 31)
    indices = sorted(rng.sample(range(0, 40), n))
    points = [(i, rng.randrange(0, 21)) for i in indices]
    greedy = polygon_from_points(points)
    brute = bruteforce_lower_hull(points)
    assert greedy.vertices == brute.vertices
    slopes = greedy.slopes
    assert all(a < b for a, b in zip(slopes, slopes[1:]))
    for point in points:
        assert any(_on_or_above(point, v0, v1)
                   for v0, v1 in zip(greedy.vertices, greedy.vertices[1:])) or \
            point in greedy.vertices
    chord = max(Fraction(greedy.vertices[-1][1] - h, greedy.vertices[-1][0] - i)
                for i, h in points if i < greedy.vertices[-1][0])
    assert rightmost_slope(greedy) == chord


def _random_hull_input(rng):
    """Distinct abscissas in 0..1000, heights of either sign, and often a
    long run of collinear points (sometimes nothing else)."""
    points = {}
    if rng.random() < 0.6:
        dx, dh = rng.randrange(1, 40), rng.randrange(-20, 21)
        length = rng.randrange(2, 40)
        i0, h0 = rng.randrange(0, 200), rng.randrange(-50, 51)
        for t in range(length):
            if i0 + t * dx > 1000:
                break
            points[i0 + t * dx] = h0 + t * dh
    if not points or rng.random() < 0.8:
        for i in rng.sample(range(0, 1001), rng.randrange(1, 40)):
            points.setdefault(i, rng.randrange(-60, 61))
    return sorted(points.items())


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_monotone_chain_matches_bruteforce_wide(seed):
    rng = random.Random(seed)
    points = _random_hull_input(rng)
    polygon = polygon_from_points(points)
    if len(points) == 1:
        assert polygon.vertices == tuple(points)
        with pytest.raises(ValueError):
            rightmost_slope(polygon)
        return
    assert polygon.vertices == bruteforce_lower_hull(points).vertices
    slopes = polygon.slopes
    assert all(a < b for a, b in zip(slopes, slopes[1:]))
    iN, hN = polygon.vertices[-1]
    chord = max(Fraction(hN - h, iN - i) for i, h in points if i < iN)
    assert rightmost_slope(polygon) == chord


def test_monotone_chain_absorbs_collinear_runs():
    run = [(3 * t, 7 - 2 * t) for t in range(200)]
    polygon = polygon_from_points(run)
    assert polygon.vertices == (run[0], run[-1])
    assert rightmost_slope(polygon) == Fraction(-2, 3)
    # a point below the middle of the run splits it into two edges
    polygon = polygon_from_points(run[:100] + [(300, -200)] + run[101:])
    assert polygon.vertices == (run[0], (300, -200), run[-1])
    assert polygon.vertices == bruteforce_lower_hull(polygon.points).vertices


def test_single_point_polygon():
    polygon = polygon_from_points([(5, -3)])
    assert polygon.vertices == ((5, -3),) and polygon.slopes == ()


def interpolate_breakpoints(points):
    """Every integer point from the first breakpoint to the last, on the
    straight segments between consecutive breakpoints (heights as exact
    Fractions, so a segment that misses the integers shows)."""
    out = [points[0]]
    for (i0, h0), (i1, h1) in zip(points, points[1:]):
        out.extend((i, h0 + Fraction((h1 - h0) * (i - i0), i1 - i0))
                   for i in range(i0 + 1, i1 + 1))
    return tuple(out)


def _k_lo(points):
    return 1 + max((i for i, h in points if h < 1), default=-2)


def _chord_max(points):
    iN, hN = points[-1]
    return max(Fraction(hN - h, iN - i) for i, h in points if i < iN)


_flat_runs = st.lists(st.tuples(st.integers(0, 5), st.integers(1, 40)),
                      min_size=1, max_size=40)


@settings(max_examples=60, deadline=None)
@given(_flat_runs)
def test_anchored_polygon_on_flat_runs_matches_all_points(runs):
    # the hull is built on the two ends of each flat run only; its vertices,
    # final slope and k_lo must be those of all the points.  The part at i
    # is 3 * 2**h, so every anchor holds.
    heights = [h for h, length in runs for _ in range(length)][:300]
    last = len(heights) - 1
    starts = [i for i in range(1, last + 1) if heights[i] != heights[i - 1]]
    ends = sorted({0, last, *starts, *(i - 1 for i in starts)})
    polygon = breakpoint_polygon([(i, heights[i]) for i in ends])
    confirm_vertex_heights(polygon, 2, [3 * 2 ** h for h in heights])
    every = tuple(enumerate(heights))
    assert interpolate_breakpoints(polygon.points) == every
    full = polygon_from_points(every)
    assert polygon.vertices == full.vertices
    assert _k_lo(polygon.points) == _k_lo(every)
    if len(heights) >= 2:
        assert polygon.vertices == bruteforce_lower_hull(every).vertices
        assert rightmost_slope(polygon) == rightmost_slope(full) == _chord_max(every)
        assert _chord_max(polygon.points) == _chord_max(every)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 120), st.integers(0, 3),
       st.lists(st.tuples(st.integers(0, 119), st.integers(-6, 6)), max_size=30))
def test_anchored_polygon_on_sheared_breakpoints_matches_all_points(m, shear, events):
    # the step between abscissas a and a+1 is -shear plus an event's delta,
    # so the heights run along straight segments between the breakpoints 0,
    # m, a, a+1 (shear 0 is the verifier's own shape: flat between events);
    # they are lifted until none is negative, and the part at i is 2**h
    deltas = {}
    for a, d in events:
        if a < m:
            deltas[a] = deltas.get(a, 0) + d
    heights = [m * shear]
    for a in range(m):
        heights.append(heights[-1] - shear - deltas.get(a, 0))
    lift = max(0, -min(heights))
    heights = [h + lift for h in heights]
    every = tuple(enumerate(heights))
    breaks = sorted({0, m, *deltas, *(a + 1 for a in deltas)})
    polygon = breakpoint_polygon([(i, heights[i]) for i in breaks])
    confirm_vertex_heights(polygon, 2, [2 ** h for h in heights])
    assert len(polygon.points) <= 2 * len(deltas) + 2
    assert interpolate_breakpoints(polygon.points) == every
    assert polygon.vertices == bruteforce_lower_hull(every).vertices
    assert _k_lo(polygon.points) == _k_lo(every)
    assert _chord_max(polygon.points) == _chord_max(every) == rightmost_slope(polygon)


class _CountedAnchor(int):
    """An anchor that records each reduction modulo a prime power."""

    reductions = 0

    def __mod__(self, other):
        _CountedAnchor.reductions += 1
        return int(self) % other


def test_confirm_vertex_heights_reduces_each_anchor_once():
    # vertices (0, 0), (2, 1), (4, 5) at p = 3; the anchor at i has exact
    # valuation h there, and a valuation one higher or lower is refused
    polygon = polygon_from_points([(0, 0), (1, 4), (2, 1), (3, 6), (4, 5)])
    assert polygon.vertices == ((0, 0), (2, 1), (4, 5))
    good = {0: 2, 2: 2 * 3, 4: 5 * 3 ** 5}
    _CountedAnchor.reductions = 0
    confirm_vertex_heights(polygon, 3, {i: _CountedAnchor(c) for i, c in good.items()})
    assert _CountedAnchor.reductions == 3  # c_0's anchor among them, once each
    for i, c in good.items():
        for bad in [c * 3] + [c // 3] * (c % 3 == 0):
            with pytest.raises(ArithmeticError, match=f"at abscissa {i} disagrees"):
                confirm_vertex_heights(polygon, 3, {**good, i: bad})
    with pytest.raises(ArithmeticError):
        confirm_vertex_heights(polygon_from_points([(0, -1), (1, 0)]), 3, {0: 1, 1: 1})
