import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from laguerrecert.polygon import (bruteforce_lower_hull, build_polygon,
                                  confirm_vertex_heights, polygon_from_points,
                                  rightmost_slope, step_polygon)
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


def _k_lo(points):
    return 1 + max((i for i, h in points if h < 1), default=-2)


def _chord_max(points):
    iN, hN = points[-1]
    return max(Fraction(hN - h, iN - i) for i, h in points if i < iN)


def assert_matches_dense(polygon, dense, max_points, label=None):
    """A polygon on some of a height function's points against the dense
    polygon on all of them: every kept point is a dense point, the vertices,
    k_lo and (with two points or more) the chord maximum are equal, and at
    most max_points points are kept."""
    heights = dict(dense.points)
    assert all(heights.get(i) == h for i, h in polygon.points), label
    assert polygon.vertices == dense.vertices, label
    assert _k_lo(polygon.points) == _k_lo(dense.points), label
    if len(dense.points) >= 2:
        assert _chord_max(polygon.points) == _chord_max(dense.points), label
    assert len(polygon.points) <= max_points, label


def _dense_heights(steps, end):
    """h(0) = 0, h(a+1) = h(a) + steps[a]: every point of the step function."""
    heights = [0]
    for a in range(end):
        heights.append(heights[-1] + steps.get(a, 0))
    return tuple(enumerate(heights))


_flat_runs = st.lists(st.tuples(st.integers(0, 5), st.integers(1, 40)),
                      min_size=1, max_size=40)


@settings(max_examples=60, deadline=None)
@given(_flat_runs)
def test_anchored_polygon_on_flat_runs_matches_all_points(runs):
    # the heights start at 0, as the verifier's do, and the hull is built on
    # the low end of each step only; its vertices, final slope and k_lo must
    # be those of all the points.  The part at i is 3 * 2**h, so every
    # anchor holds.
    heights = [0] + [h for h, length in runs for _ in range(length)][:299]
    last = len(heights) - 1
    steps = {i - 1: heights[i] - heights[i - 1] for i in range(1, last + 1)
             if heights[i] != heights[i - 1]}
    polygon = step_polygon(steps, last)
    confirm_vertex_heights(polygon, 2, [3 * 2 ** h for h in heights])
    every = tuple(enumerate(heights))
    full = polygon_from_points(every)
    assert_matches_dense(polygon, full, len(steps) + 2)
    if last >= 1:
        assert polygon.vertices == bruteforce_lower_hull(every).vertices
        assert rightmost_slope(polygon) == rightmost_slope(full) == _chord_max(every)


@st.composite
def _step_maps(draw):
    """(steps, end): events summed per abscissa, among them rises and drops
    that cancel at one abscissa (a zero entry), runs of consecutive events,
    and events at 0 and at end - 1."""
    end = draw(st.integers(1, 120))
    events = draw(st.lists(st.tuples(st.integers(0, end - 1), st.integers(-6, 6)),
                           max_size=30))
    for a, d in draw(st.lists(st.tuples(st.integers(0, end - 1), st.integers(1, 6)),
                              max_size=4)):
        events += [(a, d), (a, -d)]
    start = draw(st.integers(0, end - 1))
    events += [(a, draw(st.integers(-6, 6)))
               for a in range(start, min(end, start + draw(st.integers(0, 8))))]
    events += [(a, draw(st.integers(-6, 6)))
               for a in {0, end - 1} if draw(st.booleans())]
    steps = {}
    for a, d in events:
        steps[a] = steps.get(a, 0) + d
    return steps, end


@settings(max_examples=200, deadline=None)
@given(_step_maps())
def test_step_polygon_on_random_steps_matches_all_points(drawn):
    # the verifier's shape: flat between events, heights of either sign;
    # the kept points hold no abscissa twice and every vertex of all points
    steps, end = drawn
    polygon = step_polygon(steps, end)
    every = _dense_heights(steps, end)
    assert_matches_dense(polygon, bruteforce_lower_hull(every), len(steps) + 2)
    assert polygon.vertices == polygon_from_points(every).vertices
    assert rightmost_slope(polygon) == _chord_max(every)


def test_step_polygon_keeps_the_low_end_of_each_step():
    # heights 0 2 -1 -1 0 0 0 -1 1: a rise at 0 (foot 0), a drop at 1 (low
    # end 2), a rise at 3 (foot 3), a cancelled step at 4, a drop at 6 (low
    # end 7) and a rise at 7 (foot 7, kept once), so 8 is kept only as end
    steps = {0: 2, 1: -3, 3: 1, 4: 0, 6: -1, 7: 2}
    polygon = step_polygon(steps, 8)
    assert polygon.points == ((0, 0), (2, -1), (3, -1), (7, -1), (8, 1))
    assert polygon.vertices == ((0, 0), (2, -1), (7, -1), (8, 1))
    # a drop into the last abscissa keeps it once, a rise at the last step
    # keeps its foot and the end, and no step keeps the two ends alone
    assert step_polygon({2: -1}, 3).points == ((0, 0), (3, -1))
    assert step_polygon({2: 4}, 3).vertices == ((0, 0), (2, 0), (3, 4))
    assert step_polygon({}, 5).points == ((0, 0), (5, 0))
    assert step_polygon({1: 0}, 5).points == ((0, 0), (5, 0))
    for a in (-1, 5):
        with pytest.raises(ValueError, match=r"must lie in 0\.\.4"):
            step_polygon({a: 1}, 5)


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
