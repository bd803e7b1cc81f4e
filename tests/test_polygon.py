import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from laguerrecert.polygon import (anchored_polygon, bruteforce_lower_hull,
                                  build_polygon, polygon_from_points,
                                  rightmost_slope)
from laguerrecert.polyring import Poly, X, phi_expand


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


_flat_runs = st.lists(st.tuples(st.integers(-3, 4), st.integers(1, 40)),
                      min_size=1, max_size=40)


@settings(max_examples=60, deadline=None)
@given(_flat_runs)
def test_anchored_polygon_on_flat_runs_matches_all_points(runs):
    # the hull is built on the ends of each flat run only; its vertices and
    # final slope must be those of all the points, which it keeps
    heights = [h for h, length in runs for _ in range(length)][:300]
    polygon = anchored_polygon(heights, heights.__getitem__)
    assert polygon.points == tuple(enumerate(heights))
    full = polygon_from_points(enumerate(heights))
    assert polygon.vertices == full.vertices
    if len(heights) >= 2:
        assert polygon.vertices == bruteforce_lower_hull(polygon.points).vertices
        assert rightmost_slope(polygon) == rightmost_slope(full)
