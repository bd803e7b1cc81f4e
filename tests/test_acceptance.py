"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
print.  Every comparison is exact (integers and Fractions throughout);
the only tolerances are the wall-clock budgets, asserted per criterion.
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from laguerrecert.certify import (Certificate, FailureReport, certify,
                                  verify_certificate)
from laguerrecert.laguerre import build_instance, laguerre_coefficients
from laguerrecert.oracle import (FactorWitness, oracle_verdict,
                                 search_reducible_witness, verify_witness)
from laguerrecert.polygon import (PhiExpansion, bruteforce_lower_hull,
                                  build_polygon, polygon_from_points,
                                  rightmost_slope)
from laguerrecert.polyring import (Poly, X, check_phi, construct_phi,
                                   parse_poly, phi_expand, primitive_part)
from laguerrecert.primes import factorial_valuation, sieve_primes, vp_rat
from laguerrecert.tables import (EXPECTED_EQUATION_SOLUTIONS, EXPECTED_PAIR_SETS,
                                 K1_QUOTED_SETS, WITNESS_PRIME_TABLE, Report,
                                 k1_no_good_prime_set, k_witness_valid,
                                 product_lpf_pairs, solve_power_equation,
                                 verify_equations, verify_k1_subcases,
                                 witness_primes)

PHI = parse_poly("x^2 - x + 17")
EXCEPTIONAL = {(1, 0), (2, 2), (4, 4), (6, 4)}


@contextmanager
def criterion(number, budget, description):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number:02d} FAIL: {description}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget, \
        f"criterion {number} exceeded its {budget}s budget ({elapsed:.2f}s)"
    print(f"\nACCEPTANCE {number:02d} PASS: {description} "
          f"({elapsed:.2f}s / {budget}s)")


def ones_instance(m, u, a_m=1, relaxed=False, phi=PHI):
    return build_instance(m, u, a_m, [Poly.const(1)] * m, phi, relaxed=relaxed)


def test_criterion_01_reducible_rows_golden():
    rows = [
        # (alpha, a2, a1, a0, scale, factors, which multiplier is even)
        (1, 3, 1, -4, Fraction(3, 2), (4, -2), "low"),
        (2, 1, 1, -4, Fraction(1, 2), (-4, 12), "low"),
        (3, 1, 1, -10, Fraction(1, 2), (-10, 20), "low"),
        (4, 3, 1, -6, Fraction(3, 2), (10, -6), "low"),
        (1, 6, 2, 1, Fraction(3), (1, 1), "lead"),
        (2, 4, 1, -1, Fraction(2), (3, -1), "lead"),
        (3, 2, 1, -5, Fraction(1), (10, -5), "lead"),
        (4, 18, 1, -1, Fraction(1), None, "lead"),  # (y-1)(9y+15)
    ]
    with criterion(1, 1.0, "all 8 reducible rows expand exactly and the "
                           "broken hypothesis is detected"):
        for alpha, a2, a1, a0, scale, shifts, which in rows:
            inst = build_instance(2, alpha, a2,
                                  [Poly.const(a0), Poly.const(a1)], PHI,
                                  relaxed=True)
            if shifts is not None:
                expected = (PHI + shifts[0]) * (PHI + shifts[1]) * scale
            else:
                expected = (PHI - 1) * (9 * PHI + 15) * scale
            assert inst.laguerre_polynomial == expected, f"row alpha={alpha}"
            if which == "low":
                assert a0 % 2 == 0
            else:
                assert a2 % 2 == 0
            assert any("divisible by 2" in v for v in inst.violations)


def test_criterion_02_worked_example_grid():
    with criterion(2, 10.0, "40-instance grid certifies and every "
                            "certificate re-verifies"):
        for m in (3, 5, 7, 8, 9, 10, 11, 12):
            for u in range(5):
                inst = ones_instance(m, u)
                cert = certify(inst)
                assert isinstance(cert, Certificate), (m, u)
                assert verify_certificate(cert, inst), (m, u)


def test_criterion_03_exceptional_pairs():
    with criterion(3, 30.0, "certification fails exactly at the four "
                            "exceptional pairs; explicit reducible "
                            "witnesses verify"):
        failures = {}
        for m in range(1, 13):
            for u in range(5):
                inst = ones_instance(m, u, relaxed=True)
                assert inst.is_valid, (m, u)
                result = certify(inst)
                if isinstance(result, FailureReport):
                    failures[(m, u)] = result
        assert set(failures) == EXCEPTIONAL
        assert failures[(1, 0)].small_degree_prime is None
        assert failures[(2, 2)].uncovered == (1,)
        assert failures[(4, 4)].uncovered == (1,)
        assert failures[(6, 4)].uncovered == (2, 3)

        found = search_reducible_witness(1, 0, PHI, 17)
        assert found is not None and verify_witness(found[0].f, found[1])
        found = search_reducible_witness(2, 2, PHI, 1)
        assert found is not None and verify_witness(found[0].f, found[1])

        # the documented witnesses themselves
        inst = build_instance(1, 0, 1, [parse_poly("x - 17")], PHI)
        assert inst.f == X**2
        inst = build_instance(2, 2, 1, [Poly.const(1), Poly.const(1)], PHI,
                              relaxed=True)
        assert inst.f == (PHI + 2) * (PHI + 6)
        # the (4, 4) member over phi = x that `witness-search -m 4 -u 4
        # --phi x --bound 2` finds: a_4 = -1, (a_0, ..., a_3) = (1, -2, 2, -1)
        inst = build_instance(4, 4, -1, [Poly.const(a) for a in (1, -2, 2, -1)], X)
        assert inst.is_valid
        g, h = parse_poly("x - 10"), parse_poly("x^3 + 42x^2 - 252x + 168")
        assert inst.f == -(g * h)
        assert verify_witness(inst.f, FactorWitness(g=g, h=h, c=Fraction(-1)))


def test_criterion_04_pair_sets_at_hundred_thousand():
    with criterion(4, 60.0, "window scans up to 100000 reproduce all four "
                            "pair sets (19 pairs)"):
        total = 0
        for t in (1, 2, 3, 4):
            got = product_lpf_pairs(t, 10**5)
            assert got == EXPECTED_PAIR_SETS[t], t
            total += len(got)
        assert total == 19


def test_criterion_05_exponential_equations():
    with criterion(5, 5.0, "all six equations at exponent bound 60 match; "
                           "zero-exponent entries flagged"):
        for eq_id, expected in EXPECTED_EQUATION_SOLUTIONS.items():
            assert solve_power_equation(eq_id, 60) == expected, eq_id
        report = Report()
        verify_equations(report, 60)
        flagged = [c for c in report.checks if c.check_id == "equation-iii-flagged"]
        assert len(flagged) == 2 and all(c.passed for c in flagged)


def test_criterion_06_witness_prime_rows():
    with criterion(6, 5.0, "every populated witness-prime row verifies; "
                           "both bare rows are prime-free"):
        populated = bare = 0
        for u, k, m, p in WITNESS_PRIME_TABLE:
            if p is None:
                assert witness_primes(m, u, k) == [], (u, k, m)
                bare += 1
                continue
            ok, slope = k_witness_valid(m, u, k, p)
            assert ok and slope < Fraction(1, k), (u, k, m, p)
            vec = [vp_rat(p, b) for b in laguerre_coefficients(m, u)]
            assert all(vec[j] >= 1 for j in range(m - k + 1)), (u, k, m, p)
            populated += 1
        assert populated == 15 and bare == 2


def test_criterion_07_k1_subcases():
    with criterion(7, 10.0, "k=1 exceptional sets reproduce exactly up to "
                            "1000 and every substitute prime validates"):
        assert k1_no_good_prime_set(2, 1000) - {2} == K1_QUOTED_SETS[2]
        assert k1_no_good_prime_set(3, 1000) == K1_QUOTED_SETS[3]
        assert k1_no_good_prime_set(4, 1000) - {6, 50} == K1_QUOTED_SETS[4]
        assert K1_QUOTED_SETS[2] == {4, 6, 16}
        assert K1_QUOTED_SETS[3] == {3, 6, 9, 24}
        assert K1_QUOTED_SETS[4] == {2, 4, 5, 8, 12, 16, 20, 32, 36, 60, 96, 320}
        for u in range(5):
            report = Report()
            verify_k1_subcases(report, u, 1000)
            assert report.passed, report.failures()


def test_criterion_08_polygon_property_suite():
    with criterion(8, 10.0, "1000 random expansions: monotone chain equals "
                            "brute force, slopes increase, points stay "
                            "above, rightmost equals the chord maximum"):
        rng = random.Random(1008)
        base = X**2 + X + 1
        for _ in range(1000):
            p = rng.choice([2, 3, 5, 7])
            n = rng.randrange(1, 31)
            parts = []
            for i in range(n + 1):
                if 0 < i < n and rng.random() < 0.15:
                    parts.append(Poly())
                    continue
                height = rng.randrange(0, 21)
                unit = Poly([rng.randrange(1, p), rng.randrange(0, p)])
                parts.append(unit * p**height)
            expansion = PhiExpansion(phi=base, parts=tuple(parts))
            polygon = build_polygon(expansion, p)
            if len(polygon.points) >= 2:
                brute = bruteforce_lower_hull(polygon.points)
                assert brute.vertices == polygon.vertices
            slopes = polygon.slopes
            assert all(a < b for a, b in zip(slopes, slopes[1:]))
            for (i, h) in polygon.points:
                covered = False
                for (i0, h0), (i1, h1) in zip(polygon.vertices,
                                              polygon.vertices[1:]):
                    if i0 <= i <= i1:
                        line = Fraction(h0) + Fraction(h1 - h0, i1 - i0) * (i - i0)
                        assert Fraction(h) >= line, (i, h)
                        covered = True
                assert covered or len(polygon.vertices) == 1
            if slopes:
                iN, hN = polygon.vertices[-1]
                chord = max(Fraction(hN - h, iN - i)
                            for i, h in polygon.points if i < iN)
                assert rightmost_slope(polygon) == chord


def test_criterion_09_coefficient_identities():
    with criterion(9, 10.0, "both coefficient forms agree on the full grid "
                            "and valuation gaps obey the factorial bound"):
        # the constructor cross-checks the two closed forms on every call
        for v in range(1, 6):
            for u in range(0, 10):
                if math.gcd(u, v) != 1:
                    continue
                for m in range(1, 61):
                    b = laguerre_coefficients(m, Fraction(u, v))
                    assert len(b) == m and all(x != 0 for x in b)
        rng = random.Random(1009)
        for _ in range(500):
            v = rng.choice([1, 1, 2, 3, 5])
            u = rng.randrange(0, 10)
            if math.gcd(u, v) != 1:
                continue
            m = rng.randrange(1, 40)
            p = rng.choice([2, 3, 5, 7, 11, 13])
            if v % p == 0:
                continue
            b = laguerre_coefficients(m, Fraction(u, v))
            v0 = vp_rat(p, b[0])
            for j in range(1, m):
                gap = v0 - vp_rat(p, b[j])
                cap = factorial_valuation(p, v * j + abs(u))
                assert gap <= cap
                assert cap < Fraction(v * j + abs(u), p - 1) or v * j + abs(u) == 0


def _random_valid_instance(rng):
    while True:
        m = rng.randrange(1, 11)
        u = rng.randrange(0, 5)
        a_m = rng.choice([c for c in range(-9, 10) if c])
        parts = [Poly([rng.randrange(-9, 10), rng.randrange(-9, 10)])
                 for _ in range(m)]
        if parts[0].is_zero:
            continue
        from laguerrecert.polyring import content

        c0 = abs(a_m) * content(parts[0])
        if any(c0 % p == 0 for p in sieve_primes(m + u)):
            continue
        return build_instance(m, u, a_m, parts, PHI)


def test_criterion_10_oracle_soundness_sweep():
    with criterion(10, 120.0, "2000 random instances: certified means never "
                              "oracle-reducible; reducible verdicts carry "
                              "verified witnesses"):
        rng = random.Random(1010)
        certified = reducible = 0
        for _ in range(2000):
            inst = _random_valid_instance(rng)
            result = certify(inst)
            verdict = oracle_verdict(primitive_part(inst.f), 60)
            if isinstance(result, Certificate):
                certified += 1
                assert verdict.kind != "reducible", inst
            if verdict.kind == "reducible":
                reducible += 1
                assert verify_witness(primitive_part(inst.f), verdict.witness)
        assert certified > 1500  # the sweep must actually exercise the certifier


def test_criterion_11_scale_with_constructed_base():
    with criterion(11, 60.0, "constructed base passes its own check and the "
                             "pipeline certifies every admissible m up to "
                             "the prime bound 53"):
        base = construct_phi(2, 53)
        assert check_phi(base, 53)
        spot = []
        for u in range(5):
            for m in range(1, 54 - u):
                inst = ones_instance(m, u, phi=base)
                result = certify(inst)
                if (m, u) in EXCEPTIONAL:
                    assert isinstance(result, FailureReport), (m, u)
                else:
                    assert isinstance(result, Certificate), (m, u)
                    spot.append((inst, result))
        rng = random.Random(1011)
        for inst, cert in rng.sample(spot, 12):
            assert verify_certificate(cert, inst)
