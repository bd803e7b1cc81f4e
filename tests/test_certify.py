import importlib
import json
import math
import os
import pathlib
import re
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from laguerrecert import laguerre
from laguerrecert.certify import (Certificate, ExclusionWitness, FailureReport,
                                  NoSmallDegreePrime, _small_degree_failure,
                                  _telescoped_polygon,
                                  certificate_from_json,
                                  certificate_to_json, certify, coverage_complete,
                                  exclude_small_degrees, exclusion_bounds,
                                  find_prime_for_k, lemma_exclusion_check,
                                  verify_certificate, witness_range, witness_slope)
from laguerrecert.laguerre import (HypothesisViolation, LaguerreInstance, build_instance,
                                   coefficient_valuations, laguerre_coefficients,
                                   ratio_identity_parts)
from laguerrecert.polygon import anchored_polygon, build_polygon
from laguerrecert.polyring import (PhiExpansion, Poly, construct_phi, content,
                                   is_irreducible_mod_p, parse_poly, phi_expand)
from laguerrecert.primes import sieve_primes, vp_int, vp_rat
from laguerrecert.tables import k_witness_valid

# the package re-exports the function certify, which shadows the module name
cm = importlib.import_module("laguerrecert.certify")


def ones(phi, m, u, a_m=1, relaxed=False):
    return build_instance(m, u, a_m, [Poly.const(1)] * m, phi, relaxed=relaxed)


# -- small-degree exclusion ------------------------------------------------------

def test_small_degree_examples(phi17):
    assert exclude_small_degrees(ones(phi17, 3, 0)) == 3
    assert exclude_small_degrees(ones(phi17, 2, 2, relaxed=True)) == 2
    with pytest.raises(NoSmallDegreePrime):
        exclude_small_degrees(ones(phi17, 1, 0))
    # each other reason a real instance can reach: vm+u = 3 divides a_m = 3,
    # and x^2 - x + 17 = x(x - 1) modulo 17 = vm+u
    with pytest.raises(NoSmallDegreePrime, match="^prime 3 divides the leading multiplier$"):
        exclude_small_degrees(ones(phi17, 3, 0, a_m=3, relaxed=True))
    with pytest.raises(NoSmallDegreePrime, match="^base polynomial is reducible modulo 17$"):
        exclude_small_degrees(ones(phi17, 17, 0, relaxed=True))
    with pytest.raises(NoSmallDegreePrime, match="^base polynomial is reducible modulo 17$"):
        exclude_small_degrees(ones(phi17, 7, Fraction(3, 2), relaxed=True))


def _fraction_small_degree_failure(inst, b, p):
    # the predicate on the numerators and denominators of the Fractions b,
    # as the certifier and the verifier each spelled it before the integer model
    if inst.prime_bound % p != 0:
        return f"prime {p} does not divide vm+u = {inst.prime_bound}"
    if inst.a_m % p == 0:
        return f"prime {p} divides the leading multiplier"
    if any(bj.numerator % p != 0 or bj.denominator % p == 0 for bj in b):
        return f"prime {p} misses a lower coefficient"
    if not is_irreducible_mod_p(inst.phi, p):
        return f"base polynomial is reducible modulo {p}"
    return None


def test_small_degree_failure_matches_fraction_predicate(phi17, product_form):
    reasons = set()
    for v in (1, 2, 3, 5):
        for u in range(-7, 8):
            if math.gcd(u, v) != 1 or (v == 1 and u < 0):
                continue  # not in lowest terms, or a negative integer
            alpha = Fraction(u, v)
            for m in range(1, 31):
                b = product_form(m, alpha)
                for a_m in (1, 6):
                    inst = build_instance(m, alpha, a_m, [Poly.const(1)] * m, phi17,
                                          relaxed=True)
                    for p in sieve_primes(v * m + u + 10):
                        got = _small_degree_failure(inst, p)
                        expected = _fraction_small_degree_failure(inst, b, p)
                        assert got == expected, (m, alpha, a_m, p)
                        reasons.add(got if got is None else re.sub(r"-?\d+", "#", got))
                        if (v * m + u) % p == 0:
                            # vm+u is a factor of every c_j, so no reason reads them
                            assert all(c % p == 0 for c in inst.cleared), (m, alpha, p)
                        if v % p:
                            # off the vm+u divisors too: p | v**m b_j iff v_p(b_j) >= 1
                            assert (any(c % p for c in inst.cleared)
                                    == any(bj.numerator % p != 0 or bj.denominator % p == 0
                                           for bj in b)), (m, alpha, p)
    assert reasons == {None, "prime # does not divide vm+u = #",
                       "prime # divides the leading multiplier",
                       "base polynomial is reducible modulo #"}


def test_certify_reads_no_cleared_coefficient(monkeypatch):
    # build, certify and JSON stay on small integers; the verifier builds the
    # c_j the first time it reads them
    m, u, base = 60, 2, construct_phi(2, 62)
    plain = certificate_to_json(certify(ones(base, m, u)))
    calls = []
    real = laguerre._cleared_coefficients
    real.cache_clear()

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(laguerre, "_cleared_coefficients", counting)
    inst = ones(base, m, u)
    cert = certify(inst)
    assert certificate_to_json(cert) == plain
    assert calls == []
    assert verify_certificate(cert, ones(base, m, u))
    assert len(calls) >= 1


def test_small_degree_prime_is_smallest_factor(phi17):
    assert exclude_small_degrees(ones(phi17, 5, 4)) == 3  # 9 = 3*3
    assert exclude_small_degrees(ones(phi17, 8, 4)) == 2  # 12


# -- witness search ---------------------------------------------------------------

def test_find_prime_tabulated_rows(phi17):
    w = find_prime_for_k(ones(phi17, 8, 2), 3)
    assert (w.k, w.p) == (3, 7) and w.slope < Fraction(1, 3)

    base = construct_phi(2, 53)  # m+u = 50 needs a base good beyond 17
    w = find_prime_for_k(ones(base, 46, 4), 3)
    assert (w.k, w.p) == (3, 11) and w.slope < Fraction(1, 3)
    # the tabulated prime 23 still witnesses k = 3; 11 is merely smaller
    assert k_witness_valid(46, 4, 3, 23)[0]


def test_find_prime_corrected_row():
    base = construct_phi(2, 11)
    w = find_prime_for_k(ones(base, 5, 4), 2)
    assert (w.k, w.p) == (2, 5)


def test_find_prime_none_for_uncoverable(phi17):
    inst = ones(phi17, 6, 4)
    assert find_prime_for_k(inst, 2) is None
    assert find_prime_for_k(inst, 3) is None
    w = find_prime_for_k(inst, 1)
    assert w is not None and w.p == 3 and w.slope < 1


def test_find_prime_range_check(phi17):
    with pytest.raises(ValueError):
        find_prime_for_k(ones(phi17, 8, 1), 8)
    with pytest.raises(ValueError):
        find_prime_for_k(ones(phi17, 8, 1), 0)


def test_slope_dual_form():
    assert witness_range((1, 1, 1, 0)) == (1, 2, Fraction(1, 3))
    assert witness_range((2, 1, 1, 0)) == (1, 0, Fraction(1))
    assert witness_range((2, 3, 0)) == (1, 0, Fraction(1))
    assert witness_range((0, 1, 1, 0)) == (4, 3, Fraction(0))
    assert witness_range((1, 1, 1, 1, 0, 0)) == (2, 3, Fraction(1, 4))


def test_witness_range_slope_ties():
    # the slope maximum is reached at two different j; the integer
    # cross-multiplication must return the same reduced Fraction
    cases = {(2, 1, 0): (1, 0, Fraction(1)),
             (3, 3, 2, 3, 1): (1, 1, Fraction(1, 2)),
             (0, 2, 4): (3, 2, Fraction(-2)),
             (6, 5, 4, 6, 3, 6, 0): (1, 0, Fraction(1))}
    for vec, expected in cases.items():
        assert witness_range(vec) == expected, vec
        assert expected[2] == max(Fraction(vec[0] - vec[j], j)
                                  for j in range(1, len(vec)))


@given(st.lists(st.integers(0, 4), min_size=2, max_size=12))
@settings(max_examples=300, deadline=None)
def test_witness_range_matches_per_k_dual_form(vec):
    m = len(vec) - 1
    k_lo, k_hi, slope = witness_range(vec)
    for k in range(1, m + 1):
        divisible = all(vec[j] >= 1 for j in range(m - k + 1))
        dual = all(k * (vec[0] - vec[j]) < j for j in range(1, m + 1))
        assert (k_lo <= k <= k_hi) == (divisible and dual), k
        assert dual == (slope < Fraction(1, k))


def _smallest_valid_prime(inst, k, vectors):
    """Smallest witness prime for k by direct per-k checks on vp_rat."""
    for p in sieve_primes(inst.prime_bound):
        if inst.v % p == 0 or inst.a_m % p == 0 or content(inst.a_parts[0]) % p == 0:
            continue
        if not is_irreducible_mod_p(inst.phi, p):
            continue
        if p not in vectors:
            vectors[p] = [vp_rat(p, b) for b in inst.b]
        vec = vectors[p]
        if not all(vec[j] >= 1 for j in range(inst.m - k + 1)):
            continue
        slope = max(Fraction(vec[0] - vec[j], j) for j in range(1, inst.m + 1))
        if slope < Fraction(1, k):
            return p, slope
    return None


def test_certify_picks_smallest_valid_prime_per_k():
    base = construct_phi(2, 3 * 40 + 4)
    checked = 0
    for v in (1, 2, 3):
        for u in range(-2, 5):
            if math.gcd(u, v) != 1 or (v == 1 and u < 0):
                continue  # not in lowest terms, or a negative integer
            alpha = Fraction(u, v)
            for m in range(1, 41):
                inst = ones(base, m, alpha)
                result = certify(inst)
                chosen = {w.k: (w.p, w.slope) for w in result.witnesses}
                vectors = {}
                uncovered = []
                for k in range(1, m // 2 + 1):
                    expected = _smallest_valid_prime(inst, k, vectors)
                    assert chosen.get(k) == expected, (m, u, v, k)
                    found = find_prime_for_k(inst, k)
                    assert (found and (found.p, found.slope)) == expected
                    if expected is None:
                        uncovered.append(k)
                if isinstance(result, FailureReport):
                    assert result.uncovered == tuple(uncovered)
                else:
                    assert not uncovered
                checked += 1
    assert checked == 13 * 40


# -- full certification -------------------------------------------------------------

def test_certify_worked_example(phi17):
    cert = certify(ones(phi17, 3, 0))
    assert isinstance(cert, Certificate)
    assert cert.small_degree_prime == 3
    assert [w.k for w in cert.witnesses] == [1]
    assert verify_certificate(cert, ones(phi17, 3, 0))


def test_certify_exceptional_pair(phi17):
    report = certify(ones(phi17, 2, 2, relaxed=True))
    assert isinstance(report, FailureReport)
    assert report.uncovered == (1,)
    assert report.small_degree_prime == 2


def test_certify_m1_needs_no_witnesses(phi17):
    cert = certify(ones(phi17, 1, 2))
    assert isinstance(cert, Certificate)
    assert cert.witnesses == ()
    assert verify_certificate(cert, ones(phi17, 1, 2))


def test_certify_rejects_invalid_instance(phi17):
    bad = build_instance(2, 2, 4, [Poly.const(-1), Poly.const(1)], phi17,
                         relaxed=True)
    with pytest.raises(HypothesisViolation):
        certify(bad)
    # an instance checks its own hypotheses, however it is built: the
    # constructor reports what build_instance(relaxed=True) reports
    cases = {
        (3, 0, 2, 1): "content of a_m*a_0 is divisible by 2 <= 3",
        (5, 2, 1, 2): "content of a_m*a_0 is divisible by 2 <= 7",
        (17, 0, 1, 1): "phi is reducible modulo 17 <= 17",
        (6, 1, 5, 1): "content of a_m*a_0 is divisible by 5 <= 7",
    }
    for (m, u, a_m, a_0), violation in cases.items():
        parts = [Poly.const(a_0)] + [Poly.const(1)] * (m - 1)
        inst = LaguerreInstance(m, u, a_m, parts, phi17)
        assert not inst.is_valid
        assert inst.violations == (violation,)
        assert inst.violations == build_instance(m, u, a_m, parts, phi17,
                                                 relaxed=True).violations
        with pytest.raises(HypothesisViolation, match="^" + re.escape(violation) + "$"):
            certify(inst)


def test_witness_search_refuses_invalid_instances_and_uncontrolled_primes(phi17):
    bad = ones(phi17, 8, 2, a_m=2, relaxed=True)
    with pytest.raises(HypothesisViolation, match="divisible by 2"):
        witness_slope(bad, 3, 7)
    with pytest.raises(HypothesisViolation, match="divisible by 2"):
        find_prime_for_k(bad, 3)
    inst = ones(phi17, 8, 1)  # vm+u = 9
    assert witness_slope(inst, 2, 7) == Fraction(1, 7)
    for p in (11, 13, 0, 1, -7):
        with pytest.raises(ValueError, match="2..vm\\+u = 9"):
            witness_slope(inst, 1, p)
    inst = ones(phi17, 6, 1)  # vm+u = 7 is itself a witness prime for k = 1
    assert witness_slope(inst, 1, 7) == Fraction(1, 6)


def test_certify_deterministic(phi17):
    a, b = certify(ones(phi17, 9, 3)), certify(ones(phi17, 9, 3))
    assert a == b


def test_certify_rational_parameter(phi17):
    # v >= 2: witnesses come from primes coprime to v
    inst = build_instance(3, Fraction(1, 2), 1, [Poly.const(1)] * 3, phi17)
    assert inst.b == (Fraction(105, 8), Fraction(105, 4), Fraction(21, 2), 1)
    cert = certify(inst)
    assert isinstance(cert, Certificate)
    assert cert.small_degree_prime == 7
    assert [(w.k, w.p) for w in cert.witnesses] == [(1, 3)]
    assert verify_certificate(cert, inst)


def test_certify_negative_rational_parameter(phi17):
    # negative non-integer parameters are admissible; cross-checked by the
    # certificate-free route
    from laguerrecert.oracle import oracle_verdict
    from laguerrecert.polyring import primitive_part

    inst = build_instance(2, Fraction(-1, 2), 1, [Poly.const(1)] * 2, phi17)
    assert inst.b == (Fraction(3, 4), 3, 1)
    cert = certify(inst)
    assert isinstance(cert, Certificate)
    assert cert.small_degree_prime == 3
    assert [(w.k, w.p, w.slope) for w in cert.witnesses] == \
        [(1, 3, Fraction(1, 2))]
    assert verify_certificate(cert, inst)
    assert oracle_verdict(primitive_part(inst.f), 60).kind == "irreducible"


def test_certify_twelve_levels_random_multipliers(phi17, rng):
    # m=12 at parameter 4 certifies for any admissible multiplier choice;
    # the certificate-free oracle must never contradict it
    from laguerrecert.oracle import oracle_verdict
    from laguerrecert.polyring import content, primitive_part
    from laguerrecert.primes import sieve_primes

    done = 0
    while done < 5:
        parts = [Poly([rng.randrange(-9, 10), rng.randrange(-9, 10)])
                 for _ in range(12)]
        if parts[0].is_zero:
            continue
        if any(content(parts[0]) % p == 0 for p in sieve_primes(16)):
            continue
        inst = build_instance(12, 4, 1, parts, phi17)
        cert = certify(inst)
        assert isinstance(cert, Certificate)
        assert verify_certificate(cert, inst)
        assert oracle_verdict(primitive_part(inst.f), 40).kind != "reducible"
        done += 1


def test_certify_with_general_multipliers(phi17, rng):
    for _ in range(10):
        m = rng.randrange(2, 9)
        u = rng.choice([0, 1, 2, 3])
        if (m, u) == (2, 2):
            continue
        parts = []
        for _ in range(m):
            c = [rng.randrange(-9, 10), rng.randrange(-9, 10)]
            parts.append(Poly(c if any(c) else [1]))
        bound = m + u
        from laguerrecert.polyring import content
        from laguerrecert.primes import sieve_primes

        if any(content(parts[0]) % p == 0 for p in sieve_primes(bound)):
            continue
        inst = build_instance(m, u, 1, parts, phi17)
        result = certify(inst)
        assert isinstance(result, Certificate)
        assert verify_certificate(result, inst)


# -- the exclusion lemma on explicit expansions -------------------------------------

def test_lemma_exclusion_on_monic_model(phi17):
    inst = ones(phi17, 8, 1)
    g = sum((c * phi17**j for j, c in enumerate(inst.cleared)),
            phi17**8)
    multipliers = list(inst.a_parts) + [Poly.const(1)]
    assert lemma_exclusion_check(g, phi17, 7, 1, 2, multipliers)
    # deg a_i < deg phi - deg f_i: a linear a_1 passes, a quadratic one fails
    linear = multipliers[:1] + [Poly([1, 1])] + multipliers[2:]
    assert lemma_exclusion_check(g, phi17, 7, 1, 2, linear)
    quadratic = multipliers[:1] + [Poly([0, 0, 1])] + multipliers[2:]
    assert not lemma_exclusion_check(g, phi17, 7, 1, 2, quadratic)
    # an even multiplier at position 0 breaks the content hypothesis at p=2
    bad = [Poly.const(2)] + multipliers[1:]
    assert not lemma_exclusion_check(g, phi17, 7, 1, 2,
                                     bad) or bad[0].coeffs[0] % 7 != 0
    assert not lemma_exclusion_check(g, phi17, 2, 1, 2, bad)


def test_lemma_exclusion_range_violations(phi17):
    inst = ones(phi17, 8, 1)
    g = sum((c * phi17**j for j, c in enumerate(inst.cleared)),
            phi17**8)
    mult = list(inst.a_parts) + [Poly.const(1)]
    with pytest.raises(ValueError):
        lemma_exclusion_check(g, phi17, 7, 1, 8, mult)  # k > m/2
    with pytest.raises(ValueError):
        lemma_exclusion_check(g, phi17, 7, 2, 2, mult)  # ell >= k
    with pytest.raises(ValueError):
        lemma_exclusion_check(2 * g, phi17, 7, 1, 2, mult)  # not monic


def test_lemma_exclusion_slope_failure(phi17):
    # valuations [2,3,0] at p=2 give slope 1 >= 1/1
    g = phi17**2 + 8 * phi17 + 12
    assert not lemma_exclusion_check(g, phi17, 2, 0, 1,
                                     [Poly.const(1)] * 3)


def test_lemma_agrees_with_certifier_witnesses():
    # the lemma on the reassembled monic model, with the leading multiplier
    # v**m, holds exactly where the certifier's witness predicate does
    cases = 0
    for v in (1, 2, 3):
        for u in range(-2, 5):
            if math.gcd(u, v) != 1 or (v == 1 and u < 0):
                continue  # not in lowest terms, or a negative integer
            alpha = Fraction(u, v)
            for m in range(2, 15):
                phi = construct_phi(2, v * m + u)
                inst = ones(phi, m, alpha)
                f = sum((c * phi**j for j, c in enumerate(inst.cleared)), phi**m)
                multipliers = [1] * m + [v**m]
                for p in sieve_primes(inst.prime_bound):
                    for k in range(1, m // 2 + 1):
                        expected = witness_slope(inst, k, p) is not None
                        try:
                            held = lemma_exclusion_check(f, phi, p, k - 1, k, multipliers)
                        except ValueError:  # phi reducible modulo p
                            assert not is_irreducible_mod_p(phi, p)
                            held = False
                        assert held == expected, (m, u, v, p, k)
                        cases += 1
    assert cases == 4906


def test_exclusion_bounds_gates(phi17):
    g = phi17**2 + 8 * phi17 + 12  # parts 12, 8, 1: valuations 2, 3, 0 at 2; 1, 0, 0 at 3
    expansion = phi_expand(g, phi17)
    built = []

    def polygon_at(p):
        built.append(p)
        return build_polygon(expansion, p)

    ones3 = [Poly.const(1)] * 3
    assert exclusion_bounds(phi17, ones3, 2, polygon_at) == (1, Fraction(1))
    assert exclusion_bounds(phi17, ones3, 3, polygon_at) == (2, Fraction(1))
    assert exclusion_bounds(phi17, [Poly.const(6)] + ones3[1:], 2, polygon_at) is None
    assert exclusion_bounds(phi17, ones3[:2] + [Poly.const(4)], 2, polygon_at) is None
    with pytest.raises(ValueError):
        exclusion_bounds(phi17, ones3, 4, polygon_at)  # not prime
    with pytest.raises(ValueError):
        exclusion_bounds(phi17, ones3, 17, polygon_at)  # x^2 - x + 17 = x(x - 1) mod 17
    assert built == [2, 3]  # the heights are read only once every gate passed


# -- the verifier's telescoped heights ---------------------------------------------

def _big_integer_polygon_at(inst):
    """The big-integer route: gauss valuations of the explicit monic model
    phi**m + sum (v**m b_j) phi**j, every part valued on its own."""
    parts = tuple(Poly.const(c) for c in inst.cleared) + (Poly.const(1),)
    expansion = PhiExpansion(phi=inst.phi, parts=parts)
    return lambda p: build_polygon(expansion, p)


def _telescoped_polygon_at(inst):
    parts = ratio_identity_parts(inst.cleared, inst.m, inst.u, inst.v)
    return lambda p: _telescoped_polygon(parts, inst.u, inst.v, p)


def _verifier_multipliers(inst):
    return inst.a_parts + (Poly.const(inst.v ** inst.m * inst.a_m),)


def test_telescoped_heights_match_big_integer_route():
    # the 780-instance all-ones grid, every prime p <= vm+u with p prime to v
    # and phi irreducible modulo p: same points, same (k_lo, slope) or None
    instances = primes_checked = 0
    for v in (1, 2, 3):
        for u in range(-2, 5):
            if math.gcd(u, v) != 1 or (v == 1 and u < 0):
                continue  # not in lowest terms, or a negative integer
            alpha = Fraction(u, v)
            for m in range(1, 61):
                inst = ones(construct_phi(2, v * m + u), m, alpha)
                telescoped = _telescoped_polygon_at(inst)
                big = _big_integer_polygon_at(inst)
                multipliers = _verifier_multipliers(inst)
                parts = ratio_identity_parts(inst.cleared, inst.m, inst.u, inst.v)
                for p in sieve_primes(inst.prime_bound):
                    if v % p == 0:
                        # outside the lemma's gates the heights still value c_0..c_m
                        assert telescoped(p).points == tuple(
                            (i, vp_int(p, parts[m - i])) for i in range(m + 1))
                        continue
                    if not is_irreducible_mod_p(inst.phi, p):
                        continue
                    assert telescoped(p).points == big(p).points, (m, u, v, p)
                    assert (exclusion_bounds(inst.phi, multipliers, p, telescoped)
                            == exclusion_bounds(inst.phi, multipliers, p, big)), (m, u, v, p)
                    primes_checked += 1
                instances += 1
    assert (instances, primes_checked) == (780, 12880)


def test_telescoped_heights_spot_checks_at_m800():
    inst = ones(construct_phi(2, 802), 800, 2)
    telescoped = _telescoped_polygon_at(inst)
    big = _big_integer_polygon_at(inst)
    multipliers = _verifier_multipliers(inst)
    for p in (2, 3, 7, 797):
        assert telescoped(p).points == big(p).points, p
        bounds = exclusion_bounds(inst.phi, multipliers, p, telescoped)
        assert bounds is not None and bounds == exclusion_bounds(inst.phi, multipliers, p, big)


def test_valuation_routes_call_vp_int_only_at_events(monkeypatch):
    # at m = 800 and p = 401 each route has a handful of events; a return
    # to per-j valuations would call vp_int about m times
    calls = []

    def counting(p, n):
        calls.append(n)
        return vp_int(p, n)

    monkeypatch.setattr(laguerre, "vp_int", counting)
    monkeypatch.setattr(cm, "vp_int", counting)
    m, p = 800, 401
    assert coefficient_valuations(m, 2, p) == tuple(
        vp_rat(p, b) for b in laguerre_coefficients(m, 2))
    assert len(calls) <= 3
    inst = LaguerreInstance(m, 2, 1, [Poly.const(1)] * m, parse_poly("x"))
    parts = ratio_identity_parts(inst.cleared, m, inst.u, inst.v)
    calls.clear()
    polygon = _telescoped_polygon(parts, inst.u, inst.v, p)
    assert len(calls) <= 3 * (m // p + 1) + 2 + len(polygon.vertices)
    assert polygon.points == tuple((i, vp_int(p, parts[m - i])) for i in range(m + 1))


def test_ratio_identity_rejects_changed_cleared_coefficient():
    inst = ones(construct_phi(2, 42), 40, 2)
    cert = certify(inst)
    assert verify_certificate(cert, inst)
    # q is a multiple of every prime up to vm+u, so c_j (1 + q) keeps every
    # valuation there: no gate and no vertex anchor can see the change
    q = math.prod(sieve_primes(inst.prime_bound))
    j = 20
    for changed in (inst.cleared[j] * (1 + q), inst.cleared[j] + q,
                    inst.cleared[j] + 1, inst.cleared[j] - 1):
        forged = ones(construct_phi(2, 42), 40, 2)
        forged.cleared = forged.cleared[:j] + (changed,) + forged.cleared[j + 1:]
        with pytest.raises(ArithmeticError, match="ratio identity"):
            ratio_identity_parts(forged.cleared, forged.m, forged.u, forged.v)
        assert not verify_certificate(cert, forged), changed
    # every coefficient times 1 + q: each ratio c_j / c_{j+1} still holds,
    # and only the leading part c_m = v**m tells the change
    forged = ones(construct_phi(2, 42), 40, 2)
    forged.cleared = tuple(c * (1 + q) for c in forged.cleared)
    with pytest.raises(ArithmeticError, match="ratio identity fails at j=39"):
        ratio_identity_parts(forged.cleared, forged.m, forged.u, forged.v)
    assert not verify_certificate(cert, forged)


def test_height_disagreeing_with_its_anchor_is_refused(monkeypatch):
    with pytest.raises(ArithmeticError, match="anchor"):
        anchored_polygon([0, 1, 3], lambda i: (0, 1, 2)[i])
    # an interior vertex off the last edge, which the rightmost slope ignores
    with pytest.raises(ArithmeticError, match="anchor"):
        anchored_polygon([0, -5, -8, -10], lambda i: (0, -4, -8, -10)[i])
    assert anchored_polygon([0, 1, 2], lambda i: i).vertices == ((0, 0), (2, 2))

    inst = ones(construct_phi(2, 42), 40, 2)
    cert = certify(inst)
    assert verify_certificate(cert, inst)
    real = cm.anchored_polygon

    def off_by_one(heights, exact_height):
        heights = list(heights)
        heights[-1] += 1  # the rightmost point, always a vertex
        return real(heights, exact_height)

    monkeypatch.setattr(cm, "anchored_polygon", off_by_one)
    parts = ratio_identity_parts(inst.cleared, inst.m, inst.u, inst.v)
    with pytest.raises(ArithmeticError, match="anchor"):
        _telescoped_polygon(parts, inst.u, inst.v, 7)
    assert not verify_certificate(cert, inst)


# -- verification and serialization ---------------------------------------------------

def test_verify_rejects_mistyped_fields(phi17):
    inst = ones(phi17, 5, 2)
    cert = certify(inst)
    assert verify_certificate(cert, inst)
    w0 = cert.witnesses[0]
    bad_fields = [{"m": "5"}, {"small_degree_prime": 7.0}, {"small_degree_prime": 2.5},
                  {"witnesses": (replace(w0, p=float(w0.p)),) + cert.witnesses[1:]},
                  {"witnesses": (replace(w0, p=2.5),) + cert.witnesses[1:]},
                  {"witnesses": (replace(w0, p=str(w0.p)),) + cert.witnesses[1:]},
                  {"witnesses": (replace(w0, k=True),) + cert.witnesses[1:]},
                  {"witnesses": (replace(w0, slope=float(w0.slope)),) + cert.witnesses[1:]},
                  {"witnesses": None}, {"witnesses": (None,)}]
    for fields in bad_fields:
        assert not verify_certificate(replace(cert, **fields), inst), fields


def test_verify_rejects_tampered_slope(phi17):
    inst = ones(phi17, 5, 1)
    cert = certify(inst)
    assert verify_certificate(cert, inst)
    tampered = Certificate(
        m=cert.m, u=cert.u, v=cert.v, phi=cert.phi,
        small_degree_prime=cert.small_degree_prime,
        witnesses=tuple(
            ExclusionWitness(k=w.k, p=w.p, slope=Fraction(1, w.k))
            for w in cert.witnesses))
    assert not verify_certificate(tampered, inst)


_OPTIMIZED_ROUND_TRIP = """
import importlib
from fractions import Fraction
from laguerrecert.polygon import NewtonPolygon
from laguerrecert.polyring import Poly, parse_poly
from laguerrecert.laguerre import build_instance

assert not __debug__
cm = importlib.import_module("laguerrecert.certify")
phi = parse_poly("x^2 - x + 17")
inst = build_instance(12, 2, 1, [Poly.const(1)] * 12, phi)
cert = cm.certify(inst)
print("verify", cm.verify_certificate(cert, inst))
tampered = cm.Certificate(
    m=cert.m, u=cert.u, v=cert.v, phi=cert.phi,
    small_degree_prime=cert.small_degree_prime,
    witnesses=tuple(cm.ExclusionWitness(k=w.k, p=w.p, slope=w.slope + Fraction(1, 10**6))
                    for w in cert.witnesses))
print("tampered", cm.verify_certificate(tampered, inst))
# the ratio identity and the vertex anchors are explicit raises too
# (1 + q keeps every valuation at the primes up to vm+u = 14)
q = 2 * 3 * 5 * 7 * 11 * 13
forged = build_instance(12, 2, 1, [Poly.const(1)] * 12, phi)
forged.cleared = forged.cleared[:5] + (forged.cleared[5] * (1 + q),) + forged.cleared[6:]
print("changed coefficient", cm.verify_certificate(cert, forged))
# a wrong binomial in the progression form is refused when the c_j are first read
lm = importlib.import_module("laguerrecert.laguerre")
real_comb = lm.comb
lm.comb = lambda n, k: real_comb(n, k) + (k == 3)
lm._cleared_coefficients.cache_clear()
try:
    build_instance(7, 2, 1, [Poly.const(1)] * 7, phi).cleared
    print("wrong binomial accepted")
except ArithmeticError:
    print("wrong binomial raises")
lm.comb = real_comb
lm._cleared_coefficients.cache_clear()
real_anchored = cm.anchored_polygon
cm.anchored_polygon = lambda heights, exact: real_anchored(
    list(heights[:-1]) + [heights[-1] + 1], exact)
print("bad anchor", cm.verify_certificate(cert, inst))
cm.anchored_polygon = real_anchored
# a stray point far below makes the chord maximum miss the last edge; the
# explicit cross-check in rightmost_slope trips and the verifier says False
real = cm._telescoped_polygon

def broken(parts, u, v, p):
    polygon = real(parts, u, v, p)
    return NewtonPolygon(((-1, -10**6),) + polygon.points, polygon.vertices)

cm._telescoped_polygon = broken
print("broken polygon", cm.verify_certificate(cert, inst))
# the oracle re-checks every reducibility witness with an explicit raise
om = importlib.import_module("laguerrecert.oracle")
om._rational_root_witness = lambda f: om.FactorWitness(
    g=parse_poly("x + 2"), h=parse_poly("x - 2"), c=Fraction(1))
try:
    print("bogus witness", om.oracle_verdict(parse_poly("x^2 - 1")).kind)
except ArithmeticError:
    print("bogus witness raises")
"""


def test_verify_cross_checks_survive_optimized_mode():
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-O", "-c", _OPTIMIZED_ROUND_TRIP],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout.split("\n")[:7] == [
        "verify True", "tampered False", "changed coefficient False", "wrong binomial raises",
        "bad anchor False", "broken polygon False", "bogus witness raises"]


def test_verify_rejects_prime_dividing_lead(phi17):
    inst = build_instance(5, 1, 7, [Poly.const(1)] * 5, phi17)
    cert = certify(inst)
    assert verify_certificate(cert, inst)
    bad = Certificate(
        m=cert.m, u=cert.u, v=cert.v, phi=cert.phi,
        small_degree_prime=cert.small_degree_prime,
        witnesses=tuple(
            ExclusionWitness(k=w.k, p=7, slope=w.slope)
            for w in cert.witnesses))
    assert not verify_certificate(bad, inst)


def test_verify_accepts_any_valid_witness_prime():
    # (m, u, k) = (46, 4, 3) once carried its tabulated prime 23; the
    # certifier now picks 11, and a certificate with 23 must still verify
    base = construct_phi(2, 53)
    inst = ones(base, 46, 4)
    cert = certify(inst)
    assert isinstance(cert, Certificate)
    ok, slope = k_witness_valid(46, 4, 3, 23)
    assert ok
    witnesses = tuple(ExclusionWitness(k=3, p=23, slope=slope) if w.k == 3 else w
                      for w in cert.witnesses)
    assert witnesses != cert.witnesses
    older = Certificate(m=cert.m, u=cert.u, v=cert.v, phi=cert.phi,
                        small_degree_prime=cert.small_degree_prime,
                        witnesses=witnesses)
    assert verify_certificate(older, inst)
    assert verify_certificate(certificate_from_json(certificate_to_json(older)), inst)


def test_verify_rejects_prime_valid_only_for_larger_k(phi17):
    # at (m, u) = (8, 1) the prime 5 witnesses k = 4 with slope 1/5 < 1/3,
    # but 5 does not divide b_5, so it cannot witness k = 3
    inst = ones(phi17, 8, 1)
    cert = certify(inst)
    assert verify_certificate(cert, inst)
    assert [(w.k, w.p) for w in cert.witnesses][-1] == (4, 5)
    slope = cert.witnesses[-1].slope
    assert slope < Fraction(1, 3)
    forged = Certificate(
        m=cert.m, u=cert.u, v=cert.v, phi=cert.phi,
        small_degree_prime=cert.small_degree_prime,
        witnesses=tuple(ExclusionWitness(k=3, p=5, slope=slope) if w.k == 3 else w
                        for w in cert.witnesses))
    assert not verify_certificate(forged, inst)


def test_verify_rejects_wrong_instance(phi17):
    inst = ones(phi17, 5, 1)
    cert = certify(inst)
    other = ones(phi17, 5, 2)
    assert not verify_certificate(cert, other)


def test_verify_rejects_missing_k(phi17):
    inst = ones(phi17, 6, 1)
    cert = certify(inst)
    pruned = Certificate(m=cert.m, u=cert.u, v=cert.v, phi=cert.phi,
                         small_degree_prime=cert.small_degree_prime,
                         witnesses=cert.witnesses[:-1])
    assert not verify_certificate(pruned, inst)


def test_no_forged_certificate_verifies_for_reducible_member(phi17):
    # a = (1,1,1) at (m, parameter) = (2, 2) satisfies every hypothesis yet
    # assembles to (phi+2)(phi+6); no hand-built certificate may pass
    inst = build_instance(2, 2, 1, [Poly.const(1)] * 2, phi17)
    assert inst.is_valid
    assert inst.f == (phi17 + 2) * (phi17 + 6)
    for p in (2, 3, 5, 7, 11, 13):
        for slope in (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1)):
            forged = Certificate(
                m=2, u=2, v=1, phi=phi17, small_degree_prime=2,
                witnesses=(ExclusionWitness(k=1, p=p, slope=slope),))
            assert not verify_certificate(forged, inst), (p, slope)


def test_coverage_arithmetic():
    assert coverage_complete(6, 2, [1, 2, 3])
    assert not coverage_complete(6, 2, [1, 3])
    assert coverage_complete(1, 2, [])
    assert not coverage_complete(4, 2, [])


_JSON_LEAF = (st.none() | st.booleans() | st.integers() | st.floats()
              | st.text(max_size=8))
_JSON_VALUE = st.recursive(
    _JSON_LEAF, lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.text(max_size=4), kids, max_size=3), max_leaves=6)
_PHI_TEXT = (st.text(alphabet="x^+-/0123456789 ", max_size=24)
             | st.builds("{}x^{} + {}".format, st.integers(-9, 9),
                         st.integers(0, 10**7), st.integers(-99, 99)))
_GOOD_CERTIFICATE = json.loads(certificate_to_json(certify(
    ones(parse_poly("x^2 - x + 17"), 5, 2))))


def _edited_certificate(fields, phi, witness_fields):
    data = json.loads(json.dumps(_GOOD_CERTIFICATE))
    data["witnesses"][0].update(witness_fields)
    data["phi"] = phi
    data.update(fields)
    return json.dumps(data)


@settings(max_examples=400, deadline=1000)
@given(st.text(max_size=80)
       | st.builds(json.dumps, _JSON_VALUE)
       | st.builds(_edited_certificate,
                   st.dictionaries(st.sampled_from(sorted(_GOOD_CERTIFICATE)),
                                   _JSON_VALUE, max_size=2),
                   _PHI_TEXT,
                   st.dictionaries(st.sampled_from(sorted(_GOOD_CERTIFICATE["witnesses"][0])),
                                   _JSON_VALUE, max_size=2)))
def test_certificate_parser_fuzz(text):
    # any text parses to a Certificate or raises ValueError, within the
    # deadline; exponents reach 100 times the largest accepted degree, so a
    # parser that allocates before checking one fails here instead of hanging
    try:
        cert = certificate_from_json(text)
    except ValueError:
        return
    assert isinstance(cert, Certificate)


def test_certificate_json_round_trip(phi17):
    inst = ones(phi17, 9, 2)
    cert = certify(inst)
    text = certificate_to_json(cert)
    back = certificate_from_json(text)
    assert back == cert
    assert verify_certificate(back, inst)
    assert certificate_to_json(back) == text
