import importlib
import json
import math
import os
import pathlib
import random
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
                                  _telescoped_polygon, certificate_from_json,
                                  certificate_to_json, certify, exclude_small_degrees,
                                  exclusion_bounds, find_prime_for_k, lemma_exclusion_check,
                                  verify_certificate, witness_range, witness_slope)
from laguerrecert.laguerre import (HypothesisViolation, LaguerreInstance, build_instance,
                                   cleared_from_definition, laguerre_coefficients,
                                   ratio_identity_parts)
from laguerrecert.polygon import build_polygon, confirm_vertex_heights, polygon_from_points
from laguerrecert.polyring import (Poly, construct_phi, content, format_poly,
                                   X, is_irreducible_mod_p, parse_poly, phi_expand)
from laguerrecert.primes import sieve_primes, vp_int, vp_rat
from laguerrecert.tables import k_witness_valid

from test_laguerre import expand_runs
from test_polygon import assert_matches_dense

# the package re-exports the function certify, which shadows the module name
cm = importlib.import_module("laguerrecert.certify")


def ones(phi, m, u, a_m=1, relaxed=False):
    return build_instance(m, u, a_m, [Poly.const(1)] * m, phi, relaxed=relaxed)


def vertex_anchors(m, u, v, polygon):
    """{i: c_(m-i)} at the polygon's vertex abscissas, as the verifier builds them."""
    cleared = cleared_from_definition(m, u, v, [m - i for i, _ in polygon.vertices])
    return {i: cleared[m - i] for i, _ in polygon.vertices}


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
    # build, certify and JSON stay on small integers
    m, u, base = 60, 2, construct_phi(2, 62)
    plain = certificate_to_json(certify(ones(base, m, u)))
    calls = []
    real = laguerre._cleared_coefficients

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(laguerre, "_cleared_coefficients", counting)
    inst = ones(base, m, u)
    cert = certify(inst)
    assert certificate_to_json(cert) == plain
    assert calls == []


def _verify_recording_anchors(monkeypatch, cert, inst):
    """verify_certificate(cert, inst), and the (p, polygon, anchors) of each
    vertex confirmation it makes."""
    confirmed = []
    real = cm.confirm_vertex_heights

    def recording(polygon, p, anchors):
        confirmed.append((p, polygon, anchors))
        return real(polygon, p, anchors)

    monkeypatch.setattr(cm, "confirm_vertex_heights", recording)
    return verify_certificate(cert, inst), confirmed


def test_verify_reads_no_cleared_coefficient(monkeypatch):
    # the mirror of the certifier's test: the verifier builds no c_j through
    # the instance, runs no ratio identity, and calls comb once per distinct
    # vertex abscissa, each abscissa of every confirmed polygon's vertices
    m, u, base = 60, 2, construct_phi(2, 62)
    cert = certify(ones(base, m, u))
    calls, combs = [], []
    for name in ("_cleared_coefficients", "ratio_identity_parts"):
        monkeypatch.setattr(laguerre, name, lambda *args, real=getattr(laguerre, name):
                            calls.append(args) or real(*args))
    real_comb = laguerre.comb
    monkeypatch.setattr(laguerre, "comb", lambda n, k: combs.append((n, k)) or real_comb(n, k))
    fresh = ones(base, m, u)
    ok, confirmed = _verify_recording_anchors(monkeypatch, cert, fresh)
    assert ok and calls == [] and "cleared" not in vars(fresh)
    assert sorted(p for p, _, _ in confirmed) == sorted({w.p for w in cert.witnesses})
    abscissas = {i for _, polygon, _ in confirmed for i, _ in polygon.vertices}
    assert {0, m} <= abscissas
    assert sorted(combs) == sorted((m, m - i) for i in abscissas)
    assert all(anchors.keys() == abscissas for _, _, anchors in confirmed)


@pytest.mark.parametrize("m", [800, 3200])
@pytest.mark.parametrize("alpha", [Fraction(2), Fraction(2, 3)])
def test_verify_anchors_equal_cleared_at_every_vertex(monkeypatch, product_form, m, alpha):
    # the sweep's anchors against v**m times the paper's Fraction product
    # form, at the vertices of every witness prime's polygon: a suffix
    # product started one index early, a binomial index shifted by one or an
    # abscissa dropped from the union each changes or loses a vertex anchor
    u, v = alpha.numerator, alpha.denominator
    base = construct_phi(2, v * m + u)
    inst = ones(base, m, alpha)
    cert = certify(inst)
    assert isinstance(cert, Certificate)
    ok, confirmed = _verify_recording_anchors(monkeypatch, cert, ones(base, m, alpha))
    assert ok and confirmed
    parts = tuple(b * v ** m for b in product_form(m, alpha)) + (v ** m,)
    for p, polygon, anchors in confirmed:
        for i, _ in polygon.vertices:
            assert anchors[i] == parts[m - i], (p, i)


def test_small_degree_prime_is_smallest_factor(phi17):
    assert exclude_small_degrees(ones(phi17, 5, 4)) == 3  # 9 = 3*3
    assert exclude_small_degrees(ones(phi17, 8, 4)) == 2  # 12


def test_small_degree_prime_skips_a_failing_factor():
    # vm+u = -15: x^2 + 2 is reducible modulo 3, irreducible modulo 5, and
    # f = 2x^2 - 11 is irreducible
    def inst():
        return build_instance(1, Fraction(-17, 2), 1, [1], parse_poly("x^2 + 2"))

    assert inst().f == parse_poly("2x^2 - 11")
    cert = certify(inst())
    assert isinstance(cert, Certificate) and cert.small_degree_prime == 5
    assert verify_certificate(cert, inst())


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


def _dense(vec):
    """A dense vector as runs, every entry its own run."""
    return tuple(enumerate(vec))


def test_slope_dual_form():
    assert witness_range(_dense((1, 1, 1, 0))) == (1, 2, Fraction(1, 3))
    assert witness_range(_dense((2, 1, 1, 0))) == (1, 0, Fraction(1))
    assert witness_range(_dense((2, 3, 0))) == (1, 0, Fraction(1))
    assert witness_range(_dense((0, 1, 1, 0))) == (4, 3, Fraction(0))
    assert witness_range(_dense((1, 1, 1, 1, 0, 0))) == (2, 3, Fraction(1, 4))
    # the same vectors as maximal runs give the same ranges
    assert witness_range(((0, 1), (3, 0))) == (1, 2, Fraction(1, 3))
    assert witness_range(((0, 1), (4, 0), (5, 0))) == (2, 3, Fraction(1, 4))


def test_witness_range_slope_ties():
    # the slope maximum is reached at two different j; the integer
    # cross-multiplication must return the same reduced Fraction
    cases = {(2, 1, 0): (1, 0, Fraction(1)),
             (3, 3, 2, 3, 1): (1, 1, Fraction(1, 2)),
             (0, 2, 4): (3, 2, Fraction(-2)),
             (6, 5, 4, 6, 3, 6, 0): (1, 0, Fraction(1))}
    for vec, expected in cases.items():
        assert witness_range(_dense(vec)) == expected, vec
        assert expected[2] == max(Fraction(vec[0] - vec[j], j)
                                  for j in range(1, len(vec)))


@given(st.lists(st.tuples(st.integers(1, 4), st.integers(0, 4)), min_size=1, max_size=8),
       st.integers(0, 4))
@settings(max_examples=300, deadline=None)
def test_witness_range_matches_per_k_dual_form(lengths_values, last):
    # random runs, adjacent ones often equal, ending with the one-entry run at m
    runs, j = [], 0
    for length, value in lengths_values:
        runs.append((j, value))
        j += length
    m = j
    runs.append((m, last))
    vec = expand_runs(runs, m + 1)
    k_lo, k_hi, slope = witness_range(tuple(runs))
    assert (k_lo, k_hi, slope) == witness_range(_dense(vec))
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
    # a zero a_0, a zero a_m, and a_m = 7 with p = 7 dividing its leading
    # coefficient each break a multiplier hypothesis: False, never a raise
    # (a zero a_m has no leading coefficient to read)
    for bad in ([Poly()] + multipliers[1:], multipliers[:-1] + [Poly()],
                multipliers[:-1] + [Poly.const(7)]):
        assert not lemma_exclusion_check(g, phi17, 7, 1, 2, bad)


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
    parts = phi_expand(g, phi17)
    built = []

    def polygon_at(p):
        built.append(p)
        return build_polygon(parts, p)

    one = Poly.const(1)
    assert exclusion_bounds(phi17, one, 1, 2, polygon_at) == (1, Fraction(1))
    assert exclusion_bounds(phi17, one, 1, 3, polygon_at) == (2, Fraction(1))
    assert exclusion_bounds(phi17, Poly.const(6), 1, 2, polygon_at) is None
    assert exclusion_bounds(phi17, Poly(), 1, 2, polygon_at) is None
    assert exclusion_bounds(phi17, one, 4, 2, polygon_at) is None
    assert exclusion_bounds(phi17, one, 0, 2, polygon_at) is None  # a_m = 0
    with pytest.raises(ValueError):
        exclusion_bounds(phi17, one, 1, 4, polygon_at)  # not prime
    with pytest.raises(ValueError):
        exclusion_bounds(phi17, one, 1, 17, polygon_at)  # x^2 - x + 17 = x(x - 1) mod 17
    assert built == [2, 3]  # the heights are read only once every gate passed


# -- the verifier's telescoped heights ---------------------------------------------

def _big_integer_polygon_at(inst):
    """The big-integer route: gauss valuations of the explicit monic model
    phi**m + sum (v**m b_j) phi**j, every part valued on its own."""
    parts = tuple(Poly.const(c) for c in inst.cleared) + (Poly.const(1),)
    return lambda p: build_polygon(parts, p)


def _telescoped_polygon_at(inst):
    return lambda p: _telescoped_polygon(inst.m, inst.u, inst.v, p)


def _all_ones_grid():
    """The 780 all-ones instances: v in 1..3, u in -2..4 (u/v in lowest
    terms, not a negative integer), m in 1..60, base construct_phi(2, vm+u)."""
    for v in (1, 2, 3):
        for u in range(-2, 5):
            if math.gcd(u, v) != 1 or (v == 1 and u < 0):
                continue  # not in lowest terms, or a negative integer
            for m in range(1, 61):
                yield ones(construct_phi(2, v * m + u), m, Fraction(u, v))


def _verifier_bounds(inst, p, polygon_at):
    """exclusion_bounds on the verifier's gates: a_0 and the leading
    multiplier v**m a_m of the monic model."""
    return exclusion_bounds(inst.phi, inst.a_parts[0], inst.v ** inst.m * inst.a_m, p,
                            polygon_at)


def test_telescoped_heights_match_big_integer_route():
    # the 780-instance all-ones grid, every prime p <= vm+u with p prime to v
    # and phi irreducible modulo p: each kept point is the big-integer
    # route's, at most 3(m/p + 1) + 2 of them, same vertices, k_lo and chord
    # maximum, same (k_lo, slope) or None; a prime dividing v is refused, as
    # exclusion_bounds never asks for its polygon
    instances = primes_checked = 0
    for inst in _all_ones_grid():
        m, u, v = inst.m, inst.u, inst.v
        telescoped = _telescoped_polygon_at(inst)
        big = _big_integer_polygon_at(inst)
        parts = ratio_identity_parts(inst.cleared, m, u, v)
        for p in sieve_primes(inst.prime_bound):
            if v % p == 0:
                with pytest.raises(ValueError, match="prime to v"):
                    telescoped(p)
                assert _verifier_bounds(inst, p, big) is None
                continue
            if not is_irreducible_mod_p(inst.phi, p):
                continue
            polygon, full = telescoped(p), big(p)
            assert_matches_dense(polygon, full, 3 * (m // p + 1) + 2, (m, u, v, p))
            anchors = vertex_anchors(m, u, v, polygon)
            assert all(c == parts[m - i] for i, c in anchors.items()), (m, u, v, p)
            confirm_vertex_heights(polygon, p, anchors)
            assert (_verifier_bounds(inst, p, telescoped)
                    == _verifier_bounds(inst, p, big)), (m, u, v, p)
            primes_checked += 1
        instances += 1
    assert (instances, primes_checked) == (780, 12880)


def test_telescoped_heights_spot_checks_at_m800():
    inst = ones(construct_phi(2, 802), 800, 2)
    telescoped = _telescoped_polygon_at(inst)
    big = _big_integer_polygon_at(inst)
    for p in (2, 3, 7, 797):
        polygon, full = telescoped(p), big(p)
        assert_matches_dense(polygon, full, 3 * (800 // p + 1) + 2, p)
        bounds = _verifier_bounds(inst, p, telescoped)
        assert bounds is not None and bounds == _verifier_bounds(inst, p, big)


def test_valuation_routes_call_vp_int_only_at_events(monkeypatch):
    # the producer values no b_j with vp_int: its runs come from closed
    # forms, so its one call values the leading multiplier a_m.  At m = 800
    # and p = 401 the verifier has a handful of events and keeps at most
    # 3(m/p + 1) + 2 points; a return to dense heights would keep all m+1.
    # The vertex anchors are built and confirmed without vp_int, c_0
    # (abscissa m) among them.
    calls = []

    def counting(p, n):
        calls.append(n)
        return vp_int(p, n)

    monkeypatch.setattr(laguerre, "vp_int", counting)
    monkeypatch.setattr(cm, "vp_int", counting)
    m, p = 800, 401
    inst = LaguerreInstance(m, 2, 12, [Poly.const(1)] * m, parse_poly("x"))
    b = laguerre_coefficients(m, 2)
    for q in (2, 3, p):
        calls.clear()
        runs = inst.valuation_vector(q)
        assert calls == [12], q
        assert expand_runs(runs, m + 1) == tuple(vp_rat(q, bj) for bj in b) + (vp_int(q, 12),)
        assert len(runs) <= 3 * (m // q + 1) + 2
    parts = inst.cleared + (inst.v ** m,)
    calls.clear()
    polygon = _telescoped_polygon(m, inst.u, inst.v, p)
    assert len(calls) <= 3 * (m // p + 1) + 1
    assert all(0 < n <= m + 2 for n in calls)
    events = len(calls)
    anchors = vertex_anchors(m, inst.u, inst.v, polygon)
    confirm_vertex_heights(polygon, p, anchors)
    assert len(calls) == events
    assert sorted(anchors) == [i for i, _ in polygon.vertices] and polygon.vertices[-1][0] == m
    dense = polygon_from_points([(i, vp_int(p, parts[m - i])) for i in range(m + 1)])
    assert_matches_dense(polygon, dense, 3 * (m // p + 1) + 2)


def test_certify_values_few_run_starts(monkeypatch):
    # the runs certify reads over the primes it visits at m = 1600, u = 2:
    # 9,456 entries, where the dense vectors held 224,140
    m = 1600
    read = []
    real = LaguerreInstance.valuation_vector
    monkeypatch.setattr(LaguerreInstance, "valuation_vector",
                        lambda self, p: read.append(real(self, p)) or read[-1])
    assert isinstance(certify(LaguerreInstance(m, 2, 1, [Poly.const(1)] * m, X)), Certificate)
    assert sum(map(len, read)) < 8 * m


def test_certify_anchors_runs_at_b_m_minus_1(monkeypatch):
    # b_{m-1} = m(vm+u)/v: an off-by-one in the Legendre floor counts (here
    # F(m) one too high, which raises every run) moves the run holding
    # j = m-1, and the certifier refuses it with a raise
    inst = LaguerreInstance(12, 2, 1, [Poly.const(1)] * 12, X)
    real = laguerre.coefficient_valuations
    monkeypatch.setattr(laguerre, "coefficient_valuations",
                        lambda *args: tuple((j, e + 1) for j, e in real(*args)))
    with pytest.raises(ArithmeticError, match=r"p = 2 miss v_p\(b_\(m-1\)\)"):
        certify(inst)
    with pytest.raises(ArithmeticError, match=r"p = 3 miss"):
        witness_slope(inst, 1, 3)


def test_ratio_identity_rejects_changed_cleared_coefficient():
    # the identity guards the c_j that f and b read.  The verifier reads
    # none of them: its anchors come from (m, u, v) alone, so a changed
    # cache leaves its verdict on the instance's own data as it was
    inst = ones(construct_phi(2, 42), 40, 2)
    cert = certify(inst)
    assert verify_certificate(cert, inst)
    # q is a multiple of every prime up to vm+u, so c_j (1 + q) keeps every
    # valuation there: only the identity can see the change
    q = math.prod(sieve_primes(inst.prime_bound))
    j = 20
    for changed in (inst.cleared[j] * (1 + q), inst.cleared[j] + q,
                    inst.cleared[j] + 1, inst.cleared[j] - 1):
        forged = ones(construct_phi(2, 42), 40, 2)
        forged.cleared = forged.cleared[:j] + (changed,) + forged.cleared[j + 1:]
        with pytest.raises(ArithmeticError, match="ratio identity"):
            ratio_identity_parts(forged.cleared, forged.m, forged.u, forged.v)
        assert verify_certificate(cert, forged), changed
    # every coefficient times 1 + q: each ratio c_j / c_{j+1} still holds,
    # and only the leading part c_m = v**m tells the change
    forged = ones(construct_phi(2, 42), 40, 2)
    forged.cleared = tuple(c * (1 + q) for c in forged.cleared)
    with pytest.raises(ArithmeticError, match="ratio identity fails at j=39"):
        ratio_identity_parts(forged.cleared, forged.m, forged.u, forged.v)
    assert verify_certificate(cert, forged)


def _confirmed_polygon(points, p, anchors):
    polygon = polygon_from_points(points)
    confirm_vertex_heights(polygon, p, anchors)
    return polygon


def test_height_disagreeing_with_its_anchor_is_refused(monkeypatch):
    # parts 3**h: the claimed height at abscissa 2 is one too high, then one
    # too low, and the true height is confirmed
    for parts in ((5, 3, 9), (5, 3, 81)):
        with pytest.raises(ArithmeticError, match="height 3 at abscissa 2 disagrees"):
            _confirmed_polygon([(0, 0), (1, 1), (2, 3)], 3, parts)
    assert _confirmed_polygon([(0, 0), (1, 1), (2, 3)], 3, (5, 3, 27)).vertices \
        == ((0, 0), (1, 1), (2, 3))
    # an interior vertex off the last edge, which the rightmost slope ignores
    with pytest.raises(ArithmeticError, match="anchor"):
        _confirmed_polygon([(0, 10), (1, 5), (2, 2), (3, 0)], 2,
                           [2 ** h for h in (10, 6, 2, 0)])
    # a negative height is no valuation of an integer, not even of a unit
    with pytest.raises(ArithmeticError, match="height -1 at abscissa 1 disagrees"):
        _confirmed_polygon([(0, 0), (1, -1)], 7, (1, 1))
    # a height of 0 asks only that p not divide the part
    assert _confirmed_polygon([(0, 0), (1, 1), (2, 2)], 5, (1, 5, 25)).vertices \
        == ((0, 0), (2, 2))
    with pytest.raises(ArithmeticError, match="height 0 at abscissa 0 disagrees"):
        _confirmed_polygon([(0, 0), (1, 1), (2, 2)], 5, (10, 5, 25))

    inst = ones(construct_phi(2, 42), 40, 2)
    cert = certify(inst)
    assert verify_certificate(cert, inst)
    real = cm.step_polygon

    def off_by_one(steps, end):
        # one more at the last step raises the rightmost point, always a vertex
        return real({**steps, end - 1: steps.get(end - 1, 0) + 1}, end)

    monkeypatch.setattr(cm, "step_polygon", off_by_one)
    polygon = _telescoped_polygon(inst.m, inst.u, inst.v, 7)
    anchors = vertex_anchors(inst.m, inst.u, inst.v, polygon)
    with pytest.raises(ArithmeticError, match="anchor"):
        confirm_vertex_heights(polygon, 7, anchors)
    assert not verify_certificate(cert, inst)


def test_forged_anchor_is_refused(monkeypatch):
    # every anchor times q, a multiple of every prime up to vm+u, raises
    # each vertex valuation: the confirmation refuses the first vertex read
    inst = ones(construct_phi(2, 42), 40, 2)
    cert = certify(inst)
    q = math.prod(sieve_primes(inst.prime_bound))
    real_comb = laguerre.comb
    monkeypatch.setattr(laguerre, "comb", lambda n, k: real_comb(n, k) * q)
    assert not verify_certificate(cert, inst)
    monkeypatch.setattr(laguerre, "comb", lambda n, k: real_comb(n, k) * (1 + q))
    assert verify_certificate(cert, inst)  # a unit at every prime up to vm+u


def test_witness_dividing_v_is_rejected(phi17, monkeypatch):
    # p | v divides the leading multiplier v**m a_m, so exclusion_bounds
    # refuses p before any polygon at p is asked for
    inst = ones(phi17, 5, Fraction(1, 2))
    cert = certify(inst)
    assert verify_certificate(cert, inst) and inst.v == 2
    asked = []
    real = cm._telescoped_polygon
    monkeypatch.setattr(cm, "_telescoped_polygon",
                        lambda m, u, v, p: asked.append(p) or real(m, u, v, p))
    w0 = cert.witnesses[0]
    for slope in (w0.slope, Fraction(0)):
        forged = replace(cert, witnesses=(replace(w0, p=2, slope=slope),) + cert.witnesses[1:])
        assert not verify_certificate(forged, inst)
    assert 2 not in asked


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
                  {"witnesses": None}, {"witnesses": (None,)},
                  # a certificate claims irreducibility or nothing
                  {"conclusion": "reducible"}, {"conclusion": None}]
    for fields in bad_fields:
        assert not verify_certificate(replace(cert, **fields), inst), fields
    # a float equal to the true slope 3/4: only the type check refuses it
    inst, cert = ones(phi17, 6, 1), certify(ones(phi17, 6, 1))
    w0 = cert.witnesses[0]
    assert verify_certificate(cert, inst) and float(w0.slope) == w0.slope
    exact_float = (replace(w0, slope=float(w0.slope)),) + cert.witnesses[1:]
    assert not verify_certificate(replace(cert, witnesses=exact_float), inst)


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
from dataclasses import replace
from fractions import Fraction
from laguerrecert.polygon import NewtonPolygon
from laguerrecert.polyring import Poly, parse_poly
from laguerrecert.laguerre import build_instance

assert not __debug__
cm = importlib.import_module("laguerrecert.certify")
lm = importlib.import_module("laguerrecert.laguerre")
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
# coverage is one degree mask, which needs every k of 1..m//2 exactly once
print("missing k", cm.verify_certificate(replace(cert, witnesses=cert.witnesses[:-1]), inst))
print("repeated k", cm.verify_certificate(
    replace(cert, witnesses=cert.witnesses + cert.witnesses[:1]), inst))
print("wrong conclusion", cm.verify_certificate(replace(cert, conclusion="reducible"), inst))
# the vertex anchors are confirmed by explicit raises: anchors times q
# (every prime up to vm+u = 14) raise each vertex valuation
q = 2 * 3 * 5 * 7 * 11 * 13
real_comb = lm.comb
lm.comb = lambda n, k: real_comb(n, k) * q
print("forged anchor", cm.verify_certificate(cert, inst))
lm.comb = real_comb
# a wrong binomial in the progression form is refused when the c_j are first read
real_comb = lm.comb
lm.comb = lambda n, k: real_comb(n, k) + (k == 3)
try:
    build_instance(7, 2, 1, [Poly.const(1)] * 7, phi).cleared
    print("wrong binomial accepted")
except ArithmeticError:
    print("wrong binomial raises")
lm.comb = real_comb
real_hull = cm.step_polygon
cm.step_polygon = lambda steps, end: real_hull(
    {**steps, end - 1: steps.get(end - 1, 0) + 1}, end)
# the bumped height also moves the slope, so the raise itself is pinned
polygon = cm._telescoped_polygon(12, 2, 1, 7)
try:
    cleared = lm.cleared_from_definition(12, 2, 1, [12 - i for i, _ in polygon.vertices])
    cm.confirm_vertex_heights(polygon, 7, {i: cleared[12 - i] for i, _ in polygon.vertices})
    print("bad anchor accepted")
except ArithmeticError:
    print("bad anchor", cm.verify_certificate(cert, inst))
cm.step_polygon = real_hull
# a stray point far below makes the chord maximum miss the last edge; the
# explicit cross-check in rightmost_slope trips and the verifier says False
real = cm._telescoped_polygon

def broken(m, u, v, p):
    polygon = real(m, u, v, p)
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
# the certifier anchors each prime's runs at b_{m-1} = m(vm+u)/v
real_runs = lm.coefficient_valuations
lm.coefficient_valuations = lambda *args: tuple((j, e + 1) for j, e in real_runs(*args))
try:
    cm.certify(inst)
    print("off-by-one runs accepted")
except ArithmeticError:
    print("off-by-one runs raise")
lm.coefficient_valuations = real_runs
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
    assert proc.stdout.split("\n")[:11] == [
        "verify True", "tampered False", "missing k False", "repeated k False",
        "wrong conclusion False", "forged anchor False", "wrong binomial raises",
        "bad anchor False", "broken polygon False", "bogus witness raises",
        "off-by-one runs raise"]


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
    other_base = ones(construct_phi(2, 6), 5, 1)  # same (m, u, v), another valid base
    assert other_base.phi != phi17
    assert not verify_certificate(cert, other_base)


def _witness_beyond_half(inst):
    """A witness for k = m//2 + 1 that passes every check but the range."""
    k = inst.m // 2 + 1
    return next(ExclusionWitness(k=k, p=p, slope=slope)
                for p in sieve_primes(inst.prime_bound)
                if (slope := witness_slope(inst, k, p)) is not None)


def test_verify_rejects_missing_k(phi17):
    # the verifier's one degree-mask test refuses all of these, so each
    # gets its own case, over phi = x, a quadratic and a cubic base, at odd
    # and even m
    cubic = construct_phi(3, 11)
    for phi, m in ((phi17, 6), (X, 9), (X, 10), (cubic, 9), (cubic, 10)):
        inst = ones(phi, m, 1)
        cert = certify(inst)
        assert verify_certificate(cert, inst)
        first = cert.witnesses[0]
        cases = {"missing": cert.witnesses[:-1],
                 "repeated": cert.witnesses + cert.witnesses[:1],
                 "k = 0": cert.witnesses + (replace(first, k=0),),
                 "k = -1": cert.witnesses + (replace(first, k=-1),),
                 "k = m//2 + 1": cert.witnesses + (_witness_beyond_half(inst),)}
        for case, witnesses in cases.items():
            forged = replace(cert, witnesses=witnesses)
            assert not verify_certificate(forged, inst), (format_poly(phi), m, case)


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


def _set_coverage(m, deg_phi, ks):
    """The set rule the verifier's degree mask replaced: every k of 1..m//2
    exactly once, and every degree 1..m*deg_phi//2 below deg_phi or in a
    witnessed interval [k*deg_phi, (k+1)*deg_phi)."""
    covered = set(range(1, deg_phi))
    for k in ks:
        covered.update(range(k * deg_phi, (k + 1) * deg_phi))
    return (sorted(ks) == list(range(1, m // 2 + 1))
            and all(d in covered for d in range(1, m * deg_phi // 2 + 1)))


def test_coverage_mask_matches_set_rule():
    rng = random.Random(31)
    for deg_phi in (1, 2, 3):
        for m in (9, 10):
            phi = X if deg_phi == 1 else construct_phi(deg_phi, m + 2)
            inst = ones(phi, m, 2)
            cert = certify(inst)
            first = cert.witnesses[0]
            extras = [replace(first, k=0), replace(first, k=-1), _witness_beyond_half(inst)]
            verdicts = []
            for _ in range(40):
                witnesses = [w for w in cert.witnesses if rng.random() < 0.9]
                if rng.random() < 0.3:
                    witnesses.append(rng.choice(list(cert.witnesses) + extras))
                rng.shuffle(witnesses)
                verdict = verify_certificate(replace(cert, witnesses=tuple(witnesses)), inst)
                assert verdict == _set_coverage(m, deg_phi, [w.k for w in witnesses]), (
                    deg_phi, m, [w.k for w in witnesses])
                verdicts.append(verdict)
            assert True in verdicts and False in verdicts


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


def _edited_certificate(fields, phi, index, witness_fields):
    data = json.loads(json.dumps(_GOOD_CERTIFICATE))
    data["witnesses"][index].update(witness_fields)
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
                   # both witnesses carry the slope 1/5, so an edit to the
                   # second meets a slope text the parser has seen
                   st.integers(0, len(_GOOD_CERTIFICATE["witnesses"]) - 1),
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


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="the interpreter has no int/str digit limit")
def test_certificate_round_trip_past_the_int_digit_limit():
    # a base with a 5,142-digit coefficient, past Python's default limit of
    # 4,300 digits for int/str conversion, which the text format avoids
    phi = construct_phi(2, 12000)
    assert max(abs(c) for c in phi.coeffs) > 10**5000
    cert = certify(ones(phi, 5, 2))
    assert isinstance(cert, Certificate)
    sys.set_int_max_str_digits(4300)
    assert certificate_from_json(certificate_to_json(cert)) == cert


@pytest.mark.parametrize("edit", [
    lambda d: d.pop("conclusion"),
    lambda d: (d.pop("conclusion"), d.update(extra="irreducible-over-Q")),
    lambda d: d.update(conclusion=None),
    lambda d: d.update(conclusion=["irreducible-over-Q"]),
], ids=["missing", "missing-extra-key", "null", "list"])
def test_parser_requires_a_string_conclusion(edit):
    data = json.loads(json.dumps(_GOOD_CERTIFICATE))
    edit(data)
    with pytest.raises(ValueError, match="malformed certificate"):
        certificate_from_json(json.dumps(data))


def _indent_layout(cert):
    """json.dumps(..., indent=2) of the certificate's fields, in the file's order."""
    return json.dumps({
        "m": cert.m,
        "u": cert.u,
        "v": cert.v,
        "phi": format_poly(cert.phi),
        "small_degree_prime": cert.small_degree_prime,
        "witnesses": [{"k": w.k, "p": w.p,
                       "slope": f"{w.slope.numerator}/{w.slope.denominator}",
                       "divisibility_range": [0, cert.m - w.k]} for w in cert.witnesses],
        "conclusion": cert.conclusion,
    }, indent=2)


def test_certificate_writer_matches_indent_layout():
    # the template writer against the indent=2 encoder: every certificate of
    # the all-ones grid (m = 1 ones among them, with no witnesses) and m = 1600
    written = empty = 0
    for inst in _all_ones_grid():
        cert = certify(inst)
        if isinstance(cert, Certificate):
            assert certificate_to_json(cert) == _indent_layout(cert), (inst.m, inst.u, inst.v)
            written += 1
            empty += not cert.witnesses
    assert written > 700 and empty >= 1
    single = certify(ones(construct_phi(2, 3), 1, 2))
    assert single.witnesses == ()
    assert '"witnesses": [],' in certificate_to_json(single)
    assert certificate_to_json(single) == _indent_layout(single)
    large = certify(LaguerreInstance(1600, 2, 1, [Poly.const(1)] * 1600, construct_phi(2, 1602)))
    assert isinstance(large, Certificate) and len(large.witnesses) == 800
    assert certificate_to_json(large) == _indent_layout(large)


def test_certificate_writer_runs_no_indent_encoder(monkeypatch):
    # structural: the indent=2 layout comes from templates, and json.dumps
    # only encodes strings, which never reach the pure-Python encoder
    cert = certify(ones(construct_phi(2, 42), 40, 2))
    calls = []
    real = json.encoder._make_iterencode

    def spying(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(json.encoder, "_make_iterencode", spying)
    text = certificate_to_json(cert)
    assert calls == []
    assert _indent_layout(cert) == text and len(calls) == 1  # the spy sees the encoder


def _m40_certificate():
    data = json.loads(certificate_to_json(certify(ones(construct_phi(2, 42), 40, 2))))
    texts = [w["slope"] for w in data["witnesses"]]
    # the first index whose slope text an earlier record already carried
    repeat = next(i for i, t in enumerate(texts) if t in texts[:i])
    return data, repeat


@pytest.mark.parametrize("field, value", [
    ("k", "3"), ("k", True), ("k", 3.0), ("k", None),
    ("divisibility_range", [0]), ("divisibility_range", [0, "37"]),
    ("divisibility_range", [0, 37.0]), ("divisibility_range", [False, 37]),
    ("divisibility_range", "0..37"), ("p", "5"),
])
def test_parser_checks_records_repeating_a_slope_text(field, value):
    # a parsed slope text is not a checked record: a later record with the
    # same text is type-checked in full
    data, repeat = _m40_certificate()
    assert repeat >= 1
    certificate_from_json(json.dumps(data))
    data["witnesses"][repeat][field] = value
    with pytest.raises(ValueError, match="malformed certificate"):
        certificate_from_json(json.dumps(data))


@pytest.mark.parametrize("slope", ["1/x", "1 / 13", "1/13 ", "1/0", "/13", "1.0/13", "+1/13",
                                   "1/-13", "", 1, None])
def test_parser_refuses_malformed_slope_after_valid_ones(slope):
    data, _ = _m40_certificate()
    data["witnesses"][-1]["slope"] = slope
    with pytest.raises(ValueError, match="malformed certificate"):
        certificate_from_json(json.dumps(data))


def test_parser_reduces_slope_texts():
    data, repeat = _m40_certificate()
    data["witnesses"][0]["slope"] = "2/4"
    data["witnesses"][repeat]["slope"] = "2/4"
    cert = certificate_from_json(json.dumps(data))
    for index in (0, repeat):
        slope = cert.witnesses[index].slope
        assert type(slope) is Fraction and (slope.numerator, slope.denominator) == (1, 2)


def test_verify_refuses_slope_times_k_equal_to_one():
    # k * slope < 1 is strict: find, over the grid's primes, a prime p whose
    # own slope is exactly 1/k for some k in its range k_lo..m//2 (k >= 2,
    # so k-1 is in range too) on a certified instance
    for inst in _all_ones_grid():
        m = inst.m
        cert = certify(inst)
        if not isinstance(cert, Certificate):
            continue
        hit = None
        for p in sieve_primes(inst.prime_bound):
            if inst.v % p == 0 or not is_irreducible_mod_p(inst.phi, p):
                continue
            bounds = _verifier_bounds(inst, p, _telescoped_polygon_at(inst))
            if bounds and bounds[1].numerator == 1 and \
                    max(bounds[0] + 1, 2) <= bounds[1].denominator <= m // 2:
                hit = p, bounds[1]
                break
        if hit:
            break
    assert hit is not None
    p, slope = hit
    k = slope.denominator

    def with_witness(j):
        return replace(cert, witnesses=tuple(ExclusionWitness(k=j, p=p, slope=slope)
                                             if w.k == j else w for w in cert.witnesses))

    assert verify_certificate(cert, inst)
    assert not verify_certificate(with_witness(k), inst), (m, inst.u, inst.v, p, k)
    assert verify_certificate(with_witness(k - 1), inst)  # (k-1) * slope < 1
