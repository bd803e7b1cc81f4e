import math
import re
from fractions import Fraction

import pytest

from laguerrecert import laguerre
from laguerrecert.laguerre import (HypothesisViolation, LaguerreInstance,
                                   build_instance, coefficient_valuations,
                                   laguerre_coefficients, parameter)
from laguerrecert.polyring import Poly, X, parse_poly, phi_expand
from laguerrecert.primes import (INFINITY, factorial_valuation, is_prime,
                                 sieve_primes, vp_int, vp_rat)


def const_parts(*values):
    return [Poly.const(v) for v in values]


# -- parameter ----------------------------------------------------------------

def test_parameter_validation():
    assert parameter(Fraction(3, 2)) == Fraction(3, 2)
    assert parameter(4) == Fraction(4) and type(parameter(4)) is Fraction
    assert parameter((4, 6)) == Fraction(2, 3)
    assert parameter((2, -4)) == Fraction(-1, 2)
    assert parameter(Fraction(-1, 2)) == Fraction(-1, 2)
    with pytest.raises(ValueError, match="v must be nonzero"):
        parameter((1, 0))
    for value in (0.5, "1/2", (1, 2, 3), (1.0, 2), None):
        with pytest.raises(TypeError):
            parameter(value)
    for value in (-1, Fraction(-4, 2), (3, -1)):
        with pytest.raises(HypothesisViolation, match="alpha is a negative integer"):
            parameter(value)


# -- coefficients --------------------------------------------------------------

def test_coefficients_examples():
    assert laguerre_coefficients(2, 2) == (12, 8)
    assert laguerre_coefficients(2, 1) == (6, 6)
    assert laguerre_coefficients(1, 0) == (1,)
    assert laguerre_coefficients(2, 3) == (20, 10)
    assert laguerre_coefficients(2, 4) == (30, 12)


def test_coefficients_rational_parameter():
    b = laguerre_coefficients(2, Fraction(1, 2))
    # b_1 = 2*(2 + 1/2), b_0 = (2 + 1/2)(1 + 1/2)
    assert b == (Fraction(15, 4), Fraction(5))


def test_coefficient_forms_agree_on_grid(product_form):
    # the Fraction views b_j = c_j / v**m against the paper's product form,
    # written out in the test, across a dense grid
    for v in range(1, 6):
        for u in range(0, 10):
            if math.gcd(u, v) != 1:
                continue
            for m in (1, 2, 3, 7, 25):
                a = Fraction(u, v)
                assert laguerre_coefficients(m, a) == product_form(m, a), (m, a)


def test_wrong_binomial_is_refused_by_the_ratio_identity(monkeypatch, phi17):
    # one wrong C(m,j) in the progression form; the identity check raises
    # when the c_j are first read, and nothing wrong is left in the cache
    real = laguerre.comb
    monkeypatch.setattr(laguerre, "comb", lambda n, k: real(n, k) + (k == 3))
    laguerre._cleared_coefficients.cache_clear()
    try:
        with pytest.raises(ArithmeticError, match="ratio identity fails at j="):
            build_instance(7, 2, 1, const_parts(*[1] * 7), phi17).cleared
    finally:
        laguerre._cleared_coefficients.cache_clear()


def test_ratio_identity_checks_every_step_and_the_leading_part():
    c = laguerre._cleared_coefficients(5, Fraction(2, 3))
    assert laguerre.ratio_identity_parts(c, 5, 2, 3) == c + (3 ** 5,)
    bad = [c[:j] + (c[j] + 1,) + c[j + 1:] for j in range(5)]
    bad.append(tuple(2 * cj for cj in c))  # every ratio holds; c_m = v**m does not
    bad += [c[:-1], c + (3 ** 5,)]
    for forged in bad:
        with pytest.raises(ArithmeticError):
            laguerre.ratio_identity_parts(forged, 5, 2, 3)
    # m = 1 has a single step, from c_0 to c_1 = v
    assert laguerre.ratio_identity_parts((5,), 1, 3, 2) == (5, 2)
    with pytest.raises(ArithmeticError):
        laguerre.ratio_identity_parts((6,), 1, 3, 2)
    # a zero step v(j+1)+u: the parameter -2/1 is excluded, so only forged input gets here
    with pytest.raises(ArithmeticError):
        laguerre.ratio_identity_parts((0, 0), 2, -2, 1)


# -- instances -----------------------------------------------------------------

def test_reducible_row_assembles(phi17):
    inst = build_instance(2, 1, 3, const_parts(-4, 1), phi17, relaxed=True)
    assert inst.b == (6, 6, 3)
    reference = (phi17 + 4) * (phi17 - 2) * Fraction(3, 2)
    assert inst.laguerre_polynomial == reference
    assert not inst.is_valid


def test_reducible_row_alpha3(phi17):
    inst = build_instance(2, 3, 1, const_parts(-10, 1), phi17, relaxed=True)
    assert inst.laguerre_polynomial == (phi17 - 10) * (phi17 + 20) * Fraction(1, 2)


def test_even_lead_rejected_strictly(phi17):
    with pytest.raises(HypothesisViolation, match="divisible by 2"):
        build_instance(2, 2, 4, const_parts(-1, 1), phi17)


def test_valid_instance_has_no_violations(phi17):
    inst = build_instance(3, 0, 1, const_parts(1, 1, 1), phi17)
    assert inst.is_valid
    assert inst.prime_bound == 3
    assert inst.f == phi17**3 + 9 * phi17**2 + 18 * phi17 + 6


def test_degree_violation_reported(phi17):
    with pytest.raises(HypothesisViolation, match="deg a_0"):
        build_instance(2, 0, 1, [parse_poly("x^2"), Poly.const(1)], phi17)


def test_phi_reducibility_reported(phi17):
    # bound m+u = 17 pulls in p = 17, where the base splits
    with pytest.raises(HypothesisViolation, match="reducible modulo 17"):
        build_instance(13, 4, 1, const_parts(*[1] * 13), phi17)


def test_direct_construction_makes_the_structural_checks(phi17):
    # the constructor raises what build_instance raises, with its message
    cases = {
        (3, 0, 1, (1,), phi17): "expected 3 lower multipliers, got 1",
        (2, 0, 1, (1, 1, 1), phi17): "expected 2 lower multipliers, got 3",
        (2, 0, 0, (1, 1), phi17): "leading multiplier must be a nonzero integer",
        (2, 0, 1, (1, 1), parse_poly("2x^2 - x + 17")):
            "base polynomial must be monic over the integers, degree >= 1",
        (0, 0, 1, (), phi17): "m must be positive",
        (1, 0, 1, (Poly((Fraction(1, 2), 1)),), phi17):
            "multipliers must have integer coefficients",
    }
    for (m, u, a_m, parts, phi), message in cases.items():
        for make in (LaguerreInstance, build_instance):
            with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
                make(m, u, a_m, parts, phi)
    # integer multipliers become constants, as build_instance made them
    direct = LaguerreInstance(2, 1, 1, [1, 1], phi17)
    built = build_instance(2, 1, 1, [1, 1], phi17)
    assert direct.a_parts == built.a_parts == (Poly.const(1), Poly.const(1))
    assert direct.f == built.f and direct.violations == built.violations == ()


def test_non_integer_parameter_denominator_clearing():
    phi = parse_poly("x^2 - x + 5")
    inst = build_instance(1, Fraction(1, 2), 1, const_parts(1), phi)
    # f = v**m (a_1 phi + b_0), b_0 = 3/2, so f = 2 phi + 3
    assert inst.f == 2 * phi + 3
    assert inst.laguerre_polynomial == phi + Fraction(3, 2)


def test_expansion_parts_match_coefficients(phi17, rng):
    for _ in range(20):
        m = rng.randrange(1, 7)
        u = rng.choice([0, 1, 2, 3, 4])
        a_m = rng.choice([1, -1, 5, 7])
        parts = []
        for _ in range(m):
            c = [rng.randrange(-5, 6), rng.randrange(-5, 6)]
            parts.append(Poly(c if any(c) else [1]))
        inst = build_instance(m, u, a_m, parts, phi17, relaxed=True)
        expansion = phi_expand(inst.f, phi17)
        expected = [bj * aj for bj, aj in zip(inst.b, inst.a_parts)]
        expected.append(Poly.const(a_m))
        while expected and expected[-1].is_zero:
            expected.pop()
        assert list(expansion.parts) == expected
        assert expansion.reassemble() == inst.f


def test_valuation_vector_examples(phi17):
    inst = build_instance(8, 1, 1, const_parts(*[1] * 8), phi17)
    vec = inst.valuation_vector(7)
    assert all(vec[j] >= 1 for j in range(7))
    assert vec[7] == 0 and vec[8] == 0

    inst = build_instance(2, 2, 1, const_parts(1, 1), phi17, relaxed=True)
    assert inst.valuation_vector(2) == (2, 3, 0)

    inst = build_instance(1, 0, 1, const_parts(1), phi17)
    assert inst.valuation_vector(5) == (0, 0)


def test_valuation_vector_rejects_bad_prime(phi17):
    inst = build_instance(1, Fraction(1, 2), 1, const_parts(1), phi17)
    with pytest.raises(ValueError):
        inst.valuation_vector(2)
    with pytest.raises(ValueError):
        inst.valuation_vector(4)


def _admissible_alphas(vs, us):
    # u/v in lowest terms and not a negative integer
    for v in vs:
        for u in us:
            if math.gcd(u, v) == 1 and (v > 1 or u >= 0):
                yield Fraction(u, v)


def test_cleared_coefficients_are_exact(product_form):
    # the integers v**m b_j that f, the verifier's expansion and the
    # small-degree test read, against the paper's product form of b_j
    for alpha in _admissible_alphas((1, 2, 3, 5), range(-7, 8)):
        for m in range(1, 31):
            b = product_form(m, alpha)
            inst = LaguerreInstance(m, alpha, 1, const_parts(*[1] * m), X)
            assert len(inst.cleared) == m
            for j, c in enumerate(inst.cleared):
                assert type(c) is int and c == alpha.denominator ** m * b[j], (m, alpha, j)
            assert inst.b == b + (1,)


def test_instance_constructed_directly_coerces_its_parameter():
    for alpha in (Fraction(2, 3), (2, 3), (4, 6), Fraction(4, 6)):
        inst = LaguerreInstance(2, alpha, 1, const_parts(1, 1), X)
        assert inst.alpha == Fraction(2, 3) and (inst.u, inst.v) == (2, 3)
        assert type(inst.u) is int and type(inst.v) is int
        assert inst.prime_bound == 8
        assert inst.cleared == (8 * 5, 2 * 3 * 8)  # (2v+u)(v+u), C(2,1) v (2v+u)
        assert inst.valuation_vector(2) == (3, 4, 0)
    inst = LaguerreInstance(2, 1, 1, const_parts(1, 1), X)
    assert inst.alpha == 1 and type(inst.alpha) is Fraction and (inst.u, inst.v) == (1, 1)
    assert inst.valuation_vector(3) == (1, 1, 0)


def test_additive_valuation_vector_matches_vp_rat(product_form):
    # the additive route (Legendre binomial term plus the progression sum)
    # against vp_rat on the paper's product form of b_j, for every parameter
    checked = 0
    for alpha in _admissible_alphas((1, 2, 3, 5), range(-7, 8)):
        for m in range(1, 61):
            b = product_form(m, alpha)
            for p in sieve_primes(alpha.denominator * m + alpha.numerator + 10):
                if alpha.denominator % p == 0:
                    continue
                expected = tuple(vp_rat(p, bj) for bj in b)
                assert coefficient_valuations(m, alpha, p) == expected, (m, alpha, p)
                checked += 1
    assert checked == 55_962


def test_additive_valuation_vector_large_m():
    for alpha in (2, (2, 3), Fraction(-7, 5)):
        b = laguerre_coefficients(800, alpha)
        inst = LaguerreInstance(800, alpha, 12, const_parts(*[1] * 800), X)
        for p in (2, 3, 7, 797):
            if inst.v % p:
                expected = tuple(vp_rat(p, bj) for bj in b) + (vp_int(p, 12),)
                assert inst.valuation_vector(p) == expected, (alpha, p)


def _per_n_valuations(m, alpha, p):
    """v_p(b_j) from one factorial_valuation per n and one vp_int per factor v*i+u."""
    u, v = alpha.numerator, alpha.denominator
    fact = [factorial_valuation(p, n) for n in range(m + 1)]
    factor = [0] + [vp_int(p, v * i + u) for i in range(1, m + 1)]
    return tuple(fact[m] - fact[j] - fact[m - j] + sum(factor[j + 1:])
                 for j in range(m))


def test_event_valuations_match_per_n_reference(rng):
    alphas = [Fraction(a) for a in (0, 1, 4, "-1/2", "1/2", "2/3", "-2/3", "5/3", "3/4")]
    seen = {"p | u": 0, "p > m": 0, "p = vm+u": 0}
    for alpha in alphas:
        u, v = alpha.numerator, alpha.denominator
        # m = 1 and 200, plus a seeded sample and an m with vm+u prime
        ms = {1, 200, *rng.sample(range(2, 200), 12)}
        ms.add(next(m for m in range(rng.randrange(2, 150), 201)
                    if is_prime(v * m + u)))
        for m in sorted(ms):
            for p in sieve_primes(v * m + u):
                if v % p == 0:
                    continue
                assert coefficient_valuations(m, alpha, p) == \
                    _per_n_valuations(m, alpha, p), (m, alpha, p)
                seen["p | u"] += u != 0 and u % p == 0
                seen["p > m"] += p > m
                seen["p = vm+u"] += p == v * m + u
    assert all(seen.values()), seen


def test_primes_of_bound_divide_lower_coefficients():
    # every prime dividing m+u divides b_0..b_{m-1} for integer parameters
    for u in range(5):
        for m in range(1, 201):
            b = laguerre_coefficients(m, u)
            for p in (2, 3, 5, 7, 11, 13):
                if (m + u) % p:
                    continue
                assert all(bj.numerator % p == 0 for bj in b), (m, u, p)


def test_valuation_difference_bounded_by_factorial(rng):
    for _ in range(100):
        v = rng.choice([1, 1, 1, 2, 3])
        u = rng.randrange(0, 8)
        if math.gcd(u, v) != 1:
            continue
        m = rng.randrange(2, 30)
        p = rng.choice([2, 3, 5, 7, 11])
        if v % p == 0:
            continue
        b = laguerre_coefficients(m, Fraction(u, v))
        v0 = vp_rat(p, b[0])
        for j in range(1, m):
            assert v0 - vp_rat(p, b[j]) <= factorial_valuation(p, v * j + abs(u))
