import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from laguerrecert.primes import (INFINITY, composite_flags, factorial_valuation,
                                 factorize, is_prime, largest_prime_factor,
                                 sieve_primes, vp_int, vp_rat)


def trial_division_primes(bound):
    out = []
    for n in range(2, bound + 1):
        if all(n % d for d in range(2, math.isqrt(n) + 1)):
            out.append(n)
    return out


def test_sieve_small():
    assert sieve_primes(13) == [2, 3, 5, 7, 11, 13]
    assert sieve_primes(2) == [2]
    assert sieve_primes(1) == []
    assert sieve_primes(-5) == []


def test_sieve_against_trial_division():
    got = sieve_primes(100)
    assert len(got) == 25
    assert got == trial_division_primes(100)
    assert sieve_primes(10_000) == trial_division_primes(10_000)


def test_composite_flags_against_trial_division():
    # 0 at the primes, 1 at 0, 1 and every composite, at every bound: the
    # even slice must leave 2 alone and the odd loop strike every odd multiple
    primes = set(trial_division_primes(10**5))
    reference = bytearray(n not in primes for n in range(10**5 + 1))
    for bound in range(1, 3001):
        assert composite_flags(bound) == reference[:bound + 1], bound
    assert composite_flags(10**5) == reference


def test_vp_int_examples():
    assert vp_int(2, 12) == 2
    assert vp_int(7, 2016) == 1
    assert vp_int(5, -125) == 3
    assert vp_int(3, 0) == INFINITY


def test_vp_int_rejects_composite_base():
    with pytest.raises(ValueError):
        vp_int(6, 12)


def _naive_vp(p, n):
    n, e = abs(n), 0
    while n % p == 0:
        n //= p
        e += 1
    return e


@settings(max_examples=400, deadline=None)
@given(st.sampled_from([2, 3, 5, 7, 13, 97, 1009, 7919, 1_000_003]),
       st.integers(min_value=0, max_value=500),
       st.integers(min_value=-10**12, max_value=10**12).filter(bool))
def test_vp_int_matches_naive_division(p, e, c):
    n = c * p**e
    assert vp_int(p, n) == _naive_vp(p, n) == e + _naive_vp(p, c)
    assert vp_int(p, -n) == vp_int(p, n)


def test_vp_int_every_exponent_up_to_500():
    for p in (2, 3, 11, 1009):
        for e in range(501):
            for unit in (1, -1, p + 1, -(p - 1) * (2 * p + 1)):
                assert vp_int(p, unit * p**e) == e, (p, e, unit)
    assert vp_int(2, 0) == vp_int(1009, 0) == INFINITY


@pytest.mark.parametrize("p", [2, 3, 1_000_003])
def test_vp_int_at_exponent_ten_thousand(p):
    e = 10**4
    assert vp_int(p, (p + 1) * p**e) == e
    assert vp_int(p, -(p - 1) * p**e) == e


def test_vp_rat_examples():
    assert vp_rat(3, Fraction(9, 2)) == 2
    assert vp_rat(2, Fraction(9, 2)) == -1
    assert vp_rat(7, Fraction(12, 35)) == -1
    assert vp_rat(5, 0) == INFINITY
    assert vp_rat(3, 18) == 2


@given(st.sampled_from([2, 3, 5, 7, 13]),
       st.integers(min_value=-10**6, max_value=10**6).filter(bool),
       st.integers(min_value=1, max_value=10**6))
def test_vp_rat_matches_parts(p, a, b):
    assert vp_rat(p, Fraction(a, b)) == vp_int(p, a) - vp_int(p, b)


@given(st.sampled_from([2, 3, 5, 7]),
       st.integers(min_value=-10**9, max_value=10**9).filter(bool),
       st.integers(min_value=-10**9, max_value=10**9).filter(bool))
def test_vp_additive_on_products(p, a, b):
    assert vp_int(p, a * b) == vp_int(p, a) + vp_int(p, b)


def test_factorial_valuation_examples():
    assert factorial_valuation(2, 10) == 8
    assert factorial_valuation(7, 6) == 0
    assert factorial_valuation(3, 9) == 4
    assert factorial_valuation(5, 0) == 0


def test_factorial_valuation_matches_direct_factorial():
    for p in (2, 3, 5, 7, 13):
        for n in range(1, 300):
            assert factorial_valuation(p, n) == vp_int(p, math.factorial(n))


def test_factorial_valuation_strict_bound(rng):
    for _ in range(300):
        p = rng.choice([2, 3, 5, 7, 11, 101])
        n = rng.randrange(1, 10_000)
        assert factorial_valuation(p, n) < Fraction(n, p - 1)


def test_factorize_roundtrip(rng):
    for _ in range(100):
        n = rng.randrange(2, 10**9)
        facts = factorize(n)
        assert math.prod(p**e for p, e in facts.items()) == n
        assert all(is_prime(p) for p in facts)


def test_largest_prime_factor_examples():
    assert largest_prime_factor(12) == 3
    assert largest_prime_factor(72) == 3
    assert largest_prime_factor(97) == 97
    assert largest_prime_factor(-97) == 97
    assert largest_prime_factor(2**4 * 10**6 + 1) in factorize(2**4 * 10**6 + 1)


def test_largest_prime_factor_rejects_units():
    for n in (0, 1, -1):
        with pytest.raises(ValueError):
            largest_prime_factor(n)


def test_largest_prime_factor_splits_big_semiprime():
    p, q = 1_000_003, 1_000_033
    assert largest_prime_factor(p * q) == q
    # both remainders after trial division are composite, so rho splits them
    assert factorize(p**3) == {p: 3}
    assert factorize(p * q * 1_000_037) == {p: 1, q: 1, 1_000_037: 1}

