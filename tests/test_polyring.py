import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from laguerrecert.polyring import (MAX_PARSED_DEGREE, DegreePattern, Poly, X,
                                   _frobenius_rows, _fp_unpack, check_phi,
                                   construct_phi, content, degree_pattern, format_poly,
                                   gauss_valuation, is_irreducible_mod_p,
                                   parse_poly, phi_expand, primitive_part,
                                   reduce_mod_p)
from laguerrecert.primes import INFINITY


def rand_poly(rng, max_deg, lo=-9, hi=9, monic=False):
    deg = rng.randrange(0, max_deg + 1)
    coeffs = [rng.randrange(lo, hi + 1) for _ in range(deg + 1)]
    if monic:
        coeffs[-1] = 1
    elif coeffs[-1] == 0:
        coeffs[-1] = 1
    return Poly(coeffs)


# -- arithmetic -------------------------------------------------------------

def test_product_difference_of_squares():
    assert (X + 1) * (X - 1) == X**2 - 1


def test_additive_identity(phi17):
    assert phi17 + Poly() == phi17


def test_shifted_product_expansion(phi17):
    # (phi+4)(phi-2) checked against an evaluation oracle at 5 points
    f = (phi17 + 4) * (phi17 - 2)
    for x in range(5):
        assert f(x) == (phi17(x) + 4) * (phi17(x) - 2)
    assert f == parse_poly("x^4 - 2x^3 + 37x^2 - 36x + 315")


def test_divmod_reconstructs(rng):
    for _ in range(200):
        f = rand_poly(rng, 8)
        g = rand_poly(rng, 4)
        if g.is_zero:
            continue
        q, r = divmod(f, g)
        assert q * g + r == f
        assert r.is_zero or r.degree < g.degree


def test_pow_matches_repeated_multiplication():
    assert X**0 == Poly((1,))
    assert (X + 1) ** 3 == (X + 1) * (X + 1) * (X + 1)


def test_scalar_multiplication_and_fractions():
    f = Poly((1, 2)) * Fraction(1, 2)
    assert f == Poly((Fraction(1, 2), 1))
    assert f * 2 == Poly((1, 2))


# -- text format ------------------------------------------------------------

def test_format_examples(phi17):
    assert format_poly(phi17) == "x^2 - x + 17"
    assert format_poly(Poly()) == "0"
    assert format_poly(Poly((0, -1))) == "-x"
    assert format_poly(Poly((Fraction(3, 2), 0, 1))) == "x^2 + 3/2"


def test_parse_accepts_any_term_order(phi17):
    assert parse_poly("17 - x + x^2") == phi17
    assert parse_poly("x^2-x+17") == phi17
    assert parse_poly("3x^2 - x + 17") == Poly((17, -1, 3))
    assert parse_poly("0") == Poly()
    assert parse_poly("x + x") == Poly((0, 2))
    assert parse_poly(f"x^{MAX_PARSED_DEGREE}") == Poly.term(1, MAX_PARSED_DEGREE)
    assert parse_poly("3 x^2") == Poly((0, 0, 3))
    assert parse_poly("x ^ 2") == Poly((0, 0, 1))


def test_parse_rejects_garbage():
    # every term after the first joins by + or -, and no whitespace splits a number
    for bad in ("", "x^-2", "y+1", "3*x", "x^", "1/0x", f"x^{MAX_PARSED_DEGREE + 1}",
                "x^99999999999", "x^2 17", "2 3", "2x3", "x^2-x17", "x^2x^3"):
        with pytest.raises(ValueError):
            parse_poly(bad)


def test_text_round_trip_exact(rng):
    for _ in range(300):
        f = rand_poly(rng, 7, -50, 50)
        assert parse_poly(format_poly(f)) == f


def test_rational_text_round_trip():
    f = Poly((Fraction(-3, 2), Fraction(1, 7), 0, 5))
    assert parse_poly(format_poly(f)) == f


# -- content / valuations ----------------------------------------------------

def test_content_examples(phi17):
    assert content(Poly((2, 4, 6))) == 2
    assert content(phi17) == 1
    assert content(Poly((0, -25, 0, 15))) == 5
    with pytest.raises(ValueError):
        content(Poly())


def test_content_multiplicative(rng):
    for _ in range(200):
        f, g = rand_poly(rng, 5), rand_poly(rng, 5)
        if f.is_zero or g.is_zero:
            continue
        assert content(f * g) == content(f) * content(g)


def test_primitive_part(rng):
    f = Poly((6, -12, 18))
    assert primitive_part(f) == Poly((1, -2, 3))


def test_gauss_valuation_examples():
    assert gauss_valuation(2, Poly((10, 6, 4))) == 1
    assert gauss_valuation(3, Poly((3, 9))) == 1
    assert gauss_valuation(5, Poly((1, 1))) == 0
    assert gauss_valuation(2, Poly()) == INFINITY


def test_gauss_valuation_multiplicative(rng):
    for p in (2, 3, 5, 7):
        for _ in range(100):
            f, g = rand_poly(rng, 6), rand_poly(rng, 6)
            if f.is_zero or g.is_zero:
                continue
            assert gauss_valuation(p, f * g) == \
                gauss_valuation(p, f) + gauss_valuation(p, g)


# -- expansion ----------------------------------------------------------------

def test_expand_cubic_by_quadratic():
    exp = phi_expand(X**3, X**2 + 1)
    assert exp.parts == (Poly((0, -1)), Poly((0, 1)))


def test_expand_pure_power(phi17):
    exp = phi_expand(phi17**2, phi17)
    assert exp.parts == (Poly(), Poly(), Poly((1,)))


def test_expand_with_constant_remainder():
    exp = phi_expand(X**4 + 2 * X**2 + 5, X**2 + 1)
    assert exp.parts == (Poly((4,)), Poly(), Poly((1,)))
    assert exp.reassemble() == X**4 + 2 * X**2 + 5


def test_expand_requires_monic():
    with pytest.raises(ValueError):
        phi_expand(X**2, Poly((1, 2)))
    with pytest.raises(ValueError):
        phi_expand(X**2, Poly((5,)))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_expansion_round_trip(seed):
    rng = random.Random(seed)
    f = rand_poly(rng, 40, -99, 99)
    phi = rand_poly(rng, 5, -9, 9, monic=True)
    if phi.degree < 1:
        phi = X + 1
    exp = phi_expand(f, phi)
    assert exp.reassemble() == f
    assert all(part.degree < phi.degree for part in exp.parts)
    if exp.parts:
        assert not exp.parts[-1].is_zero


def test_expansion_round_trip_bulk():
    rng = random.Random(77)
    for _ in range(1000):
        f = rand_poly(rng, 40, -99, 99)
        phi = rand_poly(rng, 5, -9, 9, monic=True)
        if phi.degree < 1:
            phi = X + 1
        exp = phi_expand(f, phi)
        assert exp.reassemble() == f
        assert all(part.degree < phi.degree for part in exp.parts)


# -- mod-p layer ---------------------------------------------------------------

def test_reduce_mod_p_examples(phi17):
    assert reduce_mod_p(phi17, 2) == Poly((1, 1, 1))
    assert reduce_mod_p(phi17, 17) == Poly((0, 16, 1))
    assert reduce_mod_p(Poly((0, 1, 0, 7)), 7) == Poly((0, 1))


def test_mod_p_layer_refuses_rational_coefficients():
    # x^2 + 7/2 is x^2 + 1 = (x + 2)(x + 3) mod 5; truncating 7/2 to 3 would
    # give the irreducible x^2 + 3 instead
    f = Poly((Fraction(7, 2), 0, 1))
    for reduce in (reduce_mod_p, degree_pattern, is_irreducible_mod_p):
        with pytest.raises(ValueError, match="integer coefficients"):
            reduce(f, 5)


def test_irreducible_mod_p_examples(phi17):
    assert is_irreducible_mod_p(phi17, 2)
    assert is_irreducible_mod_p(phi17, 13)
    assert not is_irreducible_mod_p(X**2 - 1, 3)
    with pytest.raises(ValueError):
        is_irreducible_mod_p(Poly((1,)), 3)
    with pytest.raises(ValueError):
        is_irreducible_mod_p(2 * X**2 + 1, 3)


def _monic_polys(p, d):
    for lower in product(range(p), repeat=d):
        yield Poly(tuple(lower) + (1,))


def _irreducible_by_enumeration(f, p):
    # divisibility by every lower-degree monic polynomial, the slow way
    for d in range(1, f.degree):
        for g in _monic_polys(p, d):
            _, r = divmod(reduce_mod_p(f, p), g)
            if reduce_mod_p(r, p).is_zero:
                return False
    return True


def test_irreducibility_matches_enumeration():
    for p in (2, 3, 5):
        for d in range(1, 5):
            for f in _monic_polys(p, d):
                assert is_irreducible_mod_p(f, p) == _irreducible_by_enumeration(f, p), \
                    f"disagreement at p={p}, f={f}"


def test_degree_pattern_and_irreducibility_match_sympy():
    # sympy's factorization over the p-element field is the independent
    # reference for the one distinct-degree routine behind both answers
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(4417)
    primes = [p for p in range(2, 102) if all(p % q for q in range(2, p))]
    checked = reducible = unusable = 0
    for _ in range(1500):
        p = rng.choice(primes)
        d = rng.randrange(1, 7)
        f = Poly([rng.randrange(-p, 2 * p) for _ in range(d)] + [1])
        _, factors = sympy.Poly(list(reversed(f.coeffs)), x, modulus=p).factor_list()
        squarefree = all(e == 1 for _, e in factors)
        degrees = tuple(sorted(g.degree() for g, e in factors for _ in range(e)))
        pattern = degree_pattern(f, p)
        if squarefree:
            assert pattern == DegreePattern(p, degrees, True), (f, p)
        else:
            assert pattern == DegreePattern(p, (), False), (f, p)
            unusable += 1
        irreducible = len(factors) == 1 and factors[0][1] == 1
        assert is_irreducible_mod_p(f, p) == irreducible, (f, p)
        reducible += not irreducible
        checked += 1
    assert checked == 1500 and reducible > 300 and unusable > 30


_SMALL_PRIMES = [p for p in range(2, 200) if all(p % q for q in range(2, p))]


def _sympy_pattern(sympy, f, p):
    """The DegreePattern sympy's factorization over F_p implies."""
    x = sympy.Symbol("x")
    _, factors = sympy.Poly(list(reversed(f.coeffs)), x, modulus=p).factor_list()
    if any(e > 1 for _, e in factors):
        return DegreePattern(p, (), False)
    return DegreePattern(p, tuple(sorted(g.degree() for g, _ in factors)), True)


def test_degree_pattern_matches_sympy_up_to_degree_30():
    # the oracle's range: degree up to 30, primes up to 60, and leading
    # coefficients other than 1 (prime to p); a few larger primes too
    sympy = pytest.importorskip("sympy")
    rng = random.Random(3001)
    usable = 0
    for _ in range(300):
        p = rng.choice(_SMALL_PRIMES[:17] * 3 + _SMALL_PRIMES[17:])
        n = rng.randrange(4, 31)
        lead = rng.choice([c for c in range(-9, 10) if c % p])
        f = Poly([rng.randrange(-3 * p, 3 * p) for _ in range(n)] + [lead])
        pattern = degree_pattern(f, p)
        assert pattern == _sympy_pattern(sympy, f, p), (f, p)
        usable += pattern.usable
    assert usable > 150


def _random_irreducible(sympy, rng, degree, p):
    x = sympy.Symbol("x")
    while True:
        coeffs = [1] + [rng.randrange(p) for _ in range(degree)]
        if sympy.Poly(coeffs, x, modulus=p).is_irreducible:
            return Poly(list(reversed(coeffs)))


def test_degree_pattern_of_products_with_repeated_degrees():
    # 2 to 6 distinct irreducibles mod p, degrees drawn with repetition, so
    # rest is split several times at the same or at later degrees while w
    # and the Frobenius rows stay reduced modulo f only; the integer
    # coefficients are lifted by random multiples of p under a lead prime to p
    # (p >= 7, so there are at least 6 distinct irreducibles of each degree;
    # 1009, 1031 and 65537 give wider packing slots than the small primes)
    sympy = pytest.importorskip("sympy")
    rng = random.Random(1306)
    multi_split = 0
    for _ in range(120):
        p = rng.choice(_SMALL_PRIMES[3:12] + [1009, 1031, 65537])
        count = rng.randrange(2, 7)
        degrees = sorted(rng.choice((1, 1, 2, 2, 3, 4, 5)) for _ in range(count))
        factors = set()
        while len(factors) < count:
            factors = {_random_irreducible(sympy, rng, d, p) for d in degrees}
        f = Poly((1,))
        for g in factors:
            f = f * g
        lead = rng.choice([c for c in range(2, 12) if c % p])
        f = Poly([lead * c + p * rng.randrange(-5, 6) for c in f.coeffs[:-1]]
                 + [lead * f.coeffs[-1]])
        expected = DegreePattern(p, tuple(degrees), True)
        assert degree_pattern(f, p) == expected, (f, p, degrees)
        assert _sympy_pattern(sympy, f, p) == expected
        multi_split += len(set(degrees)) >= 3
    assert multi_split > 20


def test_frobenius_rows_match_powers_of_x():
    # brute force with Poly arithmetic: x**(i*p) % rest, reduced mod p; row 1
    # is x**p itself, the square-and-multiply result the rows are built from
    rng = random.Random(5150)
    for _ in range(40):
        p = rng.choice(_SMALL_PRIMES[:16])
        n = rng.randrange(2, 11)
        rest = [rng.randrange(p) for _ in range(n)] + [1]
        slot, rows = _frobenius_rows(rest, p)
        assert len(rows) == n
        for i, row in enumerate(rows):
            assert Poly(_fp_unpack(row, slot, n, p)) == \
                reduce_mod_p(X**(i * p) % Poly(rest), p), (rest, p, i)


@pytest.mark.parametrize("p", [2, 3, 65537])
@pytest.mark.parametrize("c", [1, -1, 5, 10**30 + 1])
def test_degree_pattern_of_nonzero_constant_is_empty(c, p):
    # a unit mod p has no irreducible factors and is squarefree
    assert degree_pattern(Poly.const(c), p) == DegreePattern(p, (), True)


@pytest.mark.parametrize("p", [-3, 0, 1, 4, 9, 15])
def test_degree_pattern_refuses_non_prime_modulus(p):
    with pytest.raises(ValueError, match="is not prime"):
        degree_pattern(X**3 + X + 1, p)


def test_check_phi_examples(phi17):
    assert check_phi(phi17, 13)
    assert not check_phi(phi17, 17)
    assert check_phi(parse_poly("x^2 - x + 5"), 3)


def test_construct_phi_small():
    phi = construct_phi(2, 3)
    assert phi.is_monic and phi.degree == 2 and check_phi(phi, 3)
    phi = construct_phi(2, 13)
    assert check_phi(phi, 13)


def test_construct_phi_cubic_mod_2():
    phi = construct_phi(3, 2)
    assert reduce_mod_p(phi, 2) == Poly((1, 1, 0, 1))
    assert check_phi(phi, 2)


def test_construct_phi_rejects_linear_with_primes():
    with pytest.raises(ValueError):
        construct_phi(1, 2)
    with pytest.raises(ValueError):
        construct_phi(0, 5)
