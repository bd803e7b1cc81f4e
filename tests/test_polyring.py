import hashlib
import random
import signal
import sys
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from laguerrecert import polyring
from laguerrecert.polyring import (MAX_PARSED_DEGREE, Poly, X, _PackedRing, check_phi,
                                   construct_phi, content, degree_pattern, degree_range,
                                   degrees_of, format_poly, gauss_valuation,
                                   is_irreducible_mod_p, parse_poly, phi_expand,
                                   primitive_part, subset_sums)
from laguerrecert.primes import INFINITY


def reassembled(parts, phi):
    """sum parts[i] * phi**i by Horner's rule, from the leading part down."""
    acc = Poly()
    for part in reversed(parts):
        acc = acc * phi + part
    return acc


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
    assert parse_poly(f"x^{MAX_PARSED_DEGREE}") == Poly((0,) * MAX_PARSED_DEGREE + (1,))
    assert parse_poly("3 x^2") == Poly((0, 0, 3))
    assert parse_poly("x ^ 2") == Poly((0, 0, 1))


def test_parse_keeps_integer_terms_as_ints():
    # only an a/b term builds a Fraction; the Poly coefficients are ints
    # where integral and Fractions otherwise, however the text was written
    cases = {
        "3x^2 - x + 17": [int, int, int],
        "1/2x^2 + 3/4": [Fraction, int, Fraction],
        "1/2x^2 + 3x - 4/2": [int, int, Fraction],
        "1/2x + 1/2x + 7": [int, int],
        "x - 1/3x": [int, Fraction],
    }
    for text, types in cases.items():
        assert [type(c) for c in parse_poly(text).coeffs] == types, text
    assert parse_poly("1/2x^2 + 3x - 4/2") == Poly((-2, 3, Fraction(1, 2)))


def test_parse_rejects_garbage():
    # every term after the first joins by + or -, and no whitespace splits a number
    for bad in ("", "x^-2", "y+1", "3*x", "x^", "1/0x", f"x^{MAX_PARSED_DEGREE + 1}",
                "x^99999999999", "x^2 17", "2 3", "2x3", "x^2-x17", "x^2x^3"):
        with pytest.raises(ValueError):
            parse_poly(bad)


@pytest.mark.parametrize("text", ["\u0663x^\u0662 + \u0661\u0667", "\uff13x + 1"])
def test_parse_reads_ascii_digits_only(text):
    # Arabic-Indic "3x^2 + 17" and fullwidth "3x + 1": \d would read both,
    # yet JSON numbers and the certificate's slopes are ASCII
    with pytest.raises(ValueError, match="cannot parse polynomial"):
        parse_poly(text)


def test_text_round_trip_exact(rng):
    for _ in range(300):
        f = rand_poly(rng, 7, -50, 50)
        assert parse_poly(format_poly(f)) == f


def test_rational_text_round_trip():
    f = Poly((Fraction(-3, 2), Fraction(1, 7), 0, 5))
    assert parse_poly(format_poly(f)) == f


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="the interpreter has no int/str digit limit")
def test_text_round_trip_past_the_int_digit_limit():
    # Python refuses str(int) and int(str) past 4,300 digits by default;
    # construct_phi(2, 12000) has a 5,142-digit coefficient
    phi = construct_phi(2, 12000)
    assert max(abs(c) for c in phi.coeffs) > 10**5000
    rational = Poly((Fraction(-(10**6000 + 1), 7**7000), 0, 1))
    sys.set_int_max_str_digits(4300)
    assert parse_poly(format_poly(phi)) == phi
    assert parse_poly(format_poly(rational)) == rational


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="the interpreter has no int/str digit limit")
def test_number_text_matches_int_and_str_under_the_least_digit_limit():
    # numbers are read and written by halves down to 640-digit pieces, the
    # least digit limit an interpreter accepts; every length that puts a
    # split or the limit on a boundary, leading zeros, and zero runs across
    # the halves (10**k, 10**k + 7), against int() and str() without a limit
    rng = random.Random(640)
    texts = []
    for length in (1, 639, 640, 641, 4_299, 4_300, 4_301, 25_000):
        texts.append(str(rng.randrange(1, 10))
                     + "".join(rng.choice("0123456789") for _ in range(length - 1)))
        texts.append("0" * rng.randrange(1, 700) + texts[-1])
        if length > 1:
            texts += ["1" + "0" * (length - 1), "1" + "0" * (length - 2) + "7"]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        expected = [(text, int(text), str(int(text))) for text in texts]
        sys.set_int_max_str_digits(640)
        for text, n, printed in expected:
            assert parse_poly(text) == Poly.const(n), len(text)
            assert parse_poly(f"-{text}x^2 + {text}/7") == Poly((Fraction(n, 7), 0, -n))
            assert format_poly(Poly.const(n)) == printed, len(text)
            ratio = Poly.const(Fraction(-n, 7**800))
            assert parse_poly(format_poly(ratio)) == ratio, len(text)
    finally:
        sys.set_int_max_str_digits(limit)


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
    assert phi_expand(X**3, X**2 + 1) == (Poly((0, -1)), Poly((0, 1)))


def test_expand_pure_power(phi17):
    assert phi_expand(phi17**2, phi17) == (Poly(), Poly(), Poly((1,)))


def test_expand_with_constant_remainder():
    parts = phi_expand(X**4 + 2 * X**2 + 5, X**2 + 1)
    assert parts == (Poly((4,)), Poly(), Poly((1,)))
    assert reassembled(parts, X**2 + 1) == X**4 + 2 * X**2 + 5


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
    parts = phi_expand(f, phi)
    assert reassembled(parts, phi) == f
    assert all(part.degree < phi.degree for part in parts)
    if parts:
        assert not parts[-1].is_zero


def test_expansion_round_trip_bulk():
    rng = random.Random(77)
    for _ in range(1000):
        f = rand_poly(rng, 40, -99, 99)
        phi = rand_poly(rng, 5, -9, 9, monic=True)
        if phi.degree < 1:
            phi = X + 1
        parts = phi_expand(f, phi)
        assert reassembled(parts, phi) == f
        assert all(part.degree < phi.degree for part in parts)


# -- mod-p layer ---------------------------------------------------------------

def test_mod_p_layer_refuses_rational_coefficients():
    # x^2 + 7/2 is x^2 + 1 = (x + 2)(x + 3) mod 5; truncating 7/2 to 3 would
    # give the irreducible x^2 + 3 instead
    f = Poly((Fraction(7, 2), 0, 1))
    for reduce in (degree_pattern, is_irreducible_mod_p):
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
            _, r = divmod(Poly([c % p for c in f.coeffs]), g)
            if Poly([c % p for c in r.coeffs]).is_zero:
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
    checked = reducible = not_squarefree = 0
    for _ in range(1500):
        p = rng.choice(primes)
        d = rng.randrange(1, 7)
        f = Poly([rng.randrange(-p, 2 * p) for _ in range(d)] + [1])
        _, factors = sympy.Poly(list(reversed(f.coeffs)), x, modulus=p).factor_list()
        squarefree = all(e == 1 for _, e in factors)
        degrees = tuple(sorted(g.degree() for g, e in factors for _ in range(e)))
        pattern = degree_pattern(f, p)
        if squarefree:
            assert pattern == degrees, (f, p)
        else:
            assert pattern is None, (f, p)
            not_squarefree += 1
        irreducible = len(factors) == 1 and factors[0][1] == 1
        assert is_irreducible_mod_p(f, p) == irreducible, (f, p)
        reducible += not irreducible
        checked += 1
    assert checked == 1500 and reducible > 300 and not_squarefree > 30


_SMALL_PRIMES = [p for p in range(2, 200) if all(p % q for q in range(2, p))]


def _sympy_pattern(sympy, f, p):
    """The degree_pattern sympy's factorization over F_p implies."""
    x = sympy.Symbol("x")
    _, factors = sympy.Poly(list(reversed(f.coeffs)), x, modulus=p).factor_list()
    if any(e > 1 for _, e in factors):
        return None
    return tuple(sorted(g.degree() for g, _ in factors))


def test_degree_pattern_matches_sympy_up_to_degree_30():
    # the oracle's range: degree up to 30, primes up to 60, and leading
    # coefficients other than 1 (prime to p); a few larger primes too
    sympy = pytest.importorskip("sympy")
    rng = random.Random(3001)
    squarefree = 0
    for _ in range(300):
        p = rng.choice(_SMALL_PRIMES[:17] * 3 + _SMALL_PRIMES[17:])
        n = rng.randrange(4, 31)
        lead = rng.choice([c for c in range(-9, 10) if c % p])
        f = Poly([rng.randrange(-3 * p, 3 * p) for _ in range(n)] + [lead])
        pattern = degree_pattern(f, p)
        assert pattern == _sympy_pattern(sympy, f, p), (f, p)
        squarefree += pattern is not None
    assert squarefree > 150


def _random_irreducible(sympy, rng, degree, p):
    from sympy.polys.galoistools import gf_irreducible_p
    while True:
        coeffs = [1] + [rng.randrange(p) for _ in range(degree)]
        if gf_irreducible_p(coeffs, p, sympy.ZZ):
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
        expected = tuple(degrees)
        assert degree_pattern(f, p) == expected, (f, p, degrees)
        assert _sympy_pattern(sympy, f, p) == expected
        multi_split += len(set(degrees)) >= 3
    assert multi_split > 20


def _residue_pairs():
    """(a, b, p): residue lists, ascending with a nonzero top, for division
    of a by b over the p-element field.  Quotients of degree 0, 1 and 2 and
    of odd lengths 3, 5 and 7 (one term left after the pairs), exact
    products (zero remainders), a constant divisor, and dividends shorter
    than the divisor, the empty one among them; each at p = 2, 3, 7, 59
    and 65537.  Then operands of degree 2 at p = 3, 59 and 2**31 - 1, the
    layout of n = 2: all p-1, and a = (p-1) x**2 + (p-2) x + (p-1) by
    b = (p-1) x + (p-1), whose quotient terms are both 1, so the two-term
    pass adds (p-1) x * b + (p-1) * b and a slot reaches
    (p-2) + 2(p-1)**2 > 2(p-1)**2."""
    rng = random.Random(4493)

    def residues(length, p):
        return [rng.randrange(p) for _ in range(length - 1)] + [rng.randrange(1, p)] \
            if length else []

    for p in (2, 3, 7, 59, 65537):
        for _ in range(30):
            b = residues(rng.randrange(1, 10), p)
            for quotient_len in (1, 2, 3, 5, 7):
                yield residues(len(b) - 1 + quotient_len, p), b, p
            c = residues(rng.randrange(1, 6), p)
            yield _mod_p(Poly(b) * Poly(c), p).coeffs, b, p
            yield residues(rng.randrange(0, len(b)), p), b, p
            yield residues(rng.randrange(1, 8), p), [rng.randrange(1, p)], p
    for p in (3, 59, 2**31 - 1):
        top = [p - 1] * 3
        for b in (top[:1], top[:2], top):
            yield top, b, p
        yield [p - 1, p - 2, p - 1], top[:2], p


def _layout(p, *operands):
    """The packed layout for polynomials of degree at most that of the
    longest operand (and at least 2, the least a ring is built for)."""
    return _PackedRing(max(2, *(len(a) - 1 for a in operands)), p)


def test_fp_divmod_matches_sympy():
    # packed quotient and remainder against sympy's, compared as packed ints,
    # so a slot left unreduced or a nonzero slot above the degree fails too
    gf = pytest.importorskip("sympy.polys.galoistools")
    from sympy.polys.domains import ZZ
    zero_remainders = 0
    for a, b, p in _residue_pairs():
        a, b = list(a), list(b)
        ring = _layout(p, a, b)
        q, r = ring.divmod(ring.pack(a), ring.pack(b))
        expected_q, expected_r = gf.gf_div(a[::-1], b[::-1], p, ZZ)
        assert (q, r) == (ring.pack(expected_q[::-1]), ring.pack(expected_r[::-1])), (a, b, p)
        zero_remainders += len(b) > 1 and len(a) >= len(b) and not r
    assert zero_remainders >= 100


def test_fp_divmod_raises_when_a_pass_keeps_the_degree(monkeypatch):
    # a wrong inverse of the divisor's leading residue leaves the top slot
    # of every pass nonzero, so no pass lowers the degree; the division
    # must raise, not loop forever
    def expire(signum, frame):
        raise TimeoutError("the division did not stop")

    ring = _PackedRing(6, 7)
    a, b = ring.pack([3, 1, 4, 1, 5, 2, 6]), ring.pack([2, 0, 1, 1])
    monkeypatch.setattr(polyring, "pow", lambda base, e, mod: 2 * pow(base, e, mod) % mod,
                        raising=False)
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(10)
    try:
        for quotient in (True, False):
            with pytest.raises(ArithmeticError, match="did not lower the degree"):
                ring.divmod(a, b, quotient)
        with pytest.raises(ArithmeticError, match="did not lower the degree"):
            ring.gcd(a, b)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_fp_gcd_matches_sympy():
    # pairs with a random common factor, so the gcd is rarely 1, and with
    # the zero polynomial on either side; the packed gcd is monic
    gf = pytest.importorskip("sympy.polys.galoistools")
    from sympy.polys.domains import ZZ
    rng = random.Random(4494)
    for a, b, p in _residue_pairs():
        common = Poly([rng.randrange(p) for _ in range(rng.randrange(0, 4))] + [1])
        a, b = (list(_mod_p(Poly(list(g)) * common, p).coeffs) for g in (a, b))
        ring = _layout(p, a, b)
        for left, right in ((a, b), (b, a), (a, []), ([], b)):
            expected = gf.gf_gcd(left[::-1], right[::-1], p, ZZ)[::-1]
            assert ring.gcd(ring.pack(left), ring.pack(right)) == ring.pack(expected), \
                (left, right, p)


def test_squarefree_gate_matches_sympy():
    # degree_pattern is None exactly when f mod p is not squarefree:
    # against gf_sqf_p on seeded products with and without squared factors,
    # p-th powers (f' = 0 mod p) at p = 2 and 3, constants and degree 1
    gf = pytest.importorskip("sympy.polys.galoistools")
    from sympy.polys.domains import ZZ
    rng = random.Random(5081)
    cases = []
    for _ in range(400):
        p = rng.choice(_SMALL_PRIMES[:10] + [1009, 65537])
        f = Poly([rng.randrange(1, p)])
        for _ in range(rng.randrange(0, 4)):
            g = Poly([rng.randrange(p) for _ in range(rng.randrange(1, 4))] + [1])
            f = f * g ** rng.choice((1, 1, 2, 3))
        cases.append((Poly([c + p * rng.randrange(-3, 4) for c in f.coeffs[:-1]]
                           + [f.coeffs[-1]]), p))
    for p in (2, 3):
        for _ in range(40):
            g = Poly([rng.randrange(-9, 10) for _ in range(rng.randrange(1, 6))] + [1])
            cases.append((g ** p, p))
    for p in (2, 3, 59):
        cases += [(Poly.const(c), p) for c in (1, p - 1, p + 1)]
        cases += [(Poly((r, c)), p) for r in (0, 1, p - 1) for c in (1, p - 1)]
    not_squarefree = 0
    for f, p in cases:
        fp = [c % p for c in reversed(f.coeffs)]
        squarefree = gf.gf_sqf_p(fp, p, ZZ)
        assert (degree_pattern(f, p) is not None) == squarefree, (f, p)
        not_squarefree += not squarefree
    assert not_squarefree > 150 and len(cases) - not_squarefree > 150


def _mod_p(f, p):
    return Poly([c % p for c in f.coeffs])


def _x_power_mod(e, mod, p):
    """x**e mod (mod, p) by square-and-multiply on Poly, reducing mod p after
    every product."""
    acc, base = Poly((1,)), X
    while e:
        if e & 1:
            acc = _mod_p(acc * base % mod, p)
        base = _mod_p(base * base % mod, p)
        e >>= 1
    return acc


def _packed_ring_cases():
    """(mod, p, a, b): random monic mod of degree 2..30 and random operands at
    small primes and at 1009 and 65537, then all-(p-1) operands at n = 2, 3,
    30 and 64 and p up to 2**31 - 1, which put the slots of the product, of
    its quotient by mod and of a row combination at their bound before
    reduction."""
    rng = random.Random(7309)
    for _ in range(60):
        p = rng.choice(_SMALL_PRIMES[:12] + [1009, 65537])
        n = rng.randrange(2, 31)
        mod = [rng.randrange(p) for _ in range(n)] + [1]
        yield mod, p, [rng.randrange(p) for _ in range(n)], [rng.randrange(p) for _ in range(n)]
    for p in (2, 3, 59, 1009, 65537, 2**31 - 1):
        for n in (2, 3, 30, 64):
            top = [p - 1] * n
            for mod in ([1] * n + [1], top + [1]):
                yield mod, p, top, top


def _slot_width(n, p):
    """The slot width the bound B = max(n, 3)(p-1)**2 gives:
    B * ceil(2**t / p) for the least t with 2**t > B * (p-1)."""
    bound = max(n, 3) * (p - 1) ** 2
    t = (bound * (p - 1)).bit_length()
    return (bound * -(-(1 << t) // p)).bit_length()


def test_packed_ring_matches_poly_arithmetic():
    # products, combinations of the rows and the rows x**(i*p) themselves,
    # against Poly arithmetic reduced mod p
    for mod, p, a, b in _packed_ring_cases():
        ring, f = _PackedRing(len(mod) - 1, p), Poly(mod)
        ring.set_modulus(ring.pack(mod))
        assert ring.slot == _slot_width(len(a), p)
        assert ring.unpack(ring.pack(a)) == a
        product = ring.mul(ring.pack(a), ring.pack(b))
        assert Poly(ring.unpack(product)) == _mod_p(Poly(a) * Poly(b) % f, p), (mod, p)
        rows = ring.frobenius_rows()
        assert len(rows) == len(a)
        # row i is row i-1 times x**p, checked at every i
        expected = [Poly((1,)), _x_power_mod(p, f, p)]
        while len(expected) < len(a):
            expected.append(_mod_p(expected[-1] * expected[1] % f, p))
        assert [Poly(ring.unpack(row)) for row in rows] == expected, (mod, p)
        # a row combination by a is a evaluated at x**p
        combined = Poly(ring.unpack(ring.combine(a, rows)))
        assert combined == _mod_p(sum((c * row for c, row in zip(a, expected)), Poly()) % f, p)


def test_set_modulus_derives_monic_negation_and_mu():
    # set_modulus reads f mod p packed once and derives the monic f (one
    # scalar product), -f (p minus each slot) and mu = floor(x**(2n-2) / f)
    # (one division); each against its residue-list definition, compared as
    # packed ints, so a slot left unreduced or shifted fails too.  All-(p-1)
    # operands put the slots at their bound; zeros put p in slots of -f.
    for p in (2, 3, 59, 1009, 2**31 - 1):
        for n in (2, 3, 30, 64):
            for f in ([p - 1] * (n + 1), [0] * n + [p - 1], [1] * n + [p - 1]):
                ring = _PackedRing(n, p)
                monic = ring.set_modulus(ring.pack(f))
                inv = pow(f[-1], -1, p)
                mod = [c * inv % p for c in f]
                assert monic == ring.pack(mod), (f, p)
                assert ring._neg_f == ring.pack([-c % p for c in mod]), (f, p)
                # long division of x**(2n-2) by mod, one quotient term at a time
                rest = [0] * (2 * n - 2) + [1]
                mu = [0] * (n - 1)
                for k in range(n - 2, -1, -1):
                    mu[k] = c = rest[k + n]
                    for i, b in enumerate(mod):
                        rest[k + i] = (rest[k + i] - c * b) % p
                assert ring._mu == ring.pack(mu), (f, p)


def test_packed_ring_slot_width():
    # every slot is reduced mod p at each stage of a product and after each
    # Euclid pass, so a slot holds max(n, 3)(p-1)**2 before a reduction and
    # B * magic in all: 34 bits at n = 30, p = 59 and 62 at n = 1024,
    # p = 1031 (the layout only, no modulus)
    assert _PackedRing(30, 59).slot == 34
    assert _PackedRing(1024, 1031).slot == 62


def test_degree_pattern_tree_cases_match_sympy():
    # the three shapes of the product tree over w_d - x, d <= n/2:
    # - one irreducible above n/2 (the cofactor of the root's gcd) times
    #   factors of 3 or 4 distinct small degrees, split at several nodes;
    # - f irreducible, so the root's gcd is 1 and nothing is split;
    # - distinct linear factors only, so the root product is 0 mod f
    sympy = pytest.importorskip("sympy")
    rng = random.Random(2917)
    primes = _SMALL_PRIMES[2:17] + [1009, 65537]
    for _ in range(30):
        p = rng.choice(primes)
        small = rng.sample(range(1, 5), rng.choice((3, 4)))
        degrees = sorted(small + [rng.choice(small)])
        big = rng.randrange(sum(degrees) + 1, 21)
        factors = set()
        while len(factors) < len(degrees) + 1:
            factors = {_random_irreducible(sympy, rng, d, p) for d in degrees + [big]}
        f = Poly((1,))
        for g in factors:
            f = f * g
        expected = tuple(sorted(degrees + [big]))
        assert degree_pattern(f, p) == expected, (f, p)
        assert _sympy_pattern(sympy, f, p) == expected
    for p, n in [(rng.choice(primes), rng.randrange(2, 31)) for _ in range(20)]:
        f = _random_irreducible(sympy, rng, n, p)
        assert degree_pattern(f, p) == (n,), (f, p)
    for p in (5, 7, 31, 59):
        for n in sorted({2, 3, p // 2, p}):
            f = Poly((1,))
            for r in rng.sample(range(p), n):
                f = f * (X - r)
            assert degree_pattern(f, p) == (1,) * n, (f, p)


@pytest.mark.parametrize("p", [2, 3, 65537])
@pytest.mark.parametrize("c", [1, -1, 5, 10**30 + 1])
def test_degree_pattern_of_nonzero_constant_is_empty(c, p):
    # a unit mod p has no irreducible factors and is squarefree
    assert degree_pattern(Poly.const(c), p) == ()


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
    assert Poly([c % 2 for c in phi.coeffs]) == Poly((1, 1, 0, 1))
    assert check_phi(phi, 2)


def test_construct_phi_rejects_linear_with_primes():
    with pytest.raises(ValueError):
        construct_phi(1, 2)
    with pytest.raises(ValueError):
        construct_phi(0, 5)


@pytest.mark.parametrize("d, bound, digest", [
    (2, 1190, "f43e7784a94ae11ba398147680011f27d23fa7806b6ebf48fe98d18a0821699f"),
    (3, 34, "2df6ae0799533d5ff4f1798b14680ffd9d6458dd8bc0082192091b2fcd49d509"),
    (2, 13, "9f1226f4975293e29ae067ab8693024acb112887e0b256e3e579f76e9a36a74c"),
])
def test_construct_phi_output_is_pinned(d, bound, digest):
    # sha256 of format_poly's text, as construct_phi built it when every
    # prime's check ran its own degree_pattern
    text = format_poly(construct_phi(d, bound))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def _count_patterns(monkeypatch):
    """Empty both irreducibility caches and count the factor-degree runs."""
    is_irreducible_mod_p.cache_clear()
    polyring._irreducible_residues.cache_clear()
    runs = []
    real = polyring._degree_pattern
    monkeypatch.setattr(polyring, "_degree_pattern",
                        lambda f, p: runs.append((f, p)) or real(f, p))
    return runs


def test_construct_phi_check_reuses_the_search_decisions(monkeypatch):
    runs = _count_patterns(monkeypatch)
    in_check = []
    real_check = polyring.check_phi

    def counted_check(phi, bound):
        before = len(runs)
        result = real_check(phi, bound)
        in_check.append(len(runs) - before)
        return result

    monkeypatch.setattr(polyring, "check_phi", counted_check)
    phi = construct_phi(3, 40)
    assert runs and in_check == [0] and real_check(phi, 40)


def test_congruent_polynomials_share_one_decision(monkeypatch):
    runs = _count_patterns(monkeypatch)
    phi = parse_poly("x^3 + x + 1")
    congruent = phi + 7 * X**2 - 14 * X + 21
    assert is_irreducible_mod_p(phi, 7) and len(runs) == 1
    assert is_irreducible_mod_p(congruent, 7) and len(runs) == 1
    assert not is_irreducible_mod_p(phi + X**2, 7) and len(runs) == 2
    info = is_irreducible_mod_p.cache_info()
    assert (info.hits, info.misses) == (0, 3)
    assert is_irreducible_mod_p(congruent, 7)
    assert is_irreducible_mod_p.cache_info().hits == 1 and len(runs) == 2


@pytest.mark.parametrize("phi, p, message", [
    (X**2 + 1, 4, "4 is not prime"),
    (X**2 + 1, 1, "1 is not prime"),
    (X**2 + 1, -3, "-3 is not prime"),
    (2 * X**2 + 1, 3, "irreducibility test requires a monic polynomial"),
    (Poly(()), 3, "irreducibility test requires a monic polynomial"),
    (Poly((1,)), 3, "degree must be at least 1"),
    (Poly((Fraction(7, 2), 0, 1)), 5, "reduction requires integer coefficients"),
])
def test_irreducible_mod_p_refusals(phi, p, message):
    with pytest.raises(ValueError) as caught:
        is_irreducible_mod_p(phi, p)
    assert str(caught.value) == message


def mask_of(degrees):
    """The int bitmask with exactly the given degrees set, bit by bit."""
    mask = 0
    for d in degrees:
        mask |= 1 << d
    return mask


def test_degree_range_matches_sets():
    rng = random.Random(31)
    cases = [(0, 0), (0, 1), (3, 3), (5, 2), (1, 0), (0, 64), (63, 65), (1, 25_601),
             (12_800, 25_601), (25_600, 25_601)]
    cases += [(rng.randrange(0, 300), rng.randrange(0, 300)) for _ in range(300)]
    for lo, hi in cases:
        assert degree_range(lo, hi) == mask_of(range(lo, hi)), (lo, hi)


def test_degrees_of_matches_sets():
    rng = random.Random(32)
    cases = [set(), {0}, {0, 1}, {63, 64}, {0, 25_600}, set(range(0, 25_601, 97))]
    cases += [{d for d in range(rng.randrange(1, 200)) if rng.random() < 0.3}
              for _ in range(300)]
    for degrees in cases:
        assert list(degrees_of(mask_of(degrees))) == sorted(degrees)
    assert list(degrees_of(degree_range(0, 25_600))) == list(range(25_600))


def test_subset_sums_matches_sets():
    rng = random.Random(33)
    cases = [([], 0), ([], 5), ([1], 1), ([3, 3], 6), ([2, 2, 5], 4), ([70, 1], 71)]
    cases += [([rng.randrange(1, 12) for _ in range(rng.randrange(0, 8))],
               rng.randrange(0, 60)) for _ in range(300)]
    big = [rng.randrange(1, 2_000) for _ in range(40)]
    cases += [(big, 25_600), (big, sum(big) // 2)]
    for parts, n in cases:
        sums = {0}
        for d in parts:
            sums |= {s + d for s in sums}
        assert subset_sums(parts, n) == mask_of(s for s in sums if s <= n), (parts, n)
