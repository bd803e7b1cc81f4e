import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from laguerrecert.laguerre import HypothesisViolation, build_instance
from laguerrecert.oracle import (FactorWitness, _rational_root_witness, _signed_divisors,
                                 degree_pattern, oracle_verdict, possible_degrees,
                                 search_reducible_witness, verify_witness)
from laguerrecert.polyring import DegreePattern, Poly, X, parse_poly, primitive_part


def const_parts(*values):
    return [Poly.const(v) for v in values]


# -- degree patterns -------------------------------------------------------------

def test_pattern_examples():
    assert degree_pattern(X**2 + 1, 3) == DegreePattern(3, (2,), True)
    assert degree_pattern(X**2 - 1, 5) == DegreePattern(5, (1, 1), True)
    assert degree_pattern(X**2, 3).usable is False
    with pytest.raises(ValueError):
        degree_pattern(3 * X**2 + 1, 3)


def test_pattern_sums_to_degree(rng):
    for _ in range(100):
        coeffs = [rng.randrange(-9, 10) for _ in range(rng.randrange(2, 9))]
        coeffs.append(1)
        f = Poly(coeffs)
        for p in (3, 5, 7):
            pat = degree_pattern(f, p)
            if pat.usable:
                assert sum(pat.degrees) == f.degree


def test_pattern_quartic(phi17):
    f = (phi17 + 2) * (phi17 + 6)
    assert degree_pattern(f, 5).usable is False  # discriminant vanishes mod 5
    pat = degree_pattern(f, 11)
    assert pat.usable and sorted(pat.degrees) == [2, 2]


def test_pattern_matches_constructed_factorizations(rng):
    # build f as a product of known irreducibles mod p; the pattern must
    # recover exactly their degrees whenever the product is squarefree
    from itertools import product

    from laguerrecert.polyring import reduce_mod_p

    def has_monic_divisor(cand, p):
        # brute force: divisibility by every monic g mod p, 1 <= deg g <= deg/2,
        # independent of the distinct-degree routine under test
        for e in range(1, cand.degree // 2 + 1):
            for lower in product(range(p), repeat=e):
                if reduce_mod_p(cand % Poly(lower + (1,)), p).is_zero:
                    return True
        return False

    def random_irreducible(p, d):
        while True:
            cand = Poly([rng.randrange(p) for _ in range(d)] + [1])
            if not has_monic_divisor(cand, p):
                return cand

    for _ in range(60):
        p = rng.choice([2, 3, 5, 7])
        degrees = [rng.randrange(1, 4) for _ in range(rng.randrange(1, 4))]
        factors = [random_irreducible(p, d) for d in degrees]
        if len({f.coeffs for f in factors}) != len(factors):
            continue  # repeated factor would not be squarefree
        f = Poly((1,))
        for g in factors:
            f = reduce_mod_p(f * g, p)
        pat = degree_pattern(f, p)
        assert pat.usable
        assert sorted(pat.degrees) == sorted(degrees), (p, degrees)


def test_degree_set_closed_under_complement(phi17, rng):
    for f in [(phi17 + 2) * (phi17 + 6), phi17 * (X**3 + X + 1), X**5 + X + 3]:
        degs = possible_degrees(f, 40)
        n = f.degree
        assert {0, n} <= degs.possible
        assert all(n - d in degs.possible for d in degs.possible)


# -- possible degrees --------------------------------------------------------------

def test_possible_degrees_irreducible(phi17):
    degs = possible_degrees(phi17, 50)
    assert degs.possible == {0, 2}
    assert not degs.low_confidence


def test_possible_degrees_two_quadratics(phi17):
    f = (phi17 + 2) * (phi17 + 6)
    degs = possible_degrees(f, 50)
    assert {0, 2, 4} <= degs.possible


def test_possible_degrees_linear():
    degs = possible_degrees(X + 3, 50)
    assert degs.possible == {0, 1}


def test_possible_degrees_low_confidence():
    degs = possible_degrees(X**2, 50)  # never squarefree mod p
    assert degs.low_confidence and degs.possible == {0, 1, 2}


def test_possible_degrees_requires_primitive():
    with pytest.raises(ValueError):
        possible_degrees(2 * X**2 + 2, 50)


# -- verdicts ------------------------------------------------------------------------

def test_verdict_irreducible(phi17):
    v = oracle_verdict(phi17, 50)
    assert v.kind == "irreducible" and v.witness is None


def test_verdict_reducible_quartic(phi17):
    f = (phi17 + 2) * (phi17 + 6)
    v = oracle_verdict(f, 50)
    assert v.kind == "reducible"
    assert verify_witness(f, v.witness)
    assert sorted([v.witness.g.degree, v.witness.h.degree]) == [2, 2]


def test_verdict_reducible_square():
    v = oracle_verdict(X**2, 50)
    assert v.kind == "reducible"
    assert verify_witness(X**2, v.witness)


def test_verdict_zero_budget_inconclusive(phi17):
    v = oracle_verdict(phi17, 0)
    assert v.kind == "inconclusive"
    assert v.degree_set.low_confidence


def test_verdict_rational_root():
    f = (2 * X - 9) * (X**2 + X + 1)
    v = oracle_verdict(f, 50)
    assert v.kind == "reducible"
    assert verify_witness(f, v.witness)


@settings(max_examples=150, deadline=None)
@given(num=st.integers(-40, 40), den=st.integers(1, 12),
       cofactor=st.lists(st.integers(-25, 25), min_size=2, max_size=5))
def test_rational_root_witness_takes_first_root_by_fraction_evaluation(num, den, cofactor):
    # a planted root num/den; the reference is f(Fraction(num, den)) == 0 over
    # the search's candidates in its order: positive denominators dividing
    # the lead, then signed divisors of f(0) by size, + before -
    q = Poly(cofactor)
    assume(q.degree >= 1)
    f = primitive_part((den * X - num) * q)
    f = -f if f.lead < 0 else f
    w = _rational_root_witness(f)
    assert w is not None and verify_witness(f, w)
    if f[0] == 0:
        assert w.g == X
        return
    roots = [(n, d) for d in _signed_divisors(f.lead) if d > 0 for n in _signed_divisors(f[0])
             if math.gcd(n, d) == 1 and f(Fraction(n, d)) == 0]
    assert (w.g[0], w.g[1]) == (-roots[0][0], roots[0][1])


# -- witness verification over the reducible rows --------------------------------------

def test_reducible_row_witnesses(phi17):
    inst = build_instance(2, 1, 3, const_parts(-4, 1), phi17, relaxed=True)
    w = FactorWitness(g=phi17 + 4, h=phi17 - 2, c=Fraction(3, 2))
    assert verify_witness(inst.laguerre_polynomial, w)

    inst = build_instance(2, 3, 2, const_parts(-5, 1), phi17, relaxed=True)
    w = FactorWitness(g=phi17 + 10, h=phi17 - 5, c=Fraction(1))
    assert verify_witness(inst.laguerre_polynomial, w)

    tampered = FactorWitness(g=phi17 + 10, h=phi17 - 5, c=Fraction(2))
    assert not verify_witness(inst.laguerre_polynomial, tampered)


def test_verify_witness_rejects_constant_factor(phi17):
    w = FactorWitness(g=Poly.const(2), h=phi17, c=Fraction(1, 2))
    assert not verify_witness(phi17, w)


# -- instance search ---------------------------------------------------------------------

def test_search_finds_quadratic_pair(phi17):
    found = search_reducible_witness(2, 2, phi17, 1)
    assert found is not None
    inst, w = found
    assert verify_witness(inst.f, w)
    # the first valid instance in order, a_m = a_0 = a_1 = -1
    assert (inst.a_m, inst.a_parts) == (-1, (Poly.const(-1), Poly.const(-1)))
    assert (w.g, w.h, w.c) == (phi17 + 2, phi17 + 6, Fraction(-1))


def test_search_finds_root_instance(phi17):
    found = search_reducible_witness(1, 0, phi17, 17)
    assert found is not None
    inst, w = found
    assert verify_witness(inst.f, w)
    assert (inst.a_m, inst.a_parts) == (-2, (parse_poly("17x - 11"),))
    assert (w.g, w.h, w.c) == (X - 5, 2 * X - 9, Fraction(-1))


def test_documented_root_instance(phi17):
    # a_1 = 1 and a_0 = x - 17 assemble to x^2
    inst = build_instance(1, 0, 1, [parse_poly("x - 17")], phi17)
    assert inst.f == X**2
    v = oracle_verdict(primitive_part(inst.f), 50)
    assert v.kind == "reducible" and verify_witness(inst.f, v.witness)


def test_documented_quadratic_pair(phi17):
    inst = build_instance(2, 2, 1, const_parts(1, 1), phi17, relaxed=True)
    assert inst.f == phi17**2 + 8 * phi17 + 12
    w = FactorWitness(g=phi17 + 2, h=phi17 + 6, c=Fraction(1))
    assert verify_witness(inst.f, w)


def test_search_refuses_a_base_reducible_mod_small_prime():
    with pytest.raises(HypothesisViolation) as exc:
        search_reducible_witness(2, 2, parse_poly("x^2 + 1"), 1)
    assert str(exc.value) == "phi is reducible modulo 2 <= 4"


def test_search_none_found_for_certified_family(phi17):
    assert search_reducible_witness(3, 0, phi17, 2) is None


def test_search_rejects_bad_bound(phi17):
    with pytest.raises(ValueError):
        search_reducible_witness(2, 2, phi17, 0)


def test_pattern_subset_sums_contain_witnessed_degrees(phi17):
    # every usable pattern's subset sums must contain the degrees of any
    # verified factorization
    f = (phi17 + 2) * (phi17 + 6)
    from laguerrecert.oracle import _subset_sums
    from laguerrecert.primes import sieve_primes

    for p in sieve_primes(60):
        if f.lead % p == 0:
            continue
        pat = degree_pattern(f, p)
        if not pat.usable:
            continue
        sums = _subset_sums(pat.degrees, f.degree)
        assert sums >> 2 & 1, f"degree 2 missing from pattern at p={p}"


def test_full_grid_certifier_oracle_agreement(phi17):
    # wherever certification succeeds the oracle never contradicts it; the
    # two uncoverable-with-witness pairs admit explicit reducible choices
    from laguerrecert.certify import Certificate, certify

    for m in range(1, 13):
        for u in range(5):
            inst = build_instance(m, u, 1, const_parts(*[1] * m), phi17,
                                  relaxed=True)
            result = certify(inst) if inst.is_valid else None
            verdict = oracle_verdict(primitive_part(inst.f), 40)
            if isinstance(result, Certificate):
                assert verdict.kind != "reducible", (m, u)


# -- soundness sweep (small scale here; the full grid runs in acceptance) ---------------

def test_oracle_certifier_agreement_sample(phi17, rng):
    from laguerrecert.certify import Certificate, certify

    for _ in range(60):
        m = rng.randrange(1, 8)
        u = rng.choice([0, 1, 2, 3, 4])
        a_m = rng.choice([1, -1, 3, 5])
        parts = [Poly([rng.randrange(-4, 5), rng.randrange(-4, 5)]) for _ in range(m)]
        from laguerrecert.polyring import content
        from laguerrecert.primes import sieve_primes

        if parts[0].is_zero:
            continue
        if any((abs(a_m) * content(parts[0])) % p == 0
               for p in sieve_primes(m + u)):
            continue
        inst = build_instance(m, u, a_m, parts, phi17)
        result = certify(inst)
        verdict = oracle_verdict(primitive_part(inst.f), 60)
        if isinstance(result, Certificate):
            assert verdict.kind != "reducible", (m, u, a_m, parts)
        if verdict.kind == "reducible":
            assert verify_witness(primitive_part(inst.f), verdict.witness)
