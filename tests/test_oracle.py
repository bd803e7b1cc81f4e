import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from laguerrecert.laguerre import HypothesisViolation, build_instance
from laguerrecert.oracle import (FactorWitness, _rational_root_witness, _signed_divisors,
                                 oracle_verdict, possible_degrees,
                                 search_reducible_witness, verify_witness)
from laguerrecert import oracle
from laguerrecert.polyring import (Poly, X, degree_pattern, parse_poly, primitive_part,
                                   subset_sums)
from laguerrecert.primes import sieve_primes


def const_parts(*values):
    return [Poly.const(v) for v in values]


# -- degree patterns -------------------------------------------------------------

def test_pattern_examples():
    assert degree_pattern(X**2 + 1, 3) == (2,)
    assert degree_pattern(X**2 - 1, 5) == (1, 1)
    assert degree_pattern(X**2, 3) is None
    with pytest.raises(ValueError):
        degree_pattern(3 * X**2 + 1, 3)


@pytest.mark.parametrize("pattern", [degree_pattern, oracle.degree_pattern])
@pytest.mark.parametrize("f, p", [
    (3 * X**2 + 1, 3),  # 1 with derivative 0 mod 3: the gate alone passes it
    (5 * X**3 + X + 1, 5),
    (2 * X + 1, 2),
    (Poly.const(7), 7),
])
def test_pattern_refuses_a_prime_dividing_the_lead(pattern, f, p):
    # the public checked name and the oracle's unchecked body alike
    with pytest.raises(ValueError, match="must not divide the leading coefficient"):
        pattern(f, p)


def test_pattern_sums_to_degree(rng):
    for _ in range(100):
        coeffs = [rng.randrange(-9, 10) for _ in range(rng.randrange(2, 9))]
        coeffs.append(1)
        f = Poly(coeffs)
        for p in (3, 5, 7):
            degrees = degree_pattern(f, p)
            if degrees is not None:
                assert sum(degrees) == f.degree


def test_pattern_quartic(phi17):
    f = (phi17 + 2) * (phi17 + 6)
    assert degree_pattern(f, 5) is None  # discriminant vanishes mod 5
    assert degree_pattern(f, 11) == (2, 2)


@pytest.mark.parametrize("text, p", [
    ("x^4 + x^2 + 1", 2),  # (x^2 + x + 1)^2, f' = 0 mod 2
    ("x^6 + x^3 + 1", 3),  # (x - 1)^6, f' = 0 mod 3
    ("x^3 + 2", 3),  # (x - 1)^3, f' = 0 mod 3
    ("x^5 + 3x^4 + 2x^3 + 6x^2 + x + 3", 5),  # (x^2 + 1)^2 (x + 3), f' != 0 mod 5
])
def test_pattern_is_none_off_the_squarefree_gate(text, p):
    # both branches of the gate: f' = 0 mod p, and a repeated factor with
    # f' != 0; None, never (), and the oracle leaves that prime unused
    sympy = pytest.importorskip("sympy")
    f = parse_poly(text)
    x = sympy.Symbol("x")
    _, factors = sympy.Poly(list(reversed(f.coeffs)), x, modulus=p).factor_list()
    assert any(e > 1 for _, e in factors)
    assert degree_pattern(f, p) is None
    assert p not in possible_degrees(f, 10).primes_used


def test_pattern_matches_constructed_factorizations(rng):
    # build f as a product of known irreducibles mod p; the pattern must
    # recover exactly their degrees whenever the product is squarefree
    from itertools import product

    def has_monic_divisor(cand, p):
        # brute force: divisibility by every monic g mod p, 1 <= deg g <= deg/2,
        # independent of the distinct-degree routine under test
        for e in range(1, cand.degree // 2 + 1):
            for lower in product(range(p), repeat=e):
                if Poly([c % p for c in (cand % Poly(lower + (1,))).coeffs]).is_zero:
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
            f = Poly([c % p for c in (f * g).coeffs])
        assert degree_pattern(f, p) == tuple(sorted(degrees)), (p, degrees)


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


def test_possible_degrees_pinned(phi17):
    # (f, budget, possible, number of primes used, the first few, the last):
    # one prime decides phi17 at any budget; a product of two quadratics
    # reads every prime of the budget, across several sieve reaches
    cases = [(phi17, 10**7, {0, 2}, 1, (2,), 2),
             ((phi17 + 2) * (phi17 + 6), 1000, {0, 2, 4}, 163, (11, 17, 19, 23), 997),
             (phi17 * (X**3 + X + 1), 300, {0, 2, 3, 5}, 58, (2, 3, 5, 7), 293),
             (X**5 + X + 3, 200, {0, 5}, 4, (2, 3, 5, 7), 7),
             (X**6 + 3 * X**3 + 7 * X + 1, 5000, {0, 6}, 2, (3, 5), 5)]
    for f, budget, possible, count, first, last in cases:
        degs = possible_degrees(f, budget)
        used = degs.primes_used
        assert (degs.possible, len(used), used[:len(first)], used[-1]) == \
            (possible, count, first, last), (f, budget)


def test_possible_degrees_matches_one_sieve_over_the_budget(rng):
    # the reference sieves the whole budget at once; budgets on either side
    # of each sieve reach, products that never settle (every prime read)
    # and polynomials that settle early
    def reference(f, budget):
        n, mask, used = f.degree, (1 << f.degree + 1) - 1, []
        for p in sieve_primes(budget):
            degrees = None if f.lead % p == 0 else degree_pattern(f, p)
            if degrees is None:
                continue
            used.append(p)
            mask &= subset_sums(degrees, n)
            if not mask >> 1 & (1 << n // 2) - 1:
                break
        return {d for d in range(n + 1) if mask >> d & 1}, tuple(used)

    for _ in range(40):
        g, h = (Poly([rng.randrange(-9, 10) for _ in range(rng.randrange(1, 4))] + [1])
                for _ in range(2))
        f = primitive_part(g * h if rng.random() < 0.5 else g * h + 1)
        if f.degree < 1:
            continue
        for budget in (1, 2, 63, 64, 65, 128, 129, 300):
            degs = possible_degrees(f, budget)
            assert (degs.possible, degs.primes_used) == reference(f, budget), (f, budget)


def test_possible_degrees_sieves_on_demand(monkeypatch, phi17):
    # primes come from sieves that double in reach from min(64, budget): one
    # prime decides phi17, so a budget of 10**7 sieves to 64 and no further
    reaches = []

    def spy(bound):
        reaches.append(bound)
        return sieve_primes(bound)

    monkeypatch.setattr(oracle, "sieve_primes", spy)
    assert possible_degrees(phi17, 10**7).primes_used == (2,)
    assert reaches == [64]
    reaches.clear()
    assert possible_degrees(phi17, 60).primes_used == (2,)
    assert reaches == [60]
    reaches.clear()
    possible_degrees((phi17 + 2) * (phi17 + 6), 1000)
    assert reaches == [64, 128, 256, 512, 1000]
    # a budget no sieve could hold is refused before any sieve runs
    reaches.clear()
    assert possible_degrees(phi17, (1 << 47) - 1).primes_used == (2,)
    with pytest.raises(MemoryError):
        possible_degrees(phi17, 1 << 47)
    with pytest.raises(OverflowError, match="index-sized"):
        possible_degrees(phi17, 10**20)
    assert reaches == [64]


def test_possible_degrees_requires_primitive():
    with pytest.raises(ValueError):
        possible_degrees(2 * X**2 + 2, 50)
    # f is checked once, before any prime: x^2 + 7/2 would read as x^2 + 1
    # mod 5 if a per-prime reduction truncated it
    with pytest.raises(ValueError, match="integer coefficients"):
        possible_degrees(Poly((Fraction(7, 2), 0, 1)), 50)


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
    from laguerrecert.polyring import subset_sums
    from laguerrecert.primes import sieve_primes

    for p in sieve_primes(60):
        if f.lead % p == 0:
            continue
        degrees = degree_pattern(f, p)
        if degrees is None:
            continue
        sums = subset_sums(degrees, f.degree)
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
