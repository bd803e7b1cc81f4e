"""Certifier and oracle against sympy's factorization over Q, on seeded
random valid instances."""

import math
import random
from fractions import Fraction

import pytest

from laguerrecert.certify import Certificate, certificate_to_json, certify
from laguerrecert.laguerre import build_instance
from laguerrecert.oracle import oracle_verdict
from laguerrecert.polyring import (Poly, construct_phi, content, is_irreducible_mod_p,
                                   parse_poly, primitive_part)
from laguerrecert.primes import sieve_primes

# alpha in 0..4 and every u/v with v in {2, 3}, -1 < u/v < 3
PARAMETERS = [(u, 1) for u in range(5)] + [
    (u, v) for v in (2, 3) for u in range(-v + 1, 3 * v) if math.gcd(u, v) == 1]


def _forms(u, v):
    """One alpha three ways: an int where alpha is one, else the unreduced
    pair (2u, 2v); then the Fraction and the pair (u, v)."""
    return (u if v == 1 else (2 * u, 2 * v), Fraction(u, v), (u, v))


def _random_instance(rng, m, u, v, phi17):
    bound = v * m + u
    primes = sieve_primes(bound)
    phi = (phi17 if all(is_irreducible_mod_p(phi17, p) for p in primes)
           else construct_phi(2, bound))

    def coprime(c):
        return c and all(c % p for p in primes)

    a_m = rng.choice([c for c in range(-9, 10) if coprime(abs(c))])
    while True:
        a_0 = Poly([rng.randint(-9, 9), rng.randint(-9, 9)])
        if not a_0.is_zero and coprime(content(a_0)):
            break
    parts = [a_0] + [Poly([rng.randint(-9, 9), rng.randint(-9, 9)]) for _ in range(m - 1)]
    return a_m, parts, phi


def test_certifier_and_oracle_agree_with_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")

    def irreducible(f):
        _, factors = sympy.factor_list(sympy.Poly(list(reversed(f.coeffs)), x))
        return len(factors) == 1 and factors[0][1] == 1

    rng = random.Random(20261018)
    phi17 = parse_poly("x^2 - x + 17")
    cases = []
    for _ in range(60):
        u, v = rng.choice(PARAMETERS)
        m = rng.randint(1, 6)
        cases.append((m, u, v, *_random_instance(rng, m, u, v, phi17)))
    # all-ones exceptions of the theorem: (2, 2) is reducible, the polygon
    # method leaves (4, 4) and (6, 4) open
    cases += [(m, u, 1, 1, [Poly((1,))] * m, phi17) for m, u in ((2, 2), (4, 4), (6, 4))]
    certified = 0
    decided = {"irreducible": 0, "reducible": 0, "inconclusive": 0}
    for i, (m, u, v, a_m, parts, phi) in enumerate(cases):
        forms = _forms(u, v)
        inst = build_instance(m, forms[i % 3], a_m, parts, phi)
        f = primitive_part(inst.f)
        truth = irreducible(f)
        result = certify(inst)
        if isinstance(result, Certificate):
            certified += 1
            assert truth, (m, u, v, a_m, parts, phi)
            texts = {certificate_to_json(certify(build_instance(m, alpha, a_m, parts, phi)))
                     for alpha in forms}
            assert texts == {certificate_to_json(result)}, (m, u, v)
        verdict = oracle_verdict(f, 60)
        decided[verdict.kind] += 1
        if verdict.kind != "inconclusive":
            assert truth == (verdict.kind == "irreducible"), (m, u, v, a_m, parts, phi)
    assert certified >= 40 and decided["irreducible"] >= 40 and decided["reducible"] >= 1, (
        certified, decided)
