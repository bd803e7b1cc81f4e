"""Certificate-free reducibility evidence.

Factor-degree patterns modulo primes (``polyring.degree_pattern``, the
same distinct-degree splitting that decides irreducibility mod p) narrow
the possible factor degrees; bounded searches (rational roots, low-degree
interpolation, base-power factor candidates) produce explicit witnesses.
Verdicts are sound and sometimes silent: "irreducible" means the degree
sets ruled everything out, "reducible" always carries an exactly verified
factorization, and anything else is "inconclusive".
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from functools import reduce
from itertools import product as _cartesian
from typing import NamedTuple

from .laguerre import LaguerreInstance, build_instance, parameter
from .polyring import (Poly, content, degree_range, degrees_of, format_poly, phi_expand,
                       primitive_part, subset_sums)
# polyring.degree_pattern's body, without the prime and integrality checks:
# possible_degrees makes them once per f (the body itself refuses a prime
# dividing the leading coefficient).  It is bound to the public name because the
# benchmark tracer's per-prime span (oracle.degree_pattern) wraps that name.
from .polyring import _degree_pattern as degree_pattern
from .primes import factorize, sieve_primes

_DIVISOR_CAP = 4096
_FACTOR_VALUE_CAP = 10**15
_PAIR_CAP = 60_000
_TRIPLE_CAP = 400_000


class DegreeSet(NamedTuple):
    possible: frozenset[int]
    primes_used: tuple[int, ...]

    @property
    def low_confidence(self) -> bool:
        """No prime narrowed the degrees."""
        return not self.primes_used


class FactorWitness(NamedTuple):
    """c * g * h reproduces the target exactly; both factors nonconstant."""

    g: Poly
    h: Poly
    c: Fraction


class Verdict(NamedTuple):
    kind: str  # "irreducible" | "reducible" | "inconclusive"
    witness: FactorWitness | None
    degree_set: DegreeSet


def _primes_up_to(budget: int):
    """Yield the primes <= budget, ascending, read from sieves that double
    in reach from min(64, budget), so a caller that stops after a few
    primes never sieves the whole budget.

    A budget no sieve could hold is still refused at once, as its sieve
    always was: past sys.maxsize no length can index it, and from 2**47
    flags on it exceeds the address space of a usual 64-bit process
    (128 TiB).
    """
    if budget > sys.maxsize:
        raise OverflowError("cannot fit 'int' into an index-sized integer")
    if budget >= 1 << 47:
        raise MemoryError
    reach, seen = min(64, budget), 0
    while True:
        primes = sieve_primes(reach)
        yield from primes[seen:]
        if reach >= budget:
            return
        reach, seen = min(2 * reach, budget), len(primes)


def possible_degrees(f: Poly, prime_budget: int) -> DegreeSet:
    """Degrees a factor could have, intersected over the factor degrees of
    f mod each prime p in budget where f is squarefree.

    A prime whose degree_pattern is None (f mod p not squarefree) says
    nothing and is not used.  Always contains 0 and deg f.  With no used
    prime in budget the full range is returned, flagged low confidence.
    The primes are sieved on demand: the loop stops once no proper factor
    degree is left.  f is checked once, not per prime: content refuses
    every non-integer coefficient, the sieve yields only primes, and a
    prime dividing the leading coefficient is skipped.
    """
    if f.is_zero or f.degree < 1:
        raise ValueError("need a nonconstant polynomial")
    if content(f) != 1:
        raise ValueError("need a primitive polynomial")
    n = f.degree
    mask = degree_range(0, n + 1)
    used = []
    for p in _primes_up_to(prime_budget):
        if f.lead % p == 0:
            continue
        degrees = degree_pattern(f, p)
        if degrees is None:
            continue
        used.append(p)
        mask &= subset_sums(degrees, n)
        if not mask & degree_range(1, n // 2 + 1):
            break
    return DegreeSet(possible=frozenset(degrees_of(mask)), primes_used=tuple(used))


def verify_witness(target: Poly, witness: FactorWitness) -> bool:
    """Exact check that c * g * h equals the target."""
    if witness.g.degree < 1 or witness.h.degree < 1:
        return False
    return (witness.g * witness.h) * witness.c == target


def _signed_divisors(n: int) -> list[int] | None:
    """All divisors of |n| with both signs, capped; None when out of reach."""
    if n == 0 or abs(n) > _FACTOR_VALUE_CAP:
        return None
    divs = [1]
    for p, e in factorize(n).items():
        divs = [d * p**i for d in divs for i in range(e + 1)]
        if len(divs) > _DIVISOR_CAP:
            return None
    divs.sort()
    return [s * d for d in divs for s in (1, -1)]


def _witness_from_factor(target: Poly, g: Poly) -> FactorWitness | None:
    """Turn an exact divisor g of an integral target into a verified witness.

    The quotient by the primitive part of g is integral (Gauss's lemma).
    """
    if g.degree < 1 or g.degree >= target.degree:
        return None
    gz = primitive_part(g)
    q, r = divmod(target, gz)
    if not r.is_zero:
        return None
    hz = primitive_part(q)
    lead_ratio = Fraction(target.lead) / (Fraction(gz.lead) * Fraction(hz.lead))
    w = FactorWitness(g=gz, h=hz, c=lead_ratio)
    return w if verify_witness(target, w) else None


def _rational_root_witness(f: Poly) -> FactorWitness | None:
    """Bounded rational-root search: divisors of end coefficients, exact."""
    if f.degree < 2:
        return None
    if f[0] == 0:
        return _witness_from_factor(f, Poly((0, 1)))
    nums = _signed_divisors(f[0])
    dens = _signed_divisors(f.lead)
    if nums is None or dens is None:
        return None
    dens = [d for d in dens if d > 0]
    if len(nums) * len(dens) > _PAIR_CAP:
        return None
    n = f.degree
    for den in dens:
        # f(num/den) = 0 exactly when sum c_i num^i den^(n-i) = 0: Horner in
        # num over the integers c_i den^(n-i), top coefficient first
        scaled = [c * den ** (n - i) for i, c in enumerate(f.coeffs)][::-1]
        for num in nums:
            if math.gcd(num, den) == 1 and reduce(lambda acc, c: acc * num + c, scaled) == 0:
                w = _witness_from_factor(f, Poly((-num, den)))
                if w is not None:
                    return w
    return None


def _quadratic_factor_witness(f: Poly) -> FactorWitness | None:
    """Degree-2 factor search by 3-point interpolation over divisor grids.

    A factor g satisfies g(x0) | f(x0) at every integer x0, so candidates
    come from divisor triples of f(0), f(1), f(-1); a fourth evaluation at
    x = 2 filters before any division is attempted.
    """
    if f.degree < 4:
        return None
    y0, y1, y2 = f(0), f(1), f(-1)
    d0s, d1s, d2s = _signed_divisors(y0), _signed_divisors(y1), _signed_divisors(y2)
    if d0s is None or d1s is None or d2s is None:
        return None
    if len(d0s) * len(d1s) * len(d2s) > _TRIPLE_CAP:
        return None
    lead = f.lead
    f2 = f(2)
    for d1 in d1s:
        for d2 in d2s:
            if (d1 + d2) % 2:
                continue
            half_sum = (d1 + d2) // 2
            b = (d1 - d2) // 2
            for d0 in d0s:
                a = half_sum - d0
                if a <= 0 or lead % a != 0:
                    continue
                g2 = 4 * a + 2 * b + d0
                if g2 == 0 or (f2 != 0 and f2 % g2 != 0):
                    continue
                w = _witness_from_factor(f, Poly((d0, b, a)))
                if w is not None:
                    return w
    return None


def oracle_verdict(f: Poly, prime_budget: int = 200) -> Verdict:
    """Sound three-way verdict on a primitive nonconstant polynomial."""
    degs = possible_degrees(f, prime_budget)
    n = f.degree
    if degs.possible == {0, n}:
        return Verdict(kind="irreducible", witness=None, degree_set=degs)
    witness = None
    if 1 in degs.possible:
        witness = _rational_root_witness(f)
    if witness is None and 2 in degs.possible:
        witness = _quadratic_factor_witness(f)
    if witness is not None:
        if not verify_witness(f, witness):
            raise ArithmeticError("reducibility witness does not reproduce f")
        return Verdict(kind="reducible", witness=witness, degree_set=degs)
    return Verdict(kind="inconclusive", witness=None, degree_set=degs)


def verdict_to_jsonable(verdict: Verdict) -> dict:
    out = {
        "verdict": verdict.kind,
        "primes_used": list(verdict.degree_set.primes_used),
        "possible_degrees": sorted(verdict.degree_set.possible),
        "low_confidence": verdict.degree_set.low_confidence,
    }
    if verdict.witness is not None:
        out["witness"] = {
            "g": format_poly(verdict.witness.g),
            "h": format_poly(verdict.witness.h),
            "c": str(verdict.witness.c),
        }
    return out


# ---------------------------------------------------------------------------
# searching for reducible instances

def _base_power_factor(f: Poly, phi: Poly, max_level: int) -> FactorWitness | None:
    """First factor phi**level + sum c_i phi**i, level 1..max_level, among
    monic candidates whose constants are bounded by the expansion norm of f,
    filtered by divisibility of evaluations at x = 2."""
    if max_level < 1:
        return None
    parts = phi_expand(f, phi)
    if not parts or parts[0].is_zero:
        return None
    bound = 1 + max((abs(c) for part in parts[:-1] for c in part.coeffs), default=1)
    f2 = f(2)
    phi2 = phi(2)
    for level in range(1, max_level + 1):
        if (2 * bound + 1) ** level > 2_000_000:  # every later level is larger
            return None
        powers = [phi2**i for i in range(level + 1)]
        phis = [phi**i for i in range(level + 1)]
        for consts in _cartesian(range(-bound, bound + 1), repeat=level):
            g2 = powers[level] + sum(c * powers[i] for i, c in enumerate(consts))
            if g2 == 0 or (f2 != 0 and f2 % g2 != 0):
                continue
            g = sum((c * phis[i] for i, c in enumerate(consts) if c), phis[level])
            w = _witness_from_factor(f, g)
            if w is not None:
                return w
    return None


def search_reducible_witness(m: int, alpha, phi: Poly, coefficient_bound: int,
                             ) -> tuple[LaguerreInstance, FactorWitness] | None:
    """First valid instance (lexicographic multipliers) whose assembled
    polynomial has a rational root or a base-power factor of level at most
    m//2.  None-found is a meaningful result: the search space is exactly
    the stated one.
    """
    alpha = parameter(alpha)
    if m < 1:
        raise ValueError("need m >= 1")
    if coefficient_bound < 1:
        raise ValueError("coefficient bound must be positive")
    if coefficient_bound >= 2**63:
        raise OverflowError("coefficient bound must be below 2**63")
    rng = range(-coefficient_bound, coefficient_bound + 1)
    deg = phi.degree
    # a base that breaks the hypotheses raises here; past it an instance is
    # invalid only through a_0 = 0 or the content of a_m*a_0, so a lead
    # refused with unit multipliers is refused with any
    build_instance(m, alpha, 1, [1] * m, phi)
    for a_m in rng:
        if a_m == 0 or not build_instance(m, alpha, a_m, [1] * m, phi, relaxed=True).is_valid:
            continue
        for flat in _cartesian(rng, repeat=m * deg):
            parts = [Poly(flat[j * deg:(j + 1) * deg]) for j in range(m)]
            inst = build_instance(m, alpha, a_m, parts, phi, relaxed=True)
            if not inst.is_valid:
                continue
            f = inst.f
            fp = primitive_part(f) if f.lead > 0 else -primitive_part(f)
            w = _rational_root_witness(fp) or _base_power_factor(fp, phi, m // 2)
            if w is not None:
                w = FactorWitness(g=w.g, h=w.h, c=w.c * Fraction(f.lead, fp.lead))
                if not verify_witness(f, w):
                    raise ArithmeticError("reducibility witness does not reproduce f")
                return inst, w
    return None
