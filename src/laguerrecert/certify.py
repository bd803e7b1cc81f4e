"""Irreducibility certificates and their independent verification.

A certificate consists of one prime excluding factor degrees below the
base degree, plus one (prime, slope) witness per k in 1..m//2 excluding
factor degrees in [k*deg(phi), (k+1)*deg(phi)).  For a fixed prime the
slope does not depend on k and the divisibility range only grows with k,
so each prime witnesses one contiguous range of k; the certifier computes
that range once per prime and gives every k its smallest witness prime, so
equal inputs always yield identical certificates.  Verification recomputes
everything from scratch - coefficients, prime properties, the polygon of
each distinct prime, the interval coverage - and trusts nothing from the
producer.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .laguerre import HypothesisViolation, LaguerreInstance
from .polygon import PhiExpansion, build_polygon, rightmost_slope
from .polyring import Poly, content, format_poly, gauss_valuation, is_irreducible_mod_p, parse_poly
from .primes import factorize, is_prime, sieve_primes


class NoSmallDegreePrime(Exception):
    """vm+u has no prime divisor usable for the small-degree exclusion."""


@dataclass(frozen=True)
class ExclusionWitness:
    k: int
    p: int
    slope: Fraction
    divisibility_checked: bool = True


@dataclass(frozen=True)
class Certificate:
    m: int
    u: int
    v: int
    phi: Poly
    small_degree_prime: int
    witnesses: tuple[ExclusionWitness, ...]

    @property
    def conclusion(self) -> str:
        return "irreducible-over-Q"


@dataclass(frozen=True)
class FailureReport:
    """Uncovered degree intervals; never a claim of reducibility."""

    m: int
    u: int
    v: int
    small_degree_prime: int | None
    uncovered: tuple[int, ...]
    witnesses: tuple[ExclusionWitness, ...]


def _small_degree_failure(instance: LaguerreInstance, p: int) -> str | None:
    """Why the prime p cannot exclude degrees below deg phi, or None if it can.

    A prime dividing vm+u does not divide v (gcd(u, v) = 1), so it divides
    the integer v**m b_j exactly when it divides b_j.
    """
    if instance.prime_bound % p != 0:
        return f"prime {p} does not divide vm+u = {instance.prime_bound}"
    if instance.a_m % p == 0:
        return f"prime {p} divides the leading multiplier"
    if any(c % p for c in instance.cleared):
        return f"prime {p} misses a lower coefficient"
    if not is_irreducible_mod_p(instance.phi, p):
        return f"base polynomial is reducible modulo {p}"
    return None


def exclude_small_degrees(instance: LaguerreInstance) -> int:
    """A prime excluding nonconstant factors of degree below deg phi.

    The smallest prime divisor of vm+u qualifies: it cannot divide the
    leading multiplier, divides every lower coefficient, and the base is
    irreducible modulo it.  All three facts are re-verified here.
    """
    bound = instance.prime_bound
    if abs(bound) < 2:
        raise NoSmallDegreePrime(f"vm+u = {bound} has no prime divisor")
    p = min(factorize(bound))
    reason = _small_degree_failure(instance, p)
    if reason is not None:
        raise NoSmallDegreePrime(reason)
    return p


def witness_range(vec) -> tuple[int, int, Fraction]:
    """The k range a valuation vector witnesses, and its rightmost slope.

    vec holds v_p(b_0), ..., v_p(b_m).  The witness conditions at k are
    v_p(b_j) >= 1 for j <= m-k and slope < 1/k, where
    slope = max_j (V0 - Vj)/j.  With vec[0..J] >= 1 the longest leading
    run, the first holds exactly for k >= k_lo = max(1, m-J); the second
    exactly for k <= k_hi, the largest k with k*slope < 1 (m when the slope
    is not positive).  The range is empty when k_lo > k_hi.  The bound is
    cross-checked against the dual form V0 - Vj < j/k for every j.
    """
    m = len(vec) - 1
    run = 0
    while run <= m and vec[run] >= 1:
        run += 1
    k_lo = max(1, m - run + 1)
    v0 = vec[0]
    num, den = v0 - vec[1], 1
    for j in range(2, m + 1):
        if (v0 - vec[j]) * den > num * j:
            num, den = v0 - vec[j], j
    slope = Fraction(num, den)
    k_hi = m if slope <= 0 else (slope.denominator - 1) // slope.numerator

    def dual(k):
        return all(k * (v0 - vec[j]) < j for j in range(1, m + 1))

    if (k_hi >= 1 and not dual(k_hi)) or (k_hi < m and dual(k_hi + 1)):
        raise ArithmeticError("slope criterion forms disagree")
    return k_lo, k_hi, slope


def _prime_qualifies(instance: LaguerreInstance, p: int) -> bool:
    """The k-independent witness conditions on p."""
    if instance.v % p == 0 or instance.a_m % p == 0:
        return False
    if not instance.a_parts[0].is_zero and content(instance.a_parts[0]) % p == 0:
        return False
    return is_irreducible_mod_p(instance.phi, p)


def witness_slope(instance: LaguerreInstance, k: int, p: int) -> Fraction | None:
    """The witness slope when (k, p) satisfies every witness condition, else None."""
    if not _prime_qualifies(instance, p):
        return None
    k_lo, k_hi, slope = witness_range(instance.valuation_vector(p))
    return slope if k_lo <= k <= k_hi else None


def find_prime_for_k(instance: LaguerreInstance, k: int) -> ExclusionWitness | None:
    """The smallest prime <= vm+u that witnesses k, or None."""
    if not 1 <= k <= instance.m // 2:
        raise ValueError("k must lie in [1, m//2]")
    for p in sieve_primes(instance.prime_bound):
        slope = witness_slope(instance, k, p)
        if slope is not None:
            return ExclusionWitness(k=k, p=p, slope=slope)
    return None


def certify(instance: LaguerreInstance) -> Certificate | FailureReport:
    """Full certificate, or the list of k values left uncovered."""
    if not instance.is_valid:
        raise HypothesisViolation(instance.violations)
    try:
        p0 = exclude_small_degrees(instance)
    except NoSmallDegreePrime:
        p0 = None
    half = instance.m // 2
    chosen: dict[int, ExclusionWitness] = {}
    # ascending primes, so each k keeps its smallest witness, exactly the
    # answer of find_prime_for_k
    for p in sieve_primes(instance.prime_bound):
        if len(chosen) == half:
            break
        if not _prime_qualifies(instance, p):
            continue
        k_lo, k_hi, slope = witness_range(instance.valuation_vector(p))
        for k in range(k_lo, min(k_hi, half) + 1):
            chosen.setdefault(k, ExclusionWitness(k=k, p=p, slope=slope))
    witnesses = [chosen[k] for k in sorted(chosen)]
    uncovered = [k for k in range(1, half + 1) if k not in chosen]
    if p0 is not None and not uncovered:
        return Certificate(m=instance.m, u=instance.u, v=instance.v,
                           phi=instance.phi, small_degree_prime=p0,
                           witnesses=tuple(witnesses))
    return FailureReport(m=instance.m, u=instance.u, v=instance.v,
                         small_degree_prime=p0, uncovered=tuple(uncovered),
                         witnesses=tuple(witnesses))


def lemma_exclusion_check(f: Poly, phi: Poly, p: int, ell: int, k: int,
                          multipliers) -> bool:
    """Degree-interval exclusion hypotheses, checked on an explicit expansion.

    With f monic, not divisible by phi, expanded as sum f_i phi**i, and
    multipliers a_0..a_m, the polynomial sum a_i f_i phi**i has no factor
    with degree in [(ell+1) deg phi, (k+1) deg phi) provided:
      - gauss valuation of f_i is positive for 0 <= i <= m-ell-1,
      - the rightmost slope of the polygon of f at p is below 1/k,
      - deg a_i < deg phi - deg f_i for every i,
      - the content of a_0 is prime to p,
      - the leading coefficient of a_m is prime to p.
    Returns whether all five hold.  Range and shape violations raise.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if not (phi.is_monic and phi.degree >= 1):
        raise ValueError("base must be monic of degree >= 1")
    if not is_irreducible_mod_p(phi, p):
        raise ValueError("base must be irreducible modulo p")
    if not f.is_monic:
        raise ValueError("expanded polynomial must be monic")
    from .polyring import phi_expand

    expansion = phi_expand(f, phi)
    parts = expansion.parts
    m = expansion.n
    if not (0 <= ell < k and 2 * k <= m):
        raise ValueError("need 0 <= ell < k <= m/2")
    if parts[0].is_zero:
        raise ValueError("polynomial is divisible by the base")
    multipliers = [mp if isinstance(mp, Poly) else Poly.const(mp) for mp in multipliers]
    if len(multipliers) != m + 1:
        raise ValueError(f"expected {m + 1} multipliers")

    for i in range(m - ell):
        # a vanishing part has infinite valuation and passes vacuously
        if not parts[i].is_zero and gauss_valuation(p, parts[i]) <= 0:
            return False
    if rightmost_slope(build_polygon(expansion, p)) >= Fraction(1, k):
        return False
    for i, mult in enumerate(multipliers):
        fi_deg = parts[i].degree if i < len(parts) and not parts[i].is_zero else 0
        if not mult.is_zero and mult.degree >= phi.degree - fi_deg:
            return False
    a0 = multipliers[0]
    if a0.is_zero or content(a0) % p == 0:
        return False
    if multipliers[m].is_zero or multipliers[m].lead % p == 0:
        return False
    return True


def coverage_complete(m: int, deg_phi: int, ks) -> bool:
    """Every possible smaller-factor degree lies in a certified interval."""
    covered = set(range(1, deg_phi))
    for k in ks:
        covered.update(range(k * deg_phi, (k + 1) * deg_phi))
    return all(d in covered for d in range(1, m * deg_phi // 2 + 1))


def _monic_model_expansion(instance: LaguerreInstance) -> PhiExpansion:
    """Expansion of phi**m + sum (v**m b_j) phi**j, built part by part.

    The parts are constants below deg phi, so by uniqueness this IS the
    expansion of the reassembled polynomial; small cases re-expand and
    compare as a spot check.
    """
    parts = [Poly.const(c) for c in instance.cleared] + [Poly.const(1)]
    expansion = PhiExpansion(phi=instance.phi, parts=tuple(parts))
    if instance.m * instance.phi.degree <= 40:
        from .polyring import phi_expand

        redone = phi_expand(expansion.reassemble(), instance.phi)
        if redone.parts != expansion.parts:
            raise ArithmeticError("monic model expansion differs on re-expansion")
    return expansion


def _polygon_facts(instance: LaguerreInstance, expansion: PhiExpansion,
                   p: int) -> tuple[Fraction, int] | None:
    """(rightmost slope, largest abscissa of valuation below 1) of the
    polygon at p, or None when p fails a k-independent witness condition.

    Only these two numbers are kept, not the polygon: at large m the
    polygons of every witness prime would dominate the verifier's memory.
    """
    if not (is_prime(p) and _prime_qualifies(instance, p)):
        return None
    polygon = build_polygon(expansion, p)
    last_unit = max(i for i, h in polygon.points if h < 1)
    return rightmost_slope(polygon), last_unit


def verify_certificate(cert: Certificate, instance: LaguerreInstance) -> bool:
    """Re-derive every certificate claim from first principles.

    Checks instance consistency and hypotheses, the small-degree prime,
    each witness (primality, coprimality, coefficient divisibility and
    slope bound, both read off the polygon of the big-integer expansion,
    built once per distinct prime), and interval coverage.
    Returns False on any discrepancy; never raises for a bad certificate.
    """
    try:
        if not isinstance(cert, Certificate):
            return False
        if (cert.m, cert.u, cert.v) != (instance.m, instance.u, instance.v):
            return False
        if cert.phi != instance.phi or not instance.is_valid:
            return False
        p0 = cert.small_degree_prime
        if not is_prime(p0) or _small_degree_failure(instance, p0) is not None:
            return False

        expansion = _monic_model_expansion(instance)
        per_prime: dict = {}
        seen_ks = []
        for w in cert.witnesses:
            if not (w.divisibility_checked and 1 <= w.k <= instance.m // 2):
                return False
            if w.p not in per_prime:
                per_prime[w.p] = _polygon_facts(instance, expansion, w.p)
            if per_prime[w.p] is None:
                return False
            polygon_slope, last_unit = per_prime[w.p]
            # b_0..b_{m-k} sit at abscissas k..m, so all have valuation >= 1
            # exactly when the last point of valuation below 1 lies left of k
            if w.k <= last_unit:
                return False
            if polygon_slope != w.slope or not polygon_slope < Fraction(1, w.k):
                return False
            seen_ks.append(w.k)
        if sorted(seen_ks) != list(range(1, instance.m // 2 + 1)):
            return False
        return coverage_complete(instance.m, instance.phi.degree, seen_ks)
    except (ValueError, ZeroDivisionError, ArithmeticError):
        return False


# ---------------------------------------------------------------------------
# serialization

def certificate_to_jsonable(cert: Certificate) -> dict:
    return {
        "m": cert.m,
        "u": cert.u,
        "v": cert.v,
        "phi": format_poly(cert.phi),
        "small_degree_prime": cert.small_degree_prime,
        "witnesses": [
            {
                "k": w.k,
                "p": w.p,
                "slope": f"{w.slope.numerator}/{w.slope.denominator}",
                "divisibility_range": [0, cert.m - w.k],
            }
            for w in cert.witnesses
        ],
        "conclusion": cert.conclusion,
    }


def certificate_to_json(cert: Certificate) -> str:
    return json.dumps(certificate_to_jsonable(cert), indent=2)


def certificate_from_json(text: str) -> Certificate:
    """Parse a certificate; any malformed input raises ValueError."""
    try:
        data = json.loads(text)
        witnesses = tuple(
            ExclusionWitness(k=w["k"], p=w["p"],
                             slope=Fraction(w["slope"]),
                             divisibility_checked=w["divisibility_range"] == [0, data["m"] - w["k"]])
            for w in data["witnesses"]
        )
        return Certificate(m=data["m"], u=data["u"], v=data["v"],
                           phi=parse_poly(data["phi"]),
                           small_degree_prime=data["small_degree_prime"],
                           witnesses=witnesses)
    except (KeyError, TypeError, AttributeError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed certificate: {type(exc).__name__}: {exc}") from exc
