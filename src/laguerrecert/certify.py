"""Irreducibility certificates and their independent verification.

A certificate consists of one prime excluding factor degrees below the
base degree, plus one (prime, slope) witness per k in 1..m//2 excluding
factor degrees in [k*deg(phi), (k+1)*deg(phi)).  For a fixed prime the
slope does not depend on k and the divisibility range only grows with k,
so each prime witnesses one contiguous range of k; the certifier computes
that range once per prime and gives every k its smallest witness prime, so
equal inputs always yield identical certificates.  Its small-degree prime
divides vm+u, a factor of every lower coefficient c_j = v**m b_j, so it
reads no c_j.  It takes only instances that meet the hypotheses, which
settle the base and content conditions at every prime up to vm+u: its one
per-prime gate is p not dividing v, and its witnesses depend on (m, u, v)
alone.  Verification recomputes everything from scratch - coefficients,
the exclusion lemma's hypotheses on the polygon of each distinct prime
(exclusion_bounds, not the certifier's gate), the interval coverage - and
trusts nothing from the producer.  Its polygon heights are telescoped from
the coefficient ratio, which is checked exactly on the big integers once
per instance: one big-integer valuation per prime, small-integer
valuations only at the ratio's events (p | m-j, p | j+1, p | v(j+1)+u),
and an exact big-integer anchor at every polygon vertex.  This valuation
route shares no code with the certifier's Legendre sums.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, compress
from operator import ne

from .laguerre import HypothesisViolation, LaguerreInstance, ratio_identity_parts
from .polygon import NewtonPolygon, anchored_polygon, build_polygon, rightmost_slope
from .polyring import Poly, content, format_poly, is_irreducible_mod_p, parse_poly
from .primes import factorize, is_prime, sieve_primes, vp_int


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

    A prime dividing vm+u, a factor of every c_j = v**m b_j with j < m,
    divides every b_j too, as it cannot divide v (gcd(u, v) = 1).
    """
    if instance.prime_bound % p != 0:
        return f"prime {p} does not divide vm+u = {instance.prime_bound}"
    if instance.a_m % p == 0:
        return f"prime {p} divides the leading multiplier"
    if not is_irreducible_mod_p(instance.phi, p):
        return f"base polynomial is reducible modulo {p}"
    return None


def exclude_small_degrees(instance: LaguerreInstance) -> int:
    """A prime excluding nonconstant factors of degree below deg phi.

    The smallest prime divisor of vm+u qualifies: it cannot divide the
    leading multiplier, divides every lower coefficient, and the base is
    irreducible modulo it.  The first and the last are re-verified here;
    the second follows from p dividing vm+u.
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

    Everything is read off the runs of equal entries, found in one pass
    that compares vec with itself shifted by one.  On a run from j0 to j1
    with d = V0 - Vj, the chord slope d/j is largest at j0 when d > 0 and
    at j1 otherwise; the leading run ends at the first run whose entries
    are below 1.  For k >= 1 the dual form k*d < j always holds where
    d <= 0, and where d > 0 it holds at every j of the run exactly when it
    holds at j0, the smallest; the first run has d = 0, so every j0 checked
    is at least 1.  Checking j0 of each run with d > 0 is therefore the
    same predicate as checking every j.
    """
    m = len(vec) - 1
    starts = [0, *compress(range(1, m + 1), map(ne, vec[1:], vec))]
    ends = [j - 1 for j in starts[1:]] + [m]
    v0 = vec[0]
    run = next((j for j in starts if vec[j] < 1), m + 1)
    k_lo = max(1, m - run + 1)
    num = den = None
    rising = []  # (j0, d) of the runs with d > 0
    for j0, j1 in zip(starts, ends):
        d = v0 - vec[j0]
        if d > 0:
            rising.append((j0, d))
            j = j0
        elif j1 >= 1:
            j = j1
        else:
            continue  # the run holding j = 0 alone
        if den is None or d * den > num * j:
            num, den = d, j
    slope = Fraction(num, den)
    k_hi = m if slope <= 0 else (slope.denominator - 1) // slope.numerator

    def dual(k):
        return all(k * d < j0 for j0, d in rising)

    if (k_hi >= 1 and not dual(k_hi)) or (k_hi < m and dual(k_hi + 1)):
        raise ArithmeticError("slope criterion forms disagree")
    return k_lo, k_hi, slope


def _require_valid(instance: LaguerreInstance) -> None:
    if not instance.is_valid:
        raise HypothesisViolation(instance.violations)


def witness_slope(instance: LaguerreInstance, k: int, p: int) -> Fraction | None:
    """The witness slope when (k, p), p in 2..vm+u, is a witness, else None."""
    _require_valid(instance)
    if not 2 <= p <= instance.prime_bound:
        raise ValueError(f"p must lie in 2..vm+u = {instance.prime_bound}")
    if instance.v % p == 0:
        return None
    k_lo, k_hi, slope = witness_range(instance.valuation_vector(p))
    return slope if k_lo <= k <= k_hi else None


def find_prime_for_k(instance: LaguerreInstance, k: int) -> ExclusionWitness | None:
    """The smallest prime <= vm+u that witnesses k, or None: certify's choice."""
    _require_valid(instance)
    if not 1 <= k <= instance.m // 2:
        raise ValueError("k must lie in [1, m//2]")
    return next((w for w in certify(instance).witnesses if w.k == k), None)


def certify(instance: LaguerreInstance) -> Certificate | FailureReport:
    """Full certificate, or the list of k values left uncovered."""
    _require_valid(instance)
    try:
        p0 = exclude_small_degrees(instance)
    except NoSmallDegreePrime:
        p0 = None
    half = instance.m // 2
    chosen: dict[int, ExclusionWitness] = {}
    # ascending primes, so each k keeps its smallest witness
    for p in sieve_primes(instance.prime_bound):
        if len(chosen) == half:
            break
        if instance.v % p == 0:
            continue
        k_lo, k_hi, slope = witness_range(instance.valuation_vector(p))
        for k in range(k_lo, min(k_hi, half) + 1):
            if k not in chosen:
                chosen[k] = ExclusionWitness(k=k, p=p, slope=slope)
    witnesses = [chosen[k] for k in sorted(chosen)]
    uncovered = [k for k in range(1, half + 1) if k not in chosen]
    if p0 is not None and not uncovered:
        return Certificate(m=instance.m, u=instance.u, v=instance.v,
                           phi=instance.phi, small_degree_prime=p0,
                           witnesses=tuple(witnesses))
    return FailureReport(m=instance.m, u=instance.u, v=instance.v,
                         small_degree_prime=p0, uncovered=tuple(uncovered),
                         witnesses=tuple(witnesses))


def exclusion_bounds(phi: Poly, multipliers, p: int,
                     polygon_at) -> tuple[int, Fraction] | None:
    """The prime-dependent hypotheses of the exclusion lemma, at p.

    For f = sum f_i phi**i with multipliers a_0..a_m: None when p divides
    the content of a_0 or the leading coefficient of a_m, else (k_lo, the
    rightmost slope of the polygon of f at p), where f_0..f_{m-k} (at
    abscissas k..m) all have positive valuation exactly when k >= k_lo.
    The caller supplies the heights: polygon_at(p) is that polygon, leading
    part at abscissa 0, and is called only once every gate has passed.
    Raises ValueError unless p is prime and phi irreducible modulo p.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if not is_irreducible_mod_p(phi, p):
        raise ValueError("base must be irreducible modulo p")
    a0, am = multipliers[0], multipliers[-1]
    if a0.is_zero or content(a0) % p == 0 or am.is_zero or am.lead % p == 0:
        return None
    polygon = polygon_at(p)
    k_lo = 1 + max(i for i, h in polygon.points if h < 1)
    return k_lo, rightmost_slope(polygon)


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
    Returns whether all five hold; the degree conditions do not involve p,
    the other four are exclusion_bounds.  Range and shape violations raise.
    """
    if not (phi.is_monic and phi.degree >= 1):
        raise ValueError("base must be monic of degree >= 1")
    if not f.is_monic:
        raise ValueError("expanded polynomial must be monic")
    from .polyring import phi_expand

    expansion = phi_expand(f, phi)
    m = expansion.n
    if not (0 <= ell < k and 2 * k <= m):
        raise ValueError("need 0 <= ell < k <= m/2")
    if expansion.parts[0].is_zero:
        raise ValueError("polynomial is divisible by the base")
    multipliers = [mp if isinstance(mp, Poly) else Poly.const(mp) for mp in multipliers]
    if len(multipliers) != m + 1:
        raise ValueError(f"expected {m + 1} multipliers")
    degrees_ok = all(mult.is_zero or mult.degree < phi.degree - max(part.degree, 0)
                     for mult, part in zip(multipliers, expansion.parts))
    bounds = exclusion_bounds(phi, multipliers, p,
                              lambda q: build_polygon(expansion, q))
    return (degrees_ok and bounds is not None
            and bounds[0] <= ell + 1 and bounds[1] < Fraction(1, k))


def coverage_complete(m: int, deg_phi: int, ks) -> bool:
    """Every possible smaller-factor degree lies in a certified interval."""
    covered = set(range(1, deg_phi))
    for k in ks:
        covered.update(range(k * deg_phi, (k + 1) * deg_phi))
    return all(d in covered for d in range(1, m * deg_phi // 2 + 1))


def _telescoped_polygon(parts, u: int, v: int, p: int) -> NewtonPolygon:
    """Polygon at p of the monic model's parts c_0..c_m, leading at abscissa 0.

    One big-integer valuation, h_0 = v_p(c_0); by the ratio identity
    h_{j+1} = h_j + v_p(m-j) + v_p(v) - v_p(j+1) - v_p(v(j+1)+u), on small
    integers.  The step is v_p(v) except at its events, the j with p | m-j,
    p | j+1 or p | v(j+1)+u, so vp_int runs only there and the heights are
    the running sum of the steps.  Every vertex height is re-checked by
    vp_int on its big c_j.
    """
    m = len(parts) - 1
    h_v = vp_int(p, v)
    steps = [h_v] * m  # steps[j] = h_{j+1} - h_j
    for j in range(m % p, m, p):  # p | m-j
        steps[j] += vp_int(p, m - j)
    for j in range(p - 1, m, p):  # p | j+1
        steps[j] -= vp_int(p, j + 1)
    if h_v == 0:  # otherwise p | v(j+1)+u never holds, as p cannot divide u too
        for j in range((-u * pow(v, -1, p) - 1) % p, m, p):  # p | v(j+1)+u
            steps[j] -= vp_int(p, v * (j + 1) + u)
    heights = list(accumulate(steps, initial=vp_int(p, parts[0])))
    heights.reverse()  # abscissa i carries c_{m-i}
    return anchored_polygon(heights, lambda i: vp_int(p, parts[m - i]))


def verify_certificate(cert: Certificate, instance: LaguerreInstance) -> bool:
    """Re-derive every certificate claim from first principles.

    Checks field types, instance consistency and hypotheses, the
    small-degree prime, each witness against exclusion_bounds (once per
    distinct prime, on the monic model with multipliers
    a_0..a_{m-1}, v**m a_m; the gates leave p prime to v, so the monic
    leading part 1 and c_m = v**m have the same height 0), and interval
    coverage.
    Returns False on any discrepancy; never raises for a bad certificate.
    """
    try:
        if not isinstance(cert, Certificate) or not all(
                type(n) is int for n in (cert.m, cert.u, cert.v, cert.small_degree_prime,
                                         *(n for w in cert.witnesses for n in (w.k, w.p)))):
            return False
        if (cert.m, cert.u, cert.v) != (instance.m, instance.u, instance.v):
            return False
        if cert.phi != instance.phi or not instance.is_valid:
            return False
        p0 = cert.small_degree_prime
        if not is_prime(p0) or _small_degree_failure(instance, p0) is not None:
            return False

        m = instance.m
        # c_j = v**m b_j and c_m = v**m, re-checked by the ratio identity,
        # which determines every c_j, so heights telescoped along it are exact
        parts = ratio_identity_parts(instance.cleared, m, instance.u, instance.v)
        multipliers = instance.a_parts + (Poly.const(instance.v ** m * instance.a_m),)

        def polygon_at(p):
            return _telescoped_polygon(parts, instance.u, instance.v, p)

        per_prime: dict = {}
        seen_ks = []
        for w in cert.witnesses:
            if not (w.divisibility_checked and 1 <= w.k <= m // 2):
                return False
            if w.p not in per_prime:
                per_prime[w.p] = exclusion_bounds(instance.phi, multipliers, w.p,
                                                  polygon_at)
            if per_prime[w.p] is None:
                return False
            k_lo, slope = per_prime[w.p]
            if w.k < k_lo or type(w.slope) is not Fraction or slope != w.slope \
                    or not slope < Fraction(1, w.k):
                return False
            seen_ks.append(w.k)
        if sorted(seen_ks) != list(range(1, m // 2 + 1)):
            return False
        return coverage_complete(m, instance.phi.degree, seen_ks)
    except (ValueError, TypeError, AttributeError, ZeroDivisionError, ArithmeticError):
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


def _typed(record: dict, key: str, kind: type):
    """record[key], which must be exactly of the given type (no bool for int)."""
    value = record[key]
    if type(value) is not kind:
        raise ValueError(f"malformed certificate: {key} must be {kind.__name__}, "
                         f"got {value!r}")
    return value


def certificate_from_json(text: str) -> Certificate:
    """Parse a certificate; any malformed input raises ValueError.

    m, u, v, small_degree_prime, k and p must be JSON integers, phi and
    slope strings (the slope written a/b), and divisibility_range a list of
    two integers.
    """
    try:
        data = json.loads(text)
        m = _typed(data, "m", int)
        witnesses = []
        for w in _typed(data, "witnesses", list):
            k, slope = _typed(w, "k", int), _typed(w, "slope", str)
            if not re.fullmatch(r"-?[0-9]+/[0-9]+", slope):
                raise ValueError(f"malformed certificate: slope {slope!r} is not a/b")
            divisibility = _typed(w, "divisibility_range", list)
            if len(divisibility) != 2 or any(type(n) is not int for n in divisibility):
                raise ValueError("malformed certificate: divisibility_range must be "
                                 f"two integers, got {divisibility!r}")
            witnesses.append(ExclusionWitness(k=k, p=_typed(w, "p", int),
                                              slope=Fraction(slope),
                                              divisibility_checked=divisibility == [0, m - k]))
        return Certificate(m=m, u=_typed(data, "u", int), v=_typed(data, "v", int),
                           phi=parse_poly(_typed(data, "phi", str)),
                           small_degree_prime=_typed(data, "small_degree_prime", int),
                           witnesses=tuple(witnesses))
    except (KeyError, TypeError, AttributeError, ZeroDivisionError, RecursionError) as exc:
        raise ValueError(f"malformed certificate: {type(exc).__name__}: {exc}") from exc
