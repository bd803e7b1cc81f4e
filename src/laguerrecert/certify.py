"""Irreducibility certificates and their independent verification.

A certificate consists of one prime excluding factor degrees below the
base degree, plus one (prime, slope) witness per k in 1..m//2 excluding
factor degrees in [k*deg(phi), (k+1)*deg(phi)).  For a fixed prime the
slope does not depend on k and the divisibility range only grows with k,
so each prime witnesses one contiguous range of k; the certifier computes
that range once per prime and gives each k open in its mask its smallest
witness prime, so equal inputs always yield identical certificates.  Its
small-degree prime divides vm+u, a factor of every lower coefficient
c_j = v**m b_j, so it reads no c_j.  It takes only instances that meet the
hypotheses, which settle the base and content conditions at every prime up
to vm+u: its one per-prime gate is p not dividing v, and its witnesses
depend on (m, u, v) alone.  Verification recomputes everything from
scratch - coefficients, the exclusion lemma's hypotheses on the polygon of
each distinct prime (exclusion_bounds, not the certifier's gate), coverage
in one degree mask - and trusts nothing from the producer.

Three valuation routes meet here:
- The certifier's closed forms: laguerre.coefficient_valuations values
  each prime's b_j by Legendre sums and residue class counts at the
  O(m/p) starts of their runs, and the run holding b_{m-1} = m(vm+u)/v
  is checked against two small-integer valuations.
- The verifier's heights, telescoped down the coefficient ratio from
  c_m = v**m, with small-integer valuations only at the ratio's events
  (p | m-j, p | j+1, p | v(j+1)+u) and no big-integer valuation.  Between
  the events the heights are flat, so each polygon is built once, on the
  low end of each of its O(m/p) steps, and every later reading of it
  (k_lo, the rightmost slope) works on those points too.
- Anchors built from the definition, c_j = C(m, j) v**j prod_{i>j}(vi+u),
  by laguerre.cleared_from_definition only at the union of the polygons'
  vertex abscissas, where they confirm every vertex height.  That sweep
  never builds one c_j from another along the ratio the heights telescope
  on.
The verifier shares no valuation code with the certifier and reads none
of instance.cleared, the c_j that only f and b read.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import NamedTuple

from .laguerre import HypothesisViolation, LaguerreInstance, cleared_from_definition
from .polygon import (NewtonPolygon, build_polygon, confirm_vertex_heights,
                      rightmost_slope, step_polygon)
from .polyring import (Poly, content, degree_range, degrees_of, format_poly,
                       is_irreducible_mod_p, parse_poly)
from .primes import _require_prime, _vp_int, factorize, is_prime, sieve_primes, vp_int


class NoSmallDegreePrime(Exception):
    """vm+u has no prime divisor usable for the small-degree exclusion."""


class ExclusionWitness(NamedTuple):
    k: int
    p: int
    slope: Fraction
    divisibility_checked: bool = True


class Certificate(NamedTuple):
    m: int
    u: int
    v: int
    phi: Poly
    small_degree_prime: int
    witnesses: tuple[ExclusionWitness, ...]
    conclusion: str = "irreducible-over-Q"  # the one claim the verifier accepts


class FailureReport(NamedTuple):
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

    The smallest prime divisor of vm+u that does not divide the leading
    multiplier and keeps the base irreducible; dividing vm+u, it divides
    every lower coefficient.  On a valid instance with vm+u >= 2 that is
    the smallest divisor; with vm+u <= -2 the hypotheses reach no prime.
    Raises with the smallest divisor's reason when none qualifies.
    """
    bound = instance.prime_bound
    if abs(bound) < 2:
        raise NoSmallDegreePrime(f"vm+u = {bound} has no prime divisor")
    reasons = []
    for p in sorted(factorize(bound)):
        reason = _small_degree_failure(instance, p)
        if reason is None:
            return p
        reasons.append(reason)
    raise NoSmallDegreePrime(reasons[0])


def witness_range(runs) -> tuple[int, int, Fraction]:
    """The k range a valuation vector witnesses, and its rightmost slope.

    runs holds Vj = v_p(b_j) for j = 0..m as LaguerreInstance.valuation_vector
    gives them: (j0, V_j0) at each run start j0, ascending from 0 to m, the
    run lasting to the next start; adjacent runs may carry equal values.
    The witness conditions at k are Vj >= 1 for j <= m-k and slope < 1/k,
    where slope = max_j (V0 - Vj)/j.  With V_0..V_J >= 1 the longest
    leading run, the first holds exactly for k >= k_lo = max(1, m-J); the
    second exactly for k <= k_hi, the largest k with k*slope < 1 (m when
    the slope is not positive).  The range is empty when k_lo > k_hi.  The
    bound is cross-checked against the dual form V0 - Vj < j/k for every j.

    Everything is read off the runs.  On a run from j0 to j1 with
    d = V0 - Vj, the chord slope d/j is largest at j0 when d > 0 and at j1
    otherwise; the leading run ends at the first run whose entries are
    below 1.  For k >= 1 the dual form k*d < j always holds where
    d <= 0, and where d > 0 it holds at every j of the run exactly when it
    holds at j0, the smallest; the first run has d = 0, so every j0 checked
    is at least 1.  Checking j0 of each run with d > 0 is therefore the
    same predicate as checking every j.
    """
    m = runs[-1][0]
    ends = [j - 1 for j, _ in runs[1:]] + [m]
    v0 = runs[0][1]
    run = next((j for j, value in runs if value < 1), m + 1)
    k_lo = max(1, m - run + 1)
    num = den = None
    rising = []  # (j0, d) of the runs with d > 0
    for (j0, value), j1 in zip(runs, ends):
        d = v0 - value
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


def anchored_witness_range(runs, p: int, prime_bound: int) -> tuple[int, int, Fraction]:
    """witness_range of runs in valuation_vector's shape at a prime p not
    dividing v, once the run holding j = m-1 is checked against
    b_{m-1} = m(vm+u)/v, prime_bound = vm+u; ArithmeticError on a mismatch."""
    if runs[-2][1] != vp_int(p, runs[-1][0]) + vp_int(p, prime_bound):
        raise ArithmeticError(f"valuation runs at p = {p} miss v_p(b_(m-1))")
    return witness_range(runs)


def witness_slope(instance: LaguerreInstance, k: int, p: int) -> Fraction | None:
    """The witness slope when (k, p), p in 2..vm+u, is a witness, else None."""
    _require_valid(instance)
    if not 2 <= p <= instance.prime_bound:
        raise ValueError(f"p must lie in 2..vm+u = {instance.prime_bound}")
    if instance.v % p == 0:
        return None
    k_lo, k_hi, slope = anchored_witness_range(instance.valuation_vector(p), p,
                                               instance.prime_bound)
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
    open_ks = degree_range(1, instance.m // 2 + 1)  # bit k: k not yet witnessed
    witnesses = []
    # ascending primes, so each k keeps its smallest witness
    for p in sieve_primes(instance.prime_bound):
        if not open_ks:
            break
        if instance.v % p == 0:
            continue
        k_lo, k_hi, slope = anchored_witness_range(instance.valuation_vector(p), p,
                                                   instance.prime_bound)
        new = open_ks & degree_range(k_lo, k_hi + 1)
        open_ks ^= new
        witnesses += [ExclusionWitness(k=k, p=p, slope=slope) for k in degrees_of(new)]
    witnesses.sort(key=lambda w: w.k)
    if p0 is not None and not open_ks:
        return Certificate(m=instance.m, u=instance.u, v=instance.v,
                           phi=instance.phi, small_degree_prime=p0,
                           witnesses=tuple(witnesses))
    return FailureReport(m=instance.m, u=instance.u, v=instance.v,
                         small_degree_prime=p0, uncovered=tuple(degrees_of(open_ks)),
                         witnesses=tuple(witnesses))


def exclusion_bounds(phi: Poly, a_0: Poly, lead: int, p: int,
                     polygon_at) -> tuple[int, Fraction] | None:
    """The prime-dependent hypotheses of the exclusion lemma, at p.

    For f = sum f_i phi**i with multipliers a_0..a_m, of which only a_0 and
    lead, the leading coefficient of a_m (0 when a_m is zero), are read:
    None when a_0 is zero or p divides its content or lead, else (k_lo, the
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
    if a_0.is_zero or content(a_0) % p == 0 or lead % p == 0:
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

    parts = phi_expand(f, phi)
    m = len(parts) - 1
    if not (0 <= ell < k and 2 * k <= m):
        raise ValueError("need 0 <= ell < k <= m/2")
    if parts[0].is_zero:
        raise ValueError("polynomial is divisible by the base")
    multipliers = [mp if isinstance(mp, Poly) else Poly.const(mp) for mp in multipliers]
    if len(multipliers) != m + 1:
        raise ValueError(f"expected {m + 1} multipliers")
    degrees_ok = all(mult.is_zero or mult.degree < phi.degree - max(part.degree, 0)
                     for mult, part in zip(multipliers, parts))
    a_m = multipliers[-1]
    bounds = exclusion_bounds(phi, multipliers[0], 0 if a_m.is_zero else a_m.lead, p,
                              lambda q: build_polygon(parts, q))
    return (degrees_ok and bounds is not None
            and bounds[0] <= ell + 1 and bounds[1] < Fraction(1, k))


def _telescoped_polygon(m: int, u: int, v: int, p: int) -> NewtonPolygon:
    """Polygon at p of the monic model's parts c_0..c_m, on the low end of
    each step of their heights.

    Abscissa i carries c_{m-i}, leading part at 0.  p must not divide v
    (ValueError): exclusion_bounds refuses every p | v, which divides the
    leading multiplier v**m a_m, before it asks for a polygon.  The heights
    telescope down the ratio c_j (m-j) v = c_{j+1} (j+1) (v(j+1)+u) from
    c_m = v**m, of height 0, on small integers:
    h_j = h_{j+1} - v_p(m-j) + v_p(j+1) + v_p(v(j+1)+u).
    The step from abscissa a to a+1 (j = m-1-a) is 0 except at its events,
    the j with p | m-j, p | j+1 or p | v(j+1)+u, at most 3(m/p + 1) of them,
    so a valuation runs only there (p is checked prime once per polygon,
    not per event), and step_polygon keeps 0, m and the low end
    of each nonzero step, at most 3(m/p + 1) + 2 points (see step_polygon
    for why they suffice).  The heights are claims until
    confirm_vertex_heights has checked every vertex, c_0's at abscissa m
    among them, against cleared_from_definition.
    """
    if v % p == 0:
        raise ValueError(f"the telescoped heights need p = {p} prime to v = {v}")
    _require_prime(p)
    steps: dict[int, int] = {}  # abscissa a -> h(a+1) - h(a)
    for n in range(p, m + 1, p):  # n = m-j, then n = j+1: the same valuations
        e = _vp_int(p, n)
        steps[n - 1] = steps.get(n - 1, 0) - e
        steps[m - n] = steps.get(m - n, 0) + e
    for j in range((-u * pow(v, -1, p) - 1) % p, m, p):  # p | v(j+1)+u
        a = m - 1 - j
        steps[a] = steps.get(a, 0) + _vp_int(p, v * (j + 1) + u)
    return step_polygon(steps, m)


def verify_certificate(cert: Certificate, instance: LaguerreInstance) -> bool:
    """Re-derive every certificate claim from first principles.

    Checks field types, the conclusion, instance consistency and
    hypotheses, the small-degree prime, each witness against
    exclusion_bounds (once per distinct prime, on the monic model with
    multipliers a_0..a_{m-1}, v**m a_m; the gates leave p prime to v, so the monic
    leading part 1 and c_m = v**m have the same height 0), and coverage:
    one polyring degree mask of the degrees n..mn//2 still open, n = deg
    phi (p0 closes those below n).  A witness is refused unless bit kn is
    open, which refuses k outside 1..m//2 (a negative shift raises) and a
    repeated k; it then clears [kn, (k+1)n), and the mask must end at 0
    before any anchor is built.  Each witness is checked in integers
    against its prime's (k_lo, numerator, denominator): k >= k_lo, a
    Fraction slope with that numerator and denominator, and numerator * k
    < denominator (the denominator is positive), which is slope < 1/k.
    The heights are telescoped along the coefficient ratio, one polygon per
    distinct witness prime; every vertex height of every polygon is then
    confirmed on the c_j built from their definition at the union of the
    vertex abscissas i, j = m - i (laguerre.cleared_from_definition), one
    comb each.  No other c_j is built and instance.cleared is not read.
    Returns False on any discrepancy; never raises for a bad certificate.
    """
    try:
        if not isinstance(cert, Certificate) or not all(
                type(n) is int for n in (cert.m, cert.u, cert.v, cert.small_degree_prime)):
            return False
        if cert.conclusion != "irreducible-over-Q":
            return False
        if (cert.m, cert.u, cert.v) != (instance.m, instance.u, instance.v):
            return False
        if cert.phi != instance.phi or not instance.is_valid:
            return False
        p0 = cert.small_degree_prime
        if not is_prime(p0) or _small_degree_failure(instance, p0) is not None:
            return False

        m, u, v = instance.m, instance.u, instance.v
        lead = v ** m * instance.a_m
        polygons: dict[int, NewtonPolygon] = {}

        def polygon_at(p):
            polygons[p] = _telescoped_polygon(m, u, v, p)
            return polygons[p]

        n = instance.phi.degree
        open_degrees = degree_range(n, m * n // 2 + 1)
        per_prime: dict = {}  # p -> (k_lo, slope numerator, slope denominator), or None
        for w in cert.witnesses:
            k, p, slope = w.k, w.p, w.slope
            if type(k) is not int or type(p) is not int:
                return False
            if not (w.divisibility_checked and open_degrees >> k * n & 1):
                return False
            if p not in per_prime:
                bounds = exclusion_bounds(instance.phi, instance.a_parts[0], lead, p,
                                          polygon_at)
                per_prime[p] = None if bounds is None else (
                    bounds[0], bounds[1].numerator, bounds[1].denominator)
            if per_prime[p] is None:
                return False
            k_lo, num, den = per_prime[p]
            if k < k_lo or type(slope) is not Fraction or slope.numerator != num \
                    or slope.denominator != den or num * k >= den:
                return False
            open_degrees &= ~degree_range(k * n, (k + 1) * n)
        if open_degrees:
            return False
        abscissas = {i for polygon in polygons.values() for i, _ in polygon.vertices}
        cleared = cleared_from_definition(m, u, v, [m - i for i in abscissas])
        anchors = {i: cleared[m - i] for i in abscissas}
        for p, polygon in polygons.items():
            confirm_vertex_heights(polygon, p, anchors)
        return True
    except (ValueError, TypeError, AttributeError, ZeroDivisionError, ArithmeticError):
        return False


# ---------------------------------------------------------------------------
# serialization

_CERTIFICATE_TEXT = """\
{
  "m": %d,
  "u": %d,
  "v": %d,
  "phi": %s,
  "small_degree_prime": %d,
  "witnesses": %s,
  "conclusion": %s
}"""
_WITNESS_TEXT = """\
    {
      "k": %d,
      "p": %d,
      "slope": "%d/%d",
      "divisibility_range": [
        0,
        %d
      ]
    }"""


def certificate_to_json(cert: Certificate) -> str:
    """The certificate as JSON, in json.dumps(..., indent=2)'s layout.

    The object holds m, u, v, phi (format_poly's text), small_degree_prime,
    the witnesses (k, p, slope as "a/b", divisibility_range [0, m - k]) and
    the conclusion, in that order.  Each witness fills one record template,
    and the records are joined as the indent=2 layout joins list items;
    json.dumps runs only on the two strings, phi and the conclusion, so no
    indenting encoder runs.  The integer fields are ints, as certify and
    certificate_from_json make them.
    """
    m = cert.m
    records = ",\n".join([_WITNESS_TEXT % (w.k, w.p, w.slope.numerator, w.slope.denominator,
                                           m - w.k) for w in cert.witnesses])
    return _CERTIFICATE_TEXT % (m, cert.u, cert.v, json.dumps(format_poly(cert.phi)),
                                cert.small_degree_prime,
                                f"[\n{records}\n  ]" if records else "[]",
                                json.dumps(cert.conclusion))


def _typed(record: dict, key: str, kind: type):
    """record[key], which must be exactly of the given type (no bool for int)."""
    value = record[key]
    if type(value) is not kind:
        raise ValueError(f"malformed certificate: {key} must be {kind.__name__}, "
                         f"got {value!r}")
    return value


_SLOPE_TEXT = re.compile(r"(-?[0-9]+)/([0-9]+)")


def certificate_from_json(text: str) -> Certificate:
    """Parse a certificate; any malformed input raises ValueError.

    m, u, v, small_degree_prime, k and p must be JSON integers, phi, slope
    and conclusion strings (the slope written a/b), and divisibility_range
    a list of two integers.  Every record is type-checked; each distinct
    slope text is matched and made a Fraction once per call.
    """
    try:
        data = json.loads(text)
        m = _typed(data, "m", int)
        slopes: dict[str, Fraction] = {}  # slope text -> its Fraction
        witnesses = []
        for w in _typed(data, "witnesses", list):
            k, slope_text = _typed(w, "k", int), _typed(w, "slope", str)
            slope = slopes.get(slope_text)
            if slope is None:
                ratio = _SLOPE_TEXT.fullmatch(slope_text)
                if not ratio:
                    raise ValueError(f"malformed certificate: slope {slope_text!r} is not a/b")
                slope = slopes[slope_text] = Fraction(int(ratio[1]), int(ratio[2]))
            divisibility = _typed(w, "divisibility_range", list)
            if list(map(type, divisibility)) != [int, int]:
                raise ValueError("malformed certificate: divisibility_range must be "
                                 f"two integers, got {divisibility!r}")
            witnesses.append(ExclusionWitness(k=k, p=_typed(w, "p", int), slope=slope,
                                              divisibility_checked=divisibility == [0, m - k]))
        return Certificate(m=m, u=_typed(data, "u", int), v=_typed(data, "v", int),
                           phi=parse_poly(_typed(data, "phi", str)),
                           small_degree_prime=_typed(data, "small_degree_prime", int),
                           witnesses=tuple(witnesses),
                           conclusion=_typed(data, "conclusion", str))
    except (KeyError, TypeError, AttributeError, ZeroDivisionError, RecursionError) as exc:
        raise ValueError(f"malformed certificate: {type(exc).__name__}: {exc}") from exc
