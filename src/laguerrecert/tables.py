"""Exhaustive verification of the finite reference data behind the certifier.

Every constant here is machine-checked rather than trusted: the smooth-
window pair sets are recomputed by exhaustive scan, the exponential
equations by bounded search, the factorization rows by exact expansion,
and every tabulated witness prime by the certifier's own witness rule
(witness_range) on the certifier's own valuations (coefficient_valuations).
Search bounds are arguments, and the pair-set and equation rows name theirs
in their detail; nothing claims completeness beyond its bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import permutations

from .certify import witness_range
from .laguerre import build_instance, coefficient_valuations
from .laguerre import laguerre_coefficients  # noqa: F401  (wrapped by bench/tracer.py)
from .polyring import Poly, parse_poly
from .primes import largest_prime_factor  # noqa: F401  (module attribute wrapped by bench/tracer.py)
from .primes import composite_flags, sieve_primes
from .primes import vp_rat  # noqa: F401  (module attribute wrapped by bench/tracer.py)

# ---------------------------------------------------------------------------
# reference constants

EXPECTED_PAIR_SETS = {
    1: frozenset({(2, 2), (7, 2)}),
    2: frozenset({(3, 3), (7, 3), (5, 5)}),
    3: frozenset({(3, 2), (4, 2), (8, 2), (14, 2), (23, 2), (79, 2),
                  (4, 4), (5, 4), (6, 4)}),
    4: frozenset({(4, 3), (5, 3), (6, 3), (13, 3), (47, 3)}),
}

# positive-exponent solutions of the six exponential equations
EXPECTED_EQUATION_SOLUTIONS = {
    "i": frozenset({(3, 1, 2, 1), (2, 2, 3, 1), (5, 1, 2, 2), (3, 2, 2, 3)}),
    "ii": frozenset({(1, 1, 1), (4, 2, 2)}),
    "iii": frozenset({(1, 2, 3), (2, 1, 2)}),
    "iv": frozenset({(1, 1, 1, 1), (3, 1, 2, -1)}),
    "v": frozenset({(1, 1, 4, -1)}),
    "vi": frozenset({(1, 1, 2, 1), (4, 1, 4, -1)}),
}

# bases (x, y, z) of (ii), (iii) x^r + y^s = z^t and (iv)-(vi) x^r y^s - sign
# = z^t; (i) is a^r - 1 = b^s for every two distinct bases a, b in {2, 3, 5}
EQUATION_BASES = {"ii": (2, 3, 5), "iii": (2, 5, 3),
                  "iv": (2, 3, 5), "v": (3, 5, 2), "vi": (2, 5, 3)}

# equation (iii) is also quoted with the relations 2 + 1 = 3 and 8 + 1 = 9,
# which need exponent 0 on the middle base and fall outside the positive
# search space; they are recorded here as (r, s, t), not searched for.
ZERO_EXPONENT_ENTRIES = {"iii": ((1, 0, 1), (3, 0, 2))}

# reducible two-level families over x^2 - x + 17 that break exactly one
# hypothesis; columns: parameter, lead, mid, low multipliers, then the
# factored form  scale * prod(c0 + c1*y)  evaluated at y = base.
FACTOR_ROWS_EVEN_LOW = (
    (1, 3, 1, -4, Fraction(3, 2), ((4, 1), (-2, 1))),
    (2, 1, 1, -4, Fraction(1, 2), ((-4, 1), (12, 1))),
    (3, 1, 1, -10, Fraction(1, 2), ((-10, 1), (20, 1))),
    (4, 3, 1, -6, Fraction(3, 2), ((10, 1), (-6, 1))),
)
FACTOR_ROWS_EVEN_LEAD = (
    (1, 6, 2, 1, Fraction(3), ((1, 1), (1, 1))),
    (2, 4, 1, -1, Fraction(2), ((3, 1), (-1, 1))),
    (3, 2, 1, -5, Fraction(1), ((10, 1), (-5, 1))),
    (4, 18, 1, -1, Fraction(1), ((-1, 1), (15, 9))),
)

# (m, k) pairs, per integer parameter u, where the consecutive-product
# route cannot supply a witness prime >= k+u+1
EXCEPTIONAL_PAIR_TABLE = {
    1: frozenset({(8, 2)}),
    2: frozenset({(7, 2), (8, 3)}),
    3: frozenset({(6, 2), (7, 3), (7, 2), (13, 2), (22, 2), (78, 2)}),
    4: frozenset({(5, 2), (6, 2), (12, 2), (21, 2), (77, 2),
                  (6, 3), (12, 3), (46, 3)}),
}

# witness primes for the exceptional pairs; None marks the two genuinely
# prime-free rows.  Row (4, 2, 5) is quoted elsewhere with 11, but 11
# divides none of the coefficients; 5 is the unique prime <= m+u that
# passes both witness checks, so 5 is what this table carries.
WITNESS_PRIME_TABLE = (
    (1, 2, 8, 7), (2, 2, 7, 7), (2, 3, 8, 7),
    (3, 2, 6, 5), (3, 3, 7, 7), (3, 2, 7, 7),
    (3, 2, 13, 13), (3, 2, 22, 7), (3, 2, 78, 7),
    (4, 2, 5, 5), (4, 2, 6, None), (4, 2, 12, 11),
    (4, 2, 21, 7), (4, 2, 77, 7), (4, 3, 6, None),
    (4, 3, 12, 11), (4, 3, 46, 23),
)
SUPERSEDED_WITNESSES = {(4, 2, 5): 11}

# k = 1: m values (per u) with no prime >= u+2 dividing m(m+u), as quoted.
# The quoted u=4 list omits 6 and 50, both of which also qualify: 6 pairs
# with parameter 4 to an uncertifiable instance anyway, and 50 is covered
# by a fallback prime below u+2.  m=2 at u=2 is likewise quoted only in
# prose (its pair (2, 2) is uncertifiable).
K1_QUOTED_SETS = {
    0: frozenset(),
    1: frozenset(),
    2: frozenset({4, 6, 16}),
    3: frozenset({3, 6, 9, 24}),
    4: frozenset({2, 4, 5, 8, 12, 16, 20, 32, 36, 60, 96, 320}),
}
K1_KNOWN_OMISSIONS = {2: frozenset({2}), 4: frozenset({6, 50})}
# tabulated k = 1 witness primes, per u and m, for the quoted m values
K1_SUBSTITUTES = {
    2: {4: 2, 16: 2, 6: 3},
    3: {3: 3, 6: 3, 9: 3, 24: 3},
    4: {2: 3, 8: 3, 12: 3, 32: 3, 36: 3, 96: 3, 16: 2, 5: 5, 20: 5, 60: 5, 320: 5},
}
# (u, m) with no valid k=1 witness prime at all
K1_UNCOVERABLE = frozenset({(2, 2), (4, 4)})

STANDARD_BASE = parse_poly("x^2 - x + 17")


# ---------------------------------------------------------------------------
# report plumbing

@dataclass(frozen=True)
class Check:
    check_id: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        suffix = f": {self.detail}" if self.detail else ""
        return f"{status} {self.check_id}{suffix}"


@dataclass
class Report:
    checks: list[Check] = field(default_factory=list)

    def add(self, check_id: str, passed: bool, detail: str = "") -> None:
        self.checks.append(Check(check_id, bool(passed), detail))

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> list[str]:
        return [c.line() for c in self.checks]

    def failures(self) -> list[Check]:
        return [c for c in self.checks if not c.passed]


# ---------------------------------------------------------------------------
# smooth-window pair sets

def _smooth_numbers(primes, bound: int) -> dict[int, int]:
    """{n: largest prime factor of n} (1 for n = 1) over every n <= bound
    with no prime factor outside primes, given ascending; each n is written
    once, when its largest prime factor is multiplied in."""
    smooth = {1: 1}
    for p in primes:
        for n in list(smooth):
            while (n := n * p) <= bound:
                smooth[n] = p
    return smooth


def _gap_length_limit(composite: bytearray, m_bound: int) -> int:
    """k_limit = min(m_bound, max_gap + 4), max_gap the largest gap between
    consecutive primes, as composite marks them with 0, whose lower prime is
    at most m_bound + 4: the gaps that the cutoff argument of
    _window_pair_scan reads.  ArithmeticError unless a prime above
    m_bound + 4 closes the last of them.  The same at any longer flags.

    One left-to-right pass up to that prime: each find asks for a composite
    run one longer than the longest so far, from the prime that closed that
    one, so what it finds starts right after a prime and a prime closes it."""
    end = composite.find(0, m_bound + 5) + 1
    if not end:
        raise ArithmeticError(f"the sieve has no prime above {m_bound + 4}")
    run, start = 0, composite.find(0)
    while ((i := composite.find(b"\x01" * (run + 1), start, end)) >= 0
           and (start := composite.find(0, i)) >= 0):
        run = start - i
    return min(m_bound, run + 5)


def _smooth_largest_prime_factors(composite: bytearray, m_bound: int,
                                  k_limit: int) -> dict[int, int]:
    """{n: largest prime factor of n} (1 for n = 1) over the n that a hit
    window of _window_pair_scan can hold: every cap-smooth n <= 5**5 and
    <= m_bound + k_limit, cap = k_limit + 4, and every 7-smooth n <= m_bound + 4.

    The 5**5 is checked here, in integers, for every 5 <= k <= k_limit: a
    window of k (k+4)-smooth integers ending at n has n**(k - pi(k+4)) <= k**k
    (see _window_pair_scan), and (5**5 + 1)**(k - pi(k+4)) > k**k rules out
    every n > 5**5.  ArithmeticError if it does not, first at k = 747, and
    if composite stops below an n that the table reads."""
    n_max = 5**5
    size = min(n_max, m_bound + k_limit)
    if len(composite) <= size:
        raise ArithmeticError(f"the sieve stops below {size}")
    for k in range(5, k_limit + 1):
        e = k - composite.count(0, 0, k + 5)  # k - pi(k+4)
        if e < 1 or (n_max + 1) ** e <= k ** k:
            raise ArithmeticError(f"the binomial bound leaves n > {n_max} open at k = {k}")
    lpf = [1] * (size + 1)
    for p in range(2, size + 1):
        if not composite[p]:
            lpf[p::p] = [p] * (size // p)
    return ({n: lpf[n] for n in range(1, size + 1) if lpf[n] <= k_limit + 4}
            | _smooth_numbers((2, 3, 5, 7), m_bound + 4))


@lru_cache(maxsize=4)
def _window_pair_scan(m_bound: int) -> dict[int, frozenset]:
    """All (m, k), m >= k >= 2, m <= m_bound, where the largest prime factor
    of (m+1)...(m+k) is k+t for some t in 1..4.  Exhaustive over every k.

    An Eratosthenes sieve (primes.composite_flags) to x + max(x // 5, 25),
    x = m_bound + 5, gives k_limit = max_gap + 4, max_gap the largest gap
    from a prime <= m_bound + 4, and a table of largest prime factors
    (_smooth_largest_prime_factors), which checks that the sieve covers it.
    Nagura's prime in (x, 6x/5] for x >= 25 (Proc. Japan Acad. 28, 1952)
    only sizes the sieve; every check below is in integers.  Each window
    start s = m+1 in the table is read for k = 2, 3, ... up to min(k_limit, m)
    and left at the first member missing from the table.
    Three facts make that exhaustive, since a hit window is (k+4)-smooth:

    - No k > k_limit hits.  That rests on a sieved prime above m_bound + 4,
      checked by _gap_length_limit.  Then for every n <= m_bound + 4 the
      first prime above n is sieved and at most n + max_gap.  A window with
      k > k_limit and m >= k+4 holds the first prime above m, which is above
      k+4; one hugging k (m <= k+3) holds every prime in (k+4, 2k], and the
      first prime above k+4 is at most k + 4 + max_gap = k + k_limit < 2k.
    - For k <= 4 every member of a hit window is 8-smooth, so 7-smooth, and
      at most m_bound + 4: the table holds them all.
    - For 5 <= k <= k_limit, let n = m + k.  C(n, k) divides the window's
      product, so its prime factors are at most k+4, and p**v_p(C(n, k)) <= n
      by Kummer's theorem (J. reine angew. Math. 44, 1852).  With
      C(n, k) >= (n/k)**k that gives n**(k - pi(k+4)) <= k**k, which at k = 5
      is n <= 5**5; the table checks n <= 5**5 exactly at every k up to
      k_limit and holds every cap-smooth n <= 5**5, cap = k_limit + 4.
    Outside the table no window hits, so a missing member ends the start.
    """
    pairs: dict[int, set] = {1: set(), 2: set(), 3: set(), 4: set()}
    if m_bound >= 2:
        x = m_bound + 5
        composite = composite_flags(x + max(x // 5, 25))
        k_limit = _gap_length_limit(composite, m_bound)
        lpf = _smooth_largest_prime_factors(composite, m_bound, k_limit)
        for s, top in lpf.items():
            if s > m_bound + 1:
                continue
            for k in range(2, min(k_limit, s - 1) + 1):
                if (n := s + k - 1) not in lpf:
                    break
                top = max(top, lpf[n])
                if k < top <= k + 4:
                    pairs[top - k].add((s - 1, k))
    return {t: frozenset(s) for t, s in pairs.items()}


def product_lpf_pairs(t: int, m_bound: int) -> frozenset:
    """Pairs (m, k) with m >= k >= 2, m <= m_bound, whose window product
    (m+1)...(m+k) has largest prime factor exactly k+t."""
    if not 1 <= t <= 4:
        raise ValueError("t must be in 1..4")
    if m_bound < 2:
        raise ValueError("m_bound must be at least 2")
    return _window_pair_scan(m_bound)[t]


# ---------------------------------------------------------------------------
# exponential equations

def _divide_out(n: int, divisors) -> tuple[list[int], int]:
    """Each d of divisors divided out of n >= 1 in turn: its exponents and
    what is left."""
    exponents = []
    for d in divisors:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        exponents.append(e)
    return exponents, n


def _neighbour_products(z: int, sign: int, bases, bound: int):
    """(exponents, t) for every t in 1..bound where z^t + sign is the
    product of bases, each to its exponent in 1..bound: the bases divided
    out of z^t + sign, which by unique factorization leaves exactly 1."""
    zt = 1
    for t in range(1, bound + 1):
        zt *= z
        exponents, rest = _divide_out(zt + sign, bases)
        if rest == 1 and all(1 <= e <= bound for e in exponents):
            yield exponents, t


def solve_power_equation(equation_id: str, exponent_bound: int) -> frozenset:
    """Exhaustive positive-exponent search of one of the six equations.

    (i) a^r - 1 = b^s and (iv)-(vi) ask whether a prime power's neighbour,
    b^s + 1 or z^t + sign, is a product of powers of the other bases, which
    Lehmer's method settles for every exponent (Illinois J. Math. 8, 1964);
    _neighbour_products answers it up to exponent B.  The sums (ii), (iii)
    look x^r + y^s up among the z^t <= z^B."""
    if exponent_bound < 1:
        raise ValueError("exponent bound must be positive")
    if exponent_bound >= 2**63:
        raise OverflowError("exponent bound must be below 2**63")
    B = exponent_bound
    found = set()
    if equation_id == "i":
        for a, b in permutations((2, 3, 5), 2):
            found.update((a, r, b, s) for (r,), s in _neighbour_products(b, 1, (a,), B))
    elif equation_id in ("ii", "iii"):
        x, y, z = EQUATION_BASES[equation_id]
        powers_z = {z ** t: t for t in range(1, B + 1)}
        top = max(powers_z)
        powers_y = [y ** s for s in range(1, B + 1)]
        xr = 1
        for r in range(1, B + 1):
            xr *= x
            if xr >= top:  # x**r + y**s > top from here on
                break
            for s, ys in enumerate(powers_y, 1):
                val = xr + ys
                t = powers_z.get(val)
                if t is not None:
                    found.add((r, s, t))
                if val > top:
                    break
    elif equation_id in ("iv", "v", "vi"):
        x, y, z = EQUATION_BASES[equation_id]
        for sign in (1, -1):
            found.update((r, s, t, sign)
                         for (r, s), t in _neighbour_products(z, sign, (x, y), B))
    else:
        raise ValueError(f"unknown equation id {equation_id!r}")
    return frozenset(found)


# ---------------------------------------------------------------------------
# witness checks shared by several verifiers

def k_witness_valid(m: int, u: int, k: int, p: int) -> tuple[bool, Fraction]:
    """Divisibility up to m-k plus rightmost slope below 1/k, monic model at u."""
    k_lo, k_hi, slope = witness_range(coefficient_valuations(m, u, p) + ((m, 0),))
    return k_lo <= k <= k_hi, slope


def witness_primes(m: int, u: int, k: int) -> list[int]:
    """Every prime <= m+u passing both witness checks, ascending."""
    return [p for p in sieve_primes(m + u) if k_witness_valid(m, u, k, p)[0]]


# ---------------------------------------------------------------------------
# table verifiers

def _factored_form(phi: Poly, scale: Fraction, factors) -> Poly:
    acc = Poly.const(scale)
    for c0, c1 in factors:
        acc = acc * (c1 * phi + c0)
    return acc


def verify_factor_rows(report: Report) -> None:
    phi = STANDARD_BASE
    for label, rows, breaks in (
        ("even-low", FACTOR_ROWS_EVEN_LOW, "low"),
        ("even-lead", FACTOR_ROWS_EVEN_LEAD, "lead"),
    ):
        for alpha, a2, a1, a0, scale, factors in rows:
            inst = build_instance(2, alpha, a2, [Poly.const(a0), Poly.const(a1)],
                                  phi, relaxed=True)
            got = inst.laguerre_polynomial
            expected = _factored_form(phi, scale, factors)
            report.add(f"factor-{label}-alpha{alpha}", got == expected,
                       "expansion reproduces the factored form")
            broken = a0 % 2 == 0 if breaks == "low" else a2 % 2 == 0
            flagged = any("content" in v and "divisible by 2" in v
                          for v in inst.violations)
            report.add(f"factor-{label}-alpha{alpha}-hypothesis",
                       broken and flagged,
                       f"{'a_0' if breaks == 'low' else 'a_m'} even, content check trips")


def verify_witness_prime_rows(report: Report) -> None:
    for u, k, m, p in WITNESS_PRIME_TABLE:
        row_id = f"witness-u{u}-k{k}-m{m}"
        if p is None:
            free = witness_primes(m, u, k)
            report.add(row_id, not free, "confirmed prime-free")
            continue
        ok, slope = k_witness_valid(m, u, k, p)
        report.add(row_id, ok, f"p={p}, slope={slope}")
        old = SUPERSEDED_WITNESSES.get((u, k, m))
        if old is not None:
            bad, _ = k_witness_valid(m, u, k, old)
            report.add(f"{row_id}-erratum", not bad,
                       f"recorded value {old} fails the divisibility check; "
                       f"{p} is the working witness")


def verify_exceptional_pair_table(report: Report, pair_bound: int) -> None:
    """Each listed (m, k) maps into the pair sets, and nothing is missing
    from them up to max(pair_bound, 100): the scan the pair sets share."""
    if pair_bound < 2:
        raise ValueError("m_bound must be at least 2")
    scan = _window_pair_scan(max(pair_bound, 100))
    for u, listed in EXCEPTIONAL_PAIR_TABLE.items():
        union = frozenset().union(*(scan[t] for t in range(1, u + 1)))
        derived = set()
        for (mm, k) in union:
            m = mm + k - u
            if k >= 2 and 2 * k <= m:
                derived.add((m, k))
        report.add(f"pairs-u{u}-match", derived == set(listed),
                   f"{len(listed)} pairs derived and listed")
        for (m, k) in sorted(listed):
            report.add(f"pairs-u{u}-m{m}-k{k}-member",
                       (m - k + u, k) in union,
                       f"({m - k + u}, {k}) lies in the first {u} pair sets")


def verify_pair_sets(report: Report, m_bound: int) -> None:
    """Each pair set against the expected pairs (m, k) with m <= m_bound."""
    for t in (1, 2, 3, 4):
        got = product_lpf_pairs(t, m_bound)
        expected = frozenset(pair for pair in EXPECTED_PAIR_SETS[t] if pair[0] <= m_bound)
        report.add(f"pairs-t{t}", got == expected, f"{len(got)} pairs up to {m_bound}")


def verify_equations(report: Report, exponent_bound: int) -> None:
    """Each equation against its expected solutions with every exponent at
    most exponent_bound: r and s of (a, r, b, s) in (i), the first three
    entries elsewhere."""
    for eq_id, solutions in EXPECTED_EQUATION_SOLUTIONS.items():
        got = solve_power_equation(eq_id, exponent_bound)
        expected = frozenset(e for e in solutions
                             if max(e[1::2] if eq_id == "i" else e[:3]) <= exponent_bound)
        report.add(f"equation-{eq_id}", got == expected,
                   f"{len(got)} solutions, bound {exponent_bound}")
        for r, s, t in ZERO_EXPONENT_ENTRIES.get(eq_id, ()):
            x, y, z = EQUATION_BASES[eq_id]
            report.add(f"equation-{eq_id}-flagged", x ** r + y ** s == z ** t,
                       f"out of positive search space: {x}^{r} + {y}^{s} = {z}^{t}")


def k1_no_good_prime_set(u: int, m_bound: int) -> frozenset:
    """m in [2, m_bound] such that no prime >= u+2 divides m(m+u), that is,
    m and m+u are both (u+1)-smooth: read off the products of the primes <= u+1."""
    smooth = _smooth_numbers(sieve_primes(u + 1), m_bound + u)
    return frozenset(m for m in smooth if 2 <= m <= m_bound and m + u in smooth)


def verify_k1_subcases(report: Report, u: int, m_bound: int) -> None:
    """Confirm the k = 1 branch: for every m either a prime >= u+2 divides
    m(m+u), or m is in the quoted exceptional set (plus the recorded
    omissions), and every exceptional m has a validated substitute prime,
    a validated fallback prime, or is a known uncoverable pair."""
    if not 0 <= u <= 4:
        raise ValueError("u must be in 0..4")
    if m_bound < 2:
        raise ValueError("m_bound must be at least 2")
    if m_bound >= 2**63:
        raise OverflowError("m_bound must be below 2**63")
    computed = k1_no_good_prime_set(u, m_bound)
    quoted = frozenset(m for m in K1_QUOTED_SETS[u] if m <= m_bound)
    omissions = frozenset(m for m in K1_KNOWN_OMISSIONS.get(u, frozenset())
                          if m <= m_bound)
    report.add(f"k1-u{u}-set", computed == quoted | omissions,
               f"computed {sorted(computed)} = quoted + omissions {sorted(omissions)}")
    substitutes = K1_SUBSTITUTES.get(u, {})
    for m in sorted(computed):
        tag = f"k1-u{u}-m{m}"
        if (u, m) in K1_UNCOVERABLE:
            report.add(f"{tag}-uncoverable", not witness_primes(m, u, 1),
                       "no prime passes the k=1 checks")
            continue
        p = substitutes.get(m)
        if p is not None:
            ok, slope = k_witness_valid(m, u, 1, p)
            report.add(f"{tag}-substitute", ok, f"p={p}, slope={slope} < 1")
        else:
            fallback = witness_primes(m, u, 1)
            report.add(f"{tag}-fallback", bool(fallback),
                       f"fallback primes {fallback}")


def verify_nonconstant_leading_counterexample(report: Report) -> None:
    """A nonconstant leading multiplier breaks the conclusion: with base
    x^2 - x + 5 and every multiplier x - 3, the assembled two-level
    polynomial has 3 as a root for each integer parameter 0..4."""
    phi = parse_poly("x^2 - x + 5")
    a = parse_poly("x - 3")
    for alpha in range(5):
        poly = (a * phi * phi + 2 * (2 + alpha) * a * phi
                + (2 + alpha) * (1 + alpha) * a) * Fraction(1, 2)
        report.add(f"root3-alpha{alpha}", poly(3) == 0, "vanishes at x = 3")
        report.add(f"root3-alpha{alpha}-control", poly(2) != 0,
                   "does not vanish at x = 2")


def _k1_subcases(report: Report, subcase_bound: int, **_) -> None:
    for u in range(5):
        verify_k1_subcases(report, u, subcase_bound)


# The report's sections in order, each as (its --only values, run), where
# run(report, pair_bound=, exponent_bound=, subcase_bound=) appends the
# section's checks, as every verifier above appends to the report it is
# given.  Runs look their verifiers up in this module when they are called,
# so a wrapped module attribute (bench/tracer.py) sees the call.
# The four pair sets are one section, one verify_pair_sets call; --only s<t>
# keeps its row.  The exceptional table reads their scan, which is cached.
SECTIONS = (
    (("factors",), lambda report, **_: verify_factor_rows(report)),
    (("witness",), lambda report, **_: verify_witness_prime_rows(report)),
    (("exceptional",), lambda report, pair_bound, **_:
     verify_exceptional_pair_table(report, pair_bound)),
    (("s1", "s2", "s3", "s4"),
     lambda report, pair_bound, **_: verify_pair_sets(report, pair_bound)),
    (("equations",),
     lambda report, exponent_bound, **_: verify_equations(report, exponent_bound)),
    (("subcases",), _k1_subcases),
    (("root3",), lambda report, **_: verify_nonconstant_leading_counterexample(report)),
)
SECTION_NAMES = tuple(name for names, _ in SECTIONS for name in names)

# the default search bounds of the pair sets, the power equations and the
# k = 1 subcases
PAIR_BOUND, EXPONENT_BOUND, SUBCASE_BOUND = 10**5, 60, 1000


def verify_reference_tables(pair_bound: int = PAIR_BOUND,
                            exponent_bound: int = EXPONENT_BOUND,
                            subcase_bound: int = SUBCASE_BOUND) -> Report:
    """Run every section in order and merge the outcomes."""
    report = Report()
    for _, run in SECTIONS:
        run(report, pair_bound=pair_bound, exponent_bound=exponent_bound,
            subcase_bound=subcase_bound)
    return report


def verify_section(name: str, pair_bound: int, exponent_bound: int,
                   subcase_bound: int) -> Report:
    """The checks of the section that answers to ``name``, one of
    SECTION_NAMES; a pair-set name s<t> keeps only the row pairs-t<t>."""
    names, run = next(section for section in SECTIONS if name in section[0])
    report = Report()
    run(report, pair_bound=pair_bound, exponent_bound=exponent_bound,
        subcase_bound=subcase_bound)
    if len(names) > 1:
        report.checks = [c for c in report.checks if c.check_id == f"pairs-t{name[1:]}"]
    return report
