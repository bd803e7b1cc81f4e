"""Exhaustive verification of the finite reference data behind the certifier.

Every constant here is machine-checked rather than trusted: the smooth-
window pair sets are recomputed by exhaustive scan, the exponential
equations by bounded search, the factorization rows by exact expansion,
and every tabulated witness prime by the certifier's own witness rule
(witness_range) on the certifier's own valuations (coefficient_valuations).
Search bounds are explicit fields of every result; nothing claims
completeness beyond its bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .certify import witness_range
from .laguerre import build_instance, coefficient_valuations
from .laguerre import laguerre_coefficients  # noqa: F401  (wrapped by bench/tracer.py)
from .polyring import Poly, parse_poly
from .primes import largest_prime_factor, sieve_primes
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

# equation (iii) is also quoted with the relations 2 + 1 = 3 and 8 + 1 = 9,
# which need exponent 0 on the middle base and fall outside the positive
# search space; they are recorded here, not searched for.
ZERO_EXPONENT_ENTRIES = {"iii": ("2^1 + 5^0 = 3^1", "2^3 + 5^0 = 3^2")}

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

@dataclass(frozen=True)
class PairSet:
    t: int
    pairs: frozenset
    m_bound: int


def _largest_prime_factors(size: int):
    """(is_prime, lpf) over 0..size as numpy arrays, lpf[n] the largest prime
    factor of n (1 for n < 2), in int32 whenever size fits.

    Every prime p, in ascending order, is written to all its multiples with
    one slice, so the last write to n is its largest prime factor.
    """
    import numpy as np

    dtype = np.int32 if size <= np.iinfo(np.int32).max else np.int64
    is_prime = np.ones(size + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(size) + 1):
        if is_prime[p]:
            is_prime[p * p::p] = False
    lpf = np.ones(size + 1, dtype=dtype)
    for p in np.flatnonzero(is_prime).tolist():
        lpf[p::p] = p
    return is_prime, lpf


def _open_window_lengths(pi, k_lo: int, k_hi: int):
    """The k in k_lo..k_hi with no prime in (k+4, 2k], from the prime counts
    pi[n] = #{primes <= n}: the only k whose windows (m+1)...(m+k) with
    m <= k+3 can have every prime factor <= k+4."""
    import numpy as np

    ks = np.arange(k_lo, k_hi + 1)
    return ks[pi[2 * ks] <= pi[ks + 4]]


@lru_cache(maxsize=4)
def _window_pair_scan(m_bound: int) -> dict[int, frozenset]:
    """All (m, k), m >= k >= 2, m <= m_bound, where the largest prime factor
    of (m+1)...(m+k) is k+t for some t in 1..4.  Exhaustive over every k.

    The sieve runs to size = 2*m_bound + 5, in int32 whenever size fits
    (int64 otherwise).  One running array holds, for every window start,
    the largest prime factor over the window; going from k-1 to k is one
    elementwise maximum with the largest prime factor of the integer that
    joins each window, so each k up to the cutoff costs O(m_bound) and
    every window of those lengths is examined.  Windows with k beyond the
    largest prime gap in range always contain a prime too large to allow
    t <= 4; that cutoff is recomputed from the sieve here, not assumed, and
    the residual corner (window hugging k) falls to one prime-counting
    comparison over every remaining k, with a direct scan of any k it
    leaves open.
    """
    import numpy as np

    if m_bound < 2:
        return {t: frozenset() for t in (1, 2, 3, 4)}
    size = 2 * m_bound + 5
    is_prime, lpf = _largest_prime_factors(size)
    max_gap = int(np.diff(np.flatnonzero(is_prime)).max())
    k_limit = min(m_bound, max_gap + 4)

    pairs: dict[int, set] = {1: set(), 2: set(), 3: set(), 4: set()}
    # after step k, W[s] is the largest prime factor of s...(s+k-1)
    stop = m_bound + 2
    W = lpf[:stop].copy()
    for k in range(2, k_limit + 1):
        np.maximum(W, lpf[k - 1: stop + k - 1], out=W)
        seg = W[k + 1:]  # the windows m+1..m+k for m = k..m_bound
        hits = np.flatnonzero((seg > k) & (seg <= k + 4))
        for j, top in zip(hits.tolist(), seg[hits].tolist()):
            pairs[top - k].add((k + j, k))

    # k > k_limit: any window starting at m >= k+4 spans more than the
    # largest prime gap, so it contains a prime above the smoothness bound;
    # windows hugging k (m <= k+3) contain every prime in (k+4, 2k].
    pi = np.cumsum(is_prime, dtype=lpf.dtype)
    for k in _open_window_lengths(pi, k_limit + 1, m_bound).tolist():  # pragma: no cover
        for m in range(k, min(k + 4, m_bound + 1)):
            wmax = int(lpf[m + 1: m + k + 1].max())
            if 1 <= wmax - k <= 4:
                pairs[wmax - k].add((m, k))
    return {t: frozenset(s) for t, s in pairs.items()}


def product_lpf_pairs(t: int, m_bound: int) -> PairSet:
    """Pairs (m, k) with m >= k >= 2, m <= m_bound, whose window product
    (m+1)...(m+k) has largest prime factor exactly k+t."""
    if not 1 <= t <= 4:
        raise ValueError("t must be in 1..4")
    if m_bound < 2:
        raise ValueError("m_bound must be at least 2")
    return PairSet(t=t, pairs=_window_pair_scan(m_bound)[t], m_bound=m_bound)


# ---------------------------------------------------------------------------
# exponential equations

@dataclass(frozen=True)
class EquationSolutions:
    equation_id: str
    solutions: frozenset
    exponent_bound: int
    out_of_search_space: tuple[str, ...] = ()


def solve_power_equation(equation_id: str, exponent_bound: int) -> EquationSolutions:
    """Exhaustive positive-exponent search of one of the six equations."""
    if exponent_bound < 1:
        raise ValueError("exponent bound must be positive")
    if exponent_bound >= 2**63:
        raise OverflowError("exponent bound must be below 2**63")
    B = exponent_bound
    found = set()
    if equation_id == "i":
        for a in (2, 3, 5):
            for b in (2, 3, 5):
                if a == b:
                    continue
                powers_b = {b ** s: s for s in range(1, B + 1)}
                for r in range(1, B + 1):
                    s = powers_b.get(a ** r - 1)
                    if s is not None:
                        found.add((a, r, b, s))
    elif equation_id in ("ii", "iii"):
        x, y, z = (2, 3, 5) if equation_id == "ii" else (2, 5, 3)
        powers_z = {z ** t: t for t in range(1, B + 1)}
        top = max(powers_z)
        for r in range(1, B + 1):
            for s in range(1, B + 1):
                val = x ** r + y ** s
                t = powers_z.get(val)
                if t is not None:
                    found.add((r, s, t))
                if val > top:
                    break
    elif equation_id in ("iv", "v", "vi"):
        x, y, z = {"iv": (2, 3, 5), "v": (3, 5, 2), "vi": (2, 5, 3)}[equation_id]
        powers_z = {z ** t: t for t in range(1, B + 1)}
        top = max(powers_z)
        for r in range(1, B + 1):
            for s in range(1, B + 1):
                val = x ** r * y ** s
                for sign in (1, -1):
                    t = powers_z.get(val - sign)
                    if t is not None:
                        found.add((r, s, t, sign))
                if val - 1 > top:
                    break
    else:
        raise ValueError(f"unknown equation id {equation_id!r}")
    return EquationSolutions(equation_id=equation_id, solutions=frozenset(found),
                             exponent_bound=B,
                             out_of_search_space=ZERO_EXPONENT_ENTRIES.get(equation_id, ()))


# ---------------------------------------------------------------------------
# witness checks shared by several verifiers

def k_witness_valid(m: int, u: int, k: int, p: int) -> tuple[bool, Fraction]:
    """Divisibility up to m-k plus rightmost slope below 1/k, monic model at u."""
    k_lo, k_hi, slope = witness_range(coefficient_valuations(m, u, p) + (0,))
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


def verify_exceptional_pair_table(report: Report) -> None:
    """Each listed (m, k) maps into the pair sets, and nothing is missing."""
    scan = _window_pair_scan(100)
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
        got = product_lpf_pairs(t, m_bound).pairs
        expected = frozenset(pair for pair in EXPECTED_PAIR_SETS[t] if pair[0] <= m_bound)
        report.add(f"pairs-t{t}", got == expected, f"{len(got)} pairs up to {m_bound}")


def verify_equations(report: Report, exponent_bound: int) -> None:
    """Each equation against its expected solutions with every exponent at
    most exponent_bound: r and s of (a, r, b, s) in (i), the first three
    entries elsewhere."""
    for eq_id, solutions in EXPECTED_EQUATION_SOLUTIONS.items():
        sol = solve_power_equation(eq_id, exponent_bound)
        expected = frozenset(e for e in solutions
                             if max(e[1::2] if eq_id == "i" else e[:3]) <= exponent_bound)
        report.add(f"equation-{eq_id}", sol.solutions == expected,
                   f"{len(sol.solutions)} solutions, bound {exponent_bound}")
        for entry in sol.out_of_search_space:
            report.add(f"equation-{eq_id}-flagged", True,
                       f"out of positive search space: {entry}")


def k1_no_good_prime_set(u: int, m_bound: int) -> frozenset:
    """m in [2, m_bound] such that no prime >= u+2 divides m(m+u)."""
    out = set()
    for m in range(2, m_bound + 1):
        lpf = max(largest_prime_factor(m),
                  largest_prime_factor(m + u) if m + u >= 2 else 1)
        if lpf < u + 2:
            out.add(m)
    return frozenset(out)


def verify_k1_subcases(u: int, m_bound: int) -> Report:
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
    report = Report()
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
    return report


def verify_nonconstant_leading_counterexample() -> Report:
    """A nonconstant leading multiplier breaks the conclusion: with base
    x^2 - x + 5 and every multiplier x - 3, the assembled two-level
    polynomial has 3 as a root for each integer parameter 0..4."""
    report = Report()
    phi = parse_poly("x^2 - x + 5")
    a = parse_poly("x - 3")
    for alpha in range(5):
        poly = (a * phi * phi + 2 * (2 + alpha) * a * phi
                + (2 + alpha) * (1 + alpha) * a) * Fraction(1, 2)
        report.add(f"root3-alpha{alpha}", poly(3) == 0, "vanishes at x = 3")
        report.add(f"root3-alpha{alpha}-control", poly(2) != 0,
                   "does not vanish at x = 2")
    return report


def _k1_subcases(report: Report, subcase_bound: int, **_) -> None:
    for u in range(5):
        report.checks.extend(verify_k1_subcases(u, subcase_bound).checks)


# The report's sections in order, each as (its --only values, run), where
# run(report, pair_bound=, exponent_bound=, subcase_bound=) appends the
# section's checks.  Runs look their verifiers up in this module when they
# are called, so a wrapped module attribute (bench/tracer.py) sees the call.
# The four pair sets are one section, one verify_pair_sets call over one
# shared scan; --only s<t> keeps its row.
SECTIONS = (
    (("factors",), lambda report, **_: verify_factor_rows(report)),
    (("witness",), lambda report, **_: verify_witness_prime_rows(report)),
    (("exceptional",), lambda report, **_: verify_exceptional_pair_table(report)),
    (("s1", "s2", "s3", "s4"),
     lambda report, pair_bound, **_: verify_pair_sets(report, pair_bound)),
    (("equations",),
     lambda report, exponent_bound, **_: verify_equations(report, exponent_bound)),
    (("subcases",), _k1_subcases),
    (("root3",), lambda report, **_: report.checks.extend(
        verify_nonconstant_leading_counterexample().checks)),
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
