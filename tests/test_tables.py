import math
import random
import tracemalloc

import numpy as np
import pytest

from laguerrecert import tables
from laguerrecert.primes import composite_flags, largest_prime_factor
from laguerrecert.tables import (EXPECTED_EQUATION_SOLUTIONS, EXPECTED_PAIR_SETS,
                                 EXCEPTIONAL_PAIR_TABLE, K1_QUOTED_SETS, Report,
                                 ZERO_EXPONENT_ENTRIES, _divide_out, _gap_length_limit,
                                 _smooth_largest_prime_factors, _window_pair_scan,
                                 k1_no_good_prime_set, k_witness_valid, product_lpf_pairs,
                                 solve_power_equation, verify_exceptional_pair_table,
                                 verify_factor_rows, verify_k1_subcases,
                                 verify_equations, verify_nonconstant_leading_counterexample,
                                 verify_reference_tables, verify_witness_prime_rows,
                                 witness_primes)


def report_of(fn, *args):
    report = Report()
    fn(report, *args)
    return report


# -- smooth-window pair sets -----------------------------------------------------

def test_pair_sets_at_ten_thousand():
    # nothing new appears between the known pairs and 10^4, for any k
    for t in (1, 2, 3, 4):
        assert product_lpf_pairs(t, 10**4) == EXPECTED_PAIR_SETS[t]


def test_pair_sets_at_bench_bound():
    # the bound of `tables --st-bound 1000000`
    for t in (1, 2, 3, 4):
        assert product_lpf_pairs(t, 10**6) == EXPECTED_PAIR_SETS[t]


def product_lpf(m, k):
    """Largest prime factor of (m+1)(m+2)...(m+k), by factoring each
    integer; requires m >= k >= 2."""
    if k < 2 or m < k:
        raise ValueError("need m >= k >= 2")
    return max(largest_prime_factor(m + i) for i in range(1, k + 1))


def test_product_lpf_examples():
    assert product_lpf(2, 2) == 3
    assert product_lpf(5, 5) == 7
    assert product_lpf(4, 3) == 7


def test_product_lpf_rejects_bad_ranges():
    with pytest.raises(ValueError):
        product_lpf(1, 2)
    with pytest.raises(ValueError):
        product_lpf(5, 1)


def test_product_lpf_lower_bound_sampled(rng):
    # the product of k consecutive integers above k has a prime factor > k
    for _ in range(200):
        k = rng.randrange(2, 12)
        m = rng.randrange(k, 10_000)
        assert product_lpf(m, k) >= k + 1


def _lpf_by_trial_division(n):
    top, d = 1, 2
    while d * d <= n:
        while n % d == 0:
            top, n = d, n // d
        d += 1
    return max(top, n)


def _composite_flags(lpf):
    return bytearray(not (n >= 2 and top == n) for n, top in enumerate(lpf))


def test_smooth_largest_prime_factors_match_trial_division():
    # the table holds exactly the cap-smooth n <= min(5**5, m_bound + k_limit),
    # cap = k_limit + 4, and the 7-smooth n <= m_bound + 4, each with its
    # largest prime factor; 3100 puts 5**5 in the first part only, 10**4
    # puts 7-smooth n above 5**5 in the second, and k_limit + 4 = 11 or 13
    # is a prime that the cap must keep
    lpf = [_lpf_by_trial_division(n) for n in range(2 * 10**4 + 6)]
    for m_bound, k_limit in ((2, 2), (3, 3), (10, 7), (100, 9), (100, 18),
                             (3100, 13), (3100, 38), (10**4, 40)):
        composite = composite_flags(2 * m_bound + 5)
        assert composite == _composite_flags(lpf[:2 * m_bound + 6])
        expected = {n: lpf[n] for n in range(1, 2 * m_bound + 6)
                    if (n <= min(5**5, m_bound + k_limit) and lpf[n] <= k_limit + 4)
                    or (n <= m_bound + 4 and lpf[n] <= 7)}
        got = _smooth_largest_prime_factors(composite, m_bound, k_limit)
        assert got == expected, (m_bound, k_limit)


def test_smooth_table_binomial_bound_holds_below_k_747():
    # (5**5 + 1)**(k - pi(k+4)) > k**k for every 5 <= k <= 746, first fails at 747
    composite = composite_flags(2 * 3000 + 5)
    assert 5**5 in _smooth_largest_prime_factors(composite, 3000, 746)
    with pytest.raises(ArithmeticError, match="at k = 747"):
        _smooth_largest_prime_factors(composite, 3000, 747)


def test_smooth_table_needs_flags_that_cover_it():
    # the table reads composite at every n <= min(5**5, m_bound + k_limit)
    composite = composite_flags(100)
    assert _smooth_largest_prime_factors(composite, 90, 10)[100] == 5
    with pytest.raises(ArithmeticError, match="stops below 101"):
        _smooth_largest_prime_factors(composite, 91, 10)
    assert 5**5 in _smooth_largest_prime_factors(composite_flags(5**5), 10**4, 40)
    with pytest.raises(ArithmeticError, match="stops below 3125"):
        _smooth_largest_prime_factors(composite_flags(5**5 - 1), 10**4, 40)


def test_smooth_windows_end_below_five_to_the_five():
    # every window (m+1)...(m+k) of (k+4)-smooth integers, 5 <= k <= 40 and
    # k <= m <= 2*10^4, ends at m + k <= 5**5 (the only one is 6...10), and
    # the table of the scan at that bound holds each member
    top = 2 * 10**4 + 40
    lpf = [1] * (top + 1)
    for p in range(2, top + 1):
        if lpf[p] == 1:
            lpf[p::p] = [p] * (top // p)
    windows = []
    for m in range(5, 2 * 10**4 + 1):
        largest = 0
        for k in range(1, 41):
            largest = max(largest, lpf[m + k])
            if largest > 44:
                break
            if 5 <= k <= m and largest <= k + 4:
                windows.append((m, k))
    assert all(m + k <= 5**5 for m, k in windows)
    assert windows == [(5, 5)]
    composite = composite_flags(4 * 10**4 + 5)
    table = _smooth_largest_prime_factors(
        composite, 2 * 10**4, _gap_length_limit(composite, 2 * 10**4))
    assert all(table.get(n) == lpf[n] for m, k in windows for n in range(m + 1, m + k + 1))


def _range_maxima(values, lo, hi):
    """max(values[lo[i]:hi[i]]) for every i (lo < hi), by a sparse table:
    at width w, level[n] = max(values[n:n+w]), and a span in [w, 2w) is the
    union of the width-w windows at its two ends."""
    out = np.zeros(len(lo), dtype=values.dtype)
    level, width, span = values, 1, hi - lo
    while len(level):
        sel = (span >= width) & (span < 2 * width)
        out[sel] = np.maximum(level[lo[sel]], level[hi[sel] - width])
        level = np.maximum(level[:-width], level[width:])
        width *= 2
    return out


def _dense_window_pair_scan(m_bound):
    """The all-starts scan that the live-start scan replaced, as a reference:
    an exact largest-prime-factor sieve (every prime written to all its
    multiples) and one running window maximum over every start per k up to
    the same prime-gap cutoff, and past it, the windows hugging k (m <= k+3)
    read from that exact array."""
    size = 2 * m_bound + 5
    is_prime = np.ones(size + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(size) + 1):
        if is_prime[p]:
            is_prime[p * p::p] = False
    lpf = np.ones(size + 1, dtype=np.int64)
    for p in np.flatnonzero(is_prime).tolist():
        lpf[p::p] = p
    max_gap = int(np.diff(np.flatnonzero(is_prime)).max())
    k_limit = min(m_bound, max_gap + 4)

    pairs = {t: set() for t in (1, 2, 3, 4)}
    stop = m_bound + 2
    W = lpf[:stop].copy()
    for k in range(2, k_limit + 1):
        np.maximum(W, lpf[k - 1: stop + k - 1], out=W)
        seg = W[k + 1:]
        hits = np.flatnonzero((seg > k) & (seg <= k + 4))
        for j, top in zip(hits.tolist(), seg[hits].tolist()):
            pairs[top - k].add((k + j, k))
    for d in range(4):
        ks = np.arange(k_limit + 1, m_bound + 1 - d)
        wmax = _range_maxima(lpf, ks + d + 1, 2 * ks + d + 1)  # m = k + d
        for k, top in zip(ks.tolist(), wmax.tolist()):
            if 1 <= top - k <= 4:
                pairs[top - k].add((k + d, k))
    return pairs


def test_live_start_scan_matches_dense_scan():
    seeded = random.Random(20261019)
    bounds = [*range(2, 401), *sorted(seeded.sample(range(401, 2 * 10**4 + 1), 20))]
    for m_bound in bounds:
        got = _window_pair_scan(m_bound)
        assert got == _dense_window_pair_scan(m_bound), m_bound


def test_window_pair_scan_sieves_a_nagura_length(monkeypatch):
    # x + max(x // 5, 25) entries, x = m_bound + 5: a prime in (x, 6x/5]
    # (Nagura) lies above m_bound + 4 there; Bertrand's 2*m_bound + 5 sieved
    # every n the scan reads and as many again
    asked = []

    def spy(bound):
        asked.append(bound)
        return composite_flags(bound)

    monkeypatch.setattr(tables, "composite_flags", spy)
    _window_pair_scan.cache_clear()
    try:
        _window_pair_scan(10**5)
    finally:
        _window_pair_scan.cache_clear()
    x = 10**5 + 5
    assert asked and max(asked) <= x + max(x // 5, 25), asked


def test_window_pair_scan_memory_peak():
    # the sieve's bytearray is one byte per n up to 1.2*10^6 + 6 (1.1 MiB)
    # and the table a few thousand entries: 2.3 MiB in all; the sieve to
    # 2*10^6 + 5 peaked at 3.8 MiB, the dense all-starts scan at 43.9 MiB,
    # the prime-count corner at 32.4 MiB and the capped numpy array at 9.5 MiB
    _window_pair_scan.cache_clear()
    tracemalloc.start()
    try:
        _window_pair_scan(10**6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20, peak


def test_window_pair_scan_matches_brute_force():
    # 400: the largest prime gap from a prime <= 404 is 14 (113 to 127), so
    # the scan runs k <= 18 and the prime-gap cutoff decides every k in 19..400
    top_bound = 400
    lpf = [_lpf_by_trial_division(n) for n in range(2 * top_bound + 6)]
    composite = _composite_flags(lpf)
    reference = {t: set() for t in (1, 2, 3, 4)}
    for k in range(2, top_bound + 1):
        for m in range(k, top_bound + 1):
            top = max(lpf[m + 1: m + k + 1])
            if k < top <= k + 4:
                reference[top - k].add((m, k))
    for m_bound in [*range(2, 61), top_bound]:
        for t in (1, 2, 3, 4):
            expected = {(m, k) for m, k in reference[t] if m <= m_bound}
            assert product_lpf_pairs(t, m_bound) == expected, (t, m_bound)

    # the cutoff: no k past k_limit is open, that is without a prime in
    # (k+4, 2k], the one way a window hugging k (m <= k+3) can hit
    primes = [n for n in range(2, len(lpf)) if lpf[n] == n]
    open_k = [k for k in range(2, top_bound + 1)
              if not any(k + 4 < p <= 2 * k for p in primes)]
    assert open_k[:4] == [2, 3, 4, 5]
    for m_bound in range(2, top_bound + 1):
        k_limit = _gap_length_limit(composite, m_bound)
        assert not [k for k in open_k if k_limit < k <= m_bound], m_bound


def test_gap_length_limit_matches_brute_force():
    # (the largest gap between consecutive primes whose lower prime is
    # <= m_bound + 4) + 4, at most m_bound, on the scan's own flags and on
    # longer ones alike; at 10**6 the gap from 1,357,201 (132) lies past the
    # bound and 114 (from 492,113) is the largest one read
    top = 3 * 2000
    lpf = [_lpf_by_trial_division(n) for n in range(top + 1)]
    primes = [n for n in range(2, top + 1) if lpf[n] == n]
    long_flags = _composite_flags(lpf)
    for m_bound in range(2, 2001):
        max_gap = max(b - a for a, b in zip(primes, primes[1:]) if a <= m_bound + 4)
        expected = min(m_bound, max_gap + 4)
        x = m_bound + 5
        assert _gap_length_limit(composite_flags(x + max(x // 5, 25)), m_bound) == expected
        assert _gap_length_limit(long_flags, m_bound) == expected, m_bound
    x = 10**6 + 5
    assert _gap_length_limit(composite_flags(x + x // 5), 10**6) == 118
    assert _gap_length_limit(composite_flags(2 * 10**6 + 5), 10**6) == 118


def test_gap_length_limit_needs_a_prime_past_the_bound():
    # primes 2, 3, 5, 7 only: the largest gap is 2, but it bounds the gaps
    # only up to 7, so the cutoff holds for m_bound = 2 (7 > 2+4) and is
    # refused from m_bound = 3 on, where a window could reach past 7
    composite = bytearray(b"\x01" * 40)
    for p in (2, 3, 5, 7):
        composite[p] = 0
    assert _gap_length_limit(composite, 2) == 2
    for m_bound in (3, 10, 17):
        with pytest.raises(ArithmeticError, match="no prime above"):
            _gap_length_limit(composite, m_bound)
    for p in (11, 13, 17, 19, 23):
        composite[p] = 0
    assert _gap_length_limit(composite, 18) == 8
    with pytest.raises(ArithmeticError):
        _gap_length_limit(composite, 19)
    # 0 and 1 are no gap: with every n >= 2 marked prime the largest gap is 1
    assert _gap_length_limit(bytearray(b"\x01\x01" + bytes(20)), 10) == 5


def test_pair_scan_small_bound_truncates():
    assert product_lpf_pairs(1, 6) == {(2, 2)}
    assert (7, 2) in product_lpf_pairs(1, 7)


def test_pair_scan_members_recompute():
    for t, pairs in EXPECTED_PAIR_SETS.items():
        for m, k in pairs:
            assert product_lpf(m, k) == k + t


def test_pair_scan_rejects_bad_args():
    with pytest.raises(ValueError):
        product_lpf_pairs(5, 100)
    with pytest.raises(ValueError):
        product_lpf_pairs(1, 1)


# -- exponential equations ---------------------------------------------------------

def test_equations_match_expected():
    for eq_id, expected in EXPECTED_EQUATION_SOLUTIONS.items():
        assert solve_power_equation(eq_id, 60) == expected


def test_equations_stable_under_larger_bound():
    for eq_id, expected in EXPECTED_EQUATION_SOLUTIONS.items():
        assert solve_power_equation(eq_id, 40) == expected
        assert solve_power_equation(eq_id, 100) == expected


def test_equation_iii_flags_zero_exponent_entries(monkeypatch):
    # each flagged row passes only if its relation 2^r + 5^0 = 3^t holds;
    # the rows of the stored relations are pinned in _EQUATION_ROWS below
    monkeypatch.setitem(ZERO_EXPONENT_ENTRIES, "iii", ((1, 0, 1), (3, 0, 3)))
    rows = [c for c in report_of(verify_equations, 60).checks
            if c.check_id == "equation-iii-flagged"]
    assert [c.passed for c in rows] == [True, False]
    assert rows[1].detail == "out of positive search space: 2^3 + 5^0 = 3^3"


# every equation row of the report, as (id, passed, detail), at two bounds
_EQUATION_ROWS = {
    60: [("equation-i", True, "4 solutions, bound 60"),
         ("equation-ii", True, "2 solutions, bound 60"),
         ("equation-iii", True, "2 solutions, bound 60"),
         ("equation-iii-flagged", True, "out of positive search space: 2^1 + 5^0 = 3^1"),
         ("equation-iii-flagged", True, "out of positive search space: 2^3 + 5^0 = 3^2"),
         ("equation-iv", True, "2 solutions, bound 60"),
         ("equation-v", True, "1 solutions, bound 60"),
         ("equation-vi", True, "2 solutions, bound 60")],
    2: [("equation-i", True, "3 solutions, bound 2"),
        ("equation-ii", True, "1 solutions, bound 2"),
        ("equation-iii", True, "1 solutions, bound 2"),
        ("equation-iii-flagged", True, "out of positive search space: 2^1 + 5^0 = 3^1"),
        ("equation-iii-flagged", True, "out of positive search space: 2^3 + 5^0 = 3^2"),
        ("equation-iv", True, "1 solutions, bound 2"),
        ("equation-v", True, "0 solutions, bound 2"),
        ("equation-vi", True, "1 solutions, bound 2")],
}


@pytest.mark.parametrize("bound", sorted(_EQUATION_ROWS))
def test_equation_rows_are_pinned(bound):
    rows = [(c.check_id, c.passed, c.detail) for c in report_of(verify_equations, bound).checks]
    assert rows == _EQUATION_ROWS[bound]


def test_divide_out_returns_exponents_and_rest():
    assert _divide_out(2**5 * 3**2 * 7, (2, 3)) == ([5, 2], 7)
    assert _divide_out(5**3 + 1, (2, 3)) == ([1, 2], 7)
    assert _divide_out(1, (2, 3, 5)) == ([0, 0, 0], 1)
    # 2..6 in ascending order: 4 and 6 divide nothing once 2 and 3 are out
    assert _divide_out(2**3 * 3 * 5**2, range(2, 7)) == ([3, 1, 0, 2, 0], 1)


def test_equations_match_a_direct_triple_loop():
    # every exponent tried, no early exit: the reference for the search's
    # loop exits; a solution counts at bound B when its exponents are <= B
    top_bound = 25
    exps = range(1, top_bound + 1)
    direct = {
        "i": {(a, r, b, s) for a in (2, 3, 5) for b in (2, 3, 5) if a != b
              for r in exps for s in exps if a ** r - 1 == b ** s},
        "ii": {(r, s, t) for r in exps for s in exps for t in exps
               if 2 ** r + 3 ** s == 5 ** t},
        "iii": {(r, s, t) for r in exps for s in exps for t in exps
                if 2 ** r + 5 ** s == 3 ** t},
    }
    for eq_id, (x, y, z) in {"iv": (2, 3, 5), "v": (3, 5, 2), "vi": (2, 5, 3)}.items():
        direct[eq_id] = {(r, s, t, sign) for r in exps for s in exps for t in exps
                         for sign in (1, -1) if x ** r * y ** s - sign == z ** t}
    for eq_id, solutions in direct.items():
        for bound in range(1, top_bound + 1):
            expected = {sol for sol in solutions
                        if max(sol[1::2] if eq_id == "i" else sol[:3]) <= bound}
            assert solve_power_equation(eq_id, bound) == expected, (eq_id, bound)


def test_equation_rejects_unknown_id():
    with pytest.raises(ValueError):
        solve_power_equation("vii", 60)


# -- factored rows -------------------------------------------------------------------

def test_factor_rows_verify():
    report = report_of(verify_factor_rows)
    assert report.passed
    assert len(report.checks) == 16  # 8 rows, expansion + hypothesis each


# -- witness prime rows ----------------------------------------------------------------

def test_witness_prime_rows_verify():
    report = report_of(verify_witness_prime_rows)
    assert report.passed
    erratum = [c for c in report.checks if c.check_id.endswith("erratum")]
    assert len(erratum) == 1 and erratum[0].passed
    prime_free = [c for c in report.checks if "prime-free" in c.detail]
    assert len(prime_free) == 2


def test_superseded_witness_really_fails():
    ok, _ = k_witness_valid(5, 4, 2, 11)
    assert not ok
    ok, slope = k_witness_valid(5, 4, 2, 5)
    assert ok


def test_prime_free_rows_by_direct_scan():
    assert witness_primes(6, 4, 2) == []
    assert witness_primes(6, 4, 3) == []
    assert witness_primes(6, 4, 1) == [3]


# -- exceptional pair table --------------------------------------------------------------

def test_exceptional_pair_table_verifies():
    # below 100 the table reads the scan at 100, where its largest m-k+u, 79, lies
    for pair_bound in (2, 100, 10**5, 10**6):
        report = report_of(verify_exceptional_pair_table, pair_bound)
        assert report.passed, pair_bound
    assert sum(len(v) for v in EXCEPTIONAL_PAIR_TABLE.values()) == 17


# -- k = 1 branch ---------------------------------------------------------------------------

def test_k1_computed_sets():
    assert k1_no_good_prime_set(0, 1000) == frozenset()
    assert k1_no_good_prime_set(1, 1000) == frozenset()
    assert k1_no_good_prime_set(2, 1000) == {2, 4, 6, 16}
    assert k1_no_good_prime_set(3, 1000) == {3, 6, 9, 24}
    assert k1_no_good_prime_set(4, 1000) == \
        K1_QUOTED_SETS[4] | {6, 50}
    # against the definition, by factoring
    for u in range(8):
        assert k1_no_good_prime_set(u, 600) == {
            m for m in range(2, 601)
            if max(largest_prime_factor(m), largest_prime_factor(m + u)) < u + 2}, u


def _smooth_by_division(n, top):
    for d in range(2, top + 1):
        while n % d == 0:
            n //= d
    return n == 1


def test_k1_sets_match_division_at_every_bound():
    # m and m+u both (u+1)-smooth, decided by dividing out 2..u+1; at every
    # bound the enumeration must reach m_bound + u and use u+1 itself
    for u in range(5):
        full = [m for m in range(2, 2 * 10**4 + 1)
                if _smooth_by_division(m, u + 1) and _smooth_by_division(m + u, u + 1)]
        for m_bound in [*range(2, 3001), 2 * 10**4]:
            expected = frozenset(m for m in full if m <= m_bound)
            assert k1_no_good_prime_set(u, m_bound) == expected, (u, m_bound)


def test_k1_subcase_reports_pass():
    for u in range(5):
        report = report_of(verify_k1_subcases, u, 1000)
        assert report.passed, report.failures()


def test_k1_rejects_out_of_range():
    report = Report()
    with pytest.raises(ValueError):
        verify_k1_subcases(report, 5, 100)
    assert report.checks == []


# -- the root-3 family ------------------------------------------------------------------------

def test_nonconstant_leading_counterexample():
    report = report_of(verify_nonconstant_leading_counterexample)
    assert report.passed
    assert len(report.checks) == 10


# -- everything together -----------------------------------------------------------------------

def test_reference_report_reaches_every_section_verifier(monkeypatch):
    # the bench tracer wraps the verifiers as attributes of this module, so
    # the full run must look each of them up there when it calls it
    names = ("verify_factor_rows", "verify_witness_prime_rows",
             "verify_exceptional_pair_table", "verify_pair_sets", "verify_equations",
             "verify_k1_subcases", "verify_nonconstant_leading_counterexample")
    calls = dict.fromkeys(names, 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(tables, name, counting(name, getattr(tables, name)))
    assert verify_reference_tables(pair_bound=100).passed
    assert calls == {**dict.fromkeys(names, 1), "verify_k1_subcases": 5}


def test_reference_report_all_pass():
    # the exceptional table and the pair sets share one scan
    _window_pair_scan.cache_clear()
    report = verify_reference_tables(pair_bound=10**4)
    assert _window_pair_scan.cache_info().misses == 1
    assert report.passed, [c.line() for c in report.failures()]
    assert len(report.checks) > 90
    assert all(line.startswith("PASS") for line in report.lines())
