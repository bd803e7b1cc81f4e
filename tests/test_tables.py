import pytest

from laguerrecert.tables import (EXPECTED_EQUATION_SOLUTIONS, EXPECTED_PAIR_SETS,
                                 EXCEPTIONAL_PAIR_TABLE, K1_QUOTED_SETS, Report,
                                 k1_no_good_prime_set, k_witness_valid, product_lpf_pairs,
                                 solve_power_equation, verify_exceptional_pair_table,
                                 verify_factor_rows, verify_k1_subcases,
                                 verify_nonconstant_leading_counterexample,
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
        assert product_lpf_pairs(t, 10**4).pairs == EXPECTED_PAIR_SETS[t]


def test_pair_scan_small_bound_truncates():
    assert product_lpf_pairs(1, 6).pairs == {(2, 2)}
    assert (7, 2) in product_lpf_pairs(1, 7).pairs


def test_pair_scan_members_recompute():
    from laguerrecert.primes import product_lpf

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
        assert solve_power_equation(eq_id, 60).solutions == expected


def test_equations_stable_under_larger_bound():
    for eq_id, expected in EXPECTED_EQUATION_SOLUTIONS.items():
        assert solve_power_equation(eq_id, 40).solutions == expected
        assert solve_power_equation(eq_id, 100).solutions == expected


def test_equation_iii_flags_zero_exponent_entries():
    sol = solve_power_equation("iii", 60)
    assert len(sol.out_of_search_space) == 2
    assert solve_power_equation("ii", 60).out_of_search_space == ()


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
    report = report_of(verify_exceptional_pair_table)
    assert report.passed
    assert sum(len(v) for v in EXCEPTIONAL_PAIR_TABLE.values()) == 17


# -- k = 1 branch ---------------------------------------------------------------------------

def test_k1_computed_sets():
    assert k1_no_good_prime_set(0, 1000) == frozenset()
    assert k1_no_good_prime_set(1, 1000) == frozenset()
    assert k1_no_good_prime_set(2, 1000) == {2, 4, 6, 16}
    assert k1_no_good_prime_set(3, 1000) == {3, 6, 9, 24}
    assert k1_no_good_prime_set(4, 1000) == \
        K1_QUOTED_SETS[4] | {6, 50}


def test_k1_subcase_reports_pass():
    for u in range(5):
        report = verify_k1_subcases(u, 1000)
        assert report.passed, report.failures()


def test_k1_rejects_out_of_range():
    with pytest.raises(ValueError):
        verify_k1_subcases(5, 100)


# -- the root-3 family ------------------------------------------------------------------------

def test_nonconstant_leading_counterexample():
    report = verify_nonconstant_leading_counterexample()
    assert report.passed
    assert len(report.checks) == 10


# -- everything together -----------------------------------------------------------------------

def test_reference_report_all_pass():
    report = verify_reference_tables(pair_bound=10**4)
    assert report.passed, [c.line() for c in report.failures()]
    assert len(report.checks) > 90
    assert all(line.startswith("PASS") for line in report.lines())
