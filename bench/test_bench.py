"""Tests of the benchmark harness itself: python -m pytest bench"""

import json
import math
import shutil
import subprocess
import sys
from collections import Counter

import pytest

import calibrate
import run
import stats
import tracer
from workloads import STANDARD, Sweep, Tally, cubic_validity_bound

BENCH = run.BENCH
ROOT = run.ROOT


def test_self_times_on_nested_spans():
    # op 1: root [0,10] > a [1,4] (0.5 s of leaves) and b [5,9] > c [6,7]
    spans = [(1, 1, None, "op", 0.0, 10.0, 0.0),
             (1, 2, 1, "a", 1.0, 4.0, 0.5),
             (1, 3, 1, "b", 5.0, 9.0, 0.0),
             (1, 4, 3, "c", 6.0, 7.0, 0.25)]
    got = tracer.self_times(spans)
    assert got == {1: 3.0, 2: 2.5, 3: 3.0, 4: 0.75}
    assert sum(got.values()) + sum(s[6] for s in spans) == 10.0


def test_self_times_clip_children_to_the_parent_interval():
    # overlapping children, one reaching past its parent's end
    spans = [(1, 1, None, "op", 0.0, 10.0, 0.0),
             (1, 2, 1, "a", 2.0, 6.0, 0.0),
             (1, 3, 1, "b", 4.0, 12.0, 0.0)]
    assert tracer.self_times(spans)[1] == 2.0


@pytest.mark.parametrize("n, expected", [
    (19, None), (20, "50"), (100, "90"), (199, "90"), (200, "95"),
    (999, "95"), (1000, "99"), (9999, "99"), (10000, "99.9")])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert stats.tail_percentile(n) == expected
    if expected is not None:
        assert n - stats._rank(n, expected) >= 10


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert stats.percentile(values, "50") == 50
    assert stats.percentile(values, "99") == 99
    assert stats.percentile([3.0], "99.9") == 3.0


def test_generator_validity_bound_matches_the_library():
    from laguerrecert.polyring import Poly, check_phi

    bound = cubic_validity_bound(STANDARD)
    assert check_phi(Poly(STANDARD), bound)
    assert not check_phi(Poly(STANDARD), bound + 1)


def _sweep(seed, ops, trace):
    workload = Sweep(seed)
    tally = Tally()
    active = tracer.Tracer() if trace else None
    if active:
        active.install()
    try:
        for spec in workload.round(0)[:ops]:
            workload.run_op(spec, tally, active)
    finally:
        if active:
            active.uninstall()
    return tally, active


def test_traced_and_untraced_runs_agree():
    from workloads import cert, ring

    originals = (cert.is_irreducible_mod_p, ring.Poly.__init__)
    plain, _ = _sweep(7, 60, trace=False)
    traced, active = _sweep(7, 60, trace=True)
    assert (cert.is_irreducible_mod_p, ring.Poly.__init__) == originals
    assert plain.failed == traced.failed == 0
    assert plain.digest.hexdigest() == traced.digest.hexdigest()
    assert Counter(plain.outcomes) == Counter(traced.outcomes)
    assert active.op_balance() < 1e-9
    metrics = active.metrics()
    assert metrics["certify.certify.calls"] == 60
    assert metrics["oracle.verdict.calls"] == 60
    assert metrics["tables.pair_sets.calls"] == 0


def test_rounds_are_fixed_by_seed_and_index():
    from workloads import CertifyScale

    for cls in (Sweep, CertifyScale):
        first, again, other = cls(3).round(1), cls(3).round(1), cls(3).round(2)
        assert first == again
        assert first != other


def test_summary_pools_every_pass():
    from workloads import ReferenceTables

    passes = [{"latencies": [2.0, 2.0], "ref_latencies": [1.0, 1.0],
               "calibration_s": [0.004, 0.006, 0.005], "kinds": [{"tables": 2.0}] * 2,
               "outcomes": ["decided", "wrong"], "peak_rss_mb": 10.0},
              {"latencies": [4.0], "ref_latencies": [2.0], "calibration_s": [0.008, 0.008],
               "kinds": [{"tables": 4.0}], "outcomes": ["decided"], "peak_rss_mb": 12.0}]
    got = run.summarize(ReferenceTables(1), passes)
    assert got["ops_per_s"] == 3 / 8.0
    assert got["ops_per_ref_s"] == 3 / 4.0
    assert got["kernel_ms"] == 6.0
    assert got["samples"] == 3 and got["passes"] == 2
    assert got["peak_rss_mb"] == 12.0
    # per-kind times and shares cover round 0 only
    assert got["tables_s"] == 4.0
    assert got["decided_ratio"] == 0.5


def test_scale_divides_by_the_speed_around_the_work():
    ref = calibrate.REFERENCE_S
    assert calibrate.scale(2.0, ref, ref) == 2.0
    assert calibrate.scale(2.0, 2 * ref, 2 * ref) == 1.0
    assert math.isclose(calibrate.scale(3.0, ref, 2 * ref), 2.0)
    assert calibrate.sample() > 0
    assert calibrate.sample((("numpy", 0.5), ("python", 0.5))) > 0


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert tuple(m["name"] for m in spec["end_to_end"]) == run.END_TO_END
    for m in spec["end_to_end"]:
        assert m["unit"] == run.UNITS[m["name"]]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        list(tracer.metric_specs())
    from workloads import WORKLOADS
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
