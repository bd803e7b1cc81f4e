"""Benchmark of the laguerrecert library, run from the root of a checkout.

    python3 bench/run.py --workload sweep --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 0

A run is a sequence of passes.  A pass is a fresh process that sets up one
round of the workload (imports, bases, inputs) and runs its ops; passes run
one after another, rounds 0, 1, 2, ..., until ``--seconds`` have passed.
With ``--trace 0`` the run checks every output and prints the end-to-end
metrics over all its passes.  ``--trace 1`` runs pass 0 untraced, then
repeats exactly that round in this process with the tracer installed and
prints the per-layer metrics, including the tracing overhead.  The last
line of standard output is the result object; the line before it holds the
details (every applicable metric of bench/README.md, run metadata, params
and sample counts).  The exit status is 0 only when every output was
correct.  The library is imported from ``src/`` of the checkout and nowhere
else.
"""

import time

import calibrate

CAL_BEFORE = calibrate.sample()   # the set-up is scaled by this and a sample after it
T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import stats  # noqa: E402
import tracer as tracer_mod  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_SAMPLES = 7
CAL_EVERY_S = 0.5   # a calibration sample after the first op ending this long after the last
DEADLINE_S = 170

UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_p99_ms": "ms",
         "peak_rss_mb": "MB", "fail_ratio": "ratio", "certified_ratio": "ratio",
         "decided_ratio": "ratio", "certify_s": "s", "verify_s": "s",
         "oracle_s": "s", "search_s": "s", "tables_s": "s", "samples": "count",
         "passes": "count", "ops_per_ref_s": "1/s", "setup_raw_s": "s", "kernel_ms": "ms"}
END_TO_END = ("setup_s", "ops_per_ref_s", "peak_rss_mb", "decided_ratio")
DECIDED = ("certified", "irreducible", "reducible", "decided")


def load_library():
    """Import laguerrecert from this checkout's src/, or exit non-zero."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import laguerrecert
    except ImportError as exc:
        sys.exit(f"bench: cannot import laguerrecert from {src}: {exc}")
    origin = Path(laguerrecert.__file__).resolve()
    if src.resolve() not in origin.parents:
        sys.exit(f"bench: laguerrecert came from {origin}, not from {src}")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: run round K as one pass, or only its set-up
    ap.add_argument("--pass", dest="pass_index", type=int, help=argparse.SUPPRESS)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def metadata() -> dict:
    return {"commit": read_commit(), "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "cores": os.cpu_count(), "machine": platform.machine()}


def read_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def elapsed() -> float:
    return time.perf_counter() - T_START


def child_report(args, index: int, *extra) -> dict:
    """Run round `index` of this workload and seed in a fresh process; its
    report.  A child that prints no report ends this run as well."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--pass", str(index), *extra]
    budget = max(10.0, DEADLINE_S - elapsed())
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=budget)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stderr.write(proc.stderr)
        sys.exit(f"bench: pass {index} {' '.join(extra)} failed with status {proc.returncode}")
    return json.loads(lines[-1])


def run_pass(args, workload, tally) -> int:
    """One pass: set up round `args.pass_index`, run all its ops, report.

    The set-up is scaled by python-kernel samples before and after it.
    Samples of the workload's kernels split the ops into segments of about
    CAL_EVERY_S; each op's time is scaled by the samples at the two ends
    of its segment.
    """
    specs = workload.round(args.pass_index)
    setup_s = elapsed()
    setup_ref_s = calibrate.scale(setup_s, CAL_BEFORE, calibrate.sample())
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_ref_s": setup_ref_s}))
        return 0
    cal = [calibrate.sample(workload.calibration)]
    scaled = []
    last = time.perf_counter()
    for index, spec in enumerate(specs):
        workload.run_op(spec, tally, None)
        if index + 1 == len(specs) or time.perf_counter() - last >= CAL_EVERY_S:
            cal.append(calibrate.sample(workload.calibration))
            scaled += [calibrate.scale(t, cal[-2], cal[-1])
                       for t in tally.latencies[len(scaled):]]
            last = time.perf_counter()
    print(json.dumps({
        "setup_s": setup_s, "setup_ref_s": setup_ref_s,
        "work_s": setup_s + sum(tally.latencies),
        "attempted": tally.attempted, "failed": tally.failed, "problems": tally.problems,
        "latencies": tally.latencies, "ref_latencies": scaled, "calibration_s": cal,
        "kinds": tally.kinds, "outcomes": tally.outcomes, "digest": tally.digest.hexdigest(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}))
    return 0


def summarize(workload, passes) -> dict:
    """Every applicable end-to-end metric, from the reports of all passes.
    Rates and latencies cover every op; per-kind times and the
    certified/decided shares cover round 0, the same work in every run of
    a seed."""
    latencies = [t for p in passes for t in p["latencies"]]
    n = len(latencies)
    first = passes[0]
    kernel = [c for p in passes for c in p["calibration_s"]]
    out = {"samples": n, "passes": len(passes), "ops_per_s": n / sum(latencies),
           "ops_per_ref_s": n / sum(t for p in passes for t in p["ref_latencies"]),
           "kernel_ms": 1000 * statistics.median(kernel),
           "op_p50_ms": 1000 * stats.percentile(latencies, "50"),
           "peak_rss_mb": max(p["peak_rss_mb"] for p in passes)}
    tail = stats.tail_percentile(n)
    if tail is not None and tail != "50":
        out[f"op_p{tail}_ms"] = 1000 * stats.percentile(latencies, tail)
    for kind in workload.kinds:
        out[f"{kind}_s"] = sum(k.get(kind, 0.0) for k in first["kinds"])
    outcomes = first["outcomes"]
    if "certify" in workload.kinds:
        out["certified_ratio"] = outcomes.count("certified") / len(outcomes)
    out["decided_ratio"] = sum(o in DECIDED for o in outcomes) / len(outcomes)
    return out


def emit(detail: dict, correct: bool, attempted: int, failed: int, metrics: dict) -> int:
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": min(failed, attempted), "metrics": metrics}))
    return 0 if correct else 1


def run_untraced(args, workload, tally) -> int:
    """Passes until --seconds have passed, then set-up-only children until
    there are SETUP_SAMPLES set-up times, then the untimed checks."""
    start = elapsed()
    passes = []
    while not passes or elapsed() - start < args.seconds:
        passes.append(child_report(args, len(passes)))
    setups = [{k: p[k] for k in ("setup_s", "setup_ref_s")} for p in passes]
    while len(setups) < SETUP_SAMPLES:
        setups.append(child_report(args, len(setups) % len(passes), "--setup-only"))
    summary = summarize(workload, passes)
    summary["setup_s"] = statistics.median(s["setup_ref_s"] for s in setups)
    summary["setup_raw_s"] = statistics.median(s["setup_s"] for s in setups)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    problems = [line for p in passes for line in p["problems"]]
    detail = workload.after(passes[0]["outcomes"], tally)
    failed += tally.failed
    problems += tally.problems
    summary["fail_ratio"] = failed / attempted
    digest = hashlib.sha256("".join(p["digest"] for p in passes).encode()).hexdigest()
    detail.update({
        "workload": workload.name, "seed": args.seed, "seed_used": workload.seeded,
        "params": workload.params(), "meta": metadata(), "digest": digest,
        "round0_digest": passes[0]["digest"], "setup_samples_s": setups,
        "pass_work_s": [p["work_s"] for p in passes], "attempted": attempted,
        "outcomes": dict(sorted(Counter(o for p in passes for o in p["outcomes"]).items())),
        "problems": problems[:20],
        "metrics": {k: {"value": v, "unit": UNITS.get(k, "ms")} for k, v in summary.items()}})
    metrics = {k: {"value": summary[k], "unit": UNITS[k]} for k in END_TO_END}
    return emit(detail, failed == 0, attempted, failed, metrics)


def run_traced(args, workload, tally, import_s) -> int:
    """Round 0 untraced in a fresh process, then the same round traced here;
    `import_s` is this process's import time, which the twin's work_s has too."""
    twin = child_report(args, 0)
    tracer = tracer_mod.Tracer()
    cache = sys.modules["laguerrecert.polyring"].is_irreducible_mod_p
    before = cache.cache_info()
    tracer.install()
    try:
        t0 = time.perf_counter()
        with tracer.root("setup"):
            specs = workload.round(0)
        setup_s = time.perf_counter() - t0
        for spec in specs:
            workload.run_op(spec, tally, tracer)
    finally:
        tracer.uninstall()
    after = cache.cache_info()
    metrics = tracer.metrics()
    hits, misses = after.hits - before.hits, after.misses - before.misses
    metrics["polyring.irreducible_mod_p.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    # set-up (imports included) plus op time, as in the twin's work_s
    work = import_s + setup_s + sum(tally.latencies)
    metrics["trace.overhead_s"] = work - twin["work_s"]
    if tally.digest.hexdigest() != twin["digest"]:
        tally.fail("traced and untraced runs of one seed disagree on the output digest", op=0)
    if Counter(tally.outcomes) != Counter(twin["outcomes"]):
        tally.fail(f"traced outcomes {Counter(tally.outcomes)} differ from untraced "
                   f"{Counter(twin['outcomes'])}", op=0)
    balance = tracer.op_balance()
    if balance > 1e-6:
        tally.fail(f"self times miss an op's duration by {balance:.3g} s", op=0)
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{workload.name}.csv"
    tracer.write(spans_path)
    detail = {"workload": workload.name, "seed": args.seed, "meta": metadata(),
              "traced_work_s": work, "untraced_work_s": twin["work_s"],
              "spans": len(tracer.spans), "spans_file": str(spans_path.relative_to(ROOT)),
              "op_balance_s": balance, "problems": twin["problems"] + tally.problems}
    out = {name: {"value": metrics[name], "unit": unit}
           for name, unit, _ in tracer_mod.metric_specs()}
    failed = twin["failed"] + tally.failed
    return emit(detail, failed == 0, tally.attempted, failed, out)


def run_all(args) -> int:
    """Every workload in turn, each in its own process; prints a table."""
    sys.path.insert(0, str(BENCH))
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    status = 0
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            sys.stderr.write(proc.stderr)
            print(f"{name}: failed with status {proc.returncode}")
            status = 1
            if len(lines) < 2:
                continue
        detail = json.loads(lines[-2])["detail"]
        result = json.loads(lines[-1])
        shown = detail.get("metrics") if args.trace == 0 else result["metrics"]
        print(f"== {name} (seed {args.seed}, {result['attempted']} ops, "
              f"{result['failed']} failed)")
        for key, m in shown.items():
            print(f"  {key:44s} {m['value']:>16.6g} {m['unit']}")
            total["metrics"][f"{name}/{key}"] = m
        for line in detail.get("problems", []):
            print(f"  problem: {line}")
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
    print(json.dumps(total))
    return status if total["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    load_library()
    from workloads import WORKLOADS, Tally

    import_s = elapsed()
    if args.workload not in WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed)
    tally = Tally()
    if args.pass_index is not None:
        return run_pass(args, workload, tally)
    if args.trace:
        return run_traced(args, workload, tally, import_s)
    return run_untraced(args, workload, tally)


if __name__ == "__main__":
    sys.exit(main())
