"""The benchmark's workloads: seeded inputs, timed ops and output checks.

Every workload is a closed loop with one client in one process: each op
starts when the previous one returns.  Ops come in rounds, and each round
runs in a fresh process (a pass, see run.py), so every round starts on the
caches a user's fresh process would have.  Round k of a seed is the same
list of inputs in every run; a workload with fixed inputs has the same
round at every index.

Inputs are valid by construction: the generators use only their own
arithmetic, never the library's decision code.  The library sees only the
generated inputs; ``--seed`` never reaches it.
"""

from __future__ import annotations

import hashlib
import importlib
import math
import random
import time
from contextlib import nullcontext
from functools import lru_cache

import calibrate

lag = importlib.import_module("laguerrecert.laguerre")
cert = importlib.import_module("laguerrecert.certify")
orc = importlib.import_module("laguerrecert.oracle")
ring = importlib.import_module("laguerrecert.polyring")
tab = importlib.import_module("laguerrecert.tables")

Poly = ring.Poly
Certificate = cert.Certificate
# Bound before any tracer is installed, so the harness's own checks stay
# outside the traced layers.
check_witness = orc.verify_witness
primitive_part = ring.primitive_part
perf = time.perf_counter


@lru_cache(maxsize=None)
def small_primes(bound: int) -> list[int]:
    return [n for n in range(2, bound + 1)
            if all(n % d for d in range(2, math.isqrt(n) + 1))]


def has_root_mod(coeffs, p: int) -> bool:
    return any(sum(c * pow(x, e, p) for e, c in enumerate(coeffs)) % p == 0
               for x in range(p))


def cubic_validity_bound(coeffs, limit: int = 200) -> int:
    """Largest bound b <= limit such that a monic polynomial of degree 2 or 3
    is irreducible modulo every prime <= b (for these degrees: no root)."""
    if not 2 <= len(coeffs) - 1 <= 3:
        raise ValueError("root test decides irreducibility only in degree 2 or 3")
    for p in small_primes(limit):
        if has_root_mod(coeffs, p):
            return p - 1
    return limit


def coprime_to_small(n: int, bound: int) -> bool:
    return all(n % p for p in small_primes(bound))


class Tally:
    """Per-run counts, times and the digest of every output."""

    def __init__(self):
        self.attempted = 0
        self.failed_ops: set[int] = set()
        self.problems: list[str] = []
        self.latencies: list[float] = []
        self.kinds: list[dict] = []          # per op: kind -> seconds
        self.outcomes: list[str] = []        # per op: outcome label
        self.digest = hashlib.sha256()

    @property
    def failed(self) -> int:
        return len(self.failed_ops)

    def fail(self, what: str, op: int | None = None) -> None:
        """Mark op number `op` failed: by default the current one; 0 stands
        for the run as a whole."""
        self.failed_ops.add(self.attempted if op is None else op)
        if len(self.problems) < 20:
            self.problems.append(what)


class Workload:
    """Base: ``round(k)`` builds the op specs of round k (set-up);
    ``run_op`` times one."""

    name = ""
    seeded = True
    kinds: tuple[str, ...] = ()  # op kinds timed separately
    # calibration kernels and their weights, by the kind of code ops run
    calibration = calibrate.PYTHON

    def __init__(self, seed: int):
        self.seed = seed

    def params(self) -> dict:
        return {}

    def round(self, index: int) -> list:
        raise NotImplementedError

    def run_op(self, spec, tally: Tally, tracer) -> None:
        raise NotImplementedError

    def after(self, outcomes: list[str], tally: Tally) -> dict:
        """Untimed checks after the measurement, given the outcome of every
        op of round 0; returns extra details."""
        return {}


def _root(tracer):
    return tracer.root("op") if tracer is not None else nullcontext()


def _op(tally: Tally, tracer, spec, body) -> None:
    """Run one op, count it, and record a raised exception as a failure."""
    tally.attempted += 1
    kinds: dict = {}
    start = perf()
    try:
        with _root(tracer):
            body(kinds)
    except Exception as exc:  # a failed op is counted, the run continues
        tally.fail(f"{spec!r}: {type(exc).__name__}: {exc}")
        kinds = {}
        tally.outcomes.append("raised")
    tally.latencies.append(perf() - start)
    tally.kinds.append(kinds)


def _certify_and_verify(tally, spec, m, alpha, a_m, parts, phi, kinds):
    """certify = build_instance + certify + JSON; verify = JSON parse +
    fresh build_instance + verify_certificate.  Returns (instance, text)."""
    t0 = perf()
    inst = lag.build_instance(m, alpha, a_m, parts, phi)
    result = cert.certify(inst)
    text = cert.certificate_to_json(result) if isinstance(result, Certificate) else None
    t1 = perf()
    kinds["certify"] = t1 - t0
    if text is None:
        return inst, None
    fresh = lag.build_instance(m, alpha, a_m, parts, phi)
    ok = cert.verify_certificate(cert.certificate_from_json(text), fresh)
    kinds["verify"] = perf() - t1
    if not ok:
        tally.fail(f"{spec!r}: certificate does not re-verify on a fresh instance")
    tally.digest.update(text.encode())
    return inst, text


# ---------------------------------------------------------------------------

class CertifyScale(Workload):
    """Few very large instances over constructed bases; certify then verify."""

    name = "certify-scale"
    kinds = ("certify", "verify")
    # valuations of m!-sized integers and rational slopes dominate
    calibration = (("python", 0.5), ("fraction", 0.5))
    # (u, v, nominal m); the seed moves each m within +-5
    RUNGS = ((2, 1, 200), (2, 1, 400), (2, 1, 800),
             (2, 3, 100), (2, 3, 200), (2, 3, 400))

    def params(self):
        return {"rungs": [f"u/v={u}/{v} m={m}+-5" for u, v, m in self.RUNGS],
                "base": "construct_phi(2, v*m+u)", "a_m": 1}

    def round(self, index: int) -> list:
        rng = random.Random(f"{self.seed}/{self.name}/{index}")
        specs = []
        for u, v, m0 in self.RUNGS:
            m = m0 + rng.randint(-5, 5)
            phi = ring.construct_phi(2, v * m + u)
            while True:
                a0 = (rng.randint(-9, 9), rng.randint(-9, 9))
                if math.gcd(*a0) == 1:  # content(a_0) = 1, prime to every p
                    break
            parts = [Poly(a0)] + [Poly((rng.randint(-9, 9),
                                        rng.choice((-1, 1)) * rng.randint(1, 9)))
                                  for _ in range(m - 1)]
            specs.append((m, (u, v), parts, phi))
        return specs

    def run_op(self, spec, tally, tracer):
        m, alpha, parts, phi = spec

        def body(kinds):
            _, text = _certify_and_verify(tally, (m, alpha), m, alpha, 1, parts, phi, kinds)
            if text is None:
                tally.fail(f"m={m} alpha={alpha}: not certified")
            tally.outcomes.append("certified" if text else "uncertified")
        _op(tally, tracer, (m, alpha), body)


# ---------------------------------------------------------------------------

STANDARD = (17, -1, 1)  # x^2 - x + 17, ascending coefficients


class Sweep(Workload):
    """A stream of small instances in the style of acceptance criterion 10."""

    name = "sweep"
    kinds = ("certify", "verify", "oracle")
    # (u, v) mix: integer parameters 0..4 and rational ones with v in {2, 3}
    PARAMETERS = ((0, 1), (1, 1), (2, 1), (3, 1), (4, 1),
                  (1, 2), (3, 2), (-1, 2), (1, 3), (2, 3))
    REPEATS = 3
    ORACLE_PRIMES = 60
    GROUND_TRUTH_SAMPLE = 24

    def params(self):
        return {"m": "1..10", "u/v": [f"{u}/{v}" for u, v in self.PARAMETERS],
                "bases": "x^2-x+17 where valid, construct_phi(2|3, 13|34)",
                "multipliers": "coefficients in -9..9",
                "round": self.REPEATS * 10 * len(self.PARAMETERS),
                "oracle_prime_budget": self.ORACLE_PRIMES}

    def _bases(self):
        standard = Poly(STANDARD)
        pool = [(cubic_validity_bound(STANDARD), standard)]
        for d in (2, 3):
            for bound in (13, 34):
                pool.append((bound, ring.construct_phi(d, bound)))
        return pool

    def _spec(self, rng, m, u, v, phi):
        """Multipliers with content(a_m * a_0) prime to every p <= v*m+u; the
        condition splits into one on a_m and one on a_0."""
        bound = v * m + u
        a_m = rng.choice([c for c in range(-9, 10) if c and coprime_to_small(abs(c), bound)])
        while True:
            a_0 = Poly([rng.randint(-9, 9) for _ in range(phi.degree)])
            if not a_0.is_zero and coprime_to_small(math.gcd(*a_0.coeffs), bound):
                break
        parts = [a_0] + [Poly([rng.randint(-9, 9) for _ in range(phi.degree)])
                         for _ in range(m - 1)]
        return (m, (u, v), a_m, parts, phi)

    def round(self, index: int) -> list:
        """Stratified: every (m, parameter) pair REPEATS times, cycling
        through the bases valid at its prime bound; only the multipliers
        and the order are random.  Fixing the mix keeps the work per round
        steady from seed to seed."""
        rng = random.Random(f"{self.seed}/{self.name}/{index}")
        pool = self._bases()
        specs = []
        for rep in range(self.REPEATS):
            for m in range(1, 11):
                for u, v in self.PARAMETERS:
                    valid = [phi for bound, phi in pool if bound >= v * m + u]
                    specs.append(self._spec(rng, m, u, v, valid[rep % len(valid)]))
        rng.shuffle(specs)
        return specs

    def run_op(self, spec, tally, tracer):
        m, alpha, a_m, parts, phi = spec
        found = {}

        def body(kinds):
            inst, text = _certify_and_verify(tally, (m, alpha, a_m), m, alpha, a_m,
                                             parts, phi, kinds)
            t0 = perf()
            f = primitive_part(inst.f)
            verdict = orc.oracle_verdict(f, self.ORACLE_PRIMES)
            kinds["oracle"] = perf() - t0
            found.update(inst=inst, f=f, text=text, verdict=verdict)

        _op(tally, tracer, (m, alpha, a_m), body)
        if "verdict" not in found:
            return
        verdict, text = found["verdict"], found["text"]
        if text is not None and verdict.kind == "reducible":
            tally.fail(f"{(m, alpha, a_m)}: certified but oracle-reducible")
        if verdict.kind == "reducible" and not check_witness(found["f"], verdict.witness):
            tally.fail(f"{(m, alpha, a_m)}: reducible witness fails verify_witness")
        tally.digest.update(verdict.kind.encode())
        tally.outcomes.append("certified" if text else verdict.kind)

    def after(self, outcomes, tally):
        return ground_truth(self.seed, self.round(0), outcomes, tally,
                            self.GROUND_TRUTH_SAMPLE)


def ground_truth(seed: int, specs, outcomes, tally: Tally, sample: int) -> dict:
    """Independent factorization by sympy on a seeded subsample of round 0,
    plus the all-ones (4,4) and (6,4) instances over x^2-x+17.  sympy must
    agree with every certified or definite verdict."""
    try:
        import sympy
    except ImportError:
        print("notice: sympy is not installed; ground-truth check skipped")
        return {"ground_truth": "skipped: sympy missing"}
    x = sympy.Symbol("x")

    def irreducible(f: Poly) -> bool:
        _, factors = sympy.factor_list(sympy.Poly(list(reversed(f.coeffs)), x))
        return len(factors) == 1 and factors[0][1] == 1

    rng = random.Random(f"{seed}/ground-truth")
    picks = [(specs[i], outcomes[i])
             for i in sorted(rng.sample(range(len(specs)), sample))]
    standard = Poly(STANDARD)
    abstained = {}
    for m, u in ((4, 4), (6, 4)):
        inst = lag.build_instance(m, u, 1, [Poly((1,))] * m, standard)
        result = cert.certify(inst)
        verdict = orc.oracle_verdict(primitive_part(inst.f), Sweep.ORACLE_PRIMES)
        label = "certified" if isinstance(result, Certificate) else verdict.kind
        picks.append(((m, (u, 1), 1, inst.a_parts, standard), label))
        abstained[f"m={m} u={u}"] = (f"certifier: {type(result).__name__}, oracle: "
                                     f"{verdict.kind}, sympy irreducible: "
                                     f"{irreducible(primitive_part(inst.f))}")
    checked = agreed = 0
    for (m, alpha, a_m, parts, phi), label in picks:
        if label not in ("certified", "irreducible", "reducible"):
            continue
        f = primitive_part(lag.build_instance(m, alpha, a_m, parts, phi).f)
        checked += 1
        if irreducible(f) == (label != "reducible"):
            agreed += 1
        else:
            tally.fail(f"sympy disagrees with {label} on m={m} alpha={alpha} a_m={a_m}", op=0)
    return {"ground_truth": f"sympy {sympy.__version__}: {agreed}/{checked} agree",
            "all_ones_over_x2-x+17": abstained}


# ---------------------------------------------------------------------------

class WitnessSearch(Workload):
    """Fixed reducible-witness searches over x^2-x+17."""

    name = "witness-search"
    kinds = ("search",)
    seeded = False
    # (m, u, coefficient bound, whether a witness exists in the search space)
    SEARCHES = ((2, 2, 1, True), (1, 0, 17, True), (3, 0, 1, False), (2, 4, 3, False))

    def params(self):
        return {"searches": [f"m={m} u={u} B={b} -> {'found' if hit else 'none'}"
                             for m, u, b, hit in self.SEARCHES],
                "base": "x^2-x+17"}

    def round(self, index: int) -> list:
        self.phi = Poly(STANDARD)
        return list(self.SEARCHES)

    def run_op(self, spec, tally, tracer):
        m, u, bound, expect = spec
        out = {}

        def body(kinds):
            t0 = perf()
            out["result"] = orc.search_reducible_witness(m, u, self.phi, bound)
            kinds["search"] = perf() - t0

        _op(tally, tracer, spec, body)
        if "result" not in out:
            return
        result = out["result"]
        if (result is not None) != expect:
            tally.fail(f"{spec!r}: expected {'a witness' if expect else 'none'}, "
                       f"got {'a witness' if result else 'none'}")
        elif result is not None and not check_witness(result[0].f, result[1]):
            tally.fail(f"{spec!r}: witness fails verify_witness")
        tally.digest.update(repr((spec, result is not None)).encode())
        tally.outcomes.append("decided" if (result is not None) == expect else "wrong")


# ---------------------------------------------------------------------------

class ReferenceTables(Workload):
    """The full reference-table check, as ``tables --st-bound 1000000``."""

    name = "reference-tables"
    kinds = ("tables",)
    seeded = False
    # about three quarters of the op is numpy's window maxima, the rest Python
    calibration = (("numpy", 0.75), ("python", 0.25))
    PAIR_BOUND = 10**6

    def params(self):
        return {"pair_bound": self.PAIR_BOUND, "exponent_bound": 60, "subcase_bound": 1000}

    def round(self, index: int) -> list:
        return [self.PAIR_BOUND]

    def run_op(self, spec, tally, tracer):
        out = {}

        def body(kinds):
            t0 = perf()
            out["report"] = tab.verify_reference_tables(pair_bound=spec)
            kinds["tables"] = perf() - t0

        _op(tally, tracer, spec, body)
        if "report" not in out:
            return
        report = out["report"]
        if not report.passed:
            tally.fail("reference tables: " + "; ".join(c.line() for c in report.failures()))
        tally.digest.update("\n".join(report.lines()).encode())
        tally.outcomes.append("decided" if report.passed else "wrong")


WORKLOADS = {w.name: w for w in (CertifyScale, Sweep, WitnessSearch, ReferenceTables)}
