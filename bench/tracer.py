"""Span tracer for the benchmark's traced runs.

The tracer replaces library functions, from the outside, with wrappers that
record a span per call: op, span id, parent span id, name, start, end.
Functions are wrapped in the namespace of the module that imports them
(``laguerrecert.certify.is_irreducible_mod_p``), so a span marks the
boundary between two layers and calls inside one module stay unwrapped;
the few intra-module entries below are named per-layer metrics.

High-frequency leaves (valuations, primality, polynomial evaluation) get no
span of their own: their calls and time are summed per enclosing span name,
and their time is charged to the enclosing span, so memory stays bounded by
the number of non-leaf spans.  Counters (polynomial constructions, witness
candidates) record calls only.  Outside an op nothing is recorded.

A span's self time is its duration minus the part of that interval its
child spans cover, minus its leaves' time; within an op the self times and
leaf times therefore sum to the op's duration.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager

perf = time.perf_counter

# (module, attribute, metric) for spans at layer boundaries.
SPANS = (
    ("laguerre", "sieve_primes", "primes.sieve"),
    ("certify", "sieve_primes", "primes.sieve"),
    ("polyring", "sieve_primes", "primes.sieve"),
    ("oracle", "sieve_primes", "primes.sieve"),
    ("tables", "sieve_primes", "primes.sieve"),
    ("oracle", "factorize", "primes.factorize"),
    ("tables", "largest_prime_factor", "primes.factorize"),
    ("laguerre", "is_irreducible_mod_p", "polyring.irreducible_mod_p"),
    ("certify", "is_irreducible_mod_p", "polyring.irreducible_mod_p"),
    # certify imports phi_expand inside its functions, from polyring's namespace
    ("polyring", "phi_expand", "polyring.phi_expand"),
    ("oracle", "phi_expand", "polyring.phi_expand"),
    ("polyring", "construct_phi", "polyring.construct_phi"),
    ("certify", "build_polygon", "polygon.build_polygon"),
    ("polygon", "polygon_from_points", "polygon.from_points"),
    ("certify", "rightmost_slope", "polygon.rightmost_slope"),
    ("laguerre", "laguerre_coefficients", "laguerre.coefficients"),
    ("tables", "laguerre_coefficients", "laguerre.coefficients"),
    ("laguerre", "build_instance", "laguerre.build_instance"),
    ("oracle", "build_instance", "laguerre.build_instance"),
    ("tables", "build_instance", "laguerre.build_instance"),
    ("laguerre", "LaguerreInstance.valuation_vector", "laguerre.valuation_vector"),
    ("laguerre", "LaguerreInstance.f", "laguerre.assemble_f"),
    ("certify", "find_prime_for_k", "certify.find_prime_for_k"),
    ("certify", "certify", "certify.certify"),
    ("certify", "verify_certificate", "certify.verify"),
    ("certify", "certificate_to_json", "certify.json"),
    ("certify", "certificate_from_json", "certify.json"),
    ("oracle", "oracle_verdict", "oracle.verdict"),
    ("oracle", "degree_pattern", "oracle.degree_pattern"),
    ("oracle", "search_reducible_witness", "oracle.search"),
    ("oracle", "verify_witness", "oracle.verify_witness"),
    ("tables", "verify_pair_sets", "tables.pair_sets"),
    ("tables", "verify_k1_subcases", "tables.k1_subcases"),
    ("tables", "verify_factor_rows", "tables.rows"),
    ("tables", "verify_witness_prime_rows", "tables.rows"),
    ("tables", "verify_exceptional_pair_table", "tables.rows"),
    ("tables", "verify_equations", "tables.equations"),
    ("tables", "verify_reference_tables", "tables.reference"),
)

LEAVES = (
    ("laguerre", "vp_int", "primes.vp"),
    ("laguerre", "vp_rat", "primes.vp"),
    ("polyring", "vp_rat", "primes.vp"),
    ("tables", "vp_rat", "primes.vp"),
    ("laguerre", "is_prime", "primes.is_prime"),
    ("certify", "is_prime", "primes.is_prime"),
    ("polyring", "Poly.__call__", "polyring.poly_eval"),
)

# Call counters; the second counts calls returning something other than None.
COUNTERS = (
    ("polyring", "Poly.__init__", "polyring.poly_new"),
    ("certify", "witness_slope", "certify.witness_slope"),
)

ROOTS = ("setup", "op")


def _unique(names):
    return tuple(dict.fromkeys(names))


SPAN_NAMES = _unique(metric for _, _, metric in SPANS)
LEAF_NAMES = _unique(metric for _, _, metric in LEAVES)
COUNTER_NAMES = _unique(metric for _, _, metric in COUNTERS)


def metric_specs() -> tuple[tuple[str, str, str], ...]:
    """(name, unit, better) of every per-layer metric a traced run reports."""
    out = []
    for name in SPAN_NAMES + LEAF_NAMES:
        out.append((f"{name}.calls", "count", "lower"))
        out.append((f"{name}.self_s", "s", "lower"))
    for name in COUNTER_NAMES:
        out.append((f"{name}.calls", "count", "lower"))
    out += [
        ("polyring.irreducible_mod_p.hit_ratio", "ratio", "higher"),
        ("certify.witness_yield", "ratio", "higher"),
        ("oracle.search.instances_built", "count", "lower"),
        ("bench.setup.self_s", "s", "lower"),
        ("bench.op.self_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
    return tuple(out)


def self_times(spans) -> dict:
    """Self time of each span: duration minus the union of its children's
    intervals (clipped to its own) minus its leaves' time.

    ``spans`` holds records (op, span_id, parent_id, name, start, end,
    leaf_s); roots have parent None.
    """
    children: dict = {}
    for s in spans:
        if s[2] is not None:
            children.setdefault(s[2], []).append((s[4], s[5]))
    out = {}
    for op, sid, parent, name, start, end, leaf_s in spans:
        covered = 0.0
        reach = start
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, reach), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out[sid] = (end - start) - covered - leaf_s
    return out


class Tracer:
    """Records spans while installed; ``uninstall`` restores every original."""

    def __init__(self):
        self.spans: list = []
        self.leaves: dict = {}    # (enclosing span name, leaf) -> [calls, seconds]
        self.counters: dict = {name: [0, 0] for name in COUNTER_NAMES}
        self._stack: list = []    # frames [span id, name, leaf seconds]
        self._next_id = 0
        self._op = 0
        self._saved: list = []

    # -- roots ---------------------------------------------------------
    @contextmanager
    def root(self, name: str):
        """A root span: one op, or the set-up."""
        self._op += 1
        frame = [self._new_id(), name, 0.0]
        self._stack.append(frame)
        start = perf()
        try:
            yield
        finally:
            end = perf()
            self._stack.pop()
            self.spans.append((self._op, frame[0], None, name, start, end, frame[2]))

    # -- wrappers ------------------------------------------------------
    def _span(self, name, fn):
        stack, spans = self._stack, self.spans

        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            parent = stack[-1][0]
            frame = [self._new_id(), name, 0.0]
            stack.append(frame)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                spans.append((self._op, frame[0], parent, name, start, end, frame[2]))
        return traced

    def _leaf(self, name, fn):
        stack, leaves = self._stack, self.leaves

        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - start
                frame = stack[-1]
                frame[2] += dt
                key = (frame[1], name)
                agg = leaves.get(key)
                if agg is None:
                    agg = leaves[key] = [0, 0.0]
                agg[0] += 1
                agg[1] += dt
        return traced

    def _counter(self, name, fn):
        stack, tally = self._stack, self.counters[name]

        def traced(*args, **kwargs):
            result = fn(*args, **kwargs)
            if stack:
                tally[0] += 1
                if result is not None:
                    tally[1] += 1
            return result
        return traced

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    # -- install / restore ---------------------------------------------
    def install(self) -> None:
        """Wrap every entry of SPANS, LEAVES and COUNTERS."""
        for table, make in ((SPANS, self._span), (LEAVES, self._leaf),
                            (COUNTERS, self._counter)):
            for module, attr, metric in table:
                owner = importlib.import_module(f"laguerrecert.{module}")
                *path, last = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = owner.__dict__[last] if isinstance(owner, type) \
                    else getattr(owner, last)
                self._saved.append((owner, last, original))
                if isinstance(original, property):
                    wrapped = property(make(metric, original.fget))
                else:
                    wrapped = make(metric, original)
                setattr(owner, last, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------
    def op_balance(self) -> float:
        """Largest gap, over ops, between an op's duration and the sum of the
        self and leaf times of its spans (zero up to rounding)."""
        selfs = self_times(self.spans)
        total: dict = {}
        duration: dict = {}
        for op, sid, parent, name, start, end, leaf_s in self.spans:
            total[op] = total.get(op, 0.0) + selfs[sid] + leaf_s
            if parent is None:
                duration[op] = end - start
        return max((abs(total[op] - duration[op]) for op in duration), default=0.0)

    def metrics(self) -> dict:
        """Per-layer metrics, every name of metric_specs() except the
        ratios and the overhead, which need outside data."""
        selfs = self_times(self.spans)
        calls = {name: 0 for name in SPAN_NAMES + LEAF_NAMES}
        secs = {name: 0.0 for name in SPAN_NAMES + LEAF_NAMES + ROOTS}
        names = {}
        for op, sid, parent, name, start, end, leaf_s in self.spans:
            names[sid] = name
            if name in calls:
                calls[name] += 1
            secs[name] += selfs[sid]
        for (_, leaf), (n, s) in self.leaves.items():
            calls[leaf] += n
            secs[leaf] += s
        out = {}
        for name in SPAN_NAMES + LEAF_NAMES:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = secs[name]
        for name, (n, _) in self.counters.items():
            out[f"{name}.calls"] = n
        tried, accepted = self.counters["certify.witness_slope"]
        out["certify.witness_yield"] = accepted / tried if tried else 0.0
        out["oracle.search.instances_built"] = sum(
            1 for s in self.spans
            if s[3] == "laguerre.build_instance" and names.get(s[2]) == "oracle.search")
        out["bench.setup.self_s"] = secs["setup"]
        out["bench.op.self_s"] = secs["op"]
        return out

    def write(self, path) -> None:
        """Spans as CSV, then the leaf aggregates per enclosing span."""
        with open(path, "w") as fh:
            fh.write("op,span,parent,name,start,end,leaf_s\n")
            for op, sid, parent, name, start, end, leaf_s in self.spans:
                fh.write(f"{op},{sid},{'' if parent is None else parent},{name},"
                         f"{start!r},{end!r},{leaf_s!r}\n")
            fh.write("\nenclosing,leaf,calls,seconds\n")
            for (enclosing, leaf), (n, s) in sorted(self.leaves.items()):
                fh.write(f"{enclosing},{leaf},{n},{s!r}\n")
