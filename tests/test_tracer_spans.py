"""The benchmark tracer's spans must see the calls of the layers they name.

A span wraps a module attribute, so a caller that captured the function
object before the tracer was installed would strand it at zero calls.
"""

import importlib

from laguerrecert import laguerre, oracle, polyring, tables
from laguerrecert.polyring import parse_poly

from test_tracer_names import _load_tracer

# the package re-exports the function certify, which shadows the module name
cm = importlib.import_module("laguerrecert.certify")


def test_reference_table_spans_record_calls():
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        with tracer.root("op"):
            tables.verify_reference_tables(pair_bound=10**4)
            laguerre.build_instance(2, 1, 1, [1, 1], parse_poly("x^2 - x + 17"))
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    for name in ("tables.pair_sets", "tables.rows", "tables.equations",
                 "tables.k1_subcases", "tables.reference", "laguerre.build_instance"):
        assert metrics[f"{name}.calls"] > 0, name


def test_certify_and_sweep_spans_record_calls():
    # one small round of certify-scale and sweep work: build, certify, JSON
    # out and in, verify on a fresh instance, and the oracle
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        with tracer.root("op"):
            phi = polyring.construct_phi(2, 12)
            inst = laguerre.build_instance(10, 2, 1, [1] * 10, phi)
            cert = cm.certificate_from_json(cm.certificate_to_json(cm.certify(inst)))
            assert cm.verify_certificate(cert, laguerre.build_instance(10, 2, 1, [1] * 10, phi))
            oracle.oracle_verdict(inst.f, prime_budget=60)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    for name in ("certify.certify", "certify.verify", "certify.json",
                 "laguerre.build_instance", "laguerre.valuation_vector",
                 "laguerre.assemble_f", "polygon.from_points", "polygon.rightmost_slope",
                 "polyring.irreducible_mod_p", "polyring.construct_phi", "oracle.verdict",
                 "oracle.degree_pattern", "primes.sieve"):
        assert metrics[f"{name}.calls"] > 0, name
