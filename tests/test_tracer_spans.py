"""The benchmark tracer's spans must see the calls of the layers they name.

A span wraps a module attribute, so a caller that captured the function
object before the tracer was installed would strand it at zero calls.
"""

from laguerrecert import laguerre, tables
from laguerrecert.polyring import parse_poly

from test_tracer_names import _load_tracer


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
