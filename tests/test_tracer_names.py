"""The benchmark tracer wraps library functions by name; every name must resolve."""

import importlib
import importlib.util
import pathlib

TRACER = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracer = _load_tracer()
    entries = tracer.SPANS + tracer.LEAVES + tracer.COUNTERS
    assert entries
    missing = []
    for module, attr, _ in entries:
        owner = importlib.import_module(f"laguerrecert.{module}")
        for part in attr.split("."):
            if not hasattr(owner, part):
                missing.append(f"{module}.{attr}")
                break
            owner = getattr(owner, part)
    assert not missing, missing
