"""The benchmark tracer wraps library functions by name; every name must resolve."""

import importlib
import importlib.util
import pathlib
import re

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


def test_every_import_kept_for_the_tracer_is_wrapped():
    # an import kept only so the tracer can wrap it (marked noqa: F401)
    # must name a (module, attribute) pair that the tracer still wraps
    tracer = _load_tracer()
    wrapped = {(module, attr) for module, attr, _ in
               tracer.SPANS + tracer.LEAVES + tracer.COUNTERS}
    src = pathlib.Path(__file__).resolve().parent.parent / "src" / "laguerrecert"
    kept, unparsed = set(), []
    for path in sorted(src.glob("*.py")):
        for line in path.read_text(encoding="utf-8").splitlines():
            if "# noqa: F401" not in line:
                continue
            names = re.match(r"from \.\w+ import (\w+(?:, \w+)*)  #", line)
            if names is None:
                unparsed.append(f"{path.name}: {line}")
                continue
            kept.update((path.stem, name) for name in names[1].split(", "))
    assert not unparsed, unparsed
    assert kept, "no import kept for the tracer was found"
    assert kept <= wrapped, sorted(kept - wrapped)
