"""The library's records: repr text, fields, defaults, equality, immutability,
their JSON text, and an import that loads neither dataclasses nor inspect."""

import hashlib
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

from laguerrecert.certify import (Certificate, ExclusionWitness, FailureReport,
                                  certificate_from_json, certificate_to_json, certify)
from laguerrecert.laguerre import build_instance
from laguerrecert.oracle import DegreeSet, FactorWitness, Verdict
from laguerrecert.polygon import NewtonPolygon
from laguerrecert.polyring import Poly
from laguerrecert.tables import Check, Report

_WITNESS = ExclusionWitness(k=1, p=3, slope=Fraction(1, 2))
_DEGREES = DegreeSet(possible=frozenset({0, 2}), primes_used=(3,))
_FACTORS = FactorWitness(g=Poly((1, 1)), h=Poly((-1, 1)), c=Fraction(1))


def _records(phi17):
    """(record, its repr text, its field names, its defaults)."""
    return [
        (_WITNESS,
         "ExclusionWitness(k=1, p=3, slope=Fraction(1, 2), divisibility_checked=True)",
         ("k", "p", "slope", "divisibility_checked"), {"divisibility_checked": True}),
        (Certificate(m=2, u=2, v=1, phi=phi17, small_degree_prime=2, witnesses=(_WITNESS,)),
         "Certificate(m=2, u=2, v=1, phi=Poly([17, -1, 1]), small_degree_prime=2, "
         "witnesses=(ExclusionWitness(k=1, p=3, slope=Fraction(1, 2), "
         "divisibility_checked=True),), conclusion='irreducible-over-Q')",
         ("m", "u", "v", "phi", "small_degree_prime", "witnesses", "conclusion"),
         {"conclusion": "irreducible-over-Q"}),
        (FailureReport(m=2, u=2, v=1, small_degree_prime=None, uncovered=(1,), witnesses=()),
         "FailureReport(m=2, u=2, v=1, small_degree_prime=None, uncovered=(1,), witnesses=())",
         ("m", "u", "v", "small_degree_prime", "uncovered", "witnesses"), {}),
        (_DEGREES, "DegreeSet(possible=frozenset({0, 2}), primes_used=(3,))",
         ("possible", "primes_used"), {}),
        (_FACTORS, "FactorWitness(g=Poly([1, 1]), h=Poly([-1, 1]), c=Fraction(1, 1))",
         ("g", "h", "c"), {}),
        (Verdict(kind="reducible", witness=_FACTORS, degree_set=_DEGREES),
         "Verdict(kind='reducible', witness=FactorWitness(g=Poly([1, 1]), h=Poly([-1, 1]), "
         "c=Fraction(1, 1)), degree_set=DegreeSet(possible=frozenset({0, 2}), "
         "primes_used=(3,)))",
         ("kind", "witness", "degree_set"), {}),
        (NewtonPolygon(points=((0, 0), (1, 1)), vertices=((0, 0), (1, 1))),
         "NewtonPolygon(points=((0, 0), (1, 1)), vertices=((0, 0), (1, 1)))",
         ("points", "vertices"), {}),
        (Check("a", True), "Check(check_id='a', passed=True, detail='')",
         ("check_id", "passed", "detail"), {"detail": ""}),
    ]


def test_records_keep_repr_fields_and_defaults(phi17):
    for record, text, fields, defaults in _records(phi17):
        kind = type(record)
        assert repr(record) == text
        assert kind._fields == fields, kind
        assert kind._field_defaults == defaults, kind
        # positional construction follows the field order
        assert kind(*(getattr(record, name) for name in fields)) == record


def test_records_compare_by_fields(phi17):
    for record, _, fields, _ in _records(phi17):
        kind = type(record)
        copy = kind(**{name: getattr(record, name) for name in fields})
        assert copy == record and hash(copy) == hash(record)
        changed = record._replace(**{fields[0]: "other"})
        assert changed != record and changed._replace(**{fields[0]: record[0]}) == record


def test_records_are_immutable(phi17):
    for record, _, fields, _ in _records(phi17):
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
        with pytest.raises(AttributeError):
            record.extra = 1


def test_report_holds_checks_in_order():
    report = Report()
    assert repr(report) == "Report(checks=[])" and report.passed
    report.add("a", True)
    report.add("b", 0, "no")
    assert repr(report) == ("Report(checks=[Check(check_id='a', passed=True, detail=''), "
                            "Check(check_id='b', passed=False, detail='no')])")
    assert report.lines() == ["PASS a", "FAIL b: no"]
    assert report.failures() == [Check("b", False, "no")] and not report.passed
    assert report == Report([Check("a", True), Check("b", False, "no")])
    assert report != Report() and Report() == Report()
    assert Report().checks is not Report().checks  # no shared default list


def test_certificate_json_text_is_pinned(phi17):
    # the text written for this certificate before the records became
    # NamedTuples, and the parser's record writes the same bytes back
    inst = build_instance(9, 2, 1, [Poly.const(1)] * 9, phi17)
    text = certificate_to_json(certify(inst))
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "4a0538b5a027d473cacd9a7af2987d6ab5f675009f5bbc766aed087c09e1a5c5"
    back = certificate_from_json(text)
    assert back == certify(inst) and certificate_to_json(back) == text


_IMPORT_ADDS = """
import sys
before = set(sys.modules)
import laguerrecert
print(" ".join(sorted({"dataclasses", "inspect"} & (set(sys.modules) - before))))
"""


def test_import_loads_neither_dataclasses_nor_inspect():
    # a site that loads either module before the import does not count
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", _IMPORT_ADDS],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""
