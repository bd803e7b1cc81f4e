import json
import os
import pathlib
import subprocess
import sys

import pytest

from laguerrecert import tables
from laguerrecert.cli import main
from laguerrecert.laguerre import build_instance
from laguerrecert.polyring import Poly, construct_phi, format_poly, parse_poly


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_construct_reducible_row(capsys):
    code, out, _ = run(capsys, "construct", "-m", "2", "-u", "1", "-v", "1",
                       "--am", "3", "--a", "1", "--a0=-4", "--phi", "x^2-x+17")
    assert code == 4
    assert "b: 6, 6, 3" in out
    assert "3/2x^4 - 3x^3 + 111/2x^2 - 54x + 945/2" in out
    assert "divisible by 2" in out


def test_construct_valid_instance(capsys):
    code, out, _ = run(capsys, "construct", "-m", "3", "-u", "0",
                       "--am", "1", "--phi", "x^2-x+17")
    assert code == 0
    assert "hypotheses: all satisfied" in out


def test_construct_json_is_deterministic(capsys):
    args = ("construct", "-m", "3", "-u", "0", "--am", "1",
            "--phi", "x^2-x+17", "--json")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0 and out1 == out2
    data = json.loads(out1)
    assert data["hypotheses_ok"] is True


def test_construct_json_rational_parameter(capsys):
    # b_0 = (2 + 1/2)(1 + 1/2), b_1 = 2 (2 + 1/2), b_2 = a_m
    code, out, _ = run(capsys, "construct", "--json", "-m", "2", "-u", "1", "-v", "2",
                       "--am", "1", "--phi", "x^2-x+17")
    data = json.loads(out)
    assert code == 0 and (data["u"], data["v"]) == (1, 2)
    assert data["b"] == ["15/4", "5", "1"]


def test_construct_rejects_negative_integer_parameter(capsys):
    code, _, err = run(capsys, "construct", "-m", "2", "-u", "-1", "-v", "1",
                       "--am", "1", "--phi", "x^2-x+17")
    assert code == 4
    assert "negative integer" in err


def test_missing_phi_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["construct", "-m", "2", "-u", "1", "--am", "3"])
    assert exc.value.code == 4


def test_non_ascii_digits_are_a_usage_error(capsys):
    # Arabic-Indic "x^2 + 1": polynomial text reads ASCII digits only
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "--f", "x^\u0662 + \u0661"])
    assert exc.value.code == 4
    assert "argument --f: cannot parse polynomial" in capsys.readouterr().err


def test_polygon_command(capsys):
    code, out, _ = run(capsys, "polygon", "--f", "x^2+8x+12", "--phi", "x",
                       "-p", "2")
    assert code == 0
    assert "slopes: 1/1" in out


def test_polygon_json(capsys):
    code, out, _ = run(capsys, "polygon", "--f", "x^2+8x+12", "--phi", "x",
                       "-p", "2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data == {"vertices": [[0, 0], [2, 2]], "slopes": ["1/1"]}


@pytest.mark.parametrize("f, phi", [("5", "x"), ("x+3", "x^2+1")])
def test_polygon_of_one_point_has_no_rightmost_slope(capsys, f, phi):
    # f of degree below deg phi expands to one part: a polygon without edges
    code, out, _ = run(capsys, "polygon", "--f", f, "--phi", phi, "-p", "2")
    assert (code, out) == (0, "vertices: (0,0)\nslopes: \nrightmost slope: none\n")
    code, out, _ = run(capsys, "polygon", "--f", f, "--phi", phi, "-p", "2", "--json")
    assert code == 0 and json.loads(out) == {"vertices": [[0, 0]], "slopes": []}


def test_construct_single_level_square(capsys):
    code, out, _ = run(capsys, "construct", "-m", "1", "-u", "0", "--am", "1",
                       "--a0", "x - 17", "--phi", "x^2-x+17")
    assert code == 0
    assert "f: x^2" in out and "hypotheses: all satisfied" in out


def test_polygon_rejects_composite_p(capsys):
    code, _, err = run(capsys, "polygon", "--f", "x^2+1", "--phi", "x", "-p", "4")
    assert code == 4 and "not prime" in err


def test_polygon_rejects_divisible_input(capsys):
    code, _, err = run(capsys, "polygon", "--f", "x^3", "--phi", "x", "-p", "2")
    assert code == 4 and "divisible" in err


def test_certify_roundtrip(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    code, out, _ = run(capsys, "certify", "-m", "5", "-u", "2", "--am", "1",
                       "--phi", "x^2-x+17", "--out", str(cert))
    assert code == 0
    assert "irreducible-over-Q" in out
    data = json.loads(cert.read_text())
    assert data["small_degree_prime"] == 7

    code, out, _ = run(capsys, "certify", "-m", "5", "-u", "2", "--am", "1",
                       "--phi", "x^2-x+17", "--verify", str(cert))
    assert code == 0 and "verifies" in out


def test_certify_respects_env_home(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("LAGUERRE_CERT_HOME", str(tmp_path))
    code, out, _ = run(capsys, "certify", "-m", "3", "-u", "1", "--am", "1",
                       "--phi", "x^2-x+17")
    assert code == 0
    assert (tmp_path / "certificate-m3-u1-v1.json").exists()
    # an explicit flag beats the environment
    target = tmp_path / "explicit.json"
    code, _, _ = run(capsys, "certify", "-m", "3", "-u", "1", "--am", "1",
                     "--phi", "x^2-x+17", "--out", str(target))
    assert code == 0 and target.exists()


def test_certify_tamper_detected(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    run(capsys, "certify", "-m", "5", "-u", "2", "--am", "1",
        "--phi", "x^2-x+17", "--out", str(cert))
    original = cert.read_text()
    data = json.loads(original)
    data["witnesses"][0]["p"] = 13
    cert.write_text(json.dumps(data))
    code, out, _ = run(capsys, "certify", "-m", "5", "-u", "2", "--am", "1",
                       "--phi", "x^2-x+17", "--verify", str(cert))
    assert code == 2 and "REJECTED" in out
    # a well-formed but short divisibility range is a rejection, not invalid input
    data = json.loads(original)
    w0 = data["witnesses"][0]
    w0["divisibility_range"] = [0, 5 - w0["k"] - 1]
    cert.write_text(json.dumps(data))
    code, out, _ = run(capsys, "certify", "-m", "5", "-u", "2", "--am", "1",
                       "--phi", "x^2-x+17", "--verify", str(cert))
    assert code == 2 and "REJECTED" in out


def test_certify_roundtrip_at_m1600(tmp_path, capsys):
    # the verifier's anchors at a size where every c_j would be large
    cert = tmp_path / "cert.json"
    instance = ("-m", "1600", "-u", "2", "--am", "1",
                "--phi", format_poly(construct_phi(2, 1602)))
    code, _, _ = run(capsys, "certify", *instance, "--out", str(cert))
    assert code == 0
    code, out, _ = run(capsys, "certify", *instance, "--verify", str(cert))
    assert code == 0 and out == "certificate verifies\n"
    data = json.loads(cert.read_text())
    w = data["witnesses"][-1]
    num, den = map(int, w["slope"].split("/"))
    w["slope"] = f"{num + 1}/{den}"
    cert.write_text(json.dumps(data))
    code, out, _ = run(capsys, "certify", *instance, "--verify", str(cert))
    assert code == 2 and out == "certificate REJECTED\n"


@pytest.mark.parametrize("m, name", [("5", "cert.json"), ("1", "cert.json"),
                                     ("5", 'a"b\\cä.json')])
def test_certify_json_nests_the_certificate_file(tmp_path, capsys, m, name):
    # stdout is the indent=2 layout of the written file's certificate and
    # the path; m = 1 has no witnesses
    path = str(tmp_path / name)
    code, out, _ = run(capsys, "certify", "-m", m, "-u", "2", "--am", "1",
                       "--phi", "x^2-x+17", "--out", path, "--json")
    assert code == 0
    with open(path, encoding="utf-8") as fh:
        certificate = json.loads(fh.read())
    assert (certificate["witnesses"] == []) == (m == "1")
    assert out == json.dumps({"certificate": certificate, "path": path}, indent=2) + "\n"


def test_certify_witness_dividing_v_rejected(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    instance = ("-m", "5", "-u", "1", "-v", "2", "--am", "1", "--phi", "x^2-x+17")
    code, _, _ = run(capsys, "certify", *instance, "--out", str(cert))
    assert code == 0
    data = json.loads(cert.read_text())
    data["witnesses"][0]["p"] = 2  # 2 divides v
    cert.write_text(json.dumps(data))
    code, out, _ = run(capsys, "certify", *instance, "--verify", str(cert))
    assert code == 2 and "REJECTED" in out


def test_certify_uncovered_pair(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("LAGUERRE_CERT_HOME", str(tmp_path))
    code, out, _ = run(capsys, "certify", "-m", "2", "-u", "2", "--am", "1",
                       "--phi", "x^2-x+17")
    assert code == 2
    assert "k=1: no witness prime found" in out


def test_tables_subset(capsys):
    code, out, _ = run(capsys, "tables", "--only", "s1", "--st-bound", "1000")
    assert code == 0 and "ALL PASS" in out
    code, out, _ = run(capsys, "tables", "--only", "s3", "--st-bound", "1000")
    assert code == 0 and "9 pairs" in out
    code, out, _ = run(capsys, "tables", "--only", "root3")
    assert code == 0 and "ALL PASS" in out
    code, out, _ = run(capsys, "tables", "--only", "equations",
                       "--exp-bound", "40")
    assert code == 0


def test_tables_failed_check_exits_2(capsys, monkeypatch):
    monkeypatch.setitem(tables.EXPECTED_PAIR_SETS, 1, frozenset({(2, 2)}))
    code, out, _ = run(capsys, "tables", "--only", "s1", "--st-bound", "1000")
    assert code == 2 and out.startswith("FAIL pairs-t1")
    assert out.endswith("FAILURES PRESENT (1 checks)\n")


def test_tables_bounds_below_the_bundled_range_pass(capsys):
    # only the bundled entries within the bound are expected: (79, 2) of
    # pairs-t3 lies past 50, and (3, 2, 2, 3) of equation (i) past exponent 2
    code, out, _ = run(capsys, "tables", "--only", "s3", "--st-bound", "50")
    assert (code, out) == (0, "PASS pairs-t3: 8 pairs up to 50\nALL PASS (1 checks)\n")
    code, out, _ = run(capsys, "tables", "--only", "equations", "--exp-bound", "2")
    assert code == 0 and "PASS equation-i: 3 solutions, bound 2\n" in out
    assert "FAIL" not in out


@pytest.mark.parametrize("argv, table, key, entries", [
    (["--only", "s3", "--st-bound", "50"], "EXPECTED_PAIR_SETS", 3,
     {(3, 2), (4, 2), (8, 2), (14, 2), (23, 2), (79, 2), (4, 4), (5, 4), (7, 4)}),
    (["--only", "equations", "--exp-bound", "2"], "EXPECTED_EQUATION_SOLUTIONS", "i",
     {(3, 1, 2, 1), (2, 2, 3, 1), (5, 1, 2, 1), (3, 2, 2, 3)}),
], ids=["pairs", "equations"])
def test_tables_mutated_entry_within_bound_fails(capsys, monkeypatch, argv, table, key, entries):
    monkeypatch.setitem(getattr(tables, table), key, frozenset(entries))
    code, out, _ = run(capsys, "tables", *argv)
    assert code == 2 and "FAIL " in out


def test_tables_subcases_at_a_trillion(capsys):
    # the k = 1 sets are read off the smooth numbers, so the bound costs nothing
    code, out, _ = run(capsys, "tables", "--only", "subcases",
                       "--subcase-bound", "1000000000000")
    assert code == 0 and out.endswith("ALL PASS (27 checks)\n")


def test_tables_full_default_run(capsys):
    code, out, _ = run(capsys, "tables")
    assert code == 0
    assert "ALL PASS" in out
    assert "erratum" in out  # the corrected witness row is reported


def test_tables_sections_concatenate_to_the_full_run(capsys):
    # every check line of the full run comes from exactly one --only value
    code, full, _ = run(capsys, "tables", "--st-bound", "1000")
    assert code == 0
    pieces = []
    for name in ("factors", "witness", "exceptional", "s1", "s2", "s3", "s4",
                 "equations", "subcases", "root3"):
        code, out, _ = run(capsys, "tables", "--only", name, "--st-bound", "1000")
        assert code == 0, name
        pieces += out.splitlines()[:-1]  # the check lines, not the summary
    assert pieces == full.splitlines()[:-1]
    code, out, _ = run(capsys, "tables", "--only", "exceptional")
    lines = out.splitlines()[:-1]
    assert len(lines) == 21 and all(line.startswith("PASS pairs-u") for line in lines)


def test_oracle_exit_codes(capsys):
    code, out, _ = run(capsys, "oracle", "--f", "x^2-x+17")
    assert code == 0 and "irreducible" in out
    code, out, _ = run(capsys, "oracle", "--f", "x^2-1")
    assert code == 3 and "witness" in out
    code, out, _ = run(capsys, "oracle", "--f", "x^2-x+17", "--prime-budget", "0")
    assert code == 2 and "low confidence" in out


def test_oracle_instance_mode(capsys):
    code, out, _ = run(capsys, "oracle", "-m", "2", "-u", "2", "--am", "1",
                       "--a", "1", "--a0", "1", "--phi", "x^2-x+17")
    assert code == 3
    assert "x^2 - x + 19" in out and "x^2 - x + 23" in out
    code, _, err = run(capsys, "oracle", "-m", "2", "-u", "2", "--am", "1")
    assert code == 4 and "instance parameters" in err


def test_oracle_json_record(capsys):
    code, out, _ = run(capsys, "oracle", "--f", "x^4-2x^3+43x^2-42x+437",
                       "--json")
    assert code == 3
    data = json.loads(out)
    assert data["verdict"] == "reducible"
    assert data["witness"]["g"] == "x^2 - x + 19"
    assert data["possible_degrees"] == [0, 2, 4]


# literals from the per-degree splitting that preceded the packed ring, so a
# change to the F_p arithmetic cannot change which primes the oracle reads
@pytest.mark.parametrize("m, u, primes_used", [
    (4, 4, [5, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]),
    (6, 4, [11]),
    (15, 2, [19, 23, 29, 31, 37, 41, 43, 47, 53]),
])
def test_oracle_json_on_all_ones_instances(capsys, m, u, primes_used):
    code, out, _ = run(capsys, "oracle", "-m", str(m), "-u", str(u), "--am", "1",
                       "--a", "1", "--a0", "1", "--phi", "x^2-x+17", "--json")
    assert code == 0
    assert json.loads(out) == {"verdict": "irreducible", "primes_used": primes_used,
                               "possible_degrees": [0, 2 * m], "low_confidence": False}


def test_witness_search_exit_codes(capsys):
    code, out, _ = run(capsys, "witness-search", "-m", "2", "-u", "2",
                       "--phi", "x^2-x+17", "--bound", "1")
    assert code == 3 and "=" in out
    code, out, _ = run(capsys, "witness-search", "-m", "3", "-u", "0",
                       "--phi", "x^2-x+17", "--bound", "1")
    assert code == 0 and "none-found" in out


def test_witness_search_json(capsys):
    code, out, _ = run(capsys, "witness-search", "-m", "2", "-u", "2",
                       "--phi", "x^2-x+17", "--bound", "1", "--json")
    assert code == 3
    data = json.loads(out)
    assert data["found"] is True and "g" in data


_INSTANCE = ("-m", "5", "-u", "2", "--am", "1", "--phi", "x^2-x+17")


def _verify_argv(tmp_path, text=None, edit=None):
    """certify --verify on a file holding text, or a good certificate after edit."""
    path = tmp_path / "cert.json"
    if text is None:
        main(["certify", *_INSTANCE, "--out", str(path)])
        data = json.loads(path.read_text())
        edit(data)
        text = json.dumps(data)
    path.write_text(text)
    return ["certify", *_INSTANCE, "--verify", str(path)]


_BASE = ("--am", "1", "--phi", "x^2-x+17")
# past the index range (at least 2**63), so refused before anything is
# allocated; values a little below it could allocate gigabytes first
_HUGE = str(10**20)
_TOO_LARGE = "input too large: cannot fit 'int' into an index-sized integer"

# invalid input whose one stderr line is pinned word for word
_INVALID_LINES = {
    "construct-m-1-two-a": (["construct", "-m", "1", "-u", "0", "--a", "5", "--a", "7", *_BASE],
                            "invalid instance: expected 1 lower multipliers, got 3"),
    "construct-m-1-one-a": (["construct", "-m", "1", "-u", "0", "--a", "5", *_BASE],
                            "invalid instance: expected 1 lower multipliers, got 2"),
    "construct-a-count": (["construct", "-m", "4", "-u", "1", "--a", "2", "--a", "3", *_BASE],
                          "invalid instance: expected 4 lower multipliers, got 3"),
    "construct-u-2-v-4": (["construct", "-m", "3", "-u", "2", "-v", "4", *_BASE],
                          "invalid instance: u and v must be coprime"),
    "construct-v-0": (["construct", "-m", "3", "-u", "1", "-v", "0", *_BASE],
                      "invalid instance: v must be positive"),
    "witness-search-u-2-v-4": (["witness-search", "-m", "2", "-u", "2", "-v", "4",
                                "--phi", "x^2-x+17"],
                               "invalid search: u and v must be coprime"),
    "construct-am-0": (["construct", "-m", "3", "-u", "1", "--am", "0", "--phi", "x^2-x+17"],
                       "invalid instance: leading multiplier must be a nonzero integer"),
    "certify-hypothesis": (["certify", "-m", "3", "-u", "1", "--a0", "2", *_BASE],
                           "invalid instance: content of a_m*a_0 is divisible by 2 <= 4"),
    "oracle-f-with-instance": (["oracle", "--f", "x^2-x+17", "-m", "3", "-u", "2", "-v", "4",
                                "--phi", "x^2+1"],
                               "--f cannot be combined with instance flags"),
    # a flag given at its default value is still given
    "oracle-f-with-v-1": (["oracle", "--f", "x^2-x+17", "-v", "1"],
                          "--f cannot be combined with instance flags"),
    "tables-subcase-bound-1": (["tables", "--only", "subcases", "--subcase-bound", "1"],
                               "invalid bound: m_bound must be at least 2"),
    # the exceptional table reads the pair scan at max(bound, 100), yet
    # refuses a bound below 2 as the pair sets do
    "tables-exceptional-st-bound-1": (["tables", "--only", "exceptional", "--st-bound", "1"],
                                      "invalid bound: m_bound must be at least 2"),
    "tables-exp-bound-0": (["tables", "--only", "equations", "--exp-bound", "0"],
                           "invalid bound: exponent bound must be positive"),
    **{f"{command}-{flag}-huge": ([command, *argv, *_BASE], _TOO_LARGE)
       for command in ("construct", "certify", "oracle")
       for flag, argv in (("m", ("-m", _HUGE, "-u", "1")),
                          ("u", ("-m", "3", "-u", _HUGE)),
                          ("v", ("-m", "3", "-u", "1", "-v", _HUGE)))},
    "witness-search-m-huge": (["witness-search", "-m", _HUGE, "-u", "1", "--phi", "x^2-x+17"],
                              _TOO_LARGE),
    "witness-search-u-huge": (["witness-search", "-m", "3", "-u", _HUGE, "--phi", "x^2-x+17"],
                              _TOO_LARGE),
    "oracle-budget-huge": (["oracle", "--f", "x^2+1", "--prime-budget", _HUGE], _TOO_LARGE),
    # search bounds that no run could finish are refused before any work
    "tables-exp-bound-huge": (["tables", "--only", "equations", "--exp-bound", _HUGE],
                              "input too large: exponent bound must be below 2**63"),
    "tables-subcase-bound-huge": (["tables", "--only", "subcases", "--subcase-bound", _HUGE],
                                  "input too large: m_bound must be below 2**63"),
    "witness-search-bound-huge": (["witness-search", "-m", "1", "-u", "0", "--phi", "x^2-x+17",
                                   "--bound", str(2**63)],
                                  "input too large: coefficient bound must be below 2**63"),
    "polygon-p-4": (["polygon", "--f", "x^2+1", "--phi", "x", "-p", "4"], "4 is not prime"),
    "polygon-divisible": (["polygon", "--f", "x^2+x", "--phi", "x", "-p", "2"],
                          "cannot build polygon: constant part is zero: the target is "
                          "divisible by the base; strip that factor before building the polygon"),
    "oracle-no-input": (["oracle"], "need --f or full instance parameters"),
    "oracle-f-constant": (["oracle", "--f", "7"],
                          "need a nonconstant polynomial with integer coefficients"),
}


@pytest.mark.parametrize("argv, line", _INVALID_LINES.values(), ids=_INVALID_LINES)
def test_invalid_input_stderr_line(capsys, argv, line):
    assert run(capsys, *argv) == (4, "", line + "\n")


def test_file_refusal_lines_name_the_path(tmp_path, capsys):
    # the OS error's text names the path, so these lines are built from it
    missing = str(tmp_path / "missing.json")
    assert run(capsys, "certify", *_INSTANCE, "--verify", missing) == (
        4, "", f"invalid certificate file: [Errno 2] No such file or directory: {missing!r}\n")
    target = str(tmp_path / "missing" / "c.json")
    assert run(capsys, "certify", *_INSTANCE, "--out", target) == (
        4, "", f"cannot write certificate: [Errno 2] No such file or directory: {target!r}\n")


def test_certificate_phi_with_non_ascii_digits_is_invalid(tmp_path, capsys):
    # phi written with Arabic-Indic 17, which the text format does not read
    argv = _verify_argv(tmp_path, edit=lambda d: d.update(
        phi=d["phi"].replace("17", "\u0661\u0667")))
    capsys.readouterr()
    code, out, err = run(capsys, *argv)
    assert (code, out) == (4, "")
    assert err.startswith("invalid certificate file: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("edit, result", [
    # any other claim is well formed and false: a rejection
    (lambda d: d.update(conclusion="reducible"), (2, "certificate REJECTED\n", "")),
    (lambda d: (d.pop("conclusion"), d.update(extra="irreducible-over-Q")),
     (4, "", "invalid certificate file: malformed certificate: KeyError: 'conclusion'\n")),
    (lambda d: d.update(conclusion=1),
     (4, "", "invalid certificate file: malformed certificate: conclusion must be str, "
             "got 1\n")),
], ids=["reducible", "missing-extra-key", "not-string"])
def test_certify_verify_reads_the_conclusion(tmp_path, capsys, edit, result):
    argv = _verify_argv(tmp_path, edit=edit)
    capsys.readouterr()
    assert run(capsys, *argv) == result


@pytest.mark.parametrize("make_argv", [
    lambda t: ["certify", *_INSTANCE, "--verify", str(t / "missing.json")],
    lambda t: _verify_argv(t, text='{"m": 5'),
    lambda t: _verify_argv(t, text='{"m": ' + "[" * 200_000 + "]" * 200_000 + "}"),
    lambda t: _verify_argv(t, edit=lambda d: d.pop("witnesses")),
    lambda t: _verify_argv(t, edit=lambda d: d["witnesses"][0].update(slope="1/0")),
    lambda t: _verify_argv(t, edit=lambda d: d.update(m="5")),
    lambda t: _verify_argv(t, edit=lambda d: d.update(m="5", witnesses=[])),
    lambda t: _verify_argv(t, edit=lambda d: d["witnesses"][0].update(p=2.5)),
    lambda t: _verify_argv(t, edit=lambda d: d["witnesses"][0].update(p="7")),
    lambda t: _verify_argv(t, edit=lambda d: d["witnesses"][0].update(p=True)),
    lambda t: _verify_argv(t, edit=lambda d: d.update(small_degree_prime=2.5)),
    lambda t: _verify_argv(t, edit=lambda d: d["witnesses"][0].update(slope="0.5")),
    lambda t: _verify_argv(t, edit=lambda d: d["witnesses"][0].update(
        divisibility_range=[0, float(d["witnesses"][0]["divisibility_range"][1])])),
    lambda t: ["certify", *_INSTANCE, "--out", str(t / "missing" / "c.json")],
    lambda t: ["witness-search", "-m", "0", "-u", "1", "--phi", "x^2-x+17"],
    lambda t: ["oracle", "--f", "1/2x^2+1"],
    lambda t: ["oracle", "-m", "2", "-u", "2", "--a0", "x 17", "--phi", "x^2-x+17"],
    lambda t: ["tables", "--st-bound", "1"],
    # a sieve of 10^18 bytes (2*10^18 + 6 flags): no machine maps that much,
    # so the bytearray sieve refuses it at once
    lambda t: ["tables", "--only", "s1", "--st-bound", str(10**18)],
    # the oracle's prime sieve of 10^18 flags is refused at once the same way
    lambda t: ["oracle", "--f", "x^2-x+17", "--prime-budget", str(10**18)],
    *(lambda t, argv=argv: argv for argv, _ in _INVALID_LINES.values()),
], ids=["missing-file", "not-json", "deeply-nested", "no-witnesses", "slope-1/0", "m-string",
        "m-string-no-witnesses", "p-float", "p-string", "p-bool", "small-degree-prime-float",
        "slope-decimal", "divisibility-range-float", "out-dir-missing", "witness-search-m-0",
        "oracle-fraction", "oracle-a0-missing-sign", "tables-st-bound-1",
        "tables-st-bound-unallocatable", "oracle-budget-unallocatable", *_INVALID_LINES])
def test_malformed_input_exits_invalid(tmp_path, capsys, make_argv):
    argv = make_argv(tmp_path)
    capsys.readouterr()
    code, _, err = run(capsys, *argv)
    assert code == 4
    assert err.count("\n") == 1 and err.strip(), err


@pytest.mark.parametrize("argv", [
    ["certify", *_INSTANCE, "--verify", "cert.json"],
    ["oracle", "--f", "x^99999999999 + 1"],
], ids=["certificate-phi", "oracle-f"])
def test_huge_exponent_is_refused_before_allocation(tmp_path, argv):
    # the dense parser once grew to 770 MB over 60 s on this exponent; a
    # subprocess with a timeout fails the test instead of hanging the suite
    # (only the certify case reads the certificate file)
    main(["certify", *_INSTANCE, "--out", str(tmp_path / "cert.json")])
    data = json.loads((tmp_path / "cert.json").read_text())
    data["phi"] = "x^99999999999"
    (tmp_path / "cert.json").write_text(json.dumps(data))
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-m", "laguerrecert.cli", *argv],
                          capture_output=True, text=True, env=env, cwd=tmp_path,
                          timeout=30)
    assert proc.returncode == 4
    assert "exponent 99999999999 exceeds" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_construct_prints_integers_of_any_size(capsys):
    # over this base, f at m=200 has coefficients of more than 4300 digits
    phi = construct_phi(2, 202)
    code, out, _ = run(capsys, "construct", "-m", "200", "-u", "2", "--am", "1",
                       "--phi", format_poly(phi))
    assert code == 0
    inst = build_instance(200, 2, 1, [Poly.const(1)] * 200, phi)
    assert max(abs(c) for c in inst.f.coeffs) > 10**4300
    f_line, = [line for line in out.splitlines() if line.startswith("f: ")]
    assert parse_poly(f_line[len("f: "):]) == inst.f


def test_import_leaves_numpy_unloaded():
    # numpy is a test and bench dependency only: importing the package and
    # running the whole reference-table check (the window pair scan
    # included) must not load it
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in [env.get("PYTHONPATH")] if p])
    code = ("import sys, laguerrecert, laguerrecert.cli\n"
            "from laguerrecert.tables import verify_reference_tables\n"
            "assert verify_reference_tables(pair_bound=10**4).passed\n"
            "print('numpy' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
