"""Command-line front end.

Subcommands: construct | polygon | certify | tables | oracle | witness-search.
Exit statuses: 0 success/irreducible, 2 uncovered/inconclusive/failed checks,
3 reducible-witness, 4 invalid input.  Output is human-readable text unless
--json is given; one format per run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .certify import (Certificate, certificate_from_json, certificate_to_json,
                      certificate_to_jsonable, certify, verify_certificate)
from .laguerre import build_instance, parameter
from .oracle import oracle_verdict, search_reducible_witness, verdict_to_jsonable
from .polygon import build_polygon, rightmost_slope
from .polyring import Poly, format_poly, parse_poly, phi_expand, primitive_part
from .primes import is_prime
from .tables import (EXPONENT_BOUND, PAIR_BOUND, SECTION_NAMES, SUBCASE_BOUND,
                     verify_reference_tables, verify_section)

EXIT_OK = 0
EXIT_UNCOVERED = 2
EXIT_REDUCIBLE = 3
EXIT_INVALID = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are "invalid input"
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INVALID)


def _poly_arg(text: str) -> Poly:
    try:
        return parse_poly(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _build_parser() -> _Parser:
    parser = _Parser(prog="laguerre-cert",
                     description="Exact irreducibility certificates for "
                                 "Laguerre-type polynomials over a monic base.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_instance_args(p, required=True):
        # a flag not given reads None; _instance_from_args supplies the defaults
        p.add_argument("-m", type=int, required=required, help="number of levels")
        p.add_argument("-u", type=int, required=required, help="parameter numerator")
        p.add_argument("-v", type=int, help="parameter denominator")
        p.add_argument("--am", type=int, required=required, help="leading multiplier")
        p.add_argument("--a", action="append", metavar="POLY",
                       help="multipliers a_1..a_{m-1}; one value broadcasts")
        p.add_argument("--a0", metavar="POLY", help="multiplier a_0")
        p.add_argument("--phi", type=_poly_arg, required=required, metavar="POLY",
                       help="monic base polynomial")

    p = sub.add_parser("construct", help="assemble an instance and report checks")
    add_instance_args(p)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("polygon", help="valuation polygon of f in powers of phi")
    p.add_argument("--f", type=_poly_arg, required=True, metavar="POLY")
    p.add_argument("--phi", type=_poly_arg, required=True, metavar="POLY")
    p.add_argument("-p", type=int, required=True, help="prime")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("certify", help="produce or verify a certificate")
    add_instance_args(p)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", default=None, help="certificate output path")
    p.add_argument("--verify", default=None, metavar="CERT",
                   help="verify this certificate file instead of producing one")

    p = sub.add_parser("tables", help="verify the bundled reference tables")
    p.add_argument("--st-bound", type=int, default=PAIR_BOUND)
    p.add_argument("--exp-bound", type=int, default=EXPONENT_BOUND)
    p.add_argument("--subcase-bound", type=int, default=SUBCASE_BOUND)
    p.add_argument("--only", choices=SECTION_NAMES, default=None)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("oracle", help="certificate-free verdict on a polynomial "
                                      "or an assembled instance")
    p.add_argument("--f", type=_poly_arg, default=None, metavar="POLY")
    add_instance_args(p, required=False)
    p.add_argument("--prime-budget", type=int, default=200)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("witness-search", help="search for a reducible instance")
    p.add_argument("-m", type=int, required=True)
    p.add_argument("-u", type=int, required=True)
    p.add_argument("-v", type=int)
    p.add_argument("--phi", type=_poly_arg, required=True, metavar="POLY")
    p.add_argument("--bound", type=int, default=1, help="multiplier coefficient bound")
    p.add_argument("--json", action="store_true")
    return parser


def _parameter_from_args(args):
    """u/v from -u and -v (default 1), which must be in lowest terms with v > 0."""
    v = 1 if args.v is None else args.v
    if v <= 0:
        raise ValueError("v must be positive")
    if math.gcd(args.u, v) != 1:
        raise ValueError("u and v must be coprime")
    return parameter((args.u, v))


def _instance_from_args(args, relaxed: bool):
    # a_m and a_0 are 1 when not given; a_1..a_{m-1}: ones without --a, one
    # --a value broadcast; the instance refuses any other count
    mids = args.a or ["1"] * (args.m - 1)
    if len(mids) == 1 and args.m >= 3:
        mids = mids * (args.m - 1)
    parts = [parse_poly(text) for text in ["1" if args.a0 is None else args.a0, *mids]]
    a_m = 1 if args.am is None else args.am
    return build_instance(args.m, _parameter_from_args(args), a_m, parts, args.phi,
                          relaxed=relaxed)


def _cmd_construct(args) -> int:
    try:
        inst = _instance_from_args(args, relaxed=True)
    except ValueError as exc:
        print(f"invalid instance: {exc}", file=sys.stderr)
        return EXIT_INVALID
    payload = {
        "m": inst.m,
        "u": inst.u,
        "v": inst.v,
        "b": [str(b) for b in inst.b],
        "f": format_poly(inst.f),
        "laguerre_polynomial": format_poly(inst.laguerre_polynomial),
        "hypotheses_ok": inst.is_valid,
        "violations": list(inst.violations),
    }
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(inst.to_text())
        print("b:", ", ".join(payload["b"]))
        print("f:", payload["f"])
        print("L:", payload["laguerre_polynomial"])
        if inst.is_valid:
            print("hypotheses: all satisfied")
        else:
            for v in inst.violations:
                print(f"hypothesis violated: {v}")
    return EXIT_OK if inst.is_valid else EXIT_INVALID


def _cmd_polygon(args) -> int:
    if not is_prime(args.p):
        print(f"{args.p} is not prime", file=sys.stderr)
        return EXIT_INVALID
    try:
        expansion = phi_expand(args.f, args.phi)
        polygon = build_polygon(expansion, args.p)
    except ValueError as exc:
        print(f"cannot build polygon: {exc}", file=sys.stderr)
        return EXIT_INVALID
    if args.json:
        print(json.dumps(polygon.to_jsonable(), indent=2))
    else:
        print("vertices:", " ".join(f"({i},{h})" for i, h in polygon.vertices))
        print("slopes:", " ".join(f"{s.numerator}/{s.denominator}"
                                  for s in polygon.slopes))
        # a one-point polygon (f of degree below deg phi) has no edge
        print("rightmost slope:",
              "{0.numerator}/{0.denominator}".format(rightmost_slope(polygon))
              if polygon.slopes else "none")
    return EXIT_OK


def _cert_output_path(args, inst) -> str:
    if args.out:
        return args.out
    home = os.environ.get("LAGUERRE_CERT_HOME", ".")
    name = f"certificate-m{inst.m}-u{inst.u}-v{inst.v}.json"
    return os.path.join(home, name)


def _cmd_certify(args) -> int:
    try:
        inst = _instance_from_args(args, relaxed=False)
    except ValueError as exc:
        print(f"invalid instance: {exc}", file=sys.stderr)
        return EXIT_INVALID
    if args.verify:
        try:
            with open(args.verify, "r", encoding="utf-8") as fh:
                cert = certificate_from_json(fh.read())
        except (OSError, ValueError) as exc:
            print(f"invalid certificate file: {exc}", file=sys.stderr)
            return EXIT_INVALID
        ok = verify_certificate(cert, inst)
        if args.json:
            print(json.dumps({"verified": ok}))
        else:
            print("certificate verifies" if ok else "certificate REJECTED")
        return EXIT_OK if ok else EXIT_UNCOVERED
    result = certify(inst)
    if isinstance(result, Certificate):
        path = _cert_output_path(args, inst)
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(certificate_to_json(result) + "\n")
        except OSError as exc:
            print(f"cannot write certificate: {exc}", file=sys.stderr)
            return EXIT_INVALID
        if args.json:
            print(json.dumps({"certificate": certificate_to_jsonable(result),
                              "path": path}, indent=2))
        else:
            print(f"small-degree prime: {result.small_degree_prime}")
            for w in result.witnesses:
                print(f"k={w.k}: p={w.p}, slope={w.slope} < 1/{w.k}")
            print(f"conclusion: {result.conclusion}")
            print(f"certificate written to {path}")
        return EXIT_OK
    if args.json:
        print(json.dumps({"uncovered_k": list(result.uncovered),
                          "small_degree_prime": result.small_degree_prime}))
    else:
        if result.small_degree_prime is None:
            print("no usable small-degree prime")
        for k in result.uncovered:
            print(f"k={k}: no witness prime found")
        print("conclusion: not certified (no reducibility claim)")
    return EXIT_UNCOVERED


def _cmd_tables(args) -> int:
    bounds = {"pair_bound": args.st_bound, "exponent_bound": args.exp_bound,
              "subcase_bound": args.subcase_bound}
    try:
        report = (verify_reference_tables(**bounds) if args.only is None
                  else verify_section(args.only, **bounds))
    except ValueError as exc:  # a bound out of range
        print(f"invalid bound: {exc}", file=sys.stderr)
        return EXIT_INVALID
    if args.json:
        print(json.dumps({"passed": report.passed,
                          "checks": [{"id": c.check_id, "passed": c.passed,
                                      "detail": c.detail} for c in report.checks]},
                         indent=2))
    else:
        for line in report.lines():
            print(line)
        print(f"{'ALL PASS' if report.passed else 'FAILURES PRESENT'} "
              f"({len(report.checks)} checks)")
    return EXIT_OK if report.passed else EXIT_UNCOVERED


def _cmd_oracle(args) -> int:
    if args.f is not None:
        instance_flags = (args.m, args.u, args.v, args.am, args.a, args.a0, args.phi)
        if any(flag is not None for flag in instance_flags):
            print("--f cannot be combined with instance flags", file=sys.stderr)
            return EXIT_INVALID
        f = args.f
    elif args.m is not None and args.u is not None and args.phi is not None:
        try:
            f = _instance_from_args(args, relaxed=True).f
        except ValueError as exc:
            print(f"invalid instance: {exc}", file=sys.stderr)
            return EXIT_INVALID
    else:
        print("need --f or full instance parameters", file=sys.stderr)
        return EXIT_INVALID
    if f.is_zero or f.degree < 1 or not f.is_integral:
        print("need a nonconstant polynomial with integer coefficients", file=sys.stderr)
        return EXIT_INVALID
    verdict = oracle_verdict(primitive_part(f), args.prime_budget)
    if args.json:
        print(json.dumps(verdict_to_jsonable(verdict), indent=2))
    else:
        print(f"verdict: {verdict.kind}")
        print(f"primes used: {list(verdict.degree_set.primes_used)}")
        print(f"possible factor degrees: {sorted(verdict.degree_set.possible)}")
        if verdict.degree_set.low_confidence:
            print("low confidence: no usable primes within budget")
        if verdict.witness is not None:
            w = verdict.witness
            print(f"witness: ({format_poly(w.g)}) * ({format_poly(w.h)}) * {w.c}")
    return {"irreducible": EXIT_OK, "reducible": EXIT_REDUCIBLE,
            "inconclusive": EXIT_UNCOVERED}[verdict.kind]


def _cmd_witness_search(args) -> int:
    try:
        found = search_reducible_witness(args.m, _parameter_from_args(args),
                                         args.phi, args.bound)
    except ValueError as exc:
        print(f"invalid search: {exc}", file=sys.stderr)
        return EXIT_INVALID
    if found is None:
        if args.json:
            print(json.dumps({"found": False}))
        else:
            print("none-found within bound")
        return EXIT_OK
    inst, witness = found
    if args.json:
        print(json.dumps({
            "found": True,
            "instance": inst.to_text().splitlines(),
            "g": format_poly(witness.g),
            "h": format_poly(witness.h),
            "c": str(witness.c),
        }, indent=2))
    else:
        print(inst.to_text())
        print(f"f = {format_poly(inst.f)}")
        print(f"  = ({format_poly(witness.g)}) * ({format_poly(witness.h)}) "
              f"* {witness.c}")
    return EXIT_REDUCIBLE


def main(argv=None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):  # large instances print huge integers
        sys.set_int_max_str_digits(0)
    args = _build_parser().parse_args(argv)
    handler = {
        "construct": _cmd_construct,
        "polygon": _cmd_polygon,
        "certify": _cmd_certify,
        "tables": _cmd_tables,
        "oracle": _cmd_oracle,
        "witness-search": _cmd_witness_search,
    }[args.command]
    try:
        return handler(args)
    except (MemoryError, OverflowError) as exc:
        # a size no index or allocation can hold (-m, -u, -v, --prime-budget,
        # a tables bound), wherever it is first used: ["1"] * (m - 1), a sieve
        print(f"input too large: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
