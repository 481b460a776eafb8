"""Command line front end: analyze a configuration, verify a certificate, run self checks.

Exit codes: 0 for a finite verdict or a successful verification, 2 for an
inconclusive verdict, 1 for errors (including usage errors, rejected
certificates and failed self checks).  Certificates go to stdout or --out;
diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from typing import Any, NoReturn

from .certificate import (
    build_certificate,
    error_document,
    parse_config,
    serialize_certificate,
    serialize_document,
    verify_document,
)
from .places import RamificationData
from .rigidity import CurveType, euler_bound
from .selfcheck import selfcheck


def _parse_int(text: str, flag: str) -> int:
    """A decimal integer: an optional '-' and ASCII digits; anything else raises ValueError naming the flag."""
    if not re.fullmatch(r"-?[0-9]+", text):
        raise ValueError(f"{flag}: invalid literal for int() with base 10: {text!r}")
    return int(text)


def _parse_int_list(text: str, flag: str) -> list[int]:
    """Comma list of decimal integers, empty for empty text; a bad entry raises ValueError naming the flag."""
    return [_parse_int(part, flag) for part in text.split(",")] if text else []


def _parse_curve(text: str) -> tuple[int, int]:
    parts = _parse_int_list(text, "--curve")
    if len(parts) != 2:
        raise ValueError(f"--curve: must be 'g,n', got {text!r}")
    return parts[0], parts[1]


def _read_json(path: str) -> Any:
    """Parse a JSON file; raises OSError or ValueError (bad UTF-8, bad JSON, nesting too deep)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply to parse") from None


def _analyze_inputs(args: argparse.Namespace) -> tuple[RamificationData, CurveType]:
    """The configuration from --config or from the value flags, through the one parser."""
    flags = {"--p": args.p, "--f": args.f, "--ram-inf": args.ram_inf, "--ram-fin": args.ram_fin, "--curve": args.curve}
    if args.config is not None:
        given = [flag for flag, value in flags.items() if value is not None]
        if given:
            raise ValueError(f"--config cannot be combined with {', '.join(given)}")
        return parse_config(_read_json(args.config))
    missing = [flag for flag in ("--p", "--f", "--curve") if flags[flag] is None]
    if missing:
        raise ValueError(f"missing {', '.join(missing)} (or use --config)")
    g, n = _parse_curve(args.curve)
    rd = {
        "f": _parse_int(args.f, "--f"),
        "p": _parse_int(args.p, "--p"),
        "s_fin_count": 0 if args.ram_fin is None else _parse_int(args.ram_fin, "--ram-fin"),
        "s_inf": _parse_int_list(args.ram_inf or "", "--ram-inf"),
    }
    return parse_config({"curve": {"g": g, "n": n}, "rd": rd})


def _emit(payload: str, out: str | None) -> bool:
    """Write payload to --out, or to stdout without it; a write that fails is an error line and False."""
    try:
        if out is None:
            sys.stdout.write(payload)
        else:
            with open(out, "w", encoding="utf-8") as handle:
                handle.write(payload)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return False
    return True


def _cmd_analyze(args: argparse.Namespace) -> int:
    try:
        cert = build_certificate(*_analyze_inputs(args))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        _emit(serialize_document(error_document(str(exc))), args.out)
        return 1
    if not _emit(serialize_certificate(cert), args.out):
        return 1
    # finite exactly when 2g - 2 + n = 2: the Higgs map is forced and every ordinary locus is contradicted
    cause = "" if cert.verdict == "finite" else f"2g-2+n = {euler_bound(cert.curve)}, not 2; "
    top = cert.split[cert.rd]  # the root's entry: its bound and the tree size, without listing nodes
    bound = top.degree_bound
    root = "dimension-zero root, no degree bound" if bound is None else f"root degree bound={bound}"
    print(f"verdict: {cert.verdict} ({cause}nodes={top.size}, {root})", file=sys.stderr)
    return 0 if cert.verdict == "finite" else 2


def _cmd_verify(args: argparse.Namespace) -> int:
    try:
        doc = _read_json(args.infile)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result = verify_document(doc)
    if result:
        print("verified", file=sys.stderr)
        return 0
    for failure in result.failures:
        print(f"rejected: {failure}", file=sys.stderr)
    return 1


def _cmd_selfcheck(args: argparse.Namespace) -> int:
    try:
        report = selfcheck(_parse_int(args.max_f, "--max-f"), _parse_int_list(args.primes, "--primes"))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        doc = {
            "max_f": report.max_f,
            "primes": list(report.primes),
            "ok": report.ok,
            "suites": [suite._asdict() for suite in report.suites],
        }
        sys.stdout.write(serialize_document(doc))
        return 0 if report.ok else 1
    if not report.suites:
        print(f"no suites to run for max_f={report.max_f}")
        return 0
    for suite in report.suites:
        status = "PASS" if suite.passed else "FAIL"
        line = f"{status} {suite.name} (checked {suite.checked}, {suite.scope}, {suite.seconds:.2f}s)"
        if suite.counterexample is not None:
            line += f" counterexample: {suite.counterexample}"
        print(line)
    total = sum(suite.seconds for suite in report.suites)
    print(f"{'all suites passed' if report.ok else 'FAILURES PRESENT'} in {total:.2f}s")
    return 0 if report.ok else 1


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, like every other error, so that exit code 2 means only "inconclusive"."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gocert",
        description="Stratum recursion, Hasse degree bounds, and finiteness certificates "
        "for quaternionic Shimura data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="build a finiteness certificate")
    analyze.add_argument("--p", help="inert prime")
    analyze.add_argument("--f", help="number of archimedean places")
    analyze.add_argument("--ram-inf", help="comma list of ramified archimedean places (default none)")
    analyze.add_argument("--ram-fin", help="count of ramified finite places (default 0)")
    analyze.add_argument("--curve", help="curve type as 'g,n'")
    analyze.add_argument("--config", help="JSON config block, as in a certificate's 'config', instead of flags")
    analyze.add_argument("--out", help="write the certificate to this path instead of stdout")
    analyze.set_defaults(run=_cmd_analyze)

    verify = sub.add_parser("verify", help="replay and check a certificate document")
    verify.add_argument("--in", dest="infile", required=True, help="certificate path")
    verify.set_defaults(run=_cmd_verify)

    check = sub.add_parser("selfcheck", help="run the exhaustive invariant suites")
    check.add_argument("--max-f", default="4", help="largest place count to enumerate, at most 12")
    check.add_argument("--primes", default="2,3", help="comma list of primes")
    check.add_argument("--json", action="store_true", help="print the report as one JSON object")
    check.set_defaults(run=_cmd_selfcheck)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.run(args)


if __name__ == "__main__":
    raise SystemExit(main())
