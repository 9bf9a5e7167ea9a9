"""Command-line front end.

    hrsym verify <kind> <scenario.json> [--out FILE] [--tol K=V ...]
    hrsym suite  <paper-core|paper-full> [--out FILE] [--tol K=V ...]

Exit codes: 0 all checks pass, 1 a verification check failed, 2 usage or
configuration error.  Reports are JSON on stdout (or --out); human-readable
pass/fail lines go to stderr.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .scenarios import (
    DEFAULT_TOLERANCES,
    SUITE_NAMES,
    ScenarioError,
    check_tolerance,
    load_scenario,
    run_scenario,
    run_suite,
)

_VERIFY_KINDS = ("algebra", "uea", "rep", "composite", "spectrum", "dynamics")
_KIND_ALIASES = {"rep": "single_rep"}


def _parse_tol(pairs) -> dict:
    out = {}
    for item in pairs or ():
        if "=" not in item:
            raise ScenarioError(f"--tol expects K=V, got {item!r}")
        key, _, value = item.partition("=")
        if key not in DEFAULT_TOLERANCES:
            raise ScenarioError(
                f"unknown tolerance {key!r} (known: {', '.join(sorted(DEFAULT_TOLERANCES))})"
            )
        try:
            number = float(value)
        except ValueError:
            raise ScenarioError(f"--tol {key}: {value!r} is not a number") from None
        out[key] = check_tolerance(key, number, "--tol")
    return out


def _emit(report_json: str, out_path):
    if out_path:
        Path(out_path).write_text(report_json + "\n")
    else:
        print(report_json)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hrsym",
        description="verify operator-algebra identities, representations, and flows",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run the checks of one scenario file")
    verify.add_argument("kind", choices=_VERIFY_KINDS)
    verify.add_argument("scenario", help="path to a scenario JSON file")
    verify.add_argument("--out", help="write the JSON report here instead of stdout")
    verify.add_argument("--tol", action="append", metavar="K=V",
                        help="tolerance override (repeatable)")

    suite = sub.add_parser("suite", help="run a named verification suite")
    suite.add_argument("name", choices=SUITE_NAMES)
    suite.add_argument("--out", help="write the JSON report here instead of stdout")
    suite.add_argument("--tol", action="append", metavar="K=V",
                       help="tolerance override (repeatable)")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)

    try:
        overrides = _parse_tol(args.tol)
        if args.command == "verify":
            scenario = load_scenario(args.scenario)
            expected_kind = _KIND_ALIASES.get(args.kind, args.kind)
            if scenario.kind != expected_kind:
                raise ScenarioError(
                    f"scenario kind {scenario.kind!r} does not match subcommand {args.kind!r}"
                )
            if overrides:
                # explicit command-line values outrank the file's own overrides
                scenario = type(scenario)(
                    kind=scenario.kind,
                    payload=scenario.payload,
                    tolerances={**scenario.tolerances, **overrides},
                )
            report = run_scenario(scenario)
            _emit(report.render(), args.out)
            for check in report.checks:
                tag = "PASS" if check.passed else "FAIL"
                print(f"[{tag}] {check.name}", file=sys.stderr)
            if not report.passed:
                names = ", ".join(report.failing_names())
                print(f"FAIL: {names}", file=sys.stderr)
                return 1
            return 0

        suite_report = run_suite(args.name, tolerances=overrides)
        _emit(suite_report.render(), args.out)
        for label, rep in suite_report.reports:
            for check in rep.checks:
                tag = "PASS" if check.passed else "FAIL"
                print(f"[{tag}] {label}/{check.name}", file=sys.stderr)
        if not suite_report.passed:
            names = ", ".join(suite_report.failing_names())
            print(f"FAIL: {names}", file=sys.stderr)
            return 1
        print(
            f"suite {args.name}: {suite_report.check_count()} checks passed "
            f"in {suite_report.wall_time_s:.2f}s",
            file=sys.stderr,
        )
        return 0
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
