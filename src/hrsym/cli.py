"""Command-line front end.

    hrsym verify <kind> <scenario.json> [--out FILE] [--tol K=V ...]
    hrsym suite  <paper-core|paper-full> [--out FILE] [--tol K=V ...]

Exit codes: 0 all checks pass, 1 a verification check failed, 2 usage or
configuration error, or a report that cannot be written to --out.  Reports
are JSON on stdout (or --out); human-readable pass/fail lines go to stderr.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .scenarios import (
    KINDS,
    SUITE_NAMES,
    ScenarioError,
    _tolerances,
    load_scenario,
    run_scenario,
    run_suite,
)

_SUBCOMMANDS = {"single_rep": "rep"}  # a scenario kind's verify subcommand, where the two differ
_VERIFY_KINDS = tuple(_SUBCOMMANDS.get(kind, kind) for kind in KINDS)


def _parse_tol(pairs) -> dict:
    """The --tol K=V pairs as floats, read like a scenario file's tolerances."""
    out = {}
    for item in pairs or ():
        key, eq, value = item.partition("=")
        if not eq:
            raise ScenarioError(f"--tol expects K=V, got {item!r}")
        try:
            out[key] = float(value)
        except ValueError:
            raise ScenarioError(f"--tol {key}: {value!r} is not a number") from None
    return _tolerances(out, "--tol")


def _emit(report_json: str, out_path):
    if out_path:
        try:
            Path(out_path).write_text(report_json + "\n")
        except OSError as exc:
            raise ScenarioError(f"cannot write report to {out_path}: {exc.strerror or exc}") from None
    else:
        print(report_json)


def _publish(report_json: str, out_path, checks) -> int:
    """Emit the report, print one [PASS]/[FAIL] line per (label, check) and name the failures; the exit code."""
    _emit(report_json, out_path)
    for label, check in checks:
        print(f"[{'PASS' if check.passed else 'FAIL'}] {label}", file=sys.stderr)
    failing = [label for label, check in checks if not check.passed]
    if failing:
        print(f"FAIL: {', '.join(failing)}", file=sys.stderr)
        return 1
    return 0


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
            if _SUBCOMMANDS.get(scenario.kind, scenario.kind) != args.kind:
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
            return _publish(report.render(), args.out, [(c.name, c) for c in report.checks])

        suite_report = run_suite(args.name, tolerances=overrides)
        status = _publish(suite_report.render(), args.out, [
            (f"{label}/{c.name}", c) for label, rep in suite_report.reports for c in rep.checks])
        if status == 0:
            print(
                f"suite {args.name}: {suite_report.check_count()} checks passed "
                f"in {suite_report.wall_time_s:.2f}s",
                file=sys.stderr,
            )
        return status
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
