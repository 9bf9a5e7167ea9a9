"""Write the reports of every shipped and benchmark scenario to one JSON file, for a diff.

    python3 scripts/report_snapshot.py OUT.json

The 97 reports are `paper-core` and `paper-full`, the six `scenarios/*.json`,
and every `operators`, `flows` and `exact` item of `perfbench/workloads.py`
at seeds 1-3 plus the size-ladder points.  Each is keyed by its source and
label and written without `wall_time_s`, the one field that differs between
runs, so two checkouts agree on every report exactly when
`diff` finds nothing.  The script only reads `perfbench/`.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from hrsym.scenarios import load_scenario, run_scenario, run_suite, scenario_from_dict  # noqa: E402
from perfbench import workloads  # noqa: E402

SEEDS = (1, 2, 3)


def _without_wall_time(value):
    if isinstance(value, dict):
        return {k: _without_wall_time(v) for k, v in value.items() if k != "wall_time_s"}
    if isinstance(value, list):
        return [_without_wall_time(v) for v in value]
    return value


def _report(report) -> dict:
    # round-trip through the rendered text, so the snapshot holds what a user reads
    return _without_wall_time(json.loads(report.render()))


def reports() -> dict:
    out = {}
    for suite in ("paper-core", "paper-full"):
        out[f"suite/{suite}"] = _report(run_suite(suite))
    for path in sorted((ROOT / "scenarios").glob("*.json")):
        out[f"scenarios/{path.name}"] = _report(run_scenario(load_scenario(path)))
    for workload in ("operators", "flows", "exact"):
        for seed in SEEDS:
            for item in workloads.build(workload, seed):
                sc = scenario_from_dict(item.scenario, where=item.label)
                out[f"{workload}/{seed}/{item.label}"] = _report(run_scenario(sc))
        for label, raw, _ in workloads.ladder(workload):
            out[f"{workload}/ladder/{label}"] = _report(run_scenario(scenario_from_dict(raw, where=label)))
    return out


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    snapshot = reports()
    Path(args[0]).write_text(json.dumps(snapshot, indent=1, sort_keys=True) + "\n")
    print(f"{len(snapshot)} reports written to {args[0]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
