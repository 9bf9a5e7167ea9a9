"""Correctness gate, applied to every iteration and never skipped.

A scenario deviates when
- it raised (a `ScenarioError` or any other exception);
- the set of failing checks differs from its expectation (negative controls
  must fail exactly their named check, everything else must pass);
- a headline value misses the suite's tolerance: `x_naive:p` fits 2 hbar,
  `x_com:p` and `r:q` fit hbar, and the free-flow phase slope is -calV/hbar;
- on `paper`, its label, check names or anchors differ from the listing
  recorded at the seed commit (`paper_listing.json`, 25 scenarios, 55 checks).
"""

from __future__ import annotations

import json
from pathlib import Path

LISTING_PATH = Path(__file__).with_name("paper_listing.json")

# DEFAULT_TOLERANCES of hrsym.scenarios at the seed commit; fixed here so a
# change to the program's defaults cannot loosen the gate.
TOL_CCR_COEFFICIENT = 1e-12
TOL_PHASE = 1e-6

# check name -> expected coefficient in units of hbar
_CCR_HEADLINES = {"ccr:x_naive:p": 2.0, "ccr:x_com:p": 1.0, "ccr:r:q": 1.0}


def load_listing() -> dict:
    return json.loads(LISTING_PATH.read_text())


def listing_of(outcomes) -> list:
    """[{label, checks: [[name, anchor], ...]}] of successful scenario reports."""
    return [{"label": label, "checks": [[c.name, c.anchor] for c in report.checks]}
            for label, report in outcomes if not isinstance(report, BaseException)]


def _hbar(payload) -> float:
    if "particleA" in payload:
        return float(payload["particleA"].get("hbar", 1.0))
    return float(payload.get("hbar", 1.0))


def headline_errors(scenario: dict, report) -> list:
    payload = scenario["payload"]
    hbar = _hbar(payload)
    errors = []
    for c in report.checks:
        if c.name in _CCR_HEADLINES:
            want = _CCR_HEADLINES[c.name] * hbar
            got = c.metrics["coefficient"]
            if not abs(got - want) <= TOL_CCR_COEFFICIENT:
                errors.append(f"{c.name} coefficient {got!r}, want {want!r}")
        elif c.name == "flow_agreement_free":
            want = -float(payload.get("calV", 0.0)) / hbar
            if c.metrics["phase_slope"] != want:
                errors.append(f"phase slope {c.metrics['phase_slope']!r}, want {want!r}")
            if not c.metrics["max_phase_error"] <= TOL_PHASE:
                errors.append(f"phase error {c.metrics['max_phase_error']!r} > {TOL_PHASE}")
    return errors


def check(items, outcomes, listing: dict | None = None) -> list:
    """Deviations of one iteration as (label, reason) pairs, at most one per scenario.

    `items` are the workload's `Item`s in order and `outcomes` the matching
    (label, RunReport or exception) pairs.  With a `listing`, labels, check
    names, anchors and counts must also match it.
    """
    deviations = []
    expected = {it.label: it for it in items}
    for label, report in outcomes:
        item = expected.get(label)
        if item is None:
            deviations.append((label, "unexpected scenario"))
            continue
        if isinstance(report, BaseException):
            deviations.append((label, f"raised {type(report).__name__}: {report}"))
            continue
        failing = frozenset(report.failing_names())
        if failing != item.expect_fail:
            deviations.append((label, f"failing checks {sorted(failing)}, "
                                      f"expected {sorted(item.expect_fail)}"))
            continue
        errors = headline_errors(item.scenario, report)
        if errors:
            deviations.append((label, "; ".join(errors)))
    seen = {label for label, _ in outcomes}
    deviations.extend((it.label, "not run") for it in items if it.label not in seen)
    if listing is not None:
        deviations.extend(_listing_deviations(listing, outcomes, {d[0] for d in deviations}))
    return deviations


def _listing_deviations(listing: dict, outcomes, already: set) -> list:
    got = {entry["label"]: entry["checks"] for entry in listing_of(outcomes)}
    out = []
    for entry in listing["scenarios"]:
        label = entry["label"]
        if label not in already and label in got and got[label] != entry["checks"]:
            out.append((label, f"checks {got[label]} differ from the recorded {entry['checks']}"))
    n_scenarios = len(outcomes)
    n_checks = sum(len(c) for c in got.values())
    if (n_scenarios, n_checks) != (listing["scenario_count"], listing["check_count"]):
        out.append(("suite", f"{n_scenarios} scenarios / {n_checks} checks, recorded "
                             f"{listing['scenario_count']} / {listing['check_count']}"))
    return out
