"""Command-line contract: exit codes, report shape, determinism, suites."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hrsym import ANCHOR_REGISTRY, build_algebra
from hrsym.scenarios import ScenarioError, _jsonable, load_scenario, run_scenario, scenario_from_dict


SRC = Path(__file__).resolve().parent.parent / "src"


def cli_env(**extra) -> dict:
    """This environment with the checkout's `src` first on PYTHONPATH, for `python -m hrsym`."""
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    return dict(os.environ, PYTHONPATH=path, **extra)


def run_cli(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "hrsym", *args],
        capture_output=True,
        text=True,
        env=cli_env(),
        **kwargs,
    )


@pytest.fixture
def algebra_scenario(tmp_path):
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps({"kind": "algebra", "payload": {"name": "hr3"}}))
    return path


@pytest.fixture
def mutated_scenario(tmp_path):
    # flip one structure constant: [K1, P1] = -M instead of +M
    desc = build_algebra("hr3").to_descriptor()
    for entry in desc["brackets"]:
        if entry["a"] == "K1" and entry["b"] == "P1":
            entry["terms"][0]["num"] = -1
    desc["name"] = "hr3_flipped"
    path = tmp_path / "mutated.json"
    path.write_text(json.dumps({"kind": "algebra", "payload": {"descriptor": desc}}))
    return path


# a small harmonic-trap packet whose boundary weight sits between 1e-9 and 1e-6
EHRENFEST = {"check": "ehrenfest", "levels": 12, "mass": 1.0,
             "potential": {"kind": "poly_x", "coefficients": [0.0, 0.0, 0.5]},
             "t_max": 1.0, "steps": 100, "alpha": [1.0, 0.0], "tol": 1e-4}

# a composite whose boundary weight sits between 1e-7 and 1e-6; at 18 levels
# the momentum drifts by about 1e-7, hence the looser com_momentum tolerance
COM_DECOUPLING = {"check": "com_decoupling",
                  "particleA": {"mass": 1.0, "dims": 1, "levels": 18},
                  "particleB": {"mass": 2.0, "dims": 1, "levels": 18},
                  "coefficients": [0.0, 0.05], "alpha_a": [0.3, 0.2], "alpha_b": [-0.2, 0.1],
                  "t_max": 1.0, "steps": 10}


PAIR = {"particleA": {"mass": 1.0, "dims": 1, "levels": 4}, "particleB": {"mass": 2.0, "dims": 1, "levels": 4}}
FLOW = {"check": "flow_compare", "levels": 8, "calV": 1.0, "t_max": 0.5, "steps": 4}

# (kind, payload, field): each payload carries one integer field that is a
# bool, a non-integral number or a string, and must be refused naming it
INTEGER_FIELDS = [
    ("single_rep", {"mass": 1.0, "dims": 1, "levels": 2.5}, "levels"),
    ("single_rep", {"mass": 1.0, "dims": 1, "levels": True}, "levels"),
    ("single_rep", {"mass": 1.0, "dims": 1.5, "levels": 4}, "dims"),
    ("single_rep", {"mass": 1.0, "dims": "1", "levels": 4}, "dims"),
    ("single_rep", {"mass": 1.0, "dims": 1, "levels": 4, "margin": 1.5}, "margin"),
    ("single_rep", {"mass": 1.0, "dims": 1, "levels": 4, "margin": True}, "margin"),
    ("single_rep", {"mass": 1.0, "dims": 1, "levels": 4, "margin": "2"}, "margin"),
    ("single_rep", {"mass": 1.0, "dims": 1, "levels": 4, "zeta": 2.0, "zeta_margin": 1.5}, "zeta_margin"),
    ("composite", {**PAIR, "margin": 1.5}, "margin"),
    ("composite", {**PAIR, "margin": False, "ccr": False, "reducibility": True}, "margin"),
    ("composite", {**PAIR, "particleB": {"mass": 2.0, "dims": 1, "levels": 4.5}}, "levels"),
    ("spectrum", {"n_max": 2.9}, "n_max"),
    ("spectrum", {"n_max": "2"}, "n_max"),
    ("dynamics", {**FLOW, "steps": 20.7}, "steps"),
    ("dynamics", {**FLOW, "steps": "4"}, "steps"),
    ("dynamics", {**FLOW, "dims": 1.5}, "dims"),
    ("dynamics", {**FLOW, "levels": 8.5}, "levels"),
    ("dynamics", {"check": "extra_casimir", "levels": 6, "calV": 1.0, "margin": 1.5}, "margin"),
    ("dynamics", {"check": "relative_conservation", "n_max": 2.5, "t_max": 0.5, "steps": 2}, "n_max"),
]

# (kind, payload, field): each payload carries one float field that is a bool
# or a string, and must be refused naming it rather than read as a number
RELATIVE = {"check": "relative_conservation", "n_max": 2, "t_max": 0.5, "steps": 2}
NUMBER_FIELDS = [
    ("single_rep", {"mass": True, "dims": 1, "levels": 4}, "mass"),
    ("single_rep", {"mass": "2", "dims": 1, "levels": 4}, "mass"),
    ("single_rep", {"mass": 1.0, "dims": 1, "levels": 4, "hbar": True}, "hbar"),
    ("single_rep", {"mass": 1.0, "dims": 1, "levels": 4, "omega_ref": "1"}, "omega_ref"),
    ("single_rep", {"mass": 1.0, "dims": 1, "levels": 4, "spin": False}, "spin"),
    ("single_rep", {"mass": 1.0, "dims": 1, "levels": 4, "zeta": True}, "zeta"),
    ("composite", {**PAIR, "particleB": {"mass": "2", "dims": 1, "levels": 4}}, "mass"),
    ("spectrum", {"addition_max": True}, "addition_max"),
    ("dynamics", {**FLOW, "t_max": True}, "t_max"),
    ("dynamics", {**FLOW, "calV": "1"}, "calV"),
    ("dynamics", {**FLOW, "expect": "diverge", "fidelity_below": True}, "fidelity_below"),
    ("dynamics", {**FLOW, "expect": "diverge", "by_time": "0.5"}, "by_time"),
    ("dynamics", {"check": "extra_casimir", "levels": 6, "calV": True}, "calV"),
    ("dynamics", {**RELATIVE, "mu": True}, "mu"),
    ("dynamics", {**RELATIVE, "hbar": "1"}, "hbar"),
    ("dynamics", {**RELATIVE, "omega_ref": True}, "omega_ref"),
    ("dynamics", {**EHRENFEST, "tol": True}, "ehrenfest"),
]


def algebra_descriptor(generators=("A", "B", "C"), **term):
    """An algebra scenario whose descriptor holds [A, B] = i hbar (num/den) C, `term` overriding num and den."""
    return {"kind": "algebra", "payload": {"descriptor": {
        "name": "abc", "generators": generators,
        "brackets": [{"a": "A", "b": "B", "terms": [{"c": "C", "num": 1, **term}]}]}}}


# (scenario, field): each scenario carries one boolean, string or unknown
# value where a number, a list of numbers or a known word belongs, and must
# exit 2 with one line naming the field
CONSERVATION = {"check": "conservation", "levels": 6, "t_max": 0.5, "steps": 2}
MALFORMED = [
    ({"kind": "algebra", "payload": {"name": "so3"}, "tolerances": {"homomorphism": True}}, "homomorphism"),
    ({"kind": "algebra", "payload": {"name": "so3"}, "tolerances": {"homomorphism": "1e-3"}}, "homomorphism"),
    ({"kind": "dynamics", "payload": {**CONSERVATION, "potential": {
        "kind": "poly_x", "coefficients": [0, "0", True]}}}, "coefficients"),
    ({"kind": "dynamics", "payload": {**COM_DECOUPLING, "coefficients": [0, "0.05"]}}, "coefficients"),
    ({"kind": "dynamics", "payload": {**RELATIVE, "coefficients": [0.0, True]}}, "coefficients"),
    ({"kind": "dynamics", "payload": {"check": "extra_casimir", "levels": 6, "calV": 1.0,
                                      "substitute_potential": [0.0, 0.0, "0.5"]}}, "coefficients"),
    ({"kind": "spectrum", "payload": {"n_max": 1, "expect_shells": {"0": [False], "1": [True]}}},
     "expect_shells"),
    ({"kind": "spectrum", "payload": {"n_max": 0, "spin_a": 0.5, "spin_b": 0.5,
                                      "expect_shells": {"0": "01"}}}, "expect_shells"),
    ({"kind": "spectrum", "payload": {"n_max": 0, "spin_a": True}}, "spin_a"),
    ({"kind": "spectrum", "payload": {"n_max": 0, "spin_b": "1/2"}}, "spin_b"),
    ({"kind": "spectrum", "payload": {"spins": [0.5, True]}}, "spins"),
    ({"kind": "dynamics", "payload": {**RELATIVE, "spin_a": "1/2"}}, "spin_a"),
    ({"kind": "dynamics", "payload": {**FLOW, "expect": "scalar-phase"}}, "'scalar-phase'"),
    ({"kind": "dynamics", "payload": {**FLOW, "alpha": [True, False]}}, "alpha"),
    ({"kind": "dynamics", "payload": {**CONSERVATION, "alpha": [0.5, "0"]}}, "alpha"),
    ({"kind": "dynamics", "payload": {**COM_DECOUPLING, "alpha_a": [True, 0.2]}}, "alpha_a"),
    ({"kind": "dynamics", "payload": {**COM_DECOUPLING, "alpha_b": [-0.2, False]}}, "alpha_b"),
    ({"kind": "dynamics", "payload": {**CONSERVATION, "psi0": [[True, 0]] + [[0, 0]] * 5}}, "psi0"),
    # short, long or scalar pairs and non-list shapes
    ({"kind": "dynamics", "payload": {**CONSERVATION, "alpha": [0.5]}}, "alpha"),
    ({"kind": "dynamics", "payload": {**CONSERVATION, "alpha": 0.5}}, "alpha"),
    ({"kind": "dynamics", "payload": {**FLOW, "alpha": [0.5, 0.1, 0.2]}}, "alpha"),
    ({"kind": "dynamics", "payload": {**COM_DECOUPLING, "alpha_a": [0.4]}}, "alpha_a"),
    ({"kind": "dynamics", "payload": {**COM_DECOUPLING, "alpha_b": [-0.3]}}, "alpha_b"),
    ({"kind": "dynamics", "payload": {**CONSERVATION, "psi0": [[1, 0, 0]] + [[0, 0]] * 5}}, "psi0"),
    ({"kind": "dynamics", "payload": {**CONSERVATION, "psi0": [[1]] + [[0, 0]] * 5}}, "psi0"),
    ({"kind": "dynamics", "payload": {**CONSERVATION, "psi0": 1}}, "psi0"),
    ({"kind": "spectrum", "payload": {"n_max": 0, "expect_shells": {"0": 0}}}, "expect_shells"),
    ({"kind": "spectrum", "payload": {"n_max": 0, "expect_shells": [[0]]}}, "expect_shells"),
    ({"kind": "spectrum", "payload": {"spins": 0.5}}, "spins"),
    ({"kind": "dynamics", "payload": {**CONSERVATION, "potential": {"kind": "poly_x", "coefficients": 0.5}}},
     "coefficients"),
    ({"kind": "dynamics", "payload": {**COM_DECOUPLING, "coefficients": 0.05}}, "coefficients"),
    ({"kind": "dynamics", "payload": {**RELATIVE, "coefficients": 5}}, "coefficients"),
    ({"kind": "dynamics", "payload": {"check": "extra_casimir", "levels": 6, "calV": 1.0,
                                      "substitute_potential": 0.5}}, "coefficients"),
    # a key outside its kind's schema, or a value its reader refuses rather than reads loosely
    ({"kind": "dynamics", "payload": {"check": "conservation", "levles": 6, "t_maxx": 100, "potental": {
        "kind": "poly_x", "coefficients": [0.0, 0.0, 0.5]}}}, "'levles'"),
    ({"kind": "single_rep", "payload": {"mass": 2.0, "dims": 3, "levels": 3, "spin": 0.5,
                                        "t_tensr": True}}, "'t_tensr'"),
    ({"kind": "algebra", "payload": {"name": "hr3", "subalgebras": [
        {"generators": ["K1", "P1", "M"], "expect_closed": "false"}]}}, "expect_closed"),
    ({"kind": "algebra", "payload": {"name": "hr3", "subalgebras": [{"generatorz": ["K1", "P1"]}]}},
     "'generatorz'"),
    ({"kind": "single_rep", "payload": {"mass": 1.0, "dims": 1, "levels": 4, "raw_defect": "no"}},
     "raw_defect"),
    ({"kind": "dynamics", "payload": {**FLOW, "levels": 4, "dims": 3, "spin": 0.5}}, "'spin'"),
    ({"kind": "spectrum", "payload": {"nmax": 3}}, "'nmax'"),
    ({"kind": "uea", "payload": {"algebra": "hr3"}, "tolerance": {"homomorphism": 1e-3}}, "'tolerance'"),
    ({"kind": "dynamics", "payload": {**FLOW, "expect": "diverge", "fidelity_below": 1.5}}, "fidelity_below"),
    ({"kind": "algebra", "payload": {"name": "hr3", "subalgebras": [{"generators": []}]}}, "generators"),
    ({"kind": "single_rep", "payload": {"mass": 1.0, "dims": 1, "levels": 6, "zeta": 2.0,
                                        "zeta_margin": -5}}, "zeta_margin"),
    ({"kind": "single_rep", "payload": {"mass": 1.0, "dims": 1, "levels": 6, "zeta": 2.0,
                                        "zeta_margin": 0}}, "zeta_margin"),
    # a key the chosen mode never reads
    ({"kind": "spectrum", "payload": {"spins": [0.5], "expect_shells": {"0": [7]}}}, "expect_shells"),
    ({"kind": "dynamics", "payload": {**FLOW, "fidelity_below": 0.1, "by_time": 99}}, "fidelity_below"),
    ({"kind": "dynamics", "payload": {**FLOW, "by_time": 99}}, "by_time"),
    ({"kind": "dynamics", "payload": {**CONSERVATION, "psi0": [[1, 0]] + [[0, 0]] * 5, "alpha": [9, 9]}},
     "alpha"),
    # a non-finite spin, or a zeta_margin beyond the levels, named by its own key
    ({"kind": "spectrum", "payload": {"n_max": 1, "spin_a": math.nan}}, "spin_a"),
    ({"kind": "spectrum", "payload": {"n_max": 1, "spin_b": math.inf}}, "spin_b"),
    ({"kind": "spectrum", "payload": {"spins": [math.nan]}}, "spins"),
    ({"kind": "single_rep", "payload": {"mass": 1.0, "dims": 1, "levels": 4, "spin": math.inf}}, "spin"),
    ({"kind": "dynamics", "payload": {**RELATIVE, "spin_a": math.inf}}, "spin_a"),
    ({"kind": "single_rep", "payload": {"mass": 1.0, "dims": 1, "levels": 4, "zeta": 2.0,
                                        "zeta_margin": 9}}, "zeta_margin"),
    # more keys the chosen mode never reads
    ({"kind": "single_rep", "payload": {"mass": 1.0, "levels": 4, "zeta_margin": 3}}, "zeta_margin"),
    ({"kind": "composite", "payload": {**PAIR, "margin": 3, "ccr": False}}, "margin"),
    ({"kind": "spectrum", "payload": {"spins": [0.5], "spin_a": 0.5}}, "spin_a"),
    ({"kind": "spectrum", "payload": {"addition_max": 1.0, "spin_b": 0.5}}, "spin_b"),
    ({"kind": "algebra", "payload": {"name": "so3", "descriptor": build_algebra("so3").to_descriptor()}},
     "name"),
    # every unread key is named
    ({"kind": "dynamics", "payload": {**FLOW, "fidelity_below": 0.1, "by_time": 99}}, "by_time, fidelity_below"),
    ({"kind": "spectrum", "payload": {"spins": [0.5], "expect_shells": {"0": [7]}, "spin_a": 0.5}},
     "expect_shells, spin_a"),
    # a divergence window past t_max, or NaN, would hold no grid point
    ({"kind": "dynamics", "payload": {**FLOW, "expect": "diverge", "by_time": 5.0}}, "by_time"),
    ({"kind": "dynamics", "payload": {**FLOW, "expect": "diverge", "by_time": 0.5 + 1e-9}}, "by_time"),
    ({"kind": "dynamics", "payload": {**FLOW, "expect": "diverge", "by_time": math.nan}}, "by_time"),
    # a descriptor read loosely would run its checks on an algebra the file never wrote
    (algebra_descriptor(num=0.5), "num"),
    (algebra_descriptor(num="3"), "num"),
    (algebra_descriptor(num=True), "num"),
    (algebra_descriptor(den=2.5), "den"),
    (algebra_descriptor(den=0), "den"),
    (algebra_descriptor(generators="ABC"), "generators"),
    # an algebra name that is not a catalog id
    ({"kind": "algebra", "payload": {"name": "hr4"}}, "name"),
    # a non-finite potential coefficient is refused, not checked
    ({"kind": "dynamics", "payload": {"check": "extra_casimir", "levels": 6, "calV": 1.0,
                                      "substitute_potential": [math.nan]}}, "coefficients"),
    ({"kind": "dynamics", "payload": {"check": "extra_casimir", "levels": 6, "calV": 1.0,
                                      "substitute_potential": [0, 0, math.inf]}}, "coefficients"),
    ({"kind": "dynamics", "payload": {**CONSERVATION, "potential": {
        "kind": "poly_x", "coefficients": [0.0, 0.0, math.nan]}}}, "coefficients"),
    # a check that would pass after checking nothing: no so3 bracket below dims 3, no spin
    ({"kind": "single_rep", "payload": {"mass": 1.0, "dims": 1, "levels": 4, "algebra": "so3"}},
     "algebra 'so3'"),
    ({"kind": "single_rep", "payload": {"mass": 1.0, "dims": 2, "levels": 4, "algebra": "so3"}},
     "3 pairs skipped"),
    ({"kind": "spectrum", "payload": {"spins": []}}, "spins"),
    # an integer too large for a float, named by its own key
    ({"kind": "algebra", "payload": {"name": "so3"}, "tolerances": {"homomorphism": 10 ** 400}}, "homomorphism"),
    ({"kind": "single_rep", "payload": {"mass": 1.0, "dims": 1, "levels": 10 ** 400}}, "levels"),
    ({"kind": "single_rep", "payload": {"mass": 10 ** 400, "dims": 1, "levels": 4}}, "mass"),
    ({"kind": "dynamics", "payload": {**CONSERVATION, "potential": {
        "kind": "poly_x", "coefficients": [0.0, 0.0, 10 ** 400]}}}, "coefficients"),
    ({"kind": "dynamics", "payload": {"check": "extra_casimir", "levels": 6, "calV": 1.0,
                                      "substitute_potential": [10 ** 400]}}, "coefficients"),
    # a non-finite part of an [re, im] pair, named by its own key, not as an unnormalized state
    ({"kind": "dynamics", "payload": {**FLOW, "alpha": [math.nan, 0.1]}}, "alpha"),
    ({"kind": "dynamics", "payload": {**CONSERVATION, "alpha": [0.5, math.inf]}}, "alpha"),
    ({"kind": "dynamics", "payload": {**COM_DECOUPLING, "alpha_a": [-math.inf, 0.2]}}, "alpha_a"),
    ({"kind": "dynamics", "payload": {**COM_DECOUPLING, "alpha_b": [-0.2, math.nan]}}, "alpha_b"),
    ({"kind": "dynamics", "payload": {**CONSERVATION, "psi0": [[math.nan, 0]] + [[0, 0]] * 5}}, "psi0"),
    # a reduced mass that is not positive and finite, named by its own key
    ({"kind": "dynamics", "payload": {**RELATIVE, "mu": math.nan}}, "mu must"),
    ({"kind": "dynamics", "payload": {**RELATIVE, "mu": 0}}, "mu must"),
    ({"kind": "dynamics", "payload": {**RELATIVE, "mu": -0.5}}, "mu must"),
]


def _bad_value(payload, field):
    return payload[field] if field in payload else payload["particleB"][field]


def dynamics_checks(payload, tolerances=None, suite_tolerances=None) -> dict:
    sc = scenario_from_dict({"kind": "dynamics", "payload": payload,
                             "tolerances": tolerances or {}})
    return {c.name: c for c in run_scenario(sc, suite_tolerances).checks}


class TestExitCodes:
    def test_passing_scenario_exits_zero(self, algebra_scenario):
        proc = run_cli("verify", "algebra", str(algebra_scenario))
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["status"] == "pass"

    def test_flipped_constant_exits_one_and_names_check(self, mutated_scenario):
        proc = run_cli("verify", "algebra", str(mutated_scenario))
        assert proc.returncode == 1
        assert "jacobi:hr3_flipped" in proc.stderr
        report = json.loads(proc.stdout)
        assert report["status"] == "fail"
        failing = [c for c in report["checks"] if c["status"] == "fail"]
        assert failing and failing[0]["name"] == "jacobi:hr3_flipped"

    def test_malformed_json_exits_two_without_partial_report(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{this is not json")
        proc = run_cli("verify", "algebra", str(bad))
        assert proc.returncode == 2
        assert proc.stdout == ""

    def test_missing_file_exits_two(self, tmp_path):
        proc = run_cli("verify", "algebra", str(tmp_path / "absent.json"))
        assert proc.returncode == 2

    def test_unknown_suite_exits_two(self):
        proc = run_cli("suite", "everything")
        assert proc.returncode == 2

    def test_unknown_kind_exits_two(self, algebra_scenario):
        proc = run_cli("verify", "algebras", str(algebra_scenario))
        assert proc.returncode == 2

    def test_kind_mismatch_exits_two(self, algebra_scenario):
        proc = run_cli("verify", "composite", str(algebra_scenario))
        assert proc.returncode == 2

    def test_bad_tolerance_syntax_exits_two(self, algebra_scenario):
        proc = run_cli("verify", "algebra", str(algebra_scenario), "--tol", "nonsense")
        assert proc.returncode == 2
        proc = run_cli("verify", "algebra", str(algebra_scenario), "--tol", "not_a_tol=1")
        assert proc.returncode == 2

    def test_bad_payload_value_exits_two(self, tmp_path):
        path = tmp_path / "bad_payload.json"
        path.write_text(
            json.dumps(
                {
                    "kind": "algebra",
                    "payload": {"name": "hr3",
                                "subalgebras": [{"generators": ["K1", "Z9"]}]},
                }
            )
        )
        proc = run_cli("verify", "algebra", str(path))
        assert proc.returncode == 2
        assert "Z9" in proc.stderr

    def test_negative_mass_payload_exits_two(self, tmp_path):
        path = tmp_path / "neg.json"
        path.write_text(
            json.dumps(
                {"kind": "single_rep", "payload": {"mass": -1.0, "dims": 1, "levels": 4}}
            )
        )
        proc = run_cli("verify", "rep", str(path))
        assert proc.returncode == 2

    def test_overflowing_ladder_scale_exits_two_naming_the_mass(self, tmp_path):
        # a positive, finite mass whose position scale hbar / (2 m omega) overflows
        path = tmp_path / "tiny_mass.json"
        path.write_text(json.dumps({"kind": "single_rep",
                                    "payload": {"mass": 1e-310, "dims": 1, "levels": 4}}))
        proc = run_cli("verify", "rep", str(path))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.count("\n") == 1 and "mass" in proc.stderr

    def test_overflowing_bracket_fails_the_homomorphism_with_a_non_finite_defect(self, tmp_path):
        # every ladder scale is finite, but M = m Id times K = m X overflows, so
        # the [K1, M] and [P1, M] defects hold NaN: a failed check, not an SVD error
        path = tmp_path / "huge_mass.json"
        path.write_text(json.dumps({"kind": "single_rep",
                                    "payload": {"mass": 1e300, "dims": 1, "levels": 4}}))
        out = tmp_path / "out.json"
        proc = run_cli("verify", "rep", str(path), "--out", str(out))
        assert proc.returncode == 1, proc.stderr
        checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
        assert checks["homomorphism:h3"]["status"] == "fail"
        assert not math.isfinite(float(checks["homomorphism:h3"]["metrics"]["worst_defect"]))

    def test_report_with_a_non_finite_metric_is_strict_json(self, tmp_path):
        path = tmp_path / "huge_mass.json"
        path.write_text(json.dumps({"kind": "single_rep",
                                    "payload": {"mass": 1e300, "dims": 1, "levels": 4}}))
        proc = run_cli("verify", "rep", str(path))
        assert proc.returncode == 1, proc.stderr

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        report = json.loads(proc.stdout, parse_constant=reject)
        checks = {c["name"]: c for c in report["checks"]}
        assert checks["homomorphism:h3"]["metrics"]["worst_defect"] == "NaN"

    def test_non_finite_metrics_map_to_strings(self):
        got = _jsonable({"a": np.float64(np.inf), "b": [-math.inf, math.nan, 2.5], "c": np.array([1.0, np.nan])})
        assert got == {"a": "Infinity", "b": ["-Infinity", "NaN", 2.5], "c": [1.0, "NaN"]}

    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_non_finite_calV_or_zeta_is_a_scenario_error(self, value):
        with pytest.raises(ScenarioError, match="calV"):
            dynamics_checks({"check": "flow_compare", "levels": 6, "calV": value, "t_max": 0.5, "steps": 4})
        rep = scenario_from_dict({"kind": "single_rep",
                                  "payload": {"mass": 1.0, "dims": 1, "levels": 4, "zeta": value}})
        with pytest.raises(ScenarioError, match="zeta"):
            run_scenario(rep)

    @pytest.mark.parametrize("value", ["inf", "nan", "-1"])
    def test_non_finite_or_negative_cli_tolerance_exits_two(self, tmp_path, value):
        path = tmp_path / "composite.json"
        path.write_text(json.dumps({"kind": "composite", "payload": {
            "particleA": {"mass": 1.0, "dims": 1, "levels": 4},
            "particleB": {"mass": 2.0, "dims": 1, "levels": 4}}}))
        proc = run_cli("verify", "composite", str(path), "--tol", f"ccr_coefficient={value}")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.count("\n") == 1 and "ccr_coefficient" in proc.stderr

    @pytest.mark.parametrize("value", [float("inf"), float("nan"), -1e-3])
    def test_non_finite_or_negative_file_tolerance_rejected(self, value):
        with pytest.raises(ScenarioError, match="homomorphism"):
            scenario_from_dict({"kind": "algebra", "payload": {"name": "so3"},
                                "tolerances": {"homomorphism": value}})

    @pytest.mark.parametrize("field", ["mass", "hbar", "omega_ref"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_physical_constant_exits_two(self, tmp_path, field, value):
        payload = {"mass": 1.0, "dims": 1, "levels": 4, field: value}
        path = tmp_path / "rep.json"
        path.write_text(json.dumps({"kind": "single_rep", "payload": payload}))
        proc = run_cli("verify", "rep", str(path))
        assert proc.returncode == 2
        assert proc.stderr.count("\n") == 1 and field in proc.stderr

    @pytest.mark.parametrize("value", ["inf", "nan", -1])
    def test_invalid_ehrenfest_payload_tolerance_exits_two(self, tmp_path, value):
        path = tmp_path / "dyn.json"
        path.write_text(json.dumps({"kind": "dynamics", "payload": {**EHRENFEST, "tol": value}}))
        proc = run_cli("verify", "dynamics", str(path))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.count("\n") == 1 and "ehrenfest" in proc.stderr

    def test_zero_steps_exits_two(self, tmp_path):
        path = tmp_path / "dyn.json"
        path.write_text(json.dumps({"kind": "dynamics", "payload": {
            "check": "flow_compare", "levels": 8, "calV": 1.0, "steps": 0}}))
        proc = run_cli("verify", "dynamics", str(path))
        assert proc.returncode == 2
        assert "steps" in proc.stderr

    def test_potential_offset_field_exits_two(self, tmp_path):
        # the free-generator offset calV is a payload field; a potential carrying
        # one used to be accepted and ignored
        path = tmp_path / "dyn.json"
        path.write_text(json.dumps({"kind": "dynamics", "payload": {
            "check": "flow_compare", "levels": 8, "steps": 4,
            "potential": {"kind": "none", "calV": 5.0}}}))
        proc = run_cli("verify", "dynamics", str(path))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.count("\n") == 1 and "calV" in proc.stderr

    @pytest.mark.parametrize("value", [-1.0, float("nan"), float("inf")])
    def test_vacuous_or_unbounded_addition_range_rejected(self, value):
        sc = scenario_from_dict({"kind": "spectrum", "payload": {"addition_max": value}})
        with pytest.raises(ScenarioError, match="largest spin"):
            run_scenario(sc)

    @pytest.mark.parametrize("kind, payload, field", INTEGER_FIELDS, ids=[
        f"{kind}:{field}={_bad_value(payload, field)!r}" for kind, payload, field in INTEGER_FIELDS])
    def test_non_integral_integer_field_is_a_scenario_error_naming_it(self, kind, payload, field):
        sc = scenario_from_dict({"kind": kind, "payload": payload})
        with pytest.raises(ScenarioError, match=f"{field} must be an integer"):
            run_scenario(sc)

    @pytest.mark.parametrize("value", [2.5, True, "4"])
    def test_non_integral_levels_exits_two_with_one_line_naming_it(self, tmp_path, value):
        path = tmp_path / "rep.json"
        path.write_text(json.dumps({"kind": "single_rep", "payload": {"mass": 1.0, "dims": 1, "levels": value}}))
        proc = run_cli("verify", "rep", str(path))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.count("\n") == 1 and "levels must be an integer" in proc.stderr

    def test_integral_float_fields_are_accepted(self):
        as_float = scenario_from_dict({"kind": "single_rep", "payload": {
            "mass": 1.0, "dims": 1.0, "levels": 4.0, "margin": 1.0, "zeta": 2.0, "zeta_margin": 1.0}})
        as_int = scenario_from_dict({"kind": "single_rep", "payload": {
            "mass": 1.0, "dims": 1, "levels": 4, "margin": 1, "zeta": 2.0, "zeta_margin": 1}})
        got, want = run_scenario(as_float), run_scenario(as_int)
        assert got.passed
        assert [(c.name, c.metrics) for c in got.checks] == [(c.name, c.metrics) for c in want.checks]

    @pytest.mark.parametrize("kind, payload, field", NUMBER_FIELDS, ids=[
        f"{kind}:{field}" for kind, payload, field in NUMBER_FIELDS])
    def test_bool_or_string_float_field_is_a_scenario_error_naming_it(self, kind, payload, field):
        sc = scenario_from_dict({"kind": kind, "payload": payload})
        with pytest.raises(ScenarioError, match=f"{field} must be a number"):
            run_scenario(sc)

    @pytest.mark.parametrize("kind, payload, field", [
        ("rep", {"kind": "single_rep", "payload": {"mass": True, "dims": 1, "levels": 4}}, "mass"),
        ("rep", {"kind": "single_rep", "payload": {"mass": "2", "dims": 1, "levels": 4}}, "mass"),
        ("dynamics", {"kind": "dynamics", "payload": {**FLOW, "t_max": True}}, "t_max"),
    ], ids=["mass=True", "mass='2'", "t_max=True"])
    def test_bool_or_string_float_field_exits_two_naming_it(self, tmp_path, kind, payload, field):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(payload))
        proc = run_cli("verify", kind, str(path))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.count("\n") == 1 and f"{field} must be a number" in proc.stderr

    def test_number_field_takes_ints_and_numpy_floats(self):
        def rep_checks(**fields):
            payload = {"mass": 1.0, "dims": 1, "levels": 4, "raw_defect": True, **fields}
            report = run_scenario(scenario_from_dict({"kind": "single_rep", "payload": payload}))
            return {c.name: c.metrics for c in report.checks}

        given = (2, np.float32(0.5), np.float64(-1.25), np.int64(3))
        zetas = [rep_checks(zeta=z)[f"zeta_rep:{float(z)}"]["zeta"] for z in given]
        assert zetas == [2.0, 0.5, -1.25, 3.0] and all(type(z) is float for z in zetas)
        # an absent hbar takes its default 1.0: the raw defect per dimension is hbar * levels
        assert rep_checks()["raw_boundary_defect"]["defect_norm_per_dim"] == 4.0
        assert rep_checks(hbar=0.75)["raw_boundary_defect"]["defect_norm_per_dim"] == 3.0
        with pytest.raises(ScenarioError, match="needs 'mass'"):
            run_scenario(scenario_from_dict({"kind": "single_rep", "payload": {"levels": 4}}))
        for bad in (True, np.True_, "1", None, [1.0]):
            with pytest.raises(ScenarioError, match="zeta must be a number"):
                rep_checks(zeta=bad)

    @pytest.mark.parametrize("scenario, field", MALFORMED, ids=[
        f"{sc['payload'].get('check', sc['kind'])}:{field}:{i}" for i, (sc, field) in enumerate(MALFORMED)])
    def test_malformed_value_exits_two_with_one_line_naming_its_field(self, tmp_path, capsys,
                                                                      scenario, field):
        from hrsym.cli import main

        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        kind = {"single_rep": "rep"}.get(scenario["kind"], scenario["kind"])
        assert main(["verify", kind, str(path)]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.count("\n") == 1 and field in out.err

    @pytest.mark.parametrize("kind, payload, key", [
        ("algebra", {}, "name"),
        ("single_rep", {"mass": 1.0, "dims": 1, "levels": 6}, "algebra"),
    ])
    def test_algebra_key_naming_a_descriptor_file_exits_two(self, tmp_path, capsys, kind, payload, key):
        from hrsym.cli import main

        # only catalog ids are read: a file name is refused, not opened
        descriptor = tmp_path / "h3.json"
        descriptor.write_text(json.dumps(build_algebra("h3").to_descriptor()))
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"kind": kind, "payload": {**payload, key: str(descriptor)}}))
        assert main(["verify", {"single_rep": "rep"}.get(kind, kind), str(path)]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.count("\n") == 1 and f"{key} must be one of" in out.err

    @pytest.mark.parametrize("payload", [{}, {"spin_a": 0.5, "spin_b": 0.5}], ids=["empty", "spins_only"])
    def test_payload_that_selects_no_check_exits_two_listing_the_keys(self, tmp_path, capsys, payload):
        from hrsym.cli import main

        path = tmp_path / "spectrum.json"
        path.write_text(json.dumps({"kind": "spectrum", "payload": payload}))
        assert main(["verify", "spectrum", str(path)]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.count("\n") == 1 and "runs no check" in out.err
        assert all(key in out.err for key in ("n_max", "spins", "addition_max"))

    def test_integer_past_the_digit_limit_exits_two_naming_the_file(self, tmp_path, capsys):
        from hrsym.cli import main

        # json.loads refuses an integer of more than 4300 digits with a plain ValueError
        path = tmp_path / "scenario.json"
        path.write_text('{"kind": "algebra", "payload": {"name": "so3"}, "tolerances": {"homomorphism": 1%s}}'
                        % ("0" * 5000))
        assert main(["verify", "algebra", str(path)]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.count("\n") == 1 and str(path) in out.err

    def test_unknown_dynamics_check_exits_two_and_names_it(self, tmp_path):
        path = tmp_path / "dyn.json"
        path.write_text(json.dumps({"kind": "dynamics", "payload": {"check": "free_fall"}}))
        proc = run_cli("verify", "dynamics", str(path))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.count("\n") == 1 and "'free_fall'" in proc.stderr

    def test_out_path_in_a_missing_directory_exits_two_naming_it(self, tmp_path, capsys):
        from hrsym.cli import main

        out = tmp_path / "missing" / "x.json"
        assert main(["suite", "paper-core", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(out) in err and "Traceback" not in err

    def test_out_path_that_is_a_directory_exits_two_naming_it(self, tmp_path, capsys):
        from hrsym.cli import main

        scenario = SRC.parent / "scenarios" / "uea_g3tilde.json"
        assert main(["verify", "uea", str(scenario), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(tmp_path) in err and "Traceback" not in err


class TestReports:
    def test_out_file_written(self, algebra_scenario, tmp_path):
        out = tmp_path / "report.json"
        proc = run_cli("verify", "algebra", str(algebra_scenario), "--out", str(out))
        assert proc.returncode == 0
        report = json.loads(out.read_text())
        assert report["tool"] == "hrsym"
        assert report["checks"][0]["anchor"] in ANCHOR_REGISTRY

    def test_determinism_modulo_wall_time(self, algebra_scenario):
        out1 = run_cli("verify", "algebra", str(algebra_scenario)).stdout
        out2 = run_cli("verify", "algebra", str(algebra_scenario)).stdout
        r1, r2 = json.loads(out1), json.loads(out2)
        r1.pop("wall_time_s")
        r2.pop("wall_time_s")
        assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)

    def test_every_check_carries_registered_anchor(self, tmp_path):
        scenario = scenario_from_dict(
            {
                "kind": "composite",
                "payload": {
                    "particleA": {"mass": 1.0, "dims": 1, "levels": 6},
                    "particleB": {"mass": 2.0, "dims": 1, "levels": 6},
                    "margin": 1,
                },
            }
        )
        report = run_scenario(scenario)
        for check in report.to_json()["checks"]:
            assert check["anchor"] in ANCHOR_REGISTRY

    def test_naive_position_flagged_non_physical(self, tmp_path):
        path = tmp_path / "composite.json"
        path.write_text(
            json.dumps(
                {
                    "kind": "composite",
                    "payload": {
                        "particleA": {"mass": 1.0, "dims": 1, "levels": 8},
                        "particleB": {"mass": 2.0, "dims": 1, "levels": 8},
                        "margin": 1,
                    },
                }
            )
        )
        proc = run_cli("verify", "composite", str(path))
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        naive = [c for c in report["checks"] if c["name"] == "ccr:x_naive:p"][0]
        assert naive["metrics"]["non_physical"] is True
        assert naive["metrics"]["coefficient"] == pytest.approx(2.0, abs=1e-12)
        com = [c for c in report["checks"] if c["name"] == "ccr:x_com:p"][0]
        assert com["metrics"]["coefficient"] == pytest.approx(1.0, abs=1e-12)


class TestToleranceOverrides:
    def test_cli_override_can_force_failure(self, tmp_path):
        path = tmp_path / "rep.json"
        path.write_text(
            json.dumps(
                {
                    "kind": "single_rep",
                    "payload": {"mass": 1.0, "dims": 1, "levels": 8, "algebra": "h3",
                                "margin": 0},
                }
            )
        )
        # margin 0 leaves the boundary defect in view; the default tolerance
        # fails it, a loose override accepts it
        strict = run_cli("verify", "rep", str(path))
        assert strict.returncode == 1
        loose = run_cli("verify", "rep", str(path), "--tol", "homomorphism=100")
        assert loose.returncode == 0

    def test_scenario_tolerances_apply(self, tmp_path):
        path = tmp_path / "rep.json"
        path.write_text(
            json.dumps(
                {
                    "kind": "single_rep",
                    "payload": {"mass": 1.0, "dims": 1, "levels": 8, "algebra": "h3",
                                "margin": 0},
                    "tolerances": {"homomorphism": 100.0},
                }
            )
        )
        proc = run_cli("verify", "rep", str(path))
        assert proc.returncode == 0

    def test_unknown_tolerance_in_scenario_rejected(self, tmp_path):
        path = tmp_path / "rep.json"
        path.write_text(
            json.dumps(
                {"kind": "algebra", "payload": {"name": "so3"},
                 "tolerances": {"bogus": 1.0}}
            )
        )
        with pytest.raises(ScenarioError):
            load_scenario(path)

    def test_unknown_tolerance_lists_the_known_names_from_a_file_and_from_the_command_line(self, tmp_path):
        path = tmp_path / "so3.json"
        path.write_text(json.dumps({"kind": "algebra", "payload": {"name": "so3"}, "tolerances": {"bogus": 1.0}}))
        from_file = run_cli("verify", "algebra", str(path))
        path.write_text(json.dumps({"kind": "algebra", "payload": {"name": "so3"}}))
        from_flag = run_cli("verify", "algebra", str(path), "--tol", "bogus=1")
        for proc in (from_file, from_flag):
            assert proc.returncode == 2 and proc.stdout == ""
            assert proc.stderr.count("\n") == 1 and "'bogus'" in proc.stderr
            assert "known: ccr_coefficient, com_ehrenfest" in proc.stderr


    def test_spectrum_match_tolerance_labels_the_shells(self):
        # each shell's eigenvalues sit about 1.5e-15 from ell (ell + 1) at n_max 3
        def completeness(tolerances):
            sc = scenario_from_dict({"kind": "spectrum", "payload": {"n_max": 3}, "tolerances": tolerances})
            return run_scenario(sc).checks[0]

        assert completeness({}).passed
        strict = completeness({"spectrum_match": 1e-16})
        assert strict.name == "shell_completeness:n3" and not strict.passed
        assert strict.metrics["unmatched"]

    def test_ehrenfest_tolerance_is_registered(self, tmp_path):
        # the payload's own `tol` is the scenario value; explicit tolerances outrank it
        assert dynamics_checks(EHRENFEST)["ehrenfest_velocity"].metrics["tol"] == 1e-4
        default = {k: v for k, v in EHRENFEST.items() if k != "tol"}
        assert dynamics_checks(default)["ehrenfest_velocity"].metrics["tol"] == 1e-6
        strict = dynamics_checks(EHRENFEST, suite_tolerances={"ehrenfest": 1e-12})
        assert not strict["ehrenfest_velocity"].passed
        assert strict["ehrenfest_velocity"].metrics["tol"] == 1e-12
        path = tmp_path / "dyn.json"
        path.write_text(json.dumps({"kind": "dynamics", "payload": EHRENFEST}))
        assert run_cli("verify", "dynamics", str(path)).returncode == 0
        proc = run_cli("verify", "dynamics", str(path), "--tol", "ehrenfest=1e-12")
        assert proc.returncode == 1
        assert json.loads(proc.stdout)["checks"][0]["metrics"]["tol"] == 1e-12

    def test_leakage_override_reaches_every_flow_check(self):
        loose = {"com_momentum": 1e-6}
        checks = dynamics_checks(COM_DECOUPLING, loose)
        assert all(c.passed for c in checks.values())
        checks = dynamics_checks(COM_DECOUPLING, {**loose, "leakage": 1e-7})
        assert not checks["com_momentum_constant"].passed
        assert not checks["com_velocity_matches_momentum"].passed
        assert dynamics_checks(EHRENFEST)["ehrenfest_velocity"].passed
        tight = dynamics_checks(EHRENFEST, suite_tolerances={"leakage": 1e-9})
        assert not tight["ehrenfest_velocity"].metrics["reliable"]
        assert not tight["ehrenfest_velocity"].passed

    def test_zero_leakage_flags_a_tiny_boundary_weight(self, tmp_path):
        # a trapped coherent packet keeps a top-level weight near 4e-37, far below
        # the rounding of its total norm
        payload = {**EHRENFEST, "levels": 24, "alpha": [0.5, 0.0]}
        path = tmp_path / "dyn.json"
        path.write_text(json.dumps({"kind": "dynamics", "payload": payload}))
        assert run_cli("verify", "dynamics", str(path)).returncode == 0
        proc = run_cli("verify", "dynamics", str(path), "--tol", "leakage=0")
        assert proc.returncode == 1
        metrics = json.loads(proc.stdout)["checks"][0]["metrics"]
        assert metrics["reliable"] is False


class TestSuites:
    def test_core_suite_passes_quickly(self):
        import time

        start = time.perf_counter()
        proc = run_cli("suite", "paper-core")
        elapsed = time.perf_counter() - start
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["status"] == "pass"
        assert report["check_count"] >= 12
        assert elapsed <= 10.0

    def test_suite_thread_env_variable(self, tmp_path):
        # the suite runs its scenarios in order; a leftover worker-count
        # setting, even a malformed one, is ignored
        env = cli_env(HRSYM_THREADS="abc")
        proc = subprocess.run(
            [sys.executable, "-m", "hrsym", "suite", "paper-core"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0

    def test_scenario_kinds_cover_cli_kinds(self):
        from hrsym.scenarios import KINDS

        assert set(KINDS) == {"algebra", "uea", "single_rep", "composite", "spectrum", "dynamics"}


class TestDynamicsPayloads:
    def test_explicit_state_vector_accepted(self, tmp_path):
        # a ladder eigenstate given as explicit [re, im] coefficients
        vec = [[0.0, 0.0]] * 8
        vec[1] = [1.0, 0.0]
        path = tmp_path / "dyn.json"
        path.write_text(
            json.dumps(
                {
                    "kind": "dynamics",
                    "payload": {
                        "check": "conservation",
                        "levels": 8,
                        "mass": 1.0,
                        "potential": {"kind": "poly_x", "coefficients": [0, 0, 0.5]},
                        "t_max": 1.0,
                        "steps": 10,
                        "psi0": vec,
                    },
                }
            )
        )
        proc = run_cli("verify", "dynamics", str(path))
        assert proc.returncode == 0

    def test_wrong_length_state_vector_exits_two(self, tmp_path):
        path = tmp_path / "dyn.json"
        path.write_text(
            json.dumps(
                {
                    "kind": "dynamics",
                    "payload": {"check": "conservation", "levels": 8,
                                "psi0": [[1.0, 0.0], [0.0, 0.0]]},
                }
            )
        )
        proc = run_cli("verify", "dynamics", str(path))
        assert proc.returncode == 2

    def test_two_dimensional_conservation_uses_the_product_packet(self):
        sc = scenario_from_dict({"kind": "dynamics", "payload": {
            "check": "conservation", "dims": 2, "levels": 16,
            "potential": {"kind": "poly_x", "coefficients": [0.0, 0.0, 0.5]}}})
        report = run_scenario(sc)
        assert report.passed
        assert [c.name for c in report.checks] == ["unitarity_energy", "picture_equivalence"]

    def test_com_decoupling_runs_at_two_dimensions(self, tmp_path, capsys):
        from hrsym.cli import main

        # small packets over a short time keep the boundary weight below the leakage gate
        payload = {**COM_DECOUPLING, "particleA": {"mass": 1.0, "dims": 2, "levels": 10},
                   "particleB": {"mass": 2.0, "dims": 2, "levels": 10},
                   "alpha_a": [0.1, 0.05], "alpha_b": [-0.05, 0.05], "t_max": 0.1, "steps": 4}
        path = tmp_path / "dyn.json"
        path.write_text(json.dumps({"kind": "dynamics", "payload": payload}))
        assert main(["verify", "dynamics", str(path)]) == 0, capsys.readouterr().err
        checks = json.loads(capsys.readouterr().out)["checks"]
        assert [c["name"] for c in checks] == ["com_momentum_constant", "com_velocity_matches_momentum"]
        assert checks[0]["metrics"]["reliable"] is True

    def test_com_decoupling_puts_a_spin_particle_in_the_first_spin_state(self):
        # the spin block is decoupled from the flow, so a spin-1/2 particle A reports what a spinless one does
        def metrics(spin):
            payload = {**COM_DECOUPLING, "particleA": {"mass": 1.0, "dims": 3, "levels": 4, "spin": spin},
                       "particleB": {"mass": 2.0, "dims": 3, "levels": 4},
                       "alpha_a": [0.05, 0.0], "alpha_b": [-0.05, 0.0], "t_max": 0.05, "steps": 2}
            return {name: c.metrics for name, c in dynamics_checks(payload).items()}

        spinless = metrics(0.0)
        assert list(spinless) == ["com_momentum_constant", "com_velocity_matches_momentum"]
        assert metrics(0.5) == spinless

    def test_relative_conservation_reports_its_boundary_weight(self):
        checks = dynamics_checks({"check": "relative_conservation", "n_max": 4,
                                  "t_max": 1.0, "steps": 10})
        spin = checks["spin_casimir_conserved"]
        assert spin.passed
        # the top shell takes part by construction, so the weight is reported, not gated
        assert 0.0 < spin.metrics["max_boundary_weight"] <= 1.0

    def test_state_vector_is_sized_by_the_full_space(self):
        vec = [[0.0, 0.0]] * 16
        vec[0] = [1.0, 0.0]
        payload = {"check": "conservation", "dims": 2, "levels": 4, "psi0": vec}
        assert run_scenario(scenario_from_dict({"kind": "dynamics", "payload": payload})).passed
        payload["levels"] = 16
        with pytest.raises(ScenarioError, match="psi0 has 16 entries, the space has 256"):
            run_scenario(scenario_from_dict({"kind": "dynamics", "payload": payload}))


@pytest.mark.parametrize("path", sorted((SRC.parent / "scenarios").glob("*.json")), ids=lambda path: path.name)
def test_shipped_example_passes_through_its_verify_subcommand(path, capsys):
    from hrsym.cli import _SUBCOMMANDS, main

    kind = json.loads(path.read_text())["kind"]
    assert main(["verify", _SUBCOMMANDS.get(kind, kind), str(path)]) == 0, capsys.readouterr().err


# imports hrsym and runs scenarios in a fresh process (the test process holds
# scipy.linalg already), printing which heavy scipy modules are loaded after each
FOOTPRINT_SCRIPT = """
import json, sys
import hrsym
from hrsym.scenarios import run_scenario, scenario_from_dict

HEAVY = ("scipy.sparse.csgraph", "scipy.sparse.linalg", "scipy.linalg")
stages = {"import": sorted(m for m in HEAVY if m in sys.modules)}
for stage, scenarios in json.loads(sys.argv[1]):
    for sc in scenarios:
        assert run_scenario(scenario_from_dict(sc)).passed, sc
    stages[stage] = sorted(m for m in HEAVY if m in sys.modules)
print(json.dumps(stages))
"""


class TestImportFootprint:
    def test_operator_scenarios_load_no_scipy_linear_algebra_and_small_flows_load_it(self):
        operators = [
            {"kind": "single_rep", "payload": {"mass": 1.0, "dims": 3, "levels": 3, "algebra": "g3tilde"}},
            {"kind": "composite", "payload": PAIR},
            {"kind": "spectrum", "payload": {"spins": [0, 0.5, 1], "addition_max": 1.0, "n_max": 2,
                                             "expect_shells": {"0": [0], "1": [1], "2": [0, 2]}}},
        ]
        flow = [{"kind": "dynamics", "payload": FLOW}]  # one block of 8 states: the expm route
        proc = subprocess.run([sys.executable, "-c", FOOTPRINT_SCRIPT,
                               json.dumps([["operators", operators], ["flow", flow]])],
                              capture_output=True, text=True, env=cli_env())
        assert proc.returncode == 0, proc.stderr
        stages = json.loads(proc.stdout)
        assert stages["import"] == stages["operators"] == []
        assert "scipy.linalg" in stages["flow"] and "scipy.sparse.csgraph" not in stages["flow"]


# runs one scenario in a fresh process and prints its peak resident memory in kB: VmHWM
# starts again at exec, where ru_maxrss keeps the resident size of the forking process
PEAK_SCRIPT = """
import json, sys
from hrsym.scenarios import run_scenario, scenario_from_dict

assert run_scenario(scenario_from_dict(json.loads(sys.argv[1]))).passed
with open("/proc/self/status") as status:
    print(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
"""


class TestMemoryFootprint:
    def test_conservation_on_4096_states_forms_nothing_of_size_n_squared(self):
        # a dense 4096 x 4096 observable and propagator would take about 1.4 GB here
        scenario = {"kind": "dynamics", "payload": {"check": "conservation", "dims": 2, "levels": 64}}
        proc = subprocess.run([sys.executable, "-c", PEAK_SCRIPT, json.dumps(scenario)],
                              capture_output=True, text=True, env=cli_env())
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) < 300 * 1024
