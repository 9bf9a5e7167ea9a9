"""Command-line contract: exit codes, report shape, determinism, suites."""

import json
import subprocess
import sys

import pytest

from hrsym import ANCHOR_REGISTRY, build_algebra
from hrsym.scenarios import ScenarioError, load_scenario, run_scenario, scenario_from_dict


def run_cli(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "hrsym", *args],
        capture_output=True,
        text=True,
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

    def test_unknown_dynamics_check_exits_two_and_names_it(self, tmp_path):
        path = tmp_path / "dyn.json"
        path.write_text(json.dumps({"kind": "dynamics", "payload": {"check": "free_fall"}}))
        proc = run_cli("verify", "dynamics", str(path))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.count("\n") == 1 and "'free_fall'" in proc.stderr


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
        import os

        env = dict(os.environ, HRSYM_THREADS="abc")
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
