"""Truncated Fock representations: matrices, projectors, bracket checks."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hrsym import (
    GlobalUnits,
    RepConfig,
    build_algebra,
    build_particle_rep,
    build_zeta_rep,
    verify_homomorphism,
)
from hrsym import ladder
from hrsym.dynamics import evolve_observable
import hrsym.scenarios
from hrsym.scenarios import ScenarioError, run_scenario, scenario_from_dict


def norm2(m):
    return np.linalg.norm(m, 2)


class TestConfig:
    def test_zero_mass_rejected(self):
        with pytest.raises(ValueError, match="central charge"):
            RepConfig(mass=0.0)

    def test_negative_mass_rejected(self):
        with pytest.raises(ValueError):
            RepConfig(mass=-1.0)

    def test_spin_requires_three_dimensions(self):
        with pytest.raises(ValueError):
            RepConfig(mass=1.0, dims=2, spin=0.5)

    def test_spin_must_be_half_integer(self):
        with pytest.raises(ValueError):
            RepConfig(mass=1.0, dims=3, spin=0.3)

    @staticmethod
    def config_from_json(monkeypatch, payload) -> RepConfig:
        """The RepConfig a single_rep scenario with `payload` builds its representation from."""
        built = []
        monkeypatch.setattr(hrsym.scenarios, "build_particle_rep",
                            lambda config: built.append(config) or build_particle_rep(config))
        run_scenario(scenario_from_dict({"kind": "single_rep", "payload": payload}))
        return built[0]

    def test_json_round_trip(self, monkeypatch):
        cfg = self.config_from_json(
            monkeypatch, {"mass": 2.0, "dims": 3, "levels": 4, "spin": 0.5, "hbar": 2.0, "omega_ref": 0.5}
        )
        assert cfg.dim == 4**3 * 2
        assert cfg.units == GlobalUnits(hbar=2.0, omega_ref=0.5)

    @pytest.mark.parametrize("field, value", [
        ("levels", 2.5), ("dims", True), ("dims", "2"), ("levels", math.inf), ("levels", math.nan),
    ])
    def test_json_refuses_a_non_integral_size(self, field, value):
        payload = {"mass": 1.0, "dims": 1, "levels": 4, field: value}
        with pytest.raises(ScenarioError, match=f"{field} must be an integer"):
            run_scenario(scenario_from_dict({"kind": "single_rep", "payload": payload}))

    def test_json_accepts_an_integral_float(self, monkeypatch):
        cfg = self.config_from_json(monkeypatch, {"mass": 1.0, "dims": 2.0, "levels": 3.0})
        assert (cfg.dims, cfg.levels) == (2, 3) and type(cfg.dims) is int and type(cfg.levels) is int


class TestLadderMatrices:
    def test_two_level_matrices_literal(self):
        rep = build_particle_rep(RepConfig(mass=1.0, dims=1, levels=2))
        inv_sqrt2 = 1.0 / np.sqrt(2.0)
        assert np.allclose(rep.X[0].toarray(), inv_sqrt2 * np.array([[0, 1], [1, 0]]), atol=1e-15)
        assert np.allclose(rep.P[0].toarray(), 1j * inv_sqrt2 * np.array([[0, -1], [1, 0]]), atol=1e-15)

    def test_mass_matrix_is_exact_scalar(self):
        for mass in (0.25, 1.0, 7.5):
            rep = build_particle_rep(RepConfig(mass=mass, dims=1, levels=5))
            assert np.array_equal(rep.M.toarray(), mass * np.eye(5))
            assert np.array_equal(rep.K[0].toarray(), (mass * rep.X[0]).toarray())

    def test_truncated_commutator_defect_sits_at_top_level(self):
        # oracle: [a, a+] truncated = Id - N |N-1><N-1|
        n = 8
        rep = build_particle_rep(RepConfig(mass=1.0, dims=1, levels=n))
        comm = rep.X[0] @ rep.P[0] - rep.P[0] @ rep.X[0]
        top = np.zeros((n, n))
        top[n - 1, n - 1] = 1.0
        assert np.max(np.abs(comm - 1j * (np.eye(n) - n * top))) < 1e-12

    def test_all_generators_hermitian(self):
        rep = build_particle_rep(RepConfig(mass=1.3, dims=3, levels=3, spin=0.5))
        for op in [*rep.X, *rep.P, *rep.K, rep.M, *rep.J.values()]:
            assert np.max(np.abs(op - op.conj().T)) <= 1e-15

    def test_scale_follows_units(self):
        units = GlobalUnits(hbar=3.0, omega_ref=2.0)
        rep = build_particle_rep(RepConfig(mass=5.0, dims=1, levels=4, units=units))
        a = np.diag(np.sqrt(np.arange(1.0, 4)), 1)
        expected = np.sqrt(3.0 / (2 * 5.0 * 2.0)) * (a + a.T)
        assert np.allclose(rep.X[0].toarray(), expected, atol=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 9])
    def test_sparse_ladders_hold_the_dense_bidiagonal_bit_for_bit(self, n):
        # reference: the dense a = diag(sqrt(1..n-1), 1) the ladders were once built from
        a = np.diag(np.sqrt(np.arange(1.0, n)), 1).astype(complex)
        mass, omega, hbar = 0.37, 1.3, 0.8
        x_scale, p_scale = math.sqrt(hbar / (2.0 * mass * omega)), math.sqrt(hbar * mass * omega / 2.0)
        pairs = [
            (ladder.position(n, mass, omega, hbar), x_scale * (a + a.conj().T)),
            (ladder.momentum(n, mass, omega, hbar), 1j * p_scale * (a.conj().T - a)),
        ]
        for op, dense in pairs:
            assert isinstance(op, ladder.Operator)
            assert op.nnz == np.count_nonzero(dense)
            assert np.array_equal(op.toarray().view(np.uint64), dense.view(np.uint64))

    def test_twenty_thousand_levels_build_in_one_gigabyte(self):
        # a dense 20,000-level ladder alone would need 6.4 GB; only the child is capped
        code = (
            "import resource; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from hrsym import RepConfig, build_particle_rep\n"
            "rep = build_particle_rep(RepConfig(mass=1.0, dims=1, levels=20000))\n"
            "print(rep.dim, rep.X[0].nnz, rep.P[0].nnz)\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr[-400:]
        assert proc.stdout.split() == ["20000", "39998", "39998"]


class TestNonFiniteScales:
    def test_overflowing_position_scale_names_the_mass(self):
        # hbar / (2 m omega) overflows although the mass itself is positive and finite
        with pytest.raises(ValueError, match="mass=1e-310"):
            build_particle_rep(RepConfig(mass=1e-310, dims=1, levels=4))

    def test_underflowing_momentum_scale_is_rejected(self):
        with pytest.raises(ValueError, match="hbar m omega/2"):
            ladder.momentum(4, 1e-320, 1e-10, 1.0)

    def test_nan_operator_entry_makes_the_raw_defect_nan(self):
        rep = build_particle_rep(RepConfig(mass=1.0, dims=2, levels=4))
        x = rep.X[0].copy()
        x.data[0] = np.nan
        rep.X[0] = x
        assert math.isnan(rep.raw_boundary_defect())


class TestInteriorProjector:
    def test_zero_margin_is_identity(self):
        rep = build_particle_rep(RepConfig(mass=1.0, dims=1, levels=6))
        assert np.array_equal(rep.interior_indices(0), np.arange(6))

    def test_rank_counts(self):
        rep = build_particle_rep(RepConfig(mass=1.0, dims=1, levels=8))
        assert len(rep.interior_indices(1)) == 7
        rep2 = build_particle_rep(RepConfig(mass=1.0, dims=2, levels=4))
        assert len(rep2.interior_indices(2)) == 4

    def test_margin_out_of_range(self):
        rep = build_particle_rep(RepConfig(mass=1.0, dims=1, levels=4))
        with pytest.raises(ValueError):
            rep.interior_indices(4)


class TestHomomorphism:
    def test_three_dimensional_rep_passes_at_tolerance(self):
        rep = build_particle_rep(RepConfig(mass=1.0, dims=3, levels=6))
        report = verify_homomorphism(rep, "hr3", margin=2, tol=1e-10)
        assert report.passed
        assert len(report.checks) == 45

    def test_unprojected_boundary_defect_magnitude(self):
        # oracle: raw [K, P] defect norm is m * N * hbar on the top level
        n = 8
        rep = build_particle_rep(RepConfig(mass=1.0, dims=1, levels=n))
        report = verify_homomorphism(rep, "h3", margin=0, tol=1e-10)
        assert not report.passed
        defect = report["[K1,P1]"].metrics["defect_norm"]
        assert abs(defect - n * 1.0) < 1e-9

    def test_mass_rows_exact_at_any_margin(self):
        rep = build_particle_rep(RepConfig(mass=2.0, dims=1, levels=8))
        report = verify_homomorphism(rep, "h3", margin=0, tol=1e-10)
        assert report["[K1,M]"].metrics["defect_norm"] == 0.0
        assert report["[P1,M]"].metrics["defect_norm"] == 0.0

    def test_projected_ccr_with_margin_one(self):
        rep = build_particle_rep(RepConfig(mass=1.0, dims=2, levels=6))
        hbar = 1.0
        idx = rep.interior_indices(1)
        for i in range(2):
            for j in range(2):
                comm = rep.X[i] @ rep.P[j] - rep.P[j] @ rep.X[i]
                want = 1j * hbar * (i == j) * np.eye(len(idx))
                assert norm2(comm[np.ix_(idx, idx)] - want) <= 1e-12

    def test_spinful_rep_satisfies_rotation_brackets(self):
        rep = build_particle_rep(RepConfig(mass=2.0, dims=3, levels=3, spin=1.0))
        report = verify_homomorphism(rep, "hr3", margin=1, tol=1e-10)
        assert report.passed

    def test_time_generator_pairs_are_listed_as_skipped(self):
        rep = build_particle_rep(RepConfig(mass=1.0, dims=3, levels=4))
        report = verify_homomorphism(rep, "g3tilde", margin=1)
        assert len(report.checks) == 45
        assert {"[K1,H]", "[K2,H]", "[K3,H]"} <= set(report.skipped)
        assert len(report.skipped) == 10

    def test_scenario_metrics_name_the_skipped_pairs(self):
        def metrics(payload):
            sc = scenario_from_dict({"kind": "single_rep", "payload": payload})
            rec = run_scenario(sc).checks[1]
            assert rec.name == f"homomorphism:{payload['algebra']}"
            return rec.metrics

        g3 = metrics({"mass": 1.0, "dims": 3, "levels": 4, "algebra": "g3tilde", "margin": 1})
        assert g3["pairs"] == 45 and g3["skipped"] == 10
        assert "[K1,H]" in g3["skipped_pairs"]
        hr3 = metrics({"mass": 1.0, "dims": 1, "levels": 6, "algebra": "hr3", "margin": 1})
        assert hr3["pairs"] == 3 and hr3["skipped"] == 42
        assert "[J12,K1]" in hr3["skipped_pairs"] and "[K2,P2]" in hr3["skipped_pairs"]


_DEGREE = {"J": 2, "K": 1, "P": 1, "X": 1, "M": 0, "I": 0, "H": 2}


def per_pair_homomorphism(rep, alg, margin=None) -> tuple:
    """The per-pair loop: one commutator, restriction and dense 2-norm per pair.

    Returns ({pair: (defect norm, margin)}, skipped pairs); a pair whose
    restricted defect holds a non-finite entry gets NaN.
    """
    alg = build_algebra(alg)
    hbar = rep.config.units.hbar
    realized = rep.realized_generators(alg)
    names = [g.name for g in alg.generators]
    norms, skipped = {}, []
    for ia, na in enumerate(names):
        for nb in names[ia + 1:]:
            targets = alg.constants.terms(alg.index(na), alg.index(nb))
            target_names = [alg.generators[k].name for k, _ in targets]
            if any(t not in realized for t in (na, nb, *target_names)):
                skipped.append(f"[{na},{nb}]")
                continue
            ga, gb = realized[na], realized[nb]
            expected = sum((float(f) * realized[t] for (_, f), t in zip(targets, target_names)),
                           ladder.Operator(ga.shape, dtype=complex))
            pair_margin = margin if margin is not None else min(
                _DEGREE[na[0]] + _DEGREE[nb[0]], rep.config.levels - 1)
            blk = ladder.block(ga @ gb - gb @ ga - 1j * hbar * expected, rep.interior_indices(pair_margin)).toarray()
            norm = float(np.linalg.norm(blk, 2)) if np.isfinite(blk).all() else math.nan
            norms[f"[{na},{nb}]"] = (norm, pair_margin)
    return norms, skipped


BATCHED = {
    "d1": (RepConfig(mass=1.3, dims=1, levels=8), "h3", None),
    "d2": (RepConfig(mass=0.7, dims=2, levels=5), "h3", None),
    "d3": (RepConfig(mass=2.0, dims=3, levels=4), "hr3", None),
    "d3_spin_half": (RepConfig(mass=1.5, dims=3, levels=3, spin=0.5), "hr3", None),
    "d2_margin_2": (RepConfig(mass=1.1, dims=2, levels=6), "h3", 2),
    "d3_margin_0": (RepConfig(mass=1.0, dims=3, levels=3), "hr3", 0),
    "d3_g3tilde": (RepConfig(mass=1.0, dims=3, levels=4), "g3tilde", 1),
    "d1_mass_1e300": (RepConfig(mass=1e300, dims=1, levels=4), "h3", None),
}


class TestBatchedHomomorphism:
    @pytest.mark.parametrize("case", BATCHED)
    def test_batched_table_equals_the_per_pair_loop(self, case):
        cfg, alg, margin = BATCHED[case]
        rep = build_particle_rep(cfg)
        report = verify_homomorphism(rep, alg, margin=margin, tol=1e-10)
        want, skipped = per_pair_homomorphism(rep, alg, margin)
        assert report.skipped == skipped
        assert [c.name for c in report.checks] == list(want)
        for check in report.checks:
            norm, pair_margin = want[check.name]
            got = check.metrics["defect_norm"]
            assert check.metrics["margin"] == pair_margin and check.metrics["tol"] == 1e-10
            assert math.isnan(got) == math.isnan(norm), check.name
            assert math.isnan(norm) or abs(got - norm) <= 1e-12 * norm, check.name
            assert check.passed == (got <= 1e-10)

    def test_overflowing_pairs_are_the_only_nan_ones(self):
        rep = build_particle_rep(RepConfig(mass=1e300, dims=1, levels=4))
        report = verify_homomorphism(rep, "h3")
        nan = [c.name for c in report.checks if math.isnan(c.metrics["defect_norm"])]
        assert nan == ["[K1,M]", "[P1,M]"]
        assert all(math.isfinite(c.metrics["defect_norm"]) for c in report.checks if c.name not in nan)

    def test_one_block_norms_call_and_no_spectral_norm_call(self, monkeypatch):
        calls = []
        for name in ("block_norms", "spectral_norm"):
            def counted(*args, _fn=getattr(ladder, name), _name=name, **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(ladder, name, counted)
        report = verify_homomorphism(build_particle_rep(RepConfig(mass=1.0, dims=3, levels=4, spin=0.5)), "hr3")
        assert len(report.checks) == 45
        assert calls == ["block_norms"]

    def test_no_realized_pair_gives_an_empty_table(self):
        rep = build_particle_rep(RepConfig(mass=1.0, dims=1, levels=4))
        report = verify_homomorphism(rep, "so3")
        assert report.checks == [] and len(report.skipped) == 3


REALIZED_CASES = [(1, 0.0), (2, 0.0), (3, 0.0), (3, 0.5)]


class TestRealizedGenerators:
    @pytest.mark.parametrize("dims, spin", REALIZED_CASES, ids=[f"d{d}s{s}" for d, s in REALIZED_CASES])
    @pytest.mark.parametrize("alg", ["h3", "hr3", "g3tilde", "h3_naive"])
    def test_each_realized_generator_is_the_reps_own_operator(self, alg, dims, spin):
        rep = build_particle_rep(RepConfig(mass=1.5, dims=dims, levels=3, spin=spin))
        own = {"M": rep.M, **{f"J{i}{j}": op for (i, j), op in rep.J.items()}}
        for kind in "XPK":
            own.update({f"{kind}{k + 1}": op for k, op in enumerate(getattr(rep, kind))})
        alg = build_algebra(alg)
        realized = rep.realized_generators(alg)
        assert list(realized) == [n for n in alg.names() if n in own or n == "I"]
        for name, op in realized.items():
            if name == "I":
                assert (op != ladder.identity(rep.dim)).nnz == 0
            else:
                assert op is own[name], name

    def test_skipped_pair_lists_are_unchanged(self):
        def skipped(dims, alg):
            rep = build_particle_rep(RepConfig(mass=1.0, dims=dims, levels=4))
            return verify_homomorphism(rep, alg).skipped

        g3 = build_algebra("g3tilde").names()
        assert skipped(3, "g3tilde") == [f"[{n},H]" for n in g3[:-1]]
        assert skipped(1, "h3") == [
            "[K1,K2]", "[K1,K3]", "[K1,P2]", "[K1,P3]", "[K2,K3]", "[K2,P1]", "[K2,P2]", "[K2,P3]",
            "[K2,M]", "[K3,P1]", "[K3,P2]", "[K3,P3]", "[K3,M]", "[P1,P2]", "[P1,P3]", "[P2,P3]",
            "[P2,M]", "[P3,M]",
        ]
        assert skipped(2, "h3_naive") == [
            "[X1,X3]", "[X1,P3]", "[X2,X3]", "[X2,P3]", "[X3,P1]", "[X3,P2]", "[X3,P3]", "[X3,I]",
            "[P1,P3]", "[P2,P3]", "[P3,I]",
        ]
        assert skipped(1, "so3") == ["[J12,J13]", "[J12,J23]", "[J13,J23]"]


class TestZetaFamily:
    def test_unit_zeta_is_plain_rep(self):
        cfg = RepConfig(mass=1.0, dims=1, levels=6)
        z = build_zeta_rep(1.0, build_particle_rep(cfg))
        rep = build_particle_rep(cfg)
        assert np.array_equal(z.X[0].toarray(), rep.X[0].toarray())
        assert np.array_equal(z.P[0].toarray(), rep.P[0].toarray())
        assert z.zeta == 1.0

    def test_zeta_scenario_reuses_the_particle_rep(self, monkeypatch):
        calls = []
        real = ladder.embed

        def counted(*args, **kwargs):
            calls.append(args[1])
            return real(*args, **kwargs)

        monkeypatch.setattr(ladder, "embed", counted)
        sc = scenario_from_dict({"kind": "single_rep",
                                 "payload": {"mass": 1.0, "dims": 3, "levels": 4, "zeta": 2.0}})
        assert run_scenario(sc).passed
        assert len(calls) == 6  # X and P of three axes, built once

    def test_zero_zeta_rejected(self):
        with pytest.raises(ValueError, match="zeta"):
            build_zeta_rep(0.0, build_particle_rep(RepConfig(mass=1.0, dims=1, levels=4)))

    def test_scaled_commutator_on_interior(self):
        cfg = RepConfig(mass=1.0, dims=1, levels=8)
        z = build_zeta_rep(4.0, build_particle_rep(cfg))
        rep = build_particle_rep(cfg)
        idx = rep.interior_indices(1)
        comm = z.X[0] @ z.P[0] - z.P[0] @ z.X[0]
        assert norm2(comm[np.ix_(idx, idx)] - 4j * np.eye(len(idx))) <= 1e-12

    @settings(max_examples=20, deadline=None)
    @given(zeta=st.floats(-10, 10).filter(lambda z: abs(z) > 1e-3))
    def test_commutator_tracks_zeta(self, zeta):
        cfg = RepConfig(mass=1.0, dims=1, levels=8)
        z = build_zeta_rep(zeta, build_particle_rep(cfg))
        rep = build_particle_rep(cfg)
        idx = rep.interior_indices(1)
        comm = z.X[0] @ z.P[0] - z.P[0] @ z.X[0]
        assert norm2(comm[np.ix_(idx, idx)] - 1j * zeta * np.eye(len(idx))) <= 1e-10

    def test_central_charge_eigenvalue_distinguishes_members(self):
        # the central elements -i [X, P] / hbar = zeta Id of distinct zeta values
        # differ on the interior, so the family members are inequivalent
        cfg = RepConfig(mass=1.0, dims=1, levels=4)
        idx = build_particle_rep(cfg).interior_indices(1)

        def central(z):
            return (-1j * (z.X[0] @ z.P[0] - z.P[0] @ z.X[0])).toarray()[np.ix_(idx, idx)]

        diff = (central(build_zeta_rep(1.0, build_particle_rep(cfg)))
                - central(build_zeta_rep(2.5, build_particle_rep(cfg))))
        assert np.allclose(diff, -1.5 * np.eye(len(idx)), atol=1e-12)


class TestFlowCovariance:
    def test_boost_shifts_conjugate_momentum_on_interior(self):
        # exp(i b K / hb) P exp(-i b K / hb) = P - m b Id away from the boundary
        rep = build_particle_rep(RepConfig(mass=1.5, dims=2, levels=24))
        b = 0.15
        shifted = evolve_observable(rep.K[0], rep.P[0], b)
        idx = rep.interior_indices(8)
        want = (rep.P[0] - 1.5 * b * np.eye(rep.dim))[np.ix_(idx, idx)]
        assert norm2(shifted[np.ix_(idx, idx)] - want) <= 1e-6

    def test_boost_leaves_transverse_momentum_exactly(self):
        rep = build_particle_rep(RepConfig(mass=1.5, dims=2, levels=24))
        shifted = evolve_observable(rep.K[0], rep.P[1], 0.15)
        assert np.max(np.abs(shifted - rep.P[1])) <= 1e-12

    def test_boost_generators_commute_exactly(self):
        rep = build_particle_rep(RepConfig(mass=2.0, dims=3, levels=3))
        for i in range(3):
            for j in range(3):
                assert np.max(np.abs(rep.K[i] @ rep.K[j] - rep.K[j] @ rep.K[i])) == 0.0

    def test_rotation_covariance_quarter_turn(self):
        # exp(i th J12 / hb) K1 exp(-i th J12 / hb) = cos(th) K1 - sin(th) K2,
        # exact on the interior because J12 conserves total quanta
        rep = build_particle_rep(RepConfig(mass=1.0, dims=3, levels=6))
        theta = np.pi / 2
        rotated = evolve_observable(rep.J[(1, 2)], rep.K[0], theta)
        idx = rep.interior_indices(3)
        want = (np.cos(theta) * rep.K[0] - np.sin(theta) * rep.K[1])[np.ix_(idx, idx)]
        assert norm2(rotated[np.ix_(idx, idx)] - want) <= 1e-6

