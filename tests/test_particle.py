"""Truncated Fock representations: matrices, projectors, bracket checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hrsym import (
    GlobalUnits,
    RepConfig,
    build_particle_rep,
    build_zeta_rep,
    rep_config_from_json,
    verify_homomorphism,
)
from hrsym import ladder
from hrsym.dynamics import evolve_observable
from hrsym.scenarios import run_scenario, scenario_from_dict


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

    def test_json_round_trip(self):
        cfg = rep_config_from_json(
            {"mass": 2.0, "dims": 3, "levels": 4, "spin": 0.5, "hbar": 2.0, "omega_ref": 0.5}
        )
        assert cfg.dim == 4**3 * 2
        assert cfg.units == GlobalUnits(hbar=2.0, omega_ref=0.5)


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

