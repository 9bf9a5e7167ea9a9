"""Hamiltonian construction, flows, conservation, and the flow dichotomy."""

import math

import numpy as np
import pytest
import scipy.linalg

from hrsym import (
    GlobalUnits,
    PotentialSpec,
    RepConfig,
    build_particle_rep,
    compare_flows,
    ehrenfest_check,
    evolve_observable,
    evolve_state,
    extra_casimir_check,
    hamiltonian_galilei,
    hamiltonian_physical,
    relative_mode_system,
    tensor_rep,
)
import hrsym.dynamics
from hrsym import ladder
from hrsym.ladder import coherent_state
from hrsym.scenarios import SUITES, run_scenario, scenario_from_dict
from hrsym.spin import J_PAIRS


def norm2(m):
    return np.linalg.norm(m, 2)


def count_expm(monkeypatch) -> list:
    """Record every scipy.linalg.expm call, as the flows reach it, in the returned list."""
    calls = []
    real = scipy.linalg.expm

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return real(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "expm", counted)
    return calls


@pytest.fixture(scope="module")
def rep32():
    return build_particle_rep(RepConfig(mass=1.0, dims=1, levels=32))


class TestPotentials:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            PotentialSpec(kind="morse")

    def test_degree_cap(self):
        with pytest.raises(ValueError):
            PotentialSpec(kind="poly_x", coefficients=(0, 0, 0, 0, 0, 1))

    def test_kind_system_mismatch(self, rep32):
        with pytest.raises(ValueError, match="relative separation"):
            a = build_particle_rep(RepConfig(mass=1.0, dims=1, levels=4))
            b = build_particle_rep(RepConfig(mass=2.0, dims=1, levels=4))
            hamiltonian_physical(tensor_rep(a, b), PotentialSpec("poly_x", (0, 0, 0.5)))
        with pytest.raises(ValueError):
            hamiltonian_physical(rep32, PotentialSpec("poly_r2", (0, 0.5)))


class TestHamiltonians:
    def test_free_equals_offsetless_generator(self, rep32):
        h_phys = hamiltonian_physical(rep32, PotentialSpec("none"))
        h_gen = hamiltonian_galilei(rep32, 0.0)
        assert np.array_equal(h_phys.toarray(), h_gen.toarray())

    def test_generator_offset_commutes_with_momentum(self, rep32):
        h = hamiltonian_galilei(rep32, 7.3)
        p = rep32.P[0]
        assert np.max(np.abs(h @ p - p @ h)) <= 1e-12

    def test_boost_bracket_with_generator(self, rep32):
        # [K, H] = i hb P on the interior, margin 2
        h = hamiltonian_galilei(rep32, 0.0)
        k, p = rep32.K[0], rep32.P[0]
        idx = rep32.interior_indices(2)
        defect = (k @ h - h @ k - 1j * p).toarray()[np.ix_(idx, idx)]
        assert norm2(defect) <= 1e-10

    def test_composite_hamiltonian_structure(self):
        a = build_particle_rep(RepConfig(mass=1.0, dims=1, levels=6))
        b = build_particle_rep(RepConfig(mass=2.0, dims=1, levels=6))
        comp = tensor_rep(a, b)
        k = 0.7
        h = hamiltonian_physical(comp, PotentialSpec("poly_r2", (0.0, 0.5 * k)))
        mu = 2.0 / 3.0
        expected = (
            comp.P[0] @ comp.P[0] / 6.0
            + comp.Q[0] @ comp.Q[0] / (2 * mu)
            + 0.5 * k * comp.R[0] @ comp.R[0]
        )
        assert np.max(np.abs(h - expected)) <= 1e-13

    def test_isotropic_well_interior_spectrum(self):
        # with k = m = hb = omega_ref = 1 the interior block is diagonal with
        # the exact ladder values n + 3/2
        rep = build_particle_rep(RepConfig(mass=1.0, dims=3, levels=4))
        h = hamiltonian_physical(rep, PotentialSpec("poly_x", (0.0, 0.0, 0.5)))
        idx = rep.interior_indices(1)
        block = h.toarray()[np.ix_(idx, idx)]
        vals = np.sort(np.linalg.eigvalsh(block))
        want = np.sort(
            [n1 + n2 + n3 + 1.5 for n1 in range(3) for n2 in range(3) for n3 in range(3)]
        )
        assert np.max(np.abs(vals - want)) <= 1e-12

    def test_constant_term_not_multiplied_by_dimension(self):
        rep = build_particle_rep(RepConfig(mass=1.0, dims=3, levels=3))
        h0 = hamiltonian_physical(rep, PotentialSpec("none"))
        h1 = hamiltonian_physical(rep, PotentialSpec("poly_x", (4.0,)))
        assert np.max(np.abs(h1 - h0 - 4.0 * np.eye(rep.dim))) <= 1e-13


class TestEvolveState:
    def test_time_zero_returns_initial(self, rep32):
        h = hamiltonian_physical(rep32, PotentialSpec("none"))
        psi0 = coherent_state(32, 0.4)
        flow = evolve_state(h, psi0, [0.0])
        assert np.array_equal(flow.states[0], psi0)

    def test_scalar_generator_gives_global_phase(self, rep32):
        calv = 2.2
        h = calv * np.eye(rep32.dim, dtype=complex)
        psi0 = coherent_state(32, 0.4)
        flow = evolve_state(h, psi0, [0.0, 1.0, 2.0])
        for tk, state in zip(flow.times, flow.states):
            assert np.max(np.abs(state - np.exp(-1j * calv * tk) * psi0)) <= 1e-12

    def test_unitarity_and_energy_over_long_window(self, rep32):
        h = hamiltonian_physical(rep32, PotentialSpec("poly_x", (0.0, 0.0, 0.5)))
        psi0 = coherent_state(32, 1.0)
        flow = evolve_state(
            h, psi0, np.linspace(0, 10, 101), boundary_weight=rep32.boundary_weight
        )
        assert flow.reliable
        assert np.max(np.abs(flow.norm_trace - 1.0)) <= 1e-10
        assert np.max(np.abs(flow.energy_trace - flow.energy_trace[0])) <= 1e-9

    def test_krylov_agrees_with_dense(self, rep32, monkeypatch):
        h = hamiltonian_physical(rep32, PotentialSpec("poly_x", (0.0, 0.0, 0.5)))
        psi0 = coherent_state(32, 0.6 + 0.2j)
        ts = np.linspace(0, 2, 11)
        dense = evolve_state(h, psi0, ts)
        monkeypatch.setattr(hrsym.dynamics, "_DENSE_LIMIT", 0)
        krylov = evolve_state(h, psi0, ts)
        assert np.max(np.abs(dense.states - krylov.states)) <= 1e-9

    def test_non_hermitian_rejected(self):
        h = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            evolve_state(h, np.array([1.0, 0.0]), [0.0, 1.0])

    def test_unnormalized_state_rejected(self, rep32):
        h = hamiltonian_physical(rep32, PotentialSpec("none"))
        with pytest.raises(ValueError, match="normalized"):
            evolve_state(h, np.ones(32), [0.0, 1.0])

    def test_non_finite_state_or_generator_rejected(self, rep32):
        h = hamiltonian_physical(rep32, PotentialSpec("none"))
        psi0 = coherent_state(32, 0.1)
        with pytest.raises(ValueError, match="normalized"):
            evolve_state(h, np.full(32, np.nan), [0.0, 1.0])
        with pytest.raises(ValueError, match="finite Hermitian"):
            evolve_state(h + np.nan * ladder.identity(32), psi0, [0.0, 1.0])

    def test_non_increasing_grid_rejected(self, rep32):
        h = hamiltonian_physical(rep32, PotentialSpec("none"))
        with pytest.raises(ValueError, match="increasing"):
            evolve_state(h, coherent_state(32, 0.1), [0.0, 1.0, 1.0])

    def test_flow_result_serializes_with_traces(self, rep32):
        import json

        h = hamiltonian_physical(rep32, PotentialSpec("poly_x", (0.0, 0.0, 0.5)))
        flow = evolve_state(
            h, coherent_state(32, 0.4), np.linspace(0, 1, 5),
            observables={"x": rep32.X[0]},
        )
        payload = flow.to_json()
        json.dumps(payload)
        assert len(payload["times"]) == 5
        assert len(payload["observable_traces"]["x"]) == 5
        with_states = flow.to_json(include_states=True)
        assert len(with_states["states"]) == 5

    def test_boundary_leakage_flagged(self):
        rep = build_particle_rep(RepConfig(mass=1.0, dims=1, levels=6))
        h = hamiltonian_physical(rep, PotentialSpec("none"))
        psi0 = np.zeros(6, dtype=complex)
        psi0[5] = 1.0  # sits on the truncation boundary
        flow = evolve_state(h, psi0, [0.0, 0.5], boundary_weight=rep.boundary_weight)
        assert not flow.reliable
        assert flow.max_boundary_weight > 0.9

    def test_tiny_boundary_weight_is_exact_to_rounding(self):
        # a 24-level coherent packet at alpha 0.5 keeps about 4.3e-37 on its top level
        levels, alpha = 24, 0.5
        rep = build_particle_rep(RepConfig(mass=1.0, dims=1, levels=levels))
        terms = [alpha ** (2 * n) / math.factorial(n) for n in range(levels)]
        exact = terms[-1] / math.fsum(terms)
        assert 1e-37 < exact < 1e-36
        assert rep.boundary_weight(coherent_state(levels, alpha)) == pytest.approx(exact, rel=1e-12, abs=0.0)


class TestEvolveObservable:
    def test_identity_is_fixed(self, rep32):
        h = hamiltonian_physical(rep32, PotentialSpec("poly_x", (0.0, 1.0)))
        eye = np.eye(rep32.dim, dtype=complex)
        assert np.max(np.abs(evolve_observable(h, eye, 3.0) - eye)) <= 1e-12

    def test_generator_is_conserved(self, rep32):
        h = hamiltonian_physical(rep32, PotentialSpec("poly_x", (0.0, 0.0, 0.5)))
        assert np.max(np.abs(evolve_observable(h, h, 2.0) - h)) <= 1e-12

    def test_free_position_drifts_linearly(self, rep32):
        # X(t) = X + (t/m) P on the interior for small t
        h = hamiltonian_physical(rep32, PotentialSpec("none"))
        t = 0.05
        xt = evolve_observable(h, rep32.X[0], t)
        idx = rep32.interior_indices(10)
        want = (rep32.X[0] + t * rep32.P[0])[np.ix_(idx, idx)]
        assert norm2(xt[np.ix_(idx, idx)] - want) <= 1e-8

    def test_schrodinger_heisenberg_agreement(self, rep32):
        h = hamiltonian_physical(rep32, PotentialSpec("poly_x", (0.0, 0.0, 0.5)))
        psi0 = coherent_state(32, 0.5 + 0.1j)
        rng = np.random.default_rng(42)
        a = rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32))
        a = (a + a.conj().T) / 2
        t = 1.7
        flow = evolve_state(h, psi0, [0.0, t])
        lhs = np.vdot(flow.states[-1], a @ flow.states[-1]).real
        rhs = np.vdot(psi0, evolve_observable(h, a, t) @ psi0).real
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))


class TestEhrenfest:
    def test_free_packet_residual(self, rep32):
        h = hamiltonian_physical(rep32, PotentialSpec("none"))
        psi0 = coherent_state(32, 0.6 + 0.5j)
        ts = np.arange(0.0, 0.5 + 1e-9, 1e-3)
        result = ehrenfest_check(rep32, h, psi0, ts)
        assert result.reliable
        assert result.max_residual <= 1e-6

    def test_harmonic_packet_tracks_cosine(self, rep32):
        h = hamiltonian_physical(rep32, PotentialSpec("poly_x", (0.0, 0.0, 0.5)))
        x0 = np.sqrt(2.0) * 0.5
        ts = np.linspace(0, 2 * np.pi, 401)
        flow = evolve_state(h, coherent_state(32, 0.5), ts, observables={"x": rep32.X[0]})
        assert np.max(np.abs(flow.observable_traces["x"] - x0 * np.cos(ts))) <= 1e-4

    def test_eigenstate_is_stationary(self, rep32):
        h = hamiltonian_physical(rep32, PotentialSpec("poly_x", (0.0, 0.0, 0.5)))
        psi0 = np.zeros(32, dtype=complex)
        psi0[1] = 1.0  # first excited ladder state, an eigenstate here
        ts = np.linspace(0, 3, 61)
        flow = evolve_state(h, psi0, ts, observables={"x": rep32.X[0]})
        trace = flow.observable_traces["x"]
        assert np.max(np.abs(trace - trace[0])) <= 1e-8

    def test_boundary_state_flagged_unreliable(self):
        rep = build_particle_rep(RepConfig(mass=1.0, dims=1, levels=8))
        h = hamiltonian_physical(rep, PotentialSpec("none"))
        psi0 = np.zeros(8, dtype=complex)
        psi0[7] = 1.0
        result = ehrenfest_check(rep, h, psi0, np.linspace(0, 0.1, 11))
        assert not result.reliable

    def test_returns_its_flow_and_honours_the_leakage_threshold(self):
        rep = build_particle_rep(RepConfig(mass=1.0, dims=1, levels=12))
        h = hamiltonian_physical(rep, PotentialSpec("poly_x", (0.0, 0.0, 0.5)))
        psi0 = coherent_state(12, 1.0)
        ts = np.linspace(0, 1, 21)
        result = ehrenfest_check(rep, h, psi0, ts)
        assert result.reliable
        assert np.array_equal(result.flow.observable_traces["p0"], result.p_traces[0])
        assert np.array_equal(result.flow.observable_traces["x0"], result.x_traces[0])
        bw = result.flow.max_boundary_weight
        assert 0.0 < bw <= 1e-6
        tight = ehrenfest_check(rep, h, psi0, ts, leakage_threshold=bw / 2)
        assert not tight.reliable and not tight.flow.reliable


class TestFlowDichotomy:
    def test_identical_flows(self, rep32):
        h = hamiltonian_physical(rep32, PotentialSpec("none"))
        cmp = compare_flows(h, h, coherent_state(32, 0.3), np.linspace(0, 2, 11))
        assert np.max(np.abs(cmp.fidelity - 1.0)) <= 1e-12
        assert np.max(np.abs(cmp.phase)) <= 1e-12

    def test_constant_offset_is_pure_phase(self, rep32):
        h1 = hamiltonian_galilei(rep32, 5.0)
        h2 = hamiltonian_physical(rep32, PotentialSpec("none"))
        ts = np.linspace(0, 2, 21)
        cmp = compare_flows(h1, h2, coherent_state(32, 0.6 + 0.5j), ts)
        assert np.min(cmp.fidelity) >= 1.0 - 1e-8
        err = np.abs(np.angle(np.exp(1j * (cmp.phase + 5.0 * ts))))
        assert np.max(err) <= 1e-6

    def test_potential_breaks_the_agreement(self, rep32):
        h1 = hamiltonian_galilei(rep32, 0.0)
        h2 = hamiltonian_physical(rep32, PotentialSpec("poly_x", (0.0, 0.0, 0.5)))
        ts = np.linspace(0, 2, 21)
        cmp = compare_flows(h1, h2, coherent_state(32, 0.6 + 0.5j), ts)
        assert cmp.fidelity[-1] < 0.99

    def test_dichotomy_over_potential_family(self, rep32):
        psi0 = coherent_state(32, 0.6 + 0.5j)
        ts = np.linspace(0, 2, 9)
        h_gen = hamiltonian_galilei(rep32, 0.0)
        for coeffs in ((), (0.0, 0.0, 0.5), (0.0, 0.4), (0.0, 0.0, 0.1, 0.0, 0.02)):
            pot = PotentialSpec("poly_x" if coeffs else "none", coeffs)
            h = hamiltonian_physical(rep32, pot)
            cmp = compare_flows(h_gen, h, psi0, ts)
            if pot.is_trivial:
                assert np.min(cmp.fidelity) >= 1.0 - 1e-8
            else:
                assert np.min(cmp.fidelity) < 1.0 - 1e-6

    def test_dimension_mismatch_rejected(self, rep32):
        small = build_particle_rep(RepConfig(mass=1.0, dims=1, levels=8))
        with pytest.raises(ValueError):
            compare_flows(
                hamiltonian_galilei(rep32, 0.0),
                hamiltonian_galilei(small, 0.0),
                coherent_state(32, 0.1),
                [0.0, 1.0],
            )


class TestExtraCasimir:
    def test_zero_offset_gives_zero_matrix(self):
        rep = build_particle_rep(RepConfig(mass=1.0, dims=1, levels=16))
        report = extra_casimir_check(rep, 0.0)
        assert report.passed
        assert report["value_fixes_calV"].metrics["fitted_scalar"] == pytest.approx(0.0, abs=1e-10)

    def test_value_fixes_offset(self):
        rep = build_particle_rep(RepConfig(mass=2.0, dims=1, levels=16))
        report = extra_casimir_check(rep, 3.0)
        assert report.passed
        assert report["value_fixes_calV"].metrics["fitted_scalar"] == pytest.approx(12.0, abs=1e-10)
        assert report["value_fixes_calV"].metrics["implied_calV"] == pytest.approx(3.0, abs=1e-10)

    def test_three_dimensional_combination(self):
        rep = build_particle_rep(RepConfig(mass=1.5, dims=3, levels=4))
        report = extra_casimir_check(rep, 1.2)
        assert report.passed

    def test_physical_hamiltonian_is_not_a_generator(self):
        rep = build_particle_rep(RepConfig(mass=1.0, dims=1, levels=32))
        h_phys = hamiltonian_physical(rep, PotentialSpec("poly_x", (0.0, 0.0, 0.5)))
        report = extra_casimir_check(rep, 0.0, hamiltonian=h_phys)
        assert not report.passed
        assert report["scalar_on_interior"].metrics["deviation_norm"] >= 0.1


class TestRelativeModeConservation:
    def test_rotation_generators_commute_with_interaction(self):
        units = GlobalUnits()
        sys = relative_mode_system(5, 0.5, units)
        h = hamiltonian_physical(sys, PotentialSpec("poly_r2", (0.0, 0.5, 0.05)))
        worst = max(norm2((h @ sys.S[p] - sys.S[p] @ h).toarray()) for p in J_PAIRS)
        assert worst <= 1e-12

    def test_spin_casimir_conserved_along_flow(self):
        units = GlobalUnits()
        sys = relative_mode_system(6, 2.0 / 3.0, units)
        h = hamiltonian_physical(sys, PotentialSpec("poly_r2", (0.0, 0.5, 0.05)))
        low = sys.relative_ladder()
        state = (low[0].conj().T + 1j * low[1].conj().T) @ sys.ground_state()
        state = state / np.linalg.norm(state)
        ts = np.linspace(0, 3, 31)
        flow = evolve_state(h, state, ts, observables={"ss": sys.spin_casimir})
        trace = flow.observable_traces["ss"]
        assert trace[0] == pytest.approx(2.0, abs=1e-10)  # ell = 1 shell
        assert np.max(np.abs(trace - trace[0])) <= 1e-8
        assert np.max(np.abs(flow.norm_trace - 1.0)) <= 1e-10

    def test_spinful_relative_system_conserves_casimir(self):
        units = GlobalUnits()
        sys = relative_mode_system(3, 0.5, units, s_a=0.5, s_b=0.5)
        h = hamiltonian_physical(sys, PotentialSpec("poly_r2", (0.0, 0.3)))
        worst = max(norm2((h @ sys.S[p] - sys.S[p] @ h).toarray()) for p in J_PAIRS)
        assert worst <= 1e-12

    def test_power_beyond_headroom_rejected(self):
        sys = relative_mode_system(3, 0.5, GlobalUnits(), max_power=1)
        with pytest.raises(ValueError, match="max_power"):
            hamiltonian_physical(sys, PotentialSpec("poly_r2", (0.0, 0.1, 0.1)))


class TestComDecoupling:
    def test_total_momentum_and_com_velocity(self):
        a = build_particle_rep(RepConfig(mass=1.0, dims=1, levels=28))
        b = build_particle_rep(RepConfig(mass=2.0, dims=1, levels=28))
        comp = tensor_rep(a, b)
        h = hamiltonian_physical(comp, PotentialSpec("poly_r2", (0.0, 0.05)))
        psi0 = np.kron(coherent_state(28, 0.3 + 0.2j), coherent_state(28, -0.2 + 0.1j))
        ts = np.linspace(0, 1, 41)
        flow = evolve_state(
            h, psi0, ts, observables={"p": comp.P[0]}, boundary_weight=comp.boundary_weight
        )
        assert flow.reliable
        trace = flow.observable_traces["p"]
        assert np.max(np.abs(trace - trace[0])) <= 1e-9
        result = ehrenfest_check(comp, h, psi0, ts)
        assert result.max_residual <= 1e-5


class TestPropagationCount:
    def test_com_decoupling_scenario_propagates_once(self, monkeypatch):
        raw = next(r for r in SUITES["paper-full"]() if r["payload"].get("check") == "com_decoupling")
        calls = count_expm(monkeypatch)
        report = run_scenario(scenario_from_dict(raw))
        assert report.passed
        assert calls == [(784, 784)]

    def test_uniform_grid_takes_one_exponential(self, rep32, monkeypatch):
        h = hamiltonian_physical(rep32, PotentialSpec("poly_x", (0.0, 0.0, 0.5)))
        calls = count_expm(monkeypatch)
        flow = evolve_state(h, coherent_state(32, 0.5), np.linspace(0.0, 6.0, 61))
        assert len(flow.times) == 61
        assert len(calls) == 1

    def test_non_uniform_grid_is_exact(self, rep32, monkeypatch):
        h = hamiltonian_physical(rep32, PotentialSpec("poly_x", (0.0, 0.3, 0.5)))
        psi0 = coherent_state(32, 0.4 + 0.2j)
        times = [0.0, 0.1, 0.3, 0.35]
        want = [scipy.linalg.expm(-1j * t * h.toarray()) @ psi0 for t in times]
        calls = count_expm(monkeypatch)
        flow = evolve_state(h, psi0, times)
        assert len(calls) == 3  # steps 0.1, 0.2 and 0.05
        for state, expected in zip(flow.states, want):
            assert np.max(np.abs(state - expected)) <= 1e-12


class TestSparseAssembly:
    @staticmethod
    def dense_poly(base, coefficients):
        acc = np.zeros(base.shape, dtype=complex)
        power = np.eye(base.shape[0], dtype=complex)
        for k, c in enumerate(coefficients):
            if k > 0:
                power = power @ base
            acc = acc + c * power
        return acc

    @staticmethod
    def assert_close(got, want):
        assert np.max(np.abs(got - want)) <= 1e-13 * max(1.0, np.max(np.abs(want)))

    @pytest.fixture(scope="class")
    def comp(self):
        a = build_particle_rep(RepConfig(mass=1.0, dims=2, levels=5))
        b = build_particle_rep(RepConfig(mass=2.5, dims=2, levels=5))
        return tensor_rep(a, b)

    def test_square_sum_matches_dense_products(self, comp):
        for ops in (comp.P, comp.Q, comp.R, comp.X):
            self.assert_close(ladder.square_sum(ops), sum(m @ m for m in ops))

    def test_square_sum_of_dense_input(self):
        rng = np.random.default_rng(7)
        ops = [rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12)) for _ in range(3)]
        self.assert_close(ladder.square_sum(ops), sum(m @ m for m in ops))

    @pytest.mark.parametrize("degree", range(5))
    def test_poly_in_matches_dense_powers(self, comp, degree):
        rr = sum(r @ r for r in comp.R)
        coefficients = [0.7, -0.3, 0.05, 0.01, -0.002][: degree + 1]
        self.assert_close(ladder.poly_in(rr, coefficients), self.dense_poly(rr, coefficients))

    def test_poly_in_skips_zero_coefficients(self, comp):
        rr = sum(r @ r for r in comp.R)
        assert not np.any(ladder.poly_in(rr, (0.0, 0.0, 0.0)).toarray())
        self.assert_close(ladder.poly_in(rr, (0.0, 0.0, 1.5)), 1.5 * rr @ rr)
        quartic = (0.0, 0.0, 0.0, 0.0, 2.0)
        self.assert_close(ladder.poly_in(rr, quartic), self.dense_poly(rr, quartic))

    def test_poly_in_of_dense_non_banded_input(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(10, 10)) + 1j * rng.normal(size=(10, 10))
        base = (a + a.conj().T) / 2.0
        coefficients = (1.0, 0.0, -0.5, 0.25, 0.125)
        self.assert_close(ladder.poly_in(base, coefficients), self.dense_poly(base, coefficients))
