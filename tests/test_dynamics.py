"""Hamiltonian construction, flows, conservation, and the flow dichotomy."""

import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

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
import hrsym.scenarios
from hrsym import ladder
from hrsym.ladder import coherent_state
from hrsym.scenarios import DEFAULT_TOLERANCES, SUITES, run_scenario, scenario_from_dict
from hrsym.spin import J_PAIRS


def norm2(m):
    return np.linalg.norm(m, 2)


def count_calls(monkeypatch, module, name: str, record) -> list:
    """Record record(*args, **kwargs) of every call of module.name, as the flows reach it."""
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(record(*args, **kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def count_expm(monkeypatch) -> list:
    """The shape of every scipy.linalg.expm argument."""
    return count_calls(monkeypatch, scipy.linalg, "expm", lambda a, *args, **kwargs: a.shape)


def count_eigh(monkeypatch) -> list:
    """The shape of every numpy.linalg.eigh argument."""
    return count_calls(monkeypatch, np.linalg, "eigh", lambda a, *args, **kwargs: a.shape)


def dense_reference(h, psi0, times, hbar=1.0) -> np.ndarray:
    """scipy.linalg.expm(-1j t H / hbar) psi0 of the full dense H at every time of the grid."""
    dense = ladder.Operator(h).toarray()
    return np.array([scipy.linalg.expm(-1j * t * dense / hbar) @ psi0 for t in times])


def count_expm_multiply(monkeypatch) -> list:
    """The operator shape of every scipy.sparse.linalg.expm_multiply call."""
    return count_calls(monkeypatch, scipy.sparse.linalg, "expm_multiply", lambda a, b, **kwargs: a.shape)


def count_segments(monkeypatch) -> list:
    """The number of grid points of every Chebyshev segment (one basis each) of the flows."""
    return count_calls(monkeypatch, hrsym.dynamics, "_chebyshev_segment", lambda hs, psi, x: len(x))


@pytest.fixture(scope="module")
def rep32():
    return build_particle_rep(RepConfig(mass=1.0, dims=1, levels=32))


class TestPotentials:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            PotentialSpec(kind="morse")

    @pytest.mark.parametrize("bad", [True, "0.5", None])
    def test_boolean_or_string_coefficient_rejected_naming_the_field(self, bad):
        with pytest.raises(ValueError, match="coefficients must be a number"):
            PotentialSpec(kind="poly_x", coefficients=(0.0, bad))

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
        monkeypatch.setattr(hrsym.dynamics, "_DENSE_DIM", 0)  # else the flow takes eigh
        segments = count_segments(monkeypatch)
        krylov = evolve_state(h, psi0, ts)
        assert segments == [len(ts)]
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

    def test_flow_result_holds_one_row_per_grid_point(self, rep32):
        h = hamiltonian_physical(rep32, PotentialSpec("poly_x", (0.0, 0.0, 0.5)))
        flow = evolve_state(
            h, coherent_state(32, 0.4), np.linspace(0, 1, 5),
            observables={"x": rep32.X[0]},
        )
        assert len(flow.times) == 5
        assert len(flow.observable_traces["x"]) == 5
        assert flow.states.shape == (5, 32)

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


def _diagonal_with_stored_zeros(n: int) -> ladder.Operator:
    """diag(0, 1, ..., n-1) with stored zeros at (0, n-1) and (n-1, 0), which must not couple."""
    rows = np.concatenate((np.arange(n), [0, n - 1]))
    cols = np.concatenate((np.arange(n), [n - 1, 0]))
    vals = np.concatenate((np.arange(n, dtype=float), [0.0, 0.0]))
    return ladder.Operator((vals, (rows, cols)), shape=(n, n), dtype=complex)


@pytest.fixture(scope="module")
def rep_2d():
    return build_particle_rep(RepConfig(mass=1.3, dims=2, levels=6))


# generator -> the (count, size) of its direct-sum blocks on rep_2d (dim 36)
SPLIT_CASES = {
    # omega^2 = 4 / 1.3 away from the oscillator frequency: X^2 and P^2 keep
    # a^2 terms, which couple levels of equal parity in each dimension
    "parity_harmonic": (lambda rep: hamiltonian_physical(rep, PotentialSpec("poly_x", (0.0, 0.0, 2.0))), [(4, 9)]),
    "diagonal": (lambda rep: _diagonal_with_stored_zeros(rep.dim), [(36, 1)]),
    "linear_term": (lambda rep: hamiltonian_physical(rep, PotentialSpec("poly_x", (0.0, 0.3, 0.5))), [(1, 36)]),
    # P is purely imaginary; K = m X is real; both leave the other factor's level fixed
    "momentum": (lambda rep: rep.P[0], [(6, 6)]),
    "boost": (lambda rep: rep.K[0], [(6, 6)]),
}


@pytest.mark.parametrize("case", SPLIT_CASES)
class TestDirectSum:
    def test_blocks_scatter_back_to_the_operator_exactly(self, rep_2d, case):
        build, sizes = SPLIT_CASES[case]
        op = build(rep_2d)
        split = ladder.direct_sum(op)
        assert [idx.shape for idx, _ in split] == sizes
        assert sorted(ladder.component_sizes(op)) == sorted(s for k, s in sizes for _ in range(k))
        assert np.array_equal(np.sort(np.concatenate([idx.ravel() for idx, _ in split])), np.arange(rep_2d.dim))
        back = np.zeros(op.shape, dtype=complex)
        for idx, stack in split:
            assert stack.shape == idx.shape + idx.shape[1:]
            back[idx[:, :, None], idx[:, None, :]] = stack
        assert np.array_equal(back, op.toarray())

    def test_flows_agree_with_the_dense_exponential(self, rep_2d, case):
        h = SPLIT_CASES[case][0](rep_2d)
        dense = h.toarray()
        rng = np.random.default_rng(11)
        psi0 = rng.normal(size=rep_2d.dim) + 1j * rng.normal(size=rep_2d.dim)
        psi0 /= np.linalg.norm(psi0)
        times = [0.0, 0.3, 0.7, 1.0]
        flow = evolve_state(h, psi0, times, hbar=0.8)
        for t, state in zip(times, flow.states):
            assert np.max(np.abs(state - scipy.linalg.expm(-1j * t * dense / 0.8) @ psi0)) <= 1e-12
        a = rep_2d.X[1]
        u = scipy.linalg.expm(0.9j * dense / 0.8)
        want = u @ a.toarray() @ u.conj().T
        got = evolve_observable(h, a, 0.9, hbar=0.8)
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


class TestPropagationCount:
    def test_com_decoupling_scenario_propagates_once(self, monkeypatch):
        raw = next(r for r in SUITES["paper-full"]() if r["payload"].get("check") == "com_decoupling")
        dense = count_expm(monkeypatch)
        action = count_expm_multiply(monkeypatch)
        flows = count_calls(monkeypatch, hrsym.dynamics, "_chebyshev_states",
                            lambda h, psi0, t, hbar: (h.shape, len(t)))
        segments = count_segments(monkeypatch)
        report = run_scenario(scenario_from_dict(raw))
        assert report.passed
        # the parity blocks of the 784-dim H hold 392 states each, above the dense limit:
        # the whole 41-point grid takes one Chebyshev basis and no exponential
        assert dense == [] and action == []
        assert flows == [((784, 784), 41)]
        assert segments == [41]

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


class TestPoolSplit:
    """Blocks above _DENSE_LIMIT never reach scipy.linalg.expm; blocks of at most it still do."""

    @pytest.mark.parametrize("span, route", [(0.0, "eigh"), (np.inf, "chebyshev")], ids=["eigh", "chebyshev"])
    def test_a_block_above_the_dense_limit_makes_no_expm_call(self, rep_2d, monkeypatch, span, route):
        h = SPLIT_CASES["linear_term"][0](rep_2d)  # one block of 36 states
        assert ladder.component_sizes(h).max() > hrsym.dynamics._DENSE_LIMIT
        monkeypatch.setattr(hrsym.dynamics, "_ACTION_SPAN", span)
        times = np.linspace(0.0, 2.0, 21)
        assert hrsym.dynamics._route(h, times, 0.8) == route
        dense = count_expm(monkeypatch)
        flow = evolve_state(h, coherent_state(rep_2d.dim, 0.3), times, hbar=0.8)
        assert dense == []
        assert np.max(np.abs(flow.norm_trace - 1.0)) <= 1e-12

    def test_blocks_of_4_10_and_20_still_take_expm(self, monkeypatch):
        # the relative-mode flow of the benchmark's `relative_conservation:n6:spin` item
        sys = relative_mode_system(6, 0.6, GlobalUnits(), s_a=0.5, s_b=0)
        h = hamiltonian_physical(sys, PotentialSpec("poly_r2", (0.0, 0.5, 0.05)))
        assert sorted(set(ladder.component_sizes(h).tolist())) == [4, 10, 20]
        dense = count_expm(monkeypatch)
        eigh = count_eigh(monkeypatch)
        psi0 = np.zeros(sys.dim, dtype=complex)
        psi0[0] = 1.0
        evolve_state(h, psi0, np.linspace(0.0, 3.0, 31))
        # one stacked exponential per block size for the one distinct step of a uniform grid
        assert sorted(shape[1] for shape in dense) == [4, 10, 20] and eigh == []

    def test_picture_probe_fails_when_the_heisenberg_side_runs_backwards(self, monkeypatch):
        # a trapped 256-level flow on the eigh route: the state flow and the probe's backward
        # flow take one eigh per stack each, so a wrong sign of t on the backward flow must show
        raw = {"kind": "dynamics", "payload": {
            "check": "conservation", "levels": 256, "mass": 1.2,
            "potential": {"kind": "poly_x", "coefficients": [0.3, 0.0, 0.4]},
            "t_max": 6.0, "steps": 60, "alpha": [0.5, 0.1]}}
        eigh = count_eigh(monkeypatch)
        dense = count_expm(monkeypatch)
        checks = {c.name: c for c in run_scenario(scenario_from_dict(raw)).checks}
        assert checks["unitarity_energy"].passed and checks["picture_equivalence"].passed
        assert eigh == [(2, 128, 128)] * 2 and dense == []
        forward = hrsym.dynamics.evolve_state

        def backward_runs_forward(h, psi0, times, **kwargs):
            times = np.asarray(times, dtype=float)
            return forward(h, psi0, -times if times[-1] < 0 else times, **kwargs)

        monkeypatch.setattr(hrsym.scenarios, "evolve_state", backward_runs_forward)
        checks = {c.name: c for c in run_scenario(scenario_from_dict(raw)).checks}
        assert checks["unitarity_energy"].passed and not checks["picture_equivalence"].passed
        assert checks["picture_equivalence"].metrics["difference"] > 1e3 * DEFAULT_TOLERANCES["picture"]


@pytest.fixture(scope="module")
def pair24():
    """A 576-dim composite flow like com_decoupling, whose two parity blocks hold 288 states each."""
    a = build_particle_rep(RepConfig(mass=1.0, dims=1, levels=24))
    b = build_particle_rep(RepConfig(mass=2.0, dims=1, levels=24))
    comp = tensor_rep(a, b)
    h = hamiltonian_physical(comp, PotentialSpec("poly_r2", (0.0, 0.1)))
    assert [idx.shape for idx, _ in ladder.direct_sum(h)] == [(2, 288)]
    assert 288 > hrsym.dynamics._DENSE_LIMIT
    psi0 = np.kron(coherent_state(24, 0.4 + 0.2j), coherent_state(24, -0.3 + 0.1j))
    return h, psi0


class TestSparseAction:
    """The Chebyshev propagator: sparse products with H only, never an exponential or a dense block."""

    @pytest.mark.parametrize("times", [
        np.linspace(0.0, 1.0, 5),
        np.linspace(3.0, 3.5, 5),
        [0.0, 0.1, 0.3, 0.35, 1.0],
        [-0.5, -0.2, 0.4, 1.0],
    ], ids=["uniform", "uniform_late_start", "non_uniform", "negative_start"])
    def test_large_block_agrees_with_the_dense_exponential(self, pair24, monkeypatch, times):
        h, psi0 = pair24
        want = dense_reference(h, psi0, times, hbar=0.8)
        dense = count_expm(monkeypatch)
        eigh = count_eigh(monkeypatch)
        action = count_expm_multiply(monkeypatch)
        segments = count_segments(monkeypatch)
        flow = evolve_state(h, psi0, times, hbar=0.8)
        assert dense == [] and eigh == [] and action == []
        # one basis serves every grid point, however the grid is spaced or wherever it
        # starts; a grid starting below t = 0 first reaches t[0] alone
        assert segments == ([1, len(times) - 1] if times[0] < 0 else [len(times)])
        assert np.max(np.abs(flow.states - want)) <= 1e-12
        # with _ACTION_SPAN at 0 the same flow takes one eigh per stack of 288-state blocks
        monkeypatch.setattr(hrsym.dynamics, "_ACTION_SPAN", 0.0)
        flow = evolve_state(h, psi0, times, hbar=0.8)
        assert dense == [] and len(segments) == (2 if times[0] < 0 else 1) and eigh == [(2, 288, 288)]
        assert np.max(np.abs(flow.states - want)) <= 1e-12

    def test_sparse_action_is_deterministic_and_keeps_the_global_random_state(self, pair24, monkeypatch):
        h, psi0 = pair24
        times = np.linspace(0.0, 3.0, 4)
        draws = count_calls(monkeypatch, np.random, "randint", lambda *args, **kwargs: None)
        segments = count_segments(monkeypatch)
        saved = np.random.get_state()
        try:
            states = []
            for seed in (1, 2):
                np.random.seed(seed)
                before = np.random.get_state()
                states.append(evolve_state(h, psi0, times, hbar=0.8).states)
                after = np.random.get_state()
                assert before[0] == after[0] and before[2:] == after[2:]
                assert np.array_equal(before[1], after[1])
        finally:
            np.random.set_state(saved)
        assert segments == [4, 4] and draws == []  # the Chebyshev propagator ran and drew nothing
        assert np.array_equal(states[0], states[1])

    def test_sparse_action_forms_no_dense_block(self, pair24, monkeypatch):
        h, psi0 = pair24
        stacks = count_calls(monkeypatch, ladder, "_stacks", lambda *args, **kwargs: None)
        segments = count_segments(monkeypatch)
        dense = count_expm(monkeypatch)
        eigh = count_eigh(monkeypatch)
        evolve_state(h, psi0, np.linspace(0.0, 1.0, 5), hbar=0.8)
        assert segments == [5] and stacks == [] and eigh == []
        # a flow travelling past _ACTION_SPAN takes one eigh per stack up to _DENSE_DIM
        # dimensions; above it, where dense blocks need not fit, it still takes Chebyshev
        long_times = np.linspace(0.0, 10.0, 5)
        monkeypatch.setattr(hrsym.dynamics, "_ACTION_SPAN", 1e-3)
        assert hrsym.dynamics._spectral_interval(h)[1] * 10.0 / 0.8 > hrsym.dynamics._ACTION_SPAN * 288**2
        evolve_state(h, psi0, long_times, hbar=0.8)
        assert segments == [5] and len(stacks) == 1 and eigh == [(2, 288, 288)]
        monkeypatch.setattr(hrsym.dynamics, "_DENSE_DIM", 575)
        evolve_state(h, psi0, long_times, hbar=0.8)
        assert segments == [5, 5] and len(stacks) == 1 and len(eigh) == 1
        assert dense == []

    @pytest.mark.parametrize("t_max, steps, route", [(0.9, 9, "chebyshev"), (300.0, 300, "eigh")],
                             ids=["short_sparse_action", "long_eigh"])
    def test_wide_spectrum_block_holds_the_dynamics_tolerances(self, monkeypatch, t_max, steps, route):
        # one block of 300 levels with a Gershgorin half-width of 122: the Chebyshev
        # order grows with the distance travelled, so only the short flow takes it
        rep = build_particle_rep(RepConfig(mass=1.0, dims=1, levels=300, units=GlobalUnits(hbar=0.8)))
        hbar = rep.units.hbar
        h = hamiltonian_physical(rep, PotentialSpec("poly_x", (0.0, 0.3, 0.5)))
        assert ladder.component_sizes(h).tolist() == [300]
        psi0 = coherent_state(300, 0.6 + 0.4j)
        times = np.linspace(0.0, t_max, steps + 1)
        w, v = np.linalg.eigh(h.toarray())
        want = (np.exp(-1j * np.outer(times, w) / hbar) * (v.conj().T @ psi0)) @ v.T
        probe = slice(None, None, max(1, steps // 10))  # the exponential at ten or so grid times
        want_expm = dense_reference(h, psi0, times[probe], hbar=hbar)
        dense = count_expm(monkeypatch)
        eigh = count_eigh(monkeypatch)
        action = count_expm_multiply(monkeypatch)
        segments = count_segments(monkeypatch)
        flow = evolve_state(h, psi0, times, hbar=hbar)
        assert action == [] and dense == []
        assert bool(segments) == (route == "chebyshev")
        assert eigh == ([] if route == "chebyshev" else [(1, 300, 300)])
        # a tenth of the tightest tolerance of the conservation check
        tol = DEFAULT_TOLERANCES["unitarity"] / 10
        assert np.max(np.abs(flow.states - want)) <= tol
        assert np.max(np.abs(flow.states[probe] - want_expm)) <= tol
        assert np.max(np.abs(flow.norm_trace - 1.0)) <= tol
        assert np.max(np.abs(flow.energy_trace - flow.energy_trace[0])) <= tol

    def test_long_flow_above_the_dense_dimension_holds_unitarity(self, monkeypatch):
        # a flow on more than _DENSE_DIM dimensions never takes the block exponentials,
        # however far it travels; the 300-level block stands in for one of 4,097 levels
        rep = build_particle_rep(RepConfig(mass=1.0, dims=1, levels=300, units=GlobalUnits(hbar=0.8)))
        hbar = rep.units.hbar
        h = hamiltonian_physical(rep, PotentialSpec("poly_x", (0.0, 0.3, 0.5)))
        monkeypatch.setattr(hrsym.dynamics, "_DENSE_DIM", 299)
        psi0 = coherent_state(300, 0.6 + 0.4j)
        times = np.linspace(0.0, 300.0, 301)
        w, v = np.linalg.eigh(h.toarray())
        want = (np.exp(-1j * np.outer(times, w) / hbar) * (v.conj().T @ psi0)) @ v.T
        dense = count_expm(monkeypatch)
        flow = evolve_state(h, psi0, times, hbar=hbar)
        assert dense == []
        assert np.max(np.abs(flow.norm_trace - 1.0)) <= 1e-11
        assert np.max(np.abs(flow.energy_trace - flow.energy_trace[0])) <= 1e-11
        assert np.max(np.abs(flow.states - want)) <= 1e-11

    def test_boundary_weight_must_weigh_each_state(self, rep32):
        h = hamiltonian_physical(rep32, PotentialSpec("poly_x", (0.0, 0.0, 0.5)))
        per_state = lambda psi: abs(psi[-1]) ** 2  # one weight per state, not per row of a stack
        with pytest.raises(ValueError, match="one weight per state"):
            evolve_state(h, coherent_state(32, 0.5), [0.0, 0.5, 1.0], boundary_weight=per_state)

    @pytest.mark.parametrize("route", ["expm", "chebyshev", "eigh"], ids=["dense", "sparse_action", "eigh"])
    def test_stacked_traces_equal_the_per_state_products(self, monkeypatch, route):
        monkeypatch.setattr(hrsym.dynamics, "_route", lambda *args: route)
        rep = build_particle_rep(RepConfig(mass=1.0, dims=1, levels=12))
        h = hamiltonian_physical(rep, PotentialSpec("poly_x", (0.0, 0.2, 0.5)))
        h_gen = hamiltonian_galilei(rep, 1.5)
        psi0 = coherent_state(12, 1.0 + 0.3j)
        times = np.linspace(0.0, 2.0, 11)
        obs = {"x": rep.X[0], "p": rep.P[0]}
        flow = evolve_state(h, psi0, times, observables=obs, boundary_weight=rep.boundary_weight)
        edge = rep.boundary_indices
        weights = [np.vdot(s[edge], s[edge]).real for s in flow.states]
        assert 0.0 < max(weights)
        assert abs(flow.max_boundary_weight - max(weights)) <= 1e-14
        assert np.max(np.abs(rep.boundary_weight(flow.states) - weights)) <= 1e-14
        for k, state in enumerate(flow.states):
            assert abs(flow.energy_trace[k] - np.vdot(state, h @ state).real) <= 1e-14
            for name, op in obs.items():
                assert abs(flow.observable_traces[name][k] - np.vdot(state, op @ state).real) <= 1e-14
        cmp = compare_flows(h_gen, h, psi0, times)
        other = evolve_state(h_gen, psi0, times)
        overlaps = np.array([np.vdot(s2, s1) for s1, s2 in zip(other.states, flow.states)])
        assert np.max(np.abs(cmp.fidelity - np.abs(overlaps))) <= 1e-14
        assert np.max(np.abs(cmp.phase - np.angle(overlaps))) <= 1e-14


def bessel_by_fourier(x: float, orders: int) -> np.ndarray:
    """J_k(x) for k < `orders`: the Fourier coefficients of exp(i x sin s), summed in extended precision."""
    n = 1 << (2 * orders + 64).bit_length()
    s = 8 * np.arctan(np.longdouble(1)) * np.arange(n, dtype=np.longdouble) / n
    return (np.fft.fft(np.exp(1j * (np.longdouble(x) * np.sin(s)))) / n)[:orders].real.astype(float)


class TestChebyshevKernels:
    XS = [0.0, 1e-8, 0.5, 30.0, 760.0, 7000.0]

    def test_bessel_table_matches_the_references(self):
        # one table over all six points, as a segment of a flow forms it
        orders = hrsym.dynamics._chebyshev_order(max(self.XS))
        table = hrsym.dynamics._bessel_table(np.array(self.XS), orders)
        assert table.shape == (orders, len(self.XS))
        assert np.array_equal(table[:, 0], np.eye(orders)[0])
        want = scipy.special.jv(np.arange(orders)[:, None], np.array(self.XS)[None, :])
        # scipy's jv itself strays by up to 6.7e-14 at x = 7000 from the extended-precision sums
        assert np.max(np.abs(table - want)) <= 1e-13
        assert np.max(np.abs(table[:, :4] - want[:, :4])) <= 1e-14
        if np.finfo(np.longdouble).eps > 1e-18:
            pytest.skip("long double carries no extra precision here")
        for j, x in enumerate(self.XS):
            assert np.max(np.abs(table[:, j] - bessel_by_fourier(x, orders))) <= 1e-14

    @pytest.mark.parametrize("x", XS)
    def test_chebyshev_order_leaves_a_negligible_tail(self, x):
        orders = hrsym.dynamics._chebyshev_order(x)
        tail = np.abs(scipy.special.jv(np.arange(orders, orders + 400), x))
        assert 2.0 * tail.sum() <= 1e-16

    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(n=st.integers(1, 12), density=st.floats(0.05, 1.0), seed=st.integers(0, 2**32 - 1),
           imaginary=st.booleans(), shift=st.floats(-1e3, 1e3), scale=st.sampled_from([1e-6, 1.0, 1e6]))
    def test_gershgorin_interval_encloses_the_spectrum(self, n, density, seed, imaginary, shift, scale):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(n, n)) * (rng.random((n, n)) < density)
        if imaginary:
            a = a + 1j * rng.normal(size=(n, n)) * (rng.random((n, n)) < density)
        h = scale * (a + a.conj().T) / 2 + shift * np.eye(n)
        c, r = hrsym.dynamics._spectral_interval(ladder.Operator(h))
        w = np.linalg.eigvalsh(h)
        assert c - r <= w[0] and w[-1] <= c + r

    @pytest.mark.parametrize("case", SPLIT_CASES)
    def test_every_generator_agrees_with_the_dense_exponential(self, rep_2d, monkeypatch, case):
        # real and purely imaginary generators, blocks of 1 to 36 states, a grid from below 0
        h = SPLIT_CASES[case][0](rep_2d)
        dense = h.toarray()
        rng = np.random.default_rng(11)
        psi0 = rng.normal(size=rep_2d.dim) + 1j * rng.normal(size=rep_2d.dim)
        psi0 /= np.linalg.norm(psi0)
        times = [-0.4, 0.0, 0.3, 1.0]
        monkeypatch.setattr(hrsym.dynamics, "_DENSE_LIMIT", 0)
        monkeypatch.setattr(hrsym.dynamics, "_DENSE_DIM", 0)
        segments = count_segments(monkeypatch)
        flow = evolve_state(h, psi0, times, hbar=0.8)
        assert segments == [1, 3]
        for t, state in zip(times, flow.states):
            assert np.max(np.abs(state - scipy.linalg.expm(-1j * t * dense / 0.8) @ psi0)) <= 1e-12

    def test_evolve_observable_of_a_complex_generator(self, monkeypatch):
        rng = np.random.default_rng(5)
        a = (rng.normal(size=(40, 40)) + 1j * rng.normal(size=(40, 40))) * (rng.random((40, 40)) < 0.08)
        h = (a + a.conj().T) / 2
        b = rng.normal(size=(40, 40)) + 1j * rng.normal(size=(40, 40))
        obs = (b + b.conj().T) / 2
        u = scipy.linalg.expm(0.7j * h / 0.8)
        want = u @ obs @ u.conj().T
        psi0 = np.ones(40) / np.sqrt(40)
        times = [-0.3, 0.7]
        want_states = dense_reference(h, psi0, times, hbar=0.8)
        assert ladder.component_sizes(ladder.Operator(h)).max() > hrsym.dynamics._DENSE_LIMIT
        monkeypatch.setattr(hrsym.dynamics, "_ACTION_SPAN", 0.0)
        kinds = count_calls(monkeypatch, np.linalg, "eigh", lambda m: m.dtype.kind)
        got = evolve_observable(ladder.Operator(h), obs, 0.7, hbar=0.8)
        flow = evolve_state(ladder.Operator(h), psi0, times, hbar=0.8)
        assert len(kinds) >= 2 and set(kinds) == {"c"}
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))
        assert np.max(np.abs(flow.states - want_states)) <= 1e-12


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
