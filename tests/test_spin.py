"""Spin blocks, the mass*spin tensor, relative-motion spectra, spin addition."""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hrsym import (
    GlobalUnits,
    NonScalarCasimirError,
    RepConfig,
    build_algebra,
    build_particle_rep,
    casimir_spin_value,
    decompose_product_spins,
    relative_mode_system,
    relative_spin_spectrum,
    spin_matrices,
    t_tensor,
    tensor_rep,
)
import hrsym.spin
from hrsym.scenarios import run_scenario, scenario_from_dict
from hrsym.spin import J_PAIRS


def norm2(m):
    return np.linalg.norm(m, 2)


def total_spin_casimir(s_a, s_b):
    """Brute-force coupled Casimir on the product spin space."""
    ra, rb = spin_matrices(s_a), spin_matrices(s_b)
    total = {
        p: np.kron(ra.components[p], np.eye(rb.dim))
        + np.kron(np.eye(ra.dim), rb.components[p])
        for p in J_PAIRS
    }
    return sum(total[p] @ total[p] for p in J_PAIRS)


class TestSpinMatrices:
    def test_spin_zero_is_trivial(self):
        rep = spin_matrices(0)
        for p in J_PAIRS:
            assert rep.components[p].shape == (1, 1)
            assert rep.components[p][0, 0] == 0

    def test_spin_half_matches_pauli(self):
        # oracle: ladder construction at s = 1/2 gives hb/2 times the Pauli
        # matrices under the component mapping 12 -> z, 23 -> x, 13 -> -y
        rep = spin_matrices(0.5)
        sz = 0.5 * np.array([[1, 0], [0, -1]], dtype=complex)
        sx = 0.5 * np.array([[0, 1], [1, 0]], dtype=complex)
        sy = 0.5 * np.array([[0, -1j], [1j, 0]], dtype=complex)
        assert np.allclose(rep.components[(1, 2)], sz, atol=1e-15)
        assert np.allclose(rep.components[(2, 3)], sx, atol=1e-15)
        assert np.allclose(rep.components[(1, 3)], -sy, atol=1e-15)

    def test_spin_one_casimir(self):
        rep = spin_matrices(1)
        assert np.allclose(rep.casimir(), 2.0 * np.eye(3), atol=1e-14)

    @pytest.mark.parametrize("twos", range(0, 6))
    def test_casimir_scalar(self, twos):
        s = twos / 2.0
        rep = spin_matrices(s)
        dev = np.max(np.abs(rep.casimir() - s * (s + 1) * np.eye(rep.dim)))
        assert dev <= 1e-13

    @pytest.mark.parametrize("twos", range(0, 6))
    def test_bracket_closure_matches_catalog(self, twos):
        # spin blocks must satisfy the same structure constants as the
        # rotation catalog, within rounding
        so3 = build_algebra("so3")
        rep = spin_matrices(twos / 2.0)
        worst = 0.0
        for pa in J_PAIRS:
            for pb in J_PAIRS:
                if pa >= pb:
                    continue
                comm = (
                    rep.components[pa] @ rep.components[pb]
                    - rep.components[pb] @ rep.components[pa]
                )
                expected = np.zeros_like(comm)
                na, nb = f"J{pa[0]}{pa[1]}", f"J{pb[0]}{pb[1]}"
                for k, f in so3.constants.terms(so3.index(na), so3.index(nb)):
                    target = so3.generators[k].name
                    tp = (int(target[1]), int(target[2]))
                    expected = expected + float(f) * rep.components[tp]
                worst = max(worst, np.max(np.abs(comm - 1j * expected)))
        assert worst <= 1e-14

    def test_invalid_spin_rejected(self):
        with pytest.raises(ValueError):
            spin_matrices(0.4)
        with pytest.raises(ValueError):
            spin_matrices(-0.5)

    @pytest.mark.parametrize("bad", [True, False, "1/2", "1"])
    def test_boolean_or_string_spin_rejected(self, bad):
        with pytest.raises(ValueError, match="half-integer"):
            spin_matrices(bad)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_spin_rejected_naming_it(self, bad):
        with pytest.raises(ValueError, match="spin must be a nonnegative half-integer"):
            spin_matrices(bad)


class TestSpinTensor:
    def test_spinless_tensor_vanishes(self):
        rep = build_particle_rep(RepConfig(mass=1.5, dims=3, levels=4))
        t = t_tensor(rep)
        assert max(np.max(np.abs(t[p])) for p in J_PAIRS) <= 1e-10

    def test_spinful_tensor_is_mass_times_spin_block(self):
        rep = build_particle_rep(RepConfig(mass=2.0, dims=3, levels=3, spin=0.5))
        t = t_tensor(rep)
        eye_space = np.eye(27)
        worst = max(
            np.max(np.abs(t[p] - 2.0 * np.kron(eye_space, rep.spin_rep.components[p])))
            for p in J_PAIRS
        )
        assert worst <= 1e-12

    def test_quadratic_invariant_eigenvalue(self):
        # oracle: diagonalize sum of squares directly; (1/2) T.T has the
        # single eigenvalue m^2 s (s+1) hb^2 = 3 on a spin-1/2, mass-2 rep
        rep = build_particle_rep(RepConfig(mass=2.0, dims=3, levels=2, spin=0.5))
        t = t_tensor(rep)
        tt = sum(t[p] @ t[p] for p in J_PAIRS)
        vals = np.linalg.eigvalsh(tt.toarray())
        assert np.max(np.abs(vals - 3.0)) <= 1e-12

    def test_two_dimensional_rep_rejected(self):
        rep = build_particle_rep(RepConfig(mass=1.0, dims=2, levels=3))
        with pytest.raises(ValueError):
            t_tensor(rep)

    @pytest.mark.parametrize("spin", [0.0, 0.5])
    def test_scenario_evaluates_the_tensor_once(self, monkeypatch, spin):
        # count calls wherever a caller looks t_tensor up: every hrsym binding
        original, calls = hrsym.spin.t_tensor, []

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if module is not None and (name == "hrsym" or name.startswith("hrsym.")):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counted)
        sc = scenario_from_dict({"kind": "single_rep", "payload": {
            "mass": 2.0, "dims": 3, "levels": 3, "spin": spin, "algebra": "hr3",
            "margin": 1, "t_tensor": True}})
        checks = {c.name: c for c in run_scenario(sc).checks}
        assert checks["t_tensor_identity"].passed
        assert len(calls) == 1


class TestCasimirSpinValue:
    def test_spin_zero(self):
        rep = build_particle_rep(RepConfig(mass=1.0, dims=3, levels=3))
        value = casimir_spin_value(rep)
        assert abs(value.value) <= 1e-12
        assert abs(value.s) <= 1e-8

    def test_spin_three_halves(self):
        rep = build_particle_rep(RepConfig(mass=1.0, dims=3, levels=2, spin=1.5))
        value = casimir_spin_value(rep)
        assert value.value == pytest.approx(3.75, abs=1e-12)
        assert value.s == pytest.approx(1.5, abs=1e-12)

    def test_composite_flagged_reducible(self):
        a = build_particle_rep(RepConfig(mass=1.0, dims=3, levels=3))
        b = build_particle_rep(RepConfig(mass=2.0, dims=3, levels=3))
        comp = tensor_rep(a, b)
        with pytest.raises(NonScalarCasimirError):
            casimir_spin_value(comp, margin=1)


class TestRelativeSpectrum:
    def test_ground_shell_only(self):
        spec = relative_spin_spectrum(0)
        assert spec.ell_multisets() == [(0, [0.0])]

    def test_shells_to_two_quanta(self):
        spec = relative_spin_spectrum(2)
        assert spec.ell_multisets() == [(0, [0.0]), (1, [1.0]), (2, [0.0, 2.0])]
        degeneracies = {
            (shell.n, line.ell): line.multiplicity
            for shell in spec.shells
            for line in shell.entries
        }
        assert degeneracies == {(0, 0.0): 1, (1, 1.0): 3, (2, 0.0): 1, (2, 2.0): 5}

    def test_multiplicities_fill_space(self):
        for n_max in (0, 1, 2, 3):
            spec = relative_spin_spectrum(n_max)
            assert spec.multiplicity_total() == spec.dim
            assert not spec.unmatched

    def test_spin_half_pair_ground_shell(self):
        spec = relative_spin_spectrum(0, s_a=0.5, s_b=0.5)
        assert spec.ell_multisets() == [(0, [0.0, 1.0])]
        counts = {line.ell: line.multiplicity for line in spec.shells[0].entries}
        assert counts == {0.0: 1, 1.0: 3}

    def test_spinful_spectrum_fills_space(self):
        spec = relative_spin_spectrum(1, s_a=0.5, s_b=0.0)
        assert spec.multiplicity_total() == spec.dim == 8
        assert not spec.unmatched

    def test_eigenvalues_match_labels_tightly(self):
        spec = relative_spin_spectrum(3)
        for line in spec.entries:
            want = line.ell * (line.ell + 1)
            assert abs(line.value - want) <= 1e-8 * max(1.0, want)


@pytest.mark.parametrize("key, value", [
    ("n_max", 2.7), ("n_max", 2.0), ("n_max", True), ("n_max", "2"), ("n_max", -1),
    ("max_power", 1.9), ("max_power", False), ("max_power", -1),
])
def test_relative_mode_system_refuses_a_count_that_is_not_a_nonnegative_integer(key, value):
    # a count is refused, never truncated to a neighbouring system
    args = {"n_max": 2, "mu": 0.5, "units": GlobalUnits(), key: value}
    with pytest.raises(ValueError, match=rf"^{key} must be a nonnegative integer, got {value!r}$"):
        relative_mode_system(**args)


def test_relative_mode_system_takes_a_numpy_integer_count():
    system = relative_mode_system(np.int64(2), 0.5, GlobalUnits(), max_power=np.int32(1))
    assert (system.n_max, system.max_power, system.dim) == (2, 1, 10)
    assert type(system.n_max) is int and type(system.max_power) is int


class TestRelativeModeAgainstTensorProduct:
    def test_relative_construction_matches_two_particle_build(self):
        # cross-check: one-oscillator relative orbital operators against the
        # explicit two-particle tensor construction, compared on the span of
        # single relative-mode excitations over the joint vacuum
        units = GlobalUnits()
        m_a = m_b = 1.0
        mu = 0.5
        a = build_particle_rep(RepConfig(mass=m_a, dims=3, levels=3))
        b = build_particle_rep(RepConfig(mass=m_b, dims=3, levels=3))
        comp = tensor_rep(a, b)
        hbar, omega = units.hbar, units.omega_ref
        lowering = [
            np.sqrt(mu * omega / (2 * hbar)) * comp.R[i]
            + 1j / np.sqrt(2 * hbar * mu * omega) * comp.Q[i]
            for i in range(3)
        ]
        vac = np.zeros(comp.dim, dtype=complex)
        vac[0] = 1.0
        assert max(np.linalg.norm(low @ vac) for low in lowering) <= 1e-13
        basis = [vac] + [low.conj().T @ vac for low in lowering]
        for vec in basis[1:]:
            assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)
        v = np.stack(basis, axis=1)

        ss_comp = np.zeros((comp.dim, comp.dim), dtype=complex)
        for i, j in J_PAIRS:
            s_ij = comp.R[i - 1] @ comp.Q[j - 1] - comp.Q[i - 1] @ comp.R[j - 1]
            ss_comp = ss_comp + s_ij @ s_ij
        block_tensor = v.conj().T @ ss_comp @ v

        rel = relative_mode_system(1, mu, units)
        block_single = rel.spin_casimir
        assert block_tensor.shape == block_single.shape
        assert np.max(np.abs(block_tensor - block_single)) <= 1e-10


class TestSpinAddition:
    def test_half_half(self):
        assert decompose_product_spins(0.5, 0.5) == [(0.0, 1), (1.0, 1)]

    def test_spin_with_scalar(self):
        assert decompose_product_spins(1.5, 0) == [(1.5, 1)]

    def test_one_with_half(self):
        assert decompose_product_spins(1, 0.5) == [(0.5, 1), (1.5, 1)]

    @pytest.mark.parametrize("two_sa", range(0, 7))
    @pytest.mark.parametrize("two_sb", range(0, 7))
    def test_matches_brute_force_diagonalization(self, two_sa, two_sb):
        s_a, s_b = two_sa / 2.0, two_sb / 2.0
        vals = np.linalg.eigvalsh(total_spin_casimir(s_a, s_b))
        found = {}
        for lam in vals:
            s = round(2 * 0.5 * (-1.0 + np.sqrt(max(0.0, 1.0 + 4.0 * lam)))) / 2
            found[s] = found.get(s, 0) + 1
        brute = []
        for s in sorted(found):
            dim = int(2 * s) + 1
            assert found[s] % dim == 0
            brute.extend([(float(s), 1)] * (found[s] // dim))
        assert decompose_product_spins(s_a, s_b) == brute
        got = hrsym.spin.brute_force_addition(spin_matrices(s_a), spin_matrices(s_b))
        assert got == ([s for s, _ in brute], [])

    def test_addition_scan_finds_no_mismatch(self):
        assert hrsym.spin.spin_addition_mismatches(3) == (49, [])

    @settings(max_examples=30, deadline=None)
    @given(two_sa=st.integers(0, 6), two_sb=st.integers(0, 6))
    def test_dimension_sum_rule_exact(self, two_sa, two_sb):
        s_a, s_b = two_sa / 2.0, two_sb / 2.0
        content = decompose_product_spins(s_a, s_b)
        assert sum(int(2 * s) + 1 for s, _ in content) == (two_sa + 1) * (two_sb + 1)
