"""Two-particle products: lifted generators, COM/relative observables, CCR fits."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hrsym import (
    GlobalUnits,
    RepConfig,
    build_algebra,
    build_particle_rep,
    tensor_rep,
    verify_ccr_composite,
)
from hrsym import ladder


def norm2(m):
    return np.linalg.norm(m, 2)


def desk_pair(m_a=1.0, m_b=2.0, levels=8, dims=1):
    a = build_particle_rep(RepConfig(mass=m_a, dims=dims, levels=levels))
    b = build_particle_rep(RepConfig(mass=m_b, dims=dims, levels=levels))
    return tensor_rep(a, b)


class TestLiftedGenerators:
    def test_mass_additivity_exact(self):
        comp = desk_pair(1.0, 2.0)
        assert np.array_equal(comp.M.toarray(), 3.0 * np.eye(comp.dim))

    @settings(max_examples=15, deadline=None)
    @given(
        m_a=st.floats(0.01, 10.0),
        m_b=st.floats(0.01, 10.0),
    )
    def test_mass_additivity_random(self, m_a, m_b):
        comp = desk_pair(m_a, m_b, levels=3)
        assert np.array_equal(comp.M.toarray(), (m_a + m_b) * np.eye(comp.dim))

    def test_momentum_lift_entrywise(self):
        a = build_particle_rep(RepConfig(mass=1.0, dims=1, levels=4))
        b = build_particle_rep(RepConfig(mass=2.0, dims=1, levels=4))
        comp = tensor_rep(a, b)
        expected = np.kron(a.P[0].toarray(), np.eye(4)) + np.kron(np.eye(4), b.P[0].toarray())
        assert np.array_equal(comp.P[0].toarray(), expected)

    def test_reduced_mass(self):
        comp = desk_pair(1.0, 2.0)
        assert comp.reduced_mass == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_unit_mismatch_rejected(self):
        a = build_particle_rep(RepConfig(mass=1.0, dims=1, levels=3))
        b = build_particle_rep(
            RepConfig(mass=1.0, dims=1, levels=3, units=GlobalUnits(hbar=2.0))
        )
        with pytest.raises(ValueError, match="hbar"):
            tensor_rep(a, b)

    def test_dimension_mismatch_rejected(self):
        a = build_particle_rep(RepConfig(mass=1.0, dims=1, levels=3))
        b = build_particle_rep(RepConfig(mass=1.0, dims=2, levels=3))
        with pytest.raises(ValueError, match="dimension"):
            tensor_rep(a, b)

    def test_lift_is_linear(self):
        # lifting commutes with linear combinations of generators
        a = build_particle_rep(RepConfig(mass=1.0, dims=1, levels=4))
        b = build_particle_rep(RepConfig(mass=2.0, dims=1, levels=4))
        comp = tensor_rep(a, b)
        alpha = 0.75
        combo_a = alpha * a.K[0] + a.P[0]
        combo_b = alpha * b.K[0] + b.P[0]
        lifted_combo = np.kron(combo_a.toarray(), np.eye(4)) + np.kron(np.eye(4), combo_b.toarray())
        assert np.max(np.abs(lifted_combo - (alpha * comp.K[0] + comp.P[0]))) <= 1e-15

    def test_lift_preserves_brackets_on_interior(self):
        # the composite is a representation of the same algebra
        comp = desk_pair(1.0, 2.0, levels=8, dims=1)
        h3 = build_algebra("h3")
        idx = comp.interior_indices(2)
        k, p = comp.K[0], comp.P[0]
        comm = k @ p - p @ k
        assert norm2((comm - 1j * comp.M).toarray()[np.ix_(idx, idx)]) <= 1e-10

    def test_lift_preserves_rotation_brackets(self):
        comp = desk_pair(1.0, 2.0, levels=4, dims=2)
        idx = comp.interior_indices(2)
        j, k1, k2 = comp.J[(1, 2)], comp.K[0], comp.K[1]
        comm = j @ k1 - k1 @ j
        assert norm2((comm - 1j * k2).toarray()[np.ix_(idx, idx)]) <= 1e-10


class TestComPosition:
    def test_weighted_average_formula(self):
        comp = desk_pair(1.0, 2.0)
        a, b = comp.rep_a, comp.rep_b
        weighted = (
            1.0 * np.kron(a.X[0].toarray(), np.eye(b.dim))
            + 2.0 * np.kron(np.eye(a.dim), b.X[0].toarray())
        ) / 3.0
        assert np.max(np.abs(comp.X[0] - weighted)) <= 1e-15

    def test_equal_masses_arithmetic_mean(self):
        comp = desk_pair(1.5, 1.5)
        a, b = comp.rep_a, comp.rep_b
        mean = 0.5 * (np.kron(a.X[0].toarray(), np.eye(b.dim)) + np.kron(np.eye(a.dim), b.X[0].toarray()))
        assert np.max(np.abs(comp.X[0] - mean)) <= 1e-15

    def test_heavy_mass_limit_scaling(self):
        # with the mass-dependent oscillator length the relative spectral
        # distance scales as sqrt(m_a m_b) / (m_a + m_b); the 0.2% level is
        # reached near mass ratio 1e6
        for ratio, bound in ((1.0e3, 0.04), (2.5e5, 0.0021), (1.0e6, 0.0011)):
            a = build_particle_rep(RepConfig(mass=ratio, dims=1, levels=4))
            b = build_particle_rep(RepConfig(mass=1.0, dims=1, levels=4))
            comp = tensor_rep(a, b)
            idx = comp.interior_indices(1)
            x_heavy = np.kron(a.X[0].toarray(), np.eye(4))
            num = norm2((comp.X[0] - x_heavy)[np.ix_(idx, idx)])
            den = norm2(x_heavy[np.ix_(idx, idx)])
            assert num / den <= bound
            assert num / den >= 0.5 * np.sqrt(ratio) / (ratio + 1.0)

    def test_naive_sum_is_hermitian_but_different(self):
        comp = desk_pair(1.0, 2.0)
        naive = comp.X_naive[0].toarray()
        assert np.max(np.abs(naive - naive.conj().T)) <= 1e-15
        assert norm2(naive - comp.X[0]) > 0.1


class TestRelativeObservables:
    def test_canonical_pair_on_interior(self):
        comp = desk_pair(1.0, 2.0)
        r, q = comp.R, comp.Q
        idx = comp.interior_indices(1)
        comm = r[0] @ q[0] - q[0] @ r[0]
        assert norm2((comm - 1j * np.eye(comp.dim))[np.ix_(idx, idx)]) <= 1e-12

    def test_equal_mass_relative_momentum(self):
        comp = desk_pair(2.0, 2.0, levels=4)
        a, b = comp.rep_a, comp.rep_b
        expected = 0.5 * (np.kron(a.P[0].toarray(), np.eye(4)) - np.kron(np.eye(4), b.P[0].toarray()))
        assert np.max(np.abs(comp.Q[0] - expected)) <= 1e-15

    def test_relative_ops_hermitian(self):
        comp = desk_pair(1.0, 2.0)
        r, q = comp.R, comp.Q
        for op in (*r, *q):
            assert np.max(np.abs(op - op.conj().T)) <= 1e-15

    def test_com_relative_decoupling(self):
        comp = desk_pair(1.0, 2.0)
        idx = comp.interior_indices(1)
        pairs = [
            (comp.X[0], comp.R[0]),
            (comp.X[0], comp.Q[0]),
            (comp.P[0], comp.R[0]),
            (comp.P[0], comp.Q[0]),
        ]
        for a_op, b_op in pairs:
            comm = a_op @ b_op - b_op @ a_op
            assert norm2(comm.toarray()[np.ix_(idx, idx)]) <= 1e-12


class TestCcrCoefficients:
    def test_desk_scale_coefficient_table(self):
        comp = desk_pair(1.0, 2.0, levels=8)
        reports = {r.pair: r for r in verify_ccr_composite(comp, margin=1, tol=1e-12)}
        assert abs(reports["x_com:p"].coefficient - 1.0) <= 1e-12
        assert abs(reports["x_naive:p"].coefficient - 2.0) <= 1e-12
        assert abs(reports["r:q"].coefficient - 1.0) <= 1e-12
        assert abs(reports["r:p"].coefficient) <= 1e-12
        assert abs(reports["q:x_com"].coefficient) <= 1e-12
        assert all(r.passed for r in reports.values())
        assert reports["x_naive:p"].non_physical
        assert not reports["x_com:p"].non_physical

    def test_coefficients_scale_with_hbar(self):
        units = GlobalUnits(hbar=2.0)
        a = build_particle_rep(RepConfig(mass=1.0, dims=1, levels=8, units=units))
        b = build_particle_rep(RepConfig(mass=2.0, dims=1, levels=8, units=units))
        comp = tensor_rep(a, b)
        reports = {r.pair: r for r in verify_ccr_composite(comp, margin=1, tol=1e-12)}
        assert abs(reports["x_com:p"].coefficient - 2.0) <= 1e-12
        assert abs(reports["x_naive:p"].coefficient - 4.0) <= 1e-12

    def test_two_dimensional_offdiagonals_vanish(self):
        comp = desk_pair(1.0, 2.0, levels=4, dims=2)
        reports = verify_ccr_composite(comp, margin=1, tol=1e-12)
        assert all(r.offdiag_norm <= 1e-12 for r in reports)

    def test_fit_makes_no_embedding(self, monkeypatch):
        comp = desk_pair(1.0, 2.0, levels=4, dims=2)
        calls = []
        real = ladder.embed
        monkeypatch.setattr(ladder, "embed", lambda *args, **kwargs: calls.append(args) or real(*args, **kwargs))
        reports = verify_ccr_composite(comp, margin=1, tol=1e-12)
        assert all(r.passed for r in reports)
        assert calls == []

    def test_margin_zero_rejected(self):
        comp = desk_pair(1.0, 2.0, levels=4)
        with pytest.raises(ValueError):
            verify_ccr_composite(comp, margin=0)


def per_pair_ccr(comp, margin=1) -> dict:
    """The per-pair fits: {pair: (coefficient, residual, off-diagonal norm)}, with dense 2-norms."""
    idx = comp.interior_indices(margin)
    rank = len(idx)
    pairs = {
        "x_com:p": (comp.X, comp.P),
        "x_naive:p": (comp.X_naive, comp.P),
        "r:q": (comp.R, comp.Q),
        "r:p": (comp.R, comp.P),
        "q:x_com": (comp.Q, comp.X),
    }
    out = {}
    for label, (ops_a, ops_b) in pairs.items():
        d = len(ops_a)
        comm = [[ladder.block(ops_a[i] @ ops_b[j] - ops_b[j] @ ops_a[i], idx).toarray() for j in range(d)]
                for i in range(d)]
        diag = [-1j * comm[i][i] for i in range(d)]
        coeff = float(np.mean([np.trace(blk).real / rank for blk in diag]))
        residual = max(norm2(blk - coeff * np.eye(rank)) for blk in diag)
        off = max((norm2(comm[i][j]) for i in range(d) for j in range(d) if i != j), default=0.0)
        out[label] = (coeff, residual, off)
    return out


# (levels, dims, margin)
BATCHED = {"d1": (8, 1, 1), "d1_margin_2": (10, 1, 2), "d2": (4, 2, 1), "d3": (3, 3, 1)}


class TestBatchedCcr:
    @pytest.mark.parametrize("case", BATCHED)
    def test_batched_fits_equal_the_per_pair_loop(self, case):
        levels, dims, margin = BATCHED[case]
        comp = desk_pair(1.0, 2.0, levels=levels, dims=dims)
        want = per_pair_ccr(comp, margin)
        reports = verify_ccr_composite(comp, margin=margin, tol=1e-12)
        assert [r.pair for r in reports] == list(want)
        for rec in reports:
            coeff, residual, off = want[rec.pair]
            assert abs(rec.coefficient - coeff) <= 1e-14 * max(1.0, abs(coeff)), rec.pair
            assert abs(rec.residual_norm - residual) <= 1e-12 * residual, rec.pair
            assert abs(rec.offdiag_norm - off) <= 1e-12 * off, rec.pair
            assert rec.passed

    def test_hbar_scales_the_batched_coefficients(self):
        units = GlobalUnits(hbar=0.7, omega_ref=1.3)
        a = build_particle_rep(RepConfig(mass=1.0, dims=2, levels=4, units=units))
        b = build_particle_rep(RepConfig(mass=2.0, dims=2, levels=4, units=units))
        comp = tensor_rep(a, b)
        want = per_pair_ccr(comp)
        for rec in verify_ccr_composite(comp, margin=1, tol=1e-12):
            assert abs(rec.coefficient - want[rec.pair][0]) <= 1e-14
            assert abs(rec.coefficient - rec.expected) <= 1e-12

    def test_one_block_norms_call_and_no_spectral_norm_call(self, monkeypatch):
        calls = []
        for name in ("block_norms", "spectral_norm"):
            def counted(*args, _fn=getattr(ladder, name), _name=name, **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(ladder, name, counted)
        assert len(verify_ccr_composite(desk_pair(1.0, 2.0, levels=3, dims=3))) == 5
        assert calls == ["block_norms"]


class TestSpinfulComposite:
    def test_spinful_factors_lift_and_stay_canonical(self):
        a = build_particle_rep(RepConfig(mass=1.0, dims=3, levels=2, spin=0.5))
        b = build_particle_rep(RepConfig(mass=2.0, dims=3, levels=2, spin=0.5))
        comp = tensor_rep(a, b)
        assert comp.dim == 16 * 16
        assert np.array_equal(comp.M.toarray(), 3.0 * np.eye(comp.dim))
        reports = {r.pair: r for r in verify_ccr_composite(comp, margin=1, tol=1e-12)}
        assert abs(reports["x_com:p"].coefficient - 1.0) <= 1e-12
        assert abs(reports["r:q"].coefficient - 1.0) <= 1e-12
        # the lifted rotation generator carries both spin blocks
        eye_a = np.eye(a.dim)
        eye_b = np.eye(b.dim)
        expected = np.kron(a.J[(1, 2)].toarray(), eye_b) + np.kron(eye_a, b.J[(1, 2)].toarray())
        assert np.array_equal(comp.J[(1, 2)].toarray(), expected)


class TestSymmetries:
    def test_swap_fixes_symmetric_lifts_and_flips_relative(self):
        comp = desk_pair(1.7, 1.7, levels=5)
        n = comp.rep_a.dim
        # exchange of the two tensor factors: |i>|j> -> |j>|i>
        w = np.zeros((n * n, n * n))
        for i in range(n):
            for j in range(n):
                w[j * n + i, i * n + j] = 1.0
        assert np.array_equal(w @ w, np.eye(comp.dim))
        for op in (comp.P[0], comp.K[0], comp.M, comp.X[0]):
            assert np.array_equal(w @ op @ w, op.toarray())
        assert np.array_equal(w @ comp.R[0] @ w, -comp.R[0].toarray())
        assert np.array_equal(w @ comp.Q[0] @ w, -comp.Q[0].toarray())
