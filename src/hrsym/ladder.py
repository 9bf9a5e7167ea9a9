"""Truncated oscillator ladder matrices and tensor-slot helpers."""

from __future__ import annotations

import numpy as np


def destroy(n: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1.0, n)), 1).astype(complex)


def position(n: int, mass: float, omega: float, hbar: float) -> np.ndarray:
    a = destroy(n)
    return np.sqrt(hbar / (2.0 * mass * omega)) * (a + a.conj().T)


def momentum(n: int, mass: float, omega: float, hbar: float) -> np.ndarray:
    a = destroy(n)
    return 1j * np.sqrt(hbar * mass * omega / 2.0) * (a.conj().T - a)


def top_level_projector(n: int) -> np.ndarray:
    out = np.zeros((n, n), dtype=complex)
    out[n - 1, n - 1] = 1.0
    return out


def embed(op: np.ndarray, slot: int, factor_dims) -> np.ndarray:
    """Kron-lift `op` onto one slot of a product space (slot 0 is leftmost)."""
    out = np.eye(1, dtype=complex)
    for k, d in enumerate(factor_dims):
        out = np.kron(out, op if k == slot else np.eye(d, dtype=complex))
    return out


def occupations(levels: int, dims: int) -> np.ndarray:
    """Per-basis-state occupation tuples for a dims-fold product of Fock ladders.

    Row m gives the occupation numbers of flat index m; the first factor is
    the most significant (kron ordering).
    """
    return np.array(list(np.ndindex(*(levels,) * dims)), dtype=int)


def interior_indices(levels: int, dims: int, margin: int, tail_dim: int = 1) -> np.ndarray:
    """Flat indices whose occupations all stay at or below levels - 1 - margin.

    A trailing factor of dimension `tail_dim` (e.g. a spin block) is kept
    whole: each spatial index expands to `tail_dim` consecutive indices.
    """
    if not 0 <= margin < levels:
        raise ValueError(f"margin must lie in [0, {levels - 1}], got {margin}")
    occ = occupations(levels, dims)
    keep = np.flatnonzero((occ <= levels - 1 - margin).all(axis=1))
    if tail_dim == 1:
        return keep
    return (keep[:, None] * tail_dim + np.arange(tail_dim)[None, :]).ravel()


class OperatorSystem:
    """The surface every representation space shares with the checks and flows.

    Subclasses provide `dims`, `dim`, `mass` (the central charge: a particle's
    mass, a composite's total mass, the reduced mass of relative motion),
    `units` (hbar, omega_ref), `interior_indices(margin)` and
    `hamiltonian(pot)`.
    """

    def boundary_weight(self, state: np.ndarray) -> float:
        """Probability outside the margin-1 interior, i.e. on the truncation boundary.

        A system too small for a margin-1 interior is all boundary.
        """
        try:
            idx = self.interior_indices(1)
        except ValueError:
            idx = np.array([], dtype=int)
        inside = float(np.vdot(state[idx], state[idx]).real)
        return max(0.0, float(np.vdot(state, state).real) - inside)


def coherent_state(levels: int, alpha: complex) -> np.ndarray:
    """Truncated coherent state, renormalized after the cutoff."""
    vec = np.zeros(levels, dtype=complex)
    vec[0] = 1.0
    for n in range(1, levels):
        vec[n] = vec[n - 1] * alpha / np.sqrt(n)
    return vec / np.linalg.norm(vec)


def total_quanta_restriction(levels: int, n_max: int, dims: int = 3):
    """Indices and occupation tuples of the total-quanta <= n_max subspace.

    The cube basis must be large enough (levels > n_max); the returned
    indices are ordered shell by shell, i.e. by (total, tuple).
    """
    occ = occupations(levels, dims)
    keep = np.flatnonzero(occ.sum(axis=1) <= n_max)
    keep = keep[sorted(range(len(keep)), key=lambda t: (int(occ[keep[t]].sum()), tuple(occ[keep[t]])))]
    basis = [tuple(int(x) for x in occ[k]) for k in keep]
    return keep, basis


def spectral_norm(mat: np.ndarray) -> float:
    if mat.size == 0:
        return 0.0
    return float(np.linalg.norm(mat, 2))


def interior_scalar_fit(blocks) -> tuple:
    """Fit value * Id to square interior blocks of equal rank.

    Returns the mean of trace / rank over the blocks and the largest
    spectral norm of block - value * Id.
    """
    rank = blocks[0].shape[0]
    value = float(np.mean([blk.trace().real / rank for blk in blocks]))
    deviation = max(spectral_norm(blk - value * np.eye(rank)) for blk in blocks)
    return value, deviation


def poly_in(base: np.ndarray, coefficients) -> np.ndarray:
    """sum_k coefficients[k] * base**k as a dense matrix."""
    dim = base.shape[0]
    acc = np.zeros((dim, dim), dtype=complex)
    power = np.eye(dim, dtype=complex)
    for k, c in enumerate(coefficients):
        if k > 0:
            power = power @ base
        if c:
            acc = acc + c * power
    return acc
