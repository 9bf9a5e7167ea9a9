"""Truncated oscillator ladder matrices and tensor-slot helpers.

Every representation operator and every Hamiltonian is an `Operator`: a CSR
array built by one sparse Kron embedding.  Ladder generators are
two-diagonal, so products and commutators stay banded and cheap; only the
interior restrictions that feed an exact spectral norm or a scalar fit are
made dense, by `block`, and the dense propagator densifies its Hamiltonian
once.
"""

from __future__ import annotations

import functools
import math

import numpy as np
import scipy.sparse


def destroy(n: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1.0, n)), 1).astype(complex)


def _ladder_scale(square: float, what: str, mass: float, omega: float, hbar: float) -> float:
    """sqrt(square), refusing a square that over- or underflowed out of (0, inf)."""
    if not 0 < square < math.inf:
        raise ValueError(
            f"ladder scale {what} = {square:.3g} is not positive and finite "
            f"(mass={mass}, omega={omega}, hbar={hbar})"
        )
    return math.sqrt(square)


def position(n: int, mass: float, omega: float, hbar: float) -> np.ndarray:
    a = destroy(n)
    den = 2.0 * mass * omega
    scale = _ladder_scale(hbar / den if den else math.inf, "hbar/(2 m omega)", mass, omega, hbar)
    return scale * (a + a.conj().T)


def momentum(n: int, mass: float, omega: float, hbar: float) -> np.ndarray:
    a = destroy(n)
    scale = _ladder_scale(hbar * mass * omega / 2.0, "hbar m omega/2", mass, omega, hbar)
    return 1j * scale * (a.conj().T - a)


def top_level_projector(n: int) -> Operator:
    """|n-1><n-1| as a one-entry CSR operator."""
    return Operator(([1.0], ([n - 1], [n - 1])), shape=(n, n), dtype=complex)


class Operator(scipy.sparse.csr_array):
    """A complex CSR operator; `+`, `-`, `@` and scalar products keep the type.

    Being an array rather than a matrix, `op @ ndarray` and `op + ndarray`
    give plain ndarrays.  `nbytes` counts the stored CSR buffers.
    """

    @property
    def nbytes(self) -> int:
        return self.data.nbytes + self.indices.nbytes + self.indptr.nbytes


def identity(n: int) -> Operator:
    return Operator(scipy.sparse.eye_array(n, dtype=complex, format="csr"))


def embed(op, slot: int, factor_dims) -> Operator:
    """Kron-lift square `op` (dense or sparse) onto one slot of a product space.

    Slot 0 is leftmost.  I_left (x) op (x) I_right is assembled directly in
    CSR form, with the entries of `op` copied unchanged.
    """
    a = scipy.sparse.csr_array(op, dtype=complex)
    left, right = math.prod(factor_dims[:slot]), math.prod(factor_dims[slot + 1:])
    # op (x) I_right: row (i, k) carries row i of op at columns j * right + k
    counts = np.repeat(np.diff(a.indptr), right)
    indptr = np.concatenate(([0], np.cumsum(counts)))
    src = np.repeat(np.repeat(a.indptr[:-1], right) - indptr[:-1], counts) + np.arange(indptr[-1])
    cols = a.indices[src] * right + np.repeat(np.tile(np.arange(right), a.shape[0]), counts)
    # I_left (x) that block: the block repeated down the diagonal
    size = a.shape[0] * right
    cols = (np.arange(left)[:, None] * size + cols).ravel()
    indptr = np.concatenate(([0], (np.arange(left)[:, None] * indptr[-1] + indptr[1:]).ravel()))
    n = left * size
    index = np.int32 if max(n, indptr[-1]) <= np.iinfo(np.int32).max else np.int64
    return Operator((np.tile(a.data[src], left), cols.astype(index), indptr.astype(index)), shape=(n, n))


def block(op, idx) -> np.ndarray:
    """Dense restriction of `op` (sparse or dense) to the rows and columns `idx`."""
    return Operator(op)[idx][:, idx].toarray()


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

    @functools.cached_property
    def boundary_indices(self) -> np.ndarray:
        """Flat indices outside the margin-1 interior, i.e. on the truncation boundary.

        A system too small for a margin-1 interior is all boundary.
        """
        outside = np.ones(self.dim, dtype=bool)
        try:
            outside[self.interior_indices(1)] = False
        except ValueError:
            pass
        return np.flatnonzero(outside)

    def boundary_weight(self, state: np.ndarray) -> float:
        """Probability on the truncation boundary, summed there to relative rounding."""
        edge = state[self.boundary_indices]
        return float(np.vdot(edge, edge).real)


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
    deviation = float(np.max([spectral_norm(blk - value * np.eye(rank)) for blk in blocks]))
    return value, deviation


def square_sum(ops) -> Operator:
    """sum_k ops[k] @ ops[k], multiplied and summed in CSR form.

    Ladder-built operators are banded, so the sparse product costs a small
    fraction of the dense one.
    """
    return sum(m @ m for m in map(Operator, ops))


def poly_in(base, coefficients) -> Operator:
    """sum_k coefficients[k] * base**k, powers raised and summed in CSR form."""
    base = Operator(base)
    power = identity(base.shape[0])
    acc = Operator(base.shape, dtype=complex)
    for k, c in enumerate(coefficients):
        if k == 1:
            power = base
        elif k > 1:
            power = power @ base
        if c:
            acc = acc + c * power
    return acc
