"""Truncated oscillator ladder matrices and tensor-slot helpers.

Every representation operator and every Hamiltonian is an `Operator`: a CSR
array built by one sparse Kron embedding, or for the relative modes by its
restriction to the total-quanta states (`total_quanta_lifts`).  Ladder generators are
two-diagonal, so products and commutators stay banded and cheap.  Interior
restrictions stay CSR too (`block`): the exact spectral norm is taken per
connected component of a block's row-column bipartite graph, and the scalar
fit subtracts a sparse diagonal.  A table of brackets is checked as one
operator: `block_diag` puts its operands down one diagonal by concatenating
CSR buffers, so the whole table is one sparse product and one restriction,
and `block_norms` takes the exact 2-norm of every diagonal block in one
pass (the 2-norm of a direct sum is the largest of its blocks'), through
the component-norm body that `spectral_norm` uses too.  `direct_sum` splits
a square operator over the connected components of its stored entries,
with the dense blocks stacked by component size: a flow picks its
propagator by the largest block, and the dense propagator exponentiates a
Hamiltonian block by block.  Both splits scatter their
blocks straight from CSR through one stacking helper.
"""

from __future__ import annotations

import functools
import math

import numpy as np
import scipy.sparse


def _bidiagonal(n: int, lower, upper) -> Operator:
    """CSR n x n operator with `lower` on the first sub- and `upper` on the first superdiagonal."""
    return Operator(scipy.sparse.diags_array([lower, upper], offsets=[-1, 1], shape=(n, n),
                                             format="csr", dtype=complex))


def _ladder_scale(square: float, what: str, mass: float, omega: float, hbar: float) -> float:
    """sqrt(square), refusing a square that over- or underflowed out of (0, inf)."""
    if not 0 < square < math.inf:
        raise ValueError(
            f"ladder scale {what} = {square:.3g} is not positive and finite "
            f"(mass={mass}, omega={omega}, hbar={hbar})"
        )
    return math.sqrt(square)


def position(n: int, mass: float, omega: float, hbar: float) -> Operator:
    den = 2.0 * mass * omega
    scale = _ladder_scale(hbar / den if den else math.inf, "hbar/(2 m omega)", mass, omega, hbar)
    s = scale * np.sqrt(np.arange(1.0, n))
    return _bidiagonal(n, s, s)


def momentum(n: int, mass: float, omega: float, hbar: float) -> Operator:
    scale = _ladder_scale(hbar * mass * omega / 2.0, "hbar m omega/2", mass, omega, hbar)
    s = scale * np.sqrt(np.arange(1.0, n))
    return _bidiagonal(n, 1j * s, -1j * s)


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
    a = op if isinstance(op, scipy.sparse.csr_array) and op.dtype == complex else scipy.sparse.csr_array(
        op, dtype=complex)
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


def block(op, idx) -> Operator:
    """CSR restriction of `op` (sparse or dense) to the rows and columns `idx`."""
    return Operator(op)[idx][:, idx]


def block_diag(ops) -> Operator:
    """The square operators `ops` (sparse or dense) down the diagonal, as one CSR `Operator`.

    Their CSR buffers are concatenated, the column indices and row pointers
    shifted past the blocks before, so no block is converted entry by entry.
    """
    mats = [op if isinstance(op, scipy.sparse.csr_array) else scipy.sparse.csr_array(op) for op in ops]
    nnz = [int(m.indptr[-1]) for m in mats]
    starts = np.cumsum([0] + [m.shape[0] for m in mats])
    ends = np.cumsum([0] + nnz)
    n = int(starts[-1])
    index = np.int32 if max(n, ends[-1]) <= np.iinfo(np.int32).max else np.int64
    data = np.concatenate([np.empty(0, complex)] + [m.data[:k] for m, k in zip(mats, nnz)])
    cols = np.concatenate([np.empty(0, index)] + [m.indices[:k] + s for m, k, s in zip(mats, nnz, starts)])
    indptr = np.concatenate([[0]] + [m.indptr[1:] + e for m, e in zip(mats, ends)])
    return Operator((data, cols.astype(index), indptr.astype(index)), shape=(n, n))


def occupations(levels: int, dims: int) -> np.ndarray:
    """Per-basis-state occupation tuples for a dims-fold product of Fock ladders.

    Row m gives the occupation numbers of flat index m; the first factor is
    the most significant (kron ordering).
    """
    return np.indices((levels,) * dims).reshape(dims, -1).T


class OperatorSystem:
    """The surface every representation space shares with the checks and flows.

    Subclasses provide `dims`, `dim`, `mass` (the central charge: a particle's
    mass, a composite's total mass, the reduced mass of relative motion),
    `units` (hbar, omega_ref), `headroom` and `hamiltonian(pot)`.  `headroom`
    is the one statement of where the truncation edge lies: per basis state,
    the quanta left before it.  Every interior and the boundary derive from it.
    """

    def interior_indices(self, margin: int) -> np.ndarray:
        """Flat indices of the states at least `margin` quanta from the truncation edge."""
        top = int(self.headroom.max())
        if not 0 <= margin <= top:
            raise ValueError(f"margin must lie in [0, {top}], got {margin}")
        return np.flatnonzero(self.headroom >= margin)

    @functools.cached_property
    def boundary_indices(self) -> np.ndarray:
        """Flat indices on the truncation edge: the states with no headroom left."""
        return np.flatnonzero(self.headroom < 1)

    def boundary_weight(self, states: np.ndarray) -> np.ndarray:
        """Probability on the truncation boundary of each state of a (..., dim) stack.

        Summed over the boundary indices alone, so it is exact to relative rounding.
        """
        edge = states[..., self.boundary_indices]
        return np.einsum("...i,...i->...", edge.conj(), edge).real


def coherent_state(levels: int, alpha: complex) -> np.ndarray:
    """Truncated coherent state, renormalized after the cutoff."""
    vec = np.zeros(levels, dtype=complex)
    vec[0] = 1.0
    for n in range(1, levels):
        vec[n] = vec[n - 1] * alpha / np.sqrt(n)
    return vec / np.linalg.norm(vec)


def total_quanta_lifts(ops, n_total: int, dims: int) -> tuple:
    """The states of `dims` modes with at most n_total quanta, and each bidiagonal op on each mode there.

    The states are occupation tuples ordered by (total, tuple).  lifts[j][k]
    is `ops[j]` (n_total + 1 levels) on mode k, restricted from the Kron lift
    on the cube without forming it: row t holds ops[j][t_k, t_k - 1] at
    t - e_k and ops[j][t_k, t_k + 1] at t + e_k where those are states, each
    copied from a diagonal of ops[j].
    """
    occ = occupations(n_total + 1, dims)
    total = occ.sum(axis=1)
    occ = occ[total <= n_total][np.argsort(total[total <= n_total], kind="stable")]
    # each tuple's row, -1 past n_total quanta; the level -1 of t - e_k indexes level n_total + 1
    row = np.full((n_total + 2,) * dims, -1)
    row[tuple(occ.T)] = np.arange(len(occ))
    lifts = [[] for _ in ops]
    for step in np.eye(dims, dtype=int):
        cols = np.stack([row[tuple((occ - step).T)], row[tuple((occ + step).T)]], axis=1)
        present = cols >= 0
        indptr = np.concatenate(([0], np.cumsum(present.sum(axis=1)))).astype(np.int32)
        level = (occ @ step)[:, None]
        for out, op in zip(lifts, ops):
            sides = np.stack([np.append(0, op.diagonal(-1)), np.append(op.diagonal(1), 0)])
            out.append(Operator((sides[[0, 1], level][present], cols[present].astype(np.int32), indptr),
                                shape=(len(occ),) * 2))
    return occ, lifts


def _positions(comp: np.ndarray, n_comp: int) -> tuple:
    """Each vertex's position within its component, and the component sizes."""
    sizes = np.bincount(comp, minlength=n_comp)
    order = np.argsort(comp, kind="stable")
    pos = np.empty_like(order)
    pos[order] = np.arange(len(comp)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    return pos, sizes


def _canonical(mat) -> tuple:
    """A CSR copy of `mat` with duplicates summed and stored zeros dropped, and each entry's row."""
    a = scipy.sparse.csr_array(mat, copy=True)
    a.sum_duplicates()
    a.eliminate_zeros()
    return a, np.repeat(np.arange(a.shape[0]), np.diff(a.indptr))


def _components(a, rows, offset: int) -> tuple:
    """Connected components of the graph with an edge rows[k] -- offset + a.indices[k] per entry k.

    The edges come from the stored pattern alone, never from the values.
    Min-label hook and compress (Shiloach & Vishkin, J. Algorithms 1982):
    each round `_hook` joins the roots across every edge, until no edge joins
    two roots.  No vertex points above itself, so each component's root is
    its smallest vertex, and the labels number the components in that order.
    """
    parent = np.arange(max(a.shape[0], offset + a.shape[1]))
    u, v = rows, a.indices + offset
    while True:
        u, v = parent[u], parent[v]
        cross = u != v
        if not cross.any():
            break
        u, v = u[cross], v[cross]
        parent = _hook(parent, u, v)
    roots, label = np.unique(parent, return_inverse=True)
    return len(roots), label


def _hook(parent, u, v):
    """One round of `_components` on the star forest `parent`, updated in place.

    Each root hooks to the smallest root across its edges (u[k], v[k]), all
    of them roots, and then every vertex jumps to its new root.
    """
    np.minimum.at(parent, u, v)
    np.minimum.at(parent, v, u)
    while True:
        up = parent[parent]
        if np.array_equal(up, parent):
            return parent
        parent = up


def _stacks(row_label, col_label, n_comp: int, rows, cols, data, vectors: bool = True) -> list:
    """Scatter the entries (rows, cols, data) into dense blocks, one stack per component shape.

    Row i lies in component row_label[i] and column j in col_label[j].  The
    components are grouped by shape r x c (those with one row or one column
    only if `vectors`), and each group gives (members, index, stack): its
    component labels (k,), the rows of each member in block order (k, r) and
    the (k, r, c) blocks.
    """
    row_pos, r = _positions(row_label, n_comp)
    col_pos, c = _positions(col_label, n_comp)
    comp = row_label[rows]
    shape_of = np.where(vectors | ((r > 1) & (c > 1)), r * (c.max(initial=0) + 1) + c, -1)
    out = []
    for key in np.unique(shape_of[shape_of >= 0]):
        members = np.flatnonzero(shape_of == key)
        slot = np.full(n_comp, -1)
        slot[members] = np.arange(len(members))
        sel = slot[comp] >= 0
        stack = np.zeros((len(members), r[members[0]], c[members[0]]), dtype=data.dtype)
        stack[slot[comp[sel]], row_pos[rows[sel]], col_pos[cols[sel]]] = data[sel]
        on = np.flatnonzero(slot[row_label] >= 0)
        index = np.empty(stack.shape[:2], dtype=np.intp)
        index[slot[row_label[on]], row_pos[on]] = on
        out.append((members, index, stack))
    return out


def direct_sum(op) -> list:
    """Split square `op` (sparse or dense) into its direct sum: [(idx, stack)] by block size.

    The blocks are the connected components of the graph of stored entries.
    Each distinct size s gives a (k, s) index array `idx` and the (k, s, s)
    dense blocks `stack`, stack[j] = op[idx[j]][:, idx[j]]; every index lies
    in exactly one row of one `idx`, and no entry falls outside the blocks.
    """
    a, rows = _canonical(op)
    n_comp, label = _components(a, rows, 0)
    return [(idx, stack) for _, idx, stack in _stacks(label, label, n_comp, rows, a.indices, a.data)]


def component_sizes(op) -> np.ndarray:
    """The size of every block of `direct_sum(op)`, read from the component labels alone.

    No block is formed, so this costs memory in proportion to the stored entries.
    """
    a, rows = _canonical(op)
    n_comp, label = _components(a, rows, 0)
    return np.bincount(label, minlength=n_comp)


def _group_norms(a, rows, row_group, n_groups: int) -> np.ndarray:
    """Exact 2-norm of each group of rows of canonical CSR `a`, whose entry i lies in row rows[i].

    Row i lies in group row_group[i], nondecreasing in i, and no connected
    component of the row-column bipartite graph may span two groups: the
    2-norm of a matrix is the largest 2-norm of those components (a direct
    sum, up to permutations).  Components of shape 1 x c or r x 1 take the
    vector 2-norm; the others take one stacked SVD per distinct component
    shape.  A group without entries gets 0, one with a non-finite entry NaN.
    """
    out = np.zeros(n_groups)
    if a.nnz == 0:
        return out
    group = row_group[rows]
    finite = np.isfinite(a.data)
    data = np.where(finite, a.data, 0.0)
    # a power-of-two scale per group keeps the sums of squares finite and is exact
    first = np.flatnonzero(np.diff(group, prepend=-1))
    peak = np.zeros(n_groups)
    peak[group[first]] = np.maximum.reduceat(np.abs(data), first)
    scale = np.ldexp(1.0, np.frexp(peak)[1])
    data = data / scale[group]
    # vertices: rows 0..n_r-1, then columns
    n_r = a.shape[0]
    n_comp, label = _components(a, rows, n_r)
    row_label, col_label = label[:n_r], label[n_r:]
    norms = np.sqrt(np.bincount(row_label[rows], weights=np.abs(data) ** 2, minlength=n_comp))
    for members, _, stack in _stacks(row_label, col_label, n_comp, rows, a.indices, data, vectors=False):
        norms[members] = np.linalg.svd(stack, compute_uv=False)[:, 0]
    comp_group = np.zeros(n_comp, dtype=np.intp)
    comp_group[row_label[rows]] = group
    np.maximum.at(out, comp_group, norms * scale[comp_group])
    out[group[~finite]] = math.nan
    return out


def spectral_norm(mat) -> float:
    """Exact 2-norm of `mat` (sparse or dense); NaN if a stored entry is not finite."""
    a, rows = _canonical(mat)
    return float(_group_norms(a, rows, np.zeros(a.shape[0], dtype=np.intp), 1)[0])


def block_norms(mat, sizes) -> np.ndarray:
    """Exact 2-norm of each square diagonal block of block-diagonal `mat` (sparse or dense).

    Block k spans the `sizes[k]` rows and columns after those of blocks
    0..k-1.  A block without a stored nonzero gets 0 and a block with a
    non-finite entry NaN; the other blocks keep their norms.
    """
    a, rows = _canonical(mat)
    row_block = np.repeat(np.arange(len(sizes)), sizes)
    if a.shape != (len(row_block),) * 2 or (row_block[a.indices] != row_block[rows]).any():
        raise ValueError(f"a {a.shape} matrix is not block-diagonal in blocks of {len(row_block)} rows in all")
    return _group_norms(a, rows, row_block, len(sizes))


def interior_scalar_fit(stack, rank: int, groups=None) -> tuple:
    """Fit value * Id to groups of the rank x rank diagonal blocks of block-diagonal `stack`.

    `stack` (CSR or dense) holds its blocks down the diagonal; `groups` is
    a (g, k) array of block numbers, one row per fitted group (by default
    one group of every block), and a block in no group is taken as it is.
    A group's value is the mean of trace / rank over its blocks.  Returns
    the values by group and the exact 2-norm of every block less its
    group's value * Id.
    """
    stack = Operator(stack)
    count = stack.shape[0] // rank
    groups = np.arange(count)[None] if groups is None else np.asarray(groups, dtype=np.intp)
    traces = stack.diagonal().reshape(count, rank).sum(axis=1).real / rank
    values = traces[groups].mean(axis=1)
    shift = np.zeros(count)
    shift[groups] = values[:, None]
    return values, block_norms(stack - scipy.sparse.diags_array(np.repeat(shift, rank)), [rank] * count)


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
