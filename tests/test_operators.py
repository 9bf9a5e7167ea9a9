"""Sparse operator storage: dense cross-checks at small sizes and a scale guard."""

import copy
import functools
import itertools
import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from hrsym import (
    GlobalUnits,
    NonScalarCasimirError,
    PotentialSpec,
    RepConfig,
    build_particle_rep,
    build_zeta_rep,
    casimir_spin_value,
    hamiltonian_galilei,
    relative_mode_system,
    relative_spin_spectrum,
    spin_matrices,
    t_tensor,
    tensor_rep,
    verify_ccr_composite,
    verify_homomorphism,
)
from hrsym import ladder
from hrsym.spin import J_PAIRS

RTOL = 1e-14


def close(op, ref) -> bool:
    """Entrywise agreement to RTOL relative to the larger entry scale (floor 1)."""
    dense = op.toarray() if isinstance(op, ladder.Operator) else np.asarray(op)
    scale = max(1.0, float(np.max(np.abs(ref))) if np.size(ref) else 0.0)
    return dense.shape == ref.shape and float(np.max(np.abs(dense - ref), initial=0.0)) <= RTOL * scale


def kron_all(*factors):
    out = np.eye(1)
    for f in factors:
        out = np.kron(out, f)
    return out


def dense_particle(cfg: RepConfig) -> dict:
    """X, P, K, J, M of one particle, built with np.kron from the ladder matrices."""
    n, d, m, u = cfg.levels, cfg.dims, cfg.mass, cfg.units
    x1 = ladder.position(n, m, u.omega_ref, u.hbar).toarray()
    p1 = ladder.momentum(n, m, u.omega_ref, u.hbar).toarray()
    s_dim = cfg.spin_multiplicity
    eye_n, eye_s = np.eye(n), np.eye(s_dim)

    def slot(op, k):
        return kron_all(*[op if i == k else eye_n for i in range(d)], eye_s)

    xs = [slot(x1, k) for k in range(d)]
    ps = [slot(p1, k) for k in range(d)]
    js = {}
    for i, j in J_PAIRS:
        if j <= d:
            js[(i, j)] = xs[i - 1] @ ps[j - 1] - ps[i - 1] @ xs[j - 1]
    if cfg.spin > 0:
        spin = build_particle_rep(cfg).spin_rep
        for pair in js:
            js[pair] = js[pair] + np.kron(np.eye(cfg.space_dim), spin.components[pair])
    return {"X": xs, "P": ps, "K": [m * x for x in xs], "J": js, "M": m * np.eye(cfg.dim)}


def dense_composite(cfg_a: RepConfig, cfg_b: RepConfig) -> dict:
    a, b = dense_particle(cfg_a), dense_particle(cfg_b)
    eye_a, eye_b = np.eye(cfg_a.dim), np.eye(cfg_b.dim)
    m = cfg_a.mass + cfg_b.mass

    def lift(op_a, op_b):
        return np.kron(op_a, eye_b) + np.kron(eye_a, op_b)

    ks = [lift(ka, kb) for ka, kb in zip(a["K"], b["K"])]
    return {
        "K": ks,
        "P": [lift(pa, pb) for pa, pb in zip(a["P"], b["P"])],
        "M": lift(a["M"], b["M"]),
        "J": {pair: lift(a["J"][pair], b["J"][pair]) for pair in a["J"]},
        "X": [k / m for k in ks],
        "R": [np.kron(xa, eye_b) - np.kron(eye_a, xb) for xa, xb in zip(a["X"], b["X"])],
        "Q": [(cfg_b.mass * np.kron(pa, eye_b) - cfg_a.mass * np.kron(eye_a, pb)) / m
              for pa, pb in zip(a["P"], b["P"])],
        "naive": [lift(xa, xb) for xa, xb in zip(a["X"], b["X"])],
    }


def densified(system, names):
    """A shallow copy of `system` whose named operators are dense ndarrays."""
    out = copy.copy(system)
    for name in names:
        ops = getattr(system, name)
        if isinstance(ops, dict):
            setattr(out, name, {k: v.toarray() for k, v in ops.items()})
        elif isinstance(ops, list):
            setattr(out, name, [v.toarray() for v in ops])
        else:
            setattr(out, name, ops.toarray())
    return out


def assert_stored_operators_match(system, ref: dict, names) -> None:
    """Each named operator of `system` is an `ladder.Operator` equal to its dense reference."""
    for name in names:
        got, want = getattr(system, name), ref[name]
        if isinstance(want, dict):
            assert got.keys() == want.keys()
            pairs = [(got[k], want[k]) for k in want]
        elif isinstance(want, list):
            pairs = list(zip(got, want, strict=True))
        else:
            pairs = [(got, want)]
        for op, dense in pairs:
            assert isinstance(op, ladder.Operator), name
            assert close(op, dense), name


PARTICLE_NAMES = ("X", "P", "K", "J", "M")
COMPOSITE_NAMES = ("K", "P", "M", "J", "X", "R", "Q")

PARTICLES = [
    RepConfig(mass=1.3, dims=1, levels=6),
    RepConfig(mass=0.7, dims=2, levels=4),
    RepConfig(mass=2.0, dims=3, levels=3),
    RepConfig(mass=2.0, dims=3, levels=3, spin=0.5),
    RepConfig(mass=1.5, dims=3, levels=2, spin=1.0),
]


def metric_close(a: float, b: float) -> bool:
    return abs(a - b) <= RTOL * max(1.0, abs(b))


@pytest.mark.parametrize("cfg", PARTICLES, ids=lambda c: f"d{c.dims}n{c.levels}s{c.spin}")
class TestParticleAgainstDense:
    def test_every_stored_operator_is_sparse_and_matches_kron(self, cfg):
        rep = build_particle_rep(cfg)
        ref = dense_particle(cfg)
        assert_stored_operators_match(rep, ref, PARTICLE_NAMES)

    def test_homomorphism_metrics_match_the_dense_operators(self, cfg):
        rep = build_particle_rep(cfg)
        alg = "hr3" if cfg.dims == 3 else "h3"
        sparse = verify_homomorphism(rep, alg, tol=1e-10)
        dense = verify_homomorphism(densified(rep, PARTICLE_NAMES), alg, tol=1e-10)
        assert [c.name for c in sparse.checks] == [c.name for c in dense.checks]
        assert [c.passed for c in sparse.checks] == [c.passed for c in dense.checks]
        for cs, cd in zip(sparse.checks, dense.checks):
            assert metric_close(cs.metrics["defect_norm"], cd.metrics["defect_norm"]), cs.name


# the particles above and one with hbar != 1, so a misplaced hbar shows
DEFECT_PARTICLES = [
    *PARTICLES,
    RepConfig(mass=1.2, dims=2, levels=3, units=GlobalUnits(hbar=0.7, omega_ref=1.3)),
]


def defect_id(cfg) -> str:
    return f"d{cfg.dims}n{cfg.levels}s{cfg.spin}h{cfg.units.hbar}"


@pytest.mark.parametrize("cfg", DEFECT_PARTICLES, ids=defect_id)
def test_raw_boundary_defect_matches_the_kron_reference(cfg):
    ref = dense_particle(cfg)
    n, hbar = cfg.levels, cfg.units.hbar
    top = np.zeros((n, n))
    top[-1, -1] = 1.0
    want = 0.0
    for k, (x, p) in enumerate(zip(ref["X"], ref["P"])):
        edge = kron_all(*[top if i == k else np.eye(n) for i in range(cfg.dims)],
                        np.eye(cfg.spin_multiplicity))
        truncated = 1j * hbar * (np.eye(cfg.dim) - n * edge)
        want = max(want, float(np.max(np.abs(x @ p - p @ x - truncated))))
    assert metric_close(build_particle_rep(cfg).raw_boundary_defect(), want)


@pytest.mark.parametrize("zeta", [2.5, -0.4])
@pytest.mark.parametrize("cfg", DEFECT_PARTICLES, ids=defect_id)
def test_zeta_defect_matches_the_kron_reference(cfg, zeta):
    ref = dense_particle(cfg)
    root, sign = np.sqrt(abs(zeta)), np.sign(zeta)
    idx = build_particle_rep(cfg).interior_indices(1)
    central = 1j * cfg.units.hbar * zeta * np.eye(len(idx))
    want = max(
        np.linalg.norm((sign * root * x @ (root * p) - root * p @ (sign * root * x))[np.ix_(idx, idx)]
                       - central, 2)
        for x, p in zip(ref["X"], ref["P"])
    )
    assert metric_close(build_zeta_rep(zeta, build_particle_rep(cfg)).defect(idx), want)


@pytest.mark.parametrize("cfg", [c for c in PARTICLES if c.dims == 3],
                         ids=lambda c: f"d{c.dims}n{c.levels}s{c.spin}")
def test_spin_tensor_and_casimir_match_the_dense_operators(cfg):
    rep = build_particle_rep(cfg)
    dense_rep = densified(rep, PARTICLE_NAMES)
    t_sparse, t_dense = t_tensor(rep), t_tensor(dense_rep)
    for pair in J_PAIRS:
        assert isinstance(t_sparse[pair], ladder.Operator)
        assert close(t_sparse[pair], t_dense[pair])
    v_sparse, v_dense = casimir_spin_value(rep), casimir_spin_value(dense_rep)
    assert metric_close(v_sparse.value, v_dense.value)
    assert metric_close(v_sparse.s, v_dense.s)
    assert metric_close(v_sparse.deviation, v_dense.deviation)


@pytest.mark.parametrize("zeta", [2.5, -0.4])
@pytest.mark.parametrize("dims", [1, 2, 3])
def test_zeta_family_matches_the_scaled_kron_operators(zeta, dims):
    cfg = RepConfig(mass=1.0, dims=dims, levels=3)
    z = build_zeta_rep(zeta, build_particle_rep(cfg))
    ref = dense_particle(cfg)
    root, sign = np.sqrt(abs(zeta)), np.sign(zeta)
    for op, dense in zip(z.X, ref["X"], strict=True):
        assert isinstance(op, ladder.Operator) and close(op, sign * root * dense)
    for op, dense in zip(z.P, ref["P"], strict=True):
        assert isinstance(op, ladder.Operator) and close(op, root * dense)


COMPOSITES = [
    (RepConfig(mass=1.0, dims=1, levels=6), RepConfig(mass=2.0, dims=1, levels=5)),
    (RepConfig(mass=0.5, dims=2, levels=3), RepConfig(mass=1.5, dims=2, levels=4)),
    (RepConfig(mass=1.0, dims=3, levels=3), RepConfig(mass=3.0, dims=3, levels=2)),
    (RepConfig(mass=1.0, dims=3, levels=2, spin=0.5), RepConfig(mass=2.0, dims=3, levels=2, spin=0.5)),
]


@pytest.mark.parametrize("cfg_a,cfg_b", COMPOSITES,
                         ids=lambda c: f"d{c.dims}n{c.levels}s{c.spin}")
class TestCompositeAgainstDense:
    def test_every_stored_operator_is_sparse_and_matches_kron(self, cfg_a, cfg_b):
        comp = tensor_rep(build_particle_rep(cfg_a), build_particle_rep(cfg_b))
        ref = dense_composite(cfg_a, cfg_b)
        assert_stored_operators_match(comp, ref, COMPOSITE_NAMES)
        for op, dense in zip(comp.X_naive, ref["naive"], strict=True):
            assert isinstance(op, ladder.Operator) and close(op, dense)

    def test_ccr_metrics_match_the_dense_operators(self, cfg_a, cfg_b):
        comp = tensor_rep(build_particle_rep(cfg_a), build_particle_rep(cfg_b))
        dense = densified(comp, COMPOSITE_NAMES)
        dense.rep_a = densified(comp.rep_a, PARTICLE_NAMES)
        dense.rep_b = densified(comp.rep_b, PARTICLE_NAMES)
        sparse_recs = verify_ccr_composite(comp, margin=1, tol=1e-12)
        dense_recs = verify_ccr_composite(dense, margin=1, tol=1e-12)
        for rs, rd in zip(sparse_recs, dense_recs, strict=True):
            assert (rs.pair, rs.passed, rs.non_physical) == (rd.pair, rd.passed, rd.non_physical)
            for field in ("coefficient", "residual_norm", "offdiag_norm"):
                assert metric_close(getattr(rs, field), getattr(rd, field)), (rs.pair, field)



@pytest.mark.parametrize("cfg_a,cfg_b", [c for c in COMPOSITES if c[0].dims == 3],
                         ids=lambda c: f"d{c.dims}n{c.levels}s{c.spin}")
def test_composite_spin_tensor_matches_the_dense_operators(cfg_a, cfg_b):
    comp = tensor_rep(build_particle_rep(cfg_a), build_particle_rep(cfg_b))
    t_sparse, t_dense = t_tensor(comp), t_tensor(densified(comp, COMPOSITE_NAMES))
    for pair in J_PAIRS:
        assert isinstance(t_sparse[pair], ladder.Operator)
        assert close(t_sparse[pair], t_dense[pair])


def test_interior_block_is_the_dense_restriction():
    rep = build_particle_rep(RepConfig(mass=1.0, dims=2, levels=4))
    idx = rep.interior_indices(1)
    op = rep.J[(1, 2)]
    assert np.array_equal(ladder.block(op, idx).toarray(), op.toarray()[np.ix_(idx, idx)])
    assert np.array_equal(ladder.block(op.toarray(), idx).toarray(), op.toarray()[np.ix_(idx, idx)])


def _components(*shapes, seed=0):
    """Random complex blocks of the given shapes on the diagonal, rows and columns shuffled."""
    rng = np.random.default_rng(seed)
    mat = scipy.linalg.block_diag(*[rng.normal(size=sh) + 1j * rng.normal(size=sh) for sh in shapes])
    return mat[rng.permutation(mat.shape[0])][:, rng.permutation(mat.shape[1])]


def _stored_zeros():
    """A 4 x 4 CSR block with three explicit zeros beside two nonzero entries."""
    data = np.array([0.0, 2.0 - 1.0j, 0.0, 0.0, -3.0])
    return scipy.sparse.csr_array((data, [0, 2, 3, 1, 0], [0, 2, 3, 4, 5]), shape=(4, 4))


NORM_CASES = {
    "all_zero": scipy.sparse.csr_array((6, 9), dtype=complex),
    "stored_zeros": _stored_zeros(),
    "empty": scipy.sparse.csr_array((0, 0), dtype=complex),
    "permuted_diagonal": scipy.sparse.csr_array(_components(*[(1, 1)] * 12)),
    "dense_30x30": scipy.sparse.csr_array(_components((30, 30))),
    "equal_shapes": scipy.sparse.csr_array(_components(*[(2, 2)] * 20, *[(3, 2)] * 15)),
    "mixed_shapes": scipy.sparse.csr_array(_components((1, 1), (1, 4), (5, 1), (2, 2), (4, 3), (2, 2), (3, 5))),
}


@pytest.mark.parametrize("case", NORM_CASES)
def test_spectral_norm_of_csr_matches_the_dense_svd(case):
    mat = NORM_CASES[case]
    dense = mat.toarray()
    want = float(np.linalg.norm(dense, 2)) if dense.size else 0.0
    stored = mat.nnz
    got = ladder.spectral_norm(mat)
    assert abs(got - want) <= RTOL * want
    assert mat.nnz == stored  # the input keeps its stored zeros


def test_interior_scalar_fit_on_csr_matches_the_dense_blocks():
    rng = np.random.default_rng(3)
    blocks = []
    for k in range(3):
        noise = scipy.sparse.random_array((40, 40), density=0.05, rng=rng, dtype=complex)
        blocks.append(scipy.sparse.csr_array(2.5 * scipy.sparse.eye_array(40) + 1e-3 * (k + 1) * noise))
    (value,), norms = ladder.interior_scalar_fit(ladder.block_diag(blocks), 40)
    (dense_value,), dense_norms = ladder.interior_scalar_fit(scipy.linalg.block_diag(*[b.toarray() for b in blocks]), 40)
    deviation, dense_deviation = norms.max(), dense_norms.max()
    ref_value = float(np.mean([np.trace(b.toarray()).real / 40 for b in blocks]))
    ref_deviation = max(float(np.linalg.norm(b.toarray() - ref_value * np.eye(40), 2)) for b in blocks)
    for got in ((value, deviation), (dense_value, dense_deviation)):
        assert abs(got[0] - ref_value) <= RTOL * abs(ref_value)
        assert abs(got[1] - ref_deviation) <= RTOL * ref_deviation


def test_block_diag_matches_the_dense_block_diagonal():
    rng = np.random.default_rng(5)
    noise = scipy.sparse.random_array((6, 6), density=0.3, rng=rng, dtype=complex)
    unsorted = scipy.sparse.csr_array(([2.0, 1.0j], [3, 0], [0, 2, 2, 2, 2]), shape=(4, 4))
    ops = [build_particle_rep(RepConfig(mass=1.0, dims=1, levels=5)).X[0], rng.normal(size=(3, 3)),
           scipy.sparse.csr_array(noise), scipy.sparse.csr_array((2, 2), dtype=complex), unsorted, np.eye(1)]
    got = ladder.block_diag(ops)
    want = scipy.linalg.block_diag(*[op.toarray() if scipy.sparse.issparse(op) else op for op in ops])
    assert isinstance(got, ladder.Operator) and got.dtype == complex
    assert np.array_equal(got.toarray(), want)
    assert ladder.block_diag([]).shape == (0, 0)


def _one_row():
    """A 5 x 5 block whose entries all sit in row 2."""
    mat = np.zeros((5, 5), dtype=complex)
    mat[2] = [1.0, -2.0j, 0.5, 0.0, 3.0 + 1.0j]
    return mat


def _non_finite(value):
    mat = _components((3, 3), seed=7)
    mat[1, 2] = value
    return mat


# blocks of unequal sizes: an empty one, one of size 0, stored zeros, a
# one-row block, components of several shapes and scales 1e-200 to 1e200
BLOCKS = [
    _components((4, 4), (1, 1), seed=1),
    np.zeros((3, 3)),
    np.zeros((0, 0)),
    _stored_zeros(),
    _one_row(),
    _components((1, 1), (1, 3), (3, 1), (2, 2), seed=2),
    1e-200 * _components((2, 2), (1, 1), seed=3),
    1e200 * _components((3, 3), seed=4),
    _components((7, 7), seed=5),
]


def _dense(block):
    return block.toarray() if scipy.sparse.issparse(block) else np.asarray(block)


def _dense_norm(block) -> float:
    dense = _dense(block)
    return float(np.linalg.norm(dense, 2)) if dense.size else 0.0


def test_block_norms_match_the_dense_norm_of_each_block():
    stacked = ladder.block_diag(BLOCKS)
    stored = stacked.nnz
    got = ladder.block_norms(stacked, [b.shape[0] for b in BLOCKS])
    want = np.array([_dense_norm(b) for b in BLOCKS])
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= RTOL * want)
    assert got[1] == got[2] == 0.0
    assert stacked.nnz == stored  # the input keeps its stored zeros


def test_block_norms_of_a_dense_matrix_match_those_of_its_csr():
    sizes = [b.shape[0] for b in BLOCKS]
    dense = scipy.linalg.block_diag(*[_dense(b) for b in BLOCKS])
    assert np.array_equal(ladder.block_norms(dense, sizes), ladder.block_norms(ladder.block_diag(BLOCKS), sizes))


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan, complex(0.0, np.inf)])
def test_a_non_finite_entry_makes_only_its_block_nan(value):
    blocks = [*BLOCKS[:4], _non_finite(value), *BLOCKS[4:]]
    got = ladder.block_norms(ladder.block_diag(blocks), [b.shape[0] for b in blocks])
    assert np.isnan(got[4])
    rest = np.delete(got, 4)
    want = np.array([_dense_norm(b) for b in BLOCKS])
    assert np.all(np.abs(rest - want) <= RTOL * want)


def test_spectral_norm_is_the_largest_block_norm():
    stacked = ladder.block_diag(BLOCKS[:6])
    assert ladder.spectral_norm(stacked) == ladder.block_norms(stacked, [b.shape[0] for b in BLOCKS[:6]]).max()


def test_block_norms_refuse_an_entry_off_the_blocks():
    mat = np.eye(4)
    mat[0, 3] = 1.0
    with pytest.raises(ValueError, match="block-diagonal"):
        ladder.block_norms(mat, [2, 2])
    with pytest.raises(ValueError, match="block-diagonal"):
        ladder.block_norms(np.eye(4), [2, 1])


def _bfs_components(n: int, edges) -> tuple:
    """Reference components by breadth-first search: (count, labels by smallest vertex)."""
    adjacent = [[] for _ in range(n)]
    for i, j in edges:
        adjacent[i].append(j)
        adjacent[j].append(i)
    label, count = [-1] * n, 0
    for start in range(n):
        if label[start] >= 0:
            continue
        label[start], queue = count, [start]
        for x in queue:
            for y in adjacent[x]:
                if label[y] < 0:
                    label[y] = count
                    queue.append(y)
        count += 1
    return count, label


def _assert_components_match_bfs(mat, offset: int) -> None:
    a, rows = ladder._canonical(mat)
    n = max(a.shape[0], offset + a.shape[1])
    count, label = ladder._components(a, rows, offset)
    assert (count, label.tolist()) == _bfs_components(n, zip(rows.tolist(), (a.indices + offset).tolist()))


@pytest.mark.parametrize("seed", range(30))
def test_components_match_a_breadth_first_search(seed):
    rng = np.random.default_rng(seed)
    r, c = (int(k) for k in rng.integers(1, 40, size=2))
    density = float(rng.choice([0.0, 0.01, 0.04, 0.1, 0.3]))
    square = scipy.sparse.random_array((r, r), density=density, rng=rng, format="csr")
    rect = scipy.sparse.random_array((r, c), density=density, rng=rng, format="csr")
    _assert_components_match_bfs(square, 0)
    _assert_components_match_bfs(rect, r)  # row-column bipartite graph, as the norms build it
    _assert_components_match_bfs(rect, r + 3)  # vertices r .. r+2 lie beyond a and stay isolated


def test_components_of_an_empty_pattern_are_single_vertices():
    a, rows = ladder._canonical(scipy.sparse.csr_array((5, 7)))
    count, label = ladder._components(a, rows, 5)
    assert count == 12 and label.tolist() == list(range(12))
    count, label = ladder._components(*ladder._canonical(scipy.sparse.csr_array((0, 0))), 0)
    assert count == 0 and label.size == 0


def test_components_of_a_permuted_path_take_logarithmically_many_rounds(monkeypatch):
    n = 1 << 15
    order = np.random.default_rng(7).permutation(n)
    path = scipy.sparse.csr_array((np.ones(n - 1), (order[:-1], order[1:])), shape=(n, n))
    rounds = []
    hook = ladder._hook
    monkeypatch.setattr(ladder, "_hook", lambda *args: rounds.append(1) or hook(*args))
    _assert_components_match_bfs(path, 0)
    # each root that survives two rounds has absorbed another root in the first
    assert 0 < len(rounds) <= 2 * 15


def test_operator_counts_its_csr_buffers_and_keeps_its_type():
    rep = build_particle_rep(RepConfig(mass=1.0, dims=3, levels=3))
    x, p = rep.X[0], rep.P[0]
    assert x.nbytes == x.data.nbytes + x.indices.nbytes + x.indptr.nbytes
    for combo in (x @ p, x + p, x - p, 2.0 * x, x / 3.0, 1j * x):
        assert isinstance(combo, ladder.Operator)
    assert type(x @ np.ones(rep.dim)) is np.ndarray
    assert type(x + np.eye(rep.dim)) is np.ndarray


def test_dims_three_levels_four_composite_stays_sparse():
    # n = 4096: dense storage of its operators would need about 5 GB
    cfg = RepConfig(mass=1.0, dims=3, levels=4)
    comp = tensor_rep(build_particle_rep(cfg), build_particle_rep(RepConfig(mass=2.0, dims=3, levels=4)))
    assert comp.dim == 4096
    with pytest.raises(NonScalarCasimirError):
        casimir_spin_value(comp)
    held = [*comp.K, *comp.P, *comp.X, *comp.R, *comp.Q, comp.M, *comp.J.values()]
    assert len(held) == 19
    for op in held:
        assert isinstance(op, ladder.Operator)
        assert op.nnz <= 8 * comp.dim


def test_dims_three_levels_five_composite_passes_every_ccr_fit():
    # n = 15,625 with a margin-1 interior of 4,096: densifying each interior block
    # would take about 45 dense 4,096 x 4,096 SVDs, so this size runs only on
    # the per-component norms
    cfg_a, cfg_b = RepConfig(mass=1.0, dims=3, levels=5), RepConfig(mass=2.0, dims=3, levels=5)
    comp = tensor_rep(build_particle_rep(cfg_a), build_particle_rep(cfg_b))
    assert comp.dim == 15625 and len(comp.interior_indices(1)) == 4096
    recs = verify_ccr_composite(comp, margin=1, tol=1e-12)
    assert [r.pair for r in recs] == ["x_com:p", "x_naive:p", "r:q", "r:p", "q:x_com"]
    assert all(r.passed for r in recs)


def dense_relative(n_max, mu, s_a, s_b, headroom, coefficients=()) -> dict:
    """R, Q, L, S, the spin Casimir and Q.Q/2mu + V(R.R), each np.kron(block(cube op, keep), Id_spin).

    Every product is taken on the full cube with `headroom` spare levels per dimension.
    """
    levels = n_max + 1 + headroom
    x1 = ladder.position(levels, mu, 1.0, 1.0).toarray()
    p1 = ladder.momentum(levels, mu, 1.0, 1.0).toarray()
    eye_n = np.eye(levels)

    def slot(op, k):
        return kron_all(*[op if i == k else eye_n for i in range(3)])

    r, q = [slot(x1, k) for k in range(3)], [slot(p1, k) for k in range(3)]
    # the cube states with at most n_max quanta, ordered by (total, tuple)
    occ = ladder.occupations(levels, 3)
    keep = np.flatnonzero(occ.sum(axis=1) <= n_max)
    keep = keep[np.argsort(occ[keep].sum(axis=1), kind="stable")]
    spin_a, spin_b = spin_matrices(s_a), spin_matrices(s_b)
    spin_block = spin_a.dim * spin_b.dim

    def lift(op):
        return np.kron(ladder.block(op, keep).toarray(), np.eye(spin_block))

    ell = {(i, j): lift(r[i - 1] @ q[j - 1] - q[i - 1] @ r[j - 1]) for i, j in J_PAIRS}
    eye_osc = np.eye(len(keep))
    spin = {p: ell[p] + kron_all(eye_osc, spin_a.components[p], np.eye(spin_b.dim))
            + kron_all(eye_osc, np.eye(spin_a.dim), spin_b.components[p]) for p in J_PAIRS}
    rr = sum(m @ m for m in r)
    h = sum(m @ m for m in q) / (2.0 * mu) + sum(
        c * np.linalg.matrix_power(rr, k) for k, c in enumerate(coefficients))
    return {"R": [lift(m) for m in r], "Q": [lift(m) for m in q], "L": ell, "S": spin,
            "spin_casimir": sum(spin[p] @ spin[p] for p in J_PAIRS), "H": lift(h)}


@pytest.mark.parametrize("s_a,s_b,max_power",
                         [(0, 0, 2), (0.5, 0, 2), (0.5, 1, 2), (0, 0, 1), (1, 0.5, 1), (0.5, 0, 0)])
def test_relative_mode_operators_are_sparse_and_match_the_restricted_kron(s_a, s_b, max_power, monkeypatch):
    coefficients = (0.0, 0.5, 0.05)[:max_power + 1]
    system = relative_mode_system(3, 0.75, GlobalUnits(), s_a=s_a, s_b=s_b, max_power=max_power)
    ref = dense_relative(3, 0.75, s_a, s_b, max(2 * max_power, 1), coefficients)
    assert_stored_operators_match(system, ref, ("R", "Q", "L", "S", "spin_casimir"))
    h = system.hamiltonian(PotentialSpec("poly_r2", coefficients))
    assert isinstance(h, ladder.Operator) and close(h, ref["H"])
    # relative_spin_spectrum diagonalizes its Casimir, built with headroom 1, shell by shell
    shells = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: shells.append(a) or eigvalsh(a))
    relative_spin_spectrum(3, s_a, s_b)
    assert close(scipy.linalg.block_diag(*shells), dense_relative(3, 1.0, s_a, s_b, 1)["spin_casimir"])


def test_relative_modes_form_nothing_on_the_oscillator_cube(monkeypatch):
    # R and Q are placed on the total-quanta states directly: no embedding and no
    # operator spans the (n_max + headroom + 1)**3 cube those states are cut from
    embeds, shapes = [], []
    embed, init = ladder.embed, ladder.Operator.__init__

    def recording_embed(op, slot, factor_dims):
        embeds.append(tuple(factor_dims))
        return embed(op, slot, factor_dims)

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        shapes.append(self.shape)

    monkeypatch.setattr(ladder, "embed", recording_embed)
    monkeypatch.setattr(ladder.Operator, "__init__", recording_init)
    builds = [(max(2 * max_power, 1), functools.partial(
        relative_mode_system, 4, 0.75, GlobalUnits(), s_a=s_a, s_b=s_b, max_power=max_power))
        for max_power in (2, 0) for s_a, s_b in ((0, 0), (0.5, 1))]
    builds.append((1, functools.partial(relative_spin_spectrum, 4, 0.5, 1)))
    for headroom, build in builds:
        embeds.clear()
        shapes.clear()
        build()
        cube = (4 + headroom + 1) ** 3
        assert embeds and shapes
        assert all(math.prod(dims) < cube for dims in embeds), (headroom, embeds)
        assert all(max(shape) < cube for shape in shapes), (headroom, shapes)


@pytest.mark.parametrize("cfg", PARTICLES, ids=lambda c: f"d{c.dims}n{c.levels}s{c.spin}")
def test_particle_hamiltonians_are_operators_equal_to_their_dense_terms(cfg):
    rep = build_particle_rep(cfg)
    ref = dense_particle(cfg)
    kinetic = sum(p @ p for p in ref["P"]) / (2.0 * cfg.mass)
    coefficients = (0.3, 0.1, 0.5, 0.0, 0.02)
    potential = coefficients[0] * np.eye(cfg.dim) + sum(
        sum(c * np.linalg.matrix_power(x, k) for k, c in enumerate(coefficients) if k > 0)
        for x in ref["X"]
    )
    got = {"poly_x": rep.hamiltonian(PotentialSpec("poly_x", coefficients)),
           "none": rep.hamiltonian(PotentialSpec("none")),
           "galilei": hamiltonian_galilei(rep, 2.5)}
    want = {"poly_x": kinetic + potential, "none": kinetic, "galilei": kinetic + 2.5 * np.eye(cfg.dim)}
    for key, h in got.items():
        assert isinstance(h, ladder.Operator) and close(h, want[key]), key


@pytest.mark.parametrize("cfg_a,cfg_b", COMPOSITES,
                         ids=lambda c: f"d{c.dims}n{c.levels}s{c.spin}")
def test_composite_hamiltonian_is_an_operator_equal_to_its_dense_terms(cfg_a, cfg_b):
    comp = tensor_rep(build_particle_rep(cfg_a), build_particle_rep(cfg_b))
    ref = dense_composite(cfg_a, cfg_b)
    total, mu = cfg_a.mass + cfg_b.mass, cfg_a.mass * cfg_b.mass / (cfg_a.mass + cfg_b.mass)
    rr = sum(r @ r for r in ref["R"])
    want = (sum(p @ p for p in ref["P"]) / (2.0 * total) + sum(q @ q for q in ref["Q"]) / (2.0 * mu)
            + 0.2 * np.eye(comp.dim) + 0.5 * rr + 0.05 * rr @ rr)
    h = comp.hamiltonian(PotentialSpec("poly_r2", (0.2, 0.5, 0.05)))
    assert isinstance(h, ladder.Operator) and close(h, want)


def _particle_tuples(cfg: RepConfig) -> list:
    """One occupation tuple per basis state, in kron order, repeated across the spin block."""
    return [occ for occ in itertools.product(range(cfg.levels), repeat=cfg.dims)
            for _ in range(cfg.spin_multiplicity)]


def _particle_case(cfg: RepConfig):
    tuples = _particle_tuples(cfg)
    return (build_particle_rep(cfg), cfg.levels - 1,
            lambda m: [k for k, occ in enumerate(tuples) if max(occ) <= cfg.levels - 1 - m])


def _composite_case(cfg_a: RepConfig, cfg_b: RepConfig):
    tuples = list(itertools.product(_particle_tuples(cfg_a), _particle_tuples(cfg_b)))

    def keep(m):
        return [k for k, (a, b) in enumerate(tuples)
                if max(a) <= cfg_a.levels - 1 - m and max(b) <= cfg_b.levels - 1 - m]

    comp = tensor_rep(build_particle_rep(cfg_a), build_particle_rep(cfg_b))
    return comp, min(cfg_a.levels, cfg_b.levels) - 1, keep


def _relative_case(n_max: int, s_a: float):
    system = relative_mode_system(n_max, 0.5, GlobalUnits(), s_a=s_a)
    shells = sorted((sum(t), t) for t in itertools.product(range(n_max + 1), repeat=3) if sum(t) <= n_max)
    assert np.array_equal(system.basis, [t for _, t in shells])
    tuples = [total for total, _ in shells for _ in range(system.spin_dim)]
    return system, n_max, lambda m: [k for k, total in enumerate(tuples) if total <= n_max - m]


EDGE_CASES = {
    "particle:d1n2": lambda: _particle_case(RepConfig(mass=1.0, dims=1, levels=2)),
    "particle:d2n4": lambda: _particle_case(RepConfig(mass=1.0, dims=2, levels=4)),
    "particle:d3n3s1": lambda: _particle_case(RepConfig(mass=1.0, dims=3, levels=3, spin=1.0)),
    "composite:d1n5n3": lambda: _composite_case(RepConfig(mass=1.0, dims=1, levels=5),
                                                RepConfig(mass=2.0, dims=1, levels=3)),
    "composite:d3n3s0.5n5": lambda: _composite_case(RepConfig(mass=1.0, dims=3, levels=3, spin=0.5),
                                                    RepConfig(mass=2.0, dims=3, levels=5)),
    "relative:n0": lambda: _relative_case(0, 0.5),
    "relative:n1": lambda: _relative_case(1, 0.0),
    "relative:n3s0.5": lambda: _relative_case(3, 0.5),
}


@pytest.mark.parametrize("case", EDGE_CASES)
def test_interior_and_boundary_sets_match_the_occupation_tuples(case):
    system, top, keep = EDGE_CASES[case]()
    for m in range(top + 1):
        assert np.array_equal(system.interior_indices(m), keep(m)), m
    inside = keep(1) if top >= 1 else []
    assert np.array_equal(system.boundary_indices, np.setdiff1d(np.arange(system.dim), inside))
    with pytest.raises(ValueError, match=rf"margin must lie in \[0, {top}\]"):
        system.interior_indices(top + 1)


@pytest.mark.parametrize("case", ["particle:d1n2", "relative:n3s0.5", "composite:d1n5n3"])
@pytest.mark.parametrize("margin", [1.5, 1.0, True, "1"])
def test_a_margin_that_is_not_an_integer_is_refused(case, margin):
    # 1.5 would otherwise select the margin-2 set, and True the margin-1 set
    system, _, _ = EDGE_CASES[case]()
    with pytest.raises(ValueError, match=rf"^margin must be an integer, got {margin!r}$"):
        system.interior_indices(margin)


def test_a_numpy_integer_margin_selects_the_same_interior():
    system, top, keep = EDGE_CASES["relative:n3s0.5"]()
    for m in range(top + 1):
        assert np.array_equal(system.interior_indices(np.int64(m)), keep(m)), m


@pytest.mark.parametrize("case, margin", [("relative:n3s0.5", 4), ("composite:d1n5n3", 5)])
def test_margin_refusal_names_the_systems_own_range_and_the_margin(case, margin):
    system, top, _ = EDGE_CASES[case]()
    with pytest.raises(ValueError, match=rf"^margin must lie in \[0, {top}\], got {margin}$"):
        system.interior_indices(margin)
