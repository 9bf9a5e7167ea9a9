"""Sparse operator storage: dense cross-checks at small sizes and a scale guard."""

import copy

import numpy as np
import pytest

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
    spin_matrices,
    t_tensor,
    tensor_rep,
    verify_ccr_composite,
    verify_homomorphism,
)
from hrsym import ladder
from hrsym.composite import naive_position_sum
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
    x1 = ladder.position(n, m, u.omega_ref, u.hbar)
    p1 = ladder.momentum(n, m, u.omega_ref, u.hbar)
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
        for op, dense in zip(naive_position_sum(comp), ref["naive"], strict=True):
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
    assert np.array_equal(ladder.block(op, idx), op.toarray()[np.ix_(idx, idx)])
    assert np.array_equal(ladder.block(op.toarray(), idx), op.toarray()[np.ix_(idx, idx)])


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


def dense_relative(n_max, mu, s_a, s_b, max_power=2) -> dict:
    """R, Q, L, S, the spin Casimir and the relative H, each np.kron(block(cube op, keep), Id_spin)."""
    levels = n_max + 1 + 2 * max_power
    x1 = ladder.position(levels, mu, 1.0, 1.0)
    p1 = ladder.momentum(levels, mu, 1.0, 1.0)
    eye_n = np.eye(levels)

    def slot(op, k):
        return kron_all(*[op if i == k else eye_n for i in range(3)])

    r, q = [slot(x1, k) for k in range(3)], [slot(p1, k) for k in range(3)]
    keep, _ = ladder.total_quanta_restriction(levels, n_max)
    spin_a, spin_b = spin_matrices(s_a), spin_matrices(s_b)
    spin_block = spin_a.dim * spin_b.dim

    def lift(op):
        return np.kron(ladder.block(op, keep), np.eye(spin_block))

    ell = {(i, j): lift(r[i - 1] @ q[j - 1] - q[i - 1] @ r[j - 1]) for i, j in J_PAIRS}
    eye_osc = np.eye(len(keep))
    spin = {p: ell[p] + kron_all(eye_osc, spin_a.components[p], np.eye(spin_b.dim))
            + kron_all(eye_osc, np.eye(spin_a.dim), spin_b.components[p]) for p in J_PAIRS}
    rr = sum(m @ m for m in r)
    h = sum(m @ m for m in q) / (2.0 * mu) + 0.5 * rr + 0.05 * rr @ rr
    return {"R": [lift(m) for m in r], "Q": [lift(m) for m in q], "L": ell, "S": spin,
            "spin_casimir": sum(spin[p] @ spin[p] for p in J_PAIRS), "H": lift(h)}


@pytest.mark.parametrize("s_a,s_b", [(0, 0), (0.5, 0), (0.5, 1)])
def test_relative_mode_operators_are_sparse_and_match_the_restricted_kron(s_a, s_b):
    system = relative_mode_system(3, 0.75, GlobalUnits(), s_a=s_a, s_b=s_b)
    ref = dense_relative(3, 0.75, s_a, s_b)
    assert_stored_operators_match(system, ref, ("R", "Q", "L", "S", "spin_casimir"))
    h = system.hamiltonian(PotentialSpec("poly_r2", (0.0, 0.5, 0.05)))
    assert isinstance(h, ladder.Operator) and close(h, ref["H"])


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
