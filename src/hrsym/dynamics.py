"""Hamiltonian flows on representation spaces.

Any Hermitian matrix generates a one-parameter unitary group here, so the
same engine drives physical time evolution, the free-generator flow with its
constant offset, rotations (generator J), and boosts (generator K).  Every
Hamiltonian a system builds is a CSR `ladder.Operator`, and the flows take
any generator as one (dense input is converted once).  A state flow picks
its propagator from the sizes of the connected components of the stored
entries of H (`ladder.component_sizes`).  When no block is larger than
`_DENSE_LIMIT`, it splits H into its direct sum (`ladder.direct_sum`, the
blocks stacked by size) and takes one batched scaling-and-squaring
exponential per block size and distinct step of the time grid; the
exponential of a direct sum is the direct sum of the block exponentials, so
this is exact.  A flow with a larger block takes the sparse action of the
exponential on the state instead (scipy's `expm_multiply`, Al-Mohy & Higham
2011): one call over the whole of a uniform grid, one per step otherwise,
without forming the propagator or any dense block.  The rounding of its
Taylor steps grows with ||s H / hbar||_1 over the distance s the flow
travels from t = 0, so a flow of at most `_DENSE_DIM` dimensions travelling
past `_ACTION_SPAN` keeps the block exponentials.  Every trace (norm,
energy, observables, boundary weight) is one product over the stack of
states.  Both paths are deterministic: `expm_multiply` estimates the norms
of the powers of a wide generator from random probes, which are drawn from
a fixed seed, and the global `np.random` state is left as it was.

Truncation makes long flows untrustworthy once amplitude reaches the top
Fock levels, so every flow records the boundary occupation of the evolving
state and flags the result unreliable above a configurable threshold.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

from . import ladder
from .report import VerificationReport

__all__ = [
    "FlowComparison",
    "FlowResult",
    "PotentialSpec",
    "compare_flows",
    "ehrenfest_check",
    "evolve_observable",
    "evolve_state",
    "extra_casimir_check",
    "hamiltonian_galilei",
    "hamiltonian_physical",
]

_POT_KINDS = ("none", "poly_x", "poly_r2")
_MAX_POLY_DEGREE = 4
_DENSE_LIMIT = 256  # largest direct-sum block that always takes dense exponentials
_DENSE_DIM = 4096  # widest flow whose larger blocks may still take them
_ACTION_SPAN = 300.0  # largest ||s H / hbar||_1 the sparse action travels below _DENSE_DIM


@dataclass(frozen=True)
class PotentialSpec:
    """Polynomial potential: coefficients[k] multiplies argument**k.

    kind "poly_x" takes the coordinate operators of a single particle
    (applied per dimension and summed, so [0, 0, 0.5] is the isotropic
    harmonic well).  kind "poly_r2" takes the squared relative separation
    R.R of a composite.
    """

    kind: str = "none"
    coefficients: tuple = ()

    def __post_init__(self):
        if self.kind not in _POT_KINDS:
            raise ValueError(f"unknown potential kind {self.kind!r} (one of {_POT_KINDS})")
        object.__setattr__(self, "coefficients", tuple(float(c) for c in self.coefficients))
        if len(self.coefficients) > _MAX_POLY_DEGREE + 1:
            raise ValueError(f"polynomial degree capped at {_MAX_POLY_DEGREE}")
        if self.kind == "none" and any(self.coefficients):
            raise ValueError("kind 'none' cannot carry coefficients")

    @property
    def is_trivial(self) -> bool:
        return not any(self.coefficients)


def hamiltonian_physical(system, pot: PotentialSpec) -> ladder.Operator:
    """Kinetic term plus the matching potential, as the system's `hamiltonian` defines it.

    Single particle: P.P / 2m + V(X) per dimension.  Composite: the COM and
    relative kinetic terms P.P / 2m + Q.Q / 2mu plus V(R.R); the interaction
    must depend on the relative separation only, so kind "poly_x" is
    rejected there.  A RelativeModeRep drops the (decoupled, free) COM term.
    The result is a CSR `ladder.Operator`; a flow exponentiates it block by
    block, or applies its sparse action when a block is large.
    """
    return system.hamiltonian(pot)


def hamiltonian_galilei(rep, calV: float) -> ladder.Operator:
    """P.P / 2m + calV * Id, the free-generator Hamiltonian of a single particle, in CSR form."""
    if not math.isfinite(calV):
        raise ValueError(f"calV must be finite, got {calV}")
    return ladder.square_sum(rep.P) / (2.0 * rep.mass) + calV * ladder.identity(rep.dim)


# ---------------------------------------------------------------------------
# flows
# ---------------------------------------------------------------------------

@dataclass
class FlowResult:
    times: np.ndarray
    states: np.ndarray
    norm_trace: np.ndarray
    energy_trace: np.ndarray
    observable_traces: dict = field(default_factory=dict)
    max_boundary_weight: float = 0.0
    reliable: bool = True

    def to_json(self, include_states: bool = False) -> dict:
        out = {
            "times": self.times.tolist(),
            "norm_trace": self.norm_trace.tolist(),
            "energy_trace": self.energy_trace.tolist(),
            "observable_traces": {k: v.tolist() for k, v in self.observable_traces.items()},
            "max_boundary_weight": self.max_boundary_weight,
            "reliable": self.reliable,
        }
        if include_states:
            out["states"] = [[[z.real, z.imag] for z in row] for row in self.states]
        return out


def _check_times(times) -> np.ndarray:
    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or len(t) < 1:
        raise ValueError("need a one-dimensional, nonempty time grid")
    if np.any(np.diff(t) <= 0):
        raise ValueError("time grid must be strictly increasing")
    return t


def _check_hermitian(h: ladder.Operator, what="H"):
    """Reject a non-Hermitian or non-finite `h`."""
    err = abs(h - h.conj().T).max()
    if not err <= 1e-12 * max(1.0, abs(h).max()):
        raise ValueError(f"{what} is not a finite Hermitian matrix (max deviation {err:.3g})")


def _expectations(op, states: np.ndarray) -> np.ndarray:
    """<psi|op|psi> for every row psi of `states`, in one product over the stack."""
    return np.einsum("ki,ik->k", states.conj(), op @ states.T).real


_SAME_STEP_RTOL = 1e-12


def _same_step(a: float, b: float) -> bool:
    return abs(a - b) <= _SAME_STEP_RTOL * max(abs(a), abs(b))


def _block_exponentials(blocks: list, dt: float, hbar: float) -> list:
    """exp(-i dt H / hbar) of the `ladder.direct_sum` blocks of H, one stacked exponential per size."""
    return [scipy.linalg.expm(-1j * dt * stack / hbar) for _, stack in blocks]


def _step_propagator(steps: list, dt: float, blocks: list, hbar: float) -> list:
    """The block exponentials of dt, reused for any earlier step within `_SAME_STEP_RTOL` of dt.

    A uniform grid's steps differ only by rounding, so it takes one
    exponential per block size; every genuinely new step gets its own.
    """
    for known, props in reversed(steps):
        if _same_step(known, dt):
            return props
    props = _block_exponentials(blocks, dt, hbar)
    steps.append((dt, props))
    return props


def _stepped(advance, psi0: np.ndarray, t: np.ndarray) -> np.ndarray:
    """psi0 at every time of `t`, carried from each grid time to the next by advance(psi, dt)."""
    states = np.empty((len(t), len(psi0)), dtype=complex)
    psi = psi0
    for k, dt in enumerate(np.diff(t, prepend=0.0)):
        if dt != 0.0:
            psi = advance(psi, dt)
        states[k] = psi
    return states


def _dense_states(blocks: list, psi0: np.ndarray, t: np.ndarray, hbar: float) -> np.ndarray:
    """psi0 at every time of `t`, stepped by the block exponentials of each distinct step."""
    steps: list = []  # (dt, block propagators), one per distinct step

    def advance(psi, dt):
        out = np.empty_like(psi)
        for (idx, _), prop in zip(blocks, _step_propagator(steps, dt, blocks, hbar)):
            out[idx] = np.matmul(prop, psi[idx][..., None])[..., 0]
        return out

    return _stepped(advance, psi0, t)


@contextlib.contextmanager
def _fixed_probes():
    """Seed numpy's global random state for the duration, then restore the caller's state.

    `expm_multiply` draws the probe vectors of its norm estimates from that
    state; a fixed draw keeps the sparse action deterministic.
    """
    saved = np.random.get_state()
    np.random.seed(0)
    try:
        yield
    finally:
        np.random.set_state(saved)


def _takes_sparse_action(H: ladder.Operator, t: np.ndarray, hbar: float) -> bool:
    """Whether the flow of H over `t` takes the sparse action rather than the block exponentials.

    Blocks of at most `_DENSE_LIMIT` states always take the exponentials.  A
    larger block takes the sparse action when the flow travels at most
    `_ACTION_SPAN` in ||s H / hbar||_1 (its Taylor steps then round to about
    1e-12), or when H has more than `_DENSE_DIM` dimensions, whose dense
    blocks need not fit in memory.
    """
    if ladder.component_sizes(H).max() <= _DENSE_LIMIT:
        return False
    if H.shape[0] > _DENSE_DIM:
        return True
    travel = abs(t[0]) + t[-1] - t[0]
    return travel * abs(H).sum(axis=0).max() / hbar <= _ACTION_SPAN


def _sparse_states(H: ladder.Operator, psi0: np.ndarray, t: np.ndarray, hbar: float) -> np.ndarray:
    """psi0 at every time of `t` by the sparse action of exp(-i t H / hbar).

    A grid whose steps agree within `_SAME_STEP_RTOL` takes one
    `expm_multiply` over the whole interval; any other grid one per step.
    """
    gen = -1j * H / hbar

    def advance(psi, dt):
        return scipy.sparse.linalg.expm_multiply(dt * gen, psi)

    steps = np.diff(t)
    with _fixed_probes():
        if len(t) < 2 or not _same_step(steps.min(), steps.max()):
            return _stepped(advance, psi0, t)
        # scipy sizes the Taylor steps of an interval by its length, not by its
        # start, so a grid that starts late first reaches t[0] in a step of its own
        psi = psi0 if t[0] == 0.0 else advance(psi0, t[0])
        return scipy.sparse.linalg.expm_multiply(
            gen, psi, start=0.0, stop=t[-1] - t[0], num=len(t), endpoint=True)


def evolve_state(
    H,
    psi0,
    times,
    hbar: float = 1.0,
    observables: dict | None = None,
    boundary_weight=None,
    leakage_threshold: float = 1e-6,
) -> FlowResult:
    """Propagate psi0 along exp(-i t H / hbar) over the time grid.

    When the largest block of the direct sum of H is at most `_DENSE_LIMIT`,
    the flow takes dense step propagators block by block; a larger block
    takes the sparse action of the exponential, in one call over a uniform
    grid, unless the flow travels past `_ACTION_SPAN` on at most
    `_DENSE_DIM` dimensions (see `_takes_sparse_action`).
    `boundary_weight` is an optional callable that takes the (len(times),
    dim) stack of states and returns the probability near the truncation
    boundary of each row, shape (len(times),); if the worst value along the
    flow exceeds `leakage_threshold` the result is flagged unreliable.
    """
    t = _check_times(times)
    H = ladder.Operator(H)
    _check_hermitian(H)
    psi0 = np.asarray(psi0, dtype=complex).ravel()
    nrm = np.linalg.norm(psi0)
    if not abs(nrm - 1.0) <= 1e-12:
        raise ValueError(f"initial state must be normalized (|psi| = {nrm:.12g})")

    if _takes_sparse_action(H, t, hbar):
        states = _sparse_states(H, psi0, t, hbar)
    else:
        states = _dense_states(ladder.direct_sum(H), psi0, t, hbar)

    max_bw = 0.0
    reliable = True
    if boundary_weight is not None:
        weights = np.asarray(boundary_weight(states), dtype=float)
        if weights.shape != t.shape:
            raise ValueError(
                f"boundary_weight must return one weight per state, shape {t.shape}, got {weights.shape}"
            )
        max_bw = float(np.max(weights))
        reliable = max_bw <= leakage_threshold
    return FlowResult(
        times=t,
        states=states,
        norm_trace=np.linalg.norm(states, axis=1),
        energy_trace=_expectations(H, states),
        observable_traces={name: _expectations(op, states) for name, op in (observables or {}).items()},
        max_boundary_weight=max_bw,
        reliable=reliable,
    )


def evolve_observable(H, A, t: float, hbar: float = 1.0) -> np.ndarray:
    """Heisenberg-picture conjugation exp(+i t H / hbar) A exp(-i t H / hbar).

    exp(+i t H / hbar) is exponentiated block by block over the direct sum of H.
    """
    H = ladder.Operator(H)
    _check_hermitian(H)
    blocks = ladder.direct_sum(H)
    u = np.zeros(H.shape, dtype=complex)
    for (idx, _), prop in zip(blocks, _block_exponentials(blocks, -t, hbar)):
        u[idx[:, :, None], idx[:, None, :]] = prop
    out = u @ A @ u.conj().T
    herm_err = float(np.max(np.abs(out - out.conj().T)))
    if herm_err > 1e-12 * max(1.0, float(np.max(np.abs(out)))):
        raise ValueError(f"conjugation lost Hermiticity (deviation {herm_err:.3g})")
    return out


@dataclass
class FlowComparison:
    times: np.ndarray
    fidelity: np.ndarray
    phase: np.ndarray


def compare_flows(H1, H2, psi0, times, hbar: float = 1.0) -> FlowComparison:
    """Overlap traces between the two flows from a common initial state.

    fidelity[k] = |<psi_2(t_k)|psi_1(t_k)>|; phase[k] is the phase of flow 1
    relative to flow 2, i.e. arg <psi_2(t_k)|psi_1(t_k)>, so a constant
    generator offset calV reports phase -calV t / hbar.
    """
    if H1.shape != H2.shape:
        raise ValueError("flow comparison needs operators on the same space")
    f1 = evolve_state(H1, psi0, times, hbar=hbar)
    f2 = evolve_state(H2, psi0, times, hbar=hbar)
    overlaps = np.einsum("ki,ki->k", f2.states.conj(), f1.states)
    return FlowComparison(times=f1.times, fidelity=np.abs(overlaps), phase=np.angle(overlaps))


@dataclass
class EhrenfestResult:
    max_residual: float
    x_traces: np.ndarray
    p_traces: np.ndarray
    flow: FlowResult

    @property
    def times(self) -> np.ndarray:
        return self.flow.times

    @property
    def reliable(self) -> bool:
        return self.flow.reliable


def ehrenfest_check(system, H, psi0, times, leakage_threshold: float = 1e-6) -> EhrenfestResult:
    """Residual of d<X>/dt - <P>/m from centered differences on the grid.

    The state must stay clear of the truncation boundary: a boundary weight
    above `leakage_threshold` flags the result unreliable.  `system` is a
    single-particle or composite representation; X is then the
    (center-of-mass) position.  The propagated flow, with its X and P
    traces, is returned as `flow`.
    """
    x_ops, p_ops = system.X, system.P
    t = _check_times(times)
    if len(t) < 3:
        raise ValueError("need at least three grid points for centered differences")
    steps = np.diff(t)
    if np.max(steps) - np.min(steps) > 1e-12 * np.max(steps):
        raise ValueError("centered differences need a uniform time grid")
    obs = {f"x{i}": op for i, op in enumerate(x_ops)}
    obs.update({f"p{i}": op for i, op in enumerate(p_ops)})
    flow = evolve_state(
        H, psi0, t, hbar=system.units.hbar, observables=obs,
        boundary_weight=system.boundary_weight, leakage_threshold=leakage_threshold,
    )
    x_traces = np.array([flow.observable_traces[f"x{i}"] for i in range(len(x_ops))])
    p_traces = np.array([flow.observable_traces[f"p{i}"] for i in range(len(p_ops))])
    dxdt = (x_traces[:, 2:] - x_traces[:, :-2]) / (2.0 * steps[0])
    worst = float(np.max(np.abs(dxdt - p_traces[:, 1:-1] / system.mass)))
    return EhrenfestResult(max_residual=worst, x_traces=x_traces, p_traces=p_traces, flow=flow)


def extra_casimir_check(
    rep,
    calV: float,
    margin: int = 1,
    tol: float = 1e-10,
    hamiltonian=None,
) -> VerificationReport:
    """Check that 2 M H - P.P is the scalar 2 m calV on the interior.

    With the free-generator Hamiltonian the combination is a multiple of the
    identity whose value fixes calV.  Passing a different `hamiltonian`
    (e.g. one with a potential) demonstrates the failure: the combination
    stops being scalar, so that operator represents no element of the
    algebra.
    """
    h = hamiltonian if hamiltonian is not None else hamiltonian_galilei(rep, calV)
    g = 2.0 * rep.M @ h - ladder.square_sum(rep.P)
    idx = rep.interior_indices(margin)
    values, norms = ladder.interior_scalar_fit(ladder.block(g, idx), len(idx))
    fitted, deviation = float(values[0]), float(norms[0])
    expected = 2.0 * rep.mass * calV
    value_err = abs(fitted - expected)
    report = VerificationReport(f"extra_casimir[m={rep.mass}, calV={calV}]")
    report.add(
        "scalar_on_interior",
        deviation <= tol,
        metrics={"deviation_norm": deviation, "tol": tol, "margin": margin},
        detail="" if deviation <= tol else "2MH - P.P is not a multiple of the identity",
    )
    report.add(
        "value_fixes_calV",
        deviation <= tol and value_err <= max(tol, tol * abs(expected)),
        metrics={
            "fitted_scalar": fitted,
            "expected_scalar": expected,
            "implied_calV": fitted / (2.0 * rep.mass),
        },
    )
    return report
