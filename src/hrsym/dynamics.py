"""Hamiltonian flows on representation spaces.

Any Hermitian matrix generates a one-parameter unitary group here, so the
same engine drives physical time evolution, the free-generator flow with its
constant offset, rotations (generator J), and boosts (generator K).  Every
Hamiltonian a system builds is a CSR `ladder.Operator`, and the flows take
any generator as one (dense input is converted once).  Dense propagation
densifies it once and uses the scaling-and-squaring exponential, one per
distinct step of the time grid; the Krylov path uses scipy's expm_multiply
stepping on the CSR operator for larger systems.  Both are deterministic.

Truncation makes long flows untrustworthy once amplitude reaches the top
Fock levels, so every flow records the boundary occupation of the evolving
state and flags the result unreliable above a configurable threshold.
"""

from __future__ import annotations

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
_DENSE_LIMIT = 4096


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
    The result is a CSR `ladder.Operator`; the dense propagator densifies it
    once.
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


def _expectation(op, psi) -> float:
    return float(np.vdot(psi, op @ psi).real)


_SAME_STEP_RTOL = 1e-12


def _step_propagator(steps: list, dt: float, hd: np.ndarray, hbar: float) -> np.ndarray:
    """exp(-i dt H / hbar), reused for any earlier step within `_SAME_STEP_RTOL` of dt.

    A uniform grid's steps differ only by rounding, so it takes one
    exponential; every genuinely new step gets its own.
    """
    for known, prop in reversed(steps):
        if abs(known - dt) <= _SAME_STEP_RTOL * max(abs(known), abs(dt)):
            return prop
    prop = scipy.linalg.expm(-1j * dt * hd / hbar)
    steps.append((dt, prop))
    return prop


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

    Spaces up to `_DENSE_LIMIT` take dense step propagators, larger ones
    Krylov steps.  `boundary_weight` is an optional callable(state) ->
    probability near the truncation boundary; if the worst value along the
    flow exceeds `leakage_threshold` the result is flagged unreliable.
    """
    t = _check_times(times)
    H = ladder.Operator(H)
    _check_hermitian(H)
    psi0 = np.asarray(psi0, dtype=complex).ravel()
    nrm = np.linalg.norm(psi0)
    if not abs(nrm - 1.0) <= 1e-12:
        raise ValueError(f"initial state must be normalized (|psi| = {nrm:.12g})")

    dim = H.shape[0]
    if dim <= _DENSE_LIMIT:
        hd = H.toarray()
        steps: list = []  # (dt, propagator), one per distinct step

        def advance(psi, dt):
            return _step_propagator(steps, dt, hd, hbar) @ psi
    else:
        def advance(psi, dt):
            return scipy.sparse.linalg.expm_multiply(-1j * dt * H / hbar, psi)

    states = np.empty((len(t), dim), dtype=complex)
    psi = psi0
    prev = None
    for k, tk in enumerate(t):
        dt = tk if prev is None else tk - prev
        if dt != 0.0:
            psi = advance(psi, dt)
        prev = tk
        states[k] = psi

    norm_trace = np.linalg.norm(states, axis=1)
    energy_trace = np.array([_expectation(H, s) for s in states])
    obs_traces = {}
    for name, op in (observables or {}).items():
        obs_traces[name] = np.array([_expectation(op, s) for s in states])

    max_bw = 0.0
    reliable = True
    if boundary_weight is not None:
        max_bw = float(np.max([boundary_weight(s) for s in states]))
        reliable = max_bw <= leakage_threshold
    return FlowResult(
        times=t,
        states=states,
        norm_trace=norm_trace,
        energy_trace=energy_trace,
        observable_traces=obs_traces,
        max_boundary_weight=max_bw,
        reliable=reliable,
    )


def evolve_observable(H, A, t: float, hbar: float = 1.0) -> np.ndarray:
    """Heisenberg-picture conjugation exp(+i t H / hbar) A exp(-i t H / hbar)."""
    H = ladder.Operator(H)
    _check_hermitian(H)
    u = scipy.linalg.expm(1j * t * H.toarray() / hbar)
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
    overlaps = np.array([np.vdot(s2, s1) for s1, s2 in zip(f1.states, f2.states)])
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
    fitted, deviation = ladder.interior_scalar_fit([ladder.block(g, idx)])
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
