"""Hamiltonian flows on representation spaces.

Any Hermitian matrix generates a one-parameter unitary group here, so the
same engine drives physical time evolution, the free-generator flow with its
constant offset, rotations (generator J), and boosts (generator K).  Every
Hamiltonian a system builds is a CSR `ladder.Operator`, and the flows take
any generator as one (dense input is converted once).  A state flow picks
one of three propagators from the block sizes of the direct sum of H
(`ladder.direct_sum`, `_route`):

- blocks of at most `_DENSE_LIMIT` states take one batched
  scaling-and-squaring exponential per block size and distinct step of the
  time grid;
- a larger block on at most `_DENSE_DIM` dimensions takes one `eigh` per
  stack of equal-sized blocks, and every state of the grid at once as
  V exp(-i w t / hbar) V^H psi0, exact on any grid, unless the flow is short
  enough for Chebyshev to be cheaper: its order r s / hbar (r the
  half-width of the spectrum, s the time travelled) is at most
  `_ACTION_SPAN` b^2 for the largest block b;
- otherwise the Chebyshev expansion of exp(-i t H / hbar) (Tal-Ezer &
  Kosloff 1984): H is scaled into [-1, 1] by the Gershgorin enclosure of its
  spectrum, and each state of a stretch of the grid is a Bessel-weighted
  sum of one basis T_k(H) psi, built by sparse products alone.

All three are deterministic, every trace (norm, energy, observables,
boundary weight) is one product over the stack of states, and an observable
flow conjugates by the same `eigh` per stack as the state flow.

Truncation makes long flows untrustworthy once amplitude reaches the top
Fock levels, so every flow records the boundary occupation of the evolving
state and flags the result unreliable above a configurable threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

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
# Blocks of at most _DENSE_LIMIT states take stepped scipy.linalg.expm, which runs on both
# OpenBLAS copies (numpy's and scipy's).  Up to 32 states its helper threads stay nearly idle
# (at most 5 clock ticks per 50 calls on (3, b, b) stacks, against 6 to 14 from 40 to 64, on a
# 2-core x86_64 host at OPENBLAS_NUM_THREADS=2; BENCH_13.json).  The route stays only because
# perfbench/test_perfbench.py counts expm calls on a flow with blocks of 4, 10 and 20 states;
# it goes once that test counts a dynamics span instead.
_DENSE_LIMIT = 32
_DENSE_DIM = 4096  # widest flow whose larger blocks may take eigh
_SAME_STEP_RTOL = 1e-12  # steps this close share their block exponentials
_ACTION_SPAN = 0.002  # largest Chebyshev order per squared state of the largest block below _DENSE_DIM
_CHUNK = 32  # Chebyshev basis vectors held at once
_TABLE = 1 << 16  # largest Bessel table (orders by grid points) of one Chebyshev segment
_NEGLIGIBLE = 1e-150  # Bessel weights and state parts below it are set to 0


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
    The result is a CSR `ladder.Operator`; a flow exponentiates or
    diagonalizes it block by block, or expands it in Chebyshev polynomials.
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


def _step_propagator(steps: list, dt: float, blocks: list, hbar: float) -> list:
    """exp(-i dt H / hbar) of the `ladder.direct_sum` blocks of H, one stacked exponential per size.

    They are reused for any earlier step within `_SAME_STEP_RTOL` of dt: a
    uniform grid's steps differ only by rounding, so it takes one exponential
    per block size; every genuinely new step gets its own.
    """
    for known, props in reversed(steps):
        if abs(known - dt) <= _SAME_STEP_RTOL * max(abs(known), abs(dt)):
            return props
    props = [scipy.linalg.expm(-1j * dt * stack / hbar) for _, stack in blocks]
    steps.append((dt, props))
    return props


def _dense_states(blocks: list, psi0: np.ndarray, t: np.ndarray, hbar: float) -> np.ndarray:
    """psi0 at every time of `t`, stepped by the block exponentials of each distinct step."""
    steps: list = []  # (dt, block propagators), one per distinct step
    states = np.empty((len(t), len(psi0)), dtype=complex)
    psi = psi0
    for k, dt in enumerate(np.diff(t, prepend=0.0)):
        if dt != 0.0:
            psi = psi.copy()
            for (idx, _), prop in zip(blocks, _step_propagator(steps, dt, blocks, hbar)):
                psi[idx] = np.matmul(prop, psi[idx][..., None])[..., 0]
        states[k] = psi
    return states


def _spectral_interval(H: ladder.Operator) -> tuple:
    """Centre c and half-width r of [c - r, c + r], which holds every eigenvalue of Hermitian H.

    It encloses the Gershgorin discs |z - H_ii| <= sum_(j != i) |H_ij|, widened by
    1e-12 of its larger end against the rounding of the row sums.
    """
    diag = H.diagonal().real
    radius = abs(H).sum(axis=1) - np.abs(diag)
    lo, hi = np.min(diag - radius), np.max(diag + radius)
    return (lo + hi) / 2, (hi - lo) / 2 + 1e-12 * max(abs(lo), abs(hi)) + np.finfo(float).tiny


def _chebyshev_order(x: float) -> int:
    """Terms of the Chebyshev series of exp(-i x y) on [-1, 1] that leave a tail below 1e-17."""
    return math.ceil(x + 15.0 * np.cbrt(x / 2.0)) + 16


def _flushed(v: np.ndarray) -> np.ndarray:
    """`v` with its real and imaginary parts below `_NEGLIGIBLE` set to 0, in place.

    Their products would be subnormal, and arithmetic on those runs many times slower.
    """
    parts = v.view(float)
    parts[abs(parts) < _NEGLIGIBLE] = 0.0
    return v


def _bessel_table(x: np.ndarray, orders: int) -> np.ndarray:
    """J_k(x) for k < `orders` and every x >= 0 of `x`, shape (orders, len(x)), flushed.

    Miller's backward recurrence J_(k-1) = (2k / x) J_k - J_(k+1), started 16
    orders above the table and normalised by J_0 + 2 (J_2 + J_4 + ...) = 1.
    A column about to overflow is scaled down with all it has stored; one
    with x below 1e-30 is taken as J_k = [k = 0].
    """
    small = x < 1e-30
    two_over_x = 2.0 / np.where(small, 1.0, x)
    table = np.zeros((orders, len(x)))
    after, cur, even = np.zeros(len(x)), np.full(len(x), 1e-300), np.zeros(len(x))
    for k in range(orders + 16, 0, -1):
        if k < orders:
            table[k] = cur
        if k % 2 == 0:
            even += cur
        after, cur = cur, k * two_over_x * cur - after
        if abs(cur).max() > 1e250:
            scale = np.where(abs(cur) > 1e250, 1e-250, 1.0)
            for column in (table[k:], after, cur, even):
                column *= scale
    table[0] = cur
    table /= cur + 2.0 * even
    table[:, small] = np.eye(orders, 1)
    return _flushed(table)


def _chebyshev_segment(hs: ladder.Operator, psi: np.ndarray, x: np.ndarray) -> np.ndarray:
    """exp(-i x_j hs) psi for every x_j of `x` (all of one sign), hs Hermitian with spectrum in [-1, 1].

    exp(-i x y) = J_0(x) + 2 sum_k (-i)^k J_k(x) T_k(y), so every state is a
    Bessel-weighted sum of one basis T_k(hs) psi, streamed `_CHUNK` vectors at
    a time; a real `hs` acts on the real and imaginary parts as two columns.
    """
    n, real = len(psi), not np.iscomplexobj(hs.data)

    def apply(v):
        return (hs @ v.view(float).reshape(n, 2)).view(complex).ravel() if real else hs @ v

    turns = (1, -1j, -1, 1j) if x[-1] >= 0 else (1, 1j, -1, -1j)  # (-i)^k, or i^k for x < 0
    table = _bessel_table(np.abs(x), _chebyshev_order(abs(x[-1])))
    out = np.zeros((len(x), 2 * n))
    before, cur = apply(psi), psi  # T_(-1) = T_1 starts T_(k+1) = 2 hs T_k - T_(k-1) at k = 0
    for k0 in range(0, len(table), _CHUNK):
        rows = table[k0:k0 + _CHUNK]
        first = np.argmax(rows.any(axis=0))  # J_k(x) vanishes for x far below k
        chunk = np.empty((len(rows), n), dtype=complex)
        for i, k in enumerate(range(k0, k0 + len(rows))):
            chunk[i] = (2.0 if k else 1.0) * turns[k % 4] * cur
            before, cur = cur, _flushed(2.0 * apply(cur) - before)
        # numpy's own loops: a multithreaded BLAS product this small stalls on a busy machine
        out[first:] += np.einsum("km,kn->mn", rows[:, first:], chunk.view(float))
    return out.view(complex)


def _route(H: ladder.Operator, t: np.ndarray, hbar: float) -> str:
    """The propagator of the flow of H over `t`: "expm", "eigh" or "chebyshev".

    Blocks of at most `_DENSE_LIMIT` states take the stepped exponentials;
    flows on more than `_DENSE_DIM` dimensions, whose blocks need not fit in
    memory, take Chebyshev.  Otherwise `eigh` costs about b^3 for the largest
    block b, Chebyshev its order r s / hbar times the dimension (r from
    `_spectral_interval`, s the distance travelled from t = 0), so
    Chebyshev is taken up to an order of `_ACTION_SPAN` b^2.
    """
    largest = ladder.component_sizes(H).max()
    if largest <= _DENSE_LIMIT:
        return "expm"
    travel = abs(t[0]) + t[-1] - t[0]
    if H.shape[0] > _DENSE_DIM or _spectral_interval(H)[1] * travel / hbar <= _ACTION_SPAN * largest**2:
        return "chebyshev"
    return "eigh"


def _eigh_stacks(H: ladder.Operator) -> list:
    """[(idx, w, v)] per `ladder.direct_sum` stack: one `numpy.linalg.eigh`, real when H is real."""
    real = not np.any(H.data.imag)
    return [(idx, *np.linalg.eigh(stack.real if real else stack)) for idx, stack in ladder.direct_sum(H)]


def _eigh_states(H: ladder.Operator, psi0: np.ndarray, t: np.ndarray, hbar: float) -> np.ndarray:
    """psi0 at every time of `t` as V exp(-i w t / hbar) V^H psi0, one batched product per stack.

    Exact on any grid: each time is reached from t = 0 in one step.
    """
    states = np.empty((len(t), len(psi0)), dtype=complex)
    for idx, w, v in _eigh_stacks(H):
        coeffs = np.einsum("kji,kj->ki", v.conj(), psi0[idx])
        # (k, s, len(t)) amplitudes on the eigenvectors of each block, one column per time
        amps = np.exp(-1j / hbar * w[:, :, None] * t) * coeffs[:, :, None]
        if np.isrealobj(v):  # a real V acts on the real and imaginary parts as separate columns
            out = np.matmul(v, amps.view(float)).view(complex)
        else:
            out = np.matmul(v, amps)
        states[:, idx] = out.transpose(2, 0, 1)
    return states


def _chebyshev_states(H: ladder.Operator, psi0: np.ndarray, t: np.ndarray, hbar: float) -> np.ndarray:
    """psi0 at every time of `t` by Chebyshev expansions of exp(-i t H / hbar) (Tal-Ezer & Kosloff 1984).

    With [c - r, c + r] from `_spectral_interval`, exp(-i s H / hbar) is
    exp(-i s c / hbar) exp(-i x hs) for hs = (H - c) / r and x = r s / hbar.
    Each segment of the grid (a Bessel table of at most `_TABLE` entries)
    expands about the state before it; a grid starting below 0 reaches t[0] alone.
    """
    c, r = _spectral_interval(H)
    hs = (H - c * ladder.identity(H.shape[0])) / r
    hs = hs if np.any(hs.data.imag) else hs.real
    states = np.empty((len(t), len(psi0)), dtype=complex)
    origin, psi, start = 0.0, psi0, 0
    while start < len(t):
        stop = start + 1
        while (t[start] >= origin and stop < len(t)
               and _chebyshev_order(r * (t[stop] - origin) / hbar) * (stop + 1 - start) <= _TABLE):
            stop += 1
        s = t[start:stop] - origin
        states[start:stop] = _chebyshev_segment(hs, psi, r * s / hbar) * np.exp(-1j * c * s / hbar)[:, None]
        origin, psi, start = t[stop - 1], states[stop - 1], stop
    return states


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

    `_route` picks the stepped block exponentials, `eigh` or Chebyshev.
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

    route = _route(H, t, hbar)
    if route == "expm":
        states = _dense_states(ladder.direct_sum(H), psi0, t, hbar)
    elif route == "eigh":
        states = _eigh_states(H, psi0, t, hbar)
    else:
        states = _chebyshev_states(H, psi0, t, hbar)

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

    exp(+i t H / hbar) is taken block by block over the direct sum of H,
    from one `numpy.linalg.eigh` per stack of equal-sized blocks
    (`_eigh_stacks`, the decomposition of the state flows' eigh route).
    """
    H = ladder.Operator(H)
    _check_hermitian(H)
    u = np.zeros(H.shape, dtype=complex)
    for idx, w, v in _eigh_stacks(H):
        phases = np.exp(1j * t * w / hbar)[:, None, :]
        u[idx[:, :, None], idx[:, None, :]] = (v * phases) @ v.conj().swapaxes(1, 2)
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
