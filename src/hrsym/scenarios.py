"""Scenario loading, the check registry, and the verification suites.

A scenario file is JSON:

    {"kind": "<algebra|uea|single_rep|composite|spectrum|dynamics>",
     "payload": {...kind-specific...},
     "tolerances": {"<tolerance-name>": value, ...}}

Every emitted check record carries an anchor drawn from the fixed registry
below, naming the operator-algebra claim it verifies.  Reports are plain
dicts dumped with sorted keys, so identical runs are byte-identical apart
from the wall_time_s field.  Tolerance precedence: scenario override beats
the suite default, which beats the module default.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import ladder
from .algebra import AlgebraError, build_algebra, check_jacobi, subalgebra_check
from .composite import tensor_rep, verify_ccr_composite
from .dynamics import (
    PotentialSpec,
    compare_flows,
    ehrenfest_check,
    evolve_observable,
    evolve_state,
    extra_casimir_check,
    hamiltonian_galilei,
    hamiltonian_physical,
)
from .enveloping import (
    Monomial,
    casimir_candidates,
    check_central,
    commutator_uea,
    generator_poly,
)
from .rationals import QC
from .particle import (
    GlobalUnits,
    build_particle_rep,
    build_zeta_rep,
    rep_config_from_json,
    verify_homomorphism,
)
from .spin import (
    J_PAIRS,
    NonScalarCasimirError,
    casimir_spin_value,
    mass_times_spin,
    relative_mode_system,
    relative_spin_spectrum,
    spin_addition_mismatches,
    spin_matrices,
)
from .version import __version__

__all__ = [
    "ANCHOR_REGISTRY",
    "DEFAULT_TOLERANCES",
    "SUITE_NAMES",
    "RunReport",
    "Scenario",
    "ScenarioError",
    "load_scenario",
    "run_scenario",
    "run_suite",
]

TOOL_NAME = "hrsym"

KINDS = ("algebra", "uea", "single_rep", "composite", "spectrum", "dynamics")

ANCHOR_REGISTRY = frozenset(
    {
        "jacobi-identity",
        "subalgebra-closure",
        "mass-central-element",
        "spin-tensor-casimir",
        "free-generator-casimir",
        "time-generator-not-central",
        "ccr-homomorphism",
        "truncation-boundary-defect",
        "mass-scalar-representation",
        "central-charge-family",
        "mass-additivity",
        "com-position-coefficient",
        "naive-position-sum-noncanonical",
        "relative-pair-canonical",
        "com-relative-decoupling",
        "spin-casimir-scalar",
        "spin-tensor-equals-mass-times-spin",
        "relative-orbital-shells",
        "angular-momentum-addition",
        "composite-reducibility",
        "flow-dichotomy",
        "extra-casimir-scalar-value",
        "physical-hamiltonian-outside-algebra",
        "unitary-flow-conservation",
        "picture-equivalence",
        "com-free-motion",
        "rotation-invariant-interaction",
    }
)

DEFAULT_TOLERANCES = {
    "homomorphism": 1e-10,
    "raw_defect": 1e-12,
    "zeta_ccr": 1e-12,
    "ccr_coefficient": 1e-12,
    "spectrum_match": 1e-8,
    "spin_casimir": 1e-13,
    "t_tensor": 1e-12,
    "unitarity": 1e-10,
    "energy": 1e-9,
    "picture": 1e-9,
    "fidelity": 1e-8,
    "phase": 1e-6,
    "extra_casimir": 1e-10,
    "spin_conservation": 1e-8,
    "com_momentum": 1e-9,
    "com_ehrenfest": 1e-5,
    "ehrenfest": 1e-6,
    "leakage": 1e-6,
}


class ScenarioError(ValueError):
    """Malformed scenario file or payload (maps to exit code 2)."""


def check_tolerance(name: str, value: float, where: str) -> float:
    """Return `value` if it is a finite, nonnegative tolerance (NaN fails the comparison)."""
    if not 0 <= value < math.inf:
        raise ScenarioError(f"{where}: tolerance {name!r} must be finite and nonnegative, got {value}")
    return value


@dataclass(frozen=True)
class Scenario:
    kind: str
    payload: dict
    tolerances: dict = field(default_factory=dict)

    def digest(self) -> str:
        canon = json.dumps(
            {"kind": self.kind, "payload": self.payload, "tolerances": self.tolerances},
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(canon.encode()).hexdigest()[:16]


@dataclass
class CheckResult:
    name: str
    anchor: str
    passed: bool
    metrics: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.anchor not in ANCHOR_REGISTRY:
            raise ValueError(f"anchor {self.anchor!r} is not in the registry")


@dataclass
class RunReport:
    scenario_digest: str
    checks: list = field(default_factory=list)
    wall_time_s: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failing_names(self) -> list:
        return [c.name for c in self.checks if not c.passed]

    def to_json(self) -> dict:
        return {
            "tool": TOOL_NAME,
            "version": __version__,
            "scenario_digest": self.scenario_digest,
            "status": "pass" if self.passed else "fail",
            "checks": [
                {
                    "name": c.name,
                    "anchor": c.anchor,
                    "status": "pass" if c.passed else "fail",
                    "metrics": _jsonable(c.metrics),
                }
                for c in self.checks
            ],
            "wall_time_s": self.wall_time_s,
        }

    def render(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True)


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value


def _as_object(value, what) -> dict:
    if not isinstance(value, dict):
        raise ScenarioError(f"{what} must be a JSON object, got {type(value).__name__}")
    return value


def load_scenario(path) -> Scenario:
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from None
    return scenario_from_dict(raw, where=str(path))


def scenario_from_dict(raw, where="scenario") -> Scenario:
    raw = _as_object(raw, where)
    kind = raw.get("kind")
    if kind not in KINDS:
        raise ScenarioError(f"{where}: kind must be one of {KINDS}, got {kind!r}")
    payload = _as_object(raw.get("payload", {}), f"{where}.payload")
    tolerances = _as_object(raw.get("tolerances", {}), f"{where}.tolerances")
    for key, value in tolerances.items():
        if not isinstance(value, (int, float)):
            raise ScenarioError(f"{where}.tolerances[{key!r}] must be a number")
        if key not in DEFAULT_TOLERANCES:
            raise ScenarioError(f"{where}.tolerances[{key!r}] is not a known tolerance")
        check_tolerance(key, value, where)
    return Scenario(kind=kind, payload=payload, tolerances=dict(tolerances))


def _tol(scenario: Scenario, suite_overrides: dict | None, name: str, payload_value=None) -> float:
    """Scenario tolerances, then suite overrides, then `payload_value`, then the default.

    `payload_value` is a tolerance a payload carries as a field of its own;
    it is validated like any other, and the explicit tolerances outrank it.
    """
    if payload_value is not None:
        payload_value = check_tolerance(name, float(payload_value), f"{scenario.kind} payload")
    if name in scenario.tolerances:
        return float(scenario.tolerances[name])
    if suite_overrides and name in suite_overrides:
        return float(suite_overrides[name])
    if payload_value is not None:
        return payload_value
    return DEFAULT_TOLERANCES[name]


# ---------------------------------------------------------------------------
# kind runners
# ---------------------------------------------------------------------------

def _run_algebra(sc: Scenario, tols) -> list:
    payload = sc.payload
    spec = payload.get("descriptor", payload.get("name"))
    if spec is None:
        raise ScenarioError("algebra payload needs 'name' or 'descriptor'")
    try:
        alg = build_algebra(spec)
    except AlgebraError as exc:
        raise ScenarioError(str(exc)) from None
    checks = []
    jac = check_jacobi(alg)
    rec = jac["jacobi"]
    checks.append(
        CheckResult(
            name=f"jacobi:{alg.name}",
            anchor="jacobi-identity",
            passed=rec.passed,
            metrics=rec.metrics,
        )
    )
    for sub in payload.get("subalgebras", []):
        sub = _as_object(sub, "subalgebra entry")
        names = sub.get("generators", [])
        expect_closed = bool(sub.get("expect_closed", True))
        rep = subalgebra_check(alg, names)
        closed = rep["closure"].passed
        checks.append(
            CheckResult(
                name=f"subalgebra:{alg.name}:{'+'.join(names)}",
                anchor="subalgebra-closure",
                passed=closed == expect_closed,
                metrics={"closed": closed, "expected_closed": expect_closed,
                         **rep["closure"].metrics},
            )
        )
    return checks


def _run_uea(sc: Scenario, tols) -> list:
    name = sc.payload.get("algebra")
    if name not in ("hr3", "g3tilde"):
        raise ScenarioError("uea payload needs algebra 'hr3' or 'g3tilde'")
    alg = build_algebra(name)
    anchors = {"M": "mass-central-element", "T.T/2": "spin-tensor-casimir", "2MH-P.P": "free-generator-casimir"}
    checks = []
    for cand in casimir_candidates(alg):
        rep = check_central(alg, cand)
        failing = [c.name for c in rep.failures()]
        checks.append(
            CheckResult(
                name=f"central:{name}:{cand.name}",
                anchor=anchors[cand.name],
                passed=rep.passed,
                metrics={
                    "degree": cand.polynomial.degree,
                    "generators_checked": len(rep.checks),
                    "nonzero_remainders": failing,
                },
            )
        )
    if name == "g3tilde":
        h = generator_poly(alg, "H")
        rem = commutator_uea(alg, h, generator_poly(alg, "K1"))
        # [H, K1] must come out as the algebra element -i hb P1, not zero
        is_minus_ihbar_p1 = rem.terms == {Monomial((alg.index("P1"),), 1): QC(0, -1)}
        checks.append(
            CheckResult(
                name="noncentral:g3tilde:H",
                anchor="time-generator-not-central",
                passed=is_minus_ihbar_p1,
                metrics={"remainder": rem.pretty(), "expected": "(-i)*hb*P1"},
            )
        )
    return checks


def _run_single_rep(sc: Scenario, tols) -> list:
    payload = dict(sc.payload)
    try:
        config = rep_config_from_json(payload)
    except (KeyError, ValueError) as exc:
        raise ScenarioError(f"bad representation config: {exc}") from None
    rep = build_particle_rep(config)
    hbar = config.units.hbar
    checks = []

    m_dev = float(abs(rep.M - config.mass * ladder.identity(rep.dim)).max())
    checks.append(
        CheckResult(
            name="mass_scalar",
            anchor="mass-scalar-representation",
            passed=m_dev == 0.0,
            metrics={"deviation": m_dev, "mass": config.mass},
        )
    )

    alg_name = payload.get("algebra", "hr3" if config.dims == 3 else "h3")
    margin = payload.get("margin")
    tol = _tol(sc, tols, "homomorphism")
    hom = verify_homomorphism(rep, alg_name, margin=margin, tol=tol)
    worst = float(np.max([c.metrics["defect_norm"] for c in hom.checks], initial=0.0))
    checks.append(
        CheckResult(
            name=f"homomorphism:{alg_name}",
            anchor="ccr-homomorphism",
            passed=hom.passed,
            metrics={"pairs": len(hom.checks), "worst_defect": worst, "tol": tol,
                     "failing": [c.name for c in hom.failures()],
                     "skipped": len(hom.skipped), "skipped_pairs": hom.skipped},
        )
    )

    if payload.get("raw_defect"):
        tol_raw = _tol(sc, tols, "raw_defect")
        worst_raw = rep.raw_boundary_defect()
        checks.append(
            CheckResult(
                name="raw_boundary_defect",
                anchor="truncation-boundary-defect",
                passed=worst_raw <= tol_raw,
                metrics={"deviation": worst_raw, "tol": tol_raw,
                         "defect_norm_per_dim": hbar * config.levels},
            )
        )

    if payload.get("zeta") is not None:
        zrep = build_zeta_rep(float(payload["zeta"]), rep)
        idx = rep.interior_indices(max(1, payload.get("zeta_margin", 1)))
        tol_z = _tol(sc, tols, "zeta_ccr")
        worst_z = zrep.defect(idx)
        checks.append(
            CheckResult(
                name=f"zeta_rep:{zrep.zeta}",
                anchor="central-charge-family",
                passed=worst_z <= tol_z,
                metrics={"zeta": zrep.zeta, "defect_norm": worst_z, "tol": tol_z},
            )
        )

    if payload.get("t_tensor"):
        tol_t = _tol(sc, tols, "t_tensor")
        worst_t, value = mass_times_spin(rep)
        checks.append(
            CheckResult(
                name="t_tensor_identity",
                anchor="spin-tensor-equals-mass-times-spin",
                passed=worst_t <= tol_t and abs(value.s - config.spin) <= 1e-8,
                metrics={"deviation": worst_t, "tol": tol_t,
                         "casimir_value": value.value, "implied_spin": value.s},
            )
        )
    return checks


def _particle_pair(payload, what):
    """The two particle configs of a composite payload and their product representation."""
    try:
        cfg_a = rep_config_from_json(_as_object(payload["particleA"], "particleA"))
        cfg_b = rep_config_from_json(_as_object(payload["particleB"], "particleB"))
    except KeyError as exc:
        raise ScenarioError(f"{what} payload needs {exc}") from None
    except ValueError as exc:
        raise ScenarioError(f"bad particle config: {exc}") from None
    return cfg_a, cfg_b, tensor_rep(build_particle_rep(cfg_a), build_particle_rep(cfg_b))


def _run_composite(sc: Scenario, tols) -> list:
    payload = sc.payload
    cfg_a, cfg_b, comp = _particle_pair(payload, "composite")
    checks = []

    total = cfg_a.mass + cfg_b.mass
    m_dev = float(abs(comp.M - total * ladder.identity(comp.dim)).max())
    checks.append(
        CheckResult(
            name="mass_additivity",
            anchor="mass-additivity",
            passed=m_dev == 0.0,
            metrics={"deviation": m_dev, "total_mass": total},
        )
    )

    if payload.get("ccr", True):
        margin = int(payload.get("margin", 1))
        tol = _tol(sc, tols, "ccr_coefficient")
        anchors = {
            "x_com:p": "com-position-coefficient",
            "x_naive:p": "naive-position-sum-noncanonical",
            "r:q": "relative-pair-canonical",
            "r:p": "com-relative-decoupling",
            "q:x_com": "com-relative-decoupling",
        }
        for rec in verify_ccr_composite(comp, margin=margin, tol=tol):
            checks.append(
                CheckResult(
                    name=f"ccr:{rec.pair}",
                    anchor=anchors[rec.pair],
                    passed=rec.passed,
                    metrics=asdict(rec),
                )
            )

    if payload.get("reducibility"):
        try:
            value = casimir_spin_value(comp, margin=int(payload.get("margin", 1)))
            passed, metrics = False, {"unexpected_scalar": value.value}
        except NonScalarCasimirError as exc:
            passed, metrics = True, {"fitted": exc.fitted, "deviation_norm": exc.deviation}
        except ValueError as exc:
            raise ScenarioError(str(exc)) from None
        checks.append(
            CheckResult(
                name="composite_not_irreducible",
                anchor="composite-reducibility",
                passed=passed,
                metrics=metrics,
            )
        )
    return checks


def _run_spectrum(sc: Scenario, tols) -> list:
    payload = sc.payload
    checks = []
    tol_match = _tol(sc, tols, "spectrum_match")

    if "n_max" in payload:
        n_max = int(payload["n_max"])
        s_a = payload.get("spin_a", 0)
        s_b = payload.get("spin_b", 0)
        spectrum = relative_spin_spectrum(n_max, s_a=s_a, s_b=s_b)
        complete = spectrum.multiplicity_total() == spectrum.dim and not spectrum.unmatched
        checks.append(
            CheckResult(
                name=f"shell_completeness:n{n_max}",
                anchor="relative-orbital-shells",
                passed=complete,
                metrics={
                    "dim": spectrum.dim,
                    "multiplicity_total": spectrum.multiplicity_total(),
                    "unmatched": spectrum.unmatched,
                    "shells": [
                        {"n": n, "ells": ells} for n, ells in spectrum.ell_multisets()
                    ],
                },
            )
        )
        expect = payload.get("expect_shells")
        if expect:
            got = {str(n): ells for n, ells in spectrum.ell_multisets()}
            want = {str(k): sorted(float(x) for x in v) for k, v in expect.items()}
            match = all(got.get(k) == want[k] for k in want)
            checks.append(
                CheckResult(
                    name=f"shell_content:n{n_max}",
                    anchor="relative-orbital-shells",
                    passed=match,
                    metrics={"expected": want, "got": got, "tol": tol_match},
                )
            )

    if "spins" in payload:
        tol_spin = _tol(sc, tols, "spin_casimir")
        deviations = [0.0]
        for s in payload["spins"]:
            rep = spin_matrices(s)
            deviations.append(np.max(np.abs(rep.casimir() - s * (s + 1) * np.eye(rep.dim))))
        worst = float(np.max(deviations))
        checks.append(
            CheckResult(
                name="spin_casimir_scalar",
                anchor="spin-casimir-scalar",
                passed=worst <= tol_spin,
                metrics={"spins": list(payload["spins"]), "worst_deviation": worst, "tol": tol_spin},
            )
        )

    if "addition_max" in payload:
        top = float(payload["addition_max"])
        pairs, mismatches = spin_addition_mismatches(top)
        checks.append(
            CheckResult(
                name=f"angular_momentum_addition:max{top}",
                anchor="angular-momentum-addition",
                passed=not mismatches,
                metrics={"pairs_checked": pairs, "mismatches": mismatches},
            )
        )
    return checks


def _packet(levels: int, alpha) -> np.ndarray:
    return ladder.coherent_state(levels, complex(alpha[0], alpha[1]))


def _initial_state(payload, rep, default_alpha) -> np.ndarray:
    """Explicit coefficient vector ([re, im] pairs) or a coherent packet on every axis."""
    vec = payload.get("psi0")
    if vec is not None:
        state = np.array([complex(re, im) for re, im in vec])
        if len(state) != rep.dim:
            raise ScenarioError(f"psi0 has {len(state)} entries, the space has {rep.dim}")
        nrm = np.linalg.norm(state)
        if nrm == 0:
            raise ScenarioError("psi0 must be nonzero")
        return state / nrm
    packet = _packet(rep.config.levels, payload.get("alpha", default_alpha))
    return functools.reduce(np.kron, [packet] * rep.dims)


def _time_grid(payload) -> np.ndarray:
    t_max = float(payload.get("t_max", 1.0))
    steps = int(payload.get("steps", 20))
    if steps < 1:
        raise ScenarioError(f"steps must be at least 1, got {steps}")
    if not 0 < t_max < math.inf:
        raise ScenarioError(f"t_max must be positive and finite, got {t_max}")
    return np.linspace(0.0, t_max, steps + 1)


def _single_system(payload):
    cfg = rep_config_from_json(
        {
            "mass": payload.get("mass", 1.0),
            "dims": payload.get("dims", 1),
            "levels": payload.get("levels", 32),
            "hbar": payload.get("hbar", 1.0),
            "omega_ref": payload.get("omega_ref", 1.0),
        }
    )
    return build_particle_rep(cfg)


def _single_flow(payload, default_alpha) -> tuple:
    """A single-particle flow: system, potential, physical Hamiltonian, initial state, time grid."""
    rep = _single_system(payload)
    pot = PotentialSpec(**_as_object(payload.get("potential", {"kind": "none"}), "potential"))
    h = hamiltonian_physical(rep, pot)
    return rep, pot, h, _initial_state(payload, rep, default_alpha), _time_grid(payload)


def _dyn_flow_compare(sc: Scenario, tols) -> list:
    payload = sc.payload
    calV = float(payload.get("calV", 0.0))
    rep, pot, h_phys, psi0, times = _single_flow(payload, [0.6, 0.5])
    hbar = rep.units.hbar
    cmp = compare_flows(hamiltonian_galilei(rep, calV), h_phys, psi0, times, hbar=hbar)
    checks = []
    expect = payload.get("expect", "scalar_phase" if pot.is_trivial else "diverge")
    if expect == "scalar_phase":
        tol_f = _tol(sc, tols, "fidelity")
        tol_p = _tol(sc, tols, "phase")
        fid_ok = bool(np.all(cmp.fidelity >= 1.0 - tol_f))
        want = -calV * cmp.times / hbar
        err = np.abs(np.angle(np.exp(1j * (cmp.phase - want))))
        phase_ok = bool(np.max(err) <= tol_p)
        checks.append(
            CheckResult(
                name="flow_agreement_free",
                anchor="flow-dichotomy",
                passed=fid_ok and phase_ok,
                metrics={
                    "min_fidelity": float(np.min(cmp.fidelity)),
                    "max_phase_error": float(np.max(err)),
                    "phase_slope": -calV / hbar,
                },
            )
        )
    else:
        below = float(payload.get("fidelity_below", 0.99))
        by_time = float(payload.get("by_time", times[-1]))
        mask = cmp.times >= by_time - 1e-12
        reached = bool(np.any(cmp.fidelity[mask] < below))
        checks.append(
            CheckResult(
                name="flow_divergence_with_potential",
                anchor="flow-dichotomy",
                passed=reached,
                metrics={
                    "fidelity_at_end": float(cmp.fidelity[-1]),
                    "threshold": below,
                    "by_time": by_time,
                },
            )
        )
    return checks


def _dyn_conservation(sc: Scenario, tols) -> list:
    rep, _, h, psi0, times = _single_flow(sc.payload, [0.5, 0.0])
    hbar = rep.units.hbar
    flow = evolve_state(
        h, psi0, times, hbar=hbar, boundary_weight=rep.boundary_weight,
        leakage_threshold=_tol(sc, tols, "leakage"),
    )
    tol_u = _tol(sc, tols, "unitarity")
    tol_e = _tol(sc, tols, "energy")
    norm_dev = float(np.max(np.abs(flow.norm_trace - 1.0)))
    energy_dev = float(np.max(np.abs(flow.energy_trace - flow.energy_trace[0])))

    rng = np.random.default_rng(20230517)
    a = rng.normal(size=(rep.dim, rep.dim)) + 1j * rng.normal(size=(rep.dim, rep.dim))
    a = (a + a.conj().T) / 2.0
    t_probe = float(times[-1])
    a_t = evolve_observable(h, a, t_probe, hbar=hbar)
    lhs = float(np.vdot(flow.states[-1], a @ flow.states[-1]).real)
    rhs = float(np.vdot(psi0, a_t @ psi0).real)
    tol_pic = _tol(sc, tols, "picture")
    return [
        CheckResult(
            name="unitarity_energy",
            anchor="unitary-flow-conservation",
            passed=flow.reliable and norm_dev <= tol_u and energy_dev <= tol_e,
            metrics={
                "norm_deviation": norm_dev,
                "energy_deviation": energy_dev,
                "max_boundary_weight": flow.max_boundary_weight,
                "reliable": flow.reliable,
            },
        ),
        CheckResult(
            name="picture_equivalence",
            anchor="picture-equivalence",
            passed=abs(lhs - rhs) <= tol_pic * max(1.0, abs(lhs)),
            metrics={"schrodinger": lhs, "heisenberg": rhs, "difference": abs(lhs - rhs)},
        ),
    ]


def _dyn_extra_casimir(sc: Scenario, tols) -> list:
    payload = sc.payload
    rep = _single_system(payload)
    calV = float(payload.get("calV", 0.0))
    tol = _tol(sc, tols, "extra_casimir")
    report = extra_casimir_check(rep, calV, margin=int(payload.get("margin", 1)), tol=tol)
    checks = [
        CheckResult(
            name="extra_casimir_scalar",
            anchor="extra-casimir-scalar-value",
            passed=report.passed,
            metrics={c.name: c.metrics for c in report.checks},
        )
    ]
    sub = payload.get("substitute_potential")
    if sub is not None:
        pot = PotentialSpec(kind="poly_x", coefficients=tuple(sub))
        h_phys = hamiltonian_physical(rep, pot)
        rep2 = extra_casimir_check(rep, calV, margin=int(payload.get("margin", 1)),
                                   tol=tol, hamiltonian=h_phys)
        deviation = rep2["scalar_on_interior"].metrics["deviation_norm"]
        checks.append(
            CheckResult(
                name="physical_hamiltonian_not_generator",
                anchor="physical-hamiltonian-outside-algebra",
                passed=(not rep2.passed) and deviation >= 0.1,
                metrics={"deviation_norm": deviation, "required_at_least": 0.1},
            )
        )
    return checks


def _dyn_com_decoupling(sc: Scenario, tols) -> list:
    payload = sc.payload
    cfg_a, cfg_b, comp = _particle_pair(payload, "com_decoupling")
    pot = PotentialSpec(kind="poly_r2", coefficients=tuple(payload.get("coefficients", [0.0, 0.1])))
    h = hamiltonian_physical(comp, pot)
    alpha_a = payload.get("alpha_a", [0.4, 0.2])
    alpha_b = payload.get("alpha_b", [-0.3, 0.1])
    psi0 = np.kron(
        _packet(cfg_a.levels, alpha_a), _packet(cfg_b.levels, alpha_b)
    )
    times = _time_grid(payload)
    ehr = ehrenfest_check(comp, h, psi0, times, leakage_threshold=_tol(sc, tols, "leakage"))
    tol_p = _tol(sc, tols, "com_momentum")
    drift = float(np.max(np.abs(ehr.p_traces - ehr.p_traces[:, :1])))
    tol_x = _tol(sc, tols, "com_ehrenfest")
    return [
        CheckResult(
            name="com_momentum_constant",
            anchor="com-free-motion",
            passed=ehr.reliable and drift <= tol_p,
            metrics={"momentum_drift": drift, "tol": tol_p, "reliable": ehr.reliable},
        ),
        CheckResult(
            name="com_velocity_matches_momentum",
            anchor="com-free-motion",
            passed=ehr.reliable and ehr.max_residual <= tol_x,
            metrics={"residual": ehr.max_residual, "tol": tol_x},
        ),
    ]


def _dyn_relative_conservation(sc: Scenario, tols) -> list:
    payload = sc.payload
    n_max = int(payload.get("n_max", 6))
    if n_max < 2:
        raise ScenarioError(f"relative_conservation needs n_max >= 2 for its two-quanta state, got {n_max}")
    mu = float(payload.get("mu", 0.5))
    units = GlobalUnits(hbar=float(payload.get("hbar", 1.0)), omega_ref=float(payload.get("omega_ref", 1.0)))
    sys = relative_mode_system(
        n_max, mu, units, s_a=payload.get("spin_a", 0), s_b=payload.get("spin_b", 0)
    )
    pot = PotentialSpec(kind="poly_r2", coefficients=tuple(payload.get("coefficients", [0.0, 0.5, 0.05])))
    h = hamiltonian_physical(sys, pot)

    comm_norm = float(np.max([
        ladder.spectral_norm((h @ sys.S[p] - sys.S[p] @ h).toarray()) for p in J_PAIRS
    ]))
    tol_rot = _tol(sc, tols, "spin_conservation")

    ladder_ops = sys.relative_ladder()
    state = sys.ground_state()
    state = (ladder_ops[0].conj().T + 1j * ladder_ops[1].conj().T) @ state
    extra = ladder_ops[2].conj().T @ (ladder_ops[2].conj().T @ sys.ground_state())
    state = state / np.linalg.norm(state) + 0.5 * extra / np.linalg.norm(extra)
    state = state / np.linalg.norm(state)
    times = _time_grid(payload)
    flow = evolve_state(
        h, state, times, hbar=units.hbar,
        observables={"spin_casimir": sys.spin_casimir},
        boundary_weight=sys.boundary_weight,
        leakage_threshold=1.0,  # the top shell participates by construction
    )
    trace = flow.observable_traces["spin_casimir"]
    drift = float(np.max(np.abs(trace - trace[0])))
    tol_u = _tol(sc, tols, "unitarity")
    norm_dev = float(np.max(np.abs(flow.norm_trace - 1.0)))
    return [
        CheckResult(
            name="rotation_generators_commute_with_h",
            anchor="rotation-invariant-interaction",
            passed=comm_norm <= tol_rot,
            metrics={"commutator_norm": comm_norm, "tol": tol_rot},
        ),
        CheckResult(
            name="spin_casimir_conserved",
            anchor="rotation-invariant-interaction",
            passed=drift <= tol_rot and norm_dev <= tol_u,
            metrics={"casimir_drift": drift, "norm_deviation": norm_dev,
                     "initial_value": float(trace[0]),
                     "max_boundary_weight": flow.max_boundary_weight},
        ),
    ]


def _dyn_ehrenfest(sc: Scenario, tols) -> list:
    tol = _tol(sc, tols, "ehrenfest", sc.payload.get("tol"))
    rep, _, h, psi0, times = _single_flow(sc.payload, [0.5, 0.3])
    result = ehrenfest_check(rep, h, psi0, times, leakage_threshold=_tol(sc, tols, "leakage"))
    return [
        CheckResult(
            name="ehrenfest_velocity",
            anchor="unitary-flow-conservation",
            passed=result.reliable and result.max_residual <= tol,
            metrics={"residual": result.max_residual, "tol": tol, "reliable": result.reliable},
        )
    ]


_DYNAMICS = {
    "flow_compare": _dyn_flow_compare,
    "conservation": _dyn_conservation,
    "extra_casimir": _dyn_extra_casimir,
    "com_decoupling": _dyn_com_decoupling,
    "relative_conservation": _dyn_relative_conservation,
    "ehrenfest": _dyn_ehrenfest,
}


def _run_dynamics(sc: Scenario, tols) -> list:
    check = sc.payload.get("check")
    runner = _DYNAMICS.get(check) if isinstance(check, str) else None
    if runner is None:
        raise ScenarioError(f"unknown dynamics check {check!r}")
    return runner(sc, tols)


_RUNNERS = {
    "algebra": _run_algebra,
    "uea": _run_uea,
    "single_rep": _run_single_rep,
    "composite": _run_composite,
    "spectrum": _run_spectrum,
    "dynamics": _run_dynamics,
}


def run_scenario(scenario: Scenario, suite_tolerances: dict | None = None) -> RunReport:
    """Execute the checks mapped to one scenario and assemble a report.

    Numeric violations become failed check records; configuration problems
    (bad payload values, unknown generators, invalid margins) surface as
    ScenarioError so the command line can map them to exit code 2.
    """
    start = time.perf_counter()
    try:
        checks = _RUNNERS[scenario.kind](scenario, suite_tolerances)
    except ScenarioError:
        raise
    except (ValueError, KeyError, TypeError, OverflowError) as exc:
        raise ScenarioError(f"{scenario.kind} payload: {exc}") from None
    report = RunReport(scenario_digest=scenario.digest(), checks=checks)
    report.wall_time_s = time.perf_counter() - start
    return report


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def _core_suite() -> list:
    return [
        {"kind": "algebra", "payload": {"name": "h3_naive"}},
        {"kind": "algebra", "payload": {"name": "h3"}},
        {"kind": "algebra", "payload": {"name": "so3"}},
        {
            "kind": "algebra",
            "payload": {
                "name": "hr3",
                "subalgebras": [
                    {"generators": ["K1", "K2", "K3", "P1", "P2", "P3", "M"], "expect_closed": True},
                    {"generators": ["J12", "J13", "J23"], "expect_closed": True},
                ],
            },
        },
        {
            "kind": "algebra",
            "payload": {
                "name": "g3tilde",
                "subalgebras": [
                    {"generators": ["K1", "K2", "K3", "P1", "P2", "P3", "M"], "expect_closed": True},
                    {
                        "generators": ["J12", "J13", "J23", "K1", "K2", "K3", "P1", "P2", "P3", "M"],
                        "expect_closed": True,
                    },
                    {"generators": ["K1", "K2", "K3", "H"], "expect_closed": False},
                ],
            },
        },
        {"kind": "uea", "payload": {"algebra": "hr3"}},
        {"kind": "uea", "payload": {"algebra": "g3tilde"}},
        {
            "kind": "single_rep",
            "payload": {"mass": 1.0, "dims": 1, "levels": 8, "algebra": "h3",
                        "margin": 1, "raw_defect": True, "zeta": 4.0},
        },
        {
            "kind": "composite",
            "payload": {
                "particleA": {"mass": 1.0, "dims": 1, "levels": 8},
                "particleB": {"mass": 2.0, "dims": 1, "levels": 8},
                "margin": 1,
            },
        },
        {
            "kind": "dynamics",
            "payload": {"check": "extra_casimir", "mass": 2.0, "levels": 16, "calV": 3.0,
                        "substitute_potential": [0.0, 0.0, 0.5]},
        },
        {
            "kind": "dynamics",
            "payload": {"check": "flow_compare", "levels": 32, "mass": 1.0, "calV": 5.0,
                        "t_max": 2.0, "steps": 20, "alpha": [0.6, 0.5], "expect": "scalar_phase"},
        },
        {
            "kind": "dynamics",
            "payload": {"check": "flow_compare", "levels": 32, "mass": 1.0, "calV": 0.0,
                        "potential": {"kind": "poly_x", "coefficients": [0.0, 0.0, 0.5]},
                        "t_max": 2.0, "steps": 20, "alpha": [0.6, 0.5],
                        "expect": "diverge", "fidelity_below": 0.99, "by_time": 2.0},
        },
    ]


def _full_suite() -> list:
    return _core_suite() + [
        {
            "kind": "single_rep",
            "payload": {"mass": 1.0, "dims": 3, "levels": 6, "algebra": "hr3", "margin": 2},
        },
        {
            "kind": "single_rep",
            "payload": {"mass": 2.0, "dims": 3, "levels": 3, "spin": 0.5,
                        "algebra": "hr3", "margin": 1, "t_tensor": True},
        },
        {
            "kind": "single_rep",
            "payload": {"mass": 1.5, "dims": 3, "levels": 4, "algebra": "hr3",
                        "margin": 1, "t_tensor": True},
        },
        {"kind": "spectrum", "payload": {"spins": [0, 0.5, 1, 1.5]}},
        {
            "kind": "spectrum",
            "payload": {"n_max": 2, "expect_shells": {"0": [0], "1": [1], "2": [0, 2]}},
        },
        {
            "kind": "spectrum",
            "payload": {"n_max": 3,
                        "expect_shells": {"0": [0], "1": [1], "2": [0, 2], "3": [1, 3]}},
        },
        {"kind": "spectrum", "payload": {"n_max": 0, "spin_a": 0.5, "spin_b": 0.5,
                                         "expect_shells": {"0": [0, 1]}}},
        {"kind": "spectrum", "payload": {"addition_max": 1.5}},
        {
            "kind": "composite",
            "payload": {
                "particleA": {"mass": 1.0, "dims": 3, "levels": 3},
                "particleB": {"mass": 2.0, "dims": 3, "levels": 3},
                "margin": 1, "ccr": False, "reducibility": True,
            },
        },
        {
            "kind": "dynamics",
            "payload": {"check": "conservation", "levels": 32, "mass": 1.0,
                        "potential": {"kind": "poly_x", "coefficients": [0.0, 0.0, 0.5]},
                        "t_max": 6.0, "steps": 60, "alpha": [0.5, 0.0]},
        },
        {
            "kind": "dynamics",
            "payload": {"check": "ehrenfest", "levels": 32, "mass": 1.0,
                        "potential": {"kind": "poly_x", "coefficients": [0.0, 0.0, 0.5]},
                        "t_max": 6.283185307179586, "steps": 400, "alpha": [0.5, 0.0],
                        "tol": 1e-4},
        },
        {
            "kind": "dynamics",
            "payload": {"check": "com_decoupling",
                        "particleA": {"mass": 1.0, "dims": 1, "levels": 28},
                        "particleB": {"mass": 2.0, "dims": 1, "levels": 28},
                        "coefficients": [0.0, 0.05],
                        "alpha_a": [0.3, 0.2], "alpha_b": [-0.2, 0.1],
                        "t_max": 1.0, "steps": 40},
        },
        {
            "kind": "dynamics",
            "payload": {"check": "relative_conservation", "n_max": 6, "mu": 0.6666666666666666,
                        "coefficients": [0.0, 0.5, 0.05], "t_max": 3.0, "steps": 30},
        },
    ]


SUITES = {"paper-core": _core_suite, "paper-full": _full_suite}
SUITE_NAMES = tuple(SUITES)


@dataclass
class SuiteReport:
    """Ordered collection of (label, RunReport) pairs for one suite run."""

    suite: str
    reports: list
    wall_time_s: float = 0.0

    @property
    def passed(self) -> bool:
        return all(report.passed for _, report in self.reports)

    def check_count(self) -> int:
        return sum(len(report.checks) for _, report in self.reports)

    def failing_names(self) -> list:
        out = []
        for label, report in self.reports:
            out.extend(f"{label}/{name}" for name in report.failing_names())
        return out

    def to_json(self) -> dict:
        return {
            "tool": TOOL_NAME,
            "version": __version__,
            "suite": self.suite,
            "status": "pass" if self.passed else "fail",
            "scenario_count": len(self.reports),
            "check_count": self.check_count(),
            "scenarios": [
                {"label": label, **report.to_json()} for label, report in self.reports
            ],
            "wall_time_s": self.wall_time_s,
        }

    def render(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True)


def run_suite(name: str, tolerances: dict | None = None) -> SuiteReport:
    """Run a named suite, its scenarios in order."""
    if name not in SUITES:
        raise ScenarioError(f"unknown suite {name!r} (one of {', '.join(SUITE_NAMES)})")
    start = time.perf_counter()
    scenario_dicts = SUITES[name]()
    scenarios = []
    for i, raw in enumerate(scenario_dicts):
        sc = scenario_from_dict(raw, where=f"{name}[{i}]")
        label = f"{i:02d}_{sc.kind}" + (
            f":{sc.payload.get('check')}" if sc.kind == "dynamics" else ""
        )
        scenarios.append((label, sc))
    reports = [(label, run_scenario(sc, tolerances)) for label, sc in scenarios]
    out = SuiteReport(suite=name, reports=reports)
    out.wall_time_s = time.perf_counter() - start
    return out
