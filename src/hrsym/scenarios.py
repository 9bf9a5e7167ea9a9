"""Scenario loading, the check registry, and the verification suites.

A scenario file is JSON:

    {"kind": "<algebra|uea|single_rep|composite|spectrum|dynamics>",
     "payload": {...kind-specific...},
     "tolerances": {"<tolerance-name>": value, ...}}

`KINDS` holds the payload format: a (runner, schema) pair per kind and per
dynamics `check`, the schema naming each key's reader and default.  Every
emitted check record carries an anchor drawn from the fixed registry
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
import numbers
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import ladder
from .algebra import CATALOG_IDS, J_PAIRS, build_algebra, check_jacobi, subalgebra_check
from .composite import tensor_rep, verify_ccr_composite
from .dynamics import (
    PotentialSpec,
    compare_flows,
    ehrenfest_check,
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
    RepConfig,
    build_particle_rep,
    build_zeta_rep,
    verify_homomorphism,
)
from .spin import (
    NonScalarCasimirError,
    _as_half_integer,
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
        canon = {"kind": self.kind, "payload": self.payload, "tolerances": self.tolerances}
        # default=float hashes the numpy scalars a library caller may pass
        text = json.dumps(canon, sort_keys=True, separators=(",", ":"), default=float)
        return hashlib.sha256(text.encode()).hexdigest()[:16]


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
        return json.dumps(self.to_json(), indent=2, sort_keys=True, allow_nan=False)


def _jsonable(value):
    """Plain JSON values; a non-finite float becomes "NaN", "Infinity" or "-Infinity"."""
    if isinstance(value, (np.ndarray, np.floating, np.integer)):
        value = value.tolist()
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return "NaN" if math.isnan(value) else ("Infinity" if value > 0 else "-Infinity")
    return value


# ---------------------------------------------------------------------------
# payload readers: reader(value, key) returns the value a runner takes, or
# raises a ScenarioError naming `key`
# ---------------------------------------------------------------------------

_REQUIRED = object()  # the default of a key a payload must carry


def _read(schema: dict, payload, where: str) -> dict:
    """`payload` read key by key through `schema`, {key: (reader, default or _REQUIRED)}.

    A key outside the schema is refused, naming it and the keys the schema
    takes.  An absent key takes its default, read like a given value, but an
    absent optional key (default None) stays None; a given null is read.
    """
    if not isinstance(payload, dict):
        raise ScenarioError(f"{where} must be a JSON object, got {type(payload).__name__}")
    unknown = sorted(set(payload) - set(schema), key=str)
    if unknown:
        raise ScenarioError(f"{where}: unknown key {unknown[0]!r} (known: {', '.join(sorted(schema))})")
    fields = {}
    for key, (read, default) in schema.items():
        value = payload.get(key, default)
        if value is _REQUIRED:
            raise ScenarioError(f"{where} needs {key!r}")
        fields[key] = None if key not in payload and default is None else read(value, key)
    return fields


def _number(value, key) -> float:
    """A real number (numpy's included) as a float; a bool, a string, None or an int past float range is refused."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ScenarioError(f"{key} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ScenarioError(f"{key} must be a number in the float range, got {value!r}") from None


def _as_written(value, key):
    """A number kept as the payload writes it, so a metric that echoes it prints the same."""
    _number(value, key)
    return value


def _integer(value, key) -> int:
    """An integral number (`4` or `4.0`) as an int; a bool, a string or `4.5` is refused, not truncated."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not _number(value, key).is_integer():
        raise ScenarioError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _flag(value, key) -> bool:
    if not isinstance(value, bool):
        raise ScenarioError(f"{key} must be true or false, got {value!r}")
    return value


def _string(value, key) -> str:
    if not isinstance(value, str):
        raise ScenarioError(f"{key} must be a string, got {value!r}")
    return value


def _json_object(value, key) -> dict:
    if not isinstance(value, dict):
        raise ScenarioError(f"{key} must be a JSON object, got {type(value).__name__}")
    return dict(value)


def _pair(value, key) -> complex:
    """An `[re, im]` pair of finite numbers as a complex number."""
    if not isinstance(value, list) or len(value) != 2:
        raise ScenarioError(f"{key} must be an [re, im] pair, got {value!r}")
    parts = _number(value[0], key), _number(value[1], key)
    if not all(map(math.isfinite, parts)):
        raise ScenarioError(f"{key} must be an [re, im] pair of finite numbers, got {value!r}")
    return complex(*parts)


def _one_of(*choices):
    def read(value, key) -> str:
        if not isinstance(value, str) or value not in choices:
            raise ScenarioError(f"{key} must be one of {', '.join(choices)}, got {value!r}")
        return value
    return read


def _list_of(read, nonempty=False):
    """A JSON list, each entry read by `read`; `nonempty` refuses an empty one."""
    def read_list(value, key) -> list:
        if not isinstance(value, list) or (nonempty and not value):
            raise ScenarioError(f"{key} must be a {'nonempty ' * nonempty}JSON list, got {value!r}")
        return [read(v, key) for v in value]
    return read_list


def _within(read, low, high=math.inf):
    """`read`, then refuse a value outside the open interval (low, high)."""
    def read_within(value, key):
        value = read(value, key)
        if not low < value < high:
            raise ScenarioError(f"{key} must lie in ({low}, {high}), got {value}")
        return value
    return read_within


def _half_integer(read):
    """`read`, then refuse a value that is not a nonnegative half-integer (NaN and infinity included)."""
    def read_half_integer(value, key):
        value = read(value, key)
        try:
            _as_half_integer(value, key)
        except ValueError as exc:
            raise ScenarioError(str(exc)) from None
        return value
    return read_half_integer


def _shells(value, key) -> dict:
    """An object of lists of numbers, each list sorted."""
    entries = _json_object(value, key).items()
    return {str(k): sorted(_list_of(_number)(v, f"{key}[{k!r}]")) for k, v in entries}


def _potential(kind):
    """A coefficient list read as a `kind` PotentialSpec, which refuses and names bad `coefficients`."""
    return lambda value, key: PotentialSpec(kind, value)


def _tolerance(name):
    """A payload field that carries tolerance `name`; explicit tolerances outrank it."""
    return lambda value, key: check_tolerance(name, _number(value, name), "dynamics payload")


def _tolerances(value, key) -> dict:
    """Tolerance overrides {name: value}, from a scenario file or the command line's --tol."""
    for name, tol in _json_object(value, key).items():
        if name not in DEFAULT_TOLERANCES:
            raise ScenarioError(f"{key}[{name!r}]: unknown tolerance (known: {', '.join(sorted(DEFAULT_TOLERANCES))})")
        check_tolerance(name, _number(tol, f"{key}[{name!r}]"), key)
    return dict(value)


def load_scenario(path) -> Scenario:
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario {path}: {exc}") from None
    except ValueError as exc:  # invalid JSON, or an integer literal past Python's digit limit
        raise ScenarioError(f"{path}: cannot parse JSON: {exc}") from None
    return scenario_from_dict(raw, where=str(path))


def scenario_from_dict(raw, where="scenario") -> Scenario:
    """The scenario `raw` holds; its payload is read against its kind's schema when it runs."""
    return Scenario(**_read(_SCENARIO, raw, where))


def _tol(scenario: Scenario, suite_overrides: dict | None, name: str, payload_value=None) -> float:
    """Scenario tolerances, then suite overrides, then `payload_value`, then the default."""
    for source in (scenario.tolerances, suite_overrides or {}):
        if name in source:
            return float(source[name])
    return DEFAULT_TOLERANCES[name] if payload_value is None else payload_value


def _rep_config(f: dict) -> RepConfig:
    """The particle that validated fields (a payload, or its particleA or particleB) describe."""
    units = GlobalUnits(hbar=f["hbar"], omega_ref=f["omega_ref"])
    spin = f["spin"] if "spin" in f else 0.0
    return RepConfig(mass=f["mass"], dims=f["dims"], levels=f["levels"], spin=spin, units=units)


class _Fields(dict):
    """A payload's validated fields that record in `read` every key a runner looks up."""

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


# ---------------------------------------------------------------------------
# kind runners: runner(fields, tol) with the payload's validated fields and
# tol(name) the tolerance in force
# ---------------------------------------------------------------------------

def _run_algebra(p, tol) -> list:
    spec = p["name"] if p["descriptor"] is None else p["descriptor"]
    if spec is None:
        raise ScenarioError("algebra payload needs 'name' or 'descriptor'")
    alg = build_algebra(spec)
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
    for sub in p["subalgebras"]:
        names, expect_closed = sub["generators"], sub["expect_closed"]
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


def _run_uea(p, tol) -> list:
    name = p["algebra"]
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


def _run_single_rep(p, tol) -> list:
    config = _rep_config(p)
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

    alg_name = ("hr3" if config.dims == 3 else "h3") if p["algebra"] is None else p["algebra"]
    tol_h = tol("homomorphism")
    hom = verify_homomorphism(rep, alg_name, margin=p["margin"], tol=tol_h)
    if not hom.checks:  # a check over no pair would pass
        raise ScenarioError(f"algebra {alg_name!r} realizes no bracket at dims {config.dims} "
                            f"({len(hom.skipped)} pairs skipped)")
    worst = float(np.max([c.metrics["defect_norm"] for c in hom.checks], initial=0.0))
    checks.append(
        CheckResult(
            name=f"homomorphism:{alg_name}",
            anchor="ccr-homomorphism",
            passed=hom.passed,
            metrics={"pairs": len(hom.checks), "worst_defect": worst, "tol": tol_h,
                     "failing": [c.name for c in hom.failures()],
                     "skipped": len(hom.skipped), "skipped_pairs": hom.skipped},
        )
    )

    if p["raw_defect"]:
        tol_raw = tol("raw_defect")
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

    if p["zeta"] is not None:
        if p["zeta_margin"] >= config.levels:
            raise ScenarioError(f"zeta_margin must lie in (0, {config.levels}), got {p['zeta_margin']}")
        zrep = build_zeta_rep(p["zeta"], rep)
        idx = rep.interior_indices(p["zeta_margin"])
        tol_z = tol("zeta_ccr")
        worst_z = zrep.defect(idx)
        checks.append(
            CheckResult(
                name=f"zeta_rep:{zrep.zeta}",
                anchor="central-charge-family",
                passed=worst_z <= tol_z,
                metrics={"zeta": zrep.zeta, "defect_norm": worst_z, "tol": tol_z},
            )
        )

    if p["t_tensor"]:
        tol_t = tol("t_tensor")
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


def _particle_pair(p):
    """The two particle configs of a composite payload and their product representation."""
    cfg_a, cfg_b = _rep_config(p["particleA"]), _rep_config(p["particleB"])
    return cfg_a, cfg_b, tensor_rep(build_particle_rep(cfg_a), build_particle_rep(cfg_b))


def _run_composite(p, tol) -> list:
    cfg_a, cfg_b, comp = _particle_pair(p)
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

    if p["ccr"]:
        tol_c = tol("ccr_coefficient")
        anchors = {
            "x_com:p": "com-position-coefficient",
            "x_naive:p": "naive-position-sum-noncanonical",
            "r:q": "relative-pair-canonical",
            "r:p": "com-relative-decoupling",
            "q:x_com": "com-relative-decoupling",
        }
        for rec in verify_ccr_composite(comp, margin=p["margin"], tol=tol_c):
            checks.append(
                CheckResult(
                    name=f"ccr:{rec.pair}",
                    anchor=anchors[rec.pair],
                    passed=rec.passed,
                    metrics=asdict(rec),
                )
            )

    if p["reducibility"]:
        try:
            value = casimir_spin_value(comp, margin=p["margin"])
            passed, metrics = False, {"unexpected_scalar": value.value}
        except NonScalarCasimirError as exc:
            passed, metrics = True, {"fitted": exc.fitted, "deviation_norm": exc.deviation}
        checks.append(
            CheckResult(
                name="composite_not_irreducible",
                anchor="composite-reducibility",
                passed=passed,
                metrics=metrics,
            )
        )
    return checks


def _run_spectrum(p, tol) -> list:
    checks = []
    tol_match = tol("spectrum_match")

    n_max = p["n_max"]
    if n_max is not None:
        spectrum = relative_spin_spectrum(n_max, s_a=p["spin_a"], s_b=p["spin_b"], rtol=tol_match)
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
        want = p["expect_shells"]
        if want:
            got = {str(n): ells for n, ells in spectrum.ell_multisets()}
            match = all(got.get(k) == want[k] for k in want)
            checks.append(
                CheckResult(
                    name=f"shell_content:n{n_max}",
                    anchor="relative-orbital-shells",
                    passed=match,
                    metrics={"expected": want, "got": got, "tol": tol_match},
                )
            )

    if p["spins"] is not None:
        tol_spin = tol("spin_casimir")
        reps = {s: spin_matrices(s) for s in p["spins"]}
        worst = float(max(np.max(np.abs(r.casimir() - s * (s + 1) * np.eye(r.dim))) for s, r in reps.items()))
        checks.append(
            CheckResult(
                name="spin_casimir_scalar",
                anchor="spin-casimir-scalar",
                passed=worst <= tol_spin,
                metrics={"spins": p["spins"], "worst_deviation": worst, "tol": tol_spin},
            )
        )

    top = p["addition_max"]
    if top is not None:
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


def _packet(rep, alpha) -> np.ndarray:
    """A particle's coherent packet `alpha` on every axis, in the first state of its spin block."""
    packet = ladder.coherent_state(rep.config.levels, alpha)
    state = np.zeros(rep.dim, dtype=complex)
    state[::rep.spin_rep.dim] = functools.reduce(np.kron, [packet] * rep.dims)
    return state


def _initial_state(p, rep) -> np.ndarray:
    """Explicit coefficient vector ([re, im] pairs) or a coherent packet on every axis."""
    if p["psi0"] is not None:
        state = np.array(p["psi0"], dtype=complex)
        if len(state) != rep.dim:
            raise ScenarioError(f"psi0 has {len(state)} entries, the space has {rep.dim}")
        nrm = np.linalg.norm(state)
        if nrm == 0:
            raise ScenarioError("psi0 must be nonzero")
        return state / nrm
    return _packet(rep, p["alpha"])


def _single_flow(p) -> tuple:
    """A single-particle flow: system, potential, physical Hamiltonian, initial state, time grid."""
    rep = build_particle_rep(_rep_config(p))
    pot = PotentialSpec(**p["potential"])
    h = hamiltonian_physical(rep, pot)
    return rep, pot, h, _initial_state(p, rep), np.linspace(0.0, p["t_max"], p["steps"] + 1)


def _dyn_flow_compare(p, tol) -> list:
    calV = p["calV"]
    rep, pot, h_phys, psi0, times = _single_flow(p)
    expect = p["expect"] or ("scalar_phase" if pot.is_trivial else "diverge")
    if expect == "diverge":
        by_time = times[-1] if p["by_time"] is None else p["by_time"]
        # a window past the grid (NaN included) holds no grid point, so it is refused, not failed
        if not by_time <= p["t_max"]:
            raise ScenarioError(f"by_time must be at most t_max ({p['t_max']}), got {by_time}")
    hbar = rep.units.hbar
    cmp = compare_flows(hamiltonian_galilei(rep, calV), h_phys, psi0, times, hbar=hbar)
    checks = []
    if expect == "scalar_phase":
        tol_f = tol("fidelity")
        tol_p = tol("phase")
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
        below = p["fidelity_below"]
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


def _dyn_conservation(p, tol) -> list:
    rep, _, h, psi0, times = _single_flow(p)
    hbar = rep.units.hbar
    flow = evolve_state(
        h, psi0, times, hbar=hbar, boundary_weight=rep.boundary_weight,
        leakage_threshold=tol("leakage"),
    )
    tol_u = tol("unitarity")
    tol_e = tol("energy")
    norm_dev = float(np.max(np.abs(flow.norm_trace - 1.0)))
    energy_dev = float(np.max(np.abs(flow.energy_trace - flow.energy_trace[0])))

    # the rank-one probe A = |u><u|: <psi(t)|A|psi(t)> = |<u|psi(t)>|^2 in the Schrodinger
    # picture, and <psi0|U(t)^H A U(t)|psi0> = |<u(-t)|psi0>|^2 in the Heisenberg picture,
    # with u(-t) = U(-t) u from one backward flow, so U(-t) = U(t)^H is what it checks
    rng = np.random.default_rng(20230517)
    u = rng.normal(size=rep.dim) + 1j * rng.normal(size=rep.dim)
    u /= np.linalg.norm(u)
    u_back = evolve_state(h, u, [-float(times[-1])], hbar=hbar).states[-1]
    lhs = float(abs(np.vdot(u, flow.states[-1])) ** 2)
    rhs = float(abs(np.vdot(u_back, psi0)) ** 2)
    tol_pic = tol("picture")
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


def _dyn_extra_casimir(p, tol) -> list:
    rep = build_particle_rep(_rep_config(p))
    calV, margin = p["calV"], p["margin"]
    tol_x = tol("extra_casimir")
    report = extra_casimir_check(rep, calV, margin=margin, tol=tol_x)
    checks = [
        CheckResult(
            name="extra_casimir_scalar",
            anchor="extra-casimir-scalar-value",
            passed=report.passed,
            metrics={c.name: c.metrics for c in report.checks},
        )
    ]
    if p["substitute_potential"] is not None:
        h_phys = hamiltonian_physical(rep, p["substitute_potential"])
        rep2 = extra_casimir_check(rep, calV, margin=margin, tol=tol_x, hamiltonian=h_phys)
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


def _dyn_com_decoupling(p, tol) -> list:
    _, _, comp = _particle_pair(p)
    h = hamiltonian_physical(comp, p["coefficients"])
    psi0 = np.kron(_packet(comp.rep_a, p["alpha_a"]), _packet(comp.rep_b, p["alpha_b"]))
    times = np.linspace(0.0, p["t_max"], p["steps"] + 1)
    ehr = ehrenfest_check(comp, h, psi0, times, leakage_threshold=tol("leakage"))
    tol_p = tol("com_momentum")
    drift = float(np.max(np.abs(ehr.p_traces - ehr.p_traces[:, :1])))
    tol_x = tol("com_ehrenfest")
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


def _dyn_relative_conservation(p, tol) -> list:
    units = GlobalUnits(hbar=p["hbar"], omega_ref=p["omega_ref"])
    sys = relative_mode_system(p["n_max"], p["mu"], units, s_a=p["spin_a"], s_b=p["spin_b"])
    h = hamiltonian_physical(sys, p["coefficients"])

    comm_norm = float(np.max([
        ladder.spectral_norm(h @ sys.S[pair] - sys.S[pair] @ h) for pair in J_PAIRS
    ]))
    tol_rot = tol("spin_conservation")

    ladder_ops = sys.relative_ladder()
    state = sys.ground_state()
    state = (ladder_ops[0].conj().T + 1j * ladder_ops[1].conj().T) @ state
    extra = ladder_ops[2].conj().T @ (ladder_ops[2].conj().T @ sys.ground_state())
    state = state / np.linalg.norm(state) + 0.5 * extra / np.linalg.norm(extra)
    state = state / np.linalg.norm(state)
    flow = evolve_state(
        h, state, np.linspace(0.0, p["t_max"], p["steps"] + 1), hbar=units.hbar,
        observables={"spin_casimir": sys.spin_casimir},
        boundary_weight=sys.boundary_weight,
        leakage_threshold=1.0,  # the top shell participates by construction
    )
    trace = flow.observable_traces["spin_casimir"]
    drift = float(np.max(np.abs(trace - trace[0])))
    tol_u = tol("unitarity")
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


def _dyn_ehrenfest(p, tol) -> list:
    tol_e = tol("ehrenfest", p["tol"])
    rep, _, h, psi0, times = _single_flow(p)
    result = ehrenfest_check(rep, h, psi0, times, leakage_threshold=tol("leakage"))
    return [
        CheckResult(
            name="ehrenfest_velocity",
            anchor="unitary-flow-conservation",
            passed=result.reliable and result.max_residual <= tol_e,
            metrics={"residual": result.max_residual, "tol": tol_e, "reliable": result.reliable},
        )
    ]


# ---------------------------------------------------------------------------
# the payload format: one (runner, schema) per kind, and per dynamics check
# ---------------------------------------------------------------------------

_UNITS = {"hbar": (_number, 1.0), "omega_ref": (_number, 1.0)}
_SPIN = _half_integer(_number)
_PARTICLE = {"mass": (_number, _REQUIRED), "dims": (_integer, 1), "levels": (_integer, 8),
             "spin": (_SPIN, 0.0), **_UNITS}
_PAIR = {"particleA": (functools.partial(_read, _PARTICLE), _REQUIRED),
         "particleB": (functools.partial(_read, _PARTICLE), _REQUIRED)}
_GRID = {"t_max": (_within(_number, 0), 1.0), "steps": (_within(_integer, 0), 20)}
_CHECK = {"check": (_string, _REQUIRED)}
_SYSTEM = {**_CHECK, "mass": (_number, 1.0), "dims": (_integer, 1), "levels": (_integer, 32), **_UNITS}
_POTENTIAL = {"kind": (_string, "none"), "coefficients": (_list_of(_number), [])}
_FLOW = {**_SYSTEM, **_GRID, "potential": (functools.partial(_read, _POTENTIAL), {}),
         "psi0": (_list_of(_pair), None)}
_SUBALGEBRA = {"generators": (_list_of(_string, nonempty=True), _REQUIRED), "expect_closed": (_flag, True)}
_TERM = {"c": (_string, _REQUIRED), "num": (_integer, _REQUIRED), "den": (_within(_integer, 0), 1)}
_BRACKET = {"a": (_string, _REQUIRED), "b": (_string, _REQUIRED),
            "terms": (_list_of(functools.partial(_read, _TERM)), _REQUIRED)}
_DESCRIPTOR = {"name": (_string, _REQUIRED), "generators": (_list_of(_string, nonempty=True), _REQUIRED),
               "brackets": (_list_of(functools.partial(_read, _BRACKET)), _REQUIRED)}

KINDS = {
    "algebra": (_run_algebra, {
        "name": (_one_of(*CATALOG_IDS), None), "descriptor": (functools.partial(_read, _DESCRIPTOR), None),
        "subalgebras": (_list_of(functools.partial(_read, _SUBALGEBRA)), [])}),
    "uea": (_run_uea, {"algebra": (_one_of("hr3", "g3tilde"), _REQUIRED)}),
    "single_rep": (_run_single_rep, {
        **_PARTICLE, "algebra": (_one_of(*CATALOG_IDS), None), "margin": (_integer, None),
        "raw_defect": (_flag, False), "zeta": (_number, None),
        "zeta_margin": (_within(_integer, 0), 1), "t_tensor": (_flag, False)}),
    "composite": (_run_composite, {
        **_PAIR, "margin": (_integer, 1), "ccr": (_flag, True), "reducibility": (_flag, False)}),
    "spectrum": (_run_spectrum, {
        "n_max": (_integer, None), "spin_a": (_SPIN, 0), "spin_b": (_SPIN, 0),
        "expect_shells": (_shells, None), "spins": (_list_of(_half_integer(_as_written), nonempty=True), None),
        "addition_max": (_number, None)}),
    "dynamics": {
        "flow_compare": (_dyn_flow_compare, {
            **_FLOW, "alpha": (_pair, [0.6, 0.5]), "calV": (_number, 0.0),
            "expect": (_one_of("scalar_phase", "diverge"), None),
            "fidelity_below": (_within(_number, 0, 1), 0.99), "by_time": (_number, None)}),
        "conservation": (_dyn_conservation, {**_FLOW, "alpha": (_pair, [0.5, 0.0])}),
        "extra_casimir": (_dyn_extra_casimir, {
            **_SYSTEM, "calV": (_number, 0.0), "margin": (_integer, 1),
            "substitute_potential": (_potential("poly_x"), None)}),
        "com_decoupling": (_dyn_com_decoupling, {
            **_CHECK, **_PAIR, **_GRID, "coefficients": (_potential("poly_r2"), [0.0, 0.1]),
            "alpha_a": (_pair, [0.4, 0.2]), "alpha_b": (_pair, [-0.3, 0.1])}),
        "relative_conservation": (_dyn_relative_conservation, {
            **_CHECK, **_UNITS, **_GRID,
            "n_max": (_within(_integer, 1), 6),  # its initial state holds two quanta
            "mu": (_within(_number, 0), 0.5), "spin_a": (_SPIN, 0), "spin_b": (_SPIN, 0),
            "coefficients": (_potential("poly_r2"), [0.0, 0.5, 0.05])}),
        "ehrenfest": (_dyn_ehrenfest, {
            **_FLOW, "alpha": (_pair, [0.5, 0.3]), "tol": (_tolerance("ehrenfest"), None)}),
    },
}
_SCENARIO = {"kind": (_one_of(*KINDS), _REQUIRED), "payload": (_json_object, {}),
             "tolerances": (_tolerances, {})}


def run_scenario(scenario: Scenario, suite_tolerances: dict | None = None) -> RunReport:
    """Read the payload against its schema, execute the checks it maps to and assemble a report.

    Numeric violations become failed check records; configuration problems
    (an unknown key, bad payload values, unknown generators, invalid margins,
    a payload that selects no check, a given key the runner never looked up)
    surface as ScenarioError so the command line can map them to exit code 2.
    """
    start = time.perf_counter()
    try:
        entry = KINDS[scenario.kind]
        if scenario.kind == "dynamics":
            entry = entry[_one_of(*entry)(scenario.payload.get("check"), "dynamics check")]
        runner, schema = entry
        where = f"{scenario.kind} payload"
        fields = _Fields(_read(schema, scenario.payload, where))
        fields.read = {"check"}  # the dispatcher read the dynamics check
        checks = runner(fields, functools.partial(_tol, scenario, suite_tolerances))
        if not checks:
            raise ScenarioError(f"{where} runs no check (keys: {', '.join(sorted(schema))})")
        unread = sorted(set(scenario.payload) - fields.read)
        if unread:
            raise ScenarioError(f"{where}: the chosen mode does not read {', '.join(unread)}")
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
        return json.dumps(self.to_json(), indent=2, sort_keys=True, allow_nan=False)


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
