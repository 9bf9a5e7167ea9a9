"""Property test: any payload value or tolerance gives a report or a ScenarioError."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hrsym.scenarios import DEFAULT_TOLERANCES, ScenarioError, run_scenario, scenario_from_dict

# payload scalars a hand-written file could plausibly carry
SCALARS = st.one_of(
    st.sampled_from([0, 1, 2, 3, -1, 0.0, -0.5, 1e-300, float("nan"), float("inf"),
                     float("-inf"), "abc", "nan", "1", True, None, [1.0]]),
    st.floats(-4.0, 4.0),
)
TOLERANCES = st.one_of(
    st.sampled_from([0.0, 1e-12, 1.0, -1.0, float("nan"), float("inf"), "1e-9", None]),
    st.floats(-1.0, 1.0),
)

# small base scenarios; the fields listed with each are the ones replaced
BASES = {
    "single_rep": (
        {"mass": 1.0, "dims": 1, "levels": 4, "algebra": "h3", "margin": 1,
         "raw_defect": True, "zeta": 2.0},
        ("mass", "hbar", "omega_ref", "dims", "levels", "margin", "zeta", "zeta_margin", "spin"),
    ),
    "composite": (
        {"particleA": {"mass": 1.0, "dims": 1, "levels": 4},
         "particleB": {"mass": 2.0, "dims": 1, "levels": 4}, "margin": 1},
        ("margin", "particleA.mass", "particleA.hbar", "particleB.omega_ref", "particleB.levels"),
    ),
    "flow_compare": (
        {"check": "flow_compare", "levels": 6, "calV": 1.0, "t_max": 0.5, "steps": 4},
        ("mass", "hbar", "omega_ref", "calV", "t_max", "steps", "levels", "dims"),
    ),
    "conservation": (
        {"check": "conservation", "levels": 8, "t_max": 0.5, "steps": 4,
         "potential": {"kind": "poly_x", "coefficients": [0.0, 0.0, 0.5]}},
        ("mass", "hbar", "omega_ref", "t_max", "steps", "levels", "dims"),
    ),
    "extra_casimir": (
        {"check": "extra_casimir", "levels": 6, "calV": 1.0, "substitute_potential": [0.0, 0.5]},
        ("mass", "hbar", "calV", "margin", "levels"),
    ),
    "ehrenfest": (
        {"check": "ehrenfest", "levels": 8, "t_max": 0.5, "steps": 4, "tol": 1e-2,
         "potential": {"kind": "poly_x", "coefficients": [0.0, 0.0, 0.5]}},
        ("mass", "omega_ref", "t_max", "steps", "tol"),
    ),
    "relative_conservation": (
        {"check": "relative_conservation", "n_max": 2, "t_max": 0.5, "steps": 4},
        ("n_max", "mu", "hbar", "omega_ref", "t_max", "steps"),
    ),
}


def _scenario(base: str, field: str, value, tol_name: str, tol_value) -> dict:
    payload, _ = BASES[base]
    payload = {k: dict(v) if isinstance(v, dict) else v for k, v in payload.items()}
    target = payload
    if "." in field:
        outer, field = field.split(".")
        target = payload[outer]
    target[field] = value
    kind = base if base in ("single_rep", "composite") else "dynamics"
    return {"kind": kind, "payload": payload, "tolerances": {tol_name: tol_value}}


def _numbers(value):
    """Every float inside a (nested) metrics value."""
    if isinstance(value, dict):
        for v in value.values():
            yield from _numbers(v)
    elif isinstance(value, (list, tuple)):
        for v in value:
            yield from _numbers(v)
    elif isinstance(value, float):
        yield value


@st.composite
def scenarios(draw):
    base = draw(st.sampled_from(sorted(BASES)))
    field = draw(st.sampled_from(BASES[base][1]))
    return _scenario(base, field, draw(SCALARS), draw(st.sampled_from(sorted(DEFAULT_TOLERANCES))),
                     draw(TOLERANCES))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(raw=scenarios())
def test_any_value_gives_a_report_or_a_scenario_error(raw):
    try:
        report = run_scenario(scenario_from_dict(raw))
    except ScenarioError as exc:
        assert "\n" not in str(exc)
    else:
        assert report.checks
        for check in report.checks:
            finite = all(math.isfinite(x) for x in _numbers(check.metrics))
            assert finite or not check.passed, check.name


@pytest.mark.parametrize("base", sorted(BASES))
def test_every_base_scenario_passes(base):
    payload, _ = BASES[base]
    kind = base if base in ("single_rep", "composite") else "dynamics"
    assert run_scenario(scenario_from_dict({"kind": kind, "payload": payload})).passed
