"""Property tests: any payload value or tolerance gives a report or a ScenarioError, and a
key outside its kind's schema is refused naming it."""

import functools
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hrsym.scenarios import DEFAULT_TOLERANCES, KINDS, ScenarioError, _read, run_scenario, scenario_from_dict

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

# one small passing payload per kind or dynamics check; the fields replaced are
# every key of its schema and of the object schemas nested in it
BASES = {
    "algebra": {"name": "so3", "subalgebras": [{"generators": ["J12", "J13", "J23"]}]},
    "uea": {"algebra": "hr3"},
    "single_rep": {"mass": 1.0, "dims": 1, "levels": 4, "algebra": "h3", "margin": 1,
                   "raw_defect": True, "zeta": 2.0},
    "composite": {"particleA": {"mass": 1.0, "dims": 1, "levels": 4},
                  "particleB": {"mass": 2.0, "dims": 1, "levels": 4}, "margin": 1},
    "spectrum": {"n_max": 2, "spins": [0, 0.5], "addition_max": 1.0},
    "flow_compare": {"check": "flow_compare", "levels": 6, "calV": 1.0, "t_max": 0.5, "steps": 4},
    "conservation": {"check": "conservation", "levels": 8, "t_max": 0.5, "steps": 4,
                     "potential": {"kind": "poly_x", "coefficients": [0.0, 0.0, 0.5]}},
    "extra_casimir": {"check": "extra_casimir", "levels": 6, "calV": 1.0, "substitute_potential": [0.0, 0.5]},
    "com_decoupling": {"check": "com_decoupling", "particleA": {"mass": 1.0, "levels": 12},
                       "particleB": {"mass": 2.0, "levels": 12}, "coefficients": [0.0, 0.05],
                       "alpha_a": [0.1, 0.0], "alpha_b": [0.0, 0.1], "t_max": 0.2, "steps": 4},
    "ehrenfest": {"check": "ehrenfest", "levels": 8, "t_max": 0.5, "steps": 4, "tol": 1e-2,
                  "potential": {"kind": "poly_x", "coefficients": [0.0, 0.0, 0.5]}},
    "relative_conservation": {"check": "relative_conservation", "n_max": 2, "t_max": 0.5, "steps": 4},
}


def _kind(base: str) -> str:
    return "dynamics" if base in KINDS["dynamics"] else base


def _schema(base: str) -> dict:
    return (KINDS["dynamics"] if base in KINDS["dynamics"] else KINDS)[base][1]


def _fields(schema: dict, prefix="") -> list:
    """Every key of `schema`, and as "outer.key" every key of an object schema nested in it."""
    out = []
    for key, (read, _) in schema.items():
        out.append(prefix + key)
        if isinstance(read, functools.partial) and read.func is _read:
            out.extend(_fields(read.args[0], f"{prefix}{key}."))
    return out


def _scenario(base: str, field: str, value, tol_name: str, tol_value) -> dict:
    payload = {k: dict(v) if isinstance(v, dict) else v for k, v in BASES[base].items()}
    target = payload
    if "." in field:
        outer, field = field.split(".")
        target = payload.setdefault(outer, {})
    target[field] = value
    return {"kind": _kind(base), "payload": payload, "tolerances": {tol_name: tol_value}}


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
    field = draw(st.sampled_from(_fields(_schema(base))))
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


@settings(derandomize=True, max_examples=60, deadline=None)
@given(base=st.sampled_from(sorted(BASES)), key=st.text(min_size=1, max_size=8))
def test_a_key_outside_the_schema_is_refused_naming_it(base, key):
    assume(key not in _schema(base))
    raw = {"kind": _kind(base), "payload": {**BASES[base], key: 1.0}}
    with pytest.raises(ScenarioError) as err:
        run_scenario(scenario_from_dict(raw))
    assert "\n" not in str(err.value) and f"unknown key {key!r}" in str(err.value)


@pytest.mark.parametrize("base", sorted(BASES))
def test_every_base_scenario_passes(base):
    assert run_scenario(scenario_from_dict({"kind": _kind(base), "payload": BASES[base]})).passed
