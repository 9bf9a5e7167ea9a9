"""Seeded scenario lists for the benchmark workloads.

A workload is a tuple of `Item`s: a scenario dict in the form
`hrsym.scenarios.scenario_from_dict` accepts, a label, and the names of the
checks that must fail (empty: every check must pass).  `paper` is the shipped
`paper-full` suite and ignores the seed.  The generated workloads keep their
sizes fixed, so every seed does the same amount of work; the seed draws the
masses, units, couplings, initial states, spin orientations, generator order
and rational basis scalings.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

WORKLOADS = ("paper", "operators", "flows", "exact")
PAPER_SUITE = "paper-full"


@dataclass(frozen=True)
class Item:
    label: str
    scenario: dict
    expect_fail: frozenset = frozenset()


def build(workload: str, seed: int) -> tuple:
    """The workload's items; the same (workload, seed) always gives the same list."""
    if workload == "paper":
        return _paper()
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r} (one of {', '.join(WORKLOADS)})")
    rng = random.Random(f"hrsym-bench:{workload}:{seed}")
    return tuple(_GENERATORS[workload](rng))


def _paper() -> tuple:
    from hrsym.scenarios import SUITES

    items = []
    for i, raw in enumerate(SUITES[PAPER_SUITE]()):
        check = raw["payload"].get("check")
        label = f"{i:02d}_{raw['kind']}" + (f":{check}" if raw["kind"] == "dynamics" else "")
        items.append(Item(label, raw))
    return tuple(items)


def _u(rng, lo, hi, digits=3) -> float:
    return round(rng.uniform(lo, hi), digits)


def _sign(rng) -> int:
    return rng.choice((-1, 1))


# ---------------------------------------------------------------------------
# operators: representation build, commutator-and-projection, norms
# ---------------------------------------------------------------------------

# spin pairs with (2 s_a + 1)(2 s_b + 1) = 6, so every draw has the same dimension
_SPIN_PAIRS_6 = ((0.5, 1.0), (1.0, 0.5), (0.0, 2.5), (2.5, 0.0))


def expected_shells(n_max: int, s_a, s_b) -> dict:
    """Distinct total-spin labels per shell: orbital l = n, n-2, ... coupled to s_a, then s_b."""
    fa, fb = Fraction(s_a), Fraction(s_b)
    out = {}
    for n in range(n_max + 1):
        found = set()
        for ell in range(n % 2, n + 1, 2):
            j1 = abs(ell - fa)
            while j1 <= ell + fa:
                j = abs(j1 - fb)
                while j <= j1 + fb:
                    found.add(j)
                    j += 1
                j1 += 1
        out[str(n)] = [float(j) for j in sorted(found)]
    return out


def _operators(rng):
    omega = _u(rng, 0.5, 2.0)
    margin = rng.choice((2, None))
    rep6 = {"mass": _u(rng, 0.5, 3.0), "dims": 3, "levels": 6, "omega_ref": omega,
            "algebra": "hr3", "raw_defect": True, "t_tensor": True,
            "zeta": _sign(rng) * _u(rng, 0.5, 4.0)}
    if margin is not None:
        rep6["margin"] = margin
    yield Item("single_rep:d3n6", {"kind": "single_rep", "payload": rep6})
    yield Item("single_rep:d3n5:spin", {"kind": "single_rep", "payload": {
        "mass": _u(rng, 0.5, 3.0), "dims": 3, "levels": 5, "spin": 0.5, "omega_ref": omega,
        "algebra": "hr3", "margin": 2, "raw_defect": True, "t_tensor": True}})

    def pair(dims, levels):
        return {"particleA": {"mass": _u(rng, 0.5, 3.0), "dims": dims, "levels": levels,
                              "omega_ref": omega},
                "particleB": {"mass": _u(rng, 0.5, 3.0), "dims": dims, "levels": levels,
                              "omega_ref": omega}}

    yield Item("composite:d1n22", {"kind": "composite",
                                   "payload": {**pair(1, 22), "margin": rng.choice((1, 2))}})
    yield Item("composite:d2n4", {"kind": "composite", "payload": {**pair(2, 4), "margin": 1}})
    yield Item("composite:d3n3:reducible", {"kind": "composite", "payload": {
        **pair(3, 3), "margin": 1, "ccr": False, "reducibility": True}})

    s_a, s_b = rng.choice(_SPIN_PAIRS_6)
    yield Item("spectrum:n6", {"kind": "spectrum", "payload": {
        "n_max": 6, "spin_a": s_a, "spin_b": s_b, "expect_shells": expected_shells(6, s_a, s_b)}})
    spins = sorted(rng.sample([k / 2 for k in range(7)], 4))
    yield Item("spectrum:spins", {"kind": "spectrum", "payload": {
        "spins": spins, "addition_max": rng.choice((1.5, 2.0))}})


# ---------------------------------------------------------------------------
# flows: Hamiltonians, propagation, observables
# ---------------------------------------------------------------------------

def _alpha(rng, re, im, spread=0.1):
    return [_u(rng, re - spread, re + spread), _u(rng, im - spread, im + spread)]


def _harmonic(rng):
    return {"kind": "poly_x", "coefficients": [0.0, 0.0, _u(rng, 0.3, 0.7)]}


def _flows(rng):
    # first, so the cold `hrsym verify` of cli_cold_s stays near one second
    yield Item("dynamics:relative_conservation:n10", {"kind": "dynamics", "payload": {
        "check": "relative_conservation", "n_max": 10, "mu": _u(rng, 0.4, 0.9),
        "coefficients": [0.0, _u(rng, 0.2, 0.8), _u(rng, 0.01, 0.08)],
        "t_max": 3.0, "steps": 30}})
    yield Item("dynamics:com_decoupling:n28", {"kind": "dynamics", "payload": {
        "check": "com_decoupling",
        "particleA": {"mass": _u(rng, 0.8, 1.2), "dims": 1, "levels": 28},
        "particleB": {"mass": _u(rng, 1.6, 2.4), "dims": 1, "levels": 28},
        "coefficients": [0.0, _u(rng, 0.03, 0.07)],
        "alpha_a": _alpha(rng, 0.3, 0.2), "alpha_b": _alpha(rng, -0.2, 0.1),
        "t_max": 1.0, "steps": 40}})
    yield Item("dynamics:flow_compare:free:n128", {"kind": "dynamics", "payload": {
        "check": "flow_compare", "levels": 128, "mass": _u(rng, 0.8, 1.5),
        "calV": _sign(rng) * _u(rng, 1.0, 6.0), "t_max": 2.0, "steps": 200,
        "alpha": _alpha(rng, 0.6, 0.5), "expect": "scalar_phase"}})
    yield Item("dynamics:flow_compare:trap:n256", {"kind": "dynamics", "payload": {
        "check": "flow_compare", "levels": 256, "mass": _u(rng, 0.8, 1.5), "calV": 0.0,
        "potential": _harmonic(rng), "t_max": 2.0, "steps": 200,
        "alpha": _alpha(rng, 0.6, 0.5), "expect": "diverge",
        "fidelity_below": 0.99, "by_time": 2.0}})
    yield Item("dynamics:conservation:n256", {"kind": "dynamics", "payload": {
        "check": "conservation", "levels": 256, "mass": _u(rng, 0.8, 1.5),
        "potential": {"kind": "poly_x",
                      "coefficients": [_u(rng, -1.0, 1.0), 0.0, _u(rng, 0.3, 0.7)]},
        "t_max": 6.0, "steps": 60, "alpha": _alpha(rng, 0.5, 0.0)}})
    yield Item("dynamics:ehrenfest:n32", {"kind": "dynamics", "payload": {
        "check": "ehrenfest", "levels": 32, "mass": _u(rng, 0.8, 1.5),
        "potential": _harmonic(rng), "t_max": 6.283185307179586, "steps": 800,
        "alpha": _alpha(rng, 0.45, 0.15), "tol": 1e-4}})
    s_a, s_b = rng.choice(((0.5, 0.0), (0.0, 0.5)))
    yield Item("dynamics:relative_conservation:n6:spin", {"kind": "dynamics", "payload": {
        "check": "relative_conservation", "n_max": 6, "mu": _u(rng, 0.4, 0.9),
        "spin_a": s_a, "spin_b": s_b,
        "coefficients": [0.0, _u(rng, 0.2, 0.8), _u(rng, 0.01, 0.08)],
        "t_max": 3.0, "steps": 30}})


# ---------------------------------------------------------------------------
# exact: Jacobi sweeps, subalgebra closure, enveloping-algebra centrality
# ---------------------------------------------------------------------------

EXACT_DIMS = (3, 4, 5, 6, 7)


def galilei_table(d: int) -> tuple:
    """Generators and integer brackets of the d-dimensional J/K/P/M/H algebra.

    Same conventions as the catalog `g3tilde`: [J_ij, J_hk] from the tensor
    rule, [J_ij, V_k] = d_ik V_j - d_jk V_i, [K_i, P_i] = M, [K_i, H] = P_i.
    """
    pairs = [(i, j) for i in range(1, d + 1) for j in range(i + 1, d + 1)]
    names = ([f"J{i}{j}" for i, j in pairs] + [f"K{i}" for i in range(1, d + 1)]
             + [f"P{i}" for i in range(1, d + 1)] + ["M", "H"])
    table: dict = {}

    def add(a, b, c, f):
        terms = table.setdefault((a, b), {})
        terms[c] = terms.get(c, 0) + f

    for (i, j), (h, k) in combinations(pairs, 2):
        raw = []
        if j == k:
            raw.append((1, i, h))
        if i == h:
            raw.append((1, j, k))
        if i == k:
            raw.append((-1, j, h))
        if j == h:
            raw.append((-1, i, k))
        for sign, a, b in raw:
            if a != b:
                add(f"J{i}{j}", f"J{h}{k}", f"J{min(a, b)}{max(a, b)}", sign if a < b else -sign)
    for i, j in pairs:
        for k in range(1, d + 1):
            for v in "KP":
                if i == k:
                    add(f"J{i}{j}", f"{v}{k}", f"{v}{j}", 1)
                if j == k:
                    add(f"J{i}{j}", f"{v}{k}", f"{v}{i}", -1)
    for i in range(1, d + 1):
        add(f"K{i}", f"P{i}", "M", 1)
        add(f"K{i}", "H", f"P{i}", 1)
    table = {key: {c: f for c, f in terms.items() if f} for key, terms in table.items()}
    return names, {key: terms for key, terms in table.items() if terms}


def galilei_descriptor(d: int, rng, name: str) -> dict:
    """The d-dimensional algebra in a seeded basis G'_a = s_a G_a, generators shuffled.

    Rescaling is an isomorphism, so Jacobi still holds; the constants become
    f'^c_ab = f^c_ab s_a s_b / s_c, exact fractions with small denominators.
    """
    names, table = galilei_table(d)
    scale = {n: _sign(rng) * Fraction(rng.randint(1, 5), rng.randint(1, 5)) for n in names}
    brackets = []
    for (a, b), terms in table.items():
        entry = []
        for c, f in terms.items():
            g = f * scale[a] * scale[b] / scale[c]
            entry.append({"c": c, "num": g.numerator, "den": g.denominator})
        brackets.append({"a": a, "b": b, "terms": entry})
    names = list(names)
    rng.shuffle(names)
    return {"name": name, "generators": names, "brackets": brackets}


def flip_one_constant(desc: dict, rng) -> dict:
    """Copy of `desc` with one seeded structure constant negated."""
    brackets = [{**b, "terms": [dict(t) for t in b["terms"]]} for b in desc["brackets"]]
    entry = rng.choice(brackets)
    term = rng.choice(entry["terms"])
    term["num"] = -term["num"]
    return {**desc, "name": desc["name"] + "_flip", "brackets": brackets}


def _subalgebras(d: int, rng) -> list:
    axes = range(1, d + 1)
    rot = rng.randint(2, d)
    return [
        {"generators": [f"K{i}" for i in axes] + [f"P{i}" for i in axes] + ["M"],
         "expect_closed": True},
        {"generators": [f"J{i}{j}" for i in range(1, rot + 1) for j in range(i + 1, rot + 1)],
         "expect_closed": True},
        {"generators": [f"P{i}" for i in axes] + ["M", "H"], "expect_closed": True},
        {"generators": [f"K{i}" for i in axes] + ["H"], "expect_closed": False},
    ]


def _exact(rng):
    for d in EXACT_DIMS:
        desc = galilei_descriptor(d, rng, f"galilei{d}")
        yield Item(f"algebra:galilei{d}", {"kind": "algebra", "payload": {
            "descriptor": desc, "subalgebras": _subalgebras(d, rng)}})
        flipped = flip_one_constant(desc, rng)
        yield Item(f"algebra:galilei{d}_flip", {"kind": "algebra",
                                                "payload": {"descriptor": flipped}},
                   frozenset({f"jacobi:{flipped['name']}"}))
    for name in ("hr3", "g3tilde"):
        yield Item(f"uea:{name}", {"kind": "uea", "payload": {"algebra": name}})


_GENERATORS = {"operators": _operators, "flows": _flows, "exact": _exact}


# ---------------------------------------------------------------------------
# size ladder: fixed points for per-layer scaling, traced runs only
# ---------------------------------------------------------------------------

def _ladder_dim(scenario: dict) -> int:
    p = scenario["payload"]
    if scenario["kind"] == "single_rep":
        return p["levels"] ** p["dims"] * int(2 * p.get("spin", 0) + 1)
    if scenario["kind"] == "composite":
        return (p["particleA"]["levels"] ** p["particleA"]["dims"]) ** 2
    spin_dim = int(2 * p.get("spin_a", 0) + 1) * int(2 * p.get("spin_b", 0) + 1)
    n = p["n_max"]
    return (n + 1) * (n + 2) * (n + 3) // 6 * spin_dim


def ladder(workload: str) -> tuple:
    """(label, scenario, operator dimension) points of the workload's size ladder."""
    points = []
    if workload == "operators":
        for n in (5, 6, 7):
            points.append((f"single_rep:d3n{n}", {"kind": "single_rep", "payload": {
                "mass": 1.0, "dims": 3, "levels": n, "algebra": "hr3", "margin": 2,
                "raw_defect": True}}))
        for n in (4, 5):
            points.append((f"composite:d2n{n}", {"kind": "composite", "payload": {
                "particleA": {"mass": 1.0, "dims": 2, "levels": n},
                "particleB": {"mass": 2.0, "dims": 2, "levels": n}, "margin": 1}}))
        for n in (4, 6, 8):
            points.append((f"spectrum:n{n}", {"kind": "spectrum", "payload": {
                "n_max": n, "spin_a": 0.5, "spin_b": 1.0}}))
    elif workload == "flows":
        for n in (6, 10, 12):
            points.append((f"relative_conservation:n{n}", {"kind": "dynamics", "payload": {
                "check": "relative_conservation", "n_max": n, "mu": 0.6666666666666666,
                "coefficients": [0.0, 0.5, 0.05], "t_max": 3.0, "steps": 30}}))
    return tuple((label, sc, _ladder_dim(sc)) for label, sc in points)
