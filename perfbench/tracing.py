"""Outside-in spans around hrsym's public functions, and the per-layer arithmetic.

`installed` wraps each traced function at every `hrsym` module attribute bound
to it, which is where each caller looks it up: the `from .x import f`
bindings in `hrsym.scenarios`, `dynamics`' own calls to `evolve_state`, and
`ladder.embed`/`ladder.spectral_norm` reached through the module object.
`scipy.linalg.expm` and `scipy.sparse.linalg.expm_multiply` are wrapped only
as `hrsym.dynamics` reaches them, through a proxy for its `scipy` global.
Nothing under `src/` changes.

Spans stay in memory (name, start, end, parent, iteration id, attributes)
and are written out by the caller when the run ends.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from contextlib import contextmanager

# Spans that frame work rather than belong to a layer: they name regions but
# do not count as attributed time.
FRAMES = ("iteration", "scenarios.run_suite", "scenarios.run_scenario")


def _nbytes_held(comp) -> int:
    arrays = [*comp.K, *comp.P, *comp.X, *comp.R, *comp.Q, comp.M, *comp.J.values()]
    return sum(a.nbytes for a in arrays)


def _scenario_attrs(args, kwargs, result) -> dict:
    sc = args[0]
    check = sc.payload.get("check")
    return {"kind": sc.kind + (f":{check}" if check else "")}


# (module, function, span name, attrs(args, kwargs, result) or None)
TARGETS = (
    ("hrsym.algebra", "build_algebra", "algebra.build_algebra", None),
    ("hrsym.algebra", "check_jacobi", "algebra.check_jacobi",
     lambda a, k, r: {"triples": r["jacobi"].metrics["triples_checked"]}),
    ("hrsym.algebra", "subalgebra_check", "algebra.subalgebra_check", None),
    ("hrsym.enveloping", "casimir_candidates", "enveloping.casimir_candidates", None),
    ("hrsym.enveloping", "check_central", "enveloping.check_central",
     lambda a, k, r: {"checks": len(r.checks)}),
    ("hrsym.enveloping", "commutator_uea", "enveloping.commutator_uea", None),
    ("hrsym.ladder", "embed", "ladder.embed", None),
    ("hrsym.ladder", "spectral_norm", "ladder.spectral_norm",
     lambda a, k, r: {"elems": int(a[0].size)}),
    ("hrsym.particle", "build_particle_rep", "particle.build_particle_rep", None),
    ("hrsym.particle", "build_zeta_rep", "particle.build_zeta_rep", None),
    ("hrsym.particle", "verify_homomorphism", "particle.verify_homomorphism",
     lambda a, k, r: {"pairs": len(r.checks)}),
    ("hrsym.composite", "tensor_rep", "composite.tensor_rep",
     lambda a, k, r: {"bytes": _nbytes_held(r)}),
    ("hrsym.composite", "verify_ccr_composite", "composite.verify_ccr_composite", None),
    ("hrsym.spin", "t_tensor", "spin.t_tensor", None),
    ("hrsym.spin", "casimir_spin_value", "spin.casimir_spin_value", None),
    ("hrsym.spin", "relative_spin_spectrum", "spin.relative_spin_spectrum", None),
    ("hrsym.spin", "relative_mode_system", "spin.relative_mode_system", None),
    ("hrsym.dynamics", "hamiltonian_physical", "dynamics.hamiltonian_physical", None),
    ("hrsym.dynamics", "hamiltonian_galilei", "dynamics.hamiltonian_galilei", None),
    ("hrsym.dynamics", "evolve_state", "dynamics.evolve_state",
     lambda a, k, r: {"grid_points": len(r.times)}),
    ("hrsym.dynamics", "evolve_observable", "dynamics.evolve_observable", None),
    ("hrsym.dynamics", "compare_flows", "dynamics.compare_flows", None),
    ("hrsym.dynamics", "ehrenfest_check", "dynamics.ehrenfest_check", None),
    ("hrsym.dynamics", "extra_casimir_check", "dynamics.extra_casimir_check", None),
    ("hrsym.scenarios", "run_suite", "scenarios.run_suite", None),
    ("hrsym.scenarios", "run_scenario", "scenarios.run_scenario", _scenario_attrs),
)


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self):
        self.spans: list = []
        self.iteration = None
        self._stack: list = []

    def open(self, name: str) -> dict:
        span = {"id": len(self.spans), "name": name, "start": time.perf_counter_ns(),
                "end": None, "parent": self._stack[-1]["id"] if self._stack else None,
                "iteration": self.iteration, "attrs": {}}
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter_ns()
        top = self._stack.pop()
        if top is not span:
            raise RuntimeError(f"span {span['name']} closed out of order (open: {top['name']})")

    @contextmanager
    def span(self, name: str):
        s = self.open(name)
        try:
            yield s
        finally:
            self.close(s)

    def wrap(self, fn, name: str, attrs=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            s = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(s)
            if attrs is not None:
                s["attrs"].update(attrs(args, kwargs, result))
            return result

        return traced


class _Proxy:
    """Attribute-forwarding stand-in for a module, with some attributes replaced."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


@contextmanager
def installed(tracer: Tracer):
    """Wrap every target at each hrsym binding for the duration of the block."""
    import scipy.linalg
    import scipy.sparse.linalg

    patched = []

    def patch(module, attr, value):
        patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "hrsym" or n.startswith("hrsym."))]
    try:
        for mod_name, fn_name, span_name, attrs in TARGETS:
            original = getattr(sys.modules[mod_name], fn_name)
            wrapper = tracer.wrap(original, span_name, attrs)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        patch(module, attr, wrapper)
        dynamics = sys.modules["hrsym.dynamics"]
        patch(dynamics, "scipy", _Proxy(
            scipy,
            linalg=_Proxy(scipy.linalg,
                          expm=tracer.wrap(scipy.linalg.expm, "dynamics.expm")),
            sparse=_Proxy(scipy.sparse, linalg=_Proxy(
                scipy.sparse.linalg,
                expm_multiply=tracer.wrap(scipy.sparse.linalg.expm_multiply,
                                          "dynamics.expm_multiply"))),
        ))
        yield tracer
    finally:
        for module, attr, value in reversed(patched):
            setattr(module, attr, value)


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

def union_ns(intervals, lo=None, hi=None) -> int:
    """Length of the union of [start, end) intervals, clipped to [lo, hi]."""
    total, cur_s, cur_e = 0, None, None
    for s, e in sorted(intervals):
        if lo is not None:
            s = max(s, lo)
        if hi is not None:
            e = min(e, hi)
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def children_of(spans) -> dict:
    out: dict = {}
    for s in spans:
        if s["parent"] is not None:
            out.setdefault(s["parent"], []).append(s)
    return out


def self_ns(span, children: dict) -> int:
    """Span duration minus the part of it its child spans cover."""
    kids = [(c["start"], c["end"]) for c in children.get(span["id"], ())]
    return span["end"] - span["start"] - union_ns(kids, span["start"], span["end"])


def outermost(spans, names) -> list:
    """Spans named in `names` that have no ancestor also named in `names`."""
    by_id = {s["id"]: s for s in spans}
    out = []
    for s in spans:
        if s["name"] not in names:
            continue
        p = s["parent"]
        while p is not None and by_id[p]["name"] not in names:
            p = by_id[p]["parent"]
        if p is None:
            out.append(s)
    return out


def unattributed(iteration_span, spans) -> tuple:
    """(uncovered ns, {region: uncovered ns}) of one iteration.

    Uncovered time is time inside the iteration that no layer span covers.
    It is split by the innermost enclosing frame: the scenario kind of a
    `run_scenario` span, else the frame's own name.
    """
    lo, hi = iteration_span["start"], iteration_span["end"]
    layers = [(s["start"], s["end"]) for s in spans if s["name"] not in FRAMES]
    total = (hi - lo) - union_ns(layers, lo, hi)
    regions: dict = {}
    frames = [s for s in spans if s["name"] in FRAMES and s is not iteration_span]
    inside = 0
    for f in frames:
        # frames nest (suite > scenario), so charge a frame only what its child frames do not cover
        kids = [(c["start"], c["end"]) for c in frames if c["parent"] == f["id"]]
        own = (f["end"] - f["start"]) - union_ns(kids, f["start"], f["end"])
        covered = union_ns(layers + kids, f["start"], f["end"]) - union_ns(kids, f["start"], f["end"])
        gap = own - covered
        key = f["attrs"].get("kind", f["name"])
        regions[key] = regions.get(key, 0) + gap
        inside += gap
    regions["benchmark loop"] = regions.get("benchmark loop", 0) + total - inside
    return total, regions


def iteration_metrics(iteration_span, spans) -> dict:
    """Per-layer values of one traced iteration (seconds, counts, MB)."""
    children = children_of(spans)

    def named(*names):
        return [s for s in spans if s["name"] in names]

    def incl_s(*names):
        return sum(s["end"] - s["start"] for s in outermost(spans, set(names))) / 1e9

    def attr_sum(name, key):
        return sum(s["attrs"].get(key, 0) for s in named(name))

    uncovered, _ = unattributed(iteration_span, spans)
    wall = iteration_span["end"] - iteration_span["start"]
    return {
        "algebra.jacobi_s": incl_s("algebra.check_jacobi"),
        "algebra.jacobi_triples": attr_sum("algebra.check_jacobi", "triples"),
        "algebra.subalgebra_s": incl_s("algebra.subalgebra_check"),
        "enveloping.central_s": incl_s("enveloping.check_central"),
        "enveloping.central_checks": attr_sum("enveloping.check_central", "checks"),
        "ladder.embed_calls": len(named("ladder.embed")),
        "ladder.embed_s": incl_s("ladder.embed"),
        "particle.build_s": incl_s("particle.build_particle_rep", "particle.build_zeta_rep"),
        "composite.build_s": incl_s("composite.tensor_rep"),
        "composite.operator_mb": attr_sum("composite.tensor_rep", "bytes") / 1e6,
        "ladder.norm_calls": len(named("ladder.spectral_norm")),
        "ladder.norm_s": incl_s("ladder.spectral_norm"),
        "ladder.norm_elems": attr_sum("ladder.spectral_norm", "elems"),
        "particle.homomorphism_s": incl_s("particle.verify_homomorphism"),
        "particle.homomorphism_pairs": attr_sum("particle.verify_homomorphism", "pairs"),
        "composite.ccr_s": incl_s("composite.verify_ccr_composite"),
        "spin.casimir_s": incl_s("spin.casimir_spin_value", "spin.t_tensor"),
        "spin.spectrum_s": incl_s("spin.relative_spin_spectrum"),
        "dynamics.hamiltonian_s": incl_s("dynamics.hamiltonian_physical",
                                         "dynamics.hamiltonian_galilei"),
        "dynamics.evolve_calls": len(named("dynamics.evolve_state")),
        "dynamics.evolve_s": sum(self_ns(s, children)
                                 for s in named("dynamics.evolve_state")) / 1e9,
        "dynamics.grid_points": attr_sum("dynamics.evolve_state", "grid_points"),
        "dynamics.expm_calls": len(named("dynamics.expm")),
        "dynamics.expm_s": incl_s("dynamics.expm"),
        "dynamics.expm_multiply_calls": len(named("dynamics.expm_multiply")),
        "dynamics.observable_s": incl_s("dynamics.evolve_observable"),
        "spin.relmode_build_s": incl_s("spin.relative_mode_system"),
        "scenarios.overhead_s": uncovered / 1e9,
        "report.render_s": incl_s("report.render"),
        "trace.unattributed_ratio": uncovered / wall,
    }


def self_times(spans) -> dict:
    """Total self time in seconds per span name, frames included."""
    children = children_of(spans)
    out: dict = {}
    for s in spans:
        out[s["name"]] = out.get(s["name"], 0.0) + self_ns(s, children) / 1e9
    return dict(sorted(out.items(), key=lambda kv: -kv[1]))


def median_metrics(per_iteration: list) -> dict:
    return {k: statistics.median(m[k] for m in per_iteration) for k in per_iteration[0]}
