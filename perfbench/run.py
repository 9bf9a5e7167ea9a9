"""Run one benchmark workload in this process and print its metrics.

    python3 perfbench/run.py --workload <paper|operators|flows|exact> \
        --seed <n> --seconds <s> --trace <0|1>

Run it from anywhere inside a checkout; it imports `hrsym` from the
checkout's `src/` and nothing else.  The workload is a closed loop with one
client: an iteration is one pass over the workload's scenarios through
`run_scenario` (or `run_suite` for `paper`) with every report rendered to
JSON, and the next iteration starts when the previous one ends.  Every
iteration, the untimed warm-up included, goes through the correctness gate.

`--trace 0` reports the end-to-end metrics; `--trace 1` alternates plain and
traced iterations, runs the workload's size ladder, writes every span to
`.perfbench/trace-<workload>-<seed>.json` and reports the per-layer metrics.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
sys.path[:0] = [str(SRC), str(ROOT)]

from perfbench import gate, tracing, workloads  # noqa: E402

NPROC = len(os.sched_getaffinity(0))
SETUP_SAMPLES = 5
# a cold paper-full process takes ~3 s, the single-scenario ones ~1 s
CLI_SAMPLES = {"paper": 3}
CLI_SAMPLES_DEFAULT = 5
CHILD_TIMEOUT_S = 60
_CLI_KIND = {"single_rep": "rep"}


class BenchError(Exception):
    """The program under test is missing or cannot be set up (exit code 2)."""


def import_hrsym():
    try:
        import hrsym
    except ImportError as exc:
        raise BenchError(f"cannot import hrsym from {SRC}: {exc}") from None
    if Path(hrsym.__file__).resolve().parent.parent != SRC.resolve():
        raise BenchError(f"hrsym was imported from {hrsym.__file__}, not from {SRC}")
    return hrsym


def setup(workload: str, seed: int):
    """Import hrsym, generate the workload's items and validate them as scenarios."""
    import_hrsym()
    from hrsym.scenarios import ScenarioError, scenario_from_dict

    try:
        items = workloads.build(workload, seed)
        scenarios = [scenario_from_dict(it.scenario, where=it.label) for it in items]
    except (ScenarioError, ValueError) as exc:
        raise BenchError(f"workload {workload} does not validate: {exc}") from None
    listing = gate.load_listing() if workload == "paper" else None
    return items, scenarios, listing


def _render(report, tracer=None) -> str:
    if tracer is None:
        return report.render()
    with tracer.span("report.render"):
        return report.render()


def run_iteration(workload: str, items, scenarios, tracer=None) -> list:
    """One pass over the workload; returns (label, RunReport or exception) pairs."""
    scen = sys.modules["hrsym.scenarios"]  # looked up per call, so traced wrappers apply
    if workload == "paper":
        try:
            suite = scen.run_suite(workloads.PAPER_SUITE)
            _render(suite, tracer)
        except Exception as exc:  # the loop must go on and count the deviation
            traceback.print_exc(file=sys.stderr)
            return [(it.label, exc) for it in items]
        return list(suite.reports)
    outcomes = []
    for it, sc in zip(items, scenarios):
        try:
            report = scen.run_scenario(sc)
            _render(report, tracer)
        except Exception as exc:  # the loop must go on and count the deviation
            traceback.print_exc(file=sys.stderr)
            report = exc
        outcomes.append((it.label, report))
    return outcomes


class Tally:
    """Scenarios attempted and deviations found, over every gated iteration."""

    def __init__(self, items, listing):
        self.items, self.listing = items, listing
        self.attempted = 0
        self.deviations: list = []

    def gate(self, outcomes) -> int:
        self.attempted += len(self.items)
        found = gate.check(self.items, outcomes, self.listing)
        self.deviations.extend(found)
        return sum(len(r.checks) for _, r in outcomes if not isinstance(r, BaseException))


def tail(times) -> tuple:
    """(value, percentile) of the highest percentile with at least ten iterations beyond it.

    With fewer than 21 iterations no such percentile lies above the median;
    the upper median is reported then.
    """
    xs = sorted(times)
    n = len(xs)
    k = max(n - 10, n // 2 + 1)
    return xs[k - 1], math.floor(100 * k / n)


def _child_env() -> dict:
    return {**os.environ, "PYTHONPATH": str(SRC)}


def setup_sample(workload: str, seed: int) -> float:
    """Wall time from spawning a fresh process to its workload being ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--probe-setup"]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0 or line.strip() != "ready":
        raise BenchError(f"setup probe failed ({proc.returncode}): {err.strip()}")
    return elapsed


def cli_command(workload: str, seed: int, items) -> list:
    """`hrsym suite paper-full` on `paper`, else `hrsym verify` of the first scenario."""
    if workload == "paper":
        args = ["suite", workloads.PAPER_SUITE]
    else:
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"cli-{workload}-{seed}.json"
        path.write_text(json.dumps(items[0].scenario))
        kind = items[0].scenario["kind"]
        args = ["verify", _CLI_KIND.get(kind, kind), str(path)]
    return [sys.executable, "-m", "hrsym", *args]


def cli_sample(cmd: list) -> tuple:
    """(wall time, failure or None) of one fresh CLI process.

    A run fails unless it exits 0 and reports status "pass".
    """
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    elapsed = time.perf_counter() - t0
    try:
        status = json.loads(proc.stdout)["status"]
    except (ValueError, KeyError):
        status = None
    if proc.returncode != 0 or status != "pass":
        return elapsed, ("cli", f"exit {proc.returncode}, status {status}: "
                                f"{proc.stderr.strip()[-300:]}")
    return elapsed, None


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas_version = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "HRSYM_THREADS": os.environ["HRSYM_THREADS"],
        "nproc": NPROC,
        "mem_total_mb": round(os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**20),
        "machine": platform.machine(),
        "commit": _commit(),
    }


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def _metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def run_plain(args, items, scenarios, tally) -> dict:
    cmd = cli_command(args.workload, args.seed, items)
    n_cli = CLI_SAMPLES.get(args.workload, CLI_SAMPLES_DEFAULT)
    # Cold processes run one at a time between iterations, spread over the
    # run, so a burst of load from elsewhere on the machine hits few of them.
    probes = [kind for pair in itertools.zip_longest(["setup"] * SETUP_SAMPLES, ["cli"] * n_cli)
              for kind in pair if kind]
    setups, cli_times = [], []

    def probe(kind):
        if kind == "setup":
            setups.append(setup_sample(args.workload, args.seed))
            return
        elapsed, failure = cli_sample(cmd)
        cli_times.append(elapsed)
        tally.attempted += 1
        if failure:
            tally.deviations.append(failure)

    tally.gate(run_iteration(args.workload, items, scenarios))  # warm-up, untimed
    times, checks = [], 0
    while not times or sum(times) < args.seconds:
        t0 = time.perf_counter()
        outcomes = run_iteration(args.workload, items, scenarios)
        times.append(time.perf_counter() - t0)
        checks += tally.gate(outcomes)
        if probes:
            probe(probes.pop(0))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for kind in probes:
        probe(kind)
    tail_value, tail_pct = tail(times)
    p50 = statistics.median(times)
    metrics = {
        "setup_s": _metric(statistics.median(setups), "s"),
        "iter_s_p50": _metric(p50, "s"),
        "iter_s_tail": _metric(tail_value, "s"),
        "checks_per_s": _metric(checks / len(times) / p50, "1/s"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
        "cli_cold_s": _metric(statistics.median(cli_times), "s"),
    }
    detail = {"iteration_s": times, "setup_s": setups, "cli_cold_s": cli_times,
              "iter_s_tail": {"percentile": tail_pct, "iterations": len(times)},
              "checks_per_iteration": checks / len(times)}
    print(f"iterations {len(times)}; iter_s_tail is p{tail_pct} of {len(times)} iterations")
    return {"metrics": metrics, "detail": detail}


def run_traced(args, items, scenarios, tally) -> dict:
    tally.gate(run_iteration(args.workload, items, scenarios))  # warm-up, untimed
    tracer = tracing.Tracer()
    plain, traced, per_iteration, regions = [], [], [], {}
    start = time.perf_counter()
    k = 0
    while not traced or time.perf_counter() - start < args.seconds:
        t0 = time.perf_counter()
        tally.gate(run_iteration(args.workload, items, scenarios))
        plain.append(time.perf_counter() - t0)

        first = len(tracer.spans)
        tracer.iteration = k
        with tracing.installed(tracer):
            with tracer.span("iteration") as frame:
                outcomes = run_iteration(args.workload, items, scenarios, tracer)
        traced.append((frame["end"] - frame["start"]) / 1e9)
        tally.gate(outcomes)
        spans = tracer.spans[first:]
        per_iteration.append(tracing.iteration_metrics(frame, spans))
        for region, ns in tracing.unattributed(frame, spans)[1].items():
            regions[region] = regions.get(region, 0.0) + ns / 1e9
        k += 1

    from hrsym.scenarios import scenario_from_dict

    ladder = []
    for label, raw, dim in workloads.ladder(args.workload):
        sc = scenario_from_dict(raw, where=label)
        first = len(tracer.spans)
        tracer.iteration = f"ladder:{label}"
        with tracing.installed(tracer):
            with tracer.span("iteration") as frame:
                (_, report), = run_iteration(args.workload, [workloads.Item(label, raw)], [sc],
                                             tracer)
        values = tracing.iteration_metrics(frame, tracer.spans[first:])
        ladder.append({
            "label": label, "dim": dim, "wall_s": (frame["end"] - frame["start"]) / 1e9,
            "passed": getattr(report, "passed", False),
            "layers_s": {m: v for m, v in values.items() if m.endswith("_s") and v},
        })
        print(f"ladder {label} dim {dim}: {ladder[-1]['wall_s']:.3f} s")

    layer = tracing.median_metrics(per_iteration)
    layer["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    units = {m["name"]: m["unit"] for m in _benchmark_spec()["per_layer"]}
    metrics = {name: _metric(layer[name], unit) for name, unit in units.items()}

    total = sum(regions.values())
    largest = max(regions.items(), key=lambda kv: kv[1]) if regions else ("none", 0.0)
    if layer["trace.unattributed_ratio"] > 0.1:
        print(f"unattributed {layer['trace.unattributed_ratio']:.1%} of an iteration; "
              f"largest region: {largest[0]} ({largest[1] / max(total, 1e-12):.0%} of it)")
    OUT_DIR.mkdir(exist_ok=True)
    trace_path = OUT_DIR / f"trace-{args.workload}-{args.seed}.json"
    trace_path.write_text(json.dumps({
        "environment": environment(),
        "workload": args.workload, "seed": args.seed,
        "plain_iteration_s": plain, "traced_iteration_s": traced,
        "per_iteration": per_iteration,
        "unattributed_regions_s": regions,
        "self_time_s": tracing.self_times([s for s in tracer.spans
                                           if not str(s["iteration"]).startswith("ladder:")]),
        "ladder": ladder,
        "spans": tracer.spans,
    }))
    print(f"spans written to {trace_path.relative_to(ROOT)} ({len(tracer.spans)} spans)")
    return {"metrics": metrics, "detail": {"plain_iteration_s": plain,
                                           "traced_iteration_s": traced,
                                           "unattributed_regions_s": regions,
                                           "ladder": ladder}}


def _benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def pin_threads() -> None:
    """Fix BLAS and scenario threads before numpy loads; child processes inherit both."""
    os.environ["OPENBLAS_NUM_THREADS"] = str(min(NPROC, 2))
    os.environ["HRSYM_THREADS"] = "1"


def main(argv=None) -> int:
    pin_threads()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help="set up the workload, print 'ready' and exit (times setup_s)")
    args = parser.parse_args(argv)

    try:
        items, scenarios, listing = setup(args.workload, args.seed)
        if args.probe_setup:
            print("ready", flush=True)
            return 0
        env = environment()
        print("environment " + json.dumps(env, sort_keys=True))
        tally = Tally(items, listing)
        run = (run_traced if args.trace else run_plain)(args, items, scenarios, tally)
        declared = {m["name"] for m in _benchmark_spec()["per_layer" if args.trace else "end_to_end"]}
        if set(run["metrics"]) != declared:
            raise BenchError(f"metrics {sorted(run['metrics'])} differ from BENCHMARK.json {sorted(declared)}")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    fail_ratio = len(tally.deviations) / tally.attempted
    print(f"fail_ratio {fail_ratio:.6g} ({len(tally.deviations)} deviations "
          f"/ {tally.attempted} attempted)")
    for label, reason in tally.deviations[:20]:
        print(f"DEVIATION {label}: {reason}")
    for name, m in run["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"environment": env, "workload": args.workload, "seed": args.seed,
                    "fail_ratio": fail_ratio, "deviations": tally.deviations,
                    "metrics": run["metrics"], "detail": run["detail"]}, indent=1))
    print(json.dumps({"correct": not tally.deviations, "attempted": tally.attempted,
                      "failed": len(tally.deviations), "metrics": run["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
