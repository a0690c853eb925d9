"""ctd benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload suite --seed 0 --seconds 40 --trace 0

Run from the root of a source checkout; ctd is imported from ``src/``.
The run measures set-up time in fresh child processes, then imports ctd
itself, generates the inputs from the seed and runs passes over them until
the next pass would end after ``--seconds``. With ``--trace 0`` it reports
the end-to-end metrics with tracing off; with ``--trace 1`` it alternates
untraced and traced passes and reports the per-layer metrics.

Every pass's spikes/potentials/states files are digested and checked against
``golden.json`` (where the generated inputs match) and against the run's
first pass. The last line of standard output is the result as one JSON
object; the lines above it are a readable report.

``--write-golden`` runs one pass of every workload at the default seed and
rewrites ``golden.json``; use it only for a change meant to alter outputs.
"""

from __future__ import annotations

import os

# One process, no helper threads: set before numpy can be imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import importlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from bench_trace import LAYERS, Tracer, write_spans
from bench_workloads import (DEFAULT_SEED, WORKLOADS, PassResult, inputs_sha256,
                             make_workload)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden.json"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 60

# Known values the counters must reproduce (see check_counters).
CANONICAL = {("build", "neurons"): 22, ("build", "synapses"): 44,
             ("simulate", "neuron_steps"): 110_000, ("simulate", "spikes"): 280}
SUITE_ARRIVAL_CELLS = 78_640

END_TO_END = {"setup_s": "s", "wall_s": "s", "realtime_factor": "x",
              "peak_rss_mb": "MB"}


class CheckoutError(Exception):
    pass


# --------------------------------------------------------------------------
# Loading the program
# --------------------------------------------------------------------------

def check_checkout() -> None:
    if not (ROOT / "src" / "ctd" / "__init__.py").is_file():
        raise CheckoutError(f"no ctd sources under {ROOT / 'src'}")
    if not any((ROOT / "scenarios").glob("*.json")):
        raise CheckoutError(f"no scenario files under {ROOT / 'scenarios'}")


def import_ctd():
    """Import ctd from this checkout's src/, never from anywhere else."""
    check_checkout()
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    modules = {name: importlib.import_module(name)
               for name in ("ctd", "ctd.cli", "ctd.harness", "ctd.scenario")}
    if Path(modules["ctd"].__file__).resolve().parent != (src / "ctd").resolve():
        raise CheckoutError(f"ctd imported from {modules['ctd'].__file__}")
    return modules["ctd"], modules


def measure_setup(workload: str, seed: int) -> list[float]:
    """Wall time of fresh processes that import ctd and prepare every input.

    The first process also fills the bytecode cache and is not counted.
    """
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
            "--workload", workload, "--seed", str(seed)]
    samples = []
    for _ in range(SETUP_SAMPLES + 1):
        t0 = time.perf_counter()
        done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=SETUP_TIMEOUT_S)
        samples.append(time.perf_counter() - t0)
        if done.returncode != 0:
            raise RuntimeError("set-up process failed: "
                               + done.stderr.decode(errors="replace")[-800:])
    return samples[1:]


# --------------------------------------------------------------------------
# Provenance
# --------------------------------------------------------------------------

def git_revision() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
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
    return None


def provenance(ctd, workload: str, seed: int, inputs_hash: str) -> dict:
    import numpy
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ctd").glob("*.py")):
        source.update(path.name.encode() + b"\n" + path.read_bytes())
    threads = None
    status = Path("/proc/self/status")
    if status.is_file():
        for line in status.read_text().splitlines():
            if line.startswith("Threads:"):
                threads = int(line.split()[1])
    return {"workload": workload, "seed": seed, "inputs_sha256": inputs_hash,
            "host": platform.node(), "nproc": os.cpu_count(),
            "threads": threads, "python": platform.python_version(),
            "numpy": numpy.__version__, "ctd": ctd.__version__,
            "git_revision": git_revision(),
            "source_sha256": source.hexdigest(),
            "note": f"timings come from a shared {os.cpu_count()}-core machine with "
                    "nothing pinned; other tenants may slow it down"}


# --------------------------------------------------------------------------
# Metrics
# --------------------------------------------------------------------------

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    own = tracer.self_times_ns()
    ms = dict.fromkeys((*LAYERS, "pass", "op"), 0.0)
    for span in tracer.spans:
        if span["name"] in ms:
            ms[span["name"]] += own[span["id"]] / 1e6
    c = tracer.counts
    sim, sense, emit, corr = c["simulate"], c["sense"], c["emit"], c["correlate"]
    return {
        "simulate.ms": ms["simulate"],
        "simulate.calls": sim["calls"],
        "simulate.neuron_steps": sim["neuron_steps"],
        "simulate.spikes": sim["spikes"],
        "simulate.deliveries": sim["deliveries"],
        "simulate.arrival_cells": sim["arrival_cells"],
        "simulate.coincident_cells": sim["coincident_cells"],
        "simulate.ns_per_neuron_step": _ratio(ms["simulate"] * 1e6, sim["neuron_steps"]),
        "simulate.active_cell_ratio": _ratio(sim["arrival_cells"], sim["neuron_steps"]),
        "emit.ms": ms["emit"],
        "emit.bytes": emit["bytes"],
        "emit.mb_per_s": _ratio(emit["bytes"] / 1e6, ms["emit"] / 1e3),
        "sense.ms": ms["sense"],
        "sense.sensor_steps": sense["sensor_steps"],
        "sense.spikes": sense["spikes"],
        "sense.ns_per_sensor_step": _ratio(ms["sense"] * 1e6, sense["sensor_steps"]),
        "classify.ms": ms["classify"],
        "classify.windows": c["classify"]["windows"],
        "correlate.ms": ms["correlate"],
        "correlate.calls": corr["calls"],
        "correlate.agree_ratio": _ratio(corr["agree_windows"], corr["compared_windows"]),
        "check.ms": ms["check"],
        "check.calls": c["check"]["calls"],
        "build.ms": ms["build"],
        "build.neurons": c["build"]["neurons"],
        "build.synapses": c["build"]["synapses"],
        "parse.ms": ms["parse"],
        "parse.calls": c["parse"]["calls"],
        # Self time of the timed regions: program time outside every layer.
        "unattributed.ms": ms["pass"] + ms["op"],
    }


PER_LAYER_UNITS = {"ms": "ms", "calls": "count", "neuron_steps": "count",
                   "spikes": "count", "deliveries": "count",
                   "arrival_cells": "count", "coincident_cells": "count",
                   "ns_per_neuron_step": "ns", "active_cell_ratio": "ratio",
                   "bytes": "B", "mb_per_s": "MB/s", "sensor_steps": "count",
                   "ns_per_sensor_step": "ns", "windows": "count",
                   "agree_ratio": "ratio", "neurons": "count",
                   "synapses": "count", "trace_overhead_ratio": "ratio"}


def unit_of(name: str) -> str:
    return PER_LAYER_UNITS[name.rsplit(".", 1)[-1]]


def check_counters(workload: str, metrics: dict[str, float]) -> list[str]:
    problems = []
    if workload == "suite":
        if metrics["simulate.arrival_cells"] != SUITE_ARRIVAL_CELLS:
            problems.append(f"suite arrival cells {metrics['simulate.arrival_cells']}"
                            f" != {SUITE_ARRIVAL_CELLS}")
        if metrics["simulate.coincident_cells"] != 0:
            problems.append("suite has coincident cells")
    if workload == "sweep" and metrics["simulate.coincident_cells"] <= 0:
        problems.append("sweep has no coincident cells")
    return problems


def canonical_self_check(ctd, modules) -> list[str]:
    """Counters of the canonical approach with ddm against known values."""
    tracer = Tracer()
    tracer.install(modules)
    try:
        ctd.harness.run_scenario(ctd.suite.canonical_scenario("approach", "ddm"))
    finally:
        tracer.uninstall()
    return [f"canonical {layer}.{key} = {tracer.counts[layer][key]}, expected {want}"
            for (layer, key), want in CANONICAL.items()
            if tracer.counts[layer][key] != want]


# --------------------------------------------------------------------------
# Correctness of the outputs
# --------------------------------------------------------------------------

def load_golden(workload: str, inputs_hash: str, seed: int):
    """Golden digests for these inputs, or None; an error at the default seed."""
    entry = (json.loads(GOLDEN.read_text()).get(workload)
             if GOLDEN.is_file() else None)
    if entry is not None and entry["inputs_sha256"] == inputs_hash:
        return entry["ops"], []
    if seed == DEFAULT_SEED:
        return None, [f"no golden digests for the {workload} inputs at the default seed"]
    return None, []


def count_failures(names: list[str], passes: list[PassResult],
                   golden) -> tuple[int, list[str]]:
    """Failed op-runs: errors, golden mismatches, or outputs that differ
    from the run's first pass."""
    reference = passes[0].digests
    failed, reasons = 0, []
    for index, result in enumerate(passes):
        for name in names:
            reason = result.errors.get(name)
            digests = result.digests.get(name)
            if reason is None and digests is None:
                reason = "no outputs"
            elif reason is None and golden is not None and digests != golden.get(name):
                reason = "digest differs from golden"
            elif reason is None and digests != reference.get(name):
                reason = "digest differs from the first pass"
            if reason is not None:
                failed += 1
                reasons.append(f"pass {index} {name}: {reason}")
    return failed, reasons


# --------------------------------------------------------------------------
# Runs
# --------------------------------------------------------------------------

def run_passes(workload, ctd, modules, ops, out: Path, seconds: float,
               traced: bool):
    """Passes until the next one would end after `seconds`; at least one.

    With tracing the passes come in untraced/traced pairs.
    """
    passes, tracers = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(workload.run_pass(ctd, ops, out / f"pass{len(passes)}", None))
        if traced:
            tracer = Tracer()
            tracer.install(modules)
            try:
                passes.append(workload.run_pass(ctd, ops, out / f"pass{len(passes)}",
                                                tracer))
            finally:
                tracer.uninstall()
            tracers.append(tracer)
        step = time.perf_counter() - t0
        if time.perf_counter() - start + step > seconds:
            return passes, tracers


def median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


def traced_metrics(workload: str, passes, tracers) -> tuple[dict, list[str]]:
    per_pass = [layer_metrics(t) for t in tracers]
    problems = []
    counts = [{k: v for k, v in m.items() if unit_of(k) in ("count", "B")}
              for m in per_pass]
    if any(c != counts[0] for c in counts):
        problems.append("counters differ between traced passes")
    metrics = median_metrics(per_pass)
    metrics["trace_overhead_ratio"] = (
        statistics.median(p.wall_s for p in passes[1::2])
        / statistics.median(p.wall_s for p in passes[0::2]))
    return metrics, problems + check_counters(workload, metrics)


def run(args) -> dict:
    check_checkout()
    setup = measure_setup(args.workload, args.seed)
    ctd, modules = import_ctd()
    workload = make_workload(args.workload, ROOT)
    ops = workload.prepare(ctd, args.seed)
    names = [op.name for op in ops]
    inputs_hash = inputs_sha256(ops)
    agent_s = sum(op.duration_ms for op in ops) / 1000.0
    golden, problems = load_golden(args.workload, inputs_hash, args.seed)
    if args.trace:
        problems += canonical_self_check(ctd, modules)

    out = OUT / f"run-{os.getpid()}"
    try:
        passes, tracers = run_passes(workload, ctd, modules, ops, out,
                                     args.seconds, args.trace)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    failed, reasons = count_failures(names, passes, golden)
    problems += reasons

    report = {"provenance": provenance(ctd, args.workload, args.seed, inputs_hash),
              "ops_per_pass": len(ops), "passes": len(passes),
              "agent_s_per_pass": agent_s, "setup_samples_s": setup,
              "pass_wall_s": [p.wall_s for p in passes]}
    if args.trace:
        metrics, trace_problems = traced_metrics(args.workload, passes, tracers)
        problems += trace_problems
        units = {k: unit_of(k) for k in metrics}
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        write_spans(spans, tracers)
        report["spans"] = str(spans.relative_to(ROOT))
    else:
        walls = [p.wall_s for p in passes]
        metrics = {"setup_s": statistics.median(setup),
                   "wall_s": statistics.median(walls),
                   "realtime_factor": statistics.median(agent_s / w for w in walls),
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        units = END_TO_END
    attempted = len(ops) * len(passes)
    report["fail_ratio"] = failed / attempted
    report["problems"] = problems
    return {"report": report, "units": units, "metrics": metrics,
            "correct": failed == 0 and not problems,
            "attempted": attempted, "failed": failed}


def write_golden() -> None:
    ctd, _ = import_ctd()
    golden = {}
    for name in WORKLOADS:
        workload = make_workload(name, ROOT)
        ops = workload.prepare(ctd, DEFAULT_SEED)
        out = OUT / f"golden-{os.getpid()}"
        try:
            result = workload.run_pass(ctd, ops, out, None)
        finally:
            shutil.rmtree(out, ignore_errors=True)
        if result.errors:
            raise RuntimeError(f"{name}: {result.errors}")
        golden[name] = {"seed": DEFAULT_SEED, "inputs_sha256": inputs_sha256(ops),
                        "ops": result.digests}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default="suite")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--setup-only", action="store_true",
                      help="(child) import ctd and prepare the inputs, then exit")
    mode.add_argument("--write-golden", action="store_true",
                      help="rewrite golden.json from one pass of every workload")
    args = parser.parse_args(argv)
    try:
        if args.setup_only:
            ctd, _ = import_ctd()
            make_workload(args.workload, ROOT).prepare(ctd, args.seed)
            return 0
        if args.write_golden:
            write_golden()
            return 0
        result = run(args)
    except CheckoutError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    report = result.pop("report")
    units = result.pop("units")
    print("provenance " + json.dumps(report.pop("provenance"), sort_keys=True))
    print("run " + json.dumps(report, sort_keys=True))
    print(f"{args.workload} trace={args.trace}: fail_ratio {report['fail_ratio']:.4g} "
          f"({result['failed']}/{result['attempted']} ops)")
    for name, value in result["metrics"].items():
        print(f"  {name:30s} {value:14.6g} {units[name]}")
    result["metrics"] = {name: {"value": value, "unit": units[name]}
                         for name, value in result["metrics"].items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
