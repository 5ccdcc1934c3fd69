"""Run one benchmark workload, or all four, and print its metrics.

    python3 perfbench/run.py --workload cold_run --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --seconds 25          # all four, one process each

A workload runs whole passes of its fixed job list until ``--seconds``
have elapsed, on one thread, and checks the program's outputs.  The last
line of standard output is one JSON object: ``correct``, jobs
``attempted`` and ``failed``, and the end-to-end metrics (``--trace 0``)
or the per-layer metrics of a traced run (``--trace 1``).  The exit code
is nonzero when any output check fails.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: the benchmark package and the program's sources.
PATHS = [ROOT, os.path.join(ROOT, "src")]

WORKLOAD_NAMES = ("cold_run", "warm_sim", "design_sweep", "decode_steps")

#: end-to-end metric -> unit (``--trace 0``).
END_TO_END = {
    "setup_s": "s",
    "job_p50_s": "s",
    "sim_inst_per_s": "1/s",
    "peak_rss_mb": "MB",
    "sim_cycles": "cycles",
    "sim_energy_uj": "uJ",
}
#: per-layer count metric -> unit (``--trace 1``), next to each layer's
#: ``<layer>.self_s`` and ``<layer>.calls``.
COUNTS = {
    "engine.compile_hits": "count",
    "engine.compile_misses": "count",
    "engine.template_hits": "count",
    "arch.sim_instructions": "count",
    "arch.host_us_per_inst": "us",
    "arch.analytic_runs": "count",
    "arch.fallback_events": "count",
    "arch.rob_stall_cycles": "cycles",
    "arch.hazard_stall_cycles": "cycles",
    "noc.byte_hops": "byte-hops",
    "noc.messages": "count",
}
#: set-ups per run; setup_s reports the median.
SETUP_REPEATS = 3


def per_layer_units() -> dict[str, str]:
    from perfbench.tracing import LAYERS
    units = {}
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.calls"] = "count"
    return {**units, **COUNTS}


def import_seconds() -> float:
    """Median time for a fresh interpreter to start and import the
    benchmark with the program (the part of set-up no process can skip)."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(PATHS)}
    samples = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "import perfbench.workloads"],
                       cwd=ROOT, env=env, check=True)
        samples.append(perf_counter() - start)
    return statistics.median(samples)


REPORT_COUNTS = ("arch.sim_instructions", "arch.analytic_runs",
                 "arch.fallback_events", "arch.rob_stall_cycles",
                 "arch.hazard_stall_cycles", "noc.byte_hops", "noc.messages")


def report_counts(report) -> Counter:
    """The simulated per-layer counts one report contributes."""
    cores = report.per_core.values()
    return Counter({
        "arch.sim_instructions": report.instructions,
        "arch.analytic_runs": report.analytic_runs,
        "arch.fallback_events": report.fallback_events,
        "arch.rob_stall_cycles": sum(c["rob_stall_cycles"] for c in cores),
        "arch.hazard_stall_cycles": sum(c["hazard_stall_cycles"]
                                        for c in cores),
        "noc.byte_hops": report.noc["byte_hops"],
        "noc.messages": report.noc["messages"],
    })


@dataclass
class Measured:
    """What the timed passes of one run produced."""

    times: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    passes: int = 0
    problems: list[str] = field(default_factory=list)
    #: simulated totals over one pass of the distinct jobs.
    sim_cycles: int = 0
    sim_energy_uj: float = 0.0
    #: report counts summed over every timed job.
    counts: Counter = field(default_factory=Counter)
    #: compile-cache counter increments over the timed passes.
    engine: Counter = field(default_factory=Counter)


def run_passes(workload, seed: int, seconds: float, tracer) -> Measured:
    """Whole passes until ``seconds`` have elapsed; every job is timed,
    a job that raises counts as failed, and each distinct job's outputs
    are checked (untimed) the first time it runs."""
    rng = random.Random(seed)
    out = Measured()
    first_cycles: dict = {}
    energies: list[float] = []
    stats_before = workload.engine_stats()
    deadline = perf_counter() + seconds
    while True:
        for job in workload.pass_jobs(rng):
            out.attempted += 1
            tracer.job = out.attempted
            tracer.enabled = tracer.installed
            span = tracer.begin("engine.job")
            start = perf_counter()
            try:
                reports = workload.run(job)
            except Exception:
                reports = None
                traceback.print_exc(file=sys.stderr)
            finally:
                elapsed = perf_counter() - start
                tracer.end(span)
                tracer.enabled = False
            if reports is None:
                out.failed += 1
                continue
            out.times.append(elapsed)
            for report in reports:
                out.counts += report_counts(report)
            key = workload.key(job)
            cycles = [report.cycles for report in reports]
            if key not in first_cycles:
                first_cycles[key] = cycles
                out.sim_cycles += sum(cycles)
                energies += [r.energy_uj for r in reports]
                try:
                    out.problems += workload.check(job, reports)
                except Exception as exc:
                    traceback.print_exc(file=sys.stderr)
                    out.problems.append(f"check of {key!r} raised {exc!r}")
            elif cycles != first_cycles[key]:
                out.problems.append(f"{key!r}: cycles {cycles} differ from "
                                    f"the first run's {first_cycles[key]}")
        out.passes += 1
        if perf_counter() >= deadline:
            break
    # fsum: the same total whatever order the seed put the jobs in
    out.sim_energy_uj = math.fsum(energies)
    out.engine = workload.engine_stats()
    out.engine.subtract(stats_before)
    try:
        # a fresh generator: the final checks' inputs must not depend on
        # how many passes fit in the run
        out.problems += workload.finish(random.Random(seed))
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        out.problems.append(f"final checks raised {exc!r}")
    if not out.times:
        out.problems.append("no job succeeded")
    return out


def layer_metrics(out: Measured, tracer) -> dict[str, float]:
    """Per-layer figures of a traced run, per pass."""
    from perfbench.tracing import LAYERS
    values = {}
    for layer in LAYERS:
        values[f"{layer}.self_s"] = tracer.self_ns[layer] / 1e9 / out.passes
        values[f"{layer}.calls"] = tracer.calls[layer] / out.passes
    values["engine.compile_hits"] = out.engine["hits"] / out.passes
    values["engine.compile_misses"] = out.engine["misses"] / out.passes
    values["engine.template_hits"] = out.engine["template_hits"] / out.passes
    for key in REPORT_COUNTS:
        values[key] = out.counts[key] / out.passes
    values["arch.host_us_per_inst"] = (
        tracer.self_ns["arch.simulate"] / 1e3
        / max(1, out.counts["arch.sim_instructions"]))
    return values


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from perfbench import tracing
    from perfbench.workloads import WORKLOADS

    setup_import = import_seconds()
    workload = WORKLOADS[name]()
    setup_samples = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        workload.setup()
        setup_samples.append(perf_counter() - start)

    tracer = tracing.Tracer()
    if trace:
        tracing.install(tracer)
    out = run_passes(workload, seed, seconds, tracer)
    job_p50_s = statistics.median(out.times) if out.times else 0.0
    for problem in out.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(f"{name}: seed {seed}, {out.passes} passes, median of "
          f"{len(out.times)} jobs", file=sys.stderr)
    if trace:
        path = os.path.join(ROOT, "perfbench", "out", f"{name}.trace.json")
        tracer.write(path)
        print(f"trace: {len(tracer.spans)} spans -> {path}", file=sys.stderr)
        print(f"traced job_p50_s {job_p50_s!r} s, sim_cycles "
              f"{out.sim_cycles}, sim_energy_uj {out.sim_energy_uj!r}",
              file=sys.stderr)
        values, units = layer_metrics(out, tracer), per_layer_units()
    else:
        values = {
            "setup_s": setup_import + statistics.median(setup_samples),
            "job_p50_s": job_p50_s,
            "sim_inst_per_s": (out.counts["arch.sim_instructions"]
                               / sum(out.times) if out.times else 0.0),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024,
            "sim_cycles": out.sim_cycles,
            "sim_energy_uj": out.sim_energy_uj,
        }
        units = END_TO_END
    metrics = {key: {"value": values[key], "unit": unit}
               for key, unit in units.items()}
    for key, metric in metrics.items():
        print(f"  {key:32s} {metric['value']!r:>24} {metric['unit']}",
              file=sys.stderr)
    return {"correct": not out.problems, "attempted": out.attempted,
            "failed": out.failed, "metrics": metrics}


def run_all(args) -> int:
    """Every workload in its own fresh process, one after another."""
    results = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        try:
            results[name] = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            results[name] = {"correct": False, "exit_code": proc.returncode}
    for name, result in results.items():
        print(f"{name}: correct={result['correct']} "
              f"attempted={result.get('attempted')} "
              f"failed={result.get('failed')}")
        for key, metric in result.get("metrics", {}).items():
            print(f"  {key:32s} {metric['value']!r:>24} {metric['unit']}")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    # One thread: set before anything imports numpy.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = PATHS
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=("all", *WORKLOAD_NAMES))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
