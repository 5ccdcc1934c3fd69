"""Tests of the benchmark's own output checks, spans and metric list.

Each check must pass on the program's real output and fail once the
report is altered the way a fault would alter it.
"""

from __future__ import annotations

import copy
import json
import os
import random

import pytest

from perfbench import checks, run, tracing
from perfbench.workloads import SMALL, WORKLOADS, DecodeSteps, Workload
from repro.engine import Engine, JobSpec


@pytest.fixture(scope="module")
def lenet():
    engine = Engine(SMALL, workers=1)
    report = engine.run(JobSpec("lenet5"))
    return report, engine.compile("lenet5").program


def test_noc_bytes(lenet):
    report, chip = lenet
    assert checks.noc_bytes(report, chip, "lenet5") == []
    for key in ("bytes", "gmem_read", "gmem_written"):
        altered = copy.deepcopy(report)
        altered.noc[key] += 1
        assert checks.noc_bytes(altered, chip, "lenet5")


def test_issue_once(lenet):
    report, chip = lenet
    assert checks.issue_once(report, chip, "lenet5") == []
    core = next(iter(report.per_core))
    issued_twice = copy.deepcopy(report)
    issued_twice.per_core[core]["issued"] += 1
    assert checks.issue_once(issued_twice, chip, "lenet5")
    lost_op = copy.deepcopy(report)
    lost_op.per_core[core]["unit_ops"]["matrix"] -= 1
    assert checks.issue_once(lost_op, chip, "lenet5")


def test_fast_within():
    assert checks.fast_within(101_000, 100_000, "net") == []
    assert checks.fast_within(103_000, 100_000, "net")
    assert checks.fast_within(97_000, 100_000, "net")


def test_same_report(lenet):
    report, _ = lenet
    twin = copy.deepcopy(report)
    twin.meta["compile_cache_hits"] = report.compile_cache_hits + 1
    assert checks.same_report(report, twin, "lenet5") == []
    twin.energy_pj["xbar"] += 1.0
    assert checks.same_report(report, twin, "lenet5")


def test_decode_step_against_compile_network():
    workload = DecodeSteps()
    workload.setup()
    capacity = workload.template.capacity
    session = workload.engine.decode_session("gpt_tiny",
                                             kv_tokens=capacity - 2)
    for extent in range(capacity - 2, capacity + 1):
        job = (session, extent)
        assert workload.check(job, workload.run(job)) == []
    assert workload.finish(random.Random(0)) == []
    workload.step_cycles[capacity - 1] += 1
    problems = workload.finish(random.Random(0))
    assert len(problems) == 1 and f"@{capacity - 1}" in problems[0]


class _Flaky(Workload):
    """Three jobs per pass; the second raises, the third must still run."""

    def __init__(self, report):
        super().__init__()
        self.report = report

    def pass_jobs(self, rng):
        return ["a", "b", "c"]

    def run(self, job):
        if job == "b":
            raise RuntimeError("job b fails")
        return [self.report]


def test_failed_job_counts_and_run_continues(lenet):
    report, _ = lenet
    out = run.run_passes(_Flaky(report), 0, 0.0, tracing.Tracer())
    assert (out.passes, out.attempted, out.failed) == (1, 3, 1)
    assert len(out.times) == 2 and out.problems == []
    assert out.sim_cycles == 2 * report.cycles  # distinct jobs a and c


def test_changed_cycles_on_a_repeated_job_fail(lenet):
    report, _ = lenet
    workload = _Flaky(report)
    workload.pass_jobs = lambda rng: ["a", "a"]
    slower = copy.deepcopy(report)
    slower.cycles += 1
    answers = iter([[report], [slower]])
    workload.run = lambda job: next(answers)
    out = run.run_passes(workload, 0, 0.0, tracing.Tracer())
    assert len(out.problems) == 1 and "differ" in out.problems[0]


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    child = tracer.wrap("arch.simulate", lambda: sum(range(10_000)))
    parent = tracer.wrap("engine.job", lambda: [child(), child()])
    parent()
    assert tracer.calls["engine.job"] == 0  # disabled: nothing recorded
    tracer.enabled = True
    parent()
    outer, first, second = tracer.spans
    assert first.parent == second.parent == outer.span_id
    assert outer.self_ns == (outer.end_ns - outer.start_ns
                             - (first.end_ns - first.start_ns)
                             - (second.end_ns - second.start_ns))
    assert tracer.calls["arch.simulate"] == 2
    events = tracer.chrome_trace()["traceEvents"]
    assert [e["args"]["parent"] for e in events] == [None, 0, 0]
    assert all(e["ph"] == "X" and e["dur"] >= 0 for e in events)


def test_metric_names_match_benchmark_json():
    path = os.path.join(run.ROOT, "BENCHMARK.json")
    with open(path) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == run.per_layer_units()
