"""The four benchmark workloads.

Each workload has a set-up (repeatable; the last one is kept), a fixed
list of jobs per pass whose order the seed decides, the job itself, and
output checks run outside the timed jobs: once per distinct job when it
is first seen (``check``) and once after the last pass (``finish``).
A job returns its reports in a canonical order, so every repetition of a
distinct job must reproduce the same cycle counts.
"""

from __future__ import annotations

from collections import Counter

from repro.arch import run_program
from repro.compiler import compile_network
from repro.config import small_chip
from repro.engine import Engine, JobSpec
from repro.graph import with_kv_extent
from repro.runner.results import SimReport
from repro.tune import CostModel

from . import checks

__all__ = ["WORKLOADS"]

SMALL = small_chip()
FAST = SMALL.with_fidelity("fast")

#: resnet18 twice per googlenet: the two differ in host time (about 5%
#: cold, 35% warm), so with equal counts the median would sit in the gap
#: between the kinds; at 2:1 it falls inside resnet18's own spread.
CNN_PASS = ("resnet18", "resnet18", "googlenet")
SWEEP_NETWORK = "squeezenet"
SWEEP_GRID = tuple((mapping, rob) for mapping in ("utilization_first",
                                                  "performance_first")
                   for rob in (4, 8, 16, 32, 64))
DECODE_NETWORK = "gpt_tiny"
#: one request per start extent; a pass steps each request to capacity.
#: The seed decides which request starts where, and so the interleaving;
#: the multiset of steps per pass is the same for every seed.
DECODE_STARTS = (1, 9, 17, 25, 33, 41, 49, 57)
#: decode extents re-compiled from scratch by the final check.
DECODE_SAMPLES = 3


def _fast_cycles(chip) -> int:
    return run_program(chip, FAST).cycles


def _cache_counters(engine: Engine) -> Counter:
    stats = engine.compile_stats()
    return Counter({key: stats[key]
                    for key in ("hits", "misses", "template_hits")})


def _program_checks(report, chip, label: str) -> list[str]:
    return (checks.noc_bytes(report, chip, label)
            + checks.issue_once(report, chip, label))


class Workload:
    name = ""

    def __init__(self) -> None:
        #: compile-cache counters of engines a job creates and drops.
        self.dropped_stats: Counter = Counter()

    def setup(self) -> None:
        """Warm-up before the first timed job (repeatable)."""

    def pass_jobs(self, rng) -> list:
        raise NotImplementedError

    def key(self, job):
        return job

    def run(self, job) -> list[SimReport]:
        raise NotImplementedError

    def check(self, job, reports: list[SimReport]) -> list[str]:
        return []

    def finish(self, rng) -> list[str]:
        return []

    def engine_stats(self) -> Counter:
        """Compile-cache counters of every engine the jobs used so far."""
        kept = getattr(self, "engine", None)
        extra = _cache_counters(kept) if kept is not None else Counter()
        return self.dropped_stats + extra


class ColdRun(Workload):
    """What ``pimsim run`` costs after start-up: a fresh engine per job."""

    name = "cold_run"

    def pass_jobs(self, rng) -> list:
        return rng.sample(CNN_PASS, len(CNN_PASS))

    def run(self, job) -> list[SimReport]:
        self._engine = None  # no engine outlives the job after it
        engine = Engine(SMALL, workers=1)
        report = engine.run(JobSpec(job))
        self.dropped_stats += _cache_counters(engine)
        self._engine = engine  # for the checks of a first-seen job
        return [report]

    def check(self, job, reports) -> list[str]:
        engine = self._engine
        chip = engine.compile(job).program
        warm = engine.run(JobSpec(job))
        return (_program_checks(reports[0], chip, job)
                + checks.same_report(warm, reports[0], f"{job} warm vs cold")
                + checks.fast_within(_fast_cycles(chip), reports[0].cycles,
                                     job))


class WarmSim(Workload):
    """Simulation only: compile and the first run happen in set-up."""

    name = "warm_sim"

    def setup(self) -> None:
        self.engine = Engine(SMALL, workers=1)
        self.cold = {net: self.engine.run(JobSpec(net))
                     for net in sorted(set(CNN_PASS))}
        self.chips = {net: self.engine.compile(net).program
                      for net in self.cold}

    def pass_jobs(self, rng) -> list:
        return rng.sample(CNN_PASS, len(CNN_PASS))

    def run(self, job) -> list[SimReport]:
        return [self.engine.run(JobSpec(job))]

    def check(self, job, reports) -> list[str]:
        chip = self.chips[job]
        return (_program_checks(reports[0], chip, job)
                + checks.same_report(reports[0], self.cold[job],
                                     f"{job} warm vs cold")
                + checks.fast_within(_fast_cycles(chip), reports[0].cycles,
                                     job))


class DesignSweep(Workload):
    """One ``pimsim tune``-style sweep per job at fast fidelity."""

    name = "design_sweep"

    def pass_jobs(self, rng) -> list:
        return [tuple(rng.sample(SWEEP_GRID, len(SWEEP_GRID)))]

    def key(self, job):
        return "sweep"

    def run(self, job) -> list[SimReport]:
        engine = Engine(SMALL, workers=1, fidelity="fast")
        model = CostModel()
        reports = {}
        self._chips = {}
        for mapping, rob in job:
            spec = JobSpec(SWEEP_NETWORK, mapping=mapping, rob_size=rob)
            compiled, config = engine.compile_for(spec)
            model.estimate(compiled, config)
            reports[mapping, rob] = engine.run(spec)
            self._chips[mapping, rob] = (compiled.program, config)
        self.dropped_stats += _cache_counters(engine)
        return [reports[point] for point in SWEEP_GRID]

    def check(self, job, reports) -> list[str]:
        problems = []
        for (mapping, rob), report in zip(SWEEP_GRID, reports):
            label = f"{SWEEP_NETWORK}/{mapping}/rob{rob}"
            chip, config = self._chips[mapping, rob]
            exact = run_program(chip, config.with_fidelity("cycle")).cycles
            problems += _program_checks(report, chip, label)
            problems += checks.fast_within(report.cycles, exact, label)
            if rob == SWEEP_GRID[0][1]:
                spec = JobSpec(SWEEP_NETWORK, mapping=mapping, rob_size=rob)
                cold = Engine(SMALL, workers=1, fidelity="fast").run(
                    spec, compile_cache=False)
                problems += checks.same_report(report, cold,
                                               f"{label} warm vs cold")
        return problems


class DecodeSteps(Workload):
    """One decode step per job on a warm engine and step template."""

    name = "decode_steps"

    def setup(self) -> None:
        self.engine = Engine(SMALL, workers=1)
        self.template = self.engine.step_template(DECODE_NETWORK)
        self.graph = self.engine.resolve_network(DECODE_NETWORK)
        self.step_cycles: dict[int, int] = {}
        # One request across every extent fills the per-extent caches
        # (resolved programs, static hazard tables), so that every timed
        # pass does the same work.
        self.engine.decode_session(DECODE_NETWORK, kv_tokens=1).run(
            self.template.capacity)

    def pass_jobs(self, rng) -> list:
        starts = rng.sample(DECODE_STARTS, len(DECODE_STARTS))
        jobs = []
        cursors = [[self.engine.decode_session(DECODE_NETWORK, kv_tokens=s), s]
                   for s in starts]
        while cursors:
            for cursor in cursors:
                jobs.append(tuple(cursor))
                cursor[1] += 1
            cursors = [cursor for cursor in cursors
                       if cursor[1] <= self.template.capacity]
        return jobs

    def key(self, job):
        return job[1]

    def run(self, job) -> list[SimReport]:
        session, extent = job
        if session.extent != extent:
            raise RuntimeError(f"session at extent {session.extent}, "
                               f"job expects {extent}")
        return [session.step()]

    def check(self, job, reports) -> list[str]:
        extent = job[1]
        self.step_cycles[extent] = reports[0].cycles
        chip = self.template.resolve(extent)
        label = f"{DECODE_NETWORK}@{extent}"
        return (_program_checks(reports[0], chip, label)
                + checks.fast_within(_fast_cycles(chip), reports[0].cycles,
                                     label))

    def finish(self, rng) -> list[str]:
        problems = []
        for extent in sorted(rng.sample(sorted(self.step_cycles),
                                        DECODE_SAMPLES)):
            compiled = compile_network(with_kv_extent(self.graph, extent),
                                       SMALL)
            fresh = run_program(compiled.program, SMALL).cycles
            problems += checks.same_cycles(
                self.step_cycles[extent], fresh,
                f"{DECODE_NETWORK} step @{extent} vs compile_network")
        return problems


WORKLOADS = {cls.name: cls for cls in (ColdRun, WarmSim, DesignSweep,
                                       DecodeSteps)}
