"""Output checks the benchmark applies to the program's reports.

Each check returns a list of problems (empty when it passes).  Every
expected value is computed apart from the simulator (from the compiled
program's own tables) or is a property the method must have (caches and
step templates never change an answer; the fast fidelity stays within its
documented bound).
"""

from __future__ import annotations

from collections import Counter

from repro.isa import TransferInst

__all__ = ["FAST_TOLERANCE", "noc_bytes", "issue_once", "fast_within",
           "same_report", "same_cycles"]

#: documented bound of fast-fidelity cycles against cycle fidelity.
FAST_TOLERANCE = 0.02

#: meta entries that count cache use and so differ between a cold and a
#: warm run by design.
_CACHE_COUNTERS = ("compile_cache_hits", "compile_cache_misses")


def noc_bytes(report, chip, label: str) -> list[str]:
    """NoC bytes = the bytes of every SEND, LOAD and STORE in the program,
    and global-memory reads and writes = the LOAD and STORE bytes.

    Summed from the instructions rather than the flow table: the table
    records a nominal tile size per message, which overstates a flow
    whose last tile is partial.
    """
    moved = Counter()
    for program in chip.programs.values():
        for inst in program:
            if isinstance(inst, TransferInst):
                moved[inst.op] += inst.bytes
    expected = {"bytes": moved["SEND"] + moved["LOAD"] + moved["STORE"],
                "gmem_read": moved["LOAD"], "gmem_written": moved["STORE"]}
    return [f"{label}: NoC {key} {report.noc[key]} != {value} in the program"
            for key, value in expected.items() if report.noc[key] != value]


def issue_once(report, chip, label: str) -> list[str]:
    """Every instruction issues exactly once and runs on exactly one unit.

    Each core's HALT ends the core without issuing, so issued + one HALT
    per core is the program's instruction count.
    """
    issued = sum(core["issued"] for core in report.per_core.values())
    unit_ops = sum(sum(core["unit_ops"].values())
                   for core in report.per_core.values())
    problems = []
    if issued + len(chip.programs) != chip.total_instructions:
        problems.append(f"{label}: issued {issued} + {len(chip.programs)} "
                        f"HALTs != {chip.total_instructions} instructions")
    if unit_ops != issued:
        problems.append(f"{label}: unit ops {unit_ops} != issued {issued}")
    return problems


def fast_within(fast_cycles: int, cycle_cycles: int, label: str) -> list[str]:
    """Fast-fidelity cycles within ``FAST_TOLERANCE`` of cycle fidelity."""
    error = abs(fast_cycles - cycle_cycles) / cycle_cycles
    if error > FAST_TOLERANCE:
        return [f"{label}: fast {fast_cycles} vs cycle {cycle_cycles} cycles "
                f"({error:.2%} > {FAST_TOLERANCE:.0%})"]
    return []


def _comparable(report) -> dict:
    data = report.to_dict()
    data["meta"] = {key: value for key, value in data["meta"].items()
                    if key not in _CACHE_COUNTERS}
    return data


def same_report(a, b, label: str) -> list[str]:
    """Two reports of one job agree field for field (cache counters aside)."""
    left, right = _comparable(a), _comparable(b)
    differ = sorted(key for key in left.keys() | right.keys()
                    if left.get(key) != right.get(key))
    if differ:
        return [f"{label}: reports differ in {', '.join(differ)}"]
    return []


def same_cycles(got: int, expected: int, label: str) -> list[str]:
    if got != expected:
        return [f"{label}: {got} cycles, expected {expected}"]
    return []
