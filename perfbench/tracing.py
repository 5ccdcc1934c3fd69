"""In-memory spans around calls into the program's layers.

The benchmark wraps the public entry point of each layer (see
``LAYER_FUNCTIONS`` / ``LAYER_METHODS``) with a recording function.  A
span records name, start, end, its parent span and the job it belongs to;
self time is the span's duration minus the time its child spans cover.
Spans are kept in memory while the benchmark runs and written out once at
the end as Chrome trace-event JSON, which Perfetto and chrome://tracing
open.  Nothing under ``src/`` is changed: wrapping happens by rebinding
module and class attributes in the benchmark's own process.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from dataclasses import dataclass
from time import perf_counter_ns

__all__ = ["Span", "Tracer", "install", "LAYERS"]

#: layer -> (module, attribute) of a function; every ``repro.*`` module
#: that imported the function by name gets the wrapper too.
LAYER_FUNCTIONS = {
    "graph.build": ("repro.models", "build_model"),
    "compiler.frontend": ("repro.compiler", "build_pipeline"),
    "compiler.mapping": ("repro.compiler", "map_network"),
    "compiler.codegen": ("repro.compiler", "generate_code"),
    "isa.verify": ("repro.isa", "verify_program"),
    "arch.simulate": ("repro.arch", "run_program"),
}
#: layer -> (module, class, method).
LAYER_METHODS = {
    "isa.static_blockers": ("repro.isa", "Program", "static_blockers"),
    "tune.costmodel": ("repro.tune", "CostModel", "estimate"),
    "compiler.step_resolve": ("repro.compiler", "StepTemplate", "resolve"),
    "runner.report": ("repro.runner.results", "SimReport", "from_raw"),
}
#: every span name the per-layer metrics report, ``engine.job`` (the
#: benchmark's own span around one whole job) last.
LAYERS = (*LAYER_FUNCTIONS, *LAYER_METHODS, "engine.job")


@dataclass(slots=True)
class Span:
    span_id: int
    parent: int | None
    name: str
    job: int
    start_ns: int
    end_ns: int = 0
    child_ns: int = 0

    @property
    def self_ns(self) -> int:
        return self.end_ns - self.start_ns - self.child_ns


class Tracer:
    """Records nested spans of one thread while ``enabled``."""

    def __init__(self) -> None:
        #: set by :func:`install`; spans are recorded only while enabled.
        self.installed = False
        self.enabled = False
        self.job = 0
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.self_ns: dict[str, int] = {name: 0 for name in LAYERS}
        self.calls: dict[str, int] = {name: 0 for name in LAYERS}

    def begin(self, name: str) -> Span | None:
        if not self.enabled:
            return None
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(len(self.spans), parent, name, self.job, perf_counter_ns())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Span | None) -> None:
        if span is None:
            return
        span.end_ns = perf_counter_ns()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        if self._stack:
            self._stack[-1].child_ns += span.end_ns - span.start_ns
        self.self_ns[span.name] = self.self_ns.get(span.name, 0) + span.self_ns
        self.calls[span.name] = self.calls.get(span.name, 0) + 1

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(span)
        return traced

    def chrome_trace(self) -> dict:
        """The spans as Chrome trace-event JSON (complete ``X`` events)."""
        origin = self.spans[0].start_ns if self.spans else 0
        pid = os.getpid()
        events = [{
            "name": span.name, "cat": span.name.split(".")[0], "ph": "X",
            "ts": (span.start_ns - origin) / 1e3,
            "dur": (span.end_ns - span.start_ns) / 1e3,
            "pid": pid, "tid": 1,
            "args": {"id": span.span_id, "parent": span.parent,
                     "job": span.job, "self_us": span.self_ns / 1e3},
        } for span in self.spans if span.end_ns]
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as fh:
            json.dump(self.chrome_trace(), fh)


def install(tracer: Tracer) -> None:
    """Rebind each layer's entry point to a span-recording wrapper.

    Every loaded ``repro`` module that bound a function by
    ``from ... import`` gets the wrapper; modules loaded later import it
    from an already rebound module.
    """
    import importlib

    tracer.installed = True
    for module, *_ in (*LAYER_FUNCTIONS.values(), *LAYER_METHODS.values()):
        importlib.import_module(module)
    modules = [mod for name, mod in list(sys.modules.items())
               if name == "repro" or name.startswith("repro.")]
    for layer, (module, attr) in LAYER_FUNCTIONS.items():
        original = getattr(sys.modules[module], attr)
        wrapper = tracer.wrap(layer, original)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
    for layer, (module, cls_name, attr) in LAYER_METHODS.items():
        cls = getattr(sys.modules[module], cls_name)
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(tracer.wrap(layer, raw.__func__)))
        else:
            setattr(cls, attr, tracer.wrap(layer, raw))
