"""Wrappers around tsseg's layer functions: result capture and spans.

The modules bind each other's functions with ``from .x import y``, so a
wrapper must replace the name in the namespace that calls it: patching
``tsseg.costs.build_cost_matrix`` alone would not be seen by ``tsseg.cli``.

Two wrapper sets exist.  The capture set, installed for every job, only
records what the two segmenters return (the output checks need the DP
objective, and the work counts come from these calls); it reads no clock.
The traced set wraps every name in ``WRAPPED`` and also records a span per
call: name, start, end and the span that caused it, nested job ->
cli.cmd_segment -> layer calls.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

WRAPPED = {
    "cli": (
        "cmd_segment", "ingest_csv", "build_cost_matrix", "dp_segment",
        "hmm_segment", "select_order", "segment_stats", "_segment_residuals",
        "segmentation_svg",
    ),
    "selection": (
        "build_cost_matrix", "dp_segment", "hmm_segment", "scheffe_significant",
        "residual_whiteness", "_segment_residuals",
    ),
}
CAPTURED = ("dp_segment", "hmm_segment")


@dataclass
class Span:
    job: int
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)


@dataclass
class Call:
    name: str               # "<namespace>.<function>"
    args: tuple
    kwargs: dict
    result: object


class Probes:
    """Installs wrappers on ``modules`` ({"cli": mod, "selection": mod})."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.originals = {
            (ns, name): getattr(modules[ns], name)
            for ns, names in WRAPPED.items()
            for name in names
        }
        self.spans: list[Span] = []
        self.calls: list[Call] = []
        self._stack: list[int] = []
        self._job = -1
        self._capture = {
            key: self._capturing(f"{key[0]}.{key[1]}", fn)
            for key, fn in self.originals.items()
            if key[1] in CAPTURED
        }
        self._traced = {
            key: self._tracing(f"{key[0]}.{key[1]}", fn)
            for key, fn in self.originals.items()
        }

    def install(self, traced: bool) -> None:
        self.restore()
        for (ns, name), fn in (self._traced if traced else self._capture).items():
            setattr(self.modules[ns], name, fn)

    def restore(self) -> None:
        for (ns, name), fn in self.originals.items():
            setattr(self.modules[ns], name, fn)

    def start_job(self, job: int, traced: bool, attrs: dict) -> None:
        """Reset ``calls``; with ``traced``, open the job's root span."""
        self.calls = []
        self._job = job
        self._stack = []
        if traced:
            span = Span(job, len(self.spans), None, "job", 0.0, attrs=attrs)
            self.spans.append(span)
            self._stack.append(span.id)

    def end_job(self, start: float, end: float) -> None:
        """Close the root span with the job's timed interval."""
        if self._stack:
            root = self.spans[self._stack.pop()]
            root.start, root.end = start, end

    def _capturing(self, name: str, fn):
        probes = self

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            probes.calls.append(Call(name, args, kwargs, result))
            return result

        return wrapper

    def _tracing(self, name: str, fn):
        probes = self

        def wrapper(*args, **kwargs):
            span = Span(probes._job, len(probes.spans), probes._stack[-1], name, 0.0)
            probes.spans.append(span)
            probes._stack.append(span.id)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                probes._stack.pop()
            if name.endswith(".build_cost_matrix"):
                span.attrs["model"] = args[1] if len(args) > 1 else kwargs.get("model", "means")
                span.attrs["cells"] = result.n * (result.n + 1) // 2
            elif name.endswith(".hmm_segment"):
                span.attrs["iterations"] = result[1].iterations
            probes.calls.append(Call(name, args, kwargs, result))
            return result

        return wrapper
