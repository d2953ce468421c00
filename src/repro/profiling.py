"""Pipeline profiling: the ``--profile`` report.

A :class:`PipelineProfile` is a stage sink: while it runs (``start``
to ``stop``, or a ``with`` block) :func:`repro.obs.trace.stage` hands
it every pipeline stage the thread times, and its counters are the
thread's :mod:`repro.obs.metrics` registry delta over the same window.
It renders as JSON (the CLI's ``--profile``) or as a table; the
benchmark ``benchmarks/test_bench_pipeline.py`` reads the same numbers
into ``BENCH_PIPELINE.json``.
"""

from __future__ import annotations

import json
from typing import Dict, Optional

from repro.obs import metrics as _metrics
from repro.obs import trace as _trace

#: Version tag of the ``--profile`` JSON shape. 2 = added this field;
#: every version-1 key (stages / counters / total_seconds) is unchanged.
PROFILE_SCHEMA_VERSION = 2


class PipelineProfile:
    """Per-stage wall time and calls plus the counters of one window.

    Stages may be entered repeatedly (complete propagation re-runs the
    back half); times accumulate and the call count is kept alongside.
    A nested stage keeps its own seconds and calls, but only outermost
    stages add to :attr:`total_seconds`.
    """

    def __init__(self) -> None:
        self._seconds: Dict[str, float] = {}
        self._calls: Dict[str, int] = {}
        self._outermost = 0.0
        self._registry: Optional[_metrics.MetricsRegistry] = None
        self._base: Optional[dict] = None
        self._counters: Dict[str, int] = {}

    def start(self) -> "PipelineProfile":
        """Begin the window on this thread: push the profile as a stage
        sink and snapshot the thread's metrics registry."""
        self._registry = _metrics.default_registry()
        self._base = self._registry.snapshot()
        _trace.push_sink(self)
        return self

    def stop(self) -> None:
        """End the window: pop the sink and keep the registry's delta
        since :meth:`start` as the counters."""
        _trace.pop_sink()
        self._counters = self._registry.delta_since(self._base)["counters"]

    def __enter__(self) -> "PipelineProfile":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def record_stage(self, name: str, seconds: float, nested: bool) -> None:
        """Sink protocol of :func:`repro.obs.trace.stage`."""
        self._seconds[name] = self._seconds.get(name, 0.0) + seconds
        self._calls[name] = self._calls.get(name, 0) + 1
        if not nested:
            self._outermost += seconds

    def seconds(self, name: str) -> float:
        return self._seconds.get(name, 0.0)

    def counter(self, name: str) -> int:
        return self._counters.get(name, 0)

    @property
    def total_seconds(self) -> float:
        """Seconds spent in outermost stages (nested ones are inside)."""
        return self._outermost

    def to_dict(self) -> dict:
        """JSON-ready report: per-stage seconds/calls plus counters."""
        return {
            "schema_version": PROFILE_SCHEMA_VERSION,
            "stages": {
                name: {
                    "seconds": round(self._seconds[name], 6),
                    "calls": self._calls[name],
                }
                for name in self._seconds
            },
            "counters": dict(sorted(self._counters.items())),
            "total_seconds": round(self.total_seconds, 6),
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    def format(self) -> str:
        """Fixed-width table for terminal output."""
        lines = [f"{'stage':<20} {'seconds':>10} {'calls':>6}"]
        for name in self._seconds:
            lines.append(
                f"{name:<20} {self._seconds[name]:>10.4f} {self._calls[name]:>6}"
            )
        lines.append(f"{'total':<20} {self.total_seconds:>10.4f}")
        if self._counters:
            lines.append("counters:")
            for name in sorted(self._counters):
                lines.append(f"  {name:<20} {self._counters[name]}")
        return "\n".join(lines)


def aggregate_profiles(profiles) -> dict:
    """Fold many :meth:`PipelineProfile.to_dict` payloads into one.

    Stage seconds/calls and counters sum; the result has the same shape
    as a single profile dict, so renderers need not care whether they
    are looking at one run or a whole batch. Stage order follows first
    appearance across the inputs.
    """
    stages: Dict[str, dict] = {}
    counters: Dict[str, int] = {}
    total = 0.0
    for payload in profiles:
        if payload is None:
            continue
        for name, entry in payload.get("stages", {}).items():
            slot = stages.setdefault(name, {"seconds": 0.0, "calls": 0})
            slot["seconds"] = round(slot["seconds"] + entry["seconds"], 6)
            slot["calls"] += entry["calls"]
        for name, value in payload.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + value
        total += payload.get("total_seconds", 0.0)
    return {
        "schema_version": PROFILE_SCHEMA_VERSION,
        "stages": stages,
        "counters": dict(sorted(counters.items())),
        "total_seconds": round(total, 6),
    }
