"""Structured tracing: nested spans and typed instant events.

Events are stored directly in Chrome trace-event form (plain dicts, so
they pickle across process-pool boundaries) and export via
:func:`to_chrome` as a JSON object Perfetto / ``chrome://tracing``
loads as-is. Spans become ``"ph": "X"`` complete events (``ts`` +
``dur``); point events (a meet reaching bottom, a cache miss, a
demotion) become ``"ph": "i"`` instants. Timestamps are microseconds
from ``time.perf_counter_ns() // 1000``, the unit the trace-event
format specifies.

Zero-cost-when-disabled contract (bench-gated in
``benchmarks/test_bench_pipeline.py``):

- hot call sites guard on the module flag ``trace.ENABLED`` before
  building any attribute dict — ``if trace.ENABLED:
  trace.instant(...)`` costs one global load and a branch;
- ``span()`` returns the shared :data:`_NULL_SPAN` singleton when
  disabled — no object allocation per call;
- there is no tracer instance at all until :func:`enable` runs.

Track layout: each OS thread gets its own ``tid`` track; each worker
process gets its own ``pid`` track (the parent adopts child events
verbatim via :meth:`Tracer.adopt`, keeping the child's pid), so
parallel runs render as parallel tracks in Perfetto.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

#: Hot-path guard. Call sites check this module attribute before doing
#: any event-building work; it is only ever True while a tracer is
#: installed.
ENABLED: bool = False

_TRACER: Optional["Tracer"] = None


def _now_us() -> int:
    return time.perf_counter_ns() // 1000


def _tid() -> int:
    get_native = getattr(threading, "get_native_id", None)
    return get_native() if get_native is not None else threading.get_ident()


class Tracer:
    """Accumulates Chrome trace events for one enable()..disable()
    window (plus any worker events adopted into it)."""

    def __init__(self) -> None:
        self.owner_pid = os.getpid()
        self.events: List[Dict[str, Any]] = []

    # -- emission ------------------------------------------------------------

    def instant(self, event_name: str, **attrs: Any) -> None:
        event: Dict[str, Any] = {
            "name": event_name,
            "ph": "i",
            "s": "t",
            "ts": _now_us(),
            "pid": os.getpid(),
            "tid": _tid(),
        }
        if attrs:
            event["args"] = attrs
        self.events.append(event)

    def complete(
        self,
        event_name: str,
        start_us: int,
        duration_us: int,
        attrs: Optional[dict],
    ) -> None:
        event: Dict[str, Any] = {
            "name": event_name,
            "ph": "X",
            "ts": start_us,
            "dur": duration_us,
            "pid": os.getpid(),
            "tid": _tid(),
        }
        if attrs:
            event["args"] = attrs
        self.events.append(event)

    def flow(self, event_name: str, phase: str, flow_id: int, **attrs: Any) -> None:
        """Chrome flow event: ``phase`` is ``"s"`` (start, at the
        request's root span), ``"t"`` (step, inside each worker span it
        passes through), or ``"f"`` (finish). All events sharing one
        ``flow_id`` render as connecting arrows across pid/tid tracks —
        the cross-process stitching primitive."""
        if phase not in ("s", "t", "f"):
            raise ValueError(f"flow phase must be 's', 't' or 'f', not {phase!r}")
        event: Dict[str, Any] = {
            "name": event_name,
            "ph": phase,
            "id": flow_id,
            "ts": _now_us(),
            "pid": os.getpid(),
            "tid": _tid(),
        }
        if phase == "f":
            # bind the finish to the enclosing slice's end, the
            # rendering Perfetto expects for request-shaped flows
            event["bp"] = "e"
        if attrs:
            event["args"] = attrs
        self.events.append(event)

    # -- worker shipping -----------------------------------------------------

    def adopt(self, events: List[Dict[str, Any]]) -> None:
        """Fold worker events in verbatim: the child's pid/tid are kept
        so each worker renders as its own Perfetto track."""
        self.events.extend(events)

    # -- export --------------------------------------------------------------

    def to_chrome(self) -> Dict[str, Any]:
        """The ``{"traceEvents": [...]}`` object Perfetto loads. Adds
        process_name metadata for every pid seen so tracks are
        labelled."""
        pids = sorted({event["pid"] for event in self.events})
        metadata = [
            {
                "name": "process_name",
                "ph": "M",
                "ts": 0,
                "pid": pid,
                "tid": 0,
                "args": {
                    "name": "repro"
                    if pid == self.owner_pid
                    else f"repro worker {pid}"
                },
            }
            for pid in pids
        ]
        return {
            "traceEvents": metadata + self.events,
            "displayTimeUnit": "ms",
        }


class _Span:
    """Live span: records entry time, appends one "X" event on exit."""

    __slots__ = ("_name", "_attrs", "_start")

    def __init__(self, name: str, attrs: Optional[dict]):
        self._name = name
        self._attrs = attrs
        self._start = 0

    def __enter__(self) -> "_Span":
        self._start = _now_us()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        tracer = _TRACER
        if tracer is not None:
            tracer.complete(
                self._name, self._start, _now_us() - self._start, self._attrs
            )


class _NullSpan:
    """Shared no-op span for the disabled path (never allocated per
    call)."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        return None


_NULL_SPAN = _NullSpan()


# -- module-level API ---------------------------------------------------------


def enable() -> Tracer:
    """Install a fresh tracer and flip :data:`ENABLED`. Returns it."""
    global _TRACER, ENABLED
    _TRACER = Tracer()
    ENABLED = True
    return _TRACER


def disable() -> Optional[Tracer]:
    """Remove the tracer (returning it, so callers can still export)."""
    global _TRACER, ENABLED
    tracer = _TRACER
    _TRACER = None
    ENABLED = False
    return tracer


def active() -> Optional[Tracer]:
    return _TRACER


def span(event_name: str, **attrs: Any):
    """Context manager timing a region. Returns the no-op singleton
    when tracing is disabled. (The first argument is positional-only in
    spirit — attributes named ``name`` are welcome in ``attrs``.)"""
    if not ENABLED:
        return _NULL_SPAN
    return _Span(event_name, attrs or None)


def instant(event_name: str, **attrs: Any) -> None:
    """Point event. Callers on hot paths should guard with
    ``if trace.ENABLED:`` so attribute dicts are never built when
    disabled."""
    tracer = _TRACER
    if tracer is not None:
        tracer.instant(event_name, **attrs)


def flow(event_name: str, phase: str, flow_id: int, **attrs: Any) -> None:
    """Flow event (see :meth:`Tracer.flow`). Guard hot call sites with
    ``if trace.ENABLED:`` as with :func:`instant`."""
    tracer = _TRACER
    if tracer is not None:
        tracer.flow(event_name, phase, flow_id, **attrs)


@contextmanager
def session() -> Iterator[Tracer]:
    """enable()/disable() bracket for tests and CLI entry points."""
    tracer = enable()
    try:
        yield tracer
    finally:
        disable()


# -- schema validation (shared by tests and the CI smoke job) -----------------


def validate_chrome_trace(payload: Any) -> List[str]:
    """Validate a Chrome trace-event JSON object; returns a list of
    problems (empty means Perfetto-loadable). Checks the fields the
    format requires (ts/pid/tid everywhere, dur on "X" events) and
    that complete events nest properly per (pid, tid) track."""
    problems: List[str] = []
    if not isinstance(payload, dict) or "traceEvents" not in payload:
        return ["top-level object must be a dict with a 'traceEvents' key"]
    events = payload["traceEvents"]
    if not isinstance(events, list):
        return ["'traceEvents' must be a list"]
    spans_by_track: Dict[tuple, List[tuple]] = {}
    flow_starts: Dict[Any, int] = {}
    flow_steps: List[tuple] = []
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append(f"event #{index} is not an object")
            continue
        where = f"event #{index} ({event.get('name', '?')!r})"
        for field in ("name", "ph", "ts", "pid", "tid"):
            if field not in event:
                problems.append(f"{where}: missing {field!r}")
        phase = event.get("ph")
        if phase == "X":
            duration = event.get("dur")
            if not isinstance(duration, (int, float)) or duration < 0:
                problems.append(f"{where}: 'X' event needs dur >= 0")
            else:
                track = (event.get("pid"), event.get("tid"))
                spans_by_track.setdefault(track, []).append(
                    (event.get("ts", 0), duration, event.get("name"))
                )
        elif phase in ("s", "t", "f"):
            if "id" not in event:
                problems.append(f"{where}: flow event needs an 'id'")
            elif phase == "s":
                flow_starts[event["id"]] = flow_starts.get(event["id"], 0) + 1
            else:
                flow_steps.append((where, event["id"]))
        elif phase not in ("i", "I", "M", "C", "B", "E"):
            problems.append(f"{where}: unknown phase {phase!r}")
    for flow_id, count in sorted(flow_starts.items(), key=str):
        if count > 1:
            problems.append(
                f"flow id {flow_id!r} has {count} 's' (start) events; "
                f"expected exactly one per flow"
            )
    for where, flow_id in flow_steps:
        if flow_id not in flow_starts:
            problems.append(
                f"{where}: flow step/finish with id {flow_id!r} has no "
                f"matching 's' (start) event"
            )
    for track, spans in spans_by_track.items():
        # Sorting by (start, -duration) puts each enclosing span before
        # the spans it contains; proper nesting then means every span
        # either fits inside the open span or starts after it ends.
        spans.sort(key=lambda item: (item[0], -item[1]))
        stack: List[tuple] = []
        for start, duration, name in spans:
            end = start + duration
            while stack and start >= stack[-1][0]:
                stack.pop()
            if stack and end > stack[-1][0]:
                problems.append(
                    f"track {track}: span {name!r} [{start}, {end}] "
                    f"overlaps its enclosing span without nesting"
                )
                continue
            stack.append((end, name))
    return problems


def validate_stitched_trace(payload: Any) -> List[str]:
    """Stitching check on top of :func:`validate_chrome_trace`: every
    worker process that contributed spans must be flow-linked back to a
    request root — i.e. each worker pid with "X" events must carry at
    least one flow step/finish whose id has a matching "s" start
    (emitted by the request's owning process)."""
    problems = validate_chrome_trace(payload)
    if not isinstance(payload, dict):
        return problems
    events = payload.get("traceEvents", [])
    if not isinstance(events, list):
        return problems
    worker_pids = set()
    span_pids = set()
    flow_start_ids = set()
    flow_link_pids: Dict[Any, set] = {}
    for event in events:
        if not isinstance(event, dict):
            continue
        phase = event.get("ph")
        pid = event.get("pid")
        if phase == "M" and event.get("name") == "process_name":
            label = (event.get("args") or {}).get("name", "")
            if isinstance(label, str) and label.startswith("repro worker"):
                worker_pids.add(pid)
        elif phase == "X":
            span_pids.add(pid)
        elif phase in ("s", "t", "f") and "id" in event:
            if phase == "s":
                flow_start_ids.add(event["id"])
            # An "s" emitted by the worker itself counts as linkage
            # too: batch file roots live inside pool workers.
            flow_link_pids.setdefault(pid, set()).add(event["id"])
    for pid in sorted(worker_pids & span_pids, key=str):
        linked = flow_link_pids.get(pid, set())
        if not (linked & flow_start_ids):
            problems.append(
                f"worker pid {pid} has spans but no flow step linking "
                f"them to a request root"
            )
    return problems
