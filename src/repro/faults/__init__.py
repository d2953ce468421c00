"""Deterministic fault injection for the robustness test matrix.

A long-lived analysis service cannot treat worker crashes, torn cache
entries, or slow requests as exceptional — they are steady-state
events, and every degradation path the system promises ("rebuild the
pool once, then fall back to serial"; "a corrupt cache entry is a
miss") must be *exercised*, not trusted. This module is the switchboard
that makes those events reproducible: production code calls cheap,
named injection points, and a test (or an operator running a chaos
drill) arms specific faults at specific occurrences.

A **fault spec** is ``point:key=value,key=value,...``. The point names
what breaks; the parameters say where and when:

- ``kill-worker`` — SIGKILL the current *batch pool worker* process
  (never the host process) as it starts a file (``stage=batch``,
  ``path=P``);
- ``truncate-cache`` / ``corrupt-cache`` — tear or bit-rot a cache
  entry as it is written (detected later by the checksum layer);
- ``fail-write`` — the cache write raises ``OSError`` (full disk);
- ``delay-request`` — sleep ``ms=M`` inside the daemon's request
  lifecycle (``op=analyze`` etc.) — how deadline expiry is tested;
- ``delay-file`` — sleep ``ms=M`` per batch/serve file analysis — how
  drain-under-load and signal handling are tested.

Triggering is deterministic:

- **match parameters** (``stage``, ``op``, ``path``, ``namespace``)
  restrict the spec to call sites whose context carries equal values;
  a context that lacks the key never matches;
- ``nth=K`` fires on exactly the Kth match (per process — each pool
  worker counts its own matches);
- ``flag=PATH`` fires only while the file at PATH exists and consumes
  it atomically (``os.unlink``), giving *fire-once-globally* semantics
  across a pool of worker processes: exactly one worker wins the
  unlink, every retry after it sees the fault disarmed.

Activation: :func:`install` (used by ``--inject-fault``) or the
``REPRO_FAULTS`` environment variable (specs joined with ``;``), which
spawn-context pool workers re-read on import so injection crosses
process boundaries either way. With no plan armed, every injection
point is a single ``None`` check.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

#: Environment variable carrying the armed plan across processes.
ENV_VAR = "REPRO_FAULTS"

#: Spec parameters that must equal the call-site context to match.
MATCH_KEYS = ("stage", "op", "path", "namespace")

#: Known injection points (parse-time typo guard).
POINTS = (
    "kill-worker",
    "truncate-cache",
    "corrupt-cache",
    "fail-write",
    "delay-request",
    "delay-file",
)


class FaultSpecError(ValueError):
    """A fault spec string that does not parse."""


@dataclass
class FaultSpec:
    """One armed fault: an injection point plus trigger parameters."""

    point: str
    params: Dict[str, str] = field(default_factory=dict)
    #: Matches seen so far (``nth`` counts against this).
    hits: int = 0
    #: Times this spec actually fired.
    fired: int = 0

    def describe(self) -> str:
        if not self.params:
            return self.point
        rendered = ",".join(
            f"{key}={self.params[key]}" for key in sorted(self.params)
        )
        return f"{self.point}:{rendered}"

    def matches(self, context: Dict[str, object]) -> bool:
        for key in MATCH_KEYS:
            wanted = self.params.get(key)
            if wanted is None:
                continue
            if key not in context or str(context[key]) != wanted:
                return False
        return True


def parse_spec(text: str) -> FaultSpec:
    """Parse one ``point:key=value,...`` spec string."""
    text = text.strip()
    if not text:
        raise FaultSpecError("empty fault spec")
    point, _, rest = text.partition(":")
    point = point.strip()
    if point not in POINTS:
        raise FaultSpecError(
            f"unknown fault point {point!r} (known: {', '.join(POINTS)})"
        )
    params: Dict[str, str] = {}
    if rest.strip():
        for item in rest.split(","):
            key, separator, value = item.partition("=")
            if not separator or not key.strip():
                raise FaultSpecError(
                    f"malformed fault parameter {item!r} in {text!r}"
                )
            params[key.strip()] = value.strip()
    for key in ("nth", "ms"):
        if key in params:
            try:
                int(params[key])
            except ValueError:
                raise FaultSpecError(
                    f"fault parameter {key}={params[key]!r} is not an integer"
                ) from None
    return FaultSpec(point=point, params=params)


def parse_plan(text: str) -> List[FaultSpec]:
    """Parse a ``;``-separated plan string (blank segments skipped)."""
    specs = []
    for segment in text.split(";"):
        if segment.strip():
            specs.append(parse_spec(segment))
    return specs


class FaultPlan:
    """All armed specs of one process, with deterministic triggering."""

    def __init__(self, specs: List[FaultSpec]):
        self.specs = specs
        self._lock = threading.Lock()

    def describe(self) -> List[str]:
        return [spec.describe() for spec in self.specs]

    def fire(self, point: str, **context) -> Optional[FaultSpec]:
        """The first armed spec for ``point`` that matches ``context``
        and whose trigger condition holds, or None. Firing is recorded
        on the spec and in the metrics registry
        (``faults_fired_<point>``)."""
        for spec in self.specs:
            if spec.point != point or not spec.matches(context):
                continue
            with self._lock:
                spec.hits += 1
                hits = spec.hits
            nth = spec.params.get("nth")
            if nth is not None and hits != int(nth):
                continue
            flag = spec.params.get("flag")
            if flag is not None and not _consume_flag(flag):
                continue
            with self._lock:
                spec.fired += 1
            _note_fired(point)
            return spec
        return None


def _consume_flag(path: str) -> bool:
    """Atomically consume the flag file; only one process wins."""
    try:
        os.unlink(path)
    except OSError:
        return False
    return True


def _note_fired(point: str) -> None:
    from repro.obs import metrics, trace

    metrics.inc("faults_fired")
    metrics.inc(f"faults_fired_{point.replace('-', '_')}")
    if trace.ENABLED:
        trace.instant("fault.fired", point=point)


def _plan_from_env() -> Optional[FaultPlan]:
    text = os.environ.get(ENV_VAR)
    if not text:
        return None
    try:
        specs = parse_plan(text)
    except FaultSpecError:
        # A malformed env plan must never take down an analysis that
        # did not opt into faults; it is simply not armed.
        return None
    return FaultPlan(specs) if specs else None


#: The process's armed plan (None = everything disabled). Initialized
#: from the environment at import so spawn-context pool workers arm
#: themselves; fork children simply inherit the parent's object.
_PLAN: Optional[FaultPlan] = _plan_from_env()

#: PID of the process that armed the plan — ``kill-worker`` refuses to
#: kill it (only *pool workers* die, never the host/parent process).
_HOST_PID: int = os.getpid()


def install(specs, export_env: bool = True) -> FaultPlan:
    """Arm a plan in this process (and, via the environment, in any
    worker process started afterwards). ``specs`` is a plan string or
    an iterable of spec strings/:class:`FaultSpec` objects."""
    global _PLAN, _HOST_PID
    if isinstance(specs, str):
        parsed = parse_plan(specs)
    else:
        parsed = [
            spec if isinstance(spec, FaultSpec) else parse_spec(spec)
            for spec in specs
        ]
    _PLAN = FaultPlan(parsed) if parsed else None
    _HOST_PID = os.getpid()
    if export_env:
        if _PLAN is None:
            os.environ.pop(ENV_VAR, None)
        else:
            os.environ[ENV_VAR] = ";".join(_PLAN.describe())
    return _PLAN if _PLAN is not None else FaultPlan([])


def clear() -> None:
    """Disarm everything (tests call this between cases)."""
    global _PLAN
    _PLAN = None
    os.environ.pop(ENV_VAR, None)


def active() -> Optional[FaultPlan]:
    return _PLAN


def fire(point: str, **context) -> Optional[FaultSpec]:
    """Hot-path injection check: one ``is None`` test when disarmed."""
    if _PLAN is None:
        return None
    return _PLAN.fire(point, **context)


def delay(point: str, **context) -> float:
    """Sleep ``ms`` at a delay point; returns the seconds slept."""
    spec = fire(point, **context)
    if spec is None:
        return 0.0
    seconds = int(spec.params.get("ms", "0")) / 1000.0
    if seconds > 0:
        time.sleep(seconds)
    return seconds


def maybe_kill_worker(**context) -> None:
    """``kill-worker`` point: SIGKILL the current process — but only
    when it is a *pool worker* (its pid differs from the host process
    that armed the plan). The host process never self-destructs, so an
    inline/thread-executor batch ignores the fault instead of dying."""
    if _PLAN is None:
        return
    spec = _PLAN.fire("kill-worker", **context)
    if spec is None:
        return
    if os.getpid() == _HOST_PID:
        return
    import signal

    os.kill(os.getpid(), signal.SIGKILL)
