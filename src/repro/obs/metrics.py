"""Metrics registry: named counters, gauges, and histograms.

Every instrumentation point counts here: the frontend's ``parses``,
the lowerer's ``lowerings``, the memo hits, the caches' traffic, the
daemon's request counters. A ``--profile`` report's counters are the
registry's delta over the profile's lifetime
(:class:`repro.profiling.PipelineProfile`).

What the registry adds over a bare dict:

- **typed instruments** — counters only go up; gauges hold a level;
  histograms record a distribution into fixed buckets;
- **snapshot / delta / merge** — a batch worker snapshots the registry
  before each file and ships the per-file *delta* back, so per-file
  reports never over-report process-lifetime totals (the old
  ``GLOBAL_COUNTERS`` leak), and the parent merges worker deltas into
  one batch aggregate;
- **Prometheus text export** — ``repro analyze/batch --metrics FILE``
  writes the standard exposition format, scrapable as-is.

Counter updates are plain ``+=`` under the GIL, same tolerance the old
dict had; cross-file isolation comes from snapshot/delta, not from
locking.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

#: Default histogram buckets (seconds-flavored, but histograms are
#: unit-agnostic): powers-of-ten ladder wide enough for per-file wall
#: times and per-run solver visit counts alike.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0,
    500.0, 1000.0, 5000.0,
)


class Counter:
    """Monotonically increasing named value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += amount


class Gauge:
    """A level that can move both ways (pool size, queue depth)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram:
    """Fixed-bucket distribution (non-cumulative storage; the
    Prometheus renderer accumulates)."""

    __slots__ = ("name", "buckets", "counts", "sum", "count")

    def __init__(self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS):
        self.name = name
        self.buckets: Tuple[float, ...] = tuple(sorted(buckets))
        if not self.buckets:
            raise ValueError("histogram needs at least one bucket bound")
        self.counts: List[int] = [0] * (len(self.buckets) + 1)  # +1 = +Inf
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.sum += value
        self.count += 1
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[index] += 1
                return
        self.counts[-1] += 1

    def quantile(self, q: float) -> Optional[float]:
        """Prometheus-style bucket quantile: the upper bound of the
        first bucket whose cumulative count reaches ``q * count``.
        Returns None on an empty histogram; observations past the last
        finite bound clamp to it (the +Inf bucket has no upper edge)."""
        return quantile_from_counts(self.buckets, self.counts, self.count, q)

    def percentiles(
        self, quantiles: Sequence[float] = (0.5, 0.95, 0.99)
    ) -> Dict[str, Optional[float]]:
        """``{"p50": ..., "p95": ..., "p99": ...}`` convenience for
        report/SLO surfaces."""
        return {
            f"p{round(q * 100, 6):g}": self.quantile(q) for q in quantiles
        }


def quantile_from_counts(
    buckets: Sequence[float],
    counts: Sequence[int],
    count: int,
    q: float,
) -> Optional[float]:
    """Bucket-quantile shared by live :class:`Histogram` objects and
    snapshot payloads (``{"buckets", "counts", "count"}``) read back
    from artifacts. See :meth:`Histogram.quantile`."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], not {q!r}")
    if count <= 0:
        return None
    target = q * count
    cumulative = 0
    for bound, bucket_count in zip(buckets, counts):
        cumulative += bucket_count
        if cumulative and cumulative >= target:
            return float(bound)
    # Only +Inf observations remain; clamp to the largest finite bound.
    return float(buckets[-1])


class MetricsRegistry:
    """All instruments of one scope (process, or one test's sandbox)."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- instrument access (get-or-create) -----------------------------------

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(
        self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS
    ) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(name, buckets)
        return instrument

    def get_histogram(self, name: str) -> Optional[Histogram]:
        """Existing histogram ``name`` or None — a read-only probe that
        never materialises an empty instrument (unlike
        :meth:`histogram`)."""
        return self._histograms.get(name)

    # -- conveniences --------------------------------------------------------

    def inc(self, name: str, amount: int = 1) -> None:
        self.counter(name).inc(amount)

    def observe(self, name: str, value: float) -> None:
        self.histogram(name).observe(value)

    def value(self, name: str) -> int:
        """Current value of counter ``name`` (0 when never incremented)."""
        instrument = self._counters.get(name)
        return instrument.value if instrument is not None else 0

    def counters(self) -> Dict[str, int]:
        """Counter name -> value map (non-zero entries only, sorted)."""
        return {
            name: c.value
            for name, c in sorted(self._counters.items())
            if c.value
        }

    def reset(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()

    # -- snapshot / delta / merge (the batch-worker protocol) ----------------

    def snapshot(self) -> dict:
        """JSON-able full state; pairs with :meth:`delta_since` and
        :meth:`merge`."""
        return {
            "counters": {n: c.value for n, c in self._counters.items()},
            "gauges": {n: g.value for n, g in self._gauges.items()},
            "histograms": {
                n: {
                    "buckets": list(h.buckets),
                    "counts": list(h.counts),
                    "sum": h.sum,
                    "count": h.count,
                }
                for n, h in self._histograms.items()
            },
        }

    def delta_since(self, snapshot: Mapping) -> dict:
        """What changed since ``snapshot`` — the per-file isolation
        primitive: counters and histograms subtract, gauges report
        their current level. Zero-delta entries are dropped."""
        base_counters = snapshot.get("counters", {})
        counters = {
            name: counter.value - base_counters.get(name, 0)
            for name, counter in self._counters.items()
            if counter.value - base_counters.get(name, 0)
        }
        base_hists = snapshot.get("histograms", {})
        histograms = {}
        for name, hist in self._histograms.items():
            base = base_hists.get(name)
            if base is not None and list(base.get("buckets", [])) == list(
                hist.buckets
            ):
                counts = [
                    current - previous
                    for current, previous in zip(hist.counts, base["counts"])
                ]
                total = hist.count - base.get("count", 0)
                weight = hist.sum - base.get("sum", 0.0)
            else:
                counts = list(hist.counts)
                total = hist.count
                weight = hist.sum
            if total:
                histograms[name] = {
                    "buckets": list(hist.buckets),
                    "counts": counts,
                    "sum": weight,
                    "count": total,
                }
        return {
            "counters": counters,
            "gauges": {n: g.value for n, g in self._gauges.items()},
            "histograms": histograms,
        }

    def merge(self, snapshot: Mapping) -> None:
        """Fold a snapshot/delta into this registry: counters and
        histograms add; gauges keep the maximum level (the useful
        cross-worker semantics for peaks like pool size)."""
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, value in snapshot.get("gauges", {}).items():
            gauge = self.gauge(name)
            if name not in self._gauges or value > gauge.value:
                gauge.set(value)
        for name, payload in snapshot.get("histograms", {}).items():
            hist = self.histogram(name, payload.get("buckets", DEFAULT_BUCKETS))
            if list(hist.buckets) == list(payload.get("buckets", [])):
                for index, count in enumerate(payload.get("counts", [])):
                    if index < len(hist.counts):
                        hist.counts[index] += count
            hist.sum += payload.get("sum", 0.0)
            hist.count += payload.get("count", 0)

    # -- Prometheus text exposition ------------------------------------------

    def to_prometheus(self, prefix: str = "repro_") -> str:
        """Standard text exposition format (one HELP/TYPE pair per
        metric), ready for ``--metrics FILE``."""
        lines: List[str] = []
        for name in sorted(self._counters):
            metric = _sanitize(prefix + name)
            lines.append(f"# HELP {metric} repro counter {name}")
            lines.append(f"# TYPE {metric} counter")
            lines.append(f"{metric} {self._counters[name].value}")
        for name in sorted(self._gauges):
            metric = _sanitize(prefix + name)
            lines.append(f"# HELP {metric} repro gauge {name}")
            lines.append(f"# TYPE {metric} gauge")
            lines.append(f"{metric} {_format_float(self._gauges[name].value)}")
        for name in sorted(self._histograms):
            hist = self._histograms[name]
            metric = _sanitize(prefix + name)
            lines.append(f"# HELP {metric} repro histogram {name}")
            lines.append(f"# TYPE {metric} histogram")
            cumulative = 0
            for bound, count in zip(hist.buckets, hist.counts):
                cumulative += count
                lines.append(
                    f'{metric}_bucket{{le="{_format_float(bound)}"}} '
                    f"{cumulative}"
                )
            cumulative += hist.counts[-1]
            lines.append(f'{metric}_bucket{{le="+Inf"}} {cumulative}')
            lines.append(f"{metric}_sum {_format_float(hist.sum)}")
            lines.append(f"{metric}_count {hist.count}")
        return "\n".join(lines) + ("\n" if lines else "")


def _sanitize(name: str) -> str:
    """Prometheus metric names admit ``[a-zA-Z_:][a-zA-Z0-9_:]*``."""
    cleaned = "".join(
        ch if ch.isalnum() or ch in "_:" else "_" for ch in name
    )
    if cleaned and cleaned[0].isdigit():
        cleaned = "_" + cleaned
    return cleaned or "_"


def _format_float(value: float) -> str:
    """Render without a trailing ``.0`` for integral values (keeps the
    exposition stable and diff-friendly)."""
    if float(value) == int(value):
        return str(int(value))
    return repr(float(value))


#: The process-wide registry every instrumentation point shares —
#: what ``--metrics`` exports.
_DEFAULT = MetricsRegistry()

#: Thread-scoped override (a stack, so scopes nest). When a thread has
#: pushed a scope, *its* instrumentation lands in the scoped registry
#: instead of the process-wide one — this is what lets the batch thread
#: executor run files concurrently and still report exact per-file
#: deltas: snapshot/delta over the shared registry would attribute a
#: sibling thread's counters to the wrong file.
_SCOPED = threading.local()


def default_registry() -> MetricsRegistry:
    stack = getattr(_SCOPED, "stack", None)
    if stack:
        return stack[-1]
    return _DEFAULT


def global_registry() -> MetricsRegistry:
    """The process-wide registry, bypassing any thread scope."""
    return _DEFAULT


def push_scope() -> MetricsRegistry:
    """Route this thread's instrumentation into a fresh registry until
    the matching :func:`pop_scope`."""
    stack = getattr(_SCOPED, "stack", None)
    if stack is None:
        stack = _SCOPED.stack = []
    registry = MetricsRegistry()
    stack.append(registry)
    return registry


def pop_scope(merge: bool = True) -> MetricsRegistry:
    """End this thread's innermost scope. With ``merge`` (the default)
    the scoped totals are folded into the enclosing registry, so
    process-lifetime accounting still sees everything."""
    stack = getattr(_SCOPED, "stack", None)
    if not stack:
        raise RuntimeError("pop_scope without a matching push_scope")
    registry = stack.pop()
    if merge:
        default_registry().merge(registry.snapshot())
    return registry


def inc(name: str, amount: int = 1) -> None:
    default_registry().inc(name, amount)


def observe(name: str, value: float) -> None:
    default_registry().observe(name, value)


def value(name: str) -> int:
    return default_registry().value(name)


def snapshot() -> dict:
    return default_registry().snapshot()


def delta_since(snap: Mapping) -> dict:
    return default_registry().delta_since(snap)


def reset() -> None:
    default_registry().reset()
