"""Per-request latency accounting: stage timelines, a live ring
buffer, and the offline artifact joiner behind ``repro obs report``.

A :class:`RequestTimeline` follows one request through the daemon and
segments its wall time into the stage buckets the SLO surfaces report
on::

    queue  — admission to dispatch (measured by the dispatcher)
    parse  — frontend stages (parse, lower)
    solve  — IPCP stages (prepare, jump functions, propagate,
             substitution)
    opt    — the optimization pipeline (the ``opt`` stage)
    render — everything else inside the request (response encoding,
             cache serialization): total minus the accounted buckets

The request's cyclic-GC pauses are summed apart (``gc_ms``): the daemon
registers :meth:`RequestTimeline.gc_pause` in ``gc.callbacks`` for the
request's lifetime. A pause is left inside whatever stage (or bucket)
it interrupted — stage times are wall times — so ``gc_ms`` tells a
reader how much of them was the collector's, often collecting garbage
made earlier.

Stage timings come from the one stage recorder,
:func:`repro.obs.trace.stage`: the daemon pushes the request's timeline
as a stage sink on its dispatcher thread, so stage attribution is exact
even with concurrent requests in flight. Nested stages (``fingerprint``
runs inside ``prepare``) are recorded raw but left out of the bucket
sums, so buckets never double-count.

Completed timelines land in a :class:`TimelineRing` — the fixed-size
time series behind ``repro top`` and the daemon's ``obs`` protocol op.

The bottom half of the module is the offline side: classify saved
telemetry artifacts (JSONL log / Chrome trace / Prometheus text), join
them by ``request_id``, and render one per-request breakdown table —
``repro obs report``.
"""

from __future__ import annotations

import json
import re
import threading
import time
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.obs import metrics as _metrics

#: The bucket each stage (repro.ipcp.driver naming) adds to.
_STAGE_BUCKETS = {
    "parse": "parse", "lower": "parse",
    "prepare": "solve", "return_functions": "solve",
    "forward_functions": "solve", "propagate": "solve",
    "substitution": "solve",
    "opt": "opt",
}

#: The buckets a breakdown reports, in render order.
BUCKETS = ("queue", "parse", "solve", "opt", "render")


def classify_stage(name: str) -> Optional[str]:
    """Bucket for a stage name, or None for a stage no bucket reports."""
    return _STAGE_BUCKETS.get(name)


class RequestTimeline:
    """Stage accounting for one request (also its stage sink)."""

    __slots__ = (
        "request_id",
        "op",
        "path",
        "queue_s",
        "stages",
        "status",
        "replayed",
        "total_s",
        "started_at",
        "gc_s",
        "_start",
        "_sums",
        "_gc_start",
    )

    def __init__(
        self,
        request_id: str,
        op: str = "",
        path: str = "",
        queue_s: float = 0.0,
    ):
        self.request_id = request_id
        self.op = op
        self.path = path
        self.queue_s = queue_s
        self.stages: Dict[str, float] = {}
        self.status = "pending"
        self.replayed = False
        self.total_s = 0.0
        self.started_at = time.time()
        #: Seconds of cyclic-GC pauses seen by :meth:`gc_pause`.
        self.gc_s = 0.0
        self._start = time.perf_counter()
        self._sums = {"parse": 0.0, "solve": 0.0, "opt": 0.0}
        self._gc_start: Optional[float] = None

    def record_stage(self, name: str, seconds: float, nested: bool) -> None:
        """Sink protocol of :func:`repro.obs.trace.stage`: every stage
        is kept raw, only outermost ones add to a bucket."""
        self.stages[name] = self.stages.get(name, 0.0) + seconds
        bucket = None if nested else classify_stage(name)
        if bucket is not None:
            self._sums[bucket] += seconds

    def gc_pause(self, phase: str, info: dict) -> None:
        """``gc.callbacks`` protocol: sums the time between each
        collection's ``start`` and ``stop``."""
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            self.gc_s += time.perf_counter() - self._gc_start
            self._gc_start = None

    # -- lifecycle -----------------------------------------------------------

    def finish(self, status: str, replayed: bool = False) -> None:
        self.status = status
        self.replayed = replayed
        self.total_s = time.perf_counter() - self._start

    def buckets(self) -> Dict[str, float]:
        """Bucketed seconds; ``render`` absorbs whatever the stages did
        not account for (never negative)."""
        sums = self._sums
        accounted = sums["parse"] + sums["solve"] + sums["opt"]
        return {
            "queue": self.queue_s,
            "parse": sums["parse"],
            "solve": sums["solve"],
            "opt": sums["opt"],
            "render": max(0.0, self.total_s - accounted),
        }

    def entry(self) -> Dict[str, Any]:
        """Flat millisecond record for the ring buffer, the
        ``request.end`` log record, and the slow-request dump."""
        buckets = self.buckets()
        record: Dict[str, Any] = {
            "request_id": self.request_id,
            "op": self.op,
            "path": self.path,
            "status": self.status,
            "replayed": self.replayed,
            "ts": round(self.started_at, 6),
        }
        for bucket in BUCKETS:
            record[f"{bucket}_ms"] = round(buckets[bucket] * 1000.0, 3)
        record["total_ms"] = round(
            (self.queue_s + self.total_s) * 1000.0, 3
        )
        record["gc_ms"] = round(self.gc_s * 1000.0, 3)
        return record


# -- the live time series -----------------------------------------------------


class TimelineRing:
    """Fixed-capacity ring of completed request entries (newest kept),
    safe for one writer thread + concurrent readers."""

    def __init__(self, capacity: int = 256):
        if capacity < 1:
            raise ValueError("ring capacity must be >= 1")
        self.capacity = capacity
        self._entries: List[Dict[str, Any]] = []
        self._lock = threading.Lock()
        self.total_added = 0

    def add(self, entry: Dict[str, Any]) -> None:
        with self._lock:
            self._entries.append(entry)
            self.total_added += 1
            if len(self._entries) > self.capacity:
                del self._entries[: len(self._entries) - self.capacity]

    def entries(self, limit: Optional[int] = None) -> List[Dict[str, Any]]:
        """Oldest→newest; ``limit`` keeps the newest N."""
        with self._lock:
            entries = list(self._entries)
        if limit is not None and limit >= 0:
            entries = entries[len(entries) - min(limit, len(entries)):]
        return entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


# -- offline artifact analysis (repro obs report) -----------------------------


def classify_artifact(text: str) -> str:
    """``"trace"`` / ``"log"`` / ``"metrics"`` / ``"unknown"`` from
    content alone, so report arguments need no flags."""
    stripped = text.lstrip()
    if not stripped:
        return "unknown"
    if stripped.startswith("{"):
        try:
            payload = json.loads(stripped.split("\n", 1)[0])
        except ValueError:
            payload = None
        if isinstance(payload, dict):
            if "traceEvents" in payload:
                return "trace"
            if "v" in payload and "event" in payload:
                return "log"
        # multi-line pretty-printed JSON: try the whole text
        try:
            payload = json.loads(stripped)
        except ValueError:
            return "unknown"
        return "trace" if isinstance(payload, dict) and "traceEvents" in payload else "unknown"
    if stripped.startswith("#") or re.match(r"^[a-zA-Z_:]", stripped):
        return "metrics"
    return "unknown"


def load_artifact(path: str) -> Tuple[str, Any]:
    """Read + classify + parse one artifact file. Returns
    ``(kind, parsed)`` where parsed is trace payload dict / list of
    log records / prometheus text."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    kind = classify_artifact(text)
    if kind == "trace":
        return kind, json.loads(text)
    if kind == "log":
        records = []
        for line in text.splitlines():
            line = line.strip()
            if line:
                records.append(json.loads(line))
        return kind, records
    return kind, text


_PROM_BUCKET = re.compile(
    r'^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)_bucket\{le="(?P<le>[^"]+)"\}\s+'
    r"(?P<value>\d+)\s*$"
)
_PROM_COUNT = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)_count\s+(?P<value>\d+)\s*$"
)


def parse_prometheus_histograms(text: str) -> Dict[str, dict]:
    """Histogram payloads (``{"buckets", "counts", "count"}``, bucket
    counts de-cumulated) from Prometheus text exposition — enough to
    recompute quantiles offline."""
    cumulative: Dict[str, List[Tuple[float, int]]] = {}
    totals: Dict[str, int] = {}
    for line in text.splitlines():
        match = _PROM_BUCKET.match(line)
        if match:
            name = match.group("name")
            le = match.group("le")
            bound = float("inf") if le == "+Inf" else float(le)
            cumulative.setdefault(name, []).append(
                (bound, int(match.group("value")))
            )
            continue
        match = _PROM_COUNT.match(line)
        if match:
            totals[match.group("name")] = int(match.group("value"))
    histograms: Dict[str, dict] = {}
    for name, pairs in cumulative.items():
        pairs.sort(key=lambda item: item[0])
        finite = [(bound, value) for bound, value in pairs if bound != float("inf")]
        counts: List[int] = []
        previous = 0
        for _, value in finite:
            counts.append(value - previous)
            previous = value
        total = totals.get(name, pairs[-1][1] if pairs else 0)
        counts.append(total - previous)  # the +Inf bucket
        histograms[name] = {
            "buckets": [bound for bound, _ in finite],
            "counts": counts,
            "count": total,
        }
    return histograms


def build_report(artifacts: Iterable[Tuple[str, Any]]) -> Dict[str, Any]:
    """Join parsed artifacts by request_id.

    Returns ``{"requests": [row...], "histograms": {...}}`` where each
    row is a per-request breakdown assembled preferentially from the
    log's ``request.end`` record, with the trace contributing the root
    span duration and the number of worker processes flow-linked to the
    request.
    """
    rows: Dict[str, Dict[str, Any]] = {}
    histograms: Dict[str, dict] = {}

    def row(request_id: str) -> Dict[str, Any]:
        existing = rows.get(request_id)
        if existing is None:
            existing = rows[request_id] = {
                "request_id": request_id,
                "sources": set(),
            }
        return existing

    for kind, parsed in artifacts:
        if kind == "log":
            for record in parsed:
                request_id = record.get("request_id")
                if not request_id or request_id == "-":
                    continue
                event = record.get("event", "")
                if event == "request.start":
                    target = row(request_id)
                    target.setdefault("op", record.get("op", ""))
                    target.setdefault("path", record.get("path", ""))
                    target["sources"].add("log")
                elif event in ("request.end", "request.slow"):
                    target = row(request_id)
                    target["sources"].add("log")
                    for field in (
                        "op", "path", "status", "replayed",
                        "queue_ms", "parse_ms", "solve_ms", "opt_ms",
                        "render_ms", "total_ms",
                    ):
                        if field in record:
                            target[field] = record[field]
                    if event == "request.slow":
                        target["slow"] = True
                elif event == "cli.start":
                    target = row(request_id)
                    target.setdefault("op", record.get("command", ""))
                    target["sources"].add("log")
                elif event == "cli.end":
                    target = row(request_id)
                    target["sources"].add("log")
                    code = record.get("exit_code")
                    target.setdefault(
                        "status",
                        "ok" if code == 0 else f"exit {code}",
                    )
        elif kind == "trace":
            events = parsed.get("traceEvents", [])
            flow_to_request: Dict[Any, str] = {}
            for event in events:
                if event.get("ph") == "s" and "id" in event:
                    request_id = (event.get("args") or {}).get("request_id")
                    if request_id:
                        flow_to_request[event["id"]] = request_id
            worker_pids: Dict[str, set] = {}
            for event in events:
                phase = event.get("ph")
                args = event.get("args") or {}
                if phase == "X" and args.get("request_id"):
                    target = row(args["request_id"])
                    target["sources"].add("trace")
                    target["trace_total_ms"] = round(
                        event.get("dur", 0) / 1000.0, 3
                    )
                    if args.get("op"):
                        target.setdefault("op", args["op"])
                    if args.get("path"):
                        target.setdefault("path", args["path"])
                    if not target.get("op"):
                        target["op"] = event.get("name", "")
                elif phase in ("t", "f") and event.get("id") in flow_to_request:
                    request_id = flow_to_request[event["id"]]
                    worker_pids.setdefault(request_id, set()).add(
                        event.get("pid")
                    )
            for request_id, pids in worker_pids.items():
                target = row(request_id)
                target["sources"].add("trace")
                target["workers"] = len(pids)
        elif kind == "metrics":
            for name, payload in parse_prometheus_histograms(parsed).items():
                histograms[name] = payload

    ordered = [rows[key] for key in sorted(rows)]
    for target in ordered:
        target["sources"] = "".join(
            flag for flag, source in (("L", "log"), ("T", "trace"))
            if source in target["sources"]
        )
    return {"requests": ordered, "histograms": histograms}


def _format_ms(value: Any) -> str:
    if value is None or value == "":
        return "-"
    return f"{float(value):.1f}"


def render_report(report: Dict[str, Any]) -> str:
    """The ``repro obs report`` table: one line per request plus a
    quantile footer for any histograms found in metrics artifacts."""
    lines: List[str] = []
    header = (
        f"{'request':<10} {'op':<16} {'status':<8} {'src':<4} "
        f"{'queue':>8} {'parse':>8} {'solve':>8} {'opt':>8} "
        f"{'render':>8} {'total':>9}  path"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for target in report.get("requests", []):
        total = target.get("total_ms", target.get("trace_total_ms"))
        flags = target.get("sources", "")
        if target.get("slow"):
            flags += "!"
        lines.append(
            f"{target.get('request_id', '?'):<10} "
            f"{str(target.get('op', '')):<16} "
            f"{str(target.get('status', '?')):<8} "
            f"{flags:<4} "
            f"{_format_ms(target.get('queue_ms')):>8} "
            f"{_format_ms(target.get('parse_ms')):>8} "
            f"{_format_ms(target.get('solve_ms')):>8} "
            f"{_format_ms(target.get('opt_ms')):>8} "
            f"{_format_ms(target.get('render_ms')):>8} "
            f"{_format_ms(total):>9}  "
            f"{target.get('path', '')}"
        )
    if not report.get("requests"):
        lines.append("(no correlated requests found)")
    histograms = report.get("histograms", {})
    latency = {
        name: payload
        for name, payload in sorted(histograms.items())
        if "seconds" in name
    }
    if latency:
        lines.append("")
        lines.append("latency quantiles (from metrics artifacts):")
        for name, payload in latency.items():
            quantiles = []
            for q, label in ((0.5, "p50"), (0.95, "p95"), (0.99, "p99")):
                value = _metrics.quantile_from_counts(
                    payload["buckets"], payload["counts"],
                    payload["count"], q,
                )
                quantiles.append(
                    f"{label}<={value * 1000.0:g}ms"
                    if value is not None else f"{label}=-"
                )
            lines.append(
                f"  {name}: count={payload['count']} "
                + " ".join(quantiles)
            )
    return "\n".join(lines) + "\n"
