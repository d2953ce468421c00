"""The analysis daemon: a long-lived, fault-tolerant ``repro`` server.

One :class:`ReproServer` owns a unix listening socket, a bounded
request queue, and a single dispatcher thread driving a persistent
:class:`~repro.engine.core.Engine` (summary + run caches). Connection
handler threads do only cheap work — frame
parsing, admission control — so a slow analysis can never stop the
daemon from *answering* (with a shed or shutdown error) even while it
is busy.

The robustness core, mapped to code:

- **bounded queue, explicit shedding** — admission is ``put_nowait``
  into a queue of ``queue_limit`` tickets; a full queue answers
  ``overloaded`` with a ``retry_after`` hint immediately. The daemon
  never builds an unbounded backlog, so its memory and its worst-case
  latency stay bounded under any client load.
- **deadlines with cooperative cancellation** — every ticket carries a
  :class:`~repro.serve.lifecycle.Deadline` (per-request override or
  server default), checked at lifecycle checkpoints and between the
  engine's SCCs and procedures (its ``checkpoint`` hook). Expiry unwinds
  into a ``deadline_expired`` error; the abandoned work was idempotent
  cache-backed computation, so nothing is torn.
- **cache-integrity quarantine** — corrupt summary/run entries are
  detected by checksum at read time, quarantined as ``.corrupt``
  sidecars, and recomputed (``cache_quarantined`` counter).
- **graceful drain** — SIGTERM/SIGINT (or a ``shutdown`` request) stop
  admission, let in-flight and queued work finish within
  ``drain_timeout_s``, cancel the rest with ``shutting_down``, flush
  the ``--metrics``/``--trace`` artifacts, and exit with the
  conventional code (0 requested, 130 SIGINT, 143 SIGTERM).
"""

from __future__ import annotations

import json
import os
import queue
import socket
import sys
import threading
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro import faults, pipeline
from repro.config import AnalysisConfig
from repro.engine.core import Engine
from repro.frontend.errors import FrontendError
from repro.obs import context as obs_context
from repro.obs import log as obs_log
from repro.obs import metrics as obs_metrics
from repro.obs import timeline as obs_timeline
from repro.obs import trace
from repro.serve import protocol
from repro.serve.lifecycle import Cancelled, Deadline, DeadlineExpired, Ticket

#: Exit codes of :meth:`ReproServer.serve_forever`.
EXIT_OK = 0
EXIT_SIGINT = 130
EXIT_SIGTERM = 143

#: Counter-name prefixes surfaced by the ``status`` op.
_STATUS_COUNTER_PREFIXES = (
    "serve_", "batch_pool_", "cache_", "faults_", "recomputed_",
    "run_cache_", "summary_cache_", "demotions_",
)
#: The counters of the ``status`` op's ``cache`` field: hits, misses and
#: stores per cache namespace, quarantined entries and failed stores.
_CACHE_COUNTER_PREFIXES = (
    "summary_cache_", "run_cache_", "opt_cache_", "cache_",
)


@dataclass
class ServeConfig:
    """Everything one daemon instance needs to run."""

    socket_path: str
    analysis: AnalysisConfig = field(default_factory=AnalysisConfig)
    cache_dir: Optional[str] = None
    queue_limit: int = 16
    default_deadline_s: Optional[float] = 30.0
    drain_timeout_s: float = 5.0
    metrics_path: Optional[str] = None
    trace_path: Optional[str] = None
    #: Structured JSONL log destination (path or ``"-"`` for stderr).
    log_path: Optional[str] = None
    log_level: str = "info"
    #: Requests slower than this (queue + service, seconds) emit a
    #: ``request.slow`` log record with their stage timings and
    #: cache-hit profile. None disables the slow-request log.
    slow_request_s: Optional[float] = None
    #: Capacity of the per-request ring buffer behind ``repro top``
    #: and the ``obs`` protocol op.
    obs_window: int = 256


class SocketBusyError(RuntimeError):
    """Another live daemon already serves on the requested socket."""


class ReproServer:
    """See module docstring. Lifecycle: :meth:`start` → requests →
    :meth:`request_stop` (signal, ``shutdown`` op, or test) →
    :meth:`finish`; :meth:`serve_forever` bundles all four for the CLI.
    """

    def __init__(self, config: ServeConfig):
        self.config = config
        self.engine = Engine(cache_dir=config.cache_dir)
        self._queue: "queue.Queue[Ticket]" = queue.Queue(
            maxsize=max(1, config.queue_limit)
        )
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._dispatch_thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._done = threading.Event()
        self._exit_code = EXIT_OK
        self._exit_lock = threading.Lock()
        self._stop_requested = False
        self._drain_deadline: Optional[Deadline] = None
        self._tracer = None
        self._logger = None
        self._registry = obs_metrics.default_registry()
        # The registry is process-global; baseline it so the ``obs``
        # op reports this server's lifetime only, not whatever an
        # earlier daemon in the same process already observed.
        self._metrics_baseline = self._registry.snapshot()
        # Request-scoped telemetry: monotonically numbered request ids
        # under one session trace id, a per-request ring buffer behind
        # the ``obs`` op, and the idle context every server thread
        # carries when no request is in flight.
        self._request_seq = 0
        self._seq_lock = threading.Lock()
        self._session_trace_id = f"s-{os.getpid()}"
        self._server_ctx = obs_context.RequestContext(
            "server", self._session_trace_id
        )
        self._ring = obs_timeline.TimelineRing(max(1, config.obs_window))

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Bind the socket and start the accept + dispatcher threads."""
        if self.config.trace_path is not None:
            self._tracer = trace.enable()
        if self.config.log_path is not None:
            self._logger = obs_log.enable(
                self.config.log_path, level=self.config.log_level
            )
        obs_context.set_context(self._server_ctx)
        if obs_log.ENABLED:
            obs_log.info(
                "server.start",
                socket=self.config.socket_path,
                queue_limit=self.config.queue_limit,
            )
        self._listener = self._bind(self.config.socket_path)
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-serve-accept", daemon=True
        )
        self._dispatch_thread = threading.Thread(
            target=self._dispatch_loop, name="repro-serve-dispatch",
            daemon=True,
        )
        self._accept_thread.start()
        self._dispatch_thread.start()

    @staticmethod
    def _bind(path: str) -> socket.socket:
        """Bind the unix socket, reclaiming a stale file but refusing
        to steal a live daemon's socket."""
        if os.path.exists(path):
            probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                probe.settimeout(0.5)
                probe.connect(path)
            except OSError:
                os.unlink(path)  # stale leftover from a dead daemon
            else:
                probe.close()
                raise SocketBusyError(
                    f"another daemon is already serving on {path!r}"
                )
            finally:
                probe.close()
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        listener.bind(path)
        listener.listen(64)
        listener.settimeout(0.2)
        return listener

    def request_stop(self, exit_code: int = EXIT_OK) -> None:
        """Begin the drain; the first requested exit code wins (a
        SIGTERM arriving during a ``shutdown``-requested drain does not
        rewrite history)."""
        with self._exit_lock:
            if not self._stop_requested:
                self._stop_requested = True
                self._exit_code = exit_code
                self._drain_deadline = Deadline(self.config.drain_timeout_s)
        self._stop.set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        return self._stop.wait(timeout)

    def finish(self) -> int:
        """Complete the drain: join the worker threads, reject whatever
        could not be served, flush observability artifacts, release the
        engine and the socket. Returns the exit code."""
        self._stop.set()
        if self._dispatch_thread is not None:
            grace = self.config.drain_timeout_s + 2.0
            self._dispatch_thread.join(timeout=grace)
        self._done.set()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=2.0)
        while True:  # anything still queued is now unservable
            try:
                ticket = self._queue.get_nowait()
            except queue.Empty:
                break
            self._reject_draining(ticket)
        self.engine.close()
        self._flush_artifacts()
        try:
            os.unlink(self.config.socket_path)
        except OSError:
            pass
        return self._exit_code

    def serve_forever(self, install_signals: bool = True) -> int:
        """The CLI entry point: run until a signal or ``shutdown``
        request, then drain and return the exit code."""
        import signal

        if install_signals:
            signal.signal(
                signal.SIGTERM,
                lambda signum, frame: self.request_stop(EXIT_SIGTERM),
            )
            signal.signal(
                signal.SIGINT,
                lambda signum, frame: self.request_stop(EXIT_SIGINT),
            )
        self.start()
        print(
            f"[repro serve: listening on {self.config.socket_path} "
            f"(queue={self.config.queue_limit})]",
            file=sys.stderr,
        )
        while not self._stop.wait(0.2):
            pass
        code = self.finish()
        print(
            f"[repro serve: drained, exit {code}]", file=sys.stderr
        )
        return code

    def _flush_artifacts(self) -> None:
        """Flush ``--metrics``/``--trace`` on the way out — the drain
        contract says the artifacts of a killed daemon are still valid,
        just truncated at the drain point."""
        if self.config.metrics_path is not None:
            try:
                with open(
                    self.config.metrics_path, "w", encoding="utf-8"
                ) as handle:
                    handle.write(self._registry.to_prometheus())
            except OSError:
                pass
        if self._tracer is not None:
            trace.disable()
            try:
                with open(
                    self.config.trace_path, "w", encoding="utf-8"
                ) as handle:
                    json.dump(self._tracer.to_chrome(), handle)
                    handle.write("\n")
            except OSError:
                pass
            self._tracer = None
        if self._logger is not None:
            obs_log.info(
                "server.stop",
                exit_code=self._exit_code,
                requests_seen=self._ring.total_added,
            )
            obs_log.disable()
            self._logger = None
        # Drop the server context so a host process (tests, a CLI that
        # embeds the daemon) is not left with this session's ids.
        if obs_context.current() is self._server_ctx:
            obs_context.clear()

    # -- admission (connection threads) --------------------------------------

    def _accept_loop(self) -> None:
        # Keeps accepting through the drain (until finish() closes the
        # listener): a draining server answers every knock with an
        # explicit ``shutting_down``, it does not leave clients hanging
        # in the listen backlog.
        while not self._done.is_set():
            try:
                connection, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            handler = threading.Thread(
                target=self._handle_connection,
                args=(connection,),
                name="repro-serve-conn",
                daemon=True,
            )
            handler.start()

    def _handle_connection(self, connection: socket.socket) -> None:
        # Pin this handler thread to the idle server context: while a
        # request is being executed the dispatcher installs that
        # request's context as the process global, and an unpinned
        # handler thread would fall through to it and mis-attribute its
        # own records.
        obs_context.set_thread_context(self._server_ctx)
        write_lock = threading.Lock()

        def respond(message: dict) -> None:
            payload = protocol.encode_message(message)
            try:
                with write_lock:
                    connection.sendall(payload)
            except OSError:
                obs_metrics.inc("serve_client_gone")

        stream = connection.makefile("rb")
        try:
            while True:
                line = stream.readline(protocol.MAX_FRAME + 1)
                if not line:
                    break
                if not line.strip():
                    continue
                self._admit(line, respond)
        except OSError:
            pass
        finally:
            try:
                stream.close()
                connection.close()
            except OSError:
                pass

    def _admit(self, line: bytes, respond) -> None:
        """Parse one frame and either enqueue it or answer immediately
        (malformed, draining, or shed)."""
        try:
            request = protocol.parse_request(protocol.decode_frame(line))
        except protocol.ProtocolError as err:
            obs_metrics.inc("serve_bad_requests")
            if obs_log.ENABLED:
                obs_log.warn("request.rejected", reason="bad_request",
                             error=str(err))
            respond(
                protocol.error_response(
                    None, protocol.E_BAD_REQUEST, str(err)
                )
            )
            return
        if self._stop.is_set():
            respond(
                protocol.error_response(
                    request.id, protocol.E_SHUTTING_DOWN,
                    "server is draining", op=request.op,
                )
            )
            return
        with self._seq_lock:
            self._request_seq += 1
            request_id = f"r{self._request_seq:06d}"
        ticket = Ticket(
            request=request,
            deadline=Deadline.from_request(
                request, self.config.default_deadline_s
            ),
            respond=respond,
            request_id=request_id,
        )
        try:
            self._queue.put_nowait(ticket)
        except queue.Full:
            obs_metrics.inc("serve_shed")
            if obs_log.ENABLED:
                # explicit request_id: the shed request never reaches
                # the dispatcher, so no context is ever installed for it
                obs_log.warn(
                    "request.shed", request_id=request_id, op=request.op,
                    queue_limit=self.config.queue_limit,
                )
            respond(
                protocol.error_response(
                    request.id, protocol.E_OVERLOADED,
                    f"request queue full ({self.config.queue_limit})",
                    op=request.op,
                    retry_after=round(
                        0.05 * max(1, self._queue.qsize()), 3
                    ),
                )
            )
            return
        self._registry.gauge("serve_queue_depth").set(self._queue.qsize())

    # -- dispatch (the single analysis thread) -------------------------------

    def _dispatch_loop(self) -> None:
        while True:
            try:
                ticket = self._queue.get(timeout=0.1)
            except queue.Empty:
                if self._stop.is_set():
                    return
                continue
            self._registry.gauge("serve_queue_depth").set(self._queue.qsize())
            if self._drain_expired():
                self._reject_draining(ticket)
                continue
            self._execute(ticket)

    def _drain_expired(self) -> bool:
        return (
            self._stop.is_set()
            and self._drain_deadline is not None
            and self._drain_deadline.expired
        )

    def _drain_check(self) -> None:
        if self._drain_expired():
            raise Cancelled()

    def _reject_draining(self, ticket: Ticket) -> None:
        obs_metrics.inc("serve_cancelled_drain")
        ticket.respond(
            protocol.error_response(
                ticket.request.id, protocol.E_SHUTTING_DOWN,
                "server drained before this request could run",
                op=ticket.request.op,
            )
        )

    def _execute(self, ticket: Ticket) -> None:
        request = ticket.request
        queue_s = ticket.queue_seconds()
        obs_metrics.inc("serve_requests")
        obs_metrics.inc(f"serve_requests_{request.op}")
        self._registry.observe("serve_queue_seconds", queue_s)
        # Request-scoped telemetry bracket: install the request's
        # correlation context on both layers, record its pipeline
        # stages into a timeline, and scope the metrics registry so
        # concurrent handler-thread counters (sheds, bad frames) can
        # never leak into this request's per-request delta.
        request_id = ticket.request_id or "r?"
        request_ctx = obs_context.RequestContext(
            request_id, self._session_trace_id
        )
        obs_context.set_context(request_ctx)
        timeline = obs_timeline.RequestTimeline(
            request_id, op=request.op, path=request.path or "",
            queue_s=queue_s,
        )
        trace.push_sink(timeline)
        scoped = obs_metrics.push_scope()
        if obs_log.ENABLED:
            obs_log.info(
                "request.start", op=request.op, path=request.path or "",
                queue_ms=round(queue_s * 1000.0, 3),
            )
        status = "ok"
        replayed = False
        try:
            with trace.span(
                "serve.request", op=request.op, path=request.path or "",
                request_id=request_id,
            ):
                if trace.ENABLED:
                    # Root of this request's flow: the "s" event maps
                    # the flow id to the request id.
                    flow = obs_context.flow_id(request_id)
                    trace.flow(
                        "request", "s", flow,
                        request_id=request_id, op=request.op,
                    )
                try:
                    ticket.deadline.check("queued")
                    faults.delay(
                        "delay-request", op=request.op,
                        path=request.path or "",
                    )
                    ticket.deadline.check("start")
                    result, degraded = self._dispatch_op(
                        request, ticket.deadline
                    )
                    response = protocol.ok_response(
                        request.id, request.op, result, degraded
                    )
                    obs_metrics.inc("serve_ok")
                    if isinstance(result, dict):
                        status = str(result.get("status", "ok"))
                        replayed = bool(result.get("replayed", False))
                except DeadlineExpired as err:
                    status = "deadline_expired"
                    obs_metrics.inc("serve_deadline_expired")
                    response = protocol.error_response(
                        request.id, protocol.E_DEADLINE, str(err),
                        op=request.op,
                    )
                except Cancelled:
                    status = "cancelled_drain"
                    obs_metrics.inc("serve_cancelled_drain")
                    response = protocol.error_response(
                        request.id, protocol.E_SHUTTING_DOWN,
                        "server drained mid-request", op=request.op,
                    )
                except protocol.ProtocolError as err:
                    status = "bad_request"
                    obs_metrics.inc("serve_bad_requests")
                    response = protocol.error_response(
                        request.id, protocol.E_BAD_REQUEST, str(err),
                        op=request.op,
                    )
                except Exception as err:  # noqa: BLE001 — one bad request
                    # must never take the dispatcher (and the daemon)
                    # down.
                    status = "internal_error"
                    obs_metrics.inc("serve_internal_errors")
                    response = protocol.error_response(
                        request.id, protocol.E_INTERNAL,
                        f"{type(err).__name__}: {err}", op=request.op,
                    )
                if trace.ENABLED:
                    trace.flow(
                        "request", "f", obs_context.flow_id(request_id)
                    )
        finally:
            obs_metrics.pop_scope(merge=True)
            trace.pop_sink()
            obs_context.set_context(self._server_ctx)
        timeline.finish(status, replayed=replayed)
        self._registry.observe("serve_request_seconds", timeline.total_s)
        self._finish_request_telemetry(timeline, scoped)
        ticket.respond(response)

    def _finish_request_telemetry(self, timeline, scoped) -> None:
        """Post-request accounting: stage-bucket histograms, the ring
        entry behind ``repro top``/``obs``, and the slow-request log."""
        buckets = timeline.buckets()
        for bucket, seconds in buckets.items():
            self._registry.observe(
                f"serve_stage_{bucket}_seconds", seconds
            )
        entry = timeline.entry()
        self._ring.add(entry)
        if obs_log.ENABLED:
            obs_log.info(
                "request.end",
                **{
                    key: value
                    for key, value in entry.items()
                    if key not in ("ts",)
                },
            )
        threshold = self.config.slow_request_s
        total_s = timeline.queue_s + timeline.total_s
        if threshold is not None and total_s >= threshold:
            obs_metrics.inc("serve_slow_requests")
            if obs_log.ENABLED:
                cache_profile = {
                    name: value
                    for name, value in scoped.counters().items()
                    if name.startswith(
                        ("cache_", "run_cache_", "summary_cache_",
                         "opt_cache_", "recomputed_", "serve_replayed")
                    )
                }
                obs_log.warn(
                    "request.slow",
                    request_id=timeline.request_id,
                    threshold_ms=round(threshold * 1000.0, 3),
                    stages={
                        name: round(seconds * 1000.0, 3)
                        for name, seconds in sorted(
                            timeline.stages.items()
                        )
                    },
                    cache=cache_profile,
                    **{
                        key: value
                        for key, value in entry.items()
                        if key not in ("ts", "request_id")
                    },
                )

    def _dispatch_op(self, request, deadline):
        """Returns ``(result, degraded_notes)`` for a successful
        response; raises for request-level failures."""
        if request.op == "analyze":
            explain = request.params.get("explain")
            if explain is not None and (
                not isinstance(explain, str) or not explain
            ):
                raise protocol.ProtocolError(
                    "params.explain must name a cell (NAME@PROC)"
                )
            return self._op_analyze(request, deadline, explain)
        if request.op == "explain":
            cell = request.params.get("cell")
            if not isinstance(cell, str) or not cell:
                raise protocol.ProtocolError(
                    "op 'explain' requires params.cell (NAME@PROC)"
                )
            return self._op_analyze(request, deadline, cell)
        if request.op == "invalidate":
            return self._op_invalidate(request), []
        if request.op == "status":
            return self._op_status(), []
        if request.op == "obs":
            return self._op_obs(request), []
        if request.op == "shutdown":
            self.request_stop(EXIT_OK)
            return {"stopping": True}, []
        raise protocol.ProtocolError(f"unhandled op {request.op!r}")

    def _pipeline_request(self, request, explain: Optional[str] = None):
        """The pipeline request for a file (``path``) or a linked
        project (``params.project``/``params.entry``). The run cache is
        keyed on a project's injective bundle text and its manifest on
        the synthetic project label, so a daemon alternating between a
        project and its member files never mixes their entries."""
        project = request.params.get("project")
        return pipeline.Request(
            self.config.analysis,
            path=request.path,
            project=list(project) if project is not None else None,
            entry=request.params.get("entry"),
            explain=explain,
        )

    @staticmethod
    def _subject(pipe_request) -> Dict[str, object]:
        """How a response names what it analyzed."""
        if pipe_request.project is None:
            return {"path": pipe_request.path}
        return {"project": pipe_request.project, "entry": pipe_request.entry}

    # -- op: analyze / explain -----------------------------------------------

    def _op_analyze(self, request, deadline: Deadline,
                    explain: Optional[str] = None):
        """The core serving path: one :func:`repro.pipeline.run` against
        the shared engine, for a file or a linked project, with deadline
        and drain checkpoints and degradation notes.

        Per-request counter isolation follows the batch protocol:
        snapshot the process registry, attribute only the delta — the
        ``recomputed_ret``/``recomputed_fwd`` counters in the response
        are how clients (and the robustness tests) verify that a warm
        re-analysis touched exactly the dirty set. The dispatcher
        pushes a metrics scope per request, so the *dynamic* registry
        holds exactly this request's counters — concurrent
        handler-thread activity (sheds, bad frames) lands in the global
        registry and can never pollute this delta."""
        registry = obs_metrics.default_registry()
        snapshot = registry.snapshot()
        pipe_request = self._pipeline_request(request, explain)

        def checkpoint() -> None:
            deadline.check("analysis")
            self._drain_check()

        outcome = pipeline.run(pipe_request, self.engine, checkpoint)
        result = self._subject(pipe_request)
        result.update(status=outcome.status, replayed=outcome.replayed)
        if outcome.status == pipeline.ERROR:
            result.update(error=outcome.error, metrics={})
            return result, []
        if outcome.replayed:
            obs_metrics.inc("serve_replayed")
        if outcome.status == pipeline.DIAGNOSTICS:
            result["diagnostics"] = outcome.diagnostics
        else:
            result.update(
                config=outcome.config,
                constants_report=outcome.constants_report,
                total_pairs=outcome.total_pairs,
                substituted=outcome.substituted,
                per_procedure=outcome.per_procedure,
            )
            for key in ("diagnostics", "explain", "explain_error",
                        "invalidation"):
                if getattr(outcome, key):
                    result[key] = getattr(outcome, key)
        result["metrics"] = registry.delta_since(snapshot)["counters"]
        return result, outcome.degraded

    # -- op: invalidate ------------------------------------------------------

    def _op_invalidate(self, request) -> dict:
        """Evict the whole-run replay entry (and its provenance) keyed
        on the *current* content of a file or a project's files,
        forcing the next ``analyze`` through the engine (where the
        summary cache + manifest diff recompute exactly the dirty set —
        for an unchanged file, nothing)."""
        obs_metrics.inc("serve_invalidations")
        pipe_request = self._pipeline_request(request)
        result = self._subject(pipe_request)
        result["invalidated"] = False
        if self.engine.cache is None:
            result["error"] = "server runs without a cache"
            return result
        try:
            result["invalidated"] = pipeline.forget(pipe_request, self.engine)
        except FrontendError as err:
            result["error"] = str(err.__cause__)
        return result

    # -- op: obs (live SLO telemetry) ----------------------------------------

    def _op_obs(self, request) -> dict:
        """Live latency percentiles (histogram buckets since this
        server started — the registry outlives servers, the report
        must not) plus the newest ring-buffer entries — what
        ``repro top`` renders and clients poll for SLOs."""
        limit = request.params.get("limit")
        if not isinstance(limit, int) or limit < 0:
            limit = None
        delta = self._registry.delta_since(self._metrics_baseline)
        histograms = delta.get("histograms", {})
        latency: Dict[str, object] = {}
        names = ["serve_queue_seconds", "serve_request_seconds"]
        names.extend(
            f"serve_stage_{bucket}_seconds"
            for bucket in obs_timeline.BUCKETS
        )
        for name in names:
            payload = histograms.get(name)
            if not payload or not payload["count"]:
                continue
            buckets = payload["buckets"]
            counts = payload["counts"]
            count = payload["count"]
            latency[name] = {
                "count": count,
                "sum": round(payload["sum"], 6),
                "p50": obs_metrics.quantile_from_counts(
                    buckets, counts, count, 0.5
                ),
                "p95": obs_metrics.quantile_from_counts(
                    buckets, counts, count, 0.95
                ),
                "p99": obs_metrics.quantile_from_counts(
                    buckets, counts, count, 0.99
                ),
            }
        return {
            "window": self._ring.capacity,
            "requests_seen": self._ring.total_added,
            "slow_requests": delta.get("counters", {}).get(
                "serve_slow_requests", 0
            ),
            "slow_threshold_s": self.config.slow_request_s,
            "latency": latency,
            "recent": self._ring.entries(limit),
        }

    # -- op: status ----------------------------------------------------------

    def _op_status(self) -> dict:
        registry = self._registry.counters()
        counters = {
            name: value
            for name, value in registry.items()
            if name.startswith(_STATUS_COUNTER_PREFIXES)
        }
        plan = faults.active()
        return {
            "protocol": protocol.PROTOCOL_VERSION,
            "socket": self.config.socket_path,
            "queue_depth": self._queue.qsize(),
            "queue_limit": self.config.queue_limit,
            "default_deadline_s": self.config.default_deadline_s,
            "cache": (
                {
                    name: value
                    for name, value in registry.items()
                    if name.startswith(_CACHE_COUNTER_PREFIXES)
                }
                if self.engine.cache is not None
                else None
            ),
            "cache_dir": self.config.cache_dir,
            "config": self.config.analysis.describe(),
            "faults": plan.describe() if plan is not None else [],
            "stopping": self._stop.is_set(),
            "counters": counters,
        }
