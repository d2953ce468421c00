"""Batch analysis: many programs, one persistent worker pool.

A single ``repro`` invocation pays interpreter start-up and imports
once *per file*. :func:`run_batch` amortizes that: the batch driver
runs every input against one long-lived pool of workers (``--jobs``),
each of which analyzes whole files serially and shares the persistent
summary cache on disk. Files are the only unit of parallelism in the
repository: the per-procedure stages inside one file stay serial (see
``docs/PERFORMANCE.md``).

Scheduling is **big-first**: files are submitted in decreasing size
order so small files fill the slots left idle while a worker chews on a
large one — classic LPT list scheduling. Results are reported in the
caller's input order regardless.

Every file is one :func:`repro.pipeline.run` request, the same
replay-or-analyze core ``repro analyze`` and the daemon call: run-level
replay first, then resilient analysis, the ``run``/``opt`` records and
the incremental manifest update. A batch run leaves the cache exactly
as N sequential ``analyze --cache`` runs would, and a later incremental
batch recomputes only the dirty procedures of edited files.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro import faults, pipeline
from repro.config import AnalysisConfig
from repro.pipeline import ERROR, FileOutcome


@dataclass
class BatchResult:
    """Every file's outcome (input order) plus batch-level aggregates."""

    files: List[FileOutcome]
    jobs: int = 1
    #: Batch-level degradation notes (pool rebuilt/demoted), so a
    #: recovered run is visibly different from an undisturbed one.
    notes: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(outcome.ok for outcome in self.files)

    def outcome(self, path: str) -> FileOutcome:
        for candidate in self.files:
            if candidate.path == path:
                return candidate
        raise KeyError(path)

    def totals(self) -> dict:
        by_status: Dict[str, int] = {}
        for outcome in self.files:
            by_status[outcome.status] = by_status.get(outcome.status, 0) + 1
        return {
            "files": len(self.files),
            "jobs": self.jobs,
            "by_status": by_status,
            "replayed": sum(1 for o in self.files if o.replayed),
            "total_pairs": sum(o.total_pairs for o in self.files),
            "substituted": sum(o.substituted for o in self.files),
        }

    def profile_report(self) -> dict:
        """Per-file profiles plus their aggregation — ``--profile``'s
        batch shape, where fixed-cost amortization is visible in one
        JSON (N files, one set of pool/import costs)."""
        from repro.profiling import aggregate_profiles

        per_file = {
            outcome.path: outcome.profile
            for outcome in self.files
            if outcome.profile is not None
        }
        report = self.totals()
        report["per_file"] = per_file
        report["aggregate"] = aggregate_profiles(list(per_file.values()))
        metrics = self.merged_metrics()
        if metrics is not None:
            report["metrics"] = metrics.snapshot()
        return report

    def merged_metrics(self):
        """All per-file metrics deltas folded into one registry (None
        when the batch ran without metrics collection)."""
        from repro.obs.metrics import MetricsRegistry

        collected = [o.metrics for o in self.files if o.metrics is not None]
        if not collected:
            return None
        registry = MetricsRegistry()
        for delta in collected:
            registry.merge(delta)
        return registry


def analyze_one(
    path: str,
    config: AnalysisConfig,
    cache_dir: Optional[str] = None,
    want_profile: bool = False,
    explain: bool = False,
    want_metrics: bool = False,
    want_trace: bool = False,
    optimize: Optional[Sequence[str]] = None,
) -> FileOutcome:
    """The per-file unit of batch work: one :func:`repro.pipeline.run`
    request for ``path`` inside batch's own bracket — fault points, a
    per-file metrics scope and profile, a per-file correlation context
    and ``batch.file`` span, and trace shipping out of pool workers.
    ``explain`` keeps each file's invalidation report on the outcome.

    Runs inline (``jobs=1``) or inside a pool worker; everything it
    touches and returns is picklable. Each call uses a private
    :class:`~repro.engine.core.Engine` over the shared on-disk cache —
    workers coordinate through the cache's atomic file writes, never
    through shared memory.

    Per-file counter isolation: process-wide counters are *snapshotted*
    at entry and only the delta is attributed to this file — never
    reset, so neither a caller's accounting nor a concurrent thread's
    is clobbered, and the Nth file of a batch reports the same numbers
    it would report analyzed alone.
    """
    import time

    from repro import profiling
    from repro.engine.core import Engine
    from repro.obs import context as obs_context
    from repro.obs import metrics as obs_metrics
    from repro.obs import trace

    # Fault points: die here to break the batch pool mid-file (only
    # ever fires inside a pool worker), or dawdle to make drain-under-
    # load and signal-delivery windows deterministic in tests.
    faults.maybe_kill_worker(stage="batch", path=path)
    faults.delay("delay-file", path=path)

    profile = profiling.PipelineProfile() if want_profile else None
    # Metric isolation: a thread-scoped registry captures exactly this
    # file's instrumentation even when sibling batch threads analyze
    # concurrently (snapshot/delta over the shared registry would
    # attribute their counters to us); the scope is merged back into
    # the enclosing registry on exit, so process totals still add up.
    scoped = want_profile or want_metrics
    if scoped:
        obs_metrics.push_scope()
    registry = obs_metrics.default_registry()
    counters_base = registry.snapshot() if scoped else None
    # A pool worker (fresh spawn process, or fork child holding the
    # parent's tracer) records into its own tracer and ships the events
    # back; inline and thread-mode calls write straight into the live
    # tracer (per-thread tids keep tracks apart).
    owns_tracer = False
    if want_trace:
        tracer = trace.active()
        if tracer is None or tracer.owner_pid != os.getpid():
            trace.enable()
            owns_tracer = True
    began = time.perf_counter()
    engine = Engine(cache_dir=cache_dir, profile=profile)
    outcome = FileOutcome(path=path)
    # Each file is its own correlation unit: telemetry recorded while
    # analyzing it (log records, worker spans) carries a per-file
    # request id, under the enclosing session's trace id. Thread-scoped
    # so concurrent batch threads never adopt a sibling's ids.
    enclosing_ctx = obs_context.current()
    file_ctx = obs_context.RequestContext(
        f"file:{path}",
        enclosing_ctx.trace_id if enclosing_ctx is not None else None,
    )
    obs_context.set_thread_context(file_ctx)
    file_span = trace.span("batch.file", path=path, request_id=file_ctx.request_id)
    file_span.__enter__()
    if trace.ENABLED:
        trace.flow(
            "request", "s", obs_context.flow_id(file_ctx.request_id),
            request_id=file_ctx.request_id, path=path,
        )
    try:
        passes = tuple(optimize) if optimize is not None else None
        outcome = pipeline.run(
            pipeline.Request(config, path=path, passes=passes), engine
        )
        if not explain:
            outcome.invalidation = None
        return outcome
    except Exception as err:  # noqa: BLE001 — a worker must not die on
        outcome.status = ERROR  # one bad input; the batch reports it
        outcome.error = f"{type(err).__name__}: {err}"
        return outcome
    finally:
        file_span.__exit__(None, None, None)
        obs_context.set_thread_context(enclosing_ctx)
        if profile is not None:
            engine.finish_profile()
        if counters_base is not None:
            if want_metrics:
                registry.observe(
                    "batch_file_seconds", time.perf_counter() - began
                )
                registry.inc("batch_files")
            delta = registry.delta_since(counters_base)
            if profile is not None:
                profile.merge_counters(delta["counters"])
                outcome.profile = profile.to_dict()
            if want_metrics:
                outcome.metrics = delta
        elif profile is not None:
            outcome.profile = profile.to_dict()
        if owns_tracer:
            worker_tracer = trace.disable()
            if worker_tracer is not None:
                outcome.trace_events = worker_tracer.events
        engine.close()
        if scoped:
            obs_metrics.pop_scope()


def _schedule(paths: Sequence[str]) -> List[str]:
    """Big-first (LPT) submission order, sizes from the filesystem.

    Unreadable paths sort last (size 0) — they fail fast in a worker.
    Ties keep input order, so scheduling is deterministic.
    """

    def size(path: str) -> int:
        try:
            return os.path.getsize(path)
        except OSError:
            return 0

    indexed = list(enumerate(paths))
    indexed.sort(key=lambda pair: (-size(pair[1]), pair[0]))
    return [path for _, path in indexed]


def run_batch(
    paths: Sequence[str],
    config: Optional[AnalysisConfig] = None,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    want_profile: bool = False,
    explain: bool = False,
    executor: str = "process",
    want_metrics: bool = False,
    want_trace: bool = False,
    optimize: Optional[Sequence[str]] = None,
) -> BatchResult:
    """Analyze every file in ``paths`` against one persistent pool.

    ``jobs=1`` runs everything inline (still amortizing imports and the
    cache handle). ``executor`` is ``"process"`` for real parallelism,
    or ``"thread"`` for GIL-bound determinism testing. ``want_metrics``
    attaches a per-file metrics delta to each outcome; ``want_trace``
    records trace events in the workers and folds them into the
    caller's live tracer.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if executor not in ("process", "thread"):
        raise ValueError(f"unknown executor {executor!r}")
    config = config or AnalysisConfig()
    paths = list(paths)
    if jobs == 1 or len(paths) <= 1:
        outcomes = {
            path: analyze_one(
                path, config, cache_dir, want_profile, explain,
                want_metrics, want_trace, optimize,
            )
            for path in _schedule(paths)
        }
        return _collect(
            [outcomes[path] for path in paths], jobs
        )

    import concurrent.futures as cf

    task_args = (config, cache_dir, want_profile, explain,
                 want_metrics, want_trace, optimize)

    if executor == "thread":
        # Files genuinely overlap here: each thread has its own engine
        # and its metrics land in a thread-scoped registry, so
        # concurrent engines never clobber each other. Still GIL-bound
        # — real speedups come from I/O overlap and the process
        # executor — but no longer serialized behind a lock. (Threads
        # cannot break the executor, so no recovery loop here.)
        pool = cf.ThreadPoolExecutor(max_workers=jobs)
        try:
            futures = {
                path: pool.submit(analyze_one, path, *task_args)
                for path in _schedule(paths)
            }
            return _collect(
                [futures[path].result() for path in paths], jobs
            )
        finally:
            pool.shutdown(wait=False, cancel_futures=True)

    # Process executor, with broken-pool recovery: a worker killed
    # mid-file (OOM killer, operator, injected fault) breaks every
    # in-flight future. Completed outcomes are kept, the pool is
    # rebuilt once and the unfinished files resubmitted after a
    # jittered backoff; a second break demotes the rest of the batch
    # to in-process serial analysis. Per-file work is idempotent
    # (replay/summary caches are content-addressed), so resubmission
    # never changes a result — only where it was computed.
    import multiprocessing as mp

    from repro.obs import metrics as obs_metrics

    methods = mp.get_all_start_methods()
    context = mp.get_context("fork" if "fork" in methods else "spawn")
    outcomes: Dict[str, FileOutcome] = {}
    notes: List[str] = []
    remaining = _schedule(list(dict.fromkeys(paths)))
    rebuilt = False
    while remaining:
        pool = cf.ProcessPoolExecutor(
            max_workers=jobs, mp_context=context, initializer=_worker_init
        )
        broke = False
        try:
            futures = {
                path: pool.submit(analyze_one, path, *task_args)
                for path in remaining
            }
            for path in remaining:
                try:
                    outcomes[path] = futures[path].result()
                except cf.BrokenExecutor:
                    broke = True
                    # Keep every outcome that did complete before the
                    # break; only genuinely unfinished files re-run.
                    for other in remaining:
                        future = futures[other]
                        if other in outcomes or not future.done():
                            continue
                        try:
                            outcomes[other] = future.result()
                        except Exception:  # noqa: BLE001 — broken too
                            pass
                    break
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
        if not broke:
            break
        remaining = [path for path in remaining if path not in outcomes]
        obs_metrics.inc("batch_pool_broken")
        if not rebuilt and remaining:
            rebuilt = True
            obs_metrics.inc("batch_pool_rebuilds")
            _rebuild_backoff()
            continue
        if remaining:
            obs_metrics.inc("batch_pool_demotions")
            notes.append(
                f"worker pool broke twice; {len(remaining)} file(s) "
                f"analyzed serially in-process"
            )
            for path in remaining:
                outcomes[path] = analyze_one(path, *task_args)
        break
    return _collect(
        [outcomes[path] for path in paths], jobs, notes=notes
    )


def _worker_init() -> None:
    """Pool-worker initializer: restore default signal dispositions.

    Fork workers inherit whatever SIGINT/SIGTERM handlers the host
    installed — the batch CLI's raise-to-drain handler — and it is wrong
    inside a worker: it turns the executor's own shutdown SIGTERM into a
    traceback. Workers die by default disposition; only the host
    drains."""
    import signal

    for name in ("SIGINT", "SIGTERM"):
        signum = getattr(signal, name, None)
        if signum is None:
            continue
        try:
            signal.signal(signum, signal.SIG_DFL)
        except (ValueError, OSError):
            pass


def _rebuild_backoff() -> None:
    """Jittered pause before the single pool rebuild, so many batch
    processes recovering from one shared cause (a machine-wide OOM
    sweep) do not refork in lockstep."""
    import random
    import time

    time.sleep(0.05 + random.uniform(0, 0.05))


def _collect(
    outcomes: List[FileOutcome], jobs: int, notes: Optional[List[str]] = None
) -> BatchResult:
    """Assemble the batch result, folding worker-shipped trace events
    into the live tracer (each keeps its worker pid, so Perfetto shows
    one track per worker)."""
    from repro.obs import trace

    tracer = trace.active()
    for outcome in outcomes:
        if outcome.trace_events:
            if tracer is not None:
                tracer.adopt(outcome.trace_events)
            outcome.trace_events = None
    return BatchResult(files=outcomes, jobs=jobs, notes=notes or [])


def read_stdin_list(stream) -> List[str]:
    """File paths from ``stream``, one per line; blanks and ``#``
    comment lines are skipped (so lists can be annotated)."""
    paths: List[str] = []
    for line in stream:
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            paths.append(stripped)
    return paths
