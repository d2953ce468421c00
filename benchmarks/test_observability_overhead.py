"""Gate the combined request-scoped-telemetry overhead (<= 3%).

The serving stack can now run with structured logging, tracing, a
correlation context, and per-request stage timelines all at once. The
acceptance bar is that the *disabled* cost of all four layers stays
under 3% of analysis wall time — observability that taxes every
untraced run would never be left enabled in CI.

As with the tracing gate in ``test_bench_pipeline.py``, a direct
enabled-vs-disabled wall diff is noise-bound on a 1-CPU container, so
the gate is structural plus microbenchmark: assert the disabled paths
allocate nothing, measure what each disabled guard actually costs,
count how many instrumented sites a real fully-telemetered run hits,
and bound the worst-case product against 3% of the disabled run.
"""

from __future__ import annotations

import io
import json
import time
from pathlib import Path

import pytest

from benchmarks.conftest import emit_once
from repro.config import AnalysisConfig
from repro.engine.memo import clear_memos
from repro.ipcp.driver import analyze_source
from repro.obs import context, log, timeline, trace
from repro.obs.log import validate_log_records
from repro.obs.trace import _NULL_SPAN, validate_chrome_trace
from repro.suite.generator import GeneratorConfig, generate_program

REPO_ROOT = Path(__file__).resolve().parents[1]
REPORT_PATH = REPO_ROOT / "BENCH_OBSERVABILITY.json"

PROCEDURES = 50
BUDGET_FRACTION = 0.03
MICRO_ITERATIONS = 200_000


def source():
    return generate_program(
        seed=PROCEDURES,
        config=GeneratorConfig(
            procedures=PROCEDURES, max_statements_per_procedure=10
        ),
    )


def fingerprint(result):
    return (
        result.constants.format_report(),
        dict(result.substitution.per_procedure),
        result.transformed_source(),
    )


def timed(fn):
    clear_memos()
    start = time.perf_counter()
    value = fn()
    return time.perf_counter() - start, value


def per_call(fn):
    begin = time.perf_counter()
    for _ in range(MICRO_ITERATIONS):
        fn()
    return (time.perf_counter() - begin) / MICRO_ITERATIONS


def test_combined_telemetry_overhead(capfd):
    text = source()
    config = AnalysisConfig()

    # Structural zero-cost contract of every layer, disabled:
    assert trace.ENABLED is False and trace.active() is None
    assert trace.span("x") is _NULL_SPAN
    assert log.ENABLED is False and log.active() is None
    log.info("never", field=1)  # no logger -> no record object built
    assert context.current() is None
    assert trace.stage("x") is _NULL_SPAN  # no sink pushed either

    disabled_seconds, baseline = timed(
        lambda: fingerprint(analyze_source(text, config))
    )

    # One fully-telemetered run: trace + log + context + timeline all
    # on at once — the combined configuration the 3% budget covers.
    stream = io.StringIO()
    observer = timeline.RequestTimeline("bench", op="analyze")
    tracer = trace.enable()
    logger = log.enable(stream)
    trace.push_sink(observer)
    try:
        with context.request("bench"):
            log.info("request.start", op="analyze")
            enabled_seconds, telemetered = timed(
                lambda: fingerprint(analyze_source(text, config))
            )
            observer.finish("ok")
            log.info("request.end", **observer.entry())
    finally:
        trace.pop_sink()
        log.disable()
        trace.disable()
    assert telemetered == baseline, (
        "telemetry must not change analysis output"
    )
    assert validate_chrome_trace(tracer.to_chrome()) == []
    assert validate_log_records(stream.getvalue().splitlines()) == []
    assert observer.buckets()["solve"] > 0.0
    trace_sites = len(tracer.events)
    log_sites = logger.records_written
    stage_sites = len(observer.stages)
    assert trace_sites > 0 and log_sites > 0 and stage_sites > 0

    # Disabled per-site costs, each measured at its real guard shape.
    guard_seconds = per_call(
        lambda: trace.instant("never") if trace.ENABLED else None
    )
    null_span_seconds = per_call(lambda: trace.span("never").__enter__())
    log_noop_seconds = per_call(lambda: log.info("never"))
    stage_probe_seconds = per_call(lambda: trace.stage("never").__enter__())
    context_probe_seconds = per_call(context.current)
    worst_site_seconds = max(
        guard_seconds, null_span_seconds, log_noop_seconds
    )

    # Every event any layer recorded maps to at most one disabled-path
    # site; stage sites additionally probe the sink stack and a logged
    # record at most probes the context. Sum the bound.
    worst_case_seconds = (
        (trace_sites + log_sites) * worst_site_seconds
        + stage_sites * stage_probe_seconds
        + log_sites * context_probe_seconds
    )
    budget_seconds = BUDGET_FRACTION * disabled_seconds
    assert worst_case_seconds <= budget_seconds, (
        f"combined disabled-telemetry bound "
        f"{worst_case_seconds * 1e3:.3f}ms exceeds "
        f"{BUDGET_FRACTION:.0%} of the {disabled_seconds * 1e3:.0f}ms "
        f"untelemetered run ({trace_sites} trace + {log_sites} log + "
        f"{stage_sites} stage sites)"
    )

    row = {
        "procedures": PROCEDURES,
        "disabled_seconds": round(disabled_seconds, 4),
        "enabled_seconds": round(enabled_seconds, 4),
        "trace_events": trace_sites,
        "log_records": log_sites,
        "stage_sites": stage_sites,
        "guard_nanoseconds": round(guard_seconds * 1e9, 1),
        "null_span_nanoseconds": round(null_span_seconds * 1e9, 1),
        "log_noop_nanoseconds": round(log_noop_seconds * 1e9, 1),
        "stage_probe_nanoseconds": round(stage_probe_seconds * 1e9, 1),
        "context_probe_nanoseconds": round(
            context_probe_seconds * 1e9, 1
        ),
        "worst_case_overhead_pct": round(
            100.0 * worst_case_seconds / disabled_seconds, 4
        )
        if disabled_seconds
        else 0.0,
        "budget_pct": 100.0 * BUDGET_FRACTION,
    }
    REPORT_PATH.write_text(json.dumps(row, indent=2) + "\n")
    emit_once(
        capfd,
        "observability-combined",
        f"combined telemetry {PROCEDURES} procs: disabled "
        f"{disabled_seconds:.2f}s, telemetered {enabled_seconds:.2f}s "
        f"({trace_sites} trace events, {log_sites} log records); "
        f"disabled-path bound {row['worst_case_overhead_pct']:.3f}% "
        f"(budget {row['budget_pct']:.0f}%)",
    )


def test_enabled_logging_is_bounded_per_record(capfd):
    """Enabled logging must also stay cheap: one JSONL record to an
    in-memory stream lands in single-digit microseconds, so a daemon
    emitting a handful of records per request cannot dent a millisecond
    budget."""
    stream = io.StringIO()
    log.enable(stream, max_per_event=100_000)
    try:
        with context.request("bench"):
            iterations = 20_000
            begin = time.perf_counter()
            for index in range(iterations):
                log.info("bench.record", index=index, value=1.5)
            record_seconds = (time.perf_counter() - begin) / iterations
    finally:
        log.disable()
    assert record_seconds < 100e-6, (
        f"one log record costs {record_seconds * 1e6:.1f}us; "
        f"expected well under 100us"
    )
    emit_once(
        capfd,
        "observability-record-cost",
        f"enabled log record: {record_seconds * 1e6:.2f}us "
        f"(in-memory stream, context installed)",
    )
