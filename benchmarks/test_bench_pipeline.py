"""Pipeline throughput: serial analysis and the persistent cache.

Unlike the paper-table benches this module measures the pipeline and
the *engine*: serial throughput (solver cells per second, peak RSS),
and cold vs warm summary-cache runs. Results land in
``BENCH_PIPELINE.json`` at the repo root so CI can archive them and
gate on the cache hit-rate.

Tiers (``BENCH_PIPELINE_TIER``):

* ``tiny``  — 12 procedures, one repetition; smoke-test the harness.
* ``small`` — 50 and 500 procedures (the default; what CI runs).
* ``full``  — 50, 200, and 500 procedures.
* ``large`` — one 10k-100k-procedure program from the layered
  :func:`generate_scaled_program` tier (``BENCH_LARGE_PROCS``, default
  10000, capped at 100000). Runs only :func:`test_large_scale`: a
  serial pass in a fresh subprocess (clean peak-RSS and wall-time
  accounting), gating cells/second throughput and peak RSS.

``BENCH_PIPELINE.json`` holds every tier side by side under a
``{"tiers": {<name>: <report>}}`` roof; a run replaces only its own
tier's section, so regenerating ``small`` keeps the recorded ``large``
numbers (and vice versa).

Per-procedure analysis is serial (``docs/PERFORMANCE.md`` says why);
the only parallelism is across files in ``repro batch``. The *batch*
section measures what ``repro batch`` exists for: one interpreter
start-up and import pass amortized over N files, instead of N separate
``repro analyze`` invocations. That win is CPU-count independent (it is
fixed-cost amortization, not parallelism), so its ≥1.5× gate asserts on
every host, including a 1-CPU one.
The *incremental* section edits one procedure of a cached program and
gates on the dirty-set guarantee: only the edited procedure and the
callers whose callees' exports changed are recomputed.
"""

import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from benchmarks.conftest import emit_once
from repro.config import AnalysisConfig
from repro.engine import Engine
from repro.engine.memo import clear_memos
from repro.ipcp.driver import analyze_source
from repro.obs import metrics
from repro.pipeline import run_entry
from repro.suite.generator import GeneratorConfig, generate_program

REPO_ROOT = Path(__file__).resolve().parents[1]
REPORT_PATH = REPO_ROOT / "BENCH_PIPELINE.json"

TIERS = {
    "tiny": [12],
    "small": [50, 500],
    "full": [50, 200, 500],
    "large": [],  # drives test_large_scale, not the size matrix
}
TIER = os.environ.get("BENCH_PIPELINE_TIER", "small")
SIZES = TIERS.get(TIER, TIERS["small"])

#: How many files the batch bench feeds through one driver invocation.
BATCH_FILES = {"tiny": 3, "small": 8, "full": 12}.get(TIER, 8)

#: Procedure count for the ``large`` tier (layered scaled generator).
LARGE_PROCS = min(
    max(int(os.environ.get("BENCH_LARGE_PROCS", "10000")), 1000), 100_000
)


def source_for(procedures):
    return generate_program(
        seed=procedures,
        config=GeneratorConfig(
            procedures=procedures, max_statements_per_procedure=10
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


def entry_cells(result):
    """Total constant-propagation problem size: the sum of every
    procedure's entry-domain width (formals + scalar globals) — the
    cell count the iterative solver actually fills in."""
    from repro.ipcp.solver import entry_domain

    program = result.program
    return sum(
        len(entry_domain(procedure, program)) for procedure in program
    )


def peak_rss_mb():
    """This process's peak resident set, in MiB (Linux ru_maxrss is
    KiB). A high-water mark — meaningful per fresh subprocess, only an
    upper bound when read mid-suite."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@pytest.fixture(scope="module")
def report():
    data = {
        "tier": TIER,
        "cpu_count": os.cpu_count(),
        "cache": [],
        "batch": [],
        "incremental": [],
        "observability": [],
        "throughput": [],
        "large": [],
    }
    yield data
    # Merge into the multi-tier report: replace this tier's section,
    # keep every other tier's recorded numbers.
    merged = {"tiers": {}}
    if REPORT_PATH.exists():
        try:
            previous = json.loads(REPORT_PATH.read_text())
            if isinstance(previous.get("tiers"), dict):
                merged = previous
        except ValueError:
            pass
    merged["tiers"][TIER] = data
    REPORT_PATH.write_text(json.dumps(merged, indent=2) + "\n")


@pytest.mark.parametrize("procedures", SIZES)
def test_serial_throughput(procedures, report, capfd):
    text = source_for(procedures)
    config = AnalysisConfig()

    def serial_run():
        result = analyze_source(text, config)
        return entry_cells(result)

    serial_seconds, cells = timed(serial_run)
    throughput_row = {
        "procedures": procedures,
        "serial_seconds": round(serial_seconds, 4),
        "cells": cells,
        "cells_per_second": round(
            cells / serial_seconds if serial_seconds else 0.0, 1
        ),
        "peak_rss_mb": round(peak_rss_mb(), 1),
    }
    report["throughput"].append(throughput_row)
    emit_once(
        capfd,
        f"pipeline-serial-{procedures}",
        f"pipeline {procedures} procs: serial {serial_seconds:.2f}s "
        f"({throughput_row['cells_per_second']:.0f} cells/s, "
        f"cpus={os.cpu_count()})",
    )


@pytest.mark.parametrize("procedures", SIZES)
def test_cache_cold_vs_warm(procedures, report, tmp_path_factory, capfd):
    text = source_for(procedures)
    config = AnalysisConfig()
    cache_dir = str(tmp_path_factory.mktemp(f"cache{procedures}"))

    def cold_run():
        with Engine(cache_dir=cache_dir) as engine:
            result = analyze_source(text, config, engine=engine)
            engine.record_run(
                text, config, result, run_entry(result, {"constants"})
            )
            return fingerprint(result)

    cold_seconds, cold = timed(cold_run)

    # Warm summary path: every per-procedure summary comes off disk.
    def warm_run():
        base = metrics.snapshot()
        with Engine(cache_dir=cache_dir) as engine:
            value = fingerprint(analyze_source(text, config, engine=engine))
        counters = metrics.delta_since(base)["counters"]
        hits = counters.get("summary_cache_hits", 0)
        lookups = hits + counters.get("summary_cache_misses", 0)
        return value, hits / lookups if lookups else 0.0

    warm_seconds, (warm, hit_rate) = timed(warm_run)
    assert warm == cold
    assert hit_rate >= 0.95, f"warm hit-rate {hit_rate:.2f} below 0.95"

    # Warm run-level path: what `repro analyze --cache` replays.
    def replay_run():
        with Engine(cache_dir=cache_dir) as engine:
            payload = engine.cached_run(text, config)
            assert payload is not None, "clean run must have been recorded"
            return payload["constants_report"]

    replay_seconds, constants_report = timed(replay_run)
    assert constants_report == cold[0]
    replay_speedup = cold_seconds / replay_seconds if replay_seconds else 0.0
    assert replay_speedup >= 5.0, (
        f"warm replay only {replay_speedup:.1f}x faster than cold"
    )

    row = {
        "procedures": procedures,
        "cold_seconds": round(cold_seconds, 4),
        "warm_seconds": round(warm_seconds, 4),
        "replay_seconds": round(replay_seconds, 4),
        "hit_rate": round(hit_rate, 4),
        "replay_speedup": round(replay_speedup, 1),
    }
    report["cache"].append(row)
    emit_once(
        capfd,
        f"pipeline-cache-{procedures}",
        f"cache {procedures} procs: cold {cold_seconds:.2f}s, warm "
        f"{warm_seconds:.2f}s (hit-rate {hit_rate:.0%}), replay "
        f"{replay_seconds*1000:.1f}ms ({replay_speedup:.0f}x)",
    )


def _cli_environment():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part
        for part in (str(REPO_ROOT / "src"), env.get("PYTHONPATH"))
        if part
    )
    return env


def _run_cli(arguments, env):
    completed = subprocess.run(
        [sys.executable, "-m", "repro", *arguments],
        env=env,
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout


not_large = pytest.mark.skipif(
    TIER == "large", reason="the large tier runs only test_large_scale"
)


@not_large
def test_batch_vs_serial_invocations(report, tmp_path_factory, capfd):
    """One ``repro batch`` invocation vs N separate ``repro analyze``
    subprocesses over the same files. The batch driver pays interpreter
    start-up and imports once, so it must win by ≥1.5× on *any* CPU
    count."""
    directory = tmp_path_factory.mktemp("batchfiles")
    paths = []
    for index in range(BATCH_FILES):
        path = directory / f"unit{index}.f"
        path.write_text(
            generate_program(
                seed=index,
                config=GeneratorConfig(
                    procedures=10, max_statements_per_procedure=8
                ),
            )
        )
        paths.append(str(path))
    env = _cli_environment()

    def serial_invocations():
        return [_run_cli(["analyze", path], env) for path in paths]

    serial_seconds, _ = timed(serial_invocations)
    batch_seconds, batch_out = timed(
        lambda: _run_cli(["batch", *paths], env)
    )
    for path in paths:
        assert f"{path}:" in batch_out, "every file must be reported"
    speedup = serial_seconds / batch_seconds if batch_seconds else 0.0
    row = {
        "files": len(paths),
        "serial_invocations_seconds": round(serial_seconds, 4),
        "batch_seconds": round(batch_seconds, 4),
        "speedup": round(speedup, 3),
    }
    report["batch"].append(row)
    emit_once(
        capfd,
        "pipeline-batch",
        f"batch {len(paths)} files: {len(paths)} x analyze "
        f"{serial_seconds:.2f}s, one batch {batch_seconds:.2f}s "
        f"(speedup {speedup:.2f}x, cpus={os.cpu_count()})",
    )
    assert speedup >= 1.5, (
        f"batch only {speedup:.2f}x faster than {len(paths)} serial "
        f"invocations — start-up amortization is CPU-count independent"
    )


def _edit_first_literal(text):
    """Bump the first integer literal assignment in the program — a
    semantic edit confined to the first unit (MAIN, the call-graph
    root), so the dirty set stays minimal: Merkle keys fold callee into
    caller, and nothing calls MAIN."""
    matches = list(re.finditer(r"(?m)= (-?\d+)$", text))
    assert matches, "generated program has no literal assignment"
    target = matches[0]
    bumped = str(int(target.group(1)) + 1)
    return text[: target.start(1)] + bumped + text[target.end(1):]


@pytest.mark.parametrize("procedures", SIZES)
def test_incremental_dirty_set(procedures, report, tmp_path_factory, capfd):
    """Edit one procedure of a cached program: the re-analysis must
    recompute only the dirty set (edited + callers reading a changed
    export) and leave every other summary to the cache."""
    from repro.engine.batch import analyze_one

    directory = tmp_path_factory.mktemp(f"incr{procedures}")
    path = directory / "program.f"
    path.write_text(source_for(procedures))
    config = AnalysisConfig()
    cache_dir = str(directory / "cache")

    cold_seconds, cold = timed(
        lambda: analyze_one(str(path), config, cache_dir, want_profile=True)
    )
    assert cold.ok and not cold.replayed
    # A cold run has no previous manifest: everything counts dirty, so
    # this is the program's total unit count (procedures plus MAIN).
    total = cold.profile["counters"]["incremental_dirty"]

    path.write_text(_edit_first_literal(path.read_text()))
    incremental_seconds, warm = timed(
        lambda: analyze_one(str(path), config, cache_dir, want_profile=True)
    )
    assert warm.ok and not warm.replayed

    counters = warm.profile["counters"]
    dirty = counters.get("incremental_dirty", 0)
    clean = counters.get("incremental_clean", 0)
    assert dirty + clean == total
    assert 0 < dirty < total, (
        f"dirty set is {dirty}/{total} — an edit to one root "
        f"procedure must not invalidate the whole program"
    )
    assert counters.get("recomputed_ret", 0) == dirty, (
        "jump functions recomputed outside the dirty set"
    )
    speedup = cold_seconds / incremental_seconds if incremental_seconds else 0.0
    row = {
        "procedures": procedures,
        "cold_seconds": round(cold_seconds, 4),
        "incremental_seconds": round(incremental_seconds, 4),
        "dirty": dirty,
        "clean": clean,
        "speedup": round(speedup, 3),
    }
    report["incremental"].append(row)
    emit_once(
        capfd,
        f"pipeline-incremental-{procedures}",
        f"incremental {procedures} procs: cold {cold_seconds:.2f}s, "
        f"edit-one re-analysis {incremental_seconds:.2f}s "
        f"(dirty {dirty}, clean {clean}, speedup {speedup:.2f}x)",
    )


@not_large
def test_observability_overhead(report, capfd):
    """Gate the tracing layer's zero-cost-when-disabled contract.

    A direct disabled-vs-pre-PR wall-time diff is noise-bound on this
    1-CPU container (run-to-run variance alone exceeds the 3% budget),
    so the gate is structural plus microbenchmark: verify the disabled
    path allocates nothing, measure what one disabled guard/null-span
    actually costs, count how many instrumented sites a real traced run
    of this program hits, and assert that worst-case product stays
    under 3% of the disabled run's wall time.
    """
    from repro.obs import trace
    from repro.obs.trace import _NULL_SPAN, validate_chrome_trace

    text = source_for(SIZES[0])
    config = AnalysisConfig()

    # Structural zero-allocation contract: no tracer object exists, and
    # span() hands back one shared singleton instead of allocating.
    assert trace.ENABLED is False and trace.active() is None
    assert trace.span("a") is _NULL_SPAN and trace.span("b", k=1) is _NULL_SPAN

    disabled_seconds, baseline = timed(
        lambda: fingerprint(analyze_source(text, config))
    )

    clear_memos()
    tracer = trace.enable()
    try:
        enabled_seconds, traced = timed(
            lambda: fingerprint(analyze_source(text, config))
        )
    finally:
        trace.disable()
    assert traced == baseline, "tracing must not change analysis output"
    assert validate_chrome_trace(tracer.to_chrome()) == []
    events = len(tracer.events)
    assert events > 0, "a traced run must record events"

    # Per-site disabled cost: the `if trace.ENABLED:` guard instants
    # hide behind, and the null span stages go through.
    iterations = 200_000
    begin = time.perf_counter()
    for _ in range(iterations):
        if trace.ENABLED:
            trace.instant("never")
    guard_seconds = (time.perf_counter() - begin) / iterations
    begin = time.perf_counter()
    for _ in range(iterations):
        with trace.span("never"):
            pass
    null_span_seconds = (time.perf_counter() - begin) / iterations

    # Every event of the traced run maps to at most one disabled-path
    # site, so this bounds the instrumentation's disabled cost.
    worst_case_seconds = events * max(guard_seconds, null_span_seconds)
    budget_seconds = 0.03 * disabled_seconds
    assert worst_case_seconds <= budget_seconds, (
        f"disabled-tracing overhead bound {worst_case_seconds * 1e3:.3f}ms "
        f"exceeds 3% of the {disabled_seconds * 1e3:.0f}ms disabled run "
        f"({events} instrumented sites x "
        f"{max(guard_seconds, null_span_seconds) * 1e9:.0f}ns)"
    )

    row = {
        "procedures": SIZES[0],
        "disabled_seconds": round(disabled_seconds, 4),
        "enabled_seconds": round(enabled_seconds, 4),
        "events": events,
        "guard_nanoseconds": round(guard_seconds * 1e9, 1),
        "null_span_nanoseconds": round(null_span_seconds * 1e9, 1),
        "worst_case_overhead_pct": round(
            100.0 * worst_case_seconds / disabled_seconds, 4
        )
        if disabled_seconds
        else 0.0,
    }
    report["observability"].append(row)
    emit_once(
        capfd,
        "pipeline-observability",
        f"observability {SIZES[0]} procs: disabled {disabled_seconds:.2f}s, "
        f"traced {enabled_seconds:.2f}s ({events} events); disabled-path "
        f"bound {row['worst_case_overhead_pct']:.3f}% of wall time "
        f"(budget 3%)",
    )


# One analysis pass in a fresh interpreter: wall time, solver cell
# count, a result digest, and the process's own peak RSS (clean —
# nothing else ran in it).
_LARGE_RUNNER = """\
import hashlib, json, resource, sys, time

path = sys.argv[1]
from repro.config import AnalysisConfig
from repro.ipcp.driver import analyze_source
from repro.ipcp.solver import entry_domain

with open(path) as handle:
    text = handle.read()
config = AnalysisConfig()
start = time.perf_counter()
result = analyze_source(text, config)
seconds = time.perf_counter() - start

program = result.program
cells = sum(len(entry_domain(p, program)) for p in program)
digest = hashlib.sha256()
digest.update(result.constants.format_report().encode())
digest.update(json.dumps(
    dict(result.substitution.per_procedure), sort_keys=True).encode())
print(json.dumps({
    "seconds": round(seconds, 3),
    "cells": cells,
    "digest": digest.hexdigest(),
    "peak_rss_mb": round(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
}))
"""


@pytest.mark.skipif(
    TIER != "large", reason="set BENCH_PIPELINE_TIER=large"
)
def test_large_scale(report, tmp_path_factory, capfd):
    """The 10k-100k-procedure tier: one layered scaled-generator
    program, analyzed serially in a fresh subprocess so wall time and
    peak RSS are unpolluted.

    Gates: cells/second throughput and a peak-RSS ceiling that scales
    with the procedure count.
    """
    from repro.suite.generator import ScaleConfig, generate_scaled_program

    directory = tmp_path_factory.mktemp("large")
    path = directory / "large.f"
    generate_seconds, text = timed(
        lambda: generate_scaled_program(
            0, ScaleConfig(procedures=LARGE_PROCS)
        )
    )
    path.write_text(text)
    env = _cli_environment()

    completed = subprocess.run(
        [sys.executable, "-c", _LARGE_RUNNER, str(path)],
        env=env,
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    assert completed.returncode == 0, completed.stderr
    serial = json.loads(completed.stdout)

    cells = serial["cells"]
    assert cells >= LARGE_PROCS, (
        f"{cells} solver cells for {LARGE_PROCS} procedures — the "
        f"entry domains collapsed"
    )
    cells_per_second = cells / serial["seconds"] if serial["seconds"] else 0.0
    assert cells_per_second >= 500, (
        f"serial throughput {cells_per_second:.0f} cells/s below the "
        f"500 cells/s floor"
    )
    rss_budget_mb = max(512.0, LARGE_PROCS * 0.06)
    assert serial["peak_rss_mb"] <= rss_budget_mb, (
        f"serial peak RSS {serial['peak_rss_mb']:.0f}MiB over the "
        f"{rss_budget_mb:.0f}MiB budget for {LARGE_PROCS} procedures"
    )

    row = {
        "procedures": LARGE_PROCS,
        "generate_seconds": round(generate_seconds, 3),
        "cells": cells,
        "serial_seconds": serial["seconds"],
        "cells_per_second": round(cells_per_second, 1),
        "serial_peak_rss_mb": serial["peak_rss_mb"],
        "digest": serial["digest"][:16],
    }
    throughput_row = {
        "procedures": LARGE_PROCS,
        "cells": cells,
        "cells_per_second": round(cells_per_second, 1),
        "peak_rss_mb": serial["peak_rss_mb"],
    }
    report["large"].append(row)
    report["throughput"].append(throughput_row)
    emit_once(
        capfd,
        "pipeline-large",
        f"large {LARGE_PROCS} procs ({cells} cells): serial "
        f"{serial['seconds']:.1f}s ({cells_per_second:.0f} cells/s, "
        f"{serial['peak_rss_mb']:.0f}MiB, cpus={os.cpu_count()})",
    )
