"""Machinery shared by the three workloads of the repository benchmark.

Everything here runs in the benchmark's own process: starting ``repro``
subprocesses, sampling host speed, order statistics, and the in-memory
span recorder behind the traced run, which times the calls the
analysis driver makes into each layer.
"""

from __future__ import annotations

import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Scratch space of a run (inputs, caches, sockets); removed on exit.
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
#: Chrome traces of traced runs; kept so they can be loaded in Perfetto.
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")
NPROC = os.cpu_count() or 1

#: The host-speed probe: a fresh isolated interpreter importing a fixed
#: set of standard-library modules, which is the kind of work every op
#: does and no change to ``src/`` can speed up (90-130 ms on a 2-CPU
#: Xeon VM). It tracks this host's drift far better than a pure-Python
#: loop in the benchmark's own process: over 150 alternating samples
#: its correlation with one ``repro analyze`` was 0.69-0.81, the loop's
#: 0.01-0.31.
CALIB_COMMAND = (
    sys.executable, "-I", "-c",
    "import argparse, dataclasses, decimal, email.parser, json, typing",
)
#: The probe time that defines the reference host speed. Timed metrics
#: are reported at that speed, scaled by CALIB_REF_MS over the run's
#: median probe time, because this host's speed drifts by up to a
#: factor of two between runs minutes apart.
CALIB_REF_MS = 100.0


class BenchError(RuntimeError):
    """The benchmark itself cannot proceed (not an op failure)."""


def program_available() -> bool:
    return os.path.isfile(os.path.join(SRC, "repro", "__init__.py"))


def import_program() -> None:
    """Make the checkout's ``repro`` package importable in-process."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def child_env(tmpdir: str) -> Dict[str, str]:
    """Environment for ``repro`` subprocesses: the checkout's sources,
    default engine settings, temp files inside the work dir. The hash
    seed is inherited, never pinned."""
    env = {
        key: value for key, value in os.environ.items()
        if not key.startswith("REPRO_")
    }
    env["PYTHONPATH"] = SRC
    env["TMPDIR"] = tmpdir
    return env


@contextmanager
def work_dir(workload: str) -> Iterator[str]:
    """A fresh scratch directory for one run, removed however the run
    ends (temp files of the program land there too)."""
    path = os.path.join(WORK_ROOT, f"{workload}-{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(os.path.join(path, "tmp"))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass
        # Finish the deletions' I/O now, not during the next run.
        os.sync()


class ProcessResult:
    __slots__ = ("code", "stdout", "stderr", "seconds")

    def __init__(self, code: int, stdout: str, stderr: str, seconds: float):
        self.code = code
        self.stdout = stdout
        self.stderr = stderr
        self.seconds = seconds


def run_repro(args: Sequence[str], env: Dict[str, str],
              timeout: float = 120.0) -> ProcessResult:
    """One ``python -m repro ARGS`` invocation, timed from spawn to
    exit (interpreter start and imports included). Output goes to pipes
    on every timed child: ``subprocess`` then sees the exit as the pipes
    close, where a wait with a timeout and no pipes polls at up to 50 ms
    intervals and would round the time up."""
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *args], env=env, cwd=ROOT,
        capture_output=True, text=True, timeout=timeout,
    )
    seconds = time.perf_counter() - started
    return ProcessResult(proc.returncode, proc.stdout, proc.stderr, seconds)


def startup_probe(env: Dict[str, str], repeats: int = 5) -> float:
    """Median milliseconds of a fresh ``import repro.cli``."""
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import repro.cli"], env=env, cwd=ROOT,
            check=True, timeout=60, capture_output=True,
        )
        samples.append((time.perf_counter() - started) * 1000.0)
    return statistics.median(samples)


def parallel_map(function, items: Sequence) -> list:
    """``map`` over NPROC worker processes, for output checks (outside
    every timed region); the pool is joined before returning. Workers
    are forked: the benchmark runs no threads of its own, the executor
    forks its workers before starting its manager thread, and fork
    needs no resource-tracker process that would outlive the run."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(NPROC, mp_context=context) as pool:
        return list(pool.map(function, items))


def children_peak_rss_mb() -> float:
    """Largest resident set of any reaped child (Linux reports KiB);
    a child's figure includes the pool workers it reaped itself."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def calibrate() -> float:
    """Milliseconds for one CALIB_COMMAND run: host speed right now."""
    started = time.perf_counter()
    subprocess.run(CALIB_COMMAND, cwd=ROOT, check=True, timeout=60,
                   capture_output=True)
    return (time.perf_counter() - started) * 1000.0


def stratified(rng, count: int, low: float, high: float) -> List[float]:
    """``count`` draws from [low, high), one per equal-width stratum, in
    shuffled order: every seed covers the range the same way."""
    values = [
        low + (high - low) * (index + rng.random()) / count
        for index in range(count)
    ]
    rng.shuffle(values)
    return values


def tail(latencies: Sequence[float]) -> Tuple[int, float]:
    """The highest whole percentile with at least ten samples beyond it
    (nearest-rank), as ``(percentile, value)``; the maximum when there
    are too few samples for any."""
    ordered = sorted(latencies)
    count = len(ordered)
    for percentile in range(99, 0, -1):
        rank = math.ceil(percentile * count / 100)
        if rank >= 1 and count - rank >= 10:
            return percentile, ordered[rank - 1]
    return 100, ordered[-1]


def median(values: Iterable[float], default: float = 0.0) -> float:
    values = list(values)
    return statistics.median(values) if values else default


# -- results -----------------------------------------------------------------


class Outcome:
    """What one run measured: op latencies, counts, failures, and the
    metrics the workload reports on top. Times are kept as measured."""

    def __init__(self) -> None:
        self.op_ms: List[float] = []
        #: Wall time inside timed regions (ops only, no probes/checks).
        self.timed_s = 0.0
        #: Peak RSS of the program's processes, taken before any check
        #: starts worker processes of the benchmark's own.
        self.peak_rss_mb = 0.0
        self.failed_ops: set = set()
        self.attempted = 0
        self.failures: List[str] = []
        #: host.calib_ms samples, one before each set-up and each op.
        self.calib_ms: List[float] = []
        self.setup_s: List[float] = []
        self.metrics: Dict[str, Tuple[float, str]] = {}
        self.notes: List[str] = []
        #: The traced run's spans (traced runs only).
        self.traced: Optional["TracedRun"] = None

    def ops_done(self) -> None:
        """Call once every process of the program has been reaped."""
        self.peak_rss_mb = children_peak_rss_mb()

    def calibrate(self) -> None:
        """Sample host speed (outside every timed region)."""
        self.calib_ms.append(calibrate())

    @property
    def scale(self) -> float:
        """Factor from this run's times to the reference host speed."""
        return CALIB_REF_MS / statistics.median(self.calib_ms)

    def fail(self, op: int, reason: str) -> None:
        self.failed_ops.add(op)
        if len(self.failures) < 20:
            self.failures.append(f"op {op}: {reason}")

    def set(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (value, unit)

    @property
    def failed(self) -> int:
        return len(self.failed_ops)


def end_to_end(outcome: Outcome, op_name: str, programs: int,
               substituted: int) -> None:
    """The metrics every workload reports the same way."""
    count = len(outcome.op_ms)
    percentile, tail_ms = tail(outcome.op_ms)
    p50_ms = statistics.median(outcome.op_ms)
    setup_s = statistics.median(outcome.setup_s)
    scale = outcome.scale
    outcome.set("op_p50_ms", p50_ms * scale, "ms")
    outcome.set("op_tail_ms", tail_ms * scale, "ms")
    outcome.notes.append(
        f"op = {op_name}: {count} ops, op_tail_ms is p{percentile}"
    )
    outcome.set("programs_per_s", programs / (outcome.timed_s * scale), "1/s")
    outcome.set("substituted_refs", substituted, "count")
    outcome.set("peak_rss_mb", outcome.peak_rss_mb, "MB")
    outcome.set("setup_s", setup_s * scale, "s")
    outcome.set(
        "error_rate", outcome.failed / max(1, outcome.attempted), "ratio"
    )
    outcome.notes.append(
        f"times are at the reference host speed (host.calib_ms "
        f"{CALIB_REF_MS:g}); as measured: op_p50_ms {p50_ms:.1f}, "
        f"op_tail_ms {tail_ms:.1f}, programs_per_s "
        f"{programs / outcome.timed_s:.3f}, setup_s {setup_s:.3f}"
    )


# -- spans -------------------------------------------------------------------


class Span:
    __slots__ = ("name", "start", "end", "parent", "op")

    def __init__(self, name: str, start: int, parent: Optional[int],
                 op: Optional[int]):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op


class Tracer:
    """In-memory span recorder: name, start, end, parent and op id per
    span, written out once as Chrome-trace JSON."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str, op: Optional[int] = None) -> Iterator[Span]:
        parent = self._open[-1] if self._open else None
        if op is None and parent is not None:
            op = self.spans[parent].op
        record = Span(name, time.perf_counter_ns(), parent, op)
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record.end = time.perf_counter_ns()
            self._open.pop()

    def self_ms(self) -> List[float]:
        """Each span's duration minus its direct children's, in ms."""
        child_ns = [0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_ns[span.parent] += span.end - span.start
        return [
            (span.end - span.start - child_ns[index]) / 1e6
            for index, span in enumerate(self.spans)
        ]

    def per_op_self_ms(self) -> Dict[str, Dict[int, float]]:
        """Layer name -> op id -> summed self time of that layer's spans."""
        table: Dict[str, Dict[int, float]] = {}
        for span, own in zip(self.spans, self.self_ms()):
            per_op = table.setdefault(span.name, {})
            per_op[span.op] = per_op.get(span.op, 0.0) + own
        return table

    def coverage(self, root: str) -> List[float]:
        """For every ``root`` span, the share of its time its direct
        children (the layer spans) account for."""
        child_ns: Dict[int, int] = {}
        for span in self.spans:
            if span.parent is not None:
                child_ns[span.parent] = (
                    child_ns.get(span.parent, 0) + span.end - span.start
                )
        return [
            child_ns.get(index, 0) / max(1, span.end - span.start)
            for index, span in enumerate(self.spans)
            if span.name == root
        ]

    def chrome_trace(self) -> dict:
        pid = os.getpid()
        events = []
        for span in self.spans:
            start_us = span.start // 1000
            events.append({
                "name": span.name, "ph": "X", "pid": pid, "tid": 1,
                "ts": start_us, "dur": span.end // 1000 - start_us,
                "args": {"op": span.op},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}


@contextmanager
def traced_functions(tracer: Tracer,
                     targets: Sequence[Tuple[object, str, str]]
                     ) -> Iterator[None]:
    """Time every call of ``module.attr`` as a span named ``name`` for
    each ``(module, attr, name)`` target, restoring the originals after.
    Spans nest as the calls do."""
    saved = []
    for module, attr, name in targets:
        original = getattr(module, attr)

        def wrapper(*args, _original=original, _name=name, **kwargs):
            with tracer.span(_name):
                return _original(*args, **kwargs)

        setattr(module, attr, wrapper)
        saved.append((module, attr, original))
    try:
        yield
    finally:
        for module, attr, original in saved:
            setattr(module, attr, original)


#: Per-layer metrics read from layer spans, as (metric, span name).
SPAN_METRICS = (
    ("frontend.parse_ms", "frontend.parse"),
    ("ir.lower_ms", "ir.lower"),
    ("callgraph.build_ms", "callgraph.build"),
    ("summary.modref_ms", "summary.modref"),
    ("analysis.ssa_ms", "analysis.ssa"),
    ("linkage.resolve_ms", "linkage.resolve"),
    ("ipcp.return_functions_ms", "ipcp.return_functions"),
    ("ipcp.forward_functions_ms", "ipcp.forward_functions"),
    ("ipcp.propagate_ms", "ipcp.propagate"),
    ("ipcp.substitution_ms", "ipcp.substitution"),
    ("ipcp.complete_ms", "ipcp.complete"),
    ("ipcp.report_ms", "ipcp.report"),
    ("opt.pipeline_ms", "opt.pipeline"),
    ("opt.fold_ms", "opt.fold"),
    ("opt.branches_ms", "opt.branches"),
    ("opt.unswitch_ms", "opt.unswitch"),
    ("opt.callargs_ms", "opt.callargs"),
)

#: Every per-layer metric with its unit, in report order. A workload
#: that does not exercise a layer reports 0 for it.
PER_LAYER_UNITS = dict(
    [("cli.startup_ms", "ms")]
    + [(metric, "ms") for metric, _ in SPAN_METRICS]
    + [
        ("frontend.lines_per_s", "lines/s"),
        ("ipcp.cells", "count"),
        ("opt.changes", "count"),
        ("batch.efficiency", "ratio"),
        ("engine.cache_get_ms", "ms"),
        ("engine.cache_put_ms", "ms"),
        ("engine.run_entry_kb", "kB"),
        ("engine.summary_stores", "count"),
        ("engine.dirty_procs", "count"),
        ("engine.summary_hit_ratio", "ratio"),
        ("serve.queue_ms", "ms"),
        ("serve.parse_ms", "ms"),
        ("serve.solve_ms", "ms"),
        ("serve.render_ms", "ms"),
        ("serve.replay_ms", "ms"),
        ("serve.wire_ms", "ms"),
        ("trace.overhead_ms", "ms"),
        ("host.calib_ms", "ms"),
    ]
)


#: Least share of every in-process op span its layer spans must cover.
MIN_COVERAGE = 0.9


class TracedRun:
    """The traced run's span recorder plus the layer counts gathered
    alongside it (lines parsed and VAL cells per op)."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.lines: Dict[int, int] = {}
        self.cells = 0
        self.opt_changes = 0
        #: (traced ms, untraced ms) of the same in-process call.
        self.overhead_pairs: List[Tuple[float, float]] = []

    @contextmanager
    def op(self, op: int, named: Sequence[Tuple[str, str]]
           ) -> Iterator[Span]:
        """The span of in-process op ``op`` over the ``(filename, text)``
        files ``named``, with every layer function timed inside it."""
        self.lines[op] = self.lines.get(op, 0) + sum(
            text.count("\n") for _, text in named
        )
        with traced_functions(self.tracer, layer_functions()):
            with self.tracer.span("op", op) as span:
                yield span

    def count_cells(self, result) -> None:
        """Add the VAL cells (entry-domain size of every procedure) of an
        analysis result."""
        from repro.ipcp.solver import entry_domain

        program = result.program
        self.cells += sum(len(entry_domain(p, program)) for p in program)

    def layer_metrics(self, outcome: Outcome) -> None:
        per_op = self.tracer.per_op_self_ms()
        for metric, name in SPAN_METRICS:
            outcome.set(
                metric, median(per_op.get(name, {}).values()),
                PER_LAYER_UNITS[metric],
            )
        parse = per_op.get("frontend.parse", {})
        outcome.set("frontend.lines_per_s", median(
            self.lines[op] / (ms / 1000.0)
            for op, ms in parse.items() if ms > 0 and op in self.lines
        ), "lines/s")
        outcome.set("ipcp.cells", self.cells, "count")
        outcome.set("opt.changes", self.opt_changes, "count")
        outcome.set("trace.overhead_ms", median(
            traced - plain for traced, plain in self.overhead_pairs
        ), "ms")
        coverage = min(self.tracer.coverage("op"), default=0.0)
        if coverage < MIN_COVERAGE:
            raise BenchError(
                f"layer spans cover only {coverage:.1%} of an op span: a "
                f"layer function the driver calls is not traced"
            )
        outcome.notes.append(
            f"layer spans cover >= {coverage:.1%} of every in-process op span"
        )

    def write(self, workload: str, seed: int) -> str:
        """Validate the Chrome trace and write it under OUT_ROOT."""
        from repro.obs.trace import validate_chrome_trace

        payload = self.tracer.chrome_trace()
        problems = validate_chrome_trace(payload)
        if problems:
            raise BenchError("invalid Chrome trace: " + "; ".join(problems[:3]))
        os.makedirs(OUT_ROOT, exist_ok=True)
        path = os.path.join(OUT_ROOT, f"trace-{workload}-seed{seed}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        return path

    def self_time_table(self) -> str:
        """Per-layer self time summed over the run, largest first."""
        totals: Dict[str, float] = {}
        for span, own in zip(self.tracer.spans, self.tracer.self_ms()):
            totals[span.name] = totals.get(span.name, 0.0) + own
        whole = sum(totals.values()) or 1.0
        lines = [f"{'layer':<26} {'self ms':>10} {'share':>7}"]
        for name, total in sorted(totals.items(), key=lambda kv: -kv[1]):
            lines.append(f"{name:<26} {total:>10.1f} {total / whole:>7.1%}")
        return "\n".join(lines)


# -- the layers the driver calls --------------------------------------------


def layer_functions() -> List[Tuple[object, str, str]]:
    """``(module, attribute, span name)`` of every layer function that
    the analysis driver, the linker and the optimizer call through a
    module-level name, so that wrapping the name times the real call.
    Complete propagation calls the back-half layers again from inside
    its span; self time keeps them apart."""
    from repro.ipcp import complete, driver
    from repro.ir import lowering
    from repro.linkage import linker
    from repro.opt import passes

    return [
        (driver, "parse_source", "frontend.parse"),
        (linker, "parse_source", "frontend.parse"),
        (linker, "link_sources", "linkage.resolve"),
        (driver, "lower_module", "ir.lower"),
        (lowering, "lower_module", "ir.lower"),
        (driver, "build_call_graph", "callgraph.build"),
        (driver, "compute_modref", "summary.modref"),
        (driver, "annotate_call_effects", "summary.modref"),
        (driver, "construct_ssa", "analysis.ssa"),
        (driver, "build_return_functions", "ipcp.return_functions"),
        (driver, "build_forward_jump_functions", "ipcp.forward_functions"),
        (driver, "propagate", "ipcp.propagate"),
        (driver, "measure_substitution", "ipcp.substitution"),
        (complete, "run_complete_propagation", "ipcp.complete"),
        (passes, "fold_constants", "opt.fold"),
        (passes, "materialize_call_args", "opt.callargs"),
        (passes, "fold_branches", "opt.branches"),
        (passes, "unswitch_loops", "opt.unswitch"),
    ]


def render_analysis(result, linked_files: Optional[int] = None) -> str:
    """The stdout ``repro analyze`` (or, with ``linked_files``,
    ``repro link``) prints for ``result`` under default flags."""
    lines = [f"configuration: {result.config.describe()}"]
    if linked_files is not None:
        lines.append(
            f"linked {linked_files} file(s) -> "
            f"{sum(1 for _ in result.program)} procedure(s)"
        )
    lines.append(result.constants.format_report())
    lines.append(
        f"substituted constant references: {result.substituted_constants}"
    )
    per_procedure = result.substitution.per_procedure
    for name in sorted(per_procedure):
        if per_procedure[name]:
            lines.append(f"  {name}: {per_procedure[name]}")
    return "\n".join(lines) + "\n"
