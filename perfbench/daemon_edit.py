"""daemon-edit: an editor session against ``repro serve``.

Closed loop over one client connection to a daemon with default
settings (jobs 1) and a fresh on-disk cache. Each cycle saves one
seeded literal edit in a seeded procedure of one of the project's four
files (the same files on every seed) and sends ``analyze`` for it (the
op), then ``analyze`` for every unchanged file (the replays). Cache
reads and writes, incremental manifests and the serve protocol do most
of the work: jump functions are rebuilt only for the dirty set, and
replays isolate the fixed cost of a request.
One client only: with a single dispatcher thread two closed-loop
clients phase-lock, and their median then depends on the interleaving.
"""

from __future__ import annotations

import glob
import json
import os
import random
import re
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

from common import (
    ROOT,
    BenchError,
    Outcome,
    TracedRun,
    child_env,
    end_to_end,
    median,
    parallel_map,
    startup_probe,
    stratified,
)

NAME = "daemon-edit"
#: Edit cycles per requested second, rounded to whole rounds over the
#: files (fixed count, never time-boxed).
CYCLES_PER_SECOND = 2.0
FILES = 4
PROCEDURES = 300
LAYER_WIDTH = 32
#: File i of the session is ``generate_scaled_program(PROJECT_SEED + i)``
#: on every seed; only the edits are seeded. Four seeded files would be
#: too few for a count summed over them to be steady across seeds
#: (substituted_refs would spread up to 0.13 between sets of ten seeds).
PROJECT_SEED = 0
#: Daemon set-ups per run (fresh cache each); setup_s is their median.
SETUPS = 3
#: Poll the daemon's 256-entry request ring at least this often.
OBS_EVERY = 8

#: The analysis a response carries, as compared across answers.
ANSWER_KEYS = (
    "config", "constants_report", "total_pairs", "substituted",
    "per_procedure",
)
_LITERAL = re.compile(r"^(      \w+ = )(-?\d+)$", re.M)
_HEADER = re.compile(r"(?:SUBROUTINE|FUNCTION) P(\d+)\b")


def answer_of(payload: dict) -> str:
    return json.dumps(
        {key: payload.get(key) for key in ANSWER_KEYS}, sort_keys=True
    )


def answer_in_process(result) -> str:
    return answer_of({
        "config": result.config.describe(),
        "constants_report": result.constants.format_report(),
        "total_pairs": result.constants.total_pairs(),
        "substituted": result.substituted_constants,
        "per_procedure": dict(result.substitution.per_procedure),
    })


def edit(text: str, procedure: int, rng: random.Random,
         seen: set) -> str:
    """Change one integer literal assigned in ``procedure`` (or the next
    procedure that has one) to a fresh value, never re-creating a text
    the session has already analyzed."""
    units = text.split("\n\n")
    by_proc = {}
    for index, unit in enumerate(units):
        match = _HEADER.search(unit.split("\n", 1)[0])
        if match:
            by_proc[int(match.group(1))] = index
    for step in range(len(by_proc)):
        index = by_proc[(procedure + step) % len(by_proc)]
        literals = list(_LITERAL.finditer(units[index]))
        rng.shuffle(literals)
        for match in literals:
            for value in rng.sample(range(-20, 21), 41):
                if value == int(match.group(2)):
                    continue
                unit = units[index]
                units[index] = (
                    unit[:match.start(2)] + str(value) + unit[match.end(2):]
                )
                candidate = "\n\n".join(units)
                if candidate not in seen:
                    return candidate
                units[index] = unit
    raise BenchError("no literal left to edit")


def plan(seed: int, cycles: int) -> Tuple[List[str], List[Tuple[int, str]]]:
    """The four initial texts (the same on every seed) and the (file,
    saved text) of each cycle."""
    from repro.suite.generator import ScaleConfig, generate_scaled_program

    texts = [
        generate_scaled_program(
            PROJECT_SEED + index,
            ScaleConfig(procedures=PROCEDURES, layer_width=LAYER_WIDTH),
        )
        for index in range(FILES)
    ]
    rng = random.Random(seed)
    # Edit depth stratified over the call-graph layers, files visited
    # in seeded rounds: every seed edits shallow and deep procedures
    # alike, so dirty-set sizes are drawn from the same distribution.
    depths = stratified(rng, cycles, 0, PROCEDURES)
    order: List[int] = []
    while len(order) < cycles:
        round_ = list(range(FILES))
        rng.shuffle(round_)
        order.extend(round_)
    current = list(texts)
    seen = set(texts)
    edits = []
    for cycle in range(cycles):
        target = order[cycle]
        current[target] = edit(current[target], int(depths[cycle]), rng, seen)
        seen.add(current[target])
        edits.append((target, current[target]))
    return texts, edits


def save(path: str, text: str) -> None:
    temp = path + ".tmp"
    with open(temp, "w", encoding="utf-8") as handle:
        handle.write(text)
    os.replace(temp, path)


class Daemon:
    """One ``repro serve`` subprocess and a client connection to it."""

    def __init__(self, work: str, env, cache_dir: str):
        from repro.serve.client import ReproClient

        # Relative paths (to each end's cwd) keep the unix socket path
        # short wherever the checkout lives.
        socket = os.path.join(work, "serve.sock")
        self.client = None
        self.log = open(os.path.join(work, "serve.log"), "ab")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--socket",
             os.path.relpath(socket, ROOT), "--cache-dir", cache_dir],
            cwd=ROOT, env=env, stdout=self.log, stderr=self.log,
        )
        deadline = time.monotonic() + 60
        while True:
            try:
                self.client = ReproClient(
                    os.path.relpath(socket), timeout=120
                )
                return
            except OSError:
                if self.proc.poll() is not None or time.monotonic() > deadline:
                    self.kill()
                    raise BenchError("repro serve did not start") from None
                time.sleep(0.001)

    def stop(self) -> None:
        """The ``shutdown`` op, then wait for the drain to finish."""
        try:
            self.client.shutdown()
            self.client.close()
            self.proc.wait(timeout=30)
        finally:
            self.kill()

    def kill(self) -> None:
        if self.client is not None:
            self.client.close()
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self.log.close()


def run(seed: int, seconds: int, traced: bool, work: str) -> Outcome:
    from repro.serve.client import ServeRequestError

    cycles = FILES * max(1, round(seconds * CYCLES_PER_SECOND / FILES))
    texts, edits = plan(seed, cycles)
    paths = [os.path.abspath(os.path.join(work, f"file{i}.f"))
             for i in range(FILES)]
    for path, text in zip(paths, texts):
        save(path, text)
    env = child_env(os.path.join(work, "tmp"))
    outcome = Outcome()

    daemon: Optional[Daemon] = None
    #: (kind, file index, saved text, result payload, client ms)
    session: List[Tuple[str, int, str, dict, float]] = []
    ring: Dict[str, dict] = {}
    try:
        for attempt in range(SETUPS):
            if daemon is not None:
                daemon.stop()
            cache_dir = os.path.join(work, f"cache{attempt}")
            # Earlier set-ups' cache files stay until the run ends and
            # are flushed here, so their writeback (or deletion) never
            # lands inside a timed region.
            os.sync()
            outcome.calibrate()
            started = time.perf_counter()
            daemon = Daemon(work, env, cache_dir)
            cold = [daemon.client.analyze(path)["result"] for path in paths]
            outcome.setup_s.append(time.perf_counter() - started)

        os.sync()
        current = list(texts)
        for cycle, (target, text) in enumerate(edits):
            outcome.calibrate()
            if traced and cycle % OBS_EVERY == 0:
                poll_ring(daemon, ring)
            save(paths[target], text)
            current[target] = text
            for index in [target] + [i for i in range(FILES) if i != target]:
                started = time.perf_counter()
                try:
                    result = daemon.client.analyze(paths[index])["result"]
                except ServeRequestError as err:
                    result = {"status": f"error: {err}"}
                elapsed = time.perf_counter() - started
                outcome.timed_s += elapsed
                kind = "edit" if index == target else "replay"
                session.append(
                    (kind, index, current[index], result, elapsed * 1000.0)
                )
        if traced:
            poll_ring(daemon, ring)
        daemon.stop()
    except BaseException:
        if daemon is not None:
            daemon.kill()
        raise

    outcome.ops_done()
    # Output checks, outside every timed region: cold answers (set-up
    # and edits) against a cold in-process analysis of the saved text,
    # replays against the file's last answer.
    cold_jobs = {text: (paths[index], text)
                 for index, text in enumerate(texts)}
    for kind, index, text, _, _ in session:
        if kind == "edit":
            cold_jobs.setdefault(text, (paths[index], text))
    traced_run = TracedRun() if traced else None
    if traced:
        expected = {
            text: traced_answer(traced_run, op, job)
            for op, (text, job) in enumerate(cold_jobs.items())
        }
    else:
        expected = dict(zip(
            cold_jobs, parallel_map(cold_answer, list(cold_jobs.values()))
        ))
    answers: Dict[int, str] = {}
    for index, text in enumerate(texts):
        answers[index] = answer_of(cold[index])
        if answers[index] != expected[text]:
            raise BenchError("cold set-up answer differs from in-process")
    replay_ms = []
    outcome.attempted = len(session)
    for op, (kind, index, text, result, ms) in enumerate(session):
        (outcome.op_ms if kind == "edit" else replay_ms).append(ms)
        if result.get("status") != "ok":
            outcome.fail(op, f"{kind} answered {result.get('status')}")
            continue
        got = answer_of(result)
        if kind == "edit" and got != expected[text]:
            outcome.fail(op, "edit answer differs from a cold analysis")
        elif kind == "replay" and got != answers[index]:
            outcome.fail(op, "replay differs from the file's last answer")
        else:
            answers[index] = got
    # Over the files as first saved: the same set whatever the run
    # length or the seed.
    substituted = sum(
        json.loads(expected[text])["substituted"] for text in texts
    )
    end_to_end(outcome, "analyze of the edited file", len(session),
               substituted)
    outcome.set("replay_p50_ms", median(replay_ms) * outcome.scale, "ms")
    outcome.notes.append(f"{len(replay_ms)} replays")

    if traced:
        daemon_layers(outcome, traced_run, session, ring, cache_dir, env)
    return outcome


def cold_answer(job: Tuple[str, str]) -> str:
    """A cold in-process analysis of a ``(path, text)`` job, rendered
    as the daemon's answer."""
    from repro.ipcp.driver import analyze_source

    path, text = job
    return answer_in_process(analyze_source(text, filename=path))


def traced_answer(traced_run: TracedRun, op: int,
                  job: Tuple[str, str]) -> str:
    """:func:`cold_answer` with every layer function traced. The set-up
    files (the first FILES jobs) are also analyzed untraced right
    before, to price the tracing."""
    from repro.ipcp.driver import analyze_source

    path, text = job
    if op < FILES:
        started = time.perf_counter()
        cold_answer(job)
        plain_ms = (time.perf_counter() - started) * 1000.0
    with traced_run.op(op, [job]) as span:
        result = analyze_source(text, filename=path)
        with traced_run.tracer.span("ipcp.report"):
            answer = answer_in_process(result)
    traced_run.count_cells(result)
    if op < FILES:
        traced_run.overhead_pairs.append(
            ((span.end - span.start) / 1e6, plain_ms)
        )
    return answer


def poll_ring(daemon: Daemon, ring: Dict[str, dict]) -> None:
    recent = daemon.client.obs(limit=64)["result"]["recent"]
    for entry in recent:
        ring[entry["request_id"]] = entry


def daemon_layers(outcome: Outcome, traced_run: TracedRun, session,
                  ring: Dict[str, dict], cache_dir: str, env) -> None:
    """Per-layer numbers from what the daemon publishes: counter deltas
    in each response, the obs ring, and its run entries on disk."""
    from repro.engine.cache import SummaryCache

    entries = [
        ring[key] for key in sorted(ring) if ring[key]["op"] == "analyze"
    ][FILES:]  # the first FILES analyses were the cold set-up
    if len(entries) != len(session):
        raise BenchError(
            f"obs ring returned {len(entries)} of {len(session)} requests"
        )
    for (_, index, _, _, _), entry in zip(session, entries):
        if not entry["path"].endswith(f"file{index}.f"):
            raise BenchError("obs ring entries out of request order")
    edits = [(s, e) for s, e in zip(session, entries) if s[0] == "edit"]
    replays = [e for s, e in zip(session, entries) if s[0] == "replay"]
    for name in ("queue", "parse", "solve", "render"):
        outcome.set(f"serve.{name}_ms",
                    median(e[f"{name}_ms"] for _, e in edits), "ms")
    outcome.set("serve.replay_ms", median(e["total_ms"] for e in replays),
                "ms")
    outcome.set("serve.wire_ms", median(
        s[4] - e["total_ms"] for s, e in zip(session, entries)
    ), "ms")

    counters: Dict[str, int] = {}
    for (_, _, _, result, _), _ in edits:
        for name, value in result.get("metrics", {}).items():
            counters[name] = counters.get(name, 0) + value
    outcome.set("engine.summary_stores",
                counters.get("summary_cache_stores", 0), "count")
    outcome.set("engine.dirty_procs",
                counters.get("incremental_dirty", 0), "count")
    hits = counters.get("summary_cache_hits", 0)
    lookups = hits + counters.get("summary_cache_misses", 0)
    outcome.set("engine.summary_hit_ratio", hits / max(1, lookups), "ratio")

    # The session daemon's run entries, re-read and re-written.
    cache = SummaryCache(cache_dir)
    get_ms, put_ms, sizes = [], [], []
    for path in sorted(glob.glob(os.path.join(cache_dir, "v*", "run", "*",
                                              "*.json"))):
        key = os.path.basename(path)[:-len(".json")]
        sizes.append(os.path.getsize(path) / 1024.0)
        started = time.perf_counter()
        body = cache.get("run", key)
        get_ms.append((time.perf_counter() - started) * 1000.0)
        if body is None:
            raise BenchError(f"run entry {key} failed verification")
        started = time.perf_counter()
        cache.put("run", key, body)
        put_ms.append((time.perf_counter() - started) * 1000.0)
    outcome.set("engine.cache_get_ms", median(get_ms), "ms")
    outcome.set("engine.cache_put_ms", median(put_ms), "ms")
    outcome.set("engine.run_entry_kb", median(sizes), "kB")

    traced_run.layer_metrics(outcome)
    outcome.set("cli.startup_ms", startup_probe(env), "ms")
    outcome.traced = traced_run
