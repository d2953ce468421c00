"""The batch thread executor is no longer serialized: files genuinely
overlap in time (worker engine state is thread-local, per-file metrics
land in thread-scoped registries) while output stays byte-identical to
the inline run — per-file reports *and* per-file metrics deltas."""

from __future__ import annotations

import threading
import time

import pytest

from repro import faults
from repro.config import AnalysisConfig
from repro.engine import batch
from repro.suite.generator import GeneratorConfig, generate_case

GENERATOR = GeneratorConfig(procedures=6, max_statements_per_procedure=8)


@pytest.fixture(autouse=True)
def _no_leaked_faults():
    faults.clear()
    yield
    faults.clear()


@pytest.fixture
def files(tmp_path):
    paths = []
    for seed in range(4):
        path = tmp_path / f"unit{seed}.f"
        path.write_text(generate_case(seed, GENERATOR).source)
        paths.append(str(path))
    return paths


def file_fingerprint(outcome):
    return (
        outcome.path,
        outcome.status,
        outcome.constants_report,
        outcome.total_pairs,
        outcome.substituted,
        dict(outcome.per_procedure),
    )


def test_threads_really_overlap(files, monkeypatch):
    """With a 200ms per-file delay fault armed, two thread workers must
    have at least two files in flight at once — the old global
    worker-state lock serialized them — and two of the injected delays
    must be in progress at the same moment."""
    concurrent = {"now": 0, "peak": 0}
    delays = []
    gate = threading.Lock()
    original = batch.analyze_one
    original_delay = faults.delay

    def tracked(path, *args, **kwargs):
        with gate:
            concurrent["now"] += 1
            concurrent["peak"] = max(concurrent["peak"], concurrent["now"])
        try:
            return original(path, *args, **kwargs)
        finally:
            with gate:
                concurrent["now"] -= 1

    def timed_delay(point, **context):
        started = time.perf_counter()
        slept = original_delay(point, **context)
        if slept:
            with gate:
                delays.append((started, time.perf_counter()))
        return slept

    faults.install("delay-file:ms=200", export_env=False)
    monkeypatch.setattr(faults, "delay", timed_delay)
    batch.analyze_one = tracked
    try:
        result = batch.run_batch(
            files, AnalysisConfig(), jobs=2, executor="thread"
        )
    finally:
        batch.analyze_one = original
        faults.clear()

    assert result.ok
    assert concurrent["peak"] >= 2, (
        "thread executor never had two files in flight — still serialized"
    )
    # The overlap itself, read off the clock of each delay rather than
    # bounded by the batch's wall time (which a loaded host stretches).
    assert len(delays) == len(files)
    assert any(
        first_start < second_end and second_start < first_end
        for index, (first_start, first_end) in enumerate(delays)
        for second_start, second_end in delays[index + 1:]
    ), f"no two injected delays were in progress at once: {delays}"


def test_thread_output_byte_identical_to_inline(files):
    inline = batch.run_batch(files, AnalysisConfig(), jobs=1)
    threaded = batch.run_batch(
        files, AnalysisConfig(), jobs=2, executor="thread"
    )
    assert [file_fingerprint(o) for o in threaded.files] == [
        file_fingerprint(o) for o in inline.files
    ]
    assert threaded.totals()["by_status"] == inline.totals()["by_status"]


def test_thread_scoped_metrics_isolate_per_file(files):
    """Overlapping files must each report exactly their own counter
    delta: same numbers the file reports when analyzed alone."""
    faults.install("delay-file:ms=50", export_env=False)
    try:
        threaded = batch.run_batch(
            files, AnalysisConfig(), jobs=2, executor="thread",
            want_metrics=True,
        )
    finally:
        faults.clear()
    alone = {
        path: batch.analyze_one(
            path, AnalysisConfig(), want_metrics=True
        )
        for path in files
    }
    for outcome in threaded.files:
        expected = alone[outcome.path].metrics["counters"]
        observed = outcome.metrics["counters"]
        # Interpreter-level memo counters depend on process history;
        # the analysis counters must match exactly.
        keys = {
            k for k in set(expected) | set(observed)
            if not k.startswith("memo_")
        }
        for key in sorted(keys):
            assert observed.get(key, 0) == expected.get(key, 0), (
                f"{outcome.path}: counter {key} diverged under overlap"
            )


def test_thread_profiles_attach_per_file(files):
    threaded = batch.run_batch(
        files, AnalysisConfig(), jobs=2, executor="thread",
        want_profile=True,
    )
    assert threaded.ok
    for outcome in threaded.files:
        assert outcome.profile is not None
        assert outcome.profile["counters"].get("parses", 0) >= 1


def test_concurrent_profiles_hold_their_own_stages(files, tmp_path,
                                                   monkeypatch):
    """Two files inside their ``propagate`` stage at the same moment:
    each file's profile holds exactly its own stage calls and counters
    (the same counters it reports analyzed alone), and its total counts
    the nested ``fingerprint`` stage once."""
    from repro.ipcp import driver

    pair = files[:2]
    both_inside = threading.Barrier(2, timeout=30)
    original = driver.propagate

    def meet_then_propagate(*args, **kwargs):
        both_inside.wait()
        return original(*args, **kwargs)

    monkeypatch.setattr(driver, "propagate", meet_then_propagate)
    threaded = batch.run_batch(
        pair, AnalysisConfig(), jobs=2, executor="thread",
        cache_dir=str(tmp_path / "shared"), want_profile=True,
    )
    monkeypatch.setattr(driver, "propagate", original)
    assert threaded.ok

    def calls(profile):
        return {name: e["calls"] for name, e in profile["stages"].items()}

    for index, outcome in enumerate(threaded.files):
        alone = batch.analyze_one(
            outcome.path, AnalysisConfig(),
            cache_dir=str(tmp_path / f"alone{index}"), want_profile=True,
        )
        assert calls(outcome.profile) == calls(alone.profile)
        assert set(calls(outcome.profile).values()) == {1}
        assert outcome.profile["counters"] == alone.profile["counters"]
        stages = outcome.profile["stages"]
        outermost = sum(
            entry["seconds"] for name, entry in stages.items()
            if name != "fingerprint"
        )
        assert outcome.profile["total_seconds"] == pytest.approx(
            outermost, abs=1e-5
        )
