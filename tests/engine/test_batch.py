"""Batch driver: scheduling, outcome plumbing, executor parity, the
run-level replay path, and the ``repro batch`` CLI."""

from __future__ import annotations

import io
import json

import pytest

from repro.cli import main
from repro.config import AnalysisConfig
from repro.engine.batch import (
    BatchResult,
    FileOutcome,
    _schedule,
    analyze_one,
    read_stdin_list,
    run_batch,
)

CONSTANT_PROGRAM = """\
      PROGRAM MAIN
      INTEGER X
      X = 3
      CALL P(X)
      PRINT *, X
      END

      SUBROUTINE P(A)
      INTEGER A
      A = A + 1
      END
"""

SMALL_PROGRAM = """\
      PROGRAM MAIN
      INTEGER Y
      Y = 10
      PRINT *, Y
      END
"""


@pytest.fixture()
def programs(tmp_path):
    big = tmp_path / "big.f"
    big.write_text(CONSTANT_PROGRAM)
    small = tmp_path / "small.f"
    small.write_text(SMALL_PROGRAM)
    return big, small


def outcome_fingerprint(outcome: FileOutcome):
    return (
        outcome.status,
        outcome.constants_report,
        outcome.total_pairs,
        outcome.substituted,
        sorted(outcome.per_procedure.items()),
    )


class TestScheduling:
    def test_big_first_with_stable_ties(self, programs):
        big, small = programs
        paths = [str(small), str(big), str(small)]
        assert _schedule(paths) == [str(big), str(small), str(small)]

    def test_missing_files_sort_last(self, programs):
        big, _ = programs
        order = _schedule(["nope.f", str(big)])
        assert order == [str(big), "nope.f"]


class TestRunBatch:
    def test_results_in_input_order(self, programs):
        big, small = programs
        result = run_batch([str(small), str(big)])
        assert [o.path for o in result.files] == [str(small), str(big)]
        assert result.ok
        assert result.outcome(str(big)).total_pairs == 1
        assert result.outcome(str(big)).substituted == 2
        assert result.outcome(str(small)).substituted == 1

    def test_missing_file_is_isolated(self, programs):
        big, _ = programs
        result = run_batch([str(big), "missing.f"])
        assert not result.ok
        assert result.outcome(str(big)).ok
        failed = result.outcome("missing.f")
        assert failed.status == "error"
        assert failed.error is not None
        assert "1 ok" not in (failed.error or "")

    def test_broken_source_reports_not_crashes(self, tmp_path, programs):
        big, _ = programs
        broken = tmp_path / "broken.f"
        broken.write_text("      THIS IS NOT FORTRAN AT ALL(((\n")
        result = run_batch([str(broken), str(big)])
        assert result.outcome(str(big)).ok
        assert not result.outcome(str(broken)).ok

    def test_replay_on_second_pass(self, tmp_path, programs):
        big, small = programs
        cache = str(tmp_path / "cache")
        cold = run_batch([str(big), str(small)], cache_dir=cache)
        assert [o.replayed for o in cold.files] == [False, False]
        warm = run_batch([str(big), str(small)], cache_dir=cache)
        assert [o.replayed for o in warm.files] == [True, True]
        assert warm.totals()["replayed"] == 2
        for before, after in zip(cold.files, warm.files):
            assert outcome_fingerprint(before) == outcome_fingerprint(after)

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_pool_matches_serial(self, programs, tmp_path, executor):
        big, small = programs
        paths = [str(big), str(small), str(big)]
        serial = run_batch(paths, jobs=1)
        pooled = run_batch(paths, jobs=2, executor=executor)
        assert [outcome_fingerprint(o) for o in serial.files] == [
            outcome_fingerprint(o) for o in pooled.files
        ]

    def test_incremental_reports_cross_the_pool(self, tmp_path, programs):
        big, small = programs
        cache = str(tmp_path / "cache")
        run_batch([str(big), str(small)], cache_dir=cache, explain=True)
        (big).write_text(CONSTANT_PROGRAM.replace("A + 1", "A + 2"))
        warm = run_batch(
            [str(big), str(small)],
            jobs=2,
            cache_dir=cache,
            explain=True,
            executor="thread",
        )
        edited = warm.outcome(str(big)).invalidation
        assert edited["edited"] == ["p"]
        assert edited["downstream"] == ["main"]
        assert warm.outcome(str(small)).invalidation["replayed"]

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            run_batch([], jobs=0)
        with pytest.raises(ValueError):
            run_batch([], executor="carrier-pigeon")


class TestProfileAggregation:
    def test_per_file_and_totals(self, programs):
        big, small = programs
        result = run_batch([str(big), str(small)], want_profile=True)
        report = result.profile_report()
        assert set(report["per_file"]) == {str(big), str(small)}
        aggregate = report["aggregate"]
        for payload in report["per_file"].values():
            assert payload["total_seconds"] >= 0
        assert aggregate["counters"]["parses"] == 2
        assert report["files"] == 2

    def test_analyze_one_counts_recomputation(self, tmp_path, programs):
        big, _ = programs
        cache = str(tmp_path / "cache")
        cold = analyze_one(
            str(big), AnalysisConfig(), cache_dir=cache, want_profile=True
        )
        counters = cold.profile["counters"]
        assert counters["recomputed_ret"] == 2
        assert counters["recomputed_fwd"] == 2
        assert counters["incremental_dirty"] == 2
        warm = analyze_one(
            str(big), AnalysisConfig(), cache_dir=cache, want_profile=True
        )
        assert warm.replayed
        assert "recomputed_ret" not in warm.profile["counters"]


class TestStdinList:
    def test_parses_lines_and_comments(self):
        stream = io.StringIO("a.f\n\n# comment\n  b.f  \n")
        assert read_stdin_list(stream) == ["a.f", "b.f"]


class TestBatchCli:
    def test_summary_lines_and_exit_code(self, programs, capsys):
        big, small = programs
        assert main(["batch", str(big), str(small)]) == 0
        out = capsys.readouterr().out
        assert f"{big}: 1 constant(s), 2 substituted" in out
        assert "2 ok" in out

    def test_failure_exit_code(self, programs, capsys):
        big, _ = programs
        assert main(["batch", str(big), "missing.f"]) == 1
        assert "error" in capsys.readouterr().out

    def test_no_inputs(self, capsys):
        assert main(["batch"]) == 1
        assert "no input files" in capsys.readouterr().err

    def test_stdin_list(self, programs, capsys, monkeypatch):
        big, small = programs
        monkeypatch.setattr(
            "sys.stdin", io.StringIO(f"{big}\n{small}\n")
        )
        assert main(["batch", "--stdin-list"]) == 0
        out = capsys.readouterr().out
        assert str(big) in out and str(small) in out

    def test_report_flag_prints_constants(self, programs, capsys):
        big, _ = programs
        assert main(["batch", str(big), "--report"]) == 0
        assert "CONSTANTS" in capsys.readouterr().out

    def test_explain_invalidation_roundtrip(self, tmp_path, programs, capsys):
        big, _ = programs
        cache = str(tmp_path / "cache")
        main(["batch", str(big), "--cache-dir", cache])
        capsys.readouterr()
        big.write_text(CONSTANT_PROGRAM.replace("A + 1", "A + 5"))
        assert (
            main(
                [
                    "batch", str(big), "--cache-dir", cache,
                    "--explain-invalidation", "--jobs", "2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "edited      p: lowered IR changed" in out
        assert "downstream  main: calls dirty procedure(s): p" in out

    def test_profile_json_written(self, programs, tmp_path, capsys):
        big, small = programs
        destination = tmp_path / "profile.json"
        assert (
            main(
                ["batch", str(big), str(small), "--profile", str(destination)]
            )
            == 0
        )
        payload = json.loads(destination.read_text())
        assert set(payload["per_file"]) == {str(big), str(small)}
        assert payload["aggregate"]["counters"]["parses"] == 2

    def test_config_flags_are_shared(self, programs, capsys):
        big, _ = programs
        assert main(["batch", str(big), "--jump", "literal"]) == 0
        assert main(["batch", str(big), "--intra-only"]) == 0


class TestBatchResultShape:
    def test_totals(self):
        result = BatchResult(
            files=[
                FileOutcome(path="a.f", total_pairs=2, substituted=3),
                FileOutcome(path="b.f", status="error", error="boom"),
                FileOutcome(path="c.f", replayed=True, substituted=1),
            ],
            jobs=4,
        )
        totals = result.totals()
        assert totals == {
            "files": 3,
            "jobs": 4,
            "by_status": {"ok": 2, "error": 1},
            "replayed": 1,
            "total_pairs": 2,
            "substituted": 4,
        }
        assert not result.ok
        with pytest.raises(KeyError):
            result.outcome("nope.f")

    def test_summary_lines(self):
        ok = FileOutcome(path="a.f", total_pairs=1, substituted=2)
        assert ok.summary_line() == "a.f: 1 constant(s), 2 substituted"
        replayed = FileOutcome(path="a.f", replayed=True)
        assert replayed.summary_line().endswith("[replayed]")
        failed = FileOutcome(path="b.f", status="error", error="boom")
        assert failed.summary_line() == "b.f: error: boom"


class TestCounterIsolation:
    """The old driver reset the process-wide counters around every file
    (destroying concurrent state and leaking partial counts into
    per-file profiles); isolation now comes from registry snapshots and
    deltas."""

    def test_per_file_counters_do_not_leak_across_files(self, programs):
        big, small = programs
        result = run_batch(
            [str(big), str(small)], want_profile=True, want_metrics=True
        )
        for outcome in result.files:
            # Each file parses and lowers exactly once — a leak from the
            # other file (or from earlier tests in this process) would
            # inflate these beyond 1.
            assert outcome.metrics["counters"]["parses"] == 1, outcome.path
            assert outcome.metrics["counters"]["lowerings"] == 1
            assert outcome.profile["counters"]["parses"] == 1

    def test_batch_does_not_reset_the_process_registry(self, programs):
        from repro.obs import metrics

        big, small = programs
        metrics.inc("preexisting_work", 5)
        before = metrics.value("parses")
        run_batch([str(big), str(small)], want_metrics=True)
        # Snapshot/delta isolation must leave prior counts intact and
        # let the batch's own work accumulate on top.
        assert metrics.value("preexisting_work") == 5
        assert metrics.value("parses") == before + 2

    def test_merged_metrics_aggregates_per_file_deltas(self, programs):
        big, small = programs
        result = run_batch([str(big), str(small)], want_metrics=True)
        merged = result.merged_metrics()
        assert merged is not None
        assert merged.value("parses") == 2
        assert merged.value("batch_files") == 2
        assert merged.histogram("batch_file_seconds").count == 2

    def test_isolation_holds_across_pool_workers(self, programs):
        # Process workers (the default pool): each worker's registry is
        # its own, so per-file deltas cannot see a sibling's work.
        big, small = programs
        serial = run_batch([str(big), str(small)], want_metrics=True)
        pooled = run_batch(
            [str(big), str(small)], jobs=2, want_metrics=True,
        )
        for lhs, rhs in zip(serial.files, pooled.files):
            assert lhs.metrics["counters"] == rhs.metrics["counters"]

    def test_metrics_not_collected_unless_requested(self, programs):
        big, _ = programs
        result = run_batch([str(big)])
        assert result.files[0].metrics is None
        assert result.merged_metrics() is None
