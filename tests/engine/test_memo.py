"""Parse/analysis memoization: hit counters, LRU eviction, and the
oracle-trial redundancy bound the memo layer was built to enforce."""

from repro.config import AnalysisConfig
from repro.engine import memo
from repro.obs import metrics

PROGRAM = "      PROGRAM MAIN\n      X = 1\n      END\n"


def make_program(index):
    return f"      PROGRAM MAIN\n      X = {index}\n      END\n"


class TestParseMemo:
    def test_repeat_parse_hits(self):
        memo.clear_memos()
        metrics.reset()
        first = memo.parsed_module(PROGRAM, "a.f")
        second = memo.parsed_module(PROGRAM, "a.f")
        assert second is first
        assert metrics.value("parses") == 1
        assert metrics.value("parse_memo_hits") == 1

    def test_filename_is_part_of_the_key(self):
        memo.clear_memos()
        metrics.reset()
        memo.parsed_module(PROGRAM, "a.f")
        memo.parsed_module(PROGRAM, "b.f")
        assert metrics.value("parses") == 2

    def test_fresh_program_lowers_each_call(self):
        memo.clear_memos()
        metrics.reset()
        one = memo.fresh_program(PROGRAM, "a.f")
        two = memo.fresh_program(PROGRAM, "a.f")
        assert one is not two  # distinct lowered programs...
        assert metrics.value("parses") == 1  # ...from one parse
        assert metrics.value("lowerings") == 2

    def test_lru_eviction(self):
        memo.clear_memos()
        metrics.reset()
        for index in range(memo._PARSE_CAPACITY + 1):
            memo.parsed_module(make_program(index), "a.f")
        assert len(memo._parse_memo) == memo._PARSE_CAPACITY
        # Entry 0 was the least recently used, so it was evicted.
        memo.parsed_module(make_program(0), "a.f")
        assert metrics.value("parse_memo_hits") == 0


class TestAnalysisMemo:
    def test_repeat_analysis_hits(self):
        memo.clear_memos()
        metrics.reset()
        first = memo.memoized_analysis(PROGRAM, AnalysisConfig(), "a.f")
        second = memo.memoized_analysis(PROGRAM, AnalysisConfig(), "a.f")
        assert second is first
        assert metrics.value("analysis_memo_hits") == 1
        assert metrics.value("lowerings") == 1

    def test_config_is_part_of_the_key(self):
        from dataclasses import replace

        memo.clear_memos()
        metrics.reset()
        memo.memoized_analysis(PROGRAM, AnalysisConfig(), "a.f")
        memo.memoized_analysis(
            PROGRAM, replace(AnalysisConfig(), use_mod=False), "a.f"
        )
        assert metrics.value("analysis_memo_hits") == 0
        assert metrics.value("lowerings") == 2

    def test_clear_memos(self):
        memo.clear_memos()
        metrics.reset()
        memo.memoized_analysis(PROGRAM, AnalysisConfig(), "a.f")
        memo.clear_memos()
        memo.memoized_analysis(PROGRAM, AnalysisConfig(), "a.f")
        assert metrics.value("analysis_memo_hits") == 0


RUN_PROGRAM = """\
      PROGRAM MAIN
      INTEGER X
      X = 2
      X = X + 3
      PRINT *, X
      END
"""


class TestInterpMemo:
    def test_repeat_execution_hits(self):
        memo.clear_memos()
        metrics.reset()
        first = memo.memoized_run(RUN_PROGRAM, (), 1000, "a.f")
        second = memo.memoized_run(RUN_PROGRAM, (), 1000, "a.f")
        assert second is first
        assert first.output == ["5"]
        assert metrics.value("interp_memo_hits") == 1

    def test_larger_fuel_still_hits(self):
        """A recorded trace satisfies any budget covering its steps."""
        memo.clear_memos()
        metrics.reset()
        trace = memo.memoized_run(RUN_PROGRAM, (), 1000, "a.f")
        again = memo.memoized_run(RUN_PROGRAM, (), trace.steps, "a.f")
        assert again is trace
        assert metrics.value("interp_memo_hits") == 1

    def test_smaller_fuel_reruns_and_exhausts(self):
        """A budget below the recorded cost must raise exactly as a
        live run would — the memo never masks fuel exhaustion."""
        import pytest

        from repro.ir.interp import InterpreterError

        memo.clear_memos()
        metrics.reset()
        trace = memo.memoized_run(RUN_PROGRAM, (), 1000, "a.f")
        with pytest.raises(InterpreterError):
            memo.memoized_run(RUN_PROGRAM, (), trace.steps - 1, "a.f")
        assert metrics.value("interp_memo_hits") == 0

    def test_inputs_are_part_of_the_key(self):
        program = (
            "      PROGRAM MAIN\n"
            "      INTEGER X\n"
            "      READ *, X\n"
            "      PRINT *, X\n"
            "      END\n"
        )
        memo.clear_memos()
        metrics.reset()
        one = memo.memoized_run(program, (1,), 1000, "a.f")
        two = memo.memoized_run(program, (2,), 1000, "a.f")
        assert one.output == ["1"] and two.output == ["2"]
        assert metrics.value("interp_memo_hits") == 0

    def test_oracle_campaign_reexecution_hits(self):
        """Two identical trials: the second serves every execution from
        the memo — the CI oracle job gates on this counter being > 0.
        Asserted through the metrics registry (a snapshot delta), so it
        also proves the memo's bumps land in the registry that
        ``--metrics`` exports."""
        from repro.obs import metrics
        from repro.oracle.harness import run_trial

        memo.clear_memos()
        base = metrics.snapshot()
        assert not run_trial(11).discrepancies
        assert not run_trial(11).discrepancies
        delta = metrics.delta_since(base)["counters"]
        assert delta.get("interp_memo_hits", 0) > 0
        assert metrics.value("interp_memo_hits") >= delta["interp_memo_hits"]


class TestOracleTrialRedundancy:
    def test_one_trial_lowers_each_variant_at_most_once(self):
        """One differential-oracle trial cross-checks several properties
        over the same generated program.  Before memoization each
        property re-parsed and re-analyzed the program from scratch;
        now each distinct (source, config) variant is analyzed exactly
        once and re-checks hit the memo instead."""
        from repro.oracle.harness import run_trial

        memo.clear_memos()
        metrics.reset()
        result = run_trial(7)
        assert not result.discrepancies

        parses = metrics.value("parses")
        lowerings = metrics.value("lowerings")
        # Two texts ever hit the parser: the generated program and its
        # transformed output (checked for idempotence/executability).
        assert parses == 2
        # Each needed (source, config) variant lowers at most once; the
        # trial touches at most 7 variants of the two texts.
        assert lowerings <= 7
        assert metrics.value("parse_memo_hits") >= 1
        assert metrics.value("analysis_memo_hits") >= 1
