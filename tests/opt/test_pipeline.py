"""Pipeline-level behaviour: determinism, verification, the ``opt``
cache namespace, and observability counters."""

import pytest

from repro.config import AnalysisConfig
from repro.engine.core import Engine
from repro.ir.verify import VerificationError
from repro.opt import PASS_NAMES, optimize_source

SOURCE = (
    "      PROGRAM MAIN\n"
    "      INTEGER I, S, K\n"
    "      K = 3\n"
    "      S = 0\n"
    "      DO 10 I = 1, 20\n"
    "      IF (K .GT. 0) THEN\n"
    "      S = S + I\n"
    "      ELSE\n"
    "      S = S - I\n"
    "      ENDIF\n"
    " 10   CONTINUE\n"
    "      PRINT *, S\n"
    "      CALL SHOW(K, S)\n"
    "      END\n"
    "      SUBROUTINE SHOW(A, B)\n"
    "      INTEGER A, B\n"
    "      PRINT *, A + B\n"
    "      END\n"
)


class TestDeterminism:
    def test_report_render_is_deterministic(self):
        _, first = optimize_source(SOURCE)
        _, second = optimize_source(SOURCE)
        assert first.render() == second.render()
        assert first.to_payload() == second.to_payload()

    def test_pass_subset_reports_only_those_passes(self):
        _, report = optimize_source(SOURCE, passes=("fold",))
        assert report.passes == ["fold"]
        assert "branches" not in report.per_pass


class TestVerification:
    def test_verify_runs_after_every_pass(self):
        _, report = optimize_source(SOURCE, verify=True)
        assert report.verified
        assert "IR verified after every pass" in report.render()

    def test_broken_pass_is_caught(self, monkeypatch):
        import repro.opt.passes as opt_passes

        def corrupt(procedure, sccp, report):
            # Drop every terminator: structurally invalid IR that the
            # post-pass verifier must reject.
            for block in procedure.cfg.blocks:
                block.instructions = block.instructions[:-1]
            return 1

        monkeypatch.setattr(opt_passes, "fold_constants", corrupt)
        with pytest.raises(VerificationError):
            optimize_source(SOURCE, passes=("fold",), verify=True)


class TestOptCache:
    def test_record_then_replay(self, tmp_path):
        config = AnalysisConfig()
        engine = Engine(cache_dir=str(tmp_path))
        try:
            assert engine.cached_opt(SOURCE, config, PASS_NAMES) is None
            result, report = optimize_source(SOURCE, config)
            engine.record_opt(SOURCE, config, PASS_NAMES, result, report)
            payload = engine.cached_opt(SOURCE, config, PASS_NAMES)
            assert payload is not None
            assert payload["report"] == report.render()
            assert payload["opt"]["total_changes"] == report.total_changes
            assert payload["ir"] is not None
        finally:
            engine.close()

    def test_key_distinguishes_pass_subsets(self, tmp_path):
        config = AnalysisConfig()
        engine = Engine(cache_dir=str(tmp_path))
        try:
            result, report = optimize_source(SOURCE, config, passes=("fold",))
            engine.record_opt(SOURCE, config, ("fold",), result, report)
            assert engine.cached_opt(SOURCE, config, ("fold",)) is not None
            assert engine.cached_opt(SOURCE, config, PASS_NAMES) is None
        finally:
            engine.close()


class TestMetrics:
    def test_pipeline_counters_increment(self):
        from repro.obs import metrics

        metrics.push_scope()
        try:
            optimize_source(SOURCE)
            counters = metrics.default_registry().counters()
        finally:
            metrics.pop_scope()
        assert counters.get("opt_pipeline_runs", 0) >= 1
        assert counters.get("opt_total_changes", 0) > 0
