"""Profiling layer: the stage sink, its registry-delta counters, JSON
shape."""

import json

from repro.obs import metrics, trace
from repro.profiling import PipelineProfile


class TestPipelineProfile:
    def test_stage_accumulates_time_and_calls(self):
        with PipelineProfile() as profile:
            with trace.stage("parse"):
                pass
            with trace.stage("parse"):
                pass
        assert profile.seconds("parse") >= 0.0
        assert profile.to_dict()["stages"]["parse"]["calls"] == 2

    def test_json_round_trips(self):
        with PipelineProfile() as profile:
            with trace.stage("solve"):
                pass
            metrics.inc("hits", 3)
        data = json.loads(profile.to_json())
        assert data["counters"]["hits"] == 3
        assert "solve" in data["stages"]
        assert data["total_seconds"] >= 0.0

    def test_format_mentions_stages(self):
        with PipelineProfile() as profile:
            with trace.stage("substitution"):
                pass
        assert "substitution" in profile.format()

    def test_stage_without_sink_is_noop(self):
        with trace.stage("anything"):
            pass  # must not raise

    def test_stage_feeds_pushed_profile(self):
        profile = PipelineProfile().start()
        try:
            with trace.stage("lower"):
                pass
        finally:
            profile.stop()
        with trace.stage("lower"):
            pass  # after stop: not recorded
        assert profile.to_dict()["stages"]["lower"]["calls"] == 1

    def test_counters_are_the_registry_delta_of_the_window(self):
        metrics.inc("widgets", 5)  # before the window: not counted
        with PipelineProfile() as profile:
            metrics.inc("widgets", 2)
            metrics.inc("gadgets")
        metrics.inc("widgets")  # after the window: not counted
        assert profile.counter("widgets") == 2
        assert profile.counter("gadgets") == 1

    def test_total_counts_only_outermost_stages(self):
        with PipelineProfile() as profile:
            with trace.stage("return_functions"):
                with trace.stage("fingerprint"):
                    pass
            with trace.stage("propagate"):
                pass
        stages = profile.to_dict()["stages"]
        assert stages["fingerprint"]["calls"] == 1
        assert profile.total_seconds == (
            profile.seconds("return_functions") + profile.seconds("propagate")
        )


class TestGlobalCounters:
    def test_frontend_instruments_parse_and_lower(self):
        from tests.conftest import lower

        metrics.reset()
        lower(
            "      PROGRAM MAIN\n      X = 1\n      END\n"
        )
        assert metrics.value("parses") == 1
        assert metrics.value("lowerings") == 1
