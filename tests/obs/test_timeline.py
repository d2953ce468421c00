"""Per-request timelines: stage bucketing, the ring buffer, the
stage-sink hook, and the offline artifact joiner."""

import json

import pytest

from repro.obs import timeline, trace
from repro.obs.timeline import (
    RequestTimeline,
    TimelineRing,
    build_report,
    classify_artifact,
    classify_stage,
    load_artifact,
    parse_prometheus_histograms,
    render_report,
)


class TestClassifyStage:
    def test_parse_bucket(self):
        assert classify_stage("parse") == "parse"
        assert classify_stage("lower") == "parse"

    def test_solve_bucket(self):
        for name in ("prepare", "return_functions", "forward_functions",
                     "propagate", "substitution"):
            assert classify_stage(name) == "solve"

    def test_opt_bucket_covers_pass_spans(self):
        assert classify_stage("opt") == "opt"
        # the passes are spans inside the opt stage, not stages
        assert classify_stage("opt.sccp") is None

    def test_nested_fingerprint_excluded(self):
        # fingerprint runs inside prepare; counting it would
        # double-bill the solve bucket.
        assert classify_stage("fingerprint") is None

    def test_unknown_excluded(self):
        assert classify_stage("mystery") is None


class TestRequestTimeline:
    def test_buckets_sum_and_render_residual(self):
        t = RequestTimeline("r1", op="analyze", path="p.f", queue_s=0.010)
        t.record_stage("parse", 0.002, False)
        t.record_stage("lower", 0.001, False)
        t.record_stage("propagate", 0.005, False)
        t.record_stage("opt", 0.004, False)
        t.record_stage("fingerprint", 0.100, True)  # nested: must not count
        t.finish("ok")
        buckets = t.buckets()
        assert buckets["queue"] == pytest.approx(0.010)
        assert buckets["parse"] == pytest.approx(0.003)
        assert buckets["solve"] == pytest.approx(0.005)
        assert buckets["opt"] == pytest.approx(0.004)
        assert buckets["render"] >= 0.0

    def test_render_never_negative(self):
        t = RequestTimeline("r1")
        t.record_stage("parse", 1000.0, False)  # stage clock > wall clock
        t.finish("ok")
        assert t.buckets()["render"] == 0.0

    def test_repeated_stage_accumulates(self):
        t = RequestTimeline("r1")
        t.record_stage("propagate", 0.25, False)
        t.record_stage("propagate", 0.25, False)
        assert t.stages["propagate"] == pytest.approx(0.5)

    def test_nested_stage_kept_raw_but_not_bucketed(self):
        t = RequestTimeline("r1")
        t.record_stage("propagate", 0.25, True)
        assert t.stages["propagate"] == pytest.approx(0.25)
        t.finish("ok")
        assert t.buckets()["solve"] == 0.0

    def test_entry_shape(self):
        t = RequestTimeline("r9", op="analyze", path="p.f", queue_s=0.001)
        t.finish("ok", replayed=True)
        entry = t.entry()
        assert entry["request_id"] == "r9"
        assert entry["op"] == "analyze"
        assert entry["status"] == "ok"
        assert entry["replayed"] is True
        for bucket in timeline.BUCKETS:
            assert isinstance(entry[f"{bucket}_ms"], float)
        assert entry["total_ms"] >= entry["queue_ms"]


    def test_gc_pauses_are_summed_apart(self, monkeypatch):
        clock = iter([1.0, 1.25, 2.0, 2.5])
        t = RequestTimeline("r1")
        monkeypatch.setattr(timeline.time, "perf_counter",
                            lambda: next(clock))
        t.gc_pause("start", {"generation": 0})
        t.gc_pause("stop", {"generation": 0})
        t.gc_pause("stop", {"generation": 0})  # no start seen: ignored
        t.gc_pause("start", {"generation": 2})
        t.gc_pause("stop", {"generation": 2})
        assert t.gc_s == pytest.approx(0.75)
        monkeypatch.undo()
        t.finish("ok")
        assert t.entry()["gc_ms"] == pytest.approx(750.0)


class TestSinkStack:
    def test_push_pop_nesting(self):
        outer = RequestTimeline("outer")
        inner = RequestTimeline("inner")
        trace.push_sink(outer)
        trace.push_sink(inner)
        with trace.stage("parse"):
            pass
        assert trace.pop_sink() is inner
        with trace.stage("lower"):
            pass
        assert trace.pop_sink() is outer
        assert set(inner.stages) == {"parse"}
        assert set(outer.stages) == {"parse", "lower"}

    def test_pop_without_push_raises(self):
        with pytest.raises(RuntimeError):
            trace.pop_sink()

    def test_stage_feeds_sink(self):
        t = RequestTimeline("r1")
        trace.push_sink(t)
        try:
            with trace.stage("propagate"):
                pass
        finally:
            trace.pop_sink()
        assert "propagate" in t.stages
        assert t.stages["propagate"] >= 0.0

    def test_stage_without_sink_is_the_null_span(self):
        assert trace.stage("propagate") is trace._NULL_SPAN

    def test_nested_flag_reaches_sink(self):
        seen = []

        class Sink:
            def record_stage(self, name, seconds, nested):
                seen.append((name, nested))

        trace.push_sink(Sink())
        try:
            with trace.stage("return_functions"):
                with trace.stage("fingerprint"):
                    pass
        finally:
            trace.pop_sink()
        assert seen == [("fingerprint", True), ("return_functions", False)]


class TestTimelineRing:
    def test_capacity_evicts_oldest(self):
        ring = TimelineRing(capacity=3)
        for i in range(5):
            ring.add({"request_id": f"r{i}"})
        assert [e["request_id"] for e in ring.entries()] == ["r2", "r3", "r4"]
        assert ring.total_added == 5
        assert len(ring) == 3

    def test_limit_keeps_newest(self):
        ring = TimelineRing(capacity=10)
        for i in range(4):
            ring.add({"request_id": f"r{i}"})
        assert [e["request_id"] for e in ring.entries(limit=2)] == ["r2", "r3"]
        assert ring.entries(limit=0) == []

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            TimelineRing(capacity=0)


class TestClassifyArtifact:
    def test_trace_log_metrics_unknown(self):
        assert classify_artifact('{"traceEvents": []}') == "trace"
        assert classify_artifact(
            '{"v": 1, "event": "request.start", "ts": 1}'
        ) == "log"
        assert classify_artifact(
            "# HELP x\nrepro_runs_total 3\n"
        ) == "metrics"
        assert classify_artifact("") == "unknown"
        assert classify_artifact("{broken json") == "unknown"

    def test_pretty_printed_trace(self):
        text = json.dumps({"traceEvents": []}, indent=2)
        assert classify_artifact(text) == "trace"


class TestPrometheusHistograms:
    TEXT = "\n".join(
        [
            'repro_serve_request_seconds_bucket{le="0.01"} 2',
            'repro_serve_request_seconds_bucket{le="0.1"} 5',
            'repro_serve_request_seconds_bucket{le="+Inf"} 6',
            "repro_serve_request_seconds_count 6",
            "repro_serve_request_seconds_sum 1.5",
        ]
    )

    def test_decumulates_buckets(self):
        histograms = parse_prometheus_histograms(self.TEXT)
        payload = histograms["repro_serve_request_seconds"]
        assert payload["buckets"] == [0.01, 0.1]
        assert payload["counts"] == [2, 3, 1]
        assert payload["count"] == 6


def _write_artifacts(tmp_path):
    log_path = tmp_path / "serve.log"
    records = [
        {"v": 1, "ts": 1.0, "level": "info", "event": "request.start",
         "pid": 1, "request_id": "r000001", "trace_id": "s-1",
         "op": "analyze", "path": "p.f"},
        {"v": 1, "ts": 1.1, "level": "info", "event": "request.end",
         "pid": 1, "request_id": "r000001", "trace_id": "s-1",
         "op": "analyze", "path": "p.f", "status": "ok",
         "replayed": False, "queue_ms": 0.5, "parse_ms": 1.0,
         "solve_ms": 2.0, "opt_ms": 0.0, "render_ms": 0.5,
         "total_ms": 4.0},
        {"v": 1, "ts": 1.2, "level": "warn", "event": "request.slow",
         "pid": 1, "request_id": "r000001", "trace_id": "s-1",
         "total_ms": 4.0},
    ]
    log_path.write_text(
        "".join(json.dumps(r) + "\n" for r in records)
    )
    trace_path = tmp_path / "serve.trace.json"
    trace_path.write_text(json.dumps({
        "traceEvents": [
            {"name": "serve.request", "ph": "X", "pid": 1, "tid": 1,
             "ts": 0, "dur": 4000,
             "args": {"request_id": "r000001", "op": "analyze",
                      "path": "p.f"}},
            {"name": "request", "ph": "s", "pid": 1, "tid": 1, "ts": 0,
             "id": 77, "args": {"request_id": "r000001"}},
            {"name": "request", "ph": "t", "pid": 2, "tid": 1, "ts": 1,
             "id": 77},
            {"name": "request", "ph": "t", "pid": 3, "tid": 1, "ts": 2,
             "id": 77},
        ]
    }))
    metrics_path = tmp_path / "serve.prom"
    metrics_path.write_text(TestPrometheusHistograms.TEXT + "\n")
    return log_path, trace_path, metrics_path


class TestReport:
    def test_join_by_request_id(self, tmp_path):
        paths = _write_artifacts(tmp_path)
        artifacts = [load_artifact(str(p)) for p in paths]
        report = build_report(artifacts)
        (row,) = report["requests"]
        assert row["request_id"] == "r000001"
        assert row["op"] == "analyze"
        assert row["status"] == "ok"
        assert row["total_ms"] == 4.0
        assert row["trace_total_ms"] == 4.0
        assert row["workers"] == 2  # two distinct worker pids
        assert row["slow"] is True
        assert row["sources"] == "LT"
        assert "repro_serve_request_seconds" in report["histograms"]

    def test_render_contains_row_and_quantiles(self, tmp_path):
        paths = _write_artifacts(tmp_path)
        report = build_report([load_artifact(str(p)) for p in paths])
        text = render_report(report)
        assert "r000001" in text
        assert "LT!" in text
        assert "latency quantiles" in text
        assert "repro_serve_request_seconds" in text

    def test_empty_report(self):
        text = render_report(build_report([]))
        assert "no correlated requests" in text

    def test_log_only_join(self, tmp_path):
        log_path, _, _ = _write_artifacts(tmp_path)
        report = build_report([load_artifact(str(log_path))])
        (row,) = report["requests"]
        assert row["sources"] == "L"
        assert "workers" not in row
