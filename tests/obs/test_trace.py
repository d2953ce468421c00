"""Structured tracing: spans, instants, export, schema validation."""

import json

import pytest

from repro.obs import trace
from repro.obs.trace import _NULL_SPAN, Tracer, validate_chrome_trace


@pytest.fixture(autouse=True)
def _tracing_disabled():
    """Every test starts and ends with tracing off (module global)."""
    trace.disable()
    yield
    trace.disable()


class TestDisabledPath:
    def test_disabled_by_default(self):
        assert trace.ENABLED is False
        assert trace.active() is None

    def test_span_returns_shared_null_singleton(self):
        assert trace.span("anything") is _NULL_SPAN
        assert trace.span("other", attr=1) is _NULL_SPAN
        with trace.span("nested"):
            pass  # must be a usable no-op context manager

    def test_instant_is_noop(self):
        trace.instant("event", detail="ignored")  # must not raise


class TestEnableDisable:
    def test_enable_installs_fresh_tracer(self):
        tracer = trace.enable()
        assert trace.ENABLED is True
        assert trace.active() is tracer
        assert tracer.events == []
        assert trace.enable() is not tracer  # fresh per enable()

    def test_disable_returns_tracer_for_export(self):
        tracer = trace.enable()
        trace.instant("ping")
        assert trace.disable() is tracer
        assert trace.ENABLED is False
        assert len(tracer.events) == 1

    def test_session_brackets(self):
        with trace.session() as tracer:
            assert trace.active() is tracer
        assert trace.active() is None


class TestEvents:
    def test_instant_shape(self):
        with trace.session() as tracer:
            trace.instant("solver.meet_bottom", procedure="foo", name="x")
        (event,) = tracer.events
        assert event["ph"] == "i"
        assert event["s"] == "t"
        assert event["name"] == "solver.meet_bottom"
        assert event["args"] == {"procedure": "foo", "name": "x"}
        for field in ("ts", "pid", "tid"):
            assert isinstance(event[field], int)

    def test_span_records_complete_event(self):
        with trace.session() as tracer:
            with trace.span("stage.parse", file="a.f"):
                pass
        (event,) = tracer.events
        assert event["ph"] == "X"
        assert event["dur"] >= 0
        assert event["args"] == {"file": "a.f"}

    def test_spans_nest_in_order(self):
        with trace.session() as tracer:
            with trace.span("outer"):
                with trace.span("inner"):
                    pass
        names = [event["name"] for event in tracer.events]
        assert names == ["inner", "outer"]  # completion order
        inner, outer = tracer.events
        assert outer["ts"] <= inner["ts"]
        assert outer["ts"] + outer["dur"] >= inner["ts"] + inner["dur"]


class TestWorkerShipping:
    def test_adopt_keeps_worker_pid(self):
        parent = Tracer()
        parent.adopt([{"name": "w", "ph": "i", "s": "t", "ts": 1,
                       "pid": 99999, "tid": 1}])
        assert parent.events[0]["pid"] == 99999

    def test_events_pickle(self):
        import pickle

        with trace.session() as tracer:
            trace.instant("ping", n=1)
        assert pickle.loads(pickle.dumps(tracer.events)) == tracer.events


class TestChromeExport:
    def test_export_validates_and_labels_processes(self):
        with trace.session() as tracer:
            with trace.span("analysis"):
                trace.instant("cache.miss", namespace="ret")
        payload = tracer.to_chrome()
        assert validate_chrome_trace(payload) == []
        assert payload["displayTimeUnit"] == "ms"
        metadata = [e for e in payload["traceEvents"] if e["ph"] == "M"]
        assert metadata[0]["args"]["name"] == "repro"

    def test_adopted_worker_gets_own_track_label(self):
        tracer = Tracer()
        tracer.instant("local")
        tracer.adopt([{"name": "w", "ph": "i", "s": "t", "ts": 1,
                       "pid": tracer.owner_pid + 1, "tid": 1}])
        payload = tracer.to_chrome()
        labels = {
            event["pid"]: event["args"]["name"]
            for event in payload["traceEvents"]
            if event["ph"] == "M"
        }
        assert labels[tracer.owner_pid] == "repro"
        assert "worker" in labels[tracer.owner_pid + 1]

    def test_export_is_json_serializable(self):
        with trace.session() as tracer:
            trace.instant("x", value=3)
        assert json.loads(json.dumps(tracer.to_chrome()))


class TestValidation:
    def test_rejects_non_dict(self):
        assert validate_chrome_trace([]) != []

    def test_rejects_missing_fields(self):
        payload = {"traceEvents": [{"ph": "i", "s": "t"}]}
        problems = validate_chrome_trace(payload)
        assert any("missing" in problem for problem in problems)

    def test_rejects_x_without_dur(self):
        payload = {
            "traceEvents": [
                {"name": "s", "ph": "X", "ts": 0, "pid": 1, "tid": 1}
            ]
        }
        assert any("dur" in p for p in validate_chrome_trace(payload))

    def test_rejects_partially_overlapping_spans(self):
        payload = {
            "traceEvents": [
                {"name": "a", "ph": "X", "ts": 0, "dur": 10,
                 "pid": 1, "tid": 1},
                {"name": "b", "ph": "X", "ts": 5, "dur": 10,
                 "pid": 1, "tid": 1},
            ]
        }
        assert any("nest" in p for p in validate_chrome_trace(payload))

    def test_accepts_sequential_and_nested_spans(self):
        payload = {
            "traceEvents": [
                {"name": "a", "ph": "X", "ts": 0, "dur": 10,
                 "pid": 1, "tid": 1},
                {"name": "a.1", "ph": "X", "ts": 2, "dur": 3,
                 "pid": 1, "tid": 1},
                {"name": "b", "ph": "X", "ts": 10, "dur": 5,
                 "pid": 1, "tid": 1},
            ]
        }
        assert validate_chrome_trace(payload) == []

    def test_separate_tracks_do_not_interact(self):
        payload = {
            "traceEvents": [
                {"name": "a", "ph": "X", "ts": 0, "dur": 10,
                 "pid": 1, "tid": 1},
                {"name": "b", "ph": "X", "ts": 5, "dur": 10,
                 "pid": 2, "tid": 1},
            ]
        }
        assert validate_chrome_trace(payload) == []


class TestPipelineEmitsEvents:
    def test_traced_analysis_produces_stage_spans(self):
        from repro.ipcp.driver import analyze_source
        from tests.conftest import TRI_PROGRAM

        with trace.session() as tracer:
            analyze_source(TRI_PROGRAM)
        names = {event["name"] for event in tracer.events}
        assert "stage.parse" in names
        assert "stage.propagate" in names
        assert "solver.visit" in names
        assert validate_chrome_trace(tracer.to_chrome()) == []

    def test_untraced_analysis_records_nothing(self):
        from repro.ipcp.driver import analyze_source
        from tests.conftest import TRI_PROGRAM

        tracer = trace.enable()
        trace.disable()
        analyze_source(TRI_PROGRAM)
        assert tracer.events == []


class TestFlowEvents:
    def test_flow_phases_and_finish_binding(self):
        tracer = trace.enable()
        trace.flow("request", "s", 42, request_id="r1")
        trace.flow("request", "t", 42)
        trace.flow("request", "f", 42)
        start, step, finish = tracer.events
        assert [e["ph"] for e in (start, step, finish)] == ["s", "t", "f"]
        assert all(e["id"] == 42 for e in tracer.events)
        assert start["args"] == {"request_id": "r1"}
        assert "bp" not in start and "bp" not in step
        assert finish["bp"] == "e"  # finish binds to the enclosing slice

    def test_flow_rejects_unknown_phase(self):
        tracer = trace.enable()
        with pytest.raises(ValueError):
            tracer.flow("request", "x", 1)

    def test_module_flow_is_noop_when_disabled(self):
        trace.flow("request", "s", 1)  # must not raise

    def test_flow_events_validate(self):
        tracer = trace.enable()
        trace.flow("request", "s", 7)
        trace.flow("request", "t", 7)
        trace.flow("request", "f", 7)
        assert validate_chrome_trace(tracer.to_chrome()) == []

    def test_validator_flags_flow_without_id(self):
        payload = {"traceEvents": [
            {"name": "request", "ph": "s", "ts": 0, "pid": 1, "tid": 1},
        ]}
        assert any("needs an 'id'" in p
                   for p in validate_chrome_trace(payload))

    def test_validator_flags_orphan_step(self):
        payload = {"traceEvents": [
            {"name": "request", "ph": "t", "ts": 0, "pid": 1, "tid": 1,
             "id": 9},
        ]}
        assert any("no matching 's'" in p
                   for p in validate_chrome_trace(payload))

    def test_validator_flags_duplicate_starts(self):
        payload = {"traceEvents": [
            {"name": "request", "ph": "s", "ts": 0, "pid": 1, "tid": 1,
             "id": 9},
            {"name": "request", "ph": "s", "ts": 1, "pid": 1, "tid": 1,
             "id": 9},
        ]}
        assert any("expected exactly one" in p
                   for p in validate_chrome_trace(payload))


class TestStitchedValidation:
    @staticmethod
    def _payload(worker_flow_events):
        from repro.obs.trace import validate_stitched_trace  # noqa: F401

        return {"traceEvents": [
            {"name": "process_name", "ph": "M", "ts": 0, "pid": 1,
             "tid": 0, "args": {"name": "repro"}},
            {"name": "process_name", "ph": "M", "ts": 0, "pid": 2,
             "tid": 0, "args": {"name": "repro worker 2"}},
            {"name": "serve.request", "ph": "X", "ts": 0, "dur": 100,
             "pid": 1, "tid": 1, "args": {"request_id": "r1"}},
            {"name": "request", "ph": "s", "ts": 0, "pid": 1, "tid": 1,
             "id": 5},
            {"name": "worker.task", "ph": "X", "ts": 10, "dur": 20,
             "pid": 2, "tid": 1},
        ] + worker_flow_events}

    def test_linked_worker_passes(self):
        from repro.obs.trace import validate_stitched_trace

        payload = self._payload([
            {"name": "request", "ph": "t", "ts": 11, "pid": 2, "tid": 1,
             "id": 5},
        ])
        assert validate_stitched_trace(payload) == []

    def test_unlinked_worker_flagged(self):
        from repro.obs.trace import validate_stitched_trace

        payload = self._payload([])
        assert any("no flow step" in p
                   for p in validate_stitched_trace(payload))

    def test_worker_own_start_counts_as_linkage(self):
        # batch file roots emit their "s" inside the pool worker
        from repro.obs.trace import validate_stitched_trace

        payload = self._payload([
            {"name": "request", "ph": "s", "ts": 11, "pid": 2, "tid": 1,
             "id": 6, "args": {"request_id": "file:b.f"}},
        ])
        assert validate_stitched_trace(payload) == []

    def test_workerless_trace_passes(self):
        from repro.obs.trace import validate_stitched_trace

        payload = {"traceEvents": [
            {"name": "analyze", "ph": "X", "ts": 0, "dur": 10, "pid": 1,
             "tid": 1},
        ]}
        assert validate_stitched_trace(payload) == []
