"""The fault-injection registry itself: parsing, deterministic
triggering, cross-process plumbing. Everything else in this suite
stands on these semantics, so they are pinned first."""

from __future__ import annotations

import os
import time

import pytest

from repro import faults
from repro.obs import metrics


class TestParsing:
    def test_spec_roundtrip(self):
        spec = faults.parse_spec("kill-worker:stage=ret,nth=2")
        assert spec.point == "kill-worker"
        assert spec.params == {"stage": "ret", "nth": "2"}
        assert spec.describe() == "kill-worker:nth=2,stage=ret"

    def test_bare_point(self):
        spec = faults.parse_spec("fail-write")
        assert spec.point == "fail-write"
        assert spec.params == {}
        assert spec.describe() == "fail-write"

    def test_unknown_point_rejected(self):
        with pytest.raises(faults.FaultSpecError, match="unknown fault point"):
            faults.parse_spec("explode")

    def test_malformed_parameter_rejected(self):
        with pytest.raises(faults.FaultSpecError, match="malformed"):
            faults.parse_spec("kill-worker:stage")

    def test_non_integer_nth_rejected(self):
        with pytest.raises(faults.FaultSpecError, match="not an integer"):
            faults.parse_spec("kill-worker:nth=first")

    def test_plan_skips_blank_segments(self):
        plan = faults.parse_plan("delay-request:ms=5;;  ;fail-write")
        assert [spec.point for spec in plan] == ["delay-request", "fail-write"]

    def test_empty_spec_rejected(self):
        with pytest.raises(faults.FaultSpecError, match="empty"):
            faults.parse_spec("   ")


class TestTriggering:
    def test_nth_fires_on_exactly_the_kth_match(self):
        plan = faults.install("fail-write:nth=2", export_env=False)
        spec = plan.specs[0]
        assert faults.fire("fail-write") is None
        assert faults.fire("fail-write") is spec
        assert faults.fire("fail-write") is None
        assert spec.hits == 3
        assert spec.fired == 1

    def test_match_keys_restrict_call_sites(self):
        faults.install("kill-worker:stage=ret", export_env=False)
        assert faults.fire("kill-worker", stage="fwd") is None
        assert faults.fire("kill-worker", stage="ret") is not None

    def test_missing_context_key_never_matches(self):
        faults.install("kill-worker:stage=ret", export_env=False)
        assert faults.fire("kill-worker") is None

    def test_context_values_compared_as_strings(self):
        faults.install("corrupt-cache:namespace=1", export_env=False)
        assert faults.fire("corrupt-cache", namespace=0) is None
        assert faults.fire("corrupt-cache", namespace=1) is not None

    def test_wrong_point_never_fires(self):
        faults.install("fail-write", export_env=False)
        assert faults.fire("truncate-cache") is None

    def test_flag_file_fires_once_globally(self, tmp_path):
        flag = tmp_path / "armed"
        flag.write_text("")
        faults.install(f"fail-write:flag={flag}", export_env=False)
        assert faults.fire("fail-write") is not None
        assert not flag.exists(), "firing must consume the flag"
        assert faults.fire("fail-write") is None

    def test_disarmed_fire_is_a_noop(self):
        faults.clear()
        assert faults.fire("fail-write") is None
        assert faults.active() is None

    def test_firing_is_counted_in_metrics(self):
        registry = metrics.default_registry()
        base = registry.snapshot()
        faults.install("fail-write", export_env=False)
        faults.fire("fail-write")
        delta = registry.delta_since(base)["counters"]
        assert delta.get("faults_fired") == 1
        assert delta.get("faults_fired_fail_write") == 1


class TestDelay:
    def test_delay_sleeps_the_requested_ms(self):
        faults.install("delay-request:ms=30", export_env=False)
        began = time.monotonic()
        slept = faults.delay("delay-request", op="analyze")
        assert slept == pytest.approx(0.03)
        assert time.monotonic() - began >= 0.025

    def test_delay_unmatched_returns_zero(self):
        faults.install("delay-request:op=status,ms=50", export_env=False)
        assert faults.delay("delay-request", op="analyze") == 0.0


class TestProcessPlumbing:
    def test_install_exports_and_clear_removes_env(self):
        faults.install(["delay-file:ms=5", "fail-write"])
        assert faults.ENV_VAR in os.environ
        reparsed = faults.parse_plan(os.environ[faults.ENV_VAR])
        assert [s.describe() for s in reparsed] == ["delay-file:ms=5",
                                                    "fail-write"]
        faults.clear()
        assert faults.ENV_VAR not in os.environ
        assert faults.active() is None

    def test_host_process_is_never_killed(self):
        """The dangerous one: ``kill-worker`` in the host (inline or
        thread execution) must record the fire and then *not* SIGKILL —
        otherwise a batch demoted to serial would take its own host
        down."""
        plan = faults.install("kill-worker", export_env=False)
        faults.maybe_kill_worker(stage="batch", path="prog.f")
        assert plan.specs[0].fired == 1  # and we are still alive
