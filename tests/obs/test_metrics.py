"""Metrics registry: instruments, snapshot/delta/merge, Prometheus."""

import pytest

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


class TestInstruments:
    def test_counter_increments(self):
        counter = Counter("hits")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("hits").inc(-1)

    def test_gauge_moves_both_ways(self):
        gauge = Gauge("depth")
        gauge.set(3.0)
        gauge.inc()
        gauge.dec(2.0)
        assert gauge.value == 2.0

    def test_histogram_buckets(self):
        hist = Histogram("t", buckets=(1.0, 10.0))
        hist.observe(0.5)
        hist.observe(5.0)
        hist.observe(50.0)
        assert hist.counts == [1, 1, 1]  # <=1, <=10, +Inf
        assert hist.count == 3
        assert hist.sum == 55.5

    def test_histogram_needs_bounds(self):
        with pytest.raises(ValueError):
            Histogram("t", buckets=())


class TestRegistry:
    def test_get_or_create_is_stable(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("g") is registry.gauge("g")
        assert registry.histogram("h") is registry.histogram("h")

    def test_counters_view_sorted_nonzero(self):
        registry = MetricsRegistry()
        registry.inc("zebra", 2)
        registry.inc("alpha")
        registry.counter("silent")  # never incremented
        assert registry.counters() == {"alpha": 1, "zebra": 2}
        assert list(registry.counters()) == ["alpha", "zebra"]

    def test_value_of_unknown_is_zero(self):
        assert MetricsRegistry().value("nope") == 0

    def test_reset_clears_everything(self):
        registry = MetricsRegistry()
        registry.inc("a")
        registry.gauge("g").set(1)
        registry.observe("h", 1.0)
        registry.reset()
        assert registry.snapshot() == {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }


class TestSnapshotDeltaMerge:
    def test_delta_isolates_work_between_snapshots(self):
        registry = MetricsRegistry()
        registry.inc("parses", 3)
        base = registry.snapshot()
        registry.inc("parses", 2)
        registry.inc("lowerings")
        delta = registry.delta_since(base)
        assert delta["counters"] == {"parses": 2, "lowerings": 1}

    def test_delta_drops_zero_entries(self):
        registry = MetricsRegistry()
        registry.inc("parses", 3)
        delta = registry.delta_since(registry.snapshot())
        assert delta["counters"] == {}
        assert delta["histograms"] == {}

    def test_histogram_delta_subtracts(self):
        registry = MetricsRegistry()
        registry.observe("seconds", 0.002)
        base = registry.snapshot()
        registry.observe("seconds", 0.002)
        delta = registry.delta_since(base)
        assert delta["histograms"]["seconds"]["count"] == 1
        assert sum(delta["histograms"]["seconds"]["counts"]) == 1

    def test_merge_adds_counters_and_histograms(self):
        worker = MetricsRegistry()
        worker.inc("parses", 2)
        worker.observe("seconds", 1.5)
        parent = MetricsRegistry()
        parent.inc("parses")
        parent.merge(worker.delta_since({"counters": {}, "histograms": {}}))
        assert parent.value("parses") == 3
        assert parent.histogram("seconds").count == 1

    def test_merge_keeps_gauge_maximum(self):
        parent = MetricsRegistry()
        parent.gauge("pool").set(2)
        parent.merge({"gauges": {"pool": 5}})
        parent.merge({"gauges": {"pool": 1}})
        assert parent.gauge("pool").value == 5

    def test_snapshot_is_json_able(self):
        import json

        registry = MetricsRegistry()
        registry.inc("a")
        registry.gauge("g").set(2.5)
        registry.observe("h", 0.1)
        assert json.loads(json.dumps(registry.snapshot()))


class TestPrometheus:
    def test_counter_exposition(self):
        registry = MetricsRegistry()
        registry.inc("parses", 4)
        text = registry.to_prometheus()
        assert "# TYPE repro_parses counter" in text
        assert "repro_parses 4" in text
        assert text.endswith("\n")

    def test_histogram_buckets_are_cumulative(self):
        registry = MetricsRegistry()
        registry.histogram("t", buckets=(1.0, 10.0))
        registry.observe("t", 0.5)
        registry.observe("t", 5.0)
        registry.observe("t", 50.0)
        text = registry.to_prometheus()
        assert 'repro_t_bucket{le="1"} 1' in text
        assert 'repro_t_bucket{le="10"} 2' in text
        assert 'repro_t_bucket{le="+Inf"} 3' in text
        assert "repro_t_count 3" in text

    def test_names_are_sanitized(self):
        registry = MetricsRegistry()
        registry.inc("weird-name.x")
        assert "repro_weird_name_x 1" in registry.to_prometheus()

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().to_prometheus() == ""


class TestDefaultRegistryShims:
    def test_module_level_delta(self):
        from repro.obs import metrics

        metrics.reset()
        base = metrics.snapshot()
        metrics.inc("x")
        assert metrics.delta_since(base)["counters"] == {"x": 1}
        metrics.reset()


class TestQuantiles:
    """Exact boundary semantics of the bucket quantile (satellite:
    Histogram.quantile + batch --report percentiles build on these)."""

    @staticmethod
    def histogram(observations, buckets=(0.01, 0.1, 1.0)):
        hist = Histogram("t", buckets=buckets)
        for value in observations:
            hist.observe(value)
        return hist

    def test_empty_histogram_returns_none(self):
        assert Histogram("t", buckets=(1.0,)).quantile(0.5) is None

    def test_rejects_out_of_range(self):
        hist = self.histogram([0.5])
        with pytest.raises(ValueError):
            hist.quantile(-0.1)
        with pytest.raises(ValueError):
            hist.quantile(1.1)

    def test_single_observation_all_quantiles_same_bucket(self):
        hist = self.histogram([0.05])
        for q in (0.0, 0.5, 0.99, 1.0):
            assert hist.quantile(q) == 0.1

    def test_exact_bucket_boundary_counts_in_lower_bucket(self):
        # observe(0.01) lands in the <=0.01 bucket (le semantics)
        hist = self.histogram([0.01])
        assert hist.quantile(0.5) == 0.01

    def test_quantile_at_exact_cumulative_boundary(self):
        # 10 observations: 5 in <=0.01, 5 in <=0.1. target(p50) = 5.0
        # == cumulative of the first bucket -> its bound, not the next.
        hist = self.histogram([0.005] * 5 + [0.05] * 5)
        assert hist.quantile(0.5) == 0.01
        assert hist.quantile(0.51) == 0.1
        assert hist.quantile(1.0) == 0.1

    def test_q_zero_returns_first_populated_bucket(self):
        hist = self.histogram([0.05, 0.5])
        assert hist.quantile(0.0) == 0.1

    def test_overflow_clamps_to_last_finite_bound(self):
        # everything in +Inf: the histogram cannot say more than "past
        # the last bound" -- clamp instead of inventing a value
        hist = self.histogram([5.0, 10.0])
        assert hist.quantile(0.5) == 1.0
        assert hist.quantile(0.99) == 1.0

    def test_p99_distinguishes_tail(self):
        hist = self.histogram([0.005] * 99 + [0.5])
        assert hist.quantile(0.5) == 0.01
        assert hist.quantile(0.99) == 0.01  # target 99.0 == cumulative
        assert hist.quantile(0.995) == 1.0

    def test_percentiles_labels(self):
        hist = self.histogram([0.05])
        marks = hist.percentiles()
        assert set(marks) == {"p50", "p95", "p99"}
        assert marks["p50"] == 0.1
        assert self.histogram([0.05]).percentiles((0.25,)) == {"p25": 0.1}

    def test_quantile_from_counts_matches_live(self):
        from repro.obs.metrics import quantile_from_counts

        hist = self.histogram([0.005, 0.05, 0.5, 2.0])
        for q in (0.25, 0.5, 0.75, 0.99):
            assert quantile_from_counts(
                hist.buckets, hist.counts, hist.count, q
            ) == hist.quantile(q)

    def test_registry_get_histogram_is_readonly(self):
        registry = MetricsRegistry()
        assert registry.get_histogram("absent") is None
        created = registry.histogram("present")
        assert registry.get_histogram("present") is created
        assert registry.get_histogram("absent") is None  # still absent
