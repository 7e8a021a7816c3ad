"""Unit tests for the metrics surface (rings, QueryStats aggregation,
JSON + Prometheus rendering)."""

import pytest

from repro.core.results import QueryStats
from repro.serve.metrics import LatencyRing, ServerMetrics


class TestLatencyRing:
    def test_empty_percentile_is_none(self):
        ring = LatencyRing(8)
        assert ring.percentile(0.5) is None
        assert ring.summary()["p50_ms"] is None

    def test_percentiles_over_known_values(self):
        ring = LatencyRing(100)
        for ms in range(1, 101):  # 1..100 ms
            ring.observe(ms / 1000)
        assert ring.percentile(0.50) == pytest.approx(0.050, abs=0.002)
        assert ring.percentile(0.95) == pytest.approx(0.095, abs=0.002)
        assert ring.percentile(0.99) == pytest.approx(0.099, abs=0.002)

    def test_ring_keeps_most_recent(self):
        ring = LatencyRing(4)
        for value in (1.0, 1.0, 1.0, 1.0, 0.001, 0.001, 0.001, 0.001):
            ring.observe(value)
        assert ring.percentile(0.99) == pytest.approx(0.001)
        assert ring.count == 8  # cumulative count survives wraparound

    def test_rejects_bad_size(self):
        with pytest.raises(ValueError):
            LatencyRing(0)


class TestServerMetrics:
    def test_request_counting_by_route_and_status(self):
        metrics = ServerMetrics()
        metrics.observe_request("query", 200, 0.01)
        metrics.observe_request("query", 200, 0.02)
        metrics.observe_request("query", 429, 0.0001)
        document = metrics.snapshot()
        assert document["requests"]["query:200"] == 2
        assert document["requests"]["query:429"] == 1
        # sheds do not pollute the latency ring
        assert document["latency"]["query"]["count"] == 2

    def test_query_stats_merge_accumulates(self):
        metrics = ServerMetrics()
        metrics.record_query_stats(QueryStats(sorted_accesses=5, delta_hits=2))
        metrics.record_query_stats(QueryStats(sorted_accesses=3, posting_pulls=7))
        document = metrics.snapshot()
        assert document["query_stats"]["sorted_accesses"] == 8
        assert document["query_stats"]["delta_hits"] == 2
        assert document["query_stats"]["posting_pulls"] == 7

    def test_random_accesses_reach_json_and_prometheus(self):
        metrics = ServerMetrics()
        metrics.record_query_stats(QueryStats(sorted_accesses=2, random_accesses=5))
        metrics.record_query_stats(QueryStats(random_accesses=3))
        assert metrics.render_prometheus().count('counter="random_accesses"} 8') == 1
        document = metrics.snapshot()
        assert document["query_stats"]["random_accesses"] == 8
        assert document["query_stats_window"]["random_accesses"] == 0

    def test_scrape_window_is_diff_since_last_snapshot(self):
        metrics = ServerMetrics()
        metrics.record_query_stats(QueryStats(sorted_accesses=5))
        first = metrics.snapshot()
        assert first["query_stats_window"]["sorted_accesses"] == 5
        metrics.record_query_stats(QueryStats(sorted_accesses=2))
        second = metrics.snapshot()
        assert second["query_stats"]["sorted_accesses"] == 7
        assert second["query_stats_window"]["sorted_accesses"] == 2
        third = metrics.snapshot()
        assert third["query_stats_window"]["sorted_accesses"] == 0

    def test_session_events(self):
        metrics = ServerMetrics()
        metrics.count_session("created")
        metrics.count_session("resumed")
        metrics.count_session("evicted")
        metrics.count_session("created")
        document = metrics.snapshot()
        assert document["sessions"] == {"created": 2, "resumed": 1, "evicted": 1}

    def test_prometheus_rendering(self):
        metrics = ServerMetrics()
        metrics.observe_request("query", 200, 0.015)
        metrics.record_query_stats(QueryStats(sorted_accesses=4, delta_hits=1))
        metrics.count_answers(3)
        text = metrics.render_prometheus(
            cache_stats={"hits": 2, "misses": 1},
            admission_stats={"executing": 0, "shed_queue_full": 5},
        )
        assert '# TYPE trinit_requests_total counter' in text
        assert 'trinit_requests_total{route="query",status="200"} 1' in text
        assert 'trinit_query_stats_total{counter="sorted_accesses"} 4' in text
        assert 'trinit_query_stats_total{counter="delta_hits"} 1' in text
        assert 'trinit_cache{counter="hits"} 2' in text
        assert 'trinit_admission{counter="shed_queue_full"} 5' in text
        assert 'trinit_answers_streamed_total 3' in text
        assert text.endswith("\n")

    def test_prometheus_latency_quantiles(self):
        metrics = ServerMetrics()
        for _ in range(10):
            metrics.observe_request("stream", 200, 0.25)
        text = metrics.render_prometheus()
        assert (
            'trinit_request_latency_seconds{route="stream",quantile="0.5"} 0.25'
            in text
        )
