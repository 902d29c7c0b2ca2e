"""Unit tests for :class:`repro.instrument.Metrics`, the one store behind
the pipeline stage counters and the gateway's ``\\stats``."""

from repro.instrument import RESERVOIR, Metrics


class TestCounts:
    def test_bump_get_and_negative_bumps(self):
        metrics = Metrics()
        assert metrics.get("workers_busy") == 0
        metrics.bump("workers_busy")
        metrics.bump("workers_busy")
        metrics.bump("workers_busy", -1)
        assert metrics.get("workers_busy") == 1
        metrics.bump("net_rows_streamed", 250)
        assert metrics.get("net_rows_streamed") == 250

    def test_zero_bump_shows_the_count(self):
        metrics = Metrics()
        metrics.bump("requests_degraded", 0)
        assert metrics.snapshot() == {"requests_degraded": 0}
        assert metrics.report() == {"requests_degraded": 0}

    def test_delta_since_snapshot(self):
        metrics = Metrics()
        metrics.bump("sql.parse")
        metrics.bump("plan.build", 2)
        before = metrics.snapshot()
        metrics.bump("plan.build")
        metrics.bump("validity.check", 3)
        metrics.bump("connections_open", 0)
        assert metrics.delta_since(before) == {
            "plan.build": 1,
            "validity.check": 3,
        }
        # the snapshot is a copy, not a view
        assert before == {"sql.parse": 1, "plan.build": 2}

    def test_snapshot_leaves_out_distributions(self):
        metrics = Metrics()
        metrics.observe("latency_ms", 1.0)
        assert metrics.snapshot() == {}
        assert metrics.delta_since({}) == {}

    def test_reset_clears_everything(self):
        metrics = Metrics()
        metrics.bump("sql.parse")
        metrics.observe("latency_ms", 1.0)
        metrics.reset()
        assert metrics.snapshot() == {}
        assert metrics.report() == {}


class TestReport:
    def test_keys_and_percentiles(self):
        metrics = Metrics()
        metrics.bump("requests_ok", 3)
        for value in range(1, 101):  # 1..100, shuffled order
            metrics.observe("latency_ms", float((value * 37) % 100 + 1))
        metrics.observe("queue_ms", 2.0)
        report = metrics.report()
        assert list(report) == [
            "requests_ok",
            "latency_ms_count",
            "latency_ms_mean",
            "latency_ms_p50",
            "latency_ms_p95",
            "latency_ms_p99",
            "queue_ms_count",
            "queue_ms_mean",
            "queue_ms_p50",
            "queue_ms_p95",
            "queue_ms_p99",
        ]
        assert report["requests_ok"] == 3
        assert report["latency_ms_count"] == 100
        assert report["latency_ms_mean"] == 50.5
        assert (
            report["latency_ms_p50"],
            report["latency_ms_p95"],
            report["latency_ms_p99"],
        ) == (50.0, 95.0, 99.0)
        assert report["queue_ms_p50"] == report["queue_ms_p99"] == 2.0

    def test_percentiles_over_recent_reservoir_mean_over_all(self):
        metrics = Metrics()
        for _ in range(RESERVOIR):
            metrics.observe("latency_ms", 1000.0)
        for _ in range(RESERVOIR):
            metrics.observe("latency_ms", 1.0)
        report = metrics.report()
        assert report["latency_ms_count"] == 2 * RESERVOIR
        assert report["latency_ms_mean"] == 500.5
        # the old samples fell out of the reservoir
        assert report["latency_ms_p99"] == 1.0
