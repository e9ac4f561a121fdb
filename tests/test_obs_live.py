"""Tests for the live-telemetry layer: windows, SLOs, flight, exposition.

Everything runs on hand-stepped fake clocks — window rollover, burn-rate
transitions and flight timestamps are exact assertions, not sleeps.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.obs import (
    FlightRecorder,
    Histogram,
    MetricsRegistry,
    OBS_SCHEMA,
    SLOMonitor,
    SLObjective,
    WindowedRegistry,
    append_obs_record,
    default_objectives,
    default_stamp,
    histogram_quantile,
    load_obs_journal,
    render_prometheus,
    worst_status,
)
from repro.obs.names import (
    DYNAMIC_METRIC_PREFIXES,
    METRIC_NAMES,
    SPAN_NAMES,
    is_registered_metric,
    is_registered_span,
)
from repro.obs.summarize import (
    normalize_snapshot,
    summarize,
    summarize_flight,
    summarize_metrics,
)


class ManualClock:
    """A clock that only moves when told to."""

    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# --------------------------------------------------------------------- #
# the windowed registry
# --------------------------------------------------------------------- #


class TestWindowedRegistry:
    def test_validates_bucket_and_horizon(self):
        with pytest.raises(ValueError):
            WindowedRegistry(ManualClock(), bucket_seconds=0.0)
        with pytest.raises(ValueError):
            WindowedRegistry(
                ManualClock(), bucket_seconds=2.0, horizon_seconds=1.0
            )

    def test_cumulative_snapshot_stays_v1(self):
        # The base snapshot must remain byte-identical to a plain
        # registry fed the same writes — windowing is an overlay.
        clock = ManualClock()
        windowed = WindowedRegistry(clock)
        plain = MetricsRegistry()
        for registry in (windowed, plain):
            registry.inc("serve.requests", 3)
            registry.set_gauge("serve.gate.depth", 2.0)
            registry.observe("serve.request_seconds", 0.25)
        assert windowed.snapshot() == plain.snapshot()
        assert windowed.snapshot()["v"] == 1

    def test_window_sums_and_rates_are_deterministic(self):
        clock = ManualClock()
        reg = WindowedRegistry(clock, bucket_seconds=1.0, horizon_seconds=60.0)
        for second in range(10):
            clock.now = float(second)
            reg.inc("serve.requests")
        window = reg.window_snapshot(10.0)["window"]
        assert window["counters"]["serve.requests"] == 10
        assert window["rates"]["serve.requests"] == pytest.approx(1.0)
        assert reg.window_snapshot(10.0) == reg.window_snapshot(10.0)

    def test_rollover_expires_old_buckets(self):
        clock = ManualClock()
        reg = WindowedRegistry(clock, bucket_seconds=1.0, horizon_seconds=30.0)
        reg.inc("serve.requests", 5)
        clock.advance(10.0)
        reg.inc("serve.requests", 1)
        # A 5-second window only sees the recent write...
        assert (
            reg.window_snapshot(5.0)["window"]["counters"]["serve.requests"]
            == 1
        )
        # ...the full horizon still sees both...
        assert (
            reg.window_snapshot(30.0)["window"]["counters"]["serve.requests"]
            == 6
        )
        # ...and the cumulative store never forgets.
        assert reg.snapshot()["counters"]["serve.requests"] == 6

    def test_ring_wrap_reclaims_slots_past_the_horizon(self):
        clock = ManualClock()
        reg = WindowedRegistry(clock, bucket_seconds=1.0, horizon_seconds=5.0)
        for second in range(20):
            clock.now = float(second)
            reg.inc("serve.requests")
        window = reg.window_snapshot()["window"]
        # Only the last horizon's worth of buckets can contribute.
        assert window["counters"]["serve.requests"] <= 6
        assert reg.snapshot()["counters"]["serve.requests"] == 20

    def test_window_is_clamped_to_bucket_and_horizon(self):
        clock = ManualClock()
        reg = WindowedRegistry(clock, bucket_seconds=1.0, horizon_seconds=10.0)
        reg.inc("serve.requests")
        assert reg.window_snapshot(10_000.0)["window"]["seconds"] == 10.0
        assert reg.window_snapshot(0.001)["window"]["seconds"] == 1.0

    def test_gauge_last_write_wins_within_the_window(self):
        clock = ManualClock()
        reg = WindowedRegistry(clock, bucket_seconds=1.0, horizon_seconds=60.0)
        reg.set_gauge("serve.gate.depth", 4.0)
        clock.advance(2.0)
        reg.set_gauge("serve.gate.depth", 1.0)
        window = reg.window_snapshot(10.0)["window"]
        assert window["gauges"]["serve.gate.depth"] == 1.0

    def test_windowed_quantiles_from_merged_histograms(self):
        clock = ManualClock()
        reg = WindowedRegistry(clock, bucket_seconds=1.0, horizon_seconds=60.0)
        for second, value in enumerate([0.01, 0.01, 0.01, 4.0]):
            clock.now = float(second)
            reg.observe("serve.request_seconds", value)
        quantiles = reg.window_snapshot(60.0)["window"]["quantiles"]
        per = quantiles["serve.request_seconds"]
        # log2 buckets report the bucket's upper edge, clamped to the
        # observed extremes: 0.01 lands in (2^-7, 2^-6].
        assert per["p50"] == pytest.approx(0.015625)
        assert per["p99"] == pytest.approx(4.0)
        # Outside the window the slow outlier disappears.
        clock.now = 100.0
        reg.observe("serve.request_seconds", 0.01)
        tight = reg.window_snapshot(5.0)["window"]["quantiles"]
        assert tight["serve.request_seconds"]["p99"] == pytest.approx(0.01)


class TestHistogramMerge:
    def test_merge_is_associative_and_order_free(self):
        # Property: however observations are partitioned and in whatever
        # order the parts are merged, the merged snapshot is identical —
        # which is what makes per-bucket histograms a lossless shard of
        # the window.
        rng = random.Random(20260809)
        values = [rng.lognormvariate(-3.0, 2.0) for _ in range(500)]
        reference = Histogram()
        for value in values:
            reference.observe(value)
        for trial in range(5):
            shuffled = values[:]
            rng.shuffle(shuffled)
            chunk = max(1, rng.randrange(1, 100))
            parts = []
            for start in range(0, len(shuffled), chunk):
                hist = Histogram()
                for value in shuffled[start:start + chunk]:
                    hist.observe(value)
                parts.append(hist.snapshot())
            rng.shuffle(parts)
            merged = Histogram()
            for part in parts:
                merged.merge(part)
            got, want = merged.snapshot(), reference.snapshot()
            # float addition is order-sensitive in the last ulp, so the
            # running sum is compared approximately; the structural
            # fields (buckets, count, extremes) must match exactly.
            assert got.pop("sum") == pytest.approx(want.pop("sum")), trial
            assert got == want, trial

    def test_quantile_walks_bucket_edges(self):
        hist = Histogram()
        for value in [0.1, 0.2, 0.4, 0.8, 1.6]:
            hist.observe(value)
        snap = hist.snapshot()
        assert histogram_quantile(snap, 0.0) is not None
        assert histogram_quantile(snap, 1.0) == pytest.approx(snap["max"])
        assert histogram_quantile({"buckets": {}, "count": 0}, 0.5) is None


# --------------------------------------------------------------------- #
# SLO burn rates
# --------------------------------------------------------------------- #


def _latency_objective(**overrides) -> SLObjective:
    kwargs = dict(
        name="latency-p99",
        kind="latency_quantile",
        target=0.1,
        quantile=0.99,
        fast_window=10.0,
        slow_window=60.0,
    )
    kwargs.update(overrides)
    return SLObjective(**kwargs)


class TestSLOMonitor:
    def test_objective_validation(self):
        with pytest.raises(ValueError):
            SLObjective(name="x", kind="nope", target=1.0)
        with pytest.raises(ValueError):
            SLObjective(name="x", kind="error_ratio", target=0.0)

    def test_empty_windows_are_ok_not_breach(self):
        reg = WindowedRegistry(ManualClock(), horizon_seconds=60.0)
        monitor = SLOMonitor(default_objectives(), reg)
        results = monitor.evaluate()
        assert [r.status for r in results] == ["ok", "ok", "ok"]
        assert worst_status(results) == "ok"

    def test_ok_warn_breach_walk_under_a_fake_clock(self):
        clock = ManualClock()
        reg = WindowedRegistry(clock, bucket_seconds=1.0, horizon_seconds=120.0)
        monitor = SLOMonitor([_latency_objective()], reg)

        # Healthy traffic: well under target in both windows.
        reg.observe("serve.request_seconds", 0.01)
        assert monitor.evaluate()[0].status == "ok"

        # A fresh spike: the fast window burns hot, but one outlier in
        # >100 slow-window samples stays below the slow p99 — warn.
        for second in range(50):
            clock.now = float(second)
            reg.observe("serve.request_seconds", 0.01)
            reg.observe("serve.request_seconds", 0.01)
        clock.now = 55.0
        reg.observe("serve.request_seconds", 5.0)
        spiked = monitor.evaluate()[0]
        assert spiked.status == "warn"
        assert spiked.fast_burn_rate >= 2.0
        assert spiked.slow_burn_rate < 1.0

        # Sustained regression: both windows over → breach.
        for second in range(56, 66):
            clock.now = float(second)
            reg.observe("serve.request_seconds", 5.0)
        breached = monitor.evaluate()[0]
        assert breached.status == "breach"
        assert breached.fast_burn_rate >= 2.0
        assert breached.slow_burn_rate >= 1.0

    def test_error_ratio_uses_prefix_families(self):
        clock = ManualClock()
        reg = WindowedRegistry(clock, horizon_seconds=120.0)
        objective = SLObjective(
            name="error-ratio",
            kind="error_ratio",
            target=0.01,
            bad=("serve.errors.",),
            total="serve.requests",
            fast_window=10.0,
            slow_window=60.0,
        )
        reg.inc("serve.requests", 100)
        reg.inc("serve.errors.internal", 3)
        reg.inc("serve.errors.request", 2)
        result = SLOMonitor([objective], reg).evaluate()[0]
        assert result.fast_value == pytest.approx(0.05)
        assert result.status == "breach"

    def test_result_json_is_self_describing(self):
        reg = WindowedRegistry(ManualClock(), horizon_seconds=60.0)
        result = SLOMonitor([_latency_objective()], reg).evaluate()[0]
        payload = result.to_json()
        assert payload["objective"]["name"] == "latency-p99"
        assert set(payload) >= {
            "status", "fast_burn_rate", "slow_burn_rate",
        }
        json.dumps(payload)  # must be JSON-serializable as-is


# --------------------------------------------------------------------- #
# the flight recorder
# --------------------------------------------------------------------- #


class TestFlightRecorder:
    def test_ring_keeps_the_newest_and_counts_drops(self):
        clock = ManualClock()
        flight = FlightRecorder(capacity=3, clock=clock)
        for i in range(5):
            clock.advance(1.0)
            flight.record("request", {"request_id": f"r{i}"})
        snap = flight.snapshot()
        assert len(flight) == 3
        assert snap["recorded"] == 5
        assert snap["dropped"] == 2
        held = [e["summary"]["request_id"] for e in snap["entries"]]
        assert held == ["r2", "r3", "r4"]  # oldest-first, newest kept
        assert [e["seq"] for e in snap["entries"]] == [3, 4, 5]

    def test_record_copies_the_summary(self):
        flight = FlightRecorder(capacity=2, clock=ManualClock())
        summary = {"status": "ok"}
        flight.record("request", summary)
        summary["status"] = "mutated"
        assert flight.snapshot()["entries"][0]["summary"]["status"] == "ok"

    def test_dump_is_atomic_json(self, tmp_path):
        clock = ManualClock(now=7.0)
        flight = FlightRecorder(capacity=4, clock=clock)
        flight.record("breach", {"objective": "latency-p99"})
        target = tmp_path / "flight.json"
        snap = flight.dump(target)
        on_disk = json.loads(target.read_text())
        assert on_disk == snap
        assert on_disk["entries"][0]["kind"] == "breach"
        assert on_disk["entries"][0]["at"] == 7.0
        assert not list(tmp_path.glob("*.tmp*"))  # no temp litter


# --------------------------------------------------------------------- #
# exposition + journal
# --------------------------------------------------------------------- #


class TestExposition:
    def test_v1_snapshot_renders_counters_gauges_histograms(self):
        reg = MetricsRegistry()
        reg.inc("serve.requests", 2)
        reg.set_gauge("serve.gate.depth", 1.0)
        reg.observe("serve.request_seconds", 0.2)
        text = render_prometheus(reg.snapshot())
        assert "repro_serve_requests_total 2" in text
        assert "repro_serve_gate_depth 1" in text
        assert 'repro_serve_request_seconds_bucket{le="+Inf"} 1' in text
        assert text.endswith("\n")

    def test_v2_snapshot_adds_window_series(self):
        clock = ManualClock()
        reg = WindowedRegistry(clock, horizon_seconds=60.0)
        reg.inc("serve.requests", 6)
        reg.observe("serve.request_seconds", 0.2)
        text = render_prometheus(reg.window_snapshot(60.0))
        assert 'repro_serve_requests_window_total{window="60"} 6' in text
        assert 'repro_serve_requests_rate{window="60"} 0.1' in text
        assert 'quantile="0.99",window="60"' in text

    def test_rendering_is_deterministic(self):
        clock = ManualClock()
        reg = WindowedRegistry(clock, horizon_seconds=60.0)
        reg.inc("serve.requests", 3)
        reg.observe("serve.request_seconds", 0.4)
        snap = reg.window_snapshot(30.0)
        assert render_prometheus(snap) == render_prometheus(
            json.loads(json.dumps(snap))
        )

    def test_names_are_sanitized(self):
        reg = MetricsRegistry()
        reg.inc("serve.status.ok", 1)
        text = render_prometheus(reg.snapshot())
        assert "repro_serve_status_ok_total 1" in text


class TestObsJournal:
    def test_round_trip_and_torn_tail(self, tmp_path):
        path = tmp_path / "OBS_test.jsonl"
        reg = WindowedRegistry(ManualClock(), horizon_seconds=60.0)
        reg.inc("serve.requests", 4)
        snap = reg.window_snapshot(60.0)
        record = append_obs_record(
            path, kind="bench", stamp="s1", snapshot=snap,
            extra={"quick": True},
        )
        assert record["schema"] == OBS_SCHEMA
        append_obs_record(path, kind="experiment", stamp="s2", snapshot=snap)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"schema": "repro.obs.snapshot/1", "kind": "to')
        loaded, skipped = load_obs_journal(path)
        assert [r["kind"] for r in loaded] == ["bench", "experiment"]
        assert skipped == 1
        assert loaded[0]["snapshot"] == json.loads(json.dumps(snap))
        assert loaded[0]["quick"] is True

    def test_foreign_schemas_are_skipped(self, tmp_path):
        path = tmp_path / "OBS_mixed.jsonl"
        path.write_text(
            '{"schema": "someone.else/9", "kind": "x"}\n'
            '{"schema": "repro.obs.snapshot/1", "kind": "bench", '
            '"stamp": "s", "snapshot": {}}\n'
        )
        records, skipped = load_obs_journal(path)
        assert ([r["kind"] for r in records], skipped) == (["bench"], 0)

    def test_extra_keys_must_not_shadow_the_schema(self, tmp_path):
        with pytest.raises(ValueError):
            append_obs_record(
                tmp_path / "OBS_x.jsonl", kind="bench", stamp="s",
                snapshot={}, extra={"kind": "shadow"},
            )

    def test_default_stamp_is_a_pure_function_of_the_clock(self):
        assert default_stamp(lambda: 0.0) == "1970-01-01T000000Z"
        assert default_stamp(lambda: 86400.0 + 3661.0) == "1970-01-02T010101Z"


# --------------------------------------------------------------------- #
# summarize: the v1 → v2 shim
# --------------------------------------------------------------------- #


class TestSummarizeShim:
    def test_normalize_v1_gains_an_empty_window(self):
        reg = MetricsRegistry()
        reg.inc("serve.requests")
        normalized = normalize_snapshot(reg.snapshot())
        assert normalized["window"] == {}
        assert normalized["counters"]["serve.requests"] == 1

    def test_v1_rendering_is_unchanged_by_the_shim(self):
        reg = MetricsRegistry()
        reg.inc("serve.requests", 2)
        text = summarize_metrics(reg.snapshot())
        assert "serve.requests" in text
        assert "last" not in text  # no window table for v1

    def test_v2_rendering_adds_window_tables(self):
        clock = ManualClock()
        reg = WindowedRegistry(clock, horizon_seconds=60.0)
        reg.inc("serve.requests", 3)
        reg.observe("serve.request_seconds", 0.25)
        text = summarize_metrics(reg.window_snapshot(60.0))
        assert "counter (last 60s)" in text
        assert "windowed histogram" in text

    def test_flight_part_is_optional(self):
        flight = FlightRecorder(capacity=2, clock=ManualClock())
        flight.record("request", {"status": "ok", "request_id": "r1"})
        combined = summarize((), None, flight.snapshot())
        assert "Flight recorder" in combined
        assert "r1" in combined
        assert "Flight" not in summarize((), {"v": 1, "counters": {}})
        assert summarize() == "(nothing to summarize)"

    def test_summarize_flight_handles_empty_rings(self):
        assert "(no entries)" in summarize_flight(
            {"entries": [], "recorded": 0, "dropped": 0}
        )


# --------------------------------------------------------------------- #
# the name registry REP015 enforces
# --------------------------------------------------------------------- #


class TestNameRegistry:
    def test_core_serving_names_are_registered(self):
        for name in (
            "serve.requests",
            "serve.request_seconds",
            "serve.gate.depth",
            "serve.breaker.state",
            "serve.cache.entries",
            "serve.cache.journal_bytes",
            "serve.slo.breaches",
            "serve.flight.dumps",
        ):
            assert name in METRIC_NAMES, name
        assert "serve.request" in SPAN_NAMES

    def test_dynamic_prefixes_admit_their_families(self):
        assert is_registered_metric("serve.status.ok")
        assert is_registered_metric("serve.shed.queue_full")
        assert not is_registered_metric("serve.made.up")
        assert is_registered_span("serve.execute")
        assert not is_registered_span("serve.unknown_phase")
        for prefix in DYNAMIC_METRIC_PREFIXES:
            assert prefix.endswith(".")
