"""Sliding-window telemetry: time-bucketed aggregation over a registry.

:class:`WindowedRegistry` extends :class:`~repro.obs.metrics.MetricsRegistry`
with a ring of time buckets on the injectable clock.  Every write lands
twice under one lock acquisition — once in the cumulative since-boot
store (so plain :meth:`snapshot` stays schema-v1 and byte-identical to
the base class) and once in the bucket covering "now".
:meth:`window_snapshot` then answers "what happened in the last N
seconds": counter sums and per-second rates, last-written gauge values,
and histograms merged across buckets via the lossless
:meth:`Histogram.merge` — which is what makes p50/p99-over-a-window
deterministic under a fake clock.

The ring holds ``ceil(horizon / bucket) + 1`` buckets; a slot is lazily
reset when the clock has wrapped past it, so an idle registry costs
nothing and there is no background thread to schedule (or to make
tests flaky).

This module also owns the ``OBS_*.jsonl`` snapshot journal — the
committed work-unit counts a cost model of the layers can be fitted
against.  Its bytes go through :mod:`repro.obs.durable`, like the span
traces and the runtime journal: whole-line appends with flush+fsync,
and a loader that skips a torn tail.
"""

from __future__ import annotations

import math
import os
import time
from datetime import datetime, timezone
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.obs.durable import append_json_line, read_json_lines
from repro.obs.metrics import (
    Histogram,
    MetricsRegistry,
    histogram_quantile,
)
from repro.obs.tracer import Clock

__all__ = [
    "OBS_SCHEMA",
    "WINDOW_VERSION",
    "WindowedRegistry",
    "append_obs_record",
    "default_stamp",
    "load_obs_journal",
]

#: Schema marker on :meth:`WindowedRegistry.window_snapshot` payloads.
#: Version 1 (plain ``MetricsRegistry.snapshot``) has no ``window`` key.
WINDOW_VERSION = 2

#: Schema tag on every ``OBS_*.jsonl`` record.
OBS_SCHEMA = "repro.obs.snapshot/1"

#: Quantiles reported per windowed histogram.
_QUANTILES = (("p50", 0.50), ("p90", 0.90), ("p99", 0.99))


class _Bucket:
    """One time slice of the ring: partial sums keyed by metric name."""

    __slots__ = ("index", "counters", "gauges", "histograms")

    def __init__(self) -> None:
        self.index = -1
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        self.histograms: Dict[str, Histogram] = {}

    def reset(self, index: int) -> None:
        self.index = index
        self.counters.clear()
        self.gauges.clear()
        self.histograms.clear()


class WindowedRegistry(MetricsRegistry):
    """A :class:`MetricsRegistry` that also aggregates per time bucket.

    ``clock`` is any zero-argument float callable — ``time.monotonic``
    in production, a hand-advanced fake in tests.  ``bucket_seconds``
    sets window resolution; ``horizon_seconds`` bounds how far back a
    window may reach (memory is ``O(horizon / bucket)`` buckets, each
    holding only the names written during that slice).
    """

    def __init__(
        self,
        clock: Clock = time.monotonic,
        *,
        bucket_seconds: float = 1.0,
        horizon_seconds: float = 300.0,
    ) -> None:
        if bucket_seconds <= 0:
            raise ValueError("bucket_seconds must be positive")
        if horizon_seconds < bucket_seconds:
            raise ValueError("horizon_seconds must cover at least one bucket")
        super().__init__()
        self.clock = clock
        self.bucket_seconds = float(bucket_seconds)
        self.horizon_seconds = float(horizon_seconds)
        # +1 so the current partial bucket never evicts the oldest full
        # bucket still inside the horizon.
        self._ring: List[_Bucket] = [
            _Bucket()
            for _ in range(
                int(math.ceil(self.horizon_seconds / self.bucket_seconds)) + 1
            )
        ]

    # -- ring internals (callers hold self._lock) ---------------------- #

    def _bucket_now_locked(self) -> _Bucket:
        index = int(self.clock() // self.bucket_seconds)
        bucket = self._ring[index % len(self._ring)]
        if bucket.index != index:
            bucket.reset(index)
        return bucket

    # -- writes (cumulative + bucket under one lock) ------------------- #

    def inc(self, name: str, n: float = 1) -> None:
        """Add ``n`` to counter ``name``, cumulatively and in-window."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + n
            bucket = self._bucket_now_locked()
            bucket.counters[name] = bucket.counters.get(name, 0) + n

    def set_gauge(self, name: str, value: float) -> None:
        """Set gauge ``name``; the window keeps the last write per bucket."""
        with self._lock:
            self._gauges[name] = value
            self._bucket_now_locked().gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        """Record ``value`` into histogram ``name``, cumulative + bucket."""
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                hist = self._histograms[name] = Histogram()
            hist.observe(value)
            bucket = self._bucket_now_locked()
            whist = bucket.histograms.get(name)
            if whist is None:
                whist = bucket.histograms[name] = Histogram()
            whist.observe(value)

    # -- reads --------------------------------------------------------- #

    def window_snapshot(
        self, window_seconds: Optional[float] = None
    ) -> Dict[str, Any]:
        """Version-2 snapshot: cumulative state plus a ``window`` block.

        ``window_seconds`` defaults to the full horizon and is clamped
        into ``[bucket_seconds, horizon_seconds]``.  The window covers
        the current (partial) bucket and the ``ceil(w / bucket) - 1``
        buckets before it, so rates are conservative rather than
        flattered by a just-opened slice.
        """
        if window_seconds is None:
            window_seconds = self.horizon_seconds
        window_seconds = max(
            self.bucket_seconds, min(float(window_seconds), self.horizon_seconds)
        )
        spans = int(math.ceil(window_seconds / self.bucket_seconds))
        with self._lock:
            now_index = int(self.clock() // self.bucket_seconds)
            first_index = now_index - spans + 1
            live = sorted(
                (
                    bucket
                    for bucket in self._ring
                    if first_index <= bucket.index <= now_index
                ),
                key=lambda bucket: bucket.index,
            )
            counters: Dict[str, float] = {}
            gauges: Dict[str, float] = {}
            merged: Dict[str, Histogram] = {}
            for bucket in live:  # ascending index → gauge last-write wins
                for name, value in bucket.counters.items():
                    counters[name] = counters.get(name, 0) + value
                gauges.update(bucket.gauges)
                for name, hist in bucket.histograms.items():
                    target = merged.get(name)
                    if target is None:
                        target = merged[name] = Histogram()
                    target.merge(hist.snapshot())
            snap = {
                "v": WINDOW_VERSION,
                "counters": {
                    name: self._counters[name]
                    for name in sorted(self._counters)
                },
                "gauges": {
                    name: self._gauges[name] for name in sorted(self._gauges)
                },
                "histograms": {
                    name: self._histograms[name].snapshot()
                    for name in sorted(self._histograms)
                },
                "window": {
                    "seconds": window_seconds,
                    "bucket_seconds": self.bucket_seconds,
                    "counters": {
                        name: counters[name] for name in sorted(counters)
                    },
                    "rates": {
                        name: counters[name] / window_seconds
                        for name in sorted(counters)
                    },
                    "gauges": {
                        name: gauges[name] for name in sorted(gauges)
                    },
                    "histograms": {
                        name: merged[name].snapshot()
                        for name in sorted(merged)
                    },
                    "quantiles": {
                        name: {
                            label: histogram_quantile(
                                merged[name].snapshot(), q
                            )
                            for label, q in _QUANTILES
                        }
                        for name in sorted(merged)
                    },
                },
            }
        return snap


# --------------------------------------------------------------------- #
# OBS_*.jsonl snapshot journal
# --------------------------------------------------------------------- #


def default_stamp(clock: Clock = time.time) -> str:
    """A filesystem-safe UTC run stamp (``%Y-%m-%dT%H%M%SZ``).

    The wall-clock read goes through an injectable epoch-seconds
    ``clock``, so a fake clock yields an exact, assertable stamp.
    """
    return datetime.fromtimestamp(clock(), timezone.utc).strftime(
        "%Y-%m-%dT%H%M%SZ"
    )


def append_obs_record(
    path: "str | os.PathLike[str]",
    *,
    kind: str,
    stamp: str,
    snapshot: Mapping[str, Any],
    extra: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """Append one snapshot record to an ``OBS_*.jsonl`` journal.

    ``kind`` names the producer (``"experiment"`` for ``repro-anon
    experiment --obs-journal``); ``stamp`` is the producer's run stamp,
    by convention :func:`default_stamp`.  Whole-line append with
    flush+fsync; returns the record written.
    """
    record: Dict[str, Any] = {
        "schema": OBS_SCHEMA,
        "kind": kind,
        "stamp": stamp,
        "snapshot": dict(snapshot),
    }
    if extra:
        for key in sorted(extra):
            if key in record:
                raise ValueError(f"extra key {key!r} collides with the schema")
            record[key] = extra[key]
    append_json_line(path, record)
    return record


def load_obs_journal(
    path: "str | os.PathLike[str]",
) -> Tuple[List[Dict[str, Any]], int]:
    """``(records, skipped)``: an OBS journal's records, and the count of
    lines skipped as unreadable (a torn final line, say).

    Records whose ``schema`` is not ``repro.obs.snapshot/*`` are left
    out too, uncounted (forward compatibility).  Raises
    :class:`~repro.errors.ReproError` if the file cannot be read.
    """
    records, skipped = read_json_lines(path)
    return [
        record
        for record in records
        if str(record.get("schema", "")).startswith("repro.obs.snapshot/")
    ], skipped
