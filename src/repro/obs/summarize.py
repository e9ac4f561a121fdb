"""Human-readable roll-ups of traces and metrics snapshots.

Sits one layer above the rest of ``repro.obs`` (mirroring the
``runtime.fallback`` carve-out) because it renders through
``repro.report`` — the collection machinery in ``tracer``/``metrics``
stays importable from the lowest layers, while this module is only
pulled in by the CLI.  Keep it out of ``repro.obs.__init__`` for the
same reason.

The output is the profiling deliverable: a per-phase time/work table
(span name → count, total/mean duration, checkpoint hits) plus counter,
gauge and histogram tables from a :class:`~repro.obs.MetricsRegistry`
snapshot.

Accepts both snapshot schemas (the ``v`` field): v1 (cumulative only)
and v2 (:meth:`~repro.obs.WindowedRegistry.window_snapshot`, which adds
a ``window`` block of in-window sums, rates and quantiles).
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Sequence

from repro.report import format_table

__all__ = [
    "normalize_snapshot",
    "summarize",
    "summarize_flight",
    "summarize_metrics",
    "summarize_spans",
]


def normalize_snapshot(snapshot: Mapping[str, Any]) -> Dict[str, Any]:
    """Coerce a v1 or v2 metrics snapshot into the v2 shape.

    v1 snapshots (no ``window`` key) gain an empty ``window`` block so
    downstream renderers can branch on content, not on version.
    Unknown future versions are passed through untouched beyond the
    same guarantee.
    """
    version = int(snapshot.get("v", 1))
    normalized: Dict[str, Any] = {
        "v": version,
        "counters": dict(snapshot.get("counters", {})),
        "gauges": dict(snapshot.get("gauges", {})),
        "histograms": dict(snapshot.get("histograms", {})),
        "window": dict(snapshot.get("window", {})),
    }
    return normalized


def summarize_spans(events: Sequence[Mapping[str, Any]]) -> str:
    """Per-phase time/work table from span records.

    Groups spans by name; ``hits`` is the total number of cooperative
    checkpoints observed inside spans of that name (the work proxy that
    piggybacks on the existing hot-loop hooks).
    """
    grouped: Dict[str, Dict[str, float]] = {}
    for event in events:
        name = str(event.get("name", "?"))
        stats = grouped.setdefault(
            name, {"spans": 0, "seconds": 0.0, "hits": 0}
        )
        stats["spans"] += 1
        stats["seconds"] += float(event.get("dur", 0.0))
        stats["hits"] += sum(dict(event.get("sites", {})).values())
    rows: List[List[object]] = []
    for name in sorted(grouped, key=lambda n: -grouped[n]["seconds"]):
        stats = grouped[name]
        spans = int(stats["spans"])
        rows.append(
            [
                name,
                spans,
                stats["seconds"],
                (stats["seconds"] / spans) * 1e3 if spans else 0.0,
                int(stats["hits"]),
            ]
        )
    if not rows:
        return "(no spans recorded)"
    return format_table(
        ["phase", "spans", "total s", "mean ms", "ckpt hits"],
        rows,
        precision=3,
    )


def summarize_metrics(snapshot: Mapping[str, Any]) -> str:
    """Counter / gauge / histogram tables from a v1 or v2 snapshot.

    A v2 (windowed) snapshot additionally gets an in-window table of
    counter sums with per-second rates, and a quantile table per
    windowed histogram.
    """
    snapshot = normalize_snapshot(snapshot)
    sections: List[str] = []
    counters = dict(snapshot.get("counters", {}))
    if counters:
        sections.append(
            format_table(
                ["counter", "value"],
                [[name, counters[name]] for name in sorted(counters)],
                precision=0,
            )
        )
    gauges = dict(snapshot.get("gauges", {}))
    if gauges:
        sections.append(
            format_table(
                ["gauge", "value"],
                [[name, gauges[name]] for name in sorted(gauges)],
                precision=4,
            )
        )
    histograms = dict(snapshot.get("histograms", {}))
    if histograms:
        rows = []
        for name in sorted(histograms):
            hist = histograms[name]
            count = int(hist.get("count", 0))
            total = float(hist.get("sum", 0.0))
            rows.append(
                [
                    name,
                    count,
                    total,
                    total / count if count else 0.0,
                    hist.get("min"),
                    hist.get("max"),
                ]
            )
        sections.append(
            format_table(
                ["histogram", "count", "sum", "mean", "min", "max"],
                rows,
                precision=4,
            )
        )
    window = dict(snapshot.get("window", {}))
    window_counters = dict(window.get("counters", {}))
    if window_counters:
        seconds = float(window.get("seconds", 0.0))
        rates = dict(window.get("rates", {}))
        sections.append(
            format_table(
                [f"counter (last {seconds:g}s)", "sum", "per second"],
                [
                    [name, window_counters[name], rates.get(name, 0.0)]
                    for name in sorted(window_counters)
                ],
                precision=3,
            )
        )
    quantiles = dict(window.get("quantiles", {}))
    if quantiles:
        rows = []
        for name in sorted(quantiles):
            per = dict(quantiles[name])
            rows.append(
                [name, per.get("p50"), per.get("p90"), per.get("p99")]
            )
        sections.append(
            format_table(
                ["windowed histogram", "p50", "p90", "p99"],
                rows,
                precision=4,
            )
        )
    if not sections:
        return "(no metrics recorded)"
    return "\n\n".join(sections)


def summarize_flight(flight: Mapping[str, Any]) -> str:
    """Recent-entries table from a flight-recorder snapshot or dump."""
    entries = list(flight.get("entries", []))
    header = (
        f"flight ring: {len(entries)} held, "
        f"{int(flight.get('recorded', len(entries)))} recorded, "
        f"{int(flight.get('dropped', 0))} dropped"
    )
    if not entries:
        return header + "\n(no entries)"
    rows: List[List[object]] = []
    for entry in entries:
        summary = dict(entry.get("summary", {}))
        detail = ", ".join(
            f"{key}={summary[key]}"
            for key in sorted(summary)
            if key in ("status", "elapsed_seconds", "request_id")
        )
        rows.append(
            [
                int(entry.get("seq", 0)),
                float(entry.get("at", 0.0)),
                str(entry.get("kind", "?")),
                detail,
            ]
        )
    return header + "\n" + format_table(
        ["seq", "at", "kind", "summary"], rows, precision=3
    )


def summarize(
    events: Sequence[Mapping[str, Any]] = (),
    snapshot: Mapping[str, Any] | None = None,
    flight: Mapping[str, Any] | None = None,
) -> str:
    """Combined per-phase / metrics / flight report (each part optional)."""
    parts: List[str] = []
    if events:
        parts.append("Per-phase time/work\n" + summarize_spans(events))
    if snapshot is not None:
        parts.append("Metrics\n" + summarize_metrics(snapshot))
    if flight is not None:
        parts.append("Flight recorder\n" + summarize_flight(flight))
    if not parts:
        return "(nothing to summarize)"
    return "\n\n".join(parts)
