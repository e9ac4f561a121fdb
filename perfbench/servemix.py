"""``serve-mix``: ``AnonymizationService.handle()`` in a closed loop, one client.

The stream is seeded by the workload seed and has a fixed shape, so that
a different seed changes the tables and the order but not the mix:

* every (dataset, notion, measure) triple gets one key per table size
  ``n``, with the three ``k`` values dealt to the three sizes, plus one
  more key on the smallest table: 120 distinct keys over ART, CMC and
  ADT, all five notions, LM and entropy;
* every key is requested twice.  The first request runs the fallback
  chain and appends to the cache journal (a miss); the second, at a
  seeded later point of the stream, is read from the cache (a hit).

One client, because with two client threads on two cores which
requests hit depended on thread timing and throughput fell.  The cache
is a journal-backed ``ResultCache`` in a fresh directory per pass, and
each request carries a timeout long enough that no deadline fires.
Between requests, untimed, the speed probe is read every
``PROBE_INTERVAL_S``; each request's latency is reported at the
reference speed (:class:`common.SpeedProbe`).
"""

from __future__ import annotations

import json
import random
import shutil
import statistics
import tempfile
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Any, Iterator

from common import Outcome, SpeedProbe, median, peak_rss_mb, quantile, timed_setup
from layers import (
    CONVERSION_STATS,
    PER_LAYER,
    LayerTracer,
    Tally,
    format_layers,
    layer_metrics,
)

DATASETS = ("art", "cmc", "adult")
SIZES = (150, 300, 600)
NOTIONS = ("k", "k1", "1k", "kk", "global-1k")
MEASURES = ("lm", "entropy")
KS = (3, 5, 10)
TIMEOUT_S = 600.0
PROBE_INTERVAL_S = 1.0
SCRATCH = Path(__file__).resolve().parent.parent / ".perfbench-tmp"

Key = tuple[str, int, str, str, int]  # dataset, n, notion, measure, k


def request_keys() -> list[Key]:
    """The 120 distinct keys of the stream, the same for every seed.

    Per (dataset, notion, measure) triple, the three k values are dealt
    to the three sizes in a rotation that advances with each triple, so
    k spreads evenly over sizes, and one more key sits on the smallest
    table.  The set is fixed because which k meets which size moves the
    miss latencies more than the run-to-run noise does.
    """
    keys: list[Key] = []
    triples = [(d, no, m) for d in DATASETS for no in NOTIONS for m in MEASURES]
    for t, (dataset, notion, measure) in enumerate(triples):
        for i, n in enumerate(SIZES):
            keys.append((dataset, n, notion, measure, KS[(i + t) % len(KS)]))
        keys.append((dataset, SIZES[0], notion, measure, KS[(t + 1) % len(KS)]))
    return keys


def request_stream(seed: int) -> list[Key]:
    """The seeded request order; each key appears twice (miss, then hit)."""
    rng = random.Random(seed)
    events = []
    for key in request_keys():
        first = rng.random()
        events.append((first, key))
        events.append((first + (1.0 - first) * rng.random(), key))
    events.sort()
    return [key for _, key in events]


def _payload(key: Key, seed: int) -> dict[str, Any]:
    dataset, n, notion, measure, k = key
    return {
        "dataset": dataset,
        "n": n,
        "seed": seed,
        "k": k,
        "notion": notion,
        "measure": measure,
        "timeout": TIMEOUT_S,
    }


@contextmanager
def _fresh_service() -> Iterator[tuple[Any, Any]]:
    """A service on an empty journal-backed cache in a scratch directory."""
    from repro.runtime.journal import Journal
    from repro.serve.cache import ResultCache
    from repro.serve.service import AnonymizationService

    SCRATCH.mkdir(exist_ok=True)
    directory = Path(tempfile.mkdtemp(dir=SCRATCH))
    try:
        cache = ResultCache(Journal(directory / "cache.jsonl"))
        yield AnonymizationService(cache=cache), cache
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def run(seed: int, seconds: float, trace: bool, import_s: float, probe: SpeedProbe) -> Outcome:
    from repro.serve.service import AnonymizationService

    def setup() -> list[Key]:
        stream = request_stream(seed)
        warm = AnonymizationService()  # memory-only cache, thrown away
        warm.handle(_payload(("art", SIZES[0], "kk", "entropy", 5), seed))
        return stream

    stream, setup_s = timed_setup(setup, probe)
    attempted = failed = 0
    problems: list[str] = []
    backends: set[str] = set()
    costs: dict[Key, float] = {}

    def serve_pass(tracer: LayerTracer | None = None) -> dict[str, Any]:
        """Drive the stream once; per-request latencies split by hit/miss,
        each as ``(key, wall seconds, seconds at reference speed)``."""
        nonlocal attempted, failed
        armed = tracer.armed if tracer is not None else nullcontext
        bodies: dict[Key, str] = {}
        out: dict[str, Any] = {
            "hit": [],
            "miss": [],
            "hit_tally": Tally(),
            "miss_tally": Tally(),
            "conversion": dict.fromkeys(CONVERSION_STATS, 0.0),
        }
        timed: list[tuple[str, Key, float, float]] = []
        with _fresh_service() as (service, cache):
            for key in stream:
                payload = _payload(key, seed)
                attempted += 1
                probe.read_every(PROBE_INTERVAL_S)
                with armed():
                    start = time.perf_counter()
                    envelope = service.handle(payload)
                    elapsed = time.perf_counter() - start
                kind = "hit" if envelope["meta"]["cache_hit"] else "miss"
                if tracer is not None:
                    tally = tracer.take()
                    problems.extend(f"{key}: {p}" for p in tally.reconcile(elapsed))
                    out[f"{kind}_tally"].merge(tally)
                problem = _check(key, envelope, bodies)
                if problem is not None:
                    failed += 1
                    problems.append(f"{key}: {problem}")
                    continue
                backends.add(envelope["meta"].get("backend", "unknown"))
                timed.append((kind, key, start, elapsed))
                if kind == "miss":
                    result = envelope["body"]["result"]
                    costs[key] = result["cost"]
                    for metric, stat in CONVERSION_STATS.items():
                        out["conversion"][metric] += result["stats"].get(stat, 0)
            out["counters"] = service.registry.snapshot()["counters"]
            out["journal_bytes"] = cache.journal_bytes()
        probe.read()
        for kind, key, start, elapsed in timed:
            out[kind].append((key, elapsed, probe.scaled(start, elapsed)))
        return out

    tables: list[str] = []
    try:
        if not trace:
            # Another pass only if one more as long as the last still fits.
            passes = []
            start = time.perf_counter()
            last = 0.0
            while not passes or time.perf_counter() - start + last <= seconds:
                began = time.perf_counter()
                passes.append(serve_pass())
                last = time.perf_counter() - began
            metrics = _end_to_end(passes, costs)
            metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
            metrics["setup_s"] = (import_s + setup_s, "s")
            tables.append(
                f"passes: {len(passes)}, requests per pass: {len(stream)}, "
                f"last pass {last:.1f}s; speed probe median {probe.typical() * 1e3:.2f} ms"
            )
        else:
            untraced = serve_pass()
            tracer = LayerTracer()
            tracer.install()
            try:
                traced = serve_pass(tracer)
            finally:
                tracer.uninstall()
            metrics, tables, total = _per_layer(untraced, traced)
            problems.extend(total.route_problems("serve-mix"))
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    return Outcome(
        metrics=metrics,
        attempted=attempted,
        failed=failed,
        backend=",".join(sorted(backends)) or "none",
        problems=problems,
        tables=tables,
    )


def _check(key: Key, envelope: dict[str, Any], bodies: dict[Key, str]) -> str | None:
    """Why a response is wrong, or None; runs outside the timed region."""
    if envelope.get("status") != "ok":
        return f"status {envelope.get('status')!r}: {envelope.get('error')}"
    hit = envelope["meta"]["cache_hit"]
    body = json.dumps(envelope["body"], sort_keys=True)
    if hit != (key in bodies):
        return f"cache_hit={hit} on request {1 + (key in bodies)} of this key"
    if hit:
        return None if body == bodies[key] else "cached body differs from the computed one"
    guarantee = envelope["body"]["guarantee"]
    if guarantee["degraded"] or guarantee["notion"] != key[2]:
        return f"degraded to {guarantee['notion']!r} by rung {guarantee['winner']!r}"
    bodies[key] = body
    return None


def _end_to_end(
    passes: list[dict[str, Any]], costs: dict[Key, float]
) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics of an untraced run (see README.md)."""
    hits = [s for p in passes for _, _, s in p["hit"]]
    misses = [(key, s) for p in passes for key, _, s in p["miss"]]
    miss_s = [s for _, s in misses]
    every = hits + miss_s

    def dataset_s(dataset: str) -> float:
        return sum(s for key, s in misses if key[0] == dataset) / len(passes)

    return {
        "records_per_s": (
            sum(key[1] for key, _ in misses) / max(sum(miss_s), 1e-12),
            "records/s",
        ),
        "art_s": (dataset_s("art"), "s"),
        "cmc_s": (dataset_s("cmc"), "s"),
        "adt_s": (dataset_s("adult"), "s"),
        # Each key's cost counts equally, whatever its measure's scale.
        "loss": (statistics.geometric_mean(costs.values()) if costs else 0.0, "1"),
        "serve_rps": (len(every) / max(sum(every), 1e-12), "1/s"),
        "hit_p50_ms": (median(hits) * 1000.0, "ms"),
        "miss_p50_ms": (median(miss_s) * 1000.0, "ms"),
        "miss_p90_ms": (quantile(miss_s, 0.9) * 1000.0, "ms"),
    }


def _per_layer(
    untraced: dict[str, Any], traced: dict[str, Any]
) -> tuple[dict[str, tuple[float, str]], list[str], Tally]:
    """Per-layer metrics of the traced pass, overhead against the untraced one.

    The report has one table for the hits, one for the misses and one
    for the whole workload; the metrics, and the tally returned with
    them, are the whole workload's.
    """
    tables = []
    total = Tally()
    walls = {"traced": 0.0, "untraced": 0.0}
    for kind in ("hit", "miss"):
        tally = traced[f"{kind}_tally"]
        total.merge(tally)
        traced_wall = sum(s for _, s, _ in traced[kind])
        untraced_wall = sum(s for _, s, _ in untraced[kind])
        walls["traced"] += traced_wall
        walls["untraced"] += untraced_wall
        values = layer_metrics(
            tally, {}, traced_wall_s=traced_wall, untraced_wall_s=untraced_wall, extra={}
        )
        tables.extend(format_layers(f"serve-mix, {len(traced[kind])} {kind} requests", tally, values))
    values = layer_metrics(
        total,
        traced["counters"],
        traced_wall_s=walls["traced"],
        untraced_wall_s=walls["untraced"],
        extra={
            "runtime.journal.bytes": float(traced["journal_bytes"]),
            **traced["conversion"],
        },
    )
    tables.extend(format_layers("serve-mix", total, values))
    return {name: (values[name], unit) for name, unit in PER_LAYER}, tables, total
