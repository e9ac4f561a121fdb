"""The pinned benchmark suite behind ``repro-anon bench``.

Two kinds of cases:

* **algorithm cases** — the Section V algorithms (agglomerative, forest,
  (k,k), global-(1,k)) and the Hopcroft–Karp matcher, timed over an
  n-grid.  Their timings are machine-dependent: the comparator treats
  them as warnings unless explicitly enforced.
* **paired cases** — each hot-path optimization timed against its kept
  reference implementation (e.g. the vectorized entropy ``node_costs``
  vs :func:`~repro.measures.entropy.node_costs_reference`).  The
  *ratio* of the two medians is a speedup measured on the same machine
  in the same process, so it is comparable across machines and safe to
  enforce in CI.

Reports are schema-versioned JSON (:data:`BENCH_SCHEMA`) written
atomically; ``BENCH_<stamp>.json`` files committed at the repo root are
the regression baselines :mod:`repro.perf.compare` checks against.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

from repro.core.agglomerative import _Engine, agglomerative_clustering
from repro.core.distances import get_distance
from repro.core.forest import forest_clustering
from repro.core.global_1k import global_one_k_anonymize
from repro.core.kk import kk_anonymize
from repro.datasets.registry import load
from repro.errors import ReproError
from repro.matching.bipartite import ConsistencyGraph
from repro.matching.hopcroft_karp import hopcroft_karp
from repro.measures.base import CostModel
from repro.measures.entropy import (
    EntropyMeasure,
    NonUniformEntropyMeasure,
    entry_costs_reference,
    node_costs_reference,
)
from repro.measures.registry import get_measure
from repro.obs import (
    MetricsRegistry,
    NullRegistry,
    append_obs_record,
    metrics_scope,
    span,
)
from repro.runtime import Timer, atomic_write_text
from repro.tabular.encoding import EncodedTable

#: Version tag of the report format; bump on breaking layout changes.
#: v2 added the optional top-level ``metrics`` snapshot
#: (``repro-anon bench --metrics``); the comparator reads both.
BENCH_SCHEMA = "repro.perf.bench/2"

#: Previous schema, still accepted by :mod:`repro.perf.compare` so
#: committed v1 baselines keep working.
BENCH_SCHEMA_V1 = "repro.perf.bench/1"

#: n-grid per mode: quick keeps the whole suite under the CI smoke cap.
QUICK_SIZES = (80,)
FULL_SIZES = (150, 300)

#: Repeat counts per mode (median over repeats is the reported figure).
QUICK_REPEAT = 2
FULL_REPEAT = 5

_BENCH_SEED = 0
_BENCH_K = 5
_BENCH_DATASET = "art"
_BENCH_MEASURE = "entropy"


@dataclass(frozen=True)
class BenchCase:
    """One timed case: a setup closure producing the timed closure.

    ``setup`` runs untimed and returns the function to time, so table
    encoding / model building never pollutes an algorithm measurement.
    ``pair`` groups an optimized case with its reference: two cases
    sharing a ``pair`` name (roles ``optimized`` / ``baseline``) yield a
    speedup entry in the report.
    """

    name: str
    group: str  #: "algorithm", "matching", "hotpath" or "serve"
    n: int
    setup: Callable[[], Callable[[], object]]
    pair: str = ""  #: pair name ("" = unpaired)
    role: str = ""  #: "optimized" or "baseline" within the pair


@dataclass
class BenchReport:
    """In-memory form of one ``BENCH_<stamp>.json``."""

    stamp: str
    quick: bool
    repeat: int
    machine: dict[str, Any]
    git_sha: str
    cases: list[dict[str, Any]] = field(default_factory=list)
    pairs: list[dict[str, Any]] = field(default_factory=list)
    metrics: dict[str, Any] | None = None  #: suite-wide obs snapshot

    def to_json(self) -> dict[str, Any]:
        """The schema-versioned JSON payload."""
        data: dict[str, Any] = {
            "schema": BENCH_SCHEMA,
            "stamp": self.stamp,
            "quick": self.quick,
            "repeat": self.repeat,
            "machine": self.machine,
            "git_sha": self.git_sha,
            "cases": self.cases,
            "pairs": self.pairs,
        }
        if self.metrics is not None:
            data["metrics"] = self.metrics
        return data

    def case(self, name: str) -> dict[str, Any] | None:
        """One case's entry by name (None when absent)."""
        for entry in self.cases:
            if entry["name"] == name:
                return entry
        return None

    def pair(self, name: str) -> dict[str, Any] | None:
        """One pair's entry by name (None when absent)."""
        for entry in self.pairs:
            if entry["name"] == name:
                return entry
        return None

    def write(self, path: str | Path) -> None:
        """Atomically write the JSON report."""
        atomic_write_text(
            path, json.dumps(self.to_json(), indent=2, sort_keys=True) + "\n"
        )

    def obs_record(self, path: str | Path) -> dict[str, Any]:
        """Append this run to an ``OBS_*.jsonl`` snapshot journal.

        One record per bench run: ``kind="bench"``, the report stamp
        (joinable against the ``BENCH_<stamp>.json`` baseline), the
        embedded work-unit snapshot (empty when the run collected no
        metrics) and per-case median seconds — the committed artifact
        a cost model of the layers can be fitted against.
        """
        return append_obs_record(
            path,
            kind="bench",
            stamp=self.stamp,
            snapshot=self.metrics if self.metrics is not None else {},
            extra={
                "quick": self.quick,
                "git_sha": self.git_sha,
                "case_medians": {
                    entry["name"]: entry["median"] for entry in self.cases
                },
            },
        )


def default_stamp(clock: Callable[[], float] = time.time) -> str:
    """A filesystem-safe UTC stamp for ``BENCH_<stamp>.json`` names.

    The wall-clock read goes through an injectable epoch-seconds
    ``clock`` so the filename path is testable (a fake clock yields an
    exact, assertable stamp) instead of being the one line no test
    could pin down.
    """
    from datetime import datetime, timezone

    return datetime.fromtimestamp(clock(), timezone.utc).strftime(
        "%Y-%m-%dT%H%M%SZ"
    )


def default_report_path(
    directory: str | Path = ".", clock: Callable[[], float] = time.time
) -> Path:
    """Where a fresh report lands: ``<directory>/BENCH_<stamp>.json``."""
    return Path(directory) / f"BENCH_{default_stamp(clock)}.json"


def machine_fingerprint() -> dict[str, Any]:
    """Where a report was measured (for apples-to-apples comparisons)."""
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
    }


def git_sha() -> str:
    """The current commit, or ``"unknown"`` outside a usable checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


# ---------------------------------------------------------------------- #
# case construction
# ---------------------------------------------------------------------- #


def _model(n: int) -> CostModel:
    table = load(_BENCH_DATASET, n=n, seed=_BENCH_SEED)
    return CostModel(EncodedTable(table), get_measure(_BENCH_MEASURE))


def _algorithm_cases(sizes: Sequence[int]) -> list[BenchCase]:
    cases: list[BenchCase] = []
    for n in sizes:
        def agg_setup(n: int = n) -> Callable[[], object]:
            model = _model(n)
            distance = get_distance("d3")
            return lambda: agglomerative_clustering(
                model, _BENCH_K, distance, modified=True
            )

        def forest_setup(n: int = n) -> Callable[[], object]:
            model = _model(n)
            return lambda: forest_clustering(model, _BENCH_K)

        def kk_setup(n: int = n) -> Callable[[], object]:
            model = _model(n)
            return lambda: kk_anonymize(model, _BENCH_K)

        def global_setup(n: int = n) -> Callable[[], object]:
            model = _model(n)
            kk_nodes = kk_anonymize(model, _BENCH_K)
            return lambda: global_one_k_anonymize(model, kk_nodes, _BENCH_K)

        def matcher_setup(n: int = n) -> Callable[[], object]:
            model = _model(n)
            kk_nodes = kk_anonymize(model, _BENCH_K)
            adj = ConsistencyGraph(model.enc, kk_nodes).adjacency_lists()
            return lambda: hopcroft_karp(adj, n)

        cases += [
            BenchCase(f"agglomerative-mod-n{n}", "algorithm", n, agg_setup),
            BenchCase(f"forest-n{n}", "algorithm", n, forest_setup),
            BenchCase(f"kk-n{n}", "algorithm", n, kk_setup),
            BenchCase(f"global-1k-n{n}", "algorithm", n, global_setup),
            BenchCase(f"hopcroft-karp-n{n}", "matching", n, matcher_setup),
        ]
    return cases


def _hotpath_cases(sizes: Sequence[int]) -> list[BenchCase]:
    """Optimized-vs-reference pairs for each hot-path win."""
    n = max(sizes)
    cases: list[BenchCase] = []

    # Pair 1: vectorized Π_E node costs vs the per-node scan.
    def node_fast() -> Callable[[], object]:
        enc = _model(n).enc
        measure = EntropyMeasure()
        pairs = [(att, enc.value_counts[j]) for j, att in enumerate(enc.attrs)]
        return lambda: [measure.node_costs(att, vc) for att, vc in pairs]

    def node_ref() -> Callable[[], object]:
        enc = _model(n).enc
        pairs = [(att, enc.value_counts[j]) for j, att in enumerate(enc.attrs)]
        return lambda: [node_costs_reference(att, vc) for att, vc in pairs]

    # Pair 2: vectorized non-uniform entropy entry costs vs nested loops.
    def entry_fast() -> Callable[[], object]:
        enc = _model(n).enc
        measure = NonUniformEntropyMeasure()
        pairs = [(att, enc.value_counts[j]) for j, att in enumerate(enc.attrs)]
        return lambda: [measure.entry_costs(att, vc) for att, vc in pairs]

    def entry_ref() -> Callable[[], object]:
        enc = _model(n).enc
        pairs = [(att, enc.value_counts[j]) for j, att in enumerate(enc.attrs)]
        return lambda: [entry_costs_reference(att, vc) for att, vc in pairs]

    # Pair 3: Algorithm 2 shrink via leave-one-out join folds vs the
    # per-subset closure scan, on one oversized cluster.
    def _shrink_engine() -> tuple[_Engine, list[int]]:
        model = _model(n)
        engine = _Engine(model, get_distance("d3"), _BENCH_K)
        members = list(range(min(4 * _BENCH_K, n)))
        return engine, members

    def shrink_fast() -> Callable[[], object]:
        engine, members = _shrink_engine()
        return lambda: engine._shrink(list(members))

    def shrink_ref() -> Callable[[], object]:
        engine, members = _shrink_engine()
        return lambda: engine._shrink_scan(list(members))

    # Pair 4: memoized closure lookups vs a cold cache every call.
    def _closure_batches(enc: EncodedTable) -> list[list[int]]:
        return [
            list(range(start, start + _BENCH_K))
            for start in range(0, enc.num_records - _BENCH_K, 3)
        ]

    def closure_fast() -> Callable[[], object]:
        enc = _model(n).enc
        batches = _closure_batches(enc)
        return lambda: [enc.closure_of_records(b) for b in batches]

    def closure_ref() -> Callable[[], object]:
        enc = _model(n).enc
        batches = _closure_batches(enc)

        def run() -> object:
            enc._closure_cache.clear()
            out = []
            for b in batches:
                enc._closure_cache.clear()
                out.append(enc.closure_of_records(b))
            return out

        return run

    for pair, fast, ref in (
        ("entropy-node-costs", node_fast, node_ref),
        ("entropy-entry-costs", entry_fast, entry_ref),
        ("agglomerative-shrink", shrink_fast, shrink_ref),
        ("closure-memo", closure_fast, closure_ref),
    ):
        cases.append(
            BenchCase(f"{pair}-opt-n{n}", "hotpath", n, fast, pair, "optimized")
        )
        cases.append(
            BenchCase(f"{pair}-ref-n{n}", "hotpath", n, ref, pair, "baseline")
        )
    return cases


def default_cases(quick: bool = False) -> list[BenchCase]:
    """The pinned case set (``--quick`` shrinks the n-grid)."""
    from repro.perf.serve_bench import serve_cases  # avoid import cycle

    sizes = QUICK_SIZES if quick else FULL_SIZES
    return (
        _algorithm_cases(sizes)
        + _hotpath_cases(sizes)
        + serve_cases(quick)
    )


# ---------------------------------------------------------------------- #
# running
# ---------------------------------------------------------------------- #


def _time_case(case: BenchCase, repeat: int) -> dict[str, Any]:
    fn = case.setup()
    fn()  # warmup: fills caches / JIT-ish lazy imports outside the timing
    seconds: list[float] = []
    last: object = None
    with span("perf.bench.case", case=case.name):
        for _ in range(repeat):
            with Timer() as timer:
                last = fn()
            seconds.append(timer.seconds)
    entry = {
        "name": case.name,
        "group": case.group,
        "n": case.n,
        "pair": case.pair,
        "role": case.role,
        "seconds": seconds,
        "min": min(seconds),
        "median": statistics.median(seconds),
        "mean": statistics.fmean(seconds),
        "max": max(seconds),
    }
    # A timed closure may return {"__bench_extra__": {...}} to fold
    # case-specific stats (e.g. the serve group's throughput and latency
    # quantiles) into its report entry alongside the repeat timings.
    if isinstance(last, dict) and isinstance(last.get("__bench_extra__"), dict):
        entry.update(last["__bench_extra__"])
    return entry


def run_bench(
    cases: Sequence[BenchCase] | None = None,
    quick: bool = False,
    repeat: int | None = None,
    stamp: str = "",
    name_filter: str = "",
    on_case: Callable[[dict[str, Any]], None] | None = None,
    collect_metrics: bool = False,
    clock: Callable[[], float] = time.time,
) -> BenchReport:
    """Run the suite and return the report (not yet written to disk).

    With ``collect_metrics=True`` a fresh
    :class:`~repro.obs.MetricsRegistry` is scoped around the whole
    suite and its snapshot embedded in the report (``metrics`` key) —
    work-unit counters give regression hunts a second axis besides raw
    timings.  ``stamp`` defaults to :func:`default_stamp` on ``clock``.
    """
    if cases is None:
        cases = default_cases(quick=quick)
    if name_filter:
        cases = [c for c in cases if name_filter in c.name]
    if not cases:
        raise ReproError(
            f"no benchmark cases match filter {name_filter!r}"
        )
    if repeat is None:
        repeat = QUICK_REPEAT if quick else FULL_REPEAT
    if repeat < 1:
        raise ReproError(f"repeat must be positive, got {repeat}")
    report = BenchReport(
        stamp=stamp or default_stamp(clock),
        quick=quick,
        repeat=repeat,
        machine=machine_fingerprint(),
        git_sha=git_sha(),
    )
    registry = MetricsRegistry() if collect_metrics else NullRegistry()
    with metrics_scope(registry):
        for case in cases:
            entry = _time_case(case, repeat)
            report.cases.append(entry)
            if on_case is not None:
                on_case(entry)
    if collect_metrics:
        report.metrics = registry.snapshot()
    _attach_pairs(report)
    return report


def _attach_pairs(report: BenchReport) -> None:
    """Derive speedup entries from optimized/baseline case pairs."""
    by_pair: dict[str, dict[str, dict[str, Any]]] = {}
    for entry in report.cases:
        if entry["pair"]:
            by_pair.setdefault(entry["pair"], {})[entry["role"]] = entry
    for pair_name in sorted(by_pair):
        roles = by_pair[pair_name]
        if "optimized" not in roles or "baseline" not in roles:
            continue
        opt, base = roles["optimized"], roles["baseline"]
        speedup = (
            base["median"] / opt["median"] if opt["median"] > 0 else float("inf")
        )
        report.pairs.append(
            {
                "name": pair_name,
                "optimized_case": opt["name"],
                "baseline_case": base["name"],
                "speedup": speedup,
            }
        )
