"""Scalability study — the §VII "more scalable algorithms" item.

Compares the full O(n²) agglomerative engine against the blocked
variant (Mondrian pre-partition + within-block agglomeration) on the
same inputs: wall-clock speedup vs information-loss overhead, across
block sizes.  No paper numbers exist (it was future work); the
assertions pin the tradeoff's *shape*: blocking never improves quality
(merges cannot cross blocks), costs stay within a modest factor, and
smaller blocks do less work.  Work is the engine's own
``core.agglomerative.candidates_scanned`` counter, not wall-clock time,
so the check does not depend on the machine's load.

The timed benchmark is one blocked run at the default block size.
"""

from __future__ import annotations

import time

import pytest

from benchmarks.conftest import banner
from repro.core.agglomerative import agglomerative_clustering
from repro.core.clustering import clustering_to_nodes
from repro.core.distances import get_distance
from repro.core.scalable import blocked_agglomerative
from repro.obs import MetricsRegistry, metrics_scope
from repro.report import format_table

K = 10
BLOCK_SIZES = (64, 128, 256)


def _measured(model, run):
    """(seconds, Π, candidates scanned) of one clustering run."""
    registry = MetricsRegistry()
    started = time.perf_counter()
    with metrics_scope(registry):
        clustering = run()
    seconds = time.perf_counter() - started
    cost = model.table_cost(clustering_to_nodes(model.enc, clustering))
    scanned = registry.counter("core.agglomerative.candidates_scanned")
    return seconds, cost, scanned


@pytest.fixture(scope="module")
def study(runner):
    model = runner.model("adult", "entropy")
    d = get_distance("d3")
    rows = {"full": _measured(model, lambda: agglomerative_clustering(model, K, d))}
    for block_size in BLOCK_SIZES:
        if block_size < 2 * K:
            continue
        rows[f"blocked[{block_size}]"] = _measured(
            model,
            lambda: blocked_agglomerative(model, K, d, block_size=block_size),
        )
    return rows


class TestScalableAblation:
    def test_print(self, study):
        print(banner("SCALABILITY — full vs blocked agglomerative "
                     f"(Adult, k={K}, entropy)"))
        full_seconds, full_cost, full_scanned = study["full"]
        table_rows = []
        for name, (seconds, cost, scanned) in study.items():
            table_rows.append(
                [
                    name,
                    seconds,
                    cost,
                    f"{seconds / full_seconds:.2f}x",
                    f"{cost / full_cost - 1:+.1%}",
                    f"{scanned / full_scanned:.2f}x",
                ]
            )
        print(
            format_table(
                [
                    "variant",
                    "seconds",
                    "Π_E",
                    "time vs full",
                    "loss vs full",
                    "scans vs full",
                ],
                table_rows,
                3,
            )
        )

    def test_blocking_never_beats_global(self, study):
        _, full_cost, _ = study["full"]
        for name, (_, cost, _) in study.items():
            if name != "full":
                assert cost >= full_cost - 1e-9, name

    def test_quality_overhead_bounded(self, study):
        _, full_cost, _ = study["full"]
        for name, (_, cost, _) in study.items():
            assert cost <= full_cost * 1.35, (name, cost, full_cost)

    def test_blocking_scans_fewer_candidates(self, runner, study):
        """Blocks below n scan fewer candidates than the full run, and
        smaller blocks fewer still; a block of n or more is the full run."""
        n = runner.model("adult", "entropy").enc.num_records
        full_scanned = study["full"][2]
        below = full_scanned
        for block_size in sorted(BLOCK_SIZES, reverse=True):
            scanned = study[f"blocked[{block_size}]"][2]
            if block_size >= n:
                assert scanned == full_scanned, block_size
            else:
                assert scanned < below, (block_size, scanned, below)
                below = scanned

    def test_benchmark_blocked(self, runner, benchmark):
        model = runner.model("adult", "entropy")
        benchmark(
            lambda: blocked_agglomerative(
                model, K, get_distance("d3"), block_size=128
            )
        )
