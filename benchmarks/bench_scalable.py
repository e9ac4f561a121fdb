"""Scalability study — the §VII "more scalable algorithms" item.

Compares the full O(n²) agglomerative engine against the blocked
variant (Mondrian pre-partition + within-block agglomeration) on the
same inputs: wall-clock speedup vs information-loss overhead, across
block sizes.  No paper numbers exist (it was future work); the
assertions pin the tradeoff's *shape*: blocking never improves quality
(merges cannot cross blocks), costs stay within a modest factor, and
smaller blocks are faster.

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
from repro.report import format_table

K = 10
BLOCK_SIZES = (64, 128, 256)


@pytest.fixture(scope="module")
def study(runner):
    model = runner.model("adult", "entropy")
    d = get_distance("d3")
    rows = {}

    started = time.perf_counter()
    full = agglomerative_clustering(model, K, d)
    full_seconds = time.perf_counter() - started
    full_cost = model.table_cost(clustering_to_nodes(model.enc, full))
    rows["full"] = (full_seconds, full_cost)

    for block_size in BLOCK_SIZES:
        if block_size < 2 * K:
            continue
        started = time.perf_counter()
        blocked = blocked_agglomerative(model, K, d, block_size=block_size)
        seconds = time.perf_counter() - started
        cost = model.table_cost(clustering_to_nodes(model.enc, blocked))
        rows[f"blocked[{block_size}]"] = (seconds, cost)
    return rows


class TestScalableAblation:
    def test_print(self, study):
        print(banner("SCALABILITY — full vs blocked agglomerative "
                     f"(Adult, k={K}, entropy)"))
        full_seconds, full_cost = study["full"]
        table_rows = []
        for name, (seconds, cost) in study.items():
            table_rows.append(
                [
                    name,
                    seconds,
                    cost,
                    f"{seconds / full_seconds:.2f}x",
                    f"{cost / full_cost - 1:+.1%}",
                ]
            )
        print(
            format_table(
                ["variant", "seconds", "Π_E", "time vs full", "loss vs full"],
                table_rows,
                3,
            )
        )

    def test_blocking_never_beats_global(self, study):
        _, full_cost = study["full"]
        for name, (_, cost) in study.items():
            if name != "full":
                assert cost >= full_cost - 1e-9, name

    def test_quality_overhead_bounded(self, study):
        _, full_cost = study["full"]
        for name, (_, cost) in study.items():
            assert cost <= full_cost * 1.35, (name, cost, full_cost)

    def test_blocking_is_faster(self, study):
        full_seconds, _ = study["full"]
        fastest = min(
            seconds for name, (seconds, _) in study.items() if name != "full"
        )
        assert fastest <= full_seconds * 1.05

    def test_benchmark_blocked(self, runner, benchmark):
        model = runner.model("adult", "entropy")
        benchmark(
            lambda: blocked_agglomerative(
                model, K, get_distance("d3"), block_size=128
            )
        )
