"""Ablation A5 — local vs full-domain (global) recoding.

Section II: the paper deliberately adopts local recoding "in order to
optimize the utility of the anonymized data", declining a direct
comparison with the full-domain algorithms of LeFevre et al. and
Bayardo–Agrawal.  This ablation makes the utility argument concrete by
running, on identical tables, hierarchies and measures:

* the paper's agglomerative algorithm (bottom-up local recoding),
* a Mondrian-style median partitioner (top-down local recoding, after
  LeFevre et al.'s multidimensional model),
* greedy k-member partitioning (Byun et al. — the clustering family
  the paper cites as [1]),
* Sweeney's Datafly (full-domain / global recoding).

The timed benchmarks are one Datafly run and one Mondrian run.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import banner
from repro.core.clustering import clustering_to_nodes
from repro.core.datafly import datafly
from repro.core.kmember import kmember_clustering
from repro.core.mondrian import mondrian_clustering
from repro.report import format_table


@pytest.fixture(scope="module")
def comparison(runner):
    rows = {}
    for dataset in runner.config.datasets:
        for measure in runner.config.measures:
            model = runner.model(dataset, measure)
            for k in runner.config.ks:
                local = runner.agglomerative(dataset, measure, k, "d3").cost
                mondrian_nodes = clustering_to_nodes(
                    model.enc, mondrian_clustering(model, k)
                )
                kmember_nodes = clustering_to_nodes(
                    model.enc, kmember_clustering(model, k)
                )
                result = datafly(model, k)
                rows[(dataset, measure, k)] = (
                    local,
                    model.table_cost(mondrian_nodes),
                    model.table_cost(kmember_nodes),
                    model.table_cost(result.node_matrix),
                    len(result.suppressed),
                )
    return rows


class TestRecodingAblation:
    def test_print(self, comparison):
        print(banner("ABLATION A5 — local (agglomerative / Mondrian) vs "
                     "full-domain (Datafly) recoding"))
        table_rows = [
            [f"{d}/{m} k={k}", agg, mondrian, kmember, global_, suppressed]
            for (d, m, k), (agg, mondrian, kmember, global_, suppressed)
            in comparison.items()
        ]
        print(
            format_table(
                ["config", "agglomerative Π", "mondrian Π", "k-member Π",
                 "full-domain Π", "suppressed"],
                table_rows,
                3,
            )
        )

    def test_local_recoding_wins_almost_everywhere(self, comparison):
        points = len(comparison)
        wins = sum(
            1 for agg, _, _, global_, _ in comparison.values()
            if agg <= global_ * 1.02
        )
        assert wins >= 0.9 * points

    def test_average_gain_substantial(self, comparison):
        gains = [
            1 - agg / global_
            for agg, _, _, global_, _ in comparison.values()
            if global_ > 0
        ]
        assert sum(gains) / len(gains) >= 0.05

    def test_agglomerative_beats_mondrian_on_average(self, comparison):
        """Bottom-up with a cost-aware distance should beat the
        measure-blind median splits in aggregate."""
        diffs = [
            mondrian - agg for agg, mondrian, _, _, _ in comparison.values()
        ]
        assert sum(diffs) / len(diffs) >= -1e-9

    def test_kmember_competitive(self, comparison):
        """k-member should land between agglomerative and full-domain
        on average (it is greedy-partitioning with the same increments)."""
        diffs = [
            global_ - kmember
            for _, _, kmember, global_, _ in comparison.values()
        ]
        assert sum(diffs) / len(diffs) >= -1e-9

    def test_benchmark_datafly(self, runner, benchmark):
        model = runner.model("adult", "entropy")
        benchmark(lambda: datafly(model, 10))

    def test_benchmark_mondrian(self, runner, benchmark):
        model = runner.model("adult", "entropy")
        benchmark(lambda: mondrian_clustering(model, 10))
