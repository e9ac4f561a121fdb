"""Ablation A6 — generalization-space granularity (fixed bands vs exact
intervals).

Definition 3.1 leaves the permissible collections 𝒜_j to the data
publisher, and the choice matters: fixed age bands force every cluster
closure onto pre-cut boundaries, while the full interval collection
publishes each cluster's exact span.  This ablation re-runs the Adult
pipelines with the age attribute switched from 5/10/20-year banding to
``IntervalCollection`` (same data, same measure, same algorithms) and
quantifies the utility gained by the richer space — a knob the paper's
local-recoding model supports but its evaluation did not explore.

The timed benchmark is one agglomerative run on the interval schema.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import banner
from repro.core.agglomerative import agglomerative_clustering
from repro.core.clustering import clustering_to_nodes
from repro.core.distances import get_distance
from repro.core.kk import kk_anonymize
from repro.datasets import adult
from repro.report import format_table
from repro.measures.base import CostModel
from repro.measures.registry import get_measure
from repro.tabular.attribute import integer_attribute
from repro.tabular.encoding import EncodedTable
from repro.tabular.hierarchy import all_intervals
from repro.tabular.table import Schema, Table

KS = (5, 10, 20)


def _interval_schema() -> Schema:
    """The ADT schema with the age attribute on exact intervals."""
    base = adult.make_schema(private=False)
    age = integer_attribute("age", adult.AGE_LOW, adult.AGE_HIGH)
    collections = [all_intervals(age)] + list(base.collections[1:])
    return Schema(collections)


@pytest.fixture(scope="module")
def comparison(runner):
    banded_model = runner.model("adult", "entropy")
    rows = banded_model.enc.table.rows
    interval_table = Table(_interval_schema(), rows)
    interval_model = CostModel(
        EncodedTable(interval_table), get_measure("entropy")
    )
    out = {}
    for k in KS:
        banded_agg = runner.agglomerative("adult", "entropy", k, "d3").cost
        interval_agg = interval_model.table_cost(
            clustering_to_nodes(
                interval_model.enc,
                agglomerative_clustering(
                    interval_model, k, get_distance("d3")
                ),
            )
        )
        banded_kk = runner.kk("adult", "entropy", k).cost
        interval_kk = interval_model.table_cost(
            kk_anonymize(interval_model, k)
        )
        out[k] = (banded_agg, interval_agg, banded_kk, interval_kk)
    return out


class TestGranularityAblation:
    def test_print(self, comparison):
        print(banner("ABLATION A6 — age bands vs exact intervals (Adult, "
                     "entropy)"))
        rows = [
            [
                f"k={k}",
                banded_agg,
                interval_agg,
                f"{1 - interval_agg / banded_agg:+.1%}",
                banded_kk,
                interval_kk,
                f"{1 - interval_kk / banded_kk:+.1%}",
            ]
            for k, (banded_agg, interval_agg, banded_kk, interval_kk)
            in comparison.items()
        ]
        print(
            format_table(
                ["", "k-anon bands", "k-anon intervals", "gain",
                 "(k,k) bands", "(k,k) intervals", "gain"],
                rows,
                3,
            )
        )

    def test_intervals_never_worse(self, comparison):
        """The interval space strictly contains every band, so optimal
        losses can only fall; the heuristics should track that."""
        for k, (banded_agg, interval_agg, banded_kk, interval_kk) in (
            comparison.items()
        ):
            assert interval_agg <= banded_agg * 1.02, k
            assert interval_kk <= banded_kk * 1.02, k

    def test_gain_is_material(self, comparison):
        gains = [
            1 - interval_agg / banded_agg
            for banded_agg, interval_agg, *_ in comparison.values()
        ]
        assert sum(gains) / len(gains) >= 0.02

    def test_benchmark_interval_agglomerative(self, runner, benchmark):
        model = runner.model("adult", "entropy")
        rows = model.enc.table.rows
        interval_model = CostModel(
            EncodedTable(Table(_interval_schema(), rows)),
            get_measure("entropy"),
        )
        benchmark(
            lambda: agglomerative_clustering(
                interval_model, 10, get_distance("d3")
            )
        )
