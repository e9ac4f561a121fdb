"""Unit tests for the blocked agglomerative variant."""

import numpy as np
import pytest

from repro.core.agglomerative import agglomerative_clustering
from repro.core.clustering import clustering_to_nodes
from repro.core.distances import get_distance
from repro.core.notions import is_k_anonymous, satisfies
from repro.core.scalable import _partition_blocks, blocked_agglomerative
from repro.datasets.registry import load
from repro.errors import AnonymityError
from repro.measures.base import CostModel
from repro.measures.entropy import EntropyMeasure
from repro.measures.lm import LMMeasure
from repro.tabular.encoding import EncodedTable
from tests.conftest import make_random_table


@pytest.fixture(scope="module")
def model():
    table = make_random_table(180, seed=13, domain_sizes=(7, 5, 4))
    return CostModel(EncodedTable(table), EntropyMeasure())


class TestPartition:
    def test_blocks_partition_records(self, model):
        blocks = _partition_blocks(model.enc, block_size=40, k=4)
        seen = sorted(int(i) for b in blocks for i in b)
        assert seen == list(range(model.enc.num_records))

    def test_block_floor_respected(self, model):
        k = 5
        blocks = _partition_blocks(model.enc, block_size=40, k=k)
        for b in blocks:
            assert len(b) >= k

    def test_single_block_when_size_large(self, model):
        blocks = _partition_blocks(model.enc, block_size=10_000, k=3)
        assert len(blocks) == 1


class TestBlockedAgglomerative:
    @pytest.mark.parametrize("k", [3, 6])
    def test_k_anonymous(self, model, k):
        clustering = blocked_agglomerative(
            model, k, get_distance("d3"), block_size=48
        )
        nodes = clustering_to_nodes(model.enc, clustering)
        assert is_k_anonymous(nodes, k)
        assert clustering.min_cluster_size() >= k

    def test_quality_close_to_full(self, model):
        k = 4
        d = get_distance("d3")
        full = clustering_to_nodes(
            model.enc, agglomerative_clustering(model, k, d)
        )
        blocked = clustering_to_nodes(
            model.enc, blocked_agglomerative(model, k, d, block_size=60)
        )
        full_cost = model.table_cost(full)
        blocked_cost = model.table_cost(blocked)
        assert blocked_cost >= full_cost - 1e-9  # blocking can't beat global
        assert blocked_cost <= full_cost * 1.35  # ...and stays close

    def test_equals_full_when_one_block(self, model):
        k = 4
        d = get_distance("d2")
        full = agglomerative_clustering(model, k, d)
        blocked = blocked_agglomerative(model, k, d, block_size=10_000)
        canon = lambda c: sorted(tuple(sorted(x)) for x in c.clusters)
        assert canon(full) == canon(blocked)

    def test_block_size_floor(self, model):
        with pytest.raises(AnonymityError, match="at least 2k"):
            blocked_agglomerative(model, 10, get_distance("d3"), block_size=15)

    def test_k_too_large(self, model):
        with pytest.raises(AnonymityError, match="exceeds"):
            blocked_agglomerative(
                model, 10_000, get_distance("d3"), block_size=30_000
            )

    def test_k_one_identity(self, model):
        clustering = blocked_agglomerative(
            model, 1, get_distance("d3"), block_size=64
        )
        assert clustering.num_clusters == model.enc.num_records

    def test_borrowed_costs_match_parent(self, model):
        """A block's model scores with the FULL table's distribution —
        eq. (3) conditions on the whole database, not the block."""
        members = np.arange(0, 60, 2)
        block = model.block(members)
        alone = CostModel(
            EncodedTable(model.enc.table.subset(members.tolist())),
            model.measure,
        )
        assert block.node_costs is model.node_costs
        assert any(
            not np.array_equal(parent, own)
            for parent, own in zip(model.node_costs, alone.node_costs)
        )  # the block's own distribution would price differently
        assert block.enc.value_counts is model.enc.value_counts
        for name in (
            "codes",
            "singleton_nodes",
            "unique_codes",
            "unique_inverse",
            "unique_counts",
            "unique_singleton_nodes",
        ):
            assert np.array_equal(
                getattr(block.enc, name), getattr(alone.enc, name)
            ), name
        assert block.enc.table.rows == alone.enc.table.rows
        assert block.enc.attrs is model.enc.attrs

    def test_block_model_has_every_slot(self, model):
        weighted = CostModel(model.enc, model.measure, weights=(3.0, 1.0, 2.0))
        block = weighted.block(np.arange(20))
        for name in CostModel.__slots__:
            assert hasattr(block, name), name
        assert np.array_equal(block.weights, weighted.weights)
        assert block.measure is weighted.measure
        assert block.node_costs is weighted.node_costs
        assert block.enc.num_records == 20

    def test_modified_flag_forwarded(self, model):
        clustering = blocked_agglomerative(
            model, 4, get_distance("d1"), block_size=48, modified=True
        )
        assert clustering.min_cluster_size() >= 4


@pytest.mark.slow
def test_fifty_thousand_records():
    """ADT 50k, far past what the n² matrix can hold, in Mondrian
    blocks of at most 512 records."""
    enc = EncodedTable(load("adult", n=50_000, seed=0))
    model = CostModel(enc, LMMeasure())
    clustering = blocked_agglomerative(model, 5, get_distance("d3"))
    nodes = clustering_to_nodes(enc, clustering)
    assert satisfies(enc, nodes, "k", 5)
