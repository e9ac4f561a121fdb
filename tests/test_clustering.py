"""Unit tests for clusterings and their induced generalizations."""

import numpy as np
import pytest

from repro.core.clustering import (
    Clustering,
    cluster_closures,
    clustering_cost,
    clustering_to_nodes,
    clusters_from_assignment,
)
from repro.core.notions import is_k_anonymous
from repro.datasets.registry import load
from repro.errors import AnonymityError
from repro.tabular.attribute import Attribute
from repro.tabular.encoding import EncodedTable
from repro.tabular.hierarchy import SubsetCollection
from repro.tabular.table import Schema, Table
from repro.verify.generators import random_instance


class TestClustering:
    def test_valid_partition(self):
        c = Clustering(5, [[0, 1], [2, 3, 4]])
        assert c.num_clusters == 2
        assert c.num_records == 5
        assert c.cluster_of(3) == 1
        assert c.sizes().tolist() == [2, 3]
        assert c.min_cluster_size() == 2
        assert len(c) == 2
        assert list(c) == [(0, 1), (2, 3, 4)]

    def test_overlap_rejected(self):
        with pytest.raises(AnonymityError, match="two clusters"):
            Clustering(3, [[0, 1], [1, 2]])

    def test_missing_record_rejected(self):
        with pytest.raises(AnonymityError, match="not covered"):
            Clustering(3, [[0, 1]])

    def test_out_of_range_rejected(self):
        with pytest.raises(AnonymityError, match="out of range"):
            Clustering(2, [[0, 5], [1]])

    def test_empty_cluster_rejected(self):
        with pytest.raises(AnonymityError, match="empty"):
            Clustering(1, [[0], []])

    def test_from_assignment(self):
        c = clusters_from_assignment([1, 0, 1, 0])
        assert c.clusters == ((1, 3), (0, 2))


class TestClusteringToNodes:
    def test_every_record_gets_cluster_closure(self, entropy_model):
        enc = entropy_model.enc
        n = enc.num_records
        clustering = Clustering(n, [list(range(0, 10)), list(range(10, n))])
        nodes = clustering_to_nodes(enc, clustering)
        assert np.array_equal(nodes[0], enc.closure_of_records(range(0, 10)))
        assert np.array_equal(nodes[15], enc.closure_of_records(range(10, n)))
        # Records in the same cluster are published identically.
        assert is_k_anonymous(nodes, 10)

    def test_generalization_is_consistent(self, entropy_model):
        enc = entropy_model.enc
        n = enc.num_records
        clustering = Clustering(n, [list(range(n))])
        nodes = clustering_to_nodes(enc, clustering)
        gtable = enc.decode_table(nodes)
        gtable.check_generalizes(enc.table)

    def test_size_mismatch_rejected(self, entropy_model):
        clustering = Clustering(3, [[0, 1, 2]])
        with pytest.raises(AnonymityError, match="covers"):
            clustering_to_nodes(entropy_model.enc, clustering)

    def test_cost_equals_table_cost_of_nodes(self, entropy_model):
        enc = entropy_model.enc
        n = enc.num_records
        clustering = Clustering(
            n, [list(range(0, n // 2)), list(range(n // 2, n))]
        )
        nodes = clustering_to_nodes(enc, clustering)
        assert clustering_cost(entropy_model, clustering) == pytest.approx(
            entropy_model.table_cost(nodes)
        )


def _random_clusters(rng, n):
    """A seeded partition of ``range(n)`` into clusters of mixed sizes,
    singletons and one cluster far longer than the rest included, in
    shuffled member order."""
    perm = rng.permutation(n).tolist()
    clusters, start = [], 0
    while start < n:
        width = int(rng.choice([1, 2, 3, 5, 8, max(1, n // 3)]))
        clusters.append(perm[start : start + width])
        start += width
    return clusters


def _closures_of_records(enc, clusters):
    return np.array(
        [enc.closure_of_records(c) for c in clusters], dtype=np.int32
    ).reshape(len(clusters), enc.num_attributes)


class TestClusterClosures:
    """The join fold returns ``closure_of_records``' nodes byte for byte."""

    def test_fuzz_tables(self):
        for seed in range(400):
            enc = random_instance(seed).encoded()
            rng = np.random.default_rng(seed)
            clusters = _random_clusters(rng, enc.num_records)
            got = cluster_closures(enc, clusters)
            want = _closures_of_records(enc, clusters)
            assert got.tobytes() == want.tobytes(), seed
            assert got.shape == want.shape

    @pytest.mark.parametrize(
        "dataset,n", [("art", 1000), ("cmc", 1500), ("adult", 2000)]
    )
    def test_paper_tables(self, dataset, n):
        enc = EncodedTable(load(dataset, n=n, seed=1))
        assert enc.exact_joins
        for seed in range(3):
            clusters = _random_clusters(np.random.default_rng(seed), n)
            got = cluster_closures(enc, clusters)
            assert got.tobytes() == _closures_of_records(enc, clusters).tobytes()

    def test_non_exact_joins_close_each_cluster(self):
        # {a, b} ∪ {d} has the closure {a, b, d, e}, but the join of the
        # closures {a, b, c} and {d} is the full set.
        letters = Attribute("letter", ["a", "b", "c", "d", "e"])
        coll = SubsetCollection(letters, [["a", "b", "c"], ["a", "b", "d", "e"]])
        enc = EncodedTable(Table(Schema([coll]), [(v,) for v in "abdceabd"]))
        assert not enc.exact_joins
        clusters = [[0, 1, 2], [3, 4], [5, 6, 7]]
        got = cluster_closures(enc, clusters)
        assert got.tobytes() == _closures_of_records(enc, clusters).tobytes()

    def test_empty(self, entropy_model):
        enc = entropy_model.enc
        assert cluster_closures(enc, []).shape == (0, enc.num_attributes)
