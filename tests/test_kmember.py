"""Unit tests for greedy k-member clustering."""

import pytest

from repro.core.clustering import clustering_to_nodes
from repro.core.kmember import kmember_clustering
from repro.core.notions import is_k_anonymous
from repro.datasets.registry import load
from repro.errors import AnonymityError
from repro.measures.base import CostModel
from repro.measures.entropy import EntropyMeasure
from repro.measures.registry import get_measure
from repro.tabular.encoding import EncodedTable
from tests.conftest import clusters_digest, make_random_table


class TestKMember:
    @pytest.mark.parametrize("k", [2, 4, 7])
    def test_k_anonymous(self, entropy_model, k):
        clustering = kmember_clustering(entropy_model, k)
        assert clustering.min_cluster_size() >= k
        nodes = clustering_to_nodes(entropy_model.enc, clustering)
        assert is_k_anonymous(nodes, k)

    def test_clusters_near_exact_k(self, entropy_model):
        k = 4
        clustering = kmember_clustering(entropy_model, k)
        # Exactly k, except clusters that absorbed < k leftovers.
        oversized = [len(c) for c in clustering.clusters if len(c) > k]
        assert sum(size - k for size in oversized) < k

    def test_valid_generalization(self, entropy_model):
        clustering = kmember_clustering(entropy_model, 3)
        nodes = clustering_to_nodes(entropy_model.enc, clustering)
        entropy_model.enc.decode_table(nodes).check_generalizes(
            entropy_model.enc.table
        )

    def test_k_one_identity(self, entropy_model):
        clustering = kmember_clustering(entropy_model, 1)
        assert clustering.num_clusters == entropy_model.enc.num_records

    def test_k_equals_n(self, entropy_model):
        n = entropy_model.enc.num_records
        clustering = kmember_clustering(entropy_model, n)
        assert clustering.num_clusters == 1

    def test_k_too_large(self, entropy_model):
        with pytest.raises(AnonymityError, match="exceeds"):
            kmember_clustering(entropy_model, 10_000)

    def test_deterministic(self):
        table = make_random_table(35, seed=21, domain_sizes=(6, 4))
        m = CostModel(EncodedTable(table), EntropyMeasure())
        c1 = kmember_clustering(m, 4)
        c2 = kmember_clustering(m, 4)
        assert c1.clusters == c2.clusters

    @pytest.mark.parametrize("seed", range(4))
    def test_random_tables_valid(self, seed):
        table = make_random_table(40, seed=seed, domain_sizes=(5, 4, 3))
        model = CostModel(EncodedTable(table), EntropyMeasure())
        clustering = kmember_clustering(model, 5)
        assert clustering.min_cluster_size() >= 5

    @pytest.mark.parametrize("seed", range(3))
    def test_quality_between_forest_and_agglomerative(self, seed):
        """k-member usually lands near the agglomerative engine and well
        ahead of the forest; assert the weak, stable half (not worse
        than forest by more than a whisker)."""
        from repro.core.forest import forest_clustering

        table = make_random_table(60, seed=100 + seed, domain_sizes=(6, 5, 4))
        model = CostModel(EncodedTable(table), EntropyMeasure())
        k = 5
        kmember = model.table_cost(
            clustering_to_nodes(model.enc, kmember_clustering(model, k))
        )
        forest = model.table_cost(
            clustering_to_nodes(model.enc, forest_clustering(model, k))
        )
        assert kmember <= forest * 1.05 + 1e-9



#: :func:`tests.conftest.clusters_digest` of k-member at k = 5, dataset
#: seed 1, computed while k-member still priced every candidate union
#: by materializing it.
PINNED = {
    ("art", 1000, "lm"): "43dd646bb0fe553513d4a6224af6ed60612e76a1c5d76cb03b17b847b91816bc",
    ("art", 1000, "entropy"): "e15fcc08752057c402d0ae4f2d8c811682cb653240f888748806d2b086810850",
    ("cmc", 1500, "lm"): "dc8e84ba3e46b3de47a6c991ecfe2ba17ee85b9b1a98f8d4115d5cea0944076e",
    ("cmc", 1500, "entropy"): "a2163d7de3e78af7d8167e45454340feb2a5f6ef9e50b7468eea2b799b84316b",
    ("adult", 5000, "lm"): "c84b67bb35357fef1da91294c0296964f326160f01c2e336fd3dbee92d0ada99",
}


@pytest.mark.parametrize(
    "dataset,n,measure",
    [
        ("art", 1000, "lm"),
        ("art", 1000, "entropy"),
        ("cmc", 1500, "lm"),
        ("cmc", 1500, "entropy"),
        pytest.param("adult", 5000, "lm", marks=pytest.mark.slow),
    ],
)
def test_pinned_paper_size_outputs(dataset, n, measure):
    model = CostModel(EncodedTable(load(dataset, n=n, seed=1)), get_measure(measure))
    digest = clusters_digest(kmember_clustering(model, 5))
    assert digest == PINNED[(dataset, n, measure)]
