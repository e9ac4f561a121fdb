"""Unit tests for the forest baseline (Aggarwal et al.)."""

import pytest

from repro.core.agglomerative import agglomerative_clustering
from repro.core.clustering import clustering_to_nodes
from repro.core.distances import distance_names, get_distance
from repro.core.forest import forest_clustering
from repro.core.notions import is_k_anonymous
from repro.datasets.registry import load
from repro.errors import AnonymityError
from repro.measures.base import CostModel
from repro.measures.entropy import EntropyMeasure
from repro.measures.registry import get_measure
from repro.tabular.encoding import EncodedTable
from tests.conftest import clusters_digest, make_random_table


class TestForest:
    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_cluster_sizes_at_least_k(self, entropy_model, k):
        clustering = forest_clustering(entropy_model, k)
        assert clustering.min_cluster_size() >= k

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_cluster_sizes_bounded(self, entropy_model, k):
        # Phase 2 guarantees parts of size ≤ 3k−2.
        clustering = forest_clustering(entropy_model, k)
        assert max(clustering.sizes()) <= 3 * k - 2

    def test_produces_k_anonymity(self, entropy_model):
        clustering = forest_clustering(entropy_model, 4)
        nodes = clustering_to_nodes(entropy_model.enc, clustering)
        assert is_k_anonymous(nodes, 4)
        gtable = entropy_model.enc.decode_table(nodes)
        gtable.check_generalizes(entropy_model.enc.table)

    def test_k_one_identity(self, entropy_model):
        clustering = forest_clustering(entropy_model, 1)
        assert clustering.num_clusters == entropy_model.enc.num_records

    def test_k_equals_n(self, entropy_model):
        n = entropy_model.enc.num_records
        clustering = forest_clustering(entropy_model, n)
        assert clustering.min_cluster_size() >= n

    def test_k_too_large_rejected(self, entropy_model):
        with pytest.raises(AnonymityError, match="exceeds"):
            forest_clustering(entropy_model, 10_000)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_tables_valid(self, seed):
        table = make_random_table(35, seed=seed, domain_sizes=(6, 4, 2))
        model = CostModel(EncodedTable(table), EntropyMeasure())
        for k in (2, 4, 7):
            clustering = forest_clustering(model, k)
            assert clustering.min_cluster_size() >= k
            assert max(clustering.sizes()) <= 3 * k - 2

    def test_deterministic(self):
        table = make_random_table(30, seed=3)
        c1 = forest_clustering(
            CostModel(EncodedTable(table), EntropyMeasure()), 4
        )
        c2 = forest_clustering(
            CostModel(EncodedTable(table), EntropyMeasure()), 4
        )
        assert c1.clusters == c2.clusters

    @pytest.mark.parametrize("seed", range(4))
    def test_paper_headline_agglomerative_beats_forest(self, seed):
        """The paper's first conclusion, on random data: the best
        agglomerative variant is at least as good as the forest."""
        table = make_random_table(60, seed=seed, domain_sizes=(6, 5, 4))
        model = CostModel(EncodedTable(table), EntropyMeasure())
        forest_nodes = clustering_to_nodes(
            model.enc, forest_clustering(model, 5)
        )
        best_agg = min(
            model.table_cost(
                clustering_to_nodes(
                    model.enc,
                    agglomerative_clustering(model, 5, get_distance(name)),
                )
            )
            for name in distance_names()
        )
        assert best_agg <= model.table_cost(forest_nodes) + 1e-9



#: :func:`tests.conftest.clusters_digest` of the forest at k = 5, dataset
#: seed 1, computed while the forest still summed its own pair costs
#: attribute by attribute.
PINNED = {
    ("art", 1000, "lm"): "5afb36f1f7cb3b934bc1d484ea06d7162d02f83740f9060bebc2f552e34b10ae",
    ("art", 1000, "entropy"): "40a56a046878d19bbf58d6e222ea578f89352fa5bc1be59da216064c5e883802",
    ("cmc", 1500, "lm"): "00150821893fc2e89c80c1c3a967bcf23a7f591d00087bb02cca1766c7fb6f5b",
    ("cmc", 1500, "entropy"): "3a6b0bab2136191662e02829a56b88eb7d880db25cf17f961e638547a8a61e8c",
    ("adult", 5000, "lm"): "027b52b6571eec869ca27ccd0ae930ca68b306d2f14362588be953cc30cd8c73",
}


@pytest.mark.parametrize(
    "dataset,n,measure",
    [
        ("art", 1000, "lm"),
        ("art", 1000, "entropy"),
        ("cmc", 1500, "lm"),
        ("cmc", 1500, "entropy"),
        # ADT 5000 prices a [4714, 4714] pair matrix.
        pytest.param("adult", 5000, "lm", marks=pytest.mark.slow),
    ],
)
def test_pinned_paper_size_outputs(dataset, n, measure):
    model = CostModel(EncodedTable(load(dataset, n=n, seed=1)), get_measure(measure))
    digest = clusters_digest(forest_clustering(model, 5))
    assert digest == PINNED[(dataset, n, measure)]
