"""Unit tests for the §VII extensions: ℓ-diversity and the ε-sweep."""

import pytest

from repro.core.agglomerative import agglomerative_clustering
from repro.core.clustering import Clustering, clustering_to_nodes
from repro.core.distances import get_distance
from repro.core.notions import is_global_one_k_anonymous, is_k_anonymous
from repro.datasets.registry import load
from repro.errors import AnonymityError, SchemaError
from repro.extensions.epsilon_kk import epsilon_sweep
from repro.extensions.ldiversity import (
    cluster_diversities,
    enforce_l_diversity,
    is_l_diverse,
    sensitive_column,
)
from repro.measures.base import CostModel
from repro.measures.entropy import EntropyMeasure
from repro.measures.registry import get_measure
from repro.tabular.encoding import EncodedTable
from tests.conftest import clusters_digest


#: Merges and :func:`tests.conftest.clusters_digest` of the ℓ-diversity
#: repair of Algorithm 1 (d3, k = 3, LM) at n = 400, dataset seed 3,
#: computed while the repair still priced every candidate union by
#: materializing it.
PINNED_REPAIRS = {
    ("adult", 2): (75, "d0b7cdec2cef55fb915f7736d60f0ef5b3c12a99c1ed94b6d1b59120f3965d06"),
    ("cmc", 3): (95, "b960e8bd0411a27b8215a271ffb677a265f583c8aa15b369fd5c48041ec47e5d"),
}


@pytest.fixture(scope="module")
def art_model():
    table = load("art", n=120, seed=3, private=True)
    return CostModel(EncodedTable(table), EntropyMeasure())


class TestLDiversity:
    def test_sensitive_column(self, art_model):
        values = sensitive_column(art_model.enc)
        assert len(values) == 120

    def test_requires_private_attribute(self, small_encoded):
        with pytest.raises(SchemaError, match="private"):
            sensitive_column(small_encoded)

    def test_unknown_attribute(self, art_model):
        with pytest.raises(SchemaError, match="no private attribute"):
            sensitive_column(art_model.enc, "zzz")

    def test_diversities_and_check(self, art_model):
        enc = art_model.enc
        clustering = agglomerative_clustering(art_model, 4, get_distance("d3"))
        div = cluster_diversities(enc, clustering)
        assert len(div) == clustering.num_clusters
        assert is_l_diverse(enc, clustering, 1)

    def test_enforce_reaches_l(self, art_model):
        enc = art_model.enc
        clustering = agglomerative_clustering(art_model, 3, get_distance("d3"))
        repair = enforce_l_diversity(
            art_model, clustering, l=3, distance=get_distance("d3")
        )
        assert is_l_diverse(enc, repair.clustering, 3)
        # k-anonymity survives: clusters only merged, never split.
        nodes = clustering_to_nodes(enc, repair.clustering)
        assert is_k_anonymous(nodes, 3)

    def test_enforce_noop_when_already_diverse(self, art_model):
        enc = art_model.enc
        n = enc.num_records
        clustering = Clustering(n, [list(range(n))])
        repair = enforce_l_diversity(
            art_model, clustering, l=2, distance=get_distance("d3")
        )
        assert repair.merges == 0

    def test_unattainable_l_rejected(self, art_model):
        n = art_model.enc.num_records
        clustering = Clustering(n, [list(range(n))])
        with pytest.raises(AnonymityError, match="unattainable"):
            enforce_l_diversity(
                art_model, clustering, l=100, distance=get_distance("d3")
            )

    @pytest.mark.parametrize("dataset,l", [("adult", 2), ("cmc", 3)])
    def test_pinned_repairs(self, dataset, l):
        table = load(dataset, n=400, seed=3, private=True)
        model = CostModel(EncodedTable(table), get_measure("lm"))
        d3 = get_distance("d3")
        clustering = agglomerative_clustering(model, 3, d3)
        repair = enforce_l_diversity(model, clustering, l=l, distance=d3)
        merges, digest = PINNED_REPAIRS[(dataset, l)]
        assert repair.merges == merges
        assert clusters_digest(repair.clustering) == digest


class TestDiversityCriteria:
    """The entropy and recursive (c,ℓ) criteria of Machanavajjhala [15]."""

    def test_entropy_diversity_values(self):
        from repro.extensions.ldiversity import entropy_diversity

        values = ["a", "a", "b", "b"]
        # Uniform over 2 values: 2^H = 2 exactly.
        assert entropy_diversity(values, [0, 1, 2, 3]) == pytest.approx(2.0)
        # Homogeneous: 2^0 = 1.
        assert entropy_diversity(values, [0, 1]) == pytest.approx(1.0)

    def test_entropy_at_most_distinct(self, art_model):
        from repro.extensions.ldiversity import (
            distinct_diversity,
            entropy_diversity,
        )

        values = sensitive_column(art_model.enc)
        cluster = list(range(25))
        assert entropy_diversity(values, cluster) <= (
            distinct_diversity(values, cluster) + 1e-9
        )

    def test_recursive_criterion(self):
        from repro.extensions.ldiversity import recursive_diversity_satisfied

        values = ["a"] * 5 + ["b"] * 3 + ["c"] * 2
        cluster = list(range(10))
        # counts (5, 3, 2); (c=2, l=2): 5 < 2·(3+2) ✓
        assert recursive_diversity_satisfied(values, cluster, l=2, c=2.0)
        # (c=1, l=3): 5 < 1·2 ✗
        assert not recursive_diversity_satisfied(values, cluster, l=3, c=1.0)
        # Fewer than l distinct values: fail.
        assert not recursive_diversity_satisfied(values, [0, 1], l=2, c=9.0)

    @pytest.mark.parametrize("criterion", ["distinct", "entropy"])
    def test_enforce_other_criteria(self, art_model, criterion):
        enc = art_model.enc
        clustering = agglomerative_clustering(art_model, 3, get_distance("d3"))
        repair = enforce_l_diversity(
            art_model, clustering, l=2, distance=get_distance("d3"),
            criterion=criterion,
        )
        assert is_l_diverse(
            enc, repair.clustering, 2, criterion=criterion
        )

    def test_enforce_recursive(self, art_model):
        enc = art_model.enc
        clustering = agglomerative_clustering(art_model, 3, get_distance("d3"))
        repair = enforce_l_diversity(
            art_model, clustering, l=2, distance=get_distance("d3"),
            criterion="recursive", c=3.0,
        )
        assert is_l_diverse(
            enc, repair.clustering, 2, criterion="recursive", c=3.0
        )

    def test_unknown_criterion(self, art_model):
        n = art_model.enc.num_records
        clustering = Clustering(n, [list(range(n))])
        with pytest.raises(SchemaError, match="criterion"):
            is_l_diverse(art_model.enc, clustering, 2, criterion="zz")
        with pytest.raises(SchemaError, match="criterion"):
            enforce_l_diversity(
                art_model, clustering, l=2, distance=get_distance("d3"),
                criterion="zz",
            )

    def test_unattainable_entropy_rejected(self, art_model):
        n = art_model.enc.num_records
        clustering = Clustering(n, [list(range(n))])
        with pytest.raises(AnonymityError, match="unattainable"):
            enforce_l_diversity(
                art_model, clustering, l=50, distance=get_distance("d3"),
                criterion="entropy",
            )


class TestEpsilonSweep:
    def test_sweep_structure(self, art_model):
        sweep = epsilon_sweep(art_model, k=3, epsilons=(0.0, 0.5))
        assert len(sweep.points) == 2
        assert sweep.points[0].k_prime == 3
        assert sweep.points[1].k_prime == 5
        # Larger k' costs more and can only increase the match floor.
        assert sweep.points[1].cost >= sweep.points[0].cost - 1e-9

    def test_points_verify_their_claims(self, art_model):
        sweep = epsilon_sweep(art_model, k=3, epsilons=(0.0,))
        point = sweep.points[0]
        from repro.core.kk import kk_anonymize

        nodes = kk_anonymize(art_model, 3)
        assert point.satisfies_global == is_global_one_k_anonymous(
            art_model.enc, nodes, 3
        )

    def test_smallest_sufficient(self, art_model):
        sweep = epsilon_sweep(art_model, k=2, epsilons=(0.0, 1.0, 2.0))
        eps = sweep.smallest_sufficient_epsilon()
        if eps is not None:
            point = next(p for p in sweep.points if p.epsilon == eps)
            assert point.satisfies_global
