"""Unit tests for (k,k)-anonymization and the global (1,k) converter."""

import importlib

import numpy as np
import pytest

from repro.core.global_1k import global_one_k_anonymize
from repro.core.kk import kk_anonymize
from repro.core.notions import (
    is_global_one_k_anonymous,
    is_kk_anonymous,
    match_count_per_record,
)
from repro.core.relations import kk_attack_example, nodes_from_value_lists
from repro.errors import AnonymityError
from repro.measures.base import CostModel
from repro.measures.entropy import EntropyMeasure
from repro.measures.lm import LMMeasure
from repro.tabular.encoding import EncodedTable
from tests.conftest import make_random_table


class TestKKAnonymize:
    @pytest.mark.parametrize("expander", ["expansion", "nearest"])
    @pytest.mark.parametrize("k", [2, 4, 6])
    def test_produces_kk(self, entropy_model, expander, k):
        nodes = kk_anonymize(entropy_model, k, expander=expander)
        assert is_kk_anonymous(entropy_model.enc, nodes, k)

    def test_valid_generalization(self, entropy_model):
        nodes = kk_anonymize(entropy_model, 4)
        gtable = entropy_model.enc.decode_table(nodes)
        gtable.check_generalizes(entropy_model.enc.table)

    def test_unknown_expander_rejected(self, entropy_model):
        with pytest.raises(AnonymityError, match="expander"):
            kk_anonymize(entropy_model, 3, expander="zz")

    @pytest.mark.parametrize("seed", range(4))
    def test_kk_cheaper_than_k_anonymity(self, seed):
        """The headline utility claim: (k,k) relaxation buys utility."""
        from repro.core.agglomerative import agglomerative_clustering
        from repro.core.clustering import clustering_to_nodes
        from repro.core.distances import distance_names, get_distance

        table = make_random_table(50, seed=seed, domain_sizes=(6, 5, 4))
        model = CostModel(EncodedTable(table), EntropyMeasure())
        k = 5
        kk_cost = model.table_cost(kk_anonymize(model, k))
        best_k = min(
            model.table_cost(
                clustering_to_nodes(
                    model.enc,
                    agglomerative_clustering(model, k, get_distance(d)),
                )
            )
            for d in distance_names()
        )
        assert kk_cost <= best_k + 1e-9


class TestGlobalConversion:
    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_converts_to_global(self, entropy_model, k):
        kk_nodes = kk_anonymize(entropy_model, k)
        nodes, stats = global_one_k_anonymize(entropy_model, kk_nodes, k)
        assert is_global_one_k_anonymous(entropy_model.enc, nodes, k)
        assert stats.passes >= 0

    def test_attack_example_fixed(self):
        """Algorithm 6 repairs the canonical (2,2)-but-not-global table."""
        table, gen = kk_attack_example()
        enc = EncodedTable(table)
        model = CostModel(enc, LMMeasure())
        nodes = nodes_from_value_lists(enc, gen)
        assert match_count_per_record(enc, nodes).min() == 1
        fixed, stats = global_one_k_anonymize(model, nodes, 2)
        assert is_global_one_k_anonymous(enc, fixed, 2)
        assert stats.fixes >= 1
        assert stats.initial_deficient == 2

    def test_no_op_when_already_global(self, entropy_model):
        enc = entropy_model.enc
        n = enc.num_records
        full = np.array(
            [[a.full_node for a in enc.attrs]] * n, dtype=np.int32
        )
        nodes, stats = global_one_k_anonymize(entropy_model, full, 5)
        assert np.array_equal(nodes, full)
        assert stats.fixes == 0
        assert stats.initial_deficient == 0

    def test_only_generalizes_further(self, entropy_model):
        enc = entropy_model.enc
        k = 3
        kk_nodes = kk_anonymize(entropy_model, k)
        out, _ = global_one_k_anonymize(entropy_model, kk_nodes, k)
        for j, att in enumerate(enc.attrs):
            for i in range(enc.num_records):
                assert att.collection.node_indices(
                    int(kk_nodes[i, j])
                ) <= att.collection.node_indices(int(out[i, j]))

    def test_cost_increase_is_modest(self, entropy_model):
        k = 4
        kk_nodes = kk_anonymize(entropy_model, k)
        out, _ = global_one_k_anonymize(entropy_model, kk_nodes, k)
        before = entropy_model.table_cost(kk_nodes)
        after = entropy_model.table_cost(out)
        assert after >= before - 1e-12
        assert after <= before * 1.5 + 0.3  # §V-C: the upgrade is cheap

    def test_rejects_non_1k_input(self, entropy_model):
        enc = entropy_model.enc
        with pytest.raises(AnonymityError, match=r"not a \(1,k\)"):
            global_one_k_anonymize(entropy_model, enc.singleton_nodes, 5)

    def test_rejects_non_generalizing_input(self, entropy_model):
        enc = entropy_model.enc
        nodes = kk_anonymize(entropy_model, 2)
        bad = nodes.copy()
        bad[0] = enc.singleton_nodes[1]
        if (enc.codes[0] == enc.codes[1]).all():
            pytest.skip("records 0 and 1 coincide")
        with pytest.raises(AnonymityError, match="does not generalize"):
            global_one_k_anonymize(entropy_model, bad, 2)

    def test_shape_check(self, entropy_model):
        with pytest.raises(AnonymityError, match="shape"):
            global_one_k_anonymize(
                entropy_model, np.zeros((1, 1), dtype=np.int32), 2
            )

    @pytest.mark.parametrize("seed", range(3))
    def test_random_tables_converge(self, seed):
        table = make_random_table(40, seed=seed, domain_sizes=(5, 4, 3))
        model = CostModel(EncodedTable(table), EntropyMeasure())
        k = 4
        kk_nodes = kk_anonymize(model, k)
        out, stats = global_one_k_anonymize(model, kk_nodes, k)
        assert is_global_one_k_anonymous(model.enc, out, k)
        assert stats.passes <= k + 1


class TestIdentityMatching:
    """Algorithm 6 reads its match counts off the identity matching: no
    Hopcroft–Karp, the literal reference's output, and the diagnostics
    it reported when it ran Hopcroft–Karp + Tarjan on every pass."""

    # (dataset, passes, fixes, initial_deficient, histogram items in
    # insertion order) for LM, k=5, n=200, seed 0.
    PINNED = [
        ("art", 1, 56, 56, [(3, 10), (4, 9), (1, 28), (2, 9)]),
        ("cmc", 1, 131, 131, [(2, 31), (1, 21), (3, 35), (4, 44)]),
        ("adult", 1, 98, 98, [(1, 18), (3, 26), (2, 20), (4, 34)]),
    ]

    @pytest.mark.parametrize("dataset,passes,fixes,deficient,histogram", PINNED)
    def test_no_hopcroft_karp_same_output(
        self, monkeypatch, dataset, passes, fixes, deficient, histogram
    ):
        from repro.core.reference import reference_global_one_k
        from repro.datasets import load

        # The package re-exports the function under the module's name.
        allowed = importlib.import_module("repro.matching.allowed")
        hopcroft_karp = importlib.import_module("repro.matching.hopcroft_karp")
        model = CostModel(EncodedTable(load(dataset, n=200, seed=0)), LMMeasure())
        kk = kk_anonymize(model, 5)
        calls = []
        original = hopcroft_karp.hopcroft_karp

        def spy(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(allowed, "hopcroft_karp", spy)
        monkeypatch.setattr(hopcroft_karp, "hopcroft_karp", spy)
        nodes, stats = global_one_k_anonymize(model, kk, 5)
        assert calls == []
        assert np.array_equal(nodes, reference_global_one_k(model, kk, 5))
        assert calls, "the reference stays on Hopcroft–Karp + Tarjan"
        assert (stats.passes, stats.fixes, stats.initial_deficient) == (
            passes, fixes, deficient
        )
        assert list(stats.deficiency_histogram.items()) == histogram
