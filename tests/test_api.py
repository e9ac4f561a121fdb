"""Unit tests for the high-level anonymize() facade."""

import dataclasses

import numpy as np
import pytest

from repro.core.api import AnonymizationResult, anonymize
from repro.errors import AnonymityError
from repro.measures.entropy import EntropyMeasure
from repro.tabular.encoding import EncodedTable


class TestAnonymize:
    @pytest.mark.parametrize(
        "notion", ["k", "1k", "k1", "kk", "global-1k"]
    )
    def test_every_notion_verifies(self, small_table, notion):
        result = anonymize(small_table, k=4, notion=notion)
        assert isinstance(result, AnonymizationResult)
        assert result.verify()
        assert result.k == 4
        result.generalized.check_generalizes(small_table)

    @pytest.mark.parametrize("bad_k", [0, -3])
    def test_nonpositive_k_rejected(self, small_table, bad_k):
        with pytest.raises(AnonymityError, match="positive"):
            anonymize(small_table, k=bad_k)

    def test_kmember_algorithm(self, small_table):
        result = anonymize(small_table, k=4, notion="k", algorithm="kmember")
        assert result.algorithm == "kmember"
        assert result.verify()

    def test_unknown_notion_rejected(self, small_table):
        with pytest.raises(AnonymityError, match="unknown anonymity notion"):
            anonymize(small_table, k=3, notion="weird")

    def test_unknown_algorithm_rejected(self, small_table):
        with pytest.raises(AnonymityError, match="unknown k-anonymization"):
            anonymize(small_table, k=3, notion="k", algorithm="magic")

    def test_unknown_expander_rejected(self, small_table):
        with pytest.raises(AnonymityError, match="expander"):
            anonymize(small_table, k=3, notion="k1", expander="zz")

    def test_measure_instance_accepted(self, small_table):
        result = anonymize(small_table, k=3, measure=EntropyMeasure())
        assert result.measure == "entropy"

    def test_forest_algorithm(self, small_table):
        result = anonymize(small_table, k=4, notion="k", algorithm="forest")
        assert result.algorithm == "forest"
        assert result.verify()
        assert result.clustering is not None

    def test_mondrian_algorithm(self, small_table):
        result = anonymize(small_table, k=4, notion="k", algorithm="mondrian")
        assert result.algorithm == "mondrian"
        assert result.verify()
        assert result.clustering is not None

    def test_datafly_algorithm(self, small_table):
        result = anonymize(small_table, k=4, notion="k", algorithm="datafly")
        assert result.algorithm == "datafly"
        assert result.verify()
        assert result.clustering is None
        assert "generalization_steps" in result.stats

    def test_summary(self, small_table):
        result = anonymize(small_table, k=3, notion="kk")
        text = result.summary()
        assert "k=3" in text and "Π_entropy" in text

    def test_modified_agglomerative_name(self, small_table):
        result = anonymize(
            small_table, k=3, notion="k", distance="d2", modified=True
        )
        assert result.algorithm == "agglomerative[d2,modified]"

    def test_cost_matches_model(self, small_table):
        result = anonymize(small_table, k=4, notion="kk", measure="lm")
        from repro.measures.base import CostModel
        from repro.measures.lm import LMMeasure

        model = CostModel(result.encoded, LMMeasure())
        assert result.cost == pytest.approx(
            model.table_cost(result.node_matrix)
        )

    def test_reuses_provided_encoding(self, small_table):
        enc = EncodedTable(small_table)
        result = anonymize(small_table, k=3, encoded=enc)
        assert result.encoded is enc

    def test_foreign_encoding_rejected(self, small_table, tiny_table):
        enc = EncodedTable(tiny_table)
        with pytest.raises(AnonymityError, match="different table"):
            anonymize(small_table, k=2, encoded=enc)

    def test_global_stats_populated(self, small_table):
        result = anonymize(small_table, k=3, notion="global-1k")
        assert "conversion_passes" in result.stats
        assert "conversion_fixes" in result.stats
        assert result.notion == "global-1k"

    def test_relaxation_utility_ordering(self, small_table):
        """The paper's central promise: relaxed notions cost less."""
        k = 5
        enc = EncodedTable(small_table)
        cost = {
            notion: anonymize(
                small_table, k=k, notion=notion, encoded=enc
            ).cost
            for notion in ("k", "kk", "k1", "1k")
        }
        assert cost["kk"] <= cost["k"] + 1e-9
        assert cost["k1"] <= cost["kk"] + 1e-9
        assert cost["1k"] <= cost["kk"] + 1e-9

    def test_profile(self, small_table):
        result = anonymize(small_table, k=4, notion="kk")
        profile = result.profile()
        assert profile.kk_level() >= 4

    def test_elapsed_recorded(self, small_table):
        result = anonymize(small_table, k=3)
        assert result.elapsed_seconds >= 0.0

    def test_backend_is_a_constant_read_only_property(self, small_table):
        # Provenance readers still ask for it; there is one engine, so it
        # is neither a parameter nor a field.
        result = anonymize(small_table, k=3)
        assert result.backend == "python"
        assert "backend" not in {f.name for f in dataclasses.fields(result)}
        with pytest.raises(AttributeError):
            result.backend = "other"
        with pytest.raises(TypeError):
            anonymize(small_table, k=3, backend="python")
