"""Unit tests for the numpy encoding layer."""

import numpy as np
import pytest

from repro.datasets import dataset_names, schema_of
from repro.errors import SchemaError
from repro.tabular.encoding import EncodedAttribute, EncodedTable
from repro.tabular.hierarchy import SubsetCollection
from repro.tabular.attribute import Attribute
from repro.tabular.table import Schema, Table
from repro.verify.generators import random_collection


def _arbitrary_collection(seed: int) -> SubsetCollection:
    """A seeded non-laminar collection of random subsets (overlaps and
    equal-size covers, so closures depend on the canonical tie-break)."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(3, 9))
    att = Attribute("x", [f"v{i}" for i in range(m)])
    while True:
        sizes = rng.integers(2, m, size=int(rng.integers(2, 3 * m)))
        subsets = [
            [att.values[i] for i in rng.choice(m, int(size), replace=False)]
            for size in sizes
        ]
        coll = SubsetCollection(att, subsets)
        if not coll.is_laminar:
            return coll


#: Collection families the table oracle covers: every collection of the
#: paper's datasets, the fuzzer's collections and arbitrary non-laminar ones.
TABLE_FAMILIES = {
    "hand-built": lambda: [
        SubsetCollection(
            Attribute("x", ["a", "b", "c", "d"]), [["a", "b"], ["c", "d"]]
        ),
        SubsetCollection(Attribute("x", ["a", "b", "c"]), [["a", "b"]]),
    ],
    **{
        name: (lambda name=name: list(schema_of(name).collections))
        for name in dataset_names()
    },
    "fuzz": lambda: [
        random_collection(np.random.default_rng(seed), "a") for seed in range(400)
    ],
    "non-laminar": lambda: [_arbitrary_collection(seed) for seed in range(200)],
}


def _first_cover_tie(coll: SubsetCollection) -> bool:
    """Whether some join has two minimum-size covering nodes."""
    n = coll.num_nodes
    for a in range(n):
        for b in range(a + 1, n):
            union = coll.node_indices(a) | coll.node_indices(b)
            covers = [c for c in range(n) if union <= coll.node_indices(c)]
            best = min(coll.node_size(c) for c in covers)
            if sum(coll.node_size(c) == best for c in covers) > 1:
                return True
    return False


class TestEncodedAttribute:
    @pytest.mark.parametrize("family", sorted(TABLE_FAMILIES))
    def test_join_table_matches_collection(self, family):
        # The per-pair loop is the oracle: byte-identical values, dtype
        # and layout against SubsetCollection.join on every pair.
        for coll in TABLE_FAMILIES[family]():
            enc = EncodedAttribute(coll)
            n = coll.num_nodes
            expected = np.empty((n, n), dtype=np.int32)
            for a in range(n):
                for b in range(n):
                    expected[a, b] = coll.join(a, b)
            assert enc.join.dtype == np.int32, coll
            assert enc.join.shape == (n, n), coll
            assert enc.join.flags.c_contiguous, coll
            assert enc.join.tobytes() == expected.tobytes(), coll

    @pytest.mark.parametrize("family", sorted(TABLE_FAMILIES))
    def test_ancestor_table(self, family):
        for coll in TABLE_FAMILIES[family]():
            enc = EncodedAttribute(coll)
            m, n = coll.attribute.size, coll.num_nodes
            expected = np.array(
                [[coll.contains_value(b, v) for b in range(n)] for v in range(m)],
                dtype=bool,
            ).reshape(m, n)
            assert enc.anc.dtype == np.bool_, coll
            assert enc.anc.shape == (m, n), coll
            assert enc.anc.flags.c_contiguous, coll
            assert enc.anc.tobytes() == expected.tobytes(), coll
            # Every value is in its singleton and in the full set.
            for v in range(m):
                assert enc.anc[v, enc.singleton[v]]
                assert enc.anc[v, enc.full_node]

    def test_non_laminar_family_exercises_the_tie_break(self):
        # Guards the oracle against vacuity: on most of these
        # collections a join has two minimum-size covers, so only the
        # first-in-canonical-order rule yields the expected table.
        ties = sum(map(_first_cover_tie, TABLE_FAMILIES["non-laminar"]()))
        assert ties >= 100

    def test_sizes(self):
        att = Attribute("x", ["a", "b", "c"])
        enc = EncodedAttribute(SubsetCollection(att))
        assert enc.sizes[enc.full_node] == 3
        assert enc.num_values == 3
        assert enc.num_nodes == 4


class TestEncodedTable:
    def test_codes_and_counts(self, small_encoded):
        enc = small_encoded
        assert enc.codes.shape == (30, 2)
        assert enc.num_records == 30
        assert enc.num_attributes == 2
        # value_counts must total n in every attribute.
        for counts in enc.value_counts:
            assert counts.sum() == 30

    def test_unique_rows_roundtrip(self, small_encoded):
        enc = small_encoded
        rebuilt = enc.unique_codes[enc.unique_inverse]
        assert np.array_equal(rebuilt, enc.codes)
        assert enc.unique_counts.sum() == enc.num_records

    def test_singleton_nodes_are_singletons(self, small_encoded):
        enc = small_encoded
        for j, att in enumerate(enc.attrs):
            sizes = att.sizes[enc.singleton_nodes[:, j]]
            assert (sizes == 1).all()

    def test_closure_of_records_exact(self, small_encoded):
        enc = small_encoded
        nodes = enc.closure_of_records([0, 1, 2])
        for j, att in enumerate(enc.attrs):
            members = set(enc.codes[[0, 1, 2], j].tolist())
            covered = att.collection.node_indices(int(nodes[j]))
            assert members <= covered
            # Minimality: no smaller permissible superset exists.
            for b in range(att.num_nodes):
                if members <= att.collection.node_indices(b):
                    assert att.sizes[b] >= att.sizes[nodes[j]]

    def test_closure_of_single_record_is_itself(self, small_encoded):
        enc = small_encoded
        nodes = enc.closure_of_records([5])
        assert np.array_equal(nodes, enc.singleton_nodes[5])

    def test_closure_of_empty_rejected(self, small_encoded):
        with pytest.raises(SchemaError, match="empty"):
            small_encoded.closure_of_records([])

    def test_join_rows_broadcasting(self, small_encoded):
        enc = small_encoded
        one = enc.singleton_nodes[0]
        many = enc.singleton_nodes[:5]
        out = enc.join_rows(many, one)
        assert out.shape == (5, 2)
        # Joining a row with itself is the identity.
        assert np.array_equal(
            enc.join_rows(one, one), one
        )

    def test_consistency_mask(self, small_encoded):
        enc = small_encoded
        # Every record is consistent with its own singleton encoding.
        mask = enc.consistency_mask(0, enc.singleton_nodes)
        assert mask[0]
        # And with a fully suppressed record.
        full = np.array([a.full_node for a in enc.attrs], dtype=np.int32)
        assert enc.consistency_mask(0, full[None, :])[0]

    def test_decode_roundtrip(self, small_encoded):
        enc = small_encoded
        gtable = enc.decode_table(enc.singleton_nodes)
        assert gtable.num_records == enc.num_records
        gtable.check_generalizes(enc.table)
        back = enc.encode_generalized(gtable)
        assert np.array_equal(back, enc.singleton_nodes)

    def test_decode_shape_check(self, small_encoded):
        with pytest.raises(SchemaError, match="shape"):
            small_encoded.decode_table(np.zeros((2, 2), dtype=np.int32))

    def test_encode_foreign_schema_rejected(self, small_encoded):
        att = Attribute("z", ["1"])
        other = Schema([SubsetCollection(att)])
        other_table = Table(other, [("1",)])
        other_enc = EncodedTable(other_table)
        gt = other_enc.decode_table(other_enc.singleton_nodes)
        with pytest.raises(SchemaError, match="different schema"):
            small_encoded.encode_generalized(gt)

    def test_repr(self, small_encoded):
        assert "n=30" in repr(small_encoded)
