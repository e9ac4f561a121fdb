"""Unit tests for permissible-subset collections and hierarchies."""

import numpy as np
import pytest

from repro.datasets import dataset_names, schema_of
from repro.errors import ClosureError, SchemaError
from repro.tabular.attribute import Attribute, integer_attribute
from repro.tabular.hierarchy import (
    SubsetCollection,
    all_intervals,
    from_groups,
    interval_hierarchy,
    suppression_only,
)
from repro.verify.generators import random_collection


@pytest.fixture
def abcd():
    return Attribute("x", ["a", "b", "c", "d"])


class TestConstruction:
    def test_singletons_and_full_always_present(self, abcd):
        coll = SubsetCollection(abcd)
        # 4 singletons + full set.
        assert coll.num_nodes == 5
        assert coll.node_values(coll.full_node) == frozenset("abcd")

    def test_extra_subsets(self, abcd):
        coll = SubsetCollection(abcd, [["a", "b"], ["c", "d"]])
        assert coll.num_nodes == 7

    def test_duplicate_subsets_merged(self, abcd):
        coll = SubsetCollection(abcd, [["a", "b"], ["b", "a"], ["a"]])
        assert coll.num_nodes == 6

    def test_canonical_order_singletons_first_full_last(self, abcd):
        coll = SubsetCollection(abcd, [["a", "b"]])
        for v in range(4):
            assert coll.node_size(coll.singleton_node(v)) == 1
        sizes = [coll.node_size(i) for i in range(coll.num_nodes)]
        assert sizes == sorted(sizes)
        assert coll.full_node == coll.num_nodes - 1

    def test_empty_subset_rejected(self, abcd):
        with pytest.raises(SchemaError, match="empty set"):
            SubsetCollection(abcd, [[]])

    def test_unknown_value_rejected(self, abcd):
        with pytest.raises(SchemaError):
            SubsetCollection(abcd, [["a", "z"]])


class TestClosure:
    def test_closure_of_singleton_is_singleton(self, abcd):
        coll = SubsetCollection(abcd, [["a", "b"]])
        node = coll.closure_of_values(["a"])
        assert coll.node_values(node) == frozenset(["a"])

    def test_closure_picks_minimal_superset(self, abcd):
        coll = SubsetCollection(abcd, [["a", "b"], ["a", "b", "c"]])
        assert coll.node_values(coll.closure_of_values(["a", "b"])) == frozenset(
            ["a", "b"]
        )
        assert coll.node_values(coll.closure_of_values(["a", "c"])) == frozenset(
            ["a", "b", "c"]
        )

    def test_closure_falls_back_to_full(self, abcd):
        coll = SubsetCollection(abcd, [["a", "b"]])
        assert coll.closure_of_values(["a", "d"]) == coll.full_node

    def test_closure_of_empty_rejected(self, abcd):
        coll = SubsetCollection(abcd)
        with pytest.raises(ClosureError, match="empty"):
            coll.closure_of_mask(0)

    def test_node_of_values_exact_only(self, abcd):
        coll = SubsetCollection(abcd, [["a", "b"]])
        assert coll.node_values(coll.node_of_values(["a", "b"])) == frozenset(
            ["a", "b"]
        )
        with pytest.raises(ClosureError, match="not a permissible"):
            coll.node_of_values(["a", "c"])

    def test_contains_value(self, abcd):
        coll = SubsetCollection(abcd, [["a", "b"]])
        node = coll.node_of_values(["a", "b"])
        assert coll.contains_value(node, abcd.index_of("a"))
        assert not coll.contains_value(node, abcd.index_of("c"))


class TestJoin:
    def test_join_identity(self, abcd):
        coll = SubsetCollection(abcd, [["a", "b"]])
        node = coll.node_of_values(["a", "b"])
        assert coll.join(node, node) == node

    def test_join_is_commutative(self, abcd):
        coll = SubsetCollection(abcd, [["a", "b"], ["c", "d"]])
        for x in range(coll.num_nodes):
            for y in range(coll.num_nodes):
                assert coll.join(x, y) == coll.join(y, x)

    def test_join_contains_both(self, abcd):
        coll = SubsetCollection(abcd, [["a", "b"], ["c", "d"]])
        for x in range(coll.num_nodes):
            for y in range(coll.num_nodes):
                j = coll.join(x, y)
                assert coll.node_indices(x) <= coll.node_indices(j)
                assert coll.node_indices(y) <= coll.node_indices(j)

    def test_join_is_lca_in_laminar(self, abcd):
        coll = SubsetCollection(abcd, [["a", "b"], ["c", "d"]])
        a = coll.singleton_node(0)
        b = coll.singleton_node(1)
        assert coll.node_values(coll.join(a, b)) == frozenset(["a", "b"])
        c = coll.singleton_node(2)
        assert coll.join(a, c) == coll.full_node

    def test_join_associative_in_laminar(self, abcd):
        coll = SubsetCollection(abcd, [["a", "b"], ["a", "b", "c"]])
        nodes = range(coll.num_nodes)
        for x in nodes:
            for y in nodes:
                for z in nodes:
                    assert coll.join(coll.join(x, y), z) == coll.join(
                        x, coll.join(y, z)
                    )


class TestLaminarStructure:
    def test_laminar_detection_positive(self, abcd):
        assert SubsetCollection(abcd, [["a", "b"], ["a", "b", "c"]]).is_laminar

    def test_laminar_detection_negative(self, abcd):
        coll = SubsetCollection(abcd, [["a", "b"], ["b", "c"]])
        assert not coll.is_laminar

    def test_parents(self, abcd):
        coll = SubsetCollection(abcd, [["a", "b"], ["a", "b", "c"]])
        ab = coll.node_of_values(["a", "b"])
        abc = coll.node_of_values(["a", "b", "c"])
        assert coll.parent(coll.singleton_node(0)) == ab
        assert coll.parent(ab) == abc
        assert coll.parent(abc) == coll.full_node
        assert coll.parent(coll.full_node) == coll.full_node

    def test_depth_and_height(self, abcd):
        coll = SubsetCollection(abcd, [["a", "b"], ["a", "b", "c"]])
        assert coll.depth(coll.full_node) == 0
        assert coll.depth(coll.singleton_node(0)) == 3
        assert coll.height() == 3

    def test_parent_rejected_for_non_laminar(self, abcd):
        coll = SubsetCollection(abcd, [["a", "b"], ["b", "c"]])
        with pytest.raises(ClosureError):
            coll.parent(0)

    def test_non_laminar_closure_deterministic(self, abcd):
        # {b} is covered by both {a,b} and {b,c}; the canonical minimal
        # (size, lexicographic) superset of {a, c} is the full set, while
        # {b, c} closure must pick {b,c} itself.
        coll = SubsetCollection(abcd, [["a", "b"], ["b", "c"]])
        assert coll.node_values(coll.closure_of_values(["b", "c"])) == frozenset(
            ["b", "c"]
        )
        # Ambiguous-membership value b alone stays a singleton.
        assert coll.node_size(coll.closure_of_values(["b"])) == 1


class TestNodeLabels:
    def test_singleton_label(self, abcd):
        coll = SubsetCollection(abcd)
        assert coll.node_label(coll.singleton_node(0)) == "a"

    def test_full_label_is_star(self, abcd):
        coll = SubsetCollection(abcd)
        assert coll.node_label(coll.full_node) == "*"

    def test_set_label(self, abcd):
        coll = SubsetCollection(abcd, [["a", "c"]])
        assert coll.node_label(coll.node_of_values(["a", "c"])) == "{a|c}"

    def test_integer_range_label(self):
        att = integer_attribute("age", 10, 19)
        coll = interval_hierarchy(att, 5)
        node = coll.node_of_values([str(v) for v in range(10, 15)])
        assert coll.node_label(node) == "10-14"


    def test_memo_matches_fresh_rendering_and_renders_once(self, monkeypatch):
        rendered = []
        render = SubsetCollection._render_label

        def counting_render(self, node):
            rendered.append(node)
            return render(self, node)

        monkeypatch.setattr(SubsetCollection, "_render_label", counting_render)
        collections = [
            *(c for name in dataset_names() for c in schema_of(name).collections),
            all_intervals(integer_attribute("age", 20, 49)),  # m = 30
            *(random_collection(np.random.default_rng(s), "a") for s in range(400)),
        ]
        for coll in collections:
            rendered.clear()
            nodes = range(coll.num_nodes)
            first = [coll.node_label(b) for b in reversed(nodes)][::-1]
            again = [coll.node_label(b) for b in nodes]
            assert first == [_fresh_label(coll, b) for b in nodes], coll
            assert all(x is y for x, y in zip(first, again)), coll
            assert sorted(rendered) == list(nodes), coll


def _fresh_label(coll, node):
    """The label rules of ``node_label``, rendered from scratch."""
    if node == coll.full_node and coll.num_nodes > 1:
        return "*"
    values = [coll.attribute.values[i] for i in sorted(coll.node_indices(node))]
    if len(values) == 1:
        return values[0]
    try:
        ints = [int(v) for v in values]
    except ValueError:
        ints = []
    if ints and ints == list(range(ints[0], ints[0] + len(ints))):
        return f"{ints[0]}-{ints[-1]}"
    return "{" + "|".join(values) + "}"


class TestConstructors:
    def test_suppression_only(self, abcd):
        coll = suppression_only(abcd)
        assert coll.num_nodes == abcd.size + 1

    def test_from_groups(self):
        att = Attribute("edu", ["hs", "ba", "ma", "phd"])
        coll = from_groups(att, [["hs"], ["ba"], ["ma", "phd"]])
        assert coll.is_laminar
        assert coll.node_values(coll.node_of_values(["ma", "phd"])) == frozenset(
            ["ma", "phd"]
        )

    def test_interval_hierarchy_laminar(self):
        att = integer_attribute("age", 17, 90)
        coll = interval_hierarchy(att, 5, 10, 20)
        assert coll.is_laminar

    def test_interval_hierarchy_requires_integers(self, abcd):
        with pytest.raises(SchemaError, match="integer"):
            interval_hierarchy(abcd, 2)

    def test_interval_hierarchy_rejects_bad_width(self):
        att = integer_attribute("age", 0, 9)
        with pytest.raises(SchemaError, match="positive"):
            interval_hierarchy(att, 0)

    def test_interval_bands_cover_domain(self):
        att = integer_attribute("age", 17, 90)
        coll = interval_hierarchy(att, 10)
        bands = [
            coll.node_indices(n)
            for n in range(coll.num_nodes)
            if 1 < coll.node_size(n) < att.size
        ]
        covered = set().union(*bands)
        assert covered == set(range(att.size))
