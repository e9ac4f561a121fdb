"""Unit tests for the anonymity-notion verifiers (Section IV)."""

import numpy as np
import pytest

from repro.core.notions import (
    AnonymityProfile,
    anonymity_profile,
    group_sizes,
    is_global_one_k_anonymous,
    is_k_anonymous,
    is_k_one_anonymous,
    is_kk_anonymous,
    is_one_k_anonymous,
    left_link_counts,
    match_count_per_record,
    right_link_counts,
    satisfies,
)
from repro.core.relations import (
    kk_attack_example,
    nodes_from_value_lists,
    proposition_45_example,
)
from repro.errors import AnonymityError
from repro.tabular.encoding import EncodedTable


@pytest.fixture
def prop45():
    table, gens = proposition_45_example()
    enc = EncodedTable(table)
    nodes = {
        name: nodes_from_value_lists(enc, rows) for name, rows in gens.items()
    }
    return enc, nodes


class TestGroupSizes:
    def test_all_identical(self):
        nodes = np.zeros((4, 2), dtype=np.int32)
        assert (group_sizes(nodes) == 4).all()

    def test_mixed(self):
        nodes = np.array([[0, 0], [0, 0], [1, 0]], dtype=np.int32)
        assert group_sizes(nodes).tolist() == [2, 2, 1]


class TestProposition45Examples:
    """The worked examples from the proof of Proposition 4.5, exactly."""

    def test_2_anonymization(self, prop45):
        enc, nodes = prop45
        m = nodes["2-anon"]
        assert is_k_anonymous(m, 2)
        assert is_kk_anonymous(enc, m, 2)
        assert is_one_k_anonymous(enc, m, 2)
        assert is_k_one_anonymous(enc, m, 2)
        assert is_global_one_k_anonymous(enc, m, 2)

    def test_1_2_anonymization_in_1k_not_k1(self, prop45):
        enc, nodes = prop45
        m = nodes["(1,2)-anon"]
        assert is_one_k_anonymous(enc, m, 2)
        assert not is_k_one_anonymous(enc, m, 2)
        assert not is_kk_anonymous(enc, m, 2)
        assert not is_k_anonymous(m, 2)

    def test_2_1_anonymization_in_k1_not_1k(self, prop45):
        enc, nodes = prop45
        m = nodes["(2,1)-anon"]
        assert is_k_one_anonymous(enc, m, 2)
        assert not is_one_k_anonymous(enc, m, 2)
        assert not is_kk_anonymous(enc, m, 2)

    def test_2_2_anonymization_in_kk_not_k(self, prop45):
        enc, nodes = prop45
        m = nodes["(2,2)-anon"]
        assert is_kk_anonymous(enc, m, 2)
        assert not is_k_anonymous(m, 2)


class TestKkAttackExample:
    def test_kk_but_not_global(self):
        table, gen = kk_attack_example()
        enc = EncodedTable(table)
        nodes = nodes_from_value_lists(enc, gen)
        assert is_kk_anonymous(enc, nodes, 2)
        assert not is_global_one_k_anonymous(enc, nodes, 2)
        assert match_count_per_record(enc, nodes).min() == 1


class TestLinkCounts:
    def test_identity_links(self, small_encoded):
        enc = small_encoded
        left = left_link_counts(enc, enc.singleton_nodes)
        right = right_link_counts(enc, enc.singleton_nodes)
        assert left.sum() == right.sum()
        assert (left >= 1).all() and (right >= 1).all()

    def test_full_suppression_links(self, small_encoded):
        enc = small_encoded
        n = enc.num_records
        full = np.array(
            [[a.full_node for a in enc.attrs]] * n, dtype=np.int32
        )
        assert (left_link_counts(enc, full) == n).all()
        assert (right_link_counts(enc, full) == n).all()
        assert is_k_anonymous(full, n)
        assert is_global_one_k_anonymous(enc, full, n)


class TestSatisfies:
    def test_dispatch(self, small_encoded):
        enc = small_encoded
        n = enc.num_records
        full = np.array(
            [[a.full_node for a in enc.attrs]] * n, dtype=np.int32
        )
        for notion in ("k", "1k", "k1", "kk", "global-1k"):
            assert satisfies(enc, full, notion, n)

    def test_unknown_notion(self, small_encoded):
        with pytest.raises(AnonymityError, match="unknown anonymity notion"):
            satisfies(
                small_encoded, small_encoded.singleton_nodes, "zz", 2
            )


class TestProfile:
    def test_profile_on_attack_example(self):
        table, gen = kk_attack_example()
        enc = EncodedTable(table)
        nodes = nodes_from_value_lists(enc, gen)
        profile = anonymity_profile(enc, nodes)
        assert profile.min_left_links == 2
        assert profile.min_right_links == 2
        assert profile.kk_level() == 2
        assert profile.min_matches == 1
        assert profile.global_level() == 1
        assert profile.k_anonymity_level() == 1

    def test_profile_without_matches(self, small_encoded):
        profile = anonymity_profile(
            small_encoded, small_encoded.singleton_nodes, with_matches=False
        )
        assert profile.min_matches == 0
        assert isinstance(profile, AnonymityProfile)
