"""Unit tests for allowed-edge computation (matches, Definition 4.6).

The fast SCC-based method is validated against the paper's naive
endpoint-deletion method on random graphs with perfect matchings.
"""

import numpy as np
import pytest

from repro.core.relations import kk_attack_example, nodes_from_value_lists
from repro.errors import MatchingError
from repro.matching.allowed import allowed_edges, allowed_edges_naive
from repro.matching.bipartite import ConsistencyGraph
from repro.tabular.encoding import EncodedTable


def _random_graph_with_pm(rng, n, extra_p):
    """Random bipartite graph guaranteed a perfect matching via a hidden
    permutation."""
    perm = rng.permutation(n)
    adj = [
        sorted(
            {int(perm[u])}
            | {int(v) for v in np.flatnonzero(rng.random(n) < extra_p)}
        )
        for u in range(n)
    ]
    return adj


class TestAllowedEdges:
    def test_complete_bipartite_all_allowed(self):
        n = 4
        adj = [list(range(n)) for _ in range(n)]
        allowed = allowed_edges(adj, n)
        assert all(s == set(range(n)) for s in allowed)

    def test_identity_only(self):
        adj = [[0], [1], [2]]
        allowed = allowed_edges(adj, 3)
        assert allowed == [{0}, {1}, {2}]

    def test_forced_edge_not_allowed(self):
        # l0: {r0, r1}, l1: {r0}.  Edge (l0, r0) would starve l1.
        adj = [[0, 1], [0]]
        allowed = allowed_edges(adj, 2)
        assert allowed[0] == {1}
        assert allowed[1] == {0}

    def test_alternating_cycle_allowed(self):
        # 4-cycle: both matchings exist, all edges allowed.
        adj = [[0, 1], [0, 1]]
        allowed = allowed_edges(adj, 2)
        assert allowed == [{0, 1}, {0, 1}]

    def test_attack_instance(self):
        # The kk_attack_example graph: record 3's edge to {1,2,3} is
        # not allowed (see repro.core.relations.kk_attack_example).
        adj = [
            [0, 1],      # value 1 in {1,2}, {1,2,3}
            [0, 1],      # value 2
            [1, 2],      # value 3 in {1,2,3}, {3,4}
            [2, 3],      # value 4 in {3,4}, {4,5,6}
            [3, 4, 5],   # value 5 in {4,5,6}, {5,6}, {5,6}
            [3, 4, 5],   # value 6
        ]
        table, gen = kk_attack_example()
        enc = EncodedTable(table)
        graph = ConsistencyGraph(enc, nodes_from_value_lists(enc, gen))
        assert graph.adjacency_lists() == adj
        # Records 3 and 4 keep a single match; records 5 and 6 lose their
        # edge to {4,5,6} too (using it would starve records 1-4).
        assert graph.match_counts().tolist() == [2, 2, 1, 1, 2, 2]
        assert graph.matches() == allowed_edges(adj, 6)

    def test_no_perfect_matching_rejected(self):
        with pytest.raises(MatchingError, match="no perfect matching"):
            allowed_edges([[0], [0]], 2)
        with pytest.raises(MatchingError):
            allowed_edges_naive([[0], [0]], 2)

    def test_unbalanced_sides_rejected(self):
        with pytest.raises(MatchingError):
            allowed_edges([[0, 1]], 2)

    @pytest.mark.parametrize("seed", range(15))
    def test_matches_naive_on_random_graphs(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 11))
        adj = _random_graph_with_pm(rng, n, extra_p=rng.uniform(0.1, 0.5))
        fast = allowed_edges(adj, n)
        naive = allowed_edges_naive(adj, n)
        assert fast == naive

    @pytest.mark.parametrize("seed", range(5))
    def test_allowed_edges_are_subset_of_adjacency(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(2, 20))
        adj = _random_graph_with_pm(rng, n, extra_p=0.2)
        for u, s in enumerate(allowed_edges(adj, n)):
            assert s <= set(adj[u])
            assert s, "every vertex has at least its matched edge"
