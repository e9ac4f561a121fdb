"""Unit tests for the consistency graph."""

import numpy as np
import pytest

from repro.errors import MatchingError
from repro.matching import allowed as allowed_module
from repro.matching.allowed import allowed_edges, allowed_edges_naive
from repro.matching.bipartite import ConsistencyGraph
from repro.matching.hopcroft_karp import has_perfect_matching, hopcroft_karp
from repro.tabular.encoding import EncodedTable
from repro.tabular.table import Table
from tests.conftest import make_random_table


class TestConsistencyGraph:
    def test_identity_generalization(self, small_encoded):
        graph = ConsistencyGraph(small_encoded, small_encoded.singleton_nodes)
        # Each record is consistent at least with its own published row;
        # duplicates add more.
        left = graph.left_degrees()
        right = graph.right_degrees()
        assert (left >= 1).all()
        assert (right >= 1).all()
        assert left.sum() == right.sum() == graph.num_edges()

    def test_full_suppression_complete_graph(self, small_encoded):
        enc = small_encoded
        n = enc.num_records
        full = np.array(
            [[a.full_node for a in enc.attrs]] * n, dtype=np.int32
        )
        graph = ConsistencyGraph(enc, full)
        assert graph.num_edges() == n * n
        assert (graph.left_degrees() == n).all()

    def test_adjacency_symmetric_between_duplicates(self, small_encoded):
        enc = small_encoded
        graph = ConsistencyGraph(enc, enc.singleton_nodes)
        # Records with identical rows must have identical neighbourhoods.
        for i in range(enc.num_records):
            for j in range(i + 1, enc.num_records):
                if (enc.codes[i] == enc.codes[j]).all():
                    assert np.array_equal(
                        graph.adjacency[i], graph.adjacency[j]
                    )

    def test_contains_identity_matching(self, small_encoded):
        enc = small_encoded
        graph = ConsistencyGraph(enc, enc.singleton_nodes)
        assert has_perfect_matching(graph.adjacency_lists(), graph.num_records)

    def test_shape_check(self, small_encoded):
        with pytest.raises(ValueError, match="shape"):
            ConsistencyGraph(small_encoded, np.zeros((3, 2), dtype=np.int32))

    def test_edge_iff_consistent(self, small_encoded):
        enc = small_encoded
        # Generalize a few records, then verify adjacency == definition.
        nodes = enc.singleton_nodes.copy()
        nodes[0] = enc.closure_of_records([0, 1, 2])
        graph = ConsistencyGraph(enc, nodes)
        for i in range(enc.num_records):
            expected = set(
                int(j)
                for j in np.flatnonzero(enc.consistency_mask(i, nodes))
            )
            assert set(graph.adjacency[i].tolist()) == expected

    def test_repr(self, small_encoded):
        graph = ConsistencyGraph(small_encoded, small_encoded.singleton_nodes)
        assert "n=30" in repr(graph)


# --------------------------------------------------------------------- #
# Match sets from the graph (one SCC over the row/generalization
# quotient) against the Hopcroft–Karp + Tarjan and naive oracles
# --------------------------------------------------------------------- #


def _generalizing(enc, rng):
    """A random node matrix whose record i generalizes row i: per cell,
    a uniformly drawn node containing the record's value."""
    nodes = np.empty((enc.num_records, enc.num_attributes), dtype=np.int32)
    for j, att in enumerate(enc.attrs):
        for i, code in enumerate(enc.codes[:, j].tolist()):
            nodes[i, j] = rng.choice(np.flatnonzero(att.anc[code]))
    return nodes


def _fuzz_case(seed):
    """(encoding, node matrix, kind) with kind ``seed % 3``: 0, rows
    generalized in place (the identity path); 1, the same rows permuted
    (a perfect matching that is not the identity); 2, two generalized
    records that fit only one original record (no perfect matching,
    unless no row occurs once)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 13))
    table = make_random_table(n, seed, domain_sizes=(5, 3, 2))
    enc = EncodedTable(table)
    nodes = _generalizing(enc, rng)
    kind = seed % 3
    if kind == 1:
        nodes = nodes[rng.permutation(n)]
    elif kind == 2:
        lone = np.flatnonzero(enc.unique_counts[enc.unique_inverse] == 1)
        if lone.size:
            b = int(rng.choice(lone))
            a = (b + 1 + int(rng.integers(0, n - 1))) % n
            nodes[[a, b]] = enc.singleton_nodes[b]
    return enc, nodes, kind


class TestGraphMatches:
    @pytest.mark.parametrize("seed", range(60))
    def test_equal_allowed_edges_and_naive(self, seed):
        enc, nodes, kind = _fuzz_case(seed)
        graph = ConsistencyGraph(enc, nodes)
        adj = graph.adjacency_lists()
        n = enc.num_records
        if not has_perfect_matching(adj, n):
            assert kind == 2
            for oracle in (allowed_edges, allowed_edges_naive):
                with pytest.raises(MatchingError):
                    oracle(adj, n)
            with pytest.raises(MatchingError):
                graph.matches()
            with pytest.raises(MatchingError):
                ConsistencyGraph(enc, nodes).match_counts()
            return
        expected = allowed_edges(adj, n)
        assert graph.matches() == expected
        assert graph.match_counts().tolist() == [len(s) for s in expected]
        if graph.num_edges() <= 400:
            assert expected == allowed_edges_naive(adj, n)
        left, right = graph.match_components()
        for u, neighbours in enumerate(adj):
            assert {v for v in neighbours if left[u] == right[v]} == expected[u]

    def test_every_kind_is_covered(self):
        kinds = set()
        for seed in range(60):
            enc, nodes, kind = _fuzz_case(seed)
            identity = bool(enc.generalizes_rows(nodes).all())
            perfect = has_perfect_matching(
                ConsistencyGraph(enc, nodes).adjacency_lists(), enc.num_records
            )
            kinds.add((identity, perfect))
        assert kinds == {(True, True), (False, True), (False, False)}

    def test_identity_path_skips_hopcroft_karp(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            allowed_module, "hopcroft_karp",
            lambda *a: calls.append(a) or hopcroft_karp(*a),
        )
        enc, nodes, _ = _fuzz_case(0)
        ConsistencyGraph(enc, nodes).match_counts()
        assert calls == []
        ConsistencyGraph(enc, nodes[::-1].copy()).match_counts()
        assert len(calls) == 1

    def test_single_record(self):
        enc = EncodedTable(make_random_table(1, 3))
        graph = ConsistencyGraph(enc, enc.singleton_nodes)
        assert graph.adjacency_lists() == [[0]]
        assert graph.matches() == [{0}]
        assert graph.match_counts().tolist() == [1]

    def test_all_rows_identical(self, small_encoded):
        table = small_encoded.table
        enc = EncodedTable(Table(table.schema, [table.row(0)] * 6))
        graph = ConsistencyGraph(enc, enc.singleton_nodes)
        assert enc.num_unique == 1
        assert graph.matches() == [set(range(6))] * 6
        assert graph.match_counts().tolist() == [6] * 6

    def test_single_distinct_generalization(self, small_encoded):
        enc = small_encoded
        n = enc.num_records
        full = np.array([[a.full_node for a in enc.attrs]] * n, dtype=np.int32)
        graph = ConsistencyGraph(enc, full)
        assert graph.gen_counts.tolist() == [n]
        assert graph.matches() == [set(range(n))] * n
        assert graph.match_counts().tolist() == [n] * n
        assert graph.right_degrees().tolist() == [n] * n
