"""Bipartite matching substrate (Section IV/V-C of the paper).

Consistency graphs, from-scratch Hopcroft–Karp, Tarjan SCC, and the
allowed-edge computation behind Definition 4.6's match test.
"""

from repro.matching.allowed import allowed_edges, allowed_edges_naive
from repro.matching.bipartite import ConsistencyGraph
from repro.matching.bruteforce import kuhn_matching, max_matching_size
from repro.matching.hopcroft_karp import (
    UNMATCHED,
    has_perfect_matching,
    hopcroft_karp,
)
from repro.matching.tarjan import strongly_connected_components

__all__ = [
    "ConsistencyGraph",
    "hopcroft_karp",
    "kuhn_matching",
    "max_matching_size",
    "has_perfect_matching",
    "UNMATCHED",
    "strongly_connected_components",
    "allowed_edges",
    "allowed_edges_naive",
]
