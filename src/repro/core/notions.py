"""Verifiers for the five k-type anonymity notions (Section IV).

Every verifier takes the encoded table, the generalization as a node
matrix and k, and answers both the yes/no question and the quantitative
one ("how many links does the worst record have"), which the privacy
audit builds on.

Notions
-------
* k-anonymity (Def. 4.1): every generalized record is identical to ≥ k−1
  others.
* (1,k) (Def. 4.4): every original record is consistent with ≥ k
  generalized records.
* (k,1) (Def. 4.4): every generalized record is consistent with ≥ k
  original records.
* (k,k) (Def. 4.4): both of the above.
* global (1,k) (Def. 4.6): every original record has ≥ k *matches* —
  neighbours whose edge extends to a perfect matching of the consistency
  graph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.matching.bipartite import ConsistencyGraph
from repro.tabular.encoding import EncodedTable

#: Canonical notion names accepted by :func:`satisfies` and the high-level API.
NOTIONS = ("k", "1k", "k1", "kk", "global-1k")


def group_sizes(node_matrix: np.ndarray) -> np.ndarray:
    """Per-record size of its equivalence class of identical generalized
    records (the quantity behind Definition 4.1)."""
    node_matrix = np.asarray(node_matrix)
    _, inverse, counts = np.unique(
        node_matrix, axis=0, return_inverse=True, return_counts=True
    )
    return counts[inverse]


def is_k_anonymous(node_matrix: np.ndarray, k: int) -> bool:
    """Definition 4.1: every record's equivalence class has size ≥ k."""
    return bool(group_sizes(node_matrix).min() >= k)


def left_link_counts(enc: EncodedTable, node_matrix: np.ndarray) -> np.ndarray:
    """For every original record, its number of consistent generalized
    records (degree in the consistency graph — the (1,k) quantity)."""
    return ConsistencyGraph(enc, node_matrix).left_degrees()


def right_link_counts(enc: EncodedTable, node_matrix: np.ndarray) -> np.ndarray:
    """For every generalized record, its number of consistent original
    records (the (k,1) quantity)."""
    return ConsistencyGraph(enc, node_matrix).right_degrees()


def is_one_k_anonymous(enc: EncodedTable, node_matrix: np.ndarray, k: int) -> bool:
    """(1,k)-anonymity (Definition 4.4)."""
    return bool(left_link_counts(enc, node_matrix).min() >= k)


def is_k_one_anonymous(enc: EncodedTable, node_matrix: np.ndarray, k: int) -> bool:
    """(k,1)-anonymity (Definition 4.4)."""
    return bool(right_link_counts(enc, node_matrix).min() >= k)


def is_kk_anonymous(enc: EncodedTable, node_matrix: np.ndarray, k: int) -> bool:
    """(k,k)-anonymity (Definition 4.4)."""
    graph = ConsistencyGraph(enc, node_matrix)
    return bool(
        graph.left_degrees().min() >= k and graph.right_degrees().min() >= k
    )


def match_count_per_record(enc: EncodedTable, node_matrix: np.ndarray) -> np.ndarray:
    """Number of matches (Definition 4.6) of every original record."""
    return ConsistencyGraph(enc, node_matrix).match_counts()


def is_global_one_k_anonymous(
    enc: EncodedTable, node_matrix: np.ndarray, k: int
) -> bool:
    """Global (1,k)-anonymity (Definition 4.6)."""
    return bool(match_count_per_record(enc, node_matrix).min() >= k)


def satisfies(
    enc: EncodedTable, node_matrix: np.ndarray, notion: str, k: int
) -> bool:
    """Check any notion by name: ``k``, ``1k``, ``k1``, ``kk``, ``global-1k``."""
    notion = notion.lower()
    if notion == "k":
        return is_k_anonymous(node_matrix, k)
    if notion == "1k":
        return is_one_k_anonymous(enc, node_matrix, k)
    if notion == "k1":
        return is_k_one_anonymous(enc, node_matrix, k)
    if notion == "kk":
        return is_kk_anonymous(enc, node_matrix, k)
    if notion in ("global-1k", "g1k", "global"):
        return is_global_one_k_anonymous(enc, node_matrix, k)
    raise ValueError(f"unknown anonymity notion {notion!r}; expected one of {NOTIONS}")


@dataclass(frozen=True)
class AnonymityProfile:
    """Quantitative anonymity summary of one generalization.

    ``min_*`` fields give the worst record's counts; the generalization
    satisfies the corresponding notion at level k iff the field is ≥ k.
    """

    min_group_size: int  #: Def. 4.1 quantity (k-anonymity level)
    min_left_links: int  #: Def. 4.4 (1,k) quantity
    min_right_links: int  #: Def. 4.4 (k,1) quantity
    min_matches: int  #: Def. 4.6 global (1,k) quantity

    def k_anonymity_level(self) -> int:
        """Largest k for which the table is k-anonymous."""
        return self.min_group_size

    def kk_level(self) -> int:
        """Largest k for which the table is (k,k)-anonymous."""
        return min(self.min_left_links, self.min_right_links)

    def global_level(self) -> int:
        """Largest k for which the table is globally (1,k)-anonymous."""
        return self.min_matches


def anonymity_profile(
    enc: EncodedTable, node_matrix: np.ndarray, with_matches: bool = True
) -> AnonymityProfile:
    """Compute all anonymity levels of a generalization at once.

    ``with_matches=False`` skips the (more expensive) match computation
    and reports ``min_matches = 0``.
    """
    graph = ConsistencyGraph(enc, node_matrix)
    min_group = int(group_sizes(node_matrix).min())
    min_left = int(graph.left_degrees().min())
    min_right = int(graph.right_degrees().min())
    if with_matches:
        min_matches = int(graph.match_counts().min())
    else:
        min_matches = 0
    return AnonymityProfile(min_group, min_left, min_right, min_matches)
