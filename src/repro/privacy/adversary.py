"""The two adversary models of Section IV-A.

*Adversary 1* knows the public data of **all** individuals in the
population and the identity of some individuals in the database.  Her
power is forward linkage — given an individual's public record, which
generalized records could be theirs? — and reverse linkage — given a
published generalized record, which individuals' public data is
consistent with it?

*Adversary 2* additionally knows **exactly which subset** of the
population is in the database.  She can build the full consistency graph
V_{D, g(D)} and prune neighbours down to *matches* (edges extending to a
perfect matching, Definition 4.6), which defeats plain (k,k)-anonymity.

The paper's conclusions, verifiable with these classes: (k,k) protects
against adversary 1 exactly like k-anonymity; only global (1,k) (and
k-anonymity itself) protect against adversary 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.matching.bipartite import ConsistencyGraph
from repro.tabular.encoding import EncodedTable


@dataclass(frozen=True)
class LinkageResult:
    """Outcome of one adversary's linkage attempt on every record.

    ``candidates[i]`` is the set of generalized-record indices the
    adversary cannot distinguish as individual i's published record; the
    smaller the set, the stronger the linkage.  ``|candidates[i]| == 1``
    means full re-identification of the record (and hence of its private
    attributes, published alongside).
    """

    adversary: str  #: "adversary-1" or "adversary-2"
    candidates: tuple[frozenset[int], ...]

    def link_counts(self) -> np.ndarray:
        """Candidate-set size per record."""
        return np.array([len(c) for c in self.candidates], dtype=np.int64)

    def min_links(self) -> int:
        """The worst (smallest) candidate-set size."""
        return int(self.link_counts().min())

    def reidentified(self) -> list[int]:
        """Records the adversary pins to a single generalized record."""
        return [i for i, c in enumerate(self.candidates) if len(c) == 1]

    def breaches(self, k: int) -> list[int]:
        """Records linked to fewer than k generalized records — the
        privacy guarantee the k-type notions promise is exactly that
        this list is empty."""
        return [i for i, c in enumerate(self.candidates) if len(c) < k]


class Adversary1:
    """Knows all public data; links by consistency alone."""

    name = "adversary-1"

    def attack(self, enc: EncodedTable, node_matrix: np.ndarray) -> LinkageResult:
        """For every individual, the consistent generalized records.

        A (1,k)-anonymization guarantees every candidate set has ≥ k
        members against this adversary.
        """
        graph = ConsistencyGraph(enc, node_matrix)
        candidates = tuple(
            frozenset(int(v) for v in neigh) for neigh in graph.adjacency
        )
        return LinkageResult(self.name, candidates)

    def reverse_attack(
        self, enc: EncodedTable, node_matrix: np.ndarray
    ) -> list[frozenset[int]]:
        """For every *generalized* record, the consistent individuals.

        This is the attack that breaks (1,k)-only tables (the suppressed-
        tail example of Section IV-A): a published record consistent with
        a single individual's public data reveals that individual's row —
        precisely what (k,1)-anonymity rules out.
        """
        graph = ConsistencyGraph(enc, node_matrix)
        n = enc.num_records
        reverse: list[set[int]] = [set() for _ in range(n)]
        for i, neigh in enumerate(graph.adjacency):
            for j in neigh:
                reverse[int(j)].add(i)
        return [frozenset(s) for s in reverse]


class Adversary2:
    """Knows the exact database population; links via matchings."""

    name = "adversary-2"

    def attack(self, enc: EncodedTable, node_matrix: np.ndarray) -> LinkageResult:
        """For every individual, the *matches* (Definition 4.6).

        Candidate sets of size < k on a (k,k)-anonymized table are the
        Section IV-A attack; a global (1,k)-anonymization guarantees
        every candidate set has ≥ k members even here.
        """
        graph = ConsistencyGraph(enc, node_matrix)
        candidates = tuple(frozenset(s) for s in graph.matches())
        return LinkageResult(self.name, candidates)
