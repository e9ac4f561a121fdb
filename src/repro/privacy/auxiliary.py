"""Adversary 3 — auxiliary private knowledge (§IV-A, last paragraph).

The paper mentions, and defers to its full version, "an even stronger
adversary — one that also has auxiliary knowledge such as the private
data of some of the individuals in the database".  This module supplies
a concrete model of her:

She has everything adversary 2 has (all public data, the exact database
population, hence the consistency graph), *plus* the true sensitive
value of some individuals.  Since releases publish the sensitive column
verbatim next to the generalized quasi-identifiers, every known
individual u can only correspond to published records carrying u's
sensitive value — so she deletes all other edges at u and recomputes
matches on the pruned graph.  Crucially the pruning *propagates*: fixing
the known individuals' possibilities shrinks the perfect-matching
structure and can cut candidate sets of individuals she knows nothing
about.

The identity correspondence always survives the pruning (each record's
own published row carries its own sensitive value), so the pruned graph
retains a perfect matching and Definition 4.6's match machinery applies
unchanged.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.errors import AnonymityError
from repro.matching.allowed import allowed_edges
from repro.matching.bipartite import ConsistencyGraph
from repro.privacy.adversary import LinkageResult
from repro.tabular.encoding import EncodedTable


class Adversary3:
    """Adversary 2 plus known sensitive values for some individuals.

    Parameters
    ----------
    known_records:
        Indices of the individuals whose sensitive value the adversary
        already knows (the values themselves are read off the table's
        private rows — the adversary's knowledge is correct by
        assumption).
    sensitive_attribute:
        Which private column she knows; defaults to the first.
    """

    name = "adversary-3"

    def __init__(
        self,
        known_records: Iterable[int],
        sensitive_attribute: str | None = None,
    ) -> None:
        self.known_records = frozenset(int(i) for i in known_records)
        self.sensitive_attribute = sensitive_attribute

    def attack(self, enc: EncodedTable, node_matrix: np.ndarray) -> LinkageResult:
        """Match-based candidates on the auxiliary-pruned graph."""
        n = enc.num_records
        for i in self.known_records:
            if not 0 <= i < n:
                raise AnonymityError(
                    f"known record index {i} out of range 0..{n - 1}"
                )
        sensitive = enc.table.private_column(self.sensitive_attribute)
        graph = ConsistencyGraph(enc, node_matrix)
        adjacency = []
        for u in range(n):
            neighbours = graph.adjacency[u]
            if u in self.known_records:
                value = sensitive[u]
                neighbours = [
                    int(j) for j in neighbours if sensitive[int(j)] == value
                ]
            else:
                neighbours = [int(j) for j in neighbours]
            adjacency.append(neighbours)
        allowed = allowed_edges(adjacency, n)
        return LinkageResult(
            self.name, tuple(frozenset(int(v) for v in s) for s in allowed)
        )


def auxiliary_damage(
    enc: EncodedTable,
    node_matrix: np.ndarray,
    known_records: Iterable[int],
    sensitive_attribute: str | None = None,
) -> dict[int, tuple[int, int]]:
    """How much auxiliary knowledge hurts the *unknown* individuals.

    Returns, for every record the adversary does **not** know, the pair
    (matches under adversary 2, matches under adversary 3) whenever the
    two differ — the collateral damage of other people's data leaking.
    """
    from repro.privacy.adversary import Adversary2

    known = frozenset(int(i) for i in known_records)
    before = Adversary2().attack(enc, node_matrix)
    after = Adversary3(known, sensitive_attribute).attack(enc, node_matrix)
    damage = {}
    for i in range(enc.num_records):
        if i in known:
            continue
        b, a = len(before.candidates[i]), len(after.candidates[i])
        if a != b:
            damage[i] = (b, a)
    return damage
