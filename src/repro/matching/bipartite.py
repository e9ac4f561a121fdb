"""The consistency graph ``V_{D, g(D)}`` (Section IV).

The bipartite graph has the original records on the left, the generalized
records on the right, and an edge wherever the two are consistent
(Definition 3.3).  Anonymity notions read off it directly:

* (1,k): every left vertex has degree ≥ k;
* (k,1): every right vertex has degree ≥ k;
* (k,k): both;
* global (1,k): every left vertex has ≥ k *allowed* neighbours
  (:mod:`repro.matching.allowed`).

Construction is vectorized: identical original rows have identical
neighbourhoods, so consistency is evaluated once per unique row against
all generalized records, a block of unique rows at a time
(:meth:`~repro.tabular.encoding.EncodedTable.consistency_blocks`).
"""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray

from repro.runtime import checkpoint
from repro.tabular.encoding import EncodedTable


class ConsistencyGraph:
    """The bipartite consistency graph of a table and a generalization.

    Attributes
    ----------
    adjacency:
        ``adjacency[i]`` — sorted numpy array of generalized-record
        indices consistent with original record ``i``.
    """

    __slots__ = ("enc", "node_matrix", "adjacency", "_reverse_degrees")

    def __init__(self, enc: EncodedTable, node_matrix: NDArray[np.int64]) -> None:
        node_matrix = np.asarray(node_matrix)
        n = enc.num_records
        if node_matrix.shape != (n, enc.num_attributes):
            raise ValueError(
                f"node matrix has shape {node_matrix.shape}, expected "
                f"{(n, enc.num_attributes)}"
            )
        self.enc = enc
        self.node_matrix = node_matrix

        # One consistency sweep per block of unique original rows.
        unique_neighbours: list[NDArray[np.intp]] = []
        for block in enc.consistency_blocks(enc.value_masks(node_matrix)):
            for row in block:
                checkpoint("matching.bipartite.row")
                unique_neighbours.append(np.flatnonzero(row))
        self.adjacency: list[NDArray[np.intp]] = [
            unique_neighbours[g] for g in enc.unique_inverse.tolist()
        ]

        # Right-side degrees: count over all left vertices.
        edges = np.concatenate(self.adjacency) if n else np.empty(0, np.intp)
        self._reverse_degrees = np.bincount(edges, minlength=n).astype(np.int64)

    @property
    def num_records(self) -> int:
        """Number of records on each side."""
        return self.enc.num_records

    def left_degrees(self) -> NDArray[np.int64]:
        """Degree of every original record (its number of neighbours)."""
        return np.array([len(a) for a in self.adjacency], dtype=np.int64)

    def right_degrees(self) -> NDArray[np.int64]:
        """Degree of every generalized record."""
        return self._reverse_degrees.copy()

    def num_edges(self) -> int:
        """Total number of consistency edges."""
        return int(sum(len(a) for a in self.adjacency))

    def adjacency_lists(self) -> list[list[int]]:
        """Plain-list adjacency, as the matching routines expect."""
        return [a.tolist() for a in self.adjacency]

    def __repr__(self) -> str:
        return (
            f"ConsistencyGraph(n={self.num_records}, m={self.num_edges()})"
        )
