"""The consistency graph ``V_{D, g(D)}`` (Section IV).

The bipartite graph has the original records on the left, the generalized
records on the right, and an edge wherever the two are consistent
(Definition 3.3).  Anonymity notions read off it directly:

* (1,k): every left vertex has degree ≥ k;
* (k,1): every right vertex has degree ≥ k;
* (k,k): both;
* global (1,k): every left vertex has ≥ k *allowed* neighbours
  (:mod:`repro.matching.allowed`).

Construction is vectorized over both sides' duplicates: identical
original rows have identical neighbourhoods, and identical generalized
records have identical ones too.  So consistency is evaluated once per
(unique row, distinct generalization) pair, a block of unique rows at a
time (:meth:`~repro.tabular.encoding.EncodedTable.consistency_blocks`),
and the graph keeps the consistent pairs.  Degrees are weighted counts
over the pairs; the per-record adjacency is expanded from them on first
read.

Matches come from one SCC over the pairs' quotient graph
(:func:`~repro.matching.allowed.quotient_components`), with the identity
as the perfect matching whenever every record generalizes its own row;
only node matrices that break it pay for Hopcroft–Karp.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray

from repro.matching.allowed import perfect_matching, quotient_components
from repro.runtime import checkpoint
from repro.tabular.encoding import EncodedTable, unique_rows


class ConsistencyGraph:
    """The bipartite consistency graph of a table and a generalization.

    Attributes
    ----------
    gen_of, gen_counts:
        Distinct generalizations: generalized record ``v`` is distinct
        generalization ``gen_of[v]``, and ``gen_counts`` are the
        multiplicities.
    pair_rows, pair_gens:
        The consistent (unique row, distinct generalization) pairs,
        ascending by row, then by generalization.
    adjacency:
        ``adjacency[i]`` — ascending ``intp`` array of generalized-record
        indices consistent with original record ``i`` (built on first
        read).
    """

    __slots__ = (
        "enc",
        "node_matrix",
        "gen_of",
        "gen_counts",
        "pair_rows",
        "pair_gens",
        "_adjacency",
        "_components",
    )

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
        first, gen_of, gen_counts = unique_rows(node_matrix)
        gens = node_matrix[first]
        self.gen_of = gen_of.astype(np.int64)
        self.gen_counts = gen_counts.astype(np.int64)

        # One consistency sweep per block of unique original rows.
        num_gens = len(gens)
        flat: list[NDArray[np.intp]] = []
        start = 0
        for block in enc.consistency_blocks(enc.value_masks(gens)):
            checkpoint("matching.bipartite.row")
            flat.append(np.flatnonzero(block) + start * num_gens)
            start += len(block)
        pairs = np.concatenate(flat) if flat else np.empty(0, np.intp)
        self.pair_rows, self.pair_gens = np.divmod(pairs.astype(np.int64), num_gens)
        self._adjacency: list[NDArray[np.intp]] | None = None
        self._components: tuple[NDArray[np.int64], NDArray[np.int64]] | None = None

    @property
    def num_records(self) -> int:
        """Number of records on each side."""
        return self.enc.num_records

    @property
    def adjacency(self) -> list[NDArray[np.intp]]:
        """Per original record, its consistent generalized records, ascending."""
        if self._adjacency is None:
            enc = self.enc
            n = enc.num_records
            # members[first[g]:][:gen_counts[g]] are g's records, ascending;
            # each pair (r, g) expands to them, then keys sort by (r, record).
            members = np.argsort(self.gen_of, kind="stable")
            first = np.cumsum(self.gen_counts) - self.gen_counts
            sizes = self.gen_counts[self.pair_gens]
            ends = np.cumsum(sizes)
            offsets = np.repeat(first[self.pair_gens] - (ends - sizes), sizes)
            records = members[offsets + np.arange(ends[-1] if ends.size else 0)]
            keys = np.repeat(self.pair_rows * n, sizes) + records
            keys.sort()
            neighbours = (keys % max(n, 1)).astype(np.intp)
            bounds = np.searchsorted(
                keys, np.arange(enc.num_unique + 1) * n
            ).tolist()
            per_row = [neighbours[a:b] for a, b in zip(bounds, bounds[1:])]
            self._adjacency = [per_row[u] for u in enc.unique_inverse.tolist()]
        return self._adjacency

    def left_degrees(self) -> NDArray[np.int64]:
        """Degree of every original record (its number of neighbours)."""
        row_degrees = np.bincount(
            self.pair_rows,
            weights=self.gen_counts[self.pair_gens],
            minlength=self.enc.num_unique,
        )
        return row_degrees.astype(np.int64)[self.enc.unique_inverse]

    def right_degrees(self) -> NDArray[np.int64]:
        """Degree of every generalized record."""
        gen_degrees = np.bincount(
            self.pair_gens,
            weights=self.enc.unique_counts[self.pair_rows],
            minlength=len(self.gen_counts),
        )
        return gen_degrees.astype(np.int64)[self.gen_of]

    def num_edges(self) -> int:
        """Total number of consistency edges."""
        return int(
            self.gen_counts[self.pair_gens]
            @ self.enc.unique_counts[self.pair_rows]
        )

    def adjacency_lists(self) -> list[list[int]]:
        """Plain-list adjacency, as the matching routines expect."""
        return [a.tolist() for a in self.adjacency]

    def match_components(self) -> tuple[NDArray[np.int64], NDArray[np.int64]]:
        """``(left, right)`` component ids: the edge (u, v) is a match
        (Definition 4.6) iff ``left[u] == right[v]``.

        The perfect matching is the identity when every record
        generalizes its own row, and Hopcroft–Karp's otherwise.

        Raises
        ------
        MatchingError
            If the graph has no perfect matching.
        """
        row_comp, gen_comp = self._quotient()
        return row_comp[self.enc.unique_inverse], gen_comp[self.gen_of]

    def match_counts(self) -> NDArray[np.int64]:
        """Number of matches (Definition 4.6) of every original record."""
        row_comp, gen_comp = self._quotient()
        rows, gens = self.pair_rows, self.pair_gens
        hit = row_comp[rows] == gen_comp[gens]
        per_row = np.bincount(
            rows[hit],
            weights=self.gen_counts[gens[hit]],
            minlength=self.enc.num_unique,
        )
        return per_row.astype(np.int64)[self.enc.unique_inverse]

    def _quotient(self) -> tuple[NDArray[np.int64], NDArray[np.int64]]:
        """Component id of every unique row and every distinct
        generalization (:func:`~repro.matching.allowed.quotient_components`)."""
        if self._components is None:
            enc = self.enc
            matched_gens = self.gen_of
            if not enc.generalizes_rows(self.node_matrix).all():
                match_left, _ = perfect_matching(
                    self.adjacency_lists(), enc.num_records
                )
                matched_gens = self.gen_of[np.asarray(match_left, dtype=np.int64)]
            self._components = quotient_components(
                enc.unique_inverse,
                matched_gens,
                self.pair_rows,
                self.pair_gens,
                enc.num_unique,
                len(self.gen_counts),
            )
        return self._components

    def matches(self) -> list[set[int]]:
        """Per original record, its matches (Definition 4.6): the sets
        :func:`~repro.matching.allowed.allowed_edges` computes."""
        left, right = self.match_components()
        return [
            set(neigh[right[neigh] == left[u]].tolist())
            for u, neigh in enumerate(self.adjacency)
        ]

    def __repr__(self) -> str:
        return (
            f"ConsistencyGraph(n={self.num_records}, m={self.num_edges()})"
        )
