"""Clusterings of a table and their induced generalizations.

Both agglomerative algorithms (and the forest baseline) produce a
*clustering* γ = {S_1, ..., S_m} of the records; the anonymization then
replaces every record by the closure of its cluster (end of Section
V-A.1).  This module holds the clustering value object and that
translation.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.errors import AnonymityError
from repro.measures.base import CostModel
from repro.tabular.encoding import EncodedTable


class Clustering:
    """A partition of the record indices ``0..n-1`` into clusters.

    Parameters
    ----------
    num_records:
        The table size n; the clusters must partition ``range(n)``.
    clusters:
        Iterable of iterables of record indices.

    Raises
    ------
    AnonymityError
        If the clusters do not form a partition of ``range(n)``.
    """

    __slots__ = ("_clusters", "_num_records", "_assignment")

    def __init__(self, num_records: int, clusters: Iterable[Iterable[int]]) -> None:
        clusters_t = tuple(tuple(int(i) for i in c) for c in clusters)
        assignment = np.full(num_records, -1, dtype=np.int64)
        for ci, cluster in enumerate(clusters_t):
            if not cluster:
                raise AnonymityError("clusterings may not contain empty clusters")
            for i in cluster:
                if not 0 <= i < num_records:
                    raise AnonymityError(
                        f"record index {i} out of range 0..{num_records - 1}"
                    )
                if assignment[i] != -1:
                    raise AnonymityError(f"record {i} appears in two clusters")
                assignment[i] = ci
        missing = int((assignment == -1).sum())
        if missing:
            raise AnonymityError(f"{missing} records are not covered by any cluster")
        self._clusters = clusters_t
        self._num_records = num_records
        self._assignment = assignment

    @property
    def clusters(self) -> tuple[tuple[int, ...], ...]:
        """The clusters, each a tuple of record indices."""
        return self._clusters

    @property
    def num_records(self) -> int:
        """Number of records partitioned."""
        return self._num_records

    @property
    def num_clusters(self) -> int:
        """Number of clusters m."""
        return len(self._clusters)

    def cluster_of(self, record: int) -> int:
        """Index of the cluster containing ``record``."""
        return int(self._assignment[record])

    def sizes(self) -> np.ndarray:
        """Cluster sizes, in cluster order."""
        return np.array([len(c) for c in self._clusters], dtype=np.int64)

    def min_cluster_size(self) -> int:
        """The smallest cluster size (≥ k certifies k-anonymity)."""
        return int(self.sizes().min())

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return iter(self._clusters)

    def __len__(self) -> int:
        return len(self._clusters)

    def __repr__(self) -> str:
        sizes = self.sizes()
        return (
            f"Clustering({self.num_clusters} clusters over "
            f"{self._num_records} records, sizes {sizes.min()}..{sizes.max()})"
        )


def clustering_to_nodes(enc: EncodedTable, clustering: Clustering) -> np.ndarray:
    """Node matrix of the generalization induced by a clustering.

    Every record is mapped to the closure of its cluster — the minimal
    generalized record consistent with all cluster members.
    """
    if clustering.num_records != enc.num_records:
        raise AnonymityError(
            f"clustering covers {clustering.num_records} records, table has "
            f"{enc.num_records}"
        )
    node_matrix = np.empty((enc.num_records, enc.num_attributes), dtype=np.int32)
    if clustering.num_clusters:
        closures = cluster_closures(enc, clustering.clusters)
        node_matrix[np.concatenate(clustering.clusters)] = np.repeat(
            closures, clustering.sizes(), axis=0
        )
    return node_matrix


def cluster_closures(
    enc: EncodedTable, clusters: Sequence[Sequence[int]]
) -> np.ndarray:
    """Closure nodes ``int32[m, r]`` of every (non-empty) cluster.

    Under :attr:`~repro.tabular.encoding.EncodedTable.exact_joins` a
    closure is the join fold of its members' singleton nodes, so all
    clusters are folded together, one member column at a time: clusters
    sorted by size, longest first, so column c is a prefix of them, and
    one ``join_rows`` per column.  The node of a fold is the node
    :meth:`~repro.tabular.encoding.EncodedTable.closure_of_records`
    returns, which is what every other collection gets, per cluster.
    """
    m, r = len(clusters), enc.num_attributes
    out = np.empty((m, r), dtype=np.int32)
    if not enc.exact_joins:
        # repro: allow[REP011] one closure per finished cluster, O(n) records in all
        for i, cluster in enumerate(clusters):
            out[i] = enc.closure_of_records(cluster)
        return out
    if not m:
        return out
    sizes = np.fromiter(map(len, clusters), dtype=np.int64, count=m)
    order = np.argsort(-sizes, kind="stable")
    members = np.concatenate([np.asarray(clusters[i], dtype=np.int64) for i in order])
    longest = sizes[order]
    starts = np.cumsum(longest) - longest
    singles = enc.singleton_nodes
    nodes = singles[members[starts]]
    # repro: allow[REP011] one join per member column, O(n) lookups in all
    for c in range(1, int(longest[0])):
        live = int(np.searchsorted(-longest, -c))  # clusters longer than c
        nodes[:live] = enc.join_rows(nodes[:live], singles[members[starts[:live] + c]])
    out[order] = nodes
    return out


def clustering_cost(
    model: CostModel, clustering: Clustering
) -> float:
    """Π of the generalization induced by a clustering (eq. 7)."""
    return model.clustering_cost(clustering.clusters)


def clusters_from_assignment(assignment: Sequence[int]) -> Clustering:
    """Build a clustering from a per-record cluster-id array."""
    groups: dict[int, list[int]] = {}
    for i, c in enumerate(assignment):
        groups.setdefault(int(c), []).append(i)
    ordered = [groups[key] for key in sorted(groups)]
    return Clustering(len(assignment), ordered)
