"""Mondrian-style top-down partitioning — a second local-recoding
comparator.

LeFevre et al.'s multidimensional partitioning (cited in Section II) is
the classic *top-down* counterpart of the paper's bottom-up
agglomerative algorithm: start from one cluster holding the whole table
and recursively split while both halves keep at least k records.  This
implementation adapts it to the paper's generalization model — every
cluster is published as its closure under the permissible-subset
hierarchies, so the result is directly comparable to Algorithms 1/2 and
the forest baseline under any of the library's measures.

Split choice: the attribute whose values (in domain order) spread over
the most distinct codes inside the cluster, cut at the median record;
ties fall to the lower attribute index.  Splits that cannot give both
sides ≥ k records are skipped; a cluster with no feasible split is
emitted.
"""

from __future__ import annotations

import numpy as np

from repro.core.clustering import Clustering
from repro.core.notions import check_feasible
from repro.measures.base import CostModel
from repro.runtime import checkpoint
from repro.tabular.encoding import EncodedTable


def _best_split(
    enc: EncodedTable, members: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray] | None:
    """The Mondrian split of one cluster, or None if none is feasible."""
    codes = enc.codes[members]
    order = np.argsort(
        [-len(np.unique(codes[:, j])) for j in range(enc.num_attributes)],
        kind="stable",
    )
    # repro: allow[REP011] iterates schema attributes per split; every split hits core.mondrian.split
    for j in order:
        column = codes[:, j]
        if len(np.unique(column)) < 2:
            continue
        median = np.median(column)
        left_mask = column <= median
        # Degenerate cut (everything ≤ median): cut strictly below instead.
        if left_mask.all():
            left_mask = column < median
        if not left_mask.any() or left_mask.all():
            continue
        left = members[left_mask]
        right = members[~left_mask]
        if len(left) >= k and len(right) >= k:
            return left, right
    return None


def mondrian_clustering(model: CostModel, k: int) -> Clustering:
    """Top-down median partitioning; every cluster has ≥ k records.

    The ``model`` argument keeps the signature uniform with the other
    clustering algorithms (the split rule itself is measure-free; the
    measure only scores the result).

    Raises
    ------
    AnonymityError
        If k exceeds the table size or the table is empty.
    """
    enc = model.enc
    n = enc.num_records
    check_feasible(n, k)
    if k <= 1:
        return Clustering(n, [[i] for i in range(n)])

    finished: list[list[int]] = []
    queue: list[np.ndarray] = [np.arange(n, dtype=np.int64)]
    while queue:
        checkpoint("core.mondrian.split")
        members = queue.pop()
        split = _best_split(enc, members, k)
        if split is None:
            finished.append([int(i) for i in members])
        else:
            queue.extend(split)
    return Clustering(n, finished)
