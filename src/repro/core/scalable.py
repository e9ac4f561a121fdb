"""Blocked agglomerative anonymization — the §VII scalability item.

The paper's conclusions ask for "more scalable algorithms".  The
agglomerative engine is O(n²) with an O(n²) memory footprint (the
pairwise matrix), which binds at n in the tens of thousands.  This
module implements the natural blocking scheme:

1. *Pre-partition* the records into blocks of bounded size with the
   (cheap, O(n log n)) Mondrian median splitter — which groups records
   that are already close in the quasi-identifier space;
2. run the full Algorithm 1/2 machinery *within* each block.

Each block is anonymized independently, so the result is k-anonymous
(every within-block cluster has ≥ k records), total time drops to
O(n·B) for block size B, and the distance matrix shrinks to B².  The
price is merges that can no longer cross block boundaries; the
`bench_scalable.py` benchmark quantifies the quality loss (typically a
few percent) against the wall-clock gain.
"""

from __future__ import annotations

import numpy as np

from repro.core.agglomerative import agglomerative_clustering
from repro.core.clustering import Clustering
from repro.core.distances import ClusterDistance
from repro.errors import AnonymityError
from repro.measures.base import CostModel
from repro.runtime import checkpoint
from repro.tabular.encoding import EncodedTable


def _partition_blocks(
    enc: EncodedTable, block_size: int, k: int
) -> list[np.ndarray]:
    """Mondrian-style median splits until blocks fit ``block_size``.

    Splits keep both sides ≥ max(k, block_size // 4) so no block ever
    drops below k records.
    """
    floor = max(k, block_size // 4)
    blocks: list[np.ndarray] = []
    queue: list[np.ndarray] = [np.arange(enc.num_records, dtype=np.int64)]
    # repro: allow[REP011] emits blocks of >= block_size//4 records, at most 4n/block_size rounds; each block hits core.scalable.block
    while queue:
        members = queue.pop()
        if len(members) <= block_size:
            blocks.append(members)
            continue
        codes = enc.codes[members]
        order = np.argsort(
            [-len(np.unique(codes[:, j])) for j in range(enc.num_attributes)],
            kind="stable",
        )
        split = None
        for j in order:
            column = codes[:, j]
            if len(np.unique(column)) < 2:
                continue
            median = np.median(column)
            left_mask = column <= median
            if left_mask.all():
                left_mask = column < median
            left, right = members[left_mask], members[~left_mask]
            if len(left) >= floor and len(right) >= floor:
                split = (left, right)
                break
        if split is None:
            blocks.append(members)  # unsplittable (near-uniform) block
        else:
            queue.extend(split)
    return blocks


def blocked_agglomerative(
    model: CostModel,
    k: int,
    distance: ClusterDistance,
    block_size: int = 512,
    modified: bool = False,
) -> Clustering:
    """Algorithm 1/2 inside Mondrian blocks of at most ``block_size``.

    Parameters
    ----------
    model:
        Cost model over the full table.
    k:
        Anonymity parameter.
    distance:
        Cluster distance for the within-block agglomeration.
    block_size:
        Upper bound on block size; the O(n²) engine only ever sees
        tables this large.  Must be ≥ 2k so blocks can host at least
        two clusters.
    modified:
        Forwarded to the within-block engine (Algorithm 2 shrinking).

    Returns
    -------
    A :class:`Clustering` of the full table with every cluster ≥ k.
    """
    enc = model.enc
    n = enc.num_records
    if n == 0:
        raise AnonymityError("cannot anonymize an empty table")
    if k > n:
        raise AnonymityError(f"k={k} exceeds the number of records n={n}")
    if block_size < 2 * k:
        raise AnonymityError(
            f"block_size={block_size} must be at least 2k={2 * k}"
        )
    if k <= 1:
        return Clustering(n, [[i] for i in range(n)])

    blocks = _partition_blocks(enc, block_size, k)
    clusters: list[list[int]] = []
    for members in blocks:
        checkpoint("core.scalable.block")
        sub_model = model.block(members)
        sub_clustering = agglomerative_clustering(
            sub_model, k, distance, modified=modified
        )
        for cluster in sub_clustering.clusters:
            clusters.append([int(members[i]) for i in cluster])
    return Clustering(n, clusters)

