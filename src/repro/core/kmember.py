"""Greedy k-member clustering (Byun et al.), a third clustering comparator.

Section II notes that clustering-based anonymization (Aggarwal et
al. [1]) is an alternative route to the same goal and that the paper's
"anonymity notions are independent of the underlying clustering
method".  The k-member algorithm is the classic greedy representative
of that family and a natural foil for the agglomerative engine:

1. start a cluster from the record *furthest* (by pairwise closure
   cost) from the previously completed cluster's seed;
2. grow it one record at a time, always adding the record whose
   addition increases the cluster's cost least (the same increment rule
   as Algorithm 4, but partitioning instead of overlapping);
3. when the cluster reaches k records, close it and repeat; leftover
   records (< k) join their individually cheapest clusters.

Every cluster has exactly k records (bar the leftover top-ups), so the
output is k-anonymous.  Complexity O(n²/k · n) worst case, vectorized
over unique rows like everything else.
"""

from __future__ import annotations

import numpy as np

from repro.core.clustering import Clustering, cluster_closures
from repro.errors import AnonymityError
from repro.measures.base import CostModel
from repro.runtime import checkpoint


def kmember_clustering(model: CostModel, k: int) -> Clustering:
    """Greedy k-member partitioning; every cluster has ≥ k records.

    Raises
    ------
    AnonymityError
        If k exceeds the table size or the table is empty.
    """
    enc = model.enc
    n = enc.num_records
    if n == 0:
        raise AnonymityError("cannot anonymize an empty table")
    if k > n:
        raise AnonymityError(f"k={k} exceeds the number of records n={n}")
    if k <= 1:
        return Clustering(n, [[i] for i in range(n)])

    unassigned = np.ones(n, dtype=bool)
    singletons = enc.singleton_nodes
    clusters: list[list[int]] = []
    # The "previous seed" starts as the first record, per the original
    # algorithm's arbitrary initialization (deterministic here).
    anchor_nodes = singletons[0]

    while int(unassigned.sum()) >= k:
        checkpoint("core.kmember.cluster")
        candidates = np.flatnonzero(unassigned)
        # Seed: the unassigned record furthest from the previous anchor.
        pair_costs = np.asarray(
            model.record_cost(
                enc.join_rows(singletons[candidates], anchor_nodes)
            ),
            dtype=np.float64,
        )
        seed = int(candidates[int(pair_costs.argmax())])
        members = [seed]
        unassigned[seed] = False
        cur = singletons[seed].copy()
        cur_cost = float(model.record_cost(cur))
        while len(members) < k:
            candidates = np.flatnonzero(unassigned)
            union = enc.join_rows(singletons[candidates], cur)
            costs = np.asarray(model.record_cost(union), dtype=np.float64)
            pick = int(costs.argmin())
            chosen = int(candidates[pick])
            members.append(chosen)
            unassigned[chosen] = False
            cur = union[pick]
            cur_cost = float(costs[pick])
        clusters.append(members)
        anchor_nodes = cur

    # Leftovers (< k): each joins the cluster whose cost grows least.
    leftover = [int(i) for i in np.flatnonzero(unassigned)]
    if leftover and not clusters:  # pragma: no cover - excluded by k ≤ n
        raise AnonymityError("internal error: no cluster to absorb leftovers")
    if leftover:
        closure_nodes = cluster_closures(enc, clusters)
        closure_costs = np.asarray(
            model.record_cost(closure_nodes), dtype=np.float64
        )
        # repro: allow[REP011] distributes the < k leftover records after the checkpointed clustering loop
        for record in leftover:
            union = enc.join_rows(closure_nodes, singletons[record])
            costs = np.asarray(model.record_cost(union), dtype=np.float64)
            delta = costs - closure_costs
            target = int(delta.argmin())
            clusters[target].append(record)
            closure_nodes[target] = union[target]
            closure_costs[target] = costs[target]
    return Clustering(n, clusters)
