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
from repro.core.notions import check_feasible
from repro.errors import AnonymityError
from repro.measures.base import CostModel, FusedJoinCost
from repro.runtime import checkpoint


def kmember_clustering(model: CostModel, k: int) -> Clustering:
    """Greedy k-member partitioning; every cluster has ≥ k records.

    Candidates are priced by the join→cost kernel; only the union a
    step picks is materialized.

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

    fused = FusedJoinCost(model)
    unassigned = np.ones(n, dtype=bool)
    singletons = enc.singleton_nodes
    singletons_t = np.ascontiguousarray(singletons.T, dtype=np.intp)
    clusters: list[list[int]] = []
    # The "previous seed" starts as the first record, per the original
    # algorithm's arbitrary initialization (deterministic here).
    anchor_nodes = singletons[0]

    while int(unassigned.sum()) >= k:
        checkpoint("core.kmember.cluster")
        candidates = np.flatnonzero(unassigned)
        # Seed: the unassigned record furthest from the previous anchor.
        pair_costs = fused.costs(singletons_t[:, candidates], anchor_nodes)
        seed = int(candidates[int(pair_costs.argmax())])
        members = [seed]
        unassigned[seed] = False
        cur = singletons[seed]
        while len(members) < k:
            candidates = np.flatnonzero(unassigned)
            costs = fused.costs(singletons_t[:, candidates], cur)
            chosen = int(candidates[int(costs.argmin())])
            members.append(chosen)
            unassigned[chosen] = False
            cur = enc.join_rows(singletons[chosen], cur)
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
            costs = fused.costs(closure_nodes.T, singletons[record])
            target = int((costs - closure_costs).argmin())
            clusters[target].append(record)
            closure_nodes[target] = enc.join_rows(
                closure_nodes[target], singletons[record]
            )
            closure_costs[target] = costs[target]
    return Clustering(n, clusters)
