"""The forest algorithm of Aggarwal et al. [2, 3] — the paper's baseline.

The paper compares its agglomerative algorithms against this "best
practical k-anonymization algorithm with a provable approximation
guarantee" (ratio 3k−3).  Construction, following the cited papers:

Phase 1 (forest building).  Start with singleton components.  While any
component has fewer than k records, attach it to another component via
its minimum-cost outgoing edge, where the cost of edge (R_i, R_j) is the
pairwise generalization cost d({R_i, R_j}).  Components are processed in
Borůvka-style rounds; the result is a forest whose every tree has ≥ k
records.

Phase 2 (tree decomposition).  Trees larger than necessary are split
into parts of size in [k, 3k−2]: children of each node are grouped
greedily bottom-up, cutting a group as soon as it reaches k records, and
a final undersized remainder is merged into the last part cut.  (Parts
need not be connected in the tree — a cluster is just a set of records;
connectivity plays no role in the closure or its cost.)

Each part becomes a cluster; records are published as their cluster's
closure, exactly like the agglomerative algorithms.
"""

from __future__ import annotations

import numpy as np

from repro.core.clustering import Clustering
from repro.core.notions import check_feasible
from repro.errors import AnonymityError
from repro.measures.base import CostModel, FusedJoinCost
from repro.runtime import checkpoint
from repro.structures.union_find import UnionFind


def _build_forest(model: CostModel, k: int) -> tuple[UnionFind, list[tuple[int, int]]]:
    """Phase 1: link components of size < k to their nearest neighbours."""
    enc = model.enc
    n = enc.num_records
    u_nodes = enc.unique_singleton_nodes
    # d({row_a, row_b}) for all pairs of unique rows, ``[u, u]``: the
    # join tables are symmetric, so row a prices every row against a.
    pair_cost = FusedJoinCost(model).costs(
        np.ascontiguousarray(u_nodes.T, dtype=np.intp), u_nodes
    )
    row_of = enc.unique_inverse  # record -> unique row
    records_of_row: list[list[int]] = [[] for _ in range(enc.num_unique)]
    # repro: allow[REP011] O(n) record bucketing at setup, before the checkpointed rounds
    for i in range(n):
        records_of_row[row_of[i]].append(i)

    uf = UnionFind(n)
    edges: list[tuple[int, int]] = []
    while True:
        checkpoint("core.forest.round")
        groups = uf.groups()
        small = sorted(
            (members for members in groups.values() if len(members) < k),
            key=lambda members: members[0],
        )
        if not small:
            break
        for members in small:
            checkpoint("core.forest.component")
            # ``members`` is this round's snapshot; the component may have
            # grown since via another small component's link.  A stale
            # (subset) view is still a valid source for an outgoing edge.
            root = uf.find(members[0])
            if uf.size_of(root) >= k:
                continue
            member_arr = np.asarray(members, dtype=np.int64)
            inside_rows = np.unique(row_of[member_arr])
            costs_to_all = pair_cost[inside_rows].min(axis=0)
            order = np.argsort(costs_to_all, kind="stable")
            linked = False
            for b in order:
                b = int(b)
                # A record with row b strictly outside the current component.
                target = next(
                    (rec for rec in records_of_row[b] if uf.find(rec) != root),
                    None,
                )
                if target is None:
                    continue
                a_row = int(inside_rows[int(pair_cost[inside_rows, b].argmin())])
                source = next(rec for rec in members if row_of[rec] == a_row)
                edges.append((source, target))
                uf.union(source, target)
                linked = True
                break
            if not linked:
                raise AnonymityError(
                    "internal error: no outgoing edge from a small component"
                )
    return uf, edges


def _decompose_tree(
    members: list[int], edges: list[tuple[int, int]], k: int
) -> list[list[int]]:
    """Phase 2: split one tree into parts of size in [k, 3k−2]."""
    if len(members) < 2 * k:
        return [members]
    member_set = set(members)
    adjacency: dict[int, list[int]] = {i: [] for i in members}
    # repro: allow[REP011] bounded by one component's size; one call per core.forest.component checkpoint
    for a, b in edges:
        if a in member_set and b in member_set:
            adjacency[a].append(b)
            adjacency[b].append(a)

    root = min(members)
    parent: dict[int, int] = {root: root}
    order: list[int] = [root]
    stack = [root]
    # repro: allow[REP011] bounded by one component's size; one call per core.forest.component checkpoint
    while stack:
        v = stack.pop()
        for w in adjacency[v]:
            if w not in parent:
                parent[w] = v
                order.append(w)
                stack.append(w)

    parts: list[list[int]] = []
    # carry[v]: records accumulated at v, not yet cut into a part.
    carry: dict[int, list[int]] = {v: [v] for v in members}
    # repro: allow[REP011] bounded by one component's size; one call per core.forest.component checkpoint
    for v in reversed(order):  # children before parents
        if v != root:
            p = parent[v]
            bucket = carry[p]
            bucket.extend(carry[v])
            carry[v] = []
            # Cut as soon as the parent's bucket (minus the parent itself,
            # which stays to keep the remainder attached) reaches k.
            if len(bucket) - 1 >= k:
                parts.append([x for x in bucket if x != p])
                carry[p] = [p]
        else:
            bucket = carry[root]
            if len(bucket) >= k:
                parts.append(bucket)
            elif parts:
                parts[-1].extend(bucket)
            else:  # pragma: no cover - tree has ≥ k members by phase 1
                parts.append(bucket)
    return parts


def forest_clustering(model: CostModel, k: int) -> Clustering:
    """Run the full forest algorithm; every cluster has ≥ k records."""
    n = model.enc.num_records
    check_feasible(n, k)
    if k <= 1:
        return Clustering(n, [[i] for i in range(n)])
    uf, edges = _build_forest(model, k)
    clusters: list[list[int]] = []
    # repro: allow[REP011] final assembly pass over the forest's components
    for members in uf.groups().values():
        clusters.extend(_decompose_tree(sorted(members), edges, k))
    return Clustering(n, clusters)
