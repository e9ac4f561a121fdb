"""Slow reference implementations, for differential testing.

The production agglomerative engine (:mod:`repro.core.agglomerative`)
earns its O(n²) bound with cached closures, a pairwise distance matrix,
per-row minima and batched repairs — exactly the machinery where subtle
staleness bugs live.  :func:`reference_agglomerative` transcribes the
merge order that module's docstring specifies *literally*: a list of n
optional clusters and a last-in first-out free list, closures and costs
recomputed from scratch on every iteration, and a full scan of the
pairs ``a < b`` with a strict ``<``, so the first least pair wins.  The
engine must reproduce it exactly, ties included.

The (k,1)/(1,k) family gets the same treatment:
:func:`reference_k1_nearest`, :func:`reference_k1_expansion`,
:func:`reference_one_k` and :func:`reference_global_one_k` price every
candidate union by materializing it (one ``join_rows`` + ``record_cost``
per anchor or record), and :func:`reference_adjacency` builds the
consistency graph with one ``consistency_mask`` per record.  Their
production counterparts — fused join→cost pricing over blocks of
anchors, value masks over blocks of unique rows — must reproduce them
byte for byte, ties included: both sides use first-index argmins and
stable sorts.

Only suitable for tiny tables (the scan is O(n³) overall); never use it
outside tests.
"""

from __future__ import annotations

import numpy as np

from repro.core.clustering import Clustering
from repro.core.distances import ClusterDistance
from repro.core.notions import check_feasible
from repro.errors import AnonymityError
from repro.matching.allowed import allowed_edges
from repro.measures.base import CostModel
from repro.tabular.encoding import EncodedTable


def _values(
    model: CostModel,
    distance: ClusterDistance,
    cluster_a: list[int],
    clusters_b: list[list[int]],
) -> np.ndarray:
    """``dist(A, B)`` for each B, with A as the A side: every cost is
    the record cost of a closure, and a union is priced at the join of
    the two closures."""
    enc = model.enc
    closure_a = enc.closure_of_records(cluster_a)
    closures_b = np.array([enc.closure_of_records(b) for b in clusters_b])
    return np.asarray(
        distance.evaluate(
            len(cluster_a),
            model.record_cost(closure_a),
            np.array([len(b) for b in clusters_b]),
            model.record_cost(closures_b),
            model.record_cost(enc.join_rows(closures_b, closure_a)),
        ),
        dtype=np.float64,
    )


def _least_pair(
    model: CostModel,
    distance: ClusterDistance,
    slots: list[list[int] | None],
) -> tuple[int, int]:
    """Line 4: the live slots a < b of least ``dist(a, b)``, the lower
    slot as A; the strict ``<`` keeps the first, i.e. lowest, least pair."""
    live = [(s, cluster) for s, cluster in enumerate(slots) if cluster is not None]
    best: tuple[float, int, int] | None = None
    for i, (a, cluster_a) in enumerate(live):
        later = live[i + 1 :]
        if not later:
            continue
        values = _values(model, distance, cluster_a, [c for _, c in later])
        for (b, _), d in zip(later, values):
            if best is None or d < best[0]:
                best = (d, a, b)
    assert best is not None
    return best[1], best[2]


def reference_agglomerative(
    model: CostModel,
    k: int,
    distance: ClusterDistance,
    modified: bool = False,
) -> Clustering:
    """Algorithm 1 (and 2 with ``modified=True``) in the slot model of
    :mod:`repro.core.agglomerative`, transcribed literally."""
    n = model.enc.num_records
    if n == 0:
        raise AnonymityError("cannot anonymize an empty table")
    if k > n:
        raise AnonymityError(f"k={k} exceeds the number of records n={n}")
    if k <= 1:
        return Clustering(n, [[i] for i in range(n)])

    slots: list[list[int] | None] = [[i] for i in range(n)]
    free: list[int] = []
    output: list[list[int]] = []
    while sum(cluster is not None for cluster in slots) > 1:
        a, b = _least_pair(model, distance, slots)
        merged = slots[a] + slots[b]  # type: ignore[operator]
        slots[b] = None
        free.append(b)
        if len(merged) < k:
            slots[a] = merged
            continue
        expelled: list[int] = []
        if modified and len(merged) > k:
            merged, expelled = _shrink(model, distance, merged, k)
        output.append(merged)
        slots[a] = None
        free.append(a)
        for record in expelled:
            slots[free.pop()] = [record]

    for leftover in slots:
        if leftover is None:
            continue
        for record in leftover:
            values = _values(model, distance, [record], output)
            best_t = 0
            for t, d in enumerate(values):
                if d < values[best_t]:
                    best_t = t
            output[best_t].append(record)
    return Clustering(n, output)


def _shrink(
    model: CostModel,
    distance: ClusterDistance,
    members: list[int],
    k: int,
) -> tuple[list[int], list[int]]:
    """Algorithm 2: expel the first member of greatest
    ``dist(S, S ∖ {R_i})`` until k remain."""
    kept = list(members)
    expelled: list[int] = []
    while len(kept) > k:
        size = len(kept)
        cost_full = model.cluster_cost(kept)
        best_i, best_d = 0, float("-inf")
        for i in range(size):
            rest = kept[:i] + kept[i + 1 :]
            d_i = float(
                distance.evaluate(
                    size, cost_full, size - 1, model.cluster_cost(rest),
                    cost_full,
                )
            )
            if d_i > best_d:
                best_i, best_d = i, d_i
        expelled.append(kept.pop(best_i))
    return kept, expelled


# ---------------------------------------------------------------------- #
# (k,1) / (1,k): Algorithms 3-6, one materialized union per candidate set
# ---------------------------------------------------------------------- #


def reference_k1_nearest(model: CostModel, k: int) -> np.ndarray:
    """Algorithm 3, one anchor at a time."""
    check_feasible(model.enc.num_records, k)
    enc = model.enc
    if k <= 1:
        return enc.singleton_nodes.copy()
    u_nodes = enc.unique_singleton_nodes
    counts = enc.unique_counts
    unique_result = np.empty_like(u_nodes)
    for a in range(enc.num_unique):
        union = enc.join_rows(u_nodes, u_nodes[a])
        pair_cost = np.asarray(model.record_cost(union), dtype=np.float64)
        order = np.argsort(pair_cost, kind="stable")
        closure = u_nodes[a].copy()
        need = k - 1 - min(int(counts[a]) - 1, k - 1)  # duplicates are free
        for b in order:
            if need <= 0:
                break
            if b == a:
                continue
            closure = enc.join_rows(closure, u_nodes[b])
            need -= min(int(counts[b]), need)
        unique_result[a] = closure
    return unique_result[enc.unique_inverse]


def reference_k1_expansion(model: CostModel, k: int) -> np.ndarray:
    """Algorithm 4, one anchor and one grow step at a time."""
    check_feasible(model.enc.num_records, k)
    enc = model.enc
    if k <= 1:
        return enc.singleton_nodes.copy()
    u_nodes = enc.unique_singleton_nodes
    counts = enc.unique_counts
    unique_result = np.empty_like(u_nodes)
    for a in range(enc.num_unique):
        remaining = counts.copy()
        remaining[a] -= 1
        cur = u_nodes[a].copy()
        cur_cost = float(model.record_cost(cur))
        for _ in range(k - 1):
            union = enc.join_rows(u_nodes, cur)
            cost_union = np.asarray(model.record_cost(union), dtype=np.float64)
            delta = cost_union - cur_cost
            delta[remaining <= 0] = np.inf
            b = int(delta.argmin())
            cur = union[b]
            cur_cost = float(cost_union[b])
            remaining[b] -= 1
        unique_result[a] = cur
    return unique_result[enc.unique_inverse]


def _check_generalizes(enc: EncodedTable, nodes: np.ndarray) -> None:
    for i in range(enc.num_records):
        if not bool(enc.consistency_mask(i, nodes[i])):
            raise AnonymityError(
                f"generalized record {i} does not generalize original record {i}"
            )


def reference_one_k(
    model: CostModel,
    node_matrix: np.ndarray,
    k: int,
    join_with: str = "generalized",
) -> np.ndarray:
    """Algorithm 5, one record at a time, costs recomputed from scratch."""
    enc = model.enc
    n = enc.num_records
    if k > n:
        raise AnonymityError(f"k={k} exceeds the number of records n={n}")
    nodes = np.array(node_matrix, dtype=np.int32, copy=True)
    _check_generalizes(enc, nodes)
    for i in range(n):
        consistent = enc.consistency_mask(i, nodes)
        ell = int(consistent.sum())
        if ell >= k:
            continue
        candidates = np.flatnonzero(~consistent)
        anchor = nodes[i] if join_with == "generalized" else enc.singleton_nodes[i]
        union = enc.join_rows(nodes[candidates], anchor)
        cost_new = np.asarray(model.record_cost(union), dtype=np.float64)
        cost_old = np.asarray(
            model.record_cost(nodes[candidates]), dtype=np.float64
        )
        order = np.argsort(cost_new - cost_old, kind="stable")[: k - ell]
        nodes[candidates[order]] = union[order]
    return nodes


def reference_adjacency(
    enc: EncodedTable, node_matrix: np.ndarray
) -> tuple[list[np.ndarray], np.ndarray]:
    """The consistency graph, one record at a time: per original record
    its sorted consistent generalized records, and the right degrees."""
    node_matrix = np.asarray(node_matrix)
    n = enc.num_records
    adjacency = [
        np.flatnonzero(enc.consistency_mask(i, node_matrix)) for i in range(n)
    ]
    right = np.zeros(n, dtype=np.int64)
    for neighbours in adjacency:
        right[neighbours] += 1
    return adjacency, right


def reference_global_one_k(
    model: CostModel,
    node_matrix: np.ndarray,
    k: int,
    max_passes: int | None = None,
) -> np.ndarray:
    """Algorithm 6: per pass, allowed edges of the reference graph, then
    one materialized fix per deficient record."""
    enc = model.enc
    n = enc.num_records
    nodes = np.array(node_matrix, dtype=np.int32, copy=True)
    _check_generalizes(enc, nodes)
    if max_passes is None:
        max_passes = k + 1
    passes = 0
    while True:
        adjacency, _ = reference_adjacency(enc, nodes)
        lists = [a.tolist() for a in adjacency]
        if min(len(a) for a in lists) < k:
            raise AnonymityError("input is not a (1,k)-anonymization")
        allowed = allowed_edges(lists, n)
        deficient = [i for i in range(n) if len(allowed[i]) < k]
        if not deficient:
            return nodes
        if passes == max_passes:
            raise AnonymityError(
                f"Algorithm 6 did not converge within {max_passes} passes"
            )
        passes += 1
        for i in deficient:
            cand = [j for j in lists[i] if j not in allowed[i]]
            union = enc.join_rows(enc.singleton_nodes[cand], nodes[i])
            cost_new = np.asarray(model.record_cost(union), dtype=np.float64)
            nodes[i] = union[int(cost_new.argmin())]
