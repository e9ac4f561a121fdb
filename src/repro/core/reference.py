"""Slow reference implementations, for differential testing.

The production agglomerative engine (:mod:`repro.core.agglomerative`)
earns its O(n²) bound with cached closures, a pairwise distance matrix
and per-row minima — exactly the machinery where subtle staleness bugs
live.  This module re-implements Algorithm 1/2 *literally*: plain
Python lists of clusters, closures recomputed from scratch, a full pair
scan per merge, no caching anywhere.  The test suite runs both on the
same inputs and demands identical results.

One honest caveat: when two pairs are at *exactly* the same distance,
the two implementations may merge different pairs (the cached engine's
argmin semantics depend on update order), and either choice is a
correct execution of Algorithm 1.  The reference therefore reports
whether any exact tie influenced a decision; the differential tests
compare outcomes only for tie-free runs and fall back to
invariant-level checks otherwise.

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

from dataclasses import dataclass

import numpy as np

from repro.core.clustering import Clustering
from repro.core.distances import ClusterDistance
from repro.core.k1 import _check_k
from repro.errors import AnonymityError
from repro.matching.allowed import allowed_edges
from repro.measures.base import CostModel
from repro.tabular.encoding import EncodedTable

#: Two distances closer than this are treated as an exact tie.
_TIE_EPS = 1e-12


@dataclass(frozen=True)
class ReferenceRun:
    """Outcome of one reference execution."""

    clustering: Clustering
    had_ties: bool  #: whether any merge decision involved an exact tie


def _dist(
    model: CostModel,
    distance: ClusterDistance,
    cluster_a: list[int],
    cluster_b: list[int],
) -> float:
    cost_a = model.cluster_cost(cluster_a)
    cost_b = model.cluster_cost(cluster_b)
    cost_union = model.cluster_cost(cluster_a + cluster_b)
    return float(
        distance.evaluate(
            len(cluster_a), cost_a, len(cluster_b), cost_b, cost_union
        )
    )


def reference_agglomerative(
    model: CostModel,
    k: int,
    distance: ClusterDistance,
    modified: bool = False,
) -> ReferenceRun:
    """Algorithm 1 (and 2 with ``modified=True``), transcribed literally."""
    n = model.enc.num_records
    if n == 0:
        raise AnonymityError("cannot anonymize an empty table")
    if k > n:
        raise AnonymityError(f"k={k} exceeds the number of records n={n}")
    if k <= 1:
        return ReferenceRun(
            Clustering(n, [[i] for i in range(n)]), had_ties=False
        )

    clusters: list[list[int]] = [[i] for i in range(n)]
    output: list[list[int]] = []
    had_ties = False

    while len(clusters) > 1:
        best = None  # (dist, index_a, index_b)
        for a in range(len(clusters)):
            for b in range(len(clusters)):
                if a == b:
                    continue
                d = _dist(model, distance, clusters[a], clusters[b])
                if best is None or d < best[0] - _TIE_EPS:
                    best = (d, a, b)
                elif best is not None and abs(d - best[0]) <= _TIE_EPS and (
                    (a, b) != (best[1], best[2])
                ):
                    had_ties = True
        assert best is not None
        _, a, b = best
        merged = clusters[a] + clusters[b]
        for idx in sorted((a, b), reverse=True):
            del clusters[idx]
        if len(merged) >= k:
            if modified and len(merged) > k:
                merged, expelled, shrink_ties = _shrink(
                    model, distance, merged, k
                )
                had_ties = had_ties or shrink_ties
            else:
                expelled = []
            output.append(merged)
            clusters.extend([record] for record in expelled)
        else:
            clusters.append(merged)

    if clusters:
        (leftover,) = clusters
        for record in leftover:
            best_t = None
            for t, cluster in enumerate(output):
                d = _dist(model, distance, [record], cluster)
                if best_t is None or d < best_t[0] - _TIE_EPS:
                    best_t = (d, t)
                elif best_t is not None and abs(d - best_t[0]) <= _TIE_EPS:
                    had_ties = True
            assert best_t is not None
            output[best_t[1]].append(record)
    return ReferenceRun(Clustering(n, output), had_ties=had_ties)


def _shrink(
    model: CostModel,
    distance: ClusterDistance,
    members: list[int],
    k: int,
) -> tuple[list[int], list[int], bool]:
    kept = list(members)
    expelled: list[int] = []
    had_ties = False
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
            if d_i > best_d + _TIE_EPS:
                best_i, best_d = i, d_i
            elif abs(d_i - best_d) <= _TIE_EPS and i != best_i:
                had_ties = True
        expelled.append(kept.pop(best_i))
    return kept, expelled, had_ties


# ---------------------------------------------------------------------- #
# (k,1) / (1,k): Algorithms 3-6, one materialized union per candidate set
# ---------------------------------------------------------------------- #


def reference_k1_nearest(model: CostModel, k: int) -> np.ndarray:
    """Algorithm 3, one anchor at a time."""
    _check_k(model, k)
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
    _check_k(model, k)
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
