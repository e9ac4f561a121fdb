"""(k,1)-anonymization (Section V-B.1): Algorithms 3 and 4.

Both algorithms build, for every record R_i, a set S_i of k records
containing R_i, and publish R̄_i = closure(S_i).  Every generalized
record is then consistent with at least the k members of its set —
(k,1)-anonymity.  Unlike k-anonymization the sets may overlap, which is
where the extra utility comes from.

Algorithm 3 ("nearest neighbours") joins each record with the k−1
records minimizing the *pairwise* cost d({R_i, R_j}); Proposition 5.1
gives it a (k−1)-approximation guarantee.  Algorithm 4 ("expansion")
grows S_i greedily, at each step adding the record with the smallest
cost increment d(S ∪ {R_j}) − d(S); it has no guarantee but dominated
Algorithm 3 in all of the paper's experiments.

Records with identical rows behave identically, so both algorithms run
once per *unique* row and broadcast the result — the costs and closures
only depend on the multiset of values.
"""

from __future__ import annotations

import numpy as np

from repro.errors import AnonymityError
from repro.measures.base import CostModel, FixedRowJoinCost, FusedJoinCost
from repro.runtime import checkpoint

#: Anchors priced per grow step: ``block × u`` stays near this many
#: doubles, so the per-step working arrays stay cache-sized.
_BLOCK_CELLS = 1 << 16


def _check_k(model: CostModel, k: int) -> None:
    n = model.enc.num_records
    if n == 0:
        raise AnonymityError("cannot anonymize an empty table")
    if k > n:
        raise AnonymityError(f"k={k} exceeds the number of records n={n}")


def _anchor_blocks(u: int) -> range:
    return range(0, u, max(1, _BLOCK_CELLS // max(u, 1)))


def k1_nearest_neighbors(model: CostModel, k: int) -> np.ndarray:
    """Algorithm 3: join each record with its k−1 nearest records.

    "Nearest" is measured by the pairwise generalization cost
    d({R_i, R_j}) (line 1 of Algorithm 3); ties break on row order, and
    duplicate rows are free nearest neighbours (pair cost 0).  Pair
    costs of a block of anchors against every unique row come from the
    fused join→cost kernel in one pass.

    Returns the ``[n, r]`` node matrix of the (k,1)-anonymization.
    """
    _check_k(model, k)
    enc = model.enc
    if k <= 1:
        return enc.singleton_nodes.copy()

    u_nodes = enc.unique_singleton_nodes  # [u, r]
    counts = enc.unique_counts
    u = enc.num_unique
    unique_result = np.empty_like(u_nodes)
    pricer = FixedRowJoinCost(FusedJoinCost(model), u_nodes)
    blocks = _anchor_blocks(u)

    for start in blocks:
        checkpoint("core.k1.row")
        anchors = np.arange(start, min(start + blocks.step, u))
        # closure({row_a, row_b}) costs against every unique row
        orders = np.argsort(pricer.costs(u_nodes[anchors]), axis=1, kind="stable")
        for a, order in zip(anchors.tolist(), orders):
            closure = u_nodes[a]
            # duplicate copies of row a are free neighbours
            need = k - min(int(counts[a]), k)
            for b in order.tolist():
                if need <= 0:
                    break
                if b == a:
                    continue
                closure = enc.join_rows(closure, u_nodes[b])
                need -= min(int(counts[b]), need)
            if need > 0:
                raise AnonymityError(
                    "internal error: fewer than k records available"
                )
            unique_result[a] = closure

    return unique_result[enc.unique_inverse]


def k1_expansion(model: CostModel, k: int) -> np.ndarray:
    """Algorithm 4: grow each record's set greedily by cheapest increment.

    At every step the candidate minimizing d(S ∪ {R_j}) − d(S) is added
    (first-index tie-break over unique rows).  Note the increment may be
    negative under the entropy measure — generalizing into a subset
    dominated by a frequent value can *reduce* conditional entropy — so
    the argmin is re-evaluated from scratch every step.  A block of
    anchors grows in lockstep: one fused pricing of every unique row
    against the block per step, and only the chosen union rows are
    materialized.

    Returns the ``[n, r]`` node matrix of the (k,1)-anonymization.
    """
    _check_k(model, k)
    enc = model.enc
    if k <= 1:
        return enc.singleton_nodes.copy()

    u_nodes = enc.unique_singleton_nodes
    counts = enc.unique_counts
    u = enc.num_unique
    unique_result = np.empty_like(u_nodes)
    pricer = FixedRowJoinCost(FusedJoinCost(model), u_nodes)
    blocks = _anchor_blocks(u)

    for start in blocks:
        checkpoint("core.k1.row")
        anchors = np.arange(start, min(start + blocks.step, u))
        lanes = np.arange(anchors.size)
        remaining = np.tile(counts, (anchors.size, 1))
        remaining[lanes, anchors] -= 1
        cur = u_nodes[anchors]
        cur_cost = np.asarray(model.record_cost(cur), dtype=np.float64)
        for _ in range(k - 1):
            checkpoint("core.k1.grow")
            cost_union = pricer.costs(cur)  # [block, u]
            delta = cost_union - cur_cost[:, None]
            delta[remaining <= 0] = np.inf
            b = delta.argmin(axis=1)
            if not np.isfinite(delta[lanes, b]).all():
                raise AnonymityError(
                    "internal error: fewer than k records available"
                )
            cur = enc.join_rows(u_nodes[b], cur)
            cur_cost = cost_union[lanes, b]
            remaining[lanes, b] -= 1
        unique_result[anchors] = cur

    return unique_result[enc.unique_inverse]


def k1_optimal_cost(model: CostModel, k: int) -> float:
    """Cost of the *optimal* (k,1)-anonymization, by brute force.

    Implements the O(n^k) exact procedure sketched at the start of
    Section V-B.1: for every record, the best (k−1)-subset of companions.
    Exponential — only for the tiny tables the tests use to validate
    Proposition 5.1's approximation bound.
    """
    from itertools import combinations

    _check_k(model, k)
    enc = model.enc
    n = enc.num_records
    total = 0.0
    for i in range(n):
        others = [j for j in range(n) if j != i]
        best = np.inf
        for companions in combinations(others, k - 1):
            cost = model.cluster_cost((i, *companions))
            if cost < best:
                best = cost
        total += best
    return total / n
