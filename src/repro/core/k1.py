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

Algorithm 4 prices only what can still win.  Its step 1 prices every
unique row against a block of anchors; when joins are exact and joining
a node never lowers its cost (:func:`costs_grow_with_joins`, computed
from the cost vectors and join tables, not from a measure's
declaration), a closure that grows can only raise every candidate's
union price, so each price is an exact lower bound on every later one.
A later step prices exactly only the candidates whose bound can still
beat the exact increment of the best-bounded one, and picks the first
index at the least increment among them — the pick of full pricing,
bit for bit, because every candidate tied at the minimum survives the
test.  Where the gate fails, or all unique rows fit in one anchor
block, every step prices every candidate.
"""

from __future__ import annotations

import numpy as np

from repro.errors import AnonymityError
from repro.measures.base import CostModel, FixedRowJoinCost, FusedJoinCost
from repro.obs import count
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


def costs_grow_with_joins(model: CostModel) -> bool:
    """Whether a candidate's union price never drops as a closure grows.

    Holds when joins are exact (associative and commutative, see
    :attr:`~repro.tabular.encoding.EncodedTable.exact_joins`) and, for
    every attribute, joining a node with anything never lowers its cost:
    ``node_costs[j][join] >= node_costs[j][:, None]``, compared exactly.
    Growing a closure X to ``join(X, b)`` turns candidate c's union into
    ``join(join(X, c), b)``, so every attribute term, their left-to-right
    float sum and the division by ``r`` can only rise.  The gate reads
    the data, not :attr:`~repro.measures.base.LossMeasure.monotone`: the
    harness checks that declaration only to within a tolerance.
    """
    enc = model.enc
    return enc.exact_joins and all(
        _joins_never_lower(costs, att.join)
        for costs, att in zip(model.node_costs, enc.attrs)
    )


def _joins_never_lower(costs: np.ndarray, join: np.ndarray) -> bool:
    """``(costs[join] >= costs[:, None]).all()``, a block of about
    :data:`_BLOCK_CELLS` join-table entries at a time."""
    blocks = _anchor_blocks(len(costs))
    return all(
        bool((costs[join[rows]] >= costs[rows, None]).all())
        for rows in (slice(a, a + blocks.step) for a in blocks)
    )


def _require_finite(least: np.ndarray) -> None:
    if not np.isfinite(least).all():
        raise AnonymityError("internal error: fewer than k records available")


def first_min_per_group(starts: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Position of each group's first minimum in ``values``.

    The groups are the consecutive, non-empty runs of ``values`` that
    begin at the ascending positions ``starts``: the vectorized form of
    one ``argmin`` per group.
    """
    ends = np.empty_like(starts)
    ends[:-1] = starts[1:]
    ends[-1] = values.size
    least = np.repeat(np.minimum.reduceat(values, starts), ends - starts)
    at_least = np.flatnonzero(values == least)
    return at_least[np.searchsorted(at_least, starts)]


def _bounded_step(
    fused: FusedJoinCost,
    u_t: np.ndarray,
    bound: np.ndarray,
    cur: np.ndarray,
    cur_cost: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, int]:
    """One grow step that prices only the candidates that can still win.

    ``bound`` holds a lower bound on every candidate's union price
    (+inf once exhausted).  Each lane's first argmin of ``bound −
    cur_cost``, priced exactly, bounds the least increment from above;
    the candidates whose lower bound does not exceed it are priced
    exactly, written back into ``bound``, and the first of them at the
    least exact increment is the lane's pick.  Returns the picks, their
    union costs and the number of pairs priced.
    """
    lanes = np.arange(cur.shape[0])
    lower = bound - cur_cost[:, None]
    b0 = lower.argmin(axis=1)
    _require_finite(lower[lanes, b0])
    cur_t = cur.T
    upper = fused.elementwise_costs(u_t[:, b0], cur_t) - cur_cost
    # Survivors in row-major order: lane by lane, by index within a lane.
    lane, cand = np.divmod(
        np.flatnonzero(lower <= upper[:, None]), bound.shape[1]
    )
    prices = fused.elementwise_costs(u_t[:, cand], cur_t[:, lane])
    bound[lane, cand] = prices
    first = first_min_per_group(
        np.searchsorted(lane, lanes), prices - cur_cost[lane]
    )
    return cand[first], prices[first], cand.size + lanes.size


def k1_expansion(model: CostModel, k: int) -> np.ndarray:
    """Algorithm 4: grow each record's set greedily by cheapest increment.

    At every step the candidate minimizing d(S ∪ {R_j}) − d(S) is added
    (first-index tie-break over unique rows).  A block of anchors grows
    in lockstep, and only the chosen union rows are materialized.

    Step 1 prices every unique row against the block in one fused pass.
    When :func:`costs_grow_with_joins` holds, a price stays a lower
    bound on that candidate's price at every later step, and so does
    ``price − d(S)`` on its increment (``t ↦ t − c`` is monotone in
    floating point).  Later steps price exactly only the candidates
    whose bound can still beat an exact upper bound on the least
    increment (:func:`_bounded_step`).  Every candidate tied at the
    least increment passes that test, so the pick — the first index at
    the minimum — and every output byte stay those of full pricing.

    Where the gate fails, every step is re-evaluated from scratch.  It
    fails under the entropy measure on some tables: generalizing into a
    subset dominated by a frequent value can *reduce* conditional
    entropy, so prices may drop and increments may even be negative.
    Full pricing also stays when all unique rows fit in one anchor
    block: at that size (u ≤ 256) one fused pass per step costs less
    than the bounded step's extra passes.

    The ``core.k1.pairs_priced`` counter adds ``block × u`` per full
    step and the survivors plus one upper bound per lane per bounded
    step.

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
    fused = FusedJoinCost(model)
    pricer = FixedRowJoinCost(fused, u_nodes)
    u_t = u_nodes.T
    blocks = _anchor_blocks(u)
    bounded = len(blocks) > 1 and costs_grow_with_joins(model)
    priced = 0

    for start in blocks:
        checkpoint("core.k1.row")
        anchors = np.arange(start, min(start + blocks.step, u))
        lanes = np.arange(anchors.size)
        remaining = np.tile(counts, (anchors.size, 1))
        remaining[lanes, anchors] -= 1
        cur = u_nodes[anchors]
        cur_cost = np.asarray(model.record_cost(cur), dtype=np.float64)
        bound = None
        for _ in range(k - 1):
            checkpoint("core.k1.grow")
            if bound is None:  # step 1, or every step of full pricing
                prices = pricer.costs(cur)  # [block, u]
                prices[remaining <= 0] = np.inf
                b = (prices - cur_cost[:, None]).argmin(axis=1)
                new_cost = prices[lanes, b]
                _require_finite(new_cost)
                priced += prices.size
                if bounded:
                    bound = prices
            else:
                b, new_cost, pairs = _bounded_step(
                    fused, u_t, bound, cur, cur_cost
                )
                priced += pairs
            cur = enc.join_rows(u_nodes[b], cur)
            cur_cost = new_cost
            remaining[lanes, b] -= 1
            if bound is not None:
                spent = remaining[lanes, b] <= 0
                bound[lanes[spent], b[spent]] = np.inf
        unique_result[anchors] = cur

    count("core.k1.pairs_priced", priced)
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
