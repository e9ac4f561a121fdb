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
test.  From k = 4 on, on larger tables, each anchor keeps only a
shortlist of its best-bounded candidates and a cut below which no other
price lies; later steps then run over the shortlists of a thousand or
so anchors at once, and an anchor whose shortlist cannot certify its
pick is priced in full for that step.  Where the gate fails, or all
unique rows fit in one anchor block, every step prices every candidate.
"""

from __future__ import annotations

import numpy as np

from repro.core.notions import check_feasible
from repro.errors import AnonymityError
from repro.measures.base import CostModel, FixedRowJoinCost, FusedJoinCost
from repro.obs import count
from repro.runtime import checkpoint

#: Anchors priced per grow step: ``block × u`` stays near this many
#: doubles, so the per-step working arrays stay cache-sized.
_BLOCK_CELLS = 1 << 16

#: Candidates each lane lists between full pricings on Algorithm 4's
#: shortlist steps.
_SHORTLIST = 64

#: Shortlists are built from k = 4 on, where the whole-row bounded steps
#: would run at least ``_SHORTLIST_MIN_STEPS`` times, k − 2 per anchor
#: block; below either, selecting them costs more than the steps they
#: replace (docs/performance.md).
_SHORTLIST_MIN_K = 4
_SHORTLIST_MIN_STEPS = 12


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
    check_feasible(model.enc.num_records, k)
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


def _shortlist(
    prices: np.ndarray, m: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each lane's ``m`` candidates of least bound, and its cut.

    ``prices`` is ``[lanes, u]`` with ``m < u``.  The listed candidates
    come in ascending index, and a lane's cut is its (m+1)-th least
    bound, so every unlisted bound is at least the cut.  Returns the
    candidate ids, their bounds and the cuts.
    """
    least = np.argpartition(prices, m, axis=1)
    cut = np.take_along_axis(prices, least[:, m : m + 1], axis=1)[:, 0]
    ids = np.sort(least[:, :m], axis=1).astype(np.int32)
    return ids, np.take_along_axis(prices, ids, axis=1), cut


def _listed_step(
    fused: FusedJoinCost,
    u_t: np.ndarray,
    lists: tuple[np.ndarray, ...],
    cur: np.ndarray,
    cur_cost: np.ndarray,
    lower: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """One grow step that prices only the listed candidates that can win.

    ``lists`` is ``(ids, bounds, cut)``: per lane i, the candidates
    ``ids[i]`` (ascending index), lower bounds ``bounds[i]`` on their
    union prices (+inf once spent) and a ``cut[i]`` that no unlisted
    candidate's price is below.
    Each lane's first listed argmin of ``bound − cur_cost``, priced
    exactly, bounds its least increment from above.  A lane is
    *certified* when that upper bound lies strictly below ``cut −
    cur_cost``: no unlisted candidate can then reach it.  Its listed
    candidates whose lower bound does not exceed the upper bound are
    priced exactly and written back into ``bounds``, and the first of
    them at the least exact increment is its pick.  Every candidate tied
    at the minimum survives the test, so that is full pricing's pick.

    ``lower`` is a buffer shaped like ``bounds`` for the increments.
    Returns the certified lanes, each one's pick as a position in its
    list, the picks' union costs and the number of pairs priced.  The
    other lanes, those whose listed candidates are all spent included,
    are left to full pricing.
    """
    ids, bounds, cut = lists
    lanes = np.arange(cur.shape[0])
    np.subtract(bounds, cur_cost[:, None], out=lower)
    at = lower.argmin(axis=1)
    dead = np.isinf(lower[lanes, at])  # every listed candidate is spent
    if np.isinf(cut[dead]).any():
        raise AnonymityError("internal error: fewer than k records available")
    cur_t = cur.T
    upper = fused.elementwise_costs(u_t[:, ids[lanes, at]], cur_t) - cur_cost
    sure = np.flatnonzero((cut - cur_cost > upper) & ~dead)
    bar = np.full(lanes.size, -np.inf)
    bar[sure] = upper[sure]
    # Survivors in row-major order: lane by lane, by index within a lane.
    lane, pos = np.divmod(np.flatnonzero(lower <= bar[:, None]), ids.shape[1])
    cand = ids[lane, pos]
    prices = fused.elementwise_costs(u_t[:, cand], cur_t[:, lane])
    bounds[lane, pos] = prices
    first = (
        first_min_per_group(np.searchsorted(lane, sure), prices - cur_cost[lane])
        if sure.size
        else sure
    )
    return sure, pos[first], prices[first], cand.size + lanes.size


def _take(
    counts: np.ndarray,
    taken: np.ndarray,
    rows: np.ndarray,
    picks: np.ndarray,
    step: int,
) -> np.ndarray:
    """Record ``picks`` as the ``step``-th records the lanes ``rows`` take.

    ``taken[:, 0]`` holds each lane's anchor.  A unique row has
    ``counts`` copies, less one per time the lane has taken it; returns
    which picks took the last copy.
    """
    taken[rows, step] = picks
    return counts[picks] <= (taken[rows, : step + 1] == picks[:, None]).sum(axis=1)


class _Expansion:
    """Algorithm 4 over runs of anchors (*lanes*) that grow in lockstep.

    ``listed`` is how many candidates each lane lists between full
    pricings: ``u`` for the whole-row bounded steps, 0 where every step
    prices every candidate.  A run holds ``chunk`` lanes, and full
    pricing takes ``block`` of them at a time.
    """

    def __init__(self, model: CostModel, k: int) -> None:
        enc = model.enc
        u = enc.num_unique
        self.model = model
        self.k = k
        self.u = u
        self.u_nodes = enc.unique_singleton_nodes
        self.u_t = self.u_nodes.T
        self.counts = enc.unique_counts
        self.fused = FusedJoinCost(model)
        self.pricer = FixedRowJoinCost(self.fused, self.u_nodes)
        blocks = _anchor_blocks(u)
        self.block = self.chunk = blocks.step
        self.listed = 0
        if len(blocks) > 1 and costs_grow_with_joins(model):
            short = (
                k >= _SHORTLIST_MIN_K
                and (k - 2) * len(blocks) >= _SHORTLIST_MIN_STEPS
            )
            self.listed = min(_SHORTLIST, u) if short else u
            # whole blocks, about _BLOCK_CELLS listed candidates per run
            self.chunk *= max(1, _BLOCK_CELLS // self.listed // self.block)
        # One buffer for every step's increments: a fresh half-megabyte
        # temporary per block would fault its pages in again each time.
        self.scratch = np.empty(max(self.block * u, self.chunk * self.listed))
        # Every candidate listed under no cut, or the run's shortlists.
        self.every = (
            np.broadcast_to(np.arange(u), (self.block, u)),
            np.full(self.block, np.inf),
        )
        self.shortlists: tuple[np.ndarray, ...] = (
            (
                np.empty((self.chunk, self.listed), dtype=np.int32),
                np.empty((self.chunk, self.listed)),
                np.empty(self.chunk),
            )
            if 0 < self.listed < u
            else ()
        )
        self.priced = 0
        self.repriced = 0

    def _buffer(self, like: np.ndarray) -> np.ndarray:
        """The scratch buffer, shaped like ``like``."""
        return self.scratch[: like.size].reshape(like.shape)

    def grow(self, anchors: np.ndarray) -> np.ndarray:
        """The closures of the k-record sets grown from ``anchors``."""
        n, m = anchors.size, self.listed
        cur = self.u_nodes[anchors]
        cur_cost = np.asarray(self.model.record_cost(cur), dtype=np.float64)
        # The records each lane has taken (its anchor, then one pick per
        # step), and whether taking one used up its row's last copy.
        taken = np.empty((n, self.k), dtype=np.intp)
        spent = np.empty((n, self.k), dtype=bool)
        taken[:, 0] = anchors
        spent[:, 0] = self.counts[anchors] <= 1
        lists = tuple(a[:n] for a in self.shortlists)
        for step in range(1, self.k):
            checkpoint("core.k1.grow")
            last = step == self.k - 1  # nothing reads what it records
            picks = np.empty(n, dtype=np.intp)
            costs = np.empty(n)
            full = np.arange(n)
            if m and step > 1:
                sure, at, costs[sure], pairs = _listed_step(
                    self.fused,
                    self.u_t,
                    lists,
                    cur,
                    cur_cost,
                    self._buffer(lists[1]),
                )
                picks[sure] = lists[0][sure, at]
                if not last:
                    out = spent[sure, step] = _take(
                        self.counts, taken, sure, picks[sure], step
                    )
                    lists[1][sure[out], at[out]] = np.inf
                full = np.delete(full, sure)
                self.priced += pairs
                self.repriced += full.size
            for start in range(0, full.size, self.block):
                checkpoint("core.k1.row")
                rows = full[start : start + self.block]
                prices = self.pricer.costs(cur[rows])  # [block, u]
                held = spent[rows, :step]
                prices[np.nonzero(held)[0], taken[rows, :step][held]] = np.inf
                b = np.subtract(
                    prices, cur_cost[rows, None], out=self._buffer(prices)
                ).argmin(axis=1)
                costs[rows] = prices[np.arange(rows.size), b]
                _require_finite(costs[rows])
                picks[rows] = b
                self.priced += prices.size
                if not last:
                    out = spent[rows, step] = _take(self.counts, taken, rows, b, step)
                    if m:
                        prices[np.flatnonzero(out), b[out]] = np.inf
                        lists = self._relist(lists, rows, prices)
            cur = self.model.enc.join_rows(self.u_nodes[picks], cur)
            cur_cost = costs
        return cur

    def _relist(
        self,
        lists: tuple[np.ndarray, ...],
        rows: np.ndarray,
        prices: np.ndarray,
    ) -> tuple[np.ndarray, ...]:
        """``lists`` with the lanes ``rows`` listed from their exact
        ``prices``."""
        if self.listed == self.u:  # a whole-row run is one block
            ids, cut = self.every
            return ids[: rows.size], prices, cut[: rows.size]
        ids, bounds, cut = lists
        ids[rows], bounds[rows], cut[rows] = _shortlist(prices, self.listed)
        return lists


def k1_expansion(model: CostModel, k: int) -> np.ndarray:
    """Algorithm 4: grow each record's set greedily by cheapest increment.

    At every step the candidate minimizing d(S ∪ {R_j}) − d(S) is added
    (first-index tie-break over unique rows).  Runs of anchors (*lanes*)
    grow in lockstep, and only the chosen union rows are materialized.

    Step 1 prices every unique row against a block of lanes in one fused
    pass.  When :func:`costs_grow_with_joins` holds, a price stays a
    lower bound on that candidate's price at every later step, and so
    does ``price − d(S)`` on its increment (``t ↦ t − c`` is monotone in
    floating point).  Later steps price exactly only the candidates
    whose bound can still beat an exact upper bound on the least
    increment (:func:`_listed_step`).  Every candidate tied at the least
    increment passes that test, so the pick — the first index at the
    minimum — and every output byte stay those of full pricing.

    From k = 4 on, on tables with enough anchor blocks, step 1 leaves
    each lane a *shortlist*: its ``_SHORTLIST`` candidates of least
    bound and a cut, the next least bound, below which no unlisted price
    lies.  Every later step then runs on the shortlists of about
    ``_BLOCK_CELLS // _SHORTLIST`` lanes at once.  A lane whose upper
    bound does not stay strictly below ``cut − d(S)`` cannot rule out
    its unlisted candidates: it is priced in full for that step and
    listed afresh from those exact prices.  Elsewhere a later step lists
    every candidate under no cut, one block of lanes at a time.

    Where the gate fails, every step is re-evaluated from scratch.  It
    fails under the entropy measure on some tables: generalizing into a
    subset dominated by a frequent value can *reduce* conditional
    entropy, so prices may drop and increments may even be negative.
    Full pricing also stays when all unique rows fit in one anchor
    block: at that size (u ≤ 256) one fused pass per step costs less
    than the bounded step's extra passes.

    The ``core.k1.pairs_priced`` counter adds u per lane priced in full
    (step 1, every step of full pricing, and each repriced lane-step),
    and per bounded step the survivors plus one upper bound per lane.
    ``core.k1.lanes_repriced`` counts the lane-steps priced in full
    after failing certification.

    Returns the ``[n, r]`` node matrix of the (k,1)-anonymization.
    """
    check_feasible(model.enc.num_records, k)
    enc = model.enc
    if k <= 1:
        return enc.singleton_nodes.copy()

    u = enc.num_unique
    expansion = _Expansion(model, k)
    unique_result = np.empty_like(enc.unique_singleton_nodes)
    for start in range(0, u, expansion.chunk):
        anchors = np.arange(start, min(start + expansion.chunk, u))
        unique_result[anchors] = expansion.grow(anchors)

    count("core.k1.pairs_priced", expansion.priced)
    count("core.k1.lanes_repriced", expansion.repriced)
    return unique_result[enc.unique_inverse]


def k1_optimal_cost(model: CostModel, k: int) -> float:
    """Cost of the *optimal* (k,1)-anonymization, by brute force.

    Implements the O(n^k) exact procedure sketched at the start of
    Section V-B.1: for every record, the best (k−1)-subset of companions.
    Exponential — only for the tiny tables the tests use to validate
    Proposition 5.1's approximation bound.
    """
    from itertools import combinations

    check_feasible(model.enc.num_records, k)
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
