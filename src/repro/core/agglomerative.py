"""The agglomerative k-anonymization algorithms (Section V-A.1).

:func:`agglomerative_clustering` implements Algorithm 1 — start from
singleton clusters, repeatedly unify the two closest clusters, and move
clusters to the output once they reach size k — and, with
``modified=True``, Algorithm 2's refinement: before a ripe cluster is
finalized it is shrunk back to exactly k records, expelling the members
whose removal leaves the cheapest sub-cluster, which re-enter the pool as
singletons.

The paper's O(n²) bound is achieved by maintaining a full pairwise
distance matrix plus per-row minima: each merge recomputes one row of
distances and rescans only the rows whose cached nearest neighbour was
invalidated.  Every candidate union is priced by the fused join→cost
kernel :class:`repro.measures.base.FusedJoinCost`, whose costs are
bit-identical to ``record_cost`` of the materialized join:

* the all-pairs init fills the matrix in blocks of rows of about
  ``_BLOCK_CELLS`` cells, one kernel call and one checkpoint per block,
  so beyond the n² matrix itself only one block's temporaries live;
* each merge prices its refresh row against the active slots only;
* under exact joins (laminar and interval collections) a merged
  cluster's closure is the join of its two parts' closures, one table
  lookup per attribute instead of a closure of every member.

Join tables are symmetric, distances are element-wise, and every
minimum is read at the first-index ``argmin``, so the matrix, the
cached row minima and hence the merge sequence are the same floats and
tie-breaks as a one-shot n×n broadcast with per-member closures, the
oracle ``tests/test_agglomerative_engine.py`` keeps.
"""

from __future__ import annotations

import numpy as np

from repro.core.clustering import Clustering
from repro.core.distances import ClusterDistance
from repro.errors import AnonymityError
from repro.measures.base import CostModel, FusedJoinCost
from repro.obs import count
from repro.runtime import checkpoint

#: Distance-matrix cells filled per block of the all-pairs init: a
#: block's temporaries stay near this many doubles whatever n is.
_BLOCK_CELLS = 1 << 18


class _Engine:
    """Mutable state for one run of Algorithm 1/2."""

    def __init__(self, model: CostModel, distance: ClusterDistance, k: int) -> None:
        self._init_slots(model, distance, k)
        self._init_distances()

    def _init_slots(
        self, model: CostModel, distance: ClusterDistance, k: int
    ) -> None:
        """Allocate the per-slot cluster state and the fused join→cost
        kernel every candidate is priced with.

        Split from ``__init__`` so tests can build an engine at an
        arbitrary prepared state without paying for the dense all-pairs
        initialization.
        """
        enc = model.enc
        n = enc.num_records
        self.enc = enc
        self.model = model
        self.distance = distance
        self.k = k
        self._fused = FusedJoinCost(model)

        # Slot arrays.  At most n clusters are ever alive at once, so n
        # slots suffice; slots freed by merges are recycled for the
        # singletons Algorithm 2 expels.
        self.nodes = enc.singleton_nodes.copy()  # [n, r] closure nodes
        self.sizes = np.ones(n, dtype=np.int64)
        self.costs = np.zeros(n, dtype=np.float64)
        self.members: list[list[int] | None] = [[i] for i in range(n)]
        self.active = np.ones(n, dtype=bool)
        self.free_slots: list[int] = []

        self.row_min = np.full(n, np.inf, dtype=np.float64)
        self.row_arg = np.zeros(n, dtype=np.int64)

        self.output: list[list[int]] = []

        # Work-unit tallies, flushed to repro.obs once per run() so the
        # hot loops only pay integer increments.
        self.stat_merges = 0
        self.stat_scanned = 0  # candidate minima examined by the argmin
        self.stat_pruned = 0  # rows whose cached minimum skipped a rescan
        self.stat_rescans = 0
        self.stat_shrink_candidates = 0
        self.stat_expelled = 0

    # ------------------------------------------------------------------ #
    # distance bookkeeping
    # ------------------------------------------------------------------ #

    def _init_distances(self) -> None:
        """All-pairs distances, filled in blocks of rows.

        A block of rows is priced against every slot by one
        :meth:`~repro.measures.base.FusedJoinCost.costs` call, which
        reads ``join[col, row]``; join tables are symmetric, so that is
        the ``join[row, col]`` of a one-shot broadcast.  Distances are
        element-wise, so evaluating them on the block's slices of
        ``sizes``/``costs`` gives the same floats, and each row's
        minimum and first-index argmin only depend on that row.
        """
        n = self.enc.num_records
        nodes_t = np.ascontiguousarray(self.nodes.T)
        self.matrix = np.empty((n, n), dtype=np.float64)
        step = max(1, _BLOCK_CELLS // n)
        for a in range(0, n, step):
            checkpoint("core.agglomerative.init")
            b = min(a + step, n)
            cost_union = self._fused.costs(nodes_t, self.nodes[a:b])
            dist = np.asarray(
                self.distance.evaluate(
                    self.sizes[a:b, None],
                    self.costs[a:b, None],
                    self.sizes[None, :],
                    self.costs[None, :],
                    cost_union,
                ),
                dtype=np.float64,
            )
            rows = np.arange(b - a)
            dist[rows, a + rows] = np.inf
            self.matrix[a:b] = dist
            arg = dist.argmin(axis=1)
            self.row_arg[a:b] = arg
            self.row_min[a:b] = dist[rows, arg]

    def _distances_from(self, x: int) -> np.ndarray:
        """Distance of cluster x to every slot (inf for inactive / self).

        Unions are priced for the *active* slots only: late in a run
        most slots are retired.
        """
        act = np.flatnonzero(self.active)
        cost_union = self._fused.pair_costs(self.nodes[act], self.nodes[x])
        d = self.distance.evaluate(
            self.sizes[x],
            self.costs[x],
            self.sizes[act],
            self.costs[act],
            cost_union,
        )
        dist = np.full(self.active.size, np.inf, dtype=np.float64)
        dist[act] = np.asarray(d, dtype=np.float64)
        dist[x] = np.inf
        return dist

    def _refresh_row(self, x: int) -> None:
        """Recompute row/column x of the matrix and repair row minima."""
        dist = self._distances_from(x)
        self.matrix[x, :] = dist
        self.matrix[:, x] = dist
        arg = int(dist.argmin())
        self.row_arg[x] = arg
        self.row_min[x] = dist[arg]
        # Other rows may now have a closer neighbour at x.
        better = dist < self.row_min
        better[x] = False
        self.row_min[better] = dist[better]
        self.row_arg[better] = x

    def _deactivate(self, x: int) -> None:
        self.active[x] = False
        self.matrix[x, :] = np.inf
        self.matrix[:, x] = np.inf
        self.row_min[x] = np.inf
        self.free_slots.append(x)

    def _rescan_row(self, x: int) -> None:
        """Recompute row x's cached minimum from the matrix."""
        row = self.matrix[x]
        arg = int(row.argmin())
        self.row_arg[x] = arg
        self.row_min[x] = row[arg]

    def _pop_closest_pair(self) -> tuple[int, int] | None:
        """The true closest active pair, via lazy staleness validation.

        ``row_min`` entries are never stale-high (every improvement is
        pushed eagerly by ``_refresh_row``), but they can be stale-low
        when the cached partner died or changed.  Instead of rescanning
        every affected row per merge, a cached minimum is validated only
        when it is about to win the global argmin — the classic lazy
        scheme that keeps the engine at the paper's O(n²).
        """
        # repro: allow[REP011] lazy-deletion heap pops between core.agglomerative.merge checkpoints, bounded by heap size
        while True:
            self.stat_scanned += 1
            x = int(self.row_min.argmin())
            best = self.row_min[x]
            if not np.isfinite(best):
                return None
            y = int(self.row_arg[x])
            if self.active[y] and self.matrix[x, y] == best:
                return x, y
            self.stat_rescans += 1
            self._rescan_row(x)

    def _add_singleton(self, record: int) -> None:
        """Re-insert an expelled record as a fresh singleton cluster."""
        slot = self.free_slots.pop()
        self.nodes[slot] = self.enc.singleton_nodes[record]
        self.sizes[slot] = 1
        self.costs[slot] = 0.0
        self.members[slot] = [record]
        self.active[slot] = True
        self._refresh_row(slot)

    # ------------------------------------------------------------------ #
    # Algorithm 2: shrink a ripe cluster back to size k
    # ------------------------------------------------------------------ #

    def _shrink(self, member_list: list[int]) -> tuple[list[int], list[int]]:
        """Return (kept members of size k, expelled members).

        When every attribute's joins are exact
        (:attr:`~repro.tabular.encoding.EncodedTable.exact_joins`), all
        leave-one-out closures of one round come from prefix/suffix join
        folds — O(size) table lookups instead of the O(size²) closure
        scans of :meth:`_shrink_scan` — and the candidate distances are
        evaluated in one vectorized call.  ``np.argmax`` keeps the
        scan's first-max-wins tie-breaking, and the per-candidate float
        operations are element-wise identical, so both paths expel the
        same records.
        """
        if not self.enc.exact_joins:
            return self._shrink_scan(member_list)
        enc, model = self.enc, self.model
        kept = list(member_list)
        expelled: list[int] = []
        # repro: allow[REP011] expels one record per round, bounded by cluster size; one call per merge checkpoint
        while len(kept) > self.k:
            size = len(kept)
            self.stat_shrink_candidates += size
            closure = enc.closure_of_records(kept)
            cost_full = float(model.record_cost(closure))
            rest_nodes = enc.leave_one_out_closures(kept)
            cost_rest = np.asarray(
                model.record_cost(rest_nodes), dtype=np.float64
            )
            # dist(Ŝ, Ŝ \ {R̂_i}): the union of the two sets is Ŝ itself.
            d = np.asarray(
                self.distance.evaluate(
                    size, cost_full, size - 1, cost_rest, cost_full
                ),
                dtype=np.float64,
            )
            expelled.append(kept.pop(int(np.argmax(d))))
        return kept, expelled

    def _shrink_scan(self, member_list: list[int]) -> tuple[list[int], list[int]]:
        """Per-subset closure-scan form of :meth:`_shrink` — correct for
        any collection; reference for the ``agglomerative-shrink`` pair."""
        enc, model, distance = self.enc, self.model, self.distance
        kept = list(member_list)
        expelled: list[int] = []
        # repro: allow[REP011] scan-mode shrink, bounded by cluster size; one call per merge checkpoint
        while len(kept) > self.k:
            size = len(kept)
            self.stat_shrink_candidates += size
            closure = enc.closure_of_records(kept)
            cost_full = float(model.record_cost(closure))
            best_i, best_d = 0, -np.inf
            for i in range(size):
                rest = kept[:i] + kept[i + 1 :]
                cost_rest = model.cluster_cost(rest)
                # dist(Ŝ, Ŝ \ {R̂_i}): the union of the two sets is Ŝ itself.
                d_i = float(
                    self.distance.evaluate(
                        size, cost_full, size - 1, cost_rest, cost_full
                    )
                )
                if d_i > best_d:
                    best_i, best_d = i, d_i
            expelled.append(kept.pop(best_i))
        return kept, expelled

    # ------------------------------------------------------------------ #
    # main loop
    # ------------------------------------------------------------------ #

    def run(self, modified: bool) -> Clustering:
        k = self.k
        while True:
            alive = int(self.active.sum())
            if alive <= 1:
                break
            checkpoint("core.agglomerative.merge")
            rescans_before = self.stat_rescans
            pair = self._pop_closest_pair()
            if pair is None:
                break  # no finite pair left (cannot happen with >1 active)
            x, y = pair
            # Rows whose cached minimum survived this selection without
            # a rescan — the work the dense scheme would have redone.
            self.stat_pruned += max(
                0, alive - (self.stat_rescans - rescans_before)
            )
            self.stat_merges += 1

            merged = self.members[x] + self.members[y]  # type: ignore[operator]
            self.members[y] = None
            self._deactivate(y)

            if len(merged) >= k:
                if modified and len(merged) > k:
                    merged, expelled = self._shrink(merged)
                else:
                    expelled = []
                self.stat_expelled += len(expelled)
                self.output.append(merged)
                self.members[x] = None
                self._deactivate(x)
                for record in expelled:
                    self._add_singleton(record)
            else:
                self.members[x] = merged
                self.nodes[x] = self._merged_closure(x, y, merged)
                self.sizes[x] = len(merged)
                self.costs[x] = float(self.model.record_cost(self.nodes[x]))
                self._refresh_row(x)

        # Line 10: distribute the members of the at-most-one leftover
        # cluster (size < k) to their closest output clusters.
        leftover_slots = np.flatnonzero(self.active)
        if leftover_slots.size:
            slot = int(leftover_slots[0])
            leftover = self.members[slot] or []
            self._distribute_leftover(leftover)
        self._flush_stats()
        return Clustering(self.enc.num_records, self.output)

    def _merged_closure(self, x: int, y: int, merged: list[int]) -> np.ndarray:
        """Closure of the union of clusters x and y, whose members are
        ``merged``.

        Under exact joins the closure of a union is the join of the
        parts' closures: one table lookup per attribute.  Otherwise a
        join can over-generalize, so ``merged`` is closed afresh.
        """
        if self.enc.exact_joins:
            return self.enc.join_rows(self.nodes[x], self.nodes[y])
        return self.enc.closure_of_records(merged)

    def _flush_stats(self) -> None:
        """Publish the run's work tallies to any active metrics scope.

        Zero tallies are skipped so snapshots only list counters the
        run actually exercised (e.g. no shrink counters on Algorithm 1).
        """
        tallies = (
            ("core.agglomerative.merges", self.stat_merges),
            ("core.agglomerative.candidates_scanned", self.stat_scanned),
            ("core.agglomerative.candidates_pruned", self.stat_pruned),
            ("core.agglomerative.row_rescans", self.stat_rescans),
            (
                "core.agglomerative.shrink_candidates",
                self.stat_shrink_candidates,
            ),
            ("core.agglomerative.records_expelled", self.stat_expelled),
        )
        for name, value in tallies:
            if value:
                count(name, value)

    def _distribute_leftover(self, leftover: list[int]) -> None:
        enc, model = self.enc, self.model
        if not leftover:
            return
        if not self.output:
            raise AnonymityError(
                "internal error: leftover records but no finished clusters"
            )
        out_nodes = np.array(
            [enc.closure_of_records(c) for c in self.output], dtype=np.int32
        )
        out_sizes = np.array([len(c) for c in self.output], dtype=np.int64)
        out_costs = np.asarray(model.record_cost(out_nodes), dtype=np.float64)
        # repro: allow[REP011] single post-merge pass distributing the < k leftover records
        for record in leftover:
            single = enc.singleton_nodes[record]
            cost_union = self._fused.pair_costs(out_nodes, single)
            dist = self.distance.evaluate(
                1, 0.0, out_sizes, out_costs, cost_union
            )
            target = int(np.asarray(dist).argmin())
            self.output[target].append(record)
            out_nodes[target] = enc.join_rows(out_nodes[target], single)
            out_sizes[target] += 1
            out_costs[target] = cost_union[target]


def agglomerative_clustering(
    model: CostModel,
    k: int,
    distance: ClusterDistance,
    modified: bool = False,
) -> Clustering:
    """Run Algorithm 1 (or, with ``modified=True``, Algorithm 1+2).

    Parameters
    ----------
    model:
        Cost model (measure bound to the encoded table) defining d(S).
    k:
        The anonymity parameter; clusters of size ≥ k certify k-anonymity.
    distance:
        Cluster distance driving the merge order (Section V-A.2).
    modified:
        Apply the Algorithm 2 shrink step to ripe clusters, keeping all
        final clusters at size exactly k where possible.

    Returns
    -------
    A :class:`Clustering` whose every cluster has ≥ k records.

    Raises
    ------
    AnonymityError
        If ``k`` exceeds the number of records or the table is empty.
    """
    n = model.enc.num_records
    if n == 0:
        raise AnonymityError("cannot anonymize an empty table")
    if k > n:
        raise AnonymityError(f"k={k} exceeds the number of records n={n}")
    if k <= 1:
        # Trivial: every record is its own cluster, nothing is generalized.
        return Clustering(n, [[i] for i in range(n)])
    # Checkpoint before allocating the engine so a spent deadline fails
    # fast; the all-pairs init also checkpoints once per block.
    checkpoint("core.agglomerative.init")
    return _Engine(model, distance, k).run(modified)
