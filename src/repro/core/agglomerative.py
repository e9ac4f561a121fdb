"""The agglomerative k-anonymization algorithms (Section V-A.1).

:func:`agglomerative_clustering` implements Algorithm 1 — start from
singleton clusters, repeatedly unify the two closest clusters, and move
clusters to the output once they reach size k — and, with
``modified=True``, Algorithm 2's refinement: before a ripe cluster is
finalized it is shrunk back to exactly k records, expelling the members
whose removal leaves the cheapest sub-cluster, which re-enter the pool as
singletons.

The merge order
---------------
Line 4 ("the two closest clusters") names no tie rule, and the greedy
order *is* the algorithm, so it is fixed here as a total order.
:func:`repro.core.reference.reference_agglomerative` transcribes it
literally and :func:`repro.verify.differential.compare_with_reference`
demands the same clustering on every input.

* **Slots.** There are n slots; slot i starts as the singleton {R_i}.
  A merge keeps the lower of its two slots and frees the higher.  A
  ripe cluster leaving for the output frees its slot after that.  The
  records Algorithm 2 expels re-enter as singletons in freed slots,
  last freed first, in expel order.
* **Costs.** A cluster's closure is the closure of its members and its
  cost d(S) is the closure's record cost; a singleton costs 0.
* **Union pricing.** A candidate union is priced at the join of the two
  closures, ``c(join(closure(A), closure(B)))``.  Under exact joins
  (laminar and interval collections) that is the closure of the union.
* **Pair value.** ``dist(a, b)`` of slots a < b is evaluated with the
  lower slot as A: ``evaluate(|S_a|, d(S_a), |S_b|, d(S_b), union)``.
* **Selection.** The pair of least value by exact float comparison;
  among equal values, the lowest ``(a, b)``.  The merged member list is
  S_a's members followed by S_b's.
* **Expel (Algorithm 2).** While a ripe S holds more than k members,
  the member i of greatest ``dist(S, S ∖ {R_i})`` (S as A) leaves; equal
  values expel the first such member in member order.
* **Leftover (line 10).** Each member of the at-most-one cluster left
  below k, in member order, joins the output cluster of least
  ``dist({R}, S)`` (the record as A, priced as above), the first such
  cluster in output order on equal values; that cluster's closure and
  cost then become those of its new member set.

The engine
----------
The paper's O(n²) bound comes from a pairwise distance matrix plus
per-row minima.  Every candidate union is priced by the fused join→cost
kernel :class:`repro.measures.base.FusedJoinCost`, whose costs are
bit-identical to ``record_cost`` of the materialized join.  The engine
keeps these invariants between merges:

* Rows are indexed by slot, columns by ``pos[slot]`` (``cols`` lists
  the slot of each column, ascending).  ``matrix[a, pos[b]]`` holds
  ``dist(min(a, b), max(a, b))`` for every pair of active slots, bit
  for bit, so the matrix is symmetric.  Entries that touch an inactive
  slot are left as they were: a slot is deactivated through the
  ``active`` mask and a ``+inf`` ``penalty`` on its column that rescans
  add, never by writing its row and column.
* For every active row not flagged ``stale``, ``row_min``/``row_arg``
  are the row's first-index minimum over the active slots.  A stale
  row's ``row_min`` is a lower bound of its minimum.

A refresh of row x (a merged cluster or an expelled singleton) prices
x against the active slots only and pushes its values into the other
rows: a row takes x when x is smaller than its cached minimum, or equal
and a lower slot than its cached argument.  A row whose cached argument
was x or the freed partner and that x did not win back becomes stale.
A selection reads the first-index argmin of ``row_min``: when that row
is exact it is the lowest row of the least pair, and its ``row_arg``
the lowest partner, which is the selection rule above.  When it is
stale, one batched repair first rescans, in a single 2-D argmin, the
stale rows whose lower bound does not exceed the least exact row
minimum; no other stale row can hold the least pair.

Once a quarter of the columns belong to inactive slots, the active rows
are compacted in place into a narrower layout of the same buffer, so
rescans and refreshes touch rows about as long as the number of live
clusters.  The all-pairs init prices the upper triangle only, in blocks
of rows of about ``_BLOCK_CELLS`` cells (one kernel call and one
checkpoint per block), and mirrors each block into its columns.  Under
exact joins a merged cluster's closure is the join of its two parts'
closures, one table lookup per attribute instead of a closure of every
member.
"""

from __future__ import annotations

import numpy as np

from repro.core.clustering import Clustering, cluster_closures
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
        self.alive = n
        self.free_slots: list[int] = []

        # Matrix columns: ``cols[j]`` is the slot of column j (ascending)
        # and ``pos[s]`` the column of slot s, -1 once compacted away.
        # ``penalty[j]`` is 0 for an active column and +inf for an
        # inactive one: added to rescanned rows, it keeps inactive
        # columns from winning an argmin.
        self.cols = np.arange(n)
        self.pos = np.arange(n)
        self.penalty = np.zeros(n, dtype=np.float64)

        self.row_min = np.full(n, np.inf, dtype=np.float64)
        self.row_arg = np.zeros(n, dtype=np.int64)
        self.stale = np.zeros(n, dtype=bool)

        self.output: list[list[int]] = []

        # Work-unit tallies, flushed to repro.obs once per run() so the
        # hot loops only pay integer increments.
        self.stat_merges = 0
        self.stat_scanned = 0  # row minima examined by the selections
        self.stat_pruned = 0  # rows whose cached minimum skipped a rescan
        self.stat_rescans = 0
        self.stat_shrink_candidates = 0
        self.stat_expelled = 0

    # ------------------------------------------------------------------ #
    # distance bookkeeping
    # ------------------------------------------------------------------ #

    def _init_distances(self) -> None:
        """All-pairs distances: the upper triangle, in blocks of rows.

        Block rows ``[a, b)`` are priced against slots ``a..n`` by one
        :meth:`~repro.measures.base.FusedJoinCost.costs` call, each row
        as the A side; join tables are symmetric, and distances are
        element-wise, so every entry is the float a one-shot broadcast
        computes for that pair with its lower slot as A.  The block's
        own square is made symmetric from its upper half, the part
        right of it is mirrored into the columns below, and the rows'
        minima are read once the rows are complete (columns left of
        ``a`` were mirrored by earlier blocks).
        """
        n = self.enc.num_records
        nodes_t = np.ascontiguousarray(self.nodes.T)
        self._buffer = np.empty(n * n, dtype=np.float64)
        self.matrix = self._buffer.reshape(n, n)
        step = max(1, _BLOCK_CELLS // n)
        for a in range(0, n, step):
            checkpoint("core.agglomerative.init")
            b = min(a + step, n)
            cost_union = self._fused.costs(nodes_t[:, a:], self.nodes[a:b])
            dist = np.asarray(
                self.distance.evaluate(
                    self.sizes[a:b, None],
                    self.costs[a:b, None],
                    self.sizes[None, a:],
                    self.costs[None, a:],
                    cost_union,
                ),
                dtype=np.float64,
            )
            rows = np.arange(b - a)
            square = dist[:, : b - a]
            square[...] = np.where(rows[:, None] < rows, square, square.T)
            square[rows, rows] = np.inf
            self.matrix[a:b, a:] = dist
            self.matrix[b:, a:b] = dist[:, b - a :].T
            block = self.matrix[a:b]
            arg = block.argmin(axis=1)
            self.row_arg[a:b] = arg
            self.row_min[a:b] = block[rows, arg]

    def _distances_from(self, x: int, act: np.ndarray) -> np.ndarray:
        """``dist`` of active slot x to every slot (inf for inactive / self).

        Unions are priced for the active slots ``act`` only: late in a
        run most slots are retired.  Slots below x are the A side of
        their pair with x, slots above it the B side.
        """
        cost_union = self._fused.pair_costs(self.nodes[act], self.nodes[x])
        pos = int(np.searchsorted(act, x))
        sizes, costs = self.sizes[act], self.costs[act]
        size_x, cost_x = self.sizes[x], self.costs[x]
        dist = np.full(self.active.size, np.inf, dtype=np.float64)
        dist[act[:pos]] = self.distance.evaluate(
            sizes[:pos], costs[:pos], size_x, cost_x, cost_union[:pos]
        )
        dist[act[pos + 1 :]] = self.distance.evaluate(
            size_x,
            cost_x,
            sizes[pos + 1 :],
            costs[pos + 1 :],
            cost_union[pos + 1 :],
        )
        return dist

    def _refresh_row(self, x: int, freed: int) -> None:
        """Reprice active slot x, push its values into the other rows'
        minima, and flag the rows that cached x or ``freed`` and lost
        their minimum."""
        act = np.flatnonzero(self.active)
        dist = self._distances_from(x, act)
        self.matrix[x] = dist[self.cols]
        self.matrix[act, self.pos[x]] = dist[act]
        cur, arg = self.row_min, self.row_arg
        lost = arg == x
        lost |= arg == freed
        lost &= dist > cur
        self.stale |= lost
        take = dist < cur
        tie = dist == cur
        tie &= arg > x
        take |= tie
        np.copyto(cur, dist, where=take)
        arg[take] = x
        best = int(dist.argmin())
        arg[x] = best
        cur[x] = dist[best]
        self.stale[x] = False

    def _deactivate(self, x: int) -> None:
        """Retire slot x through the mask; its matrix row and column
        are left as they are.  Its ``row_arg`` of -1 matches no slot, so
        no later push or stale flag reaches the retired row."""
        self.active[x] = False
        self.penalty[self.pos[x]] = np.inf
        self.row_min[x] = np.inf
        self.row_arg[x] = -1
        self.stale[x] = False
        self.alive -= 1
        self.free_slots.append(x)

    def _repair(self) -> None:
        """Rescan the stale rows that could hold the least pair.

        A stale row whose lower bound exceeds the least exact row
        minimum cannot, and stays stale.  The others are rescanned
        together: one gather, the inactive columns masked by
        ``penalty``, one 2-D first-index argmin.
        """
        stale = np.flatnonzero(self.stale)
        self.stat_scanned += stale.size
        bound = np.where(self.stale, np.inf, self.row_min).min()
        rows = stale[self.row_min[stale] <= bound]
        block = self.matrix[rows]
        block += self.penalty
        arg = block.argmin(axis=1)
        self.row_arg[rows] = self.cols[arg]
        self.row_min[rows] = block[np.arange(rows.size), arg]
        self.stale[rows] = False
        self.stat_rescans += rows.size

    def _compact(self) -> None:
        """Keep matrix columns for the active slots only.

        Rows stay indexed by slot; row s moves from offset ``s·w`` of
        the buffer to ``s·w'``.  When the matrix narrows (w' ≤ w) rows
        are moved in ascending order, otherwise in descending order, a
        block of rows at a time, so no move overwrites a row still to
        be read, and no second matrix is allocated.  Columns keep
        ascending slot order, so a first-index argmin over columns is
        still one over slots.  An active slot without a column (an
        expelled record in a slot compacted away) gets a column of
        garbage, which its refresh then overwrites.
        """
        n, w = self.active.size, self.cols.size
        keep = np.flatnonzero(self.active)
        width = keep.size
        old = np.maximum(self.pos[keep], 0)
        dst = self._buffer[: n * width].reshape(n, width)
        order = keep if width <= w else keep[::-1]
        step = max(1, _BLOCK_CELLS // width)
        # repro: allow[REP011] moves the active rows once per compaction, a block at a time; one call per merge checkpoint
        for a in range(0, width, step):
            rows = order[a : a + step]
            dst[rows] = self.matrix[rows][:, old]
        self.matrix = dst
        self.cols = keep
        self.pos = np.full(n, -1)
        self.pos[keep] = np.arange(width)
        self.penalty = np.zeros(width, dtype=np.float64)

    def _pop_closest_pair(self) -> tuple[int, int] | None:
        """The least active pair ``(a, b)``, a < b, by the selection rule;
        None if no finite pair is left.

        Row x, the first-index argmin of ``row_min``, holds the least
        pair as soon as it is exact: every lower row's minimum, exact or
        bounded, is above x's.  Only when x is stale does the batched
        repair run, once: afterwards no stale row can be the argmin.
        """
        self.stat_scanned += 1
        x = int(self.row_min.argmin())
        if self.stale[x]:
            self._repair()
            x = int(self.row_min.argmin())
        if not self.row_min[x] < np.inf:
            return None
        return x, int(self.row_arg[x])

    def _add_singleton(self, record: int) -> None:
        """Re-insert an expelled record as a singleton in the slot freed
        last."""
        slot = self.free_slots.pop()
        self.nodes[slot] = self.enc.singleton_nodes[record]
        self.sizes[slot] = 1
        self.costs[slot] = 0.0
        self.members[slot] = [record]
        self.active[slot] = True
        self.alive += 1
        if self.pos[slot] < 0:
            self._compact()
        else:
            self.penalty[self.pos[slot]] = 0.0
        self._refresh_row(slot, slot)

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
        while self.alive > 1:
            checkpoint("core.agglomerative.merge")
            alive = self.alive
            if 4 * alive <= 3 * self.cols.size:
                self._compact()
            rescans_before = self.stat_rescans
            pair = self._pop_closest_pair()
            if pair is None:
                break  # no finite pair left (cannot happen with >1 active)
            # Rows whose cached minimum survived this selection without
            # a rescan — the work a dense rescan would have redone.
            self.stat_pruned += alive - (self.stat_rescans - rescans_before)
            self._merge(*pair, modified)

        # Line 10: distribute the members of the at-most-one leftover
        # cluster (size < k) to their closest output clusters.
        leftover_slots = np.flatnonzero(self.active)
        if leftover_slots.size:
            slot = int(leftover_slots[0])
            leftover = self.members[slot] or []
            self._distribute_leftover(leftover)
        self._flush_stats()
        return Clustering(self.enc.num_records, self.output)

    def _merge(self, x: int, y: int, modified: bool) -> None:
        """Lines 5–9 for the selected pair x < y: unify into slot x and
        free y; a ripe union leaves for the output (shrunk first when
        ``modified``) and frees x too."""
        self.stat_merges += 1
        merged = self.members[x] + self.members[y]  # type: ignore[operator]
        self.members[y] = None
        self._deactivate(y)
        if len(merged) < self.k:
            self.members[x] = merged
            self.nodes[x] = self._merged_closure(
                self.nodes[x], self.nodes[y], merged
            )
            self.sizes[x] = len(merged)
            self.costs[x] = float(self.model.record_cost(self.nodes[x]))
            self._refresh_row(x, y)
            return
        expelled: list[int] = []
        if modified and len(merged) > self.k:
            merged, expelled = self._shrink(merged)
        self.stat_expelled += len(expelled)
        self.output.append(merged)
        self.members[x] = None
        self._deactivate(x)
        arg = self.row_arg
        self.stale |= (arg == x) | (arg == y)
        # repro: allow[REP011] re-inserts the < size expelled records of one merge; one call per merge checkpoint
        for record in expelled:
            self._add_singleton(record)

    def _merged_closure(
        self, nodes_a: np.ndarray, nodes_b: np.ndarray, merged: list[int]
    ) -> np.ndarray:
        """Closure of the union of two clusters with closures ``nodes_a``
        and ``nodes_b``, whose members are ``merged``.

        Under exact joins the closure of a union is the join of the
        parts' closures: one table lookup per attribute.  Otherwise a
        join can over-generalize, so ``merged`` is closed afresh.
        """
        if self.enc.exact_joins:
            return self.enc.join_rows(nodes_a, nodes_b)
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
        out_nodes = cluster_closures(enc, self.output)
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
            members = self.output[target]
            members.append(record)
            out_nodes[target] = self._merged_closure(
                out_nodes[target], single, members
            )
            out_sizes[target] += 1
            out_costs[target] = model.record_cost(out_nodes[target])


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
