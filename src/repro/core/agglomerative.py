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
bit-identical to ``record_cost`` of the materialized join.

* **One index space.**  All engine state is indexed by matrix column:
  the square matrix's rows and columns, the attribute-major ``[r, w]``
  closure nodes (C-order ``intp``, the kernel's gather indices), sizes,
  costs, members and the row minima.  Columns
  hold slots in ascending order (``cols[j]`` is the slot of column j,
  ``pos[s]`` the column of slot s), so every first-index rule over
  columns is the rule above over slots; ``cols``/``pos`` only map the
  slots the LIFO free list holds.
* **Matrix.**  ``matrix[i, j]`` holds ``dist(min, max)`` of the two
  columns' slots for every pair of active columns, bit for bit, so the
  matrix is symmetric.  A column is retired through the ``active``
  mask and a ``+inf`` ``penalty`` that rescans add; its row and column
  are left as they are.
* **Row minima.**  An *exact* active row caches its first-index minimum
  over the active columns (``row_min``, at column ``row_arg``) and in
  ``row_sec`` a lower bound of every other active entry.  A *stale*
  row has ``row_arg = -1`` and ``row_min = row_sec``, a lower bound of
  all its active entries.

A refresh of column x (a merged cluster or an expelled singleton) prices
x against the contiguous columns, writes its row and column, and pushes
each value d into the other rows:

* a row takes x when d is below its minimum, or equal and x is not
  after its argument; its ``row_sec`` becomes
  ``min(row_sec, max(row_min, d))``;
* a row whose argument was x or the freed partner (a *hit* row) also
  takes x when d is below its ``row_sec``; otherwise it becomes stale
  with that bound.  Its ``row_sec`` stays, since it already bounds
  every entry but the argument's;
* a stale row takes x, and is exact again, when d is below its bound.

A selection reads the first-index argmin of ``row_min``: when that row
is exact it is the lowest row of the least pair, and its ``row_arg``
the lowest partner, which is the selection rule above.  When it is
stale, one repair first rescans the stale rows whose bound does not
exceed the least exact row minimum, in blocks of about
``_BLOCK_CELLS`` cells gathered into one reused buffer; no other stale
row can hold the least pair.

Once a quarter of the columns are inactive, the active rows and columns
are compacted in place into a smaller square of the same buffer, rows
moved in ascending order.  An expelled record whose slot was compacted
away gets a column back by a widening that moves rows in descending
order.  Neither move overwrites a row still to be read or allocates a
second matrix.  The all-pairs init prices the upper triangle only, in
blocks of rows of about ``_BLOCK_CELLS`` cells (one kernel call and one
checkpoint per block), and mirrors each block into its columns.  Under
exact joins a merged cluster's closure is the join of its two parts'
closures, one table lookup per attribute instead of a closure of every
member, and Algorithm 2 carries it through its own leave-one-out folds,
so the engine scans no closure at all.
"""

from __future__ import annotations

import numpy as np

from repro.core.clustering import Clustering, cluster_closures
from repro.core.distances import ClusterDistance
from repro.core.notions import check_feasible
from repro.errors import AnonymityError
from repro.measures.base import CostModel, FusedJoinCost
from repro.obs import count
from repro.runtime import checkpoint

#: Matrix cells per block of rows, in the all-pairs init, the repair
#: rescans and the compaction moves: a block's temporaries stay near
#: this many doubles whatever n is.
_BLOCK_CELLS = 1 << 18


class _Engine:
    """Mutable state for one run of Algorithm 1/2."""

    def __init__(self, model: CostModel, distance: ClusterDistance, k: int) -> None:
        self._init_slots(model, distance, k)
        self._init_distances()

    def _init_slots(
        self, model: CostModel, distance: ClusterDistance, k: int
    ) -> None:
        """Allocate the per-column cluster state and the fused join→cost
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

        # Column state: at most n clusters are ever alive at once, so n
        # columns suffice; slots freed by merges are recycled for the
        # singletons Algorithm 2 expels.  The closure nodes are a C-order
        # ``intp`` copy, kept so by every compaction and widening: the
        # kernel gathers through each attribute's contiguous row, and a
        # view of the encoding would get merged closures written into it.
        self.nodes_t = np.array(enc.singleton_nodes.T, dtype=np.intp, order="C")
        self.sizes = np.ones(n, dtype=np.int64)
        self.costs = np.zeros(n, dtype=np.float64)
        self.members: list[list[int] | None] = [[i] for i in range(n)]
        self.active = np.ones(n, dtype=bool)
        self.alive = n
        self.free_slots: list[int] = []

        # ``cols[j]`` is the slot of column j (ascending) and ``pos[s]``
        # the column of slot s, -1 once compacted away.  ``penalty[j]``
        # is 0 for an active column and +inf for an inactive one: added
        # to rescanned rows, it keeps inactive columns from winning an
        # argmin.
        self.cols = np.arange(n)
        self.pos = np.arange(n)
        self.penalty = np.zeros(n, dtype=np.float64)

        self.row_min = np.full(n, np.inf, dtype=np.float64)
        self.row_sec = np.full(n, np.inf, dtype=np.float64)
        self.row_arg = np.full(n, -1, dtype=np.int64)

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

        Block rows ``[a, b)`` are priced against columns ``a..n`` by one
        :meth:`~repro.measures.base.FusedJoinCost.costs` call, each row
        as the A side; join tables are symmetric, and distances are
        element-wise, so every entry is the float a one-shot broadcast
        computes for that pair with its lower slot as A.  The block's
        own square is made symmetric from its upper half, the part
        right of it is mirrored into the columns below, and the rows'
        minima are read once the rows are complete (columns left of
        ``a`` were mirrored by earlier blocks).
        """
        n = self.cols.size
        nodes_t = self.nodes_t
        self._buffer = np.empty(n * n, dtype=np.float64)
        self.matrix = self._buffer.reshape(n, n)
        step = max(1, _BLOCK_CELLS // n)
        for a in range(0, n, step):
            checkpoint("core.agglomerative.init")
            b = min(a + step, n)
            cost_union = self._fused.costs(nodes_t[:, a:], nodes_t[:, a:b].T)
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
            self._scan(slice(a, b), self.matrix[a:b])
        # The block of rows a repair or a move gathers: at most
        # ``_BLOCK_CELLS`` cells, or one row where a row holds more.
        # Allocated once the blocks above are freed, whose memory it
        # can take over.
        self._rows = np.empty(min(n * n, max(n, _BLOCK_CELLS)), dtype=np.float64)

    def _gather_rows(self, rows: np.ndarray) -> np.ndarray:
        """The matrix rows ``rows``, gathered into the reused ``_rows``
        buffer: a fresh block per repair or move would fault its pages
        in again every time."""
        w = self.cols.size
        block = self._rows[: rows.size * w].reshape(rows.size, w)
        # ``clip``: the rows are in range, and "raise" would buffer the
        # output instead of gathering straight into ``block``.
        np.take(self.matrix, rows, axis=0, out=block, mode="clip")
        return block

    def _scan(self, rows: slice | np.ndarray, block: np.ndarray) -> None:
        """Make ``rows`` exact from ``block``, their entries with every
        inactive column at +inf: the first-index argmin, its value, and
        the least of the other entries.  ``block`` is left as it was."""
        index = np.arange(block.shape[0])
        arg = block.argmin(axis=1)
        least = block[index, arg]
        self.row_arg[rows] = arg
        self.row_min[rows] = least
        block[index, arg] = np.inf
        self.row_sec[rows] = block.min(axis=1)
        block[index, arg] = least

    def _refresh_row(self, x: int, freed: int) -> None:
        """Reprice active column x against every column, write its row
        and column, and push its values into the other rows' minima.

        Columns below x are the A side of their pair with x, columns
        above it the B side.  ``freed`` is the column retired by this
        merge (x itself for an expelled singleton): rows whose argument
        was x or ``freed`` keep an exact minimum only through x.
        """
        sizes, costs = self.sizes, self.costs
        size_x, cost_x = sizes[x], costs[x]
        cost_union = self._fused.costs(self.nodes_t, self.nodes_t[:, x])
        evaluate = self.distance.evaluate
        dist = np.concatenate(
            (
                evaluate(sizes[:x], costs[:x], size_x, cost_x, cost_union[:x]),
                (np.inf,),
                evaluate(
                    size_x,
                    cost_x,
                    sizes[x + 1 :],
                    costs[x + 1 :],
                    cost_union[x + 1 :],
                ),
            )
        )
        self.matrix[x] = dist
        self.matrix[:, x] = dist
        dist += self.penalty
        cur, arg, sec = self.row_min, self.row_arg, self.row_sec
        hit = arg == x
        hit |= arg == freed
        # A row takes x below row_sec if hit, below its minimum (a stale
        # row's bound), or tied with it and not after its argument.
        take = dist < sec
        take &= hit
        take |= dist < cur
        tie = dist == cur
        tie &= arg >= x
        take |= tie
        lost = hit > take
        # Outside hit rows, the larger of the old minimum and d is now
        # an entry other than the argument's.
        bound = np.maximum(cur, dist)
        np.copyto(bound, np.inf, where=hit)
        np.minimum(sec, bound, out=sec)
        np.copyto(cur, dist, where=take)
        arg[take] = x
        np.copyto(cur, sec, where=lost)
        arg[lost] = -1
        # Row x itself: its first-index minimum and least other entry.
        best = int(dist.argmin())
        arg[x] = best
        cur[x] = dist[best]
        dist[best] = np.inf
        sec[x] = dist.min()

    def _deactivate(self, x: int) -> None:
        """Retire column x through the mask; its matrix row and column
        are left as they are.  Its ``row_arg`` of -1 and ``row_min`` of
        +inf keep the retired row out of every selection and push."""
        self.active[x] = False
        self.penalty[x] = np.inf
        self.row_min[x] = np.inf
        self.row_arg[x] = -1
        self.alive -= 1
        self.free_slots.append(int(self.cols[x]))

    def _repair(self) -> None:
        """Rescan the stale rows that could hold the least pair.

        A stale row whose bound exceeds the least exact row minimum
        cannot, and stays stale.  The others are rescanned in blocks of
        rows of about ``_BLOCK_CELLS`` cells: one gather, the inactive
        columns masked by ``penalty``, one 2-D first-index argmin.
        """
        arg, cur = self.row_arg, self.row_min
        stale = np.flatnonzero((arg < 0) & self.active)
        self.stat_scanned += stale.size
        bound = np.where(arg < 0, np.inf, cur).min()
        rows = stale[cur[stale] <= bound]
        step = max(1, _BLOCK_CELLS // self.cols.size)
        # repro: allow[REP011] rescans the stale rows of one selection, a block at a time; one call per merge checkpoint
        for a in range(0, rows.size, step):
            part = rows[a : a + step]
            block = self._gather_rows(part)
            block += self.penalty
            self._scan(part, block)
        self.stat_rescans += rows.size

    def _move(self, src: np.ndarray, descending: bool) -> None:
        """Make the matrix its ``[src][:, src]`` square, in place.

        ``src`` holds the old row and column of each new one.  New row
        j starts at offset ``j·w'`` of the buffer.  A narrowing (the
        active columns, w' ≤ w) puts every row at or before where its
        source starts, so rows are moved in ascending order; a widening
        (one column more) puts it at or after, so in descending order.
        Either way, a block of rows at a time, no move overwrites a row
        still to be read and no second matrix is allocated.
        """
        width = src.size
        dst = self._buffer[: width * width].reshape(width, width)
        step = max(1, _BLOCK_CELLS // max(width, self.cols.size))
        starts = range(0, width, step)
        # repro: allow[REP011] moves every kept row once per compaction or widening, a block at a time; one call per merge checkpoint
        for a in reversed(starts) if descending else starts:
            rows = self._gather_rows(src[a : a + step])
            dst[a : a + step] = rows.take(src, axis=1)
        self.matrix = dst

    def _compact(self) -> None:
        """Keep the rows and columns of the active columns only."""
        keep = np.flatnonzero(self.active)
        w, width = self.cols.size, keep.size
        self._move(keep, descending=False)
        # Stale and retired rows' -1 arguments index the trailing -1.
        remap = np.full(w + 1, -1)
        remap[keep] = np.arange(width)
        self.row_arg = remap[self.row_arg[keep]]
        self.row_min = self.row_min[keep]
        self.row_sec = self.row_sec[keep]
        self.nodes_t = self.nodes_t.take(keep, axis=1)  # C order, unlike [:, keep]
        self.sizes = self.sizes[keep]
        self.costs = self.costs[keep]
        self.members = [self.members[j] for j in keep]
        self.active = np.ones(width, dtype=bool)
        self.penalty = np.zeros(width, dtype=np.float64)
        self.cols = self.cols[keep]
        self.pos.fill(-1)
        self.pos[self.cols] = np.arange(width)

    def _widen(self, slot: int) -> int:
        """Give ``slot``, compacted away, an inactive column again, at
        its place in slot order; returns the column.  Its row and column
        hold garbage until the slot's refresh overwrites them."""
        w = self.cols.size
        x = int(np.searchsorted(self.cols, slot))
        self._move(np.insert(np.arange(w), x, 0), descending=True)
        arg = self.row_arg
        self.row_arg = np.insert(arg + (arg >= x), x, -1)
        self.row_min = np.insert(self.row_min, x, np.inf)
        self.row_sec = np.insert(self.row_sec, x, np.inf)
        self.nodes_t = np.insert(self.nodes_t, x, 0, axis=1)
        self.sizes = np.insert(self.sizes, x, 0)
        self.costs = np.insert(self.costs, x, 0.0)
        self.members.insert(x, None)
        self.active = np.insert(self.active, x, False)
        self.penalty = np.insert(self.penalty, x, np.inf)
        self.cols = np.insert(self.cols, x, slot)
        self.pos[self.cols[x:]] = np.arange(x, w + 1)
        return x

    def _pop_closest_pair(self) -> tuple[int, int] | None:
        """The least active pair ``(a, b)`` of columns, a < b, by the
        selection rule; None if no finite pair is left.

        Row x, the first-index argmin of ``row_min``, holds the least
        pair as soon as it is exact: every lower row's minimum, exact or
        bounded, is above x's.  Only when x is stale does the repair
        run, once: afterwards no stale row can be the argmin.
        """
        self.stat_scanned += 1
        x = int(self.row_min.argmin())
        if self.row_arg[x] < 0:
            self._repair()
            x = int(self.row_min.argmin())
        if not self.row_min[x] < np.inf:
            return None
        return x, int(self.row_arg[x])

    def _add_singleton(self, record: int) -> None:
        """Re-insert an expelled record as a singleton in the slot freed
        last."""
        slot = self.free_slots.pop()
        x = int(self.pos[slot])
        if x < 0:
            x = self._widen(slot)
        self.nodes_t[:, x] = self.enc.singleton_nodes[record]
        self.sizes[x] = 1
        self.costs[x] = 0.0
        self.members[x] = [record]
        self.active[x] = True
        self.penalty[x] = 0.0
        self.alive += 1
        self._refresh_row(x, x)

    # ------------------------------------------------------------------ #
    # Algorithm 2: shrink a ripe cluster back to size k
    # ------------------------------------------------------------------ #

    def _shrink(
        self, member_list: list[int], closure: np.ndarray
    ) -> tuple[list[int], list[int]]:
        """Return (kept members of size k, expelled members), given the
        ``closure`` of ``member_list``.

        When every attribute's joins are exact
        (:attr:`~repro.tabular.encoding.EncodedTable.exact_joins`), all
        leave-one-out closures of one round come from prefix/suffix join
        folds — O(size) table lookups instead of the O(size²) closure
        scans of :meth:`_shrink_scan` — and the candidate distances are
        evaluated in one vectorized call.  The next round's closure is
        the fold row of the member just expelled, so no round scans.
        ``np.argmax`` keeps the scan's first-max-wins tie-breaking, and
        the per-candidate float operations are element-wise identical,
        so both paths expel the same records.
        """
        if not self.enc.exact_joins:
            return self._shrink_scan(member_list, closure)
        enc, model = self.enc, self.model
        kept = list(member_list)
        expelled: list[int] = []
        # repro: allow[REP011] expels one record per round, bounded by cluster size; one call per merge checkpoint
        while len(kept) > self.k:
            size = len(kept)
            self.stat_shrink_candidates += size
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
            out = int(np.argmax(d))
            expelled.append(kept.pop(out))
            closure = rest_nodes[out]
        return kept, expelled

    def _shrink_scan(
        self, member_list: list[int], closure: np.ndarray
    ) -> tuple[list[int], list[int]]:
        """Per-subset closure-scan form of :meth:`_shrink`, correct for
        any collection: the path for encodings without exact joins, and
        the oracle of ``test_vectorized_shrink_equals_scan``."""
        enc, model, distance = self.enc, self.model, self.distance
        kept = list(member_list)
        expelled: list[int] = []
        # repro: allow[REP011] scan-mode shrink, bounded by cluster size; one call per merge checkpoint
        while len(kept) > self.k:
            size = len(kept)
            self.stat_shrink_candidates += size
            cost_full = float(model.record_cost(closure))
            rests = [
                enc.closure_of_records(kept[:i] + kept[i + 1 :])
                for i in range(size)
            ]
            best_i, best_d = 0, -np.inf
            for i, rest in enumerate(rests):
                cost_rest = float(model.record_cost(rest))
                # dist(Ŝ, Ŝ \ {R̂_i}): the union of the two sets is Ŝ itself.
                d_i = float(
                    distance.evaluate(
                        size, cost_full, size - 1, cost_rest, cost_full
                    )
                )
                if d_i > best_d:
                    best_i, best_d = i, d_i
            expelled.append(kept.pop(best_i))
            closure = rests[best_i]
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
        leftover_cols = np.flatnonzero(self.active)
        if leftover_cols.size:
            leftover = self.members[int(leftover_cols[0])] or []
            self._distribute_leftover(leftover)
        self._flush_stats()
        return Clustering(self.enc.num_records, self.output)

    def _merge(self, x: int, y: int, modified: bool) -> None:
        """Lines 5–9 for the selected columns x < y: unify into x and
        free y's slot; a ripe union leaves for the output (shrunk first
        when ``modified``) and frees x's slot too."""
        self.stat_merges += 1
        merged = self.members[x] + self.members[y]  # type: ignore[operator]
        self.members[y] = None
        self._deactivate(y)
        nodes = self.nodes_t
        if len(merged) < self.k:
            self.members[x] = merged
            nodes[:, x] = self._merged_closure(nodes[:, x], nodes[:, y], merged)
            self.sizes[x] = len(merged)
            self.costs[x] = float(self.model.record_cost(nodes[:, x]))
            self._refresh_row(x, y)
            return
        expelled: list[int] = []
        if modified and len(merged) > self.k:
            closure = self._merged_closure(nodes[:, x], nodes[:, y], merged)
            merged, expelled = self._shrink(merged, closure)
        self.stat_expelled += len(expelled)
        self.output.append(merged)
        self.members[x] = None
        self._deactivate(x)
        # Rows that cached x or y go stale, bounded by their row_sec.
        arg = self.row_arg
        lost = (arg == x) | (arg == y)
        np.copyto(self.row_min, self.row_sec, where=lost)
        arg[lost] = -1
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
    check_feasible(n, k)
    if k <= 1:
        # Trivial: every record is its own cluster, nothing is generalized.
        return Clustering(n, [[i] for i in range(n)])
    # Checkpoint before allocating the engine so a spent deadline fails
    # fast; the all-pairs init also checkpoints once per block.
    checkpoint("core.agglomerative.init")
    return _Engine(model, distance, k).run(modified)
