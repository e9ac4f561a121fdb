"""The columnar backend: a bucketed, matrix-free agglomerative engine.

Selected via ``backend="columnar"`` (:mod:`repro.core.backend`).  The
contract is strict **bit-equivalence**: every algorithm ported here must
reproduce the pure-Python reference *exactly* — same outputs, same
tie-breaking, same merge sequence — which the differential fuzz harness
and :func:`repro.perf.equivalence.check_backend_equivalence` enforce.

Agglomerative engine (:class:`_ColumnarEngine`)
-----------------------------------------------
The reference :class:`~repro.core.agglomerative._Engine` keeps a dense
O(n²) distance matrix.  This engine replaces it with
*generalization-lattice bucketing*: clusters whose feature summary
``(closure nodes, size, cost)`` coincides are indistinguishable to every
distance function, so one bucket-level evaluation covers all of them.
A per-merge scan costs O(B·r + n) instead of O(n·r), where B is the
number of distinct cluster features — and B collapses fast once merging
coarsens closures (≈100 buckets for thousands of clusters on the
paper's data).  No n×n matrix is ever allocated, which is what admits
the 10k/50k/100k n-grid.

Bit-equivalence argument (the invariants the tests pin):

* **Costs.**  ``CostModel.record_cost`` accumulates per-attribute costs
  in attribute order and divides once; the bucket-level evaluation uses
  the same call on representative rows, so every ``cost_union`` float
  is produced by the identical operation sequence.
* **Values.**  Distance functions are element-wise; evaluating one
  representative per bucket and broadcasting to slots yields bitwise
  the numbers the reference computes per slot.
* **Sides.**  The reference matrix is written from the perspective of
  whichever row refreshed *last* (``_refresh_row`` writes row *and*
  column with ``a``-side values) — observable for the asymmetric ``nc``
  distance and, at 1-ulp level, for the ``t−a−b`` subtraction order of
  d1–d3.  The engine reproduces it with one timestamp per slot: a
  stored pair value is recomputed from the side of the newer stamp
  (ties — both untouched since init — resolve to the row owner, which
  is the side the init wrote).
* **State machine.**  ``row_min``/``row_arg`` pushes (strict
  improvement only), lazy validation and rescans follow the reference
  line for line, so the argmin tie-breaking (lowest slot index wins)
  is identical by induction.

Candidate pruning (admissible, certified)
-----------------------------------------
For *monotone* measures (LM, tree, MW — ``LossMeasure.monotone``) the
cost of a union is bounded below by each side's cost:
``c(Ŝ_a ∪ Ŝ_b) ≥ max(c(Ŝ_a), c(Ŝ_b))`` holds in exact arithmetic
*and* in floats (round-to-nearest addition and division by a positive
constant are monotone maps, and both sides accumulate in the same
attribute order).  For distances declaring
:attr:`~repro.core.distances.ClusterDistance.monotone_in_union`, the
bound lifts through ``evaluate``: ``LB_b = evaluate(…, max(c_a, c_b))``
never exceeds the exact distance, bitwise.  A bucket is then skipped

* for **pushes** when ``LB_b ≥ max(row_min of its slots)`` — a push
  needs a strict improvement, so equality is safe to skip; and
* for the **row minimum** only while ``LB_b`` exceeds the running best
  ``v*`` — buckets with ``LB_b ≤ v*`` are evaluated until none remain,
  so every bucket that could tie the minimum is evaluated exactly and
  the first-index tie-break is preserved.

When the bound cannot certify — non-monotone measure (entropy), or a
distance that does not declare monotonicity — the engine falls back to
the full bucket scan: still O(B·r), never approximate.

Bucket scans price candidate unions with the fused join→cost kernel
:class:`repro.measures.base.FusedJoinCost`, which every (k,1)/(1,k)
algorithm uses too; its costs are bit-identical to ``record_cost`` of
the materialized join.
"""

from __future__ import annotations

import numpy as np

from repro.core.agglomerative import _Engine
from repro.measures.base import CostModel
from repro.obs import count
from repro.runtime import checkpoint

__all__ = ["union_cost_lower_bound"]


def union_cost_lower_bound(
    model: CostModel, cost_a, cost_b
) -> np.ndarray:
    """Certified float lower bound on ``record_cost`` of a join.

    ``max(cost_a, cost_b)`` — valid when the measure is monotone (each
    attribute's join node costs at least either side's node, and the
    float accumulation of ``record_cost`` is a monotone map of its
    terms).  Exposed standalone so the pruning-soundness property tests
    can compare it against brute-force exact costs.
    """
    return np.maximum(cost_a, cost_b)


class _ColumnarEngine(_Engine):
    """Bucketed matrix-free engine, bit-equivalent to :class:`_Engine`.

    Inherits the merge loop, Algorithm 2 shrink and leftover
    distribution; overrides only the distance bookkeeping.
    """

    #: When set (property tests), every pruning decision is audited
    #: against the exact values it skipped; an inadmissible bound raises.
    audit = False

    #: Minimum live-bucket count before a scan engages the pruning
    #: machinery.  Below it the bound/push-bound bookkeeping costs more
    #: than the single fused sweep it would save, so the scan evaluates
    #: every candidate bucket directly.  Outputs are bit-identical
    #: either way — the bound only ever *skips* evaluations whose value
    #: could not change the row minimum or trigger a push; it never
    #: alters a computed value.  Tests pin the machinery by setting 0.
    prune_min_buckets = 512

    # ------------------------------------------------------------------ #
    # bucket registry
    # ------------------------------------------------------------------ #

    def _reset_buckets(self) -> None:
        n, r = self.enc.num_records, self.enc.num_attributes
        self.tick = 0
        self.last_refresh = np.zeros(n, dtype=np.int64)
        self.prune_enabled = bool(
            self.model.measure.monotone and self.distance.monotone_in_union
        )
        self._bucket_ids: dict[bytes, int] = {}
        cap = 16
        self._bnodes = np.zeros((cap, r), dtype=np.int32)
        self._bsizes = np.zeros(cap, dtype=np.int64)
        self._bcosts = np.zeros(cap, dtype=np.float64)
        self._bpop = np.zeros(cap, dtype=np.int64)
        self._bkeys: list[bytes] = [b""] * cap
        self._bhigh = 0  # high-water mark of allocated bucket ids
        self._bfree: list[int] = []
        self.bucket_of = np.full(n, -1, dtype=np.int64)
        self.stat_bucket_evals = 0
        self.stat_bucket_pruned = 0

    def _bucket_key(self, slot: int) -> bytes:
        return (
            self.nodes[slot].tobytes()
            + self.sizes[slot].tobytes()
            + self.costs[slot].tobytes()
        )

    def _grow_buckets(self) -> None:
        cap = self._bnodes.shape[0]
        new = cap * 2
        for name in ("_bnodes", "_bsizes", "_bcosts", "_bpop"):
            old = getattr(self, name)
            shape = (new,) + old.shape[1:]
            grown = np.zeros(shape, dtype=old.dtype)
            grown[:cap] = old
            setattr(self, name, grown)
        self._bkeys.extend([b""] * cap)

    def _assign_bucket(self, slot: int) -> int:
        key = self._bucket_key(slot)
        bid = self._bucket_ids.get(key)
        if bid is None:
            if self._bfree:
                bid = self._bfree.pop()
            else:
                if self._bhigh == self._bnodes.shape[0]:
                    self._grow_buckets()
                bid = self._bhigh
                self._bhigh += 1
            self._bucket_ids[key] = bid
            self._bkeys[bid] = key
            self._bnodes[bid] = self.nodes[slot]
            self._bsizes[bid] = self.sizes[slot]
            self._bcosts[bid] = self.costs[slot]
        self._bpop[bid] += 1
        self.bucket_of[slot] = bid
        return bid

    def _release_bucket(self, slot: int) -> None:
        bid = int(self.bucket_of[slot])
        if bid < 0:
            return
        self._bpop[bid] -= 1
        if self._bpop[bid] == 0:
            del self._bucket_ids[self._bkeys[bid]]
            self._bkeys[bid] = b""
            self._bfree.append(bid)
        self.bucket_of[slot] = -1

    def _adopt_state(self) -> None:
        """(Re)build the bucket registry from the current slot arrays.

        Used after constructing an engine at a prepared state (bench,
        tests) instead of the full :meth:`_init_distances` sweep.
        """
        self._reset_buckets()
        for slot in np.flatnonzero(self.active):
            self._assign_bucket(int(slot))

    # ------------------------------------------------------------------ #
    # initialization: bucket-level all-pairs sweep
    # ------------------------------------------------------------------ #

    def _init_distances(self) -> None:
        """Bucket-level form of the reference all-pairs init.

        One O(u·r) evaluation per unique singleton row instead of the
        dense O(n²) matrix; ``row_min``/``row_arg`` are assembled so
        they match the reference's ``dist.min/argmin(axis=1)`` exactly,
        including the first-slot-index tie-break and the excluded
        diagonal.
        """
        enc, model = self.enc, self.model
        n = enc.num_records
        self._reset_buckets()
        members: list[list[int]] = []
        for slot in range(n):
            bid = self._assign_bucket(slot)
            if bid == len(members):
                members.append([slot])
            else:
                members[bid].append(slot)
        u = self._bhigh
        bnodes = self._bnodes[:u]
        bsizes = self._bsizes[:u]
        bcosts = self._bcosts[:u]
        first = np.array([m[0] for m in members], dtype=np.int64)
        for a in range(u):
            checkpoint("core.agglomerative.init")
            union = enc.join_rows(bnodes, bnodes[a])
            cu = np.asarray(model.record_cost(union), dtype=np.float64)
            d = np.asarray(
                self.distance.evaluate(
                    bsizes[a], bcosts[a], bsizes, bcosts, cu
                ),
                dtype=np.float64,
            )
            if len(members[a]) < 2:
                # Only member is the row owner: the diagonal, excluded.
                d[a] = np.inf
            m = d.min()
            own = members[a]
            if not np.isfinite(m):
                # All-inf row (n == 1): the reference argmin returns 0.
                self.row_min[own] = np.inf
                self.row_arg[own] = 0
                continue
            winners = np.flatnonzero(d == m)
            other = winners[winners != a]
            cand_other = int(first[other].min()) if other.size else n
            self.row_min[own] = m
            if d[a] == m:
                # Own bucket ties: its first member is the candidate for
                # everyone except that member itself, which sees the
                # second member instead.
                self.row_arg[own] = min(cand_other, own[0])
                self.row_arg[own[0]] = min(cand_other, own[1])
            else:
                self.row_arg[own] = cand_other

    # ------------------------------------------------------------------ #
    # scans: bucket-level rows with certified pruning
    # ------------------------------------------------------------------ #

    def _evaluate_buckets(
        self,
        lb: np.ndarray,
        need: np.ndarray,
        exact_of: "callable",
        prune: bool,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Evaluate bucket groups until the row minimum is certified.

        ``need`` marks groups that must be evaluated regardless (push
        candidates).  Returns ``(values, evaluated)`` where unevaluated
        groups hold ``inf`` and are certified to exceed the minimum of
        the evaluated ones strictly.
        """
        g = lb.size
        val = np.full(g, np.inf, dtype=np.float64)
        evaluated = np.zeros(g, dtype=bool)

        def run(sel: np.ndarray) -> None:
            idx = np.flatnonzero(sel)
            if idx.size:
                val[idx] = exact_of(idx)
                evaluated[idx] = True

        if not prune:
            run(~evaluated)
        else:
            run(need)
            if not evaluated.any() and g:
                seed = np.zeros(g, dtype=bool)
                seed[int(lb.argmin())] = True
                run(seed)
            vstar = val.min() if g else np.inf
            # repro: allow[REP011] certified-bound refinement, bounded by the bucket count; one call per merge checkpoint
            while True:
                todo = ~evaluated & (lb <= vstar)
                if not todo.any():
                    break
                run(todo)
                vstar = val.min()
        self.stat_bucket_evals += int(evaluated.sum())
        self.stat_bucket_pruned += int(g - evaluated.sum())
        if self.audit:
            self._audit_prune(lb, val, evaluated, exact_of)
        return val, evaluated

    def _audit_prune(
        self,
        lb: np.ndarray,
        val: np.ndarray,
        evaluated: np.ndarray,
        exact_of: "callable",
    ) -> None:
        """Cross-check every pruning decision against the exact values.

        The bound is admissible iff no skipped group could beat (or tie)
        the retained minimum and every skipped group's exact value
        dominates its lower bound.
        """
        skipped = np.flatnonzero(~evaluated)
        if not skipped.size:
            return
        exact = exact_of(skipped)
        if (exact < lb[skipped]).any():
            raise AssertionError(
                "inadmissible pruning bound: exact distance below LB "
                f"(exact={exact!r}, lb={lb[skipped]!r})"
            )
        vstar = val[evaluated].min() if evaluated.any() else np.inf
        if (exact <= vstar).any():
            raise AssertionError(
                "pruned bucket beats or ties the retained best "
                f"(exact={exact!r}, vstar={vstar!r})"
            )

    def _scan_active(self, x: int) -> tuple[np.ndarray, np.ndarray]:
        """Candidate distances from x, compacted to the active slots.

        Returns ``(act, val)`` where ``act`` lists the active slots in
        ascending order and ``val[i]`` is the x-side distance to slot
        ``act[i]`` (``inf`` for pruned candidates and for x itself) —
        the same values the full row of :meth:`_scan_row_refresh`
        carries at those slots, without materializing the O(n) row on
        the hot path.
        """
        model = self.model
        act = np.flatnonzero(self.active)
        if not act.size:
            return act, np.empty(0, dtype=np.float64)
        # The registry already knows the live buckets and their
        # populations — an O(B) read replaces the O(n log n) sort a
        # per-scan ``np.unique`` would pay.  ``live`` is ascending by
        # bucket id, exactly the order ``np.unique`` would produce.
        pop = self._bpop[: self._bhigh]
        live = np.flatnonzero(pop > 0)
        pos = np.full(self._bhigh, -1, dtype=np.int64)
        pos[live] = np.arange(live.size)
        inverse = pos[self.bucket_of[act]]
        own_idx = int(pos[int(self.bucket_of[x])])
        rel = pop[live].copy()
        rel[own_idx] -= 1  # x never partners itself
        keep = rel > 0
        cand = live[keep]
        if not cand.size:
            return act, np.full(act.size, np.inf, dtype=np.float64)
        bn = self._bnodes[cand]
        bs = self._bsizes[cand]
        bc = self._bcosts[cand]
        size_x, cost_x = self.sizes[x], self.costs[x]
        node_x = self.nodes[x]
        fused = self._fused

        if self.prune_enabled and cand.size >= self.prune_min_buckets:

            def exact_of(idx: np.ndarray) -> np.ndarray:
                cu = fused.pair_costs(bn[idx], node_x)
                return np.asarray(
                    self.distance.evaluate(
                        size_x, cost_x, bs[idx], bc[idx], cu
                    ),
                    dtype=np.float64,
                )

            cu_lb = union_cost_lower_bound(model, bc, cost_x)
            lb = np.asarray(
                self.distance.evaluate(size_x, cost_x, bs, bc, cu_lb),
                dtype=np.float64,
            )
            push_bound = np.full(live.size, -np.inf, dtype=np.float64)
            np.maximum.at(push_bound, inverse, self.row_min[act])
            need = lb < push_bound[keep]
            val, _ = self._evaluate_buckets(lb, need, exact_of, prune=True)
        else:
            # Below prune_min_buckets (or with no certified bound) one
            # fused sweep over every candidate bucket is cheaper than
            # the bound bookkeeping; values are identical either way.
            cu = fused.pair_costs(bn, node_x)
            val = np.asarray(
                self.distance.evaluate(size_x, cost_x, bs, bc, cu),
                dtype=np.float64,
            )
            self.stat_bucket_evals += cand.size

        if keep.all():
            val_act = val[inverse]
        else:
            lookup = np.full(live.size, -1, dtype=np.int64)
            lookup[keep] = np.arange(cand.size)
            li = lookup[inverse]
            have = li >= 0
            val_act = np.full(act.size, np.inf, dtype=np.float64)
            val_act[have] = val[li[have]]
        val_act[int(np.searchsorted(act, x))] = np.inf
        return act, val_act

    def _scan_row_refresh(self, x: int) -> np.ndarray:
        """The x-side distance row the reference ``_distances_from``
        computes, assembled from bucket-level evaluations."""
        act, val = self._scan_active(x)
        dist = np.full(self.active.size, np.inf, dtype=np.float64)
        if act.size:
            dist[act] = val
        return dist

    def _scan_row_mixed(self, x: int) -> np.ndarray:
        """The stored matrix row the reference ``_rescan_row`` reads.

        Entry (x, z) was last written from the side of whichever slot
        refreshed later, so active partners are grouped by
        (bucket, newer-than-x) and each group is evaluated from its
        recorded side.
        """
        enc, model = self.enc, self.model
        n = self.active.size
        dist = np.full(n, np.inf, dtype=np.float64)
        act = np.flatnonzero(self.active)
        act = act[act != x]
        if not act.size:
            return dist
        newer = (self.last_refresh[act] > self.last_refresh[x]).astype(np.int64)
        gid = self.bucket_of[act] * 2 + newer
        groups, inverse = np.unique(gid, return_inverse=True)
        gb = groups >> 1  # bucket id per group
        gs = (groups & 1).astype(bool)  # True: partner side is newer
        bn = self._bnodes[gb]
        bs = self._bsizes[gb]
        bc = self._bcosts[gb]
        size_x, cost_x = self.sizes[x], self.costs[x]

        def side_eval(
            sel_newer: np.ndarray, bs_, bc_, cu
        ) -> np.ndarray:
            # a-side is the most recently refreshed slot of the pair.
            out = np.empty(cu.size, dtype=np.float64)
            old = ~sel_newer
            if old.any():
                out[old] = np.asarray(
                    self.distance.evaluate(
                        size_x, cost_x, bs_[old], bc_[old], cu[old]
                    ),
                    dtype=np.float64,
                )
            if sel_newer.any():
                out[sel_newer] = np.asarray(
                    self.distance.evaluate(
                        bs_[sel_newer],
                        bc_[sel_newer],
                        size_x,
                        cost_x,
                        cu[sel_newer],
                    ),
                    dtype=np.float64,
                )
            return out

        def exact_of(idx: np.ndarray) -> np.ndarray:
            union = enc.join_rows(bn[idx], self.nodes[x])
            cu = np.asarray(model.record_cost(union), dtype=np.float64)
            return side_eval(gs[idx], bs[idx], bc[idx], cu)

        use_prune = (
            self.prune_enabled and groups.size >= self.prune_min_buckets
        )
        if use_prune:
            cu_lb = union_cost_lower_bound(model, bc, cost_x)
            lb = side_eval(gs, bs, bc, np.asarray(cu_lb, dtype=np.float64))
            need = np.zeros(groups.size, dtype=bool)
        else:
            lb = np.full(groups.size, -np.inf, dtype=np.float64)
            need = np.ones(groups.size, dtype=bool)
        val, _ = self._evaluate_buckets(lb, need, exact_of, prune=use_prune)
        dist[act] = val[inverse]
        dist[x] = np.inf
        return dist

    # ------------------------------------------------------------------ #
    # reference-engine hooks
    # ------------------------------------------------------------------ #

    def _refresh_row(self, x: int) -> None:
        """Bucketed form of the reference refresh: same row minimum,
        same argmin tie-break, same strict-improvement pushes.

        Works on the active-compacted scan: the reference's full row is
        ``inf`` outside the active slots, so its min, its first-index
        argmin and its strict-improvement pushes are all reproduced
        from the compact vector (an all-``inf`` row argmins to 0 either
        way; ``val`` holds ``inf`` at x itself, so x never pushes onto
        its own row).
        """
        self.tick += 1
        self.last_refresh[x] = self.tick
        self._release_bucket(x)
        self._assign_bucket(x)
        act, val = self._scan_active(x)
        best = val.min() if act.size else np.inf
        if np.isfinite(best):
            self.row_min[x] = best
            self.row_arg[x] = int(act[int(val.argmin())])
        else:
            self.row_min[x] = best
            self.row_arg[x] = 0
        better = val < self.row_min[act]
        slots = act[better]
        self.row_min[slots] = val[better]
        self.row_arg[slots] = x

    def _deactivate(self, x: int) -> None:
        self.active[x] = False
        self._release_bucket(x)
        self.row_min[x] = np.inf
        self.free_slots.append(x)

    def _rescan_row(self, x: int) -> None:
        dist = self._scan_row_mixed(x)
        self.row_min[x] = dist.min()
        self.row_arg[x] = int(dist.argmin())

    def _pair_value(self, x: int, y: int) -> float:
        """Recompute the recorded value of pair (x, y): the side of the
        newer refresh stamp, via the same vectorized code path that
        produced it (1-element arrays, identical element-wise ops)."""
        if self.last_refresh[y] > self.last_refresh[x]:
            a, b = y, x
        else:
            a, b = x, y
        union = self.enc.join_rows(self.nodes[b][None, :], self.nodes[a])
        cu = np.asarray(self.model.record_cost(union), dtype=np.float64)
        d = np.asarray(
            self.distance.evaluate(
                self.sizes[a],
                self.costs[a],
                self.sizes[b : b + 1],
                self.costs[b : b + 1],
                cu,
            ),
            dtype=np.float64,
        )
        return float(d[0])

    def _flush_stats(self) -> None:
        super()._flush_stats()
        tallies = (
            ("core.agglomerative.bucket_evals", self.stat_bucket_evals),
            ("core.agglomerative.bucket_pruned", self.stat_bucket_pruned),
        )
        for name, value in tallies:
            if value:
                count(name, value)
