"""(k,k) → global (1,k) conversion, Algorithm 6 (Section V-C).

A (k,k)-anonymization guarantees every original record R_i has at least
k *neighbours* in the consistency graph, but possibly fewer than k
*matches* — neighbours whose edge extends to a perfect matching
(Definition 4.6).  The second adversary of Section IV-A exploits exactly
that gap.  Algorithm 6 closes it: while some R_i has fewer than k
matches, pick the non-match neighbour R̄_jh minimizing

    d_h = c(R_jh + R̄_i) − c(R̄_i)

(where R_jh is the *original* record with index j_h) and replace R̄_i by
R_jh + R̄_i.  The new edge (R_jh, R̄_i) lets the identity matching be
rerouted — R_i → R̄_jh, R_jh → R̄_i — so R̄_jh is upgraded from a
neighbour of R_i to a match of R_i.  Generalizing only ever *adds*
edges, and added edges never revoke allowed status (the set of perfect
matchings grows), so the procedure is monotone and terminates.

Instead of re-running Hopcroft–Karp per edge (the paper's O(√n·m²)
accounting), match sets are recomputed once per pass via the
O(n+m) allowed-edge structure theorem (:mod:`repro.matching.allowed`);
each deficient record receives one fix per pass, mirroring the paper's
observation that "one such step was sufficient [...] in almost all of
our experiments".  A fix's price reads only the record's own row and
the singleton rows, so the fixes of one pass are independent: they are
priced in one batch of (record, non-match neighbour) pairs and applied
together.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.k1 import first_min_per_group
from repro.core.one_k import check_generalizes_rows
from repro.errors import AnonymityError
from repro.matching.allowed import allowed_edges
from repro.matching.bipartite import ConsistencyGraph
from repro.measures.base import CostModel, FusedJoinCost
from repro.runtime import checkpoint

#: (record, neighbour) pairs priced per batch: bounds the batch's
#: working arrays to a few megabytes.
_BATCH_PAIRS = 1 << 16


@dataclass
class GlobalConversionStats:
    """Diagnostics of one Algorithm 6 run (used by the G1 experiment)."""

    passes: int = 0  #: how many recompute-fix passes ran
    fixes: int = 0  #: total fix steps applied
    initial_deficient: int = 0  #: records with < k matches before any fix
    deficiency_histogram: dict[int, int] = field(default_factory=dict)
    #: initial (k − matches) histogram over deficient records


def global_one_k_anonymize(
    model: CostModel,
    node_matrix: np.ndarray,
    k: int,
    max_passes: int | None = None,
) -> tuple[np.ndarray, GlobalConversionStats]:
    """Run Algorithm 6; returns (new node matrix, diagnostics).

    Each pass recomputes the match sets, then prices every (deficient
    record, non-match neighbour) pair with one elementwise call of the
    fused join→cost kernel (in batches of about ``_BATCH_PAIRS`` pairs),
    takes each record's first cheapest neighbour and applies all the
    fixes with one ``join_rows`` call.  The result equals fixing the
    records one at a time in index order.

    Parameters
    ----------
    model:
        Cost model defining c(·).
    node_matrix:
        A (k,k)-anonymization of the model's table, record i generalizing
        row i.  (Checked: a record with < k neighbours is rejected, since
        then no fix candidate Q \\ P need exist.)
    k:
        The anonymity parameter.
    max_passes:
        Safety bound on fix passes; defaults to k + 1, which suffices
        because every pass adds at least one match to every deficient
        record.  The allowed-edge check runs once more after the last
        permitted pass, so ``p`` fix passes that reach global (1,k)
        succeed under ``max_passes=p``.

    Raises
    ------
    AnonymityError
        If the input is not a (1,k)-anonymization, a record does not
        generalize its row, or the pass bound is exhausted (indicates a
        bug, not a data property).
    """
    enc = model.enc
    n = enc.num_records
    nodes = np.array(node_matrix, dtype=np.int32, copy=True)
    if nodes.shape != (n, enc.num_attributes):
        raise AnonymityError(
            f"node matrix has shape {nodes.shape}, expected "
            f"{(n, enc.num_attributes)}"
        )
    check_generalizes_rows(enc, nodes)
    if max_passes is None:
        max_passes = k + 1

    fused = FusedJoinCost(model)
    singles_t = enc.singleton_nodes.T  # [r, n]
    stats = GlobalConversionStats()
    while True:
        checkpoint("core.global_1k.pass")
        graph = ConsistencyGraph(enc, nodes)
        adjacency = graph.adjacency_lists()
        degrees = graph.left_degrees()
        if int(degrees.min()) < k:
            raise AnonymityError(
                "input is not a (1,k)-anonymization: record "
                f"{int(degrees.argmin())} has only {int(degrees.min())} "
                f"neighbours (< k={k})"
            )
        allowed = allowed_edges(adjacency, n)
        deficient = [i for i in range(n) if len(allowed[i]) < k]
        if not deficient:
            break
        if stats.passes == max_passes:
            raise AnonymityError(
                f"Algorithm 6 did not converge within {max_passes} passes"
            )
        if stats.passes == 0:
            stats.initial_deficient = len(deficient)
            for i in deficient:
                gap = k - len(allowed[i])
                stats.deficiency_histogram[gap] = (
                    stats.deficiency_histogram.get(gap, 0) + 1
                )
        stats.passes += 1
        records = np.asarray(deficient, dtype=np.int64)
        # Consecutive runs of records with about _BATCH_PAIRS pairs each.
        ends = np.cumsum(degrees[records])
        cuts = np.searchsorted(
            ends, np.arange(_BATCH_PAIRS, ends[-1], _BATCH_PAIRS), side="right"
        )
        picks = np.concatenate(
            [
                _cheapest_upgrades(
                    fused, singles_t, graph.adjacency, allowed, nodes, part
                )
                for part in np.split(records, cuts)
                if part.size
            ]
        )
        nodes[records] = enc.join_rows(
            enc.singleton_nodes[picks], nodes[records]
        )
        stats.fixes += records.size
    return nodes, stats


def _cheapest_upgrades(
    fused: FusedJoinCost,
    singles_t: np.ndarray,
    adjacency: list[np.ndarray],
    allowed: list[set[int]],
    nodes: np.ndarray,
    records: np.ndarray,
) -> np.ndarray:
    """Each record's non-match neighbour j_h minimizing d_h, the first
    in neighbour order on ties, from one elementwise pricing of every
    (record, non-match neighbour) pair.

    d_h = c(R_jh + R̄_i) − c(R̄_i), R_jh the original record j_h, and
    c(R̄_i) is constant per record, so the least d_h is the least union
    cost.  Each price reads only the record's own row and a singleton
    row, so the fixes of one pass are independent of each other.
    """
    n = len(adjacency)
    rows = records.tolist()
    lists = [adjacency[i] for i in rows]
    neighbour = np.concatenate(lists)
    owner = np.repeat(records, [len(a) for a in lists])
    matches = np.sort(
        np.fromiter((i * n + j for i in rows for j in allowed[i]), np.int64)
    )
    keys = owner * n + neighbour
    hit = matches[np.searchsorted(matches, keys).clip(max=matches.size - 1)]
    upgrade = hit != keys
    owner, neighbour = owner[upgrade], neighbour[upgrade]
    # Every record keeps a pair: its degree is ≥ k > its match count.
    costs = fused.elementwise_costs(singles_t[:, neighbour], nodes.T[:, owner])
    first = first_min_per_group(np.searchsorted(owner, records), costs)
    return neighbour[first]
