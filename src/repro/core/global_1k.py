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
our experiments".
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.one_k import check_generalizes_rows
from repro.errors import AnonymityError
from repro.matching.allowed import allowed_edges
from repro.matching.bipartite import ConsistencyGraph
from repro.measures.base import CostModel, FusedJoinCost
from repro.runtime import checkpoint


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
        for i in deficient:
            neighbours = adjacency[i]
            candidates = [j for j in neighbours if j not in allowed[i]]
            if not candidates:  # pragma: no cover - excluded by the degree check
                raise AnonymityError(
                    f"record {i}: no non-match neighbours to upgrade"
                )
            cand = np.asarray(candidates, dtype=np.int64)
            # d_h = c(R_jh + R̄_i) − c(R̄_i), R_jh the original record j_h.
            cost_new = fused.costs(singles_t[:, cand], nodes[i])
            h = int(cost_new.argmin())  # c(R̄_i) is constant; min d_h = min c
            nodes[i] = enc.join_rows(enc.singleton_nodes[cand[h]], nodes[i])
            stats.fixes += 1
    return nodes, stats
