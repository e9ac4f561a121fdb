"""The (1,k)-anonymizer, Algorithm 5 (Section V-B.2).

Given *any* generalization g(D) whose i-th record generalizes the i-th
original record, Algorithm 5 further generalizes records of g(D) until
every original record is consistent with at least k generalized records.
Applied to a (k,1)-anonymization it yields a (k,k)-anonymization — the
coupling lives in :mod:`repro.core.kk`.

For each original record R_i with only ℓ < k consistent generalized
records, the k−ℓ generalized records R̄_j minimizing
``c(R̄_i + R̄_j) − c(R̄_j)`` are replaced by R̄_i + R̄_j (the minimal
generalized record covering both).  Since R̄_i generalizes R_i, the
replacement is consistent with R_i; and since replacement only *adds*
values, every consistency established earlier survives — in particular
(k,1)-anonymity of the input is preserved.
"""

from __future__ import annotations

import numpy as np

from repro.errors import AnonymityError
from repro.measures.base import CostModel, FusedJoinCost
from repro.runtime import checkpoint
from repro.tabular.encoding import EncodedTable


def check_generalizes_rows(enc: EncodedTable, nodes: np.ndarray) -> None:
    """Raise unless generalized record i generalizes original record i
    for every i — the precondition of Algorithms 5 and 6."""
    ok = enc.generalizes_rows(nodes)
    if not ok.all():
        i = int(np.argmin(ok))
        raise AnonymityError(
            f"generalized record {i} does not generalize original record {i}"
        )


def _stable_smallest(values: np.ndarray, m: int) -> np.ndarray:
    """``np.argsort(values, kind="stable")[:m]`` for ``1 ≤ m ≤ len(values)``,
    in O(len) instead of a full sort: every value below the m-th
    smallest, then its ties in index order, sorted stably."""
    cut = np.partition(values, m - 1)[m - 1]
    below = np.flatnonzero(values < cut)
    ties = np.flatnonzero(values == cut)[: m - below.size]
    picked = np.concatenate((below, ties))
    return picked[np.argsort(values[picked], kind="stable")]


def one_k_anonymize(
    model: CostModel,
    node_matrix: np.ndarray,
    k: int,
    join_with: str = "generalized",
) -> np.ndarray:
    """Run Algorithm 5; returns a new node matrix, input left untouched.

    Parameters
    ----------
    model:
        Cost model defining c(·).
    node_matrix:
        The input generalization g(D), ``[n, r]`` node indices.  Record i
        must generalize original record i (checked).
    k:
        Target number of consistent generalized records per original.
    join_with:
        ``"generalized"`` (the paper's Algorithm 5: deficient records are
        joined with R̄_i) or ``"original"`` (join with the singleton
        record R_i instead — a per-record never-wider variant this
        library adds for the ablation study; it also fixes consistency
        with R_i and also preserves (k,1), and is usually — though not
        always, because candidate selection interacts across records —
        slightly cheaper overall).

    Candidate unions are priced by the fused join→cost kernel; only the
    ``k − ℓ`` rows actually replaced are materialized.  The record cost
    vector, an attribute-major copy of the node matrix and the value
    masks of :meth:`~repro.tabular.encoding.EncodedTable.value_masks`
    are kept current as rows are replaced.

    Raises
    ------
    AnonymityError
        If k exceeds n, or record i does not generalize row i.
    """
    if join_with not in ("generalized", "original"):
        raise AnonymityError(
            f"join_with must be 'generalized' or 'original', got {join_with!r}"
        )
    enc = model.enc
    n = enc.num_records
    if k > n:
        raise AnonymityError(f"k={k} exceeds the number of records n={n}")
    nodes = np.array(node_matrix, dtype=np.int32, copy=True)
    if nodes.shape != (n, enc.num_attributes):
        raise AnonymityError(
            f"node matrix has shape {nodes.shape}, expected "
            f"{(n, enc.num_attributes)}"
        )

    # Precondition of the algorithm ("It is assumed that for all i,
    # R̄_i is a generalization of R_i").
    check_generalizes_rows(enc, nodes)

    fused = FusedJoinCost(model)
    nodes_t = np.ascontiguousarray(nodes.T, dtype=np.intp)  # [r, n] gather rows
    cost = np.asarray(model.record_cost(nodes), dtype=np.float64)
    masks = enc.value_masks(nodes)
    codes = enc.codes.tolist()
    # Replacements only generalize, so consistent counts never drop: a
    # record consistent with ≥ k generalized records now never needs a fix.
    settled = np.concatenate(
        [np.count_nonzero(b, axis=1) >= k for b in enc.consistency_blocks(masks)]
    )[enc.unique_inverse]

    for i in range(n):
        checkpoint("core.one_k.record")
        if settled[i]:
            continue
        consistent = masks[0][codes[i][0]].copy()
        for mask, code in zip(masks[1:], codes[i][1:]):
            consistent &= mask[code]
        ell = int(np.count_nonzero(consistent))
        if ell >= k:
            continue
        candidates = np.flatnonzero(~consistent)
        anchor = nodes[i] if join_with == "generalized" else enc.singleton_nodes[i]
        # Pricing every row and keeping the candidates' prices costs less
        # than gathering the candidates' rows first.
        cost_new = fused.costs(nodes_t, anchor)[candidates]
        delta = cost_new - cost[candidates]
        order = _stable_smallest(delta, k - ell)
        chosen = candidates[order]
        union = enc.join_rows(nodes[chosen], anchor)
        nodes[chosen] = union
        nodes_t[:, chosen] = union.T
        cost[chosen] = cost_new[order]
        for j, att in enumerate(enc.attrs):
            masks[j][:, chosen] = att.anc[:, union[:, j]]
    return nodes
