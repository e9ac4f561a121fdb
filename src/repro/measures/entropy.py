"""The entropy measure Π_E of Definition 4.3 (from Gionis & Tassa [10]).

The cost of publishing a subset ``B`` in attribute ``A_j`` is the
conditional entropy ``H(X_j | B)`` of the attribute's empirical
distribution restricted to ``B``:

    H(X_j | B) = − Σ_{b∈B} Pr(b | B) · log2 Pr(b | B),
    Pr(b | B) = count(b) / count(B).

Singletons cost 0; the full domain costs the attribute's entropy.  The
measure is data-dependent: generalizing into a subset dominated by one
frequent value is nearly free, which is exactly the property that makes
Π_E "more accurate" than structural measures (Section II).
"""

from __future__ import annotations

import numpy as np

from repro.measures.base import LossMeasure, RecordLossMeasure
from repro.tabular.encoding import EncodedAttribute


def _conditional_entropy(counts: np.ndarray) -> float:
    """Entropy (bits) of the distribution proportional to ``counts``.

    A subset none of whose values occurs in the table has an undefined
    conditional distribution; we fall back to the uniform distribution
    over the subset (``log2 |B|``), the maximum-entropy completion.
    """
    total = counts.sum()
    if total == 0:
        return float(np.log2(len(counts))) if len(counts) > 1 else 0.0
    p = counts[counts > 0] / total
    return float(-(p * np.log2(p)).sum())


def node_costs_reference(
    attribute: EncodedAttribute, value_counts: np.ndarray
) -> np.ndarray:
    """Per-node Π_E costs, one linear node scan per node.

    The straightforward O(nodes · values) loop; kept as the semantic
    reference for the vectorized :meth:`EntropyMeasure.node_costs`
    (``TestHotPathIdentity::test_entropy_node_costs_match_reference``
    in ``tests/test_perf.py`` compares the two).
    """
    coll = attribute.collection
    costs = np.empty(attribute.num_nodes, dtype=np.float64)
    for node in range(attribute.num_nodes):
        members = sorted(coll.node_indices(node))
        costs[node] = _conditional_entropy(value_counts[members])
    return costs


def entry_costs_reference(
    attribute: EncodedAttribute, value_counts: np.ndarray
) -> np.ndarray:
    """Per-(value, node) non-uniform entropy costs, nested Python loops.

    Reference implementation for the vectorized
    :meth:`NonUniformEntropyMeasure.entry_costs`
    (``TestHotPathIdentity::test_entry_costs_bit_identical_to_reference``
    in ``tests/test_perf.py`` compares the two).
    """
    coll = attribute.collection
    m, n_nodes = attribute.num_values, attribute.num_nodes
    table = np.full((m, n_nodes), np.inf, dtype=np.float64)
    for node in range(n_nodes):
        members = sorted(coll.node_indices(node))
        total = value_counts[members].sum()
        for v in members:
            if value_counts[v] > 0 and total > 0:
                table[v, node] = -np.log2(value_counts[v] / total)
            else:
                # Value absent from the data: uniform fallback, matching
                # _conditional_entropy's convention.
                table[v, node] = np.log2(len(members)) if len(members) > 1 else 0.0
    return table


class EntropyMeasure(LossMeasure):
    """Π_E — the entropy information-loss measure (eq. 3)."""

    name = "entropy"

    # Data-dependent: the conditional entropy of a subset can *drop*
    # when a dominant value joins it, and is bounded by log2(domain)
    # rather than 1 — so neither soundness flag holds (REP005 requires
    # the claims to be stated, not inherited).
    monotone = False
    bounded_unit = False

    def node_costs(
        self, attribute: EncodedAttribute, value_counts: np.ndarray
    ) -> np.ndarray:
        # Vectorized over the whole (value, node) membership table: one
        # masked [m, nodes] matrix instead of a Python loop with a node
        # scan per node (see node_costs_reference for the loop form).
        anc = attribute.anc
        counts = np.where(anc, value_counts[:, np.newaxis], 0).astype(np.float64)
        totals = counts.sum(axis=0)
        p = counts / np.where(totals > 0.0, totals, 1.0)
        # log2 via a guard value of 1.0 so the zero entries contribute
        # exact zeros (p * log2(1) == 0) without divide-by-zero warnings.
        plogp = p * np.log2(np.where(p > 0.0, p, 1.0))
        costs = -plogp.sum(axis=0)
        empty = totals == 0.0
        if empty.any():
            sizes = attribute.sizes.astype(np.float64)
            costs[empty] = np.where(
                sizes[empty] > 1.0, np.log2(np.maximum(sizes[empty], 1.0)), 0.0
            )
        # -0.0 from the negated sum of exact zeros → normalize to +0.0.
        return costs + 0.0


class NonUniformEntropyMeasure(RecordLossMeasure):
    """The non-uniform entropy measure of [10] — entry-level, eval-only.

    The cost of publishing subset ``B`` for a record whose true value is
    ``v ∈ B`` is ``−log2 Pr(X_j = v | X_j ∈ B)``: the number of bits an
    observer still lacks to pin down the exact value.  Unlike Π_E this
    charges rare values more than frequent ones, so it cannot be expressed
    as a function of the closure alone and is used only to *score*
    finished generalizations.
    """

    name = "nonuniform-entropy"

    def entry_costs(
        self, attribute: EncodedAttribute, value_counts: np.ndarray
    ) -> np.ndarray:
        # Vectorized form of entry_costs_reference: the membership table
        # ``anc`` gives every (value, node) pair at once, and the float
        # sums/divisions are exact integer arithmetic below 2^53, so the
        # result is bit-identical to the nested-loop reference.
        anc = attribute.anc
        counts = np.where(anc, value_counts[:, np.newaxis], 0).astype(np.float64)
        totals = counts.sum(axis=0)
        valid = anc & (value_counts[:, np.newaxis] > 0) & (totals[np.newaxis, :] > 0.0)
        ratio = counts / np.where(totals > 0.0, totals, 1.0)
        table = np.full(anc.shape, np.inf, dtype=np.float64)
        table[valid] = -np.log2(ratio[valid])
        # Value absent from the data (or empty node): uniform fallback,
        # matching _conditional_entropy's convention.
        sizes = attribute.sizes.astype(np.float64)
        fallback_cost = np.where(
            sizes > 1.0, np.log2(np.maximum(sizes, 1.0)), 0.0
        )
        fallback = anc & ~valid
        return np.where(fallback, fallback_cost[np.newaxis, :], table)
