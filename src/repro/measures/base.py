"""Information-loss measure interfaces and the cost model.

The paper evaluates anonymizations with measures of the form

    Π(D, g(D)) = (1/n) Σ_i c(R̄_i),    c(R̄) = (1/r) Σ_j cost_j(R̄(j))

(eq. 3, 4, 7): the per-record cost is the mean, over attributes, of a cost
that depends only on the chosen generalized subset.  A
:class:`LossMeasure` therefore boils down to one vector per attribute —
the cost of each permissible subset ("node") — and a :class:`CostModel`
binds those vectors to an encoded table so that record, cluster and table
costs become numpy lookups.

Two further interfaces cover the related-work measures that do not fit
the node-cost mold: :class:`RecordLossMeasure` (per-entry cost that also
depends on the original value, e.g. non-uniform entropy [10]) and
:class:`ClusteringMeasure` (cost of a clustering as a whole, e.g. DM [6]
and CM [11]).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterator, Sequence

import numpy as np

from repro.errors import SchemaError
from repro.tabular.encoding import EncodedAttribute, EncodedTable


class LossMeasure(ABC):
    """A node-decomposable information-loss measure.

    Subclasses implement :meth:`node_costs`; everything else (record,
    cluster, table costs; distance functions; all of Section V) is generic.
    """

    #: Short identifier used by the registry and in experiment reports.
    name: str = "abstract"

    #: Whether node costs are monotone under subset containment
    #: (B ⊆ B' implies cost(B) ≤ cost(B')).  True for the structural
    #: measures (LM, tree, MW); false for the data-dependent entropy
    #: measure, whose cost can *drop* when a dominant value joins a
    #: subset.  The verification harness checks the claim when set.
    monotone: bool = False

    #: Whether node costs always lie in [0, 1].  True for the structural
    #: measures; false for entropy, which is bounded by log2 of the
    #: domain size instead.  Checked by the verification harness.
    bounded_unit: bool = False

    @abstractmethod
    def node_costs(
        self, attribute: EncodedAttribute, value_counts: np.ndarray
    ) -> np.ndarray:
        """Per-node cost vector for one attribute.

        Parameters
        ----------
        attribute:
            The encoded attribute (node sizes, domain size, ...).
        value_counts:
            Empirical count of each domain value in the table — the
            distribution ``Pr(X_j = a)`` of Definition 4.3.

        Returns
        -------
        ``float64[num_nodes]`` with ``cost[singleton] == 0`` expected of
        any sane measure (no generalization, no loss).
        """

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class RecordLossMeasure(ABC):
    """An entry-level measure: cost depends on (original value, node).

    Evaluation-only — these measures cannot drive the clustering
    algorithms (their cluster cost is not a function of the closure
    alone), but :func:`evaluate_record_measure` scores any finished
    generalization with them.
    """

    name: str = "abstract-record"

    @abstractmethod
    def entry_costs(
        self, attribute: EncodedAttribute, value_counts: np.ndarray
    ) -> np.ndarray:
        """``float64[num_values, num_nodes]`` cost of publishing node ``b``
        for a record whose true value is ``v``.  Entries with ``v ∉ b``
        are never read and may hold anything (conventionally ``inf``)."""


class ClusteringMeasure(ABC):
    """A measure of a clustering as a whole (DM, CM).

    Evaluation-only; see :mod:`repro.measures.discernibility` and
    :mod:`repro.measures.classification`.
    """

    name: str = "abstract-clustering"

    @abstractmethod
    def clustering_cost(
        self, enc: EncodedTable, clusters: Sequence[Sequence[int]]
    ) -> float:
        """Cost of a partition of the records into clusters."""


class CostModel:
    """A :class:`LossMeasure` bound to an :class:`EncodedTable`.

    Precomputes the per-attribute node-cost vectors once; all cost queries
    after that are numpy fancy-indexing.  This object is what every
    algorithm in :mod:`repro.core` consumes.

    Parameters
    ----------
    enc, measure:
        The table and the loss measure.
    weights:
        Optional per-attribute importance weights.  The paper's measures
        weigh attributes uniformly (the ``1/r`` in eqs. 3–4); passing
        weights reweighs them (normalized to sum to 1), so e.g. a
         5-identifying ``age`` can count five times a binary ``sex``.
        The weights are folded into the node-cost vectors, so every
        algorithm transparently optimizes the weighted objective.
    """

    __slots__ = ("enc", "measure", "node_costs", "weights")

    def __init__(
        self,
        enc: EncodedTable,
        measure: LossMeasure,
        weights: Sequence[float] | None = None,
    ) -> None:
        self.enc = enc
        self.measure = measure
        r = enc.num_attributes
        if weights is None:
            scale = np.full(r, 1.0, dtype=np.float64)
        else:
            scale = np.asarray(weights, dtype=np.float64)
            if scale.shape != (r,):
                raise SchemaError(
                    f"{scale.size} weights for {r} attributes"
                )
            if (scale < 0).any() or scale.sum() <= 0:
                raise SchemaError(
                    "attribute weights must be non-negative with positive sum"
                )
            # Normalize so Π keeps the per-entry-average interpretation.
            scale = scale * (r / scale.sum())
        self.weights = scale
        costs = []
        for j, (att, counts) in enumerate(zip(enc.attrs, enc.value_counts)):
            vec = np.asarray(
                measure.node_costs(att, counts), dtype=np.float64
            )
            if vec.shape != (att.num_nodes,):
                raise SchemaError(
                    f"measure {measure.name!r} returned shape {vec.shape} for an "
                    f"attribute with {att.num_nodes} nodes"
                )
            costs.append(vec * scale[j])
        self.node_costs: tuple[np.ndarray, ...] = tuple(costs)

    # ------------------------------------------------------------------ #
    # cost queries
    # ------------------------------------------------------------------ #

    def record_cost(self, nodes: np.ndarray) -> np.ndarray | float:
        """c(R̄) for one node vector ``[r]`` or many ``[*, r]``.

        The cost is the mean of per-attribute node costs, matching the
        ``1/r`` normalization in eqs. (3) and (4).
        """
        nodes = np.asarray(nodes)
        r = len(self.node_costs)
        if nodes.ndim == 1:
            return float(
                sum(self.node_costs[j][nodes[j]] for j in range(r)) / r
            )
        total = np.zeros(nodes.shape[:-1], dtype=np.float64)
        for j in range(r):
            total += self.node_costs[j][nodes[..., j]]
        return total / r

    def table_cost(self, node_matrix: np.ndarray) -> float:
        """Π(D, g(D)) of a full ``[n, r]`` node matrix (eq. 3 / 4 form)."""
        node_matrix = np.asarray(node_matrix)
        if node_matrix.shape[0] != self.enc.num_records:
            raise SchemaError(
                f"node matrix has {node_matrix.shape[0]} rows, table has "
                f"{self.enc.num_records} records"
            )
        costs = self.record_cost(node_matrix)
        return float(np.mean(costs))

    def cluster_cost(self, record_indices: Sequence[int]) -> float:
        """d(S) = c(closure(S)) for a set of record indices (eq. 7)."""
        nodes = self.enc.closure_of_records(record_indices)
        return float(self.record_cost(nodes))

    def clustering_cost(self, clusters: Sequence[Sequence[int]]) -> float:
        """Π of the generalization induced by a clustering:
        Σ_S |S|·d(S) / n  (eq. 7)."""
        n = self.enc.num_records
        total = 0.0
        covered = 0
        for cluster in clusters:
            total += len(cluster) * self.cluster_cost(cluster)
            covered += len(cluster)
        if covered != n:
            raise SchemaError(
                f"clustering covers {covered} records, table has {n}"
            )
        return total / n


class FusedJoinCost:
    """The join→cost kernel: ``c(join(row, anchor))`` for many rows at once.

    Attribute j contributes ``node_costs_j[join_j[row_j, anchor_j]]``.
    For one anchor node c that is a lookup in the short vector
    ``node_costs_j[join_j[:, c]]`` (one entry per node of attribute j),
    so pricing m candidate unions costs one gather of m per attribute
    and no materialized union matrix.  Rows come *attribute-major*
    (``rows_t[j]`` holds attribute j's node of every row).

    Every cost is bit-identical to
    ``model.record_cost(enc.join_rows(row, anchor))``:

    * the join is looked up as ``join[row, anchor]``, the orientation
      of ``join_rows(rows, anchor)``;
    * attribute terms are summed left to right, then divided once by
      ``r`` — the float operations of ``record_cost``, in the same
      order (a vectorized ``sum`` would reassociate them).

    ``record_cost`` starts its sum from ``0.0``, which turns a ``-0.0``
    first term into ``+0.0``.  The kernel keeps its own copy of the node
    costs with ``0.0`` added once, so it can start from the first term
    itself and still produce the same bits.
    """

    __slots__ = ("_costs", "_joins", "_r")

    def __init__(self, model: CostModel) -> None:
        self._costs = tuple(vec + 0.0 for vec in model.node_costs)
        self._joins = tuple(att.join for att in model.enc.attrs)
        self._r = len(self._joins)

    def term(
        self, j: int, rows_j: np.ndarray, anchors_j: np.ndarray | int
    ) -> np.ndarray:
        """Attribute j's cost term ``node_costs_j[join_j[row, anchor]]``
        of every row against every anchor node: ``[m]`` for one anchor,
        ``[B, m]`` for ``B`` anchors."""
        column = self._costs[j][self._joins[j].T[anchors_j]]
        return np.take(column, rows_j, axis=-1)

    def _sum(self, terms: Iterator[np.ndarray]) -> np.ndarray:
        """Record costs from the r per-attribute terms, in attribute
        order.  The terms must be fresh arrays: the first is summed
        into in place."""
        total = next(terms)
        for term in terms:
            total += term
        total /= self._r
        return total

    def costs(self, rows_t: np.ndarray, anchors: np.ndarray) -> np.ndarray:
        """Union costs of every row against one anchor or a block.

        ``rows_t`` is ``[r, m]`` (attribute-major).  An anchor ``[r]``
        gives ``[m]`` costs; a block of anchors ``[B, r]`` gives
        ``[B, m]``, one row per anchor.
        """
        anchors = np.asarray(anchors)
        return self._sum(
            self.term(j, rows_t[j], anchors[..., j]) for j in range(self._r)
        )

    def pair_costs(self, nodes_a: np.ndarray, node_b: np.ndarray) -> np.ndarray:
        """Union costs of every row of record-major ``nodes_a`` ``[m, r]``
        with one anchor ``node_b``."""
        return self.costs(np.asarray(nodes_a).T, node_b)

    def elementwise_costs(
        self, rows_t: np.ndarray, anchors_t: np.ndarray
    ) -> np.ndarray:
        """``[m]`` union costs, pair i priced as ``join(row i, anchor i)``.

        ``rows_t`` and ``anchors_t`` are both ``[r, m]`` (attribute-major).
        Entry i is bit-identical to ``costs(rows_t, anchors_t.T)[i, i]``:
        the same ``join[row, anchor]`` lookup, left-to-right sum and one
        division by ``r``, without the ``m × m`` block.
        """
        return self._sum(
            self._costs[j].take(
                self._joins[j].ravel().take(
                    np.multiply(rows_t[j], len(self._joins[j]), dtype=np.intp)
                    + anchors_t[j]
                )
            )
            for j in range(self._r)
        )


class FixedRowJoinCost:
    """:meth:`FusedJoinCost.costs` of one fixed row set, against many
    blocks of anchors: a memo in front of the kernel, not a second one.

    Attribute j's terms for anchor node c against all m rows depend
    only on (j, c), so each such row of terms is computed by
    :meth:`FusedJoinCost.term` the first time an anchor needs it and
    kept.  Memory is O(distinct anchor nodes seen × m) per attribute;
    no ``num_nodes × m`` block is built up front.  Costs are the
    kernel's, bit for bit.
    """

    __slots__ = ("_fused", "_rows_t", "_slot", "_terms", "_used")

    def __init__(self, fused: FusedJoinCost, rows: np.ndarray) -> None:
        rows = np.asarray(rows)
        self._fused = fused
        self._rows_t = np.ascontiguousarray(rows.T)
        self._slot = [
            np.full(len(join), -1, dtype=np.int64) for join in fused._joins
        ]
        self._terms = [
            np.empty((4, rows.shape[0]), dtype=np.float64) for _ in fused._joins
        ]
        self._used = [0] * len(fused._joins)

    def _slots(self, j: int, nodes: np.ndarray) -> np.ndarray:
        """Rows of ``self._terms[j]`` holding each anchor node's terms."""
        slot = self._slot[j]
        found = slot[nodes]
        if found.min() >= 0:
            return found
        missing = np.unique(nodes[found < 0])
        used = self._used[j]
        terms = self._terms[j]
        if used + missing.size > terms.shape[0]:
            grown = np.empty(
                (max(2 * terms.shape[0], used + missing.size), terms.shape[1]),
                dtype=np.float64,
            )
            grown[:used] = terms[:used]
            self._terms[j] = terms = grown
        terms[used : used + missing.size] = self._fused.term(
            j, self._rows_t[j], missing
        )
        slot[missing] = np.arange(used, used + missing.size)
        self._used[j] = used + missing.size
        return slot[nodes]

    def costs(self, anchors: np.ndarray) -> np.ndarray:
        """``[B, m]``: the union cost of every row with each anchor of
        the ``[B, r]`` block."""
        slots = [self._slots(j, anchors[:, j]) for j in range(len(self._terms))]
        return self._fused._sum(
            terms[slot] for terms, slot in zip(self._terms, slots)
        )


def evaluate_record_measure(
    enc: EncodedTable, measure: RecordLossMeasure, node_matrix: np.ndarray
) -> float:
    """Score a finished generalization with an entry-level measure.

    Returns the mean entry cost over all n·r entries, the direct analogue
    of eqs. (3)/(4) for value-dependent costs.
    """
    node_matrix = np.asarray(node_matrix)
    n, r = node_matrix.shape
    if n != enc.num_records or r != enc.num_attributes:
        raise SchemaError(
            f"node matrix has shape {node_matrix.shape}, expected "
            f"{(enc.num_records, enc.num_attributes)}"
        )
    total = 0.0
    for j, (att, counts) in enumerate(zip(enc.attrs, enc.value_counts)):
        table = np.asarray(measure.entry_costs(att, counts), dtype=np.float64)
        total += float(table[enc.codes[:, j], node_matrix[:, j]].sum())
    return total / (n * r)
