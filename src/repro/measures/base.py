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

import copy
from abc import ABC, abstractmethod
from typing import Sequence

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

    def block(self, members: np.ndarray) -> CostModel:
        """This model over the records ``members`` as a table of their own
        (:meth:`EncodedTable.block
        <repro.tabular.encoding.EncodedTable.block>`).

        The measure, the weights and the node costs stay this model's:
        the schema, and so the node indexing, is shared, and the costs
        were computed from the whole table's distribution, as eq. (3)
        prescribes.  Nothing is recomputed per block.
        """
        sub = copy.copy(self)
        sub.enc = self.enc.block(members)
        return sub

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
    The kernel looks that up in a C-order cost-of-join table built once
    per attribute, ``T_j = node_costs_j[join_j.T]``: row c of ``T_j`` is
    the term of every node of attribute j against anchor node c.  So
    pricing m rows against one anchor costs one row view and one gather
    of m per attribute, and no union matrix is materialized.  Rows come
    *attribute-major* (``rows_t[j]`` holds attribute j's node of every
    row), and C-contiguous ``np.intp`` rows gather fastest.  The tables
    hold Σ_j N_j² doubles for attributes of N_j nodes (13,430, about
    107 KB, on ADT), twice the int32 join tables they come from.

    Every cost is bit-identical to
    ``model.record_cost(enc.join_rows(row, anchor))``:

    * ``T_j[c, b] = node_costs_j[join_j[b, c]]``, so the join is looked
      up as ``join[row, anchor]``, the orientation of
      ``join_rows(rows, anchor)``;
    * attribute terms are summed left to right, then divided once by
      ``r`` — the float operations of ``record_cost``, in the same
      order (a vectorized ``sum`` would reassociate them).  Each term
      is released before the next one is built, so a block of anchors
      holds two block-sized arrays at a time, not three.

    ``record_cost`` starts its sum from ``0.0``, which turns a ``-0.0``
    first term into ``+0.0``.  The tables are gathered from the node
    costs with ``0.0`` added once, so the kernel can start from the
    first term itself and still produce the same bits.
    """

    __slots__ = ("_r", "_tables")

    def __init__(self, model: CostModel) -> None:
        # ``take`` returns C order: fancy indexing with the F-order
        # ``join.T`` would give F-order tables, whose rows are strided.
        self._tables = tuple(
            (vec + 0.0).take(att.join.T)
            for vec, att in zip(model.node_costs, model.enc.attrs)
        )
        self._r = len(self._tables)

    def costs(self, rows_t: np.ndarray, anchors: np.ndarray) -> np.ndarray:
        """Union costs of every row against one anchor or a block.

        ``rows_t`` is ``[r, m]`` (attribute-major).  An anchor ``[r]``
        gives ``[m]`` costs; a block of anchors ``[B, r]`` gives
        ``[B, m]``, one row per anchor.
        """
        anchors_t = np.asarray(anchors).T
        tables = self._tables
        total = tables[0][anchors_t[0]].take(rows_t[0], axis=-1)
        for j in range(1, self._r):
            total += tables[j][anchors_t[j]].take(rows_t[j], axis=-1)
        total /= self._r
        return total

    def pair_costs(self, nodes_a: np.ndarray, node_b: np.ndarray) -> np.ndarray:
        """Union costs of every row of record-major ``nodes_a`` ``[m, r]``
        with one anchor ``node_b``."""
        return self.costs(np.asarray(nodes_a).T, node_b)

    def _pair_term(
        self, j: int, rows_j: np.ndarray, anchors_j: np.ndarray
    ) -> np.ndarray:
        """Attribute j's term of row i against anchor i, for every i."""
        table = self._tables[j]
        flat = np.multiply(anchors_j, len(table), dtype=np.intp)
        flat += rows_j
        return table.ravel().take(flat)

    def elementwise_costs(
        self, rows_t: np.ndarray, anchors_t: np.ndarray
    ) -> np.ndarray:
        """``[m]`` union costs, pair i priced as ``join(row i, anchor i)``.

        ``rows_t`` and ``anchors_t`` are both ``[r, m]`` (attribute-major).
        Entry i is bit-identical to ``costs(rows_t, anchors_t.T)[i, i]``:
        the same table entry ``T_j[anchor, row]``, left-to-right sum and
        one division by ``r``, without the ``m × m`` block.
        """
        total = self._pair_term(0, rows_t[0], anchors_t[0])
        for j in range(1, self._r):
            total += self._pair_term(j, rows_t[j], anchors_t[j])
        total /= self._r
        return total


class FixedRowJoinCost:
    """:meth:`FusedJoinCost.costs` of one fixed row set, against many
    blocks of anchors: the kernel's tables narrowed to those rows.

    Attribute j's term of anchor node c against row i is
    ``T_j[c, rows_j[i]]``, so the whole ``[N_j, m]`` term table
    ``T_j[:, rows_j]`` is gathered once, at construction, and a block
    of anchors is priced by one row gather per attribute.  The tables
    hold Σ_j N_j·m doubles for attributes of N_j nodes and m rows: on
    ADT 5000, 226 nodes × 4,714 unique rows, 8.5 MB.  Interval
    collections, with v(v+1)/2 nodes over v values, dominate the sum.
    A block's rows are gathered one attribute at a time into one
    buffer kept across calls, so a block allocates only the array it
    returns.  Costs are the kernel's, bit for bit: the same table
    entries, summed left to right and divided once by ``r``.
    """

    __slots__ = ("_gather", "_terms")

    def __init__(self, fused: FusedJoinCost, rows: np.ndarray) -> None:
        rows_t = np.asarray(rows).T
        self._terms = tuple(
            table.take(rows_j, axis=1)
            for table, rows_j in zip(fused._tables, rows_t)
        )
        self._gather = np.empty(0, dtype=np.float64)

    def costs(self, anchors: np.ndarray) -> np.ndarray:
        """``[B, m]``: the union cost of every row with each anchor of
        the ``[B, r]`` block.  The array is the caller's: callers keep
        and overwrite it, so it never shares the gather buffer."""
        terms = self._terms
        total = terms[0][anchors[:, 0]]
        if self._gather.size < total.size:
            self._gather = np.empty(total.size, dtype=np.float64)
        gather = self._gather[: total.size].reshape(total.shape)
        for j in range(1, len(terms)):
            # ``clip``: the anchors are in range, and "raise" would
            # buffer the output instead of writing into ``gather``.
            np.take(terms[j], anchors[:, j], axis=0, out=gather, mode="clip")
            total += gather
        total /= len(terms)
        return total


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
