"""Numeric encoding of tables and hierarchies.

Every algorithm in the paper is O(n²)-ish in the number of records, which
is only feasible in Python if the inner loops become numpy table lookups.
This module precomputes, per attribute:

* ``join[a, b]`` — node index of the closure of the union of nodes a and b
  (the LCA for laminar collections), so cluster closures become integer
  lookups;
* ``anc[v, b]`` — whether value ``v`` lies in node ``b``, so consistency
  checks (Definition 3.3) become boolean lookups;
* ``sizes[b]`` and ``singleton[v]`` helper arrays;
* the empirical value distribution, which the entropy measure needs.

An :class:`EncodedTable` additionally deduplicates identical rows: all
costs and closures depend only on the multiset of values, so algorithms
can work on ``u ≤ n`` unique rows with multiplicities.  An encoding is
read-only once built, so one encoding can serve many runs.
"""

from __future__ import annotations

import copy
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.errors import SchemaError
from repro.tabular.hierarchy import SubsetCollection
from repro.tabular.record import GeneralizedRecord
from repro.tabular.table import GeneralizedTable, Table

#: Cells per :meth:`EncodedTable.consistency_blocks` block: a block of
#: unique rows × generalized records stays near this many bytes.
_BLOCK_CELLS = 1 << 18


class EncodedAttribute:
    """Precomputed lookup tables for one attribute's subset collection."""

    __slots__ = ("collection", "join", "anc", "sizes", "singleton", "full_node")

    def __init__(self, collection: SubsetCollection) -> None:
        self.collection = collection
        n_nodes = collection.num_nodes
        m = collection.attribute.size
        self.join = collection.build_join_table()
        self.anc = collection.build_ancestor_table()
        self.sizes = np.array(
            [collection.node_size(b) for b in range(n_nodes)], dtype=np.int32
        )
        self.singleton = np.array(
            [collection.singleton_node(v) for v in range(m)], dtype=np.int32
        )
        self.full_node = collection.full_node

    @property
    def num_nodes(self) -> int:
        """Number of permissible subsets."""
        return int(self.join.shape[0])

    @property
    def num_values(self) -> int:
        """Domain size ``m_j``."""
        return int(self.anc.shape[0])


class EncodedTable:
    """A table compiled to integer codes plus per-attribute lookup tables.

    Attributes
    ----------
    codes:
        ``int32[n, r]`` value indices of every record.
    singleton_nodes:
        ``int32[n, r]`` node index of each record's singleton subsets —
        a plain record viewed as a (trivially) generalized record.
    unique_codes, unique_inverse, unique_counts:
        Deduplicated rows: ``codes == unique_codes[unique_inverse]`` and
        ``unique_counts`` are the multiplicities.
    value_counts:
        Per attribute, the empirical count of each domain value in the
        table — the distribution behind the entropy measure (Def. 4.3).
        A :meth:`block` keeps the whole table's counts.
    """

    __slots__ = (
        "table",
        "schema",
        "attrs",
        "codes",
        "singleton_nodes",
        "unique_codes",
        "unique_inverse",
        "unique_counts",
        "unique_singleton_nodes",
        "value_counts",
        "_join_flat",
        "_join_offsets",
        "_join_cols",
    )

    def __init__(self, table: Table) -> None:
        self.schema = table.schema
        self.attrs: tuple[EncodedAttribute, ...] = tuple(
            EncodedAttribute(coll) for coll in self.schema.collections
        )

        n = table.num_records
        r = self.schema.num_attributes
        codes = np.empty((n, r), dtype=np.int32)
        for j, coll in enumerate(self.schema.collections):
            att = coll.attribute
            codes[:, j] = [att.index_of(row[j]) for row in table.rows]
        self._set_rows(table, codes)

        self.value_counts = tuple(
            np.bincount(codes[:, j], minlength=att.num_values).astype(np.int64)
            for j, att in enumerate(self.attrs)
        )

        # All per-attribute join tables concatenated flat, so a whole
        # [*, r] row join is ONE fancy-index instead of r separate ones
        # (numpy call overhead dominates the engine's small-row joins).
        # flat index of join[a, b] in attribute j:
        #   offsets[j] + a * cols[j] + b.
        self._join_flat = np.concatenate(
            [att.join.ravel() for att in self.attrs]
        )
        self._join_cols = np.array(
            [att.num_nodes for att in self.attrs], dtype=np.int64
        )
        table_sizes = np.array(
            [att.join.size for att in self.attrs], dtype=np.int64
        )
        self._join_offsets = np.concatenate(
            ([0], np.cumsum(table_sizes[:-1]))
        )

    def _set_rows(self, table: Table, codes: np.ndarray) -> None:
        """Bind the records: ``table``, their ``int32[n, r]`` ``codes`` and
        every array derived from the codes row by row."""
        self.table = table
        self.codes = codes
        self.singleton_nodes = np.empty_like(codes)
        for j, att in enumerate(self.attrs):
            self.singleton_nodes[:, j] = att.singleton[codes[:, j]]
        uniq, inverse, counts = np.unique(
            codes, axis=0, return_inverse=True, return_counts=True
        )
        self.unique_codes = uniq.astype(np.int32)
        self.unique_inverse = inverse.astype(np.int64)
        self.unique_counts = counts.astype(np.int64)
        self.unique_singleton_nodes = np.empty_like(self.unique_codes)
        for j, att in enumerate(self.attrs):
            self.unique_singleton_nodes[:, j] = att.singleton[self.unique_codes[:, j]]

    def block(self, members: np.ndarray) -> EncodedTable:
        """The records ``members`` (in that order) encoded as a table of
        their own, for algorithms that run block by block.

        The per-record arrays are the block's.  Everything schema-level
        is shared with this encoding rather than rebuilt: the
        per-attribute lookup tables and the flat join arrays.  So is
        :attr:`value_counts`, the WHOLE table's distribution, because
        eq. (3) conditions on the whole database, not on a block.
        """
        sub = copy.copy(self)
        sub._set_rows(
            self.table.subset([int(i) for i in members]), self.codes[members]
        )
        return sub

    # ------------------------------------------------------------------ #
    # shape accessors
    # ------------------------------------------------------------------ #

    @property
    def num_records(self) -> int:
        """Number of records ``n``."""
        return int(self.codes.shape[0])

    @property
    def num_attributes(self) -> int:
        """Number of public attributes ``r``."""
        return int(self.codes.shape[1])

    @property
    def num_unique(self) -> int:
        """Number of distinct rows ``u``."""
        return int(self.unique_codes.shape[0])

    @property
    def exact_joins(self) -> bool:
        """Whether every attribute's join fold computes exact closures.

        See :attr:`repro.tabular.hierarchy.SubsetCollection.exact_joins`;
        vectorized closure shortcuts (e.g.
        :meth:`leave_one_out_closures`) are only available when this
        holds for all attributes.
        """
        return all(att.collection.exact_joins for att in self.attrs)

    # ------------------------------------------------------------------ #
    # closures and joins
    # ------------------------------------------------------------------ #

    def closure_of_records(self, indices: Iterable[int]) -> np.ndarray:
        """Exact closure nodes of a set of records (one node per attribute).

        Computed from the union of value sets per attribute (not by
        iterated joins), so it is exact even for non-laminar collections.
        Nothing is cached: each call closes its value sets afresh.
        Under :attr:`exact_joins` the join folds (:meth:`join_rows`,
        :meth:`leave_one_out_closures`) give the same nodes.
        """
        idx = np.fromiter(indices, dtype=np.int64)
        if idx.size == 0:
            raise SchemaError("closure of an empty record set is undefined")
        nodes = np.empty(self.num_attributes, dtype=np.int32)
        for j, att in enumerate(self.attrs):
            values = np.unique(self.codes[idx, j])
            nodes[j] = att.collection.closure_of_value_indices(values.tolist())
        return nodes

    def leave_one_out_closures(self, indices: Sequence[int]) -> np.ndarray:
        """Closure nodes of every leave-one-out subset of ``indices``.

        Row ``i`` of the returned ``int32[len(indices), r]`` matrix is
        the per-attribute closure of ``indices`` with element ``i``
        removed.  Computed with prefix/suffix join folds over the
        precomputed join tables — O(size · r) lookups instead of the
        O(size² · r) closure scans of the naive per-subset loop — which
        is exact precisely when :attr:`exact_joins` holds.

        Raises
        ------
        SchemaError
            If fewer than two records are given (a leave-one-out subset
            would be empty) or :attr:`exact_joins` does not hold.
        """
        if not self.exact_joins:
            raise SchemaError(
                "leave_one_out_closures requires exact joins; compute "
                "closures per subset with closure_of_records instead"
            )
        idx = np.asarray(list(indices), dtype=np.int64)
        size = idx.size
        if size < 2:
            raise SchemaError(
                "leave-one-out closures need at least two records"
            )
        single = self.singleton_nodes[idx]  # [size, r]
        r = self.num_attributes
        prefix = np.empty((size, r), dtype=np.int32)  # closure of idx[:i+1]
        suffix = np.empty((size, r), dtype=np.int32)  # closure of idx[i:]
        prefix[0] = single[0]
        suffix[size - 1] = single[size - 1]
        for i in range(1, size):
            prefix[i] = self.join_rows(prefix[i - 1], single[i])
            suffix[size - 1 - i] = self.join_rows(
                suffix[size - i], single[size - 1 - i]
            )
        out = np.empty((size, r), dtype=np.int32)
        out[0] = suffix[1]
        out[size - 1] = prefix[size - 2]
        for i in range(1, size - 1):
            out[i] = self.join_rows(prefix[i - 1], suffix[i + 1])
        return out

    def join_rows(self, nodes_a: np.ndarray, nodes_b: np.ndarray) -> np.ndarray:
        """Vectorized per-attribute join of two node arrays.

        ``nodes_a`` may be ``[r]`` or ``[*, r]``; ``nodes_b`` likewise;
        standard numpy broadcasting applies along the leading axis.
        One indexing pass over the flat concatenated join tables (the
        last axis addresses the per-attribute table via the precomputed
        offsets/strides).
        """
        nodes_a = np.asarray(nodes_a, dtype=np.int64)
        nodes_b = np.asarray(nodes_b, dtype=np.int64)
        flat_index = self._join_offsets + nodes_a * self._join_cols + nodes_b
        return self._join_flat[flat_index].astype(np.int32, copy=False)

    def consistency_mask(
        self, record_index: int, gen_nodes: np.ndarray
    ) -> np.ndarray:
        """Boolean mask: which generalized records (rows of ``gen_nodes``,
        shape ``[*, r]``) are consistent with original record ``record_index``
        (Definition 3.3)."""
        codes = self.codes[record_index]
        gen_nodes = np.asarray(gen_nodes)
        mask = np.ones(gen_nodes.shape[:-1], dtype=bool)
        for j, att in enumerate(self.attrs):
            mask &= att.anc[codes[j], gen_nodes[..., j]]
        return mask

    def consistency_mask_for_codes(
        self, codes: np.ndarray, gen_nodes: np.ndarray
    ) -> np.ndarray:
        """Like :meth:`consistency_mask` but for an explicit code vector."""
        gen_nodes = np.asarray(gen_nodes)
        mask = np.ones(gen_nodes.shape[:-1], dtype=bool)
        for j, att in enumerate(self.attrs):
            mask &= att.anc[codes[j], gen_nodes[..., j]]
        return mask

    def value_masks(self, node_matrix: np.ndarray) -> list[np.ndarray]:
        """Per attribute j, ``anc_j[:, node_matrix[:, j]]``: a
        ``bool[m_j, g]`` mask whose row ``v`` marks the generalized
        records (rows of ``node_matrix``) whose node contains value v.

        Record codes ``c`` are consistent with exactly the generalized
        records where every ``masks[j][c[j]]`` holds, so one row lookup
        per attribute replaces a gather over all generalized records.
        """
        node_matrix = np.asarray(node_matrix)
        # take(axis=1) keeps each value's row contiguous; ``anc[:, idx]``
        # would lay the result out column-major.
        return [
            np.take(att.anc, node_matrix[:, j], axis=1)
            for j, att in enumerate(self.attrs)
        ]

    def consistency_blocks(self, masks: Sequence[np.ndarray]) -> Iterator[np.ndarray]:
        """Consistency of every unique row, a block of rows at a time.

        ``masks`` are the :meth:`value_masks` of g generalized records.
        Yields ``bool[B, g]`` blocks over consecutive unique rows, about
        2^18 cells each; row b of a block marks the generalized records
        that unique row ``start + b`` is consistent with.  Each block
        costs one row lookup and one AND per attribute.
        """
        step = max(1, _BLOCK_CELLS // max(masks[0].shape[1], 1))
        codes = self.unique_codes
        for start in range(0, self.num_unique, step):
            block = codes[start : start + step]
            mask = masks[0][block[:, 0]]
            for j in range(1, len(masks)):
                mask &= masks[j][block[:, j]]
            yield mask

    def generalizes_rows(self, node_matrix: np.ndarray) -> np.ndarray:
        """``bool[n]``: whether generalized record i (row i of
        ``node_matrix``) is consistent with original record i."""
        node_matrix = np.asarray(node_matrix)
        ok = np.ones(self.num_records, dtype=bool)
        for j, att in enumerate(self.attrs):
            ok &= att.anc[self.codes[:, j], node_matrix[:, j]]
        return ok

    # ------------------------------------------------------------------ #
    # decoding
    # ------------------------------------------------------------------ #

    def decode_record(self, nodes: Sequence[int]) -> GeneralizedRecord:
        """Turn a per-attribute node vector into a :class:`GeneralizedRecord`."""
        return GeneralizedRecord(self.schema, [int(x) for x in nodes])

    def decode_table(self, node_matrix: np.ndarray) -> GeneralizedTable:
        """Turn an ``[n, r]`` node matrix into a :class:`GeneralizedTable`."""
        node_matrix = np.asarray(node_matrix)
        if node_matrix.shape != (self.num_records, self.num_attributes):
            raise SchemaError(
                f"node matrix has shape {node_matrix.shape}, expected "
                f"{(self.num_records, self.num_attributes)}"
            )
        records = [self.decode_record(row) for row in node_matrix]
        return GeneralizedTable(self.schema, records)

    def encode_generalized(self, gtable: GeneralizedTable) -> np.ndarray:
        """Turn a :class:`GeneralizedTable` into an ``[n, r]`` node matrix."""
        if gtable.schema is not self.schema:
            raise SchemaError("generalized table uses a different schema")
        return np.array([rec.nodes for rec in gtable.records], dtype=np.int32)

    def __repr__(self) -> str:
        return (
            f"EncodedTable(n={self.num_records}, r={self.num_attributes}, "
            f"unique={self.num_unique})"
        )
