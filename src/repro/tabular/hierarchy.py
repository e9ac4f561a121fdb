"""Permissible generalization collections ``A_j ⊆ P(A_j)``.

Definition 3.1 of the paper lets each attribute come with a collection of
subsets of its domain; a generalization replaces a value with one of those
subsets that contains it.  This module implements such collections
(:class:`SubsetCollection`) together with the *closure* operation used
throughout Section V: the minimal permissible subset containing a given set
of values.

Every collection in the paper (and every collection built by the helper
constructors here) is **laminar** — any two permissible subsets are either
disjoint or nested — which makes it a tree ("generalization hierarchy") and
makes closures unique least-common-ancestor computations.  Arbitrary
collections are supported too: the closure is then the minimum-size
permissible superset, tie-broken deterministically (smallest canonical node
index), and :meth:`SubsetCollection.is_laminar` reports which regime the
collection is in.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.errors import ClosureError, SchemaError
from repro.tabular.attribute import Attribute

if TYPE_CHECKING:  # numpy stays a lazy import for the table builders
    import numpy as np

#: Cells of the (row block × node × node) "covers both" cube that one
#: step of :meth:`SubsetCollection.build_join_table` materializes; the
#: cube is boolean, so a block stays near this many bytes.
_JOIN_BLOCK_CELLS = 1 << 22


def _mask_of(indices: Iterable[int]) -> int:
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


class SubsetCollection:
    """A collection of permissible generalized subsets for one attribute.

    The collection always contains all singletons and the full domain; the
    constructor adds them if missing (the paper's collections all include
    them, and without the full set closures would not exist).

    Nodes are stored in a canonical order: sorted by (subset size, sorted
    value indices).  Hence the first ``m`` nodes are exactly the singletons
    in domain order, and the last node is the full domain.  All algorithms
    refer to subsets by these canonical *node indices*.

    Parameters
    ----------
    attribute:
        The attribute the collection generalizes.
    subsets:
        Iterable of subsets (iterables of domain values).  Singletons and
        the full set may be included or omitted; duplicates are merged.
    """

    __slots__ = (
        "_attribute",
        "_nodes",
        "_masks",
        "_sizes",
        "_mask_to_node",
        "_singleton_node",
        "_full_node",
        "_laminar",
        "_parent",
        "_labels",
    )

    def __init__(self, attribute: Attribute, subsets: Iterable[Iterable[str]] = ()) -> None:
        self._attribute = attribute
        m = attribute.size
        index_sets: set[frozenset[int]] = set()
        for subset in subsets:
            idx = frozenset(attribute.index_of(v) for v in subset)
            if not idx:
                raise SchemaError(
                    f"attribute {attribute.name!r}: the empty set is not a "
                    "valid generalized subset"
                )
            index_sets.add(idx)
        for i in range(m):
            index_sets.add(frozenset([i]))
        index_sets.add(frozenset(range(m)))

        nodes = sorted(index_sets, key=lambda s: (len(s), sorted(s)))
        self._nodes: tuple[frozenset[int], ...] = tuple(nodes)
        self._masks: tuple[int, ...] = tuple(_mask_of(s) for s in nodes)
        self._sizes: tuple[int, ...] = tuple(len(s) for s in nodes)
        self._mask_to_node = {mask: i for i, mask in enumerate(self._masks)}
        self._singleton_node: tuple[int, ...] = tuple(
            self._mask_to_node[1 << v] for v in range(m)
        )
        self._full_node: int = len(nodes) - 1
        self._laminar = self._check_laminar()
        self._parent = self._compute_parents() if self._laminar else None
        self._labels: list[str | None] = [None] * len(nodes)

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #

    @property
    def attribute(self) -> Attribute:
        """The attribute this collection belongs to."""
        return self._attribute

    @property
    def num_nodes(self) -> int:
        """Number of permissible subsets (including singletons and full set)."""
        return len(self._nodes)

    @property
    def full_node(self) -> int:
        """Node index of the full domain (total suppression)."""
        return self._full_node

    def node_values(self, node: int) -> frozenset[str]:
        """The subset of domain values represented by ``node``."""
        values = self._attribute.values
        return frozenset(values[i] for i in self._nodes[node])

    def node_indices(self, node: int) -> frozenset[int]:
        """The subset of value *indices* represented by ``node``."""
        return self._nodes[node]

    def node_size(self, node: int) -> int:
        """Cardinality ``|B|`` of the subset at ``node``."""
        return self._sizes[node]

    def singleton_node(self, value_index: int) -> int:
        """Node index of the singleton ``{value}`` for a value index."""
        return self._singleton_node[value_index]

    def node_of_values(self, values: Iterable[str]) -> int:
        """Node index of an *exactly matching* permissible subset.

        Raises
        ------
        ClosureError
            If the given set of values is not itself permissible (use
            :meth:`closure_of_values` to find its closure instead).
        """
        mask = _mask_of(self._attribute.index_of(v) for v in values)
        try:
            return self._mask_to_node[mask]
        except KeyError:
            raise ClosureError(
                f"attribute {self._attribute.name!r}: set is not a "
                "permissible generalized subset"
            ) from None

    def contains_value(self, node: int, value_index: int) -> bool:
        """Whether the value with index ``value_index`` lies in ``node``."""
        return bool(self._masks[node] >> value_index & 1)

    # ------------------------------------------------------------------ #
    # closures
    # ------------------------------------------------------------------ #

    def closure_of_mask(self, mask: int) -> int:
        """Minimal permissible superset of the value set encoded by ``mask``.

        Nodes are scanned in canonical (size-then-lex) order, so the result
        is the minimum-size superset with deterministic tie-breaking.  For
        laminar collections the minimal superset is unique, so no ambiguity
        arises.
        """
        if mask == 0:
            raise ClosureError("closure of the empty value set is undefined")
        for node, node_mask in enumerate(self._masks):
            if node_mask & mask == mask:
                return node
        raise ClosureError(
            f"attribute {self._attribute.name!r}: no permissible superset "
            "found (collection is missing the full set?)"
        )

    def closure_of_values(self, values: Iterable[str]) -> int:
        """Closure (minimal permissible superset) of a set of values."""
        return self.closure_of_mask(
            _mask_of(self._attribute.index_of(v) for v in values)
        )

    def closure_of_value_indices(self, indices: Iterable[int]) -> int:
        """Closure of a set of value indices."""
        return self.closure_of_mask(_mask_of(indices))

    def join(self, node_a: int, node_b: int) -> int:
        """Closure of the union of two permissible subsets.

        For laminar collections this is the least common ancestor in the
        hierarchy tree, and the operation is associative — so iterated
        joins compute exact cluster closures.  For non-laminar collections
        iterated joins may over-generalize (they remain *sound*: the result
        always contains the union), which is documented in DESIGN.md.
        """
        if node_a == node_b:
            return node_a
        return self.closure_of_mask(self._masks[node_a] | self._masks[node_b])

    # ------------------------------------------------------------------ #
    # lookup tables (the encoder's per-attribute arrays)
    # ------------------------------------------------------------------ #

    def _membership(self) -> np.ndarray:
        """``bool[num_nodes, m]``: row b marks the value indices in node b."""
        import numpy as np

        rows = np.repeat(np.arange(len(self._nodes)), self._sizes)
        cols = np.fromiter(
            itertools.chain.from_iterable(self._nodes),
            dtype=np.intp,
            count=len(rows),
        )
        member = np.zeros((len(self._nodes), self._attribute.size), dtype=bool)
        member[rows, cols] = True
        return member

    def build_join_table(self) -> np.ndarray:
        """``int32[num_nodes, num_nodes]`` with ``[a, b] == join(a, b)``.

        Node c *covers* node a when c ⊇ a.  The closure of a ∪ b is the
        first node in canonical order that covers both (the scan of
        :meth:`closure_of_mask`), and a is the first node covering
        itself, so each row of the table is an argmax — the first True —
        over a boolean "covers both" block.  Row blocks keep that cube
        near ``_JOIN_BLOCK_CELLS`` bytes.
        """
        import numpy as np

        member = self._membership().astype(np.float32)
        # (member @ (1 - member).T)[a, c] counts the values of a that c
        # lacks (small integer sums, exact in float32): c covers a
        # exactly where it is zero.
        covered_by = (member @ (1.0 - member).T) == 0
        n = len(self._nodes)
        step = max(1, _JOIN_BLOCK_CELLS // (n * n))
        join = np.empty((n, n), dtype=np.int32)
        for start in range(0, n, step):
            block = covered_by[start : start + step]
            join[start : start + step] = (
                block[:, None, :] & covered_by[None, :, :]
            ).argmax(axis=2)
        return join

    def build_ancestor_table(self) -> np.ndarray:
        """``bool[m, num_nodes]`` with ``[v, b] == contains_value(b, v)``."""
        import numpy as np

        return np.ascontiguousarray(self._membership().T)

    # ------------------------------------------------------------------ #
    # laminar structure
    # ------------------------------------------------------------------ #

    def _check_laminar(self) -> bool:
        masks = self._masks
        for i in range(len(masks)):
            for j in range(i + 1, len(masks)):
                inter = masks[i] & masks[j]
                if inter and inter != masks[i] and inter != masks[j]:
                    return False
        return True

    def _compute_parents(self) -> tuple[int, ...]:
        # Parent of a node = the smallest strictly-containing node.  Nodes
        # are in size order, so the first strict superset found while
        # scanning forward is the parent.  The root (full set) points to
        # itself.
        parents = []
        for i, mask in enumerate(self._masks):
            parent = i
            for j in range(i + 1, len(self._masks)):
                other = self._masks[j]
                if other != mask and other & mask == mask:
                    parent = j
                    break
            parents.append(parent)
        return tuple(parents)

    @property
    def is_laminar(self) -> bool:
        """Whether the collection forms a tree (hierarchy)."""
        return self._laminar

    @property
    def exact_joins(self) -> bool:
        """Whether iterated :meth:`join` folds compute exact closures.

        True when the join is associative and ``closure(S) = fold(join,
        singletons of S)`` — the case for laminar collections (joins are
        LCAs) and for :class:`IntervalCollection` (joins are spanning
        intervals).  Hot paths such as the agglomerative shrink step use
        this to replace per-subset closure scans with join-table
        lookups; when False they fall back to exact closure computation.
        """
        return self._laminar

    def parent(self, node: int) -> int:
        """Parent node in the hierarchy tree (root's parent is itself).

        Raises
        ------
        ClosureError
            If the collection is not laminar.
        """
        if self._parent is None:
            raise ClosureError("parent structure is only defined for laminar collections")
        return self._parent[node]

    def depth(self, node: int) -> int:
        """Distance from ``node`` to the root in the hierarchy tree."""
        if self._parent is None:
            raise ClosureError("depth is only defined for laminar collections")
        d = 0
        while self._parent[node] != node:
            node = self._parent[node]
            d += 1
        return d

    def height(self) -> int:
        """Height of the hierarchy tree (max depth over nodes)."""
        return max(self.depth(n) for n in range(self.num_nodes))

    # ------------------------------------------------------------------ #
    # display
    # ------------------------------------------------------------------ #

    def node_label(self, node: int) -> str:
        """A compact human-readable label for a node.

        Singletons render as the bare value; contiguous integer ranges as
        ``lo-hi``; other subsets as ``{v1|v2|...}``; the full set as ``*``.
        Each node renders once; later calls are a list lookup (a release
        labels every cell, and cells repeat few nodes).
        """
        label = self._labels[node]
        if label is None:
            # Racing first calls (server threads) render the same
            # string, so whichever store lands last changes nothing.
            label = self._labels[node] = self._render_label(node)
        return label

    def _render_label(self, node: int) -> str:
        """The label of ``node``, rendered from its values (no memo)."""
        if node == self._full_node and self.num_nodes > 1:
            return "*"
        indices = sorted(self._nodes[node])
        values = [self._attribute.values[i] for i in indices]
        if len(values) == 1:
            return values[0]
        try:
            ints = [int(v) for v in values]
        except ValueError:
            ints = []
        if ints and ints == list(range(ints[0], ints[0] + len(ints))):
            return f"{ints[0]}-{ints[-1]}"
        return "{" + "|".join(values) + "}"

    def __repr__(self) -> str:
        kind = "hierarchy" if self._laminar else "collection"
        return (
            f"SubsetCollection({self._attribute.name!r}, {self.num_nodes} nodes, "
            f"{kind})"
        )


# ---------------------------------------------------------------------- #
# convenience constructors
# ---------------------------------------------------------------------- #


def suppression_only(attribute: Attribute) -> SubsetCollection:
    """Collection with singletons and the full set only (Meyerson–Williams
    suppression model: keep a value or erase it entirely)."""
    return SubsetCollection(attribute, ())


def from_groups(
    attribute: Attribute, *levels: Sequence[Sequence[str]]
) -> SubsetCollection:
    """Build a collection from one or more levels of value groups.

    Each *level* is a sequence of groups (sequences of values).  Groups do
    not have to partition the domain and levels do not have to nest — but
    when they do, the result is a laminar hierarchy, which is what all the
    paper's collections are.

    Example
    -------
    >>> att = Attribute("edu", ["hs", "ba", "ma", "phd"])
    >>> coll = from_groups(att, [["hs"], ["ba"], ["ma", "phd"]])
    >>> coll.is_laminar
    True
    """
    subsets: list[Sequence[str]] = []
    for level in levels:
        for group in level:
            subsets.append(list(group))
    return SubsetCollection(attribute, subsets)


class IntervalCollection(SubsetCollection):
    """Every contiguous value range of an ordered attribute.

    Fixed banding (:func:`interval_hierarchy`) forces cluster closures
    onto pre-cut boundaries; with the full interval collection a cluster
    of ages {31, 33, 34} publishes exactly ``31-34``.  The collection is
    not laminar (intervals overlap), but closures remain unique — the
    minimal permissible superset of any value set is its exact span —
    and the join of two intervals is their spanning interval, which is
    associative, so every algorithm runs unchanged with exact closures.

    The node count is quadratic (m·(m+1)/2 subsets), so this class
    bypasses the generic constructor's O(N²) laminarity scan and
    overrides the table builders with span arithmetic; ``max_values``
    guards the quadratic tables.

    The attribute's values must be integers in strictly increasing
    order (as :func:`repro.tabular.attribute.integer_attribute`
    produces), so that value-index order equals numeric order.
    """

    __slots__ = ("_num_values", "_node_of_interval")

    def __init__(self, attribute: Attribute, max_values: int = 120) -> None:
        try:
            ints = [int(v) for v in attribute.values]
        except ValueError as exc:
            raise SchemaError(
                f"IntervalCollection requires integer values in "
                f"{attribute.name!r}"
            ) from exc
        if ints != sorted(ints):
            raise SchemaError(
                f"IntervalCollection requires ascending values in "
                f"{attribute.name!r}"
            )
        m = attribute.size
        if m > max_values:
            raise SchemaError(
                f"IntervalCollection on {attribute.name!r}: {m} values "
                f"exceed the max_values guard of {max_values} "
                "(the join table is quadratic in the domain size)"
            )
        # Canonical order (size, lexicographic) = (length, lo).
        self._attribute = attribute
        intervals = [
            (lo, lo + length - 1)
            for length in range(1, m + 1)
            for lo in range(0, m - length + 1)
        ]
        self._nodes = tuple(
            frozenset(range(lo, hi + 1)) for lo, hi in intervals
        )
        self._masks = tuple(
            ((1 << (hi + 1)) - (1 << lo)) for lo, hi in intervals
        )
        self._sizes = tuple(hi - lo + 1 for lo, hi in intervals)
        self._mask_to_node = {mask: i for i, mask in enumerate(self._masks)}
        self._node_of_interval = {
            interval: i for i, interval in enumerate(intervals)
        }
        self._singleton_node = tuple(
            self._node_of_interval[(v, v)] for v in range(m)
        )
        self._full_node = len(intervals) - 1
        self._num_values = m
        self._laminar = m <= 1  # overlapping intervals once m ≥ 2
        self._parent = self._compute_parents() if self._laminar else None
        self._labels = [None] * len(intervals)

    @property
    def exact_joins(self) -> bool:
        """Interval joins (spanning intervals) are associative and exact."""
        return True

    def interval_of(self, node: int) -> tuple[int, int]:
        """The (lo, hi) value-index bounds of a node."""
        members = self._nodes[node]
        return min(members), max(members)

    def closure_of_mask(self, mask: int) -> int:
        """Exact span of the set bits — O(1) instead of a node scan."""
        if mask == 0:
            raise ClosureError("closure of the empty value set is undefined")
        lo = (mask & -mask).bit_length() - 1
        hi = mask.bit_length() - 1
        return self._node_of_interval[(lo, hi)]

    def join(self, node_a: int, node_b: int) -> int:
        """Spanning interval of two intervals — O(1)."""
        if node_a == node_b:
            return node_a
        lo_a, hi_a = self.interval_of(node_a)
        lo_b, hi_b = self.interval_of(node_b)
        return self._node_of_interval[(min(lo_a, lo_b), max(hi_a, hi_b))]

    def build_join_table(self) -> np.ndarray:
        """Join table as spanning intervals: O(N²) lookups, no cube."""
        import numpy as np

        bounds = np.array(
            [self.interval_of(node) for node in range(self.num_nodes)],
            dtype=np.int32,
        )
        lo = np.minimum(bounds[:, None, 0], bounds[None, :, 0])
        hi = np.maximum(bounds[:, None, 1], bounds[None, :, 1])
        index = np.full(
            (self._num_values, self._num_values), -1, dtype=np.int32
        )
        for (a, b), node in self._node_of_interval.items():
            index[a, b] = node
        return index[lo, hi]

    def build_ancestor_table(self) -> np.ndarray:
        """Value-in-node table from the interval bounds."""
        import numpy as np

        bounds = np.array(
            [self.interval_of(node) for node in range(self.num_nodes)],
            dtype=np.int32,
        )
        values = np.arange(self._num_values, dtype=np.int32)
        return (bounds[None, :, 0] <= values[:, None]) & (
            values[:, None] <= bounds[None, :, 1]
        )

    def __repr__(self) -> str:
        return (
            f"IntervalCollection({self._attribute.name!r}, "
            f"{self.num_nodes} intervals)"
        )


def all_intervals(attribute: Attribute, max_values: int = 120) -> IntervalCollection:
    """Convenience constructor for :class:`IntervalCollection`."""
    return IntervalCollection(attribute, max_values=max_values)


def interval_hierarchy(
    attribute: Attribute, *widths: int
) -> SubsetCollection:
    """Banding hierarchy for an integer-valued attribute.

    The domain must consist of decimal integer strings (as produced by
    :func:`repro.tabular.attribute.integer_attribute`).  For each width
    ``w`` the domain is cut into aligned bands ``[lo, lo+w)`` starting at
    the minimum value.  Widths should increase and each wider band should
    be a union of narrower ones (i.e. each width divides the next) for the
    result to be laminar.

    Example: ``interval_hierarchy(age, 5, 10, 20)`` gives 5-year, 10-year
    and 20-year age bands plus singletons and the full range.
    """
    try:
        ints = sorted(int(v) for v in attribute.values)
    except ValueError as exc:
        raise SchemaError(
            f"interval_hierarchy requires integer values in {attribute.name!r}"
        ) from exc
    lo = ints[0]
    subsets: list[list[str]] = []
    for width in widths:
        if width <= 0:
            raise SchemaError(f"band width must be positive, got {width}")
        for start in range(lo, ints[-1] + 1, width):
            band = [str(v) for v in ints if start <= v < start + width]
            if band:
                subsets.append(band)
    return SubsetCollection(attribute, subsets)
