"""Datafly — a full-domain (global-recoding) baseline.

Section II of the paper contrasts its *local recoding* model with the
full-domain generalization of LeFevre et al. and the global recoding of
Bayardo–Agrawal, noting those "are not directly comparable ... since we
consider the model of local recoding, in order to optimize the utility".
To make that utility argument measurable, this module implements the
classic full-domain heuristic — Sweeney's Datafly (2002) — on top of the
same hierarchies:

1. While more than k records live in undersized equivalence classes,
   generalize the attribute with the most distinct surviving values by
   one hierarchy level, *for every record at once* (full domain).
2. Suppress the ≤ k records that still sit in undersized classes.

The recoding ablation bench then quantifies how much utility local
recoding buys over this global baseline on identical inputs.

Only defined for laminar hierarchies (level = one parent step in the
tree), which all the built-in datasets use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.notions import check_feasible, group_sizes
from repro.errors import SchemaError
from repro.measures.base import CostModel
from repro.runtime import checkpoint
from repro.tabular.encoding import EncodedTable, unique_rows


def _parent_table(enc: EncodedTable) -> list[np.ndarray]:
    """Per attribute, the parent node of every node (root maps to itself)."""
    parents = []
    # repro: allow[REP011] one pass per hierarchy level while building the parent table
    for att in enc.attrs:
        coll = att.collection
        if not coll.is_laminar:
            raise SchemaError(
                f"Datafly requires laminar hierarchies; attribute "
                f"{coll.attribute.name!r} has a non-laminar collection"
            )
        parents.append(
            np.array(
                [coll.parent(node) for node in range(coll.num_nodes)],
                dtype=np.int32,
            )
        )
    return parents


@dataclass(frozen=True)
class DataflyResult:
    """Outcome of one Datafly run."""

    node_matrix: np.ndarray  #: the full-domain generalization, ``[n, r]``
    generalization_steps: tuple[str, ...]  #: attribute generalized per step
    suppressed: tuple[int, ...]  #: records fully suppressed at the end

    @property
    def num_steps(self) -> int:
        """How many full-domain generalization steps were taken."""
        return len(self.generalization_steps)


def datafly(model: CostModel, k: int) -> DataflyResult:
    """Run the Datafly heuristic; the result is k-anonymous.

    Raises
    ------
    AnonymityError
        If k exceeds the table size.
    SchemaError
        If some attribute's collection is not laminar.
    """
    enc = model.enc
    n, r = enc.num_records, enc.num_attributes
    check_feasible(n, k)
    parents = _parent_table(enc)

    nodes = enc.singleton_nodes.copy()
    steps: list[str] = []
    while True:
        checkpoint("core.datafly.step")
        small = group_sizes(nodes) < k
        if int(small.sum()) <= k:
            break
        # Most distinct current values among records in undersized classes
        # (Sweeney's tie-break: the attribute with the widest spread).
        distinct = [
            len(np.unique(nodes[:, j])) for j in range(r)
        ]
        # Never pick an attribute already fully generalized.
        candidates = [
            j for j in range(r)
            if not (nodes[:, j] == enc.attrs[j].full_node).all()
        ]
        if not candidates:
            break  # everything is suppressed already; classes must merge
        j = max(candidates, key=lambda jj: (distinct[jj], -jj))
        nodes[:, j] = parents[j][nodes[:, j]]
        steps.append(enc.schema.attribute_names[j])

    # Suppress the residual undersized records entirely, then repair:
    # suppression moves records into the all-full class, which may leave
    # *their* former classmates undersized, and the all-full class itself
    # may end up smaller than k.  Iterate to a fixpoint: (a) suppress
    # every record in an undersized non-full class; (b) if only the full
    # class is undersized, top it up with surplus records from classes
    # that stay ≥ k (taking a whole class if no surplus exists).
    full = np.array([att.full_node for att in enc.attrs], dtype=np.int32)
    suppressed: set[int] = set()
    while True:
        checkpoint("core.datafly.step")
        _, inverse, counts = unique_rows(nodes)
        is_full = (nodes == full).all(axis=1)
        undersized = counts[inverse] < k
        broken = np.flatnonzero(undersized & ~is_full)
        if broken.size:
            nodes[broken] = full
            suppressed.update(int(i) for i in broken)
            continue
        full_count = int(is_full.sum())
        if full_count == 0 or full_count >= k:
            break
        need = k - full_count
        donors: list[int] = []
        # Surplus records from classes that keep ≥ k members, largest
        # class first; whole smallest class as a last resort.
        class_members: dict[int, list[int]] = {}
        for i in range(n):
            if not is_full[i]:
                class_members.setdefault(int(inverse[i]), []).append(i)
        for members in sorted(class_members.values(), key=len, reverse=True):
            surplus = len(members) - k
            take = min(max(surplus, 0), need - len(donors))
            donors.extend(members[:take])
            if len(donors) >= need:
                break
        if len(donors) < need:
            smallest = min(class_members.values(), key=len)
            donors.extend(smallest)
        nodes[donors] = full
        suppressed.update(int(i) for i in donors)
    return DataflyResult(
        node_matrix=nodes,
        generalization_steps=tuple(steps),
        suppressed=tuple(sorted(suppressed)),
    )
