"""Seeded random instance generators for the fuzzing harness.

A fuzz *instance* is everything one verification case needs: a random
table over a random schema (random domains, random generalization
hierarchies — laminar partitions, interval collections, suppression-only)
plus a random configuration (k, notion, measure, distance, expander).
Instances are a pure function of an integer seed, so any failure the
harness reports is replayable from that seed alone.

The module also implements *shrinking*: given a failing instance and a
predicate that re-checks it, :func:`shrink_instance` greedily removes
rows and attributes and lowers k while the failure persists, returning a
(locally) minimal counterexample that is far easier to debug than the
original random table.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from repro.core.notions import NOTIONS
from repro.measures.base import CostModel
from repro.measures.registry import get_measure
from repro.tabular.attribute import Attribute, integer_attribute
from repro.tabular.encoding import EncodedTable
from repro.tabular.hierarchy import IntervalCollection, SubsetCollection
from repro.tabular.table import Schema, Table

#: Measures an instance may draw.  ``tree`` is only drawn for fully
#: laminar schemas (it is undefined otherwise).
INSTANCE_MEASURES = ("entropy", "lm", "mw", "tree")

#: Agglomerative distances an instance may draw.
INSTANCE_DISTANCES = ("d1", "d2", "d3", "d4", "nc")


@dataclass(frozen=True)
class InstanceConfig:
    """The (k, notion, measure, distance) configuration of one fuzz case."""

    seed: int  #: the seed the instance was generated from
    k: int  #: anonymity parameter, 1 ≤ k ≤ n
    notion: str  #: notion for the end-to-end API call
    measure: str  #: loss measure name
    distance: str  #: agglomerative cluster distance name
    expander: str  #: (k,1) stage: ``expansion`` or ``nearest``
    modified: bool  #: use Algorithm 2's shrink step


@dataclass(frozen=True)
class Instance:
    """One self-contained verification case: a table plus its config."""

    table: Table
    config: InstanceConfig

    @property
    def num_records(self) -> int:
        """Number of records in the instance's table."""
        return self.table.num_records

    def encoded(self) -> EncodedTable:
        """Encode the table (built fresh; instances stay immutable)."""
        return EncodedTable(self.table)

    def model(self, encoded: EncodedTable | None = None) -> CostModel:
        """Cost model binding the configured measure to the table."""
        enc = encoded if encoded is not None else self.encoded()
        return CostModel(enc, get_measure(self.config.measure))

    def is_laminar(self) -> bool:
        """Whether every attribute's collection is laminar."""
        return all(c.is_laminar for c in self.table.schema.collections)

    def describe(self) -> str:
        """Compact human-readable dump (used in failure reports)."""
        schema = self.table.schema
        lines = [
            f"seed={self.config.seed} k={self.config.k} "
            f"notion={self.config.notion} measure={self.config.measure} "
            f"distance={self.config.distance} "
            f"expander={self.config.expander} "
            f"modified={self.config.modified}",
            f"{self.table.num_records} records × "
            f"{schema.num_attributes} attributes",
        ]
        for coll in schema.collections:
            kind = "laminar" if coll.is_laminar else "non-laminar"
            subsets = ", ".join(
                coll.node_label(n) for n in range(coll.num_nodes)
            )
            lines.append(
                f"  {coll.attribute.name}: {kind}, nodes [{subsets}]"
            )
        for row in self.table.rows:
            lines.append("  (" + ", ".join(row) + ")")
        return "\n".join(lines)


# ---------------------------------------------------------------------- #
# random schema pieces
# ---------------------------------------------------------------------- #


def random_collection(
    rng: np.random.Generator, name: str
) -> SubsetCollection:
    """A random generalization collection over a random small domain.

    Draws one of four shapes: suppression-only, a laminar partition into
    contiguous groups, a two-level nested laminar hierarchy, or (for
    integer domains) the full interval collection — the one non-laminar
    regime the library supports.
    """
    style = rng.choice(("suppression", "partition", "nested", "intervals"))
    if style == "intervals":
        m = int(rng.integers(2, 6))
        low = int(rng.integers(0, 10))
        att = integer_attribute(name, low, low + m - 1)
        return IntervalCollection(att)

    m = int(rng.integers(2, 7))
    values = [f"{name}{i}" for i in range(m)]
    att = Attribute(name, values)
    if style == "suppression" or m < 3:
        return SubsetCollection(att)

    # A random composition of m into contiguous groups (always laminar).
    def random_cuts(lo: int, hi: int) -> list[list[str]]:
        groups = []
        start = lo
        while start < hi:
            width = int(rng.integers(1, hi - start + 1))
            groups.append(values[start : start + width])
            start += width
        return groups

    level1 = random_cuts(0, m)
    subsets = [g for g in level1 if len(g) > 1]
    if style == "nested":
        # Refine each level-1 group with a nested second level.
        for group in level1:
            if len(group) > 2:
                lo = values.index(group[0])
                subsets.extend(
                    g for g in random_cuts(lo, lo + len(group)) if len(g) > 1
                )
    return SubsetCollection(att, subsets)


def random_schema(rng: np.random.Generator) -> Schema:
    """A random 1–3-attribute schema of random collections."""
    r = int(rng.integers(1, 4))
    return Schema([random_collection(rng, f"a{j}") for j in range(r)])


def random_table(
    rng: np.random.Generator, schema: Schema, num_records: int
) -> Table:
    """A random table over ``schema``.

    Values are drawn from a random *skewed* distribution per attribute
    (uniform sampling rarely produces the duplicate-heavy tables where
    tie and degree bugs live), and with small probability a random row
    is duplicated wholesale.
    """
    columns = []
    for coll in schema.collections:
        m = coll.attribute.size
        weights = rng.dirichlet(np.full(m, 0.7))
        codes = rng.choice(m, size=num_records, p=weights)
        columns.append([coll.attribute.values[c] for c in codes])
    rows = [tuple(col[i] for col in columns) for i in range(num_records)]
    for i in range(num_records):
        if num_records > 1 and rng.random() < 0.15:
            rows[i] = rows[int(rng.integers(0, num_records))]
    return Table(schema, rows)


def random_instance(
    seed: int, min_records: int = 4, max_records: int = 18
) -> Instance:
    """The fuzz instance of ``seed`` — deterministic, collision-free.

    Table sizes stay small (default ≤ 18 records) because the
    differential runner executes every registered algorithm *plus* the
    O(n³) reference implementations and the per-edge naive matching
    oracle on each instance.
    """
    rng = np.random.default_rng(seed)
    schema = random_schema(rng)
    n = int(rng.integers(min_records, max_records + 1))
    table = random_table(rng, schema, n)

    k = int(rng.integers(1, min(n, 5) + 1))
    if rng.random() < 0.05:
        k = n  # the k = n edge occasionally, on purpose
    laminar = all(c.is_laminar for c in schema.collections)
    measures = [
        m for m in INSTANCE_MEASURES if laminar or m != "tree"
    ]
    config = InstanceConfig(
        seed=seed,
        k=k,
        notion=str(rng.choice(NOTIONS)),
        measure=str(rng.choice(measures)),
        distance=str(rng.choice(INSTANCE_DISTANCES)),
        expander=str(rng.choice(("expansion", "nearest"))),
        modified=bool(rng.random() < 0.3),
    )
    return Instance(table=table, config=config)


# ---------------------------------------------------------------------- #
# shrinking
# ---------------------------------------------------------------------- #


def _with_rows(instance: Instance, indices: Sequence[int]) -> Instance:
    table = instance.table.subset(list(indices))
    k = min(instance.config.k, table.num_records)
    return Instance(table=table, config=replace(instance.config, k=k))


def _without_attribute(instance: Instance, j: int) -> Instance:
    schema = instance.table.schema
    collections = [
        c for i, c in enumerate(schema.collections) if i != j
    ]
    new_schema = Schema(collections)
    rows = [
        tuple(v for i, v in enumerate(row) if i != j)
        for row in instance.table.rows
    ]
    return Instance(
        table=Table(new_schema, rows), config=instance.config
    )


def shrink_instance(
    instance: Instance,
    still_fails: Callable[[Instance], bool],
    max_checks: int = 150,
) -> Instance:
    """Greedily minimize a failing instance.

    Repeatedly tries (in order): deleting chunks of rows (halves, then
    quarters, then single rows), deleting whole attributes, and lowering
    k — keeping any change for which ``still_fails`` remains true.  The
    predicate is budgeted by ``max_checks`` calls; the best instance
    found so far is returned when the budget runs out or no single
    change can shrink further.
    """
    checks = 0

    def fails(candidate: Instance) -> bool:
        nonlocal checks
        if checks >= max_checks:
            return False
        checks += 1
        try:
            return still_fails(candidate)
        except Exception:
            # A candidate that crashes the checker is not a cleaner
            # counterexample of the *original* failure; skip it.
            return False

    current = instance
    progress = True
    while progress and checks < max_checks:
        progress = False

        # Row deletion, coarse to fine.
        n = current.num_records
        for chunk in (n // 2, n // 4, 1):
            if chunk < 1 or current.num_records <= 1:
                continue
            start = 0
            while start < current.num_records and checks < max_checks:
                keep = [
                    i
                    for i in range(current.num_records)
                    if not (start <= i < start + chunk)
                ]
                if not keep:
                    break
                candidate = _with_rows(current, keep)
                if fails(candidate):
                    current = candidate
                    progress = True
                else:
                    start += chunk

        # Attribute deletion.
        j = 0
        while current.table.schema.num_attributes > 1 and checks < max_checks:
            if j >= current.table.schema.num_attributes:
                break
            candidate = _without_attribute(current, j)
            if fails(candidate):
                current = candidate
                progress = True
            else:
                j += 1

        # Lower k.
        while current.config.k > 1 and checks < max_checks:
            candidate = Instance(
                table=current.table,
                config=replace(current.config, k=current.config.k - 1),
            )
            if fails(candidate):
                current = candidate
                progress = True
            else:
                break

    return current
