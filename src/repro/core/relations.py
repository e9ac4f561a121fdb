"""Empirical verification of Figure 1 — the class interrelations.

Propositions 4.5 and 4.7 assert strict inclusions and incomparabilities
among the five anonymization classes

    A^k ⊊ A^{G,(1,k)} ⊆ A^{(1,k)},
    A^k ⊊ A^{(k,k)} ⊊ A^{(1,k)}, A^{(k,1)},
    A^{(1,k)} \\ A^{(k,1)} ≠ ∅,  A^{(k,1)} \\ A^{(1,k)} ≠ ∅,
    A^{G,(1,k)} and A^{(k,k)} incomparable,

summarized by the paper's Venn diagram.  This module (a) reconstructs
the worked 3-record example from the proof of Proposition 4.5, and
(b) exhaustively enumerates *all* generalizations of small tables,
classifies each, and checks every region of the diagram — which is how
the Figure 1 "experiment" is reproduced (`benchmarks/bench_fig1_relations.py`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from repro.core.notions import (
    NOTIONS,
    is_global_one_k_anonymous,
    is_k_anonymous,
    is_k_one_anonymous,
    is_one_k_anonymous,
)
from repro.errors import ExperimentError
from repro.tabular.attribute import Attribute
from repro.tabular.encoding import EncodedTable
from repro.tabular.hierarchy import SubsetCollection
from repro.tabular.table import Schema, Table


def proposition_45_example() -> tuple[Table, dict[str, list[list[str]]]]:
    """The table and four generalizations from the proof of Proposition 4.5.

    The table has two attributes with domains {1, 2} and {3, 4} and three
    records (1,3), (1,4), (2,4).  Generalized cells are written as lists
    of values; e.g. the ``(1,2)-anon`` generalization keeps record 1
    intact and suppresses the first attribute of records 2 and 3.

    Returns (table, {name: generalized rows as value-lists}).
    """
    a1 = Attribute("A1", ["1", "2"])
    a2 = Attribute("A2", ["3", "4"])
    schema = Schema([SubsetCollection(a1), SubsetCollection(a2)])
    table = Table(schema, [("1", "3"), ("1", "4"), ("2", "4")])
    generalizations = {
        "2-anon": [
            [["1", "2"], ["3", "4"]],
            [["1", "2"], ["3", "4"]],
            [["1", "2"], ["3", "4"]],
        ],
        "(1,2)-anon": [
            [["1"], ["3"]],
            [["1", "2"], ["3", "4"]],
            [["1", "2"], ["4"]],
        ],
        "(2,1)-anon": [
            [["1"], ["3", "4"]],
            [["1", "2"], ["4"]],
            [["1", "2"], ["4"]],
        ],
        "(2,2)-anon": [
            [["1"], ["3", "4"]],
            [["1", "2"], ["3", "4"]],
            [["1", "2"], ["4"]],
        ],
    }
    return table, generalizations


def kk_attack_example() -> tuple[Table, list[list[list[str]]]]:
    """A (2,2)-anonymization that is *not* globally (1,2)-anonymous.

    Six records with values 1..6 in a single attribute; the published
    subsets are {1,2}, {1,2,3}, {3,4}, {4,5,6}, {5,6}, {5,6}.  Every
    record has ≥ 2 neighbours and every published record covers ≥ 2
    originals — (2,2)-anonymity — yet record 3 (value 3) has a single
    *match*: its own record {3,4}.  Its other neighbour {1,2,3} lies in
    no perfect matching, because deleting record 3 and {1,2,3} leaves
    records 1 and 2 competing for the lone record {1,2}.  This is the
    Section IV-A adversary-2 attack in its smallest clothing, and the
    witness that A^{(k,k)} ⊄ A^{G,(1,k)} (Figure 1).

    Returns (table, generalized rows as value-lists).
    """
    values = [str(v) for v in range(1, 7)]
    att = Attribute("v", values)
    coll = SubsetCollection(
        att,
        [["1", "2"], ["1", "2", "3"], ["3", "4"], ["4", "5", "6"], ["5", "6"]],
    )
    schema = Schema([coll])
    table = Table(schema, [(v,) for v in values])
    generalized = [
        [["1", "2"]],
        [["1", "2", "3"]],
        [["3", "4"]],
        [["4", "5", "6"]],
        [["5", "6"]],
        [["5", "6"]],
    ]
    return table, generalized


def global_not_kk_example() -> tuple[Table, list[list[list[str]]], int]:
    """A global (1,3)-anonymization that is *not* (3,1)-anonymous.

    Four records with values 1..4; record 1 is published as {1,2} and the
    rest fully suppressed.  Every record has ≥ 3 matches — e.g. record 3
    can swap into any of the three suppressed slots — so global (1,3)
    holds, but the record {1,2} covers only two originals, so (3,1)
    fails.  This witnesses A^{G,(1,k)} ⊄ A^{(k,k)} in Figure 1.

    A reproduction-found subtlety: no such witness exists for k = 2.  If
    a published record had a single consistent original u, every perfect
    matching would pair them, leaving u exactly one match — so global
    (1,2) already implies (2,1).  The Figure 1 incomparability of
    A^{G,(1,k)} and A^{(k,k)} therefore only materializes at k ≥ 3.

    Returns (table, generalized rows as value-lists, k).
    """
    values = ["1", "2", "3", "4"]
    att = Attribute("v", values)
    coll = SubsetCollection(att, [["1", "2"]])
    schema = Schema([coll])
    table = Table(schema, [(v,) for v in values])
    generalized = [
        [["1", "2"]],
        [values],
        [values],
        [values],
    ]
    return table, generalized, 3


def nodes_from_value_lists(
    enc: EncodedTable, rows: list[list[list[str]]]
) -> np.ndarray:
    """Encode explicit generalized rows (lists of value-lists) to nodes."""
    out = np.empty((len(rows), enc.num_attributes), dtype=np.int32)
    for i, row in enumerate(rows):
        for j, cell in enumerate(row):
            out[i, j] = enc.attrs[j].collection.node_of_values(cell)
    return out


def classify(enc: EncodedTable, node_matrix: np.ndarray, k: int) -> frozenset[str]:
    """The subset of the five classes this generalization belongs to.

    Only *valid* generalizations (record i generalizing row i) should be
    classified; global (1,k) requires a perfect matching, which the
    identity correspondence guarantees.
    """
    out = set()
    if is_k_anonymous(node_matrix, k):
        out.add("k")
    one_k = is_one_k_anonymous(enc, node_matrix, k)
    k_one = is_k_one_anonymous(enc, node_matrix, k)
    if one_k:
        out.add("1k")
    if k_one:
        out.add("k1")
    if one_k and k_one:
        out.add("kk")
    if is_global_one_k_anonymous(enc, node_matrix, k):
        out.add("global-1k")
    return frozenset(out)


@dataclass(frozen=True)
class RelationCensus:
    """Counts of generalizations per membership pattern.

    ``counts`` maps a frozenset of class names to how many enumerated
    generalizations exhibit exactly that membership pattern.
    """

    k: int
    total: int
    counts: dict[frozenset[str], int]

    def count_in(self, cls: str) -> int:
        """How many generalizations belong to class ``cls`` (at least)."""
        return sum(c for key, c in self.counts.items() if cls in key)

    def exists(self, inside: set[str], outside: set[str]) -> bool:
        """Whether some generalization is in all of ``inside`` and none
        of ``outside``."""
        return any(
            inside <= key and not (outside & key) for key in self.counts
        )


def enumerate_census(
    enc: EncodedTable, k: int, max_generalizations: int = 2_000_000
) -> RelationCensus:
    """Exhaustively classify every valid generalization of a small table.

    Every record independently ranges over the nodes containing its
    value; the product space is the set of all local recodings.

    Raises
    ------
    ExperimentError
        If the space exceeds ``max_generalizations``.
    """
    n = enc.num_records
    options: list[list[int]] = []
    for i in range(n):
        per_record = []
        for j, att in enumerate(enc.attrs):
            v = enc.codes[i, j]
            per_record.append(
                [b for b in range(att.num_nodes) if att.anc[v, b]]
            )
        options.append([np.array(combo, dtype=np.int32)
                        for combo in product(*per_record)])
    space = 1
    for opts in options:
        space *= len(opts)
    if space > max_generalizations:
        raise ExperimentError(
            f"{space} generalizations exceed the cap of {max_generalizations}"
        )

    counts: dict[frozenset[str], int] = {}
    for combo in product(*options):
        node_matrix = np.stack(combo)
        key = classify(enc, node_matrix, k)
        counts[key] = counts.get(key, 0) + 1
    return RelationCensus(k=k, total=space, counts=counts)


def check_figure1(census: RelationCensus) -> list[str]:
    """Verify every region of Figure 1 against a census.

    Returns a list of human-readable violations (empty = Figure 1 holds
    for the enumerated table).  Inclusion facts are checked as "no
    counterexample"; non-emptiness facts as "a witness exists" —
    witnesses may legitimately be absent for very small tables, so only
    inclusion violations are hard errors for arbitrary inputs; the bench
    uses a table known to exhibit every region.
    """
    problems = []
    # Inclusions (must hold for every table).
    for key in census.counts:
        if "k" in key and key != frozenset(NOTIONS):
            missing = set(NOTIONS) - set(key)
            problems.append(
                f"a k-anonymization is missing from classes {sorted(missing)}"
            )
        if "kk" in key and not {"1k", "k1"} <= key:
            problems.append("a (k,k)-anonymization escapes (1,k) or (k,1)")
        if "global-1k" in key and "1k" not in key:
            problems.append("a global (1,k)-anonymization escapes (1,k)")
    return problems
