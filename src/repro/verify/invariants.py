"""The invariant catalogue: machine-checkable facts from the paper.

Every function here inspects one artifact (an encoding, a cost model, a
generalization, a bipartite graph) and returns a list of
:class:`Violation` records — empty when the invariant holds.  The
catalogue covers:

* **closure algebra** (Def. 3.1/3.3): closures are extensive and
  idempotent, joins are commutative upper bounds;
* **generalization validity** (Def. 3.3): every published record is
  consistent with the original record it recodes;
* **notion satisfaction** (Def. 4.1/4.4/4.6): an algorithm's output
  passes the verifier of its target notion;
* **the Fig. 1 / Prop. 4.5 containment lattice**: k-anonymity implies
  (k,k) and global (1,k); global (1,k) implies (1,k); (k,k) is exactly
  (1,k) ∧ (k,1) — checked through independent code paths;
* **measure soundness**: node costs are non-negative, singletons are
  free, and the per-measure ``monotone`` / ``bounded_unit`` claims hold;
* **matching correctness**: Hopcroft–Karp agrees with the brute-force
  Kuhn matcher on maximum matching size, and the SCC-based allowed-edge
  computation agrees with the paper's naive per-edge test;
* **unmutated inputs**: an algorithm, completed or aborted, leaves every
  array of the encoding it shares with every other algorithm (and, in
  the service, with every later request) byte-identical.

The fuzzing harness (:mod:`repro.verify.harness`) strings these together
over random instances; the invariants are equally usable one-off from a
REPL when debugging a suspicious release.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.notions import anonymity_profile, satisfies
from repro.errors import MatchingError
from repro.matching.allowed import allowed_edges, allowed_edges_naive
from repro.matching.bruteforce import kuhn_matching
from repro.matching.hopcroft_karp import hopcroft_karp
from repro.measures.base import CostModel
from repro.tabular.encoding import EncodedTable


@dataclass(frozen=True)
class Violation:
    """One invariant breach: which invariant, and what went wrong."""

    invariant: str  #: stable dotted name, e.g. ``notion.k1``
    detail: str  #: human-readable specifics

    def __str__(self) -> str:
        return f"[{self.invariant}] {self.detail}"


# ---------------------------------------------------------------------- #
# unmutated inputs
# ---------------------------------------------------------------------- #

#: The arrays an :class:`EncodedTable` holds itself; each
#: :class:`~repro.tabular.encoding.EncodedAttribute` adds
#: :data:`_ATTRIBUTE_ARRAYS` and each attribute a ``value_counts`` array.
_SHARED_ARRAYS = (
    "codes",
    "singleton_nodes",
    "unique_codes",
    "unique_inverse",
    "unique_counts",
    "unique_singleton_nodes",
    "_join_flat",
    "_join_offsets",
    "_join_cols",
)
_ATTRIBUTE_ARRAYS = ("join", "anc", "sizes", "singleton")


def _shared_arrays(enc: EncodedTable) -> dict[str, np.ndarray]:
    """Every array ``enc`` holds, under the name a report gives it."""
    arrays = {name: getattr(enc, name) for name in _SHARED_ARRAYS}
    for j, counts in enumerate(enc.value_counts):
        arrays[f"value_counts[{j}]"] = counts
    for j, att in enumerate(enc.attrs):
        for name in _ATTRIBUTE_ARRAYS:
            arrays[f"attrs[{j}].{name}"] = getattr(att, name)
    return arrays


def snapshot_inputs(enc: EncodedTable) -> dict[str, np.ndarray]:
    """Copies of the encoded arrays an algorithm must not mutate: every
    array the encoding holds, since one encoding serves many runs."""
    return {name: array.copy() for name, array in _shared_arrays(enc).items()}


def check_inputs_unmutated(
    enc: EncodedTable,
    before: dict[str, np.ndarray],
    invariant: str,
    label: str,
) -> list[Violation]:
    """One ``invariant`` violation per array of :func:`snapshot_inputs`
    that ``enc`` no longer holds as ``before`` recorded it."""
    current = _shared_arrays(enc)
    return [
        Violation(invariant, f"{label} mutated enc.{name}")
        for name, saved in before.items()
        if not np.array_equal(current[name], saved)
    ]


# ---------------------------------------------------------------------- #
# closure algebra
# ---------------------------------------------------------------------- #


def check_closure_algebra(
    enc: EncodedTable, rng: np.random.Generator, samples: int = 20
) -> list[Violation]:
    """Closures are extensive and idempotent; joins are upper bounds.

    Node pairs are checked exhaustively when the collection is small and
    by seeded sampling otherwise.
    """
    out: list[Violation] = []
    for j, att in enumerate(enc.attrs):
        coll = att.collection
        name = coll.attribute.name
        m = coll.attribute.size
        for _ in range(samples):
            size = int(rng.integers(1, m + 1))
            members = set(
                rng.choice(m, size=size, replace=False).tolist()
            )
            node = coll.closure_of_value_indices(members)
            if not members <= set(coll.node_indices(node)):
                out.append(
                    Violation(
                        "closure.extensive",
                        f"attribute {name}: closure({sorted(members)}) = "
                        f"node {node} does not contain its argument",
                    )
                )
            again = coll.closure_of_value_indices(coll.node_indices(node))
            if coll.node_indices(again) != coll.node_indices(node):
                out.append(
                    Violation(
                        "closure.idempotent",
                        f"attribute {name}: closure of node {node} moved "
                        f"to node {again}",
                    )
                )
        n_nodes = coll.num_nodes
        if n_nodes * n_nodes <= 400:
            pairs = [
                (a, b) for a in range(n_nodes) for b in range(n_nodes)
            ]
        else:
            pairs = [
                (int(rng.integers(0, n_nodes)), int(rng.integers(0, n_nodes)))
                for _ in range(samples)
            ]
        for a, b in pairs:
            joined = int(enc.attrs[j].join[a, b])
            if not (
                coll.node_indices(a) <= coll.node_indices(joined)
                and coll.node_indices(b) <= coll.node_indices(joined)
            ):
                out.append(
                    Violation(
                        "closure.join-upper-bound",
                        f"attribute {name}: join({a}, {b}) = {joined} does "
                        "not contain both operands",
                    )
                )
            if int(enc.attrs[j].join[b, a]) != joined:
                out.append(
                    Violation(
                        "closure.join-commutative",
                        f"attribute {name}: join({a}, {b}) != join({b}, {a})",
                    )
                )
    return out


# ---------------------------------------------------------------------- #
# measures
# ---------------------------------------------------------------------- #


def check_measure_soundness(model: CostModel) -> list[Violation]:
    """Non-negative costs, free singletons, and the per-measure claims.

    The ``monotone`` claim (B ⊆ B' implies cost(B) ≤ cost(B')) and the
    ``bounded_unit`` claim (costs in [0, 1]) are only enforced for
    measures that declare them; entropy is additionally checked against
    its log2(m) bound.
    """
    out: list[Violation] = []
    measure = model.measure
    for j, att in enumerate(model.enc.attrs):
        coll = att.collection
        name = coll.attribute.name
        costs = model.node_costs[j]
        if (costs < -1e-12).any():
            out.append(
                Violation(
                    "measure.nonnegative",
                    f"{measure.name} on {name}: negative node cost "
                    f"{float(costs.min())}",
                )
            )
        for v in range(att.num_values):
            if abs(float(costs[att.singleton[v]])) > 1e-12:
                out.append(
                    Violation(
                        "measure.singleton-free",
                        f"{measure.name} on {name}: singleton value {v} "
                        f"costs {float(costs[att.singleton[v]])}",
                    )
                )
        bound = (
            1.0
            if measure.bounded_unit
            else float(np.log2(max(att.num_values, 2)))
        )
        if (costs > bound + 1e-9).any():
            out.append(
                Violation(
                    "measure.bounded",
                    f"{measure.name} on {name}: cost {float(costs.max())} "
                    f"exceeds bound {bound}",
                )
            )
        if measure.monotone:
            for a in range(coll.num_nodes):
                for b in range(coll.num_nodes):
                    if (
                        coll.node_indices(a) < coll.node_indices(b)
                        and costs[a] > costs[b] + 1e-9
                    ):
                        out.append(
                            Violation(
                                "measure.monotone",
                                f"{measure.name} on {name}: node {a} ⊂ "
                                f"node {b} but cost {costs[a]} > {costs[b]}",
                            )
                        )
    return out


# ---------------------------------------------------------------------- #
# generalizations and notions
# ---------------------------------------------------------------------- #


def check_generalization(
    enc: EncodedTable,
    node_matrix: np.ndarray,
    notion: str,
    k: int,
    label: str = "output",
) -> list[Violation]:
    """A node matrix is shape-valid, generalizes its table, and passes
    the verifier of ``notion`` at level ``k``."""
    out: list[Violation] = []
    node_matrix = np.asarray(node_matrix)
    n, r = enc.num_records, enc.num_attributes
    if node_matrix.shape != (n, r):
        return [
            Violation(
                "output.shape",
                f"{label}: node matrix shape {node_matrix.shape}, "
                f"expected {(n, r)}",
            )
        ]
    for j, att in enumerate(enc.attrs):
        col = node_matrix[:, j]
        if (col < 0).any() or (col >= att.num_nodes).any():
            out.append(
                Violation(
                    "output.node-range",
                    f"{label}: attribute {j} has node indices outside "
                    f"[0, {att.num_nodes})",
                )
            )
            return out
    for i in range(n):
        if not bool(enc.consistency_mask(i, node_matrix[i])):
            out.append(
                Violation(
                    "output.generalizes",
                    f"{label}: record {i} is not consistent with its "
                    "generalization (Def. 3.3 breach)",
                )
            )
    if not satisfies(enc, node_matrix, notion, k):
        out.append(
            Violation(
                f"notion.{notion}",
                f"{label}: verifier rejects the output at k={k}",
            )
        )
    return out


def check_lattice(
    enc: EncodedTable,
    node_matrix: np.ndarray,
    k: int,
    label: str = "output",
) -> list[Violation]:
    """The Prop. 4.5 / Fig. 1 containments on one generalization.

    The anonymity levels come from :func:`anonymity_profile`, whose four
    quantities flow through independent code paths (row hashing, degree
    counting, matching), so agreement here is informative rather than
    tautological.
    """
    profile = anonymity_profile(enc, node_matrix, with_matches=True)
    k_anon = profile.min_group_size >= k
    one_k = profile.min_left_links >= k
    k_one = profile.min_right_links >= k
    kk = satisfies(enc, node_matrix, "kk", k)
    global_1k = profile.min_matches >= k

    out: list[Violation] = []
    if kk != (one_k and k_one):
        out.append(
            Violation(
                "lattice.kk-conjunction",
                f"{label}: (k,k) verifier says {kk} but (1,k) ∧ (k,1) "
                f"says {one_k and k_one} at k={k}",
            )
        )
    if k_anon and not (kk and global_1k):
        out.append(
            Violation(
                "lattice.k-implies-kk-global",
                f"{label}: k-anonymous at k={k} but kk={kk}, "
                f"global={global_1k} (Prop. 4.5/4.7 breach)",
            )
        )
    if global_1k and not one_k:
        out.append(
            Violation(
                "lattice.global-implies-1k",
                f"{label}: global (1,k) holds at k={k} but (1,k) fails",
            )
        )
    if profile.min_matches > profile.min_left_links:
        out.append(
            Violation(
                "lattice.matches-bounded-by-links",
                f"{label}: min matches {profile.min_matches} exceeds min "
                f"left degree {profile.min_left_links}",
            )
        )
    return out


# ---------------------------------------------------------------------- #
# matching
# ---------------------------------------------------------------------- #


def check_matching_oracles(
    adj: Sequence[Sequence[int]],
    num_right: int,
    label: str = "graph",
    naive_edge_budget: int = 400,
) -> list[Violation]:
    """Hopcroft–Karp vs Kuhn on size; fast vs naive allowed edges.

    The O(√n·m²) naive allowed-edge oracle is skipped above
    ``naive_edge_budget`` edges; the matching-size comparison always
    runs.
    """
    out: list[Violation] = []
    *_, hk_size = hopcroft_karp(adj, num_right)
    *_, bf_size = kuhn_matching(adj, num_right)
    if hk_size != bf_size:
        out.append(
            Violation(
                "matching.size",
                f"{label}: Hopcroft–Karp size {hk_size} != brute-force "
                f"size {bf_size}",
            )
        )
        return out

    num_edges = sum(len(a) for a in adj)
    perfect = hk_size == len(adj) == num_right
    if perfect and num_edges <= naive_edge_budget:
        fast = allowed_edges(adj, num_right)
        naive = allowed_edges_naive(adj, num_right)
        for u, (f, s) in enumerate(zip(fast, naive)):
            if f != s:
                out.append(
                    Violation(
                        "matching.allowed-edges",
                        f"{label}: allowed edges of vertex {u} differ — "
                        f"SCC method {sorted(f)}, naive {sorted(s)}",
                    )
                )
    elif not perfect:
        # Both allowed-edge routines must refuse imperfect graphs.
        for fn, tag in (
            (allowed_edges, "fast"),
            (allowed_edges_naive, "naive"),
        ):
            try:
                fn(adj, num_right)
            except MatchingError:
                continue
            out.append(
                Violation(
                    "matching.imperfect-refusal",
                    f"{label}: {tag} allowed-edge routine accepted a "
                    "graph with no perfect matching",
                )
            )
    return out
