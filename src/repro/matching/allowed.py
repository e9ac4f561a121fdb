"""Allowed edges: which edges lie in *some* perfect matching.

Definition 4.6 calls a generalized record R̄ a *match* of an original
record R when the edge (R, R̄) of the consistency graph can be completed
to a perfect matching.  The paper tests this by deleting the two
endpoints and re-running Hopcroft–Karp per edge (O(√n · m²) overall).

We implement that naive test (:func:`allowed_edges_naive`, used for
cross-checking) and the standard O(n + m) structure theorem
(:func:`allowed_edges`):

    Given a perfect matching M, orient every matched edge from right to
    left and every unmatched edge from left to right.  An edge (u, v) is
    allowed iff it is in M or u and v lie in the same strongly connected
    component of the oriented graph (equivalently, iff it lies on an
    M-alternating cycle — Berge).

Both functions take the bipartite graph as left-side adjacency lists and
return, per left vertex, the set of allowed right neighbours, so they
serve any bipartite graph (adversary 3's pruned one included).  On
consistency graphs they are the oracles of :func:`quotient_components`,
which :class:`~repro.matching.bipartite.ConsistencyGraph` runs on the
graph's (unique row, distinct generalization) pairs:

    Contract left w with its matched right vertex M(w).  Then u → w iff
    row u is consistent with the generalization of M(w), and (u, v) is
    allowed iff u and M⁻¹(v) share an SCC of this n-vertex digraph.
    Every record is consistent with its own matched generalization, so
    two records with the same row reach each other in one step, and so
    do two records whose matched generalizations are equal.  Each class
    of "same row or same generalization" therefore lies inside one SCC,
    and the SCC runs on the quotient by those classes: one vertex per
    class and one arc per consistent pair that crosses two classes.

The consistency graph of every generalization the library produces
contains the identity matching (record i generalizes row i), so the
graph calls Hopcroft–Karp only for node matrices that break it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from repro.errors import MatchingError
from repro.matching.hopcroft_karp import hopcroft_karp
from repro.matching.tarjan import strongly_connected_components
from repro.obs import count


def perfect_matching(
    adj: Sequence[Sequence[int]], num_right: int
) -> tuple[list[int], list[int]]:
    """``(match_left, match_right)`` of a perfect matching, by Hopcroft–Karp.

    Raises
    ------
    MatchingError
        If the graph has none.
    """
    num_left = len(adj)
    match_left, match_right, size = hopcroft_karp(adj, num_right)
    if size != num_left or size != num_right:
        raise MatchingError(
            f"graph has no perfect matching (max matching {size}, "
            f"sides {num_left}/{num_right})"
        )
    return match_left, match_right


def allowed_edges(
    adj: Sequence[Sequence[int]], num_right: int
) -> list[set[int]]:
    """Allowed right-neighbours of every left vertex, via one matching + SCC.

    Raises
    ------
    MatchingError
        If the graph has no perfect matching (then *no* edge is allowed
        in the Definition 4.6 sense, and the caller's input is broken:
        every generalization graph contains the identity matching).
    """
    num_left = len(adj)
    match_left, match_right = perfect_matching(adj, num_right)

    # Vertices 0..num_left-1 are left; num_left..num_left+num_right-1 right.
    directed: list[list[int]] = [[] for _ in range(num_left + num_right)]
    # repro: allow[REP011] single pass over one oracle instance's vertex set
    for u in range(num_left):
        mu = match_left[u]
        for v in adj[u]:
            if v == mu:
                directed[num_left + v].append(u)  # matched: right -> left
            else:
                directed[u].append(num_left + v)  # unmatched: left -> right
    comp = strongly_connected_components(directed)

    allowed: list[set[int]] = []
    # repro: allow[REP011] single pass over one oracle instance's vertex set
    for u in range(num_left):
        mine = {match_left[u]}
        for v in adj[u]:
            if comp[u] == comp[num_left + v]:
                mine.add(v)
        allowed.append(mine)
    return allowed


def allowed_edges_naive(
    adj: Sequence[Sequence[int]], num_right: int
) -> list[set[int]]:
    """Reference implementation: per-edge endpoint deletion + Hopcroft–Karp.

    This is the O(√n · m²) procedure the paper describes.  Exponentially
    clearer, quadratically slower; used by the tests to validate
    :func:`allowed_edges` and by the benchmarks to demonstrate the
    speed-up.
    """
    num_left = len(adj)
    perfect_matching(adj, num_right)  # validate the precondition

    allowed: list[set[int]] = []
    for u in range(num_left):
        mine: set[int] = set()
        for v in adj[u]:
            # Delete u and v; the rest must still have a perfect matching.
            sub_adj = [
                [w if w < v else w - 1 for w in adj[x] if w != v]
                for x in range(num_left)
                if x != u
            ]
            _, _, size = hopcroft_karp(sub_adj, num_right - 1)
            if size == num_left - 1:
                mine.add(v)
        allowed.append(mine)
    return allowed


def quotient_components(
    matched_rows: NDArray[np.int64],
    matched_gens: NDArray[np.int64],
    pair_rows: NDArray[np.int64],
    pair_gens: NDArray[np.int64],
    num_rows: int,
    num_gens: int,
) -> tuple[NDArray[np.int64], NDArray[np.int64]]:
    """SCC ids of rows and generalizations around one perfect matching.

    The bipartite graph joins records to generalized records through
    their rows and generalizations: ``pair_rows[p]`` is consistent with
    ``pair_gens[p]``, and the edge (u, v) exists iff (row of u,
    generalization of v) is such a pair.  The perfect matching pairs
    record w with a generalized record whose generalization is
    ``matched_gens[w]``; ``matched_rows[w]`` is w's row.

    Returns ``(row_comp, gen_comp)``: the edge (u, v) is allowed iff
    ``row_comp[row of u] == gen_comp[generalization of v]``.  Each id is
    the SCC of the class containing that row or generalization (see the
    module docstring); ids are only compared for equality.
    """
    # Classes of "same row or same generalization": union-find over the
    # distinct matched (row, generalization) pairs, rows numbered first.
    matched = _distinct(matched_rows * num_gens + matched_gens)
    parent = list(range(num_rows + num_gens))
    size = [1] * (num_rows + num_gens)
    # repro: allow[REP011] single pass over the distinct matched pairs
    for a, b in zip(
        (matched // num_gens).tolist(), (matched % num_gens + num_rows).tolist()
    ):
        while parent[a] != a:  # path halving
            parent[a] = parent[parent[a]]
            a = parent[a]
        while parent[b] != b:
            parent[b] = parent[parent[b]]
            b = parent[b]
        if a != b:  # union by size
            if size[a] < size[b]:
                a, b = b, a
            parent[b] = a
            size[a] += size[b]
    roots = []
    # repro: allow[REP011] single pass over the row and generalization vertices
    for v in range(num_rows + num_gens):
        root = v
        while parent[root] != root:
            root = parent[root]
        roots.append(root)
    classes, label = np.unique(roots, return_inverse=True)
    num_classes = classes.size
    count("matching.allowed.classes", num_classes)

    # The class digraph: one arc per consistent pair crossing two classes.
    tail = label[pair_rows]
    head = label[num_rows + pair_gens]
    cross = tail != head
    arcs = _distinct(tail[cross] * num_classes + head[cross])
    bounds = np.searchsorted(arcs, np.arange(num_classes + 1) * num_classes)
    heads = (arcs % num_classes).tolist()
    out = [heads[a:b] for a, b in zip(bounds[:-1].tolist(), bounds[1:].tolist())]
    comp = np.asarray(strongly_connected_components(out), dtype=np.int64)[label]
    return comp[:num_rows], comp[num_rows:]


def _distinct(keys: NDArray[np.int64]) -> NDArray[np.int64]:
    """The distinct values of ``keys``, ascending.

    Sorting once and masking repeats: on the class digraph's arcs this
    is several times faster than ``np.unique``, which hashes plain
    integer arrays in NumPy 2.
    """
    keys = np.sort(keys)
    first = np.ones(keys.size, dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return keys[first]
