"""High-level anonymization API.

:func:`anonymize` is the single entry point a downstream user needs: it
takes a :class:`~repro.tabular.table.Table`, the anonymity notion and k,
picks the paper's algorithm for that notion, and returns an
:class:`AnonymizationResult` bundling the generalized table, the
information loss, and diagnostics.

    >>> result = anonymize(table, k=10, notion="kk", measure="entropy")
    >>> result.cost            # Π_E(D, g(D))
    >>> result.node_matrix     # the generalization as node indices
    >>> result.generalized     # the GeneralizedTable to publish (decoded lazily)

Notions and the algorithms behind them:

=============  =====================================================
notion         algorithm
=============  =====================================================
``k``          agglomerative (Algorithm 1/2); or ``forest``,
               ``mondrian``, ``datafly`` comparators
``k1``         Algorithm 3 (``nearest``) or 4 (``expansion``)
``1k``         Algorithm 5 on the untouched table
``kk``         Algorithm 3/4 + Algorithm 5 (Section V-B coupling)
``global-1k``  the above + Algorithm 6 (Section V-C)
=============  =====================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any

import numpy as np

from repro.core.agglomerative import agglomerative_clustering
from repro.core.clustering import Clustering, clustering_to_nodes
from repro.core.distances import ClusterDistance, get_distance
from repro.core.forest import forest_clustering
from repro.core.global_1k import global_one_k_anonymize
from repro.core.k1 import k1_expansion, k1_nearest_neighbors
from repro.core.kk import kk_anonymize
from repro.core.notions import NOTIONS, anonymity_profile, satisfies
from repro.core.one_k import one_k_anonymize
from repro.errors import AnonymityError
from repro.measures.base import CostModel, LossMeasure
from repro.measures.registry import get_measure
from repro.runtime import Timer
from repro.tabular.encoding import EncodedTable
from repro.tabular.table import GeneralizedTable, Table


@dataclass
class AnonymizationResult:
    """Everything produced by one :func:`anonymize` call.

    The generalization is :attr:`node_matrix`; the publishable
    :attr:`generalized` table is decoded from it only when first read,
    so callers that need node indices or labels alone (the service
    renders its rows from the node matrix) never build record objects.
    """

    table: Table  #: the original table
    encoded: EncodedTable  #: its encoding (reusable for audits)
    node_matrix: np.ndarray  #: the generalization as ``[n, r]`` node indices
    notion: str  #: requested anonymity notion
    k: int  #: requested anonymity parameter
    algorithm: str  #: algorithm actually used
    measure: str  #: loss measure name
    cost: float  #: Π(D, g(D)) under that measure
    elapsed_seconds: float  #: wall-clock time of the algorithm
    clustering: Clustering | None = None  #: for clustering-based notions
    stats: dict[str, Any] = field(default_factory=dict)  #: extra diagnostics

    @cached_property
    def generalized(self) -> GeneralizedTable:
        """The publishable generalized table: :attr:`node_matrix` decoded
        by :meth:`~repro.tabular.encoding.EncodedTable.decode_table` on
        first access, then cached."""
        return self.encoded.decode_table(self.node_matrix)

    @property
    def backend(self) -> str:
        """Always ``"python"``: there is one agglomerative engine.

        Kept read-only for callers that still record it as provenance.
        """
        return "python"

    def verify(self) -> bool:
        """Re-check that the result satisfies its requested notion."""
        return satisfies(self.encoded, self.node_matrix, self.notion, self.k)

    def profile(self, with_matches: bool = True):
        """Full :class:`~repro.core.notions.AnonymityProfile` of the result."""
        return anonymity_profile(self.encoded, self.node_matrix, with_matches)

    def summary(self) -> str:
        """A short human-readable account of the result."""
        lines = [
            f"{self.notion}-anonymization of {self.table.num_records} records "
            f"at k={self.k}",
            f"algorithm : {self.algorithm}",
            f"loss      : Π_{self.measure} = {self.cost:.4f}",
            f"elapsed   : {self.elapsed_seconds:.2f}s",
        ]
        for key, value in self.stats.items():
            lines.append(f"{key.replace('_', ' '):10s}: {value}")
        return "\n".join(lines)


def _resolve_measure(measure: str | LossMeasure) -> LossMeasure:
    if isinstance(measure, LossMeasure):
        return measure
    return get_measure(measure)


def _resolve_distance(distance: str | ClusterDistance) -> ClusterDistance:
    if isinstance(distance, ClusterDistance):
        return distance
    return get_distance(distance)


def anonymize(
    table: Table,
    k: int,
    notion: str = "k",
    measure: str | LossMeasure = "entropy",
    algorithm: str | None = None,
    distance: str | ClusterDistance = "d3",
    modified: bool = False,
    expander: str = "expansion",
    encoded: EncodedTable | None = None,
) -> AnonymizationResult:
    """Anonymize ``table`` under the requested k-type notion.

    Parameters
    ----------
    table:
        The table to anonymize.
    k:
        The anonymity parameter (≥ 1, ≤ n).
    notion:
        One of ``k``, ``1k``, ``k1``, ``kk``, ``global-1k``.
    measure:
        Loss measure name (``entropy``/``em``, ``lm``, ``tree``,
        ``mw``/``suppression``) or a :class:`LossMeasure` instance.
        Drives both the algorithm's objective and the reported cost.
    algorithm:
        For ``notion="k"`` only: ``"agglomerative"`` (default),
        ``"forest"`` (the Aggarwal et al. baseline), ``"mondrian"``
        (top-down median partitioning) or ``"datafly"`` (Sweeney's
        full-domain heuristic).
    distance:
        Cluster distance for the agglomerative algorithm (``d1``–``d4``,
        ``nc`` or an instance).  The paper's consistent best performers
        are ``d3`` and ``d4``.
    modified:
        Use Algorithm 2's shrink step (modified agglomerative).
    expander:
        (k,1) stage for ``k1``/``kk``/``global-1k``: ``"expansion"``
        (Algorithm 4) or ``"nearest"`` (Algorithm 3).
    encoded:
        Optional pre-built encoding of ``table`` to reuse across calls.

    Returns
    -------
    :class:`AnonymizationResult`, whose generalization is guaranteed (and
    re-checkable via :meth:`AnonymizationResult.verify`) to satisfy the
    requested notion.  The call computes the node matrix and its cost;
    the :class:`GeneralizedTable` is decoded only when
    :attr:`AnonymizationResult.generalized` is first read.
    """
    notion = notion.lower()
    if notion not in NOTIONS and notion not in ("g1k", "global"):
        raise AnonymityError(
            f"unknown anonymity notion {notion!r}; expected one of {NOTIONS}"
        )
    if k < 1:
        raise AnonymityError(f"k must be a positive integer, got {k}")
    enc = encoded if encoded is not None else EncodedTable(table)
    if enc.table is not table:
        raise AnonymityError("the provided encoding belongs to a different table")
    measure_obj = _resolve_measure(measure)
    model = CostModel(enc, measure_obj)

    clustering: Clustering | None = None
    stats: dict[str, Any] = {}
    timer = Timer().__enter__()

    if notion == "k":
        algo = algorithm or "agglomerative"
        if algo == "agglomerative":
            dist_obj = _resolve_distance(distance)
            clustering = agglomerative_clustering(
                model, k, dist_obj, modified=modified
            )
            algo_name = (
                f"agglomerative[{dist_obj.name}"
                + (",modified]" if modified else "]")
            )
        elif algo == "forest":
            clustering = forest_clustering(model, k)
            algo_name = "forest"
        elif algo == "mondrian":
            from repro.core.mondrian import mondrian_clustering

            clustering = mondrian_clustering(model, k)
            algo_name = "mondrian"
        elif algo == "kmember":
            from repro.core.kmember import kmember_clustering

            clustering = kmember_clustering(model, k)
            algo_name = "kmember"
        elif algo == "datafly":
            from repro.core.datafly import datafly

            result = datafly(model, k)
            node_matrix = result.node_matrix
            stats["generalization_steps"] = result.num_steps
            stats["suppressed_records"] = len(result.suppressed)
            algo_name = "datafly"
        else:
            raise AnonymityError(
                f"unknown k-anonymization algorithm {algo!r}; expected "
                "'agglomerative', 'forest', 'mondrian', 'kmember' or "
                "'datafly'"
            )
        if clustering is not None:
            node_matrix = clustering_to_nodes(enc, clustering)
            stats["num_clusters"] = clustering.num_clusters
    elif notion == "k1":
        if expander == "expansion":
            node_matrix = k1_expansion(model, k)
        elif expander == "nearest":
            node_matrix = k1_nearest_neighbors(model, k)
        else:
            raise AnonymityError(
                f"unknown expander {expander!r}; expected 'expansion' or 'nearest'"
            )
        algo_name = f"k1[{expander}]"
    elif notion == "1k":
        node_matrix = one_k_anonymize(model, enc.singleton_nodes, k)
        algo_name = "alg5"
    elif notion == "kk":
        node_matrix = kk_anonymize(model, k, expander=expander)
        algo_name = f"kk[{expander}+alg5]"
    else:  # global (1,k)
        kk_nodes = kk_anonymize(model, k, expander=expander)
        node_matrix, conv = global_one_k_anonymize(model, kk_nodes, k)
        algo_name = f"global[{expander}+alg5+alg6]"
        stats["conversion_passes"] = conv.passes
        stats["conversion_fixes"] = conv.fixes
        stats["initial_deficient"] = conv.initial_deficient
        notion = "global-1k"
    elapsed = timer.elapsed()

    cost = model.table_cost(node_matrix)
    return AnonymizationResult(
        table=table,
        encoded=enc,
        node_matrix=node_matrix,
        notion=notion,
        k=k,
        algorithm=algo_name,
        measure=measure_obj.name,
        cost=cost,
        elapsed_seconds=elapsed,
        clustering=clustering,
        stats=stats,
    )
