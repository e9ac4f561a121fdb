"""ℓ-diversity inside the agglomerative framework (paper §II / §VII).

The paper notes that "ℓ-diversity fits also in our framework, but we
have left the investigation of this topic for future research".  This
module is that investigation for the clustering-based algorithms, with
all three criteria of Machanavajjhala et al. [15]:

* **distinct** ℓ-diversity — ≥ ℓ distinct sensitive values per cluster;
* **entropy** ℓ-diversity — H(sensitive | cluster) ≥ log₂ ℓ;
* **recursive (c, ℓ)**-diversity — the most frequent value occurs fewer
  than c times the combined count of the ℓ−1 … least frequent values
  (r₁ < c · (r_ℓ + … + r_m)).

A clustering violating the chosen criterion is repaired by merging each
offending cluster into the cluster whose union costs least under the
active distance function — the same agglomerative primitive Algorithm 1
is built from.  The result satisfies both k-anonymity (cluster sizes
only grow) and the requested diversity criterion.  Note: entropy and
recursive diversity are not generally monotone under merging, so the
repair loop re-checks after every merge and is guaranteed to terminate
only because the single whole-table cluster is maximally diverse — if
even that fails the criterion, the demand is unattainable and reported
as such.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.clustering import Clustering, cluster_closures
from repro.core.distances import ClusterDistance
from repro.errors import AnonymityError, SchemaError
from repro.measures.base import CostModel, FusedJoinCost
from repro.tabular.encoding import EncodedTable


def sensitive_column(enc: EncodedTable, attribute: str | None = None) -> list[str]:
    """Values of the sensitive (private) attribute, one per record."""
    return list(enc.table.private_column(attribute))


def cluster_diversities(
    enc: EncodedTable, clustering: Clustering, attribute: str | None = None
) -> np.ndarray:
    """Distinct sensitive-value count of every cluster."""
    values = sensitive_column(enc, attribute)
    return np.array(
        [len({values[i] for i in cluster}) for cluster in clustering.clusters],
        dtype=np.int64,
    )


def _value_counts(values: list[str], cluster) -> np.ndarray:
    from collections import Counter

    counts = Counter(values[i] for i in cluster)
    return np.array(sorted(counts.values(), reverse=True), dtype=np.float64)


def distinct_diversity(values: list[str], cluster) -> float:
    """Number of distinct sensitive values in one cluster."""
    return float(len({values[i] for i in cluster}))


def entropy_diversity(values: list[str], cluster) -> float:
    """Effective value count 2^H of the cluster's sensitive distribution.

    Entropy ℓ-diversity [15] demands H ≥ log₂ ℓ, i.e. this quantity ≥ ℓ.
    """
    counts = _value_counts(values, cluster)
    p = counts / counts.sum()
    entropy = float(-(p * np.log2(p)).sum())
    return float(2.0 ** entropy)


def recursive_diversity_satisfied(
    values: list[str], cluster, l: int, c: float
) -> bool:
    """Recursive (c, ℓ)-diversity [15]: r₁ < c · (r_ℓ + … + r_m)."""
    counts = _value_counts(values, cluster)
    if len(counts) < l:
        return False
    tail = counts[l - 1 :].sum()
    return bool(counts[0] < c * tail)


def is_l_diverse(
    enc: EncodedTable,
    clustering: Clustering,
    l: int,
    attribute: str | None = None,
    criterion: str = "distinct",
    c: float = 1.0,
) -> bool:
    """ℓ-diversity check for a clustering under the chosen criterion.

    Parameters
    ----------
    criterion:
        ``"distinct"`` (default), ``"entropy"`` or ``"recursive"``.
    c:
        The constant of recursive (c, ℓ)-diversity; ignored otherwise.
    """
    values = sensitive_column(enc, attribute)
    if criterion == "distinct":
        return all(
            distinct_diversity(values, cluster) >= l
            for cluster in clustering.clusters
        )
    if criterion == "entropy":
        return all(
            entropy_diversity(values, cluster) >= l - 1e-9
            for cluster in clustering.clusters
        )
    if criterion == "recursive":
        return all(
            recursive_diversity_satisfied(values, cluster, l, c)
            for cluster in clustering.clusters
        )
    raise SchemaError(
        f"unknown diversity criterion {criterion!r}; expected "
        "'distinct', 'entropy' or 'recursive'"
    )


@dataclass(frozen=True)
class DiversityRepair:
    """Result of :func:`enforce_l_diversity`."""

    clustering: Clustering  #: the repaired, ℓ-diverse clustering
    merges: int  #: how many cluster merges were needed


def enforce_l_diversity(
    model: CostModel,
    clustering: Clustering,
    l: int,
    distance: ClusterDistance,
    attribute: str | None = None,
    criterion: str = "distinct",
    c: float = 1.0,
) -> DiversityRepair:
    """Merge non-diverse clusters until every cluster is ℓ-diverse.

    In every step the worst-offending cluster is merged with the cluster
    minimizing the distance function — exactly Algorithm 1's merge
    primitive, applied under a diversity trigger instead of a size
    trigger, with the candidate unions priced by the join→cost kernel.
    Supports all three [15] criteria; see :func:`is_l_diverse`.

    Raises
    ------
    AnonymityError
        If even the whole table, as a single cluster, fails the
        criterion (then no clustering can satisfy it).
    """
    enc = model.enc
    values = sensitive_column(enc, attribute)

    def satisfied(cluster) -> bool:
        if criterion == "distinct":
            return distinct_diversity(values, cluster) >= l
        if criterion == "entropy":
            return entropy_diversity(values, cluster) >= l - 1e-9
        if criterion == "recursive":
            return recursive_diversity_satisfied(values, cluster, l, c)
        raise SchemaError(
            f"unknown diversity criterion {criterion!r}; expected "
            "'distinct', 'entropy' or 'recursive'"
        )

    def score(cluster) -> float:
        # Lower = worse offender (merged first).
        if criterion == "recursive":
            counts = _value_counts(values, cluster)
            tail = counts[l - 1 :].sum() if len(counts) >= l else 0.0
            return float(tail - counts[0] / max(c, 1e-12))
        if criterion == "entropy":
            return entropy_diversity(values, cluster)
        return distinct_diversity(values, cluster)

    if not satisfied(list(range(enc.num_records))):
        raise AnonymityError(
            f"the whole table fails {criterion} ℓ-diversity at ℓ={l}; "
            "the demand is unattainable"
        )

    fused = FusedJoinCost(model)
    clusters = [list(c) for c in clustering.clusters]
    merges = 0
    while True:
        deficient = [
            ci for ci, cluster in enumerate(clusters) if not satisfied(cluster)
        ]
        if not deficient:
            break
        ci = min(deficient, key=lambda idx: (score(clusters[idx]), idx))
        nodes = cluster_closures(enc, clusters)
        sizes = np.array([len(c) for c in clusters], dtype=np.int64)
        costs = np.asarray(model.record_cost(nodes), dtype=np.float64)
        cost_union = fused.costs(nodes.T, nodes[ci])
        dist = np.asarray(
            distance.evaluate(sizes[ci], costs[ci], sizes, costs, cost_union),
            dtype=np.float64,
        )
        dist[ci] = np.inf
        target = int(dist.argmin())
        lo, hi = sorted((ci, target))
        clusters[lo] = clusters[lo] + clusters[hi]
        del clusters[hi]
        merges += 1
    return DiversityRepair(
        clustering=Clustering(enc.num_records, clusters), merges=merges
    )
