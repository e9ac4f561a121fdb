"""Core algorithms and anonymity notions — the paper's contribution.

Sections IV and V: the five k-type anonymity notions with verifiers, the
agglomerative k-anonymization algorithms and their distance functions,
the forest baseline, the (k,1)/(1,k)/(k,k) anonymizers, the global
(1,k) converter, brute-force optima, and the :func:`anonymize` facade.
"""

from repro.core.agglomerative import agglomerative_clustering
from repro.core.api import AnonymizationResult, anonymize
from repro.core.clustering import (
    Clustering,
    clustering_cost,
    clustering_to_nodes,
    clusters_from_assignment,
)
from repro.core.distances import (
    ClusterDistance,
    LogNormalizedDelta,
    NergizCliftonDelta,
    PlainDelta,
    RatioDistance,
    WeightedDelta,
    distance_names,
    get_distance,
)
from repro.core.datafly import DataflyResult, datafly
from repro.core.forest import forest_clustering
from repro.core.mondrian import mondrian_clustering
from repro.core.scalable import blocked_agglomerative
from repro.core.global_1k import GlobalConversionStats, global_one_k_anonymize
from repro.core.k1 import k1_expansion, k1_nearest_neighbors, k1_optimal_cost
from repro.core.kk import kk_anonymize
from repro.core.kmember import kmember_clustering
from repro.core.notions import (
    NOTIONS,
    AnonymityProfile,
    anonymity_profile,
    group_sizes,
    is_global_one_k_anonymous,
    is_k_anonymous,
    is_k_one_anonymous,
    is_kk_anonymous,
    is_one_k_anonymous,
    left_link_counts,
    match_count_per_record,
    right_link_counts,
    satisfies,
)
from repro.core.one_k import one_k_anonymize
from repro.core.optimal import optimal_k_anonymity

__all__ = [
    "anonymize",
    "AnonymizationResult",
    "Clustering",
    "clustering_to_nodes",
    "clustering_cost",
    "clusters_from_assignment",
    "ClusterDistance",
    "WeightedDelta",
    "PlainDelta",
    "LogNormalizedDelta",
    "RatioDistance",
    "NergizCliftonDelta",
    "get_distance",
    "distance_names",
    "agglomerative_clustering",
    "forest_clustering",
    "datafly",
    "DataflyResult",
    "mondrian_clustering",
    "blocked_agglomerative",
    "kmember_clustering",
    "k1_expansion",
    "k1_nearest_neighbors",
    "k1_optimal_cost",
    "one_k_anonymize",
    "kk_anonymize",
    "global_one_k_anonymize",
    "GlobalConversionStats",
    "optimal_k_anonymity",
    "NOTIONS",
    "AnonymityProfile",
    "anonymity_profile",
    "group_sizes",
    "is_k_anonymous",
    "is_one_k_anonymous",
    "is_k_one_anonymous",
    "is_kk_anonymous",
    "is_global_one_k_anonymous",
    "satisfies",
    "left_link_counts",
    "right_link_counts",
    "match_count_per_record",
]
