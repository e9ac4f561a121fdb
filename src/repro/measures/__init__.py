"""Information-loss measures (Section IV of the paper, plus related work).

* :class:`EntropyMeasure` — Π_E, eq. (3), the paper's primary measure.
* :class:`LMMeasure` — Π_LM, eq. (4).
* :class:`TreeMeasure` — the hierarchy-level measure of Aggarwal et al.
* :class:`NonUniformEntropyMeasure` — entry-level measure of [10]
  (evaluation only).
* :class:`DiscernibilityMeasure` / :class:`ClassificationMeasure` —
  DM [6] and CM [11], clustering-level (evaluation only).

A :class:`CostModel` binds a node-decomposable measure to an encoded
table; it is the object all core algorithms consume.
:class:`FusedJoinCost` prices candidate unions ``c(join(row, anchor))``
for many rows at once without materializing the join.
"""

from repro.measures.base import (
    ClusteringMeasure,
    CostModel,
    FusedJoinCost,
    LossMeasure,
    RecordLossMeasure,
    evaluate_record_measure,
)
from repro.measures.classification import ClassificationMeasure
from repro.measures.discernibility import DiscernibilityMeasure
from repro.measures.entropy import EntropyMeasure, NonUniformEntropyMeasure
from repro.measures.lm import LMMeasure
from repro.measures.registry import get_measure, measure_names
from repro.measures.suppression import SuppressionMeasure
from repro.measures.tree import TreeMeasure

__all__ = [
    "LossMeasure",
    "RecordLossMeasure",
    "ClusteringMeasure",
    "CostModel",
    "FusedJoinCost",
    "evaluate_record_measure",
    "EntropyMeasure",
    "NonUniformEntropyMeasure",
    "LMMeasure",
    "TreeMeasure",
    "SuppressionMeasure",
    "DiscernibilityMeasure",
    "ClassificationMeasure",
    "get_measure",
    "measure_names",
]
