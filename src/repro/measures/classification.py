"""The CM (classification) measure of Iyengar [11].

Each record is charged 1 if its class label (a designated private
attribute) differs from the majority label of the cluster it is published
in; the cost is the fraction of penalized records.  CM measures how much
an anonymization hurts a downstream classifier trained on the release —
the paper cites it among the historical cost metrics, and the CMC dataset
(whose class is the contraceptive-method choice) is its natural home.
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence

from repro.errors import SchemaError
from repro.measures.base import ClusteringMeasure
from repro.tabular.encoding import EncodedTable


class ClassificationMeasure(ClusteringMeasure):
    """CM — fraction of records outvoted on their class label within
    their cluster.

    Parameters
    ----------
    class_attribute:
        Name of the private attribute holding the class label.  Defaults
        to the schema's first private attribute.
    """

    name = "cm"

    def __init__(self, class_attribute: str | None = None) -> None:
        self._class_attribute = class_attribute

    def clustering_cost(
        self, enc: EncodedTable, clusters: Sequence[Sequence[int]]
    ) -> float:
        labels = enc.table.private_column(self._class_attribute)
        n = enc.num_records
        covered = sum(len(c) for c in clusters)
        if covered != n:
            raise SchemaError(
                f"clustering covers {covered} records, table has {n}"
            )
        penalty = 0
        for cluster in clusters:
            counts = Counter(labels[i] for i in cluster)
            majority = counts.most_common(1)[0][1]
            penalty += len(cluster) - majority
        return penalty / n
