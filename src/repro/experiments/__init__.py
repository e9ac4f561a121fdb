"""Experiment harness reproducing Section VI (and the §VII experiments).

* :mod:`repro.experiments.table1` — Table I.
* :mod:`repro.experiments.figures` — Figures 2 and 3.
* :mod:`repro.experiments.ablations` — the Section VI-A bullet claims.
* :mod:`repro.experiments.global1k` — the Algorithm 6 conversion study.
* :mod:`repro.experiments.scaling` — runtime scaling checks.
* :mod:`repro.experiments.paper_values` — the paper's numbers, verbatim.
* :mod:`repro.experiments.catalogue` — every experiment by name: the
  cells it reads and its rendering; the ``all`` report.
"""

from repro.experiments.catalogue import (
    REPORT_SECTIONS,
    Experiment,
    Rendering,
    generate_full_report,
    get_experiment,
)
from repro.experiments.configs import (
    AGGLOMERATIVE_VARIANTS,
    DEFAULT_SIZES,
    PAPER_SIZES,
    ExperimentConfig,
    resolve_sizes,
    variant_name,
)
from repro.experiments.figures import FigureResult, compute_figure
from repro.experiments.runner import ExperimentRunner, RunOutcome
from repro.experiments.table1 import (
    Table1Block,
    Table1Result,
    compute_block,
    compute_table1,
)

__all__ = [
    "REPORT_SECTIONS",
    "Experiment",
    "Rendering",
    "generate_full_report",
    "get_experiment",
    "ExperimentConfig",
    "ExperimentRunner",
    "RunOutcome",
    "compute_table1",
    "compute_block",
    "Table1Result",
    "Table1Block",
    "compute_figure",
    "FigureResult",
    "AGGLOMERATIVE_VARIANTS",
    "DEFAULT_SIZES",
    "PAPER_SIZES",
    "resolve_sizes",
    "variant_name",
]
