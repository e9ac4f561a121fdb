"""Experiment G1: the cost of upgrading (k,k) to global (1,k).

Section V-C's empirical observations to reproduce:

* degrees in the consistency graphs of (k,k)-anonymizations sit between
  k and 2k (so m ≤ 2nk and the matching machinery stays tractable);
* deficient records almost always need a single Algorithm 6 fix step,
  even when their initial deficiency exceeds 1;
* this reproduction additionally records how *many* records are
  deficient and the conversion's relative cost overhead (≈10–25% on our
  synthetic datasets), which the paper leaves unquantified.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.configs import ExperimentConfig
from repro.experiments.runner import ExperimentRunner, RunKey
from repro.report import format_table


@dataclass(frozen=True)
class GlobalConversionPoint:
    """One (dataset, measure, k) conversion."""

    dataset: str
    measure: str
    k: int
    kk_cost: float  #: Π before Algorithm 6
    global_cost: float  #: Π after
    initial_deficient: int  #: records with < k matches before fixing
    fixes: int  #: total Algorithm 6 fix steps
    passes: int  #: recompute passes
    min_degree: int  #: smallest consistency-graph degree of the (k,k) input
    max_degree: int  #: largest

    @property
    def overhead(self) -> float:
        """Relative cost increase of the conversion."""
        return self.global_cost / self.kk_cost - 1.0 if self.kk_cost else 0.0


def conversion_cells(
    config: ExperimentConfig,
    dataset: str,
    measure: str,
    ks: tuple[int, ...] | None = None,
) -> list[RunKey]:
    """The ``global`` cells :func:`global_conversion_experiment` reads."""
    return [
        RunKey("global", dataset, measure, k, expander="expansion")
        for k in ks or config.ks
    ]


def global_conversion_experiment(
    runner: ExperimentRunner,
    dataset: str,
    measure: str,
    ks: tuple[int, ...] | None = None,
) -> list[GlobalConversionPoint]:
    """Run G1 for one (dataset, measure) across the k sweep."""
    points = []
    for key in conversion_cells(runner.config, dataset, measure, ks):
        outcome = runner.run_key(key)
        extra = outcome.extra_dict()
        points.append(
            GlobalConversionPoint(
                dataset=dataset,
                measure=measure,
                k=key.k,
                kk_cost=extra["kk_cost"],
                global_cost=outcome.cost,
                initial_deficient=extra["initial_deficient"],
                fixes=extra["fixes"],
                passes=extra["passes"],
                min_degree=extra["min_degree"],
                max_degree=extra["max_degree"],
            )
        )
    return points


def format_conversion(points: list[GlobalConversionPoint]) -> str:
    """Aligned table of G1 results."""
    rows = [
        [
            f"{p.dataset}/{p.measure} k={p.k}",
            p.kk_cost,
            p.global_cost,
            f"{p.overhead:+.1%}",
            p.initial_deficient,
            p.fixes,
            p.passes,
            f"{p.min_degree}..{p.max_degree}",
        ]
        for p in points
    ]
    return format_table(
        [
            "config", "Π (k,k)", "Π global", "overhead",
            "deficient", "fixes", "passes", "degrees",
        ],
        rows,
        3,
    )
