"""Ablations backing the "additional conclusions" of Section VI-A.

The paper draws four secondary conclusions from its experiments; each
gets a dedicated ablation here:

* **A1 distances** — "the two distance functions that consistently bring
  the best results are (10) and (11)" (our ``d3`` and ``d4``), with the
  Nergiz–Clifton asymmetric variant added for context.
* **A2 couplings** — "the coupling of Algorithms 4 and 5 produced better
  (k,k)-anonymizations than the coupling of Algorithms 3 and 5".
* **A3 modified** — "the corrections made in the modified agglomerative
  algorithm usually reduce the information loss ... negligible for
  [d3, d4]".
* **A4 join target** — this library's own variant of Algorithm 5
  (joining deficient records with the original record instead of its
  generalization), quantifying how much that choice matters.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.configs import ExperimentConfig, variant_name
from repro.experiments.runner import ExperimentRunner, RunKey
from repro.report import format_table

#: A1 sweeps the paper's four distances plus Nergiz–Clifton; A3 the four.
_A1_DISTANCES = ("d1", "d2", "d3", "d4", "nc")
_A3_DISTANCES = ("d1", "d2", "d3", "d4")


def _sweep_costs(
    runner: ExperimentRunner, keys: list[RunKey], field: str
) -> dict[str, dict[int, float]]:
    """Costs of k sweeps by k, keyed by the run-key field they vary."""
    costs: dict[str, dict[int, float]] = {}
    for key in keys:
        sweep = costs.setdefault(getattr(key, field), {})
        sweep[key.k] = runner.run_key(key).cost
    return costs


@dataclass(frozen=True)
class DistanceAblation:
    """A1: every distance function (plus NC), basic algorithm, per k."""

    dataset: str
    measure: str
    ks: tuple[int, ...]
    costs: dict[str, dict[int, float]]  #: distance name -> {k: cost}

    def ranking(self) -> list[str]:
        """Distances ranked by total loss over the k sweep (best first)."""
        return sorted(self.costs, key=lambda d: sum(self.costs[d].values()))

    def format(self) -> str:
        """Aligned table of the sweep."""
        rows = [
            [name] + [self.costs[name][k] for k in self.ks]
            for name in self.ranking()
        ]
        return format_table(["distance"] + [f"k={k}" for k in self.ks], rows)


def distance_cells(
    config: ExperimentConfig, dataset: str, measure: str
) -> list[RunKey]:
    """A1's cells: the basic algorithm under every distance, per k."""
    return [
        RunKey("agg", dataset, measure, k, distance=name)
        for name in _A1_DISTANCES
        for k in config.ks
    ]


def distance_ablation(
    runner: ExperimentRunner, dataset: str, measure: str
) -> DistanceAblation:
    """Run A1 for one (dataset, measure)."""
    cells = distance_cells(runner.config, dataset, measure)
    return DistanceAblation(
        dataset=dataset,
        measure=measure,
        ks=runner.config.ks,
        costs=_sweep_costs(runner, cells, "distance"),
    )


@dataclass(frozen=True)
class CouplingAblation:
    """A2: Alg 3+5 vs Alg 4+5 per k."""

    dataset: str
    measure: str
    ks: tuple[int, ...]
    expansion: dict[int, float]  #: Alg 4 + 5
    nearest: dict[int, float]  #: Alg 3 + 5

    def expansion_wins(self) -> int:
        """At how many k values Algorithm 4's coupling is at least as good."""
        return sum(
            1 for k in self.ks if self.expansion[k] <= self.nearest[k] + 1e-12
        )

    def format(self) -> str:
        """Aligned table of the comparison."""
        rows = [
            ["alg4+alg5 (expansion)"] + [self.expansion[k] for k in self.ks],
            ["alg3+alg5 (nearest)"] + [self.nearest[k] for k in self.ks],
        ]
        return format_table(["coupling"] + [f"k={k}" for k in self.ks], rows)


def coupling_cells(
    config: ExperimentConfig, dataset: str, measure: str
) -> list[RunKey]:
    """A2's cells: the Alg 4+5 sweep, then the Alg 3+5 sweep."""
    return [
        RunKey(
            "kk", dataset, measure, k,
            expander=expander, join_with="generalized",
        )
        for expander in ("expansion", "nearest")
        for k in config.ks
    ]


def coupling_ablation(
    runner: ExperimentRunner, dataset: str, measure: str
) -> CouplingAblation:
    """Run A2 for one (dataset, measure)."""
    cells = coupling_cells(runner.config, dataset, measure)
    costs = _sweep_costs(runner, cells, "expander")
    return CouplingAblation(
        dataset=dataset,
        measure=measure,
        ks=runner.config.ks,
        expansion=costs["expansion"],
        nearest=costs["nearest"],
    )


@dataclass(frozen=True)
class ModifiedAblation:
    """A3: basic vs modified agglomerative, per distance, summed over k."""

    dataset: str
    measure: str
    ks: tuple[int, ...]
    totals: dict[str, float]  #: variant name -> total loss over the k sweep

    def relative_gain(self, distance: str) -> float:
        """1 − modified/basic total for one distance (positive = helps)."""
        basic = self.totals[variant_name(distance, False)]
        mod = self.totals[variant_name(distance, True)]
        return 1.0 - mod / basic if basic else 0.0

    def format(self) -> str:
        """Per-distance gain table."""
        rows = [
            [
                d,
                self.totals[variant_name(d, False)],
                self.totals[variant_name(d, True)],
                f"{self.relative_gain(d):+.1%}",
            ]
            for d in _A3_DISTANCES
        ]
        return format_table(
            ["distance", "basic (Σ over k)", "modified (Σ over k)", "gain"], rows, 3
        )


def modified_cells(
    config: ExperimentConfig, dataset: str, measure: str
) -> list[RunKey]:
    """A3's cells: basic then modified, per distance, over the k sweep."""
    return [
        RunKey(
            "agg", dataset, measure, k, distance=distance, modified=modified
        )
        for distance in _A3_DISTANCES
        for modified in (False, True)
        for k in config.ks
    ]


def modified_ablation(
    runner: ExperimentRunner, dataset: str, measure: str
) -> ModifiedAblation:
    """Run A3 for one (dataset, measure)."""
    totals: dict[str, float] = {}
    for key in modified_cells(runner.config, dataset, measure):
        name = variant_name(key.distance, key.modified)
        totals[name] = totals.get(name, 0) + runner.run_key(key).cost
    return ModifiedAblation(
        dataset=dataset, measure=measure, ks=runner.config.ks, totals=totals
    )


@dataclass(frozen=True)
class JoinTargetAblation:
    """A4: Algorithm 5 joining with R̄_i (paper) vs R_i (tight variant)."""

    dataset: str
    measure: str
    ks: tuple[int, ...]
    generalized: dict[int, float]  #: paper behaviour
    original: dict[int, float]  #: tight variant

    def format(self) -> str:
        """Aligned table of the comparison."""
        rows = [
            ["join with R̄_i (paper)"] + [self.generalized[k] for k in self.ks],
            ["join with R_i (tight)"] + [self.original[k] for k in self.ks],
        ]
        return format_table(["Alg 5 variant"] + [f"k={k}" for k in self.ks], rows)


def join_target_cells(
    config: ExperimentConfig, dataset: str, measure: str
) -> list[RunKey]:
    """A4's cells: Alg 4+5 joining R̄_i, then joining R_i, over k."""
    return [
        RunKey(
            "kk", dataset, measure, k,
            expander="expansion", join_with=join_with,
        )
        for join_with in ("generalized", "original")
        for k in config.ks
    ]


def join_target_ablation(
    runner: ExperimentRunner, dataset: str, measure: str
) -> JoinTargetAblation:
    """Run A4 for one (dataset, measure)."""
    cells = join_target_cells(runner.config, dataset, measure)
    costs = _sweep_costs(runner, cells, "join_with")
    return JoinTargetAblation(
        dataset=dataset,
        measure=measure,
        ks=runner.config.ks,
        generalized=costs["generalized"],
        original=costs["original"],
    )


def ablation_cells(config: ExperimentConfig) -> list[RunKey]:
    """A1–A4's distinct cells for every (dataset, measure), in reading
    order (A3 rereads A1's basic runs, A4 rereads A2's expansion sweep)."""
    return list(
        dict.fromkeys(
            key
            for dataset in config.datasets
            for measure in config.measures
            for cells in (
                distance_cells, coupling_cells, modified_cells,
                join_target_cells,
            )
            for key in cells(config, dataset, measure)
        )
    )
