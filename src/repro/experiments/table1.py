"""Reproduction of Table I — the paper's headline result.

For every (dataset, measure) block the table reports, over
k ∈ {5, 10, 15, 20}:

* **best k-anon** — the agglomerative variant (4 distances × basic /
  modified = 8 candidates) minimizing the *sum* of information loss over
  the four k values, exactly as the paper defines the row;
* **forest** — the Aggarwal et al. baseline;
* **(k,k)-anon** — the better of the two couplings (Alg 3+5, Alg 4+5).

:func:`compute_table1` produces the numbers;
:meth:`Table1Result.format` prints the paper-style table;
:meth:`Table1Result.shape_violations` asserts the paper's qualitative
claims (orderings and improvement ranges) hold for this reproduction.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.configs import (
    AGGLOMERATIVE_VARIANTS,
    ExperimentConfig,
    variant_name,
)
from repro.experiments.paper_values import (
    FOREST_IMPROVEMENT,
    KK_IMPROVEMENT,
    PAPER_TABLE1,
)
from repro.experiments.runner import ExperimentRunner, RunKey
from repro.report import format_table


@dataclass(frozen=True)
class Table1Block:
    """One (dataset, measure) block of Table I."""

    dataset: str
    measure: str
    ks: tuple[int, ...]
    best_k_anon: dict[int, float]  #: winning agglomerative variant's costs
    best_variant: str  #: which variant won (e.g. "d3" or "d4-mod")
    all_variants: dict[str, dict[int, float]]  #: every variant's costs
    forest: dict[int, float]
    kk: dict[int, float]  #: better coupling's costs
    kk_winner: dict[int, str]  #: which expander won at each k

    def improvement_vs_forest(self, k: int) -> float:
        """1 − best/forest at one k (paper claims 20%–50%)."""
        return 1.0 - self.best_k_anon[k] / self.forest[k]

    def improvement_kk(self, k: int) -> float:
        """1 − kk/best at one k (paper claims 10%–30%)."""
        return 1.0 - self.kk[k] / self.best_k_anon[k]


@dataclass(frozen=True)
class Table1Result:
    """All six blocks plus formatting/validation helpers."""

    config: ExperimentConfig
    blocks: dict[tuple[str, str], Table1Block]

    def block(self, dataset: str, measure: str) -> Table1Block:
        """One block by coordinates."""
        return self.blocks[(dataset, measure)]

    def format(self, with_paper: bool = True) -> str:
        """The paper-style summary table (optionally with paper values)."""
        ks = self.config.ks
        headers = ["block / row"] + [f"k={k}" for k in ks]
        rows: list[list[object]] = []
        for (dataset, measure), block in self.blocks.items():
            label = f"{dataset.upper()}/{measure.upper()}"
            triples = [
                (f"best k-anon [{block.best_variant}]", block.best_k_anon,
                 "best-k-anon"),
                ("forest", block.forest, "forest"),
                ("(k,k)-anon", block.kk, "kk"),
            ]
            for name, series, paper_row in triples:
                rows.append([f"{label} {name}"] + [series[k] for k in ks])
                if with_paper and (dataset, measure, paper_row) in PAPER_TABLE1:
                    paper = PAPER_TABLE1[(dataset, measure, paper_row)]
                    rows.append(
                        [f"{label}   (paper)"]
                        + [paper.get(k, float("nan")) for k in ks]
                    )
        title = f"Table I reproduction — {self.config.describe()}"
        return title + "\n" + format_table(headers, rows)

    def shape_violations(self, tolerance: float = 0.02) -> list[str]:
        """Check the paper's qualitative claims; return violations.

        Orderings checked at every grid point: (k,k) ≤ best k-anon ≤
        forest.  Both are empirical findings about heuristics, not
        theorems, and at small n with large k (k/n far above the paper's
        ≤2%) they can tie — so a point only counts as a violation when
        the "better" side is worse by more than ``tolerance`` relative.
        """
        problems = []
        for (dataset, measure), block in self.blocks.items():
            where = f"{dataset}/{measure}"
            for k in self.config.ks:
                if block.best_k_anon[k] > block.forest[k] * (1 + tolerance):
                    problems.append(
                        f"{where} k={k}: best k-anon {block.best_k_anon[k]:.3f} "
                        f"worse than forest {block.forest[k]:.3f}"
                    )
                if block.kk[k] > block.best_k_anon[k] * (1 + tolerance):
                    problems.append(
                        f"{where} k={k}: (k,k) {block.kk[k]:.3f} worse than "
                        f"best k-anon {block.best_k_anon[k]:.3f}"
                    )
        return problems

    def improvement_summary(self) -> str:
        """Measured vs paper improvement ranges."""
        forest_imps, kk_imps = [], []
        for block in self.blocks.values():
            for k in self.config.ks:
                forest_imps.append(block.improvement_vs_forest(k))
                kk_imps.append(block.improvement_kk(k))
        lines = [
            "improvement of agglomerative over forest: "
            f"{min(forest_imps):.0%}..{max(forest_imps):.0%} "
            f"(paper: {FOREST_IMPROVEMENT[0]:.0%}..{FOREST_IMPROVEMENT[1]:.0%})",
            "improvement of (k,k) over best k-anon:    "
            f"{min(kk_imps):.0%}..{max(kk_imps):.0%} "
            f"(paper: {KK_IMPROVEMENT[0]:.0%}..{KK_IMPROVEMENT[1]:.0%})",
        ]
        return "\n".join(lines)


def block_cells(
    config: ExperimentConfig, dataset: str, measure: str
) -> list[RunKey]:
    """The cells of one block, in the order :func:`compute_block` reads them.

    The eight agglomerative variants (each over the k sweep), the forest
    sweep, then both (k,k) couplings at each k.
    """
    ks = config.ks
    return (
        [
            RunKey(
                "agg", dataset, measure, k,
                distance=distance, modified=modified,
            )
            for distance, modified in AGGLOMERATIVE_VARIANTS
            for k in ks
        ]
        + [RunKey("forest", dataset, measure, k) for k in ks]
        + [
            RunKey(
                "kk", dataset, measure, k,
                expander=expander, join_with="generalized",
            )
            for k in ks
            for expander in ("expansion", "nearest")
        ]
    )


def table1_cells(config: ExperimentConfig) -> list[RunKey]:
    """The cells of the whole grid, block by block."""
    return [
        key
        for dataset in config.datasets
        for measure in config.measures
        for key in block_cells(config, dataset, measure)
    ]


def compute_block(
    runner: ExperimentRunner, dataset: str, measure: str
) -> Table1Block:
    """Compute one (dataset, measure) block from its declared cells."""
    all_variants: dict[str, dict[int, float]] = {}
    forest: dict[int, float] = {}
    couplings: dict[int, dict[str, float]] = {}
    for key in block_cells(runner.config, dataset, measure):
        cost = runner.run_key(key).cost
        if key.kind == "agg":
            name = variant_name(key.distance, key.modified)
            all_variants.setdefault(name, {})[key.k] = cost
        elif key.kind == "forest":
            forest[key.k] = cost
        else:
            couplings.setdefault(key.k, {})[key.expander] = cost
    best_variant = min(
        all_variants, key=lambda name: sum(all_variants[name].values())
    )
    kk: dict[int, float] = {}
    kk_winner: dict[int, str] = {}
    for k, costs in couplings.items():
        if costs["expansion"] <= costs["nearest"]:
            kk[k], kk_winner[k] = costs["expansion"], "expansion"
        else:
            kk[k], kk_winner[k] = costs["nearest"], "nearest"
    return Table1Block(
        dataset=dataset,
        measure=measure,
        ks=runner.config.ks,
        best_k_anon=all_variants[best_variant],
        best_variant=best_variant,
        all_variants=all_variants,
        forest=forest,
        kk=kk,
        kk_winner=kk_winner,
    )


def compute_table1(runner: ExperimentRunner | None = None) -> Table1Result:
    """Compute the full Table I grid (all datasets × measures)."""
    runner = runner or ExperimentRunner()
    blocks = {}
    for dataset in runner.config.datasets:
        for measure in runner.config.measures:
            blocks[(dataset, measure)] = compute_block(runner, dataset, measure)
    return Table1Result(config=runner.config, blocks=blocks)
