"""Figures 2 and 3: information loss vs k on the Adult dataset.

Both figures plot three series — k-anon (best agglomerative), forest,
(k,k)-anon — against k ∈ {5, 10, 15, 20}; Figure 2 under the entropy
measure, Figure 3 under LM.  The series are exactly one Table I block,
rendered as an ASCII chart plus the raw numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.asciiplot import line_chart
from repro.experiments.configs import ExperimentConfig
from repro.experiments.paper_values import PAPER_TABLE1
from repro.experiments.runner import ExperimentRunner, RunKey
from repro.experiments.table1 import Table1Block, block_cells, compute_block
from repro.report import format_table


@dataclass(frozen=True)
class FigureResult:
    """One reproduced figure: three series over k."""

    figure: str  #: "Figure 2" or "Figure 3"
    dataset: str
    measure: str
    block: Table1Block

    def series(self) -> dict[str, list[tuple[float, float]]]:
        """The three (k, loss) series, paper legend order."""
        ks = self.block.ks
        return {
            "k-anon.": [(k, self.block.best_k_anon[k]) for k in ks],
            "forest alg.": [(k, self.block.forest[k]) for k in ks],
            "(k,k)-anon.": [(k, self.block.kk[k]) for k in ks],
        }

    def chart(self) -> str:
        """The ASCII rendition of the figure."""
        unit = "bits/entry" if self.measure == "entropy" else "LM units"
        return line_chart(
            self.series(),
            title=f"{self.figure}: {self.dataset.upper()} / "
            f"{self.measure} measure",
            y_label=unit,
        )

    def numbers(self) -> str:
        """Raw series values side by side with the paper's."""
        ks = self.block.ks
        rows: list[list[object]] = []
        for name, row_key in (
            ("k-anon", "best-k-anon"),
            ("forest", "forest"),
            ("(k,k)", "kk"),
        ):
            series = {
                "k-anon": self.block.best_k_anon,
                "forest": self.block.forest,
                "(k,k)": self.block.kk,
            }[name]
            rows.append([name] + [series[k] for k in ks])
            paper = PAPER_TABLE1.get((self.dataset, self.measure, row_key))
            if paper and all(k in paper for k in ks):
                rows.append([f"{name} (paper)"] + [paper[k] for k in ks])
        return format_table(["series"] + [f"k={k}" for k in ks], rows)

    def monotone_violations(self) -> list[str]:
        """Loss should be non-decreasing in k for every series."""
        problems = []
        for name, pts in self.series().items():
            ys = [y for _, y in sorted(pts)]
            for a, b in zip(ys, ys[1:]):
                if b < a - 1e-9:
                    problems.append(
                        f"{self.figure} series {name!r} decreases "
                        f"({a:.3f} -> {b:.3f})"
                    )
        return problems


#: Figure name -> (caption, measure); both figures plot one Adult block.
_FIGURES = {"fig2": ("Figure 2", "entropy"), "fig3": ("Figure 3", "lm")}


def _figure(figure: str) -> tuple[str, str]:
    if figure not in _FIGURES:
        raise ValueError(
            f"unknown figure {figure!r}; expected 'fig2' or 'fig3'"
        )
    return _FIGURES[figure]


def figure_cells(
    config: ExperimentConfig, figure: str, dataset: str = "adult"
) -> list[RunKey]:
    """The cells :func:`compute_figure` reads: one Table I block."""
    return block_cells(config, dataset, _figure(figure)[1])


def compute_figure(
    runner: ExperimentRunner | None = None,
    figure: str = "fig2",
    dataset: str = "adult",
) -> FigureResult:
    """Compute Figure 2 (``fig2``, entropy) or Figure 3 (``fig3``, LM)."""
    runner = runner or ExperimentRunner()
    label, measure = _figure(figure)
    block = compute_block(runner, dataset, measure)
    return FigureResult(figure=label, dataset=dataset, measure=measure, block=block)
