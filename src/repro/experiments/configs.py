"""Experiment configuration: sizes, seeds, variant sets, env overrides.

Default table sizes are deliberately below the paper's (ART 1000,
ADT 5000, CMC 1500) so the benchmark suite finishes in minutes on a
laptop; the paper itself observes that per-entry information loss is
nearly size-independent, so the Table I *shape* is preserved.  Two
environment variables rescale everything:

* ``REPRO_FULL=1``       — use the paper's sizes.
* ``REPRO_BENCH_N=<n>``  — force every dataset to n records.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.experiments.paper_values import PAPER_KS

#: Benchmark-default sizes (fast); the paper's sizes under REPRO_FULL=1.
DEFAULT_SIZES = {"art": 400, "adult": 400, "cmc": 400}
PAPER_SIZES = {"art": 1000, "adult": 5000, "cmc": 1500}

#: The eight agglomerative variants behind Table I's "best k-anon" row:
#: four distance functions × {basic, modified}.
AGGLOMERATIVE_VARIANTS: tuple[tuple[str, bool], ...] = tuple(
    (dist, modified) for dist in ("d1", "d2", "d3", "d4") for modified in (False, True)
)


def variant_name(distance: str, modified: bool) -> str:
    """Display name of one agglomerative variant."""
    return f"{distance}{'-mod' if modified else ''}"


def resolve_sizes() -> dict[str, int]:
    """Dataset sizes after applying the environment overrides."""
    if os.environ.get("REPRO_BENCH_N"):
        n = int(os.environ["REPRO_BENCH_N"])
        return {name: n for name in DEFAULT_SIZES}
    if os.environ.get("REPRO_FULL") == "1":
        return dict(PAPER_SIZES)
    return dict(DEFAULT_SIZES)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything an experiment run depends on."""

    sizes: dict[str, int] = field(default_factory=resolve_sizes)
    seed: int = 0
    ks: tuple[int, ...] = PAPER_KS
    datasets: tuple[str, ...] = ("art", "adult", "cmc")
    measures: tuple[str, ...] = ("entropy", "lm")

    def describe(self) -> str:
        """One-line run description for report headers."""
        sizes = ", ".join(f"{d}={self.sizes[d]}" for d in self.datasets)
        return (
            f"sizes [{sizes}], seed {self.seed}, "
            f"k ∈ {list(self.ks)}, measures {list(self.measures)}"
        )
