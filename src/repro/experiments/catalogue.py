"""The experiment catalogue: every experiment's cells and its rendering.

Each entry of :data:`EXPERIMENTS` is declared once: the memoized
:class:`~repro.experiments.runner.RunKey` cells it reads (in reading
order) and the one function rendering it.  Everything else reads this
table: ``repro-anon experiment``'s choices, output and exit code, the
``--workers`` prefetch (a pool computes the cells, then the rendering
finds them memoized), and the ``all`` report, which is the
:data:`REPORT_SECTIONS` rendered in order by :func:`generate_full_report`.

Because every driver reads its outcomes through ``runner.run_key`` over
exactly the cells it declares, a serial run journals the declared cells
(duplicates dropped) by construction.  Experiments that do not go
through the runner memo (``fig1``, ``scaling``, ``epsilon``,
``variance``) declare no cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.relations import (
    check_figure1,
    enumerate_census,
    proposition_45_example,
)
from repro.errors import ExperimentError
from repro.experiments.ablations import (
    ablation_cells,
    coupling_ablation,
    distance_ablation,
    join_target_ablation,
    modified_ablation,
)
from repro.experiments.configs import ExperimentConfig
from repro.experiments.figures import compute_figure, figure_cells
from repro.experiments.global1k import (
    conversion_cells,
    format_conversion,
    global_conversion_experiment,
)
from repro.experiments.runner import ExperimentRunner, RunKey
from repro.experiments.scaling import scaling_sweep
from repro.experiments.table1 import compute_table1, table1_cells
from repro.experiments.variance import variance_study
from repro.extensions.epsilon_kk import epsilon_sweep
from repro.tabular.encoding import EncodedTable

#: G1 and F1 study the entropy measure only.
_ENTROPY = "entropy"


@dataclass(frozen=True)
class Rendering:
    """What an experiment prints, and whether the checks it prints held."""

    text: str
    ok: bool = True


@dataclass(frozen=True)
class Experiment:
    """One catalogue entry."""

    #: The memoized cells the rendering reads, each once, in the order
    #: it first reads them.
    cells: Callable[[ExperimentConfig], list[RunKey]]
    render: Callable[[ExperimentRunner], Rendering]


def _no_cells(config: ExperimentConfig) -> list[RunKey]:
    return []


def _table1(runner: ExperimentRunner) -> Rendering:
    result = compute_table1(runner)
    violations = result.shape_violations()
    check = "\n".join(violations) or "OK"
    return Rendering(
        f"{result.format()}\n\n{result.improvement_summary()}\n"
        f"shape check: {check}",
        ok=not violations,
    )


def _fig1(runner: ExperimentRunner) -> Rendering:
    table, _ = proposition_45_example()
    census = enumerate_census(EncodedTable(table), k=2)
    lines = [
        f"enumerated {census.total} generalizations of the "
        "Proposition 4.5 table (k=2)"
    ]
    for key, count in sorted(census.counts.items(), key=lambda kv: -kv[1]):
        label = "+".join(sorted(key)) if key else "(none)"
        lines.append(f"  {label:30s} {count}")
    problems = check_figure1(census)
    lines.append(f"Figure 1 inclusions: {problems or 'OK'}")
    return Rendering("\n".join(lines), ok=not problems)


def _figure(figure: str) -> Experiment:
    def render(runner: ExperimentRunner) -> Rendering:
        fig = compute_figure(runner, figure)
        return Rendering(f"{fig.chart()}\n\n{fig.numbers()}")

    return Experiment(lambda config: figure_cells(config, figure), render)


def _ablations(runner: ExperimentRunner) -> Rendering:
    lines: list[str] = []
    for dataset in runner.config.datasets:
        for measure in runner.config.measures:
            a1 = distance_ablation(runner, dataset, measure)
            lines += [
                f"\n--- {dataset} / {measure} ---",
                f"A1 distance ranking: {a1.ranking()}",
                a1.format(),
                coupling_ablation(runner, dataset, measure).format(),
                modified_ablation(runner, dataset, measure).format(),
                join_target_ablation(runner, dataset, measure).format(),
            ]
    return Rendering("\n".join(lines))


def _global1k_cells(config: ExperimentConfig) -> list[RunKey]:
    return [
        key
        for dataset in config.datasets
        for key in conversion_cells(config, dataset, _ENTROPY)
    ]


def _global1k(runner: ExperimentRunner) -> Rendering:
    points = [
        point
        for dataset in runner.config.datasets
        for point in global_conversion_experiment(runner, dataset, _ENTROPY)
    ]
    return Rendering(format_conversion(points))


def _scaling(runner: ExperimentRunner) -> Rendering:
    return Rendering(scaling_sweep().format())


def _epsilon(runner: ExperimentRunner) -> Rendering:
    lines: list[str] = []
    for dataset in runner.config.datasets:
        sweep = epsilon_sweep(runner.model(dataset, _ENTROPY), k=5)
        eps = sweep.smallest_sufficient_epsilon()
        lines.append(f"\n{dataset}: smallest sufficient ε = {eps}")
        lines += [
            f"  ε={p.epsilon:<4} k'={p.k_prime:<3} Π={p.cost:.4f} "
            f"min matches={p.min_matches} deficient={p.deficient_records}"
            for p in sweep.points
        ]
    return Rendering("\n".join(lines))


def _variance(runner: ExperimentRunner) -> Rendering:
    return Rendering(
        "\n".join(
            "\n" + variance_study(dataset, k=10, n=300).format()
            for dataset in runner.config.datasets
        )
    )


def _report_cells(config: ExperimentConfig) -> list[RunKey]:
    return list(
        dict.fromkeys(
            key
            for name, _ in REPORT_SECTIONS
            for key in EXPERIMENTS[name].cells(config)
        )
    )


def _report(runner: ExperimentRunner) -> Rendering:
    # The report prints each section's check in its text; as a document
    # it passes whatever they say.
    return Rendering(generate_full_report(runner))


#: Every experiment ``repro-anon experiment`` accepts, by name.
EXPERIMENTS: dict[str, Experiment] = {
    "table1": Experiment(table1_cells, _table1),
    "fig1": Experiment(_no_cells, _fig1),
    "fig2": _figure("fig2"),
    "fig3": _figure("fig3"),
    "ablations": Experiment(ablation_cells, _ablations),
    "global1k": Experiment(_global1k_cells, _global1k),
    "scaling": Experiment(_no_cells, _scaling),
    "epsilon": Experiment(_no_cells, _epsilon),
    "variance": Experiment(_no_cells, _variance),
    "all": Experiment(_report_cells, _report),
}

#: The ``all`` report's sections, in order: (experiment, heading).
REPORT_SECTIONS: tuple[tuple[str, str], ...] = (
    ("table1", "TABLE I"),
    ("fig1", "FIGURE 1 — class relations"),
    ("fig2", "FIGURE 2 — Adult / entropy"),
    ("fig3", "FIGURE 3 — Adult / lm"),
    ("ablations", "ABLATIONS"),
    ("global1k", "G1 — (k,k) → GLOBAL (1,k)"),
    ("epsilon", "F1 — ((1+ε)k,(1+ε)k) SWEEP"),
    ("variance", "V1 — SEED STABILITY"),
)


def get_experiment(name: str) -> Experiment:
    """The catalogue entry of one experiment name (a key of
    :data:`EXPERIMENTS`); unknown names raise :class:`ExperimentError`."""
    if name not in EXPERIMENTS:
        raise ExperimentError(
            f"unknown experiment {name!r}; expected one of "
            f"{', '.join(EXPERIMENTS)}"
        )
    return EXPERIMENTS[name]


def _rule(title: str) -> str:
    bar = "=" * max(60, len(title) + 4)
    return f"\n{bar}\n  {title}\n{bar}\n"


def generate_full_report(
    runner: ExperimentRunner | None = None,
    include_variance: bool = True,
    include_epsilon: bool = True,
) -> str:
    """Render every report section into one document, ready to diff.

    The sections follow EXPERIMENTS.md: Table I, Figures 1–3, the
    ablations, the Algorithm 6 study, the ε sweep and the seed-stability
    check, each exactly as ``repro-anon experiment <name>`` prints it.
    """
    runner = runner or ExperimentRunner()
    skipped = {
        name
        for name, keep in (
            ("variance", include_variance), ("epsilon", include_epsilon)
        )
        if not keep
    }
    parts = [_rule("CONFIGURATION"), runner.config.describe() + "\n"]
    for name, title in REPORT_SECTIONS:
        if name not in skipped:
            text = EXPERIMENTS[name].render(runner).text
            parts += [_rule(title), text + "\n"]
    parts.append(_rule("END OF REPORT"))
    return "".join(parts)
