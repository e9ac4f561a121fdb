"""``paper-k`` and ``paper-g1k``: whole ``anonymize()`` calls at paper sizes.

Every cell uses k=5 on the paper's ART 1000, CMC 1500 and ADT 5000,
generated from the workload seed.  ``anonymize()`` gets no ``backend``
argument, so whatever engine the program picks by default is measured.

Cells run round-robin until each has ``MIN_CALLS[dataset]`` calls; after
that a cell is skipped once its median so far would carry the run past
``--seconds``, and the run ends with the first round that runs nothing.
So the small tables get at least three samples (ART, the shortest and
noisiest calls, five) and more while the budget lasts, while an ADT
cell that takes most of the budget runs once; as the program gets
faster, ADT gets repeats too.  A speed probe is read after every call,
and each call's time is reported at the reference speed
(:class:`common.SpeedProbe`).  Every per-cell number is the median of
that cell's calls.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Any, Callable, ContextManager, Iterator

from common import (
    REFERENCE_PROBE_S,
    Outcome,
    SpeedProbe,
    median,
    peak_rss_mb,
    quantile,
    timed_setup,
)
from layers import (
    CONVERSION_STATS,
    PER_LAYER,
    LayerTracer,
    Tally,
    format_layers,
    layer_metrics,
)

K = 5
SIZES = {"art": 1000, "cmc": 1500, "adult": 5000}
MIN_CALLS = {"art": 5, "cmc": 3, "adult": 1}


@dataclass(frozen=True)
class Cell:
    """One ``anonymize()`` configuration."""

    dataset: str
    notion: str
    measure: str
    modified: bool = False

    @property
    def n(self) -> int:
        return SIZES[self.dataset]

    @property
    def name(self) -> str:
        short = "adt" if self.dataset == "adult" else self.dataset
        suffix = ".modified" if self.modified else ""
        return f"{short}{self.n}.{self.notion}.{self.measure}{suffix}"

    def run(self, tables: dict[str, Any]) -> Any:
        from repro.core.api import anonymize

        return anonymize(
            tables[self.dataset],
            k=K,
            notion=self.notion,
            measure=self.measure,
            distance="d3",
            modified=self.modified,
            expander="expansion",
        )


CELLS: dict[str, tuple[Cell, ...]] = {
    # Agglomerative with d3: LM on the plain merge loop, entropy with
    # Algorithm 2's shrink step.
    "paper-k": tuple(
        cell
        for dataset in SIZES
        for cell in (
            Cell(dataset, "k", "lm"),
            Cell(dataset, "k", "entropy", modified=True),
        )
    ),
    # Global (1,k) with the Algorithm 4 expander; ADT under LM only.
    "paper-g1k": (
        Cell("art", "global-1k", "lm"),
        Cell("art", "global-1k", "entropy"),
        Cell("cmc", "global-1k", "lm"),
        Cell("cmc", "global-1k", "entropy"),
        Cell("adult", "global-1k", "lm"),
    ),
}


class _Checker:
    """Correctness gate, run outside the timed region.

    The first result of a cell must pass ``result.verify()``; every
    repeat must reproduce that result's cost and node matrix bit for bit,
    so it passes the same deterministic verifier without paying for it
    again (Algorithm 6's verifier costs seconds at ADT 5000).
    """

    def __init__(self) -> None:
        self.reference: dict[str, tuple[float, bytes]] = {}
        self.problems: list[str] = []
        self.backends: set[str] = set()

    def check(self, cell: Cell, result: Any) -> bool:
        self.backends.add(result.backend)
        found = (result.cost, result.node_matrix.tobytes())
        expected = self.reference.get(cell.name)
        if expected is None:
            if not result.verify():
                self.problems.append(f"{cell.name}: result fails verify()")
                return False
            self.reference[cell.name] = found
        elif found != expected:
            self.problems.append(
                f"{cell.name}: repeat differs from the first result "
                f"(cost {found[0]!r} vs {expected[0]!r})"
            )
            return False
        return True


def run(
    workload: str, seed: int, seconds: float, trace: bool, import_s: float, probe: SpeedProbe
) -> Outcome:
    from repro.datasets.registry import load
    from repro.obs import MetricsRegistry, metrics_scope

    cells = CELLS[workload]

    def setup() -> dict[str, Any]:
        tables = {name: load(name, n=SIZES[name], seed=seed) for name in SIZES}
        cells[0].run(tables)  # untimed warm-up
        return tables

    tables, setup_s = timed_setup(setup, probe)
    checker = _Checker()
    samples: dict[str, list[float]] = {cell.name: [] for cell in cells}  # reference speed
    wall: dict[str, list[float]] = {cell.name: [] for cell in cells}
    attempted = failed = 0

    def call(
        cell: Cell, around: Callable[[], ContextManager[Any]] = nullcontext
    ) -> tuple[float, Any]:
        """Time one call inside ``around()``; read the probe and check
        the result after it, untimed.  Returns the wall time."""
        nonlocal attempted, failed
        attempted += 1
        try:
            with around():
                start = time.perf_counter()
                result = cell.run(tables)
                elapsed = time.perf_counter() - start
            probe.read()
        except Exception as exc:  # any raise is a failed operation
            failed += 1
            checker.problems.append(f"{cell.name}: {type(exc).__name__}: {exc}")
            return 0.0, None
        if not checker.check(cell, result):
            failed += 1
            return elapsed, None
        samples[cell.name].append(probe.scaled(start, elapsed))
        wall[cell.name].append(elapsed)
        return elapsed, result

    lines: list[str] = []
    if not trace:
        deadline = time.perf_counter() + seconds
        calls = dict.fromkeys(samples, 0)
        rounds = 0
        ran = True
        while ran:
            ran = False
            for cell in cells:
                spent = wall[cell.name]
                if calls[cell.name] >= MIN_CALLS[cell.dataset] and (
                    len(spent) < calls[cell.name]  # it failed: do not retry
                    or time.perf_counter() + median(spent) > deadline
                ):
                    continue
                calls[cell.name] += 1
                call(cell)
                ran = True
            rounds += 1
        metrics = _end_to_end(cells, samples, checker)
        metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
        metrics["setup_s"] = (import_s + setup_s, "s")
        lines.append(
            f"rounds: {rounds - 1}; speed probe median {probe.typical() * 1e3:.2f} ms "
            f"(reference {REFERENCE_PROBE_S * 1e3:.2f} ms)"
        )
        for cell in cells:
            cost = checker.reference.get(cell.name, (float("nan"),))[0]
            lines.append(
                f"  {cell.name:28s} median {median(samples[cell.name]):8.3f}s "
                f"(wall {median(wall[cell.name]):8.3f}s) over "
                f"{len(samples[cell.name])} calls, cost {cost:.6f}"
            )
    else:
        # One untraced call per cell, then one traced call per cell.
        untraced = {cell.name: call(cell)[0] for cell in cells}
        tracer = LayerTracer()
        tracer.install()
        total = Tally()
        registry = MetricsRegistry()
        extra = dict.fromkeys(CONVERSION_STATS, 0.0)
        traced_wall = 0.0
        try:
            for cell in cells:
                cell_registry = MetricsRegistry()

                @contextmanager
                def traced() -> Iterator[None]:
                    with metrics_scope(registry), metrics_scope(cell_registry):
                        with tracer.armed():
                            yield

                elapsed, result = call(cell, traced)
                tally = tracer.take()
                total.merge(tally)
                traced_wall += elapsed
                stats = result.stats if result is not None else {}
                cell_extra = {
                    metric: float(stats.get(stat, 0))
                    for metric, stat in CONVERSION_STATS.items()
                }
                for metric, value in cell_extra.items():
                    extra[metric] += value
                checker.problems.extend(
                    f"{cell.name}: {p}" for p in tally.reconcile(elapsed)
                )
                values = layer_metrics(
                    tally,
                    cell_registry.snapshot()["counters"],
                    traced_wall_s=elapsed,
                    untraced_wall_s=untraced[cell.name],
                    extra=cell_extra,
                )
                lines.extend(format_layers(cell.name, tally, values))
        finally:
            tracer.uninstall()
        checker.problems.extend(total.route_problems(workload))
        values = layer_metrics(
            total,
            registry.snapshot()["counters"],
            traced_wall_s=traced_wall,
            untraced_wall_s=sum(untraced.values()),
            extra=extra,
        )
        lines.extend(format_layers(workload, total, values))
        metrics = {name: (values[name], unit) for name, unit in PER_LAYER}

    return Outcome(
        metrics=metrics,
        attempted=attempted,
        failed=failed,
        backend=",".join(sorted(checker.backends)) or "none",
        problems=checker.problems,
        tables=lines,
    )


def _end_to_end(
    cells: tuple[Cell, ...], samples: dict[str, list[float]], checker: _Checker
) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics of an untraced run (see README.md).

    Every timing derives from the per-cell medians, one value per cell,
    so the metrics do not shift when the budget buys a cell more calls.
    """
    medians = [median(samples[cell.name]) for cell in cells]
    total_s = max(sum(medians), 1e-12)

    def dataset_s(dataset: str) -> float:
        return sum(m for cell, m in zip(cells, medians) if cell.dataset == dataset)

    # Each cell's cost counts equally, whatever its measure's scale.
    costs = [cost for cost, _ in checker.reference.values()]
    # No cache sits in front of anonymize(), so every call computes: hit
    # and miss latencies are both the per-cell latencies.
    p50_ms = median(medians) * 1000.0
    return {
        "records_per_s": (sum(cell.n for cell in cells) / total_s, "records/s"),
        "art_s": (dataset_s("art"), "s"),
        "cmc_s": (dataset_s("cmc"), "s"),
        "adt_s": (dataset_s("adult"), "s"),
        "loss": (statistics.geometric_mean(costs) if costs else 0.0, "1"),
        "serve_rps": (len(cells) / total_s, "1/s"),
        "hit_p50_ms": (p50_ms, "ms"),
        "miss_p50_ms": (p50_ms, "ms"),
        "miss_p90_ms": (quantile(medians, 0.9) * 1000.0, "ms"),
    }
