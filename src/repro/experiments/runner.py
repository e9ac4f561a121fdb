"""Experiment runner with encoding/model caches and crash-safe resume.

Every experiment in Section VI runs many algorithms on the same few
(dataset, measure) pairs; the runner builds each
:class:`~repro.tabular.encoding.EncodedTable` and
:class:`~repro.measures.base.CostModel` once and memoizes individual
algorithm runs, so the Table I grid, the figures and the ablations can
all share work.

Each memoized cell is identified by a typed :class:`RunKey` and can be
journaled to a crash-safe JSONL file (:mod:`repro.runtime.journal`):
pass ``journal=`` (and ``resume=True`` to preload a previous run's
cells), and a killed grid continues where it stopped instead of
recomputing finished cells.  ``repro-anon experiment --journal/--resume``
is the CLI surface.
"""

from __future__ import annotations

import threading
from contextlib import ExitStack
from dataclasses import asdict, dataclass, field
from typing import Any, Callable

from repro.core.agglomerative import agglomerative_clustering
from repro.core.clustering import clustering_to_nodes
from repro.core.distances import get_distance
from repro.core.forest import forest_clustering
from repro.core.global_1k import global_one_k_anonymize
from repro.core.kk import kk_anonymize
from repro.datasets.registry import load
from repro.errors import ExperimentError
from repro.experiments.configs import ExperimentConfig
from repro.matching.bipartite import ConsistencyGraph
from repro.measures.base import CostModel
from repro.measures.registry import get_measure
from repro.obs import (
    MetricsRegistry,
    active_registries,
    metrics_scope,
    observe,
    span,
)
from repro.runtime import Journal, Timer, call_with_retry, checkpoint
from repro.tabular.encoding import EncodedTable


@dataclass(frozen=True)
class RunKey:
    """Typed identity of one memoized algorithm run (one grid cell).

    Replaces the old positional ``tuple`` keys: every field is named, so
    journal entries are self-describing and two call sites can no longer
    collide by accident of tuple arity.  Fields that do not apply to a
    ``kind`` stay at their empty defaults.
    """

    kind: str  #: "agg", "forest", "kk" or "global"
    dataset: str
    measure: str
    k: int
    distance: str = ""  #: agglomerative cluster distance (d1..d4, nc)
    modified: bool = False  #: Algorithm 2 shrinking (agglomerative only)
    expander: str = ""  #: (k,1) stage for kk/global kinds
    join_with: str = ""  #: Algorithm 5 join target (kk kind)

    def to_json(self) -> dict[str, Any]:
        """A JSON-ready dict; round-trips through :meth:`from_json`."""
        return asdict(self)

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "RunKey":
        """Rebuild a key from :meth:`to_json` output (journal replay)."""
        try:
            return cls(
                kind=str(data["kind"]),
                dataset=str(data["dataset"]),
                measure=str(data["measure"]),
                k=int(data["k"]),
                distance=str(data.get("distance", "")),
                modified=bool(data.get("modified", False)),
                expander=str(data.get("expander", "")),
                join_with=str(data.get("join_with", "")),
            )
        except KeyError as exc:
            raise ExperimentError(
                f"journal entry is missing run-key field {exc}"
            ) from exc


@dataclass(frozen=True)
class RunOutcome:
    """Cost and timing of one algorithm run.

    ``metrics`` holds the cell's :class:`~repro.obs.MetricsRegistry`
    delta snapshot when metrics collection was active while the cell
    ran, else ``None``.  The JSON form omits the key entirely when
    absent, so journals written with metrics off are byte-identical to
    pre-observability journals.
    """

    cost: float
    seconds: float
    extra: tuple[tuple[str, Any], ...] = ()
    metrics: dict[str, Any] | None = field(default=None, compare=False)

    def extra_dict(self) -> dict[str, Any]:
        """The extra diagnostics as a dict."""
        return dict(self.extra)

    def to_json(self) -> dict[str, Any]:
        """A JSON-ready dict; round-trips through :meth:`from_json`."""
        data: dict[str, Any] = {
            "cost": self.cost,
            "seconds": self.seconds,
            "extra": [[name, value] for name, value in self.extra],
        }
        if self.metrics is not None:
            data["metrics"] = self.metrics
        return data

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "RunOutcome":
        """Rebuild an outcome from :meth:`to_json` output."""
        try:
            return cls(
                cost=float(data["cost"]),
                seconds=float(data["seconds"]),
                extra=tuple(
                    (str(name), value) for name, value in data.get("extra", [])
                ),
                metrics=data.get("metrics"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ExperimentError(
                f"journal entry holds a malformed run outcome: {exc}"
            ) from exc


class ExperimentRunner:
    """Shared caches + algorithm entry points for the harness.

    Parameters
    ----------
    config:
        Grid configuration (datasets, sizes, measures, seed).
    journal:
        Optional crash-safe journal; every newly computed cell is
        appended (with retry) as soon as it finishes.
    resume:
        Preload the journal's existing cells into the memo table, so
        they are never recomputed.  ``resumed_cells`` counts them;
        ``computed_cells`` counts the cells actually run afresh.
    """

    def __init__(
        self,
        config: ExperimentConfig | None = None,
        journal: Journal | None = None,
        resume: bool = False,
    ) -> None:
        self.config = config or ExperimentConfig()
        self._tables: dict[str, EncodedTable] = {}
        self._models: dict[tuple[str, str], CostModel] = {}
        self._runs: dict[RunKey, RunOutcome] = {}
        # Guards _runs / the cell counters / the journal appends: the
        # parallel executor's completion callbacks land on arbitrary
        # threads, and interleaved memo-store + journal-append pairs
        # would tear the journal (see TestRunnerThreadSafety).
        self._lock = threading.Lock()
        self.journal = journal
        self.computed_cells = 0
        self.resumed_cells = 0
        if resume:
            if journal is None:
                raise ExperimentError("resume=True requires a journal")
            for key_json, value_json in journal.entries():
                key = RunKey.from_json(key_json)
                if key not in self._runs:
                    self.resumed_cells += 1
                self._runs[key] = RunOutcome.from_json(value_json)

    # ------------------------------------------------------------------ #
    # caches
    # ------------------------------------------------------------------ #

    def encoded(self, dataset: str) -> EncodedTable:
        """The (cached) encoded table of one dataset."""
        if dataset not in self._tables:
            table = load(
                dataset, n=self.config.sizes[dataset], seed=self.config.seed
            )
            self._tables[dataset] = EncodedTable(table)
        return self._tables[dataset]

    def model(self, dataset: str, measure: str) -> CostModel:
        """The (cached) cost model of one (dataset, measure) pair."""
        key = (dataset, measure)
        if key not in self._models:
            self._models[key] = CostModel(self.encoded(dataset), get_measure(measure))
        return self._models[key]

    # ------------------------------------------------------------------ #
    # algorithm runs (memoized)
    # ------------------------------------------------------------------ #

    def _memo(
        self, key: RunKey, fn: Callable[[], tuple[float, dict[str, Any]]]
    ) -> RunOutcome:
        with self._lock:
            cached = self._runs.get(key)
        if cached is not None:
            return cached
        # Compute outside the lock (cells take seconds; holding the lock
        # would serialize concurrent callers), then store first-wins.
        checkpoint("experiments.cell")
        # When metrics are being collected, stack a fresh registry for
        # the cell: increments land both here (the cell's delta) and in
        # the enclosing run-level registries underneath.
        cell_registry = MetricsRegistry() if active_registries() else None
        with ExitStack() as stack:
            stack.enter_context(span("experiments.cell", **key.to_json()))
            if cell_registry is not None:
                stack.enter_context(metrics_scope(cell_registry))
            with Timer() as timer:
                cost, extra = fn()
        outcome = RunOutcome(
            cost=cost,
            seconds=timer.seconds,
            extra=tuple(sorted(extra.items())),
            metrics=(
                cell_registry.snapshot() if cell_registry is not None else None
            ),
        )
        return self._store(key, outcome)

    def _store(self, key: RunKey, outcome: RunOutcome) -> RunOutcome:
        """Store a finished cell: first writer wins, memo/counter/journal
        updated atomically so the journal gets exactly one entry per key."""
        with self._lock:
            existing = self._runs.get(key)
            if existing is not None:
                return existing
            self._runs[key] = outcome
            self.computed_cells += 1
            # Timing histogram goes to the run-level registries only
            # (the cell's own scope has already been popped), keeping
            # cell deltas free of nondeterministic timings.
            observe("experiments.cell_seconds", outcome.seconds)
            if self.journal is not None:
                # Transient I/O failures must not discard a finished cell.
                call_with_retry(
                    lambda: self.journal.append(key.to_json(), outcome.to_json())  # type: ignore[union-attr]
                )
            return outcome

    def has(self, key: RunKey) -> bool:
        """Whether a cell is already memoized (resumed or computed)."""
        with self._lock:
            return key in self._runs

    def absorb(self, key: RunKey, outcome: RunOutcome) -> RunOutcome:
        """Merge a cell computed elsewhere (e.g. by a worker process).

        Counts toward ``computed_cells`` and is journaled exactly like a
        locally computed cell; if the key is already memoized the
        existing outcome wins and the merge is a no-op.  A cell-metrics
        snapshot collected in the worker is folded into this process's
        active registries (locally computed cells need no such fold —
        their increments landed live via the scope stack).
        """
        stored = self._store(key, outcome)
        if stored is outcome and outcome.metrics is not None:
            for registry in active_registries():
                registry.merge_snapshot(outcome.metrics)
        return stored

    def run_key(self, key: RunKey) -> RunOutcome:
        """Run (or recall) the cell identified by ``key``.

        The dispatch inverse of the typed entry points below: parallel
        workers receive bare :class:`RunKey` values and route them here.
        """
        if key.kind == "agg":
            return self.agglomerative(
                key.dataset,
                key.measure,
                key.k,
                key.distance,
                modified=key.modified,
            )
        if key.kind == "forest":
            return self.forest(key.dataset, key.measure, key.k)
        if key.kind == "kk":
            return self.kk(
                key.dataset,
                key.measure,
                key.k,
                expander=key.expander,
                join_with=key.join_with,
            )
        if key.kind == "global":
            return self.global_1k(
                key.dataset, key.measure, key.k, expander=key.expander
            )
        raise ExperimentError(f"unknown run kind {key.kind!r}")

    def agglomerative(
        self,
        dataset: str,
        measure: str,
        k: int,
        distance: str,
        modified: bool = False,
    ) -> RunOutcome:
        """One agglomerative k-anonymization run (Algorithm 1/2)."""

        def go():
            model = self.model(dataset, measure)
            clustering = agglomerative_clustering(
                model, k, get_distance(distance), modified=modified
            )
            nodes = clustering_to_nodes(model.enc, clustering)
            return model.table_cost(nodes), {
                "num_clusters": clustering.num_clusters
            }

        key = RunKey(
            "agg", dataset, measure, k, distance=distance, modified=modified
        )
        return self._memo(key, go)

    def forest(self, dataset: str, measure: str, k: int) -> RunOutcome:
        """One forest-baseline run."""

        def go():
            model = self.model(dataset, measure)
            clustering = forest_clustering(model, k)
            nodes = clustering_to_nodes(model.enc, clustering)
            return model.table_cost(nodes), {
                "num_clusters": clustering.num_clusters
            }

        return self._memo(RunKey("forest", dataset, measure, k), go)

    def kk(
        self,
        dataset: str,
        measure: str,
        k: int,
        expander: str = "expansion",
        join_with: str = "generalized",
    ) -> RunOutcome:
        """One (k,k)-anonymization run (Algorithm 3/4 + 5)."""

        def go():
            model = self.model(dataset, measure)
            nodes = kk_anonymize(
                model,
                k,
                expander=expander,
                join_with=join_with,
            )
            return model.table_cost(nodes), {}

        key = RunKey(
            "kk", dataset, measure, k, expander=expander, join_with=join_with
        )
        return self._memo(key, go)

    def global_1k(
        self, dataset: str, measure: str, k: int, expander: str = "expansion"
    ) -> RunOutcome:
        """(k,k) followed by Algorithm 6, reporting conversion stats.

        The extras also hold the smallest and largest left degree of the
        (k,k) input's consistency graph (experiment G1's ``degrees``).
        """

        def go():
            model = self.model(dataset, measure)
            kk_nodes = kk_anonymize(model, k, expander=expander)
            kk_cost = model.table_cost(kk_nodes)
            degrees = ConsistencyGraph(model.enc, kk_nodes).left_degrees()
            nodes, stats = global_one_k_anonymize(model, kk_nodes, k)
            return model.table_cost(nodes), {
                "kk_cost": kk_cost,
                "passes": stats.passes,
                "fixes": stats.fixes,
                "initial_deficient": stats.initial_deficient,
                "min_degree": int(degrees.min()),
                "max_degree": int(degrees.max()),
            }

        return self._memo(RunKey("global", dataset, measure, k, expander=expander), go)
