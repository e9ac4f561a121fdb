"""Per-layer self times, recorded from outside the program.

The benchmark wraps public functions and methods of :mod:`repro` at
their definition *and* at every module that imported them by name, so a
call is timed no matter which import path reached it.  Nothing inside
``src/`` changes; :meth:`LayerTracer.uninstall` restores every original.

A wrapped call records its duration minus the durations of the wrapped
calls nested inside it (its *self* time).  Self times of nested calls
therefore add up to the durations of the outermost wrapped calls, which
is what :meth:`Tally.reconcile` checks.  Wrappers record only while the
tracer is armed, so correctness checks that run outside the timed region
(``result.verify()`` reaches the matching layer too) stay out of the
table.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

#: Layer name -> (metrics it emits, wrapped entry points as
#: ``dotted.owner:attribute``).  Names follow the layer spans the program
#: is meant to adopt later (``repro.obs.names``).  A layer emits
#: ``<name>_s`` for ``total`` time, ``<name>.self_s`` for ``self`` time
#: and ``<name>.calls`` for ``calls``.
LAYERS: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    "tabular.encoding.build": (("total",), ("repro.tabular.encoding.EncodedTable:__init__",)),
    "tabular.encoding.closure": (("total",), (
        "repro.tabular.encoding.EncodedTable:closure_of_records",
        "repro.tabular.encoding.EncodedTable:leave_one_out_closures",
    )),
    "tabular.encoding.join_rows": (("total", "calls"), ("repro.tabular.encoding.EncodedTable:join_rows",)),
    "tabular.encoding.consistency_mask": (("total", "calls"), (
        "repro.tabular.encoding.EncodedTable:consistency_mask",
        "repro.tabular.encoding.EncodedTable:consistency_mask_for_codes",
    )),
    "tabular.encoding.decode": (("total",), ("repro.tabular.encoding.EncodedTable:decode_table",)),
    "measures.record_cost": (("total", "calls"), ("repro.measures.base.CostModel:record_cost",)),
    "measures.table_cost": (("total",), ("repro.measures.base.CostModel:table_cost",)),
    "core.agglomerative": (("self", "calls"), ("repro.core.agglomerative:agglomerative_clustering",)),
    "core.k1.expand": (("total", "calls"), ("repro.core.k1:k1_expansion",)),
    "core.one_k": (("self", "calls"), ("repro.core.one_k:one_k_anonymize",)),
    "core.global_1k": (("self",), ("repro.core.global_1k:global_one_k_anonymize",)),
    "matching.bipartite.build": (("total", "calls"), ("repro.matching.bipartite.ConsistencyGraph:__init__",)),
    "matching.allowed": (("self", "calls"), ("repro.matching.allowed:allowed_edges",)),
    "matching.hopcroft_karp": (("total",), ("repro.matching.hopcroft_karp:hopcroft_karp",)),
    "matching.tarjan": (("total",), ("repro.matching.tarjan:strongly_connected_components",)),
    "serve.admission": (("total",), (
        "repro.serve.admission.AdmissionGate:try_admit",
        "repro.serve.admission.AdmissionGate:enter",
        "repro.serve.admission.AdmissionGate:leave",
    )),
    "serve.service.load": (("total",), ("repro.serve.service:load_dataset",)),
    "serve.cache.fingerprint": (("total",), ("repro.serve.cache:table_fingerprint",)),
    "serve.cache.get": (("total",), ("repro.serve.cache.ResultCache:get",)),
    "serve.cache.put": (("total",), ("repro.serve.cache.ResultCache:put",)),
    "runtime.journal.append": (("total",), ("repro.runtime.journal.Journal:append",)),
    "runtime.fallback": (("self",), ("repro.runtime.fallback:run_with_fallback",)),
}

#: Layer names in table order.
LAYER_NAMES: tuple[str, ...] = tuple(LAYERS)

#: Layer-name prefixes a workload must never reach: each batch workload
#: is the no-change control for the other's layers.
BYPASS = {
    "paper-k": ("core.k1", "core.one_k", "matching."),
    "paper-g1k": ("core.agglomerative",),
}

#: Layers a workload must reach: the ones it was chosen to measure.
REQUIRED = {
    "paper-k": ("core.agglomerative",),
    "paper-g1k": ("core.k1.expand", "core.one_k", "matching.bipartite.build"),
    "serve-mix": ("serve.cache.get", "serve.service.load", "runtime.journal.append"),
}


@dataclass
class Tally:
    """Calls, self time and total time per layer, for one traced region.

    A layer's total time is the summed duration of its calls, wrapped
    children included; no layer calls itself, so nothing counts twice.
    """

    calls: dict[str, int] = field(
        default_factory=lambda: dict.fromkeys(LAYER_NAMES, 0)
    )
    self_s: dict[str, float] = field(
        default_factory=lambda: dict.fromkeys(LAYER_NAMES, 0.0)
    )
    total_s: dict[str, float] = field(
        default_factory=lambda: dict.fromkeys(LAYER_NAMES, 0.0)
    )
    outer_s: float = 0.0  #: summed durations of outermost wrapped calls
    edges: int = 0  #: consistency-graph edges built (bipartite layer)

    def merge(self, other: Tally) -> None:
        """Add ``other``'s tallies into this one."""
        for name in LAYER_NAMES:
            self.calls[name] += other.calls[name]
            self.self_s[name] += other.self_s[name]
            self.total_s[name] += other.total_s[name]
        self.outer_s += other.outer_s
        self.edges += other.edges

    def reconcile(self, wall_s: float) -> list[str]:
        """Problems with the bookkeeping of one traced region, if any.

        Self times must be non-negative and sum to the outermost wrapped
        durations, which in turn must fit inside the traced wall time.
        """
        problems = []
        tolerance = 1e-6 * (1 + sum(self.calls.values()))
        for name, value in self.self_s.items():
            if value < -tolerance:
                problems.append(f"{name} has negative self time {value:.6f}s")
        total = sum(self.self_s.values())
        if abs(total - self.outer_s) > tolerance:
            problems.append(
                f"self times sum to {total:.6f}s but outermost calls took "
                f"{self.outer_s:.6f}s"
            )
        if self.outer_s > wall_s + tolerance:
            problems.append(
                f"wrapped calls took {self.outer_s:.6f}s inside a "
                f"{wall_s:.6f}s traced wall"
            )
        return problems

    def route_problems(self, workload: str) -> list[str]:
        """Layers ``workload`` reached although it was chosen to skip
        them, or skipped although it was chosen to measure them."""
        prefixes = BYPASS.get(workload, ())
        problems = [
            f"{workload} reached {layer} ({n} calls); it must bypass that layer"
            for layer, n in self.calls.items()
            if n and prefixes and layer.startswith(prefixes)
        ]
        problems.extend(
            f"{workload} never reached {layer}; it was chosen to measure that layer"
            for layer in REQUIRED.get(workload, ())
            if not self.calls[layer]
        )
        return problems


def _resolve(dotted: str) -> Any:
    """Import the longest module prefix of ``dotted``, then walk attributes."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = __import__(".".join(parts[:cut]), fromlist=["_"])
        except ImportError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ImportError(dotted)


class LayerTracer:
    """Wraps the layer entry points and tallies them while armed."""

    def __init__(self) -> None:
        self.tally = Tally()
        self._armed = False
        self._children: list[float] = []  # child time per open wrapped call
        self._undo: list[tuple[Any, str, Any]] = []

    def take(self) -> Tally:
        """The tallies so far; recording restarts from zero."""
        tally, self.tally = self.tally, Tally()
        return tally

    def _wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        children = self._children
        clock = time.perf_counter
        count_edges = name == "matching.bipartite.build"

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not self._armed:
                return fn(*args, **kwargs)
            children.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = children.pop()
                tally = self.tally
                tally.calls[name] += 1
                tally.self_s[name] += elapsed - inner
                tally.total_s[name] += elapsed
                if children:
                    children[-1] += elapsed
                else:
                    tally.outer_s += elapsed
                if count_edges:
                    adjacency = getattr(args[0], "adjacency", ())
                    tally.edges += sum(len(a) for a in adjacency)

        return wrapper

    def install(self) -> None:
        """Wrap every layer entry point, at its definition and its imports."""
        for name, (_, entries) in LAYERS.items():
            for entry in entries:
                owner_path, attr = entry.split(":")
                self._install(name, _resolve(owner_path), attr)

    def _install(self, name: str, owner: Any, attr: str) -> None:
        original = owner.__dict__[attr]
        wrapped = self._wrap(name, original)
        self._patch(owner, attr, wrapped)
        if isinstance(owner, type):
            return
        # Functions imported by name elsewhere (``from m import f``).
        for module in list(sys.modules.values()):
            if module is owner or not getattr(module, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, key, wrapped)

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Restore every original attribute."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    @contextmanager
    def armed(self) -> Iterator[None]:
        """Record wrapped calls for the duration of the block."""
        self._armed = True
        try:
            yield
        finally:
            self._armed = False


#: Per-layer metric name for each time/count a layer emits.
_EMITS = {"total": "{}_s", "self": "{}.self_s", "calls": "{}.calls"}

#: Per-layer metric read from Algorithm 6's diagnostics in ``result.stats``.
CONVERSION_STATS = {
    "core.global_1k.passes": "conversion_passes",
    "core.global_1k.fixes": "conversion_fixes",
    "core.global_1k.initial_deficient": "initial_deficient",
}

#: Per-layer metric read from a counter the program already emits.
_COUNTERS = (
    "tabular.closure.memo_hits",
    "tabular.closure.memo_misses",
    "core.agglomerative.merges",
    "core.agglomerative.row_rescans",
    "core.agglomerative.candidates_scanned",
    "core.agglomerative.candidates_pruned",
    "core.agglomerative.shrink_candidates",
    "core.agglomerative.records_expelled",
    "matching.hopcroft_karp.phases",
    "matching.hopcroft_karp.augmenting_paths",
    "matching.hopcroft_karp.path_steps",
    "serve.cache.hits",
    "serve.cache.misses",
    "serve.execute.computed",
    "serve.degraded",
    "runtime.retry.retries",
)

#: Every per-layer metric of a traced run, with its unit (BENCHMARK.json
#: lists the same names).  A layer a workload never reaches reports 0.
PER_LAYER: tuple[tuple[str, str], ...] = (
    *(
        (_EMITS[kind].format(layer), "count" if kind == "calls" else "s")
        for layer, (emits, _) in LAYERS.items()
        for kind in emits
    ),
    *((name, "count") for name in (*_COUNTERS, *CONVERSION_STATS)),
    ("matching.bipartite.build.edges", "count"),
    ("runtime.journal.bytes", "bytes"),
    ("tabular.closure.memo_hit_ratio", "ratio"),
    ("core.agglomerative.rescans_per_merge", "ratio"),
    ("core.agglomerative.prune_ratio", "ratio"),
    ("serve.cache.hit_ratio", "ratio"),
    ("traced_wall_s", "s"),
    ("unattributed_s", "s"),
    ("tracing_overhead", "ratio"),
)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(
    tally: Tally,
    counters: dict[str, float],
    *,
    traced_wall_s: float,
    untraced_wall_s: float,
    extra: dict[str, float],
) -> dict[str, float]:
    """Every :data:`PER_LAYER` value for one traced region.

    ``extra`` carries what neither the tracer nor the counters know
    (Algorithm 6 diagnostics from ``result.stats``, journal size).
    """
    values: dict[str, float] = {name: 0.0 for name, _ in PER_LAYER}
    emitted = {"total": tally.total_s, "self": tally.self_s, "calls": tally.calls}
    for layer, (emits, _) in LAYERS.items():
        for kind in emits:
            values[_EMITS[kind].format(layer)] = float(emitted[kind][layer])
    for name in _COUNTERS:
        values[name] = float(counters.get(name, 0))
    values["matching.bipartite.build.edges"] = float(tally.edges)
    hits, misses = values["tabular.closure.memo_hits"], values["tabular.closure.memo_misses"]
    values["tabular.closure.memo_hit_ratio"] = _ratio(hits, hits + misses)
    merges = values["core.agglomerative.merges"]
    rescans = values["core.agglomerative.row_rescans"]
    pruned = values["core.agglomerative.candidates_pruned"]
    values["core.agglomerative.rescans_per_merge"] = _ratio(rescans, merges)
    values["core.agglomerative.prune_ratio"] = _ratio(pruned, pruned + rescans)
    hits, misses = values["serve.cache.hits"], values["serve.cache.misses"]
    values["serve.cache.hit_ratio"] = _ratio(hits, hits + misses)
    values.update(extra)
    values["traced_wall_s"] = traced_wall_s
    values["unattributed_s"] = traced_wall_s - sum(tally.self_s.values())
    values["tracing_overhead"] = _ratio(traced_wall_s, untraced_wall_s)
    return values


def format_layers(title: str, tally: Tally, values: dict[str, float]) -> list[str]:
    """A layer table, largest self time first.

    The self column plus the unattributed row sums to the traced wall;
    the total column includes each layer's wrapped children.
    """
    wall = values["traced_wall_s"]
    lines = [
        f"{title}: traced wall {wall:.3f}s, "
        f"tracing overhead x{values['tracing_overhead']:.3f}",
        f"  {'layer':34s} {'calls':>8s} {'self_s':>9s} {'self%':>6s} {'total_s':>9s} {'total%':>6s}",
    ]
    for layer in sorted(LAYER_NAMES, key=lambda name: -tally.self_s[name]):
        if tally.calls[layer]:
            self_s, total_s = tally.self_s[layer], tally.total_s[layer]
            lines.append(
                f"  {layer:34s} {tally.calls[layer]:8d} {self_s:9.3f} "
                f"{100 * _ratio(self_s, wall):6.1f} {total_s:9.3f} "
                f"{100 * _ratio(total_s, wall):6.1f}"
            )
    unattributed = values["unattributed_s"]
    lines.append(
        f"  {'unattributed':34s} {'':8s} {unattributed:9.3f} "
        f"{100 * _ratio(unattributed, wall):6.1f}"
    )
    return lines
