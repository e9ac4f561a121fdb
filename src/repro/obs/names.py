"""Checked-in registry of every metric and span name in the codebase.

Metric names are stringly-typed: ``count("core.aglomerative.merges")``
(note the typo) silently records to a dead key and every dashboard,
SLO and cost model downstream reads zero forever.  This module is the
single source of truth that turns that silent failure into a lint
error: rule ``REP015`` (``repro.analysis.rules``) requires every
``count``/``gauge``/``observe``/``span`` call site to pass a literal
name found here, or an f-string whose literal prefix matches one of
:data:`DYNAMIC_METRIC_PREFIXES`.

Adding an instrumentation point is therefore a two-line change: the
call site plus one entry here — which is exactly the point, because
the diff makes new telemetry reviewable.
"""

from __future__ import annotations

from typing import FrozenSet

__all__ = [
    "DYNAMIC_METRIC_PREFIXES",
    "METRIC_NAMES",
    "SPAN_NAMES",
    "is_registered_metric",
    "is_registered_span",
]

#: Every literal counter / gauge / histogram name, sorted.
METRIC_NAMES: FrozenSet[str] = frozenset(
    {
        # core (agglomerative family)
        "core.agglomerative.candidates_pruned",
        "core.agglomerative.candidates_scanned",
        "core.agglomerative.merges",
        "core.agglomerative.records_expelled",
        "core.agglomerative.row_rescans",
        "core.agglomerative.shrink_candidates",
        # core ((k,1) family)
        "core.k1.pairs_priced",
        # experiments
        "experiments.cell_seconds",
        # matching
        "matching.allowed.classes",
        "matching.hopcroft_karp.augmenting_paths",
        "matching.hopcroft_karp.path_steps",
        "matching.hopcroft_karp.phases",
        "matching.kuhn.augmenting_paths",
        "matching.kuhn.path_steps",
        # runtime
        "runtime.fallback.records_suppressed",
        "runtime.retry.attempts",
        "runtime.retry.retries",
        # serve — counters
        "serve.cache.hits",
        "serve.cache.misses",
        "serve.cache.recovered",
        "serve.cache.skipped_records",
        "serve.cache.store_failures",
        "serve.degraded",
        "serve.errors.internal",
        "serve.errors.request",
        "serve.execute.computed",
        "serve.exhausted",
        "serve.flight.dumps",
        "serve.requests",
        "serve.slo.breaches",
        # serve — health gauges (mirrored on /metricz)
        "serve.breaker.state",
        "serve.cache.entries",
        "serve.cache.fingerprints",
        "serve.cache.journal_bytes",
        "serve.cache.tables",
        "serve.gate.depth",
        # serve — histograms
        "serve.request_seconds",
    }
)

#: Every literal span name, sorted.
SPAN_NAMES: FrozenSet[str] = frozenset(
    {
        "datasets.load",
        "experiments.cell",
        "perf.parallel.grid",
        "runtime.fallback.rung",
        "serve.admit",
        "serve.cache.lookup",
        "serve.execute",
        "serve.recover",
        "serve.request",
    }
)

#: Prefixes under which names may be composed at runtime (f-strings).
#: Each is a deliberate enum-suffix family — the suffix set is closed
#: (statuses, shed reasons, rung outcomes), just not worth spelling out
#: as distinct counters at the call site.
DYNAMIC_METRIC_PREFIXES: FrozenSet[str] = frozenset(
    {
        "runtime.fallback.rung.",
        "serve.shed.",
        "serve.status.",
    }
)


def is_registered_metric(name: str) -> bool:
    """True if ``name`` is a known metric or a dynamic-family member."""
    if name in METRIC_NAMES:
        return True
    return any(name.startswith(p) for p in DYNAMIC_METRIC_PREFIXES)


def is_registered_span(name: str) -> bool:
    """True if ``name`` is a registered span name."""
    return name in SPAN_NAMES
