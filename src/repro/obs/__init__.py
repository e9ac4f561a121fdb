"""repro.obs — structured tracing, metrics and profiling.

Zero-dependency, deterministic-by-default observability:

- :class:`Tracer` / :func:`span` / :func:`trace_scope` — nested spans
  with JSONL persistence and Chrome ``trace_event`` export, fed
  checkpoint-site tallies by the runtime's cooperative checkpoints.
- :class:`MetricsRegistry` / :func:`count` / :func:`observe` /
  :func:`gauge` / :func:`metrics_scope` — counters, gauges and
  log2-bucket histograms of algorithm work units.
- :class:`WindowedRegistry` — time-bucketed ring aggregation on the
  injectable clock: per-window rates, last gauges and merged
  histograms for "what happened in the last N seconds".
- :class:`SLOMonitor` / :class:`SLObjective` — declarative objectives
  evaluated as fast/slow multi-window burn rates.
- :class:`FlightRecorder` — bounded ring of recent request summaries,
  dumped atomically on SLO breach or on demand.
- :func:`render_prometheus` — Prometheus text exposition of any
  snapshot; :func:`append_obs_record` / :func:`load_obs_journal` — the
  ``OBS_*.jsonl`` snapshot journal, stamped by :func:`default_stamp`.
- ``repro.obs.names`` — the checked-in metric/span/checkpoint-site
  name registry enforced by lint rule REP015.
- ``repro.obs.durable`` — the one fsynced JSON-line append, torn-tail
  reader and atomic replace every persisted file goes through.

Everything is off by default: with no scope active the helpers cost a
single ``ContextVar`` read, and :class:`NullTracer` /
:class:`NullRegistry` make "explicitly disabled" indistinguishable from
"never enabled".  ``repro.obs.summarize`` (the report renderer) is a
deliberate non-export — it lives in a higher layer; import it directly.
"""

from repro.obs.expo import (
    PROMETHEUS_CONTENT_TYPE,
    render_prometheus,
)
from repro.obs.flight import (
    FLIGHT_VERSION,
    FlightRecorder,
)
from repro.obs.metrics import (
    METRICS_VERSION,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    active_registries,
    count,
    gauge,
    histogram_quantile,
    install_registry,
    metrics_scope,
    observe,
)
from repro.obs.names import (
    DYNAMIC_METRIC_PREFIXES,
    KNOWN_SITES,
    METRIC_NAMES,
    SPAN_NAMES,
    is_registered_metric,
    is_registered_span,
)
from repro.obs.slo import (
    SLObjective,
    SLOMonitor,
    SLOResult,
    default_objectives,
    worst_status,
)
from repro.obs.tracer import (
    TRACE_VERSION,
    Clock,
    NullTracer,
    Tracer,
    active_tracer,
    chrome_trace,
    load_trace,
    observe_site,
    span,
    trace_scope,
    write_chrome_trace,
)
from repro.obs.windows import (
    OBS_SCHEMA,
    WINDOW_VERSION,
    WindowedRegistry,
    append_obs_record,
    default_stamp,
    load_obs_journal,
)

__all__ = [
    "Clock",
    "DYNAMIC_METRIC_PREFIXES",
    "FLIGHT_VERSION",
    "KNOWN_SITES",
    "METRICS_VERSION",
    "METRIC_NAMES",
    "OBS_SCHEMA",
    "PROMETHEUS_CONTENT_TYPE",
    "SPAN_NAMES",
    "TRACE_VERSION",
    "WINDOW_VERSION",
    "FlightRecorder",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NullTracer",
    "SLOMonitor",
    "SLOResult",
    "SLObjective",
    "Tracer",
    "WindowedRegistry",
    "active_registries",
    "active_tracer",
    "append_obs_record",
    "chrome_trace",
    "count",
    "default_objectives",
    "default_stamp",
    "gauge",
    "histogram_quantile",
    "install_registry",
    "is_registered_metric",
    "is_registered_span",
    "load_obs_journal",
    "load_trace",
    "metrics_scope",
    "observe",
    "observe_site",
    "render_prometheus",
    "span",
    "trace_scope",
    "worst_status",
    "write_chrome_trace",
]
