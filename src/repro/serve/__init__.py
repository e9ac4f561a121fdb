"""repro.serve — the fault-hardened anonymization service.

A zero-dependency (stdlib ``http.server`` + threads) long-lived server
around :func:`repro.core.api.anonymize`, hardened end to end:

- bounded admission with typed load shedding
  (:mod:`repro.serve.admission`),
- per-request deadlines threaded into the runtime checkpoint sites,
- seeded retry + circuit breaker over the
  :mod:`repro.runtime.fallback` degradation chain, with the winning
  rung reported in the response's guarantee block
  (:mod:`repro.serve.protocol`),
- a crash-safe result cache keyed by
  ``(dataset fingerprint, k, notion, measure)`` persisted through the
  fsync-per-line journal (:mod:`repro.serve.cache`),
- a chaos drill proving byte-identical recovery with zero
  recomputation (:mod:`repro.serve.drill`),
- opt-in live telemetry (``ServiceConfig.live_telemetry``): a
  sliding-window registry behind ``/metricz?window=N``, SLO burn-rate
  monitors surfaced in ``/healthz`` (and, with ``slo_advisory``,
  advising the gate and breaker), and a flight recorder behind
  ``/debugz`` that dumps atomically on the first breach edge.

Run it with ``repro-anon serve``; see docs/serving.md.
"""

from repro.serve.admission import (
    AdmissionGate,
    BreakerPermit,
    CircuitBreaker,
    GateStats,
)
from repro.serve.cache import (
    CACHE_VERSION,
    ResultCache,
    cache_key,
    table_fingerprint,
)
from repro.serve.drill import (
    SERVE_SITES,
    DrillCheck,
    DrillReport,
    canonical_body,
    run_chaos_drill,
)
from repro.serve.http import (
    MAX_BODY_BYTES,
    ServiceHTTPServer,
    serve_http,
)
from repro.serve.protocol import (
    ENVELOPE_VERSION,
    AnonymizeRequest,
    build_body,
    error_envelope,
    http_status,
    ok_envelope,
    request_mix,
    shed_envelope,
)
from repro.serve.service import (
    AnonymizationService,
    ServiceConfig,
    chain_for,
    default_loader,
)

__all__ = [
    "AdmissionGate",
    "AnonymizationService",
    "AnonymizeRequest",
    "BreakerPermit",
    "CACHE_VERSION",
    "CircuitBreaker",
    "DrillCheck",
    "DrillReport",
    "ENVELOPE_VERSION",
    "GateStats",
    "MAX_BODY_BYTES",
    "ResultCache",
    "SERVE_SITES",
    "ServiceConfig",
    "ServiceHTTPServer",
    "build_body",
    "cache_key",
    "canonical_body",
    "chain_for",
    "default_loader",
    "error_envelope",
    "http_status",
    "ok_envelope",
    "request_mix",
    "run_chaos_drill",
    "serve_http",
    "shed_envelope",
    "table_fingerprint",
]
