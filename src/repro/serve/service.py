"""The anonymization service: admission → cache → fallback → respond.

One :meth:`AnonymizationService.handle` call is the whole request
lifecycle, independent of any transport (the HTTP layer, the chaos
drill and perfbench's ``serve-mix`` workload all drive it directly):

1. **accept** — parse/validate the payload (fault site ``serve.accept``
   behind seeded retry).
2. **admit** — circuit breaker (a once-only
   :class:`~repro.serve.admission.BreakerPermit`, released on every
   exit path so a half-open probe can never leak), then the bounded
   :class:`~repro.serve.admission.AdmissionGate`; overload yields a
   typed shed envelope, never a hang.
3. **cache** — look up ``(fingerprint, k, notion, measure)``; hits
   serve the stored body verbatim with zero recomputation.  A registry
   dataset is a pure function of ``(dataset, n, seed)``, so the service
   memoizes each triple's fingerprint and size in an LRU bounded by
   :data:`FINGERPRINT_MEMO_SIZE`: a request on a memoized triple checks
   ``k ≤ n`` and looks up the cache without loading the table.  The
   first request on a triple, and every request through an injected
   loader (which bypasses the memo), loads and fingerprints the table
   first.
4. **execute** — run the :mod:`repro.runtime.fallback` degradation
   chain under the request's :class:`~repro.runtime.Deadline`, guarded
   by retry and the breaker; the winning rung lands in the response's
   guarantee block.  A miss on a registry triple takes the table and
   its :class:`~repro.tabular.encoding.EncodedTable` from a second LRU,
   bounded by :data:`TABLE_MEMO_RECORDS`, so each triple is loaded and
   encoded once per service while it stays memoized; an encoding is
   read-only, so sharing one serves exactly what a fresh load would.
   Every registry load lands in that memo, a hit's too, but only a
   miss builds the encoding.  Injected loaders bypass this memo too:
   their tables are loaded and encoded on every miss.
5. **store** — persist the deterministic body through the crash-safe
   cache journal *after* the deadline scope is exited, so a result in
   hand is never discarded because storing it ran past the SLO.

Because HTTP requests arrive on server threads (where the main
thread's ``ContextVar`` scopes are invisible), the service owns its
:class:`~repro.obs.MetricsRegistry`/:class:`~repro.obs.Tracer` and
enters both scopes inside ``handle`` — per-request spans and latency
histograms work identically in-process and under ``ThreadingHTTPServer``.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Generic, TypeVar

from repro.datasets.registry import load as load_dataset
from repro.errors import (
    FallbackExhausted,
    ReproError,
    RequestError,
    ServiceOverloaded,
)
from repro.obs import (
    Clock,
    FlightRecorder,
    MetricsRegistry,
    NullTracer,
    SLOMonitor,
    SLObjective,
    Tracer,
    WindowedRegistry,
    count,
    default_objectives,
    metrics_scope,
    observe,
    span,
    trace_scope,
    worst_status,
)
from repro.runtime.deadline import Deadline, Timer, checkpoint, limit_scope
from repro.runtime.fallback import (
    DEFAULT_CHAIN,
    FallbackOutcome,
    Rung,
    run_with_fallback,
)
from repro.runtime.retry import RetryPolicy, Sleeper, call_with_retry
from repro.serve.admission import AdmissionGate, BreakerPermit, CircuitBreaker
from repro.serve.cache import ResultCache, cache_key, table_fingerprint
from repro.serve.protocol import (
    AnonymizeRequest,
    build_body,
    error_envelope,
    ok_envelope,
    shed_envelope,
)
from repro.tabular.encoding import EncodedTable
from repro.tabular.table import Table

#: Resolves a request to the table it names (injectable for tests that
#: serve hand-built tables with custom QI configurations).
TableLoader = Callable[[AnonymizeRequest], Table]

#: Registry ``(dataset, n, seed)`` triples whose fingerprint and size one
#: service remembers; the least recently used falls out past the bound.
FINGERPRINT_MEMO_SIZE = 1024

#: Records the table memo holds at most, summed over its tables, each
#: charged :data:`TABLE_MEMO_OVERHEAD_RECORDS` on top of its own.  A
#: table and its encoding retain about 400 bytes per record at n = 5000
#: (tracemalloc: ADT 1.9 MB, CMC 2.0 MB, ART 1.1 MB), so the bound is
#: about 26 MB.  A table charged more than the bound is never memoized.
TABLE_MEMO_RECORDS = 1 << 16

#: Records charged per memoized table for what it retains whatever its
#: size (its schema, hierarchies and join tables): an ADT table of one
#: record retains 0.25 MB, 640 records at 400 bytes each.
TABLE_MEMO_OVERHEAD_RECORDS = 640

_K = TypeVar("_K")
_V = TypeVar("_V")

#: A registry triple, the key of both memos.
_Triple = tuple[str, int | None, int]


@dataclass(eq=False)
class _Loaded:
    """A memoized registry table, and its encoding once a miss built it."""

    table: Table
    encoded: EncodedTable | None = None


def default_loader(request: AnonymizeRequest) -> Table:
    """Load the registry dataset a request names."""
    return load_dataset(request.dataset, n=request.n, seed=request.seed)


class _LRU(Generic[_K, _V]):
    """A least-recently-used map bounded by the summed weight of its values.

    Unlocked: the service guards both of its memos with one lock.
    """

    def __init__(self, bound: int) -> None:
        self.bound = bound
        self.weight = 0  #: summed weight of the entries held
        self._entries: OrderedDict[_K, tuple[_V, int]] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: _K) -> _V | None:
        """The value under ``key``, now the most recently used, or None."""
        entry = self._entries.get(key)
        if entry is None:
            return None
        self._entries.move_to_end(key)
        return entry[0]

    def add(self, key: _K, value: _V, weight: int = 1) -> None:
        """Hold ``value`` under ``key``, then evict the least recently used
        entries until the rest fit the bound.

        A held key keeps its first value (racing inserts computed the
        same one); a value heavier than the whole bound is not held.
        """
        if key in self._entries:
            self._entries.move_to_end(key)
            return
        if weight > self.bound:
            return
        self._entries[key] = (value, weight)
        self.weight += weight
        while self.weight > self.bound:
            _, (_, evicted) = self._entries.popitem(last=False)
            self.weight -= evicted


@dataclass(frozen=True)
class ServiceConfig:
    """Every SLO knob in one place (see docs/serving.md)."""

    max_inflight: int = 4  #: concurrent executions
    max_queue: int = 16  #: bounded wait queue depth
    default_timeout: float = 30.0  #: per-request budget when unset, seconds
    rung_timeout: float | None = None  #: per-rung cap inside the chain
    expected_seconds: float = 0.5  #: EWMA seed for shed estimation
    retry: RetryPolicy = field(
        default_factory=lambda: RetryPolicy(attempts=3, base_delay=0.01, seed=0)
    )
    breaker_threshold: int = 5  #: consecutive failures that trip the breaker
    breaker_reset: float = 30.0  #: breaker cooldown, seconds
    # -- live telemetry (repro.obs.live); all off by default so the
    # -- stock service stays byte-identical to the pre-telemetry one.
    live_telemetry: bool = False  #: windowed registry + SLOs + flight ring
    slo_advisory: bool = False  #: let SLO breaches tighten gate/breaker
    window_bucket_seconds: float = 1.0  #: window resolution
    window_horizon_seconds: float = 300.0  #: how far back windows reach
    flight_journal: str | None = None  #: breach dumps land here (atomic)
    objectives: tuple[SLObjective, ...] = field(
        default_factory=default_objectives
    )  #: SLOs evaluated per request when live


def chain_for(notion: str) -> tuple[Rung, ...]:
    """The degradation chain serving a requested notion.

    The first rung targets the notion itself; the tail reuses the
    plain-k rungs of :data:`~repro.runtime.fallback.DEFAULT_CHAIN`
    (agglomerative → mondrian → suppress), each of which still
    satisfies k-anonymity — the guarantee block records the served
    notion so degradation is visible, never silent.
    """
    if notion == "kk":
        return DEFAULT_CHAIN
    tail = tuple(rung for rung in DEFAULT_CHAIN if rung.notion == "k")
    if notion == "k":
        return tail
    return (Rung(notion, notion=notion),) + tail


class AnonymizationService:
    """Transport-independent request handler (see the module docstring).

    Parameters
    ----------
    config:
        SLO knobs; defaults are sized for interactive use.
    cache:
        Result cache (journal-backed for crash recovery); defaults to
        a memory-only cache.
    loader:
        Request → table resolver; injectable for tests.
    clock:
        Monotonic clock driving deadlines, the breaker and the gate.
    sleeper:
        Retry-backoff sleeper; injectable so tests never sleep.
    registry / tracer:
        Service-owned observability sinks, entered per request (the
        server's worker threads cannot see caller ``ContextVar``
        scopes, so the service carries its own).
    """

    def __init__(
        self,
        config: ServiceConfig | None = None,
        cache: ResultCache | None = None,
        *,
        loader: TableLoader = default_loader,
        clock: Clock = time.monotonic,
        sleeper: Sleeper = time.sleep,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self.config = config if config is not None else ServiceConfig()
        self.cache = cache if cache is not None else ResultCache(
            retry=self.config.retry, sleeper=sleeper
        )
        self.loader = loader
        self.clock = clock
        self.sleeper = sleeper
        if registry is not None:
            self.registry = registry
        elif self.config.live_telemetry:
            self.registry = WindowedRegistry(
                clock,
                bucket_seconds=self.config.window_bucket_seconds,
                horizon_seconds=self.config.window_horizon_seconds,
            )
        else:
            self.registry = MetricsRegistry()
        self.tracer = tracer if tracer is not None else NullTracer()
        # Live telemetry: SLO monitor + flight recorder, only when the
        # config opts in *and* the registry can answer window queries.
        self.flight: FlightRecorder | None = None
        self.slo: SLOMonitor | None = None
        if self.config.live_telemetry:
            self.flight = FlightRecorder(clock=clock)
            if isinstance(self.registry, WindowedRegistry):
                self.slo = SLOMonitor(self.config.objectives, self.registry)
        self.flight_dumps = 0  #: breach-edge dumps written so far
        self._slo_status = "ok"
        self._slo_lock = threading.Lock()
        self.gate = AdmissionGate(
            max_inflight=self.config.max_inflight,
            max_queue=self.config.max_queue,
            expected_seconds=self.config.expected_seconds,
            clock=clock,
        )
        self.breaker = CircuitBreaker(
            failure_threshold=self.config.breaker_threshold,
            reset_after=self.config.breaker_reset,
            clock=clock,
        )
        self._ids = itertools.count(1)
        # Registry triple -> (fingerprint, num_records), and -> its
        # loaded table; one lock guards both.
        self._fingerprints: _LRU[_Triple, tuple[str, int]] = _LRU(
            FINGERPRINT_MEMO_SIZE
        )
        self._tables: _LRU[_Triple, _Loaded] = _LRU(TABLE_MEMO_RECORDS)
        self._memo_lock = threading.Lock()

    # ----------------------------------------------------------------- #

    def recover(self) -> int:
        """Replay the cache journal (on restart); returns bodies loaded."""
        with metrics_scope(self.registry), trace_scope(self.tracer):
            with span("serve.recover"):
                return self.cache.load()

    def handle(self, payload: Any) -> dict[str, Any]:
        """Serve one request payload; always returns an envelope.

        ``payload`` is the decoded JSON request body (or an
        :class:`AnonymizeRequest` directly).  Never raises for
        request-shaped failures — overload, bad input, infeasible
        parameters and exhausted chains all come back as typed
        envelopes.
        """
        with metrics_scope(self.registry), trace_scope(self.tracer):
            count("serve.requests")
            timer = Timer(clock=self.clock)
            with timer, span("serve.request"):
                envelope = self._accept_and_serve(payload)
            envelope["meta"]["elapsed_seconds"] = timer.seconds
            observe("serve.request_seconds", timer.seconds)
            count(f"serve.status.{envelope['status']}")
            if self.flight is not None:
                self._record_flight(envelope, timer.seconds)
            if self.slo is not None:
                self._observe_slo()
            return envelope

    def stats(self) -> dict[str, Any]:
        """Health snapshot: gate depth, breaker state, cache size."""
        gate = self.gate.stats()
        return {
            "queued": gate.queued,
            "inflight": gate.inflight,
            "ewma_seconds": gate.ewma_seconds,
            "breaker": self.breaker.state,
            "cached_bodies": len(self.cache),
        }

    def health(self) -> dict[str, Any]:
        """The ``/healthz`` payload: stats plus SLO standing when live.

        With live telemetry off this is exactly the historical payload
        (``status: ok`` + :meth:`stats`); when on, ``status`` becomes
        the worst current SLO status (``ok``/``warn``/``breach``) and a
        per-objective ``slo`` block rides along.
        """
        payload: dict[str, Any] = {"status": "ok", **self.stats()}
        if self.slo is not None:
            results = self.slo.evaluate()
            payload["status"] = worst_status(results)
            payload["slo"] = [result.to_json() for result in results]
        return payload

    def slo_status(self) -> str:
        """Worst SLO status as of the last handled request."""
        if self.slo is None:
            return "ok"
        with self._slo_lock:
            return self._slo_status

    def refresh_health_gauges(self) -> None:
        """Mirror ``/healthz`` state into registry gauges.

        Called before every ``/metricz`` snapshot so one scrape carries
        both workload counters and service health — gate depth, breaker
        state (0 closed / 1 half-open / 2 open), cache entries, the
        cache journal's unbounded on-disk size, and the entries of the
        bounded fingerprint and table memos.
        """
        gate = self.gate.stats()
        breaker_states = {"closed": 0.0, "half-open": 1.0, "open": 2.0}
        registry = self.registry
        registry.set_gauge(
            "serve.gate.depth", float(gate.queued + gate.inflight)
        )
        registry.set_gauge(
            "serve.breaker.state",
            breaker_states.get(self.breaker.state, 2.0),
        )
        registry.set_gauge("serve.cache.entries", float(len(self.cache)))
        registry.set_gauge(
            "serve.cache.journal_bytes", float(self.cache.journal_bytes())
        )
        with self._memo_lock:
            fingerprints = len(self._fingerprints)
            tables = len(self._tables)
        registry.set_gauge("serve.cache.fingerprints", float(fingerprints))
        registry.set_gauge("serve.cache.tables", float(tables))

    def _record_flight(
        self, envelope: dict[str, Any], seconds: float
    ) -> None:
        """Append this request's summary to the flight ring."""
        assert self.flight is not None
        status = envelope.get("status", "unknown")
        summary: dict[str, Any] = {
            "status": status,
            "elapsed_seconds": seconds,
            "request_id": envelope.get("meta", {}).get("request_id"),
        }
        if "error" in envelope:
            summary["error"] = envelope["error"]
        if "shed" in envelope:
            summary["shed"] = envelope["shed"]
        kind = "error" if status == "error" else "request"
        self.flight.record(kind, summary)

    def _observe_slo(self) -> None:
        """Evaluate SLOs after a request; act on the breach *edge*.

        The ok→breach transition (detected under a lock, so concurrent
        requests see exactly one edge) counts a breach, records it in
        the flight ring and — if a dump path is configured — writes one
        atomic flight dump.  Level-triggered advisory pressure is then
        applied to the gate and breaker when ``slo_advisory`` is on.
        """
        assert self.slo is not None and self.flight is not None
        results = self.slo.evaluate()
        status = worst_status(results)
        with self._slo_lock:
            previous, self._slo_status = self._slo_status, status
            new_breach = status == "breach" and previous != "breach"
            if new_breach and self.config.flight_journal is not None:
                self.flight_dumps += 1
        if new_breach:
            count("serve.slo.breaches")
            self.flight.record(
                "breach",
                {"results": [result.to_json() for result in results]},
            )
            if self.config.flight_journal is not None:
                count("serve.flight.dumps")
                self.flight.dump(self.config.flight_journal)
        if self.config.slo_advisory:
            if status == "breach":
                self.gate.advise_pressure(2.0)
                self.breaker.advise(True)
            elif status == "warn":
                self.gate.advise_pressure(1.5)
                self.breaker.advise(False)
            else:
                self.gate.advise_pressure(1.0)
                self.breaker.advise(False)

    # ----------------------------------------------------------------- #

    def _accept_and_serve(self, payload: Any) -> dict[str, Any]:
        try:
            request = self._accept(payload)
        except RequestError as exc:
            count("serve.errors.request")
            return error_envelope(None, exc)
        except ReproError as exc:
            # e.g. an injected serve.accept fault that survived retry:
            # still an envelope, never an escaping exception.
            count("serve.errors.internal")
            return error_envelope(None, exc)
        request_id = next(self._ids)
        try:
            envelope = self._admit_and_execute(request)
        except ServiceOverloaded as shed:
            count(f"serve.shed.{shed.reason}")
            envelope = shed_envelope(request, shed)
        except ReproError as exc:
            count("serve.errors.internal")
            envelope = error_envelope(request, exc)
        envelope["meta"]["request_id"] = request_id
        return envelope

    def _accept(self, payload: Any) -> AnonymizeRequest:
        def _parse() -> AnonymizeRequest:
            checkpoint("serve.accept")
            if isinstance(payload, AnonymizeRequest):
                return payload
            return AnonymizeRequest.from_json(payload)

        return call_with_retry(
            _parse, policy=self.config.retry, sleep=self.sleeper
        )

    def _admit_and_execute(self, request: AnonymizeRequest) -> dict[str, Any]:
        budget = (
            request.timeout
            if request.timeout is not None
            else self.config.default_timeout
        )
        permit = self.breaker.acquire()
        if permit is None:
            raise ServiceOverloaded(
                "circuit breaker is open after repeated backend failures",
                reason="breaker_open",
                retry_after=self.breaker.retry_after(),
            )
        # Every exit below must resolve the permit: _execute records
        # success/failure once the backend has spoken; the finally
        # returns an unresolved half-open probe (cache hit, shed,
        # loader/validation failure) so the breaker is never wedged.
        try:
            started = self.clock()
            with span("serve.admit"):
                self.gate.try_admit(budget)  # raises the typed shed itself

                def _enter() -> bool:
                    # The fault site fires *before* the slot transition
                    # so a retried attempt never double-claims a slot.
                    checkpoint("serve.enqueue")
                    return self.gate.enter(timeout=budget)

                try:
                    entered = call_with_retry(
                        _enter, policy=self.config.retry, sleep=self.sleeper
                    )
                except ReproError:
                    self.gate.cancel()
                    raise
            if not entered:
                raise ServiceOverloaded(
                    f"no execution slot freed up within the "
                    f"{budget:.3f}s budget",
                    reason="deadline_unmeetable",
                    retry_after=self.gate.estimated_wait(),
                )
            work_timer = Timer(clock=self.clock)
            try:
                with work_timer:
                    remaining = max(0.0, budget - (self.clock() - started))
                    return self._execute(request, remaining, permit)
            finally:
                self.gate.leave(work_timer.seconds)
        finally:
            permit.release()

    def _execute(
        self,
        request: AnonymizeRequest,
        budget: float,
        permit: BreakerPermit,
    ) -> dict[str, Any]:
        table: Table | None = None
        memo = self._memoized(request)
        if memo is None:
            table = self.loader(request)
            num_records = table.num_records
        else:
            fingerprint, num_records = memo
        if request.k > num_records:
            raise RequestError(
                f"k={request.k} exceeds the table size n={num_records}"
            )
        if table is not None:
            fingerprint = self._fingerprint(request, table)
        key = cache_key(
            fingerprint, request.k, request.notion, request.measure
        )
        with span("serve.cache.lookup"):
            body = self.cache.get(key)
        if body is not None:
            return ok_envelope(request, body, cache_hit=True)
        table, encoded = self._encoded(request, table)

        chain = chain_for(request.notion)
        # One deadline spanning every retry attempt: the budget is the
        # client's, so a retried execution resumes the *remaining*
        # budget rather than restarting a fresh one per attempt.
        deadline = Deadline.after(budget, clock=self.clock)

        def _run() -> FallbackOutcome:
            checkpoint("serve.execute")
            with limit_scope(deadline):
                return run_with_fallback(
                    table,
                    request.k,
                    chain=chain,
                    measure=request.measure,
                    overall_timeout=deadline.remaining(),
                    rung_timeout=self.config.rung_timeout,
                    clock=self.clock,
                    encoded=encoded,
                )

        with span("serve.execute", notion=request.notion, k=request.k):
            try:
                outcome = call_with_retry(
                    _run, policy=self.config.retry, sleep=self.sleeper
                )
            except ReproError:
                permit.failure()
                raise
        if not outcome.ok:
            permit.failure()
            count("serve.exhausted")
            return error_envelope(
                request,
                FallbackExhausted(
                    "every rung of the degradation chain failed:\n"
                    + outcome.report.format(),
                    report=outcome.report,
                ),
            )
        permit.success()
        count("serve.execute.computed")
        assert outcome.result is not None
        body = build_body(
            request, table, outcome.result, outcome.report, chain[0].name
        )
        if outcome.report.winner != chain[0].name:
            count("serve.degraded")
        # Store *outside* the deadline scope: the result exists; failing
        # the request because persistence ran past the SLO helps nobody.
        self.cache.put(key, body)
        return ok_envelope(request, body, cache_hit=False)

    def _memoized(self, request: AnonymizeRequest) -> tuple[str, int] | None:
        """``(fingerprint, num_records)`` of a memoized registry triple.

        Only the default loader's tables are pure functions of
        ``(dataset, n, seed)``; an injected loader may serve anything
        under any name, so its requests never consult the memo.
        """
        if self.loader is not default_loader:
            return None
        with self._memo_lock:
            return self._fingerprints.get(_triple(request))

    def _fingerprint(self, request: AnonymizeRequest, table: Table) -> str:
        """Hash a loaded table; remember a registry triple's result, and
        its table for the triple's next miss (a hit that had to load,
        after a restart or an eviction, leaves it there too).

        The fingerprint always hashes the full schema and rows (every
        permissible subset included): the memo saves loading and hashing
        a triple again, never any part of what the hash covers.
        """
        fingerprint = table_fingerprint(table)
        if self.loader is default_loader:
            triple = _triple(request)
            with self._memo_lock:
                self._fingerprints.add(triple, (fingerprint, table.num_records))
            self._memoize(triple, table)
        return fingerprint

    def _memoize(self, triple: _Triple, table: Table) -> _Loaded:
        """Hold a registry triple's loaded table in the table memo, which
        keeps an entry it already holds; return the new entry."""
        loaded = _Loaded(table)
        with self._memo_lock:
            self._tables.add(
                triple, loaded, table.num_records + TABLE_MEMO_OVERHEAD_RECORDS
            )
        return loaded

    def _encoded(
        self, request: AnonymizeRequest, table: Table | None
    ) -> tuple[Table, EncodedTable]:
        """The table a miss runs on (``table`` if already loaded), with
        its encoding.

        A registry triple's table comes from the table memo, and the
        first miss on it encodes it there; two racing misses on one
        triple may both load or encode, and the first insert stays.  An
        injected loader's table is encoded afresh.
        """
        if self.loader is not default_loader:
            table = table if table is not None else self.loader(request)
            return table, EncodedTable(table)
        triple = _triple(request)
        with self._memo_lock:
            loaded = self._tables.get(triple)
        if loaded is None:
            loaded = self._memoize(
                triple, table if table is not None else self.loader(request)
            )
        if loaded.encoded is None:
            encoded = EncodedTable(loaded.table)
            with self._memo_lock:
                if loaded.encoded is None:
                    loaded.encoded = encoded
        return loaded.table, loaded.encoded


def _triple(request: AnonymizeRequest) -> _Triple:
    """The registry triple a request names: the key of both memos."""
    return (request.dataset, request.n, request.seed)
