"""The serving layer: protocol, cache hygiene, admission, recovery.

The crash-recovery invariants (byte-identical bodies, zero
recomputation, typed sheds) are exercised three ways with increasing
realism: unit tests here, the in-process chaos drill
(:func:`repro.serve.drill.run_chaos_drill`, also run here), and the
subprocess SIGKILL drill in ``tools/serve_smoke.py`` (CI).
"""

from __future__ import annotations

import json
import sys
import threading
import urllib.error
import urllib.request

import pytest

from repro.datasets.registry import dataset_names
from repro.datasets.registry import load as load_dataset
from repro.errors import RequestError, ReproError, ServiceOverloaded
from repro.obs import (
    MetricsRegistry,
    WindowedRegistry,
    default_objectives,
    metrics_scope,
)
from repro.runtime import FaultPlan, Journal, fault_scope
from repro.runtime.fallback import DEFAULT_CHAIN, Rung, run_with_fallback
from repro.runtime.retry import RetryPolicy
from repro.serve import service as service_module
from repro.serve import (
    VALID_NOTIONS,
    AdmissionGate,
    AnonymizationService,
    AnonymizeRequest,
    CircuitBreaker,
    ResultCache,
    ServiceConfig,
    build_body,
    cache_key,
    canonical_body,
    chain_for,
    default_loader,
    error_envelope,
    http_status,
    ok_envelope,
    request_mix,
    run_chaos_drill,
    serve_http,
    shed_envelope,
    table_fingerprint,
)
from repro.tabular.attribute import Attribute
from repro.tabular.encoding import EncodedTable
from repro.tabular.hierarchy import SubsetCollection, from_groups
from repro.tabular.table import Schema, Table
from repro.verify.invariants import check_inputs_unmutated, snapshot_inputs

from tests.conftest import make_random_table


class FakeClock:
    """A monotonic clock tests can step by hand."""

    def __init__(self, step: float = 0.0) -> None:
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        self.now += self.step
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _no_sleep(_seconds: float) -> None:
    """Backoff sleeper that never touches the wall clock."""


_FAST_RETRY = RetryPolicy(attempts=3, base_delay=0.0, seed=0)


def _service(**overrides) -> AnonymizationService:
    """A service sized for unit tests: no sleeping, tiny retries."""
    kwargs = dict(
        config=ServiceConfig(retry=_FAST_RETRY),
        sleeper=_no_sleep,
    )
    kwargs.update(overrides)
    return AnonymizationService(**kwargs)


def _request(**overrides) -> dict:
    payload = {"k": 2, "dataset": "art", "n": 30, "notion": "kk"}
    payload.update(overrides)
    return payload


# --------------------------------------------------------------------- #
# protocol
# --------------------------------------------------------------------- #


class TestProtocol:
    def test_from_json_normalizes_spellings(self):
        request = AnonymizeRequest.from_json(
            {"k": 3, "notion": "G1K", "measure": "ENTROPY"}
        )
        assert request.notion == "global-1k"
        assert request.measure == "entropy"

    def test_unknown_fields_are_rejected_not_defaulted(self):
        for field, value in (("notions", "kk"), ("backend", "python")):
            with pytest.raises(RequestError, match=field):
                AnonymizeRequest.from_json({"k": 2, field: value})
            envelope = _service().handle(_request(**{field: value}))
            assert envelope["status"] == "error"
            assert envelope["error"]["kind"] == "request"
            assert http_status(envelope) == 400

    def test_missing_k_and_bool_k_are_rejected(self):
        with pytest.raises(RequestError, match="missing"):
            AnonymizeRequest.from_json({})
        with pytest.raises(RequestError, match="integer"):
            AnonymizeRequest.from_json({"k": True})

    def test_bad_timeout_and_notion(self):
        with pytest.raises(RequestError, match="positive"):
            AnonymizeRequest.from_json({"k": 2, "timeout": -1})
        with pytest.raises(RequestError, match="unknown notion"):
            AnonymizeRequest.from_json({"k": 2, "notion": "zz"})

    def test_request_mix_is_seeded(self):
        assert request_mix(0, 12) == request_mix(0, 12)
        assert request_mix(0, 12) != request_mix(1, 12)

    def test_http_status_mapping(self):
        request = AnonymizeRequest(k=2)
        assert http_status(ok_envelope(request, {}, cache_hit=False)) == 200
        shed = ServiceOverloaded("full", reason="queue_full", retry_after=1.0)
        assert http_status(shed_envelope(request, shed)) == 429
        assert http_status(error_envelope(None, RequestError("bad"))) == 400
        assert http_status(error_envelope(request, ReproError("boom"))) == 500

    def test_chain_for_notions(self):
        assert chain_for("kk") == DEFAULT_CHAIN
        plain = chain_for("k")
        assert [r.name for r in plain] == ["agglomerative", "mondrian", "suppress"]
        one_k = chain_for("1k")
        assert one_k[0].name == "1k" and one_k[0].notion == "1k"
        assert [r.name for r in one_k[1:]] == [r.name for r in plain]


# --------------------------------------------------------------------- #
# cache-key hygiene (distinct QI configurations must never collide)
# --------------------------------------------------------------------- #


def _edu_table(groups: list[list[str]]) -> Table:
    """Same rows, parameterized permissible subsets (QI configuration)."""
    att = Attribute("edu", ["hs", "college", "ba", "ma", "phd"])
    coll = from_groups(att, groups) if groups else SubsetCollection(att)
    schema = Schema([coll])
    rows = [("hs",), ("college",), ("ba",), ("ma",), ("phd",), ("hs",)]
    return Table(schema, rows)


class TestCacheHygiene:
    def test_fingerprint_is_content_deterministic(self):
        assert table_fingerprint(_edu_table([])) == table_fingerprint(
            _edu_table([])
        )

    def test_same_rows_different_qi_configuration_never_collide(self):
        # Identical rows, but different permissible generalization
        # subsets: serving one's cached result for the other would be a
        # silent guarantee violation (Bettini et al.'s central point).
        plain = table_fingerprint(_edu_table([]))
        grouped = table_fingerprint(_edu_table([["hs", "college"]]))
        regrouped = table_fingerprint(_edu_table([["ma", "phd"]]))
        assert len({plain, grouped, regrouped}) == 3

    def test_distinct_notions_measures_and_k_never_collide(self):
        fingerprint = table_fingerprint(_edu_table([]))
        keys = {
            cache_key(fingerprint, k, notion, measure)
            for k in (2, 3)
            for notion in ("k", "kk", "1k")
            for measure in ("entropy", "lm")
        }
        assert len(keys) == 12

    def test_journal_roundtrip_last_write_wins(self, tmp_path):
        journal = Journal(tmp_path / "cache.jsonl")
        cache = ResultCache(journal, retry=_FAST_RETRY, sleeper=_no_sleep)
        cache.put("a", {"cost": 1})
        cache.put("b", {"cost": 2})
        cache.put("a", {"cost": 3})

        recovered = ResultCache(
            Journal(tmp_path / "cache.jsonl"),
            retry=_FAST_RETRY,
            sleeper=_no_sleep,
        )
        assert recovered.load() == 2
        assert recovered.get("a") == {"cost": 3}
        assert recovered.get("b") == {"cost": 2}

    def test_recovery_tolerates_a_torn_final_line(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = ResultCache(Journal(path), retry=_FAST_RETRY, sleeper=_no_sleep)
        cache.put("good", {"cost": 7})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"v": 1, "key": {"cache_key": "torn", "val')

        recovered = ResultCache(
            Journal(path), retry=_FAST_RETRY, sleeper=_no_sleep
        )
        assert recovered.load() == 1
        assert recovered.get("good") == {"cost": 7}

    def test_malformed_records_are_skipped_and_counted(self, tmp_path):
        journal = Journal(tmp_path / "cache.jsonl")
        journal.append({"cache_key": "stale"}, {"cache_v": 99, "body": {}})
        journal.append({"wrong": "shape"}, {"cache_v": 1, "body": {}})
        journal.append({"cache_key": "ok"}, {"cache_v": 1, "body": {"x": 1}})

        registry = MetricsRegistry()
        cache = ResultCache(
            Journal(journal.path), retry=_FAST_RETRY, sleeper=_no_sleep
        )
        with metrics_scope(registry):
            assert cache.load() == 1
        assert registry.counter("serve.cache.skipped_records") == 2
        assert cache.get("ok") == {"x": 1}

    def test_put_swallows_persistent_store_failures(self, tmp_path):
        cache = ResultCache(
            Journal(tmp_path / "cache.jsonl"),
            retry=RetryPolicy(attempts=2, base_delay=0.0, seed=0),
            sleeper=_no_sleep,
        )
        registry = MetricsRegistry()
        plan = FaultPlan().inject("serve.cache.store", times=None)
        with metrics_scope(registry), fault_scope(plan):
            cache.put("key", {"cost": 1})  # must not raise
        assert cache.get("key") == {"cost": 1}  # memory store still served
        assert registry.counter("serve.cache.store_failures") == 1


# --------------------------------------------------------------------- #
# admission control
# --------------------------------------------------------------------- #


class TestAdmissionGate:
    def test_queue_full_shed_is_typed(self):
        gate = AdmissionGate(max_inflight=1, max_queue=0, clock=FakeClock())
        gate.try_admit(None)
        assert gate.enter(timeout=None)  # occupy the only slot
        with pytest.raises(ServiceOverloaded) as err:
            gate.try_admit(None)
        assert err.value.reason == "queue_full"
        assert err.value.retry_after > 0

    def test_zero_queue_still_serves_while_slots_are_free(self):
        # max_queue=0 means "no waiting", not "no serving": a free
        # execution slot admits regardless of queue capacity.
        gate = AdmissionGate(max_inflight=2, max_queue=0, clock=FakeClock())
        gate.try_admit(None)
        assert gate.enter(timeout=None)
        gate.try_admit(None)  # second slot still free
        assert gate.enter(timeout=None)
        with pytest.raises(ServiceOverloaded) as err:
            gate.try_admit(None)  # both slots busy, nowhere to wait
        assert err.value.reason == "queue_full"

    def test_deadline_unmeetable_shed_uses_the_ewma(self):
        gate = AdmissionGate(
            max_inflight=1, max_queue=8, expected_seconds=10.0,
            clock=FakeClock(),
        )
        with pytest.raises(ServiceOverloaded) as err:
            gate.try_admit(0.5)
        assert err.value.reason == "deadline_unmeetable"
        gate.try_admit(60.0)  # a generous budget is admitted

    def test_enter_timeout_releases_the_reservation(self):
        gate = AdmissionGate(max_inflight=1, max_queue=8, clock=FakeClock())
        gate.try_admit(None)
        assert gate.enter(timeout=None)  # takes the only slot
        gate.try_admit(None)
        assert not gate.enter(timeout=0.0)  # no slot; bounded, not a hang
        assert gate.stats().queued == 0  # the reservation was released

    def test_leave_folds_service_time_into_the_ewma(self):
        gate = AdmissionGate(
            max_inflight=1, max_queue=8, expected_seconds=1.0,
            ewma_alpha=0.5, clock=FakeClock(),
        )
        gate.try_admit(None)
        gate.enter(timeout=None)
        gate.leave(3.0)
        assert gate.stats().ewma_seconds == pytest.approx(2.0)


class TestCircuitBreaker:
    def test_trips_after_threshold_and_cools_down(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=2, reset_after=10.0, clock=clock
        )
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        assert breaker.retry_after() == pytest.approx(10.0)

    def test_half_open_admits_exactly_one_probe(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, reset_after=5.0, clock=clock
        )
        breaker.record_failure()
        clock.advance(5.0)
        assert breaker.allow()  # the probe
        assert breaker.state == "half-open"
        assert not breaker.allow()  # a second concurrent probe is refused
        breaker.record_failure()  # the probe failed: reopen
        assert breaker.state == "open"
        clock.advance(5.0)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed"

    def test_released_probe_is_available_to_the_next_request(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, reset_after=5.0, clock=clock
        )
        breaker.record_failure()
        clock.advance(5.0)
        permit = breaker.acquire()
        assert permit is not None and permit.is_probe
        assert breaker.acquire() is None  # the probe is held
        permit.release()  # request exited without touching the backend
        assert breaker.state == "half-open"
        again = breaker.acquire()  # NOT wedged: the probe is free again
        assert again is not None and again.is_probe
        again.failure()
        assert breaker.state == "open"

    def test_permit_resolution_is_once_only(self):
        breaker = CircuitBreaker(failure_threshold=1, clock=FakeClock())
        permit = breaker.acquire()
        assert permit is not None and not permit.is_probe
        permit.failure()  # trips (threshold 1)
        assert breaker.state == "open"
        permit.success()  # no-op: already resolved
        permit.release()  # no-op: already resolved
        assert breaker.state == "open"


# --------------------------------------------------------------------- #
# the service
# --------------------------------------------------------------------- #


class TestService:
    def test_happy_path_envelope_and_cache_hit(self):
        service = _service()
        first = service.handle(_request())
        assert first["status"] == "ok"
        guarantee = first["body"]["guarantee"]
        assert guarantee["requested_notion"] == "kk"
        assert guarantee["winner"] == "kk"
        assert guarantee["degraded"] is False
        assert first["body"]["result"]["rows"]
        assert first["meta"]["cache_hit"] is False

        second = service.handle(_request())
        assert second["meta"]["cache_hit"] is True
        assert second["body"] == first["body"]
        assert service.registry.counter("serve.execute.computed") == 1

    def test_bad_payload_is_a_request_error_not_an_exception(self):
        envelope = _service().handle({"k": "two"})
        assert envelope["status"] == "error"
        assert envelope["error"]["kind"] == "request"
        assert http_status(envelope) == 400

    def test_k_larger_than_table_is_a_request_error(self):
        envelope = _service().handle(_request(k=100, n=30))
        assert envelope["status"] == "error"
        assert envelope["error"]["kind"] == "request"

    def test_degradation_is_reported_never_silent(self):
        service = _service()
        plan = FaultPlan().inject("core.kk.couple", times=None)
        with fault_scope(plan):
            envelope = service.handle(_request())
        assert envelope["status"] == "ok"
        guarantee = envelope["body"]["guarantee"]
        assert guarantee["degraded"] is True
        assert guarantee["winner"] == "agglomerative"
        assert guarantee["requested_notion"] == "kk"
        attempts = envelope["body"]["fallback"]["attempts"]
        assert attempts[0] == {"name": "kk", "status": "error"}
        assert service.registry.counter("serve.degraded") == 1

    def test_transient_faults_are_absorbed_by_retry(self):
        service = _service()
        plan = (
            FaultPlan()
            .inject("serve.accept", times=1)
            .inject("serve.enqueue", times=1)
            .inject("serve.execute", times=1)
        )
        with fault_scope(plan):
            envelope = service.handle(_request())
        assert envelope["status"] == "ok"
        assert {site for site, _ in plan.fired} == {
            "serve.accept", "serve.enqueue", "serve.execute",
        }

    def test_custom_loader_tables_get_distinct_cache_entries(self):
        tables = {
            "flat": _edu_table([]),
            "grouped": _edu_table([["hs", "college"]]),
        }
        service = _service(
            loader=lambda request: tables[request.dataset]
        )
        flat = service.handle(_request(dataset="flat", n=None, notion="k"))
        grouped = service.handle(
            _request(dataset="grouped", n=None, notion="k")
        )
        assert flat["status"] == grouped["status"] == "ok"
        assert grouped["meta"]["cache_hit"] is False  # no QI-config collision
        assert len(service.cache) == 2

    def test_breaker_open_sheds_with_retry_after(self):
        clock = FakeClock()
        service = _service(
            config=ServiceConfig(retry=_FAST_RETRY, breaker_threshold=2),
            clock=clock,
        )
        service.breaker.record_failure()
        service.breaker.record_failure()
        envelope = service.handle(_request())
        assert envelope["status"] == "shed"
        assert envelope["shed"]["reason"] == "breaker_open"
        assert envelope["shed"]["retry_after"] > 0
        assert http_status(envelope) == 429

    def test_half_open_probe_survives_cache_hits_and_bad_requests(self):
        # Regression: a request that claims the half-open probe but
        # exits before exercising the backend (cache hit, invalid
        # input) must hand the probe back — a leaked probe sheds every
        # later request as breaker_open until restart.
        clock = FakeClock()
        service = _service(
            config=ServiceConfig(retry=_FAST_RETRY, breaker_threshold=1),
            clock=clock,
        )
        primed = service.handle(_request())
        assert primed["status"] == "ok"
        service.breaker.record_failure()  # trips (threshold 1)
        assert service.breaker.state == "open"
        clock.advance(service.config.breaker_reset)

        hit = service.handle(_request())  # claims the probe, cache-hits
        assert hit["status"] == "ok" and hit["meta"]["cache_hit"]
        assert service.breaker.state == "half-open"

        bad = service.handle(_request(k=100))  # claims the probe, k > n
        assert bad["status"] == "error"
        assert bad["error"]["kind"] == "request"
        assert service.breaker.state == "half-open"

        fresh = service.handle(_request(k=3))  # the probe finally computes
        assert fresh["status"] == "ok"
        assert service.breaker.state == "closed"

    def test_accept_fault_exhaustion_is_an_envelope_not_an_exception(self):
        service = _service()
        plan = FaultPlan().inject("serve.accept", times=None)
        with fault_scope(plan):
            envelope = service.handle(_request())
        assert envelope["status"] == "error"
        assert http_status(envelope) == 500

    def test_retries_share_the_request_deadline(self):
        # Regression: each retry attempt must resume the *remaining*
        # client budget, not restart a fresh per-attempt deadline —
        # otherwise a faulty backend can hold a request for
        # attempts × budget.
        clock = FakeClock()

        def burning_sleeper(_seconds: float) -> None:
            clock.advance(10.0)  # one backoff overshoots the whole budget

        service = _service(
            config=ServiceConfig(
                retry=RetryPolicy(attempts=3, base_delay=0.01, seed=0)
            ),
            clock=clock,
            sleeper=burning_sleeper,
        )
        plan = FaultPlan().inject("serve.execute", times=1)
        with fault_scope(plan):
            envelope = service.handle(_request(timeout=5.0))
        # The retried attempt sees the budget already spent, so every
        # rung is skipped instead of running past the SLO.
        assert envelope["status"] == "error"
        assert envelope["error"]["kind"] == "exhausted"

    def test_unmeetable_deadline_sheds_instead_of_hanging(self):
        service = _service(
            config=ServiceConfig(retry=_FAST_RETRY, expected_seconds=10.0),
        )
        envelope = service.handle(_request(timeout=0.5))
        assert envelope["status"] == "shed"
        assert envelope["shed"]["reason"] == "deadline_unmeetable"

    def test_restart_serves_byte_identical_bodies_with_zero_recompute(
        self, tmp_path
    ):
        journal_path = tmp_path / "cache.jsonl"
        mix = request_mix(0, 4)

        first = _service(
            cache=ResultCache(
                Journal(journal_path), retry=_FAST_RETRY, sleeper=_no_sleep
            ),
        )
        reference = [first.handle(r) for r in mix]
        assert all(e["status"] == "ok" for e in reference)

        second = _service(
            cache=ResultCache(
                Journal(journal_path), retry=_FAST_RETRY, sleeper=_no_sleep
            ),
        )
        assert second.recover() == len(second.cache)
        assert second.recover() > 0
        replayed = [second.handle(r) for r in mix]
        assert [canonical_body(e) for e in replayed] == [
            canonical_body(e) for e in reference
        ]
        assert all(e["meta"]["cache_hit"] for e in replayed)
        assert second.registry.counter("serve.execute.computed") == 0

    def test_stats_snapshot_shape(self):
        service = _service()
        service.handle(_request())
        stats = service.stats()
        assert stats["queued"] == 0
        assert stats["inflight"] == 0
        assert stats["breaker"] == "closed"
        assert stats["cached_bodies"] == 1


# --------------------------------------------------------------------- #
# load-free cache hits (the bounded fingerprint memo)
# --------------------------------------------------------------------- #


@pytest.fixture
def loads(monkeypatch):
    """Every registry load the service makes, in order."""
    calls = []
    load = service_module.load_dataset

    def counting_load(*args, **kwargs):
        calls.append(args)
        return load(*args, **kwargs)

    monkeypatch.setattr(service_module, "load_dataset", counting_load)
    return calls


def _gauges(service: AnonymizationService) -> dict:
    service.refresh_health_gauges()
    return service.registry.snapshot()["gauges"]


class TestLoadFreeHits:
    """A registry triple's fingerprint and size are memoized, so a hit
    on it never regenerates the dataset; injected loaders bypass that."""

    def test_hit_loads_nothing_and_serves_the_miss_body(self, loads):
        service = _service()
        miss = service.handle(_request())
        assert len(loads) == 1 and not miss["meta"]["cache_hit"]
        hit = service.handle(_request())
        assert hit["meta"]["cache_hit"]
        assert len(loads) == 1
        assert canonical_body(hit) == canonical_body(miss)
        # A miss on a memoized triple runs on the memoized table and its
        # encoding: it neither loads nor hashes anything new.
        other = service.handle(_request(k=3))
        assert not other["meta"]["cache_hit"] and len(loads) == 1

    def test_k_above_n_on_a_memoized_triple_is_the_same_400(self, loads):
        fresh = _service().handle(_request(k=100))
        service = _service()
        service.handle(_request())
        loaded = len(loads)
        memoized = service.handle(_request(k=100))
        assert len(loads) == loaded  # rejected from the memo, unloaded
        assert http_status(memoized) == http_status(fresh) == 400
        assert {k: v for k, v in memoized.items() if k != "meta"} == {
            k: v for k, v in fresh.items() if k != "meta"
        }

    def test_injected_loader_runs_on_every_request(self, loads):
        calls = []

        def loader(request):
            calls.append(request)
            return default_loader(request)

        service = _service(loader=loader)
        first = service.handle(_request())
        second = service.handle(_request())
        assert second["meta"]["cache_hit"]
        assert canonical_body(first) == canonical_body(second)
        assert len(calls) == len(loads) == 2
        third = service.handle(_request(k=3))  # misses bypass both memos
        assert not third["meta"]["cache_hit"]
        assert len(calls) == len(loads) == 3
        gauges = _gauges(service)
        assert gauges["serve.cache.fingerprints"] == 0.0
        assert gauges["serve.cache.tables"] == 0.0

    def test_evicted_triple_reloads_to_the_same_fingerprint(
        self, loads, monkeypatch
    ):
        monkeypatch.setattr(service_module, "FINGERPRINT_MEMO_SIZE", 2)
        service = _service()
        for n in (30, 31, 32):  # the n=30 triple falls out of the memo
            assert service.handle(_request(n=n))["status"] == "ok"
        assert len(loads) == 3
        assert _gauges(service)["serve.cache.fingerprints"] == 2.0
        again = service.handle(_request(n=30))
        assert len(loads) == 4  # evicted: loaded and hashed again...
        assert again["meta"]["cache_hit"]  # ...to the same cache key
        assert service.handle(_request(n=32))["meta"]["cache_hit"]
        assert len(loads) == 4

    def test_memo_stays_bounded_under_racing_threads(self, monkeypatch):
        monkeypatch.setattr(service_module, "FINGERPRINT_MEMO_SIZE", 2)
        service = _service(
            config=ServiceConfig(
                retry=_FAST_RETRY, max_inflight=8, max_queue=64
            )
        )
        envelopes = []

        def client(i):
            envelopes.append((i % 4, service.handle(_request(n=30 + i % 4))))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=client, args=(i,)) for i in range(16)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(envelopes) == 16
        assert all(env["status"] == "ok" for _, env in envelopes)
        for n in range(4):  # every answer for one triple is one body
            bodies = {canonical_body(env) for m, env in envelopes if m == n}
            assert len(bodies) == 1
        assert _gauges(service)["serve.cache.fingerprints"] == 2.0

    def test_memo_size_is_a_metricz_gauge(self):
        service = _service()
        server, base = _serve_in_thread(service)
        try:
            for n in (30, 31):
                status, _ = _http_post(base, _request(n=n))
                assert status == 200
            status, _, body = _http_get(base + "/metricz")
            assert status == 200
            assert json.loads(body)["gauges"]["serve.cache.fingerprints"] == 2.0
        finally:
            server.shutdown()
            server.server_close()


# --------------------------------------------------------------------- #
# load- and encode-once misses (the bounded table memo)
# --------------------------------------------------------------------- #


def _table_bound(*sizes: int) -> int:
    """A table-memo bound that holds exactly tables of these sizes."""
    return sum(n + service_module.TABLE_MEMO_OVERHEAD_RECORDS for n in sizes)


def _fresh_body(**overrides) -> str:
    """The body a service computes on a fresh load, outside every memo
    (an injected loader, and a load the ``loads`` fixture does not see)."""

    def fresh_load(request):
        return load_dataset(request.dataset, n=request.n, seed=request.seed)

    service = _service(loader=fresh_load)
    return canonical_body(service.handle(_request(**overrides)))


class TestTableMemo:
    """A miss on a registry triple runs on the memoized table and its
    encoding: every triple is loaded and encoded once while memoized,
    and every body is the one a fresh load would give."""

    def test_lru_keeps_the_first_insert_and_evicts_by_weight(self):
        lru = service_module._LRU(10)
        lru.add("a", 1, 4)
        lru.add("a", 2, 4)  # a racing second insert of the same key
        assert lru.get("a") == 1 and lru.weight == 4
        lru.add("b", 3, 5)
        lru.get("a")  # "b" is now the least recently used
        lru.add("c", 4, 5)
        assert (lru.get("b"), lru.get("a"), lru.get("c")) == (None, 1, 4)
        lru.add("d", 5, 11)  # heavier than the bound: held never, and
        assert len(lru) == 2 and lru.weight == 9  # nothing evicted for it

    @pytest.mark.parametrize("dataset", dataset_names())
    def test_chains_share_one_encoding(self, dataset):
        table = load_dataset(dataset, n=150, seed=1)
        shared = EncodedTable(table)
        before = snapshot_inputs(shared)
        for notion in VALID_NOTIONS:
            chain = chain_for(notion)
            for measure in ("lm", "entropy"):
                request = AnonymizeRequest(
                    k=3, dataset=dataset, n=150, seed=1,
                    notion=notion, measure=measure,
                )
                bodies = []
                for enc in (shared, EncodedTable(table)):
                    outcome = run_with_fallback(
                        table, 3, chain=chain, measure=measure, encoded=enc
                    )
                    body = build_body(
                        request, table, outcome.require(), outcome.report,
                        chain[0].name,
                    )
                    bodies.append(canonical_body({"body": body}))
                assert bodies[0] == bodies[1], (notion, measure)
        assert check_inputs_unmutated(shared, before, "shared", "chains") == []

    @pytest.mark.parametrize("dataset", ["art", "cmc", "adult"])
    def test_rows_are_the_decoded_labels(self, dataset):
        table = load_dataset(dataset, n=40, seed=2)
        enc = EncodedTable(table)
        request = AnonymizeRequest(k=3, dataset=dataset, n=40, seed=2)
        suppress = (Rung("suppress", algorithm="suppress"),)
        for chain in [chain_for(notion) for notion in VALID_NOTIONS] + [suppress]:
            outcome = run_with_fallback(table, 3, chain=chain, encoded=enc)
            result = outcome.require()
            body = build_body(
                request, table, result, outcome.report, chain[0].name
            )
            assert body["result"]["rows"] == [
                list(row) for row in result.generalized.labels()
            ]
            assert result.generalized is result.generalized  # decoded once

    def test_misses_load_and_encode_once_per_triple(self, loads, monkeypatch):
        keys = [(n, k) for k in (2, 3, 4) for n in (30, 31)]
        expected = {key: _fresh_body(n=key[0], k=key[1]) for key in keys}
        encodes = []
        encoded_table = service_module.EncodedTable

        def counting_encode(table):
            encodes.append(table)
            return encoded_table(table)

        monkeypatch.setattr(service_module, "EncodedTable", counting_encode)
        service = _service()
        for n, k in keys:
            envelope = service.handle(_request(n=n, k=k))
            assert not envelope["meta"]["cache_hit"]
            assert canonical_body(envelope) == expected[n, k]
        assert len(loads) == 2 and len(encodes) == 2
        assert _gauges(service)["serve.cache.tables"] == 2.0

    def test_evicted_triple_reloads_to_the_same_fingerprint_and_body(
        self, loads, monkeypatch
    ):
        monkeypatch.setattr(service_module, "FINGERPRINT_MEMO_SIZE", 2)
        monkeypatch.setattr(
            service_module, "TABLE_MEMO_RECORDS", _table_bound(31, 32)
        )
        service = _service()
        first = service.handle(_request(n=30))
        for n in (31, 32):  # the n=30 triple falls out of both memos
            assert service.handle(_request(n=n))["status"] == "ok"
        assert len(loads) == 3
        assert _gauges(service)["serve.cache.tables"] == 2.0
        again = service.handle(_request(n=30))
        assert len(loads) == 4  # loaded and hashed again...
        assert again["meta"]["cache_hit"]  # ...to the same cache key
        assert canonical_body(again) == canonical_body(first)
        miss = service.handle(_request(n=30, k=3))
        assert len(loads) == 4  # the hit memoized its table for this miss
        assert canonical_body(miss) == _fresh_body(n=30, k=3)
        assert service.handle(_request(n=30, k=4))["status"] == "ok"
        assert len(loads) == 4
        assert _gauges(service)["serve.cache.tables"] == 2.0

    def test_a_loading_hit_memoizes_its_table_but_encodes_nothing(
        self, loads, monkeypatch
    ):
        expected = _fresh_body(k=3)
        encodes = []
        encoded_table = service_module.EncodedTable

        def counting_encode(table):
            encodes.append(table)
            return encoded_table(table)

        monkeypatch.setattr(service_module, "EncodedTable", counting_encode)
        cache = ResultCache(retry=_FAST_RETRY, sleeper=_no_sleep)
        _service(cache=cache).handle(_request())
        assert len(loads) == len(encodes) == 1
        restarted = _service(cache=cache)  # the bodies survive, no memo does
        hit = restarted.handle(_request())
        assert hit["meta"]["cache_hit"]
        assert len(loads) == 2 and len(encodes) == 1  # loaded to hash it
        assert _gauges(restarted)["serve.cache.tables"] == 1.0
        miss = restarted.handle(_request(k=3))
        assert canonical_body(miss) == expected
        assert len(loads) == 2 and len(encodes) == 2  # encoded, not loaded

    def test_table_above_the_bound_is_served_but_not_memoized(
        self, loads, monkeypatch
    ):
        monkeypatch.setattr(
            service_module, "TABLE_MEMO_RECORDS", _table_bound(30)
        )
        service = _service()
        service.handle(_request(n=30))
        for k in (2, 3):  # n=31 is charged more than the whole bound
            envelope = service.handle(_request(n=31, k=k))
            assert not envelope["meta"]["cache_hit"]
            assert canonical_body(envelope) == _fresh_body(n=31, k=k)
        assert len(loads) == 3  # the second n=31 miss loaded afresh...
        assert service.handle(_request(n=30, k=3))["status"] == "ok"
        assert len(loads) == 3  # ...and evicted nothing to make room
        assert _gauges(service)["serve.cache.tables"] == 1.0

    def test_failed_loads_memoize_nothing(self, loads, monkeypatch):
        monkeypatch.setattr(
            service_module, "TABLE_MEMO_RECORDS", _table_bound(31)
        )
        service = _service()
        unknown = service.handle(_request(dataset="nope"))
        assert http_status(unknown) == 400  # a DatasetError
        for n in (30, 31):  # n=30's table is evicted, its fingerprint kept
            assert service.handle(_request(n=n))["status"] == "ok"
        plan = FaultPlan().inject("datasets.load")
        with fault_scope(plan):
            faulted = service.handle(_request(n=30, k=3))
        assert faulted["status"] == "error" and plan.fired
        gauges = _gauges(service)
        assert gauges["serve.cache.tables"] == 1.0  # still n=31's alone
        assert gauges["serve.cache.fingerprints"] == 2.0
        retried = service.handle(_request(n=30, k=3))
        assert canonical_body(retried) == _fresh_body(n=30, k=3)
        assert len(loads) == 5  # the faulted load counts as an attempt
        assert _gauges(service)["serve.cache.tables"] == 1.0  # now n=30's

    def test_table_memo_stays_bounded_under_racing_threads(
        self, monkeypatch
    ):
        monkeypatch.setattr(
            service_module, "TABLE_MEMO_RECORDS", _table_bound(32, 33)
        )
        service = _service(
            config=ServiceConfig(
                retry=_FAST_RETRY, max_inflight=8, max_queue=64
            )
        )
        envelopes = []

        def client(i):
            # Four triples, two keys each: every triple is missed by
            # racing requests while the memo evicts the others.
            n, k = 30 + i % 4, 2 + (i // 4) % 2
            envelopes.append(((n, k), service.handle(_request(n=n, k=k))))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=client, args=(i,)) for i in range(16)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(envelopes) == 16
        assert all(env["status"] == "ok" for _, env in envelopes)
        for key in {key for key, _ in envelopes}:
            bodies = {canonical_body(env) for m, env in envelopes if m == key}
            assert bodies == {_fresh_body(n=key[0], k=key[1])}
        assert _gauges(service)["serve.cache.tables"] == 2.0


# --------------------------------------------------------------------- #
# fallback clock injection (no hidden wall-clock reads)
# --------------------------------------------------------------------- #


class TestFallbackClock:
    def test_rung_timings_come_from_the_injected_clock(self):
        table = make_random_table(12, seed=3)
        clock = FakeClock(step=1.0)  # each read advances a full second
        outcome = run_with_fallback(table, 2, clock=clock)
        assert outcome.ok
        # A real clock would time these rungs in microseconds; whole
        # seconds prove every Timer read went through the fake.
        assert all(a.seconds >= 1.0 for a in outcome.report.attempts)


# --------------------------------------------------------------------- #
# HTTP transport + chaos drill
# --------------------------------------------------------------------- #


class TestHTTP:
    @pytest.fixture
    def server(self):
        service = _service()
        server = serve_http(service, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        yield f"http://127.0.0.1:{server.port}"
        server.shutdown()
        server.server_close()

    def _post(self, url, payload):
        data = json.dumps(payload).encode("utf-8")
        req = urllib.request.Request(
            url + "/anonymize", data=data, method="POST",
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(req, timeout=30) as resp:
                return resp.status, json.loads(resp.read())
        except urllib.error.HTTPError as err:
            return err.code, json.loads(err.read())

    def test_end_to_end_statuses(self, server):
        status, envelope = self._post(server, _request())
        assert status == 200
        assert envelope["body"]["guarantee"]["k"] == 2

        status, envelope = self._post(server, {"k": -1})
        assert status == 400
        assert envelope["error"]["kind"] == "request"

        with urllib.request.urlopen(server + "/healthz", timeout=30) as resp:
            health = json.loads(resp.read())
        assert health["breaker"] == "closed"
        with urllib.request.urlopen(server + "/metricz", timeout=30) as resp:
            metrics = json.loads(resp.read())
        assert metrics["counters"]["serve.requests"] == 2


class TestChaosDrill:
    def test_the_drill_passes(self, tmp_path):
        report = run_chaos_drill(tmp_path / "drill.jsonl")
        assert report.ok, report.format()
        assert len(report.checks) >= 8


# --------------------------------------------------------------------- #
# live telemetry (opt-in): windows, SLOs, flight, health gauges
# --------------------------------------------------------------------- #


def _live_service(
    clock=None, loader=None, **config_overrides
) -> AnonymizationService:
    kwargs = dict(retry=_FAST_RETRY, live_telemetry=True)
    kwargs.update(config_overrides)
    service_kwargs = {"sleeper": _no_sleep}
    if clock is not None:
        service_kwargs["clock"] = clock
    if loader is not None:
        service_kwargs["loader"] = loader
    return AnonymizationService(ServiceConfig(**kwargs), **service_kwargs)


def _slow_loader(clock: FakeClock, seconds: float):
    """A loader that takes ``seconds`` of fake time per request.

    The latency a test drives is then exactly what it injects, however
    many times the request path reads the (otherwise frozen) clock.
    """

    def load(request):
        clock.advance(seconds)
        return default_loader(request)

    return load


def _serve_in_thread(service):
    server = serve_http(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, f"http://127.0.0.1:{server.port}"


def _http_get(url, headers=None):
    req = urllib.request.Request(url, headers=headers or {})
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, resp.headers.get("Content-Type", ""), resp.read()
    except urllib.error.HTTPError as err:
        return err.code, err.headers.get("Content-Type", ""), err.read()


def _http_post(url, payload):
    data = json.dumps(payload).encode("utf-8")
    req = urllib.request.Request(
        url + "/anonymize", data=data, method="POST",
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


class TestLiveTelemetry:
    def test_default_off_is_byte_identical_and_unannotated(self):
        # The purity contract: enabling telemetry must not change a
        # single response byte, and the default-off service must carry
        # zero new keys in its historical payloads.
        off, on = _service(), _live_service()
        off_env = off.handle(_request())
        on_env = on.handle(_request())
        assert canonical_body(off_env) == canonical_body(on_env)
        assert off_env["request"] == on_env["request"]
        assert sorted(off.stats()) == sorted(on.stats())
        health = off.health()
        assert health["status"] == "ok"
        assert "slo" not in health
        assert off.flight is None and off.slo is None
        assert not isinstance(off.registry, WindowedRegistry)
        assert isinstance(on.registry, WindowedRegistry)

    def test_window_and_debugz_require_live_telemetry(self):
        server, base = _serve_in_thread(_service())
        try:
            status, _, body = _http_get(base + "/metricz?window=60")
            assert status == 400
            assert b"live telemetry" in body
            status, _, body = _http_get(base + "/debugz")
            assert status == 400
            assert b"flight recorder disabled" in body
            # ...but the plain snapshot still carries the health gauges.
            status, _, body = _http_get(base + "/metricz")
            assert status == 200
            gauges = json.loads(body)["gauges"]
            for name in (
                "serve.gate.depth",
                "serve.breaker.state",
                "serve.cache.entries",
                "serve.cache.journal_bytes",
            ):
                assert name in gauges, name
        finally:
            server.shutdown()
            server.server_close()

    def test_live_endpoints_end_to_end(self):
        server, base = _serve_in_thread(_live_service())
        try:
            status, envelope = _http_post(base, _request())
            assert status == 200 and envelope["status"] == "ok"

            status, ctype, body = _http_get(base + "/metricz?window=60")
            assert status == 200 and "application/json" in ctype
            snap = json.loads(body)
            assert snap["v"] == 2
            assert snap["window"]["seconds"] == 60.0
            assert snap["window"]["counters"]["serve.requests"] >= 1

            status, ctype, body = _http_get(
                base + "/metricz?window=60&format=text"
            )
            assert status == 200
            assert ctype.startswith("text/plain")
            assert b"repro_serve_requests_total" in body
            assert b'window="60"' in body

            # Content negotiation: an Accept header alone selects text.
            status, ctype, _ = _http_get(
                base + "/metricz", headers={"Accept": "text/plain"}
            )
            assert status == 200 and ctype.startswith("text/plain")

            status, _, body = _http_get(base + "/metricz?format=yaml")
            assert status == 400

            status, _, body = _http_get(base + "/debugz")
            assert status == 200
            flight = json.loads(body)
            assert flight["entries"][0]["kind"] == "request"
            assert flight["entries"][0]["summary"]["status"] == "ok"

            status, _, body = _http_get(base + "/healthz")
            health = json.loads(body)
            assert health["status"] in ("ok", "warn", "breach")
            assert [o["objective"]["name"] for o in health["slo"]] == [
                "latency-p99", "error-ratio", "shed-ratio",
            ]
        finally:
            server.shutdown()
            server.server_close()

    def test_metricz_survives_hammering_threads(self):
        # ThreadingHTTPServer serves each request on its own thread;
        # concurrent scrapes and POSTs must never corrupt a snapshot or
        # error out while the windowed registry is being written.
        server, base = _serve_in_thread(_live_service())
        failures: list[str] = []

        def scrape(path, check):
            for _ in range(10):
                status, _, body = _http_get(base + path)
                if status != 200:
                    failures.append(f"{path} -> {status}")
                    return
                try:
                    check(body)
                except Exception as exc:  # pragma: no cover - diagnostic
                    failures.append(f"{path}: {exc}")
                    return

        def post():
            for _ in range(5):
                status, envelope = _http_post(base, _request())
                if status != 200 or envelope["status"] != "ok":
                    failures.append(f"POST -> {status}")
                    return

        threads = [threading.Thread(target=post) for _ in range(2)]
        threads += [
            threading.Thread(
                target=scrape,
                args=("/metricz?window=60", lambda b: json.loads(b)["window"]),
            )
            for _ in range(3)
        ]
        threads += [
            threading.Thread(
                target=scrape,
                args=(
                    "/metricz?format=text",
                    lambda b: b.index(b"repro_"),
                ),
            )
            for _ in range(2)
        ]
        threads += [
            threading.Thread(
                target=scrape,
                args=("/debugz", lambda b: json.loads(b)["entries"]),
            )
        ]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert failures == []
            status, _, body = _http_get(base + "/metricz?window=60")
            assert status == 200
            snap = json.loads(body)
            assert snap["counters"]["serve.requests"] == 10
            assert snap["window"]["counters"]["serve.requests"] == 10
        finally:
            server.shutdown()
            server.server_close()

    def test_fake_clock_regression_trips_slo_once(self, tmp_path):
        # Every request loads its table for 1 s of fake time against a
        # 500 ms p99 target: the first request crosses the breach edge,
        # and — critically — staying breached must not write a second
        # dump.
        flight_path = tmp_path / "flight.json"
        clock = FakeClock()
        service = _live_service(
            clock=clock,
            loader=_slow_loader(clock, 1.0),
            flight_journal=str(flight_path),
            window_horizon_seconds=600.0,
            objectives=default_objectives(latency_target=0.5),
        )
        for _ in range(3):
            assert service.handle(_request())["status"] == "ok"
        assert service.registry.counter("serve.slo.breaches") == 1
        assert service.registry.counter("serve.flight.dumps") == 1
        assert service.flight_dumps == 1
        assert flight_path.is_file()
        assert service.slo_status() == "breach"
        dump = json.loads(flight_path.read_text())
        kinds = [entry["kind"] for entry in dump["entries"]]
        assert "breach" in kinds

        # Still breached: more traffic, still exactly one dump.
        service.handle(_request())
        assert service.flight_dumps == 1
        assert service.registry.counter("serve.slo.breaches") == 1

        assert isinstance(service.registry, WindowedRegistry)
        snap = service.registry.window_snapshot(60.0)
        window = snap["window"]
        requests = window["counters"]["serve.requests"]
        assert requests == 4
        assert window["rates"]["serve.requests"] == pytest.approx(
            requests / 60.0
        )
        assert window["quantiles"]["serve.request_seconds"]["p99"] > 0.5
        health = service.health()
        assert health["status"] == "breach"

    def test_slo_advisory_halves_the_breaker_and_inflates_waits(self, tmp_path):
        clock = FakeClock()
        service = _live_service(
            clock=clock,
            loader=_slow_loader(clock, 1.0),
            slo_advisory=True,
            window_horizon_seconds=600.0,
            objectives=default_objectives(latency_target=0.5),
        )
        baseline = _live_service()
        assert baseline.gate._pressure == 1.0
        service.handle(_request())
        assert service.slo_status() == "breach"
        # Level-triggered advisory: pressure doubled, breaker paranoid.
        assert service.gate._pressure == 2.0
        assert service.breaker._advised_pressure is True
        threshold = service.config.breaker_threshold
        for _ in range(max(1, threshold // 2)):
            service.breaker.record_failure()
        assert service.breaker.state == "open"
