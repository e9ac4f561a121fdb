"""The chaos drill: faults at every serve site, crash, recover, verify.

:func:`run_chaos_drill` is the executable form of the serving layer's
robustness contract:

1. **Reference pass** — a pristine service answers a deterministic
   request mix; every response must be ``ok``.
2. **Faulted pass** — a journal-backed service answers the same mix
   under a :class:`~repro.runtime.FaultPlan` injecting one fault at
   *every* ``serve.*`` site; the seeded retries must absorb all of
   them and every body must be byte-identical to the reference.
3. **Crash + recovery** — a brand-new service (the in-memory state a
   SIGKILL destroys) replays the same journal, serves the mix again,
   and must produce byte-identical bodies with **zero** recomputed
   cells (the ``serve.execute.computed`` counter stays at 0).
4. **Overload** — with the gate saturated, requests must come back as
   *typed* sheds (``deadline_unmeetable``, ``queue_full``,
   ``breaker_open``) — never a hang, never a silently degraded
   guarantee.
5. **Live telemetry** — a service with windowed telemetry on a ticking
   fake clock suffers a synthetic latency regression; the SLO monitor
   must count exactly one breach edge, write exactly one atomic flight
   dump, keep the request mix in the flight ring, and degrade
   ``/healthz`` from ``ok``.

``tools/serve_smoke.py`` runs the same contract over real HTTP with a
real SIGKILL; this in-process version is deterministic enough for the
test suite.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.obs import KNOWN_SITES, default_objectives
from repro.obs.windows import WindowedRegistry
from repro.runtime.faults import FaultPlan, fault_scope
from repro.runtime.journal import Journal
from repro.runtime.retry import RetryPolicy
from repro.serve.cache import ResultCache
from repro.serve.protocol import request_mix
from repro.serve.service import AnonymizationService, ServiceConfig

#: Every fault site the serving layer registers.
SERVE_SITES = tuple(sorted(s for s in KNOWN_SITES if s.startswith("serve.")))


@dataclass(frozen=True)
class DrillCheck:
    """One assertion of the drill, with its evidence."""

    name: str
    ok: bool
    detail: str = ""


@dataclass
class DrillReport:
    """All checks of one drill run."""

    checks: list[DrillCheck] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether every check passed."""
        return all(check.ok for check in self.checks)

    def format(self) -> str:
        """Human-readable pass/fail listing."""
        lines = [f"chaos drill: {'PASS' if self.ok else 'FAIL'}"]
        for check in self.checks:
            mark = "ok  " if check.ok else "FAIL"
            line = f"  [{mark}] {check.name}"
            if check.detail:
                line += f"  {check.detail}"
            lines.append(line)
        return "\n".join(lines)

    def record(self, name: str, ok: bool, detail: str = "") -> None:
        """Append one check."""
        self.checks.append(DrillCheck(name, ok, detail))


def canonical_body(envelope: dict[str, Any]) -> str:
    """The byte-stable serialization of a response's cacheable body."""
    return json.dumps(envelope.get("body"), sort_keys=True, separators=(",", ":"))


def _no_sleep(_seconds: float) -> None:
    """Drill sleeper: backoff delays are schedule-checked, not waited."""


class _TickClock:
    """Fake monotonic clock: every read advances by a fixed step.

    Any code path that reads time (timers, deadlines, window buckets)
    therefore observes strictly increasing, fully deterministic
    timestamps — and a request whose handling touches the clock a few
    hundred times appears to take a few seconds, which is the synthetic
    latency regression phase 5 relies on.
    """

    def __init__(self, step: float) -> None:
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        self.now += self.step
        return self.now


def _drill_config() -> ServiceConfig:
    return ServiceConfig(
        max_inflight=2,
        max_queue=8,
        default_timeout=60.0,
        retry=RetryPolicy(attempts=3, base_delay=0.0, seed=0),
    )


def _serve_mix(
    service: AnonymizationService, mix: list[Any]
) -> tuple[list[str], list[str]]:
    """(statuses, canonical bodies) of the mix served in order."""
    statuses: list[str] = []
    bodies: list[str] = []
    for request in mix:
        envelope = service.handle(request.to_json())
        statuses.append(envelope["status"])
        bodies.append(canonical_body(envelope))
    return statuses, bodies


def run_chaos_drill(
    journal_path: str | Path, *, requests: int = 6, seed: int = 0
) -> DrillReport:
    """Run the full drill; see the module docstring for the phases.

    ``journal_path`` must be a writable location in a fresh directory —
    the drill owns the file.
    """
    report = DrillReport()
    mix = request_mix(seed, requests)
    journal_path = Path(journal_path)

    # Phase 1: undisturbed reference (memory-only cache).
    reference = AnonymizationService(_drill_config(), sleeper=_no_sleep)
    ref_statuses, ref_bodies = _serve_mix(reference, mix)
    report.record(
        "reference.all_ok",
        all(status == "ok" for status in ref_statuses),
        f"statuses={sorted(set(ref_statuses))}",
    )

    # Phase 2: same mix under one injected fault at every serve site.
    plan = FaultPlan()
    for site in SERVE_SITES:
        plan.inject(site, times=1)
    faulted = AnonymizationService(
        _drill_config(),
        ResultCache(Journal(journal_path), sleeper=_no_sleep),
        sleeper=_no_sleep,
    )
    with fault_scope(plan):
        faulted.recover()  # fires (and absorbs) serve.cache.load
        faulted_statuses, faulted_bodies = _serve_mix(faulted, mix)
    fired_sites = {site for site, _ in plan.fired}
    report.record(
        "faulted.all_sites_fired",
        fired_sites == set(SERVE_SITES),
        f"fired={sorted(fired_sites)}",
    )
    report.record(
        "faulted.all_ok",
        all(status == "ok" for status in faulted_statuses),
        f"statuses={sorted(set(faulted_statuses))}",
    )
    report.record(
        "faulted.byte_identical",
        faulted_bodies == ref_bodies,
        "responses under injected faults match the reference",
    )

    # Phase 3: the crash. A new service object is exactly the state that
    # survives a SIGKILL — nothing but the journal on disk.
    recovered = AnonymizationService(
        _drill_config(),
        ResultCache(Journal(journal_path), sleeper=_no_sleep),
        sleeper=_no_sleep,
    )
    loaded = recovered.recover()
    rec_statuses, rec_bodies = _serve_mix(recovered, mix)
    computed = recovered.registry.counter("serve.execute.computed")
    report.record(
        "recovered.cache_loaded",
        loaded > 0,
        f"recovered {loaded} bodies from the journal",
    )
    report.record(
        "recovered.all_ok",
        all(status == "ok" for status in rec_statuses),
        f"statuses={sorted(set(rec_statuses))}",
    )
    report.record(
        "recovered.byte_identical",
        rec_bodies == ref_bodies,
        "post-restart responses match the reference",
    )
    report.record(
        "recovered.zero_recompute",
        computed == 0,
        f"serve.execute.computed={computed}",
    )

    # Phase 4: overload must shed with types, not hang.  The fake clock
    # makes the breaker's retry_after the same in every run.
    slow = AnonymizationService(
        ServiceConfig(
            max_inflight=1,
            max_queue=1,
            expected_seconds=10.0,
            retry=RetryPolicy(attempts=3, base_delay=0.0, seed=0),
        ),
        clock=_TickClock(step=0.01),
        sleeper=_no_sleep,
    )
    probe = mix[0].to_json()
    # Saturate the single execution slot and the one queue seat.
    slow.gate.try_admit(None)
    slow.gate.enter(timeout=0.0)
    tight = dict(probe, timeout=0.5)
    unmeetable = slow.handle(tight)
    report.record(
        "overload.deadline_unmeetable",
        unmeetable["status"] == "shed"
        and unmeetable["shed"]["reason"] == "deadline_unmeetable",
        f"got {unmeetable.get('shed', unmeetable.get('status'))}",
    )
    slow.gate.try_admit(None)  # occupy the queue seat
    full = slow.handle(probe)
    report.record(
        "overload.queue_full",
        full["status"] == "shed" and full["shed"]["reason"] == "queue_full",
        f"got {full.get('shed', full.get('status'))}",
    )
    for _ in range(slow.config.breaker_threshold):
        slow.breaker.record_failure()
    broken = slow.handle(probe)
    report.record(
        "overload.breaker_open",
        broken["status"] == "shed"
        and broken["shed"]["reason"] == "breaker_open"
        and broken["shed"]["retry_after"] > 0,
        f"got {broken.get('shed', broken.get('status'))}",
    )

    # Phase 5: live telemetry under a synthetic latency regression.
    # Every clock read ticks 10 ms, so each request "takes" far longer
    # than the 50 ms p99 objective — the first request must cross the
    # breach edge exactly once.
    flight_path = journal_path.parent / "flight_dump.json"
    live = AnonymizationService(
        ServiceConfig(
            max_inflight=2,
            max_queue=8,
            default_timeout=600.0,
            retry=RetryPolicy(attempts=3, base_delay=0.0, seed=0),
            live_telemetry=True,
            flight_journal=str(flight_path),
            window_horizon_seconds=600.0,
            objectives=default_objectives(latency_target=0.05),
        ),
        clock=_TickClock(step=0.01),
        sleeper=_no_sleep,
    )
    live_requests = mix[:3]
    for request in live_requests:
        live.handle(request.to_json())
    report.record(
        "telemetry.breach_counted",
        live.registry.counter("serve.slo.breaches") >= 1,
        f"serve.slo.breaches={live.registry.counter('serve.slo.breaches')}",
    )
    report.record(
        "telemetry.single_flight_dump",
        live.flight_dumps == 1 and flight_path.is_file(),
        f"flight_dumps={live.flight_dumps}, file={flight_path.is_file()}",
    )
    assert isinstance(live.registry, WindowedRegistry)
    window = live.registry.window_snapshot(60.0)["window"]
    report.record(
        "telemetry.window_counters_nonzero",
        window["counters"].get("serve.requests", 0) >= 1,
        f"window counters={sorted(window['counters'])}",
    )
    assert live.flight is not None
    report.record(
        "telemetry.flight_ring_populated",
        len(live.flight) >= len(live_requests),
        f"flight entries={len(live.flight)}",
    )
    report.record(
        "telemetry.health_degraded",
        live.health()["status"] in ("warn", "breach"),
        f"healthz status={live.health()['status']!r}",
    )
    return report
