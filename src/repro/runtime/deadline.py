"""Cooperative deadlines, budgets and cancellation.

The paper's Section V algorithms are O(n²)-or-worse and the underlying
problem is NP-hard, so on production-sized inputs a run can blow any
latency budget.  Rather than killing threads (unsafe) or forking
processes (expensive), every hot loop in :mod:`repro.core` and
:mod:`repro.matching` calls :func:`checkpoint` once per outer
iteration.  When no limit is active the call is a few dozen
nanoseconds; under :func:`limit_scope` it raises a typed
:class:`~repro.errors.DeadlineExceeded` / :class:`~repro.errors.RunCancelled`
promptly, with the guarantee that the algorithm's inputs are left
unmutated (the algorithms never write into caller-owned arrays).

Three limit flavours:

* :class:`Deadline` — wall-clock, via an injectable monotonic clock
  (tests pass a fake clock, so "a 10ms deadline fires" is deterministic);
* :class:`Budget` — a deterministic checkpoint *count*, reproducible
  across machines by construction;
* :class:`CancelToken` — external cancellation, safe to trip from
  another thread.

::

    with limit_scope(Deadline.after(0.5)):
        clustering = agglomerative_clustering(model, k, distance)
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from types import TracebackType
from typing import Iterator

from repro.errors import DeadlineExceeded, ReproError, RunCancelled
from repro.obs.tracer import Clock, observe_site
from repro.runtime.faults import fault_point

__all__ = [
    "Budget",
    "CancelToken",
    "Clock",
    "Deadline",
    "ExecutionLimit",
    "Timer",
    "active_limits",
    "checkpoint",
    "deadline_scope",
    "limit_scope",
]


class ExecutionLimit:
    """Anything :func:`checkpoint` consults: deadline, budget, token."""

    def check(self, site: str) -> None:
        """Raise a :class:`~repro.errors.ReproError` if the limit is hit."""
        raise NotImplementedError


class Deadline(ExecutionLimit):
    """A wall-clock budget measured on an injectable monotonic clock."""

    __slots__ = ("seconds", "_clock", "_started")

    def __init__(self, seconds: float, clock: Clock = time.monotonic) -> None:
        if seconds < 0:
            raise ReproError(f"deadline must be non-negative, got {seconds}")
        self.seconds = seconds
        self._clock = clock
        self._started = clock()

    @classmethod
    def after(cls, seconds: float, clock: Clock = time.monotonic) -> "Deadline":
        """A deadline expiring ``seconds`` from now (alias constructor)."""
        return cls(seconds, clock=clock)

    def elapsed(self) -> float:
        """Seconds consumed since construction."""
        return self._clock() - self._started

    def remaining(self) -> float:
        """Seconds left (never negative)."""
        return max(0.0, self.seconds - self.elapsed())

    def expired(self) -> bool:
        """Whether the budget is spent."""
        return self.elapsed() >= self.seconds

    def check(self, site: str) -> None:
        elapsed = self.elapsed()
        if elapsed >= self.seconds:
            raise DeadlineExceeded(
                f"deadline of {self.seconds:.3f}s exceeded at {site!r} "
                f"({elapsed:.3f}s elapsed)",
                site=site,
                elapsed=elapsed,
                budget=self.seconds,
            )

    def __repr__(self) -> str:
        return f"Deadline({self.seconds!r}, remaining={self.remaining():.3f})"


class Budget(ExecutionLimit):
    """A deterministic checkpoint-count budget (no clock involved).

    Two runs of the same algorithm on the same input consume identical
    checkpoint counts, so tests that assert "raises after exactly N
    steps" are reproducible on any machine.
    """

    __slots__ = ("checkpoints", "used")

    def __init__(self, checkpoints: int) -> None:
        if checkpoints < 0:
            raise ReproError(
                f"budget must be non-negative, got {checkpoints}"
            )
        self.checkpoints = checkpoints
        self.used = 0

    def remaining(self) -> int:
        """Checkpoints left before the budget trips."""
        return max(0, self.checkpoints - self.used)

    def check(self, site: str) -> None:
        self.used += 1
        if self.used > self.checkpoints:
            raise DeadlineExceeded(
                f"checkpoint budget of {self.checkpoints} exhausted at "
                f"{site!r}",
                site=site,
                elapsed=float(self.used),
                budget=float(self.checkpoints),
            )

    def __repr__(self) -> str:
        return f"Budget({self.checkpoints}, used={self.used})"


class CancelToken(ExecutionLimit):
    """External cancellation, trip-able from any thread."""

    __slots__ = ("_event", "reason")

    def __init__(self) -> None:
        self._event = threading.Event()
        self.reason = ""

    def cancel(self, reason: str = "") -> None:
        """Request cancellation; the next checkpoint raises."""
        self.reason = reason or self.reason
        self._event.set()

    def cancelled(self) -> bool:
        """Whether cancellation has been requested."""
        return self._event.is_set()

    def check(self, site: str) -> None:
        if self._event.is_set():
            detail = f": {self.reason}" if self.reason else ""
            raise RunCancelled(
                f"run cancelled at {site!r}{detail}", site=site
            )

    def __repr__(self) -> str:
        return f"CancelToken(cancelled={self.cancelled()})"


#: The stack of active limits.  A tuple in a ``ContextVar`` so nested
#: scopes compose and threads do not observe each other's limits.
_LIMITS: ContextVar[tuple[ExecutionLimit, ...]] = ContextVar(
    "repro_runtime_limits", default=()
)


def active_limits() -> tuple[ExecutionLimit, ...]:
    """The limits :func:`checkpoint` currently consults (outermost first)."""
    return _LIMITS.get()


@contextmanager
def limit_scope(*limits: ExecutionLimit) -> Iterator[tuple[ExecutionLimit, ...]]:
    """Push ``limits`` onto the checkpoint stack for the ``with`` block.

    Scopes nest: an inner per-rung deadline and an outer whole-request
    deadline are both consulted by every checkpoint inside the inner
    block.
    """
    token = _LIMITS.set(_LIMITS.get() + tuple(limits))
    try:
        yield _LIMITS.get()
    finally:
        _LIMITS.reset(token)


@contextmanager
def deadline_scope(
    seconds: float, clock: Clock = time.monotonic
) -> Iterator[tuple[ExecutionLimit, ...]]:
    """Shorthand for ``limit_scope(Deadline.after(seconds))``."""
    with limit_scope(Deadline.after(seconds, clock=clock)) as limits:
        yield limits


def checkpoint(site: str) -> None:
    """Cooperative yield point: trace tally + fault injection + limits.

    Called from the hot loops of every registered algorithm, the
    bipartite-graph construction, the dataset loaders and the journal
    I/O.  With no active tracer, no active
    :class:`FaultPlan <repro.runtime.faults.FaultPlan>` and no active
    limits this is three ``ContextVar`` reads — cheap enough for
    per-outer-iteration use.

    The trace tally runs first (it never raises), so spans account for
    a hit even when the same checkpoint then injects a fault or trips a
    limit — the trace shows *where* a run died.
    """
    observe_site(site)
    fault_point(site)
    for limit in _LIMITS.get():
        limit.check(site)


class Timer:
    """Monotonic elapsed-time measurement with an injectable clock.

    The single sanctioned way to time experiment work: wall-clock
    (``time.time``) drifts under NTP adjustments and is banned from
    algorithm code by lint rule REP004; raw ``time.perf_counter`` calls
    outside :mod:`repro.runtime` are banned by REP008 so that tests can
    substitute a fake clock.

    ::

        with Timer() as timer:
            run()
        outcome.seconds = timer.seconds

    :meth:`elapsed` reads the running total mid-flight, for loops that
    poll their own duration (e.g. the fuzzing harness's time budget).
    """

    __slots__ = ("seconds", "_clock", "_started", "_running")

    def __init__(self, clock: Clock = time.perf_counter) -> None:
        self.seconds = 0.0
        self._clock = clock
        self._started = 0.0
        self._running = False

    def __enter__(self) -> "Timer":
        self._started = self._clock()
        self._running = True
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self.seconds = self._clock() - self._started
        self._running = False

    def elapsed(self) -> float:
        """Seconds since ``__enter__`` (or the final total once exited)."""
        if self._running:
            return self._clock() - self._started
        return self.seconds
