"""Seeded retry-with-backoff for transient failures.

Journal appends (disk hiccups), dataset loads and other I/O-shaped
operations retry under a :class:`RetryPolicy`.  Two properties matter
for testability:

* the backoff schedule is a **pure function of the policy** — jitter is
  drawn from ``random.Random(seed)``, so the delays a run will use are
  known before it starts;
* the sleeper is **injectable** — tests pass a recording stub, so no
  test ever sleeps wall-clock time to exercise the backoff path.

::

    policy = RetryPolicy(attempts=3, base_delay=0.05, seed=7)
    value = call_with_retry(write, policy=policy, retry_on=(OSError,))
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from random import Random
from typing import Callable, TypeVar

from repro.errors import InjectedFault, ReproError
from repro.obs import count

T = TypeVar("T")

#: A sleep function (seconds); injectable so tests never wall-clock sleep.
Sleeper = Callable[[float], None]


@dataclass(frozen=True)
class RetryPolicy:
    """How many attempts, and how long to back off between them."""

    attempts: int = 3  #: total attempts (1 = no retry)
    base_delay: float = 0.05  #: delay before the first retry, seconds
    multiplier: float = 2.0  #: exponential growth factor
    max_delay: float = 2.0  #: cap on any single delay
    jitter: float = 0.1  #: ± fraction of each delay, drawn from ``seed``
    seed: int = 0  #: seed for the jitter RNG (determinism)

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ReproError(
                f"attempts must be at least 1, got {self.attempts}"
            )
        if self.base_delay < 0 or self.max_delay < 0:
            raise ReproError("delays must be non-negative")
        if not 0.0 <= self.jitter <= 1.0:
            raise ReproError(f"jitter must be in [0, 1], got {self.jitter}")

    def delays(self) -> tuple[float, ...]:
        """The full backoff schedule (``attempts - 1`` entries).

        Deterministic: the same policy always yields the same delays.
        """
        rng = Random(self.seed)
        out: list[float] = []
        delay = self.base_delay
        for _ in range(self.attempts - 1):
            jittered = delay
            if self.jitter:
                jittered *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
            out.append(min(jittered, self.max_delay))
            delay *= self.multiplier
        return tuple(out)


def call_with_retry(
    fn: Callable[[], T],
    *,
    policy: RetryPolicy | None = None,
    retry_on: tuple[type[BaseException], ...] = (OSError, InjectedFault),
    sleep: Sleeper = time.sleep,
    on_retry: Callable[[int, BaseException, float], None] | None = None,
) -> T:
    """Call ``fn`` until it succeeds or the policy's attempts run out.

    Parameters
    ----------
    fn:
        Zero-argument callable to retry.
    policy:
        Backoff schedule; defaults to ``RetryPolicy()``.
    retry_on:
        Exception types that trigger a retry; anything else propagates
        immediately.  Defaults to transient-shaped failures
        (``OSError`` and injected faults).
    sleep:
        The sleeper; tests inject a recorder so nothing wall-clock
        sleeps.
    on_retry:
        Optional ``(attempt_index, error, delay)`` observer, called
        before each backoff sleep.

    Raises
    ------
    The last caught exception, once attempts are exhausted.
    """
    active = policy if policy is not None else RetryPolicy()
    # Built at the first retry: a first-try success, the common case,
    # never pays for the jitter RNG.
    schedule: tuple[float, ...] = ()
    for attempt in range(active.attempts):
        try:
            count("runtime.retry.attempts")
            return fn()
        except retry_on as exc:
            if attempt >= active.attempts - 1:
                raise
            count("runtime.retry.retries")
            if not schedule:
                schedule = active.delays()
            delay = schedule[attempt]
            if on_retry is not None:
                on_retry(attempt, exc, delay)
            if delay > 0:
                sleep(delay)
    raise AssertionError("unreachable")  # pragma: no cover
