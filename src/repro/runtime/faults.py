"""Deterministic fault injection (chaos testing without the chaos).

Algorithms, loaders and journal I/O call
:func:`repro.runtime.checkpoint` (or :func:`fault_point` directly) at
*named sites*.  In production those calls are near-free no-ops; under an
active :class:`FaultPlan` they raise on exactly the hits the plan names,
so a test can kill an experiment at a precisely chosen point, replay the
kill deterministically from a seed, and then prove the recovery path
(retry, fallback rung, ``--resume``) actually works.

Plans are deterministic by construction: positional triggers (``after``
/ ``times``) count site hits, and probabilistic triggers (``rate``)
draw from a ``random.Random(seed)`` owned by the plan — two runs of the
same plan over the same code fire identically.

::

    plan = FaultPlan().inject("runtime.journal.append", times=1)
    with fault_scope(plan):
        runner.agglomerative("art", "entropy", 10, "d3")  # journal write fails once
    assert plan.fired  # the site was actually reached
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from fnmatch import fnmatchcase
from random import Random
from typing import Iterator

from repro.errors import InjectedFault, ReproError
from repro.obs.names import KNOWN_SITES


@dataclass(frozen=True)
class FaultSpec:
    """One injection rule: where, when, and what to raise."""

    site: str  #: exact site name or ``fnmatch`` glob (``"core.*"``)
    error: type[BaseException] = InjectedFault  #: exception type to raise
    after: int = 0  #: skip this many matching hits before arming
    times: int | None = 1  #: fire on at most this many hits (None = always)
    rate: float | None = None  #: fire probabilistically (plan-seeded RNG)

    def matches(self, site: str) -> bool:
        """Whether this rule applies to a hit at ``site``."""
        return fnmatchcase(site, self.site)


class FaultPlan:
    """A deterministic set of injection rules plus hit accounting.

    The plan records every site hit observed while it is active
    (:attr:`hits`) and every fault it raised (:attr:`fired`), so tests
    can assert both that the target site was actually reached and that
    the intended number of faults fired.
    """

    def __init__(self, specs: tuple[FaultSpec, ...] = (), seed: int = 0) -> None:
        self.specs: list[FaultSpec] = list(specs)
        self.hits: dict[str, int] = {}
        self.fired: list[tuple[str, int]] = []  #: (site, hit index) raised
        self._rng = Random(seed)
        self._fire_counts: dict[int, int] = {}

    def inject(
        self,
        site: str,
        error: type[BaseException] = InjectedFault,
        after: int = 0,
        times: int | None = 1,
        rate: float | None = None,
    ) -> "FaultPlan":
        """Add one rule (builder-style; returns the plan)."""
        if not any(ch in site for ch in "*?[") and site not in KNOWN_SITES:
            raise ReproError(
                f"unknown fault site {site!r}; known sites: "
                f"{sorted(KNOWN_SITES)} (globs are allowed)"
            )
        if after < 0:
            raise ReproError(f"after must be non-negative, got {after}")
        if rate is not None and not 0.0 <= rate <= 1.0:
            raise ReproError(f"rate must be in [0, 1], got {rate}")
        self.specs.append(FaultSpec(site, error, after, times, rate))
        return self

    def on_hit(self, site: str) -> None:
        """Record one site hit; raise if a rule decides to fire."""
        hit_no = self.hits.get(site, 0)
        self.hits[site] = hit_no + 1
        for index, spec in enumerate(self.specs):
            if not spec.matches(site):
                continue
            if hit_no < spec.after:
                continue
            count = self._fire_counts.get(index, 0)
            if spec.times is not None and count >= spec.times:
                continue
            if spec.rate is not None and self._rng.random() >= spec.rate:
                continue
            self._fire_counts[index] = count + 1
            self.fired.append((site, hit_no))
            error = spec.error(f"injected fault at {site!r} (hit {hit_no})")
            if isinstance(error, InjectedFault):
                error.site = site
            raise error

    def total_fired(self) -> int:
        """How many faults the plan has raised so far."""
        return len(self.fired)


#: The active plan, if any.  A ``ContextVar`` so nested scopes and
#: threads each see their own plan.
_PLAN: ContextVar[FaultPlan | None] = ContextVar("repro_fault_plan", default=None)


@contextmanager
def fault_scope(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Activate ``plan`` for the duration of the ``with`` block."""
    token = _PLAN.set(plan)
    try:
        yield plan
    finally:
        _PLAN.reset(token)


def active_plan() -> FaultPlan | None:
    """The plan currently in scope, or None."""
    return _PLAN.get()


def fault_point(site: str) -> None:
    """Pure fault site: raises iff an active plan decides to.

    :func:`repro.runtime.checkpoint` calls this before consulting the
    execution limits; code that wants an injection point *without*
    deadline semantics (e.g. inside the journal's atomic rename, where
    an interrupt would be a torn write) calls it directly.
    """
    plan = _PLAN.get()
    if plan is not None:
        plan.on_hit(site)
