"""Execution resilience: deadlines, cancellation, faults, journals.

The paper's algorithms are O(n²)-or-worse and the underlying problem is
NP-hard, so a service-grade deployment needs slow or failing runs to
degrade gracefully instead of hanging or losing work.  This package is
that machinery (see ``docs/robustness.md`` for the full tour, and the
``--timeout`` / ``--journal`` / ``--resume`` flags of
``repro-anon experiment`` for the CLI surface):

* :mod:`repro.runtime.deadline` — :class:`Deadline` (wall clock),
  :class:`Budget` (deterministic checkpoint count) and
  :class:`CancelToken`, consulted by the :func:`checkpoint` calls
  threaded through every registered algorithm's hot loop;
* :mod:`repro.runtime.faults` — deterministic fault injection at named
  sites, for proving recovery paths actually recover;
* :mod:`repro.runtime.retry` — seeded retry-with-backoff with an
  injectable sleeper (tests never wall-clock sleep);
* :mod:`repro.runtime.journal` — crash-safe JSONL journals and atomic
  file replacement, backing ``repro-anon experiment --resume``;
* :mod:`repro.runtime.fallback` — degradation chains over the
  registered algorithms (imported as ``repro.runtime.fallback``; it
  sits *above* :mod:`repro.core` in the layer DAG, so the primitives
  here stay importable from the algorithms themselves).
"""

from repro.runtime.deadline import (
    Budget,
    CancelToken,
    Deadline,
    ExecutionLimit,
    Timer,
    active_limits,
    checkpoint,
    deadline_scope,
    limit_scope,
)
from repro.runtime.faults import (
    FaultPlan,
    FaultSpec,
    active_plan,
    fault_point,
    fault_scope,
)
from repro.runtime.journal import Journal, atomic_write_text
from repro.runtime.retry import RetryPolicy, call_with_retry

__all__ = [
    "Deadline",
    "Budget",
    "CancelToken",
    "ExecutionLimit",
    "Timer",
    "checkpoint",
    "limit_scope",
    "deadline_scope",
    "active_limits",
    "FaultPlan",
    "FaultSpec",
    "fault_scope",
    "fault_point",
    "active_plan",
    "Journal",
    "atomic_write_text",
    "RetryPolicy",
    "call_with_retry",
]
