"""Declarative SLOs evaluated as multi-window burn rates.

An :class:`SLObjective` states what "good" means — a latency quantile
bound, a maximum error ratio, a maximum shed ratio — and
:class:`SLOMonitor` evaluates it against two windows of a
:class:`~repro.obs.windows.WindowedRegistry`: a *fast* window that
reacts quickly and a *slow* window that filters blips.  The burn rate
is how many times over budget the window is running (observed / target,
so ``1.0`` = exactly on target).  Following the multi-window
burn-rate discipline, status is:

- ``breach`` — both windows over their burn thresholds: the regression
  is real and sustained.
- ``warn``   — exactly one window over: either a fresh spike the slow
  window has not confirmed, or the lingering tail of a resolved one.
- ``ok``     — otherwise (including "no traffic yet": an empty window
  burns nothing).

Everything reads from window snapshots of the injectable-clock
registry, so a fake-clock test can walk an objective through
ok → warn → breach deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Sequence, Tuple

from repro.obs.metrics import histogram_quantile
from repro.obs.windows import WindowedRegistry

__all__ = [
    "SLObjective",
    "SLOMonitor",
    "SLOResult",
    "default_objectives",
    "worst_status",
]

#: Severity order for :func:`worst_status`.
_STATUS_RANK = {"ok": 0, "warn": 1, "breach": 2}

#: Objective kinds understood by the evaluator.
_KINDS = ("latency_quantile", "error_ratio", "shed_ratio")


@dataclass(frozen=True)
class SLObjective:
    """One service-level objective.

    ``kind`` selects the measurement: ``latency_quantile`` compares the
    windowed ``quantile`` of histogram ``metric`` against ``target``
    seconds; ``error_ratio`` and ``shed_ratio`` compare the ratio of
    ``bad`` counters (names, or prefix families ending in ``.``) over
    the ``total`` counter against a ``target`` ratio.  Burn thresholds
    follow the fast-window-reacts / slow-window-confirms split.
    """

    name: str
    kind: str
    target: float
    quantile: float = 0.99
    metric: str = "serve.request_seconds"
    total: str = "serve.requests"
    bad: Tuple[str, ...] = field(default_factory=tuple)
    fast_window: float = 60.0
    slow_window: float = 300.0
    fast_burn: float = 2.0
    slow_burn: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(
                f"unknown SLO kind {self.kind!r}; expected one of {_KINDS}"
            )
        if self.target <= 0:
            raise ValueError("SLO target must be positive")
        if self.fast_window <= 0 or self.slow_window <= 0:
            raise ValueError("SLO windows must be positive")

    def to_json(self) -> Dict[str, Any]:
        """JSON-ready description of the objective."""
        return {
            "name": self.name,
            "kind": self.kind,
            "target": self.target,
            "quantile": self.quantile,
            "fast_window": self.fast_window,
            "slow_window": self.slow_window,
            "fast_burn": self.fast_burn,
            "slow_burn": self.slow_burn,
        }


@dataclass(frozen=True)
class SLOResult:
    """Outcome of evaluating one objective at one instant."""

    objective: SLObjective
    status: str
    fast_burn_rate: float
    slow_burn_rate: float
    fast_value: float
    slow_value: float

    def to_json(self) -> Dict[str, Any]:
        """JSON-ready result (objective inlined for self-description)."""
        return {
            "objective": self.objective.to_json(),
            "status": self.status,
            "fast_burn_rate": self.fast_burn_rate,
            "slow_burn_rate": self.slow_burn_rate,
            "fast_value": self.fast_value,
            "slow_value": self.slow_value,
        }


def worst_status(results: Sequence[SLOResult]) -> str:
    """Aggregate status across results: the most severe one wins."""
    worst = "ok"
    for result in results:
        if _STATUS_RANK[result.status] > _STATUS_RANK[worst]:
            worst = result.status
    return worst


def default_objectives(
    *, latency_target: float = 0.5
) -> Tuple[SLObjective, ...]:
    """The serving path's stock objectives: p99 latency ≤
    ``latency_target`` seconds, error ratio ≤ 1 %, shed ratio ≤ 5 %,
    each at :class:`SLObjective`'s default windows (60 s fast, 300 s
    slow)."""
    return (
        SLObjective("latency-p99", "latency_quantile", latency_target),
        SLObjective(
            "error-ratio", "error_ratio", 0.01, bad=("serve.errors.",)
        ),
        SLObjective("shed-ratio", "shed_ratio", 0.05, bad=("serve.shed.",)),
    )


def _bad_sum(
    counters: Mapping[str, float], bad: Tuple[str, ...]
) -> float:
    """Sum the in-window counters named by ``bad``.

    An entry ending in ``.`` is a prefix family (e.g. ``serve.shed.``
    sums every shed reason); anything else matches exactly.
    """
    total = 0.0
    for name, value in counters.items():
        for spec in bad:
            if name == spec or (spec.endswith(".") and name.startswith(spec)):
                total += float(value)
                break
    return total


def _measure(objective: SLObjective, snap: Mapping[str, Any]) -> float:
    """The objective's observed value over one window snapshot."""
    window = snap.get("window", {})
    if objective.kind == "latency_quantile":
        hist = dict(window.get("histograms", {})).get(objective.metric)
        if not hist:
            return 0.0
        value = histogram_quantile(hist, objective.quantile)
        return 0.0 if value is None else float(value)
    counters = dict(window.get("counters", {}))
    denominator = float(counters.get(objective.total, 0.0))
    if denominator <= 0:
        return 0.0
    return _bad_sum(counters, objective.bad) / denominator


class SLOMonitor:
    """Evaluate a set of objectives against a windowed registry."""

    def __init__(
        self,
        objectives: Sequence[SLObjective],
        registry: WindowedRegistry,
    ) -> None:
        self.objectives: Tuple[SLObjective, ...] = tuple(objectives)
        self.registry = registry

    def evaluate(self) -> List[SLOResult]:
        """One pass over every objective, reusing snapshots per window."""
        snaps: Dict[float, Dict[str, Any]] = {}

        def snap_for(seconds: float) -> Dict[str, Any]:
            if seconds not in snaps:
                snaps[seconds] = self.registry.window_snapshot(seconds)
            return snaps[seconds]

        results: List[SLOResult] = []
        for objective in self.objectives:
            fast_value = _measure(objective, snap_for(objective.fast_window))
            slow_value = _measure(objective, snap_for(objective.slow_window))
            fast_rate = fast_value / objective.target
            slow_rate = slow_value / objective.target
            fast_hot = fast_rate >= objective.fast_burn
            slow_hot = slow_rate >= objective.slow_burn
            if fast_hot and slow_hot:
                status = "breach"
            elif fast_hot or slow_hot:
                status = "warn"
            else:
                status = "ok"
            results.append(
                SLOResult(
                    objective=objective,
                    status=status,
                    fast_burn_rate=fast_rate,
                    slow_burn_rate=slow_rate,
                    fast_value=fast_value,
                    slow_value=slow_value,
                )
            )
        return results
