"""The fuzzing loop: seeded cases, budgets, shrinking, replay commands.

:func:`fuzz` drives everything: it derives one deterministic case seed
per iteration (``master_seed + i``), generates the instance, runs the
structural invariants and the full differential battery, and collects
failures.  Every failure carries a shrunk minimal instance and an exact
replay command — because case ``i`` of master seed ``s`` is case ``0``
of master seed ``s + i``, the printed

    repro-anon fuzz --seed <case_seed> --max-cases 1

re-executes precisely the failing case, nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.runtime import Timer
from repro.verify.differential import differential_check
from repro.verify.generators import (
    Instance,
    random_instance,
    shrink_instance,
)
from repro.verify.invariants import (
    Violation,
    check_closure_algebra,
    check_measure_soundness,
)

#: Default wall-clock budget when neither a budget nor a case count is given.
DEFAULT_BUDGET_SECONDS = 10.0


def check_case(instance: Instance) -> list[Violation]:
    """The complete invariant + differential battery for one instance."""
    enc = instance.encoded()
    rng = np.random.default_rng(instance.config.seed)
    violations = check_closure_algebra(enc, rng)
    violations += check_measure_soundness(instance.model(enc))
    violations += differential_check(instance)
    return violations


@dataclass(frozen=True)
class FuzzFailure:
    """One failing fuzz case, ready to replay and debug."""

    case_seed: int  #: seed that regenerates the failing instance
    violations: tuple[Violation, ...]  #: everything that broke
    shrunk: Instance  #: minimized instance still exhibiting a failure

    @property
    def replay_command(self) -> str:
        """Shell command that re-executes exactly this case."""
        return f"repro-anon fuzz --seed {self.case_seed} --max-cases 1"

    def format(self) -> str:
        """Multi-line failure report."""
        lines = [
            f"FAIL case seed {self.case_seed}: "
            f"{len(self.violations)} violation(s)"
        ]
        for v in self.violations:
            lines.append(f"  {v}")
        lines.append(f"  replay: {self.replay_command}")
        lines.append("  shrunk instance:")
        for line in self.shrunk.describe().splitlines():
            lines.append(f"    {line}")
        return "\n".join(lines)


@dataclass
class FuzzReport:
    """Outcome of one :func:`fuzz` run."""

    seed: int  #: the master seed
    cases_run: int = 0  #: how many cases executed
    elapsed_seconds: float = 0.0  #: wall clock spent
    failures: list[FuzzFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when no case failed."""
        return not self.failures

    def summary(self) -> str:
        """Multi-line human-readable report."""
        status = "OK" if self.ok else f"{len(self.failures)} FAILING CASE(S)"
        lines = [
            f"fuzz seed={self.seed}: {self.cases_run} cases in "
            f"{self.elapsed_seconds:.1f}s — {status}"
        ]
        for failure in self.failures:
            lines.append(failure.format())
        return "\n".join(lines)


def _shrink_failure(
    case_seed: int, instance: Instance, violations: list[Violation]
) -> FuzzFailure:
    failing_invariants = {v.invariant for v in violations}

    def still_fails(candidate: Instance) -> bool:
        found = check_case(candidate)
        return any(v.invariant in failing_invariants for v in found)

    shrunk = shrink_instance(instance, still_fails)
    return FuzzFailure(
        case_seed=case_seed,
        violations=tuple(violations),
        shrunk=shrunk,
    )


def fuzz(
    seed: int,
    budget_seconds: float | None = None,
    max_cases: int | None = None,
    max_failures: int = 3,
    on_case: Callable[[int, int, list[Violation]], None] | None = None,
) -> FuzzReport:
    """Run the fuzzing harness.

    Parameters
    ----------
    seed:
        Master seed.  Case ``i`` uses seed ``seed + i``, so any failing
        case seed is itself a valid master seed whose first case is the
        failure — the basis of the replay command.
    budget_seconds:
        Stop starting new cases once this much wall clock has elapsed.
        When both this and ``max_cases`` are ``None``, a default budget
        of :data:`DEFAULT_BUDGET_SECONDS` applies.
    max_cases:
        Hard cap on the number of cases.
    max_failures:
        Stop early after this many distinct failing cases (each failure
        triggers an expensive shrinking phase).
    on_case:
        Optional progress callback ``(case_index, case_seed, violations)``.

    Returns
    -------
    A :class:`FuzzReport`; ``report.ok`` tells whether all cases passed.
    """
    if budget_seconds is None and max_cases is None:
        budget_seconds = DEFAULT_BUDGET_SECONDS
    timer = Timer().__enter__()
    report = FuzzReport(seed=seed)
    i = 0
    while True:
        if max_cases is not None and i >= max_cases:
            break
        if (
            budget_seconds is not None
            and timer.elapsed() >= budget_seconds
            and i > 0
        ):
            break
        case_seed = seed + i
        instance = random_instance(case_seed)
        violations = check_case(instance)
        if on_case is not None:
            on_case(i, case_seed, violations)
        if violations:
            report.failures.append(
                _shrink_failure(case_seed, instance, violations)
            )
        i += 1
        report.cases_run = i
        if len(report.failures) >= max_failures:
            break
    report.elapsed_seconds = timer.elapsed()
    return report
