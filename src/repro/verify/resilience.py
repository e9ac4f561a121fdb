"""Fault and deadline resilience drills over the registered algorithms.

The :mod:`repro.runtime` machinery promises two things about every
algorithm in the differential registry:

* under an active execution limit or an injected fault, the algorithm
  fails through a *typed* :class:`~repro.errors.ReproError`
  (``DeadlineExceeded`` / ``InjectedFault``), never an arbitrary crash
  and never a silent swallow;
* an aborted run leaves its inputs untouched — the encoded table an
  instance shares across the whole differential battery must be
  byte-identical before and after the abort.

:func:`fault_resilience_check` turns those promises into the same kind
of :class:`~repro.verify.invariants.Violation` list the rest of the
verification subsystem produces, so fault drills compose with the fuzz
harness and its shrinking machinery.
"""

from __future__ import annotations

from repro.errors import ReproError
from repro.measures.base import CostModel
from repro.runtime import Budget, FaultPlan, fault_scope, limit_scope
from repro.verify.differential import REGISTRY, AlgorithmSpec
from repro.verify.generators import Instance
from repro.verify.invariants import (
    Violation,
    check_inputs_unmutated,
    snapshot_inputs,
)


def _drill(
    spec: AlgorithmSpec,
    model: CostModel,
    instance: Instance,
    label: str,
) -> list[Violation]:
    """Run one spec under the ambient fault/limit scope; classify the exit."""
    enc = model.enc
    before = snapshot_inputs(enc)
    out: list[Violation] = []
    completed = False
    try:
        spec.run(model, instance.config)
        completed = True
    except ReproError:
        pass  # typed failure: exactly the contract
    except Exception as exc:  # noqa: BLE001 — crashes are the finding
        out.append(
            Violation(
                "resilience.crash",
                f"{label}: untyped {type(exc).__name__}: {exc}",
            )
        )
    out.extend(
        check_inputs_unmutated(
            enc, before, "resilience.input-mutated", f"{label}: aborted run"
        )
    )
    return out if not completed else out + [COMPLETED]


#: Sentinel appended by :func:`_drill` when the run finished normally
#: (the caller decides whether that is legal for the drill at hand).
COMPLETED = Violation("resilience.completed", "run finished normally")


def fault_resilience_check(instance: Instance) -> list[Violation]:
    """Drill every applicable registered algorithm on one instance.

    Two drills per algorithm:

    * **fault drill** — a deterministic :class:`FaultPlan` arms every
      ``core.*`` site; if the algorithm's hot loop fires the fault, the
      resulting ``InjectedFault`` must propagate (a completed run after
      a fired fault means something swallowed it);
    * **budget drill** — a zero-checkpoint :class:`Budget`; the first
      checkpoint the algorithm reaches must raise ``DeadlineExceeded``
      (completing after the budget was consumed means the signal was
      swallowed).

    Either way the instance's encoded arrays must be unmutated after
    the abort.  Returns the accumulated violations (empty = pass).
    """
    enc = instance.encoded()
    model = instance.model(enc)
    laminar = instance.is_laminar()
    out: list[Violation] = []

    for spec in REGISTRY:
        if spec.requires_laminar and not laminar:
            continue

        plan = FaultPlan().inject("core.*")
        with fault_scope(plan):
            drilled = _drill(spec, model, instance, f"{spec.name}[fault]")
        completed = any(v is COMPLETED for v in drilled)
        out.extend(v for v in drilled if v is not COMPLETED)
        if completed and plan.total_fired() > 0:
            out.append(
                Violation(
                    "resilience.swallowed-fault",
                    f"{spec.name}: completed although an injected fault "
                    f"fired at {plan.fired[0]!r}",
                )
            )

        budget = Budget(0)
        with limit_scope(budget):
            drilled = _drill(spec, model, instance, f"{spec.name}[budget]")
        completed = any(v is COMPLETED for v in drilled)
        out.extend(v for v in drilled if v is not COMPLETED)
        if completed and budget.used > budget.checkpoints:
            out.append(
                Violation(
                    "resilience.swallowed-deadline",
                    f"{spec.name}: completed although the checkpoint "
                    "budget was exhausted mid-run",
                )
            )
    return out
