"""Degradation chains: always return *a* valid k-anonymization.

"Constrained Generalization for Data Anonymization" (Hore et al.)
frames anonymization as budgeted systematic search; this module is that
shape around the library's algorithms.  A chain is an ordered sequence
of :class:`Rung`\\ s — typically expensive-but-good first, cheap-but-
coarse last.  :func:`run_with_fallback` tries each rung under its share
of the time budget, verifies the output against the requested notion,
and records *why* every earlier rung was rejected, so the caller
either gets a valid anonymization plus a :class:`FallbackReport`
explaining which rung produced it, or a structured
:class:`~repro.errors.FallbackExhausted` failure.

The shipped :data:`DEFAULT_CHAIN` ends in the ``suppress`` rung — full
generalization of every attribute — which is O(n·r), cannot time out in
practice, and is k-anonymous for every k ≤ n, so the chain as a whole
degrades to "publish nothing useful" rather than "hang or crash".

::

    outcome = run_with_fallback(table, k=10, overall_timeout=5.0)
    result = outcome.require()          # AnonymizationResult
    print(outcome.report.format())      # which rung won, why others failed
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.api import AnonymizationResult, anonymize
from repro.errors import (
    AnonymityError,
    DeadlineExceeded,
    FallbackExhausted,
    ReproError,
)
from repro.measures.base import CostModel
from repro.measures.registry import get_measure
from repro.obs import count, span
from repro.runtime.deadline import Clock, Deadline, Timer, limit_scope
from repro.tabular.encoding import EncodedTable
from repro.tabular.table import Table


@dataclass(frozen=True)
class Rung:
    """One step of a degradation chain: :func:`anonymize` at its
    defaults (``d3``, no shrink, expansion) under ``rung_timeout``."""

    name: str  #: display name in the report
    notion: str = "k"  #: anonymity notion passed to :func:`anonymize`
    algorithm: str | None = None  #: for ``notion="k"``; ``"suppress"`` is terminal


#: Good-first, cheap-last.  The terminal ``suppress`` rung is O(n·r)
#: and valid for every k ≤ n, so the chain cannot come back empty-handed
#: unless k itself is infeasible.
DEFAULT_CHAIN: tuple[Rung, ...] = (
    Rung("kk", notion="kk"),
    Rung("agglomerative", notion="k", algorithm="agglomerative"),
    Rung("mondrian", notion="k", algorithm="mondrian"),
    Rung("suppress", notion="k", algorithm="suppress"),
)


@dataclass(frozen=True)
class RungAttempt:
    """What happened when one rung ran (or was skipped)."""

    name: str  #: the rung's name
    status: str  #: ``ok`` | ``deadline`` | ``error`` | ``invalid`` | ``skipped``
    detail: str = ""  #: error type and message, or skip reason
    seconds: float = 0.0  #: time the attempt consumed

    @property
    def ok(self) -> bool:
        """Whether this attempt produced the accepted result."""
        return self.status == "ok"


@dataclass
class FallbackReport:
    """The full account of one chain execution."""

    k: int  #: requested anonymity parameter
    attempts: list[RungAttempt] = field(default_factory=list)
    winner: str | None = None  #: name of the rung that produced the result

    @property
    def ok(self) -> bool:
        """Whether any rung succeeded."""
        return self.winner is not None

    def format(self) -> str:
        """Human-readable per-rung account."""
        lines = [
            f"fallback chain (k={self.k}): "
            + (f"served by {self.winner!r}" if self.ok else "EXHAUSTED")
        ]
        for attempt in self.attempts:
            line = f"  {attempt.name:14s} {attempt.status:8s}"
            if attempt.seconds:
                line += f" {attempt.seconds:7.3f}s"
            if attempt.detail:
                line += f"  {attempt.detail}"
            lines.append(line)
        return "\n".join(lines)

    def to_json(self) -> dict[str, Any]:
        """Machine-readable report (all plain JSON types)."""
        return {
            "k": self.k,
            "winner": self.winner,
            "attempts": [
                {
                    "name": a.name,
                    "status": a.status,
                    "detail": a.detail,
                    "seconds": a.seconds,
                }
                for a in self.attempts
            ],
        }


@dataclass
class FallbackOutcome:
    """Result + report of one :func:`run_with_fallback` call."""

    report: FallbackReport
    result: AnonymizationResult | None = None

    @property
    def ok(self) -> bool:
        """Whether a rung produced a verified result."""
        return self.result is not None

    def require(self) -> AnonymizationResult:
        """The result, or :class:`~repro.errors.FallbackExhausted`."""
        if self.result is None:
            raise FallbackExhausted(
                f"every rung of the fallback chain failed:\n"
                f"{self.report.format()}",
                report=self.report,
            )
        return self.result


def _suppress_all(
    table: Table, k: int, measure: str, enc: EncodedTable
) -> AnonymizationResult:
    """The terminal rung: generalize every value to the full domain.

    Every record becomes identical, so the release is m-anonymous for
    m = n ≥ k — maximal privacy, minimal utility, O(n·r) time.
    """
    n = enc.num_records
    if n == 0:
        raise AnonymityError("cannot anonymize an empty table")
    if k > n:
        raise AnonymityError(f"k={k} exceeds the number of records n={n}")
    with Timer() as timer:
        full = np.array([att.full_node for att in enc.attrs], dtype=np.int32)
        node_matrix = np.tile(full, (n, 1))
        measure_obj = get_measure(measure)
        model = CostModel(enc, measure_obj)
        cost = model.table_cost(node_matrix)
    count("runtime.fallback.records_suppressed", n)
    return AnonymizationResult(
        table=table,
        encoded=enc,
        node_matrix=node_matrix,
        notion="k",
        k=k,
        algorithm="suppress-all",
        measure=measure_obj.name,
        cost=cost,
        elapsed_seconds=timer.seconds,
        stats={"suppressed_records": n},
    )


def _run_rung(
    rung: Rung,
    table: Table,
    k: int,
    measure: str,
    enc: EncodedTable,
) -> AnonymizationResult:
    if rung.algorithm == "suppress":
        return _suppress_all(table, k, measure, enc)
    return anonymize(
        table,
        k=k,
        notion=rung.notion,
        measure=measure,
        algorithm=rung.algorithm,
        encoded=enc,
    )


def run_with_fallback(
    table: Table,
    k: int,
    *,
    chain: tuple[Rung, ...] = DEFAULT_CHAIN,
    measure: str = "entropy",
    overall_timeout: float | None = None,
    rung_timeout: float | None = None,
    clock: Clock = time.monotonic,
    encoded: EncodedTable | None = None,
) -> FallbackOutcome:
    """Execute a degradation chain until one rung yields a valid result.

    Parameters
    ----------
    table:
        The table to anonymize.
    k:
        The anonymity parameter.
    chain:
        The rungs, best first; defaults to :data:`DEFAULT_CHAIN`.
    measure:
        Loss measure scoring every rung (and driving its objective).
    overall_timeout:
        Wall-clock budget for the whole chain; once spent, remaining
        rungs are recorded as ``skipped``.
    rung_timeout:
        Per-rung wall-clock cap, seconds.
    clock:
        Injectable monotonic clock (tests use a fake).
    encoded:
        Optional pre-built encoding of ``table`` to reuse.

    Returns
    -------
    A :class:`FallbackOutcome`; ``outcome.require()`` returns the
    verified :class:`~repro.core.api.AnonymizationResult` or raises
    :class:`~repro.errors.FallbackExhausted` with the report attached.
    """
    if not chain:
        raise ReproError("the fallback chain must have at least one rung")
    enc = encoded if encoded is not None else EncodedTable(table)
    report = FallbackReport(k=k)
    outcome = FallbackOutcome(report=report)
    overall = (
        Deadline.after(overall_timeout, clock=clock)
        if overall_timeout is not None
        else None
    )

    def record(attempt: RungAttempt) -> None:
        """Append the attempt and tally its outcome for repro.obs."""
        report.attempts.append(attempt)
        count(f"runtime.fallback.rung.{attempt.status}")

    for rung in chain:
        if overall is not None and overall.expired():
            record(
                RungAttempt(rung.name, "skipped", "overall deadline spent")
            )
            continue
        limits: list[Deadline] = []
        if overall is not None:
            limits.append(overall)
        if rung_timeout is not None:
            limits.append(Deadline.after(rung_timeout, clock=clock))
        timer = Timer(clock=clock)
        try:
            with timer, limit_scope(*limits), span(
                "runtime.fallback.rung", rung=rung.name
            ):
                result = _run_rung(rung, table, k, measure, enc)
        except DeadlineExceeded as exc:
            record(
                RungAttempt(
                    rung.name, "deadline", str(exc), seconds=timer.seconds
                )
            )
            continue
        except Exception as exc:  # a crashing rung must not sink the chain
            record(
                RungAttempt(
                    rung.name,
                    "error",
                    f"{type(exc).__name__}: {exc}",
                    seconds=timer.seconds,
                )
            )
            continue
        if not result.verify():
            record(
                RungAttempt(
                    rung.name,
                    "invalid",
                    f"output failed the {result.notion!r} verifier",
                    seconds=timer.seconds,
                )
            )
            continue
        record(RungAttempt(rung.name, "ok", seconds=timer.seconds))
        report.winner = rung.name
        outcome.result = result
        break
    return outcome
