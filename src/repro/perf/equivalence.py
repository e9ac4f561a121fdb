"""Serial ↔ parallel equivalence checks for the experiment runner.

The parallel executor must be *observationally identical* to the serial
path: same costs, same extra diagnostics, same journal entries in the
same order.  The only legitimate differences are the measured
``seconds`` of each cell (worker wall-clock vs parent wall-clock) and
any per-cell ``metrics`` snapshot (a worker's cold caches do different
amounts of work than the serial runner's warm ones), so every
comparison here canonicalizes outcomes by zeroing ``seconds`` and
stripping ``metrics``, then requires **byte identity** of the
canonical JSON serialization.

Findings are reported as :class:`repro.verify.invariants.Violation`
objects — the same vocabulary the differential-verification harness
uses — so perf equivalence failures render and aggregate exactly like
any other broken invariant (``repro.verify`` sits below this layer and
cannot import the runner, which is why the check lives here).
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path
from typing import Sequence

from repro.experiments.catalogue import get_experiment
from repro.experiments.configs import ExperimentConfig
from repro.experiments.runner import ExperimentRunner, RunKey
from repro.perf.parallel import run_parallel
from repro.runtime import Journal
from repro.verify.invariants import Violation


def _canonical_outcome(outcome_json: dict) -> dict:
    """Outcome JSON with the machine-dependent fields dropped.

    ``seconds`` is zeroed (worker vs parent wall-clock), and any
    ``metrics`` snapshot is stripped: cell metrics are *execution*
    deltas, and a worker loads and encodes its dataset inside its first
    cell where the serial runner reuses the tables it already built, so
    any work counted during that setup lands in different cells.
    Results — costs and extra diagnostics — must still match
    byte-for-byte.
    """
    canonical = dict(outcome_json)
    canonical["seconds"] = 0.0
    canonical.pop("metrics", None)
    return canonical


def canonical_journal_entries(journal: Journal) -> list[str]:
    """The journal's entries as canonical JSON lines (timings zeroed).

    Two runs are journal-equivalent iff these line lists are equal as
    byte strings — same cells, same order, same outcomes.
    """
    return [
        json.dumps(
            [key_json, _canonical_outcome(value_json)], sort_keys=True
        )
        for key_json, value_json in journal.entries()
    ]


def check_parallel_equivalence(
    config: ExperimentConfig | None = None,
    keys: Sequence[RunKey] | None = None,
    workers: int = 2,
    work_dir: str | Path | None = None,
) -> list[Violation]:
    """Run ``keys`` serially and in parallel; report every divergence.

    ``keys`` defaults to every cell the ``all`` report declares for
    ``config``.  Both runs journal to fresh files under ``work_dir`` (a
    temporary directory by default), then memo contents and canonical
    journal lines are compared byte-for-byte.  An empty return means
    the parallel path is equivalent on this grid.
    """
    config = config or ExperimentConfig()
    if keys is None:
        keys = get_experiment("all").cells(config)
    keys = list(keys)
    violations: list[Violation] = []

    with tempfile.TemporaryDirectory(dir=work_dir) as tmp:
        serial_journal = Journal(Path(tmp) / "serial.jsonl")
        parallel_journal = Journal(Path(tmp) / "parallel.jsonl")

        serial = ExperimentRunner(config, journal=serial_journal)
        for key in keys:
            serial.run_key(key)

        parallel = ExperimentRunner(config, journal=parallel_journal)
        run_parallel(parallel, keys, workers=workers)

        for key in keys:
            if not parallel.has(key):
                violations.append(
                    Violation(
                        "perf.parallel.missing-cell",
                        f"parallel run never produced {key}",
                    )
                )
                continue
            s_out = json.dumps(
                _canonical_outcome(serial._runs[key].to_json()), sort_keys=True
            )
            p_out = json.dumps(
                _canonical_outcome(parallel._runs[key].to_json()),
                sort_keys=True,
            )
            if s_out != p_out:
                violations.append(
                    Violation(
                        "perf.parallel.outcome",
                        f"{key}: serial {s_out} != parallel {p_out}",
                    )
                )

        serial_lines = canonical_journal_entries(serial_journal)
        parallel_lines = canonical_journal_entries(parallel_journal)
        if serial_lines != parallel_lines:
            detail = _first_journal_divergence(serial_lines, parallel_lines)
            violations.append(
                Violation("perf.parallel.journal", detail)
            )
    return violations


def _first_journal_divergence(
    serial_lines: list[str], parallel_lines: list[str]
) -> str:
    if len(serial_lines) != len(parallel_lines):
        return (
            f"journal length differs: serial {len(serial_lines)} lines, "
            f"parallel {len(parallel_lines)} lines"
        )
    for index, (s, p) in enumerate(zip(serial_lines, parallel_lines)):
        if s != p:
            return f"journal line {index} differs: serial {s} != parallel {p}"
    return "journals differ"

