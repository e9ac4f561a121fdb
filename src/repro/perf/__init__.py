"""Performance subsystem: parallel experiment execution.

* :mod:`repro.perf.parallel` — run a list of
  :class:`~repro.experiments.runner.RunKey` cells (an experiment
  declares its own in :mod:`repro.experiments.catalogue`) on a
  ``ProcessPoolExecutor`` and merge the outcomes back into an
  :class:`~repro.experiments.runner.ExperimentRunner` in deterministic
  (submission) order, composing with the journal/checkpoint/resume
  machinery of :mod:`repro.runtime`.
* :mod:`repro.perf.equivalence` closes the loop: it asserts that the
  parallel path is observationally identical to the serial one,
  reporting :class:`~repro.verify.invariants.Violation` objects the
  verification harness understands.

End-to-end timing lives outside the package, in ``perfbench/``.
"""

from repro.perf.equivalence import (
    canonical_journal_entries,
    check_parallel_equivalence,
)
from repro.perf.parallel import ParallelStats, run_parallel

__all__ = [
    "ParallelStats",
    "canonical_journal_entries",
    "check_parallel_equivalence",
    "run_parallel",
]
