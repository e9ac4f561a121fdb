"""Backend selection for the agglomerative engine.

The backend chooses which engine runs Algorithms 1–2 (the
agglomerative family, including the blocked scalable driver); every
other algorithm has a single implementation.  The (k,1)/(1,k) family
(Algorithms 3–6) always prices candidate unions with the fused
join→cost kernel :class:`repro.measures.base.FusedJoinCost`.

``"python"``
    The seed-era engine: per-slot NumPy rows and a dense O(n²) distance
    matrix.  Always available, always the reference for differential
    testing.
``"columnar"``
    The bucketed engine of :mod:`repro.core.columnar`: cluster-feature
    bucketing over the generalization lattice and certified candidate
    pruning.  Requires NumPy; produces **bit-identical** outputs (same
    merge sequence, same tie-breaking) — the property the differential
    fuzz harness and
    :func:`repro.perf.equivalence.check_backend_equivalence` enforce.

This module is deliberately NumPy-free at import time: it is the one
place the package probes for the accelerator, so the probe itself must
work on an interpreter without NumPy.  When NumPy is absent,
:func:`resolve_backend` degrades a ``"columnar"`` request gracefully to
``"python"`` instead of failing — backend choice is a performance
preference, never a correctness knob.

The default may be steered per-process with the ``REPRO_BACKEND``
environment variable; explicit arguments always win.
"""

from __future__ import annotations

import importlib.util
import os
import sys

from repro.errors import ReproError

#: Recognized backend names, reference implementation first.
BACKENDS: tuple[str, ...] = ("python", "columnar")

#: Backend used when the caller does not choose one.
DEFAULT_BACKEND = "python"

#: Environment variable consulted when no backend is passed explicitly.
BACKEND_ENV_VAR = "REPRO_BACKEND"

_available: bool | None = None


def columnar_available() -> bool:
    """Whether the columnar backend can run in this interpreter.

    True iff NumPy is importable.  The probe uses
    :func:`importlib.util.find_spec` so merely *asking* never imports
    NumPy; the answer is cached for the life of the process.
    """
    global _available
    if _available is None:
        if "numpy" in sys.modules:
            # repro: allow[REP010] idempotent availability cache; every process converges to the same answer
            _available = True
        else:
            try:
                # repro: allow[REP010] idempotent availability cache; every process converges to the same answer
                _available = importlib.util.find_spec("numpy") is not None
            except (ImportError, ValueError):
                # repro: allow[REP010] idempotent availability cache; every process converges to the same answer
                _available = False
    return _available


def backend_names() -> list[str]:
    """All recognized backend names (for CLI choices and docs)."""
    return list(BACKENDS)


def resolve_backend(backend: str | None) -> str:
    """Normalize a backend request to a runnable backend name.

    ``None`` consults :data:`BACKEND_ENV_VAR` and falls back to
    :data:`DEFAULT_BACKEND`.  Unknown names raise :class:`ReproError`
    (misspelling a backend should never silently change performance).
    A ``"columnar"`` request on an interpreter without NumPy resolves
    to ``"python"`` — graceful degradation, identical outputs.
    """
    if backend is None:
        # repro: allow[REP004] documented steering knob; backends are bit-equivalent so outputs never depend on it
        backend = os.environ.get(BACKEND_ENV_VAR) or DEFAULT_BACKEND
    if backend not in BACKENDS:
        raise ReproError(
            f"unknown backend {backend!r}; known backends: {list(BACKENDS)}"
        )
    if backend == "columnar" and not columnar_available():
        return "python"
    return backend
