"""Structured spans with JSONL export and Chrome trace conversion.

A :class:`Tracer` records *spans* — named, nested durations opened with
the :meth:`Tracer.span` context manager.  Instrumented code does not
hold a tracer; it calls the module-level :func:`span` helper, which
no-ops unless a tracer was activated with :func:`trace_scope` (one
``ContextVar`` read on the off path, same pattern as the metrics
stack).

Checkpoint piggybacking: :func:`observe_site` is called by
``repro.runtime.checkpoint`` on every cooperative-checkpoint hit, and
folds the site name into the innermost open span's ``sites`` tally.
The 20+ existing checkpoint sites already thread through every
registered algorithm's hot loop, the bipartite row scan, dataset
loaders, fallback rungs and the parallel submit/collect loop — so
traces show *where work went* without any per-iteration event emission
or new plumbing.

Persistence goes through :mod:`repro.obs.durable`, like every journal
in the library: each completed span is one JSON line appended under the
tracer's lock with flush+fsync, :func:`load_trace` skips a torn final
line, and :func:`write_chrome_trace` replaces its target atomically.
Timestamps come from an injectable :data:`Clock` (the same callable
shape ``repro.runtime.deadline`` uses), stored relative to the tracer's
origin so fake clocks yield byte-deterministic traces.

``repro-anon obs convert`` turns the JSONL into Chrome
``trace_event`` JSON loadable by ``chrome://tracing`` or Perfetto.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.obs.durable import append_json_line, read_json_lines, replace_text

__all__ = [
    "Clock",
    "TRACE_VERSION",
    "Tracer",
    "NullTracer",
    "active_tracer",
    "chrome_trace",
    "load_trace",
    "observe_site",
    "span",
    "trace_scope",
    "write_chrome_trace",
]

#: Monotonic-seconds supplier.  Canonical home of the alias shared with
#: ``repro.runtime.deadline`` (which re-exports it — the runtime layer
#: sits above ``obs``, so the import runs this way).
Clock = Callable[[], float]

#: Version stamped on every span line.
TRACE_VERSION = 1


class _SpanFrame:
    """Mutable book-keeping for one open span."""

    __slots__ = ("name", "started", "args", "sites")

    def __init__(self, name: str, started: float, args: Dict[str, Any]):
        self.name = name
        self.started = started
        self.args = args
        self.sites: Dict[str, int] = {}


class Tracer:
    """Span recorder with optional append-only JSONL persistence.

    Parameters
    ----------
    path:
        JSONL file to append completed spans to.  ``None`` keeps spans
        in memory only (:attr:`events`).
    clock:
        Injectable time source; defaults to ``time.monotonic``.
        Timestamps are recorded relative to the tracer's construction
        so a fake clock produces fully deterministic traces.
    pid / tid:
        Overrides for the process id and thread-id supplier, for tests.
    """

    #: False only on :class:`NullTracer`; lets scopes skip no-ops.
    enabled = True

    def __init__(
        self,
        path: "str | os.PathLike[str] | None" = None,
        clock: Clock = time.monotonic,
        pid: Optional[int] = None,
        tid: Optional[Callable[[], int]] = None,
    ) -> None:
        self.path = Path(path) if path is not None else None
        self.clock = clock
        self.pid = os.getpid() if pid is None else pid
        self._tid = tid if tid is not None else threading.get_ident
        self._origin = clock()
        self._lock = threading.Lock()
        #: Completed spans, in completion order (children before parents).
        self.events: List[Dict[str, Any]] = []

    # ----------------------------------------------------------------- #

    @contextmanager
    def span(self, name: str, **args: Any) -> Iterator[None]:
        """Open a named span for the duration of the ``with`` body.

        Keyword arguments become the span's ``args`` payload (must be
        JSON-serializable).  Checkpoint hits inside the body are tallied
        into the span's ``sites`` map via :func:`observe_site`.
        """
        frame = _SpanFrame(name, self.clock(), dict(args))
        token = _SPANS.set(_SPANS.get() + (frame,))
        try:
            yield
        finally:
            _SPANS.reset(token)
            self._emit(frame, self.clock())

    def _emit(self, frame: _SpanFrame, ended: float) -> None:
        record: Dict[str, Any] = {
            "v": TRACE_VERSION,
            "name": frame.name,
            "ts": frame.started - self._origin,
            "dur": ended - frame.started,
            "pid": self.pid,
            "tid": self._tid(),
        }
        if frame.args:
            record["args"] = frame.args
        if frame.sites:
            record["sites"] = {
                site: frame.sites[site] for site in sorted(frame.sites)
            }
        # One lock per tracer: concurrent threads interleave whole
        # lines, never fragments, and a crash loses at most the last.
        with self._lock:
            if self.path is not None:
                append_json_line(self.path, record)
            self.events.append(record)


class NullTracer(Tracer):
    """Tracer that records nothing; activating it is a no-op."""

    enabled = False

    def __init__(self) -> None:
        super().__init__(path=None, clock=lambda: 0.0, pid=0, tid=lambda: 0)

    @contextmanager
    def span(self, name: str, **args: Any) -> Iterator[None]:  # noqa: D102
        yield


#: The active tracer, if any.  A single slot (not a stack): traces from
#: two tracers at once have no consumer, and one slot keeps the hot
#: :func:`observe_site` path to a single ContextVar read.
_TRACER: ContextVar[Optional[Tracer]] = ContextVar(
    "repro_obs_tracer", default=None
)

#: Context-local stack of open span frames (shared across tracers —
#: only one can be active).
_SPANS: ContextVar[Tuple[_SpanFrame, ...]] = ContextVar(
    "repro_obs_spans", default=()
)


def active_tracer() -> Optional[Tracer]:
    """The tracer activated by the innermost :func:`trace_scope`."""
    return _TRACER.get()


@contextmanager
def trace_scope(tracer: Tracer) -> Iterator[Tracer]:
    """Activate ``tracer`` for the ``with`` body.

    A :class:`NullTracer` is not installed at all, preserving the
    empty fast path in :func:`observe_site` and :func:`span`.
    """
    if not tracer.enabled:
        yield tracer
        return
    token = _TRACER.set(tracer)
    try:
        yield tracer
    finally:
        _TRACER.reset(token)


@contextmanager
def span(name: str, **args: Any) -> Iterator[None]:
    """Open a span on the active tracer, or do nothing if tracing is off."""
    tracer = _TRACER.get()
    if tracer is None:
        yield
        return
    with tracer.span(name, **args):
        yield


def observe_site(site: str) -> None:
    """Tally a checkpoint hit into the innermost open span.

    Called by ``repro.runtime.checkpoint`` on every cooperative
    checkpoint; with tracing off this is one ContextVar read.  Hits
    outside any span are dropped — a site tally is only meaningful
    against a span's duration.
    """
    if _TRACER.get() is None:
        return
    stack = _SPANS.get()
    if stack:
        sites = stack[-1].sites
        sites[site] = sites.get(site, 0) + 1


# --------------------------------------------------------------------- #
# Loading and Chrome trace_event conversion
# --------------------------------------------------------------------- #


def load_trace(
    path: "str | os.PathLike[str]",
) -> Tuple[List[Dict[str, Any]], int]:
    """``(spans, skipped)``: a span JSONL file's records, and the count
    of lines skipped as unreadable (a torn final line, say).

    Raises :class:`~repro.errors.ReproError` if the file cannot be read
    (:func:`~repro.obs.durable.read_json_lines`).
    """
    return read_json_lines(path)


def chrome_trace(events: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Convert span records to Chrome ``trace_event`` JSON.

    Each span becomes a complete event (``"ph": "X"``) with
    microsecond ``ts``/``dur``, viewable in ``chrome://tracing`` or
    https://ui.perfetto.dev.  Checkpoint-site tallies ride along in
    ``args``.
    """
    trace_events: List[Dict[str, Any]] = []
    for event in events:
        args = dict(event.get("args", {}))
        if event.get("sites"):
            args["sites"] = event["sites"]
        trace_events.append(
            {
                "ph": "X",
                "name": str(event.get("name", "?")),
                "cat": "repro",
                "ts": round(float(event.get("ts", 0.0)) * 1e6, 3),
                "dur": round(float(event.get("dur", 0.0)) * 1e6, 3),
                "pid": int(event.get("pid", 0)),
                "tid": int(event.get("tid", 0)),
                "args": args,
            }
        )
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def write_chrome_trace(
    events: List[Dict[str, Any]], path: "str | os.PathLike[str]"
) -> None:
    """Serialize :func:`chrome_trace` output to ``path`` atomically."""
    payload = json.dumps(chrome_trace(events), sort_keys=True)
    replace_text(path, payload + "\n")
