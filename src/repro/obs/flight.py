"""Flight recorder: a bounded ring of recent request summaries.

Aggregates (counters, windows, SLO burn rates) say *that* the serving
path degraded; the flight recorder keeps the *evidence* — the last N
per-request summaries and error envelopes — so the first breach of an
SLO can be debugged from the dump it triggered instead of from a
reproduction attempt.  Three ways out of the ring:

- :meth:`snapshot` — served live on ``GET /debugz``;
- :meth:`dump` — atomic file write
  (:func:`repro.obs.durable.replace_text`), fired once per SLO breach
  edge and from the chaos drill;
- the ring itself simply forgetting: fixed capacity, oldest-first
  eviction, with an explicit ``dropped`` tally so a dump is honest
  about what it no longer holds.

Entries are plain JSON-ready dicts.  The recorder never touches the
wall clock — the caller's injectable clock stamps entries, keeping
dumps deterministic under fake clocks.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from typing import Any, Deque, Dict, Mapping

from repro.obs.durable import replace_text
from repro.obs.tracer import Clock

__all__ = [
    "FLIGHT_VERSION",
    "FlightRecorder",
]

#: Schema marker on snapshots and dump files.
FLIGHT_VERSION = 1


class FlightRecorder:
    """Thread-safe bounded ring of recent observation entries."""

    def __init__(
        self,
        capacity: int = 256,
        *,
        clock: Clock = time.monotonic,
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = int(capacity)
        self.clock = clock
        self._lock = threading.Lock()
        self._entries: Deque[Dict[str, Any]] = deque(maxlen=self.capacity)
        self._seq = 0
        self._dropped = 0

    def record(self, kind: str, summary: Mapping[str, Any]) -> int:
        """Append one entry; returns its monotonically increasing seq.

        ``kind`` tags the entry family (``"request"``, ``"error"``,
        ``"breach"``); ``summary`` is copied so later caller mutation
        cannot rewrite history.
        """
        with self._lock:
            self._seq += 1
            if len(self._entries) == self.capacity:
                self._dropped += 1
            self._entries.append(
                {
                    "seq": self._seq,
                    "at": float(self.clock()),
                    "kind": str(kind),
                    "summary": dict(summary),
                }
            )
            return self._seq

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready view of the ring, oldest entry first."""
        with self._lock:
            return {
                "v": FLIGHT_VERSION,
                "capacity": self.capacity,
                "recorded": self._seq,
                "dropped": self._dropped,
                "entries": [dict(entry) for entry in self._entries],
            }

    def dump(self, path: "str | os.PathLike[str]") -> Dict[str, Any]:
        """Write the snapshot atomically; returns what was written.

        A reader never sees a half-written dump, a crash mid-dump leaves
        any previous dump intact, and concurrent dumps each write their
        own temp file (:func:`~repro.obs.durable.replace_text`).
        """
        snap = self.snapshot()
        replace_text(path, json.dumps(snap, sort_keys=True, indent=2) + "\n")
        return snap
