"""Crash-safe result cache keyed by content, not by request spelling.

The cache key is ``(dataset fingerprint, k, notion, measure)`` where
the fingerprint is a SHA-256 over the table's *content* — canonical
schema JSON (including every permissible generalization subset) plus
all rows.  Two requests that load byte-identical tables share a key no
matter how they were phrased; two tables differing in a single
permissible subset (a different QI configuration in Bettini et al.'s
sense) never collide, because serving a result computed under a
different QI configuration would be a silent guarantee violation.

Persistence rides the existing fsync-per-line
:class:`~repro.runtime.journal.Journal`: every stored body is durable
before the response leaves the service, a SIGKILL can tear at most the
final line (which :meth:`Journal.entries` tolerates), and a restarted
server replays the journal and serves every previously computed body
with zero recomputation.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from typing import Any

from repro.errors import InjectedFault, ReproError
from repro.obs import count
from repro.runtime.deadline import checkpoint
from repro.runtime.journal import Journal
from repro.runtime.retry import RetryPolicy, Sleeper, call_with_retry
from repro.tabular.io import schema_to_dict
from repro.tabular.table import Table

#: Version of the cached-body journal records.
CACHE_VERSION = 1


def table_fingerprint(table: Table) -> str:
    """SHA-256 over the table's canonical schema + row content.

    The schema serialization includes attribute names, full value
    domains and every non-trivial permissible subset, so any change to
    the QI configuration — not just to the data — changes the key.
    """
    payload = {
        "schema": schema_to_dict(table.schema),
        "rows": table.rows,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def cache_key(fingerprint: str, k: int, notion: str, measure: str) -> str:
    """The canonical cache key string for one anonymization cell."""
    return f"{fingerprint}|k={k}|notion={notion}|measure={measure}"


class ResultCache:
    """In-memory body cache with optional journal-backed durability.

    Parameters
    ----------
    journal:
        Durable backing store; ``None`` keeps the cache memory-only
        (drills and unit tests that do not exercise recovery).
    retry:
        Backoff policy for journal I/O (loads and stores retry through
        :func:`~repro.runtime.retry.call_with_retry`).
    sleeper:
        Injectable backoff sleeper, so tests never wall-clock sleep.
    """

    def __init__(
        self,
        journal: Journal | None = None,
        *,
        retry: RetryPolicy | None = None,
        sleeper: Sleeper = time.sleep,
    ) -> None:
        self.journal = journal
        self.retry = retry if retry is not None else RetryPolicy()
        self.sleeper = sleeper
        self._lock = threading.Lock()
        self._store: dict[str, dict[str, Any]] = {}
        self.recovered = 0  #: bodies replayed by the last load()

    def __len__(self) -> int:
        with self._lock:
            return len(self._store)

    def journal_bytes(self) -> int:
        """Current size of the backing journal file in bytes.

        The journal is append-only, with no compaction yet, so this
        number only grows; surfacing it as the
        ``serve.cache.journal_bytes`` gauge makes that growth visible
        on ``/metricz`` instead of discovered at disk-full.  Returns 0
        for a memory-only cache or a journal not yet written.
        """
        if self.journal is None:
            return 0
        try:
            return int(self.journal.path.stat().st_size)
        except OSError:
            return 0

    def load(self) -> int:
        """Replay the journal into memory; returns the recovery count.

        Last write wins per key; a torn final line (crash mid-append)
        is skipped by the journal reader rather than failing recovery.
        """
        self.recovered = 0
        if self.journal is None:
            return 0

        def _read() -> list[tuple[dict[str, Any], dict[str, Any]]]:
            checkpoint("serve.cache.load")
            assert self.journal is not None
            return self.journal.entries()

        entries = call_with_retry(
            _read, policy=self.retry, sleep=self.sleeper
        )
        loaded: dict[str, dict[str, Any]] = {}
        for key, value in entries:
            cell = key.get("cache_key")
            body = value.get("body")
            if (
                value.get("cache_v") != CACHE_VERSION
                or not isinstance(cell, str)
                or not isinstance(body, dict)
            ):
                count("serve.cache.skipped_records")
                continue
            loaded[cell] = body
        with self._lock:
            self._store.update(loaded)
        self.recovered = len(loaded)
        count("serve.cache.recovered", self.recovered)
        return self.recovered

    def get(self, key: str) -> dict[str, Any] | None:
        """The cached body for ``key``, or ``None`` (tallies hit/miss)."""
        with self._lock:
            body = self._store.get(key)
        count("serve.cache.hits" if body is not None else "serve.cache.misses")
        return body

    def put(self, key: str, body: dict[str, Any]) -> None:
        """Store a body in memory and (best-effort) durably.

        The in-memory store always succeeds; the journal append retries
        under the policy and, if it *still* fails, the failure is
        counted and swallowed — a cache that lost durability degrades
        to recomputing after a crash, which is strictly better than
        failing a request whose result is already in hand.
        """

        def _persist() -> None:
            checkpoint("serve.cache.store")
            if self.journal is not None:
                self.journal.append(
                    {"cache_key": key}, {"cache_v": CACHE_VERSION, "body": body}
                )

        with self._lock:
            self._store[key] = body
        try:
            call_with_retry(_persist, policy=self.retry, sleep=self.sleeper)
        except (OSError, InjectedFault, ReproError):
            count("serve.cache.store_failures")
