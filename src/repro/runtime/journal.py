"""Crash-safe JSONL journals and atomic file writes, with fault sites.

The experiment harness can spend hours filling a (dataset, algorithm,
measure, k) grid; a crash at cell 900 of 1000 must not lose the first
899.  The journal is an append-only JSONL file of completed cells —
each line is one self-contained ``{"key": ..., "value": ..., "v": 1}``
object, durable once :meth:`Journal.append` returns.  A crash can only
tear the *final* line, which :meth:`Journal.entries` skips and counts
instead of refusing the whole file.

The bytes and the torn-line policy live in :mod:`repro.obs.durable`,
shared with traces, the OBS journal and whole-file artifacts; this
module adds the record shape and the ``runtime.journal.*`` fault sites.
The journal is generic — keys and values are plain JSON objects — so it
lives in the low-level runtime layer; the experiment runner owns the
typed ``RunKey`` and converts at the boundary.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Iterator

from repro.errors import ReproError
from repro.obs.durable import append_json_line, read_json_lines, replace_text
from repro.runtime.deadline import checkpoint

#: Journal line schema version.
JOURNAL_VERSION = 1


def atomic_write_text(path: str | Path, text: str) -> None:
    """:func:`repro.obs.durable.replace_text` behind the
    ``runtime.journal.replace`` fault site."""
    checkpoint("runtime.journal.replace")
    replace_text(path, text)


class Journal:
    """An append-only JSONL journal of ``(key, value)`` records.

    Parameters
    ----------
    path:
        The journal file.  The parent directory must exist; the file is
        created on first append.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.corrupt_lines = 0  #: torn/malformed lines seen by entries()

    def exists(self) -> bool:
        """Whether the journal file is present on disk."""
        return self.path.is_file()

    def append(self, key: dict[str, Any], value: dict[str, Any]) -> None:
        """Durably append one record (flush + fsync before returning)."""
        checkpoint("runtime.journal.append")
        append_json_line(
            self.path,
            {"v": JOURNAL_VERSION, "key": key, "value": value},
            default=_jsonify,
        )

    def entries(self) -> list[tuple[dict[str, Any], dict[str, Any]]]:
        """Every intact ``(key, value)`` record, in append order.

        A torn line — the signature of a crash mid-append — or an object
        without ``v``, a ``key`` object and a ``value`` object is skipped
        and counted in :attr:`corrupt_lines` rather than failing the
        load; resuming from a prefix is always safe because the journal
        only ever records *finished* work.  An unreadable file or another
        journal version raises :class:`~repro.errors.ReproError`.
        """
        checkpoint("runtime.journal.load")
        self.corrupt_lines = 0
        if not self.path.is_file():
            return []
        records, self.corrupt_lines = read_json_lines(self.path)
        out: list[tuple[dict[str, Any], dict[str, Any]]] = []
        for record in records:
            if not {"v", "key", "value"} <= record.keys():
                self.corrupt_lines += 1
                continue
            if record["v"] != JOURNAL_VERSION:
                raise ReproError(
                    f"journal {self.path} has version {record['v']!r} "
                    f"records; this build reads version {JOURNAL_VERSION}"
                )
            key, value = record["key"], record["value"]
            if not isinstance(key, dict) or not isinstance(value, dict):
                self.corrupt_lines += 1
                continue
            out.append((key, value))
        return out

    def __iter__(self) -> Iterator[tuple[dict[str, Any], dict[str, Any]]]:
        return iter(self.entries())

    def __repr__(self) -> str:
        return f"Journal({str(self.path)!r})"


def _jsonify(value: Any) -> Any:
    """Coerce numpy scalars (and similar) appearing in diagnostics."""
    for attr in ("item",):
        coerce = getattr(value, attr, None)
        if callable(coerce):
            return coerce()
    raise TypeError(
        f"journal values must be JSON-serializable, got {type(value).__name__}"
    )
