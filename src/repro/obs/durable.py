"""The one durable-file path: fsynced JSON lines and atomic replaces.

A journal (the runtime journal, span traces, ``OBS_*.jsonl``) is
written by :func:`append_json_line` — one sorted-key object per line,
flushed and fsynced, so a crash can tear only the final line — and read
by :func:`read_json_lines`, which skips and counts any line that is not
a UTF-8 JSON object.  A whole document is written by
:func:`replace_text` (unique temp file beside the target, fsync,
``os.replace``) and read back by :func:`read_text`, or by
:func:`read_json` as one JSON object.  A file that cannot be read, or
is not UTF-8, is a :class:`~repro.errors.ReproError` (``cannot read …``).

Nothing here fires a fault site; callers that want one checkpoint first.
"""

from __future__ import annotations

import json
import os
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import ReproError

__all__ = [
    "append_json_line",
    "read_json",
    "read_json_lines",
    "read_text",
    "replace_text",
]


def append_json_line(
    path: "str | os.PathLike[str]",
    record: Dict[str, Any],
    *,
    default: Optional[Callable[[Any], Any]] = None,
) -> None:
    """Append ``record`` as one sorted-key JSON line, flushed and fsynced.

    The record is serialized before the file is opened, so a value that
    cannot be encoded raises ``TypeError`` and writes nothing.
    Concurrent writers of one file must hold one lock around the call.
    """
    line = json.dumps(record, sort_keys=True, default=default)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(line + "\n")
        handle.flush()
        os.fsync(handle.fileno())


def read_json_lines(
    path: "str | os.PathLike[str]",
) -> Tuple[List[Dict[str, Any]], int]:
    """``(records, skipped)``: the file's JSON-object lines, streamed.

    Blank lines are ignored; a line that is not UTF-8, not JSON or not
    an object (a torn tail) is skipped and counted.
    """
    records: List[Dict[str, Any]] = []
    skipped = 0
    try:
        with open(path, "rb") as handle:
            for raw in handle:
                raw = raw.strip()
                if not raw:
                    continue
                try:
                    record = json.loads(raw.decode("utf-8"))
                except ValueError:  # UnicodeDecodeError or JSONDecodeError
                    record = None
                if isinstance(record, dict):
                    records.append(record)
                else:
                    skipped += 1
    except OSError as exc:
        raise ReproError(f"cannot read {os.fspath(path)}: {exc}") from exc
    return records, skipped


def read_text(path: "str | os.PathLike[str]") -> str:
    """The UTF-8 text that is the whole of ``path``, line ends as written."""
    try:
        with open(path, "rb") as handle:
            return handle.read().decode("utf-8")
    except (OSError, ValueError) as exc:  # ValueError: UnicodeDecodeError
        raise ReproError(f"cannot read {os.fspath(path)}: {exc}") from exc


def read_json(path: "str | os.PathLike[str]") -> Dict[str, Any]:
    """The UTF-8 JSON object that is the whole of ``path``."""
    text = read_text(path)
    try:
        payload = json.loads(text)
    except ValueError as exc:
        raise ReproError(f"cannot read {os.fspath(path)}: {exc}") from exc
    if not isinstance(payload, dict):
        raise ReproError(f"{os.fspath(path)} is not a JSON object")
    return payload


def replace_text(path: "str | os.PathLike[str]", text: str) -> None:
    """Replace ``path`` with ``text`` (UTF-8, line ends as given) atomically.

    Readers see the old file or the new one, never a prefix.  Each call
    writes its own randomly named temp file beside the target, created
    exclusively with the mode ``open()`` gives a new file, so concurrent
    replaces never share one; a failure removes it and leaves the old
    file as it was.
    """
    directory, name = os.path.split(os.fspath(path))
    tmp = os.path.join(directory, f"{name}.{os.urandom(6).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
