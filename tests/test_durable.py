"""Tests for repro.obs.durable: the one durable-file path.

Covers the four primitives on their own (torn tails, unreadable files,
failed and concurrent replaces), then every reader built on them: the
CLI's ``obs`` and ``audit`` commands exit 2 with a typed error on a
missing or undecodable file, and a journal whose last line is garbage
bytes still resumes an experiment and still recovers the service.
"""

from __future__ import annotations

import json
import os
import sys
import threading

import pytest

from repro.cli import main
from repro.errors import ReproError
from repro.obs.durable import (
    append_json_line,
    read_json,
    read_json_lines,
    read_text,
    replace_text,
)
from repro.runtime import Journal
from repro.runtime.retry import RetryPolicy
from repro.serve import AnonymizationService, ResultCache, ServiceConfig

#: What a crash mid-append leaves behind: an ASCII prefix of a record,
#: or bytes that are not UTF-8 at all.
TORN_TAILS = [
    pytest.param(b'{"v": 1, "key": {"cell": 3}, "va', id="ascii"),
    pytest.param(b"\xff\xfe\x00garbage\x9c", id="not-utf8"),
]


def _no_sleep(_seconds: float) -> None:
    """Retry sleeper for tests: backoff is scheduled, not waited."""


def _leftovers(directory, keep):
    return sorted(p.name for p in directory.iterdir() if p.name not in keep)


# --------------------------------------------------------------------- #
# the four primitives
# --------------------------------------------------------------------- #


class TestJsonLines:
    def test_append_writes_one_sorted_key_line_per_record(self, tmp_path):
        path = tmp_path / "log.jsonl"
        append_json_line(path, {"b": 1, "a": {"d": 2, "c": 3}})
        append_json_line(path, {"z": 0})
        assert path.read_bytes() == (
            b'{"a": {"c": 3, "d": 2}, "b": 1}\n{"z": 0}\n'
        )
        assert read_json_lines(path) == (
            [{"a": {"c": 3, "d": 2}, "b": 1}, {"z": 0}],
            0,
        )

    def test_unserializable_record_leaves_no_file(self, tmp_path):
        path = tmp_path / "log.jsonl"
        with pytest.raises(TypeError):
            append_json_line(path, {"bad": object()})
        assert not path.exists()

    def test_default_coerces_before_writing(self, tmp_path):
        path = tmp_path / "log.jsonl"
        append_json_line(path, {"x": {1, 2}}, default=sorted)
        assert read_json_lines(path) == ([{"x": [1, 2]}], 0)

    @pytest.mark.parametrize("tail", TORN_TAILS)
    def test_torn_tail_is_skipped_and_counted(self, tmp_path, tail):
        path = tmp_path / "log.jsonl"
        append_json_line(path, {"n": 1})
        append_json_line(path, {"n": 2})
        with open(path, "ab") as handle:
            handle.write(tail)
        assert read_json_lines(path) == ([{"n": 1}, {"n": 2}], 1)

    def test_non_objects_and_blank_lines(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_bytes(b'{"n": 1}\n\n[1, 2]\n"text"\nnot json\n{"n": 2}\n')
        assert read_json_lines(path) == ([{"n": 1}, {"n": 2}], 3)

    def test_missing_file_is_a_typed_error(self, tmp_path):
        with pytest.raises(ReproError, match="cannot read"):
            read_json_lines(tmp_path / "absent.jsonl")

    def test_directory_is_a_typed_error(self, tmp_path):
        with pytest.raises(ReproError, match="cannot read"):
            read_json_lines(tmp_path)


class TestReadJson:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "doc.json"
        replace_text(path, json.dumps({"a": [1, 2]}))
        assert read_json(path) == {"a": [1, 2]}

    @pytest.mark.parametrize(
        "content",
        [b"\xff\xfe not utf-8", b'{"a": ', b"", b"[1, 2]"],
        ids=["not-utf8", "truncated", "empty", "not-an-object"],
    )
    def test_unparsable_document_is_a_typed_error(self, tmp_path, content):
        path = tmp_path / "doc.json"
        path.write_bytes(content)
        with pytest.raises(ReproError, match="cannot read|not a JSON object"):
            read_json(path)

    def test_missing_file_is_a_typed_error(self, tmp_path):
        with pytest.raises(ReproError, match="cannot read"):
            read_json(tmp_path / "absent.json")


class TestReadText:
    def test_round_trip_keeps_line_ends(self, tmp_path):
        path = tmp_path / "rows.csv"
        replace_text(path, "a,b\r\n1,✓\r\n")
        assert path.read_bytes() == "a,b\r\n1,✓\r\n".encode("utf-8")
        assert read_text(path) == "a,b\r\n1,✓\r\n"

    @pytest.mark.parametrize(
        "content", [None, b"a,b\r\n\xff\xfe\x9c"], ids=["missing", "not-utf8"]
    )
    def test_unreadable_file_is_a_typed_error(self, tmp_path, content):
        path = tmp_path / "rows.csv"
        if content is not None:
            path.write_bytes(content)
        with pytest.raises(ReproError, match="cannot read"):
            read_text(path)


class TestReplaceText:
    def test_writes_then_replaces_leaving_no_temp(self, tmp_path):
        target = tmp_path / "report.txt"
        replace_text(target, "first\n")
        replace_text(target, "second ✓\n")
        assert target.read_bytes() == "second ✓\n".encode("utf-8")
        assert _leftovers(tmp_path, {"report.txt"}) == []

    def test_relative_path_lands_in_the_working_directory(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        replace_text("here.txt", "x")
        assert (tmp_path / "here.txt").read_text() == "x"
        assert _leftovers(tmp_path, {"here.txt"}) == []

    @pytest.mark.parametrize("primitive", ["replace", "fsync"])
    def test_failed_replace_keeps_the_old_file_and_no_temp(
        self, tmp_path, monkeypatch, primitive
    ):
        target = tmp_path / "report.txt"
        replace_text(target, "original")

        def broken(*_args):
            raise OSError(f"injected {primitive} failure")

        monkeypatch.setattr(os, primitive, broken)
        with pytest.raises(OSError, match="injected"):
            replace_text(target, "clobbered")
        monkeypatch.undo()
        assert target.read_text() == "original"
        assert _leftovers(tmp_path, {"report.txt"}) == []

    # The fault-injection case (runtime.journal.replace) is
    # tests/test_runtime.py::test_atomic_write_fault_leaves_no_temp_file.

    def test_concurrent_replaces_leave_one_complete_file(self, tmp_path):
        target = tmp_path / "dump.json"
        payloads = [str(i) * 200_000 for i in range(4)]  # > 2 cores
        start = threading.Barrier(len(payloads), timeout=30)

        def write(text: str) -> None:
            start.wait()
            for _ in range(5):
                replace_text(target, text)

        threads = [
            threading.Thread(target=write, args=(text,)) for text in payloads
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert target.read_text() in payloads
        assert _leftovers(tmp_path, {"dump.json"}) == []


# --------------------------------------------------------------------- #
# readers built on the primitives
# --------------------------------------------------------------------- #


class TestJournalTornTail:
    # The ASCII torn line is tests/test_runtime.py::
    # test_torn_final_line_is_tolerated_and_counted.
    def test_entries_skip_and_count_a_non_utf8_tail(self, tmp_path):
        journal = Journal(tmp_path / "run.jsonl")
        journal.append({"cell": 1}, {"cost": 1.0})
        with open(journal.path, "ab") as handle:
            handle.write(b"\xff\xfe\x00garbage\x9c")
        assert journal.entries() == [({"cell": 1}, {"cost": 1.0})]
        assert journal.corrupt_lines == 1

    def test_garbage_tail_still_resumes_an_experiment(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_BENCH_N", "30")
        journal = tmp_path / "grid.jsonl"
        assert main(["experiment", "fig2", "--journal", str(journal)]) == 0
        cells = len(Journal(journal).entries())
        with open(journal, "ab") as handle:
            handle.write(b"\x80\xff\xfe torn \xc3")
        capsys.readouterr()
        code = main(
            ["experiment", "fig2", "--journal", str(journal), "--resume"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert f"0 cells computed, {cells} resumed" in out

    def test_garbage_tail_still_recovers_the_service(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        retry = RetryPolicy(attempts=3, base_delay=0.0, seed=0)
        cache = ResultCache(Journal(path), retry=retry, sleeper=_no_sleep)
        cache.put("good", {"cost": 7})
        with open(path, "ab") as handle:
            handle.write(b"\xff\xfe\x00garbage")
        service = AnonymizationService(
            ServiceConfig(retry=retry),
            ResultCache(Journal(path), retry=retry, sleeper=_no_sleep),
            sleeper=_no_sleep,
        )
        assert service.recover() == 1
        assert service.cache.get("good") == {"cost": 7}


class TestCliReadFailures:
    """Every CLI read of a missing or undecodable file exits 2 with
    ``error: cannot read …``; a torn JSON-lines tail is skipped."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["obs", "convert", "{missing}", "--out", "{out}"],
            ["obs", "summarize", "--trace", "{missing}"],
            ["obs", "tail", "{missing}"],
            ["obs", "summarize", "--metrics", "{missing}"],
            ["obs", "export", "{missing}"],
            [
                "audit", "--schema", "{missing}", "--table", "{missing}",
                "--release", "{missing}", "--k", "2",
            ],
        ],
        ids=[
            "convert", "summarize-trace", "tail", "summarize-metrics",
            "export", "audit-schema",
        ],
    )
    def test_missing_file_exits_2(self, tmp_path, capsys, argv):
        names = {
            "missing": str(tmp_path / "absent"),
            "out": str(tmp_path / "out.json"),
        }
        assert main([arg.format(**names) for arg in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "flag", ["--metrics", "--flight"], ids=["metrics", "flight"]
    )
    def test_non_utf8_document_exits_2(self, tmp_path, capsys, flag):
        path = tmp_path / "doc.json"
        path.write_bytes(b"\xff\xfe\x00\x9c")
        assert main(["obs", "summarize", flag, str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: cannot read")

    @pytest.mark.parametrize(
        "case", ["audit-missing-table", "audit-non-utf8-table", "anonymize-missing-input"]
    )
    def test_unreadable_csv_exits_2(self, tmp_path, capsys, case):
        from repro.datasets import schema_of
        from repro.tabular.io import write_schema_json

        schema = tmp_path / "schema.json"
        write_schema_json(schema_of("art"), schema)
        table = tmp_path / "table.csv"
        if case == "audit-non-utf8-table":
            table.write_bytes(b"\xff\xfe\x00\x9c")
        if case.startswith("audit"):
            argv = [
                "audit", "--schema", str(schema), "--table", str(table),
                "--release", str(table), "--k", "2",
            ]
        else:
            argv = [
                "anonymize", "--input", str(table), "--schema", str(schema),
                "--k", "2", "--out", str(tmp_path / "release.csv"),
            ]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read")
        assert "Traceback" not in err

    def test_non_utf8_schema_exits_2(self, tmp_path, capsys):
        schema = tmp_path / "schema.json"
        schema.write_bytes(b"\xff\xfe\x00\x9c")
        code = main([
            "audit", "--schema", str(schema), "--table", str(schema),
            "--release", str(schema), "--k", "2",
        ])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: cannot read")

    def _trace_with_garbage_tail(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        append_json_line(
            path,
            {"v": 1, "name": "kept", "ts": 0.0, "dur": 1.0, "pid": 1, "tid": 2},
        )
        with open(path, "ab") as handle:
            handle.write(b"\xff\xfe\x00garbage")
        return path

    def test_convert_skips_a_non_utf8_tail(self, tmp_path, capsys):
        trace = self._trace_with_garbage_tail(tmp_path)
        out = tmp_path / "trace.chrome.json"
        assert main(["obs", "convert", str(trace), "--out", str(out)]) == 0
        assert (
            f"1 spans converted to {out} (1 lines skipped)"
            in capsys.readouterr().out
        )
        events = json.loads(out.read_text())["traceEvents"]
        assert [e["name"] for e in events] == ["kept"]

    def test_summarize_skips_a_non_utf8_tail(self, tmp_path, capsys):
        trace = self._trace_with_garbage_tail(tmp_path)
        assert main(["obs", "summarize", "--trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert f"{trace}: 1 spans (1 lines skipped)" in out
        assert "kept" in out

    def test_tail_skips_a_non_utf8_tail(self, tmp_path, capsys):
        from repro.obs import append_obs_record

        journal = tmp_path / "OBS_x.jsonl"
        append_obs_record(
            journal, kind="experiment", stamp="s1", snapshot={"counters": {}}
        )
        with open(journal, "ab") as handle:
            handle.write(b"\xff\xfe\x00garbage")
        assert main(["obs", "tail", str(journal)]) == 0
        assert (
            f"{journal}: 1 records (1 lines skipped)"
            in capsys.readouterr().out
        )

    READ_COMMANDS = pytest.mark.parametrize(
        "argv",
        [
            ["obs", "convert", "{path}", "--out", "{out}"],
            ["obs", "summarize", "--trace", "{path}"],
            ["obs", "tail", "{path}"],
        ],
        ids=["convert", "summarize-trace", "tail"],
    )

    @READ_COMMANDS
    def test_no_readable_record_exits_2(self, tmp_path, capsys, argv):
        path = tmp_path / "garbage.jsonl"
        path.write_bytes(b"\xff\xfe garbage\n\x9c\x00 more garbage\n")
        out = tmp_path / "out.json"
        assert main([a.format(path=path, out=out) for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(
            f"error: no readable record in {path} (2 lines skipped)"
        )
        assert "Traceback" not in captured.err
        assert not out.exists()

    @READ_COMMANDS
    def test_empty_file_exits_0(self, tmp_path, capsys, argv):
        path = tmp_path / "empty.jsonl"
        path.write_bytes(b"")
        out = tmp_path / "out.json"
        assert main([a.format(path=path, out=out) for a in argv]) == 0
        assert "(0 lines skipped)" in capsys.readouterr().out
