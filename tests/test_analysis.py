"""Tests for the repro.analysis static-analysis subsystem.

Covers: every rule id against the intentional violations in
tests/fixtures/lint_targets, exact line numbers, the suppression and
baseline mechanics, the JSON output schema, the layering checker, the
CLI wiring — and the acceptance criterion that the shipped tree itself
lints clean against the committed baseline.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import repro
from repro.analysis import (
    Baseline,
    DEFAULT_LAYERS,
    Finding,
    build_tree_callgraph,
    rule_ids,
    run_lint,
)
from repro.analysis.engine import lint_tree, parse_suppressions
from repro.cli import main
from repro.errors import ReproError

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).resolve().parent / "fixtures" / "lint_targets"
PACKAGE = Path(repro.__file__).resolve().parent


@pytest.fixture(scope="module")
def fixture_report():
    return lint_tree(FIXTURES)


# --------------------------------------------------------------------- #
# the fixture tree: one violation per rule
# --------------------------------------------------------------------- #


def test_every_rule_fires_on_the_fixture(fixture_report):
    fired = {f.rule for f in fixture_report.findings}
    assert fired == {
        "REP001", "REP002", "REP003", "REP004", "REP005", "REP006",
        "REP007", "REP008", "REP009", "REP010", "REP011", "REP012",
        "REP013", "REP014", "REP015", "LAY001",
    }


def test_fixture_findings_point_at_the_right_files(fixture_report):
    by_rule = {}
    for f in fixture_report.findings:
        by_rule.setdefault(f.rule, []).append(f)
    assert [f.path for f in by_rule["REP001"]] == ["core/bad_random.py"]
    assert [f.path for f in by_rule["REP002"]] == ["tabular/bad_set.py"]
    assert [f.path for f in by_rule["REP003"]] == ["core/bad_mutate.py"]
    assert [f.path for f in by_rule["REP004"]] == ["core/bad_time.py"]
    assert sorted(f.path for f in by_rule["REP005"]) == [
        "core/fake_algo.py", "measures/bad_measure.py",
    ]
    assert [f.path for f in by_rule["REP006"]] == ["__init__.py"]
    assert [f.path for f in by_rule["REP007"]] == [
        "core/bad_swallow.py", "core/bad_swallow.py",
    ]
    assert [f.path for f in by_rule["REP008"]] == [
        "experiments/bad_timer.py"
    ] * 3
    assert [f.path for f in by_rule["REP009"]] == [
        "experiments/bad_print.py"
    ] * 2
    assert [f.path for f in by_rule["REP010"]] == ["perf/bad_worker.py"] * 2
    assert [f.path for f in by_rule["REP011"]] == ["core/bad_loop.py"] * 2
    assert [f.path for f in by_rule["REP012"]] == [
        "experiments/bad_write.py"
    ] * 2
    assert [f.path for f in by_rule["REP013"]] == [
        "obs/bad_contextvar.py"
    ] * 2
    assert [f.path for f in by_rule["REP014"]] == [
        "experiments/bad_thread.py"
    ] * 4
    assert [f.path for f in by_rule["REP015"]] == ["core/bad_site.py"] + [
        "obs/bad_metric_name.py"
    ] * 4
    assert [f.path for f in by_rule["LAY001"]] == ["tabular/bad_layer.py"]


def test_fixture_line_numbers(fixture_report):
    located = {
        (f.rule, f.path): f.line for f in fixture_report.findings
    }
    assert located[("REP001", "core/bad_random.py")] == 9
    assert located[("REP002", "tabular/bad_set.py")] == 8
    assert located[("REP003", "core/bad_mutate.py")] == 7
    assert located[("REP004", "core/bad_time.py")] == 9
    assert located[("LAY001", "tabular/bad_layer.py")] == 5
    swallow_lines = sorted(
        f.line for f in fixture_report.findings
        if f.rule == "REP007" and f.path == "core/bad_swallow.py"
    )
    assert swallow_lines == [7, 14]
    timer_lines = sorted(
        f.line for f in fixture_report.findings if f.rule == "REP008"
    )
    assert timer_lines == [8, 9, 10]
    print_lines = sorted(
        f.line for f in fixture_report.findings if f.rule == "REP009"
    )
    assert print_lines == [7, 9]
    worker_lines = sorted(
        f.line for f in fixture_report.findings if f.rule == "REP010"
    )
    assert worker_lines == [13, 17]
    loop_lines = sorted(
        f.line for f in fixture_report.findings if f.rule == "REP011"
    )
    assert loop_lines == [12, 20]
    write_lines = sorted(
        f.line for f in fixture_report.findings if f.rule == "REP012"
    )
    assert write_lines == [9, 14]
    ctxvar_lines = sorted(
        f.line for f in fixture_report.findings if f.rule == "REP013"
    )
    assert ctxvar_lines == [11, 15]
    thread_lines = sorted(
        f.line for f in fixture_report.findings if f.rule == "REP014"
    )
    assert thread_lines == [10, 12, 13, 14]
    name_lines = sorted(
        f.line for f in fixture_report.findings
        if f.rule == "REP015" and f.path == "obs/bad_metric_name.py"
    )
    assert name_lines == [9, 10, 11, 15]
    assert located[("REP015", "core/bad_site.py")] == 11


def test_semantic_negatives_stay_quiet(fixture_report):
    # The disciplined shapes sit in the same fixture files as the
    # violations and must not be flagged: the checkpoint-every-iteration
    # loop, the set-with-reset-in-finally scope, the read-only open().
    flagged = {(f.path, f.line) for f in fixture_report.findings}
    assert ("core/bad_loop.py", 27) not in flagged
    assert ("obs/bad_contextvar.py", 22) not in flagged
    assert ("experiments/bad_write.py", 18) not in flagged
    # registered literal, registered span, registered dynamic prefix
    assert ("obs/bad_metric_name.py", 18) not in flagged
    assert ("obs/bad_metric_name.py", 19) not in flagged
    # registered checkpoint site
    assert ("core/bad_site.py", 13) not in flagged


def test_suppressed_violation_is_counted_not_reported(fixture_report):
    assert [f.path for f in fixture_report.suppressed] == [
        "core/suppressed_time.py"
    ]
    assert all(
        f.path != "core/suppressed_time.py" for f in fixture_report.findings
    )


def test_fixture_report_is_not_ok(fixture_report):
    assert not fixture_report.ok


# --------------------------------------------------------------------- #
# engine mechanics
# --------------------------------------------------------------------- #


def test_clean_tree_is_ok(tmp_path):
    pkg = tmp_path / "cleanpkg"
    (pkg / "core").mkdir(parents=True)
    (pkg / "__init__.py").write_text('__all__ = ["VERSION"]\nVERSION = 1\n')
    (pkg / "core" / "algo.py").write_text(
        "def helper(xs: list) -> list:\n    return sorted(set(xs))\n"
    )
    report = lint_tree(pkg)
    assert report.ok
    assert report.findings == []
    assert report.files_scanned == 2


def test_select_filters_rules():
    report = lint_tree(FIXTURES, select=["REP002"])
    assert {f.rule for f in report.findings} == {"REP002"}


def test_select_rejects_unknown_rule_ids():
    with pytest.raises(ReproError, match="unknown rule"):
        lint_tree(FIXTURES, select=["REP999"])


def test_select_error_lists_the_valid_codes():
    with pytest.raises(ReproError, match="REP013"):
        lint_tree(FIXTURES, select=["REP999"])


def test_empty_select_is_an_error():
    with pytest.raises(ReproError, match="no runnable rules"):
        lint_tree(FIXTURES, select=[])


def test_select_of_only_disabled_layer_rules_is_an_error():
    with pytest.raises(ReproError, match="no runnable rules"):
        lint_tree(FIXTURES, select=["LAY001"], check_layers=False)


def test_suppression_requires_a_reason(tmp_path):
    pkg = tmp_path / "p"
    (pkg / "core").mkdir(parents=True)
    (pkg / "core" / "m.py").write_text(
        "import time\n"
        "def f() -> float:\n"
        "    return time.time()  # repro: allow[REP004]\n"
    )
    report = lint_tree(pkg)
    assert [f.rule for f in report.findings] == ["REP004"]
    assert report.suppressed == []


def test_suppression_on_preceding_line(tmp_path):
    pkg = tmp_path / "p"
    (pkg / "core").mkdir(parents=True)
    (pkg / "core" / "m.py").write_text(
        "import time\n"
        "def f() -> float:\n"
        "    # repro: allow[REP004] measuring is the point here\n"
        "    return time.time()\n"
    )
    report = lint_tree(pkg)
    assert report.findings == []
    assert [f.rule for f in report.suppressed] == ["REP004"]


def test_parse_suppressions_multiple_rules():
    table = parse_suppressions(
        "x = 1  # repro: allow[REP001, REP004] both fine here\n"
    )
    assert table[1].rules == {"REP001", "REP004"}
    assert table[1].reason == "both fine here"
    assert table[1].valid


def test_parse_error_is_reported_not_raised(tmp_path):
    pkg = tmp_path / "p"
    pkg.mkdir()
    (pkg / "broken.py").write_text("def broken(:\n")
    report = lint_tree(pkg)
    assert [f.rule for f in report.findings] == ["PARSE"]


def test_undecodable_file_is_a_parse_finding(tmp_path):
    # A file that is not UTF-8 is reported like a syntax error, and the
    # rest of the tree is still linted.
    pkg = tmp_path / "p"
    (pkg / "core").mkdir(parents=True)
    (pkg / "core" / "latin.py").write_bytes(b"# caf\xe9\nx = 1\n")
    (pkg / "core" / "m.py").write_text(
        "import time\n"
        "def f() -> float:\n"
        "    return time.time()\n"
    )
    report = lint_tree(pkg)
    assert [(f.rule, f.path) for f in report.findings] == [
        ("PARSE", "core/latin.py"), ("REP004", "core/m.py"),
    ]
    assert report.files_scanned == 2


def test_baseline_filters_known_findings(tmp_path):
    report = lint_tree(FIXTURES)
    rep004 = next(f for f in report.findings if f.rule == "REP004")
    baseline_file = tmp_path / "baseline.json"
    baseline_file.write_text(json.dumps({
        "version": 1,
        "entries": [{
            "rule": rep004.rule,
            "path": rep004.path,
            "message": rep004.message,
            "reason": "tolerated for the test",
        }],
    }))
    filtered = lint_tree(FIXTURES, baseline=Baseline.load(baseline_file))
    assert all(f.rule != "REP004" for f in filtered.findings)
    assert [f.rule for f in filtered.baselined] == ["REP004"]
    assert filtered.stale_baseline == []


def test_stale_baseline_entries_are_surfaced(tmp_path):
    baseline_file = tmp_path / "baseline.json"
    baseline_file.write_text(json.dumps({
        "version": 1,
        "entries": [{
            "rule": "REP001",
            "path": "core/gone.py",
            "message": "no longer exists",
            "reason": "was fixed",
        }],
    }))
    report = lint_tree(FIXTURES, baseline=Baseline.load(baseline_file))
    assert len(report.stale_baseline) == 1
    assert report.stale_baseline[0]["path"] == "core/gone.py"
    assert "stale baseline" in report.format_text()
    # A stale entry is a hard error: the report is not ok, and the text
    # names the escape hatch.
    assert not report.ok
    assert "--prune-baseline" in report.format_text()


def test_baseline_prune_rewrites_the_file(tmp_path):
    baseline_file = tmp_path / "baseline.json"
    keep = {
        "rule": "REP001", "path": "core/kept.py",
        "message": "still real", "reason": "tracked",
    }
    gone = {
        "rule": "REP004", "path": "core/gone.py",
        "message": "no longer exists", "reason": "was fixed",
    }
    baseline_file.write_text(
        json.dumps({"version": 1, "entries": [keep, gone]})
    )
    baseline = Baseline.load(baseline_file)
    removed = baseline.prune([gone])
    assert removed == 1
    rewritten = json.loads(baseline_file.read_text())
    assert rewritten["entries"] == [keep]
    # Pruning nothing leaves the file untouched.
    before = baseline_file.read_text()
    assert Baseline.load(baseline_file).prune([]) == 0
    assert baseline_file.read_text() == before


def test_stale_ignores_entries_for_unselected_rules(tmp_path):
    # A --select run that never executes REP001 cannot judge its
    # baseline entries stale; the same goes for LAY rules under
    # --no-layers.
    baseline_file = tmp_path / "baseline.json"
    baseline_file.write_text(json.dumps({
        "version": 1,
        "entries": [
            {"rule": "REP001", "path": "core/gone.py",
             "message": "no longer exists", "reason": "was fixed"},
            {"rule": "LAY001", "path": "tabular/gone.py",
             "message": "no longer exists", "reason": "was fixed"},
        ],
    }))
    baseline = Baseline.load(baseline_file)
    selected = lint_tree(FIXTURES, select=["REP002"], baseline=baseline)
    assert selected.stale_baseline == []
    no_layers = lint_tree(FIXTURES, baseline=baseline, check_layers=False)
    assert [e["rule"] for e in no_layers.stale_baseline] == ["REP001"]


def test_baseline_rejects_entries_without_reason(tmp_path):
    baseline_file = tmp_path / "baseline.json"
    baseline_file.write_text(json.dumps({
        "version": 1,
        "entries": [{
            "rule": "REP001", "path": "a.py", "message": "m", "reason": " ",
        }],
    }))
    with pytest.raises(ReproError, match="empty reason"):
        Baseline.load(baseline_file)


def test_json_schema(fixture_report):
    payload = fixture_report.to_json()
    assert payload["version"] == 1
    assert set(payload["summary"]) == {
        "findings", "baselined", "suppressed", "stale_baseline",
        "files_scanned",
    }
    for item in payload["findings"]:
        assert set(item) == {"rule", "path", "line", "col", "message"}
        assert isinstance(item["line"], int)
    assert payload["summary"]["findings"] == len(payload["findings"])
    json.dumps(payload)  # must be serializable as-is


def test_finding_fingerprint_ignores_position():
    a = Finding("p.py", 1, 0, "REP001", "msg")
    b = Finding("p.py", 99, 7, "REP001", "msg")
    assert a.fingerprint == b.fingerprint


# --------------------------------------------------------------------- #
# layering checker
# --------------------------------------------------------------------- #


def test_layer_map_covers_every_shipped_segment():
    segments = set()
    for path in PACKAGE.rglob("*.py"):
        rel = path.relative_to(PACKAGE).parts
        segments.add(rel[0] if len(rel) > 1 else Path(rel[0]).stem)
    unmapped = segments - set(DEFAULT_LAYERS) - {"__init__"}
    assert not unmapped, f"add {sorted(unmapped)} to DEFAULT_LAYERS"


def test_shipped_tree_has_no_layer_violations():
    report = lint_tree(PACKAGE, select=["LAY001", "LAY002"])
    assert report.findings == []


def test_relative_import_back_edge_is_caught(tmp_path):
    pkg = tmp_path / "rel"
    (pkg / "tabular").mkdir(parents=True)
    (pkg / "tabular" / "m.py").write_text(
        "from ..experiments import runner\n"
    )
    report = lint_tree(pkg, select=["LAY001"])
    assert [f.rule for f in report.findings] == ["LAY001"]


def test_relative_import_in_a_package_init_stays_inside_it(tmp_path):
    # `from .helper import f` in core/__init__.py names core.helper: the
    # package's __init__ is its own anchor, not its parent's.
    pkg = tmp_path / "p"
    (pkg / "core").mkdir(parents=True)
    (pkg / "core" / "__init__.py").write_text("from .helper import f\n")
    (pkg / "core" / "helper.py").write_text("def f() -> None: ...\n")
    report = lint_tree(pkg, select=["LAY001", "LAY002"])
    assert report.findings == []


def test_unmapped_segment_is_lay002(tmp_path):
    pkg = tmp_path / "u"
    (pkg / "mystery").mkdir(parents=True)
    (pkg / "mystery" / "m.py").write_text("x = 1\n")
    report = lint_tree(pkg)
    assert [f.rule for f in report.findings] == ["LAY002"]


def test_resolve_layer_longest_dotted_prefix():
    from repro.analysis import resolve_layer

    assert resolve_layer("runtime.fallback.chain") == ("runtime.fallback", 5)
    assert resolve_layer("runtime.deadline") == ("runtime", 2)
    assert resolve_layer("obs.summarize.render") == ("obs.summarize", 3)
    assert resolve_layer("mystery") is None


def test_carved_out_sublayer_is_judged_not_its_parent(tmp_path):
    # core (4) may import runtime (2), but runtime.fallback is carved
    # out at layer 5: `from p.runtime import fallback` names the deeper
    # dotted key and is a back-edge — the cycle the carve-out prevents.
    pkg = tmp_path / "p"
    (pkg / "core").mkdir(parents=True)
    (pkg / "core" / "fine.py").write_text(
        "from p.runtime import checkpoint\n"
    )
    (pkg / "core" / "cycle.py").write_text(
        "from p.runtime import fallback\n"
    )
    report = lint_tree(pkg, select=["LAY001"])
    assert [f.path for f in report.findings] == ["core/cycle.py"]
    assert "runtime.fallback" in report.findings[0].message


def test_sublayer_module_resolves_to_its_dotted_key(tmp_path):
    # A module *inside* the carved-out subpackage sits at the sublayer,
    # so runtime.fallback importing experiments (6) is still a
    # back-edge even though plain runtime is layer 2.
    pkg = tmp_path / "p"
    (pkg / "runtime" / "fallback").mkdir(parents=True)
    (pkg / "runtime" / "fallback" / "chain.py").write_text(
        "from p.experiments import runner\n"
    )
    report = lint_tree(pkg, select=["LAY001"])
    assert [f.rule for f in report.findings] == ["LAY001"]
    assert "'runtime.fallback' (layer 5)" in report.findings[0].message


def test_import_of_unmapped_segment_is_lay002(tmp_path):
    pkg = tmp_path / "p"
    (pkg / "core").mkdir(parents=True)
    (pkg / "core" / "a.py").write_text("from p.mystery import thing\n")
    report = lint_tree(pkg, select=["LAY002"])
    assert [f.rule for f in report.findings] == ["LAY002"]
    assert "mystery" in report.findings[0].message


def test_importing_the_package_facade_is_a_back_edge(tmp_path):
    # `from p import x` inside a submodule pulls in the facade, which
    # re-exports the highest layers; only the facade itself may do that.
    pkg = tmp_path / "p"
    (pkg / "core").mkdir(parents=True)
    (pkg / "core" / "a.py").write_text("from p import anything\n")
    report = lint_tree(pkg, select=["LAY001"])
    assert [f.rule for f in report.findings] == ["LAY001"]
    assert "facade" in report.findings[0].message


def test_downward_imports_are_allowed():
    # core (4) -> tabular (2) is fine; exercised indirectly by the
    # shipped-tree test, asserted directly here for the mapping itself.
    assert DEFAULT_LAYERS["core"] > DEFAULT_LAYERS["tabular"]
    assert DEFAULT_LAYERS["experiments"] > DEFAULT_LAYERS["datasets"]


# --------------------------------------------------------------------- #
# the shipped tree itself (acceptance criterion)
# --------------------------------------------------------------------- #


def test_shipped_tree_lints_clean_against_committed_baseline():
    baseline = Baseline.load(REPO_ROOT / "lint-baseline.json")
    report = lint_tree(PACKAGE, baseline=baseline)
    assert report.findings == [], report.format_text()
    assert report.stale_baseline == [], report.format_text()


def test_rule_ids_catalogue():
    assert rule_ids() == [
        "REP001", "REP002", "REP003", "REP004", "REP005", "REP006",
        "REP007", "REP008", "REP009", "REP010", "REP011", "REP012",
        "REP013", "REP014", "REP015",
    ]


def test_rep008_allows_timing_layers(tmp_path):
    # Raw clock calls are the whole point of repro.runtime; REP008 must
    # stay quiet there while flagging everyone else, repro.perf included.
    pkg = tmp_path / "p"
    for segment in ("runtime", "perf", "experiments"):
        (pkg / segment).mkdir(parents=True)
        (pkg / segment / "m.py").write_text(
            "import time\n"
            "def f() -> float:\n"
            "    return time.perf_counter()\n"
        )
    report = lint_tree(pkg, select=["REP008"])
    assert sorted(f.path for f in report.findings) == [
        "experiments/m.py", "perf/m.py",
    ]


def test_rep014_allows_serving_layers(tmp_path):
    # Threads, sleeps and sockets are the serving layer's business;
    # REP014 must stay quiet in serve/runtime while flagging the rest.
    pkg = tmp_path / "p"
    for segment in ("serve", "runtime", "experiments"):
        (pkg / segment).mkdir(parents=True)
        (pkg / segment / "m.py").write_text(
            "import threading\n"
            "import time\n"
            "def f() -> None:\n"
            "    threading.Thread(target=print).start()\n"
            "    time.sleep(0.1)\n"
        )
    report = lint_tree(pkg, select=["REP014"])
    assert [f.path for f in report.findings] == ["experiments/m.py"] * 2


def test_rep014_references_and_guards_stay_legal(tmp_path):
    # Passing time.sleep as an injectable default and taking a Lock are
    # both disciplined shapes, not violations.
    pkg = tmp_path / "p"
    (pkg / "core").mkdir(parents=True)
    (pkg / "core" / "m.py").write_text(
        "import threading\n"
        "import time\n"
        "def f(sleeper=time.sleep) -> threading.Lock:\n"
        "    return threading.Lock()\n"
    )
    report = lint_tree(pkg, select=["REP014"])
    assert report.findings == []


def test_rep009_allows_presentation_layers(tmp_path):
    # Printing is the job of cli/report/tools/__main__; everywhere else
    # a bare print() is invisible-to-the-journal debug output.
    pkg = tmp_path / "p"
    pkg.mkdir()
    for name in ("cli", "report", "__main__", "core/algo"):
        target = pkg / f"{name}.py"
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text('def f() -> None:\n    print("hi")\n')
    (pkg / "tools").mkdir()
    (pkg / "tools" / "gen.py").write_text('print("generated")\n')
    report = lint_tree(pkg, select=["REP009"])
    assert [f.path for f in report.findings] == ["core/algo.py"]


def test_rep009_ignores_shadowed_and_method_prints(tmp_path):
    # Only the builtin name counts: a method called print, or printing
    # through an attribute, is not the debug-print smell.
    pkg = tmp_path / "p"
    (pkg / "core").mkdir(parents=True)
    (pkg / "core" / "m.py").write_text(
        "class Sink:\n"
        "    def print(self) -> None: ...\n"
        "def f(s: Sink) -> None:\n"
        "    s.print()\n"
    )
    report = lint_tree(pkg, select=["REP009"])
    assert report.findings == []


# --------------------------------------------------------------------- #
# CLI wiring
# --------------------------------------------------------------------- #


def test_cli_lint_fixture_exits_nonzero(capsys):
    code = main(["lint", str(FIXTURES)])
    out = capsys.readouterr().out
    assert code == 1
    assert "REP001" in out and "LAY001" in out


def test_cli_lint_json_output(capsys):
    code = main(["lint", str(FIXTURES), "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["version"] == 1
    assert payload["summary"]["findings"] > 0


def test_cli_lint_select_and_no_layers(capsys):
    code = main([
        "lint", str(FIXTURES), "--select", "REP006", "--no-layers",
    ])
    out = capsys.readouterr().out
    assert code == 1
    assert "REP006" in out and "REP001" not in out


def test_cli_lint_package_with_baseline_is_green(capsys):
    code = main([
        "lint", str(PACKAGE),
        "--baseline", str(REPO_ROOT / "lint-baseline.json"),
    ])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "0 finding(s)" in out


def test_cli_lint_unknown_rule_is_usage_error(capsys):
    code = main(["lint", str(FIXTURES), "--select", "NOPE"])
    assert code == 2
    err = capsys.readouterr().err
    assert "unknown rule" in err
    assert "REP013" in err  # the error lists every valid code


def test_cli_lint_empty_select_is_usage_error(capsys):
    code = main(["lint", str(FIXTURES), "--select", ""])
    assert code == 2
    assert "no runnable rules" in capsys.readouterr().err


def test_cli_lint_github_format(capsys):
    code = main(["lint", str(FIXTURES), "--format", "github"])
    out = capsys.readouterr().out
    assert code == 1
    assert "::error file=" in out
    assert "title=REP011::" in out
    first = out.splitlines()[0]
    assert ",line=" in first and ",col=" in first


def test_cli_stale_baseline_fails_then_prune_recovers(tmp_path, capsys):
    pkg = tmp_path / "clean"
    (pkg / "core").mkdir(parents=True)
    (pkg / "core" / "m.py").write_text("def f() -> int:\n    return 1\n")
    baseline_file = tmp_path / "baseline.json"
    baseline_file.write_text(json.dumps({
        "version": 1,
        "entries": [{
            "rule": "REP004", "path": "core/gone.py",
            "message": "no longer exists", "reason": "was fixed",
        }],
    }))
    code = main(["lint", str(pkg), "--baseline", str(baseline_file)])
    assert code == 1
    assert "--prune-baseline" in capsys.readouterr().out
    code = main([
        "lint", str(pkg), "--baseline", str(baseline_file),
        "--prune-baseline",
    ])
    captured = capsys.readouterr()
    assert code == 0, captured.out
    assert "pruned 1 stale entr" in captured.err
    assert json.loads(baseline_file.read_text())["entries"] == []
    # The pruned file is now green without the flag.
    assert main(["lint", str(pkg), "--baseline", str(baseline_file)]) == 0


def test_cli_prune_baseline_requires_a_baseline(
    tmp_path, monkeypatch, capsys
):
    # Run from a directory with no default lint-baseline.json, or the
    # CLI would pick up (and prune!) the repo's committed one.
    monkeypatch.chdir(tmp_path)
    code = main(["lint", str(FIXTURES), "--prune-baseline"])
    assert code == 2
    assert "--baseline" in capsys.readouterr().err


def test_cli_implicit_baseline_judges_only_its_tree(
    tmp_path, monkeypatch, capsys
):
    """With no --baseline, ./lint-baseline.json applies only to entries
    whose path a scanned root contains; an explicit one is judged whole."""
    pkg = tmp_path / "clean"
    pkg.mkdir()
    (pkg / "errors.py").write_text("x = 1\n")
    monkeypatch.chdir(REPO_ROOT)
    assert main(["lint", str(pkg)]) == 0
    out = capsys.readouterr().out
    assert "stale baseline" not in out and "0 finding(s)" in out
    explicit = str(REPO_ROOT / "lint-baseline.json")
    assert main(["lint", str(pkg), "--baseline", explicit]) == 1
    assert "error: stale baseline entry" in capsys.readouterr().out


def test_baseline_within_keeps_entries_under_a_scanned_root(tmp_path):
    (tmp_path / "core").mkdir()
    (tmp_path / "core" / "m.py").write_text("x = 1\n")
    entries = [
        {"rule": "REP004", "path": path, "message": "m", "reason": "r"}
        for path in ("core/m.py", "core/gone.py", "m.py")
    ]
    baseline = Baseline(entries=entries)
    kept = baseline.within([tmp_path]).entries
    assert [e["path"] for e in kept] == ["core/m.py"]
    single = baseline.within([tmp_path / "core" / "m.py"]).entries
    assert [e["path"] for e in single] == ["m.py"]


def test_lint_report_carries_the_tree_call_graph():
    """``--callgraph`` writes the lint run's own graph: the same bytes
    the one-call helper builds from a fresh parse."""
    (report,) = run_lint([FIXTURES])
    assert report.callgraph is not None
    assert (
        report.callgraph.to_json_text()
        == build_tree_callgraph(FIXTURES).to_json_text()
    )
    (single,) = run_lint([next(FIXTURES.rglob("*.py"))])
    assert single.callgraph is None


def test_run_lint_multiple_paths(tmp_path):
    pkg = tmp_path / "clean"
    pkg.mkdir()
    (pkg / "errors.py").write_text("x = 1\n")  # 'errors' is layer-mapped
    reports = run_lint([pkg, FIXTURES])
    assert len(reports) == 2
    assert reports[0].ok
    assert not reports[1].ok
