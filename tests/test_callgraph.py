"""Tests for repro.analysis.callgraph and the checkpoint-coverage proof.

The acceptance criteria pinned here: every one of the registered
algorithms reaches ``runtime.checkpoint()`` through the statically
built call graph, and the ``--callgraph`` artifact is byte-identical
across runs.
"""

from __future__ import annotations

import json
from pathlib import Path

import repro
from repro.analysis import build_tree_callgraph, checkpoint_reaching
from repro.cli import main
from repro.verify.differential import algorithm_names

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).resolve().parent / "fixtures" / "lint_targets"
PACKAGE = Path(repro.__file__).resolve().parent


# --------------------------------------------------------------------- #
# the shipped tree: checkpoint coverage (acceptance criterion)
# --------------------------------------------------------------------- #


def test_every_registered_algorithm_is_discovered():
    graph = build_tree_callgraph(PACKAGE)
    labels = set(graph.entrypoints["algorithms"])
    assert labels == set(algorithm_names())
    assert len(labels) == 11


def test_every_registered_algorithm_reaches_checkpoint():
    graph = build_tree_callgraph(PACKAGE)
    covered = checkpoint_reaching(graph)
    missing = {
        label: qualname
        for label, qualname in graph.entrypoints["algorithms"].items()
        if qualname not in covered
    }
    assert not missing, (
        f"algorithms that cannot be deadlined/cancelled: {missing}"
    )


def test_worker_and_cell_driver_entrypoints_on_the_shipped_tree():
    graph = build_tree_callgraph(PACKAGE)
    workers = graph.entrypoints["workers"]
    assert "_worker_init" in workers and "_worker_run" in workers
    drivers = graph.entrypoints["cell_drivers"]
    assert drivers  # ExperimentRunner's public surface
    assert all(
        qualname.startswith("experiments.runner.ExperimentRunner.")
        for qualname in drivers.values()
    )


def test_reexports_resolve_to_the_defining_module():
    # `from repro.runtime import checkpoint` must land on the node that
    # defines it, not on the package facade that re-exports it.
    graph = build_tree_callgraph(PACKAGE)
    assert "runtime.deadline.checkpoint" in graph.nodes
    spec = graph.entrypoints["algorithms"]["mondrian"]
    assert graph.reaches(spec, ["runtime.deadline.checkpoint"])


# --------------------------------------------------------------------- #
# construction on a synthetic tree
# --------------------------------------------------------------------- #


def test_reexport_chain_through_init(tmp_path):
    pkg = tmp_path / "p"
    (pkg / "runtime").mkdir(parents=True)
    (pkg / "runtime" / "__init__.py").write_text(
        "from p.runtime.deadline import checkpoint\n"
    )
    (pkg / "runtime" / "deadline.py").write_text(
        "def checkpoint() -> None: ...\n"
    )
    (pkg / "core").mkdir()
    (pkg / "core" / "algo.py").write_text(
        "from p.runtime import checkpoint\n"
        "def run() -> None:\n"
        "    checkpoint()\n"
    )
    graph = build_tree_callgraph(pkg)
    assert "runtime.deadline.checkpoint" in graph.callees("core.algo.run")


def test_relative_reexport_through_a_package_init(tmp_path):
    pkg = tmp_path / "p"
    (pkg / "core").mkdir(parents=True)
    (pkg / "core" / "__init__.py").write_text("from .helper import f\n")
    (pkg / "core" / "helper.py").write_text("def f() -> None: ...\n")
    (pkg / "experiments").mkdir()
    (pkg / "experiments" / "run.py").write_text(
        "from p.core import f\n"
        "def go() -> None:\n"
        "    f()\n"
    )
    graph = build_tree_callgraph(pkg)
    assert graph.callees("experiments.run.go") == {"core.helper.f"}


def test_dotted_import_binds_its_first_name(tmp_path):
    # `import urllib.request` binds `urllib`, so the call below names
    # urllib.request.urlopen, not urllib.request.request.urlopen.
    pkg = tmp_path / "p"
    pkg.mkdir()
    (pkg / "fetch.py").write_text(
        "import urllib.request\n"
        "def get() -> None:\n"
        "    urllib.request.urlopen('http://localhost')\n"
    )
    graph = build_tree_callgraph(pkg)
    assert graph.callees("fetch.get") == {"urllib.request.urlopen"}


def test_unknown_receivers_are_dropped_not_guessed(tmp_path):
    pkg = tmp_path / "p"
    (pkg / "core").mkdir(parents=True)
    (pkg / "core" / "algo.py").write_text(
        "def run(thing) -> None:\n"
        "    thing.process()\n"
    )
    graph = build_tree_callgraph(pkg)
    assert graph.callees("core.algo.run") == frozenset()


# --------------------------------------------------------------------- #
# the fixture tree: entry points and reachability
# --------------------------------------------------------------------- #


def test_fixture_entrypoints():
    graph = build_tree_callgraph(FIXTURES)
    assert graph.entrypoints["algorithms"] == {
        "bad_loop": "core.bad_loop.bad_loop_clustering",
    }
    assert graph.entrypoints["workers"] == {
        "_worker_init": "perf.bad_worker._worker_init",
        "_worker_run": "perf.bad_worker._worker_run",
    }


def test_fixture_reachability():
    graph = build_tree_callgraph(FIXTURES)
    from_algo = graph.reachable(graph.entry_qualnames("algorithms"))
    assert "core.bad_loop._polish" in from_algo
    assert "core.bad_loop._metered" in from_algo
    assert "core.fake_algo.fake_clustering" not in from_algo
    from_workers = graph.reachable(graph.entry_qualnames("workers"))
    assert "perf.bad_worker._record" in from_workers
    # checkpoint is imported from outside the fixture package, so it
    # shows up as an external leaf the coverage query still honours.
    assert "repro.runtime.checkpoint" in graph.external
    assert "core.bad_loop._metered" in checkpoint_reaching(graph)


# --------------------------------------------------------------------- #
# the --callgraph artifact
# --------------------------------------------------------------------- #


def test_callgraph_json_is_deterministic():
    first = build_tree_callgraph(PACKAGE).to_json_text()
    second = build_tree_callgraph(PACKAGE).to_json_text()
    assert first == second


def test_callgraph_json_schema():
    payload = build_tree_callgraph(FIXTURES).to_json()
    assert payload["version"] == 1
    assert payload["package"] == "lint_targets"
    assert sorted(payload) == [
        "edges", "entrypoints", "external", "nodes", "package", "version",
    ]
    assert payload["edges"] == sorted(payload["edges"])
    qualnames = [node["qualname"] for node in payload["nodes"]]
    assert qualnames == sorted(qualnames)
    for node in payload["nodes"]:
        assert set(node) == {"qualname", "path", "line", "kind", "layer"}


def test_cli_callgraph_round_trips(tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    baseline = str(REPO_ROOT / "lint-baseline.json")
    for out in (out1, out2):
        code = main([
            "lint", str(PACKAGE),
            "--baseline", baseline,
            "--callgraph", str(out),
        ])
        assert code == 0, capsys.readouterr().out
    assert out1.read_bytes() == out2.read_bytes()
    payload = json.loads(out1.read_text())
    assert payload["package"] == "repro"
    # Re-serializing the parsed document reproduces the file exactly.
    assert (
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
        == out1.read_text()
    )
    labels = set(payload["entrypoints"]["algorithms"])
    assert labels == set(algorithm_names())
