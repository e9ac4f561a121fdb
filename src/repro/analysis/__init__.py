"""Domain-aware static analysis for the reproduction codebase.

The dynamic net (:mod:`repro.verify`) replays thousands of random
instances through every algorithm; this package catches the bug classes
that never make it to runtime — nondeterminism sources, input mutation,
layering violations, fork-unsafe state, uncancellable loops — by
inspecting the *code* with the stdlib ``ast`` module.  No third-party
dependency is required.

* :mod:`repro.analysis.rules` — the per-module index every check reads
  (:class:`~repro.analysis.rules.ModuleContext`: dotted path, import
  table, function table) and the token/pattern rules (REP001–REP009,
  REP014, REP015), each one an AST visitor or a whole-tree check;
* :mod:`repro.analysis.flow` — per-function control-flow graphs with
  dataflow facts (loop coverage, module-state writes);
* :mod:`repro.analysis.callgraph` — the project-wide call graph with
  import/re-export resolution, entry-point discovery and reachability;
* :mod:`repro.analysis.semantic` — the semantic rules (REP010–REP013)
  built on the CFG and call graph;
* :mod:`repro.analysis.layers` — the import-layering checker enforcing
  the architecture DAG (LAY001/LAY002);
* :mod:`repro.analysis.engine` — the rule catalogue, file discovery,
  inline suppressions (``# repro: allow[REP00N] reason``), the
  committed-baseline ratchet, and the text/JSON/GitHub reporters behind
  ``repro-anon lint``.

Quick use::

    from repro.analysis import run_lint
    report = run_lint(["src/repro"])
    assert report.ok, report.format_text()
"""

from repro.analysis.callgraph import (
    CallGraph,
    build_callgraph,
    checkpoint_reaching,
)
from repro.analysis.engine import (
    ALL_RULES,
    RULE_DOCS,
    Baseline,
    Finding,
    LintReport,
    build_tree_callgraph,
    rule_ids,
    run_lint,
)
from repro.analysis.flow import FunctionFlow
from repro.analysis.layers import (
    DEFAULT_LAYERS,
    LayerChecker,
    resolve_layer,
)

__all__ = [
    "Finding",
    "LintReport",
    "Baseline",
    "run_lint",
    "ALL_RULES",
    "RULE_DOCS",
    "rule_ids",
    "DEFAULT_LAYERS",
    "LayerChecker",
    "resolve_layer",
    "CallGraph",
    "build_callgraph",
    "build_tree_callgraph",
    "checkpoint_reaching",
    "FunctionFlow",
]
