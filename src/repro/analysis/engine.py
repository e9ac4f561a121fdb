"""The lint engine: discovery, suppressions, baseline, reporting.

Execution model: parse every ``*.py`` under the scan root once (a file
that is not UTF-8 or does not parse is a ``PARSE`` finding), build one
:class:`~repro.analysis.semantic.SemanticIndex` over the parsed tree,
run the module rules file-by-file, then the project rules and the
layering checker over the whole tree.  Findings then pass through two
filters:

* **inline suppressions** — ``# repro: allow[REP002] reason`` on the
  offending line (or the line directly above it) silences the listed
  rules *only when a reason is given*; a bare ``allow[...]`` with no
  justification is ignored, so every exception is documented at the
  call site;
* **the committed baseline** — a JSON file of known, reviewed findings
  (rule + path + message, deliberately line-number-free).  Baselined
  findings do not fail the run; baseline entries that no longer match
  anything are reported as stale so the file ratchets monotonically
  toward empty.

Exit semantics (see :func:`repro.cli.main`): a run is ``ok`` iff no
unsuppressed, unbaselined findings remain.
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from repro.analysis.callgraph import CallGraph, build_callgraph
from repro.analysis.findings import Finding
from repro.analysis.layers import LAYER_RULE_DOCS, LayerChecker
from repro.analysis.rules import (
    CONFINED_PRIMITIVES,
    InputMutation,
    ModuleContext,
    PublicApiDrift,
    RegistryCompleteness,
    Rule,
    SwallowedException,
    UnregisteredMetricName,
    UnseededRandomness,
    UnsortedSetIteration,
)
from repro.analysis.semantic import (
    ContextVarLeak,
    ForkSharedStateWrite,
    SemanticIndex,
    UncheckpointedLoop,
    UnjournaledWrite,
)
from repro.errors import ReproError
from repro.obs.durable import read_json, read_text, replace_text

#: ``# repro: allow[REP001,REP004] why this is fine``
_SUPPRESS_RE = re.compile(
    r"#\s*repro:\s*allow\[([A-Za-z0-9_,\s]+)\]\s*(.*?)\s*$"
)

#: The rule set behind ``repro-anon lint``, in rule-id order: the
#: token/pattern rules (REP001–REP009, REP014, REP015) plus the
#: CFG/call-graph semantic rules (REP010–REP013).
ALL_RULES: tuple[Rule, ...] = tuple(
    sorted(
        (
            UnseededRandomness(),
            UnsortedSetIteration(),
            InputMutation(),
            RegistryCompleteness(),
            PublicApiDrift(),
            SwallowedException(),
            UnregisteredMetricName(),
            *CONFINED_PRIMITIVES,
            ForkSharedStateWrite(),
            UncheckpointedLoop(),
            UnjournaledWrite(),
            ContextVarLeak(),
        ),
        key=lambda rule: rule.rule_id,
    )
)

#: rule id -> one-line summary, for ``--select`` validation and docs.
RULE_DOCS: dict[str, str] = {rule.rule_id: rule.summary for rule in ALL_RULES}


def rule_ids() -> list[str]:
    """All module/project rule ids (token + semantic), sorted."""
    return sorted(RULE_DOCS)


#: Every rule id the engine can emit (module + project + layering).
KNOWN_RULE_IDS: tuple[str, ...] = tuple(
    sorted({*RULE_DOCS, *LAYER_RULE_DOCS, "PARSE"})
)


@dataclass(frozen=True)
class Suppression:
    """One parsed ``# repro: allow[...]`` comment."""

    line: int
    rules: frozenset[str]
    reason: str

    @property
    def valid(self) -> bool:
        """Suppressions must carry a reason to take effect."""
        return bool(self.reason)


def parse_suppressions(source: str) -> dict[int, Suppression]:
    """Line -> suppression for every ``repro: allow`` comment."""
    out: dict[int, Suppression] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(text)
        if match:
            rules = frozenset(
                part.strip() for part in match.group(1).split(",") if part.strip()
            )
            out[lineno] = Suppression(lineno, rules, match.group(2).strip())
    return out


@dataclass
class Baseline:
    """The committed ratchet file of reviewed, tolerated findings.

    Schema::

        {"version": 1,
         "entries": [{"rule": "REP005", "path": "core/kk.py",
                      "message": "...", "reason": "..."}]}

    Matching ignores line numbers on purpose: unrelated edits above a
    tolerated finding must not churn the baseline.
    """

    path: Path | None = None
    entries: list[dict[str, str]] = field(default_factory=list)

    @classmethod
    def load(cls, path: str | Path) -> "Baseline":
        path = Path(path)
        raw = read_json(path)
        entries = raw.get("entries", [])
        for entry in entries:
            missing = {"rule", "path", "message", "reason"} - set(entry)
            if missing:
                raise ReproError(
                    f"baseline {path}: entry {entry!r} is missing "
                    f"{sorted(missing)}"
                )
            if not entry["reason"].strip():
                raise ReproError(
                    f"baseline {path}: entry for {entry['rule']} at "
                    f"{entry['path']} has an empty reason; every tolerated "
                    "finding must say why"
                )
        return cls(path=path, entries=list(entries))

    def partition(
        self, findings: Sequence[Finding]
    ) -> tuple[list[Finding], list[Finding], list[dict[str, str]]]:
        """Split findings into (new, baselined) and list stale entries."""
        index: dict[tuple[str, str, str], dict[str, str]] = {
            (e["rule"], e["path"], e["message"]): e for e in self.entries
        }
        used: set[tuple[str, str, str]] = set()
        new: list[Finding] = []
        baselined: list[Finding] = []
        for finding in findings:
            if finding.fingerprint in index:
                used.add(finding.fingerprint)
                baselined.append(finding)
            else:
                new.append(finding)
        stale = [
            entry
            for key, entry in index.items()
            if key not in used
        ]
        return new, baselined, stale

    def within(self, roots: Sequence[str | Path]) -> Baseline:
        """The entries whose path some scan root contains: a directory
        root holding that file, or a single-file root of that name."""

        def contains(root: Path, rel: str) -> bool:
            return (root / rel).is_file() if root.is_dir() else root.name == rel

        kept = [
            entry
            for entry in self.entries
            if any(contains(Path(root), entry["path"]) for root in roots)
        ]
        return Baseline(path=self.path, entries=kept)

    def prune(self, stale: Sequence[Mapping[str, str]]) -> int:
        """Drop ``stale`` entries and rewrite the baseline file.

        Returns the number of entries removed.  The escape hatch behind
        ``repro-anon lint --prune-baseline``: stale entries are
        otherwise a hard error (see :attr:`LintReport.ok`).
        """
        keys = {(e["rule"], e["path"], e["message"]) for e in stale}
        kept = [
            entry
            for entry in self.entries
            if (entry["rule"], entry["path"], entry["message"]) not in keys
        ]
        removed = len(self.entries) - len(kept)
        self.entries = kept
        if self.path is not None and removed:
            replace_text(
                self.path,
                json.dumps({"version": 1, "entries": kept}, indent=2) + "\n",
            )
        return removed


@dataclass
class LintReport:
    """Everything one lint run produced."""

    root: Path
    files_scanned: int
    findings: list[Finding]
    suppressed: list[Finding]
    baselined: list[Finding]
    stale_baseline: list[dict[str, str]]
    #: The scan root's call graph, for a directory root (the one
    #: ``--callgraph`` writes); None for a single file.
    callgraph: CallGraph | None = None

    @property
    def ok(self) -> bool:
        """True when nothing gates: no live findings, no stale baseline.

        A stale baseline entry is a hard error: the finding it tolerated
        is gone, so keeping the entry would silently tolerate a *future*
        regression with the same fingerprint.  ``repro-anon lint
        --prune-baseline`` removes stale entries instead of failing.
        """
        return not self.findings and not self.stale_baseline

    def format_text(self) -> str:
        """Human-readable report, one line per finding."""
        lines: list[str] = []
        for finding in self.findings:
            lines.append(finding.format())
        for entry in self.stale_baseline:
            lines.append(
                f"error: stale baseline entry {entry['rule']} "
                f"{entry['path']}: {entry['message']!r} no longer matches "
                "anything — remove it, or rerun with --prune-baseline"
            )
        lines.append(
            f"{self.root}: {len(self.findings)} finding(s), "
            f"{len(self.baselined)} baselined, "
            f"{len(self.suppressed)} suppressed, "
            f"{self.files_scanned} file(s) scanned"
        )
        return "\n".join(lines)

    def format_github(self) -> str:
        """GitHub Actions ``::error`` annotations, one per finding.

        Paths are prefixed with the scan root so annotations anchor to
        repository-relative files in CI.
        """
        base = self.root if self.root.is_dir() else self.root.parent
        lines: list[str] = []
        for finding in self.findings:
            path = (base / finding.path).as_posix()
            lines.append(
                f"::error file={path},line={finding.line},"
                f"col={finding.col + 1},title={finding.rule}"
                f"::{finding.message}"
            )
        for entry in self.stale_baseline:
            lines.append(
                f"::error title=stale baseline ({entry['rule']})"
                f"::baseline entry for {entry['path']} "
                f"({entry['message']!r}) no longer matches anything; "
                "remove it or rerun with --prune-baseline"
            )
        return "\n".join(lines)

    def to_json(self) -> dict[str, object]:
        """The documented machine-readable schema (version 1)."""
        return {
            "version": 1,
            "root": str(self.root),
            "summary": {
                "findings": len(self.findings),
                "baselined": len(self.baselined),
                "suppressed": len(self.suppressed),
                "stale_baseline": len(self.stale_baseline),
                "files_scanned": self.files_scanned,
            },
            "findings": [f.to_json() for f in self.findings],
            "baselined": [f.to_json() for f in self.baselined],
            "suppressed": [f.to_json() for f in self.suppressed],
            "stale_baseline": list(self.stale_baseline),
        }


def _discover(root: Path) -> list[Path]:
    if root.is_file():
        return [root]
    if not root.is_dir():
        raise ReproError(f"lint target {root} does not exist")
    return sorted(
        p
        for p in root.rglob("*.py")
        if "__pycache__" not in p.parts
        and not any(part.startswith(".") for part in p.parts)
    )


def _parse_modules(
    root: Path, files: Iterable[Path]
) -> tuple[list[ModuleContext], list[Finding]]:
    scan_root = root if root.is_dir() else root.parent
    modules: list[ModuleContext] = []
    errors: list[Finding] = []
    for path in files:
        rel = path.relative_to(scan_root).as_posix()
        try:
            source = read_text(path)
        except ReproError as exc:
            errors.append(
                Finding(rel, 1, 0, "PARSE", f"file cannot be read: {exc.__cause__}")
            )
            continue
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:
            errors.append(
                Finding(
                    rel, exc.lineno or 1, (exc.offset or 1) - 1, "PARSE",
                    f"file does not parse: {exc.msg}",
                )
            )
            continue
        modules.append(ModuleContext(scan_root, path, rel, tree, source))
    return modules, errors


def _validate_select(select: Iterable[str]) -> frozenset[str]:
    chosen = frozenset(select)
    unknown = chosen - set(KNOWN_RULE_IDS)
    if unknown:
        raise ReproError(
            f"unknown rule id(s) {sorted(unknown)}; known rules: "
            f"{list(KNOWN_RULE_IDS)}"
        )
    return chosen


def _active_rules(
    chosen: frozenset[str] | None, check_layers: bool
) -> frozenset[str]:
    """The rule ids whose findings this run could actually produce."""
    active = chosen if chosen is not None else frozenset(KNOWN_RULE_IDS)
    if not check_layers:
        active = frozenset(r for r in active if not r.startswith("LAY"))
    return active


def lint_tree(
    root: str | Path,
    *,
    select: Iterable[str] | None = None,
    baseline: Baseline | None = None,
    check_layers: bool = True,
) -> LintReport:
    """Lint one scan root (a package directory or a single file).

    Parameters
    ----------
    root:
        Directory (scanned recursively) or single ``.py`` file.  The
        directory name doubles as the package name for the layering
        checker, so scanning ``src/repro`` enforces ``repro.*`` imports.
    select:
        Optional iterable of rule ids; when given, only those rules'
        findings are reported.  Unknown ids raise :class:`ReproError`.
    baseline:
        Optional loaded :class:`Baseline`; matched findings are
        reported separately and do not gate.
    check_layers:
        Set to False to skip the import-layering DAG check.
    """
    root = Path(root)
    chosen = _validate_select(select) if select is not None else None
    if chosen is not None and not _active_rules(chosen, check_layers):
        detail = (
            "the selected layer rules are disabled by --no-layers"
            if chosen
            else "--select names no rules"
        )
        raise ReproError(
            f"no runnable rules selected ({detail}); known rules: "
            f"{list(KNOWN_RULE_IDS)}"
        )
    files = _discover(root)
    modules, raw_findings = _parse_modules(root, files)
    scan_root = root if root.is_dir() else root.parent
    project = SemanticIndex(modules, scan_root.name)

    for ctx in modules:
        for rule in ALL_RULES:
            raw_findings.extend(rule.check_module(ctx))
    for rule in ALL_RULES:
        raw_findings.extend(rule.check_project(project))
    if check_layers and root.is_dir():
        raw_findings.extend(LayerChecker(root.name).check(modules))

    if chosen is not None:
        raw_findings = [f for f in raw_findings if f.rule in chosen]
    raw_findings.sort()

    suppressions_by_path: dict[str, dict[int, Suppression]] = {
        ctx.rel: parse_suppressions(ctx.source) for ctx in modules
    }
    live: list[Finding] = []
    suppressed: list[Finding] = []
    for finding in raw_findings:
        table = suppressions_by_path.get(finding.path, {})
        hit = table.get(finding.line) or table.get(finding.line - 1)
        if hit and hit.valid and finding.rule in hit.rules:
            suppressed.append(finding)
        else:
            live.append(finding)

    if baseline is not None:
        live, baselined, stale = baseline.partition(live)
        # A baseline entry for a rule that did not run this time cannot
        # be judged stale — under --select or --no-layers its finding
        # was never produced in the first place.
        stale = [e for e in stale if e["rule"] in _active_rules(chosen, check_layers)]
    else:
        baselined, stale = [], []

    return LintReport(
        root=root,
        files_scanned=len(files),
        findings=live,
        suppressed=suppressed,
        baselined=baselined,
        stale_baseline=stale,
        callgraph=project.graph if root.is_dir() else None,
    )


def build_tree_callgraph(root: str | Path) -> CallGraph:
    """Parse one package tree and build its call graph.

    The function behind ``repro-anon lint --callgraph``: same discovery
    and parsing as the linter, producing the deterministic artifact
    (see :meth:`repro.analysis.callgraph.CallGraph.to_json_text`).
    """
    root = Path(root)
    if not root.is_dir():
        raise ReproError(
            f"--callgraph needs a package directory to scan, got {root}"
        )
    modules, _errors = _parse_modules(root, _discover(root))
    return build_callgraph(modules, root.name)


def run_lint(
    paths: Sequence[str | Path],
    *,
    select: Iterable[str] | None = None,
    baseline_path: str | Path | None = None,
    check_layers: bool = True,
    scope_baseline: bool = False,
) -> list[LintReport]:
    """Lint several scan roots with one shared baseline.

    This is the function behind ``repro-anon lint``; it returns one
    :class:`LintReport` per path, in input order.  With
    ``scope_baseline`` the baseline judges only the scanned trees: an
    entry whose path no root contains is ignored, not reported stale.
    """
    baseline = Baseline.load(baseline_path) if baseline_path else None
    if baseline is not None and scope_baseline:
        baseline = baseline.within(paths)
    reports = [
        lint_tree(
            path, select=select, baseline=baseline, check_layers=check_layers
        )
        for path in paths
    ]
    if baseline is not None and len(reports) > 1:
        # An entry is stale only if *no* scanned root matched it, so the
        # per-tree stale lists are replaced by the combined one on the
        # final report.
        used = {
            f.fingerprint for report in reports for f in report.baselined
        }
        chosen = _validate_select(select) if select is not None else None
        active = _active_rules(chosen, check_layers)
        for report in reports:
            report.stale_baseline = []
        reports[-1].stale_baseline = [
            entry
            for entry in baseline.entries
            if entry["rule"] in active
            and (entry["rule"], entry["path"], entry["message"]) not in used
        ]
    return reports
