"""The semantic rule catalogue (REP010–REP013): CFG + call-graph rules.

Where REP001–REP009, REP014 and REP015 ask token questions ("is this
call spelled ``time.time``?"), these four ask *path* questions over the
:mod:`repro.analysis.flow` control-flow graphs and the
:mod:`repro.analysis.callgraph` reachability engine:

* **REP010** — a function reachable from a ProcessPool worker entry
  writes module-level state.  Forked workers each hold a *copy* of the
  parent's module globals; a write desynchronizes them silently, and
  under a spawn start method the state never existed in the first
  place.  Module-level :class:`~contextvars.ContextVar` bindings are
  exempt (the sanctioned per-context mechanism — REP013 polices their
  discipline instead).
* **REP011** — an unbounded loop in algorithm-reachable code can
  iterate without hitting :func:`repro.runtime.checkpoint`.  The PR 3
  cancellation guarantee is only as strong as its weakest loop: a loop
  with no checkpoint on some cyclic path cannot be deadlined, budgeted
  or cancelled.  Only *outermost* loops are judged (the checkpoint
  discipline is once per outermost iteration; inner loops amortize
  into it), provably bounded loops (literal collections, constant
  ``range``) are allowlisted, and a call into any function from which a
  checkpoint is reachable counts as coverage.
* **REP012** — a file write in ``core``/``experiments``/``perf`` that
  bypasses :class:`repro.runtime.journal.Journal` /
  :func:`~repro.runtime.journal.atomic_write_text`.  A raw
  ``open(path, "w")`` torn by a crash leaves a half-written artifact
  that checkpoint/resume then trusts.
* **REP013** — a module-level ``ContextVar`` set without the
  reset-token discipline: the token discarded outright, or captured
  but never ``reset`` inside a ``finally`` block, so an exceptional
  path leaks the context value into the caller's scope.

REP010 and REP011 run as *project* rules over the one
:class:`SemanticIndex` the engine builds per lint run (call graph +
lazily-built per-function CFGs), and resolve reachability from the
same entry points the runtime actually uses — the registered
algorithms, the process-pool workers, the experiment cell drivers.
REP012 and REP013 are module rules.  Findings flow through the
ordinary engine machinery, so ``--select``, inline
``# repro: allow[...]`` suppressions and the baseline ratchet all
apply unchanged.
"""

from __future__ import annotations

import ast
from typing import Iterator, Sequence

from repro.analysis.callgraph import (
    CallGraph,
    build_callgraph,
    checkpoint_reaching,
)
from repro.analysis.findings import Finding
from repro.analysis.flow import (
    FunctionFlow,
    FunctionNode,
    root_name,
    walk_own_scope,
)
from repro.analysis.rules import ModuleContext, Rule, _dotted


def _module_level_names(
    ctx: ModuleContext,
) -> tuple[frozenset[str], frozenset[str]]:
    """``(plain module-state names, ContextVar names)`` of one module."""
    plain: set[str] = set()
    context_vars: set[str] = set()
    for stmt in ctx.tree.body:
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
            targets, value = [stmt.target], stmt.value
        for target in targets:
            elems = (
                target.elts
                if isinstance(target, (ast.Tuple, ast.List))
                else [target]
            )
            for elem in elems:
                if not isinstance(elem, ast.Name):
                    continue
                if (
                    isinstance(value, ast.Call)
                    and (
                        _dotted(value.func) or ""
                    ).split(".")[-1] == "ContextVar"
                ):
                    context_vars.add(elem.id)
                else:
                    plain.add(elem.id)
    return frozenset(plain), frozenset(context_vars)


class SemanticIndex:
    """Shared per-tree facts: call graph, reachability, lazy CFGs.

    The engine builds one per lint run and hands it to every project
    rule.
    """

    def __init__(self, modules: Sequence[ModuleContext], package: str) -> None:
        self.modules = modules
        self.graph: CallGraph = build_callgraph(modules, package)
        #: qualname -> (module context, def node); the first definition
        #: of a qualname wins, as in the call graph.
        self.functions: dict[str, tuple[ModuleContext, FunctionNode]] = {}
        for ctx in modules:
            for fn in ctx.functions:
                for entry in (fn, *fn.nested):
                    self.functions.setdefault(entry.qualname, (ctx, entry.node))
        self._flows: dict[str, FunctionFlow] = {}
        self._module_names: dict[str, tuple[frozenset[str], frozenset[str]]] = {}
        self.checkpoint_reaching: frozenset[str] = checkpoint_reaching(
            self.graph
        )
        self.worker_reachable: frozenset[str] = self.graph.reachable(
            self.graph.entry_qualnames("workers")
        )
        self.algorithm_reachable: frozenset[str] = self.graph.reachable(
            self.graph.entry_qualnames("algorithms")
        )

    def flow(self, qualname: str) -> FunctionFlow:
        if qualname not in self._flows:
            self._flows[qualname] = FunctionFlow(self.functions[qualname][1])
        return self._flows[qualname]

    def module_names(
        self, ctx: ModuleContext
    ) -> tuple[frozenset[str], frozenset[str]]:
        if ctx.rel not in self._module_names:
            self._module_names[ctx.rel] = _module_level_names(ctx)
        return self._module_names[ctx.rel]


# --------------------------------------------------------------------- #
# REP010 — fork-shared module state
# --------------------------------------------------------------------- #


class ForkSharedStateWrite(Rule):
    """REP010: worker-reachable code writing module-level state.

    Seeded from the statically discovered ProcessPool worker entry
    points (``initializer=``, ``.submit(f, ...)``, ``target=``), every
    reachable function's CFG is checked for writes to names its module
    binds at top level: rebinding a declared-``global``, calling a
    mutator method (``.append``/``.update``/…) on a module-level
    object, or assigning into a subscript/attribute rooted at one.
    Names bound to ``ContextVar(...)`` are exempt — that is the
    sanctioned per-context channel, and REP013 polices its discipline.

    Fix by passing state explicitly through the worker's arguments and
    return value; suppress (with a reason) only for state that is
    *meant* to be per-process, such as a worker-local runner installed
    by the pool initializer.
    """

    rule_id = "REP010"
    summary = "module state written by ProcessPool-worker-reachable code"

    def check_project(self, project: SemanticIndex) -> Iterator[Finding]:
        for qualname in sorted(project.worker_reachable):
            entry = project.functions.get(qualname)
            if entry is None:
                continue
            ctx, fn = entry
            plain, _context_vars = project.module_names(ctx)
            if not plain:
                continue
            for write in project.flow(qualname).module_state_writes(plain):
                yield Finding(
                    ctx.rel,
                    write.line,
                    0,
                    self.rule_id,
                    f"'{fn.name}' writes module-level '{write.name}' "
                    f"({write.kind}) and is reachable from a ProcessPool "
                    "worker entry; fork-shared module state silently "
                    "desynchronizes workers — pass state through the "
                    "task arguments or a ContextVar",
                )


# --------------------------------------------------------------------- #
# REP011 — checkpoint coverage of reachable loops
# --------------------------------------------------------------------- #


class UncheckpointedLoop(Rule):
    """REP011: an algorithm-reachable loop that can skip ``checkpoint()``.

    For every function reachable from a registered algorithm entry
    point in the algorithmic segments, every *outermost* loop must hit
    :func:`repro.runtime.checkpoint` on **every** cyclic path — a
    checkpoint behind an ``if`` is not coverage.  A call into any
    function from which a checkpoint is reachable also counts (the
    helper checkpoints on the algorithm's behalf), and loops whose
    trip count is provably constant (literal collections, constant
    ``range``) are allowlisted.

    Fix by checkpointing once per iteration at the loop's top;
    suppress (with a reason) when coverage is *amortized* — the only
    callers run the helper once per iteration of their own
    checkpointed loop, so the helper's loop is bounded by work the
    caller already metered.
    """

    rule_id = "REP011"
    summary = "algorithm-reachable loop can iterate without checkpoint()"
    segments = ("core", "matching", "extensions")

    def check_project(self, project: SemanticIndex) -> Iterator[Finding]:
        covered = project.checkpoint_reaching
        callsites = project.graph.callsites

        def hits(node: ast.AST) -> bool:
            return (
                isinstance(node, ast.Call)
                and callsites.get(id(node)) in covered
            )

        for qualname in sorted(project.algorithm_reachable):
            entry = project.functions.get(qualname)
            if entry is None:
                continue
            ctx, fn = entry
            if ctx.segment not in self.segments:
                continue
            flow = project.flow(qualname)
            for loop in flow.loops:
                if not loop.outermost or flow.loop_bounded(loop):
                    continue
                if flow.loop_can_skip(loop, hits):
                    yield Finding(
                        ctx.rel,
                        loop.line,
                        loop.node.col_offset,
                        self.rule_id,
                        f"'{fn.name}' {loop.kind} loop is reachable from "
                        "registered algorithm entry points but can iterate "
                        "without hitting runtime.checkpoint(); deadline/"
                        "budget cancellation cannot interrupt it — "
                        "checkpoint once per iteration",
                    )


# --------------------------------------------------------------------- #
# REP012 — file writes bypassing the journal
# --------------------------------------------------------------------- #

#: ``open()`` mode characters that make the call a write.
_WRITE_MODE_CHARS = frozenset("wax+")


def _write_mode(call: ast.Call) -> str | None:
    """The constant write mode of an ``open()`` call, if any."""
    mode: ast.expr | None = None
    if len(call.args) >= 2:
        mode = call.args[1]
    for keyword in call.keywords:
        if keyword.arg == "mode":
            mode = keyword.value
    if (
        isinstance(mode, ast.Constant)
        and isinstance(mode.value, str)
        and set(mode.value) & _WRITE_MODE_CHARS
    ):
        return mode.value
    return None


class UnjournaledWrite(Rule):
    """REP012: raw file writes in crash-sensitive segments.

    ``core``, ``experiments`` and ``perf`` run under checkpoint/resume:
    anything they persist may be re-read by a resumed run, so a torn
    half-file from a crashed ``open(path, "w")`` or ``.write_text()``
    is poison.  :class:`repro.runtime.journal.Journal` (append-only,
    line-framed) and :func:`~repro.runtime.journal.atomic_write_text`
    (write-to-temp + rename) are the two sanctioned paths.  Reads are
    never flagged, and the rule is literal-mode only — an ``open()``
    whose mode is not a string constant is not judged.
    """

    rule_id = "REP012"
    summary = "file write bypassing Journal/atomic_write_text"
    segments = ("core", "experiments", "perf")

    def check_module(self, ctx: ModuleContext) -> Iterator[Finding]:
        if ctx.segment not in self.segments:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id == "open":
                mode = _write_mode(node)
                if mode is not None:
                    yield Finding(
                        ctx.rel,
                        node.lineno,
                        node.col_offset,
                        self.rule_id,
                        f"open(..., {mode!r}) writes directly in a "
                        "checkpoint/resume segment; a crash mid-write "
                        "leaves a torn file — use runtime.journal.Journal "
                        "or atomic_write_text",
                    )
            elif isinstance(func, ast.Attribute) and func.attr in (
                "write_text",
                "write_bytes",
            ):
                yield Finding(
                    ctx.rel,
                    node.lineno,
                    node.col_offset,
                    self.rule_id,
                    f"'.{func.attr}()' writes directly in a "
                    "checkpoint/resume segment; a crash mid-write leaves "
                    "a torn file — use runtime.journal.Journal or "
                    "atomic_write_text",
                )


# --------------------------------------------------------------------- #
# REP013 — ContextVar reset discipline
# --------------------------------------------------------------------- #


class ContextVarLeak(Rule):
    """REP013: a ``ContextVar`` set without the reset-token discipline.

    The approved shape, used by every scope helper in
    ``repro.runtime``/``repro.obs``::

        token = VAR.set(value)
        try:
            ...
        finally:
            VAR.reset(token)

    Two deviations are flagged, for every module-level
    ``NAME = ContextVar(...)``:

    * ``NAME.set(...)`` whose token is discarded (bare expression
      statement or used as a nested call argument) — the context can
      never be restored;
    * the token captured, but no ``NAME.reset(...)`` inside any
      ``finally`` block of the same function — an exception between
      set and reset leaks the value into the caller's context.

    Suppress (with a reason) only for *installations* that are meant
    to live for the rest of the process/worker lifetime.
    """

    rule_id = "REP013"
    summary = "ContextVar set without reset token on an exceptional path"

    def check_module(self, ctx: ModuleContext) -> Iterator[Finding]:
        _plain, context_vars = _module_level_names(ctx)
        if not context_vars:
            return
        for fn in ctx.functions:
            for entry in (fn, *fn.nested):
                yield from self._check_function(ctx, entry.node, context_vars)

    def _check_function(
        self,
        ctx: ModuleContext,
        fn: FunctionNode,
        context_vars: frozenset[str],
    ) -> Iterator[Finding]:
        def set_call_var(node: ast.AST) -> str | None:
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "set"
            ):
                name = root_name(node.func.value)
                if name in context_vars:
                    return name
            return None

        reset_in_finally: set[str] = set()
        for node in walk_own_scope(fn):
            if isinstance(node, ast.Try):
                for stmt in node.finalbody:
                    for sub in ast.walk(stmt):
                        if (
                            isinstance(sub, ast.Call)
                            and isinstance(sub.func, ast.Attribute)
                            and sub.func.attr == "reset"
                        ):
                            name = root_name(sub.func.value)
                            if name in context_vars:
                                reset_in_finally.add(name)

        for node in walk_own_scope(fn):
            if isinstance(node, ast.Expr):
                var = set_call_var(node.value)
                if var is not None:
                    yield Finding(
                        ctx.rel,
                        node.lineno,
                        node.col_offset,
                        self.rule_id,
                        f"'{var}.set(...)' discards its reset token in "
                        f"'{fn.name}'; capture it and reset in a finally "
                        "block, or the context value outlives its scope",
                    )

        for node in walk_own_scope(fn):
            value: ast.expr | None = None
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.NamedExpr)):
                value = node.value
            if value is None:
                continue
            var = set_call_var(value)
            if var is not None and var not in reset_in_finally:
                yield Finding(
                    ctx.rel,
                    value.lineno,
                    value.col_offset,
                    self.rule_id,
                    f"'{var}.set(...)' token is captured in '{fn.name}' "
                    f"but '{var}.reset(...)' never runs in a finally "
                    "block; an exception between set and reset leaks the "
                    "context value",
                )

