"""Per-function control-flow graphs with def/use dataflow facts.

The token-level rules (REP001–REP009, REP014, REP015) ask *syntactic*
questions — "is this call spelled ``time.time``?".  The semantic rules (REP010–REP013)
ask *path* questions — "can this loop iterate without passing a
checkpoint?", "does this function write module state?" — and those need
a control-flow graph, not a token stream.

This module builds, from the stdlib ``ast`` alone, a conservative CFG
per function:

* :class:`BasicBlock` — a maximal straight-line statement run with
  successor edges;
* :class:`LoopInfo` — one ``for``/``while`` statement, its header
  block, the set of body blocks, whether it is *outermost* in its
  function, and whether its iterable is *provably bounded* (a literal
  collection or a constant ``range``);
* :class:`FunctionFlow` — the CFG plus dataflow facts: per-block def
  and use sets, declared-``global`` writes, and mutations of names the
  function never binds locally (the module-state writes REP010 polices).

The headline query is :meth:`FunctionFlow.loop_can_skip`: given a loop
and a statement predicate (e.g. "calls ``checkpoint``"), it answers
whether some body path can cycle back to the loop header without any
predicate-satisfying block — i.e. whether the loop *can iterate without
hitting* the predicate.  A checkpoint behind an ``if`` therefore does
not count as coverage, which is exactly the cancellation guarantee
:mod:`repro.runtime` needs (see REP011 in
:mod:`repro.analysis.semantic`).

Like the rest of :mod:`repro.analysis`, nothing here imports or
executes the code under analysis.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

#: Method names that mutate their receiver in place (superset of the
#: REP003 list: containers plus the ContextVar protocol).
MUTATOR_METHODS: frozenset[str] = frozenset(
    {
        "append", "extend", "insert", "remove", "pop", "clear", "update",
        "add", "discard", "sort", "reverse", "setdefault", "popitem",
        "fill", "itemset", "put", "__setitem__",
    }
)

FunctionNode = ast.FunctionDef | ast.AsyncFunctionDef


def root_name(node: ast.expr) -> str | None:
    """The base ``Name`` of an attribute/subscript/call chain, if any."""
    while isinstance(node, (ast.Attribute, ast.Subscript, ast.Call)):
        node = node.func if isinstance(node, ast.Call) else node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


@dataclass
class BasicBlock:
    """A maximal straight-line run of statements plus successor edges."""

    index: int
    statements: list[ast.stmt] = field(default_factory=list)
    successors: set[int] = field(default_factory=set)

    @property
    def defs(self) -> set[str]:
        """Names this block binds (assignment/for/with/import targets)."""
        out: set[str] = set()
        for stmt in self.statements:
            out |= _stmt_bindings(stmt)
        return out

    @property
    def uses(self) -> set[str]:
        """Names this block reads (loaded ``Name`` nodes, own scope only)."""
        out: set[str] = set()
        for stmt in self.statements:
            for node in _walk_own_scope(stmt):
                if isinstance(node, ast.Name) and isinstance(
                    node.ctx, ast.Load
                ):
                    out.add(node.id)
        return out


@dataclass
class LoopInfo:
    """One ``for``/``while`` statement located inside the CFG."""

    node: ast.For | ast.AsyncFor | ast.While
    header: int  #: block evaluating the loop test / iterator
    body_blocks: set[int]  #: blocks belonging to the loop body
    outermost: bool  #: not nested in another loop of the same function

    @property
    def line(self) -> int:
        return self.node.lineno

    @property
    def kind(self) -> str:
        return "while" if isinstance(self.node, ast.While) else "for"

    @property
    def bounded(self) -> bool:
        """True when the trip count is provably constant-bounded."""
        if isinstance(self.node, ast.While):
            return False
        return _is_bounded_iterable(self.node.iter)


def _is_bounded_iterable(expr: ast.expr) -> bool:
    """Literal collections and constant ranges cannot scale with input."""
    if isinstance(expr, (ast.List, ast.Tuple, ast.Set, ast.Dict)):
        return True
    if isinstance(expr, ast.Constant) and isinstance(
        expr.value, (str, bytes)
    ):
        return True
    if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
        name = expr.func.id
        if name == "range":
            return all(
                isinstance(a, ast.Constant) and isinstance(a.value, int)
                for a in expr.args
            ) and bool(expr.args)
        if name in ("enumerate", "sorted", "reversed", "iter", "zip"):
            return bool(expr.args) and all(
                _is_bounded_iterable(a) for a in expr.args
            )
    return False


def surface_walk(stmt: ast.stmt) -> Iterator[ast.AST]:
    """Walk only the parts of ``stmt`` that belong to *its own* block.

    The CFG builder splits compound statements: an ``if``'s branches, a
    loop's body and a ``try``'s clauses live in separate blocks, while
    the statement node itself stays in the block that evaluates its
    test/iterator.  Judging a block therefore must not descend into the
    split-off bodies — a ``checkpoint()`` inside ``if cond:`` belongs to
    the branch block, not to the block holding the test.
    """
    if isinstance(stmt, (ast.If, ast.While)):
        yield from ast.walk(stmt.test)
        return
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        yield from ast.walk(stmt.target)
        yield from ast.walk(stmt.iter)
        return
    if isinstance(stmt, ast.Try):
        return
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        # The body is threaded into the same block chain statement by
        # statement; only the context expressions belong to the node.
        for item in stmt.items:
            yield from ast.walk(item.context_expr)
            if item.optional_vars is not None:
                yield from ast.walk(item.optional_vars)
        return
    if isinstance(stmt, ast.Match):
        yield from ast.walk(stmt.subject)
        return
    yield from ast.walk(stmt)


def _walk_own_scope(node: ast.AST) -> Iterator[ast.AST]:
    """``ast.walk`` that does not descend into nested def/class/lambda."""
    stack: list[ast.AST] = [node]
    while stack:
        current = stack.pop()
        yield current
        for child in ast.iter_child_nodes(current):
            if isinstance(
                child,
                (
                    ast.FunctionDef,
                    ast.AsyncFunctionDef,
                    ast.ClassDef,
                    ast.Lambda,
                ),
            ):
                continue
            stack.append(child)


def _target_names(target: ast.expr) -> set[str]:
    names: set[str] = set()
    for node in ast.walk(target):
        if isinstance(node, ast.Name) and isinstance(
            node.ctx, (ast.Store, ast.Del)
        ):
            names.add(node.id)
    return names


def _stmt_bindings(stmt: ast.stmt) -> set[str]:
    """Names bound by one statement (without entering nested scopes)."""
    out: set[str] = set()
    for node in _walk_own_scope(stmt):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                out |= _target_names(target)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            out |= _target_names(node.target)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            out |= _target_names(node.target)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            out |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.withitem) and node.optional_vars:
            out |= _target_names(node.optional_vars)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            out.add(node.name)
        elif isinstance(node, ast.NamedExpr):
            out |= _target_names(node.target)
        elif isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            out.add(node.name)
        elif isinstance(node, (ast.comprehension,)):
            out |= _target_names(node.target)
    return out


@dataclass(frozen=True)
class ModuleStateWrite:
    """One write to state the enclosing function never binds locally."""

    name: str  #: the module-level name written
    line: int
    kind: str  #: ``"global-assign"``, ``"mutation"`` or ``"subscript"``


class _CfgBuilder:
    """Translate one function body into basic blocks."""

    def __init__(self) -> None:
        self.blocks: list[BasicBlock] = []
        self.loops: list[LoopInfo] = []
        self._loop_stack: list[tuple[int, int]] = []  # (header, exit)
        self._loop_block_stack: list[set[int]] = []

    # -- low-level graph assembly ------------------------------------- #

    def _new_block(self) -> BasicBlock:
        block = BasicBlock(len(self.blocks))
        self.blocks.append(block)
        for body_set in self._loop_block_stack:
            body_set.add(block.index)
        return block

    def _edge(self, src: int, dst: int) -> None:
        self.blocks[src].successors.add(dst)

    # -- statement translation ---------------------------------------- #

    def build(self, fn: FunctionNode) -> int:
        entry = self._new_block()
        exit_block = self._new_block()
        end = self._statements(fn.body, entry.index, exit_block.index)
        if end is not None:
            self._edge(end, exit_block.index)
        return exit_block.index

    def _statements(
        self, stmts: Sequence[ast.stmt], current: int, fn_exit: int
    ) -> int | None:
        """Thread ``stmts`` from block ``current``; return the live tail
        block index, or None when control cannot fall through."""
        live: int | None = current
        for stmt in stmts:
            if live is None:
                # Unreachable code after return/raise/break: park it in
                # a fresh block so its facts still exist, unconnected.
                live = self._new_block().index
            live = self._statement(stmt, live, fn_exit)
        return live

    def _statement(
        self, stmt: ast.stmt, current: int, fn_exit: int
    ) -> int | None:
        if isinstance(stmt, ast.If):
            self.blocks[current].statements.append(stmt)
            after = self._new_block()
            body_entry = self._new_block()
            self._edge(current, body_entry.index)
            body_end = self._statements(stmt.body, body_entry.index, fn_exit)
            if body_end is not None:
                self._edge(body_end, after.index)
            if stmt.orelse:
                else_entry = self._new_block()
                self._edge(current, else_entry.index)
                else_end = self._statements(
                    stmt.orelse, else_entry.index, fn_exit
                )
                if else_end is not None:
                    self._edge(else_end, after.index)
            else:
                self._edge(current, after.index)
            return after.index

        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            header = self._new_block()
            header.statements.append(stmt)
            self._edge(current, header.index)
            after = self._new_block()
            self._edge(header.index, after.index)
            body_set: set[int] = set()
            self._loop_block_stack.append(body_set)
            self._loop_stack.append((header.index, after.index))
            body_entry = self._new_block()
            self._edge(header.index, body_entry.index)
            body_end = self._statements(stmt.body, body_entry.index, fn_exit)
            if body_end is not None:
                self._edge(body_end, header.index)
            self._loop_stack.pop()
            self._loop_block_stack.pop()
            if stmt.orelse:
                else_end = self._statements(stmt.orelse, after.index, fn_exit)
                if else_end is not None and else_end != after.index:
                    self._edge(else_end, after.index)
            self.loops.append(
                LoopInfo(
                    node=stmt,
                    header=header.index,
                    body_blocks=body_set,
                    outermost=len(self._loop_stack) == 0,
                )
            )
            return after.index

        if isinstance(stmt, ast.Try):
            after = self._new_block()
            body_entry = self._new_block()
            self._edge(current, body_entry.index)
            # Any statement in the body may raise into any handler.
            handler_entries: list[int] = []
            for handler in stmt.handlers:
                h_entry = self._new_block()
                handler_entries.append(h_entry.index)
                self._edge(body_entry.index, h_entry.index)
            body_end = self._statements(stmt.body, body_entry.index, fn_exit)
            tails: list[int] = []
            if body_end is not None:
                if stmt.orelse:
                    else_end = self._statements(stmt.orelse, body_end, fn_exit)
                    if else_end is not None:
                        tails.append(else_end)
                else:
                    tails.append(body_end)
                for h_index in handler_entries:
                    self._edge(body_end, h_index)
            for handler, h_index in zip(stmt.handlers, handler_entries):
                h_end = self._statements(handler.body, h_index, fn_exit)
                if h_end is not None:
                    tails.append(h_end)
            if stmt.finalbody:
                final_entry = self._new_block()
                for tail in tails:
                    self._edge(tail, final_entry.index)
                final_end = self._statements(
                    stmt.finalbody, final_entry.index, fn_exit
                )
                if final_end is None:
                    return None
                self._edge(final_end, after.index)
                return after.index
            if not tails:
                return None
            for tail in tails:
                self._edge(tail, after.index)
            return after.index

        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            self.blocks[current].statements.append(stmt)
            return self._statements(stmt.body, current, fn_exit)

        if isinstance(stmt, (ast.Return, ast.Raise)):
            self.blocks[current].statements.append(stmt)
            self._edge(current, fn_exit)
            return None

        if isinstance(stmt, ast.Break):
            self.blocks[current].statements.append(stmt)
            if self._loop_stack:
                self._edge(current, self._loop_stack[-1][1])
            return None

        if isinstance(stmt, ast.Continue):
            self.blocks[current].statements.append(stmt)
            if self._loop_stack:
                self._edge(current, self._loop_stack[-1][0])
            return None

        if isinstance(stmt, ast.Match):
            self.blocks[current].statements.append(stmt)
            after = self._new_block()
            self._edge(current, after.index)  # no case may match
            for case in stmt.cases:
                case_entry = self._new_block()
                self._edge(current, case_entry.index)
                case_end = self._statements(case.body, case_entry.index, fn_exit)
                if case_end is not None:
                    self._edge(case_end, after.index)
            return after.index

        # Plain statement: accumulate into the current block.
        self.blocks[current].statements.append(stmt)
        return current


class FunctionFlow:
    """CFG + dataflow facts for one function definition."""

    def __init__(self, fn: FunctionNode) -> None:
        self.fn = fn
        builder = _CfgBuilder()
        self.exit_index = builder.build(fn)
        self.blocks: list[BasicBlock] = builder.blocks
        self.loops: list[LoopInfo] = builder.loops
        self._globals: frozenset[str] | None = None
        self._locals: frozenset[str] | None = None

    # -- scope facts --------------------------------------------------- #

    @property
    def declared_globals(self) -> frozenset[str]:
        """Names declared ``global`` anywhere in the function."""
        if self._globals is None:
            names: set[str] = set()
            for node in _walk_own_scope(self.fn):
                if isinstance(node, ast.Global):
                    names.update(node.names)
            self._globals = frozenset(names)
        return self._globals

    @property
    def local_bindings(self) -> frozenset[str]:
        """Names the function binds locally (params + assignments)."""
        if self._locals is None:
            args = self.fn.args
            names: set[str] = {
                a.arg
                for a in (
                    *args.posonlyargs,
                    *args.args,
                    *args.kwonlyargs,
                    *([args.vararg] if args.vararg else []),
                    *([args.kwarg] if args.kwarg else []),
                )
            }
            for stmt in self.fn.body:
                names |= _stmt_bindings(stmt)
            names -= self.declared_globals
            self._locals = frozenset(names)
        return self._locals

    # -- module-state writes (REP010's raw material) -------------------- #

    def module_state_writes(
        self, module_names: frozenset[str]
    ) -> list[ModuleStateWrite]:
        """Writes to ``module_names`` the function never binds locally.

        Three shapes: rebinding a declared-``global`` name, calling a
        mutator method on a module-level object, and assigning into a
        subscript/attribute rooted at a module-level name.
        """
        writes: list[ModuleStateWrite] = []
        local = self.local_bindings

        def module_rooted(expr: ast.expr) -> str | None:
            name = root_name(expr)
            if name and name in module_names and name not in local:
                return name
            return None

        for node in _walk_own_scope(self.fn):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    elems = (
                        target.elts
                        if isinstance(target, (ast.Tuple, ast.List))
                        else [target]
                    )
                    for elem in elems:
                        if isinstance(elem, ast.Name):
                            if (
                                elem.id in self.declared_globals
                                and elem.id in module_names
                            ):
                                writes.append(
                                    ModuleStateWrite(
                                        elem.id, node.lineno, "global-assign"
                                    )
                                )
                        elif isinstance(
                            elem, (ast.Attribute, ast.Subscript)
                        ):
                            name = module_rooted(elem)
                            if name:
                                writes.append(
                                    ModuleStateWrite(
                                        name, node.lineno, "subscript"
                                    )
                                )
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    if isinstance(target, (ast.Attribute, ast.Subscript)):
                        name = module_rooted(target)
                        if name:
                            writes.append(
                                ModuleStateWrite(
                                    name, node.lineno, "subscript"
                                )
                            )
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in MUTATOR_METHODS
                ):
                    name = module_rooted(func.value)
                    if name:
                        writes.append(
                            ModuleStateWrite(name, node.lineno, "mutation")
                        )
        return writes

    # -- loop path queries --------------------------------------------- #

    def loop_bounded(self, loop: LoopInfo) -> bool:
        """Dataflow-aware boundedness: literals, plus names bound to them.

        :attr:`LoopInfo.bounded` recognizes a literal iterable written
        inline; this also accepts ``for x in names:`` when every
        binding of ``names`` in the function is a plain assignment from
        a provably bounded iterable (parameters, augmented assignments
        and loop targets disqualify the name — any of them could grow
        it with input size).
        """
        if loop.bounded:
            return True
        node = loop.node
        if isinstance(node, ast.While):
            return False
        iterable = node.iter
        if not isinstance(iterable, ast.Name):
            return False
        return self._name_bounded(iterable.id)

    def _name_bounded(self, name: str) -> bool:
        args = self.fn.args
        param_names = {
            a.arg
            for a in (
                *args.posonlyargs, *args.args, *args.kwonlyargs,
                *([args.vararg] if args.vararg else []),
                *([args.kwarg] if args.kwarg else []),
            )
        }
        if name in param_names or name in self.declared_globals:
            return False
        values: list[ast.expr] = []
        for node in _walk_own_scope(self.fn):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if name not in _target_names(target):
                        continue
                    if not isinstance(target, ast.Name):
                        return False  # tuple-unpack: value shape unknown
                    values.append(node.value)
            elif isinstance(node, ast.AnnAssign):
                if name in _target_names(node.target):
                    if node.value is None:
                        return False
                    values.append(node.value)
            elif isinstance(node, ast.AugAssign):
                if name in _target_names(node.target):
                    return False  # could grow with input
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                if name in _target_names(node.target):
                    return False
            elif isinstance(node, ast.NamedExpr):
                if name in _target_names(node.target):
                    return False
            elif isinstance(node, ast.comprehension):
                if name in _target_names(node.target):
                    return False
            elif isinstance(node, ast.withitem):
                if node.optional_vars is not None and name in _target_names(
                    node.optional_vars
                ):
                    return False
            elif isinstance(node, ast.Nonlocal):
                if name in node.names:
                    return False
        return bool(values) and all(_is_bounded_iterable(v) for v in values)

    def loop_can_skip(
        self, loop: LoopInfo, hits: Callable[[ast.AST], bool]
    ) -> bool:
        """Can the loop cycle back to its header missing every hit?

        ``hits`` judges one AST node (e.g. "is a ``checkpoint`` call").
        A block counts as a hit block when any node on the *surface* of
        its statements (:func:`surface_walk` — split-off compound
        bodies belong to other blocks) satisfies the predicate.
        Returns True when some path ``header -> body -> header`` avoids
        every hit block, i.e. the loop *can* iterate without hitting.
        """
        hit_blocks = {
            b.index
            for b in self.blocks
            if b.index in loop.body_blocks
            and any(
                hits(node)
                for stmt in b.statements
                for node in surface_walk(stmt)
            )
        }
        body = loop.body_blocks - hit_blocks
        entries = [
            s
            for s in self.blocks[loop.header].successors
            if s in loop.body_blocks
        ]
        frontier = [e for e in entries if e in body]
        seen: set[int] = set(frontier)
        while frontier:
            current = frontier.pop()
            for successor in self.blocks[current].successors:
                if successor == loop.header:
                    return True
                if successor in body and successor not in seen:
                    seen.add(successor)
                    frontier.append(successor)
        # Every body path back to the header crosses a hit block.
        return False


def function_flows(tree: ast.Module) -> Iterator[tuple[FunctionNode, FunctionFlow]]:
    """Yield ``(def node, FunctionFlow)`` for every function in a module."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node, FunctionFlow(node)
