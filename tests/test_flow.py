"""Tests for repro.analysis.flow: CFGs, loop facts, dataflow queries.

The semantic rules (REP010/REP011) consume exactly three queries —
``module_state_writes``, ``loop_bounded`` and ``loop_can_skip`` — so
each is pinned here on small synthetic functions, including the
precision cases: a checkpoint behind an ``if`` is not coverage, a
``continue`` opens an uncovered path, a literal-bound local makes a
loop provably finite.
"""

from __future__ import annotations

import ast
import textwrap
from pathlib import Path

from repro.analysis.flow import FunctionFlow
from repro.analysis.rules import ModuleContext


def _flow(source: str, name: str | None = None) -> FunctionFlow:
    """The flow of ``name`` (default: the first def) in the module's
    function table."""
    text = textwrap.dedent(source)
    ctx = ModuleContext(Path("."), Path("m.py"), "m.py", ast.parse(text), text)
    flows = {
        entry.node.name: FunctionFlow(entry.node)
        for fn in ctx.functions
        for entry in (fn, *fn.nested)
    }
    return flows[name] if name else next(iter(flows.values()))


def _calls_checkpoint(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "checkpoint"
    )


# --------------------------------------------------------------------- #
# loop_can_skip: path-sensitivity
# --------------------------------------------------------------------- #


def test_unconditional_checkpoint_covers_the_loop():
    flow = _flow(
        """
        def f(items):
            while items:
                checkpoint()
                items = items[1:]
        """
    )
    (loop,) = flow.loops
    assert not flow.loop_can_skip(loop, _calls_checkpoint)


def test_checkpoint_behind_an_if_is_not_coverage():
    flow = _flow(
        """
        def f(items, verbose):
            while items:
                if verbose:
                    checkpoint()
                items = items[1:]
        """
    )
    (loop,) = flow.loops
    assert flow.loop_can_skip(loop, _calls_checkpoint)


def test_checkpoint_in_both_branches_is_coverage():
    flow = _flow(
        """
        def f(items, fast):
            while items:
                if fast:
                    checkpoint()
                else:
                    checkpoint()
                items = items[1:]
        """
    )
    (loop,) = flow.loops
    assert not flow.loop_can_skip(loop, _calls_checkpoint)


def test_continue_before_checkpoint_opens_a_path():
    flow = _flow(
        """
        def f(items):
            for item in items:
                if item is None:
                    continue
                checkpoint()
        """
    )
    (loop,) = flow.loops
    assert flow.loop_can_skip(loop, _calls_checkpoint)


def test_no_checkpoint_at_all_can_skip():
    flow = _flow(
        """
        def f(items):
            total = 0
            for item in items:
                total += item
            return total
        """
    )
    (loop,) = flow.loops
    assert flow.loop_can_skip(loop, _calls_checkpoint)


# --------------------------------------------------------------------- #
# loop structure and boundedness
# --------------------------------------------------------------------- #


def test_only_the_outer_loop_is_outermost():
    flow = _flow(
        """
        def f(grid):
            for row in grid:
                for cell in row:
                    use(cell)
        """
    )
    by_line = {loop.line: loop for loop in flow.loops}
    assert by_line[3].outermost
    assert not by_line[4].outermost


def test_literal_and_constant_range_loops_are_bounded():
    flow = _flow(
        """
        def f():
            for name in ("a", "b"):
                use(name)
            for i in range(8):
                use(i)
        """
    )
    assert all(flow.loop_bounded(loop) for loop in flow.loops)


def test_local_bound_to_a_literal_makes_the_loop_bounded():
    flow = _flow(
        """
        def f():
            names = ("mean", "p95")
            for name in names:
                use(name)
        """
    )
    (loop,) = flow.loops
    assert not loop.bounded  # syntactically unknown …
    assert flow.loop_bounded(loop)  # … but dataflow proves it


def test_parameter_iterable_is_not_bounded():
    flow = _flow(
        """
        def f(names):
            for name in names:
                use(name)
        """
    )
    (loop,) = flow.loops
    assert not flow.loop_bounded(loop)


def test_augmented_name_is_not_bounded():
    flow = _flow(
        """
        def f(extra):
            names = ("a", "b")
            names += extra
            for name in names:
                use(name)
        """
    )
    (loop,) = flow.loops
    assert not flow.loop_bounded(loop)


def test_while_loops_are_never_bounded():
    flow = _flow(
        """
        def f(n):
            while n:
                n -= 1
        """
    )
    (loop,) = flow.loops
    assert not flow.loop_bounded(loop)


# --------------------------------------------------------------------- #
# module-state writes (REP010's raw material)
# --------------------------------------------------------------------- #


def test_module_state_writes_three_shapes():
    flow = _flow(
        """
        def f(key, value):
            global COUNT
            COUNT = 1
            CACHE[key] = value
            ITEMS.append(value)
        """
    )
    module_names = frozenset({"COUNT", "CACHE", "ITEMS"})
    writes = {
        (w.name, w.kind) for w in flow.module_state_writes(module_names)
    }
    assert writes == {
        ("COUNT", "global-assign"),
        ("CACHE", "subscript"),
        ("ITEMS", "mutation"),
    }


def test_locally_bound_names_are_not_module_state():
    flow = _flow(
        """
        def f(value):
            CACHE = {}
            CACHE["k"] = value
            ITEMS = []
            ITEMS.append(value)
            return CACHE, ITEMS
        """
    )
    module_names = frozenset({"CACHE", "ITEMS"})
    assert flow.module_state_writes(module_names) == []


def test_nested_function_writes_are_not_attributed_to_the_outer():
    flow = _flow(
        """
        def outer():
            def inner():
                ITEMS.append(1)
            return inner
        """,
        name="outer",
    )
    assert flow.module_state_writes(frozenset({"ITEMS"})) == []


def test_declared_globals_and_local_bindings():
    flow = _flow(
        """
        def f(a, *rest, b=1, **kw):
            global STATE
            local = a + b
            return local
        """
    )
    assert flow.declared_globals == frozenset({"STATE"})
    assert {"a", "rest", "b", "kw", "local"} <= set(flow.local_bindings)
    assert "STATE" not in flow.local_bindings
