"""The project-specific rule catalogue (REP001–REP009, REP014, REP015).

Every rule inspects the stdlib ``ast`` of the scanned tree; none of
them import or execute the code under analysis, so the linter is safe
to run on broken or hostile files.  Rules come in two shapes:

* **module rules** implement :meth:`Rule.check_module` and see one file
  at a time;
* **project rules** implement :meth:`Rule.check_project` and see the
  whole parsed tree at once (registry completeness needs to compare
  ``core`` against ``verify/differential.py``).

Rule scoping is by top-level subpackage of the scan root: the
determinism rules (REP001/REP004) only police algorithm code under
``core/`` and ``verify/``, because a CLI module printing the wall-clock
time is fine while an anonymizer reading it is a reproducibility bug.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from repro.analysis.findings import Finding


@dataclass
class ModuleContext:
    """One parsed file plus where it sits in the scanned tree."""

    root: Path
    path: Path
    rel: str  # POSIX path relative to the scan root
    tree: ast.Module
    source: str

    @property
    def segment(self) -> str:
        """Top-level subpackage (``core``, ``verify``, …) or module stem."""
        parts = self.rel.split("/")
        return parts[0] if len(parts) > 1 else Path(parts[0]).stem


class Rule:
    """Base class: a rule has an id, a summary, and one or both hooks."""

    rule_id: str = "REP000"
    summary: str = ""

    def __repr__(self) -> str:
        # Address-free so rendered rule catalogues (docs/api.md) are
        # deterministic across processes.
        return f"<{type(self).__name__} {self.rule_id}>"

    def check_module(self, ctx: ModuleContext) -> Iterator[Finding]:
        """Yield findings for one file (default: none)."""
        return iter(())

    def check_project(
        self, modules: Sequence[ModuleContext]
    ) -> Iterator[Finding]:
        """Yield findings needing the whole tree (default: none)."""
        return iter(())


# --------------------------------------------------------------------- #
# shared AST helpers
# --------------------------------------------------------------------- #


def _root_name(node: ast.expr) -> str | None:
    """The base ``Name`` of an attribute/subscript chain, if any."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def _dotted(node: ast.expr) -> str | None:
    """Render ``a.b.c`` attribute chains; None for anything fancier."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _module_aliases(tree: ast.Module, module: str) -> dict[str, str]:
    """Names under which ``module`` (e.g. ``numpy``) is visible.

    Returns a mapping of local name -> dotted module path, covering
    ``import numpy``, ``import numpy as np``, ``import numpy.random``
    and ``from numpy import random [as r]``.
    """
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.name
                if name == module or name.startswith(module + "."):
                    local = alias.asname or name.split(".")[0]
                    aliases[local] = name if alias.asname else module
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            base = node.module or ""
            if base == module or base.startswith(module + "."):
                for alias in node.names:
                    aliases[alias.asname or alias.name] = (
                        f"{base}.{alias.name}"
                    )
    return aliases


def _resolve_dotted(tree_aliases: dict[str, str], node: ast.expr) -> str | None:
    """Dotted path of ``node`` with the leading alias canonicalized."""
    dotted = _dotted(node)
    if dotted is None:
        return None
    head, _, rest = dotted.partition(".")
    if head in tree_aliases:
        canonical = tree_aliases[head]
        return canonical + ("." + rest if rest else "")
    return dotted


def _has_arguments(call: ast.Call) -> bool:
    return bool(call.args or call.keywords)


# --------------------------------------------------------------------- #
# REP001 — unseeded randomness
# --------------------------------------------------------------------- #

#: Constructors that are fine *when given an explicit seed argument*.
_SEEDABLE = {
    "random.Random",
    "numpy.random.default_rng",
    "numpy.random.Generator",
    "numpy.random.SeedSequence",
    "numpy.random.PCG64",
    "numpy.random.MT19937",
    "numpy.random.Philox",
    "numpy.random.SFC64",
}


class UnseededRandomness(Rule):
    """REP001: calls into global RNG state in algorithm code.

    ``random.shuffle(...)``, ``np.random.rand(...)`` and friends draw
    from process-global generators, so two runs of the same experiment
    diverge unless every call site is threaded through an explicitly
    seeded ``np.random.Generator`` / ``random.Random``.  Scope:
    ``core/`` and ``verify/``.
    """

    rule_id = "REP001"
    summary = "unseeded randomness in algorithm code"
    segments = ("core", "verify")

    def check_module(self, ctx: ModuleContext) -> Iterator[Finding]:
        if ctx.segment not in self.segments:
            return
        aliases = _module_aliases(ctx.tree, "random")
        aliases.update(_module_aliases(ctx.tree, "numpy"))
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            target = _resolve_dotted(aliases, node.func)
            if target is None:
                continue
            if target in _SEEDABLE:
                if _has_arguments(node):
                    continue  # explicitly seeded construction
                kind = "constructed without an explicit seed"
            elif target.startswith("random.") or target.startswith(
                "numpy.random."
            ):
                kind = "draws from process-global RNG state"
            else:
                continue
            yield Finding(
                ctx.rel,
                node.lineno,
                node.col_offset,
                self.rule_id,
                f"'{target}' {kind}; thread an explicitly seeded "
                "np.random.Generator / random.Random through instead",
            )


# --------------------------------------------------------------------- #
# REP002 — set/dict ordering leaks
# --------------------------------------------------------------------- #


def _is_set_expression(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


class UnsortedSetIteration(Rule):
    """REP002: a set iterated straight into an ordered output.

    Set iteration order depends on insertion history and (for strings)
    on ``PYTHONHASHSEED``, so ``for x in {…}`` / ``list(set(…))``
    leaks nondeterminism into anything order-sensitive.  Wrapping the
    set in ``sorted(...)`` fixes it and is never flagged.  The rule is
    syntactic: only expressions that are *literally* sets (a set
    display, a set comprehension, or a direct ``set(...)`` /
    ``frozenset(...)`` call) are recognized, which keeps false
    positives at zero in exchange for missing aliased sets.
    """

    rule_id = "REP002"
    summary = "unsorted set iterated into an ordered output"

    _ORDERED_CONSUMERS = ("list", "tuple", "enumerate", "iter")

    def check_module(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            sites: list[ast.expr] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                sites.append(node.iter)
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
            ):
                # Only the *ordered* comprehensions leak; building
                # another set (or a dict used as a set) from a set is
                # order-insensitive, but a list comprehension is not.
                if isinstance(node, (ast.ListComp, ast.GeneratorExp)):
                    sites.extend(gen.iter for gen in node.generators)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                if node.func.id in self._ORDERED_CONSUMERS and node.args:
                    sites.append(node.args[0])
            for site in sites:
                if _is_set_expression(site):
                    yield Finding(
                        ctx.rel,
                        site.lineno,
                        site.col_offset,
                        self.rule_id,
                        "iterating a set into an ordered output; set order "
                        "is not reproducible across runs — wrap it in "
                        "sorted(...)",
                    )


# --------------------------------------------------------------------- #
# REP003 — input mutation in core algorithms
# --------------------------------------------------------------------- #

#: Method names that mutate their receiver in place.
_MUTATORS = {
    "append", "extend", "insert", "remove", "pop", "clear", "update",
    "add", "discard", "sort", "reverse", "setdefault", "popitem",
    "fill", "itemset", "put",
}

#: Annotation names marking a parameter as shared input data.
_PROTECTED_TYPES = {
    "Table", "Record", "GeneralizedRecord", "GeneralizedTable",
    "EncodedTable", "EncodedAttribute",
}


def _annotation_type_names(node: ast.expr | None) -> set[str]:
    """All type names appearing anywhere in an annotation expression."""
    if node is None:
        return set()
    names: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            # String annotations: pull identifiers out of the literal.
            names.update(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", sub.value))
    return names


class InputMutation(Rule):
    """REP003: an algorithm mutating its input table/record parameters.

    Every anonymizer must be a pure function of its input — the
    differential runner executes all eleven registered algorithms on
    the *same* instance, so the first one to ``.append`` to a shared
    ``Table`` poisons every run after it.  The rule flags assignments,
    ``del``, augmented assignments and mutating method calls whose
    target chain is rooted at a parameter annotated with one of the
    shared input types.  Scope: ``core/``.
    """

    rule_id = "REP003"
    summary = "mutation of a shared input parameter"
    segments = ("core",)

    def check_module(self, ctx: ModuleContext) -> Iterator[Finding]:
        if ctx.segment not in self.segments:
            return
        for fn in ast.walk(ctx.tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = fn.args
            protected = {
                a.arg
                for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)
                if _annotation_type_names(a.annotation) & _PROTECTED_TYPES
            }
            if not protected:
                continue
            yield from self._scan_body(ctx, fn, protected)

    def _scan_body(
        self, ctx: ModuleContext, fn: ast.AST, protected: set[str]
    ) -> Iterator[Finding]:
        def hit(node: ast.AST, param: str, what: str) -> Finding:
            assert isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            return Finding(
                ctx.rel,
                node.lineno,  # type: ignore[attr-defined]
                node.col_offset,  # type: ignore[attr-defined]
                self.rule_id,
                f"'{fn.name}' {what} its input parameter '{param}'; "
                "core algorithms must not mutate their inputs",
            )

        def rooted(expr: ast.expr) -> str | None:
            if not isinstance(expr, (ast.Attribute, ast.Subscript)):
                return None
            root = _root_name(expr)
            return root if root in protected else None

        for node in ast.walk(fn):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    elems = (
                        target.elts
                        if isinstance(target, (ast.Tuple, ast.List))
                        else [target]
                    )
                    for elem in elems:
                        param = rooted(elem)
                        if param:
                            yield hit(elem, param, "assigns into")
            elif isinstance(node, ast.AugAssign):
                param = rooted(node.target)
                if param:
                    yield hit(node, param, "assigns into")
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    param = rooted(target)
                    if param:
                        yield hit(target, param, "deletes from")
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in _MUTATORS
                ):
                    root = _root_name(func.value)
                    if root in protected:
                        yield hit(node, root, f"calls .{func.attr}() on")


# --------------------------------------------------------------------- #
# REP005 — registry completeness
# --------------------------------------------------------------------- #

#: A top-level public function in ``core/`` matching one of these is an
#: algorithm entry point and must be exercised by the differential
#: registry (``verify/differential.py``).
_ENTRY_POINT_PATTERNS = (
    r"_clustering$",
    r"_anonymize$",
    r"_anonymity$",
    r"agglomerative$",
    r"_expansion$",
    r"_nearest_neighbors$",
    r"^datafly$",
)
_ENTRY_POINT_RE = re.compile("|".join(_ENTRY_POINT_PATTERNS))


class RegistryCompleteness(Rule):
    """REP005: every algorithm is registered, every measure is flagged.

    Two halves, both cross-module:

    * every algorithm entry point defined under ``core/`` must be
      referenced by ``verify/differential.py`` — otherwise the
      differential net silently stops covering it;
    * every ``LossMeasure`` subclass under ``measures/`` must declare
      ``monotone`` and ``bounded_unit`` explicitly in its class body,
      because the verifier checks exactly what the class *claims* and
      an inherited default is an unreviewed claim.
    """

    rule_id = "REP005"
    summary = "algorithm/measure registry completeness"

    def check_project(
        self, modules: Sequence[ModuleContext]
    ) -> Iterator[Finding]:
        differential = next(
            (m for m in modules if m.rel == "verify/differential.py"), None
        )
        if differential is not None:
            referenced = self._referenced_names(differential.tree)
            for ctx in modules:
                parts = ctx.rel.split("/")
                if parts[0] != "core" or parts[-1] == "__init__.py":
                    continue
                for node in ctx.tree.body:
                    if not isinstance(node, ast.FunctionDef):
                        continue
                    name = node.name
                    if name.startswith("_") or not _ENTRY_POINT_RE.search(
                        name
                    ):
                        continue
                    if name not in referenced:
                        yield Finding(
                            ctx.rel,
                            node.lineno,
                            node.col_offset,
                            self.rule_id,
                            f"algorithm entry point '{name}' is not "
                            "referenced by verify/differential.py; register "
                            "it so the differential net covers it",
                        )
        for ctx in modules:
            if ctx.rel.split("/")[0] != "measures":
                continue
            yield from self._check_measures(ctx)

    @staticmethod
    def _referenced_names(tree: ast.Module) -> set[str]:
        names: set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names.update(a.asname or a.name for a in node.names)
        return names

    def _check_measures(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if node.name == "LossMeasure":
                continue
            base_names = {
                b.id if isinstance(b, ast.Name) else getattr(b, "attr", None)
                for b in node.bases
            }
            if "LossMeasure" not in base_names:
                continue
            declared = set()
            for stmt in node.body:
                if isinstance(stmt, ast.Assign):
                    declared.update(
                        t.id for t in stmt.targets if isinstance(t, ast.Name)
                    )
                elif isinstance(stmt, ast.AnnAssign) and isinstance(
                    stmt.target, ast.Name
                ):
                    declared.add(stmt.target.id)
            missing = sorted({"monotone", "bounded_unit"} - declared)
            if missing:
                yield Finding(
                    ctx.rel,
                    node.lineno,
                    node.col_offset,
                    self.rule_id,
                    f"measure '{node.name}' does not declare "
                    f"{' or '.join(missing)} explicitly; the verification "
                    "harness checks what the class claims — state the "
                    "flags in the class body",
                )


# --------------------------------------------------------------------- #
# REP006 — __all__ / public-API drift
# --------------------------------------------------------------------- #


def _top_level_bindings(tree: ast.Module) -> dict[str, tuple[int, str]]:
    """Names bound at module top level -> (line, binding kind).

    Kinds are ``"import"`` (plain ``import x``), ``"from-import"`` and
    ``"definition"`` (def/class/assignment); ``__future__`` imports are
    skipped entirely.  Descends into top-level ``if``/``try`` bodies
    (TYPE_CHECKING and import-fallback guards) but not into functions
    or classes.
    """
    bindings: dict[str, tuple[int, str]] = {}

    def visit(stmts: Iterable[ast.stmt]) -> None:
        for node in stmts:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    bindings[local] = (node.lineno, "import")
            elif isinstance(node, ast.ImportFrom):
                if node.module == "__future__":
                    continue
                for alias in node.names:
                    bindings[alias.asname or alias.name] = (
                        node.lineno, "from-import"
                    )
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                bindings[node.name] = (node.lineno, "definition")
            elif isinstance(node, ast.ClassDef):
                bindings[node.name] = (node.lineno, "definition")
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    elems = (
                        target.elts
                        if isinstance(target, (ast.Tuple, ast.List))
                        else [target]
                    )
                    for elem in elems:
                        if isinstance(elem, ast.Name):
                            bindings[elem.id] = (node.lineno, "definition")
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                bindings[node.target.id] = (node.lineno, "definition")
            elif isinstance(node, ast.If):
                visit(node.body)
                visit(node.orelse)
            elif isinstance(node, ast.Try):
                visit(node.body)
                for handler in node.handlers:
                    visit(handler.body)
                visit(node.orelse)
                visit(node.finalbody)

    visit(tree.body)
    return bindings


class PublicApiDrift(Rule):
    """REP006: ``__all__`` out of sync with what the module binds.

    Three checks: every ``__all__`` entry must be a string naming a
    bound top-level name; no duplicates; and in package ``__init__``
    files every public name bound by a from-import, def, class or
    assignment must appear in ``__all__`` (a re-export that ``import *``
    and the docs miss is drift in the other direction).
    """

    rule_id = "REP006"
    summary = "__all__ / public-API drift"

    def check_module(self, ctx: ModuleContext) -> Iterator[Finding]:
        dunder_all: ast.Assign | ast.AnnAssign | None = None
        for node in ctx.tree.body:
            targets: list[ast.expr]
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            if any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in targets
            ):
                dunder_all = node
                break
        if dunder_all is None:
            return
        value = dunder_all.value
        line, col = dunder_all.lineno, dunder_all.col_offset
        if not isinstance(value, (ast.List, ast.Tuple)):
            yield Finding(
                ctx.rel, line, col, self.rule_id,
                "__all__ is not a list/tuple literal, so the public API "
                "cannot be statically audited",
            )
            return
        names: list[str] = []
        for elem in value.elts:
            if isinstance(elem, ast.Constant) and isinstance(elem.value, str):
                names.append(elem.value)
            else:
                yield Finding(
                    ctx.rel, elem.lineno, elem.col_offset, self.rule_id,
                    "__all__ contains a non-literal entry; list string "
                    "names only",
                )

        bindings = _top_level_bindings(ctx.tree)
        bindings.setdefault("__all__", (line, "definition"))
        seen: set[str] = set()
        for name in names:
            if name in seen:
                yield Finding(
                    ctx.rel, line, col, self.rule_id,
                    f"__all__ lists '{name}' more than once",
                )
            seen.add(name)
            if name not in bindings:
                yield Finding(
                    ctx.rel, line, col, self.rule_id,
                    f"__all__ exports '{name}' but the module never binds "
                    "it",
                )

        if ctx.rel.split("/")[-1] == "__init__.py":
            exported = set(names)
            for name, (bound_line, kind) in sorted(bindings.items()):
                if (
                    name.startswith("_")
                    or name in exported
                    or kind == "import"  # `import numpy` is not a re-export
                ):
                    continue
                yield Finding(
                    ctx.rel, bound_line, 0, self.rule_id,
                    f"public name '{name}' is bound in the package "
                    "__init__ but missing from __all__",
                )


# --------------------------------------------------------------------- #
# REP007 — swallowed exceptions
# --------------------------------------------------------------------- #


def _contains_raise(stmts: Iterable[ast.stmt]) -> bool:
    """True if any statement (not inside a nested def/class) raises."""

    def scan(node: ast.AST) -> bool:
        if isinstance(node, ast.Raise):
            return True
        if isinstance(
            node,
            (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda),
        ):
            return False  # a nested definition raising later doesn't count
        return any(scan(child) for child in ast.iter_child_nodes(node))

    return any(scan(stmt) for stmt in stmts)


def _handler_types(node: ast.ExceptHandler) -> list[str]:
    """Exception type names a handler catches ('' for a bare except)."""
    if node.type is None:
        return [""]
    types = (
        list(node.type.elts)
        if isinstance(node.type, ast.Tuple)
        else [node.type]
    )
    names = []
    for t in types:
        dotted = _dotted(t)
        names.append(dotted.split(".")[-1] if dotted else "?")
    return names


class SwallowedException(Rule):
    """REP007: broad or silent exception swallowing in runtime-critical code.

    The resilience machinery (:mod:`repro.runtime`) steers execution
    through *typed* errors — :class:`DeadlineExceeded` must abort a
    grid run, :class:`InjectedFault` must surface in fault drills.  A
    ``try: ... except Exception: pass`` in an algorithm or the
    experiment harness silently eats those signals, turning a
    cancelled run into a wrong answer.  Two shapes are flagged, in
    ``core/`` and ``experiments/`` only:

    * a handler for ``Exception``/``BaseException`` or a bare
      ``except:`` that never re-raises;
    * any handler whose body is nothing but ``pass``/``...``.

    A deliberate broad catch (e.g. a degradation-chain rung boundary)
    belongs in a module *designed* for it — or carries an inline
    ``# repro: allow[REP007] reason`` suppression.
    """

    rule_id = "REP007"
    summary = "broad or silent exception swallowing"
    segments = ("core", "experiments")

    _BROAD = {"Exception", "BaseException", ""}

    def check_module(self, ctx: ModuleContext) -> Iterator[Finding]:
        if ctx.segment not in self.segments:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            caught = _handler_types(node)
            broad = [t for t in caught if t in self._BROAD]
            silent = all(
                isinstance(s, ast.Pass)
                or (
                    isinstance(s, ast.Expr)
                    and isinstance(s.value, ast.Constant)
                    and s.value.value is Ellipsis
                )
                for s in node.body
            )
            if silent:
                label = broad[0] if broad else caught[0]
                shown = repr(label) if label else "a bare except"
                yield Finding(
                    ctx.rel, node.lineno, node.col_offset, self.rule_id,
                    f"handler for {shown} silently swallows the "
                    "exception (body is only pass/...); handle it, "
                    "re-raise, or narrow the catch",
                )
            elif broad and not _contains_raise(node.body):
                shown = repr(broad[0]) if broad[0] else "a bare except"
                yield Finding(
                    ctx.rel, node.lineno, node.col_offset, self.rule_id,
                    f"broad handler for {shown} never re-raises; it "
                    "swallows typed runtime signals (DeadlineExceeded, "
                    "InjectedFault) — narrow the exception type or "
                    "re-raise what you don't handle",
                )


# --------------------------------------------------------------------- #
# REP004 / REP008 / REP009 / REP014 — primitives confined to some layers
# --------------------------------------------------------------------- #


class ConfinedPrimitive(Rule):
    """A primitive the project confines to some layers: one table row.

    ``match`` says what counts as a use of a target: ``"read"`` is any
    attribute access that resolves to it (calls included), ``"call"`` a
    call whose callee resolves to it, and ``"builtin"`` a call of the
    bare builtin name.  Names resolve through the module aliases the
    file imports, and ``prefixes`` match whole families
    (``"socket."``).  A row polices either only its ``banned_in``
    segments or every segment outside its ``allowed_in`` ones.  When
    another row owns part of a use (``defers_to``), that use is
    reported once, by the owner.
    """

    def __init__(
        self,
        rule_id: str,
        summary: str,
        *,
        match: str,
        targets: tuple[str, ...],
        prefixes: tuple[str, ...] = (),
        banned_in: tuple[str, ...] = (),
        allowed_in: tuple[str, ...] = (),
        message: str,
        defers_to: ConfinedPrimitive | None = None,
    ) -> None:
        self.rule_id = rule_id
        self.summary = summary
        self.match = match
        self.targets = targets
        self.prefixes = prefixes
        self.banned_in = banned_in
        self.allowed_in = allowed_in
        self.message = message
        self.defers_to = defers_to
        # The modules whose import aliases name the targets, in order.
        self._modules = tuple(
            dict.fromkeys(
                name.split(".")[0]
                for name in (*targets, *prefixes)
                if "." in name
            )
        )

    def polices(self, segment: str) -> bool:
        """Whether uses in this top-level segment are findings."""
        if self.banned_in:
            return segment in self.banned_in
        return segment not in self.allowed_in

    def matches(self, target: str) -> bool:
        """Whether a resolved name is one of this row's primitives."""
        return target in self.targets or target.startswith(self.prefixes)

    def _use(
        self, node: ast.Attribute | ast.Call, aliases: dict[str, str]
    ) -> str | None:
        """The resolved name ``node`` uses, under this row's match kind."""
        if self.match == "read":
            if isinstance(node, ast.Attribute):
                return _resolve_dotted(aliases, node)
            return None
        if not isinstance(node, ast.Call):
            return None
        if self.match == "builtin":
            return node.func.id if isinstance(node.func, ast.Name) else None
        return _resolve_dotted(aliases, node.func)

    def check_module(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not self.polices(ctx.segment):
            return
        aliases: dict[str, str] = {}
        for module in self._modules:
            aliases.update(_module_aliases(ctx.tree, module))
        owner = self.defers_to
        if owner is not None and not owner.polices(ctx.segment):
            owner = None
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.Attribute, ast.Call)):
                continue
            target = self._use(node, aliases)
            if target is None or not self.matches(target):
                continue
            if owner is not None and owner.matches(target):
                continue
            yield Finding(
                ctx.rel,
                node.lineno,
                node.col_offset,
                self.rule_id,
                self.message.format(target=target),
            )


#: REP004: an anonymizer whose output can depend on ``time.time()`` or
#: ``os.environ`` is unreproducible by construction.  The monotonic
#: clocks only ever feed elapsed-time reporting, so they stay legal.
_WALL_CLOCK_READ = ConfinedPrimitive(
    "REP004",
    "wall-clock/environment read in algorithm code",
    match="read",
    targets=(
        "time.time", "time.time_ns", "time.localtime", "time.gmtime",
        "time.ctime", "time.asctime", "time.strftime",
        "os.environ", "os.environb", "os.getenv", "os.getenvb",
        "datetime.datetime.now", "datetime.datetime.utcnow",
        "datetime.datetime.today", "datetime.date.today",
    ),
    banned_in=("core", "verify"),
    message="'{target}' read in algorithm code; outputs must not "
    "depend on wall-clock time or the process environment",
)

#: The confined primitives, one row per rule.
CONFINED_PRIMITIVES: tuple[ConfinedPrimitive, ...] = (
    _WALL_CLOCK_READ,
    # REP008: timing belongs to repro.runtime (the injectable Timer and
    # Deadline).  A direct clock call elsewhere bakes a real clock into
    # code that tests cannot fake; passing ``clock=time.monotonic`` (a
    # reference, not a call) is the approved injection.  REP004 owns
    # its wall-clock calls.
    ConfinedPrimitive(
        "REP008",
        "raw time.* clock call outside repro.runtime",
        match="call",
        targets=(
            "time.time", "time.time_ns",
            "time.perf_counter", "time.perf_counter_ns",
            "time.monotonic", "time.monotonic_ns",
            "time.process_time", "time.process_time_ns",
        ),
        allowed_in=("runtime",),
        message="'{target}()' called outside repro.runtime; "
        "time through the injectable repro.runtime.Timer so "
        "tests can fake the clock",
        defers_to=_WALL_CLOCK_READ,
    ),
    # REP009: library code talks through return values, the journal and
    # repro.obs; a stray print() bypasses all three and garbles
    # machine-readable CLI output.  Printing is the presentation
    # layers' job.  Only the builtin counts, not a method named print.
    ConfinedPrimitive(
        "REP009",
        "bare print() outside cli/report/tools presentation layers",
        match="builtin",
        targets=("print",),
        allowed_in=("cli", "report", "tools", "__main__"),
        message="bare 'print()' outside the presentation layers; "
        "debug output here is invisible to the journal — "
        "return data, record a metric via repro.obs, or "
        "move the printing into cli/report",
    ),
    # REP014: repro.runtime wraps sleeping behind the injectable Sleeper
    # and repro.serve owns the server's threads and sockets; a thread or
    # sleep anywhere else is wall-clock behaviour no fault plan, fake
    # clock or drill can reach.  References (``sleeper=time.sleep``)
    # and synchronization guards (``threading.Lock``) stay legal.
    ConfinedPrimitive(
        "REP014",
        "raw socket/thread/sleep primitive outside "
        "repro.serve/repro.runtime",
        match="call",
        targets=("time.sleep", "threading.Thread", "threading.Timer"),
        prefixes=("socket.",),
        allowed_in=("serve", "runtime"),
        message="'{target}()' called outside repro.serve/repro.runtime; "
        "sleeps go through an injected Sleeper and "
        "thread/socket work belongs to the serving layer",
    ),
)


# --------------------------------------------------------------------- #
# REP015 — metric/span names outside the repro.obs.names registry
# --------------------------------------------------------------------- #

#: The module-level instrumentation helpers whose first argument is a
#: metric name.  Both the facade (``repro.obs``) and the defining
#: module spellings are matched.
_METRIC_HELPERS = {
    "repro.obs.count",
    "repro.obs.gauge",
    "repro.obs.observe",
    "repro.obs.metrics.count",
    "repro.obs.metrics.gauge",
    "repro.obs.metrics.observe",
}

#: Span-opening helpers whose first argument is a span name.
_SPAN_HELPERS = {
    "repro.obs.span",
    "repro.obs.tracer.span",
}

#: Registry methods whose *literal* first arguments are also checked
#: (receiver types are unknown statically, so dynamic first arguments
#: on methods are left alone).
_METRIC_METHODS = {"inc", "set_gauge"}


def _string_literals(node: ast.expr) -> list[ast.expr] | None:
    """Flatten a name expression into its string-bearing leaves.

    Returns the ``Constant``/``JoinedStr`` leaves of the expression
    (descending through ``IfExp`` arms, the one conditional shape the
    instrumented code uses), or ``None`` when any leaf is something
    else — i.e. the name is dynamic.
    """
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node]
    if isinstance(node, ast.JoinedStr):
        return [node]
    if isinstance(node, ast.IfExp):
        body = _string_literals(node.body)
        orelse = _string_literals(node.orelse)
        if body is None or orelse is None:
            return None
        return body + orelse
    return None


def _fstring_prefix(node: ast.JoinedStr) -> str:
    """The leading constant text of an f-string (may be empty)."""
    prefix = ""
    for part in node.values:
        if isinstance(part, ast.Constant) and isinstance(part.value, str):
            prefix += part.value
        else:
            break
    return prefix


class UnregisteredMetricName(Rule):
    """REP015: a metric/span name not registered in ``repro.obs.names``.

    Telemetry names are stringly-typed contracts: dashboards, the SLO
    objectives, the Prometheus exposition and the window snapshots all
    key on them, so a typo'd or ad-hoc name silently severs the series.
    Every name passed to ``count``/``gauge``/``observe``/``span`` (and
    to literal ``inc``/``set_gauge`` method calls) must be a literal
    found in :data:`repro.obs.names.METRIC_NAMES` /
    :data:`~repro.obs.names.SPAN_NAMES`.  The one sanctioned dynamic
    shape is an f-string whose literal prefix is registered in
    :data:`~repro.obs.names.DYNAMIC_METRIC_PREFIXES` (status/reason
    families like ``serve.status.*``).  Anything computed — a variable,
    a concatenation — is flagged; reviewed exceptions go in the
    baseline with a reason.
    """

    rule_id = "REP015"
    summary = "metric/span name is not a registered literal from repro.obs.names"

    def check_module(self, ctx: ModuleContext) -> Iterator[Finding]:
        from repro.obs.names import (
            DYNAMIC_METRIC_PREFIXES,
            is_registered_metric,
            is_registered_span,
        )

        aliases = _module_aliases(ctx.tree, "repro.obs")
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            target = _resolve_dotted(aliases, node.func)
            if target in _METRIC_HELPERS:
                kind = "metric"
            elif target in _SPAN_HELPERS:
                kind = "span"
            elif (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _METRIC_METHODS
                and _string_literals(node.args[0]) is not None
            ):
                kind = "metric"
            else:
                continue
            label = _dotted(node.func) or "?"
            name_arg = node.args[0]
            leaves = _string_literals(name_arg)
            if leaves is None:
                yield Finding(
                    ctx.rel,
                    name_arg.lineno,
                    name_arg.col_offset,
                    self.rule_id,
                    f"dynamic {kind} name passed to '{label}()'; names "
                    "must be literals from repro.obs.names (or an "
                    "f-string on a registered dynamic prefix)",
                )
                continue
            for leaf in leaves:
                if isinstance(leaf, ast.JoinedStr):
                    prefix = _fstring_prefix(leaf)
                    if kind == "span" or not any(
                        prefix.startswith(p)
                        for p in DYNAMIC_METRIC_PREFIXES
                    ):
                        yield Finding(
                            ctx.rel,
                            leaf.lineno,
                            leaf.col_offset,
                            self.rule_id,
                            f"f-string {kind} name in '{label}()' does "
                            f"not start with a registered dynamic "
                            f"prefix (got '{prefix}'); register the "
                            "family in repro.obs.names",
                        )
                    continue
                name = leaf.value  # type: ignore[attr-defined]
                registered = (
                    is_registered_span(name)
                    if kind == "span"
                    else is_registered_metric(name)
                )
                if not registered:
                    yield Finding(
                        ctx.rel,
                        leaf.lineno,
                        leaf.col_offset,
                        self.rule_id,
                        f"{kind} name '{name}' is not registered in "
                        "repro.obs.names; add it to the registry so "
                        "dashboards and SLOs can rely on the series",
                    )


#: Every module/project rule, in rule-id order.
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
        ),
        key=lambda rule: rule.rule_id,
    )
)

#: rule id -> one-line summary, for ``--select`` validation and docs.
RULE_DOCS: dict[str, str] = {rule.rule_id: rule.summary for rule in ALL_RULES}


def rule_ids() -> list[str]:
    """All module/project rule ids, sorted."""
    return sorted(RULE_DOCS)
