"""Project-wide call graph over the scanned package, pure stdlib.

Built from the same parsed :class:`~repro.analysis.rules.ModuleContext`
list the lint engine already holds, the graph answers the reachability
questions the semantic rules (REP010/REP011) ask, and that other tools
(a cost planner, serving checks) can ask too:

* *which functions can a ProcessPool worker execute?* (fork-safety)
* *does every registered algorithm reach ``runtime.checkpoint``?*
  (cancellation coverage)

Construction is deliberately conservative-but-useful:

* **qualified names** are dotted in-package paths —
  ``core.agglomerative.agglomerative_clustering``,
  ``experiments.runner.ExperimentRunner.run_key``; calls into modules
  outside the scan root become *external* nodes
  (``numpy.argmin``, ``repro.runtime.checkpoint`` when scanning a
  fixture tree);
* **import resolution** follows ``import``/``from``/relative imports
  and *re-export chains* through package ``__init__`` files, so
  ``from repro.runtime import checkpoint`` resolves to
  ``runtime.deadline.checkpoint``, the defining module;
* **attribute calls** resolve through module aliases
  (``agg.agglomerative_clustering(...)``), ``self.``/``cls.`` method
  calls resolve within the enclosing class (following project-local
  base classes), and nested functions resolve lexically;
* unresolvable receivers (``obj.method()`` on an unknown object) are
  dropped rather than guessed — the graph under-approximates dynamic
  dispatch, which the rule docs state explicitly.

Entry points are discovered statically, matching the runtime wiring:

* ``algorithms`` — the functions referenced by the ``REGISTRY`` tuple
  in ``verify/differential.py`` (the 11 registered algorithms);
* ``workers`` — functions passed as ``initializer=`` to a process
  pool, as the first argument of ``.submit(...)``, or as ``target=``
  to a ``Process``;
* ``cell_drivers`` — the public methods of ``ExperimentRunner`` in
  ``experiments/runner.py``.

:meth:`CallGraph.to_json_text` renders a fully sorted, schema-versioned
document — byte-identical across runs by construction — which
``repro-anon lint --callgraph`` writes for downstream consumers.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from repro.analysis.layers import DEFAULT_LAYERS, resolve_layer
from repro.analysis.rules import ModuleContext

#: JSON schema version of the ``--callgraph`` artifact.
CALLGRAPH_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class GraphNode:
    """One function or method defined inside the scanned tree."""

    qualname: str  #: dotted in-package name, e.g. ``core.kk.kk_anonymize``
    path: str  #: POSIX path relative to the scan root
    line: int
    kind: str  #: ``"function"`` or ``"method"``


@dataclass
class _Scope:
    """Lexical information for one module during construction."""

    module: str  #: dotted module path ("" for the scan-root __init__)
    ctx: ModuleContext
    aliases: dict[str, str] = field(default_factory=dict)  #: local -> dotted
    top_defs: dict[str, str] = field(default_factory=dict)  #: name -> qualname
    classes: dict[str, dict[str, str]] = field(default_factory=dict)
    bases: dict[str, list[str]] = field(default_factory=dict)


def _module_dotted(ctx: ModuleContext) -> str:
    parts = ctx.rel[: -len(".py")].split("/")
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _dotted_expr(node: ast.expr) -> str | None:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class CallGraph:
    """Nodes, edges, entry points and reachability over one tree."""

    def __init__(self, package: str) -> None:
        self.package = package
        self.nodes: dict[str, GraphNode] = {}
        self.edges: dict[str, set[str]] = {}
        self.external: set[str] = set()
        #: ``id(ast.Call node)`` -> resolved callee qualname, for every
        #: call site resolved during construction.  Keyed by identity of
        #: the *same* tree objects the graph was built from, so semantic
        #: rules holding those trees can ask "what does this call hit?".
        self.callsites: dict[int, str] = {}
        self.entrypoints: dict[str, dict[str, str]] = {
            "algorithms": {},
            "workers": {},
            "cell_drivers": {},
        }

    # -- queries -------------------------------------------------------- #

    def callees(self, qualname: str) -> frozenset[str]:
        """Direct callees of one node (empty for leaves/externals)."""
        return frozenset(self.edges.get(qualname, ()))

    def reachable(self, seeds: Iterable[str]) -> frozenset[str]:
        """Every node (incl. externals) reachable from ``seeds``."""
        seen: set[str] = set()
        frontier = [s for s in seeds if s in self.nodes or s in self.external]
        seen.update(frontier)
        while frontier:
            current = frontier.pop()
            for callee in self.edges.get(current, ()):
                if callee not in seen:
                    seen.add(callee)
                    frontier.append(callee)
        return frozenset(seen)

    def reaches(self, source: str, targets: Iterable[str]) -> bool:
        """Does any path lead from ``source`` into ``targets``?"""
        wanted = set(targets)
        return bool(wanted & self.reachable([source]))

    def entry_qualnames(self, category: str | None = None) -> list[str]:
        """Sorted entry-point qualnames, optionally for one category."""
        categories = (
            [category] if category is not None else sorted(self.entrypoints)
        )
        out: set[str] = set()
        for cat in categories:
            out.update(self.entrypoints.get(cat, {}).values())
        return sorted(out)

    # -- serialization --------------------------------------------------- #

    def to_json(
        self, layers: Mapping[str, int] = DEFAULT_LAYERS
    ) -> dict[str, object]:
        """Schema-versioned, fully sorted document (deterministic)."""
        rendered_nodes = []
        for qualname in sorted(self.nodes):
            node = self.nodes[qualname]
            layer = resolve_layer(qualname, layers)
            rendered_nodes.append(
                {
                    "qualname": node.qualname,
                    "path": node.path,
                    "line": node.line,
                    "kind": node.kind,
                    "layer": None if layer is None else layer[1],
                }
            )
        return {
            "version": CALLGRAPH_SCHEMA_VERSION,
            "package": self.package,
            "entrypoints": {
                category: dict(sorted(members.items()))
                for category, members in sorted(self.entrypoints.items())
            },
            "nodes": rendered_nodes,
            "edges": sorted(
                [caller, callee]
                for caller, callees in self.edges.items()
                for callee in callees
            ),
            "external": sorted(self.external),
        }

    def to_json_text(self, layers: Mapping[str, int] = DEFAULT_LAYERS) -> str:
        """The exact bytes ``--callgraph`` writes (sorted keys, LF end)."""
        return json.dumps(self.to_json(layers), indent=2, sort_keys=True) + "\n"


class _Builder:
    def __init__(self, modules: Sequence[ModuleContext], package: str) -> None:
        self.modules = modules
        self.package = package
        self.graph = CallGraph(package)
        self.scopes: dict[str, _Scope] = {}
        #: module dotted -> {exported name -> dotted object path}
        self.exports: dict[str, dict[str, str]] = {}
        self.module_names: set[str] = set()
        self._var_type_cache: dict[str, dict[str, tuple[_Scope, str]]] = {}

    # -- pass 1: definitions and imports -------------------------------- #

    def collect(self) -> None:
        for ctx in self.modules:
            module = _module_dotted(ctx)
            scope = _Scope(module=module, ctx=ctx)
            self.scopes[module] = scope
            self.module_names.add(module)
            prefix = f"{module}." if module else ""
            for stmt in ctx.tree.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = prefix + stmt.name
                    scope.top_defs[stmt.name] = qualname
                    self._add_node(qualname, ctx, stmt.lineno, "function")
                elif isinstance(stmt, ast.ClassDef):
                    methods: dict[str, str] = {}
                    for item in stmt.body:
                        if isinstance(
                            item, (ast.FunctionDef, ast.AsyncFunctionDef)
                        ):
                            qualname = f"{prefix}{stmt.name}.{item.name}"
                            methods[item.name] = qualname
                            self._add_node(
                                qualname, ctx, item.lineno, "method"
                            )
                    scope.classes[stmt.name] = methods
                    scope.bases[stmt.name] = [
                        base
                        for base in (
                            _dotted_expr(b)
                            for b in stmt.bases
                        )
                        if base is not None
                    ]
            self._collect_imports(scope)
            self.exports[module] = dict(scope.aliases)
            self.exports[module].update(scope.top_defs)
            for cls in scope.classes:
                self.exports[module][cls] = (
                    f"{module}.{cls}" if module else cls
                )

    def _add_node(
        self, qualname: str, ctx: ModuleContext, line: int, kind: str
    ) -> None:
        self.graph.nodes.setdefault(
            qualname, GraphNode(qualname, ctx.rel, line, kind)
        )
        self.graph.edges.setdefault(qualname, set())

    def _collect_imports(self, scope: _Scope) -> None:
        """Local name -> dotted *in-package* object path (or external)."""
        package_prefix = self.package + "."
        for node in ast.walk(scope.ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    target = alias.name
                    local = alias.asname or target.split(".")[0]
                    if target.startswith(package_prefix):
                        scope.aliases[local] = target[len(package_prefix):]
                    elif target == self.package:
                        scope.aliases[local] = ""
                    else:
                        scope.aliases[local] = f"!{target}"
            elif isinstance(node, ast.ImportFrom):
                base = self._import_base(scope, node)
                if base is None:
                    continue
                for alias in node.names:
                    local = alias.asname or alias.name
                    if base.startswith("!"):
                        scope.aliases[local] = f"{base}.{alias.name}"
                    else:
                        scope.aliases[local] = (
                            f"{base}.{alias.name}" if base else alias.name
                        )

    def _import_base(
        self, scope: _Scope, node: ast.ImportFrom
    ) -> str | None:
        """The dotted in-package base a ``from X import`` refers to.

        External modules come back prefixed with ``!`` so aliases keep
        their absolute dotted path without colliding with in-package
        names.  ``__future__`` imports are skipped.
        """
        if node.level == 0:
            module = node.module or ""
            if module == "__future__":
                return None
            if module == self.package:
                return ""
            if module.startswith(self.package + "."):
                return module[len(self.package) + 1:]
            return f"!{module}"
        parts = scope.ctx.rel[: -len(".py")].split("/")
        if parts[-1] == "__init__":
            parts = parts[:-1]
        anchor = parts[: len(parts) - node.level] if parts else []
        if node.level <= len(parts):
            target = anchor + (node.module.split(".") if node.module else [])
            return ".".join(target)
        return None

    # -- resolution ------------------------------------------------------ #

    def resolve_object(self, dotted: str, depth: int = 0) -> str | None:
        """Dotted in-package object path -> defining node qualname.

        Follows re-export chains through ``__init__`` files:
        ``runtime.checkpoint`` -> (runtime/__init__ from-imports it
        from ``runtime.deadline``) -> ``runtime.deadline.checkpoint``.
        Returns None for externals and unresolvables.
        """
        if depth > 8:  # re-export cycle guard
            return None
        if dotted.startswith("!"):
            return None
        if dotted in self.graph.nodes:
            return dotted
        head, _, tail = dotted.rpartition(".")
        if not tail:
            return None
        # `head` may itself be an alias chain target; resolve the module
        # owning `tail` first.
        if head in self.exports and tail in self.exports[head]:
            target = self.exports[head][tail]
            if target == dotted:
                return dotted if dotted in self.graph.nodes else None
            if target.startswith("!"):
                return None
            return self.resolve_object(target, depth + 1)
        if head and head not in self.module_names:
            resolved_head = self.resolve_object(head, depth + 1)
            if resolved_head is not None and resolved_head != head:
                return self.resolve_object(
                    f"{resolved_head}.{tail}", depth + 1
                )
        return None

    def resolve_target(self, dotted: str) -> str | None:
        """In-package qualname, or an *external* dotted name.

        External results are registered on the graph so reachability
        can treat them as leaf nodes (``repro.runtime.checkpoint`` when
        the scan root is a fixture tree, ``numpy.argmin`` anywhere).
        """
        if dotted.startswith("!"):
            external = dotted[1:]
            self.graph.external.add(external)
            return external
        return self.resolve_object(dotted)

    def resolve_class(
        self, dotted: str, depth: int = 0
    ) -> tuple[_Scope, str] | None:
        """Dotted in-package path -> the scope and name of a class.

        Follows the same ``__init__`` re-export chains as
        :meth:`resolve_object` (``experiments.ExperimentRunner`` ->
        ``experiments.runner.ExperimentRunner``).
        """
        if depth > 8 or dotted.startswith("!"):
            return None
        owner, _, cls = dotted.rpartition(".")
        scope = self.scopes.get(owner)
        if scope is not None and cls in scope.classes:
            return scope, cls
        if owner in self.exports and cls in self.exports[owner]:
            target = self.exports[owner][cls]
            if target != dotted and not target.startswith("!"):
                return self.resolve_class(target, depth + 1)
        return None

    def _class_from_expr(
        self, scope: _Scope, dotted: str
    ) -> tuple[_Scope, str] | None:
        """The project class a dotted expression names, if any."""
        head, _, rest = dotted.partition(".")
        if not rest:
            if head in scope.classes:
                return scope, head
            if head in scope.aliases:
                return self.resolve_class(scope.aliases[head])
            return None
        if head in scope.aliases:
            base = scope.aliases[head]
            if base.startswith("!"):
                return None
            return self.resolve_class(f"{base}.{rest}" if base else rest)
        return None

    def _annotation_class(
        self, scope: _Scope, annotation: ast.expr | None
    ) -> tuple[_Scope, str] | None:
        """The single project class an annotation mentions, if exactly one.

        ``ExperimentRunner | None`` types a receiver; an ambiguous
        ``Runner | Journal`` does not — guessing wrong would fabricate
        call edges.
        """
        if annotation is None:
            return None
        found: list[tuple[_Scope, str]] = []
        for node in ast.walk(annotation):
            dotted: str | None = None
            if isinstance(node, ast.Name):
                dotted = node.id
            elif isinstance(node, ast.Attribute):
                dotted = _dotted_expr(node)
            if dotted is None:
                continue
            resolved = self._class_from_expr(scope, dotted)
            if resolved is not None and resolved not in found:
                found.append(resolved)
        return found[0] if len(found) == 1 else None

    def _module_var_types(self, scope: _Scope) -> dict[str, tuple[_Scope, str]]:
        """Module-level names with a class-typed annotation or value."""
        cached = self._var_type_cache.get(scope.module)
        if cached is not None:
            return cached
        types: dict[str, tuple[_Scope, str]] = {}
        for stmt in scope.ctx.tree.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                resolved = self._annotation_class(scope, stmt.annotation)
                if resolved is not None:
                    types[stmt.target.id] = resolved
            elif isinstance(stmt, ast.Assign) and isinstance(
                stmt.value, ast.Call
            ):
                dotted = _dotted_expr(stmt.value.func)
                if dotted is None:
                    continue
                resolved = self._class_from_expr(scope, dotted)
                if resolved is None:
                    continue
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        types[target.id] = resolved
        self._var_type_cache[scope.module] = types
        return types

    # -- pass 2: call edges ---------------------------------------------- #

    def link(self) -> None:
        for scope in self.scopes.values():
            prefix = f"{scope.module}." if scope.module else ""
            for stmt in scope.ctx.tree.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    self._link_function(
                        scope, prefix + stmt.name, stmt, class_name=None
                    )
                elif isinstance(stmt, ast.ClassDef):
                    for item in stmt.body:
                        if isinstance(
                            item, (ast.FunctionDef, ast.AsyncFunctionDef)
                        ):
                            self._link_function(
                                scope,
                                f"{prefix}{stmt.name}.{item.name}",
                                item,
                                class_name=stmt.name,
                            )

    def _link_function(
        self,
        scope: _Scope,
        qualname: str,
        fn: ast.FunctionDef | ast.AsyncFunctionDef,
        class_name: str | None,
    ) -> None:
        locals_: dict[str, str] = {}
        for node in ast.walk(fn):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node is not fn:
                    nested = f"{qualname}.{node.name}"
                    locals_[node.name] = nested
                    self._add_node(nested, scope.ctx, node.lineno, "function")
        receivers = self._receiver_types(scope, fn)
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            callee = self._resolve_call(
                scope, node.func, class_name, locals_, receivers
            )
            if callee is None:
                continue
            self.graph.callsites[id(node)] = callee
            if callee != qualname:
                self.graph.edges.setdefault(qualname, set()).add(callee)

    def _receiver_types(
        self, scope: _Scope, fn: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> dict[str, tuple[_Scope, str]]:
        """Name -> project class for the receivers visible inside ``fn``.

        Three sources, later ones shadowing earlier: module-level
        class-typed variables, class-annotated parameters, and locals
        assigned from a project-class constructor (``engine =
        _Engine(...)``) or carrying a class annotation.
        """
        receivers = dict(self._module_var_types(scope))
        args = fn.args
        for arg in (
            *args.posonlyargs, *args.args, *args.kwonlyargs,
            *([args.vararg] if args.vararg else []),
            *([args.kwarg] if args.kwarg else []),
        ):
            resolved = self._annotation_class(scope, arg.annotation)
            if resolved is not None:
                receivers[arg.arg] = resolved
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign) and isinstance(
                node.value, ast.Call
            ):
                dotted = _dotted_expr(node.value.func)
                if dotted is None:
                    continue
                resolved = self._class_from_expr(scope, dotted)
                if resolved is None:
                    continue
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        receivers[target.id] = resolved
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                resolved = self._annotation_class(scope, node.annotation)
                if resolved is not None:
                    receivers[node.target.id] = resolved
        return receivers

    def _method_in_class(
        self, scope: _Scope, class_name: str, method: str, depth: int = 0
    ) -> str | None:
        """Resolve a method through the class and its project-local bases."""
        if depth > 8:
            return None
        methods = scope.classes.get(class_name)
        if methods and method in methods:
            return methods[method]
        for base in scope.bases.get(class_name, ()):
            head = base.split(".")[0]
            if head in scope.classes:
                found = self._method_in_class(scope, head, method, depth + 1)
                if found is not None:
                    return found
            elif head in scope.aliases:
                target = scope.aliases[head]
                if target.startswith("!"):
                    continue
                owner, _, cls = target.rpartition(".")
                base_scope = self.scopes.get(owner)
                if base_scope is not None:
                    found = self._method_in_class(
                        base_scope, cls, method, depth + 1
                    )
                    if found is not None:
                        return found
        return None

    def _resolve_call(
        self,
        scope: _Scope,
        func: ast.expr,
        class_name: str | None,
        locals_: Mapping[str, str],
        receivers: Mapping[str, tuple[_Scope, str]] = {},
    ) -> str | None:
        if isinstance(func, ast.Name):
            name = func.id
            if name in locals_:
                return locals_[name]
            if name in scope.top_defs:
                return scope.top_defs[name]
            if name in scope.classes:
                # Constructing a project class executes its __init__.
                prefix = f"{scope.module}." if scope.module else ""
                init = self._method_in_class(scope, name, "__init__")
                return init or f"{prefix}{name}"
            if name in scope.aliases:
                return self.resolve_target(scope.aliases[name])
            return None
        if isinstance(func, ast.Attribute):
            dotted = _dotted_expr(func)
            if dotted is None:
                # `_Engine(...).run()`: a method on a freshly constructed
                # project-class instance.
                if isinstance(func.value, ast.Call):
                    inner = _dotted_expr(func.value.func)
                    if inner is not None:
                        resolved = self._class_from_expr(scope, inner)
                        if resolved is not None:
                            return self._method_in_class(
                                resolved[0], resolved[1], func.attr
                            )
                return None
            head, _, rest = dotted.partition(".")
            if head in ("self", "cls") and class_name is not None:
                method = dotted.split(".")[-1]
                if "." not in rest:
                    return self._method_in_class(scope, class_name, method)
                return None
            if head in receivers and rest and "." not in rest:
                # `engine.run()` on a class-typed variable or parameter.
                recv_scope, recv_class = receivers[head]
                return self._method_in_class(recv_scope, recv_class, rest)
            if head in scope.aliases:
                base = scope.aliases[head]
                if base.startswith("!"):
                    self.graph.external.add(f"{base[1:]}.{rest}")
                    return f"{base[1:]}.{rest}"
                combined = f"{base}.{rest}" if base else rest
                return self.resolve_object(combined)
            if head in scope.classes:
                # ClassName.method(...) style call.
                parts = dotted.split(".")
                if len(parts) == 2:
                    return self._method_in_class(scope, head, parts[1])
            return None
        return None

    # -- pass 3: entry points -------------------------------------------- #

    def discover_entrypoints(self) -> None:
        for scope in self.scopes.values():
            if scope.ctx.rel.endswith("verify/differential.py"):
                self._discover_registry(scope)
            if scope.ctx.rel.endswith("experiments/runner.py"):
                self._discover_cell_drivers(scope)
            self._discover_workers(scope)

    def _discover_registry(self, scope: _Scope) -> None:
        for stmt in scope.ctx.tree.body:
            targets: list[ast.expr] = []
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            else:
                continue
            if not any(
                isinstance(t, ast.Name) and t.id == "REGISTRY"
                for t in targets
            ):
                continue
            if not isinstance(value, (ast.Tuple, ast.List)):
                continue
            for element in value.elts:
                self._register_algorithm(scope, element)

    def _register_algorithm(self, scope: _Scope, element: ast.expr) -> None:
        label: str | None = None
        candidates: list[ast.expr] = []
        if isinstance(element, ast.Call):
            for arg in element.args:
                if isinstance(arg, ast.Constant) and isinstance(
                    arg.value, str
                ):
                    if label is None:
                        label = arg.value
                else:
                    candidates.append(arg)
            candidates.extend(kw.value for kw in element.keywords)
        elif isinstance(element, (ast.Name, ast.Attribute)):
            candidates.append(element)
        for candidate in candidates:
            resolved = self._resolve_call(scope, candidate, None, {})
            if resolved is not None and resolved in self.graph.nodes:
                self.graph.entrypoints["algorithms"][
                    label or resolved
                ] = resolved

    def _discover_cell_drivers(self, scope: _Scope) -> None:
        methods = scope.classes.get("ExperimentRunner", {})
        for name, qualname in methods.items():
            if not name.startswith("_"):
                self.graph.entrypoints["cell_drivers"][name] = qualname

    def _discover_workers(self, scope: _Scope) -> None:
        for node in ast.walk(scope.ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            candidates: list[ast.expr] = []
            for keyword in node.keywords:
                if keyword.arg in ("initializer", "target"):
                    candidates.append(keyword.value)
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "submit"
                and node.args
            ):
                candidates.append(node.args[0])
            for candidate in candidates:
                if not isinstance(candidate, (ast.Name, ast.Attribute)):
                    continue
                resolved = self._resolve_call(scope, candidate, None, {})
                if resolved is not None and resolved in self.graph.nodes:
                    name = resolved.rpartition(".")[2] or resolved
                    self.graph.entrypoints["workers"][name] = resolved


def build_callgraph(
    modules: Sequence[ModuleContext], package: str
) -> CallGraph:
    """Construct the call graph for one parsed tree.

    ``package`` is the importable name the scan root corresponds to
    (``repro`` when scanning ``src/repro``) so absolute intra-package
    imports are recognized.
    """
    builder = _Builder(modules, package)
    builder.collect()
    builder.link()
    builder.discover_entrypoints()
    return builder.graph


#: Qualified names that implement the cooperative-cancellation
#: checkpoint, in-package and external spellings both (the latter
#: appear when the scanned tree imports ``repro.runtime`` from outside,
#: e.g. the lint fixture package).
CHECKPOINT_QUALNAMES: frozenset[str] = frozenset(
    {
        "runtime.checkpoint",
        "runtime.deadline.checkpoint",
        "repro.runtime.checkpoint",
        "repro.runtime.deadline.checkpoint",
    }
)


def checkpoint_nodes(graph: CallGraph) -> frozenset[str]:
    """The graph's nodes/externals implementing ``checkpoint``."""
    present = set()
    for name in CHECKPOINT_QUALNAMES:
        if name in graph.nodes or name in graph.external:
            present.add(name)
    return frozenset(present)


def checkpoint_reaching(graph: CallGraph) -> frozenset[str]:
    """Every node from which a ``checkpoint`` implementation is reachable."""
    targets = checkpoint_nodes(graph)
    if not targets:
        return frozenset()
    # Reverse-BFS from the checkpoint nodes.
    callers: dict[str, set[str]] = {}
    for caller, callees in graph.edges.items():
        for callee in callees:
            callers.setdefault(callee, set()).add(caller)
    seen: set[str] = set(targets)
    frontier = list(targets)
    while frontier:
        current = frontier.pop()
        for caller in callers.get(current, ()):
            if caller not in seen:
                seen.add(caller)
                frontier.append(caller)
    return frozenset(seen)
