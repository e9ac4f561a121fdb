"""Import-layering checker: the architecture DAG, machine-enforced.

The codebase layers strictly::

    errors                                           (0)
    obs                                              (1)
    report · structures · tabular · analysis · runtime   (2)
    matching · measures · obs.summarize              (3)
    core                                             (4)
    datasets · extensions · privacy · utility · verify · runtime.fallback  (5)
    experiments · serve                              (6)
    perf                                             (7)
    cli                                              (8)
    __main__                                         (9)

A module may import only from *strictly lower* layers (or from its own
subpackage).  Same-layer cross-package imports are back-edges too:
allowing ``matching -> measures`` today is how the
``matching <-> measures`` cycle appears tomorrow, and cycles are
exactly what blocks splitting a layer out (a new consumer must be able
to depend on ``core`` without dragging the CLI along).  The package facade (``__init__`` at the scan root) is exempt:
re-exporting from every layer is its job.

Layer keys may be *dotted*: a map entry ``"runtime.fallback": 4``
carves one submodule out of its parent package and gives it its own
layer — the checker resolves every module and import target to its
longest dotted prefix in the map.  That is how ``repro.runtime`` can
sit *below* the algorithms (so hot loops may call
:func:`repro.runtime.checkpoint`) while ``repro.runtime.fallback`` —
which orchestrates those same algorithms into degradation chains —
sits *above* them.  ``obs`` plays the same trick twice: the collection
machinery (tracer, metrics) sits *below everything but errors* so the
runtime checkpoint and any hot loop may feed it, while
``obs.summarize`` — which renders through ``repro.report`` — is carved
out above the report layer.

Violations surface as ``LAY001`` (back-edge) and ``LAY002`` (module or
import target missing from the layer map — the map must be extended
deliberately when a subpackage is added).
"""

from __future__ import annotations

from typing import Iterator, Mapping, Sequence

from repro.analysis.findings import Finding
from repro.analysis.rules import ModuleContext, in_package

#: Subpackage/top-level-module name -> layer index.  Lower imports into
#: higher only.
DEFAULT_LAYERS: Mapping[str, int] = {
    "errors": 0,
    "obs": 1,  # tracing/metrics collection, fed by every layer above
    "report": 2,
    "structures": 2,
    "tabular": 2,
    "analysis": 2,
    "runtime": 2,  # execution primitives, importable from the hot loops
    "matching": 3,
    "measures": 3,
    "obs.summarize": 3,  # renders via repro.report, so sits above it
    "core": 4,
    "datasets": 5,
    "extensions": 5,
    "privacy": 5,
    "utility": 5,
    "verify": 5,
    "runtime.fallback": 5,  # degradation chains orchestrate core algorithms
    "experiments": 6,
    "serve": 6,  # the server orchestrates fallback chains over datasets
    "perf": 7,  # benchmarks/parallel execution drive the experiment runner
    "cli": 8,
    "__main__": 9,  # the entry shim sits above the CLI it wraps
}

#: Scan-root modules outside the layer discipline.
_EXEMPT_SEGMENTS = frozenset({"__init__"})

#: The package facade (``from repro import x``) re-exports the highest
#: layers, so it sits above everything and importing it internally is a
#: back-edge.
_FACADE_LAYER = max(DEFAULT_LAYERS.values()) + 1


def resolve_layer(dotted: str) -> tuple[str, int] | None:
    """Longest dotted prefix of ``dotted`` present in the layer map.

    The same resolution :class:`LayerChecker` applies to imports, as a
    standalone helper so the call-graph exporter can annotate nodes
    (``runtime.fallback.FallbackChain.run`` -> ``("runtime.fallback", 5)``).
    Returns ``None`` when no prefix is mapped.
    """
    parts = dotted.split(".")
    while parts:
        key = ".".join(parts)
        if key in DEFAULT_LAYERS:
            return key, DEFAULT_LAYERS[key]
        parts.pop()
    return None


class LayerChecker:
    """Check every intra-package import in a parsed tree against the DAG.

    ``package`` is the importable package name the scan root
    corresponds to (``repro`` when scanning ``src/repro``), needed to
    recognize absolute intra-package imports.
    """

    def __init__(self, package: str) -> None:
        self.package = package

    def check(self, modules: Sequence[ModuleContext]) -> Iterator[Finding]:
        """Yield LAY001/LAY002 findings over all modules."""
        for ctx in modules:
            segment = ctx.segment
            if segment in _EXEMPT_SEGMENTS:
                continue
            resolved = resolve_layer(ctx.module)
            if resolved is None:
                yield Finding(
                    ctx.rel, 1, 0, "LAY002",
                    f"module segment '{segment}' is not in the layer map; "
                    "assign it a layer in repro.analysis.layers",
                )
                continue
            yield from self._check_module(ctx, *resolved)

    # ----------------------------------------------------------------- #

    def _check_module(
        self, ctx: ModuleContext, source_key: str, source_layer: int
    ) -> Iterator[Finding]:
        for imported in ctx.imports:
            target = in_package(imported.module, self.package)
            yield from self._judge(
                ctx, imported.line, source_key, source_layer, target
            )
            if not target:  # external, or the facade: judged above
                continue
            # `from repro.runtime import fallback` names a carved-out
            # submodule; judge the deeper dotted key too.
            for _local, name in imported.bindings:
                deeper = in_package(name, self.package)
                if deeper != target and deeper in DEFAULT_LAYERS:
                    yield from self._judge(
                        ctx, imported.line, source_key, source_layer, deeper
                    )

    def _judge(
        self,
        ctx: ModuleContext,
        line: int,
        source_key: str,
        source_layer: int,
        target: str | None,
    ) -> Iterator[Finding]:
        """Judge one import of ``target`` (in-package, ``""`` = facade)."""
        if target is None:
            return
        if target == "":
            target_key, target_layer = "", _FACADE_LAYER
            target_label = f"the {self.package} package facade"
        else:
            resolved = resolve_layer(target)
            if resolved is None:
                yield Finding(
                    ctx.rel, line, 0, "LAY002",
                    f"import of '{target.split('.')[0]}', which is not in "
                    "the layer map; assign it a layer in "
                    "repro.analysis.layers",
                )
                return
            target_key, target_layer = resolved
            target_label = f"'{target_key}' (layer {target_layer})"
        if target_key == source_key:
            return  # same layer unit: intra-subpackage imports are free
        if target_layer >= source_layer:
            yield Finding(
                ctx.rel, line, 0, "LAY001",
                f"layer back-edge: '{source_key}' (layer {source_layer}) "
                f"imports {target_label}; modules may import strictly "
                "lower layers only",
            )


#: Documentation strings for the layering diagnostics.
LAYER_RULE_DOCS: Mapping[str, str] = {
    "LAY001": "import-layering back-edge",
    "LAY002": "module missing from the layer map",
}
