#!/usr/bin/env python3
"""Generate docs/api.md from the public API's signatures and docstrings.

Walks the packages' ``__all__`` exports, renders each public class and
function with its signature and first docstring paragraph, and writes a
single markdown reference.  Re-run after changing the public API:

    python tools/gen_api_docs.py
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import typing
from pathlib import Path

#: Descriptors documented as properties (a cached one reads like one).
_PROPERTIES = (property, functools.cached_property)

PACKAGES = [
    ("repro", "Top-level API"),
    ("repro.tabular", "Tabular substrate"),
    ("repro.measures", "Information-loss measures"),
    ("repro.core", "Core algorithms and notions"),
    ("repro.matching", "Matching substrate"),
    ("repro.datasets", "Datasets"),
    ("repro.privacy", "Privacy: adversaries, audits, bundles"),
    ("repro.extensions", "Extensions (§VII)"),
    ("repro.utility", "Workload utility"),
    ("repro.obs", "Observability: tracing, metrics, profiling"),
    ("repro.analysis", "Static analysis: lint, dataflow, call graph"),
    ("repro.runtime", "Execution resilience runtime"),
    ("repro.experiments", "Experiment harness"),
    ("repro.serve", "Anonymization service"),
    ("repro.verify", "Verification & fuzzing harness"),
    ("repro.perf", "Parallel execution"),
]


def _first_paragraph(doc: str | None) -> str:
    if not doc:
        return "*(undocumented)*"
    paragraph = doc.strip().split("\n\n")[0]
    return " ".join(line.strip() for line in paragraph.splitlines())


def _signature(obj) -> str:
    try:
        return str(inspect.signature(obj))
    except (TypeError, ValueError):
        return "(...)"


def _render_entry(name: str, obj) -> list[str]:
    lines = []
    if typing.get_origin(obj) is not None:
        # Typing aliases (e.g. ``Clock = Callable[[], float]``) are
        # callable but carry the generic machinery's docstring, not ours.
        lines.append(f"#### `{name}` — type alias")
        lines.append("")
        lines.append(f"`{obj!r}`")
        lines.append("")
    elif inspect.isclass(obj):
        lines.append(f"#### class `{name}`")
        lines.append("")
        lines.append(_first_paragraph(inspect.getdoc(obj)))
        lines.append("")
        methods = [
            (m_name, member)
            for m_name, member in inspect.getmembers(obj)
            if not m_name.startswith("_")
            and (inspect.isfunction(member) or isinstance(member, _PROPERTIES))
            and m_name in vars(obj)
        ]
        for m_name, member in methods:
            if isinstance(member, _PROPERTIES):
                lines.append(
                    f"- `.{m_name}` *(property)* — "
                    f"{_first_paragraph(inspect.getdoc(member))}"
                )
            else:
                lines.append(
                    f"- `.{m_name}{_signature(member)}` — "
                    f"{_first_paragraph(inspect.getdoc(member))}"
                )
        if methods:
            lines.append("")
    elif callable(obj):
        lines.append(f"#### `{name}{_signature(obj)}`")
        lines.append("")
        lines.append(_first_paragraph(inspect.getdoc(obj)))
        lines.append("")
    else:
        lines.append(f"#### `{name}` — constant")
        lines.append("")
        if isinstance(obj, (set, frozenset)):
            # Set iteration order varies per process (hash randomization);
            # sort so the generated file is byte-stable.
            rendered = "{" + ", ".join(repr(item) for item in sorted(obj)) + "}"
        else:
            rendered = repr(obj)
        lines.append(f"`{rendered}`")
        lines.append("")
    return lines


def _option_label(action: argparse.Action) -> str:
    """``--flag METAVAR`` (or the positional's metavar) for one action."""
    if not action.option_strings:
        return str(action.metavar or action.dest)
    label = ", ".join(action.option_strings)
    if action.nargs != 0 and not isinstance(
        action, (argparse._StoreTrueAction, argparse._StoreFalseAction)
    ):
        label += f" {action.metavar or action.dest.upper()}"
    return label


def _render_cli() -> list[str]:
    """The ``repro-anon`` subcommands and their flags, from the parser."""
    from repro.cli import _build_parser

    parser = _build_parser()
    sub_action = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    helps = {c.dest: c.help or "" for c in sub_action._choices_actions}
    out = [
        "## Command line (`repro-anon`)",
        "",
        "Flags below are generated from the argument parser; "
        "`repro-anon <command> --help` shows full defaults and choices.",
        "",
    ]
    for name, sub in sub_action.choices.items():
        out.append(f"### `repro-anon {name}`")
        out.append("")
        if helps.get(name):
            out.append(f"{helps[name].capitalize()}.")
            out.append("")
        for action in sub._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            help_text = (action.help or "").strip()
            suffix = f" — {help_text}" if help_text else ""
            out.append(f"- `{_option_label(action)}`{suffix}")
        out.append("")
    return out


def generate() -> str:
    out: list[str] = [
        "# API reference",
        "",
        "*Generated by `tools/gen_api_docs.py` — do not edit by hand.*",
        "",
    ]
    for module_name, title in PACKAGES:
        module = importlib.import_module(module_name)
        exported = getattr(module, "__all__", [])
        out.append(f"## {title} (`{module_name}`)")
        out.append("")
        out.append(_first_paragraph(inspect.getdoc(module)))
        out.append("")
        for name in exported:
            obj = getattr(module, name)
            # Skip re-exports already documented under their home package.
            home = getattr(obj, "__module__", module_name) or module_name
            if module_name == "repro" and not home.startswith("repro."):
                continue
            if module_name == "repro" and any(
                home.startswith(pkg + ".") or home == pkg
                for pkg, _ in PACKAGES[1:]
            ):
                continue
            out.extend(_render_entry(name, obj))
    out.extend(_render_cli())
    return "\n".join(out) + "\n"


def main() -> None:
    target = Path(__file__).resolve().parent.parent / "docs" / "api.md"
    target.write_text(generate())
    print(f"wrote {target} ({len(generate().splitlines())} lines)")


if __name__ == "__main__":
    main()
