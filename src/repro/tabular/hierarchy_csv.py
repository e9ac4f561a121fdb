"""ARX-style generalization-hierarchy CSV import/export.

The de-facto interchange format for generalization hierarchies (used by
the ARX anonymization tool, which ships the standard Adult hierarchies)
is a delimited file with one row per domain value:

    value;level-1 label;level-2 label;...;level-n label

Values sharing a label within a level column form one permissible
subset.  This module reads that format into an
:class:`~repro.tabular.hierarchy.SubsetCollection` (so users can drop in
hierarchies they already maintain for other tools) and writes laminar
collections back out, both through :mod:`repro.obs.durable`.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path

from repro.errors import SchemaError
from repro.obs.durable import read_text, replace_text
from repro.tabular.attribute import Attribute
from repro.tabular.hierarchy import SubsetCollection


def read_hierarchy_csv(
    name: str, path: str | Path, delimiter: str = ";"
) -> SubsetCollection:
    """Read an ARX-style hierarchy file into a collection.

    Parameters
    ----------
    name:
        Attribute name for the resulting domain.
    path:
        The hierarchy file; one row per value, levels left to right.
    delimiter:
        Column separator (ARX uses ``;``).

    Raises
    ------
    SchemaError
        On an empty file, duplicate values, or ragged rows.
    ReproError
        If the file cannot be read or is not UTF-8.
    """
    rows: list[list[str]] = []
    text = io.StringIO(read_text(path), newline="")
    for line in csv.reader(text, delimiter=delimiter):
        if line and any(cell.strip() for cell in line):
            rows.append([cell.strip() for cell in line])
    if not rows:
        raise SchemaError(f"hierarchy file {path} is empty")
    width = len(rows[0])
    if width < 1:
        raise SchemaError(f"hierarchy file {path} has no columns")
    for row in rows:
        if len(row) != width:
            raise SchemaError(
                f"hierarchy file {path} is ragged: row {row} has "
                f"{len(row)} columns, expected {width}"
            )

    values = [row[0] for row in rows]
    attribute = Attribute(name, values)

    subsets: list[list[str]] = []
    for level in range(1, width):
        groups: dict[str, list[str]] = {}
        for row in rows:
            groups.setdefault(row[level], []).append(row[0])
        subsets.extend(groups.values())
    return SubsetCollection(attribute, subsets)


def write_hierarchy_csv(
    collection: SubsetCollection, path: str | Path, delimiter: str = ";"
) -> None:
    """Write a laminar collection as an ARX-style hierarchy file.

    Levels are emitted by node depth: column ℓ holds, for every value,
    the label of its ancestor ℓ levels above the singleton (clamped at
    the root), which round-trips through :func:`read_hierarchy_csv` to
    an equivalent collection.

    Raises
    ------
    SchemaError
        If the collection is not laminar (the format cannot express
        overlapping subsets).
    """
    if not collection.is_laminar:
        raise SchemaError(
            "ARX hierarchy files cannot express non-laminar collections"
        )
    att = collection.attribute
    height = collection.height()
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer, delimiter=delimiter)
    for v, value in enumerate(att.values):
        node = collection.singleton_node(v)
        row = [value]
        for _ in range(height):
            node = collection.parent(node)
            row.append(collection.node_label(node))
        writer.writerow(row)
    replace_text(path, buffer.getvalue())
