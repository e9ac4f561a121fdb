"""CSV and JSON round-tripping for tables, generalizations and schemas.

The CSV format for generalized tables renders each cell with the node
labels of :meth:`SubsetCollection.node_label` (``value``, ``lo-hi``,
``{a|b}`` or ``*``); :func:`read_generalized_csv` parses those labels
back, so an anonymized release written by the CLI can be re-audited
later.  Schemas serialize to JSON (attribute domains, permissible
subsets, private attribute names) so a release is self-describing.
Every file is read and written through :mod:`repro.obs.durable`: an
unreadable file is a ``ReproError`` (``cannot read …``), and a write
replaces its target atomically, so a crash never leaves a truncated
release.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path
from typing import Sequence

from repro.errors import SchemaError
from repro.obs.durable import read_json, read_text, replace_text
from repro.tabular.attribute import Attribute
from repro.tabular.hierarchy import SubsetCollection
from repro.tabular.record import GeneralizedRecord
from repro.tabular.table import GeneralizedTable, Schema, Table


# ---------------------------------------------------------------------- #
# schema <-> JSON
# ---------------------------------------------------------------------- #


def schema_to_dict(schema: Schema) -> dict:
    """A JSON-serializable description of a schema."""
    attributes = []
    for coll in schema.collections:
        att = coll.attribute
        # Singletons and the full set are implicit; only store the rest.
        extra = []
        for node in range(coll.num_nodes):
            size = coll.node_size(node)
            if size == 1 or size == att.size:
                continue
            extra.append(sorted(coll.node_values(node)))
        attributes.append(
            {"name": att.name, "values": list(att.values), "subsets": extra}
        )
    return {
        "attributes": attributes,
        "private_attributes": list(schema.private_attributes),
    }


def schema_from_dict(data: dict) -> Schema:
    """Rebuild a schema from :func:`schema_to_dict` output."""
    try:
        attr_specs = data["attributes"]
    except (KeyError, TypeError) as exc:
        raise SchemaError("schema JSON is missing the 'attributes' key") from exc
    collections = []
    for spec in attr_specs:
        att = Attribute(spec["name"], spec["values"])
        collections.append(SubsetCollection(att, spec.get("subsets", ())))
    return Schema(collections, data.get("private_attributes", ()))


def write_schema_json(schema: Schema, path: str | Path) -> None:
    """Write a schema to a JSON file (atomically)."""
    replace_text(path, json.dumps(schema_to_dict(schema), indent=2))


def read_schema_json(path: str | Path) -> Schema:
    """Read a schema from a JSON file (``ReproError`` if unreadable)."""
    return schema_from_dict(read_json(path))


# ---------------------------------------------------------------------- #
# plain tables <-> CSV
# ---------------------------------------------------------------------- #


def write_table_csv(table: Table, path: str | Path) -> None:
    """Write a table (public + private columns) to CSV with a header row."""
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    schema = table.schema
    writer.writerow(list(schema.attribute_names) + list(schema.private_attributes))
    for i, row in enumerate(table.rows):
        priv = table.private_rows[i] if table.private_rows else ()
        writer.writerow(list(row) + list(priv))
    replace_text(path, buffer.getvalue())


def read_table_csv(schema: Schema, path: str | Path) -> Table:
    """Read a table written by :func:`write_table_csv`.

    The header must list the schema's public attributes (in order) followed
    by its private attributes.
    """
    reader = csv.reader(io.StringIO(read_text(path), newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaError(f"CSV file {path} is empty") from None
    expected = list(schema.attribute_names) + list(schema.private_attributes)
    if header != expected:
        raise SchemaError(
            f"CSV header {header} does not match schema columns {expected}"
        )
    r = schema.num_attributes
    rows, private_rows = [], []
    for line in reader:
        rows.append(line[:r])
        private_rows.append(line[r:])
    priv = private_rows if schema.private_attributes else None
    return Table(schema, rows, priv)


# ---------------------------------------------------------------------- #
# generalized tables <-> CSV
# ---------------------------------------------------------------------- #


def write_generalized_csv(
    gtable: GeneralizedTable,
    path: str | Path,
    private_rows: Sequence[Sequence[str]] | None = None,
) -> None:
    """Write an anonymized release to CSV.

    Cells use the compact node labels; private columns (if given) are
    appended verbatim, which is how the paper's scenario publishes the
    sensitive attributes alongside generalized quasi-identifiers.
    """
    schema = gtable.schema
    if private_rows is not None and len(private_rows) != gtable.num_records:
        raise SchemaError(
            f"{gtable.num_records} generalized records but "
            f"{len(private_rows)} private rows"
        )
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(
        list(schema.attribute_names)
        + (list(schema.private_attributes) if private_rows is not None else [])
    )
    for i, rec in enumerate(gtable.records):
        row = list(rec.labels())
        if private_rows is not None:
            row += list(private_rows[i])
        writer.writerow(row)
    replace_text(path, buffer.getvalue())


def _parse_cell(coll: SubsetCollection, cell: str) -> int:
    """Parse a node label back to its node index."""
    att = coll.attribute
    if cell == "*":
        return coll.full_node
    if cell in att:
        return coll.singleton_node(att.index_of(cell))
    if cell.startswith("{") and cell.endswith("}"):
        values = cell[1:-1].split("|")
        return coll.node_of_values(values)
    if "-" in cell:
        lo_s, _, hi_s = cell.partition("-")
        try:
            lo, hi = int(lo_s), int(hi_s)
        except ValueError:
            raise SchemaError(
                f"cannot parse generalized cell {cell!r} for attribute {att.name!r}"
            ) from None
        values = [str(v) for v in range(lo, hi + 1) if str(v) in att]
        return coll.node_of_values(values)
    raise SchemaError(
        f"cannot parse generalized cell {cell!r} for attribute {att.name!r}"
    )


def read_generalized_csv(schema: Schema, path: str | Path) -> GeneralizedTable:
    """Read an anonymized release written by :func:`write_generalized_csv`.

    Private columns, if present in the file, are ignored here — use
    :func:`read_table_csv` semantics for them if needed.
    """
    reader = csv.reader(io.StringIO(read_text(path), newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaError(f"CSV file {path} is empty") from None
    names = list(schema.attribute_names)
    if header[: len(names)] != names:
        raise SchemaError(
            f"CSV header {header} does not start with schema columns {names}"
        )
    records = []
    for line in reader:
        nodes = [
            _parse_cell(coll, cell)
            for coll, cell in zip(schema.collections, line)
        ]
        records.append(GeneralizedRecord(schema, nodes))
    return GeneralizedTable(schema, records)
