"""Schemas, tables and generalized tables.

A :class:`Schema` bundles the public attributes with their permissible
generalization collections, plus optional *private* attributes (the
``Z_j`` of Section III — carried through anonymization untouched, and used
by the privacy/extension modules).

A :class:`Table` is the paper's public database ``D``; a
:class:`GeneralizedTable` is a generalization ``g(D)`` under local
recoding: the i-th generalized record corresponds to (and in every table
this library produces, generalizes) the i-th original record.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from repro.errors import AnonymityError, SchemaError
from repro.tabular.attribute import Attribute
from repro.tabular.hierarchy import SubsetCollection, suppression_only
from repro.tabular.record import GeneralizedRecord


class Schema:
    """Public attributes + their generalization collections (+ private attrs).

    Parameters
    ----------
    collections:
        One :class:`SubsetCollection` per public attribute, in column order.
    private_attributes:
        Names of private (sensitive) columns carried alongside the public
        ones.  They are never generalized; they exist for the adversary
        model, the ℓ-diversity extension and the CM measure.
    """

    __slots__ = ("_collections", "_private", "_name_to_index")

    def __init__(
        self,
        collections: Sequence[SubsetCollection],
        private_attributes: Sequence[str] = (),
    ) -> None:
        if not collections:
            raise SchemaError("a schema needs at least one public attribute")
        names = [c.attribute.name for c in collections]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate attribute names in schema: {names}")
        private = tuple(private_attributes)
        if set(private) & set(names):
            raise SchemaError("private attribute names collide with public ones")
        if len(set(private)) != len(private):
            raise SchemaError(f"duplicate private attribute names: {private}")
        self._collections = tuple(collections)
        self._private = private
        self._name_to_index = {name: i for i, name in enumerate(names)}

    @classmethod
    def of_attributes(
        cls,
        attributes: Sequence[Attribute],
        private_attributes: Sequence[str] = (),
    ) -> "Schema":
        """Schema with suppression-only collections for every attribute."""
        return cls([suppression_only(a) for a in attributes], private_attributes)

    @property
    def collections(self) -> tuple[SubsetCollection, ...]:
        """Per-attribute generalization collections, in column order."""
        return self._collections

    @property
    def attributes(self) -> tuple[Attribute, ...]:
        """The public attributes, in column order."""
        return tuple(c.attribute for c in self._collections)

    @property
    def attribute_names(self) -> tuple[str, ...]:
        """Names of the public attributes."""
        return tuple(c.attribute.name for c in self._collections)

    @property
    def private_attributes(self) -> tuple[str, ...]:
        """Names of the private (sensitive) attributes."""
        return self._private

    @property
    def num_attributes(self) -> int:
        """Number of public attributes ``r``."""
        return len(self._collections)

    def attribute_index(self, name: str) -> int:
        """Column index of the public attribute called ``name``."""
        try:
            return self._name_to_index[name]
        except KeyError:
            raise SchemaError(f"no public attribute named {name!r}") from None

    def validate_row(self, row: Sequence[str]) -> tuple[str, ...]:
        """Check a public row against the domains; return it as a tuple."""
        if len(row) != self.num_attributes:
            raise SchemaError(
                f"row has {len(row)} values, schema has {self.num_attributes} "
                "public attributes"
            )
        out = []
        for value, coll in zip(row, self._collections):
            value = str(value)
            if value not in coll.attribute:
                raise SchemaError(
                    f"value {value!r} is not in the domain of attribute "
                    f"{coll.attribute.name!r}"
                )
            out.append(value)
        return tuple(out)

    def __repr__(self) -> str:
        pub = ", ".join(self.attribute_names)
        priv = (", private: " + ", ".join(self._private)) if self._private else ""
        return f"Schema({pub}{priv})"


class Table:
    """The public database ``D = {R_1, ..., R_n}`` (eq. 1), with optional
    private columns ``D'`` (eq. 2) riding along.

    Rows are tuples of value strings.  The table is immutable after
    construction.
    """

    __slots__ = ("_schema", "_rows", "_private_rows")

    def __init__(
        self,
        schema: Schema,
        rows: Iterable[Sequence[str]],
        private_rows: Iterable[Sequence[str]] | None = None,
    ) -> None:
        self._schema = schema
        self._rows: tuple[tuple[str, ...], ...] = tuple(
            schema.validate_row(row) for row in rows
        )
        if schema.private_attributes:
            if private_rows is None:
                raise SchemaError(
                    "schema declares private attributes but no private rows given"
                )
            priv = tuple(tuple(str(v) for v in row) for row in private_rows)
            if len(priv) != len(self._rows):
                raise SchemaError(
                    f"{len(self._rows)} public rows but {len(priv)} private rows"
                )
            width = len(schema.private_attributes)
            for row in priv:
                if len(row) != width:
                    raise SchemaError(
                        f"private row has {len(row)} values, expected {width}"
                    )
            self._private_rows = priv
        else:
            if private_rows is not None and tuple(private_rows):
                raise SchemaError(
                    "private rows given but the schema declares no private attributes"
                )
            self._private_rows = ()

    @property
    def schema(self) -> Schema:
        """The table's schema."""
        return self._schema

    @property
    def rows(self) -> tuple[tuple[str, ...], ...]:
        """All public rows."""
        return self._rows

    @property
    def private_rows(self) -> tuple[tuple[str, ...], ...]:
        """All private rows (empty when the schema has no private attrs)."""
        return self._private_rows

    @property
    def num_records(self) -> int:
        """Number of records ``n``."""
        return len(self._rows)

    def row(self, i: int) -> tuple[str, ...]:
        """The i-th public record."""
        return self._rows[i]

    def private_row(self, i: int) -> tuple[str, ...]:
        """The i-th private record."""
        return self._private_rows[i]

    def column(self, name: str) -> tuple[str, ...]:
        """All values of one public column."""
        j = self._schema.attribute_index(name)
        return tuple(row[j] for row in self._rows)

    def private_column(self, name: str | None = None) -> tuple[str, ...]:
        """All values of one private column (default: the first); a
        missing column is a :class:`~repro.errors.SchemaError`."""
        private = self._schema.private_attributes
        if not private:
            raise SchemaError("the schema declares no private attribute")
        name = name or private[0]
        if name not in private:
            raise SchemaError(
                f"no private attribute named {name!r} (have {private})"
            )
        j = private.index(name)
        return tuple(row[j] for row in self._private_rows)

    def subset(self, indices: Sequence[int]) -> "Table":
        """A new table holding the selected records (in the given order).

        This table's rows are already validated, so the subset takes
        them as they are rather than through :meth:`Schema.validate_row`.
        """
        sub = Table.__new__(Table)
        sub._schema = self._schema
        sub._rows = tuple(self._rows[i] for i in indices)
        sub._private_rows = (
            tuple(self._private_rows[i] for i in indices)
            if self._private_rows
            else ()
        )
        return sub

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[tuple[str, ...]]:
        return iter(self._rows)

    def __repr__(self) -> str:
        return (
            f"Table({self.num_records} records × "
            f"{self._schema.num_attributes} public attributes)"
        )


class GeneralizedTable:
    """A generalization ``g(D) = {R̄_1, ..., R̄_n}`` of a table.

    The i-th generalized record is the local recoding of the i-th original
    record; :meth:`check_generalizes` verifies that correspondence, which
    Algorithms 5 and 6 rely on.
    """

    __slots__ = ("_schema", "_records")

    def __init__(self, schema: Schema, records: Sequence[GeneralizedRecord]) -> None:
        for rec in records:
            if rec.schema is not schema:
                raise SchemaError(
                    "generalized record built against a different schema"
                )
        self._schema = schema
        self._records = tuple(records)

    @property
    def schema(self) -> Schema:
        """The schema the records refer to."""
        return self._schema

    @property
    def records(self) -> tuple[GeneralizedRecord, ...]:
        """All generalized records."""
        return self._records

    @property
    def num_records(self) -> int:
        """Number of generalized records."""
        return len(self._records)

    def record(self, i: int) -> GeneralizedRecord:
        """The i-th generalized record."""
        return self._records[i]

    def check_generalizes(self, table: Table) -> None:
        """Raise unless record i generalizes row i for every i.

        Raises
        ------
        AnonymityError
            On length mismatch or any non-generalizing position.
        """
        if table.schema is not self._schema:
            raise AnonymityError("table and generalization use different schemas")
        if table.num_records != self.num_records:
            raise AnonymityError(
                f"table has {table.num_records} records, generalization has "
                f"{self.num_records}"
            )
        for i, (row, rec) in enumerate(zip(table.rows, self._records)):
            if not rec.generalizes(row):
                raise AnonymityError(
                    f"generalized record {i} does not generalize original record {i}"
                )

    def labels(self) -> list[tuple[str, ...]]:
        """Human-readable rows (one label per attribute per record)."""
        return [rec.labels() for rec in self._records]

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[GeneralizedRecord]:
        return iter(self._records)

    def __repr__(self) -> str:
        return (
            f"GeneralizedTable({self.num_records} records × "
            f"{self._schema.num_attributes} attributes)"
        )
