"""Unit tests for records, generalized records, schemas and tables."""

import pytest

from repro.errors import AnonymityError, SchemaError
from repro.tabular.attribute import Attribute
from repro.tabular.hierarchy import SubsetCollection
from repro.tabular.record import GeneralizedRecord, record_as_generalized
from repro.tabular.table import GeneralizedTable, Schema, Table


@pytest.fixture
def schema():
    a = Attribute("a", ["1", "2", "3", "4"])
    b = Attribute("b", ["x", "y"])
    return Schema(
        [SubsetCollection(a, [["1", "2"], ["3", "4"]]), SubsetCollection(b)]
    )


class TestGeneralizedRecord:
    def test_nodes_and_values(self, schema):
        coll = schema.collections[0]
        rec = GeneralizedRecord(
            schema, [coll.node_of_values(["1", "2"]), 0]
        )
        assert rec.values(0) == frozenset(["1", "2"])
        assert rec.values(1) == frozenset(["x"])

    def test_generalizes_plain_record(self, schema):
        coll = schema.collections[0]
        rec = GeneralizedRecord(schema, [coll.node_of_values(["1", "2"]), 0])
        assert rec.generalizes(("1", "x"))
        assert rec.generalizes(("2", "x"))
        assert not rec.generalizes(("3", "x"))
        assert not rec.generalizes(("1", "y"))

    def test_generalizes_wrong_arity(self, schema):
        rec = record_as_generalized(schema, ("1", "x"))
        with pytest.raises(SchemaError):
            rec.generalizes(("1",))

    def test_generalizes_record_partial_order(self, schema):
        singleton = record_as_generalized(schema, ("1", "x"))
        coll = schema.collections[0]
        wider = GeneralizedRecord(schema, [coll.node_of_values(["1", "2"]), 0])
        assert wider.generalizes_record(singleton)
        assert not singleton.generalizes_record(wider)
        assert singleton.generalizes_record(singleton)

    def test_join_rejects_foreign_schema(self, schema):
        other = Schema(
            [SubsetCollection(Attribute("a", ["1", "2", "3", "4"])),
             SubsetCollection(Attribute("b", ["x", "y"]))]
        )
        r1 = record_as_generalized(schema, ("1", "x"))
        r2 = record_as_generalized(other, ("1", "x"))
        with pytest.raises(SchemaError, match="different schemas"):
            r1.join(r2)

    def test_join_operator(self, schema):
        r1 = record_as_generalized(schema, ("1", "x"))
        r2 = record_as_generalized(schema, ("2", "x"))
        joined = r1.join(r2)
        assert joined.values(0) == frozenset(["1", "2"])
        assert joined.values(1) == frozenset(["x"])
        assert joined.generalizes_record(r1) and joined.generalizes_record(r2)

    def test_equality_and_hash(self, schema):
        r1 = record_as_generalized(schema, ("1", "x"))
        r2 = record_as_generalized(schema, ("1", "x"))
        r3 = record_as_generalized(schema, ("2", "x"))
        assert r1 == r2 and hash(r1) == hash(r2)
        assert r1 != r3
        assert r1 != object()

    def test_invalid_node_rejected(self, schema):
        with pytest.raises(SchemaError, match="out of range"):
            GeneralizedRecord(schema, [999, 0])

    def test_wrong_arity_rejected(self, schema):
        with pytest.raises(SchemaError, match="expected 2"):
            GeneralizedRecord(schema, [0])

    def test_labels_and_repr(self, schema):
        coll = schema.collections[0]
        rec = GeneralizedRecord(
            schema, [coll.node_of_values(["1", "2"]), schema.collections[1].full_node]
        )
        assert rec.labels() == ("1-2", "*")
        assert "1-2" in repr(rec)


class TestSchema:
    def test_accessors(self, schema):
        assert schema.attribute_names == ("a", "b")
        assert schema.num_attributes == 2
        assert schema.attribute_index("b") == 1

    def test_unknown_attribute(self, schema):
        with pytest.raises(SchemaError, match="no public attribute"):
            schema.attribute_index("zzz")

    def test_duplicate_names_rejected(self):
        a = Attribute("a", ["1"])
        with pytest.raises(SchemaError, match="duplicate"):
            Schema([SubsetCollection(a), SubsetCollection(a)])

    def test_private_name_collision_rejected(self):
        a = Attribute("a", ["1"])
        with pytest.raises(SchemaError, match="collide"):
            Schema([SubsetCollection(a)], private_attributes=("a",))

    def test_empty_schema_rejected(self):
        with pytest.raises(SchemaError, match="at least one"):
            Schema([])

    def test_of_attributes(self):
        schema = Schema.of_attributes([Attribute("a", ["1", "2"])])
        assert schema.collections[0].num_nodes == 3

    def test_validate_row(self, schema):
        assert schema.validate_row(["1", "x"]) == ("1", "x")
        with pytest.raises(SchemaError):
            schema.validate_row(["1", "z"])
        with pytest.raises(SchemaError):
            schema.validate_row(["1"])


class TestTable:
    def test_rows_and_accessors(self, schema):
        t = Table(schema, [("1", "x"), ("2", "y")])
        assert t.num_records == 2
        assert t.row(1) == ("2", "y")
        assert t.column("b") == ("x", "y")
        assert list(t) == [("1", "x"), ("2", "y")]

    def test_subset(self, schema):
        t = Table(schema, [("1", "x"), ("2", "y"), ("3", "x")])
        sub = t.subset([2, 0])
        assert sub.rows == (("3", "x"), ("1", "x"))

    def test_invalid_row_rejected(self, schema):
        with pytest.raises(SchemaError):
            Table(schema, [("9", "x")])

    def test_private_rows_roundtrip(self):
        a = Attribute("a", ["1", "2"])
        schema = Schema([SubsetCollection(a)], private_attributes=("z",))
        t = Table(schema, [("1",), ("2",)], [("p",), ("q",)])
        assert t.private_row(1) == ("q",)
        sub = t.subset([1])
        assert sub.private_rows == (("q",),)

    def test_subset_does_not_revalidate(self, monkeypatch):
        a = Attribute("a", ["1", "2", "3"])
        schema = Schema([SubsetCollection(a)], private_attributes=("z",))
        t = Table(schema, [("1",), ("2",), ("3",)], [("p",), ("q",), ("r",)])
        calls = []
        original = Schema.validate_row

        def spy(self, row):
            calls.append(row)
            return original(self, row)

        monkeypatch.setattr(Schema, "validate_row", spy)
        sub = t.subset([2, 0, 2])
        assert calls == []
        rebuilt = Table(schema, [("3",), ("1",), ("3",)], [("r",), ("p",), ("r",)])
        assert sub.schema is rebuilt.schema
        assert sub.rows == rebuilt.rows
        assert sub.private_rows == rebuilt.private_rows
        assert len(calls) == 3  # the rebuild validates; the subset did not

    def test_private_rows_required_when_declared(self):
        a = Attribute("a", ["1"])
        schema = Schema([SubsetCollection(a)], private_attributes=("z",))
        with pytest.raises(SchemaError, match="no private rows"):
            Table(schema, [("1",)])

    def test_private_rows_length_mismatch(self):
        a = Attribute("a", ["1"])
        schema = Schema([SubsetCollection(a)], private_attributes=("z",))
        with pytest.raises(SchemaError, match="private rows"):
            Table(schema, [("1",)], [("p",), ("q",)])

    def test_private_rows_width_mismatch(self):
        a = Attribute("a", ["1"])
        schema = Schema([SubsetCollection(a)], private_attributes=("z",))
        with pytest.raises(SchemaError, match="expected 1"):
            Table(schema, [("1",)], [("p", "extra")])

    def test_unexpected_private_rows_rejected(self, schema):
        with pytest.raises(SchemaError, match="declares no private"):
            Table(schema, [("1", "x")], [("p",)])


class TestGeneralizedTable:
    def test_check_generalizes_passes(self, schema):
        t = Table(schema, [("1", "x"), ("2", "y")])
        records = [record_as_generalized(schema, row) for row in t.rows]
        gt = GeneralizedTable(schema, records)
        gt.check_generalizes(t)
        assert gt.num_records == 2
        assert gt.record(0).generalizes(("1", "x"))

    def test_check_generalizes_fails_on_mismatch(self, schema):
        t = Table(schema, [("1", "x"), ("2", "y")])
        swapped = [
            record_as_generalized(schema, t.rows[1]),
            record_as_generalized(schema, t.rows[0]),
        ]
        gt = GeneralizedTable(schema, swapped)
        with pytest.raises(AnonymityError, match="does not generalize"):
            gt.check_generalizes(t)

    def test_check_generalizes_fails_on_length(self, schema):
        t = Table(schema, [("1", "x"), ("2", "y")])
        gt = GeneralizedTable(
            schema, [record_as_generalized(schema, ("1", "x"))]
        )
        with pytest.raises(AnonymityError, match="records"):
            gt.check_generalizes(t)

    def test_foreign_schema_record_rejected(self, schema):
        other = Schema(
            [SubsetCollection(Attribute("a", ["1", "2", "3", "4"]))]
        )
        rec = record_as_generalized(other, ("1",))
        with pytest.raises(SchemaError, match="different schema"):
            GeneralizedTable(schema, [rec])

    def test_labels(self, schema):
        t = Table(schema, [("1", "x")])
        gt = GeneralizedTable(
            schema, [record_as_generalized(schema, ("1", "x"))]
        )
        assert gt.labels() == [("1", "x")]
