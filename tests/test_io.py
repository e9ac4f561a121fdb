"""Unit tests for CSV/JSON round-tripping."""

import hashlib

import pytest

from repro.core.api import anonymize
from repro.datasets import load
from repro.errors import ReproError, SchemaError
from repro.tabular.hierarchy_csv import read_hierarchy_csv, write_hierarchy_csv
from repro.tabular.io import (
    read_generalized_csv,
    read_schema_json,
    read_table_csv,
    schema_from_dict,
    schema_to_dict,
    write_generalized_csv,
    write_schema_json,
    write_table_csv,
)
from repro.tabular.attribute import Attribute
from repro.tabular.hierarchy import SubsetCollection
from repro.tabular.table import Schema, Table


class TestSchemaJson:
    def test_roundtrip(self, two_attr_schema, tmp_path):
        path = tmp_path / "schema.json"
        write_schema_json(two_attr_schema, path)
        loaded = read_schema_json(path)
        assert loaded.attribute_names == two_attr_schema.attribute_names
        for a, b in zip(loaded.collections, two_attr_schema.collections):
            assert a.num_nodes == b.num_nodes
            for n in range(a.num_nodes):
                assert a.node_values(n) == b.node_values(n)

    def test_roundtrip_private(self, tmp_path):
        att = Attribute("a", ["1", "2"])
        schema = Schema([SubsetCollection(att)], private_attributes=("z",))
        path = tmp_path / "schema.json"
        write_schema_json(schema, path)
        assert read_schema_json(path).private_attributes == ("z",)

    def test_malformed_dict_rejected(self):
        with pytest.raises(SchemaError, match="attributes"):
            schema_from_dict({"nope": []})

    def test_dict_omits_trivial_subsets(self, two_attr_schema):
        data = schema_to_dict(two_attr_schema)
        for spec in data["attributes"]:
            for subset in spec["subsets"]:
                assert 1 < len(subset) < len(spec["values"])


class TestTableCsv:
    def test_roundtrip(self, small_table, tmp_path):
        path = tmp_path / "table.csv"
        write_table_csv(small_table, path)
        loaded = read_table_csv(small_table.schema, path)
        assert loaded.rows == small_table.rows

    def test_roundtrip_with_private(self, tmp_path):
        att = Attribute("a", ["1", "2"])
        schema = Schema([SubsetCollection(att)], private_attributes=("z",))
        table = Table(schema, [("1",), ("2",)], [("p",), ("q",)])
        path = tmp_path / "t.csv"
        write_table_csv(table, path)
        loaded = read_table_csv(schema, path)
        assert loaded.private_rows == (("p",), ("q",))

    def test_header_mismatch_rejected(self, small_table, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("wrong,header\n1,2\n")
        with pytest.raises(SchemaError, match="header"):
            read_table_csv(small_table.schema, path)

    def test_empty_file_rejected(self, small_table, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("")
        with pytest.raises(SchemaError, match="empty"):
            read_table_csv(small_table.schema, path)


class TestGeneralizedCsv:
    def test_roundtrip_all_label_kinds(self, small_table, tmp_path):
        # Anonymize for real so the file contains singletons, ranges,
        # braces and stars.
        from repro.core.api import anonymize

        result = anonymize(small_table, k=5, notion="k", measure="lm")
        path = tmp_path / "release.csv"
        write_generalized_csv(result.generalized, path)
        loaded = read_generalized_csv(small_table.schema, path)
        assert loaded.num_records == result.generalized.num_records
        for a, b in zip(loaded.records, result.generalized.records):
            assert a.nodes == b.nodes

    def test_private_columns_written(self, tmp_path):
        att = Attribute("a", ["1", "2"])
        schema = Schema([SubsetCollection(att)])
        table = Table(schema, [("1",), ("2",)])
        from repro.tabular.record import record_as_generalized
        from repro.tabular.table import GeneralizedTable

        gt = GeneralizedTable(
            schema, [record_as_generalized(schema, r) for r in table.rows]
        )
        path = tmp_path / "rel.csv"
        write_generalized_csv(gt, path, private_rows=[("s1",), ("s2",)])
        text = path.read_text()
        assert "s1" in text and "s2" in text

    def test_private_length_mismatch(self, tmp_path):
        att = Attribute("a", ["1"])
        schema = Schema([SubsetCollection(att)])
        table = Table(schema, [("1",)])
        from repro.tabular.record import record_as_generalized
        from repro.tabular.table import GeneralizedTable

        gt = GeneralizedTable(
            schema, [record_as_generalized(schema, r) for r in table.rows]
        )
        with pytest.raises(SchemaError, match="private rows"):
            write_generalized_csv(gt, tmp_path / "rel.csv", private_rows=[])

    def test_unparseable_cell_rejected(self, small_table, tmp_path):
        path = tmp_path / "rel.csv"
        names = ",".join(small_table.schema.attribute_names)
        path.write_text(f"{names}\n???,hs\n")
        with pytest.raises(SchemaError, match="cannot parse"):
            read_generalized_csv(small_table.schema, path)

    def test_wrong_header_rejected(self, small_table, tmp_path):
        path = tmp_path / "rel.csv"
        path.write_text("x,y\n1,2\n")
        with pytest.raises(SchemaError, match="header"):
            read_generalized_csv(small_table.schema, path)


class TestDurableCsv:
    """CSV files go through repro.obs.durable: reads fail typed, writes
    replace their target atomically and keep their bytes."""

    #: sha256 of (table CSV, release CSV, laminar hierarchy CSVs in
    #: schema order), as csv.writer wrote them straight to a file opened
    #: with newline="" before the writers rendered into replace_text.
    DIGESTS = {
        "art": (
            "5c7f50c43c686f3a72cce7677014925b4922d0d6c0054bd26119e29676ba3d64",
            "52a93e414d4ef1f85d60060f5bd80b85ec467a82d06a1c6a09ed86ba46aa4795",
            "0d483c9a07648f4ffa57126307542592534bf3c005ecced5678f3a72aaf32063",
        ),
        "cmc": (
            "5f32b48fe77f17d1c7bbb3417e5614940d11147de20783c03bad66c8a0ae1a54",
            "49e4b874715b2564b0f4a3a3241e6306baa4e7fc5e63fd35656ac734bc827866",
            "6c61e231f3ca8ffec5aa285f11203f1d5b20bb5fb0405c91bddc92e1946297af",
        ),
        "adult": (
            "b16456e14d3d729507c81eea8649ce4dc048cd93fa0bddcf8b4b1f65e6628824",
            "cf3560639383490f46dc2038f1a90398655853cd25355946672fd74b45bcb039",
            "6ee11056240f3b432107ab68c3419c36df97ea82e4b5b963a01ff44e4bdc3185",
        ),
    }

    @pytest.mark.parametrize("name", sorted(DIGESTS))
    def test_writer_bytes_are_unchanged(self, tmp_path, name):
        table = load(name, n=60, seed=7, private=True)
        release = anonymize(table, k=4).generalized
        write_table_csv(table, tmp_path / "t.csv")
        write_generalized_csv(release, tmp_path / "r.csv", table.private_rows)
        hierarchies = hashlib.sha256()
        for coll in table.schema.collections:
            if coll.is_laminar:
                write_hierarchy_csv(coll, tmp_path / "h.csv")
                hierarchies.update((tmp_path / "h.csv").read_bytes())
        table_bytes = (tmp_path / "t.csv").read_bytes()
        assert table_bytes.endswith(b"\r\n")  # the csv module's line ends
        assert (
            hashlib.sha256(table_bytes).hexdigest(),
            hashlib.sha256((tmp_path / "r.csv").read_bytes()).hexdigest(),
            hierarchies.hexdigest(),
        ) == self.DIGESTS[name]

    @pytest.mark.parametrize(
        "content", [None, b"a,b\n\xff\xfe\x9c,x\n"], ids=["missing", "not-utf8"]
    )
    def test_unreadable_file_is_a_typed_error(
        self, small_table, tmp_path, content
    ):
        path = tmp_path / "in.csv"
        if content is not None:
            path.write_bytes(content)
        readers = (
            lambda: read_table_csv(small_table.schema, path),
            lambda: read_generalized_csv(small_table.schema, path),
            lambda: read_hierarchy_csv("a", path),
        )
        for read in readers:
            with pytest.raises(ReproError, match="cannot read"):
                read()
