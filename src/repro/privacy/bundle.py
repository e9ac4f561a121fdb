"""Release bundles: a self-describing on-disk format for anonymized data.

A data owner who publishes an anonymization needs to ship more than a
CSV: the schema (domains + permissible subsets), the claimed guarantee,
the measure and loss, and enough provenance to re-audit.  A *release
bundle* is a directory:

    release/
      release.csv      the generalized table (+ private columns if any)
      schema.json      domains, hierarchies, private attribute names
      manifest.json    notion, k, measure, cost, algorithm, risk summary

:func:`save_release` writes one from an
:class:`~repro.core.api.AnonymizationResult`; :func:`load_release`
reads it back and re-verifies the claimed notion against the (optional)
original table, so consumers do not have to trust the manifest.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro.core.api import AnonymizationResult
from repro.errors import AnonymityError, SchemaError
from repro.obs.durable import read_json, replace_text
from repro.privacy.risk import release_risks
from repro.tabular.encoding import EncodedTable
from repro.tabular.io import (
    read_generalized_csv,
    read_schema_json,
    write_generalized_csv,
    write_schema_json,
)
from repro.tabular.table import GeneralizedTable, Schema, Table

MANIFEST_VERSION = 1


@dataclass(frozen=True)
class ReleaseBundle:
    """A loaded release: the generalization plus its manifest."""

    schema: Schema
    generalized: GeneralizedTable
    manifest: dict

    @property
    def notion(self) -> str:
        """The anonymity notion the release claims."""
        return self.manifest["notion"]

    @property
    def k(self) -> int:
        """The claimed anonymity level."""
        return int(self.manifest["k"])

    def verify_against(self, table: Table) -> bool:
        """Re-check the claimed notion against the original table.

        The bundle's schema was reloaded from JSON, so it is a distinct
        (if structurally equal) object from ``table.schema``; the
        generalization is re-targeted onto the caller's schema by value
        sets before checking.
        """
        from repro.core.notions import satisfies

        retargeted = _retarget(self.generalized, table.schema)
        retargeted.check_generalizes(table)
        enc = EncodedTable(table)
        nodes = enc.encode_generalized(retargeted)
        return satisfies(enc, nodes, self.notion, self.k)


def save_release(
    result: AnonymizationResult,
    directory: str | Path,
    include_private: bool = True,
    with_risks: bool = True,
) -> Path:
    """Write a release bundle; returns the directory path.

    Parameters
    ----------
    result:
        The anonymization to publish.
    directory:
        Target directory (created if missing; must be empty of bundle
        files or they are overwritten).
    include_private:
        Also publish the private columns next to the generalized
        quasi-identifiers (the paper's release model).
    with_risks:
        Compute and embed the adversary-1/2 risk summaries (costs one
        consistency-graph + matching pass).
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    table = result.table
    private_rows = (
        table.private_rows
        if include_private and table.schema.private_attributes
        else None
    )
    write_generalized_csv(
        result.generalized, directory / "release.csv", private_rows
    )
    write_schema_json(table.schema, directory / "schema.json")

    manifest: dict = {
        "manifest_version": MANIFEST_VERSION,
        "notion": result.notion,
        "k": result.k,
        "measure": result.measure,
        "cost": result.cost,
        "algorithm": result.algorithm,
        "num_records": table.num_records,
        "elapsed_seconds": result.elapsed_seconds,
        "stats": {key: _jsonable(v) for key, v in result.stats.items()},
    }
    if with_risks:
        adv1, adv2 = release_risks(result.encoded, result.node_matrix)
        manifest["risks"] = {
            "adversary1": {
                "prosecutor_max": adv1.prosecutor_max,
                "prosecutor_mean": adv1.prosecutor_mean,
                "marketer": adv1.marketer,
            },
            "adversary2": {
                "prosecutor_max": adv2.prosecutor_max,
                "prosecutor_mean": adv2.prosecutor_mean,
                "marketer": adv2.marketer,
            },
        }
    replace_text(directory / "manifest.json", json.dumps(manifest, indent=2))
    return directory


def load_release(directory: str | Path) -> ReleaseBundle:
    """Read a release bundle written by :func:`save_release`.

    Raises
    ------
    SchemaError
        If a bundle file is missing or malformed.
    ReproError
        If a JSON file of the bundle cannot be read.
    AnonymityError
        If the manifest version is unsupported.
    """
    directory = Path(directory)
    for required in ("release.csv", "schema.json", "manifest.json"):
        if not (directory / required).exists():
            raise SchemaError(f"release bundle is missing {required}")
    manifest = read_json(directory / "manifest.json")
    version = manifest.get("manifest_version")
    if version != MANIFEST_VERSION:
        raise AnonymityError(
            f"unsupported release manifest version {version!r} "
            f"(expected {MANIFEST_VERSION})"
        )
    schema = read_schema_json(directory / "schema.json")
    generalized = read_generalized_csv(schema, directory / "release.csv")
    return ReleaseBundle(schema=schema, generalized=generalized, manifest=manifest)


def _retarget(gtable: GeneralizedTable, schema: Schema) -> GeneralizedTable:
    """Rebuild a generalized table against a structurally equal schema."""
    from repro.tabular.record import GeneralizedRecord

    if len(schema.collections) != len(gtable.schema.collections):
        raise SchemaError(
            "release schema and table schema have different attribute counts"
        )
    records = []
    for rec in gtable.records:
        nodes = []
        for j, coll in enumerate(schema.collections):
            nodes.append(coll.node_of_values(rec.values(j)))
        records.append(GeneralizedRecord(schema, nodes))
    return GeneralizedTable(schema, records)


def _jsonable(value):
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    return str(value)
