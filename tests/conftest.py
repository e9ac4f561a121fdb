"""Shared fixtures: small deterministic tables in various shapes."""

from __future__ import annotations

import numpy as np
import pytest

from repro.measures.base import CostModel
from repro.measures.entropy import EntropyMeasure
from repro.measures.lm import LMMeasure
from repro.tabular.attribute import Attribute, integer_attribute
from repro.tabular.encoding import EncodedTable
from repro.tabular.hierarchy import (
    IntervalCollection,
    SubsetCollection,
    from_groups,
    interval_hierarchy,
)
from repro.tabular.table import Schema, Table


@pytest.fixture
def age_attribute() -> Attribute:
    """A 20-value integer attribute."""
    return integer_attribute("age", 20, 39)


@pytest.fixture
def age_hierarchy(age_attribute) -> SubsetCollection:
    """5-year and 10-year bands over the ages."""
    return interval_hierarchy(age_attribute, 5, 10)


@pytest.fixture
def edu_hierarchy() -> SubsetCollection:
    """A small categorical hierarchy (the paper's education example)."""
    att = Attribute("edu", ["hs", "college", "ba", "ma", "phd"])
    return from_groups(att, [["hs", "college"], ["ma", "phd"]])


@pytest.fixture
def two_attr_schema(age_hierarchy, edu_hierarchy) -> Schema:
    """Schema of (age, edu)."""
    return Schema([age_hierarchy, edu_hierarchy])


@pytest.fixture
def small_table(two_attr_schema) -> Table:
    """A deterministic 30-record table over (age, edu)."""
    rng = np.random.default_rng(42)
    ages = [str(v) for v in rng.integers(20, 40, size=30)]
    edus = [
        ["hs", "college", "ba", "ma", "phd"][i]
        for i in rng.integers(0, 5, size=30)
    ]
    return Table(two_attr_schema, list(zip(ages, edus)))


@pytest.fixture
def small_encoded(small_table) -> EncodedTable:
    """The encoding of ``small_table``."""
    return EncodedTable(small_table)


@pytest.fixture
def entropy_model(small_encoded) -> CostModel:
    """Entropy cost model over ``small_table``."""
    return CostModel(small_encoded, EntropyMeasure())


@pytest.fixture
def lm_model(small_encoded) -> CostModel:
    """LM cost model over ``small_table``."""
    return CostModel(small_encoded, LMMeasure())


@pytest.fixture
def tiny_table() -> Table:
    """The 3-record table from the proof of Proposition 4.5."""
    from repro.core.relations import proposition_45_example

    table, _ = proposition_45_example()
    return table


def make_interval_table() -> Table:
    """22 records over an interval-collection age (every contiguous
    range of 30..36 is a node) and a flat two-value sex attribute."""
    ages = IntervalCollection(integer_attribute("age", 30, 36))
    sex = SubsetCollection(Attribute("sex", ["f", "m"]))
    rng = np.random.default_rng(5)
    rows = [
        (str(int(rng.integers(30, 37))), ["f", "m"][int(rng.integers(0, 2))])
        for _ in range(22)
    ]
    return Table(Schema([ages, sex]), rows)


def make_random_table(
    n: int,
    seed: int,
    domain_sizes: tuple[int, ...] = (4, 3),
    with_groups: bool = True,
) -> Table:
    """Helper for tests needing many random small tables."""
    rng = np.random.default_rng(seed)
    collections = []
    for j, m in enumerate(domain_sizes):
        values = [f"v{j}_{i}" for i in range(m)]
        att = Attribute(f"attr{j}", values)
        if with_groups and m >= 4:
            groups = [values[: m // 2], values[m // 2 :]]
            collections.append(SubsetCollection(att, groups))
        else:
            collections.append(SubsetCollection(att))
    schema = Schema(collections)
    rows = [
        tuple(
            f"v{j}_{rng.integers(0, m)}" for j, m in enumerate(domain_sizes)
        )
        for _ in range(n)
    ]
    return Table(schema, rows)
