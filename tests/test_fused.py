"""The single (k,1)/(1,k) path against its literal oracle.

Algorithms 3–6 price candidate unions with one fused join→cost kernel
(:class:`repro.measures.base.FusedJoinCost`), the consistency graph is
built from value masks over blocks of unique rows, and the "R̄_i
generalizes R_i" preconditions are one gather per attribute.
:mod:`repro.core.reference` keeps the per-candidate transcription: one
``join_rows`` + ``record_cost`` per anchor or record, one
``consistency_mask`` per record.  The production path must reproduce it
byte for byte — same node matrices, same adjacency, same degrees — for
every node-cost measure, both expanders, both ``join_with`` values,
k ∈ {1, 2, 3, 5, n}, duplicate-heavy tables and interval schemas.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

import repro.core.global_1k as global_1k_module
import repro.core.k1 as k1_module
import repro.tabular.encoding as encoding_module
from repro.core.global_1k import global_one_k_anonymize
from repro.core.k1 import costs_grow_with_joins, k1_expansion, k1_nearest_neighbors
from repro.core.kk import kk_anonymize
from repro.core.one_k import one_k_anonymize
from repro.core.reference import (
    reference_adjacency,
    reference_global_one_k,
    reference_k1_expansion,
    reference_k1_nearest,
    reference_one_k,
)
from repro.datasets.registry import load
from repro.errors import SchemaError
from repro.matching.bipartite import ConsistencyGraph
from repro.measures.base import (
    CostModel,
    FixedRowJoinCost,
    FusedJoinCost,
    LossMeasure,
)
from repro.measures.lm import LMMeasure
from repro.measures.registry import get_measure, measure_names
from repro.obs import MetricsRegistry, metrics_scope
from repro.tabular.encoding import EncodedTable
from repro.tabular.table import Schema, Table
from repro.verify.generators import random_collection
from repro.verify.invariants import check_measure_soundness

from tests.conftest import make_interval_table, make_random_table
from tests.test_encoding import _arbitrary_collection


def _duplicate_heavy() -> Table:
    base = make_random_table(5, seed=3, domain_sizes=(4, 3, 2))
    rng = np.random.default_rng(0)
    rows = [base.rows[int(i)] for i in rng.integers(0, 5, size=24)]
    return Table(base.schema, rows)


TABLES = {
    "grouped": lambda: make_random_table(26, seed=11, domain_sizes=(5, 4, 3)),
    "flat": lambda: make_random_table(
        20, seed=2, domain_sizes=(6, 3), with_groups=False
    ),
    "duplicates": _duplicate_heavy,
    "intervals": make_interval_table,
}


def _model(table_name: str, measure: str) -> CostModel:
    enc = EncodedTable(TABLES[table_name]())
    try:
        return CostModel(enc, get_measure(measure))
    except SchemaError:
        pytest.skip(f"{measure} needs a laminar schema")


def _ks(model: CostModel) -> list[int]:
    n = model.enc.num_records
    return sorted({1, 2, 3, 5, n})


def _same(got: np.ndarray, want: np.ndarray) -> bool:
    return got.dtype == want.dtype and got.tobytes() == want.tobytes()


def _same_graph(graph: ConsistencyGraph, enc: EncodedTable) -> bool:
    adjacency, right = reference_adjacency(enc, graph.node_matrix)
    return (
        len(adjacency) == len(graph.adjacency)
        and all(_same(a, b) for a, b in zip(graph.adjacency, adjacency))
        and _same(graph.right_degrees(), right)
    )


@pytest.mark.parametrize("measure", measure_names())
@pytest.mark.parametrize("table_name", sorted(TABLES))
class TestAgainstReference:
    def test_k1_stages(self, table_name, measure):
        model = _model(table_name, measure)
        for k in _ks(model):
            assert _same(k1_expansion(model, k), reference_k1_expansion(model, k))
            assert _same(
                k1_nearest_neighbors(model, k), reference_k1_nearest(model, k)
            )

    def test_one_k_from_every_start(self, table_name, measure):
        model = _model(table_name, measure)
        enc = model.enc
        for k in _ks(model):
            starts = (
                enc.singleton_nodes,
                reference_k1_expansion(model, k),
                reference_k1_nearest(model, k),
            )
            for start in starts:
                for join_with in ("generalized", "original"):
                    got = one_k_anonymize(model, start, k, join_with=join_with)
                    want = reference_one_k(model, start, k, join_with=join_with)
                    assert _same(got, want), (k, join_with)

    def test_kk_global_and_graph(self, table_name, measure):
        model = _model(table_name, measure)
        enc = model.enc
        for k in _ks(model):
            for expander, expand in (
                ("expansion", reference_k1_expansion),
                ("nearest", reference_k1_nearest),
            ):
                want_kk = reference_one_k(model, expand(model, k), k)
                kk = kk_anonymize(model, k, expander=expander)
                assert _same(kk, want_kk), (k, expander)
                assert _same_graph(ConsistencyGraph(enc, kk), enc)
                got, _ = global_one_k_anonymize(model, kk, k)
                assert _same(got, reference_global_one_k(model, want_kk, k))
                assert _same_graph(ConsistencyGraph(enc, got), enc)


class TestBlocks:
    """Tiny blocks force many anchor and unique-row blocks per call.

    These models all pass :func:`costs_grow_with_joins`, so with more
    than one anchor block Algorithm 4 takes its bounded grow steps;
    ``cells=1`` makes every block a single row."""

    @pytest.mark.parametrize("cells", [1, 7, 50])
    def test_block_size_never_changes_outputs(self, monkeypatch, cells):
        model = _model("grouped", "entropy")
        enc = model.enc
        expected = {
            k: (reference_k1_expansion(model, k), reference_k1_nearest(model, k))
            for k in (2, 5)
        }
        monkeypatch.setattr(k1_module, "_BLOCK_CELLS", cells)
        monkeypatch.setattr(encoding_module, "_BLOCK_CELLS", cells)
        for k, (want_exp, want_nn) in expected.items():
            got = k1_expansion(model, k)
            assert _same(got, want_exp)
            assert _same(k1_nearest_neighbors(model, k), want_nn)
            assert _same_graph(ConsistencyGraph(enc, got), enc)

    @pytest.mark.parametrize("cells", [1, 100])
    @pytest.mark.parametrize(
        "table_name,measure",
        [("grouped", "lm"), ("duplicates", "lm"), ("intervals", "mw")],
    )
    def test_bounded_steps_never_change_outputs(
        self, monkeypatch, cells, table_name, measure
    ):
        model = _model(table_name, measure)
        assert costs_grow_with_joins(model)
        expected = {k: reference_k1_expansion(model, k) for k in (2, 3, 5)}
        monkeypatch.setattr(k1_module, "_BLOCK_CELLS", cells)
        for k, want in expected.items():
            assert _same(k1_expansion(model, k), want), k

    @pytest.mark.parametrize("pairs", [1, 7, 50])
    def test_pair_batches_never_change_algorithm_6(self, monkeypatch, pairs):
        model = CostModel(EncodedTable(load("art", n=60, seed=3)), get_measure("lm"))
        kk = kk_anonymize(model, 4)
        want = reference_global_one_k(model, kk, 4)
        full, stats = global_one_k_anonymize(model, kk, 4)
        assert stats.fixes > 0
        monkeypatch.setattr(global_1k_module, "_BATCH_PAIRS", pairs)
        got, batched = global_one_k_anonymize(model, kk, 4)
        assert _same(got, want) and _same(full, want)
        assert batched == stats

    def test_identity_and_full_suppression_graphs(self, small_encoded):
        enc = small_encoded
        full = np.array([[a.full_node for a in enc.attrs]] * enc.num_records)
        for nodes in (enc.singleton_nodes, full.astype(np.int32)):
            assert _same_graph(ConsistencyGraph(enc, nodes), enc)


class _NegativeZeroLM(LossMeasure):
    """LM with every zero node cost stored as ``-0.0``."""

    name = "lm-negzero"

    def node_costs(self, attribute, value_counts):
        costs = LMMeasure().node_costs(attribute, value_counts).copy()
        costs[costs == 0] = -0.0
        return costs


class TestFusedJoinCost:
    @pytest.mark.parametrize("measure", measure_names())
    def test_bit_identical_to_record_cost(self, measure):
        model = _model("grouped", measure)
        enc = model.enc
        fused = FusedJoinCost(model)
        rng = np.random.default_rng(1)
        nodes = enc.singleton_nodes
        for _ in range(20):
            rows = nodes[rng.integers(0, enc.num_records, size=9)]
            b = nodes[int(rng.integers(0, enc.num_records))]
            expect = np.asarray(model.record_cost(enc.join_rows(rows, b)))
            got = fused.pair_costs(rows, b)
            assert got.tobytes() == expect.astype(np.float64).tobytes()
        # Elementwise: row i against anchor i, anchors are unions.
        anchors = enc.join_rows(nodes, nodes[rng.permutation(enc.num_records)])
        expect = np.asarray(model.record_cost(enc.join_rows(nodes[::-1], anchors)))
        got = fused.elementwise_costs(nodes[::-1].T, anchors.T)
        assert got.tobytes() == expect.tobytes()

    def test_negative_zero_costs_match_record_cost(self):
        table = make_random_table(12, seed=4, domain_sizes=(4, 3))
        enc = EncodedTable(table)
        model = CostModel(enc, _NegativeZeroLM())
        rows = enc.singleton_nodes
        for b in rows:
            expect = np.asarray(model.record_cost(enc.join_rows(rows, b)))
            got = FusedJoinCost(model).pair_costs(rows, b)
            assert got.tobytes() == expect.tobytes()
        expect = np.asarray(model.record_cost(enc.join_rows(rows, rows[::-1])))
        got = FusedJoinCost(model).elementwise_costs(rows.T, rows[::-1].T)
        assert got.tobytes() == expect.tobytes()

    def test_anchor_block_and_fixed_rows(self):
        model = _model("intervals", "entropy")
        enc = model.enc
        fused = FusedJoinCost(model)
        rows = enc.unique_singleton_nodes
        rng = np.random.default_rng(2)
        anchors = enc.join_rows(
            rows[rng.integers(0, len(rows), size=6)],
            rows[rng.integers(0, len(rows), size=6)],
        )
        block = fused.costs(rows.T, anchors)
        cached = FixedRowJoinCost(fused, rows)
        for _ in range(2):  # second round reads the cached term rows
            assert cached.costs(anchors).tobytes() == block.tobytes()
        for a, anchor in enumerate(anchors):
            expect = np.asarray(model.record_cost(enc.join_rows(rows, anchor)))
            assert block[a].tobytes() == expect.tobytes()

    def test_empty_batch(self):
        table = make_random_table(6, seed=0)
        model = CostModel(EncodedTable(table), get_measure("lm"))
        fused = FusedJoinCost(model)
        out = fused.pair_costs(
            np.zeros((0, model.enc.num_attributes), dtype=np.int32),
            model.enc.singleton_nodes[0],
        )
        assert out.shape == (0,)


class _InvertedLM(LossMeasure):
    """LM that declares monotone costs but prices one inner node 1e-12
    above its parent: inside the soundness check's tolerance, so only a
    gate computed from the costs themselves can see the inversion."""

    name = "lm-inverted"
    monotone = True
    bounded_unit = True

    def node_costs(self, attribute, value_counts):
        costs = LMMeasure().node_costs(attribute, value_counts).copy()
        coll = attribute.collection
        for node in range(coll.num_nodes):
            parent = coll.parent(node)
            if 1 < coll.node_size(node) and parent != node:
                costs[node] = costs[parent] + 1e-12
                break
        return costs


def _priced(model: CostModel, k: int) -> tuple[np.ndarray, int]:
    """Algorithm 4's output and its ``core.k1.pairs_priced`` count."""
    registry = MetricsRegistry()
    with metrics_scope(registry):
        nodes = k1_expansion(model, k)
    return nodes, registry.snapshot()["counters"]["core.k1.pairs_priced"]


def _non_exact_table() -> Table:
    rng = np.random.default_rng(7)
    collections = [_arbitrary_collection(3), random_collection(rng, "y")]
    rows = [
        tuple(c.attribute.values[int(rng.integers(c.attribute.size))] for c in collections)
        for _ in range(40)
    ]
    return Table(Schema(collections), rows)


class TestBounds:
    """Algorithm 4 bounds only where the costs, not a declaration, allow."""

    @pytest.fixture(autouse=True)
    def one_row_blocks(self, monkeypatch):
        monkeypatch.setattr(k1_module, "_BLOCK_CELLS", 1)

    def _assert_full_pricing(self, model: CostModel) -> None:
        u = model.enc.num_unique
        for k in (2, 3, 5):
            nodes, priced = _priced(model, k)
            assert _same(nodes, reference_k1_expansion(model, k)), k
            assert priced == u * u * (k - 1), k

    def test_declared_monotone_with_inversion_prices_everything(self):
        model = CostModel(EncodedTable(TABLES["grouped"]()), _InvertedLM())
        assert check_measure_soundness(model) == []
        assert not costs_grow_with_joins(model)
        self._assert_full_pricing(model)

    def test_non_exact_joins_price_everything(self):
        model = CostModel(EncodedTable(_non_exact_table()), LMMeasure())
        assert not model.enc.exact_joins
        # The costs alone would pass: only the joins close the gate.
        assert all(
            bool((c[att.join] >= c[:, None]).all())
            for c, att in zip(model.node_costs, model.enc.attrs)
        )
        assert not costs_grow_with_joins(model)
        self._assert_full_pricing(model)


@pytest.mark.parametrize("measure,bounded", [("lm", True), ("entropy", False)])
def test_pairs_priced_on_adt_600(measure, bounded):
    model = CostModel(EncodedTable(load("adult", n=600, seed=1)), get_measure(measure))
    assert costs_grow_with_joins(model) is bounded
    u, k = model.enc.num_unique, 5
    _, priced = _priced(model, k)
    if bounded:
        assert priced < u * u * (k - 1) / 2
    else:
        assert priced == u * u * (k - 1)


@pytest.mark.slow
@pytest.mark.parametrize("dataset", ["art", "cmc", "adult"])
@pytest.mark.parametrize("measure", ["lm", "tree", "mw", "entropy"])
def test_mid_size_differential(dataset, measure):
    """n = 300 spans two anchor blocks, so gated measures take the
    bounded steps; ties and exhausted candidates are common here."""
    model = CostModel(EncodedTable(load(dataset, n=300, seed=2)), get_measure(measure))
    for k in (2, 3, 5, 10):
        k1 = k1_expansion(model, k)
        assert _same(k1, reference_k1_expansion(model, k)), k
        kk = one_k_anonymize(model, k1, k)
        got, _ = global_one_k_anonymize(model, kk, k)
        assert _same(got, reference_global_one_k(model, kk, k)), k


#: SHA-256 of the int32 node matrices at k=5, dataset seed 1.  ART and
#: CMC were computed with the per-candidate (join_rows + record_cost)
#: implementation, ADT with full pricing on every Algorithm 4 grow step.
PINNED = {
    ("art", 1000, "lm", "kk"): "2ce52465db27c3480c19a8b9dd8041f909004848ed4dfc0f5666574a77c1af4d",
    ("art", 1000, "lm", "global-1k"): "d3560820f5bbe68443e2243bafbd126a476f483d579748a5033e039a77800cb4",
    ("art", 1000, "entropy", "kk"): "625cba3f5706d4b361ccf1f4c25db9c22e00dc8172c8a23339cebd178d0e3538",
    ("art", 1000, "entropy", "global-1k"): "32542f4b6ffd942744295adcd60552c5c5bbb4b11e94705ab09d5e33e08bebac",
    ("cmc", 1500, "lm", "kk"): "720e17581ea7cacc9e9f37cb62b33b383124021f9239aaf203981fbb0e235946",
    ("cmc", 1500, "lm", "global-1k"): "be44cfdc19c55e07f8e775787d516d024a051df34b227fb4be3322449265f610",
    ("cmc", 1500, "entropy", "kk"): "b343f721bcdcfe0745b2cefc1f34b297bca6acf61f726eb5f168599676c01f01",
    ("cmc", 1500, "entropy", "global-1k"): "da4c17bf9295a432394c035bbb66a14fd40f9671b90325fdbb32a7f8a45d50ac",
    ("adult", 5000, "lm", "kk"): "1d62c6594efed201e20de71df0c30a885a32dbbdd29715cfbbccd9440046418f",
    ("adult", 5000, "lm", "global-1k"): "33cac08d0d4df72006d6ce95a3eed04214d8319a6ed0fa062aac7917ac05d4cf",
    ("adult", 5000, "entropy", "kk"): "d84e12bf5f120ee59eb58f89ea1a2b49d7bfa66e6e7ce7a83dd75d5961c6b036",
    ("adult", 5000, "entropy", "global-1k"): "24cef4812458bafbecd95ebf0b960363e09a675ca349a70889cd3f5857623bd6",
}


def _sha(nodes: np.ndarray) -> str:
    assert nodes.dtype == np.int32
    return hashlib.sha256(np.ascontiguousarray(nodes).tobytes()).hexdigest()


@pytest.mark.parametrize(
    "dataset,n,measure",
    [
        ("art", 1000, "lm"),
        ("art", 1000, "entropy"),
        ("cmc", 1500, "lm"),
        ("cmc", 1500, "entropy"),
        # ADT 5000: LM takes the bounded grow steps, entropy fails the gate.
        pytest.param("adult", 5000, "lm", marks=pytest.mark.slow),
        pytest.param("adult", 5000, "entropy", marks=pytest.mark.slow),
    ],
)
def test_pinned_paper_size_outputs(dataset, n, measure):
    model = CostModel(EncodedTable(load(dataset, n=n, seed=1)), get_measure(measure))
    kk = kk_anonymize(model, 5)
    assert _sha(kk) == PINNED[(dataset, n, measure, "kk")]
    nodes, _ = global_one_k_anonymize(model, kk, 5)
    assert _sha(nodes) == PINNED[(dataset, n, measure, "global-1k")]


def test_max_passes_bounds_fix_passes():
    """``max_passes`` counts fix passes: the allowed-edge check that
    confirms the last permitted pass still runs."""
    model = CostModel(EncodedTable(load("art", n=200, seed=3)), get_measure("lm"))
    kk = kk_anonymize(model, 4)
    nodes, stats = global_one_k_anonymize(model, kk, 4)
    assert stats.passes >= 1
    bounded, bounded_stats = global_one_k_anonymize(
        model, kk, 4, max_passes=stats.passes
    )
    assert _same(bounded, nodes)
    assert bounded_stats == stats
