"""Differential tests: optimized engine vs the literal transcription.

The production agglomerative engine uses cached closures, a distance
matrix, incremental row minima and batched repairs;
:mod:`repro.core.reference` uses none of that.  The merge order is a
total order (see :mod:`repro.core.agglomerative`), so on every input the
two must produce the same cluster lists, ties included.  A tie-break
mutant of the reference shows the comparison is not vacuous: ties
decide the outcome on most fuzz cases.
"""

import inspect

import numpy as np
import pytest

import repro.core.reference as reference_module
from repro.core.agglomerative import agglomerative_clustering
from repro.core.distances import distance_names, get_distance
from repro.core.reference import reference_agglomerative
from repro.datasets.registry import load
from repro.measures.base import CostModel
from repro.measures.entropy import EntropyMeasure
from repro.measures.lm import LMMeasure
from repro.measures.registry import get_measure
from repro.tabular.encoding import EncodedTable
from repro.tabular.table import Schema, Table
from repro.verify.generators import random_collection, random_instance
from tests.conftest import make_random_table
from tests.test_encoding import _arbitrary_collection

#: The fuzz seeds every engine/reference comparison runs on.
FUZZ_SEEDS = range(400)


def _fuzz_instances():
    """``random_instance`` seeds 0–399 with k > 1: 328 drawn configs."""
    instances = [random_instance(seed) for seed in FUZZ_SEEDS]
    return [inst for inst in instances if inst.config.k > 1]


@pytest.fixture(scope="module")
def fuzz_cases():
    return [(inst, inst.model()) for inst in _fuzz_instances()]


def _assert_same(model, k, distance, modified=False):
    dist = get_distance(distance)
    reference = reference_agglomerative(model, k, dist, modified=modified)
    production = agglomerative_clustering(model, k, dist, modified=modified)
    assert production.clusters == reference.clusters


class TestDifferential:
    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("distance", ["d1", "d2", "d3", "d4"])
    def test_same_clustering_when_tie_free(self, seed, distance):
        # Every case is compared, ties included; the id predates the
        # specified tie rule, when only tie-free runs could be.
        table = make_random_table(
            14, seed=seed, domain_sizes=(5, 4, 3), with_groups=True
        )
        model = CostModel(EncodedTable(table), EntropyMeasure())
        _assert_same(model, 3, distance)

    @pytest.mark.parametrize("seed", range(6))
    def test_same_clustering_modified(self, seed):
        table = make_random_table(13, seed=100 + seed, domain_sizes=(6, 5))
        model = CostModel(EncodedTable(table), EntropyMeasure())
        _assert_same(model, 3, "d1", modified=True)

    @pytest.mark.parametrize("seed", range(4))
    def test_lm_measure_agreement(self, seed):
        table = make_random_table(12, seed=200 + seed, domain_sizes=(4, 4))
        model = CostModel(EncodedTable(table), LMMeasure())
        _assert_same(model, 4, "d3")

    def test_reference_k_one(self):
        table = make_random_table(6, seed=0)
        model = CostModel(EncodedTable(table), EntropyMeasure())
        run = reference_agglomerative(model, 1, get_distance("d1"))
        assert run.clusters == tuple((i,) for i in range(6))

    def test_reference_rejects_large_k(self):
        from repro.errors import AnonymityError

        table = make_random_table(5, seed=0)
        model = CostModel(EncodedTable(table), EntropyMeasure())
        with pytest.raises(AnonymityError):
            reference_agglomerative(model, 9, get_distance("d1"))


class TestFuzzDifferential:
    """All five distances × plain/modified on every fuzz seed with
    k > 1: 328 configs, 3,280 runs."""

    @pytest.mark.parametrize("modified", [False, True], ids=["plain", "modified"])
    @pytest.mark.parametrize("distance", distance_names())
    def test_engine_equals_reference(self, fuzz_cases, distance, modified):
        assert len(fuzz_cases) == 328
        for inst, model in fuzz_cases:
            dist = get_distance(distance)
            k = inst.config.k
            reference = reference_agglomerative(model, k, dist, modified=modified)
            production = agglomerative_clustering(model, k, dist, modified=modified)
            assert production.clusters == reference.clusters, inst.config

    def test_tie_break_mutant_differs(self, fuzz_cases, monkeypatch):
        # Flip the pair scan's strict < to <=, so the *last* least pair
        # wins; on each instance's drawn distance and variant it must
        # merge differently on most configs, or the comparison above
        # would not exercise the tie rule.
        source = inspect.getsource(reference_module._least_pair)
        assert source.count("d < best[0]") == 1
        namespace = dict(vars(reference_module))
        exec(source.replace("d < best[0]", "d <= best[0]"), namespace)
        differ = 0
        for inst, model in fuzz_cases:
            cfg = inst.config
            dist = get_distance(cfg.distance)
            with monkeypatch.context() as patch:
                patch.setattr(
                    reference_module, "_least_pair", namespace["_least_pair"]
                )
                mutant = reference_agglomerative(
                    model, cfg.k, dist, modified=cfg.modified
                )
            literal = reference_agglomerative(
                model, cfg.k, dist, modified=cfg.modified
            )
            differ += mutant.clusters != literal.clusters
        assert differ >= 100


@pytest.mark.parametrize("seed", range(60))
def test_engine_equals_reference_on_non_exact_joins(seed):
    # A non-laminar collection, where the join of two closures can
    # over-generalize their union: the order prices a union at that
    # join, and a reference pricing the closure of the union instead
    # merges differently on some of these runs.
    rng = np.random.default_rng(1000 + seed)
    collections = [_arbitrary_collection(seed)]
    if rng.random() < 0.5:
        collections.append(random_collection(rng, "y"))
    rows = [
        tuple(
            c.attribute.values[int(rng.integers(c.attribute.size))]
            for c in collections
        )
        for _ in range(int(rng.integers(6, 15)))
    ]
    enc = EncodedTable(Table(Schema(collections), rows))
    assert not enc.exact_joins
    for measure in ("lm", "entropy"):
        model = CostModel(enc, get_measure(measure))
        for distance in distance_names():
            for modified in (False, True):
                _assert_same(model, int(rng.integers(2, 4)), distance, modified)


def _paper_grid(datasets, n):
    return [
        (dataset, n, distance, measure, modified)
        for dataset in datasets
        for distance in distance_names()
        for measure in ("lm", "entropy")
        for modified in (False, True)
    ]


def _paper_case(dataset, n, distance, measure, modified):
    # The paper tables are duplicate-heavy: many pairs tie exactly.
    enc = EncodedTable(load(dataset, n=n, seed=1))
    _assert_same(CostModel(enc, get_measure(measure)), 5, distance, modified)


@pytest.mark.parametrize(
    "dataset,n,distance,measure,modified", _paper_grid(("art",), 30)
)
def test_paper_tables_equal_reference(dataset, n, distance, measure, modified):
    _paper_case(dataset, n, distance, measure, modified)


@pytest.mark.slow
@pytest.mark.parametrize(
    "dataset,n,distance,measure,modified",
    _paper_grid(("art", "cmc", "adult"), 45),
)
def test_paper_tables_equal_reference_n45(dataset, n, distance, measure, modified):
    _paper_case(dataset, n, distance, measure, modified)
