"""White-box tests for the agglomerative engine's internal machinery.

The slot recycling, matrix maintenance and row-minimum caching are the
engine's riskiest parts; these tests drive the private `_Engine` state
directly on small inputs where every invariant can be checked against a
brute-force recomputation.  The blocked all-pairs init is checked bit
for bit against the one-shot n×n broadcast it replaced, the join-folded
merge closure against ``closure_of_records``, and paper-size outputs
against SHA-256 pins.
"""

import hashlib

import numpy as np
import pytest

import repro.core.agglomerative as agglomerative_module
from repro.core.agglomerative import _Engine, agglomerative_clustering
from repro.core.api import anonymize
from repro.core.clustering import clustering_to_nodes
from repro.core.distances import distance_names, get_distance
from repro.datasets.registry import load
from repro.measures.base import CostModel
from repro.measures.entropy import EntropyMeasure
from repro.measures.lm import LMMeasure
from repro.measures.registry import get_measure
from repro.tabular.attribute import Attribute
from repro.tabular.encoding import EncodedTable
from repro.tabular.hierarchy import SubsetCollection
from repro.tabular.table import Schema, Table
from tests.conftest import make_interval_table, make_random_table


@pytest.fixture
def engine():
    table = make_random_table(12, seed=7, domain_sizes=(5, 4))
    model = CostModel(EncodedTable(table), EntropyMeasure())
    return _Engine(model, get_distance("d3"), k=3)


def _check_matrix_invariants(eng):
    """Cached minima are never stale-high; matrix matches fresh distances.

    The lazy scheme allows ``row_min`` to be stale-LOW (pointing at a
    dead or changed partner) — that is validated at pop time — but a
    cached minimum above the true row minimum would lose merges.
    """
    active = np.flatnonzero(eng.active)
    for x in active:
        row = eng.matrix[x]
        assert eng.row_min[x] <= row.min() + 1e-12
        fresh = eng._distances_from(int(x))
        finite = np.isfinite(fresh)
        assert np.allclose(row[finite], fresh[finite])


class TestEngineInternals:
    def test_initial_state(self, engine):
        n = engine.enc.num_records
        assert engine.active.sum() == n
        assert all(engine.members[i] == [i] for i in range(n))
        assert (engine.sizes == 1).all()
        assert np.allclose(engine.costs, 0.0)
        assert not np.isfinite(np.diag(engine.matrix)).any()
        _check_matrix_invariants(engine)

    def test_matrix_symmetric(self, engine):
        finite = np.isfinite(engine.matrix)
        assert (finite == finite.T).all()
        sym = engine.matrix[finite]
        assert np.allclose(sym, engine.matrix.T[finite])

    def test_invariants_survive_merges(self, engine):
        # Drive a few merge steps by hand and re-check everything.
        for _ in range(4):
            pair = engine._pop_closest_pair()
            assert pair is not None
            x, y = pair
            merged = engine.members[x] + engine.members[y]
            engine.members[y] = None
            engine._deactivate(y)
            engine.members[x] = merged
            engine.nodes[x] = engine.enc.closure_of_records(merged)
            engine.sizes[x] = len(merged)
            engine.costs[x] = float(engine.model.record_cost(engine.nodes[x]))
            engine._refresh_row(x)
            _check_matrix_invariants(engine)

    def test_pop_closest_pair_is_true_minimum(self, engine):
        pair = engine._pop_closest_pair()
        assert pair is not None
        x, y = pair
        best = engine.matrix[x, y]
        active = np.flatnonzero(engine.active)
        for a in active:
            fresh = engine._distances_from(int(a))
            finite = np.isfinite(fresh)
            assert best <= fresh[finite].min() + 1e-12

    def test_slot_recycling_on_shrink(self):
        table = make_random_table(15, seed=11, domain_sizes=(6, 3))
        model = CostModel(EncodedTable(table), EntropyMeasure())
        clustering = agglomerative_clustering(
            model, 4, get_distance("d1"), modified=True
        )
        # All records still covered exactly once despite expulsions.
        seen = sorted(i for c in clustering.clusters for i in c)
        assert seen == list(range(15))

    def test_add_singleton_restores_invariants(self, engine):
        # Simulate an expulsion: deactivate a slot, then re-add a record.
        engine.members[5] = None
        engine._deactivate(5)
        engine._add_singleton(5)
        assert engine.active[5]
        assert engine.members[5] == [5]
        _check_matrix_invariants(engine)

    def test_deactivate_poisons_row_and_column(self, engine):
        engine._deactivate(3)
        assert not np.isfinite(engine.matrix[3]).any()
        assert not np.isfinite(engine.matrix[:, 3]).any()
        assert engine.row_min[3] == np.inf
        assert 3 in engine.free_slots


# --------------------------------------------------------------------- #
# blocked all-pairs init
# --------------------------------------------------------------------- #


def _broadcast_init(eng):
    """The one-shot n×n broadcast init: the oracle for the blocked fill."""
    enc, model = eng.enc, eng.model
    n = enc.num_records
    cost_union = np.zeros((n, n), dtype=np.float64)
    col = eng.nodes
    for j, att in enumerate(enc.attrs):
        joined = att.join[col[:, None, j], col[None, :, j]]
        cost_union += model.node_costs[j][joined]
    cost_union /= enc.num_attributes
    dist = eng.distance.evaluate(
        eng.sizes[:, None],
        eng.costs[:, None],
        eng.sizes[None, :],
        eng.costs[None, :],
        cost_union,
    )
    dist = np.asarray(dist, dtype=np.float64)
    np.fill_diagonal(dist, np.inf)
    return dist, dist.min(axis=1), dist.argmin(axis=1)


def _prepared_engine(model, distance, groups):
    """An engine whose first slot of each group holds the group's
    closure, size and cost, as after a run of merges."""
    eng = _Engine.__new__(_Engine)
    eng._init_slots(model, distance, 4)
    enc = model.enc
    for group in groups:
        slot = group[0]
        eng.nodes[slot] = enc.closure_of_records(group)
        eng.sizes[slot] = len(group)
        eng.costs[slot] = float(model.record_cost(eng.nodes[slot]))
    return eng


class TestBlockedInit:
    """``_init_distances`` fills the matrix in row blocks; the matrix,
    ``row_min`` and ``row_arg`` must equal the broadcast's bit for bit,
    whatever the block size."""

    @pytest.mark.parametrize("rows_per_block", [None, 7, 1])
    @pytest.mark.parametrize("measure", ["lm", "entropy"])
    @pytest.mark.parametrize("distance", distance_names())
    def test_equals_broadcast(self, monkeypatch, distance, measure, rows_per_block):
        # ART has many duplicate rows, so row minima tie and the
        # first-index argmin is exercised.
        enc = EncodedTable(load("art", n=90, seed=2))
        model = CostModel(enc, get_measure(measure))
        n = enc.num_records
        if rows_per_block is not None:
            monkeypatch.setattr(
                agglomerative_module, "_BLOCK_CELLS", rows_per_block * n
            )
        singletons = [[i] for i in range(n)]
        prepared = [list(range(a, min(a + 3, n))) for a in range(0, n, 3)]
        for groups in (singletons, prepared):
            eng = _prepared_engine(model, get_distance(distance), groups)
            eng._init_distances()
            matrix, row_min, row_arg = _broadcast_init(eng)
            assert eng.matrix.tobytes() == matrix.tobytes()
            assert eng.row_min.tobytes() == row_min.tobytes()
            assert np.array_equal(eng.row_arg, row_arg)

    def test_checkpoints_once_per_block(self, monkeypatch):
        enc = EncodedTable(load("art", n=50, seed=2))
        model = CostModel(enc, LMMeasure())
        monkeypatch.setattr(agglomerative_module, "_BLOCK_CELLS", 8 * 50)
        sites = []
        monkeypatch.setattr(agglomerative_module, "checkpoint", sites.append)
        _Engine(model, get_distance("d3"), 5)
        assert sites == ["core.agglomerative.init"] * 7  # ceil(50 / 8)


# --------------------------------------------------------------------- #
# join-folded merge closures
# --------------------------------------------------------------------- #


def _non_laminar_table() -> Table:
    """One attribute whose join fold over-generalizes: the closure of
    {a, b} is {a, b, c}, and {a, b, c} ∪ {d} only fits the full set,
    while the closure of {a, b, d} is {a, b, d, e}."""
    letters = Attribute("letter", ["a", "b", "c", "d", "e"])
    coll = SubsetCollection(letters, [["a", "b", "c"], ["a", "b", "d", "e"]])
    rows = [(v,) for v in "abdceabd"]
    return Table(Schema([coll]), rows)


class _ClosureCheckedEngine(_Engine):
    """Checks every refreshed slot's closure against its members."""

    checked = 0

    def _refresh_row(self, x):
        want = self.enc.closure_of_records(self.members[x])
        assert self.nodes[x].tobytes() == want.tobytes()
        self.checked += 1
        super()._refresh_row(x)


class TestMergedClosure:
    @pytest.mark.parametrize(
        "table",
        [
            lambda: make_random_table(40, seed=3, domain_sizes=(6, 4, 3)),
            make_interval_table,
        ],
        ids=["laminar", "intervals"],
    )
    def test_join_fold_equals_closure_of_records(self, table):
        enc = EncodedTable(table())
        assert enc.exact_joins
        model = CostModel(enc, LMMeasure())
        for modified in (False, True):
            eng = _ClosureCheckedEngine(model, get_distance("d3"), 6)
            eng.run(modified)
            assert eng.checked > enc.num_records // 2
        rng = np.random.default_rng(0)
        eng = _Engine(model, get_distance("d3"), 6)
        for _ in range(50):
            perm = rng.permutation(enc.num_records)
            left, right = perm[:3].tolist(), perm[3:7].tolist()
            eng.nodes[0] = enc.closure_of_records(left)
            eng.nodes[1] = enc.closure_of_records(right)
            got = eng._merged_closure(0, 1, left + right)
            want = enc.closure_of_records(left + right)
            assert got.tobytes() == want.tobytes()

    def test_non_laminar_takes_closure_of_records(self):
        enc = EncodedTable(_non_laminar_table())
        assert not enc.exact_joins
        model = CostModel(enc, LMMeasure())
        eng = _Engine(model, get_distance("d3"), 3)
        left, right = [0, 1], [2]  # {a, b} and {d}
        eng.nodes[0] = enc.closure_of_records(left)
        eng.nodes[2] = enc.closure_of_records(right)
        want = enc.closure_of_records(left + right)
        folded = enc.join_rows(eng.nodes[0], eng.nodes[2])
        assert folded.tobytes() != want.tobytes()  # the fold over-generalizes
        got = eng._merged_closure(0, 2, left + right)
        assert got.tobytes() == want.tobytes()
        checked = _ClosureCheckedEngine(model, get_distance("d3"), 3)
        checked.run(False)
        assert checked.checked > 0


# --------------------------------------------------------------------- #
# paper-size pins
# --------------------------------------------------------------------- #

#: SHA-256 of the int32 node matrices of ``agglomerative_clustering``
#: (k=5, dataset seed 1).  The d3 rows were computed with the one-shot
#: broadcast init, per-row ``join_rows`` + ``record_cost`` pricing and
#: per-member merge closures; the rows for the other distances with the
#: blocked init and fused pricing, which reproduce the d3 rows bit for
#: bit.
PINNED = {
    ("art", 1000, "d1", "lm", False): "e41e5c93b63f821c69a3d4b0e65efd029724838b24b4b83ba8291bce5e6d7f2d",
    ("art", 1000, "d1", "entropy", True): "21761aa8d2d26dd0a9c08c5605863c5ebf94cb69450a8efd0251305eff191a59",
    ("art", 1000, "d2", "lm", False): "42e03f4cec9e8e5a9ad957c1fa32f2da73259aeedb907c3241f29c763409d66e",
    ("art", 1000, "d2", "entropy", True): "a101b9b592a357e7d2d3188e7753d4d875734bf6e1a346e4ec5823af21200157",
    ("art", 1000, "d3", "lm", False): "624b6f52d06a5c21eaa5d63977cc4dfa7ebfb81b5cd3b0af34bd838477d86ea8",
    ("art", 1000, "d3", "entropy", True): "d75bb5b0a29b1a6abd6050a823bac7625d8fce38392b45edcd3c1688c4276d6f",
    ("art", 1000, "d4", "lm", False): "5ea607d35de6a094fe142f5fa6d24825a3ba60c962c5763869d6412d56d9d2ad",
    ("art", 1000, "d4", "entropy", True): "ce457b5159aa8bd44e8968fc89f40b2ceb95a51b716eeb6f05f2219d54c89625",
    ("art", 1000, "nc", "lm", False): "61e3d47b4c050c2d26fbb90468489ab49b6258ae01bef8f9c2068dd7230646e0",
    ("art", 1000, "nc", "entropy", True): "42ea89641a554b62810c043bd6c6f04206056cec7bdae39d172b8d25e6b8a5d5",
    ("cmc", 1500, "d3", "lm", False): "786a7800e5774b00a89325704e34341d302e4d80f689bb754db142cfa3f1803e",
    ("cmc", 1500, "d3", "entropy", True): "3cfdcc52a05c0f964cb34f7dd399c2952310d1505efb89b2252909a47e904a4b",
}


def _node_digest(nodes: np.ndarray) -> str:
    assert nodes.dtype == np.int32
    return hashlib.sha256(np.ascontiguousarray(nodes).tobytes()).hexdigest()


def _pin_id(key) -> str:
    """Test id of a pin; rows on d3, ``anonymize``'s default distance,
    leave the distance out (``art-1000-lm-False``)."""
    dataset, n, distance, measure, modified = key
    parts = [dataset, n] + ([] if distance == "d3" else [distance])
    return "-".join(str(p) for p in parts + [measure, modified])


@pytest.mark.parametrize(
    "dataset,n,distance,measure,modified",
    sorted(PINNED),
    ids=[_pin_id(key) for key in sorted(PINNED)],
)
def test_pinned_paper_size_outputs(dataset, n, distance, measure, modified):
    enc = EncodedTable(load(dataset, n=n, seed=1))
    model = CostModel(enc, get_measure(measure))
    clustering = agglomerative_clustering(
        model, 5, get_distance(distance), modified=modified
    )
    nodes = clustering_to_nodes(enc, clustering)
    assert _node_digest(nodes) == PINNED[(dataset, n, distance, measure, modified)]


#: ``anonymize`` on ART 10k (dataset seed 0, LM, d3, k=10): the largest
#: table the n² matrix is run on in the test suite.  Beyond it, tables
#: go through ``blocked_agglomerative`` (``tests/test_scalable.py``).
ART_10K_DIGEST = "950e65a8b57654aa2baaa21e602dda14c82e1eb644d0675336208bd73765c28e"


@pytest.mark.slow
def test_pinned_ten_thousand_records():
    result = anonymize(
        load("art", n=10_000, seed=0), k=10, notion="k", measure="lm",
        algorithm="agglomerative", distance="d3",
    )
    assert _node_digest(result.node_matrix) == ART_10K_DIGEST
    assert result.cost == 0.14264282407407405
