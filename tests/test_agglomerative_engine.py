"""White-box tests for the agglomerative engine's internal machinery.

The slot recycling, matrix maintenance, compaction and widening, and
the row-minimum caching are the engine's riskiest parts; these tests
drive the private `_Engine` state directly on small inputs where every
invariant can be checked, bit for bit, against a from-scratch
recomputation of the specified pair values.  The blocked all-pairs init
is checked bit for bit against the one-shot n×n broadcast it replaced,
the join-folded merge closure against ``closure_of_records``, and
paper-size outputs against SHA-256 pins.
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
from repro.obs import MetricsRegistry, metrics_scope
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


def _fresh_values(eng):
    """``dist(a, b)`` of every pair of active columns, from scratch:
    each closure the closure of the members, each cost its record cost,
    each union priced at the join of the two closures, the pair's lower
    slot as A.  Returns the active columns, their ``[m, r]`` closures,
    costs, and the ``[m, m]`` values (inf on the diagonal)."""
    enc, model = eng.enc, eng.model
    act = np.flatnonzero(eng.active)
    closures = np.array(
        [enc.closure_of_records(eng.members[j]) for j in act], dtype=np.int32
    ).reshape(act.size, enc.num_attributes)
    costs = np.asarray(model.record_cost(closures), dtype=np.float64)
    sizes = np.array([len(eng.members[j]) for j in act], dtype=np.int64)
    union = model.record_cost(enc.join_rows(closures[:, None], closures[None]))
    values = np.asarray(
        eng.distance.evaluate(
            sizes[:, None], costs[:, None], sizes[None], costs[None], union
        ),
        dtype=np.float64,
    ).reshape(act.size, act.size)
    slots = eng.cols[act]
    values = np.where(slots[:, None] < slots, values, values.T)
    np.fill_diagonal(values, np.inf)
    return act, closures, costs, values


def _check_matrix_invariants(eng):
    """The engine's invariants, exactly.

    Layout: ``cols`` ascending, ``pos`` its inverse, a square matrix in
    the shared buffer, C-contiguous ``intp`` closure nodes (the kernel's
    gather indices), every per-column array ``w`` long, the mask and
    the penalty in agreement.  Values: active columns' closures and
    costs are their members', live entries the fresh lower-slot-oriented
    values bit for bit.  Minima: an exact row holds its first-index
    minimum and a ``row_sec`` no greater than any other live entry; a
    stale row holds ``row_arg == -1`` and a lower bound in both
    ``row_min`` and ``row_sec``; a retired row ``-1`` and +inf.  (A lone
    active column has no pair, so no argument to check.)
    """
    w = eng.cols.size
    assert (np.diff(eng.cols) > 0).all()
    assert (eng.pos[eng.cols] == np.arange(w)).all()
    assert (eng.pos >= 0).sum() == w
    assert eng.matrix.shape == (w, w)
    assert np.shares_memory(eng.matrix, eng._buffer)
    assert eng.nodes_t.shape == (eng.enc.num_attributes, w)
    assert eng.nodes_t.dtype == np.intp
    assert eng.nodes_t.flags.c_contiguous
    per_column = (
        "sizes", "costs", "active", "penalty", "row_min", "row_sec", "row_arg"
    )
    for name in per_column:
        assert getattr(eng, name).shape == (w,), name
    assert len(eng.members) == w
    assert np.array_equal(eng.penalty == 0, eng.active)
    assert (eng.penalty[~eng.active] == np.inf).all()
    retired = ~eng.active
    assert (eng.row_arg[retired] == -1).all()
    assert (eng.row_min[retired] == np.inf).all()

    act, closures, costs, values = _fresh_values(eng)
    assert eng.alive == act.size
    if not act.size:
        return
    assert np.array_equal(eng.nodes_t[:, act].T, closures)
    assert eng.costs[act].tobytes() == costs.tobytes()
    assert eng.matrix[np.ix_(act, act)].tobytes() == values.tobytes()
    first = values.argmin(axis=1)
    index = np.arange(act.size)
    least = values[index, first]
    others = values.copy()
    others[index, first] = np.inf
    second = others.min(axis=1)
    for i, col in enumerate(act):
        if eng.row_arg[col] < 0:
            assert eng.row_min[col] <= least[i]
            assert eng.row_sec[col] == eng.row_min[col]
        else:
            assert eng.row_min[col].tobytes() == least[i].tobytes()
            assert act.size == 1 or eng.row_arg[col] == act[first[i]]
            assert eng.row_sec[col] <= second[i]


def _full_run_tables(seed):
    """The tables of the full-run checks for one seed: three 24-row
    tables with many duplicate rows, so ties and expels are common."""
    return [
        EncodedTable(make_random_table(24, seed=t, domain_sizes=(4, 3)))
        for t in (seed, seed + 4, seed + 8)
    ]


class _CountingEngine(_Engine):
    """Counts the widenings of a run."""

    widened = 0

    def _widen(self, slot):
        self.widened += 1
        return super()._widen(slot)


class _InvariantCheckedEngine(_CountingEngine):
    """Checks every invariant after every merge of a full run."""

    checked = 0

    def _merge(self, x, y, modified):
        super()._merge(x, y, modified)
        _check_matrix_invariants(self)
        self.checked += 1


class TestEngineInternals:
    def test_initial_state(self, engine):
        n = engine.enc.num_records
        assert engine.active.sum() == n
        assert all(engine.members[i] == [i] for i in range(n))
        assert (engine.sizes == 1).all()
        assert np.allclose(engine.costs, 0.0)
        assert not np.isfinite(np.diag(engine.matrix)).any()
        assert (engine.row_arg >= 0).all()
        assert np.array_equal(engine.nodes_t, engine.enc.singleton_nodes.T)
        _check_matrix_invariants(engine)

    def test_one_attribute_nodes_do_not_alias_the_encoding(self):
        # For r = 1 the transpose is already contiguous: the engine's
        # closure nodes must still be a copy, or merges would write
        # closures into the encoded singletons.
        table = make_random_table(10, seed=2, domain_sizes=(6,))
        enc = EncodedTable(table)
        before = enc.singleton_nodes.copy()
        eng = _Engine(CostModel(enc, LMMeasure()), get_distance("d3"), 4)
        assert not np.shares_memory(eng.nodes_t, enc.singleton_nodes)
        eng.run(True)
        assert enc.singleton_nodes.tobytes() == before.tobytes()

    def test_matrix_symmetric(self, engine):
        assert engine.matrix.tobytes() == engine.matrix.T.tobytes()

    def test_invariants_survive_merges(self, engine):
        # Drive merge steps by hand, compacting once midway, and
        # re-check everything after each.
        steps = 0
        while engine.alive > 1:
            pair = engine._pop_closest_pair()
            assert pair is not None
            engine._merge(*pair, modified=False)
            steps += 1
            if steps == 3:
                engine._compact()
                assert engine.cols.size == engine.alive
            _check_matrix_invariants(engine)
        assert steps > 3

    @pytest.mark.parametrize("rows_per_block", [None, 1])
    @pytest.mark.parametrize("distance", distance_names())
    @pytest.mark.parametrize("seed", range(4))
    def test_invariants_hold_through_full_runs(
        self, monkeypatch, seed, distance, rows_per_block
    ):
        # Plain k=3 and modified k=5 runs under both measures.  Modified
        # runs expel records into recycled slots, some of them compacted
        # away (the matrix then widens), so every path of the engine is
        # checked; one row per block makes every rescan, compaction and
        # widening move rows one at a time.
        if rows_per_block is not None:
            monkeypatch.setattr(agglomerative_module, "_BLOCK_CELLS", 1)
        for enc in _full_run_tables(seed):
            for measure in ("lm", "entropy"):
                model = CostModel(enc, get_measure(measure))
                for k, modified in ((3, False), (5, True)):
                    eng = _InvariantCheckedEngine(model, get_distance(distance), k)
                    eng.run(modified)
                    assert eng.checked > 0

    def test_full_runs_widen(self):
        # The checked runs above reach every path only if some expelled
        # record gets back a column that compaction took away.
        widened = 0
        for seed in range(4):
            for enc in _full_run_tables(seed):
                for distance in distance_names():
                    for measure in ("lm", "entropy"):
                        model = CostModel(enc, get_measure(measure))
                        eng = _CountingEngine(model, get_distance(distance), 5)
                        eng.run(True)
                        widened += eng.widened
        assert widened > 0

    def test_one_row_blocks_give_the_same_clustering(self, monkeypatch):
        # Repairs, compactions and widenings move a block of rows at a
        # time; the block size must not change a single merge.
        adt = EncodedTable(load("adult", n=400, seed=3))
        cases = [(adt, "lm", False), (adt, "entropy", True)] + [
            (EncodedTable(make_random_table(40, seed=seed, domain_sizes=(4, 3))),
             "entropy", True)
            for seed in range(6)
        ]
        runs = {}
        for cells in (agglomerative_module._BLOCK_CELLS, 1):
            monkeypatch.setattr(agglomerative_module, "_BLOCK_CELLS", cells)
            runs[cells] = []
            for enc, measure, modified in cases:
                model = CostModel(enc, get_measure(measure))
                eng = _CountingEngine(model, get_distance("d1"), 5)
                clustering = eng.run(modified)
                runs[cells].append(
                    (clustering.clusters, eng.stat_rescans, eng.widened)
                )
        default, one_row = runs.values()
        assert default == one_row
        assert all(rescans > 0 for _, rescans, _ in default)
        assert sum(widened for *_, widened in default) > 0

    def test_pop_closest_pair_is_lowest_least_pair(self, engine):
        while engine.alive > 1:
            act, _, _, values = _fresh_values(engine)
            i, j = np.unravel_index(values.argmin(), values.shape)
            assert engine._pop_closest_pair() == (act[i], act[j])
            engine._merge(act[i], act[j], modified=False)

    def test_pop_closest_pair_is_true_minimum(self, engine):
        pair = engine._pop_closest_pair()
        assert pair is not None
        x, y = pair
        assert x < y
        *_, values = _fresh_values(engine)
        assert engine.matrix[x, y] == values.min()

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
        # A ripe merge frees both slots, and the rows that cached either
        # go stale; expelled records take the slots back last freed
        # first.
        x, y = engine._pop_closest_pair()
        engine.members[y] = None
        engine._deactivate(y)
        engine.members[x] = None
        engine._deactivate(x)
        lost = (engine.row_arg == x) | (engine.row_arg == y)
        engine.row_min[lost] = engine.row_sec[lost]
        engine.row_arg[lost] = -1
        engine._add_singleton(y)
        engine._add_singleton(x)
        assert engine.members[x] == [y] and engine.members[y] == [x]
        assert engine.active[x] and engine.active[y]
        _check_matrix_invariants(engine)

    def test_deactivate_masks_slot(self, engine):
        before = engine.matrix.copy()
        engine._deactivate(3)
        assert not engine.active[3]
        assert engine.penalty[3] == np.inf
        assert engine.row_min[3] == np.inf
        assert engine.row_arg[3] == -1
        assert engine.free_slots == [3]
        # No matrix write: the mask alone retires the slot.
        assert engine.matrix.tobytes() == before.tobytes()

    def test_compact_keeps_active_columns_in_slot_order(self, engine):
        for slot in (0, 4, 5, 9):
            engine._deactivate(slot)
        act = np.flatnonzero(engine.active)
        before = engine.matrix[np.ix_(act, act)].copy()
        engine._compact()
        assert np.array_equal(engine.cols, act)
        assert engine.nodes_t.flags.c_contiguous  # ``[:, keep]`` is F-order
        assert engine.nodes_t.dtype == np.intp
        assert engine.matrix.shape == (act.size, act.size)
        assert engine.matrix.tobytes() == before.tobytes()
        assert np.shares_memory(engine.matrix, engine._buffer)

    def test_widen_inserts_the_slot_in_order(self, engine):
        for slot in (0, 4, 5, 9):
            engine._deactivate(slot)
        engine._compact()
        kept = engine.cols.copy()
        before = engine.matrix.copy()
        x = engine._widen(5)
        assert x == 3
        assert np.array_equal(engine.cols, np.insert(kept, 3, 5))
        assert engine.pos[5] == 3 and engine.pos[4] == -1
        assert not engine.active[3] and engine.penalty[3] == np.inf
        assert engine.nodes_t.flags.c_contiguous
        assert engine.nodes_t.dtype == np.intp
        rest = np.delete(np.arange(kept.size + 1), 3)
        assert engine.matrix[np.ix_(rest, rest)].tobytes() == before.tobytes()
        assert np.shares_memory(engine.matrix, engine._buffer)


# --------------------------------------------------------------------- #
# blocked all-pairs init
# --------------------------------------------------------------------- #


def _broadcast_init(eng):
    """The one-shot n×n broadcast init, each pair with its lower slot as
    A: the oracle for the blocked upper-triangle fill."""
    enc, model = eng.enc, eng.model
    n = enc.num_records
    cost_union = np.zeros((n, n), dtype=np.float64)
    col = eng.nodes_t.T
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
    # Each pair is evaluated with its lower slot as A: the upper
    # triangle's orientation, mirrored.
    rows = np.arange(n)
    dist = np.where(rows[:, None] < rows, dist, dist.T)
    np.fill_diagonal(dist, np.inf)
    second = np.partition(dist, 1, axis=1)[:, 1]
    return dist, dist.min(axis=1), dist.argmin(axis=1), second


def _prepared_engine(model, distance, groups):
    """An engine whose first column of each group holds the group's
    closure, size and cost, as after a run of merges."""
    eng = _Engine.__new__(_Engine)
    eng._init_slots(model, distance, 4)
    enc = model.enc
    for group in groups:
        col = group[0]
        eng.nodes_t[:, col] = enc.closure_of_records(group)
        eng.sizes[col] = len(group)
        eng.costs[col] = float(model.record_cost(eng.nodes_t[:, col]))
    return eng


class TestBlockedInit:
    """``_init_distances`` fills the matrix in row blocks; the matrix,
    ``row_min``, ``row_arg`` and ``row_sec`` (the least entry other
    than the argmin's) must equal the broadcast's bit for bit, whatever
    the block size."""

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
            matrix, row_min, row_arg, row_sec = _broadcast_init(eng)
            assert eng.matrix.tobytes() == matrix.tobytes()
            assert eng.row_min.tobytes() == row_min.tobytes()
            assert np.array_equal(eng.row_arg, row_arg)
            assert eng.row_sec.tobytes() == row_sec.tobytes()

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

    def _refresh_row(self, x, freed):
        want = self.enc.closure_of_records(self.members[x])
        assert np.array_equal(self.nodes_t[:, x], want)
        self.checked += 1
        super()._refresh_row(x, freed)


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
            got = eng._merged_closure(
                enc.closure_of_records(left),
                enc.closure_of_records(right),
                left + right,
            )
            want = enc.closure_of_records(left + right)
            assert got.tobytes() == want.tobytes()

    def test_non_laminar_takes_closure_of_records(self):
        enc = EncodedTable(_non_laminar_table())
        assert not enc.exact_joins
        model = CostModel(enc, LMMeasure())
        eng = _Engine(model, get_distance("d3"), 3)
        left, right = [0, 1], [2]  # {a, b} and {d}
        nodes_left = enc.closure_of_records(left)
        nodes_right = enc.closure_of_records(right)
        want = enc.closure_of_records(left + right)
        folded = enc.join_rows(nodes_left, nodes_right)
        assert folded.tobytes() != want.tobytes()  # the fold over-generalizes
        got = eng._merged_closure(nodes_left, nodes_right, left + right)
        assert got.tobytes() == want.tobytes()
        checked = _ClosureCheckedEngine(model, get_distance("d3"), 3)
        checked.run(False)
        assert checked.checked > 0


def _shrink_routes(monkeypatch, table, k):
    """Run Algorithm 2 on ``table``; return (shrinks, scans) call counts."""
    calls = {"shrink": 0, "scan": 0}
    shrink, scan = _Engine._shrink, _Engine._shrink_scan

    def spy_shrink(self, member_list, closure):
        calls["shrink"] += 1
        return shrink(self, member_list, closure)

    def spy_scan(self, member_list, closure):
        calls["scan"] += 1
        return scan(self, member_list, closure)

    monkeypatch.setattr(_Engine, "_shrink", spy_shrink)
    monkeypatch.setattr(_Engine, "_shrink_scan", spy_scan)
    model = CostModel(EncodedTable(table), LMMeasure())
    agglomerative_clustering(model, k, get_distance("d3"), modified=True)
    return calls["shrink"], calls["scan"]


class TestShrinkRouting:
    """Algorithm 2 shrinks by join folds under exact joins and by the
    per-subset scan otherwise."""

    @pytest.mark.parametrize(
        "table",
        [
            lambda: make_random_table(40, seed=3, domain_sizes=(6, 4, 3)),
            make_interval_table,
            lambda: load("art", n=60, seed=0),
        ],
        ids=["laminar", "intervals", "art"],
    )
    def test_exact_joins_never_scan(self, monkeypatch, table):
        table = table()
        assert EncodedTable(table).exact_joins
        shrinks, scans = _shrink_routes(monkeypatch, table, 4)
        assert shrinks > 0
        assert scans == 0

    def test_non_laminar_always_scans(self, monkeypatch):
        table = _non_laminar_table()
        assert not EncodedTable(table).exact_joins
        shrinks, scans = _shrink_routes(monkeypatch, table, 3)
        assert shrinks > 0
        assert scans == shrinks

    @pytest.mark.parametrize(
        "table,k",
        [
            (lambda: make_random_table(40, seed=3, domain_sizes=(6, 4, 3)), 6),
            (make_interval_table, 8),
            (lambda: load("art", n=150, seed=0), 10),
        ],
        ids=["laminar", "intervals", "art"],
    )
    def test_each_round_prices_the_closure_of_what_it_keeps(
        self, monkeypatch, table, k
    ):
        """Every fold-path shrink round's d(S) is the cost of
        ``closure_of_records`` of the members it keeps, though closures
        are carried from round to round and never scanned."""
        enc = EncodedTable(table())
        model = CostModel(enc, LMMeasure())
        rounds = []
        loo = EncodedTable.leave_one_out_closures

        def spy_loo(self, indices):
            rounds.append(list(indices))
            return loo(self, indices)

        monkeypatch.setattr(EncodedTable, "leave_one_out_closures", spy_loo)
        priced = []
        d3 = get_distance("d3")

        class RoundSpy:
            def evaluate(self, size_a, cost_a, size_b, cost_b, cost_union):
                if isinstance(size_b, int):  # dist(S, S \ {R}): a round
                    priced.append(cost_a)
                return d3.evaluate(size_a, cost_a, size_b, cost_b, cost_union)

        agglomerative_clustering(model, k, RoundSpy(), modified=True)
        assert priced and len(priced) == len(rounds)
        assert any(  # some round carried a closure from the one before
            len(later) == len(first) - 1 and set(later) < set(first)
            for first, later in zip(rounds, rounds[1:])
        )
        for kept, cost in zip(rounds, priced):
            want = model.record_cost(enc.closure_of_records(kept))
            assert cost == want


def _closure_scans(monkeypatch, table, measure, k, modified):
    """Run Algorithm 1 (or 1+2) on ``table``; return the number of
    ``closure_of_records`` calls it made and its metrics registry."""
    calls = []
    scan = EncodedTable.closure_of_records

    def spy(self, indices):
        calls.append(indices)
        return scan(self, indices)

    model = CostModel(EncodedTable(table), get_measure(measure))
    monkeypatch.setattr(EncodedTable, "closure_of_records", spy)
    registry = MetricsRegistry()
    with metrics_scope(registry):
        agglomerative_clustering(model, k, get_distance("d3"), modified=modified)
    return len(calls), registry


class TestClosureScans:
    """Under exact joins the engine closes every cluster by join folds:
    merges, Algorithm 2 rounds and the leftover step scan no closure."""

    @pytest.mark.parametrize("modified", [False, True])
    @pytest.mark.parametrize("dataset", ["art", "cmc", "adult"])
    def test_exact_joins_scan_no_closure(self, monkeypatch, dataset, modified):
        scans, registry = _closure_scans(
            monkeypatch, load(dataset, n=200, seed=0), "lm", 4, modified
        )
        assert scans == 0
        expelled = registry.counter("core.agglomerative.records_expelled")
        assert (expelled > 0) == modified  # Algorithm 2 shrank clusters

    def test_non_laminar_scans(self, monkeypatch):
        scans, _ = _closure_scans(
            monkeypatch, _non_laminar_table(), "lm", 3, True
        )
        assert scans > 0


# --------------------------------------------------------------------- #
# paper-size pins
# --------------------------------------------------------------------- #

#: SHA-256 of the int32 node matrices of ``agglomerative_clustering``
#: (k=5, dataset seed 1).  The d3 rows were computed with the one-shot
#: broadcast init, per-row ``join_rows`` + ``record_cost`` pricing and
#: per-member merge closures; the rows for the other distances with the
#: blocked init and fused pricing, which reproduce the d3 rows bit for
#: bit.  The nc rows were recomputed when every pair value became
#: evaluated with its lower slot as A: nc is asymmetric by definition.
#: d1–d3 are symmetric up to rounding (``(c − a) − b`` against
#: ``(c − b) − a``) and d4 exactly; none of their rows moved.  The ADT
#: 5000 rows, perfbench's two paper-k ADT cells, were computed with the
#: per-column join→cost kernel over int32 closure nodes, before the
#: cost-of-join tables; they run in the slow tier.
PINNED = {
    ("art", 1000, "d1", "lm", False): "e41e5c93b63f821c69a3d4b0e65efd029724838b24b4b83ba8291bce5e6d7f2d",
    ("art", 1000, "d1", "entropy", True): "21761aa8d2d26dd0a9c08c5605863c5ebf94cb69450a8efd0251305eff191a59",
    ("art", 1000, "d2", "lm", False): "42e03f4cec9e8e5a9ad957c1fa32f2da73259aeedb907c3241f29c763409d66e",
    ("art", 1000, "d2", "entropy", True): "a101b9b592a357e7d2d3188e7753d4d875734bf6e1a346e4ec5823af21200157",
    ("art", 1000, "d3", "lm", False): "624b6f52d06a5c21eaa5d63977cc4dfa7ebfb81b5cd3b0af34bd838477d86ea8",
    ("art", 1000, "d3", "entropy", True): "d75bb5b0a29b1a6abd6050a823bac7625d8fce38392b45edcd3c1688c4276d6f",
    ("art", 1000, "d4", "lm", False): "5ea607d35de6a094fe142f5fa6d24825a3ba60c962c5763869d6412d56d9d2ad",
    ("art", 1000, "d4", "entropy", True): "ce457b5159aa8bd44e8968fc89f40b2ceb95a51b716eeb6f05f2219d54c89625",
    ("art", 1000, "nc", "lm", False): "89a314a0eac70108ae9831c6093b8798255a616044a4e65250325515854f9a0f",
    ("art", 1000, "nc", "entropy", True): "90fc8026aac85c3c96d1c0ccd48bd83c356b0461518f3e84478394e6d76f03f7",
    ("cmc", 1500, "d3", "lm", False): "786a7800e5774b00a89325704e34341d302e4d80f689bb754db142cfa3f1803e",
    ("cmc", 1500, "d3", "entropy", True): "3cfdcc52a05c0f964cb34f7dd399c2952310d1505efb89b2252909a47e904a4b",
    ("adult", 5000, "d3", "lm", False): "8d12a52156173be3f6bca1a340a7710c40748a88e57650db9b05a094ade359d3",
    ("adult", 5000, "d3", "entropy", True): "a6109eec1491da72ed0a7321ef3356f8274d0b727fc34aab288dddfb96538ff5",
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


def _pin_param(key):
    """A pin as a test case; the ADT 5000 rows are slow."""
    marks = [pytest.mark.slow] if key[0] == "adult" else []
    return pytest.param(*key, id=_pin_id(key), marks=marks)


@pytest.mark.parametrize(
    "dataset,n,distance,measure,modified", [_pin_param(key) for key in sorted(PINNED)]
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
