"""Tests for :mod:`repro.obs`: tracing, metrics, and the no-interference
acceptance criteria.

The load-bearing promises drilled here:

* with tracing/metrics **off**, the hot paths see one ContextVar read
  and journals are byte-identical to pre-observability journals;
* with them **on**, results do not change — a traced grid (including a
  fault-injected kill + resume) produces the same canonical journal
  lines and bit-identical costs as an untraced one;
* fake clocks yield byte-deterministic traces, and every instrumented
  layer's work counters actually count.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.core.agglomerative import agglomerative_clustering
from repro.core.distances import get_distance
from repro.experiments.configs import ExperimentConfig
from repro.experiments.runner import ExperimentRunner, RunKey, RunOutcome
from repro.matching.bruteforce import kuhn_matching
from repro.matching.hopcroft_karp import hopcroft_karp
from repro.obs import (
    Histogram,
    MetricsRegistry,
    NullRegistry,
    NullTracer,
    Tracer,
    active_registries,
    active_tracer,
    chrome_trace,
    count,
    gauge,
    load_trace,
    metrics_scope,
    observe,
    observe_site,
    span,
    trace_scope,
    write_chrome_trace,
)
from repro.obs.metrics import _bucket_exponent
from repro.obs.summarize import summarize, summarize_metrics, summarize_spans
from repro.perf import canonical_journal_entries
from repro.errors import InjectedFault
from repro.runtime import (
    FaultPlan,
    Journal,
    RetryPolicy,
    call_with_retry,
    fault_scope,
)
from repro.runtime.fallback import Rung, run_with_fallback

#: Tiny grid shared by the runner-integration drills.
SMALL = ExperimentConfig(sizes={"art": 60, "adult": 60, "cmc": 60})


class FakeClock:
    """Deterministic monotonic clock: each read advances by ``step``."""

    def __init__(self, start: float = 100.0, step: float = 0.25) -> None:
        self.now = start
        self.step = step

    def __call__(self) -> float:
        value = self.now
        self.now += self.step
        return value


def _grid(runner: ExperimentRunner) -> list[RunOutcome]:
    """Six deterministic cells on art, including a matcher-heavy one."""
    outcomes = []
    for k in (2, 3):
        outcomes.append(runner.agglomerative("art", "entropy", k, "d3"))
        outcomes.append(runner.forest("art", "entropy", k))
        outcomes.append(runner.kk("art", "entropy", k))
    return outcomes


# --------------------------------------------------------------------- #
# histograms
# --------------------------------------------------------------------- #


class TestHistogram:
    def test_bucket_exponent_boundaries_are_exact(self):
        # Bucket e holds (2**(e-1), 2**e]: powers of two land *in* their
        # own bucket, the next float above them in the one after.
        assert _bucket_exponent(4.0) == 2
        assert _bucket_exponent(4.000001) == 3
        assert _bucket_exponent(1.0) == 0
        assert _bucket_exponent(0.5) == -1
        assert _bucket_exponent(3.0) == 2

    def test_nonpositive_lands_in_underflow_bucket(self):
        assert _bucket_exponent(0.0) == -31
        assert _bucket_exponent(-5.0) == -31

    def test_extremes_clamp_to_edge_buckets(self):
        assert _bucket_exponent(1e-30) == -30
        assert _bucket_exponent(1e30) == 30

    def test_exact_aggregates_ride_along(self):
        hist = Histogram()
        for value in (1.0, 2.0, 3.0, 100.0):
            hist.observe(value)
        snap = hist.snapshot()
        assert snap["count"] == 4
        assert snap["sum"] == pytest.approx(106.0)
        assert snap["min"] == 1.0
        assert snap["max"] == 100.0
        # 1.0 -> bucket 0, 2.0 -> 1, 3.0 -> 2, 100.0 -> 7; string keys.
        assert snap["buckets"] == {"0": 1, "1": 1, "2": 1, "7": 1}

    def test_empty_snapshot_has_null_extremes(self):
        snap = Histogram().snapshot()
        assert snap["count"] == 0
        assert snap["min"] is None and snap["max"] is None

    def test_merge_is_lossless_addition(self):
        left, right, both = Histogram(), Histogram(), Histogram()
        for value in (0.5, 8.0):
            left.observe(value)
            both.observe(value)
        for value in (8.0, 0.25):  # binary-exact: sum order can't drift
            right.observe(value)
            both.observe(value)
        left.merge(right.snapshot())
        assert left.snapshot() == both.snapshot()


# --------------------------------------------------------------------- #
# registries and the ambient scope stack
# --------------------------------------------------------------------- #


class TestMetricsRegistry:
    def test_module_helpers_are_noops_without_a_scope(self):
        assert active_registries() == ()
        count("nobody.listening")  # must not raise
        gauge("nobody.listening", 1.0)
        observe("nobody.listening", 1.0)

    def test_scope_stack_fans_out_to_every_registry(self):
        outer, inner = MetricsRegistry(), MetricsRegistry()
        with metrics_scope(outer):
            count("a", 2)
            with metrics_scope(inner):
                count("a", 3)
                observe("h", 1.0)
        assert outer.counter("a") == 5  # both increments
        assert inner.counter("a") == 3  # only the nested one
        assert outer.snapshot()["histograms"]["h"]["count"] == 1

    def test_null_registry_is_never_installed(self):
        with metrics_scope(NullRegistry()) as registry:
            assert active_registries() == ()
            registry.inc("x")
            registry.observe("y", 1.0)
        assert registry.snapshot()["counters"] == {}

    def test_scope_pops_on_exception(self):
        with pytest.raises(RuntimeError):
            with metrics_scope(MetricsRegistry()):
                raise RuntimeError("boom")
        assert active_registries() == ()

    def test_snapshot_is_key_sorted_and_json_stable(self):
        registry = MetricsRegistry()
        with metrics_scope(registry):
            count("zeta")
            count("alpha", 2)
            gauge("mid", 7.0)
        snap = registry.snapshot()
        assert list(snap["counters"]) == ["alpha", "zeta"]
        twin = MetricsRegistry()
        with metrics_scope(twin):
            count("zeta")
            count("alpha", 2)
            gauge("mid", 7.0)
        assert json.dumps(snap, sort_keys=True) == json.dumps(
            twin.snapshot(), sort_keys=True
        )

    def test_merge_snapshot_adds_counters_lastwrites_gauges(self):
        registry = MetricsRegistry()
        registry.inc("c", 1)
        registry.set_gauge("g", 1.0)
        registry.merge_snapshot(
            {"v": 1, "counters": {"c": 4}, "gauges": {"g": 9.0}}
        )
        assert registry.counter("c") == 5
        assert registry.snapshot()["gauges"]["g"] == 9.0

    def test_snapshot_round_trips_through_merge(self):
        source = MetricsRegistry()
        with metrics_scope(source):
            count("c", 3)
            gauge("g", 2.5)
            observe("h", 0.75)
            observe("h", 12.0)
        snap = source.snapshot()
        rebuilt = MetricsRegistry()
        rebuilt.merge_snapshot(snap)
        assert rebuilt.snapshot() == snap

    def test_concurrent_increments_are_not_lost(self):
        registry = MetricsRegistry()
        per_thread, threads = 2000, 8

        def slam() -> None:
            for _ in range(per_thread):
                registry.inc("hits")

        workers = [threading.Thread(target=slam) for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        assert registry.counter("hits") == per_thread * threads


# --------------------------------------------------------------------- #
# tracer
# --------------------------------------------------------------------- #


class TestTracer:
    def test_fake_clock_yields_byte_deterministic_traces(self, tmp_path):
        paths = []
        for run in ("a", "b"):
            path = tmp_path / f"{run}.jsonl"
            tracer = Tracer(path, clock=FakeClock(), pid=1, tid=lambda: 2)
            with trace_scope(tracer):
                with span("outer", label="x"):
                    with span("inner"):
                        pass
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_spans_nest_and_complete_children_first(self):
        tracer = Tracer(clock=FakeClock(), pid=1, tid=lambda: 2)
        with trace_scope(tracer):
            with span("parent"):
                with span("child"):
                    pass
        assert [e["name"] for e in tracer.events] == ["child", "parent"]
        child, parent = tracer.events
        assert child["ts"] >= parent["ts"]
        assert parent["dur"] > child["dur"]

    def test_args_payload_and_site_tallies_are_recorded(self):
        tracer = Tracer(clock=FakeClock(), pid=1, tid=lambda: 2)
        with trace_scope(tracer):
            with span("work", dataset="art", k=5):
                observe_site("core.loop")
                observe_site("core.loop")
                observe_site("io.read")
        (event,) = tracer.events
        assert event["args"] == {"dataset": "art", "k": 5}
        assert event["sites"] == {"core.loop": 2, "io.read": 1}

    def test_sites_tally_into_the_innermost_open_span(self):
        tracer = Tracer(clock=FakeClock(), pid=1, tid=lambda: 2)
        with trace_scope(tracer):
            with span("outer"):
                observe_site("before")
                with span("inner"):
                    observe_site("during")
                observe_site("after")
        inner, outer = tracer.events
        assert inner["sites"] == {"during": 1}
        assert outer["sites"] == {"before": 1, "after": 1}

    def test_observe_site_without_tracer_or_span_is_silent(self):
        observe_site("nobody.listening")  # no tracer: pure no-op
        tracer = Tracer(clock=FakeClock())
        with trace_scope(tracer):
            observe_site("outside.any.span")  # dropped, not an error
        assert tracer.events == []

    def test_null_tracer_is_never_installed(self):
        with trace_scope(NullTracer()) as tracer:
            assert active_tracer() is None
            with tracer.span("ghost"):
                pass
        assert tracer.events == []

    def test_module_span_is_noop_without_a_tracer(self):
        with span("unobserved", detail=1):
            pass  # must not raise, must not record anywhere

    def test_jsonl_round_trips_through_load_trace(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(path, clock=FakeClock(), pid=7, tid=lambda: 9)
        with trace_scope(tracer):
            with span("one", n=1):
                observe_site("site")
            with span("two"):
                pass
        events = load_trace(path)
        assert events == tracer.events

    def test_torn_final_line_is_skipped(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(path, clock=FakeClock(), pid=1, tid=lambda: 2)
        with trace_scope(tracer):
            with span("kept"):
                pass
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"v": 1, "name": "torn", "ts":')  # crash mid-write
        events = load_trace(path)
        assert [e["name"] for e in events] == ["kept"]

    def test_chrome_trace_conversion_shape_and_units(self):
        events = [
            {
                "v": 1, "name": "cell", "ts": 1.5, "dur": 0.25,
                "pid": 3, "tid": 4,
                "args": {"k": 5}, "sites": {"core.loop": 2},
            }
        ]
        chrome = chrome_trace(events)
        assert chrome["displayTimeUnit"] == "ms"
        (entry,) = chrome["traceEvents"]
        assert entry["ph"] == "X"
        assert entry["cat"] == "repro"
        assert entry["ts"] == pytest.approx(1.5e6)  # seconds -> µs
        assert entry["dur"] == pytest.approx(0.25e6)
        assert entry["args"] == {"k": 5, "sites": {"core.loop": 2}}

    def test_write_chrome_trace_is_valid_json_with_no_temp_left(
        self, tmp_path
    ):
        target = tmp_path / "trace.chrome.json"
        write_chrome_trace(
            [{"name": "a", "ts": 0.0, "dur": 1.0, "pid": 1, "tid": 1}], target
        )
        payload = json.loads(target.read_text())
        assert payload["traceEvents"][0]["name"] == "a"
        assert list(tmp_path.iterdir()) == [target]


# --------------------------------------------------------------------- #
# instrumented layers actually count work
# --------------------------------------------------------------------- #


class TestInstrumentationCounters:
    def test_agglomerative_work_counters(self, entropy_model):
        registry = MetricsRegistry()
        with metrics_scope(registry):
            clustering = agglomerative_clustering(
                entropy_model, 3, get_distance("d3")
            )
        merges = registry.counter("core.agglomerative.merges")
        assert merges > 0
        # Every merge trips the lazy argmin at least once, and the merge
        # count can never exceed the total cluster-count reduction (the
        # Line-10 leftover distribution absorbs the remainder).
        assert registry.counter("core.agglomerative.candidates_scanned") >= merges
        n = entropy_model.enc.num_records
        assert merges <= n - clustering.num_clusters

    def test_agglomerative_shrink_counters(self, entropy_model):
        registry = MetricsRegistry()
        with metrics_scope(registry):
            agglomerative_clustering(
                entropy_model, 3, get_distance("d3"), modified=True
            )
        # Algorithm 2 shrinking examines leave-one-out candidates; the
        # tally must be visible whenever the modified variant runs.
        assert registry.counter("core.agglomerative.shrink_candidates") > 0

    def test_hopcroft_karp_counters(self):
        registry = MetricsRegistry()
        adj = [[0, 1], [0], [1, 2]]
        with metrics_scope(registry):
            *_, size = hopcroft_karp(adj, 3)
        assert size == 3
        assert registry.counter("matching.hopcroft_karp.augmenting_paths") == 3
        assert registry.counter("matching.hopcroft_karp.phases") >= 1
        assert registry.counter("matching.hopcroft_karp.path_steps") >= 3

    def test_match_class_counter(self):
        from repro.core.relations import kk_attack_example, nodes_from_value_lists
        from repro.matching.bipartite import ConsistencyGraph
        from repro.tabular.encoding import EncodedTable

        table, gen = kk_attack_example()
        enc = EncodedTable(table)
        registry = MetricsRegistry()
        with metrics_scope(registry):
            ConsistencyGraph(enc, nodes_from_value_lists(enc, gen)).match_counts()
        # Six distinct rows; records 5 and 6 share the generalization
        # {5,6}, so their classes merge.
        assert registry.counter("matching.allowed.classes") == 5
        assert registry.counter("matching.hopcroft_karp.phases") == 0

    def test_kuhn_counters(self):
        registry = MetricsRegistry()
        adj = [[0, 1], [0], [1, 2]]
        with metrics_scope(registry):
            *_, size = kuhn_matching(adj, 3)
        assert size == 3
        assert registry.counter("matching.kuhn.augmenting_paths") == 3
        assert registry.counter("matching.kuhn.path_steps") >= 3

    def test_retry_counters(self):
        registry = MetricsRegistry()
        calls = {"n": 0}

        def flaky() -> str:
            calls["n"] += 1
            if calls["n"] <= 2:
                raise OSError("disk hiccup")
            return "ok"

        with metrics_scope(registry):
            call_with_retry(
                flaky,
                policy=RetryPolicy(attempts=4, jitter=0.0),
                sleep=lambda _: None,
            )
        assert registry.counter("runtime.retry.attempts") == 3
        assert registry.counter("runtime.retry.retries") == 2

    def test_fallback_rung_outcome_counters(self, small_table):
        registry = MetricsRegistry()
        with metrics_scope(registry):
            outcome = run_with_fallback(small_table, 3)
        assert outcome.ok
        assert registry.counter("runtime.fallback.rung.ok") == 1

    def test_suppress_rung_counts_suppressed_records(self, small_table):
        registry = MetricsRegistry()
        chain = (Rung("suppress", notion="k", algorithm="suppress"),)
        with metrics_scope(registry):
            run_with_fallback(small_table, 3, chain=chain)
        assert (
            registry.counter("runtime.fallback.records_suppressed")
            == small_table.num_records
        )

    def test_zero_work_leaves_no_counter_behind(self):
        registry = MetricsRegistry()
        with metrics_scope(registry):
            *_, size = hopcroft_karp([], 0)  # empty graph: nothing to count
        assert size == 0
        assert registry.snapshot()["counters"] == {}


# --------------------------------------------------------------------- #
# experiment runner integration: per-cell deltas, journal compatibility
# --------------------------------------------------------------------- #


class TestRunnerCellMetrics:
    def test_metrics_off_outcome_and_journal_are_clean(self, tmp_path):
        journal = Journal(tmp_path / "grid.jsonl")
        runner = ExperimentRunner(SMALL, journal=journal)
        outcome = runner.forest("art", "entropy", 3)
        assert outcome.metrics is None
        assert "metrics" not in outcome.to_json()
        # Byte-level promise: pre-observability journals are unchanged.
        assert '"metrics"' not in (tmp_path / "grid.jsonl").read_text()

    def test_metrics_on_embeds_cell_delta_and_run_totals(self, tmp_path):
        journal = Journal(tmp_path / "grid.jsonl")
        registry = MetricsRegistry()
        with metrics_scope(registry):
            runner = ExperimentRunner(SMALL, journal=journal)
            outcome = runner.agglomerative("art", "entropy", 3, "d3")
        assert outcome.metrics is not None
        cell_counters = outcome.metrics["counters"]
        assert cell_counters["core.agglomerative.merges"] > 0
        # The cell delta can never exceed the run-level accumulation.
        for name, value in cell_counters.items():
            assert registry.counter(name) >= value
        # The delta rides in the journal and survives resume.
        resumed = ExperimentRunner(SMALL, journal=journal, resume=True)
        key = RunKey("agg", "art", "entropy", 3, distance="d3")
        assert resumed._runs[key].metrics == outcome.metrics

    def test_cell_timing_histogram_goes_to_run_level_only(self):
        registry = MetricsRegistry()
        with metrics_scope(registry):
            runner = ExperimentRunner(SMALL)
            outcome = runner.forest("art", "entropy", 3)
        run_hists = registry.snapshot()["histograms"]
        assert run_hists["experiments.cell_seconds"]["count"] == 1
        # ...but the cell's own delta stays timing-free (deterministic).
        assert "experiments.cell_seconds" not in outcome.metrics["histograms"]

    def test_absorb_folds_worker_snapshot_exactly_once(self):
        registry = MetricsRegistry()
        runner = ExperimentRunner(SMALL)
        key = RunKey("forest", "art", "entropy", 9)
        snapshot = {
            "v": 1, "counters": {"worker.units": 5},
            "gauges": {}, "histograms": {},
        }
        with metrics_scope(registry):
            runner.absorb(key, RunOutcome(1.0, 0.0, metrics=snapshot))
            assert registry.counter("worker.units") == 5
            # A duplicate absorb loses the store and must not re-merge.
            runner.absorb(key, RunOutcome(2.0, 0.0, metrics=snapshot))
        assert registry.counter("worker.units") == 5

    def test_outcome_metrics_do_not_affect_equality(self):
        plain = RunOutcome(1.0, 0.5)
        metered = RunOutcome(1.0, 0.5, metrics={"v": 1, "counters": {}})
        assert plain == metered


# --------------------------------------------------------------------- #
# acceptance: observation does not perturb results
# --------------------------------------------------------------------- #


class TestObservationEquivalence:
    def test_traced_grid_matches_untraced_byte_for_byte(self, tmp_path):
        journals = {}
        costs = {}
        for mode in ("plain", "observed"):
            journal_path = tmp_path / f"{mode}.jsonl"
            runner = ExperimentRunner(SMALL, journal=Journal(journal_path))
            if mode == "observed":
                tracer = Tracer(tmp_path / "trace.jsonl", clock=FakeClock())
                with trace_scope(tracer), metrics_scope(MetricsRegistry()):
                    outcomes = _grid(runner)
            else:
                outcomes = _grid(runner)
            journals[mode] = canonical_journal_entries(Journal(journal_path))
            costs[mode] = [outcome.cost for outcome in outcomes]
        # Bit-identical costs and canonical journal lines: enabling
        # observability must not change a single result.
        assert costs["plain"] == costs["observed"]
        assert journals["plain"] == journals["observed"]

    def test_kill_resume_under_tracing_yields_identical_results(
        self, tmp_path
    ):
        reference = ExperimentRunner(SMALL)
        expected = [outcome.cost for outcome in _grid(reference)]

        journal = Journal(tmp_path / "grid.jsonl")
        trace_path = tmp_path / "trace.jsonl"
        tracer = Tracer(trace_path)
        registry = MetricsRegistry()
        with trace_scope(tracer), metrics_scope(registry):
            runner = ExperimentRunner(SMALL, journal=journal)
            plan = FaultPlan().inject("experiments.cell", after=3, times=None)
            with fault_scope(plan):
                with pytest.raises(InjectedFault):
                    _grid(runner)
            assert runner.computed_cells == 3  # killed mid-grid
            resumed = ExperimentRunner(SMALL, journal=journal, resume=True)
            outcomes = _grid(resumed)
        assert resumed.resumed_cells == 3
        assert [outcome.cost for outcome in outcomes] == expected
        # ...and the crash-spanning trace is well-formed end to end.
        events = load_trace(trace_path)
        assert sum(e["name"] == "experiments.cell" for e in events) >= 3
        chrome = chrome_trace(events)
        assert all(e["ph"] == "X" for e in chrome["traceEvents"])


# --------------------------------------------------------------------- #
# summaries (obs.summarize) and the demo-grid acceptance counters
# --------------------------------------------------------------------- #


class TestSummarize:
    def test_empty_inputs_have_placeholder_output(self):
        assert summarize_spans([]) == "(no spans recorded)"
        assert summarize_metrics({}) == "(no metrics recorded)"
        assert summarize() == "(nothing to summarize)"

    def test_span_table_groups_and_orders_by_total_time(self):
        events = [
            {"name": "slow", "dur": 2.0, "sites": {"a": 3}},
            {"name": "fast", "dur": 0.5},
            {"name": "slow", "dur": 1.0, "sites": {"b": 1}},
        ]
        table = summarize_spans(events)
        lines = table.splitlines()
        assert lines[0].split() == [
            "phase", "spans", "total", "s", "mean", "ms", "ckpt", "hits"
        ]
        assert lines[2].split()[0] == "slow"  # 3.0s sorts first
        assert lines[2].split()[1] == "2"  # two spans
        assert lines[2].split()[-1] == "4"  # 3 + 1 checkpoint hits

    def test_demo_grid_reports_the_acceptance_counters(self, tmp_path):
        # The acceptance floor: agglomerative candidates scanned and
        # match-computation classes must both be nonzero on a demo grid
        # that includes a "global" cell.  (Algorithm 6 matches on the
        # identity, so Hopcroft–Karp never runs here; its counters are
        # covered by test_hopcroft_karp_counters.)
        tracer = Tracer(tmp_path / "trace.jsonl", clock=FakeClock())
        registry = MetricsRegistry()
        with trace_scope(tracer), metrics_scope(registry):
            runner = ExperimentRunner(SMALL)
            runner.agglomerative("art", "entropy", 3, "d3", modified=True)
            runner.global_1k("art", "entropy", 3)
        snap = registry.snapshot()
        counters = snap["counters"]
        assert counters["core.agglomerative.candidates_scanned"] > 0
        assert counters["matching.allowed.classes"] > 0
        report = summarize(tracer.events, snap)
        assert "experiments.cell" in report
        assert "matching.allowed.classes" in report
        assert "experiments.cell_seconds" in report


# --------------------------------------------------------------------- #
# CLI surfaces: --trace/--metrics and the trace subcommand
# --------------------------------------------------------------------- #


class TestCli:
    def test_experiment_trace_and_metrics_flags(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.cli import main

        monkeypatch.setenv("REPRO_BENCH_N", "40")
        trace_path = tmp_path / "trace.jsonl"
        metrics_path = tmp_path / "metrics.json"
        code = main([
            "experiment", "fig2",
            "--trace", str(trace_path),
            "--metrics", str(metrics_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert str(trace_path) in out
        assert str(metrics_path) in out
        events = load_trace(trace_path)
        assert any(e["name"] == "experiments.cell" for e in events)
        snapshot = json.loads(metrics_path.read_text())
        assert snapshot["counters"]["core.agglomerative.merges"] > 0

    def test_trace_convert_cli(self, tmp_path, capsys):
        from repro.cli import main

        trace_path = tmp_path / "trace.jsonl"
        tracer = Tracer(trace_path, clock=FakeClock(), pid=1, tid=lambda: 2)
        with trace_scope(tracer):
            with span("work"):
                pass
        out_path = tmp_path / "trace.chrome.json"
        code = main([
            "obs", "convert", str(trace_path), "--out", str(out_path)
        ])
        assert code == 0
        assert "1 spans converted" in capsys.readouterr().out
        chrome = json.loads(out_path.read_text())
        assert chrome["traceEvents"][0]["name"] == "work"

    def test_trace_summarize_cli(self, tmp_path, capsys):
        from repro.cli import main

        trace_path = tmp_path / "trace.jsonl"
        tracer = Tracer(trace_path, clock=FakeClock(), pid=1, tid=lambda: 2)
        with trace_scope(tracer):
            with span("phase.a"):
                observe_site("site.x")
        metrics_path = tmp_path / "metrics.json"
        registry = MetricsRegistry()
        registry.inc("layer.widgets", 7)
        metrics_path.write_text(json.dumps(registry.snapshot()))
        code = main([
            "obs", "summarize", "--trace", str(trace_path),
            "--metrics", str(metrics_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "phase.a" in out
        assert "layer.widgets" in out

    def test_trace_summarize_without_inputs_is_an_error(self, capsys):
        from repro.cli import main

        assert main(["obs", "summarize"]) == 2
        assert "--metrics" in capsys.readouterr().err
