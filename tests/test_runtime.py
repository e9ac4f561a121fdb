"""Tests for :mod:`repro.runtime`: limits, faults, retry, journal, fallback.

The acceptance drills for the resilience subsystem live here:

* every registered algorithm observes a 10ms deadline, raises a typed
  :class:`~repro.errors.DeadlineExceeded`, and leaves its inputs
  unmutated (fake clock, so the 10ms is deterministic);
* a killed experiment grid resumes from its journal without recomputing
  a single finished cell;
* an injected first-rung fault degrades a fallback chain to the next
  rung, which still produces a *verified* k-anonymization.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.api import anonymize
from repro.errors import (
    DeadlineExceeded,
    ExperimentError,
    FallbackExhausted,
    InjectedFault,
    ReproError,
    RunCancelled,
)
from repro.experiments.configs import ExperimentConfig
from repro.experiments.runner import ExperimentRunner, RunKey, RunOutcome
from repro.obs import KNOWN_SITES
from repro.runtime import (
    Budget,
    CancelToken,
    Deadline,
    FaultPlan,
    Journal,
    RetryPolicy,
    Timer,
    active_limits,
    active_plan,
    atomic_write_text,
    call_with_retry,
    checkpoint,
    deadline_scope,
    fault_point,
    fault_scope,
    limit_scope,
)
from repro.runtime.fallback import (
    DEFAULT_CHAIN,
    Rung,
    run_with_fallback,
)
from repro.verify.differential import REGISTRY
from repro.verify.generators import Instance, InstanceConfig, random_instance
from repro.verify.resilience import fault_resilience_check


class FakeClock:
    """A monotonic clock under test control."""

    def __init__(self, step: float = 0.0) -> None:
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        current = self.now
        self.now += self.step
        return current

    def advance(self, seconds: float) -> None:
        self.now += seconds


# --------------------------------------------------------------------- #
# limits
# --------------------------------------------------------------------- #


class TestDeadline:
    def test_fake_clock_expiry(self):
        clock = FakeClock()
        deadline = Deadline(5.0, clock=clock)
        deadline.check("core.kk.couple")  # not expired: no raise
        assert not deadline.expired()
        clock.advance(5.0)
        assert deadline.expired()
        assert deadline.remaining() == 0.0
        with pytest.raises(DeadlineExceeded) as info:
            deadline.check("core.kk.couple")
        assert info.value.site == "core.kk.couple"
        assert info.value.budget == 5.0
        assert info.value.elapsed >= 5.0

    def test_elapsed_and_remaining(self):
        clock = FakeClock()
        deadline = Deadline.after(2.0, clock=clock)
        clock.advance(0.5)
        assert deadline.elapsed() == pytest.approx(0.5)
        assert deadline.remaining() == pytest.approx(1.5)

    def test_negative_seconds_rejected(self):
        with pytest.raises(ReproError):
            Deadline(-1.0)


class TestBudget:
    def test_counts_checkpoints_then_raises(self):
        budget = Budget(2)
        budget.check("core.agglomerative.merge")
        budget.check("core.agglomerative.merge")
        assert budget.used == 2
        assert budget.remaining() == 0
        with pytest.raises(DeadlineExceeded) as info:
            budget.check("core.agglomerative.merge")
        assert "budget of 2 exhausted" in str(info.value)
        assert info.value.site == "core.agglomerative.merge"

    def test_zero_budget_raises_on_first_checkpoint(self):
        with pytest.raises(DeadlineExceeded):
            Budget(0).check("core.forest.round")

    def test_negative_rejected(self):
        with pytest.raises(ReproError):
            Budget(-1)


class TestCancelToken:
    def test_cancel_trips_next_checkpoint(self):
        token = CancelToken()
        token.check("core.k1.row")  # no raise before cancellation
        assert not token.cancelled()
        token.cancel("user hit ^C")
        assert token.cancelled()
        with pytest.raises(RunCancelled) as info:
            token.check("core.k1.row")
        assert "user hit ^C" in str(info.value)
        assert info.value.site == "core.k1.row"


class TestScopes:
    def test_checkpoint_without_limits_is_noop(self):
        assert active_limits() == ()
        checkpoint("core.kk.couple")  # must not raise

    def test_limit_scope_pushes_and_pops(self):
        budget = Budget(10)
        with limit_scope(budget) as limits:
            assert budget in limits
            assert active_limits() == (budget,)
        assert active_limits() == ()

    def test_scopes_nest_and_outer_limit_is_consulted(self):
        outer = CancelToken()
        with limit_scope(outer):
            with limit_scope(Budget(100)):
                checkpoint("core.kk.couple")
                outer.cancel()
                with pytest.raises(RunCancelled):
                    checkpoint("core.kk.couple")
        assert active_limits() == ()

    def test_scope_pops_on_exception(self):
        with pytest.raises(ValueError):
            with limit_scope(Budget(1)):
                raise ValueError("boom")
        assert active_limits() == ()

    def test_deadline_scope_shorthand(self):
        clock = FakeClock(step=1.0)
        with deadline_scope(0.5, clock=clock):
            with pytest.raises(DeadlineExceeded):
                checkpoint("core.kk.couple")

    def test_timer_measures_nonnegative(self):
        with Timer() as timer:
            sum(range(1000))
        assert timer.seconds >= 0.0


# --------------------------------------------------------------------- #
# fault injection
# --------------------------------------------------------------------- #


class TestFaultPlan:
    def test_unknown_exact_site_rejected(self):
        with pytest.raises(ReproError, match="unknown fault site"):
            FaultPlan().inject("core.kk.cuople")

    def test_glob_sites_allowed(self):
        plan = FaultPlan().inject("core.*", times=None)
        with pytest.raises(InjectedFault):
            plan.on_hit("core.mondrian.split")

    def test_fires_once_by_default_and_accounts_hits(self):
        plan = FaultPlan().inject("core.kk.couple")
        with pytest.raises(InjectedFault) as info:
            plan.on_hit("core.kk.couple")
        assert info.value.site == "core.kk.couple"
        plan.on_hit("core.kk.couple")  # times=1 spent: no raise
        assert plan.hits == {"core.kk.couple": 2}
        assert plan.fired == [("core.kk.couple", 0)]
        assert plan.total_fired() == 1

    def test_after_skips_early_hits(self):
        plan = FaultPlan().inject("core.forest.round", after=2)
        plan.on_hit("core.forest.round")
        plan.on_hit("core.forest.round")
        with pytest.raises(InjectedFault):
            plan.on_hit("core.forest.round")
        assert plan.fired == [("core.forest.round", 2)]

    def test_rate_is_deterministic_per_seed(self):
        def fired_pattern(seed: int) -> list[int]:
            plan = FaultPlan(seed=seed).inject(
                "core.k1.grow", rate=0.5, times=None
            )
            out = []
            for i in range(30):
                try:
                    plan.on_hit("core.k1.grow")
                except InjectedFault:
                    out.append(i)
            return out

        pattern = fired_pattern(3)
        assert pattern == fired_pattern(3)  # same seed, same firings
        assert 0 < len(pattern) < 30  # rate=0.5 actually probabilistic

    def test_custom_error_type(self):
        plan = FaultPlan().inject("datasets.load", error=OSError)
        with pytest.raises(OSError):
            plan.on_hit("datasets.load")

    def test_invalid_spec_parameters_rejected(self):
        with pytest.raises(ReproError):
            FaultPlan().inject("core.*", after=-1)
        with pytest.raises(ReproError):
            FaultPlan().inject("core.*", rate=1.5)

    def test_fault_scope_activates_and_restores(self):
        assert active_plan() is None
        fault_point("core.kk.couple")  # no plan: no-op
        plan = FaultPlan().inject("core.kk.couple")
        with fault_scope(plan) as active:
            assert active_plan() is plan
            assert active is plan
            with pytest.raises(InjectedFault):
                checkpoint("core.kk.couple")
        assert active_plan() is None

    def test_known_sites_cover_every_core_module(self):
        prefixes = {site.split(".")[0] for site in KNOWN_SITES}
        assert prefixes == {
            "core", "matching", "datasets", "runtime", "experiments",
            "perf", "serve",
        }


# --------------------------------------------------------------------- #
# retry
# --------------------------------------------------------------------- #


class TestRetry:
    def test_schedule_is_deterministic(self):
        policy = RetryPolicy(attempts=4, base_delay=0.1, seed=7)
        assert policy.delays() == policy.delays()
        assert len(policy.delays()) == 3

    def test_schedule_without_jitter_is_geometric_and_capped(self):
        policy = RetryPolicy(
            attempts=5, base_delay=0.1, multiplier=2.0, max_delay=0.3, jitter=0.0
        )
        assert policy.delays() == (0.1, 0.2, 0.3, 0.3)

    def test_succeeds_after_transient_failures_without_sleeping(self):
        policy = RetryPolicy(attempts=4, base_delay=0.1, jitter=0.0)
        slept: list[float] = []
        observed: list[int] = []
        calls = {"n": 0}

        def flaky() -> str:
            calls["n"] += 1
            if calls["n"] <= 2:
                raise OSError("disk hiccup")
            return "ok"

        value = call_with_retry(
            flaky,
            policy=policy,
            sleep=slept.append,
            on_retry=lambda attempt, exc, delay: observed.append(attempt),
        )
        assert value == "ok"
        assert calls["n"] == 3
        assert slept == list(policy.delays()[:2])
        assert observed == [0, 1]

    def test_schedule_is_built_once_and_only_when_a_retry_happens(
        self, monkeypatch
    ):
        built: list[RetryPolicy] = []
        delays = RetryPolicy.delays

        def counting_delays(policy):
            built.append(policy)
            return delays(policy)

        monkeypatch.setattr(RetryPolicy, "delays", counting_delays)
        policy = RetryPolicy(attempts=4, base_delay=0.1, seed=7)
        assert call_with_retry(lambda: "ok", policy=policy) == "ok"
        assert built == []  # a first-try success draws no jitter
        slept: list[float] = []
        calls = {"n": 0}

        def flaky() -> str:
            calls["n"] += 1
            if calls["n"] <= 3:
                raise OSError("disk hiccup")
            return "ok"

        assert call_with_retry(flaky, policy=policy, sleep=slept.append) == "ok"
        assert built == [policy]
        assert slept == list(delays(policy))  # the jittered schedule, whole

    def test_exhausted_attempts_reraise_last_error(self):
        slept: list[float] = []

        def always_fails():
            raise OSError("gone")

        with pytest.raises(OSError, match="gone"):
            call_with_retry(
                always_fails,
                policy=RetryPolicy(attempts=3, jitter=0.0),
                sleep=slept.append,
            )
        assert len(slept) == 2

    def test_non_retryable_error_propagates_immediately(self):
        slept: list[float] = []
        calls = {"n": 0}

        def typo():
            calls["n"] += 1
            raise ValueError("not transient")

        with pytest.raises(ValueError):
            call_with_retry(typo, sleep=slept.append)
        assert calls["n"] == 1
        assert slept == []

    def test_policy_validation(self):
        with pytest.raises(ReproError):
            RetryPolicy(attempts=0)
        with pytest.raises(ReproError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ReproError):
            RetryPolicy(base_delay=-0.1)


# --------------------------------------------------------------------- #
# journal
# --------------------------------------------------------------------- #


#: Appends per process in the multi-process journal hammer (module-level
#: so ProcessPoolExecutor can pickle the worker function).
_BURST = 25


def _journal_append_burst(args: tuple[str, int]) -> None:
    path, worker_id = args
    journal = Journal(path)
    for i in range(_BURST):
        journal.append({"w": worker_id, "i": i}, {"cost": float(i)})


class TestJournal:
    def test_append_entries_round_trip(self, tmp_path):
        journal = Journal(tmp_path / "run.jsonl")
        assert not journal.exists()
        assert journal.entries() == []
        journal.append({"cell": 1}, {"cost": 2.5})
        journal.append({"cell": 2}, {"cost": 3.5, "extra": [["a", 1]]})
        assert journal.exists()
        assert journal.entries() == [
            ({"cell": 1}, {"cost": 2.5}),
            ({"cell": 2}, {"cost": 3.5, "extra": [["a", 1]]}),
        ]
        assert list(journal) == journal.entries()
        assert journal.corrupt_lines == 0

    def test_torn_final_line_is_tolerated_and_counted(self, tmp_path):
        journal = Journal(tmp_path / "run.jsonl")
        journal.append({"cell": 1}, {"cost": 1.0})
        journal.append({"cell": 2}, {"cost": 2.0})
        with open(journal.path, "a", encoding="utf-8") as handle:
            handle.write('{"v": 1, "key": {"cell": 3}, "va')  # crash mid-line
        assert journal.entries() == [
            ({"cell": 1}, {"cost": 1.0}),
            ({"cell": 2}, {"cost": 2.0}),
        ]
        assert journal.corrupt_lines == 1

    def test_version_mismatch_is_an_error(self, tmp_path):
        journal = Journal(tmp_path / "run.jsonl")
        journal.path.write_text(
            '{"v": 99, "key": {}, "value": {}}\n', encoding="utf-8"
        )
        with pytest.raises(ReproError, match="version"):
            journal.entries()

    def test_numpy_scalars_are_coerced(self, tmp_path):
        journal = Journal(tmp_path / "run.jsonl")
        journal.append({"k": np.int64(7)}, {"cost": np.float64(1.5)})
        ((key, value),) = journal.entries()
        assert key == {"k": 7}
        assert value == {"cost": 1.5}

    def test_unserializable_value_is_a_typeerror(self, tmp_path):
        journal = Journal(tmp_path / "run.jsonl")
        with pytest.raises(TypeError):
            journal.append({"k": 1}, {"bad": object()})

    def test_atomic_write_text(self, tmp_path):
        target = tmp_path / "report.txt"
        atomic_write_text(target, "first")
        assert target.read_text(encoding="utf-8") == "first"
        atomic_write_text(target, "second")
        assert target.read_text(encoding="utf-8") == "second"
        leftovers = [p for p in tmp_path.iterdir() if p.name != "report.txt"]
        assert leftovers == []  # no temp files survive

    def test_atomic_write_fault_leaves_no_temp_file(self, tmp_path):
        target = tmp_path / "report.txt"
        atomic_write_text(target, "original")
        plan = FaultPlan().inject("runtime.journal.replace")
        with fault_scope(plan):
            with pytest.raises(InjectedFault):
                atomic_write_text(target, "clobbered")
        assert target.read_text(encoding="utf-8") == "original"
        assert [p.name for p in tmp_path.iterdir()] == ["report.txt"]

    def test_concurrent_thread_appends_interleave_whole_lines(self, tmp_path):
        # The single-writer discipline (one open+write+flush+fsync per
        # line) must hold when the parallel executor's completion
        # callbacks append from arbitrary threads: every line intact,
        # none torn, none lost.
        from concurrent.futures import ThreadPoolExecutor

        journal = Journal(tmp_path / "hammer.jsonl")
        per_thread, threads = 50, 8

        def slam(thread_id: int) -> None:
            for i in range(per_thread):
                journal.append({"t": thread_id, "i": i}, {"cost": float(i)})

        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(slam, range(threads)))

        entries = journal.entries()
        assert journal.corrupt_lines == 0
        assert len(entries) == per_thread * threads
        seen = {(key["t"], key["i"]) for key, _ in entries}
        assert len(seen) == per_thread * threads  # no duplicates, no losses

    def test_concurrent_process_appends_interleave_whole_lines(self, tmp_path):
        # O_APPEND semantics across *processes* — the crash posture the
        # process-pool path relies on: distinct Journal objects in
        # distinct processes appending to one file never tear a line.
        from concurrent.futures import ProcessPoolExecutor

        path = tmp_path / "multiproc.jsonl"
        workers = 4
        with ProcessPoolExecutor(max_workers=workers) as pool:
            list(
                pool.map(
                    _journal_append_burst,
                    [(str(path), worker_id) for worker_id in range(workers)],
                )
            )

        journal = Journal(path)
        entries = journal.entries()
        assert journal.corrupt_lines == 0
        assert len(entries) == workers * _BURST
        seen = {(key["w"], key["i"]) for key, _ in entries}
        assert len(seen) == workers * _BURST


# --------------------------------------------------------------------- #
# typed run keys / outcomes
# --------------------------------------------------------------------- #


class TestRunKeyAndOutcome:
    def test_run_key_round_trip(self):
        key = RunKey(
            "agg", "art", "entropy", 10, distance="d3", modified=True
        )
        assert RunKey.from_json(key.to_json()) == key

    def test_run_key_defaults_survive_sparse_json(self):
        key = RunKey.from_json(
            {"kind": "forest", "dataset": "cmc", "measure": "lm", "k": 5}
        )
        assert key == RunKey("forest", "cmc", "lm", 5)

    def test_run_key_missing_field_is_typed_error(self):
        with pytest.raises(ExperimentError, match="run-key field"):
            RunKey.from_json({"kind": "agg", "dataset": "art"})

    def test_run_outcome_round_trip(self):
        outcome = RunOutcome(cost=1.25, seconds=0.5, extra=(("clusters", 9),))
        restored = RunOutcome.from_json(outcome.to_json())
        assert restored == outcome
        assert restored.extra_dict() == {"clusters": 9}

    def test_run_outcome_malformed_is_typed_error(self):
        with pytest.raises(ExperimentError, match="malformed"):
            RunOutcome.from_json({"cost": "not-a-number", "seconds": 0.1})


# --------------------------------------------------------------------- #
# every registered algorithm observes deadlines
# --------------------------------------------------------------------- #

#: Fixed configuration for the registry drills (k=3 on the 30-record
#: laminar conftest table, so every algorithm — including the
#: laminar-only Datafly — runs).
DRILL_CONFIG = InstanceConfig(
    seed=0,
    k=3,
    notion="k",
    measure="entropy",
    distance="d3",
    expander="expansion",
    modified=False,
)


@pytest.mark.parametrize("spec", REGISTRY, ids=[s.name for s in REGISTRY])
class TestRegistryObservesLimits:
    def test_ten_ms_deadline_typed_and_inputs_unmutated(self, spec, small_table):
        instance = Instance(table=small_table, config=DRILL_CONFIG)
        enc = instance.encoded()
        model = instance.model(enc)
        before = {
            "codes": enc.codes.copy(),
            "singleton_nodes": enc.singleton_nodes.copy(),
            "unique_codes": enc.unique_codes.copy(),
        }
        clock = FakeClock(step=0.011)  # every clock read advances past 10ms
        with limit_scope(Deadline(0.01, clock=clock)):
            with pytest.raises(DeadlineExceeded) as info:
                spec.run(model, instance.config)
        assert info.value.site in KNOWN_SITES
        for name, saved in before.items():
            assert np.array_equal(getattr(enc, name), saved), name

    def test_zero_budget_trips_first_checkpoint(self, spec, small_table):
        instance = Instance(table=small_table, config=DRILL_CONFIG)
        model = instance.model()
        budget = Budget(0)
        with limit_scope(budget):
            with pytest.raises(DeadlineExceeded):
                spec.run(model, instance.config)
        assert budget.used == 1  # tripped on the very first checkpoint

    def test_cancel_token_stops_run(self, spec, small_table):
        instance = Instance(table=small_table, config=DRILL_CONFIG)
        model = instance.model()
        token = CancelToken()
        token.cancel("test requested stop")
        with limit_scope(token):
            with pytest.raises(RunCancelled):
                spec.run(model, instance.config)


class TestResilienceCheck:
    @pytest.mark.parametrize("seed", [0, 7])
    def test_random_instances_pass_the_drills(self, seed):
        assert fault_resilience_check(random_instance(seed)) == []

    def test_api_facade_observes_budget(self, small_table):
        with limit_scope(Budget(2)):
            with pytest.raises(DeadlineExceeded):
                anonymize(small_table, k=3, notion="k")


# --------------------------------------------------------------------- #
# fallback chains
# --------------------------------------------------------------------- #


class TestFallback:
    def test_first_rung_wins_cleanly(self, small_table):
        outcome = run_with_fallback(small_table, 3)
        assert outcome.ok
        assert outcome.report.winner == DEFAULT_CHAIN[0].name == "kk"
        assert [a.status for a in outcome.report.attempts] == ["ok"]
        assert outcome.require().verify()

    def test_injected_fault_degrades_to_next_rung(self, small_table):
        plan = FaultPlan().inject("core.kk.couple", times=None)
        with fault_scope(plan):
            outcome = run_with_fallback(small_table, 3)
        assert plan.total_fired() > 0
        assert outcome.report.winner == "agglomerative"
        statuses = [a.status for a in outcome.report.attempts]
        assert statuses == ["error", "ok"]
        assert "InjectedFault" in outcome.report.attempts[0].detail
        result = outcome.require()
        assert result.verify()  # degraded but still a valid k-anonymization

    def test_exhausted_chain_raises_with_report(self, small_table):
        chain = (Rung("kk", notion="kk"),)
        plan = FaultPlan().inject("core.kk.couple", times=None)
        with fault_scope(plan):
            outcome = run_with_fallback(small_table, 3, chain=chain)
        assert not outcome.ok
        with pytest.raises(FallbackExhausted) as info:
            outcome.require()
        assert info.value.report is outcome.report
        assert "EXHAUSTED" in outcome.report.format()

    def test_overall_timeout_skips_remaining_rungs(self, small_table):
        clock = FakeClock(step=0.6)
        outcome = run_with_fallback(
            small_table, 3, overall_timeout=1.0, clock=clock
        )
        statuses = [a.status for a in outcome.report.attempts]
        assert statuses == ["deadline", "skipped", "skipped", "skipped"]
        with pytest.raises(FallbackExhausted):
            outcome.require()

    def test_suppress_rung_is_a_terminal_guarantee(self, small_table):
        chain = (Rung("suppress", notion="k", algorithm="suppress"),)
        outcome = run_with_fallback(small_table, 3, chain=chain)
        result = outcome.require()
        assert result.algorithm == "suppress-all"
        assert result.stats["suppressed_records"] == small_table.num_records
        assert result.verify()

    def test_empty_chain_rejected(self, small_table):
        with pytest.raises(ReproError):
            run_with_fallback(small_table, 3, chain=())

    def test_report_json_shape(self, small_table):
        outcome = run_with_fallback(small_table, 3)
        data = outcome.report.to_json()
        assert data["winner"] == "kk"
        assert data["k"] == 3
        assert data["attempts"][0]["status"] == "ok"


# --------------------------------------------------------------------- #
# checkpoint/resume of the experiment grid
# --------------------------------------------------------------------- #

#: Tiny grid config so the resume drills stay fast.
SMALL_GRID = ExperimentConfig(sizes={"art": 60, "adult": 60, "cmc": 60})


def _run_small_grid(runner: ExperimentRunner) -> None:
    """Six cells: agglomerative and forest at k in {2, 3, 4} on art."""
    for k in (2, 3, 4):
        runner.agglomerative("art", "entropy", k, "d3")
        runner.forest("art", "entropy", k)


class TestExperimentResume:
    def test_journal_records_every_computed_cell(self, tmp_path):
        journal = Journal(tmp_path / "grid.jsonl")
        runner = ExperimentRunner(SMALL_GRID, journal=journal)
        _run_small_grid(runner)
        assert runner.computed_cells == 6
        assert len(journal.entries()) == 6

    def test_memoized_repeat_neither_recomputes_nor_rejournals(self, tmp_path):
        journal = Journal(tmp_path / "grid.jsonl")
        runner = ExperimentRunner(SMALL_GRID, journal=journal)
        first = runner.forest("art", "entropy", 3)
        again = runner.forest("art", "entropy", 3)
        assert first is again
        assert runner.computed_cells == 1
        assert len(journal.entries()) == 1

    def test_killed_grid_resumes_without_recomputing(self, tmp_path):
        journal = Journal(tmp_path / "grid.jsonl")
        runner = ExperimentRunner(SMALL_GRID, journal=journal)
        plan = FaultPlan().inject("experiments.cell", after=3, times=None)
        with fault_scope(plan):
            with pytest.raises(InjectedFault):
                _run_small_grid(runner)
        assert runner.computed_cells == 3  # killed mid-grid

        resumed = ExperimentRunner(SMALL_GRID, journal=journal, resume=True)
        assert resumed.resumed_cells == 3
        _run_small_grid(resumed)
        assert resumed.computed_cells == 3  # only the missing half
        assert len(journal.entries()) == 6

        # A second resume recomputes *zero* finished cells.
        final = ExperimentRunner(SMALL_GRID, journal=journal, resume=True)
        assert final.resumed_cells == 6
        _run_small_grid(final)
        assert final.computed_cells == 0

    def test_resumed_outcomes_match_fresh_computation(self, tmp_path):
        journal = Journal(tmp_path / "grid.jsonl")
        fresh = ExperimentRunner(SMALL_GRID, journal=journal)
        original = fresh.forest("art", "entropy", 3)
        resumed = ExperimentRunner(SMALL_GRID, journal=journal, resume=True)
        restored = resumed.forest("art", "entropy", 3)
        assert resumed.computed_cells == 0
        assert restored.cost == pytest.approx(original.cost)

    def test_resume_requires_a_journal(self):
        with pytest.raises(ExperimentError, match="requires a journal"):
            ExperimentRunner(SMALL_GRID, resume=True)

    def test_cli_resume_requires_journal(self, capsys):
        from repro.cli import main

        assert main(["experiment", "table1", "--resume"]) == 2
        assert "--resume requires --journal" in capsys.readouterr().err

    def test_cli_refuses_to_clobber_existing_journal(self, tmp_path, capsys):
        from repro.cli import main

        journal = tmp_path / "grid.jsonl"
        journal.write_text("")
        code = main(["experiment", "table1", "--journal", str(journal)])
        assert code == 2
        assert "--resume" in capsys.readouterr().err

    def test_cli_timeout_exits_3_with_resume_hint(self, tmp_path, capsys):
        from repro.cli import main

        journal = tmp_path / "grid.jsonl"
        code = main(
            [
                "experiment",
                "table1",
                "--journal",
                str(journal),
                "--timeout",
                "0",
            ]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "deadline exceeded" in err
        assert "--resume" in err  # the hint names the recovery path

    def test_transient_journal_fault_is_retried(self, tmp_path):
        journal = Journal(tmp_path / "grid.jsonl")
        runner = ExperimentRunner(SMALL_GRID, journal=journal)
        plan = FaultPlan().inject("runtime.journal.append", times=1)
        with fault_scope(plan):
            runner.forest("art", "entropy", 3)
        assert plan.total_fired() == 1  # the write really failed once
        assert runner.computed_cells == 1
        assert len(journal.entries()) == 1  # ...and the retry landed it


# --------------------------------------------------------------------- #
# the runner memo/journal under concurrency
# --------------------------------------------------------------------- #


class TestRunnerThreadSafety:
    """Regression tests for the memo/journal race fixed by the runner
    lock: before it, two threads finishing the same cell could both
    append to the journal and tear the computed-cell counter."""

    def test_concurrent_memo_hammer_journals_each_cell_once(self, tmp_path):
        from concurrent.futures import ThreadPoolExecutor

        journal = Journal(tmp_path / "hammer.jsonl")
        runner = ExperimentRunner(SMALL_GRID, journal=journal)
        keys = [RunKey("forest", "art", "entropy", k) for k in (2, 3, 4)]

        def slam(_: int) -> list[RunOutcome]:
            return [runner.run_key(key) for _ in range(10) for key in keys]

        with ThreadPoolExecutor(max_workers=16) as pool:
            results = list(pool.map(slam, range(16)))

        # first writer won every cell: one memo entry, one journal line,
        # one counted computation per key — no duplicates, no tearing.
        assert runner.computed_cells == len(keys)
        assert len(journal.entries()) == len(keys)
        for outcomes in results:
            for i, outcome in enumerate(outcomes):
                assert outcome is runner._runs[keys[i % len(keys)]]

    def test_concurrent_absorb_first_writer_wins(self, tmp_path):
        from concurrent.futures import ThreadPoolExecutor

        journal = Journal(tmp_path / "absorb.jsonl")
        runner = ExperimentRunner(SMALL_GRID, journal=journal)
        key = RunKey("forest", "art", "entropy", 5)
        outcomes = [RunOutcome(cost=float(i), seconds=0.0) for i in range(8)]

        with ThreadPoolExecutor(max_workers=8) as pool:
            winners = list(
                pool.map(lambda outcome: runner.absorb(key, outcome), outcomes)
            )

        assert len({id(winner) for winner in winners}) == 1
        assert runner.computed_cells == 1
        assert len(journal.entries()) == 1


# --------------------------------------------------------------------- #
# a SIGTERM-killed *parallel* grid resumes with zero recomputation
# --------------------------------------------------------------------- #


class TestParallelKillResume:
    def test_sigterm_mid_parallel_grid_resumes_with_zero_recompute(
        self, tmp_path
    ):
        import os
        import signal
        import subprocess
        import sys
        import time
        from pathlib import Path

        from repro.experiments import get_experiment
        from repro.perf import run_parallel

        if os.name != "posix":
            pytest.skip("process-group SIGTERM is POSIX-only")

        n = 150
        journal_path = tmp_path / "parallel.jsonl"
        repo_src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["REPRO_BENCH_N"] = str(n)
        env["PYTHONPATH"] = str(repo_src) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli",
                "experiment", "fig2",
                "--workers", "4",
                "--journal", str(journal_path),
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            start_new_session=True,  # own process group: killpg is exact
        )
        try:
            deadline = time.monotonic() + 120.0
            while time.monotonic() < deadline:
                if proc.poll() is not None:
                    break  # finished before we could kill: still resumable
                if (
                    journal_path.exists()
                    and journal_path.read_bytes().count(b"\n") >= 2
                ):
                    os.killpg(proc.pid, signal.SIGTERM)
                    break
                time.sleep(0.02)
            proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait(timeout=60)

        config = ExperimentConfig(sizes={"art": n, "adult": n, "cmc": n})
        plan = get_experiment("fig2").cells(config)
        journal = Journal(journal_path)
        survivors = len(journal.entries())
        assert survivors >= 1  # the kill landed after real progress

        resumed = ExperimentRunner(config, journal=journal, resume=True)
        stats = run_parallel(resumed, plan, workers=4)
        assert resumed.resumed_cells == survivors
        assert stats.skipped == survivors  # journaled cells never resubmitted
        assert stats.merged == len(plan) - survivors
        assert resumed.computed_cells == len(plan) - survivors
        assert len(journal.entries()) == len(plan)  # journal intact + complete

        # A second parallel resume recomputes *zero* finished cells.
        final = ExperimentRunner(config, journal=journal, resume=True)
        final_stats = run_parallel(final, plan, workers=4)
        assert final_stats.submitted == 0
        assert final.computed_cells == 0
