"""Tests for :mod:`repro.perf`: declared cells, parallel execution, and
the hot-path oracles.

The acceptance drills for the performance subsystem live here:

* the parallel executor is observationally identical to the serial path
  (same costs, same journal bytes modulo timings) — asserted both on
  the library surface (:func:`check_parallel_equivalence`) and through
  the CLI (``--workers 4`` output equals ``--workers 1`` output);
* every catalogue experiment journals exactly the cells it declares;
* each hot-path optimization matches its kept reference implementation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import load
from repro.errors import ExperimentError
from repro.experiments.catalogue import EXPERIMENTS, get_experiment
from repro.experiments.configs import ExperimentConfig
from repro.experiments.runner import ExperimentRunner, RunKey, RunOutcome
from repro.measures.entropy import (
    EntropyMeasure,
    NonUniformEntropyMeasure,
    entry_costs_reference,
    node_costs_reference,
)
from repro.perf import (
    canonical_journal_entries,
    check_parallel_equivalence,
    plan_cells,
    run_parallel,
)
from repro.runtime import Journal
from repro.tabular.encoding import EncodedTable

#: Tiny grid: one dataset x one measure x two ks keeps every drill fast.
SMALL = ExperimentConfig(
    sizes={"art": 40, "adult": 40, "cmc": 40},
    ks=(2, 3),
    datasets=("art",),
    measures=("entropy",),
)


# --------------------------------------------------------------------- #
# declared cells
# --------------------------------------------------------------------- #


def _journaled_keys(journal: Journal) -> list[RunKey]:
    return [RunKey.from_json(key_json) for key_json, _ in journal.entries()]


class TestPlans:
    def test_fig2_plan_matches_serial_journal_exactly(self, tmp_path):
        from repro.experiments.figures import compute_figure

        journal = Journal(tmp_path / "fig2.jsonl")
        runner = ExperimentRunner(SMALL, journal=journal)
        compute_figure(runner, "fig2")
        assert get_experiment("fig2").cells(SMALL) == _journaled_keys(journal)

    def test_ablations_plan_matches_serial_journal_exactly(self, tmp_path):
        from repro.experiments.ablations import (
            coupling_ablation,
            distance_ablation,
            join_target_ablation,
            modified_ablation,
        )

        journal = Journal(tmp_path / "abl.jsonl")
        runner = ExperimentRunner(SMALL, journal=journal)
        for dataset in SMALL.datasets:
            for measure in SMALL.measures:
                distance_ablation(runner, dataset, measure)
                coupling_ablation(runner, dataset, measure)
                modified_ablation(runner, dataset, measure)
                join_target_ablation(runner, dataset, measure)
        assert get_experiment("ablations").cells(SMALL) == (
            _journaled_keys(journal)
        )

    @pytest.mark.parametrize("name", list(EXPERIMENTS))
    def test_declared_cells_equal_the_serial_journal(self, name, tmp_path):
        # Rendering through the catalogue journals exactly the declared
        # cells, in declaration order.
        journal = Journal(tmp_path / f"{name}.jsonl")
        runner = ExperimentRunner(SMALL, journal=journal)
        experiment = get_experiment(name)
        experiment.render(runner)
        assert experiment.cells(SMALL) == _journaled_keys(journal)

    def test_plans_are_duplicate_free(self):
        for name in ("table1", "fig2", "fig3", "ablations", "all"):
            plan = get_experiment(name).cells(SMALL)
            assert len(plan) == len(set(plan)), name

    def test_non_memo_experiments_plan_empty(self):
        for name in ("fig1", "scaling", "epsilon", "variance"):
            assert get_experiment(name).cells(SMALL) == []

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ExperimentError, match="unknown experiment"):
            get_experiment("nope")

    def test_plan_cells_covers_every_run_kind(self):
        kinds = {key.kind for key in plan_cells(SMALL)}
        assert kinds == {"agg", "forest", "kk", "global"}


# --------------------------------------------------------------------- #
# parallel execution
# --------------------------------------------------------------------- #


class TestParallel:
    def test_single_worker_degenerates_to_serial(self):
        runner = ExperimentRunner(SMALL)
        keys = get_experiment("fig2").cells(SMALL)[:4]
        stats = run_parallel(runner, keys, workers=1)
        assert (stats.workers, stats.merged) == (1, 4)
        assert runner.computed_cells == 4

    def test_memoized_cells_are_skipped_not_resubmitted(self):
        runner = ExperimentRunner(SMALL)
        keys = get_experiment("fig2").cells(SMALL)[:4]
        for key in keys[:2]:
            runner.run_key(key)
        stats = run_parallel(runner, keys, workers=2)
        assert stats.skipped == 2
        assert stats.submitted == 2
        assert runner.computed_cells == 4

    def test_parallel_equivalent_to_serial(self):
        keys = plan_cells(SMALL, ks=(3,))
        violations = check_parallel_equivalence(SMALL, keys, workers=3)
        assert violations == [], "\n".join(str(v) for v in violations)

    def test_equivalence_check_catches_a_divergence(self, tmp_path):
        # Sanity-check the checker itself: a corrupted parallel journal
        # (extra cell) must surface as a violation, not silently pass.
        journal = Journal(tmp_path / "j.jsonl")
        runner = ExperimentRunner(SMALL, journal=journal)
        keys = get_experiment("fig2").cells(SMALL)[:2]
        for key in keys:
            runner.run_key(key)
        extra = RunKey("forest", "art", "entropy", 7)
        journal.append(extra.to_json(), RunOutcome(1.0, 2.0).to_json())
        lines = canonical_journal_entries(journal)
        assert len(lines) == 3
        assert all('"seconds": 0.0' in line for line in lines)

    def test_parallel_runs_journal_identically(self, tmp_path):
        keys = get_experiment("fig2").cells(SMALL)[:6]

        serial_journal = Journal(tmp_path / "serial.jsonl")
        serial = ExperimentRunner(SMALL, journal=serial_journal)
        for key in keys:
            serial.run_key(key)

        parallel_journal = Journal(tmp_path / "parallel.jsonl")
        parallel = ExperimentRunner(SMALL, journal=parallel_journal)
        stats = run_parallel(parallel, keys, workers=2)
        assert stats.merged == len(keys)
        assert canonical_journal_entries(serial_journal) == (
            canonical_journal_entries(parallel_journal)
        )


# --------------------------------------------------------------------- #
# CLI surface
# --------------------------------------------------------------------- #


def _serial_and_parallel(tmp_path, capsys, name: str, workers: int):
    """``experiment <name>`` at ``--workers 1`` and ``workers``: each run's
    stdout (less the prefetch and journal lines) and canonical journal."""
    from repro.cli import main

    outputs = {}
    journals = {}
    for count in (1, workers):
        journal = tmp_path / f"{name}-w{count}.jsonl"
        code = main([
            "experiment", name,
            "--workers", str(count),
            "--journal", str(journal),
        ])
        assert code == 0
        lines = [
            line
            for line in capsys.readouterr().out.splitlines()
            if not line.startswith("parallel prefetch")
            and not line.startswith("journal ")
        ]
        outputs[count] = lines
        journals[count] = canonical_journal_entries(Journal(journal))
    return outputs, journals


class TestCli:
    def test_workers_flag_is_observationally_serial(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_BENCH_N", "40")
        outputs, journals = _serial_and_parallel(tmp_path, capsys, "fig2", 4)
        assert outputs[1] == outputs[4]
        assert journals[1] == journals[4]
        assert len(journals[1]) > 0

    def test_global1k_runs_through_the_memo_under_workers(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_BENCH_N", "40")
        outputs, journals = _serial_and_parallel(
            tmp_path, capsys, "global1k", 2
        )
        assert outputs[1] == outputs[2]
        assert journals[1] == journals[2]
        # G1's cells: three datasets x four ks, under entropy.
        assert len(journals[1]) == 12


# --------------------------------------------------------------------- #
# hot-path optimizations match their reference implementations
# --------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def art_enc():
    return EncodedTable(load("art", n=60, seed=0))


class TestHotPathIdentity:
    def test_entropy_node_costs_match_reference(self, art_enc):
        measure = EntropyMeasure()
        for j, att in enumerate(art_enc.attrs):
            fast = measure.node_costs(att, art_enc.value_counts[j])
            ref = node_costs_reference(att, art_enc.value_counts[j])
            np.testing.assert_allclose(fast, ref, rtol=0, atol=1e-12)

    def test_entry_costs_bit_identical_to_reference(self, art_enc):
        measure = NonUniformEntropyMeasure()
        for j, att in enumerate(art_enc.attrs):
            fast = measure.entry_costs(att, art_enc.value_counts[j])
            ref = entry_costs_reference(att, art_enc.value_counts[j])
            np.testing.assert_array_equal(fast, ref)

    def test_leave_one_out_matches_per_subset_closures(self, art_enc):
        indices = [0, 3, 7, 11, 19]
        folds = art_enc.leave_one_out_closures(indices)
        for i in range(len(indices)):
            rest = indices[:i] + indices[i + 1:]
            np.testing.assert_array_equal(
                folds[i], art_enc.closure_of_records(rest)
            )

    def test_vectorized_shrink_equals_scan(self):
        from repro.core.agglomerative import _Engine
        from repro.core.distances import get_distance
        from repro.measures.base import CostModel
        from repro.measures.registry import get_measure

        for measure in ("entropy", "lm"):
            enc = EncodedTable(load("art", n=60, seed=0))
            model = CostModel(enc, get_measure(measure))
            engine = _Engine(model, get_distance("d3"), 5)
            members = list(range(20))
            closure = enc.closure_of_records(members)
            assert engine._shrink(list(members), closure) == (
                engine._shrink_scan(list(members), closure)
            ), measure
