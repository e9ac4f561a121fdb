"""Tests for the fuzzing harness itself: budgets, reports, replay, and
the differential battery's check that no algorithm writes to its inputs.

The central claim of ``repro.verify.harness`` is *replayability*: a
failing case prints a command whose execution regenerates exactly the
same failure.  We prove it by injecting a bug into a Def. 4.4 verifier
(via monkeypatch), catching it with ``fuzz``, and replaying the printed
case seed while the bug is still in place.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.notions as notions
import repro.verify.differential as differential
from repro.core.agglomerative import _Engine
from repro.core.distances import get_distance
from repro.tabular.attribute import Attribute
from repro.tabular.hierarchy import SubsetCollection
from repro.tabular.table import Schema, Table
from repro.verify.generators import Instance, InstanceConfig, random_instance
from repro.verify.harness import FuzzReport, check_case, fuzz


class TestFuzzLoop:
    def test_smoke_clean_run(self):
        report = fuzz(seed=0, max_cases=5)
        assert report.ok
        assert report.cases_run == 5
        assert report.failures == []
        assert "OK" in report.summary()

    def test_budget_stops_loop(self):
        report = fuzz(seed=0, budget_seconds=0.0)
        # The first case always runs so a failure can never hide behind
        # a tiny budget.
        assert report.cases_run == 1

    def test_case_seeds_are_master_seed_plus_index(self):
        seen = []
        fuzz(seed=100, max_cases=3, on_case=lambda i, s, v: seen.append((i, s)))
        assert seen == [(0, 100), (1, 101), (2, 102)]

    def test_check_case_clean_on_generated_instances(self):
        assert check_case(random_instance(7)) == []

    def test_report_ok_property(self):
        report = FuzzReport(seed=1)
        assert report.ok


class TestInjectedBugDetection:
    """Acceptance criterion: a deliberately broken verifier is caught
    and the reported seed replays deterministically."""

    @pytest.fixture
    def broken_k1_verifier(self, monkeypatch):
        real = notions.is_k_one_anonymous

        def too_strict(enc, node_matrix, k):
            # Off-by-one bug: demands k+1 right-links instead of k.
            return real(enc, node_matrix, k + 1)

        monkeypatch.setattr(notions, "is_k_one_anonymous", too_strict)

    def test_fuzz_catches_and_replays(self, broken_k1_verifier):
        report = fuzz(seed=42, max_cases=30, max_failures=1)
        assert not report.ok
        failure = report.failures[0]
        invariants = {v.invariant for v in failure.violations}
        assert any(i.startswith("notion.") for i in invariants)

        # The advertised replay command is `repro-anon fuzz
        # --seed <case_seed> --max-cases 1`; execute its semantics.
        assert (
            failure.replay_command
            == f"repro-anon fuzz --seed {failure.case_seed} --max-cases 1"
        )
        replay = fuzz(seed=failure.case_seed, max_cases=1, max_failures=1)
        assert not replay.ok
        replay_invariants = {
            v.invariant for v in replay.failures[0].violations
        }
        assert replay_invariants == invariants

        # The shrunk witness still exhibits the failure.
        shrunk_invariants = {
            v.invariant for v in check_case(failure.shrunk)
        }
        assert shrunk_invariants & invariants

        # Failure reports carry the replay command and the witness.
        text = report.summary()
        assert failure.replay_command in text
        assert "shrunk instance" in text

    def test_clean_after_bug_removed(self):
        # monkeypatch from the fixture has been undone here.
        assert fuzz(seed=42, max_cases=5).ok


class _ViewEngine(_Engine):
    """The engine with its closure nodes as a transposed *view* of the
    encoded singletons: for one attribute ``ascontiguousarray`` returns
    the array it was given, so every merge writes into the encoding."""

    def _init_slots(self, model, distance, k):
        super()._init_slots(model, distance, k)
        self.nodes_t = np.ascontiguousarray(self.enc.singleton_nodes.T)


class _CountsEngine(_Engine):
    """The engine keeping its cluster sizes *in* the encoding's row
    multiplicities: with every row distinct both start as ones, so the
    output is right, but every merge writes ``enc.unique_counts``."""

    def _init_slots(self, model, distance, k):
        super()._init_slots(model, distance, k)
        self.sizes = self.enc.unique_counts


def _runner(engine_class):
    def run(model, cfg):
        engine = engine_class(model, get_distance(cfg.distance), cfg.k)
        return differential._clustered(model, engine.run(cfg.modified))

    return run


class TestInputMutation:
    """Every algorithm shares one encoding per instance; a completed
    run that writes to it must be reported, not only an aborted one."""

    @pytest.fixture
    def one_attribute(self):
        config = InstanceConfig(
            seed=0, k=3, notion="k", measure="lm", distance="d3",
            expander="expansion", modified=False,
        )
        # Twelve distinct values: every merge generalizes, so a write
        # through the view changes the encoded singletons.
        values = [f"v{i}" for i in range(12)]
        collection = SubsetCollection(
            Attribute("a", values), [values[:6], values[6:]]
        )
        table = Table(Schema([collection]), [(v,) for v in values])
        return Instance(table=table, config=config)

    @staticmethod
    def _mutations(monkeypatch, instance, name, engine_class):
        spec = differential.AlgorithmSpec(name, "k", _runner(engine_class))
        monkeypatch.setattr(differential, "REGISTRY", (spec,))
        violations = differential.differential_check(instance)
        return [
            v.detail
            for v in violations
            if v.invariant == "differential.input-mutated"
        ]

    def test_view_engine_is_flagged(self, monkeypatch, one_attribute):
        assert self._mutations(
            monkeypatch, one_attribute, "view-engine", _ViewEngine
        ) == ["view-engine mutated enc.singleton_nodes"]

    def test_counts_engine_is_flagged(self, monkeypatch, one_attribute):
        # An encoding outlives a request in the service, so the snapshot
        # covers every array it holds, not only the codes.
        assert self._mutations(
            monkeypatch, one_attribute, "counts-engine", _CountsEngine
        ) == ["counts-engine mutated enc.unique_counts"]

    def test_registered_algorithms_leave_inputs_alone(self, one_attribute):
        violations = differential.differential_check(one_attribute)
        assert violations == []


@pytest.mark.slow
class TestExtendedFuzz:
    def test_sixty_second_budget(self):
        report = fuzz(seed=2026, budget_seconds=60.0)
        assert report.ok, report.summary()
        assert report.cases_run > 50
