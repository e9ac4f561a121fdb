"""Unit tests for the experiment harness (small, fast configurations)."""

import pytest

from repro.experiments.ablations import (
    coupling_ablation,
    distance_ablation,
    join_target_ablation,
    modified_ablation,
)
from repro.experiments.asciiplot import line_chart
from repro.experiments.configs import (
    AGGLOMERATIVE_VARIANTS,
    ExperimentConfig,
    resolve_sizes,
    variant_name,
)
from repro.experiments.figures import compute_figure
from repro.experiments.global1k import (
    format_conversion,
    global_conversion_experiment,
)
from repro.experiments.paper_values import (
    PAPER_TABLE1,
    paper_improvement,
    paper_value,
)
from repro.experiments.runner import ExperimentRunner
from repro.experiments.scaling import scaling_sweep
from repro.experiments.table1 import compute_block, compute_table1
from repro.report import format_kv_block, format_table


@pytest.fixture(scope="module")
def runner():
    config = ExperimentConfig(
        sizes={"art": 90, "adult": 90, "cmc": 90}, ks=(3, 5), seed=1
    )
    return ExperimentRunner(config)


class TestReport:
    def test_format_table_alignment(self):
        out = format_table(["row", "a", "b"], [["x", 1.5, 2], ["longer", 0.25, 3]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("row")
        assert "1.50" in out and "0.25" in out

    def test_format_kv_block(self):
        out = format_kv_block("Run", [("k", 5), ("cost", 0.5)])
        assert "Run" in out and "k" in out and "0.5" in out


class TestAsciiPlot:
    def test_contains_markers_and_legend(self):
        chart = line_chart(
            {"one": [(1, 1.0), (2, 2.0)], "two": [(1, 2.0), (2, 1.0)]},
            title="T",
        )
        assert "o one" in chart and "x two" in chart
        assert "T" in chart

    def test_empty(self):
        assert "no data" in line_chart({}, title="e")

    def test_flat_series(self):
        chart = line_chart({"s": [(1, 1.0), (5, 1.0)]})
        assert "o" in chart


class TestPaperValues:
    def test_complete_grid(self):
        for dataset in ("art", "adult", "cmc"):
            for measure in ("entropy", "lm"):
                for row in ("best-k-anon", "forest", "kk"):
                    series = PAPER_TABLE1[(dataset, measure, row)]
                    assert set(series) == {5, 10, 15, 20}

    def test_paper_internal_orderings(self):
        """The paper's own table satisfies its own claims."""
        for dataset in ("art", "adult", "cmc"):
            for measure in ("entropy", "lm"):
                for k in (5, 10, 15, 20):
                    best = paper_value(dataset, measure, "best-k-anon", k)
                    forest = paper_value(dataset, measure, "forest", k)
                    kk = paper_value(dataset, measure, "kk", k)
                    assert kk < best < forest

    def test_improvement_helper(self):
        imp = paper_improvement("adult", "entropy", "kk", "best-k-anon", 5)
        assert imp == pytest.approx(1 - 0.50 / 0.66)


class TestConfig:
    def test_variants(self):
        assert len(AGGLOMERATIVE_VARIANTS) == 8
        assert variant_name("d3", False) == "d3"
        assert variant_name("d4", True) == "d4-mod"

    def test_resolve_sizes_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_N", "123")
        assert resolve_sizes() == {"art": 123, "adult": 123, "cmc": 123}
        monkeypatch.delenv("REPRO_BENCH_N")
        monkeypatch.setenv("REPRO_FULL", "1")
        assert resolve_sizes()["adult"] == 5000

    def test_describe(self):
        config = ExperimentConfig(sizes={"art": 10, "adult": 10, "cmc": 10})
        assert "seed" in config.describe()


class TestRunner:
    def test_caches_shared(self, runner):
        enc1 = runner.encoded("art")
        enc2 = runner.encoded("art")
        assert enc1 is enc2
        m1 = runner.model("art", "entropy")
        assert m1 is runner.model("art", "entropy")

    def test_memoized_runs(self, runner):
        first = runner.agglomerative("art", "entropy", 3, "d3")
        second = runner.agglomerative("art", "entropy", 3, "d3")
        assert first is second

    def test_global_run_extras(self, runner):
        out = runner.global_1k("art", "entropy", 3)
        extras = out.extra_dict()
        assert "kk_cost" in extras
        assert out.cost >= extras["kk_cost"] - 1e-9


class TestTable1:
    def test_block_shape(self, runner):
        block = compute_block(runner, "art", "entropy")
        assert set(block.best_k_anon) == {3, 5}
        assert block.best_variant in [
            variant_name(d, m) for d, m in AGGLOMERATIVE_VARIANTS
        ]
        assert len(block.all_variants) == 8
        # The defining property of the "best" row.
        total_best = sum(block.best_k_anon.values())
        for costs in block.all_variants.values():
            assert total_best <= sum(costs.values()) + 1e-9

    def test_full_table_and_format(self, runner):
        result = compute_table1(runner)
        assert len(result.blocks) == 6
        text = result.format()
        assert "ART/ENTROPY" in text and "forest" in text
        assert result.shape_violations() == []
        assert "improvement" in result.improvement_summary()

    def test_improvements_positive(self, runner):
        result = compute_table1(runner)
        for block in result.blocks.values():
            for k in runner.config.ks:
                assert block.improvement_vs_forest(k) >= -1e-9
                assert block.improvement_kk(k) >= -1e-9


class TestFigures:
    @pytest.mark.parametrize("figure", ["fig2", "fig3"])
    def test_figure(self, runner, figure):
        fig = compute_figure(runner, figure)
        assert fig.monotone_violations() == []
        chart = fig.chart()
        assert "k-anon." in chart
        assert "k=3" in fig.numbers()

    def test_unknown_figure(self, runner):
        with pytest.raises(ValueError, match="unknown figure"):
            compute_figure(runner, "fig9")


class TestAblations:
    def test_distance_ablation(self, runner):
        ab = distance_ablation(runner, "art", "entropy")
        assert set(ab.costs) == {"d1", "d2", "d3", "d4", "nc"}
        assert len(ab.ranking()) == 5
        assert "distance" in ab.format()

    def test_coupling_ablation(self, runner):
        ab = coupling_ablation(runner, "art", "entropy")
        assert ab.expansion_wins() >= 1  # paper: expansion dominates
        assert "alg4" in ab.format()

    def test_modified_ablation(self, runner):
        ab = modified_ablation(runner, "art", "entropy")
        assert len(ab.totals) == 8
        assert "gain" in ab.format()

    def test_join_target_ablation(self, runner):
        ab = join_target_ablation(runner, "art", "entropy")
        # Per-record the tight join is never wider, but candidate choice
        # interacts across records, so we only assert near-parity.
        for k in runner.config.ks:
            assert ab.original[k] <= ab.generalized[k] * 1.05 + 1e-9
        assert "tight" in ab.format()


class TestGlobal1kExperiment:
    def test_points_and_format(self, runner):
        points = global_conversion_experiment(
            runner, "art", "entropy", ks=(3,)
        )
        assert len(points) == 1
        p = points[0]
        assert p.global_cost >= p.kk_cost - 1e-9
        assert p.min_degree >= 3
        assert "overhead" in format_conversion(points)


class TestScaling:
    def test_sweep(self):
        result = scaling_sweep(
            dataset="art", k=3, sizes=(60, 120), measure="lm"
        )
        assert len(result.points) == 8  # 4 algorithms × 2 sizes
        text = result.format()
        assert "agglomerative" in text and "n^" in text
        # Sanity: the exponent of a quadratic-ish algorithm is positive.
        assert result.exponent("agglomerative") > 0
