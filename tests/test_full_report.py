"""Unit test for the one-shot reproduction report (tiny scale)."""

import io
import re
from contextlib import redirect_stdout

import pytest

from repro.experiments.configs import ExperimentConfig
from repro.experiments.catalogue import REPORT_SECTIONS, generate_full_report
from repro.experiments.runner import ExperimentRunner


@pytest.fixture(scope="module")
def report():
    config = ExperimentConfig(
        sizes={"art": 70, "adult": 70, "cmc": 70}, ks=(3, 5), seed=2
    )
    runner = ExperimentRunner(config)
    return generate_full_report(
        runner, include_variance=False, include_epsilon=False
    )


class TestFullReport:
    def test_all_sections_present(self, report):
        for section in (
            "CONFIGURATION",
            "TABLE I",
            "FIGURE 1",
            "FIGURE 2",
            "FIGURE 3",
            "ABLATIONS",
            "G1",
            "END OF REPORT",
        ):
            assert section in report, section

    def test_shape_check_reported(self, report):
        assert "shape check" in report

    def test_figure1_inclusions_ok(self, report):
        assert "inclusions: OK" in report

    def test_ablation_rankings_listed(self, report):
        assert "A1 distance ranking" in report

    def test_cli_all_writes_file(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_BENCH_N", "60")
        from repro.cli import main

        out = tmp_path / "report.txt"
        code = main(["experiment", "all", "--out", str(out)])
        assert code == 0
        assert out.exists()
        assert "TABLE I" in out.read_text()


def _cli(*argv: str) -> tuple[int, str]:
    """Run ``repro-anon experiment`` at a tiny size; (exit code, stdout)."""
    from repro.cli import main

    out = io.StringIO()
    with pytest.MonkeyPatch.context() as patch, redirect_stdout(out):
        patch.setenv("REPRO_BENCH_N", "30")
        code = main(["experiment", *argv])
    return code, out.getvalue()


@pytest.fixture(scope="module")
def report_sections():
    """The CLI's ``all`` report split into {heading: body}."""
    code, out = _cli("all")
    assert code == 0
    parts = re.split(r"\n=+\n  (.*)\n=+\n", out)
    return dict(zip(parts[1::2], parts[2::2]))


class TestSections:
    def test_report_has_every_catalogue_section(self, report_sections):
        titles = [title for _, title in REPORT_SECTIONS]
        assert list(report_sections) == (
            ["CONFIGURATION"] + titles + ["END OF REPORT"]
        )

    @pytest.mark.parametrize(
        "name,title", REPORT_SECTIONS, ids=[n for n, _ in REPORT_SECTIONS]
    )
    def test_experiment_prints_its_report_section(
        self, report_sections, name, title
    ):
        code, out = _cli(name)
        assert out == report_sections[title]
        failed = name == "table1" and "shape check: OK" not in out
        assert code == (1 if failed else 0)
