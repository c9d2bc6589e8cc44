"""Experiment harnesses, registry and CLI.

These tests run the harnesses at tiny scales with a benchmark subset; the
goal is to check the plumbing (rows, columns, normalization, notes, rendering)
rather than the headline numbers, whose directions
``tests/test_paper_claims.py`` asserts at scale 0.25.
"""

import pytest

from repro.errors import ExperimentError
from repro.experiments import (
    available_experiments,
    get_experiment,
    run_experiment,
)
from repro.experiments.cli import main as cli_main
from repro.experiments.common import ExperimentResult, SimulationRunner, select_benchmarks

SCALE = 0.12
FAST_BENCHMARKS = ["cholesky", "blackscholes"]


@pytest.fixture(scope="module")
def runner():
    """One shared runner so the software baselines are simulated once."""
    return SimulationRunner(scale=SCALE)


class TestCommon:
    def test_select_benchmarks_default_is_all_nine(self):
        assert len(select_benchmarks(None)) == 9

    def test_select_benchmarks_rejects_unknown(self):
        with pytest.raises(ExperimentError):
            select_benchmarks(["cholesky", "doom"])

    def test_invalid_scale_rejected(self):
        with pytest.raises(ExperimentError):
            SimulationRunner(scale=0.0)

    def test_runner_caches_identical_runs(self, runner):
        first = runner.run("cholesky", "software")
        second = runner.run("cholesky", "software")
        assert first is second

    def test_experiment_result_rendering(self):
        result = ExperimentResult(
            experiment="demo",
            title="Demo",
            columns=("a", "b"),
        )
        result.add_row(a=1, b=2.5)
        result.add_note("note")
        markdown = result.to_markdown()
        assert "| a | b |" in markdown and "2.500" in markdown and "- note" in markdown
        csv_text = result.to_csv()
        assert csv_text.splitlines()[0] == "a,b"
        assert result.row_for(a=1)["b"] == 2.5
        with pytest.raises(KeyError):
            result.row_for(a=99)


class TestRegistry:
    def test_eleven_paper_experiments_available(self):
        from repro.experiments.registry import experiment_catalog

        catalog = experiment_catalog()
        paper = [entry["name"] for entry in catalog if entry["kind"] == "paper"]
        assert len(paper) == 11
        names = available_experiments()
        assert "figure_12" in names and "table_03" in names
        # The scenario bundles register lazily into the same namespace.
        scenarios = [entry["name"] for entry in catalog if entry["kind"] == "scenario"]
        assert len(scenarios) == 5
        assert all(name.startswith("scenario_") for name in scenarios)

    def test_aliases(self):
        assert get_experiment("fig12") is get_experiment("figure_12")
        assert get_experiment("table3") is get_experiment("table_03")

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ExperimentError):
            get_experiment("figure_99")


class TestHarnesses:
    def test_table_03_requires_no_simulation(self):
        result = run_experiment("table_03")
        total = result.row_for(structure="Total")
        assert total["storage_kb"] == pytest.approx(105.25)

    def test_table_02_reports_paper_columns(self):
        result = run_experiment("table_02", benchmarks=["cholesky", "qr"])
        row = result.row_for(benchmark="qr")
        assert row["paper_tdm_tasks"] == 11_440
        assert row["tdm_tasks"] == 11_440

    def test_figure_02_breakdown_rows(self, runner):
        result = run_experiment("figure_02", benchmarks=FAST_BENCHMARKS, runner=runner)
        for row in result.rows:
            master_total = sum(row[f"master_{p}"] for p in ("DEPS", "SCHED", "EXEC", "IDLE"))
            assert master_total == pytest.approx(1.0, abs=1e-6)
        cholesky = result.row_for(benchmark="cholesky")
        assert cholesky["master_DEPS"] > 0.3

    def test_figure_06_normalizes_to_best(self, runner):
        result = run_experiment("figure_06", benchmarks=["blackscholes"], runner=runner)
        values = [row["normalized_time"] for row in result.rows]
        assert min(values) == pytest.approx(1.0)
        assert all(value >= 1.0 for value in values)

    def test_figure_07_grid_and_normalization(self, runner):
        result = run_experiment(
            "figure_07", benchmarks=["cholesky"], sizes=[512, 2048], runner=runner
        )
        assert len(result.rows) == 4
        assert all(0.0 < row["performance_vs_ideal"] <= 1.05 for row in result.rows)

    def test_figure_08_diagonal_mode(self, runner):
        result = run_experiment(
            "figure_08", benchmarks=["cholesky"], sizes=[128, 1024], runner=runner
        )
        averages = [row for row in result.rows if row["benchmark"] == "AVG"]
        assert len(averages) == 2

    def test_figure_08_rejects_unknown_mode(self, runner):
        with pytest.raises(ExperimentError):
            run_experiment("figure_08", benchmarks=["cholesky"], mode="cube", runner=runner)

    def test_figure_09_latency_sweep(self, runner):
        result = run_experiment(
            "figure_09", benchmarks=["blackscholes"], latencies=[1, 16], runner=runner
        )
        averages = [row for row in result.rows if row["benchmark"] == "AVG"]
        assert len(averages) == 2
        assert all(row["speedup_vs_zero_latency"] > 0.9 for row in averages)

    def test_figure_10_reduction_factors(self, runner):
        result = run_experiment("figure_10", benchmarks=FAST_BENCHMARKS, runner=runner)
        cholesky = result.row_for(benchmark="cholesky")
        assert cholesky["tdm_creation_fraction"] < cholesky["sw_creation_fraction"]
        assert cholesky["reduction_factor"] > 1.0

    def test_figure_11_dynamic_beats_worst_static(self, runner):
        result = run_experiment(
            "figure_11", benchmarks=["blackscholes"], static_bits=[0], runner=runner
        )
        dynamic = result.row_for(benchmark="blackscholes", index_policy="DYN")
        static = result.row_for(benchmark="blackscholes", index_policy="0")
        assert dynamic["average_occupied_sets"] > static["average_occupied_sets"]

    def test_figure_12_contains_all_configurations(self, runner):
        result = run_experiment("figure_12", benchmarks=["cholesky"], runner=runner)
        configurations = {row["configuration"] for row in result.rows if row["benchmark"] == "cholesky"}
        assert configurations == {
            "OptSW",
            "fifo+TDM",
            "lifo+TDM",
            "locality+TDM",
            "successor+TDM",
            "age+TDM",
            "OptTDM",
        }
        opt_tdm = result.row_for(benchmark="cholesky", configuration="OptTDM")
        fifo_tdm = result.row_for(benchmark="cholesky", configuration="fifo+TDM")
        assert opt_tdm["speedup"] >= fifo_tdm["speedup"]

    def test_figure_13_averages_present(self, runner):
        result = run_experiment("figure_13", benchmarks=["cholesky"], runner=runner)
        averages = {row["configuration"] for row in result.rows if row["benchmark"] == "AVG"}
        assert averages == {"Carbon", "TaskSuperscalar", "OptTDM"}


class TestCli:
    def test_list_option(self, capsys):
        assert cli_main(["--list", "table_03"]) == 0
        out = capsys.readouterr().out
        assert "figure_12" in out

    def test_run_table_to_stdout(self, capsys):
        assert cli_main(["table_03"]) == 0
        out = capsys.readouterr().out
        assert "105.250" in out

    def test_run_to_output_directory(self, tmp_path, capsys):
        assert cli_main(["table_03", "--output", str(tmp_path), "--csv"]) == 0
        assert (tmp_path / "table_03.md").exists()
        assert (tmp_path / "table_03.csv").exists()
