"""Experiment harnesses, registry and CLI.

These tests run the harnesses at tiny scales with a benchmark subset; the
goal is to check the plumbing (rows, columns, normalization, notes, rendering)
rather than the headline numbers, whose directions
``tests/test_paper_claims.py`` asserts at scale 0.25.
"""

from contextlib import closing

import pytest

from repro.errors import ExperimentError
from repro.experiments import (
    available_experiments,
    get_experiment,
    run_experiment,
)
from repro.experiments import cli as cli_module
from repro.experiments.cli import main as cli_main
from repro.experiments.common import ExperimentResult, SimulationRunner, select_benchmarks
from repro.experiments.registry import canonical_name, experiment_catalog, resolve_plan

SCALE = 0.12
FAST_BENCHMARKS = ["cholesky", "blackscholes"]

#: The eleven paper experiments, in registry order.
PAPER_EXPERIMENTS = [
    "figure_02",
    "figure_06",
    "table_02",
    "figure_07",
    "figure_08",
    "figure_09",
    "table_03",
    "figure_10",
    "figure_11",
    "figure_12",
    "figure_13",
]

#: Every experiment with a simulation plan: the nine paper figures.
PLANNED = [entry["name"] for entry in experiment_catalog() if entry["simulates"]]


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
        catalog = experiment_catalog()
        assert [entry["name"] for entry in catalog] == PAPER_EXPERIMENTS
        assert available_experiments() == PAPER_EXPERIMENTS
        assert {entry["kind"] for entry in catalog} == {"paper"}

    def test_all_resolves_to_the_catalog(self, monkeypatch):
        rendered = []

        def fake_run_experiment(name, **kwargs):
            rendered.append(name)
            return ExperimentResult(experiment=name, title=name, columns=("a",))

        monkeypatch.setattr(cli_module, "run_experiment", fake_run_experiment)
        assert cli_main(["all", "--scale", "0.05"]) == 0
        assert rendered == PAPER_EXPERIMENTS

    def test_aliases(self):
        assert get_experiment("fig12") is get_experiment("figure_12")
        assert get_experiment("table3") is get_experiment("table_03")

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ExperimentError):
            get_experiment("figure_99")

    def test_catalog_entries_and_aliases_name_their_experiment(self):
        catalog = experiment_catalog()
        assert all(
            entry.keys() == {"name", "aliases", "title", "kind", "simulates"}
            and entry["title"] and entry["aliases"]
            for entry in catalog
        )
        for entry in catalog:
            for alias in entry["aliases"]:
                assert canonical_name(alias) == canonical_name(alias.upper()) == entry["name"]
        by_name = {entry["name"]: entry for entry in catalog}
        assert by_name["figure_02"]["aliases"] == ["fig2", "figure02", "figure2"]
        assert by_name["table_03"]["simulates"] is False


class TestRenderRunsThePlan:
    @pytest.mark.parametrize("name", PLANNED)
    def test_serial_render_simulates_exactly_its_plan(self, name):
        benchmarks = ["blackscholes"]
        runner = SimulationRunner(scale=0.05)
        planned = resolve_plan(name, runner, benchmarks=benchmarks)
        run_experiment(name, benchmarks=benchmarks, runner=runner)
        assert runner.cache_info()["simulations_run"] == len(planned) > 0

    def test_every_planned_experiment_is_covered(self):
        assert PLANNED == [name for name in PAPER_EXPERIMENTS if not name.startswith("table_")]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_unsupported_option_fails_before_anything_simulates(self, jobs):
        with closing(SimulationRunner(scale=0.05, jobs=jobs)) as runner, \
                pytest.raises(TypeError):
            run_experiment(
                "figure_02", runner=runner, benchmarks=["blackscholes"], schedulers=["fifo"]
            )
        assert runner.cache_info()["simulations_run"] == 0

    @pytest.mark.parametrize("name", ["figure_02", "table_02", "table_03"])
    def test_a_scale_other_than_the_runners_is_rejected(self, name):
        runner = SimulationRunner(scale=0.05)
        with pytest.raises(ExperimentError, match="differs from the runner's scale"):
            run_experiment(name, scale=1.0, benchmarks=["blackscholes"], runner=runner)
        assert runner.cache_info()["simulations_run"] == 0

    def test_a_runner_renders_at_its_scale_with_or_without_a_matching_one(self):
        runner = SimulationRunner(scale=0.05)
        options = dict(benchmarks=["blackscholes"], runner=runner)
        assert (
            run_experiment("table_02", scale=0.05, **options).to_csv()
            == run_experiment("table_02", **options).to_csv()
            == run_experiment("table_02", scale=0.05, benchmarks=["blackscholes"]).to_csv()
        )

    def test_figure_08_plan_rejects_unknown_mode(self):
        with pytest.raises(ExperimentError, match="unknown sweep mode"):
            resolve_plan(
                "figure_08", SimulationRunner(scale=0.05), benchmarks=["cholesky"], mode="cube"
            )


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

    @pytest.mark.parametrize("name", ["figure_99", "scenario"])
    def test_unknown_experiment_is_a_clean_usage_error(self, name, capsys):
        assert cli_main([name, "--scale", "0.05"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown experiment") and repr(name) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "option,message",
        [
            (["--benchmarks", "doom"], "error: unknown benchmarks: doom"),
            (["--jobs", "0"], "error: jobs must be >= 1, got 0"),
            (["--scale", "2"], "error: scale must be in (0, 1], got 2.0"),
        ],
        ids=["benchmarks", "jobs", "scale"],
    )
    def test_bad_runner_option_is_a_clean_usage_error(self, option, message, capsys):
        assert cli_main(["figure_02", *option]) == 2
        err = capsys.readouterr().err
        assert err.startswith(message)
        assert "Traceback" not in err

    def test_list_prints_the_registry_in_order(self, capsys):
        assert cli_main(["--list"]) == 0
        assert capsys.readouterr().out.splitlines() == PAPER_EXPERIMENTS

    @pytest.mark.parametrize("alias", ["tab3", "table3", "table03", "TABLE_03"])
    def test_an_alias_renders_the_canonical_bytes(self, alias, capsys):
        assert cli_main(["table_03"]) == 0
        canonical = capsys.readouterr().out
        assert cli_main([alias]) == 0
        assert capsys.readouterr().out == canonical

    @pytest.mark.parametrize(
        "argv,message",
        [
            ([], "an experiment name (or 'all') is required unless --list is given"),
        ],
        ids=["no-experiment"],
    )
    def test_bad_option_combination_is_a_usage_error(self, argv, message, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(argv)
        assert excinfo.value.code == 2
        assert message in capsys.readouterr().err

    def test_trace_is_not_a_verb(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["trace", "x.json"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: x.json" in capsys.readouterr().err
