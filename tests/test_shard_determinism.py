"""The determinism contract of distributed campaigns, pinned as tests.

Every speedup in this repository — process-pool fan-out, content-addressed
caching, the kernel rewrite, and now multi-host sharding — was sold on the
same promise: the rendered figures are *byte-identical* to a serial run.
This module makes that promise executable:

* serial, ``--jobs 2``, and 3-shard split-and-merge executions of the same
  figure must produce identical CSV and Markdown bytes;
* a shard that dies is repaired by rerunning it against its surviving cache
  directory — a pure warm-up with **zero** re-simulations;
* a failing simulation inside a shard becomes a diagnosable manifest entry
  (canonical key + workload parameters), not a raw pool traceback.
"""

from __future__ import annotations

import dataclasses
import io
import multiprocessing

import pytest

from repro.errors import ExperimentError
from repro.experiments.campaign import CampaignRunError
from repro.experiments.common import SimulationRunner
from repro.experiments.registry import experiment_catalog, resolve_plan, run_experiment
from repro.experiments.shard import (
    MANIFEST_VERSION,
    MergeReport,
    ShardManifest,
    ShardSpec,
    find_manifests,
    manifest_path,
    merge_shards,
    run_shard_worker,
)

from tests.util import experiment_output, merge_and_render, run_all_shards

SCALE = 0.05
BENCHMARKS = ["blackscholes"]

#: The figures under differential test: every paper experiment with a
#: simulation plan, each a tiny but structurally distinct sweep for one
#: benchmark (from 1 canonical key for figure_02 to the TAT/DAT grid of
#: figure_07).  A test below keeps this in step with the registry.
FIGURES = (
    "figure_02",
    "figure_06",
    "figure_07",
    "figure_08",
    "figure_09",
    "figure_10",
    "figure_11",
    "figure_12",
    "figure_13",
)


@pytest.fixture(scope="module")
def serial_outputs():
    """Reference CSV/Markdown of every figure, rendered fully serially."""
    return {name: experiment_output(name, SCALE, BENCHMARKS) for name in FIGURES}


class TestDifferentialEquivalence:
    def test_every_simulating_experiment_is_under_test(self):
        planned = [entry["name"] for entry in experiment_catalog() if entry["simulates"]]
        assert list(FIGURES) == planned

    @pytest.mark.parametrize("figure", FIGURES)
    def test_jobs2_output_is_byte_identical(self, figure, serial_outputs, tmp_path):
        runner = SimulationRunner(scale=SCALE, jobs=2, cache_dir=tmp_path / "cache")
        assert experiment_output(figure, SCALE, BENCHMARKS, runner) == serial_outputs[figure]

    @pytest.mark.parametrize("figure", FIGURES)
    def test_three_shard_split_and_merge_is_byte_identical(
        self, figure, serial_outputs, tmp_path
    ):
        manifests = run_all_shards(figure, SCALE, BENCHMARKS, tmp_path, count=3)
        # The shards partition the plan: every key attempted exactly once.
        all_keys = sorted(key for manifest in manifests for key in manifest.keys)
        planned = resolve_plan(figure, SimulationRunner(scale=SCALE), benchmarks=BENCHMARKS)
        assert all_keys == [item.key for item in planned]
        assert all(not manifest.failures for manifest in manifests)

        csv, markdown, merged_runner = merge_and_render(
            figure, SCALE, BENCHMARKS, tmp_path, count=3
        )
        assert (csv, markdown) == serial_outputs[figure]
        # The render itself was simulation-free: pure merged-cache hits.
        assert merged_runner.cache_info()["simulations_run"] == 0

    def test_shard_workers_write_readable_manifests(self, tmp_path):
        run_all_shards("figure_10", SCALE, BENCHMARKS, tmp_path, count=2)
        for index in (1, 2):
            path = manifest_path(tmp_path / f"shard{index}", "figure_10", ShardSpec(index, 2))
            manifest = ShardManifest.read(path)
            assert manifest.experiment == "figure_10"
            assert manifest.shard_index == index
            assert manifest.shard_count == 2
            assert manifest.scale == SCALE
            assert manifest.simulated == manifest.attempted  # cold caches
            assert manifest.ok


class TestSharedCacheDeterminism:
    """Shards of one campaign running into one shared cache directory."""

    def test_dead_shard_in_a_shared_cache_is_named_by_the_merge_and_repaired_by_rerun(
        self, serial_outputs, tmp_path
    ):
        figure = "figure_12"
        shared = tmp_path / "shared"

        def shard(index):
            runner = SimulationRunner(scale=SCALE, cache_dir=shared)
            return run_shard_worker(figure, ShardSpec(index, 3), runner, benchmarks=BENCHMARKS)

        for index in (1, 2):  # shard 3 is a dead host: it never runs
            manifest = shard(index)
            assert manifest.simulated == manifest.attempted  # peers' keys untouched
        runner = SimulationRunner(scale=SCALE, cache_dir=shared)
        report = merge_shards(figure, [shared], runner, benchmarks=BENCHMARKS)
        assert report.missing_shards == [3]
        assert report.missing_keys
        with pytest.raises(ExperimentError, match=r"rerun shards \[3\] of 3"):
            report.verify()
        rerun = shard(3)
        assert rerun.simulated == rerun.attempted == len(report.missing_keys)
        assert sorted(rerun.keys) == report.missing_keys
        csv, markdown, merged = merge_and_render(
            figure, SCALE, BENCHMARKS, tmp_path, count=3, sources=[shared]
        )
        assert (csv, markdown) == serial_outputs[figure]
        assert merged.cache_info()["simulations_run"] == 0

    def test_manifest_reader_tolerates_versions(self):
        current = ShardManifest(
            experiment="figure_10",
            shard_index=1,
            shard_count=2,
            scale=SCALE,
            seed=0,
            benchmarks=None,
            keys=["ab" * 32],
            simulated=1,
        )
        assert ShardManifest.from_dict(current.to_dict()) == current
        assert current.manifest_version == MANIFEST_VERSION == 4
        for retired in ("stolen_keys", "key_timings", "strategy"):
            assert retired not in current.to_dict()

        # A v3 manifest carries its worker's strategy and per-key timings:
        # still readable, the retired fields are dropped.
        v3 = ShardManifest.from_dict(
            dict(
                current.to_dict(),
                manifest_version=3,
                strategy="cost",
                key_timings={"ab" * 32: 0.25},
            )
        )
        assert v3.manifest_version == 3
        assert v3.keys == current.keys and v3.simulated == current.simulated
        assert dataclasses.replace(v3, manifest_version=4) == current

        # A v2 manifest also lists the keys its worker stole.
        v2 = ShardManifest.from_dict(
            dict(
                current.to_dict(),
                manifest_version=2,
                strategy="modulo",
                key_timings={"ab" * 32: 0.25},
                stolen_keys=["ab" * 32],
            )
        )
        assert v2.manifest_version == 2
        assert dataclasses.replace(v2, manifest_version=4) == current

        # A v1 manifest carries no version at all.
        v1_payload = {
            name: value for name, value in current.to_dict().items() if name != "manifest_version"
        }
        v1 = ShardManifest.from_dict(v1_payload)
        assert v1.manifest_version == 1
        assert dataclasses.replace(v1, manifest_version=4) == current

        # Fields from a *future* writer are dropped, not fatal.
        future = dict(current.to_dict(), manifest_version=5, carbon_footprint_g=12.5)
        assert ShardManifest.from_dict(future).keys == current.keys


def _manifest(**overrides):
    fields = dict(
        experiment="figure_10", shard_index=2, shard_count=3, scale=SCALE, seed=0,
        benchmarks=["blackscholes"], keys=["ab" * 32, "cd" * 32],
        cached_hits=1, simulated=1, wall_time_s=1.5,
    )
    fields.update(overrides)
    return ShardManifest(**fields)


class TestManifestFormat:
    """The manifest file and the worker-facing report, without simulating."""

    def test_write_then_read_round_trips(self, tmp_path):
        manifest = _manifest()
        path = manifest.write(manifest_path(tmp_path, "figure_10", ShardSpec(2, 3)))
        assert path.name == "figure_10.shard-2-of-3.json"
        assert ShardManifest.read(path) == manifest

    def test_find_manifests_filters_by_experiment(self, tmp_path):
        assert find_manifests(tmp_path) == []  # no manifests directory yet
        for experiment in ("figure_10", "figure_12"):
            for index in (1, 2):
                spec = ShardSpec(index, 2)
                _manifest(experiment=experiment, shard_index=index, shard_count=2).write(
                    manifest_path(tmp_path, experiment, spec)
                )
        assert [path.name for path in find_manifests(tmp_path, "figure_12")] == [
            "figure_12.shard-1-of-2.json",
            "figure_12.shard-2-of-2.json",
        ]
        assert len(find_manifests(tmp_path)) == 4

    def test_clean_report_prints_the_summary_and_exits_zero(self):
        manifest = _manifest()
        out, err = io.StringIO(), io.StringIO()
        assert manifest.ok and manifest.attempted == 2
        assert manifest.report(out, err) == 0
        assert out.getvalue() == (
            "[shard 2/3] figure_10: 2 keys, 1 cached, 1 simulated, 0 failures in 1.5s\n"
        )
        assert err.getvalue() == ""

    def test_failed_report_names_each_failure_and_exits_one(self):
        failure = {
            "params": {"benchmark": "blackscholes"},
            "error_type": "RuntimeError",
            "error_message": "boom",
        }
        manifest = _manifest(failures={"cd" * 32: failure})
        out, err = io.StringIO(), io.StringIO()
        assert not manifest.ok
        assert manifest.report(out, err) == 1
        assert "1 failures" in out.getvalue()
        assert err.getvalue().startswith(f"  FAILED {'cd' * 6}… ")
        assert "RuntimeError: boom" in err.getvalue()


def _report(missing, manifests=(), failures=None, missing_shards=()):
    return MergeReport(
        experiment="figure_10",
        entries_copied=0,
        planned_keys=4,
        missing_keys=list(missing),
        manifests=list(manifests),
        failures=dict(failures or {}),
        missing_shards=list(missing_shards),
    )


class TestMergeVerdicts:
    """How an incomplete merge tells the operator what to rerun."""

    def test_complete_merge_verifies_to_itself(self):
        report = _report([])
        assert report.complete
        assert report.verify() is report

    def test_one_shard_count_names_the_owning_shards(self):
        # 0x..ab % 3 == 0 and 0x..cd % 3 == 2: shards 1 and 3 own the keys.
        missing = ["ab" * 32, "cd" * 32]
        report = _report(missing, manifests=[_manifest(shard_index=3)])
        with pytest.raises(ExperimentError, match=r"rerun shards \[1, 3\] of 3"):
            report.verify()

    def test_without_manifests_the_missing_shards_are_named(self):
        report = _report(["ab" * 32], missing_shards=[2, 3])
        with pytest.raises(ExperimentError, match=r"rerun shards \[2, 3\] \(no manifest\)"):
            report.verify()

    def test_failed_keys_are_flagged_as_not_converging(self):
        key = "ab" * 32
        report = _report([key], manifests=[_manifest()], failures={key: {}})
        with pytest.raises(ExperimentError, match=r"1 of the missing keys \*failed\*"):
            report.verify()


class TestResumability:
    def test_dead_shard_rerun_is_pure_cache_warmup(self, serial_outputs, tmp_path):
        """Kill-and-rerun converges with zero re-simulations."""
        figure = "figure_12"
        manifests = run_all_shards(figure, SCALE, BENCHMARKS, tmp_path, count=3)
        victim = max(manifests, key=lambda manifest: manifest.attempted)
        assert victim.attempted > 0 and victim.simulated > 0

        # The "dead" host restarts: a fresh runner over the surviving cache.
        rerun_runner = SimulationRunner(
            scale=SCALE, cache_dir=tmp_path / f"shard{victim.shard_index}"
        )
        rerun = run_shard_worker(
            figure,
            ShardSpec(victim.shard_index, victim.shard_count),
            rerun_runner,
            benchmarks=BENCHMARKS,
        )
        assert rerun.simulated == 0
        assert rerun.cached_hits == rerun.attempted == victim.attempted
        assert rerun.keys == victim.keys

        # And the converged merge still renders the exact serial bytes.
        csv, markdown, merged = merge_and_render(figure, SCALE, BENCHMARKS, tmp_path, count=3)
        assert (csv, markdown) == serial_outputs[figure]
        assert merged.cache_info()["simulations_run"] == 0

    def test_incomplete_merge_names_missing_shards(self, tmp_path):
        figure = "figure_12"
        # Only shard 1 of 3 ever ran.
        runner = SimulationRunner(scale=SCALE, cache_dir=tmp_path / "shard1")
        run_shard_worker(figure, ShardSpec(1, 3), runner, benchmarks=BENCHMARKS)

        merged = SimulationRunner(scale=SCALE, cache_dir=tmp_path / "merged")
        report = merge_shards(figure, [tmp_path / "shard1"], merged, benchmarks=BENCHMARKS)
        assert not report.complete
        assert sorted(set(report.missing_shards)) == [2, 3]
        with pytest.raises(ExperimentError, match="incomplete"):
            report.verify()

    def test_merge_with_shared_cache_dir_is_a_completeness_check(self, tmp_path):
        """Shared-filesystem campaigns: all shards in one dir, merge = verify."""
        figure = "figure_10"
        shared = tmp_path / "shared"
        for index in (1, 2):
            runner = SimulationRunner(scale=SCALE, cache_dir=shared)
            run_shard_worker(figure, ShardSpec(index, 2), runner, benchmarks=BENCHMARKS)
        merged = SimulationRunner(scale=SCALE, cache_dir=shared)
        report = merge_shards(figure, [shared], merged, benchmarks=BENCHMARKS)
        assert report.entries_copied == 0  # nothing to copy from itself
        assert report.complete
        assert len(report.manifests) == 2


class TestFailureDiagnostics:
    def test_shard_cli_has_no_steal_option(self, tmp_path, capsys):
        from repro.experiments.cli import main as cli_main

        with pytest.raises(SystemExit) as excinfo:
            cli_main([
                "figure_12", "--shard", "1/3", "--steal",
                "--cache-dir", str(tmp_path / "cache"),
            ])
        assert excinfo.value.code == 2
        assert "--steal" in capsys.readouterr().err
        assert not (tmp_path / "cache").exists()

    def test_worker_requires_cache_dir(self):
        runner = SimulationRunner(scale=SCALE)
        with pytest.raises(ExperimentError, match="cache-dir"):
            run_shard_worker("figure_10", ShardSpec(1, 2), runner, benchmarks=BENCHMARKS)

    def test_serial_failure_lands_in_manifest_not_traceback(self, tmp_path, monkeypatch):
        import repro.experiments.campaign as campaign_module

        def explode(program, config):
            raise RuntimeError("injected fault")

        monkeypatch.setattr(campaign_module, "run_simulation", explode)
        runner = SimulationRunner(scale=SCALE, cache_dir=tmp_path / "cache")
        manifest = run_shard_worker(
            "figure_10", ShardSpec(1, 1), runner, benchmarks=BENCHMARKS
        )
        assert not manifest.ok
        assert len(manifest.failures) == manifest.attempted
        for key, failure in manifest.failures.items():
            assert failure["key"] == key
            assert failure["error_type"] == "RuntimeError"
            assert failure["error_message"] == "injected fault"
            assert failure["params"]["benchmark"] == "blackscholes"
            assert "traceback" in failure

    def test_pool_failure_raises_campaign_run_error_with_context(self, monkeypatch):
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("monkeypatched fault injection needs fork workers")
        import repro.experiments.campaign as campaign_module

        real = campaign_module.run_simulation

        def explode_on_qr(program, config):
            if program.name.startswith("qr"):
                raise ValueError("qr blew up")
            return real(program, config)

        monkeypatch.setattr(campaign_module, "run_simulation", explode_on_qr)
        runner = SimulationRunner(scale=SCALE, jobs=2)
        with pytest.raises(CampaignRunError) as excinfo:
            run_experiment(
                "figure_10", scale=SCALE, benchmarks=["blackscholes", "qr"], runner=runner
            )
        error = excinfo.value
        assert error.params["benchmark"] == "qr"
        assert error.error_type == "ValueError"
        assert error.key[:12] in str(error)
        assert "qr" in str(error)
        # The healthy batchmates were still committed before the raise.
        assert runner.cache_info()["simulations_run"] >= 1
