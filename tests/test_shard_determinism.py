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

import multiprocessing

import pytest

from repro.errors import ExperimentError
from repro.experiments.cache import load_cost_profile
from repro.experiments.campaign import CampaignRunError
from repro.experiments.common import SimulationRunner
from repro.experiments.registry import resolve_plan, run_experiment
from repro.experiments.shard import (
    MANIFEST_VERSION,
    ShardManifest,
    ShardSpec,
    manifest_path,
    merge_shards,
    run_shard_worker,
)

from tests.util import experiment_output, merge_and_render, run_all_shards

SCALE = 0.05
BENCHMARKS = ["blackscholes"]

#: The figures under differential test: tiny but structurally distinct
#: sweeps (1, 2 and 10 canonical keys for one benchmark respectively).
FIGURES = ("figure_02", "figure_10", "figure_12")


@pytest.fixture(scope="module")
def serial_outputs():
    """Reference CSV/Markdown of every figure, rendered fully serially."""
    return {name: experiment_output(name, SCALE, BENCHMARKS) for name in FIGURES}


class TestDifferentialEquivalence:
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


class TestCostAndStealDeterminism:
    """The cost-planning strategy never reaches the rendered bytes."""

    def test_cost_strategy_split_and_merge_is_byte_identical(
        self, serial_outputs, tmp_path
    ):
        figure = "figure_12"
        manifests = run_all_shards(
            figure, SCALE, BENCHMARKS, tmp_path, count=3, strategy="cost"
        )
        # Cost bins still partition the plan: every key attempted once.
        all_keys = sorted(key for manifest in manifests for key in manifest.keys)
        planned = resolve_plan(figure, SimulationRunner(scale=SCALE), benchmarks=BENCHMARKS)
        assert all_keys == [item.key for item in planned]
        assert all(manifest.strategy == "cost" for manifest in manifests)
        # Cold caches: every simulated key carries a wall-time observation.
        for manifest in manifests:
            assert sorted(manifest.key_timings) == sorted(manifest.keys)
            assert all(seconds > 0 for seconds in manifest.key_timings.values())

        csv, markdown, merged = merge_and_render(figure, SCALE, BENCHMARKS, tmp_path, count=3)
        assert (csv, markdown) == serial_outputs[figure]
        assert merged.cache_info()["simulations_run"] == 0
        # The merge unioned every shard's observations into the calibration
        # corpus of the next cost-planned campaign over this cache.
        profile = load_cost_profile(tmp_path / "merged")
        assert sorted(profile) == all_keys

    def test_cost_shards_sharing_one_cache_partition_the_plan(
        self, serial_outputs, tmp_path
    ):
        # Shards of one campaign run one after another into one cache, and
        # every batch records its timings in that cache's cost profile — so
        # each shard plans against a profile its peers have grown.  The
        # plan's own observations must not move the bins: every key is
        # still simulated by exactly one shard.
        figure = "figure_12"
        manifests = run_all_shards(
            figure, SCALE, BENCHMARKS, tmp_path, count=3, strategy="cost", shared=True
        )
        planned = resolve_plan(figure, SimulationRunner(scale=SCALE), benchmarks=BENCHMARKS)
        simulated = sorted(key for manifest in manifests for key in manifest.key_timings)
        assert simulated == [item.key for item in planned]
        assert sum(manifest.simulated for manifest in manifests) == len(planned)
        assert sorted(load_cost_profile(tmp_path / "shared")) == simulated
        csv, markdown, merged = merge_and_render(
            figure, SCALE, BENCHMARKS, tmp_path, count=3, sources=[tmp_path / "shared"]
        )
        assert (csv, markdown) == serial_outputs[figure]
        assert merged.cache_info()["simulations_run"] == 0

    def test_dead_cost_shard_is_named_by_the_merge_and_repaired_by_rerun(
        self, serial_outputs, tmp_path
    ):
        figure = "figure_12"
        shared = tmp_path / "shared"

        def shard(index):
            runner = SimulationRunner(scale=SCALE, cache_dir=shared)
            return run_shard_worker(
                figure, ShardSpec(index, 3), runner, benchmarks=BENCHMARKS, strategy="cost"
            )

        shard(1)
        shard(2)  # shard 3 is a dead host: it never runs
        runner = SimulationRunner(scale=SCALE, cache_dir=shared)
        report = merge_shards(figure, [shared], runner, benchmarks=BENCHMARKS)
        assert report.missing_shards == [3]
        with pytest.raises(ExperimentError, match=r"rerun shards \[3\]"):
            report.verify()
        rerun = shard(3)
        assert rerun.simulated == len(report.missing_keys)
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
            key_timings={"ab" * 32: 0.25},
            strategy="cost",
        )
        assert ShardManifest.from_dict(current.to_dict()) == current
        assert current.manifest_version == MANIFEST_VERSION == 3
        assert "stolen_keys" not in current.to_dict()

        # A v2 manifest also lists the keys its worker stole: still readable,
        # the retired field is dropped.
        v2 = ShardManifest.from_dict(
            dict(current.to_dict(), manifest_version=2, stolen_keys=["ab" * 32])
        )
        assert v2.manifest_version == 2
        assert v2.keys == current.keys and v2.key_timings == current.key_timings
        assert v2.strategy == "cost"
        assert "stolen_keys" not in v2.to_dict()

        # A v1 manifest predates key_timings/strategy entirely.
        v1_payload = {
            name: value
            for name, value in current.to_dict().items()
            if name not in ("key_timings", "strategy", "manifest_version")
        }
        v1 = ShardManifest.from_dict(v1_payload)
        assert v1.manifest_version == 1
        assert v1.key_timings == {} and v1.strategy == "modulo"

        # Fields from a *future* writer are dropped, not fatal.
        future = dict(current.to_dict(), manifest_version=4, carbon_footprint_g=12.5)
        assert ShardManifest.from_dict(future).keys == current.keys


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
