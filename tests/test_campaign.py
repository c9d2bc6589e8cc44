"""Campaign engine: canonical keys, result caching, parallel equivalence.

The headline regression here: the old ``SimulationRunner._config_token``
omitted several DMU fields, so two configurations differing only in (say)
``tat_associativity`` mapped to the same memo key and sweeps returned stale
results.  The canonical content hash must keep every such pair distinct.
"""

import dataclasses
import json
import warnings

import pytest

from repro.config import DMUConfig, default_paper_config
from repro.errors import ExperimentError
from repro.experiments.cache import ResultCache, canonical_run_key
from repro.experiments.campaign import CampaignEngine, RunRequest
from repro.experiments.common import SimulationRunner
from repro.experiments.registry import run_experiment
from repro.sim.machine import SimulationResult, run_simulation

from tests.util import diamond_program, make_config

SCALE = 0.1

#: DMU fields the legacy token silently dropped, with a distinct second value
#: that keeps the configuration valid.
LEGACY_TOKEN_OMISSIONS = {
    "tat_associativity": 4,
    "dat_associativity": 4,
    "elements_per_list_entry": 4,
    "ready_queue_entries": 4096,
    "instruction_issue_cycles": 16,
    "noc_roundtrip_cycles": 60,
    "unlimited": True,
}


def _key(config, **kwargs):
    defaults = dict(benchmark="cholesky", scale=SCALE, seed=0)
    defaults.update(kwargs)
    return canonical_run_key(config, **defaults)


class TestCanonicalKeyRegression:
    @pytest.mark.parametrize("field_name,other_value", sorted(LEGACY_TOKEN_OMISSIONS.items()))
    def test_legacy_token_collides_but_canonical_key_does_not(self, field_name, other_value):
        """Two configs differing only in a dropped field: the old token is
        identical (the collision), the canonical key is not (the fix)."""
        base = default_paper_config()
        varied = base.with_dmu(
            dataclasses.replace(base.dmu, **{field_name: other_value})
        ).validated()
        assert getattr(base.dmu, field_name) != other_value
        # The legacy token cannot tell the two configurations apart ...
        assert SimulationRunner._config_token(base) == SimulationRunner._config_token(varied)
        # ... the content hash always can.
        assert _key(base) != _key(varied)

    def test_scheduler_kept_for_hardware_runtimes(self):
        """The old RunKey collapsed the scheduler to the runtime name for
        carbon/task_superscalar; the canonical key must not."""
        engine = CampaignEngine(scale=SCALE)
        fifo = engine.resolve(RunRequest("cholesky", "carbon", "fifo"))
        age = engine.resolve(RunRequest("cholesky", "carbon", "age"))
        assert fifo.key != age.key

    def test_seed_is_part_of_the_key(self):
        seeded = CampaignEngine(scale=SCALE, seed=7)
        unseeded = CampaignEngine(scale=SCALE, seed=0)
        request = RunRequest("cholesky", "tdm")
        assert seeded.resolve(request).key != unseeded.resolve(request).key

    def test_explicit_granularity_normalizes_granularity_runtime(self):
        engine = CampaignEngine(scale=SCALE)
        a = engine.resolve(RunRequest("cholesky", "software", granularity=8))
        b = engine.resolve(
            RunRequest("cholesky", "software", granularity=8, granularity_runtime="tdm")
        )
        assert a.key == b.key

    def test_distinct_workloads_distinct_keys(self):
        config = default_paper_config()
        assert _key(config) != _key(config, benchmark="qr")
        assert _key(config) != _key(config, granularity=4)
        assert _key(config) != _key(config, seed=3)
        assert canonical_run_key(config, "cholesky", 0.1) != canonical_run_key(
            config, "cholesky", 0.2
        )


class TestResultSerialization:
    @pytest.fixture(scope="class")
    def live_result(self):
        return run_simulation(diamond_program(), make_config(runtime="tdm"))

    def test_round_trip_preserves_consumed_metrics(self, live_result):
        restored = SimulationResult.from_dict(
            json.loads(json.dumps(live_result.to_dict()))
        )
        assert restored.total_cycles == live_result.total_cycles
        assert restored.microseconds == live_result.microseconds
        assert restored.edp == live_result.edp
        assert restored.master_breakdown() == live_result.master_breakdown()
        assert restored.worker_breakdown() == live_result.worker_breakdown()
        assert restored.idle_fraction == live_result.idle_fraction
        assert restored.master_creation_fraction == live_result.master_creation_fraction
        assert restored.scheduler_name == live_result.scheduler_name
        assert restored.config == live_result.config
        assert restored.num_tasks_executed == live_result.num_tasks_executed
        assert restored.dmu_stats.as_dict() == live_result.dmu_stats.as_dict()
        assert restored.dat_average_occupied_sets == live_result.dat_average_occupied_sets

    def test_speedup_between_live_and_restored(self, live_result):
        restored = SimulationResult.from_dict(live_result.to_dict())
        assert restored.speedup_over(live_result) == 1.0
        assert restored.normalized_edp(live_result) == 1.0


class TestResultCache:
    def test_disk_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        result = run_simulation(diamond_program(), make_config(runtime="software"))
        key = "ab" + "0" * 62
        cache.put(key, result)
        assert key in cache
        restored = cache.get(key)
        assert restored.total_cycles == result.total_cycles
        assert restored.energy.to_dict() == result.energy.to_dict()
        assert len(cache) == 1

    def test_missing_and_corrupt_entries_are_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("cd" + "0" * 62) is None
        path = cache.path_for("ef" + "0" * 62)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("{not json", encoding="utf-8")
        assert cache.get("ef" + "0" * 62) is None
        assert cache.misses == 2

    @pytest.mark.parametrize(
        "document",
        ["[1, 2, 3]", '{"version": 1}', '{"version": 1, "result": {"oops": true}}'],
    )
    def test_structurally_malformed_entries_are_misses(self, tmp_path, document):
        # Valid JSON of the wrong shape must resimulate, not abort the campaign.
        cache = ResultCache(tmp_path)
        key = "aa" + "0" * 62
        path = cache.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(document, encoding="utf-8")
        assert cache.get(key) is None
        assert cache.misses == 1

    def test_entries_with_retired_backend_field_still_hit(self, tmp_path):
        # Entries written while DMUConfig still had a storage-backend field
        # store it inside the result's config, under a valid checksum.
        result = run_simulation(diamond_program(), make_config(runtime="tdm"))
        result_dict = result.to_dict()
        result_dict["config"]["dmu"]["backend"] = "accel"
        key = "ab" + "0" * 62
        old = ResultCache(tmp_path / "old")
        old.put_serialized(key, result_dict)
        restored = old.get(key)
        assert restored is not None
        assert restored.config == result.config
        assert (old.hits, old.misses, old.quarantined) == (1, 0, 0)
        merged = ResultCache(tmp_path / "merged")
        assert merged.merge_from(old) == 1
        assert old.quarantined == 0
        assert merged.get(key).total_cycles == result.total_cycles
        assert (merged.hits, merged.quarantined) == (1, 0)

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        result = run_simulation(diamond_program(), make_config(runtime="software"))
        cache.put("12" + "0" * 62, result)
        cache.clear()
        assert len(cache) == 0

    def test_read_only_cache_keeps_serving_hits(self, tmp_path, monkeypatch):
        """A read-only cache directory (NFS mount, permission squash) must
        degrade gracefully: the LRU mtime refresh fails, reads keep working,
        one warning fires, and the failure counter keeps counting."""
        cache = ResultCache(tmp_path)
        result = run_simulation(diamond_program(), make_config(runtime="software"))
        key = "ab" + "0" * 62
        cache.put(key, result)

        import os as os_module

        def read_only_utime(*args, **kwargs):
            raise PermissionError(30, "Read-only file system")

        monkeypatch.setattr("repro.experiments.cache.os.utime", read_only_utime)
        with pytest.warns(RuntimeWarning, match="is not writable"):
            restored = cache.get(key)
        assert restored is not None
        assert restored.total_cycles == result.total_cycles
        assert cache.hits == 1
        assert cache.mtime_refresh_failures == 1
        # Later hits keep serving and counting, but warn only once.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cache.get(key) is not None
        assert cache.hits == 2
        assert cache.mtime_refresh_failures == 2
        assert os_module.utime is not None  # monkeypatch scoped to the module under test

    def test_vanished_entry_mtime_refresh_stays_silent(self, tmp_path, monkeypatch):
        # A concurrent prune deleting the entry between read and refresh is
        # normal operation, not a degradation — no warning, no counter.
        cache = ResultCache(tmp_path)
        result = run_simulation(diamond_program(), make_config(runtime="software"))
        key = "cd" + "0" * 62
        cache.put(key, result)
        monkeypatch.setattr(
            "repro.experiments.cache.os.utime",
            lambda *args, **kwargs: (_ for _ in ()).throw(FileNotFoundError()),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cache.get(key) is not None
        assert cache.mtime_refresh_failures == 0


class TestEngineCaching:
    def test_memo_hit_and_counters(self):
        runner = SimulationRunner(scale=SCALE)
        first = runner.run("cholesky", "software")
        second = runner.run("cholesky", "software")
        assert first is second
        info = runner.cache_info()
        assert info["simulations_run"] == 1
        assert info["memory_hits"] == 1

    def test_second_invocation_simulates_nothing(self, tmp_path):
        cold = SimulationRunner(scale=SCALE, cache_dir=tmp_path)
        cold.run("cholesky", "software")
        cold.run("cholesky", "tdm", "lifo")
        assert cold.cache_info()["simulations_run"] == 2

        warm = SimulationRunner(scale=SCALE, cache_dir=tmp_path)
        a = warm.run("cholesky", "software")
        b = warm.run("cholesky", "tdm", "lifo")
        info = warm.cache_info()
        assert info["simulations_run"] == 0
        assert info["disk_hits"] == 2
        assert a.total_cycles == cold.run("cholesky", "software").total_cycles
        assert b.scheduler_name == "lifo"

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ExperimentError):
            SimulationRunner(scale=SCALE, jobs=0)

    def test_run_many_deduplicates(self):
        runner = SimulationRunner(scale=SCALE)
        requests = [RunRequest("cholesky", "software")] * 3
        results = runner.run_many(requests)
        assert len(results) == 3
        assert results[0] is results[1] is results[2]
        assert runner.cache_info()["simulations_run"] == 1


class TestParallelEquivalence:
    def test_jobs2_csv_is_byte_identical_to_serial(self, tmp_path):
        serial = SimulationRunner(scale=SCALE)
        parallel = SimulationRunner(scale=SCALE, jobs=2, cache_dir=tmp_path / "cache")
        kwargs = dict(scale=SCALE, benchmarks=["blackscholes"])
        serial_result = run_experiment("figure_12", runner=serial, **kwargs)
        parallel_result = run_experiment("figure_12", runner=parallel, **kwargs)
        assert parallel_result.to_csv() == serial_result.to_csv()
        assert parallel_result.to_markdown() == serial_result.to_markdown()
        # The prefetch covered the whole sweep (the FIFO baseline and the
        # fifo scheduler point share one key): the harness itself then ran
        # entirely from the memo.
        assert parallel.cache_info()["simulations_run"] == 10

    def test_parallel_results_persist_for_warm_rerun(self, tmp_path):
        cache_dir = tmp_path / "cache"
        first = SimulationRunner(scale=SCALE, jobs=2, cache_dir=cache_dir)
        run_experiment("figure_10", runner=first, scale=SCALE, benchmarks=["blackscholes"])
        assert first.cache_info()["simulations_run"] == 2

        second = SimulationRunner(scale=SCALE, jobs=2, cache_dir=cache_dir)
        run_experiment("figure_10", runner=second, scale=SCALE, benchmarks=["blackscholes"])
        assert second.cache_info()["simulations_run"] == 0


class TestCachePruning:
    """``ResultCache.prune`` / ``--cache-max-bytes``: oldest-mtime eviction."""

    def _populate(self, tmp_path, count=4):
        import os
        import time

        cache = ResultCache(tmp_path / "cache")
        paths = []
        for index in range(count):
            key = f"{index:02x}" + "ab" * 31
            path = cache.put_serialized(key, {"payload": "x" * 100, "index": index})
            # Distinct, strictly increasing mtimes so eviction order is exact.
            stamp = time.time() - (count - index) * 100
            os.utime(path, (stamp, stamp))
            paths.append(path)
        return cache, paths

    def test_prune_evicts_oldest_mtime_first(self, tmp_path):
        cache, paths = self._populate(tmp_path)
        entry_size = paths[0].stat().st_size
        total = cache.total_bytes()
        evicted = cache.prune(total - entry_size)  # force out exactly one
        assert evicted == 1
        assert not paths[0].exists()  # the oldest went first
        assert all(path.exists() for path in paths[1:])

    def test_prune_noop_under_budget(self, tmp_path):
        cache, paths = self._populate(tmp_path)
        assert cache.prune(cache.total_bytes()) == 0
        assert all(path.exists() for path in paths)

    def test_prune_to_zero_clears_everything(self, tmp_path):
        cache, paths = self._populate(tmp_path)
        assert cache.prune(0) == len(paths)
        assert cache.total_bytes() == 0
        assert len(cache) == 0

    def test_prune_rejects_negative_budget(self, tmp_path):
        cache, _paths = self._populate(tmp_path, count=1)
        with pytest.raises(ValueError):
            cache.prune(-1)

    def test_engine_enforces_budget_after_batches(self, tmp_path):
        engine = CampaignEngine(
            scale=SCALE, cache_dir=tmp_path / "cache", cache_max_bytes=0
        )
        engine.run_many([RunRequest("blackscholes", "software")])
        # A zero budget keeps the disk cache empty (everything evicted), and
        # the eviction is reported in the counters.
        assert engine.disk_cache.total_bytes() == 0
        assert engine.cache_info()["cache_evictions"] >= 1

    def test_engine_rejects_negative_budget(self, tmp_path):
        with pytest.raises(ExperimentError):
            CampaignEngine(scale=SCALE, cache_dir=tmp_path / "c", cache_max_bytes=-5)

    def test_cli_requires_cache_dir_for_budget(self, capsys):
        from repro.experiments.cli import main

        with pytest.raises(SystemExit):
            main(["figure_02", "--cache-max-bytes", "1000"])
        assert "--cache-max-bytes requires --cache-dir" in capsys.readouterr().err


class TestCachePruneEdgeCases:
    """The corners of eviction: mtime ties, zero budgets, mid-campaign needs."""

    def _cache_with_keys(self, tmp_path, keys, mtime=None):
        import os

        cache = ResultCache(tmp_path / "cache")
        for key in keys:
            path = cache.put_serialized(key, {"payload": "x" * 100})
            if mtime is not None:
                os.utime(path, (mtime, mtime))
        return cache

    def test_mtime_ties_break_deterministically_by_key(self, tmp_path):
        # Coarse-timestamp filesystems and just-merged shard caches produce
        # exact mtime ties; eviction order must not depend on readdir order.
        keys = sorted(f"{index:02x}" + "cd" * 31 for index in range(6))
        cache = self._cache_with_keys(tmp_path, keys, mtime=1_000_000.0)
        entry = cache.path_for(keys[0]).stat().st_size
        assert cache.prune(entry * 2) == 4
        assert cache.keys() == keys[4:]  # lexicographically-smallest evicted first

    def test_prune_zero_budget_on_empty_cache_is_noop(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        assert cache.prune(0) == 0
        assert cache.total_bytes() == 0

    def test_get_refreshes_mtime_so_hot_keys_survive_pruning(self, tmp_path):
        import os

        result = run_simulation(diamond_program(), make_config(runtime="software"))
        cache = ResultCache(tmp_path / "cache")
        old_key, new_key = "aa" + "0" * 62, "bb" + "0" * 62
        old_path = cache.put(old_key, result)
        new_path = cache.put(new_key, result)
        os.utime(old_path, (1_000_000.0, 1_000_000.0))
        os.utime(new_path, (2_000_000.0, 2_000_000.0))
        # A campaign reads the *older* entry: it becomes most-recently-used …
        assert cache.get(old_key) is not None
        # … so pruning down to one entry evicts the unread key instead.
        assert cache.prune(old_path.stat().st_size) == 1
        assert old_key in cache
        assert new_key not in cache

    def test_manifests_inside_cache_dir_are_never_pruned_or_counted(self, tmp_path):
        # Every non-result artifact a campaign parks inside the cache dir —
        # shard manifests, work-stealing claims, the cost profile — must be
        # invisible to entry enumeration, pruning, clearing and merging.
        cache = self._cache_with_keys(tmp_path, ["ab" + "0" * 62])
        manifest = cache.directory / "manifests" / "figure_10.shard-1-of-2.json"
        manifest.parent.mkdir()
        manifest.write_text('{"experiment": "figure_10"}', encoding="utf-8")
        claim = cache.directory / "claims" / ("cd" * 32 + ".claim")
        claim.parent.mkdir()
        claim.write_text("shard 1/3 own\n", encoding="utf-8")
        profile = cache.directory / "cost_profile.json"
        profile.write_text('{"version": 1, "timings": {}}', encoding="utf-8")
        artifacts = (manifest, claim, profile)
        assert len(cache) == 1
        stray = cache.total_bytes()
        assert stray == cache.path_for("ab" + "0" * 62).stat().st_size
        assert cache.prune(0) == 1  # the entry, none of the artifacts
        assert all(path.exists() for path in artifacts)
        cache.clear()
        assert all(path.exists() for path in artifacts)
        # Merging this cache into another copies results only — a peer's
        # claim files must never leak into (and poison) another worker's
        # claim board, and profiles merge through store_cost_profile, not
        # as cache entries.
        other = self._cache_with_keys(tmp_path / "other", ["ef" + "0" * 62])
        assert other.merge_from(cache) == 0  # the only entry was pruned
        assert not (other.directory / "claims").exists()
        assert not (other.directory / "cost_profile.json").exists()

    def test_midcampaign_eviction_never_loses_a_needed_result(self, tmp_path):
        # The harshest budget evicts every disk entry after each batch, yet
        # the run's own results stay reachable (memo) — re-requesting a key
        # the campaign already simulated never resimulates mid-run.
        engine = CampaignEngine(scale=SCALE, cache_dir=tmp_path / "cache", cache_max_bytes=0)
        request = RunRequest("blackscholes", "software")
        first = engine.run_many([request])[0]
        assert engine.disk_cache.total_bytes() == 0  # evicted on disk …
        second = engine.run(request)
        assert second is first  # … but not from the running campaign
        assert engine.cache_info()["simulations_run"] == 1


class TestRunManyFailureWrapping:
    """Worker crashes surface as CampaignRunError with key + workload params."""

    @pytest.fixture
    def broken_qr(self, monkeypatch):
        import repro.experiments.campaign as campaign_module

        real = campaign_module.run_simulation

        def explode_on_qr(program, config):
            if program.name.startswith("qr"):
                raise RuntimeError("injected qr fault")
            return real(program, config)

        monkeypatch.setattr(campaign_module, "run_simulation", explode_on_qr)

    def test_serial_batch_raises_wrapped_error(self, broken_qr):
        from repro.experiments.campaign import CampaignRunError

        engine = CampaignEngine(scale=SCALE)
        with pytest.raises(CampaignRunError) as excinfo:
            engine.run_many([RunRequest("qr", "software")])
        error = excinfo.value
        assert error.params["benchmark"] == "qr"
        assert error.params["runtime"] == "software"
        assert error.params["scheduler"] == "fifo"
        assert error.error_type == "RuntimeError"
        assert error.key in error.to_dict()["key"]
        assert "qr" in str(error) and error.key[:12] in str(error)

    def test_collect_mode_returns_none_slots_and_commits_survivors(self, broken_qr):
        from repro.experiments.campaign import CampaignRunError

        engine = CampaignEngine(scale=SCALE)
        failures = {}
        results = engine.run_many(
            [RunRequest("blackscholes", "software"), RunRequest("qr", "software")],
            failures=failures,
        )
        assert results[0] is not None and results[1] is None
        assert len(failures) == 1
        (error,) = failures.values()
        assert isinstance(error, CampaignRunError)
        assert error.params["benchmark"] == "qr"
        assert engine.cache_info()["simulations_run"] == 1  # survivor committed

    def test_failed_key_is_not_cached_anywhere(self, broken_qr, tmp_path):
        engine = CampaignEngine(scale=SCALE, cache_dir=tmp_path / "cache")
        failures = {}
        engine.run_many([RunRequest("qr", "software")], failures=failures)
        (key,) = failures
        assert key not in engine.disk_cache
        assert engine.run_many([RunRequest("qr", "software")], failures={}) == [None]


class TestProgramCache:
    """The engine reuses immutable built programs across simulations."""

    def test_same_workload_point_reuses_one_program(self):
        engine = CampaignEngine(scale=0.05)
        first = engine._build_program("cholesky", None, "software")
        again = engine._build_program("cholesky", None, "software")
        assert first is again, "identical workload points must share the program"
        other = engine._build_program("cholesky", None, "tdm")
        assert other is not first, "different workload runtimes must not alias"
        explicit = engine._build_program("cholesky", 7, None)
        assert explicit is not first, "explicit granularities must not alias"

    def test_cache_is_bounded(self):
        engine = CampaignEngine(scale=0.05)
        limit = CampaignEngine._PROGRAM_CACHE_LIMIT
        for granularity in range(1, limit + 3):
            engine._build_program("blackscholes", granularity, None)
        assert len(engine._program_cache) <= limit

    def test_scheduler_sweep_results_match_fresh_programs(self):
        """Rows computed off a cached program == rows off a fresh build."""
        shared = SimulationRunner(scale=0.05)
        rows_shared = []
        for scheduler in ("fifo", "lifo"):
            result = shared.run("cholesky", "software", scheduler)
            rows_shared.append(result.total_cycles)
        rows_fresh = [
            SimulationRunner(scale=0.05).run("cholesky", "software", scheduler).total_cycles
            for scheduler in ("fifo", "lifo")
        ]
        assert rows_shared == rows_fresh
