"""Campaign engine: canonical keys, result caching, parallel equivalence.

The headline regression here: the old ``SimulationRunner._config_token``
omitted several DMU fields, so two configurations differing only in (say)
``tat_associativity`` mapped to the same memo key and sweeps returned stale
results.  The canonical content hash must keep every such pair distinct.
"""

import dataclasses
import functools
import json
import multiprocessing
import warnings

import pytest

from repro.config import DMUConfig, SimulationConfig, default_paper_config
from repro.errors import ExperimentError
from repro.experiments import campaign
from repro.experiments.cache import ResultCache, canonical_run_key
from repro.experiments.campaign import CampaignEngine, RunRequest
from repro.experiments.common import SimulationRunner
from repro.experiments.registry import resolve_plan, run_experiment
from repro.sim.machine import SimulationResult, run_simulation
from repro.workloads.registry import create_workload

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

    def _assert_invisible(self, cache, artifacts, tmp_path):
        """Entry enumeration, pruning, clearing and merging skip ``artifacts``."""
        assert len(cache) == 1
        assert cache.total_bytes() == cache.path_for("ab" + "0" * 62).stat().st_size
        assert cache.prune(0) == 1  # the entry, none of the artifacts
        assert all(path.exists() for path in artifacts)
        cache.clear()
        assert all(path.exists() for path in artifacts)
        other = self._cache_with_keys(tmp_path / "other", ["ef" + "0" * 62])
        assert other.merge_from(cache) == 0  # the only entry was pruned
        for path in artifacts:
            assert not (other.directory / path.relative_to(cache.directory)).exists()

    def test_manifests_inside_cache_dir_are_never_pruned_or_counted(self, tmp_path):
        # Shard manifests live inside the cache dir and must be invisible
        # to entry enumeration, pruning, clearing and merging.
        cache = self._cache_with_keys(tmp_path, ["ab" + "0" * 62])
        manifest = cache.directory / "manifests" / "figure_10.shard-1-of-2.json"
        manifest.parent.mkdir()
        manifest.write_text('{"experiment": "figure_10"}', encoding="utf-8")
        self._assert_invisible(cache, [manifest], tmp_path)

    def test_stray_cost_profile_from_an_older_version_is_ignored(self, tmp_path):
        # Older versions wrote a top-level cost_profile.json into every
        # cache dir.  Nothing reads or writes it now: a campaign over such a
        # cache leaves it byte-for-byte alone, and no cache operation counts,
        # prunes or merges it.
        blob = '{"timings": {"%s": {"seconds": 1.0, "units": 2.0}}, "version": 1}' % ("ab" * 32)
        profile = tmp_path / "cache" / "cost_profile.json"
        profile.parent.mkdir()
        profile.write_text(blob, encoding="utf-8")
        engine = CampaignEngine(scale=SCALE, cache_dir=profile.parent)
        engine.run_many([RunRequest("blackscholes", "software")])
        assert engine.simulations_run == 1
        assert profile.read_text(encoding="utf-8") == blob
        engine.disk_cache.clear()
        cache = self._cache_with_keys(tmp_path, ["ab" + "0" * 62])
        self._assert_invisible(cache, [profile], tmp_path)

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

    def test_run_is_a_one_request_batch(self, broken_qr):
        from repro.experiments.campaign import CampaignRunError

        engine = CampaignEngine(scale=SCALE)
        with pytest.raises(CampaignRunError) as excinfo:
            engine.run(RunRequest("qr", "software"))
        error = excinfo.value
        assert error.error_type == "RuntimeError"
        # A deterministic error is definitive: one attempt, no retry.
        assert [record["attempt"] for record in error.attempts] == [1]
        assert engine.retries == 0
        assert "injected qr fault" in error.worker_traceback

    def test_unknown_benchmark_fails_at_resolve(self):
        from repro.errors import ConfigurationError

        engine = CampaignEngine(scale=SCALE)
        with pytest.raises(ConfigurationError, match="unknown workload"):
            engine.resolve(RunRequest("no-such-benchmark", "software"))
        assert engine.cache_info()["simulations_run"] == 0

    def test_failed_key_is_not_cached_anywhere(self, broken_qr, tmp_path):
        engine = CampaignEngine(scale=SCALE, cache_dir=tmp_path / "cache")
        failures = {}
        engine.run_many([RunRequest("qr", "software")], failures=failures)
        (key,) = failures
        assert key not in engine.disk_cache
        assert engine.run_many([RunRequest("qr", "software")], failures={}) == [None]


class TestProgramCache:
    """One bounded program memo serves in-process runs and pool workers."""

    @pytest.fixture(autouse=True)
    def empty_memo(self):
        campaign._memoized_program.cache_clear()
        yield
        campaign._memoized_program.cache_clear()

    def test_same_workload_point_reuses_one_program(self):
        first = campaign.build_program("cholesky", 0.05, None, "software", 0)
        again = campaign.build_program("cholesky", 0.05, None, "software", 0)
        assert first is again, "identical workload points must share the program"
        for other in (
            ("cholesky", 0.05, None, "tdm", 0),
            ("cholesky", 0.05, 7, None, 0),
            ("cholesky", 0.1, None, "software", 0),
            ("cholesky", 0.05, None, "software", 1),
            ("qr", 0.05, None, "software", 0),
        ):
            assert campaign.build_program(*other) is not first, f"{other} must not alias"

    def test_cache_is_bounded(self):
        limit = campaign._PROGRAM_MEMO_SIZE
        for granularity in range(1, limit + 3):
            campaign.build_program("blackscholes", 0.05, granularity, None, 0)
        info = campaign._memoized_program.cache_info()
        assert info.maxsize == limit
        assert info.currsize == limit

    def test_reregistered_workload_name_is_rebuilt(self, monkeypatch):
        from repro.workloads import registry

        # What ``register_workload(name, ..., replace=True)`` does, undone
        # at teardown.
        name = "memo_probe_workload"
        monkeypatch.setitem(registry._REGISTRY, name, registry.workload_factory("cholesky"))
        first = campaign.build_program(name, 0.05, None, "software", 0)
        monkeypatch.setitem(registry._REGISTRY, name, registry.workload_factory("lu"))
        second = campaign.build_program(name, 0.05, None, "software", 0)
        assert second is not first
        assert second.name != first.name

    def test_worker_builds_each_program_once(self, monkeypatch):
        built = []
        real = campaign.create_workload

        def counting_create(*args, **kwargs):
            built.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(campaign, "create_workload", counting_create)
        engine = CampaignEngine(scale=0.05)
        small = DMUConfig(tat_entries=64, dat_entries=64)
        requests = [
            RunRequest("cholesky", "software", "fifo"),
            RunRequest("cholesky", "software", "lifo"),
            RunRequest("cholesky", "tdm", "fifo"),
            RunRequest("cholesky", "tdm", "fifo", dmu=small),
        ]
        payloads = [engine._payload(engine.resolve(request)) for request in requests]
        # Same workload point, different scheduler or DMU: one program.
        assert {payload["workload_runtime"] for payload in payloads[2:]} == {"tdm"}
        outcomes = [campaign._simulate_entry(payload) for payload in payloads]
        for (key, result, _), payload in zip(outcomes, payloads):
            assert key == payload["key"]
            assert campaign._ERROR_MARKER not in result
        assert built == [("cholesky",), ("cholesky",)], "one build per workload runtime"
        fresh = [
            run_simulation(
                real("cholesky", scale=0.05, runtime=item.workload_runtime).build_program(),
                item.config,
            ).to_dict()
            for item in map(engine.resolve, requests)
        ]
        assert [result for _, result, _ in outcomes] == fresh
        assert outcomes[0][1]["total_cycles"] != outcomes[2][1]["total_cycles"]
        assert campaign._memoized_program.cache_info().currsize == 2

    def test_scheduler_sweep_results_match_fresh_programs(self):
        """Rows computed off a memoized program == rows off a fresh build."""
        shared = SimulationRunner(scale=0.05)
        rows_shared = [
            shared.run("cholesky", "software", scheduler).total_cycles
            for scheduler in ("fifo", "lifo")
        ]
        assert campaign._memoized_program.cache_info().misses == 1
        program = create_workload("cholesky", scale=0.05, runtime="software").build_program()
        rows_fresh = [
            run_simulation(program, shared.config_for("software", scheduler)).total_cycles
            for scheduler in ("fifo", "lifo")
        ]
        assert rows_shared == rows_fresh


class TestCharacteristicsCache:
    """Table II's workload characteristics are computed once per process."""

    @pytest.fixture(autouse=True)
    def empty_memo(self):
        campaign._memoized_characteristics.cache_clear()
        yield
        campaign._memoized_characteristics.cache_clear()

    @pytest.fixture
    def builds(self, monkeypatch):
        built = []
        real = campaign.create_workload

        def counting_create(*args, **kwargs):
            built.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(campaign, "create_workload", counting_create)
        return built

    def test_same_point_is_computed_once(self, builds):
        first = campaign.workload_characteristics("cholesky", 0.05, None, "software", 0)
        again = campaign.workload_characteristics("cholesky", 0.05, None, "software", 0)
        assert again == first
        assert builds == [("cholesky",)]
        fresh = create_workload("cholesky", scale=0.05, runtime="software").describe()
        assert dict(first) == fresh

    def test_distinct_points_do_not_alias(self):
        first = campaign.workload_characteristics("cholesky", 0.05, None, "software", 0)
        for other in (
            ("cholesky", 0.05, None, "tdm", 0),
            ("cholesky", 0.05, 7, None, 0),
            ("cholesky", 0.1, None, "software", 0),
            ("cholesky", 0.05, None, "software", 1),
            ("qr", 0.05, None, "software", 0),
        ):
            values = campaign.workload_characteristics(*other)
            benchmark, scale, granularity, runtime, seed = other
            fresh = create_workload(
                benchmark, scale=scale, granularity=granularity, runtime=runtime, seed=seed
            ).describe()
            assert dict(values) == fresh, f"{other} must not alias"
        assert campaign._memoized_characteristics.cache_info().currsize == 6

    def test_reregistered_workload_name_is_recomputed(self, monkeypatch):
        from repro.workloads import registry

        name = "memo_probe_workload"
        monkeypatch.setitem(registry._REGISTRY, name, registry.workload_factory("cholesky"))
        first = campaign.workload_characteristics(name, 0.05, None, "software", 0)
        monkeypatch.setitem(registry._REGISTRY, name, registry.workload_factory("lu"))
        second = campaign.workload_characteristics(name, 0.05, None, "software", 0)
        assert second["workload"] != first["workload"]

    def test_returned_mapping_is_read_only(self):
        values = campaign.workload_characteristics("cholesky", 0.05, None, "software", 0)
        with pytest.raises(TypeError):
            values["num_tasks"] = 0
        with pytest.raises(TypeError):
            del values["num_tasks"]
        again = campaign.workload_characteristics("cholesky", 0.05, None, "software", 0)
        assert again["num_tasks"] > 0

    def test_bound_holds_a_full_table_ii_render(self):
        # Nine benchmarks x {software, tdm}.
        assert campaign._memoized_characteristics.cache_info().maxsize >= 18

    def test_repeated_table_ii_render_builds_no_program(self, builds):
        first = run_experiment("table_02", scale=0.05)
        assert len(builds) == 18
        del builds[:]
        second = run_experiment("table_02", scale=0.05)
        assert builds == [], "a repeated render must read only the memo"
        assert second.to_csv() == first.to_csv()


class TestResolutionMemo:
    """A fresh engine derives each config and key once, and only once."""

    PLAN = ("figure_02", "figure_07", "figure_12", "figure_13")
    BENCHMARKS = ["blackscholes", "cholesky"]

    @pytest.fixture(scope="class")
    def filled_cache(self, tmp_path_factory):
        cache_dir = tmp_path_factory.mktemp("warm")
        runner = SimulationRunner(scale=0.05, jobs=2, cache_dir=cache_dir)
        csvs = {
            name: run_experiment(
                name, scale=0.05, benchmarks=self.BENCHMARKS, runner=runner
            ).to_csv()
            for name in self.PLAN
        }
        return cache_dir, csvs

    def test_warm_render_derives_each_config_and_key_once(self, filled_cache, monkeypatch):
        cache_dir, cold_csvs = filled_cache
        to_dict_calls = []
        requests = []
        key_calls = []
        real_to_dict = SimulationConfig.to_dict
        real_resolve = CampaignEngine.resolve
        real_key = campaign.canonical_run_key

        def counting_to_dict(config):
            to_dict_calls.append((config.runtime, config.scheduler, config.dmu))
            return real_to_dict(config)

        def recording_resolve(engine, request):
            requests.append(request)
            return real_resolve(engine, request)

        def counting_key(*args, **kwargs):
            key_calls.append(args)
            return real_key(*args, **kwargs)

        monkeypatch.setattr(SimulationConfig, "to_dict", counting_to_dict)
        monkeypatch.setattr(CampaignEngine, "resolve", recording_resolve)
        monkeypatch.setattr(campaign, "canonical_run_key", counting_key)
        runner = SimulationRunner(scale=0.05, jobs=2, cache_dir=cache_dir)
        csvs = {
            name: run_experiment(
                name, scale=0.05, benchmarks=self.BENCHMARKS, runner=runner
            ).to_csv()
            for name in self.PLAN
        }
        assert csvs == cold_csvs
        info = runner.engine.cache_info()
        assert info["simulations_run"] == 0 and info["disk_hits"] > 0
        distinct = set(requests)
        signatures = {(request.runtime, request.scheduler, request.dmu) for request in distinct}
        assert len(requests) > len(distinct) > len(signatures) > 1
        assert len(key_calls) == len(distinct)
        assert len(to_dict_calls) == len(signatures)
        assert {call[:2] for call in to_dict_calls} == {sig[:2] for sig in signatures}

    def test_repeated_resolve_returns_the_same_run(self):
        engine = CampaignEngine(scale=0.05)
        request = RunRequest("cholesky", "tdm", "lifo", dmu=DMUConfig(tat_entries=64))
        first = engine.resolve(request)
        assert engine.resolve(request) is first
        assert engine.resolve(dataclasses.replace(request)) is first
        assert engine.config_for("tdm", "lifo", request.dmu) is first.config
        assert engine._payload(first)["config"] is first.config_dict
        assert first.config_dict == first.config.to_dict()

    @pytest.mark.parametrize("request_", [
        RunRequest("cholesky", "software"),
        RunRequest("qr", "tdm", "lifo", dmu=DMUConfig(tat_entries=64)),
        RunRequest("lu", "carbon", granularity=8),
        RunRequest("blackscholes", "task_superscalar", granularity_runtime="software"),
    ])
    def test_memoized_key_is_byte_identical_to_a_config_key(self, request_):
        engine = CampaignEngine(scale=0.05, seed=3)
        resolved = engine.resolve(request_)
        # A config object rebuilt outside the memo hashes the same bytes.
        rebuilt = dataclasses.replace(resolved.config)
        assert rebuilt is not resolved.config
        direct = canonical_run_key(
            rebuilt,
            benchmark=request_.benchmark,
            scale=0.05,
            granularity=request_.granularity,
            granularity_runtime=resolved.workload_runtime,
            seed=3,
        )
        assert resolved.key == direct

    def test_concurrent_resolution_agrees_with_serial(self):
        # The results daemon resolves on several threads through one engine.
        import sys
        import threading

        requests = [
            RunRequest(benchmark, runtime, scheduler)
            for benchmark in ("cholesky", "qr")
            for runtime in ("software", "tdm")
            for scheduler in ("fifo", "lifo", "age")
        ]
        expected = [CampaignEngine(scale=0.05).resolve(request).key for request in requests]
        engine = CampaignEngine(scale=0.05)
        seen = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(
                    target=lambda: seen.append([engine.resolve(r).key for r in requests])
                )
                for _ in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert seen == [expected] * 8
        assert [engine.resolve(request).key for request in requests] == expected
        assert len(engine._resolved) == len(requests)
        assert len(engine._configs) == 6

    @pytest.mark.parametrize("other", [dict(scale=0.1), dict(seed=1)])
    def test_engines_differing_in_scale_or_seed_share_nothing(self, other, monkeypatch):
        key_calls = []
        real_key = campaign.canonical_run_key

        def counting_key(*args, **kwargs):
            key_calls.append(args)
            return real_key(*args, **kwargs)

        monkeypatch.setattr(campaign, "canonical_run_key", counting_key)
        request = RunRequest("cholesky", "tdm")
        base = CampaignEngine(scale=0.05, seed=0)
        varied = CampaignEngine(**dict(dict(scale=0.05, seed=0), **other))
        first = base.resolve(request)
        second = varied.resolve(request)
        assert len(key_calls) == 2, "the second engine must derive its own key"
        assert first.key != second.key
        assert first.config_dict is not second.config_dict
        assert base.resolve(request) is first and varied.resolve(request) is second
        assert len(key_calls) == 2
        if "seed" in other:
            assert first.config.seed == 0 and second.config.seed == 1


class TestSimulationLoop:
    """Every path records its timings; the pool submits the module worker."""

    @staticmethod
    def _plan(engine):
        return [
            item.request
            for item in resolve_plan(
                "figure_12", SimulationRunner(engine=engine), benchmarks=["blackscholes"]
            )
        ]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_campaign_records_one_timing_per_simulated_key(self, tmp_path, jobs):
        engine = CampaignEngine(scale=0.05, jobs=jobs, cache_dir=tmp_path)
        plan = self._plan(engine)
        engine.run_many(plan)
        assert len(engine.key_timings) == engine.cache_info()["simulations_run"] > 1
        assert sorted(engine.key_timings) == sorted({engine.resolve(r).key for r in plan})
        assert all(seconds > 0 for seconds in engine.key_timings.values())

    def test_pool_submits_the_module_level_worker_body(self, tmp_path, monkeypatch):
        # The worker body is looked up on the module at submit time, so a
        # wrapper installed there (as the repository benchmark does) runs
        # for every simulated key.
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("a patched worker body reaches the pool only by fork")
        from repro.experiments import campaign

        original = campaign._simulate_entry
        marks = tmp_path / "marks"
        marks.mkdir()

        @functools.wraps(original)
        def marking_entry(payload):
            (marks / payload["key"]).touch()
            return original(payload)

        monkeypatch.setattr(campaign, "_simulate_entry", marking_entry)
        engine = CampaignEngine(scale=0.05, jobs=2)
        engine.run_many(self._plan(engine))
        assert sorted(path.name for path in marks.iterdir()) == sorted(engine.key_timings)
