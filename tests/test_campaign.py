"""Campaign engine: canonical keys, result caching, parallel equivalence.

The headline regression here: the hand-written cache token the canonical
key replaced omitted several DMU fields, so two configurations differing
only in (say) ``tat_associativity`` mapped to the same memo key and sweeps
returned stale results.  The canonical content hash must keep every such
pair distinct.
"""

import dataclasses
import functools
import gc
import json
import multiprocessing
import os
import queue
import threading
import time
import warnings
from contextlib import closing

import pytest

from repro.config import DMUConfig, SimulationConfig, default_paper_config
from repro.errors import ExperimentError
from repro.experiments import campaign
from repro.experiments.cache import CACHE_FORMAT_VERSION, ResultCache, canonical_json
from repro.experiments.cache import canonical_run_key
from repro.experiments.campaign import CampaignEngine, RunRequest
from repro.experiments.common import SimulationRunner
from repro.experiments.registry import resolve_plan, run_experiment
from repro.reliability import faults
from repro.reliability.watchdog import WatchdogConfig
from repro.sim.machine import SimulationResult, run_simulation
from repro.workloads.registry import create_workload

from tests.util import CONFIG_FORMS, diamond_program, make_config

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
    def test_canonical_key_separates_fields_the_legacy_token_dropped(
        self, field_name, other_value
    ):
        """Two configs differing only in a field the legacy token dropped
        (its collision) get distinct canonical keys (the fix)."""
        base = default_paper_config()
        varied = base.with_dmu(
            dataclasses.replace(base.dmu, **{field_name: other_value})
        ).validated()
        assert getattr(base.dmu, field_name) != other_value
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


class TestCanonicalKeyGoldenValues:
    """Pinned key digests: the key-schema contract that keeps cached corpora
    valid across checkouts.  Any accidental drift (a new hashed field, a
    float formatting change, a version bump) fails here.  If a change is
    intentional, bump ``CACHE_FORMAT_VERSION``, regenerate these constants,
    and note that old caches resimulate.

    Re-pinned when ``CACHE_FORMAT_VERSION`` went from 1 to 2, which every
    key hashes (see ``docs/determinism.md``).
    """

    @pytest.mark.parametrize("form", sorted(CONFIG_FORMS))
    def test_workload_parameter_keys(self, form):
        config = CONFIG_FORMS[form](default_paper_config())
        assert (
            canonical_run_key(config, "cholesky", 0.1)
            == "1b1a10dc49bfcb6c91f0b96ad7a511a7a3acd42327eb7d9ed0da9e994250a143"
        )
        assert (
            canonical_run_key(config, "cholesky", 0.1, granularity=8)
            == "38978ac4db0430b89eac9c2bcb3e94890c23503e7cdb4a29506d67338f2c50d5"
        )
        assert (
            canonical_run_key(config, "qr", 1.0, granularity_runtime="tdm", seed=3)
            == "a8ad0ab86084ad1b6dcd95fc9b2fe1b0fba24043acfe13cde6476b2b49d56f94"
        )

    def test_resolved_request_keys(self):
        engine = CampaignEngine(scale=0.1)
        assert (
            engine.resolve(RunRequest("blackscholes", "tdm", "lifo")).key
            == "cd579259215a5f98aa9ef7a34fff897069170f26d50ebaa9e7101279aea50fed"
        )
        assert (
            engine.resolve(RunRequest("histogram", "software")).key
            == "37452b0897842ca9eb22226b133876aced994e5246a011311d350e8da76663ac"
        )

    def test_key_still_sees_semantic_dmu_fields(self):
        base = DMUConfig(
            tat_entries=32, dat_entries=32,
            tat_associativity=4, dat_associativity=4,
            successor_list_entries=16, dependence_list_entries=16,
            reader_list_entries=16, elements_per_list_entry=4,
            ready_queue_entries=32,
        )
        resized = dataclasses.replace(base, tat_entries=16)
        assert canonical_run_key(
            make_config(dmu=base), benchmark="cholesky", scale=0.1
        ) != canonical_run_key(
            make_config(dmu=resized), benchmark="cholesky", scale=0.1
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
        cache.put_serialized(key, result.to_dict())
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
        assert cache.quarantined == 1

    @pytest.mark.parametrize(
        "document, quarantined",
        [
            ([1, 2, 3], 1),
            ({"version": CACHE_FORMAT_VERSION}, 1),
            ({"version": CACHE_FORMAT_VERSION, "result": {"oops": True}}, 1),
            # The previous format is stale, not corrupt: a plain miss.
            ({"version": CACHE_FORMAT_VERSION - 1, "result": {"oops": True}}, 0),
        ],
        ids=["list", "no-result", "not-a-result", "previous-version"],
    )
    def test_structurally_malformed_entries_are_misses(self, tmp_path, document, quarantined):
        # Valid JSON of the wrong shape must resimulate, not abort the campaign.
        cache = ResultCache(tmp_path)
        key = "aa" + "0" * 62
        path = cache.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(document), encoding="utf-8")
        assert cache.get(key) is None
        assert cache.quarantined == quarantined
        assert path.is_file() == (not quarantined)

    def test_undecodable_entry_is_quarantined(self, tmp_path):
        # Bytes that are not UTF-8 fail the one entry check as invalid JSON.
        key = "aa" + "0" * 62
        cache = ResultCache(tmp_path)
        path = cache.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"\xff\xfe not utf-8")
        assert cache.get(key) is None
        assert cache.quarantined == 1
        reason = tmp_path / "quarantine" / f"{key}.json.reason"
        assert reason.read_text().startswith("invalid JSON")

    def test_a_hit_writes_nothing(self, tmp_path):
        """A hit is a pure read: it neither touches the entry's mtime nor
        its bytes, and warns of nothing."""
        cache = ResultCache(tmp_path)
        result = run_simulation(diamond_program(), make_config(runtime="software"))
        key = "ab" + "0" * 62
        path = cache.put_serialized(key, result.to_dict())
        os.utime(path, (1_000_000.0, 1_000_000.0))
        before = (path.stat().st_mtime_ns, path.read_bytes())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(2):
                assert cache.get(key).total_cycles == result.total_cycles
        assert cache.quarantined == 0
        assert (path.stat().st_mtime_ns, path.read_bytes()) == before


class TestPureReads:
    """A warm render reads its cache and writes nothing to it."""

    @staticmethod
    def _tree(directory):
        return {
            path.relative_to(directory): (path.stat().st_mtime_ns, path.read_bytes())
            for path in sorted(directory.rglob("*"))
            if path.is_file()
        }

    @staticmethod
    def _warm_cache(directory):
        kwargs = dict(scale=0.05, benchmarks=["blackscholes"])
        cold = SimulationRunner(scale=0.05, cache_dir=directory)
        csv = run_experiment("figure_12", runner=cold, **kwargs).to_csv()
        for path in directory.rglob("*.json"):
            os.utime(path, (1_000_000.0, 1_000_000.0))
        return csv, kwargs

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_a_warm_render_leaves_the_cache_tree_untouched(self, tmp_path, jobs):
        csv, kwargs = self._warm_cache(tmp_path)
        before = self._tree(tmp_path)
        with closing(SimulationRunner(scale=0.05, jobs=jobs, cache_dir=tmp_path)) as warm:
            assert run_experiment("figure_12", runner=warm, **kwargs).to_csv() == csv
        assert warm.cache_info()["simulations_run"] == 0
        assert warm.cache_info()["disk_hits"] > 0
        assert self._tree(tmp_path) == before

    def test_a_cache_nothing_may_write_serves_a_warm_render(self, tmp_path, monkeypatch):
        # What a read-only directory does to a writer, without needing a
        # non-root user for the permission bits to bite.
        csv, kwargs = self._warm_cache(tmp_path)

        def refuse(*args, **kwargs):
            raise PermissionError(30, "Read-only file system")

        for name in ("utime", "replace", "unlink"):
            monkeypatch.setattr(f"repro.experiments.cache.os.{name}", refuse)
        monkeypatch.setattr("repro.experiments.cache.atomic_write", refuse)
        warm = SimulationRunner(scale=0.05, cache_dir=tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_experiment("figure_12", runner=warm, **kwargs).to_csv() == csv
        assert warm.cache_info()["simulations_run"] == 0
        assert not any(warm.reliability_info().values())


class TestEngineCaching:
    def test_cache_and_reliability_counters_keep_their_names(self):
        # The benchmark harness reads these keys.
        runner = SimulationRunner(scale=SCALE)
        assert set(runner.cache_info()) == {
            "simulations_run", "memory_hits", "disk_hits", "memoized",
        }
        assert set(runner.reliability_info()) == {
            "retries", "watchdog_kills", "quarantined",
        }

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

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_memo_holds_the_deserialized_result_shape(self, jobs):
        # Serial or pooled, a fresh result is memoized exactly as a disk hit
        # restores it: totals kept, per-task instances dropped.
        with closing(SimulationRunner(scale=0.05, jobs=jobs)) as runner:
            result = runner.run("cholesky", "software")
        assert result.task_instances == []
        assert result.finished_task_count == result.num_tasks_executed > 0

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
        serial = SimulationRunner(scale=SCALE, cache_dir=tmp_path / "serial")
        kwargs = dict(scale=SCALE, benchmarks=["blackscholes"])
        serial_result = run_experiment("figure_12", runner=serial, **kwargs)
        with closing(SimulationRunner(scale=SCALE, jobs=2,
                                      cache_dir=tmp_path / "cache")) as parallel:
            parallel_result = run_experiment("figure_12", runner=parallel, **kwargs)
        assert parallel_result.to_csv() == serial_result.to_csv()
        assert parallel_result.to_markdown() == serial_result.to_markdown()
        # Both ran the whole plan (the FIFO baseline and the fifo scheduler
        # point share one key) and wrote the same entry bytes.
        assert serial.cache_info()["simulations_run"] == 10
        assert parallel.cache_info()["simulations_run"] == 10
        caches = (serial.engine.disk_cache, parallel.engine.disk_cache)
        assert caches[0].keys() == caches[1].keys()
        for key in caches[0].keys():
            assert caches[0].path_for(key).read_bytes() == caches[1].path_for(key).read_bytes()

    def test_parallel_results_persist_for_warm_rerun(self, tmp_path):
        cache_dir = tmp_path / "cache"
        with closing(SimulationRunner(scale=SCALE, jobs=2, cache_dir=cache_dir)) as first:
            run_experiment("figure_10", runner=first, scale=SCALE, benchmarks=["blackscholes"])
        assert first.cache_info()["simulations_run"] == 2

        with closing(SimulationRunner(scale=SCALE, jobs=2, cache_dir=cache_dir)) as second:
            run_experiment("figure_10", runner=second, scale=SCALE, benchmarks=["blackscholes"])
        assert second.cache_info()["simulations_run"] == 0


class TestFormatBump:
    """A cache of the previous format version resimulates, once."""

    def test_previous_version_cache_resimulates_every_key_then_serves_warm(
        self, tmp_path
    ):
        kwargs = dict(scale=0.05, benchmarks=["blackscholes"])
        cold = SimulationRunner(scale=0.05, cache_dir=tmp_path)
        csv = run_experiment("figure_12", runner=cold, **kwargs).to_csv()
        entries = {path: path.read_bytes() for path in tmp_path.glob("??/*.json")}
        assert len(entries) == cold.cache_info()["simulations_run"] > 0
        # Every entry as the previous format wrote it, each at its path.
        for path, blob in entries.items():
            document = dict(json.loads(blob), version=CACHE_FORMAT_VERSION - 1)
            path.write_text(canonical_json(document), encoding="utf-8")

        upgrade = SimulationRunner(scale=0.05, cache_dir=tmp_path)
        assert run_experiment("figure_12", runner=upgrade, **kwargs).to_csv() == csv
        info = upgrade.cache_info()
        assert (info["simulations_run"], info["disk_hits"]) == (len(entries), 0)
        assert upgrade.reliability_info()["quarantined"] == 0
        assert {path: path.read_bytes() for path in entries} == entries

        warm = SimulationRunner(scale=0.05, cache_dir=tmp_path)
        assert run_experiment("figure_12", runner=warm, **kwargs).to_csv() == csv
        assert warm.cache_info()["simulations_run"] == 0


class TestNonEntryArtifacts:
    """Files inside a cache directory that are not ``??/*.json`` entries."""

    @staticmethod
    def _assert_invisible(cache, key, artifacts):
        """Entry enumeration sees ``key`` alone, and skips ``artifacts``."""
        assert len(cache) == 1
        assert cache.keys() == [key]
        for path in artifacts:
            assert path.exists()

    def test_quarantined_files_are_never_counted(self, tmp_path):
        # A quarantined entry keeps its ``.json`` name inside the cache dir,
        # one directory level down, and must be invisible to enumeration.
        cache = ResultCache(tmp_path / "cache")
        result = run_simulation(diamond_program(), make_config(runtime="software"))
        key = "ab" + "0" * 62
        cache.put_serialized(key, result.to_dict())
        torn = "cd" + "0" * 62
        cache.path_for(torn).parent.mkdir()
        cache.path_for(torn).write_text("{torn", encoding="utf-8")
        assert cache.get(torn) is None
        quarantined = cache.directory / "quarantine" / f"{torn}.json"
        self._assert_invisible(cache, key, [quarantined])

    def test_stray_cost_profile_from_an_older_version_is_ignored(self, tmp_path):
        # Older versions wrote a top-level cost_profile.json into every
        # cache dir.  Nothing reads or writes it now: a campaign over such a
        # cache leaves it byte-for-byte alone, and entry enumeration never
        # counts it.
        blob = '{"timings": {"%s": {"seconds": 1.0, "units": 2.0}}, "version": 1}' % ("ab" * 32)
        profile = tmp_path / "cache" / "cost_profile.json"
        profile.parent.mkdir()
        profile.write_text(blob, encoding="utf-8")
        engine = CampaignEngine(scale=SCALE, cache_dir=profile.parent)
        engine.run_many([RunRequest("blackscholes", "software")])
        assert engine.simulations_run == 1
        assert profile.read_text(encoding="utf-8") == blob
        (key,) = engine.key_timings
        self._assert_invisible(engine.disk_cache, key, [profile])


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
        assert error.key == engine.resolve(RunRequest("qr", "software")).key
        assert "qr" in str(error) and error.key[:12] in str(error)

    def test_a_failing_key_raises_after_its_batchmates_commit(self, broken_qr, tmp_path):
        from repro.experiments.campaign import CampaignRunError

        engine = CampaignEngine(scale=SCALE, cache_dir=tmp_path / "cache")
        healthy = RunRequest("blackscholes", "software")
        with pytest.raises(CampaignRunError) as excinfo:
            engine.run_many([healthy, RunRequest("qr", "software")])
        assert excinfo.value.params["benchmark"] == "qr"
        assert engine.cache_info()["simulations_run"] == 1  # survivor committed
        assert engine.resolve(healthy).key in engine.disk_cache
        assert engine.cached(engine.resolve(healthy)) is not None

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
        from repro.experiments.campaign import CampaignRunError

        engine = CampaignEngine(scale=SCALE, cache_dir=tmp_path / "cache")
        request = RunRequest("qr", "software")
        with pytest.raises(CampaignRunError) as excinfo:
            engine.run_many([request])
        key = excinfo.value.key
        assert key not in engine.disk_cache
        assert engine.cache_info()["memoized"] == 0
        # Nothing was kept, so a second batch attempts the key again.
        with pytest.raises(CampaignRunError):
            engine.run_many([request])
        assert engine.cache_info()["simulations_run"] == 0

    def test_pool_failure_raises_campaign_run_error_with_context(self, monkeypatch):
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("monkeypatched fault injection needs fork workers")
        import repro.experiments.campaign as campaign_module
        from repro.experiments.campaign import CampaignRunError

        real = campaign_module.run_simulation

        def explode_on_qr(program, config):
            if program.name.startswith("qr"):
                raise ValueError("qr blew up")
            return real(program, config)

        monkeypatch.setattr(campaign_module, "run_simulation", explode_on_qr)
        with closing(SimulationRunner(scale=0.05, jobs=2)) as runner, \
                pytest.raises(CampaignRunError) as excinfo:
            run_experiment(
                "figure_10", scale=0.05, benchmarks=["blackscholes", "qr"], runner=runner
            )
        error = excinfo.value
        assert error.params["benchmark"] == "qr"
        assert error.error_type == "ValueError"
        assert error.key[:12] in str(error)
        assert "qr" in str(error)
        # The healthy batchmates were still committed before the raise.
        assert runner.cache_info()["simulations_run"] >= 1


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
            run_simulation(
                program, shared.engine.resolve(RunRequest("cholesky", "software", scheduler)).config
            ).total_cycles
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
        with closing(SimulationRunner(scale=0.05, jobs=2, cache_dir=cache_dir)) as runner:
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
        with closing(SimulationRunner(scale=0.05, jobs=2, cache_dir=cache_dir)) as runner:
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
        config, config_dict, config_json = engine._config_entry("tdm", "lifo", request.dmu)
        assert config is first.config and config_dict is first.config_dict
        assert config_json == canonical_json(first.config_dict)
        assert engine._payload(first)["config"] is first.config_dict
        assert first.config_dict == first.config.to_dict()

    @pytest.mark.parametrize("form", sorted(CONFIG_FORMS))
    @pytest.mark.parametrize("request_", [
        RunRequest("cholesky", "software"),
        RunRequest("qr", "tdm", "lifo", dmu=DMUConfig(tat_entries=64)),
        RunRequest("lu", "carbon", granularity=8),
        RunRequest("blackscholes", "task_superscalar", granularity_runtime="software"),
    ])
    def test_memoized_key_is_byte_identical_to_a_config_key(self, request_, form):
        engine = CampaignEngine(scale=0.05, seed=3)
        resolved = engine.resolve(request_)
        # A config rebuilt outside the memo hashes the same bytes, in any
        # of the forms the key accepts.
        rebuilt = dataclasses.replace(resolved.config)
        assert rebuilt is not resolved.config
        direct = canonical_run_key(
            CONFIG_FORMS[form](rebuilt),
            benchmark=request_.benchmark,
            scale=0.05,
            granularity=request_.granularity,
            granularity_runtime=resolved.workload_runtime,
            seed=3,
        )
        assert resolved.key == direct

    def test_concurrent_resolution_agrees_with_serial(self):
        # Resolution memoizes without a lock: callers on several threads
        # of one engine still agree with a serial resolution.
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
    def _plan(engine, experiment="figure_12"):
        return [
            item.request
            for item in resolve_plan(
                experiment, SimulationRunner(engine=engine), benchmarks=["blackscholes"]
            )
        ]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_campaign_records_one_timing_per_simulated_key(self, tmp_path, jobs):
        with closing(CampaignEngine(scale=0.05, jobs=jobs, cache_dir=tmp_path)) as engine:
            plan = self._plan(engine)
            engine.run_many(plan)
        assert len(engine.key_timings) == engine.cache_info()["simulations_run"] > 1
        assert sorted(engine.key_timings) == sorted({engine.resolve(r).key for r in plan})
        assert all(seconds > 0 for seconds in engine.key_timings.values())

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_pool_submits_the_module_level_worker_body(self, tmp_path, monkeypatch, jobs):
        # The attempt body is looked up on the module at call time, in-process
        # and in the pool alike, so a wrapper installed there (as the
        # repository benchmark does) runs for every simulated key.
        if jobs > 1 and multiprocessing.get_start_method() != "fork":
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
        with closing(CampaignEngine(scale=0.05, jobs=jobs)) as engine:
            engine.run_many(self._plan(engine))
        assert sorted(path.name for path in marks.iterdir()) == sorted(engine.key_timings)


class TestWarmPool:
    """One worker pool per engine, kept across rounds and batches."""

    @pytest.fixture(autouse=True)
    def fork_workers(self):
        # The patched bodies below reach the workers only by fork, and the
        # workers inherit the parent's program memo, emptied here.
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("a patched worker body reaches the pool only by fork")
        campaign._memoized_program.cache_clear()
        yield
        campaign._memoized_program.cache_clear()

    @staticmethod
    def _mark_attempts(monkeypatch, marks, delays=None):
        """Log ``<key> <attempt> <pid>`` per attempt to ``marks``, after
        sleeping the key's ``delays`` seconds."""
        original = campaign._simulate_entry

        @functools.wraps(original)
        def marking_entry(payload):
            with marks.open("a") as handle:
                handle.write(f"{payload['key']} {payload['attempt']} {os.getpid()}\n")
            time.sleep((delays or {}).get(payload["key"], 0.0))
            return original(payload)

        monkeypatch.setattr(campaign, "_simulate_entry", marking_entry)

    @staticmethod
    def _attempts(marks):
        return [line.split() for line in marks.read_text().splitlines()]

    _plan = staticmethod(TestSimulationLoop._plan)

    def test_batches_share_workers_and_their_programs(self, tmp_path, monkeypatch):
        marks = tmp_path / "attempts"
        builds = tmp_path / "builds"
        self._mark_attempts(monkeypatch, marks)
        real = campaign.create_workload

        def logging_create(*args, **kwargs):
            with builds.open("a") as handle:
                handle.write(f"{os.getpid()} {args} {sorted(kwargs.items())}\n")
            return real(*args, **kwargs)

        monkeypatch.setattr(campaign, "create_workload", logging_create)
        with closing(CampaignEngine(scale=0.05, jobs=2)) as engine:
            first, second = self._plan(engine, "figure_12"), self._plan(engine, "figure_09")
            points = [
                {(item.request.benchmark, item.workload_runtime)
                 for item in map(engine.resolve, batch)}
                for batch in (first, second)
            ]
            assert points[0] & points[1], "the batches must share a program"
            engine.run_many(first)
            engine.run_many(second)
        pids = {pid for _, _, pid in self._attempts(marks)}
        assert 1 <= len(pids) <= engine.jobs
        assert len(self._attempts(marks)) == engine.simulations_run
        built = builds.read_text().splitlines()
        assert len(built) == len(set(built)), "a worker rebuilt a program it had"
        assert {line.split()[0] for line in built} <= pids

    def test_a_deadline_strike_replaces_only_the_hung_worker(self, tmp_path, monkeypatch):
        marks = tmp_path / "attempts"
        self._mark_attempts(monkeypatch, marks)
        request = RunRequest("blackscholes", "software")
        with closing(CampaignEngine(
            scale=0.05, jobs=2, watchdog_config=WatchdogConfig(min_seconds=1.0),
        )) as engine:
            engine.run(RunRequest("blackscholes", "tdm"))  # forks the workers
            before = {str(child.pid) for child in multiprocessing.active_children()}
            faults.install_plan(faults.parse_faults("hang@sim", hang_seconds=600.0))
            try:
                result = engine.run(request)
            finally:
                faults.install_plan(None)
            assert (engine.watchdog_kills, engine.retries) == (1, 1)
            (_, _, warm), (_, first, hung), (_, second, retried) = self._attempts(marks)
            assert (first, second) == ("1", "2")
            live = {str(child.pid) for child in multiprocessing.active_children()}
            assert hung in before and hung not in live, "the hung worker outlived its deadline"
            assert before - {hung} <= live, "a worker that was not hung was replaced"
            assert retried in live and retried != hung
            assert len(live) == engine.jobs
        assert result.to_dict() == CampaignEngine(scale=0.05).run(request).to_dict()

    def test_a_dropped_engine_leaves_no_worker(self):
        # Nothing of the pool refers back to it (the dispatcher thread holds
        # only its internals), so dropping the last reference reaps the
        # workers without a garbage collection.
        gc.disable()
        try:
            engine = CampaignEngine(scale=0.05, jobs=2)
            engine.run(RunRequest("blackscholes", "software"))
            assert len(multiprocessing.active_children()) == engine.jobs
            del engine
            assert multiprocessing.active_children() == []
        finally:
            gc.enable()

    def test_a_warm_render_forks_no_worker(self, tmp_path):
        plan = self._plan(CampaignEngine(scale=0.05), "figure_12")
        CampaignEngine(scale=0.05, cache_dir=tmp_path).run_many(plan)
        with closing(CampaignEngine(scale=0.05, jobs=2, cache_dir=tmp_path)) as engine:
            assert all(result is not None for result in engine.run_many(plan))
            assert engine.cache_info()["disk_hits"] > 0
            assert multiprocessing.active_children() == []

    def test_a_worker_exits_when_the_parent_closes_its_pipe(self):
        worker = campaign._Worker()
        worker.conn.close()  # the worker holds no copy of the parent's end
        worker.process.join(timeout=10)
        assert worker.process.exitcode == 0

    def test_an_abandoned_round_cancels_its_keys(self, tmp_path, monkeypatch):
        engine = CampaignEngine(scale=0.05, jobs=2)
        plan = self._plan(engine, "figure_12")
        keys = sorted({engine.resolve(request).key for request in plan})
        assert len(keys) >= 4
        marks = tmp_path / "attempts"
        self._mark_attempts(monkeypatch, marks, delays={key: 30.0 for key in keys[1:]})

        def failing_commit(item, result, seconds):
            raise RuntimeError("disk full")

        monkeypatch.setattr(engine, "_commit", failing_commit)
        with closing(engine):
            started = time.monotonic()
            with pytest.raises(RuntimeError, match="disk full"):
                engine.run_many(plan)
            assert time.monotonic() - started < 10.0
            # The queued keys never ran; the running ones have their worker
            # killed and replaced (by the dispatcher, right after).
            attempts = self._attempts(marks)
            assert 2 <= len(attempts) < len(keys)
            cancelled = {pid for key, _, pid in attempts if key != keys[0]}
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                live = {str(child.pid) for child in multiprocessing.active_children()}
                if len(live) == engine.jobs and not live & cancelled:
                    break
                time.sleep(0.05)
            assert len(live) == engine.jobs and not live & cancelled

    def test_closing_the_pool_fails_the_keys_it_still_owes(self, tmp_path, monkeypatch):
        # Every submitted payload gets one outcome, even when the engine is
        # closed under a waiting round: the round fails instead of hanging.
        engine = CampaignEngine(scale=0.05, jobs=2)
        plan = self._plan(engine, "figure_12")
        keys = {engine.resolve(request).key for request in plan}
        self._mark_attempts(monkeypatch, tmp_path / "attempts",
                            delays={key: 30.0 for key in keys})
        raised = []

        def run():
            try:
                engine.run_many(plan)
            except campaign.CampaignRunError as error:
                raised.append(error)

        runner = threading.Thread(target=run)
        runner.start()
        time.sleep(0.5)
        engine.close()
        runner.join(timeout=10)
        assert not runner.is_alive()
        # Every key failed (none committed); the lowest is the one raised.
        (error,) = raised
        assert error.key == min(keys)
        assert error.error_type == "ExperimentError"
        assert "closed" in error.error_message
        assert engine.cache_info()["memoized"] == 0
        assert multiprocessing.active_children() == []

    def test_close_is_idempotent_and_reaps_every_worker(self):
        engine = CampaignEngine(scale=0.05, jobs=2)
        warm = RunRequest("blackscholes", "software")
        result = engine.run(warm)
        assert len(multiprocessing.active_children()) == engine.jobs
        engine.close()
        assert multiprocessing.active_children() == []
        engine.close()
        assert multiprocessing.active_children() == []
        assert engine.run(warm) is result  # memoized results still serve
        with pytest.raises(ExperimentError, match="closed"):
            engine.run(RunRequest("blackscholes", "tdm"))
        assert multiprocessing.active_children() == []

    def test_commits_follow_key_order_as_results_land(self, tmp_path, monkeypatch):
        engine = CampaignEngine(scale=0.05, jobs=2)
        plan = self._plan(engine, "figure_12")
        keys = sorted({engine.resolve(request).key for request in plan})
        assert len(keys) >= 4
        # The first key lands after its successors, the last one well after
        # every other key has landed.
        self._mark_attempts(monkeypatch, tmp_path / "attempts",
                            delays={keys[0]: 0.5, keys[-1]: 1.5})
        commits = []
        commit = engine._commit

        def recording_commit(item, result, seconds):
            commits.append((item.key, time.monotonic()))
            commit(item, result, seconds)

        monkeypatch.setattr(engine, "_commit", recording_commit)
        with closing(engine):
            engine.run_many(plan)
        assert [key for key, _ in commits] == keys
        committed = dict(commits)
        # Commits overlap the round's tail instead of waiting for it.
        assert committed[keys[-1]] - committed[keys[-2]] > 0.5

    def test_a_cleared_fault_plan_leaves_the_warm_workers(self):
        with closing(CampaignEngine(scale=0.05, jobs=2)) as engine:
            faults.install_plan(faults.parse_faults("error@sim:key%1"))
            try:
                engine.run_many(self._plan(engine, "figure_12"))
            finally:
                faults.install_plan(None)
            assert engine.retries >= 1
            retries = engine.retries
            simulated = engine.simulations_run
            engine.run_many(self._plan(engine, "figure_09"))
        assert engine.simulations_run > simulated  # the second batch was cold
        assert (engine.retries, engine.watchdog_kills) == (retries, 0)

    def test_a_pooled_cli_run_leaves_no_worker(self, capsys):
        from repro.experiments.cli import main

        assert main(["figure_12", "--scale", "0.05", "--benchmarks", "blackscholes",
                     "--jobs", "2"]) == 0
        assert "Figure 12" in capsys.readouterr().out
        assert multiprocessing.active_children() == []


class TestWorkerPool:
    """The pool on its own: one deadline, exactly one outcome per payload."""

    @pytest.fixture(autouse=True)
    def fork_workers(self):
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("the fault plans below reach the workers only by fork")

    @staticmethod
    def _payloads(count, spec=None):
        engine = CampaignEngine(scale=0.05)
        resolved = {}
        for request in TestSimulationLoop._plan(engine):
            item = engine.resolve(request)
            resolved[item.key] = item
        return [engine._attempt_payload(resolved[key], 1, spec)
                for key in sorted(resolved)[:count]]

    @staticmethod
    def _round(pool, payloads):
        """Submit ``payloads`` and return their outcomes in key order."""
        landed = queue.SimpleQueue()
        pool.submit(payloads, landed.put)
        return sorted(landed.get(timeout=60) for _ in payloads)

    @staticmethod
    def _strike(outcome):
        marker = outcome[1][campaign._ERROR_MARKER]
        return marker["error_type"], marker["error_message"]

    def test_each_payload_lands_once_with_its_in_process_result(self):
        payloads = self._payloads(3)
        with closing(campaign.WorkerPool(2, 60.0)) as pool:
            outcomes = self._round(pool, payloads)
        assert [key for key, _, _ in outcomes] == [payload["key"] for payload in payloads]
        assert [result for _, result, _ in outcomes] == [
            campaign._simulate_entry(payload)[1] for payload in payloads
        ]

    def test_a_hang_is_struck_at_the_deadline_the_pool_was_built_with(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS_HANG_S", "600")
        (payload,) = self._payloads(1, "hang@sim")
        with closing(campaign.WorkerPool(1, 0.5)) as pool:
            (outcome,) = self._round(pool, [payload])
        key, _, seconds = outcome
        error_type, message = self._strike(outcome)
        assert (key, error_type) == (payload["key"], "WorkerTimeout")
        assert "(deadline 0.5s)" in message
        assert 0.5 <= seconds < 30.0

    def test_a_crash_is_struck_with_the_workers_exit_code(self):
        (payload,) = self._payloads(1, "crash@sim")
        with closing(campaign.WorkerPool(1, 60.0)) as pool:
            (outcome,) = self._round(pool, [payload])
        assert self._strike(outcome) == (
            "WorkerCrash", f"worker exited with code {faults.CRASH_EXIT_CODE}"
        )

    def test_a_worker_that_dies_idle_is_replaced_before_the_next_payload(self):
        first, second = self._payloads(2)
        with closing(campaign.WorkerPool(1, 60.0)) as pool:
            assert campaign._ERROR_MARKER not in self._round(pool, [first])[0][1]
            (worker,) = pool._dispatcher.workers
            worker.process.kill()
            deadline = time.monotonic() + 10.0
            while pool._dispatcher.workers[0] is worker and time.monotonic() < deadline:
                time.sleep(0.01)
            assert pool._dispatcher.workers[0] is not worker
            assert len(multiprocessing.active_children()) == 1
            (outcome,) = self._round(pool, [second])
        assert outcome[1] == campaign._simulate_entry(second)[1]

    def test_a_closed_pool_forks_nothing_and_refuses_work(self):
        pool = campaign.WorkerPool(2, 1.0)
        pool.close()
        pool.close()
        with pytest.raises(ExperimentError, match="closed"):
            pool.submit(self._payloads(1), lambda outcome: None)
        assert multiprocessing.active_children() == []
