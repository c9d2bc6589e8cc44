"""The warm read path: a disk hit builds only what a render reads.

A restored result keeps its timeline as the stored per-thread rows (the
``ThreadTimeline`` objects are built on first read) and shares the config
the engine resolved its key from.  These tests pin that the lazy restore is
indistinguishable from a live run, that a render which reads no per-thread
phases builds none, and that the read still quarantines what is not a
result.
"""

import dataclasses
import hashlib
import json
import sys
import threading

import pytest

from repro.config import SimulationConfig, default_paper_config
from repro.experiments import campaign
from repro.experiments.cache import QUARANTINE_DIRNAME, ResultCache, canonical_json
from repro.experiments.common import SimulationRunner
from repro.experiments.registry import (
    experiment_catalog,
    plan_function,
    resolve_plan,
    run_experiment,
)
from repro.sim import timeline as timeline_module
from repro.sim.machine import run_simulation
from repro.sim.timeline import Timeline

from tests.util import diamond_program, make_config

SCALE = 0.05
BENCHMARKS = ["blackscholes", "cholesky"]
KEY = "ab" + "0" * 62


@pytest.fixture(scope="module")
def live_result():
    return run_simulation(diamond_program(), make_config(runtime="tdm"))


def reason(cache_dir, key):
    return (cache_dir / QUARANTINE_DIRNAME / f"{key}.json.reason").read_text()


class TestShapeChecks:
    """A checksum-valid entry whose payload is not a result is still
    quarantined by ``get``, although the thread rows are built lazily."""

    @pytest.mark.parametrize("breakage", ["row missing IDLE", "threads not a list",
                                          "end_cycle not an int", "total not an int",
                                          "total a float"])
    def test_malformed_timeline_is_quarantined_as_a_miss(self, tmp_path, live_result,
                                                         breakage):
        result_dict = json.loads(json.dumps(live_result.to_dict()))
        timeline = result_dict["timeline"]
        if breakage == "row missing IDLE":
            del timeline["threads"][1]["IDLE"]
        elif breakage == "threads not a list":
            timeline["threads"] = {"0": timeline["threads"][0]}
        elif breakage == "end_cycle not an int":
            timeline["end_cycle"] = float(timeline["end_cycle"])
        elif breakage == "total not an int":
            timeline["threads"][0]["EXEC"] = None
        else:
            timeline["threads"][-1]["DEPS"] += 0.5
        cache = ResultCache(tmp_path)
        cache.put_serialized(KEY, result_dict)
        assert cache.get(KEY, live_result.config, live_result.config.to_dict()) is None
        assert (cache.hits, cache.misses, cache.quarantined) == (0, 1, 1)
        assert reason(tmp_path, KEY).startswith("malformed entry")
        assert not cache.path_for(KEY).exists()

    def test_matching_config_is_shared(self, tmp_path, live_result):
        cache = ResultCache(tmp_path)
        cache.put_serialized(KEY, live_result.to_dict())
        config = live_result.config
        assert cache.get(KEY, config, config.to_dict()).config is config
        assert cache.get(KEY).config == config


def test_concurrent_first_reads_build_equal_threads(live_result):
    """Threads racing on the first read of a restored timeline each see
    the stored totals (the rows outlive the build)."""
    data = json.loads(json.dumps(live_result.timeline.to_dict()))
    expected = live_result.timeline.totals()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            restored = Timeline.from_dict(data)
            seen = []
            readers = [threading.Thread(target=lambda: seen.append(restored.totals()))
                       for _ in range(8)]
            for reader in readers:
                reader.start()
            for reader in readers:
                reader.join(timeout=10)
            assert not any(reader.is_alive() for reader in readers)
            assert seen == [expected] * len(readers)
    finally:
        sys.setswitchinterval(interval)


class TestLazyRestore:
    """Figures 2 and 10 read per-thread phases: a warm restore of every
    result they plan gives the live values and re-encodes to the stored
    bytes."""

    PLAN = ("figure_02", "figure_10")

    @pytest.fixture(scope="class")
    def cold(self, tmp_path_factory, request):
        """Cache dir, cold CSVs and the live result of every simulated key."""
        monkeypatch = pytest.MonkeyPatch()
        request.addfinalizer(monkeypatch.undo)
        live = {}
        current = []
        real_entry = campaign._simulate_entry
        real_run = campaign.run_simulation

        def recording_entry(payload):
            current[:] = [payload["key"]]
            return real_entry(payload)

        def recording_run(program, config):
            live[current[0]] = result = real_run(program, config)
            return result

        monkeypatch.setattr(campaign, "_simulate_entry", recording_entry)
        monkeypatch.setattr(campaign, "run_simulation", recording_run)
        cache_dir = tmp_path_factory.mktemp("lazy")
        runner = SimulationRunner(scale=SCALE, cache_dir=cache_dir)
        csvs = {
            name: run_experiment(name, scale=SCALE, benchmarks=BENCHMARKS,
                                 runner=runner).to_csv()
            for name in self.PLAN
        }
        monkeypatch.undo()
        return cache_dir, csvs, live

    def test_warm_restores_equal_the_live_results(self, cold):
        cache_dir, cold_csvs, live = cold
        runner = SimulationRunner(scale=SCALE, cache_dir=cache_dir)
        csvs = {
            name: run_experiment(name, scale=SCALE, benchmarks=BENCHMARKS,
                                 runner=runner).to_csv()
            for name in self.PLAN
        }
        assert csvs == cold_csvs
        assert runner.engine.cache_info()["simulations_run"] == 0
        engine = runner.engine
        planned = {item.key: item for name in self.PLAN
                   for item in resolve_plan(name, runner, benchmarks=BENCHMARKS)}
        assert planned.keys() == live.keys()
        for key, item in sorted(planned.items()):
            restored, cold_result = engine.cached(item), live[key]
            stored = json.loads(engine.disk_cache.path_for(key).read_bytes())
            encoded = canonical_json(restored.to_dict()).encode("utf-8")
            assert hashlib.sha256(encoded).hexdigest() == stored["sha256"]
            assert restored.master_breakdown() == cold_result.master_breakdown()
            assert restored.worker_breakdown() == cold_result.worker_breakdown()
            assert restored.idle_fraction == cold_result.idle_fraction
            assert restored.master_creation_fraction == cold_result.master_creation_fraction
            assert restored.energy == cold_result.energy


class TestWarmRenderSkipsRebuilds:
    def test_figure_12_builds_no_thread_timeline_and_parses_no_config(
        self, tmp_path, monkeypatch
    ):
        kwargs = dict(scale=SCALE, benchmarks=["blackscholes"])
        cold_csv = run_experiment(
            "figure_12", runner=SimulationRunner(scale=SCALE, cache_dir=tmp_path), **kwargs
        ).to_csv()
        threads_built = []
        configs_parsed = []
        real_init = timeline_module.ThreadTimeline.__init__
        real_from_dict = SimulationConfig.from_dict.__func__

        def counting_init(thread, *args, **kwargs):
            threads_built.append(args)
            real_init(thread, *args, **kwargs)

        def counting_from_dict(cls, data):
            configs_parsed.append(data)
            return real_from_dict(cls, data)

        monkeypatch.setattr(timeline_module.ThreadTimeline, "__init__", counting_init)
        monkeypatch.setattr(SimulationConfig, "from_dict", classmethod(counting_from_dict))
        warm = SimulationRunner(scale=SCALE, cache_dir=tmp_path)
        assert run_experiment("figure_12", runner=warm, **kwargs).to_csv() == cold_csv
        info = warm.engine.cache_info()
        assert info["simulations_run"] == 0 and info["disk_hits"] > 0
        assert threads_built == [] and configs_parsed == []


def planned_configs():
    """Every distinct config the paper plans resolve, default one first."""
    runner = SimulationRunner(scale=SCALE)
    configs = {default_paper_config(): None}
    for entry in experiment_catalog():
        name = entry["name"]
        if entry["kind"] != "paper" or plan_function(name) is None:
            continue
        for item in resolve_plan(name, runner):
            configs.setdefault(item.config, None)
    return list(configs)


def test_to_dict_equals_asdict_for_every_planned_config():
    configs = planned_configs()
    assert len({(c.runtime, c.scheduler) for c in configs}) > 4
    assert len({c.dmu for c in configs}) > 2
    for config in configs:
        assert config.to_dict() == dataclasses.asdict(config)
        assert list(config.to_dict()) == list(dataclasses.asdict(config))
