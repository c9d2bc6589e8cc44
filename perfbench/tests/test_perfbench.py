"""Tests of the repository benchmark's own code (not of the simulator).

Run with ``python -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib
import sys
import time

import pytest

HERE = pathlib.Path(__file__).resolve().parent.parent
ROOT = HERE.parent
for path in (str(ROOT / "src"), str(HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

from bench_metrics import (  # noqa: E402
    METRIC_NAME,
    format_lines,
    metric_block,
    ops_ok_frac,
    overhead_frac,
    pass_percentiles,
    percentile,
    percentile_summary,
    pool_util,
)
from bench_workloads import DmuReplay, build_programs, replay_counts, replay_program  # noqa: E402
from layer_trace import Tracer  # noqa: E402
from ref_clock import REFERENCE_PROBE_S, Probe, ReferenceClock, WorkerSpeed  # noqa: E402


def _load_run_module():
    spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


RUN = _load_run_module()
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


class TestMetricNames:
    def test_every_name_is_well_formed(self):
        names = list(RUN.END_TO_END) + list(RUN.PER_LAYER)
        assert all(METRIC_NAME.match(name) for name in names)
        assert len(names) == len(set(names))

    def test_benchmark_json_matches_the_emitted_metrics(self):
        declared = {entry["name"]: entry["unit"] for entry in BENCHMARK["end_to_end"]}
        assert declared == RUN.END_TO_END
        declared = {entry["name"]: entry["unit"] for entry in BENCHMARK["per_layer"]}
        assert declared == RUN.PER_LAYER
        assert [entry["name"] for entry in BENCHMARK["workloads"]] == [
            "cold_campaign", "dmu_replay", "warm_render"
        ]

    def test_metric_block_refuses_malformed_or_missing_names(self):
        with pytest.raises(ValueError):
            metric_block({"bad name": 1.0}, {"bad name": "s"})
        with pytest.raises(KeyError):
            metric_block({}, {"wall_s": "s"})
        assert metric_block({"wall_s": 2}, {"wall_s": "s"}) == {
            "wall_s": {"value": 2.0, "unit": "s"}
        }


class TestPercentiles:
    def test_nearest_rank(self):
        samples = list(range(1, 101))
        assert percentile(samples, 50) == 50
        assert percentile(samples, 90) == 90
        assert percentile([3.0], 90) == 3.0

    def test_summary_carries_the_sample_count(self):
        summary = percentile_summary([0.4, 0.1, 0.3, 0.2])
        assert summary == {"p50": 0.2, "p90": 0.4, "samples": 4}

    def test_printed_percentiles_show_their_count(self):
        block = metric_block({"sim_s_p90": 0.25, "wall_s": 1.0}, {"sim_s_p90": "s", "wall_s": "s"})
        lines = format_lines(block, {"sim_s_p90": (612, 2)})
        assert lines == ["sim_s_p90 = 0.25 s (n=612 in 2 passes)", "wall_s = 1 s"]

    def test_pass_percentiles_are_medians_over_the_passes(self):
        passes = [[1.0, 2.0, 3.0, 10.0], [1.0, 2.0, 5.0, 12.0], [1.0, 4.0, 4.0, 11.0]]
        assert pass_percentiles(passes) == {"p50": 2.0, "p90": 11.0, "samples": 12, "passes": 3}

    def test_empty_samples_are_refused(self):
        with pytest.raises(ValueError):
            percentile([], 50)


class TestDerivedRatios:
    def test_pool_util(self):
        # Two workers busy 15 s in total during a 10 s run_many: 75% used.
        assert pool_util(15.0, 2, 10.0) == pytest.approx(0.75)
        assert pool_util(0.0, 2, 0.0) == 0.0
        with pytest.raises(ValueError):
            pool_util(1.0, 0, 1.0)

    def test_overhead_frac(self):
        assert overhead_frac(12.0, 10.0) == pytest.approx(0.2)
        assert overhead_frac(10.0, 10.0) == 0.0
        with pytest.raises(ValueError):
            overhead_frac(1.0, 0.0)

    def test_ops_ok_frac(self):
        assert ops_ok_frac(317, 0) == 1.0
        assert ops_ok_frac(4, 1) == 0.75
        with pytest.raises(ValueError):
            ops_ok_frac(0, 0)


class TestReferenceClock:
    def test_stretches_are_rescaled_by_the_probes_around_them(self, monkeypatch):
        # Probes read 2x, then 4x, the reference time; the stretch between
        # them ran on a host 3x slower than the reference on average.
        probes = iter([2 * REFERENCE_PROBE_S, 4 * REFERENCE_PROBE_S])
        clock = ReferenceClock(lambda: next(probes))
        now = [10.0]
        monkeypatch.setattr("ref_clock.time.perf_counter", lambda: now[0])
        clock.start()
        now[0] += 6.0
        raw, ref = clock.stop()
        assert raw == pytest.approx(6.0)
        assert ref == pytest.approx(2.0)

    def test_laps_add_up_and_the_probe_runs_outside_the_stretch(self):
        def slow_probe():
            time.sleep(0.02)
            return REFERENCE_PROBE_S

        clock = ReferenceClock(slow_probe)
        clock.start()
        clock.lap()
        clock.lap()
        raw, ref = clock.stop()
        # Four probes slept 80 ms; none of it is in the three laps.
        assert 0 < raw < 0.02 and ref == pytest.approx(raw)

    def test_probe_reads_its_files(self, tmp_path):
        probe = Probe(tmp_path)
        assert len(list(tmp_path.glob("probe-*.json"))) == len(probe.paths) > 0
        assert probe() > 0

    def test_replay_calls_lap_between_chunks_of_tasks(self):
        from bench_workloads import LAP_TASKS
        from repro.config import default_paper_config
        from repro.core.dmu import DependenceManagementUnit

        program = dict(build_programs(0, scale=0.05))["cholesky"]
        laps = []
        tasks = replay_program(program, DependenceManagementUnit(default_paper_config().dmu),
                               lap=lambda: laps.append(1))
        assert len(laps) == (tasks - 1) // LAP_TASKS


class TestDmuReplay:
    def test_tiny_replay_is_deterministic(self, tmp_path):
        pins = {"seeds": {"0": {"dmu": {}}}}
        replay = DmuReplay(0, tmp_path, pins, scale=0.05)
        clock = ReferenceClock(Probe(tmp_path / "probe"))
        assert replay.setup(clock) > 0
        first = replay.run_pass(None, clock)
        second = replay.run_pass(None, clock)
        assert first.layer == second.layer
        assert first.ref_s > 0 and len(first.op_seconds) == len(replay.programs)
        assert first.tasks == second.tasks > 0
        assert first.layer["core.instructions"] > 0
        # Without pins every program is reported as a mismatch, not a crash.
        assert first.failed == len(replay.programs)

    def test_tracing_does_not_change_the_counts(self):
        program = dict(build_programs(0, scale=0.05))["cholesky"]
        from repro.config import default_paper_config
        from repro.core.dmu import DependenceManagementUnit

        plain = DependenceManagementUnit(default_paper_config().dmu)
        replay_program(program, plain, window=64)
        tracer = Tracer()
        tracer.install()
        try:
            traced = DependenceManagementUnit(default_paper_config().dmu)
            replay_program(program, traced, window=64)
        finally:
            tracer.uninstall()
        assert replay_counts(traced) == replay_counts(plain)
        assert tracer.calls["core.isa"] >= replay_counts(plain)[0]


def _traced_campaign(tmp_path: pathlib.Path, tag: str) -> Tracer:
    from repro.experiments import registry
    from repro.experiments.common import SimulationRunner

    worker_dir = tmp_path / f"workers-{tag}"
    worker_dir.mkdir()
    tracer = Tracer(worker_dir=worker_dir)
    runner = SimulationRunner(scale=0.02, jobs=2, cache_dir=tmp_path / f"cache-{tag}")
    tracer.install()
    try:
        registry.run_experiment(
            "figure_10", scale=0.02, benchmarks=["cholesky", "histogram"], runner=runner
        )
    finally:
        tracer.uninstall()
    tracer.collect_workers()
    assert runner.cache_info()["simulations_run"] == tracer.calls["sim.machine_run"]
    return tracer


def test_exact_work_counters_repeat_across_runs(tmp_path):
    first = _traced_campaign(tmp_path, "a")
    second = _traced_campaign(tmp_path, "b")
    exact = ("sim.events", "sim.cycles_total", "core.instructions",
             "core.sram_accesses", "core.blocked", "runtime.tasks")
    assert {name: first.counts[name] for name in exact} == {
        name: second.counts[name] for name in exact
    }
    assert first.counts["sim.events"] > 0 and first.counts["core.instructions"] > 0
    # Pool workers wrote their spans back: simulation time was seen.
    assert first.worker_records > 0 and first.total["sim.machine_run"] > 0


def test_uninstall_restores_every_entry_point():
    from repro.experiments import cache, campaign
    from repro.sim.machine import Machine

    originals = (Machine.run, campaign._simulate_entry, cache.canonical_run_key)
    tracer = Tracer()
    tracer.install()
    assert Machine.run is not originals[0]
    tracer.uninstall()
    assert (Machine.run, campaign._simulate_entry, cache.canonical_run_key) == originals


def test_worker_speed_probes_every_pooled_simulation(tmp_path):
    from repro.experiments import campaign, registry
    from repro.experiments.common import SimulationRunner

    original = campaign._simulate_entry
    speed = WorkerSpeed(tmp_path / "speed")
    runner = SimulationRunner(scale=0.02, jobs=2, cache_dir=tmp_path / "cache")
    speed.install(Probe(tmp_path / "probe"))
    try:
        registry.run_experiment(
            "figure_10", scale=0.02, benchmarks=["cholesky", "histogram"], runner=runner
        )
    finally:
        speed.uninstall()
    assert campaign._simulate_entry is original
    factors = speed.collect()
    assert set(factors) == set(runner.engine.key_timings)
    assert factors and all(factor > 0 for factor in factors.values())
    assert speed.collect() == {}
