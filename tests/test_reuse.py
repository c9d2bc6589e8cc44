"""Verified trajectory reuse: a DMU replay stands in for a full simulation.

A key whose trajectory class (its payload minus the DMU sizing) already
has a recorded DMU trace replays that trace through a DMU of its own
configuration; when every response matches, its result is built from the
reference run instead of re-simulated.  These tests pin that a reused
result is byte-identical to a fresh full run, that replays really happen
and really fall back, that the class key leaves out only fields the
simulation never reads, and that no memo outlives its engine.
"""

from __future__ import annotations

import ast
import dataclasses
import functools
import multiprocessing
import pathlib
from array import array
from contextlib import closing
from types import SimpleNamespace

import pytest

from repro.config import DMUConfig
from repro.core.isa import (
    AddDependenceResult,
    CompleteCreationResult,
    CreateTaskResult,
    DMUBlocked,
    FinishTaskResult,
    GetReadyTaskResult,
)
from repro.experiments import campaign, reuse
from repro.experiments.cache import canonical_json
from repro.experiments.campaign import CampaignEngine, CampaignRunError, RunRequest
from repro.experiments.common import SimulationRunner
from repro.experiments.registry import resolve_plan, run_experiment
from repro.reliability import faults
from repro.sim.machine import run_simulation
from repro.workloads.registry import create_workload

SCALE = 0.05
BENCHMARKS = ["cholesky", "qr"]

#: The DMU design-space figures: the sweeps whose keys have DMU-only
#: siblings (Fig. 9's latency sweep never replays: every response differs).
SWEEPS = ("figure_07", "figure_08", "figure_09", "figure_11")

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"


def _plan(runner):
    """Every resolved key of :data:`SWEEPS`, deduplicated, in key order."""
    planned = {}
    for name in SWEEPS:
        for item in resolve_plan(name, runner, benchmarks=BENCHMARKS):
            planned.setdefault(item.key, item)
    return [planned[key] for key in sorted(planned)]


def _fresh(item) -> str:
    """The canonical JSON of ``item``'s full simulation on a fresh build."""
    program = create_workload(
        item.request.benchmark, scale=SCALE, granularity=item.request.granularity,
        runtime=item.workload_runtime,
    ).build_program()
    return canonical_json(run_simulation(program, item.config).to_dict())


@pytest.fixture(scope="module")
def fresh_results():
    """``{key: canonical JSON of a fresh full run}`` for every swept key."""
    return {item.key: _fresh(item) for item in _plan(SimulationRunner(scale=SCALE))}


class TestReusedResultsAreFreshResults:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_every_swept_key_equals_its_fresh_run(self, fresh_results, jobs):
        with closing(SimulationRunner(scale=SCALE, jobs=jobs)) as runner:
            for name in SWEEPS:
                run_experiment(name, scale=SCALE, benchmarks=BENCHMARKS, runner=runner)
            engine = runner.engine
            served = {item.key: canonical_json(engine.cached(item).to_dict())
                      for item in _plan(runner)}
        assert served == fresh_results
        info = runner.cache_info()
        assert info["simulations_run"] == len(fresh_results)
        assert info["simulations_reused"] >= 1, "no key was served by a replay"
        assert engine.failed_replays >= 1, "no replay fell back"

    def test_a_replay_that_diverges_falls_back_to_the_full_run(self):
        engine = CampaignEngine(scale=SCALE)
        (reference,) = engine.run_many([RunRequest("qr", "tdm")])
        payload = engine._payload(engine.resolve(RunRequest("qr", "tdm")))
        trace = reuse.DMUTrace()
        with reuse.recording(trace):
            recorded = run_simulation(campaign.build_program(
                "qr", SCALE, None, "tdm", 0), engine.resolve(RunRequest("qr", "tdm")).config)
        assert recorded.to_dict() == reference.to_dict()
        memo = reuse.TrajectoryMemo()
        trajectory = reuse.trajectory_class(payload)
        memo.add(trajectory, trace, recorded.to_dict())
        assert trajectory in memo
        # A slower DMU answers the first instruction with other cycles.
        slow = engine.resolve(RunRequest("qr", "tdm", dmu=DMUConfig(access_cycles=3)))
        assert reuse.trajectory_class(engine._payload(slow)) == trajectory
        assert reuse.replayed(memo.trace(trajectory, slow.config.dmu), slow.config) is None
        # A bigger one answers every instruction alike: the reference's run.
        big = engine.resolve(RunRequest("qr", "tdm", dmu=DMUConfig(tat_entries=4096,
                                                                   ready_queue_entries=4096)))
        replayed = reuse.replayed(memo.trace(trajectory, big.config.dmu), big.config)
        assert canonical_json(replayed.to_dict()) == _fresh(big)
        assert replayed.num_tasks_executed == recorded.num_tasks_executed > 0

    def test_a_dmu_smaller_than_the_reference_peak_is_not_replayed(self, monkeypatch):
        engine = CampaignEngine(scale=SCALE)
        reference = engine.resolve(RunRequest("qr", "tdm"))
        trace = reuse.DMUTrace()
        with reuse.recording(trace):
            recorded = run_simulation(campaign.build_program(
                "qr", SCALE, None, "tdm", 0), reference.config).to_dict()
        assert not any(recorded["dmu_stats"]["blocked_by_structure"].values())
        memo = reuse.TrajectoryMemo()
        trajectory = reuse.trajectory_class(engine._payload(reference))
        memo.add(trajectory, trace, recorded)
        peak = reference.config.dmu.tat_entries - trace.least_free["TAT"]
        assert 0 < peak <= recorded["dmu_stats"]["tasks_created"]
        small = engine.resolve(RunRequest("qr", "tdm", dmu=DMUConfig(
            tat_entries=1 << (peak - 1).bit_length() - 1)))
        assert small.config.dmu.tat_entries < peak
        assert trajectory in memo and memo.trace(trajectory, small.config.dmu) is None
        # The skip is sound: the small DMU's full run does block.
        blocked = canonical_json(run_simulation(campaign.build_program(
            "qr", SCALE, None, "tdm", 0), small.config).dmu_stats.blocked_by_structure)
        assert blocked != "{}"
        # Wider list entries change the lists' usage: only the TAT decides.
        wide = engine.resolve(RunRequest("qr", "tdm", dmu=DMUConfig(
            elements_per_list_entry=16, successor_list_entries=2)))
        replays = []
        monkeypatch.setattr(reuse, "replay", lambda *args: replays.append(args) or True)
        assert reuse.replayed(memo.trace(trajectory, wide.config.dmu), wide.config) is not None
        assert replays, "the wider DMU was not replayed"

    def test_a_runtime_without_a_dmu_replays_an_empty_trace(self):
        engine = CampaignEngine(scale=SCALE)
        requests = [RunRequest("cholesky", "software", dmu=DMUConfig(tat_entries=size))
                    for size in (512, 1024)]
        results = engine.run_many(requests)
        assert engine.cache_info()["simulations_reused"] == 1
        for request, result in zip(requests, results):
            assert canonical_json(result.to_dict()) == _fresh(engine.resolve(request))


class TestReplay:
    """``replay`` compares every response field a simulation reads."""

    RECORDS = {
        "ready": ([reuse.READY, 2, 0x100, 3], GetReadyTaskResult(2, 0x100, 3), [
            GetReadyTaskResult(3, 0x100, 3), GetReadyTaskResult(2, 0x140, 3),
            GetReadyTaskResult(2, 0x100, 4), GetReadyTaskResult(2, None, 0), DMUBlocked("TAT"),
        ]),
        "add": ([reuse.ADD, 0x100, 0x2000, 64, 1, 4], AddDependenceResult(4, 0, 1), [
            AddDependenceResult(5, 0, 1), DMUBlocked("DAT"),
        ]),
        "finish": ([reuse.FINISH, 0x100, 9, 2], FinishTaskResult(9, 2), [
            FinishTaskResult(8, 2), FinishTaskResult(9, 1), DMUBlocked("SLA"),
        ]),
        "create": ([reuse.CREATE, 0x100, 5], CreateTaskResult(5, 0), [
            CreateTaskResult(4, 0), DMUBlocked("TAT"),
        ]),
        "complete": ([reuse.COMPLETE, 0x100, 2, 1], CompleteCreationResult(2, True), [
            CompleteCreationResult(3, True), CompleteCreationResult(2, False),
        ]),
    }

    @staticmethod
    def _dmu(result):
        """A stand-in DMU whose every instruction answers ``result``."""
        answer = lambda *args: result  # noqa: E731 - one stand-in per instruction
        return SimpleNamespace(create_task=answer, add_dependence=answer,
                               complete_creation=answer, finish_task=answer,
                               get_ready_task=answer)

    @pytest.mark.parametrize("instruction", sorted(RECORDS))
    def test_a_response_differing_in_any_field_diverges(self, instruction):
        record, same, others = self.RECORDS[instruction]
        words = array("q", record)
        assert reuse.replay(words, self._dmu(same))
        for other in others:
            assert not reuse.replay(words, self._dmu(other)), other


class TestMemoBound:
    def test_the_least_recently_used_class_goes_first(self, monkeypatch):
        engine = CampaignEngine(scale=SCALE)
        memo = reuse.TrajectoryMemo()
        classes = []
        for benchmark in ("cholesky", "qr", "lu"):
            resolved = engine.resolve(RunRequest(benchmark, "tdm"))
            trace = reuse.DMUTrace()
            with reuse.recording(trace):
                result = run_simulation(campaign.build_program(
                    benchmark, SCALE, None, "tdm", 0), resolved.config)
            classes.append((reuse.trajectory_class(engine._payload(resolved)), trace,
                            result.to_dict(), resolved.config))
        (first, *_), (second, *_), (third, *_) = classes
        memo.add(*classes[0][:3])
        memo.add(*classes[1][:3])
        assert memo.trace(first, classes[0][3].dmu) is not None  # first is now the newest
        monkeypatch.setattr(reuse, "MAX_MEMO_BYTES", memo.bytes)
        memo.add(*classes[2][:3])
        assert first in memo and third in memo and second not in memo
        assert memo.bytes <= reuse.MAX_MEMO_BYTES


class TestTrajectoryClass:
    def test_only_dmu_sizing_is_left_out(self):
        engine = CampaignEngine(scale=SCALE)

        def trajectory(request):
            return reuse.trajectory_class(engine._payload(engine.resolve(request)))

        base = trajectory(RunRequest("qr", "tdm"))
        assert trajectory(RunRequest("qr", "tdm", dmu=DMUConfig(dat_entries=512))) == base
        assert trajectory(RunRequest("qr", "tdm", dmu=DMUConfig(
            instruction_issue_cycles=9))) != base
        assert trajectory(RunRequest("qr", "tdm", "lifo")) != base
        assert trajectory(RunRequest("cholesky", "tdm")) != base
        assert trajectory(RunRequest("qr", "software")) != base
        assert trajectory(RunRequest("qr", "tdm", granularity=8)) != base

    def test_the_dropped_fields_are_every_other_dmu_field(self):
        names = {field.name for field in dataclasses.fields(DMUConfig)}
        assert set(reuse.DROPPED_DMU_FIELDS) == names - {"instruction_issue_cycles"}

    #: Harness modules that read the *base* DMU to lay out a sweep or a
    #: table before any key exists, and the reuse module, which compares a
    #: key's sizes with a trace's peaks to skip a replay that cannot match;
    #: no simulation reads a dropped field through them.
    SWEEP_LAYOUT_READS = {
        "experiments/fig07_tat_dat.py": {"ready_queue_entries"},
        "experiments/fig11_dat_occupancy.py": {"dat_entries", "dat_associativity"},
        "experiments/reuse.py": {"elements_per_list_entry"},
        "experiments/table03_area.py": {"tat_entries"},
    }

    def test_no_simulation_path_reads_a_dropped_field(self):
        derived = {"task_table_entries", "dependence_table_entries",
                   "task_id_bits", "dependence_id_bits"}
        dropped = set(reuse.DROPPED_DMU_FIELDS) | derived
        found = {}
        for package in ("runtime", "sim", "experiments"):
            for path in sorted((SRC / package).rglob("*.py")):
                tree = ast.parse(path.read_text(encoding="utf-8"))
                reads = {node.attr for node in ast.walk(tree)
                         if isinstance(node, ast.Attribute) and node.attr in dropped}
                # getattr(config, "name") reads as much as config.name.
                reads |= {node.args[1].value for node in ast.walk(tree)
                          if isinstance(node, ast.Call) and getattr(node.func, "id", None)
                          == "getattr" and len(node.args) > 1
                          and isinstance(node.args[1], ast.Constant)
                          and node.args[1].value in dropped}
                if reads:
                    found[path.relative_to(SRC).as_posix()] = reads
        assert found == self.SWEEP_LAYOUT_READS


class TestMemoLifetime:
    #: Five keys of one trajectory class whose DMUs never block at this
    #: scale: every key after the first (the class's reference) replays.
    REQUESTS = [RunRequest("cholesky", "tdm", dmu=DMUConfig(dat_entries=size))
                for size in (1024, 2048, 4096, 8192, 16384)]

    @staticmethod
    def _patch_run_simulation(monkeypatch, explode):
        """Count every full simulation; raise for the ones ``explode`` names."""
        calls = []
        real = campaign.run_simulation

        def patched(program, config):
            calls.append(program.name)
            if explode(program.name):
                raise RuntimeError("injected fault")
            return real(program, config)

        monkeypatch.setattr(campaign, "run_simulation", patched)
        return calls

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_a_new_engine_replays_nothing_an_old_one_recorded(self, monkeypatch, jobs):
        if jobs > 1 and multiprocessing.get_start_method() != "fork":
            pytest.skip("a patched simulation reaches the pool only by fork")
        with closing(CampaignEngine(scale=SCALE, jobs=jobs)) as warm:
            warm.run_many(self.REQUESTS)
            assert warm.cache_info()["simulations_reused"] >= 1
        self._patch_run_simulation(monkeypatch, lambda name: True)
        with closing(CampaignEngine(scale=SCALE, jobs=jobs)) as engine, \
                pytest.raises(CampaignRunError) as excinfo:
            engine.run_many(self.REQUESTS)
        assert excinfo.value.error_message == "injected fault"
        # Every key reached the patched simulation and failed there.
        assert engine.cache_info()["simulations_run"] == 0

    def test_every_full_simulation_goes_through_run_simulation(self, monkeypatch):
        calls = self._patch_run_simulation(monkeypatch, lambda name: False)
        engine = CampaignEngine(scale=SCALE)
        engine.run_many(self.REQUESTS)
        info = engine.cache_info()
        assert info["simulations_reused"] == len(self.REQUESTS) - 1
        assert len(calls) == info["simulations_run"] - info["simulations_reused"] == 1

    def test_a_direct_attempt_has_no_memo(self):
        # An attempt replays only the trace its payload carries: a record
        # call leaves nothing behind for the next call to replay.
        engine = CampaignEngine(scale=SCALE)
        reference, sibling = (engine._payload(engine.resolve(request))
                              for request in self.REQUESTS[:2])
        _, recorded, _ = campaign._simulate_entry({**reference, "record": True})
        trace = recorded.pop(campaign._RECORDED)
        assert campaign._simulate_entry(reference)[1] == recorded
        bare = campaign._simulate_entry(sibling)[1]
        assert campaign._REUSED_MARKER not in bare
        memo = reuse.TrajectoryMemo()
        memo.add(reuse.trajectory_class(reference), trace, recorded)
        carried = memo.trace(reuse.trajectory_class(sibling),
                             engine.resolve(self.REQUESTS[1]).config.dmu)
        replayed = campaign._simulate_entry({**sibling, "trace": carried})[1]
        assert replayed.pop(campaign._REUSED_MARKER) is True
        assert replayed == bare


class TestPooledReuseEqualsSerialReuse:
    #: The DMU sweeps whose classes have later keys that replay.
    PLANS = ("figure_07", "figure_08", "figure_11")

    @staticmethod
    def _reused(monkeypatch, jobs):
        """The keys a campaign of :data:`PLANS` committed from a replay, and
        its engine's failed replays."""
        reused = set()
        real_commit = CampaignEngine._commit

        def commit(engine, item, result, seconds):
            if result.get(campaign._REUSED_MARKER):
                reused.add(item.key)
            real_commit(engine, item, result, seconds)

        monkeypatch.setattr(CampaignEngine, "_commit", commit)
        with closing(SimulationRunner(scale=SCALE, jobs=jobs)) as runner:
            for name in TestPooledReuseEqualsSerialReuse.PLANS:
                run_experiment(name, scale=SCALE, runner=runner)
        return reused, runner.engine.failed_replays

    def test_serial_and_pooled_campaigns_reuse_the_same_keys(self, monkeypatch):
        serial, serial_failed = self._reused(monkeypatch, jobs=1)
        pooled, pooled_failed = self._reused(monkeypatch, jobs=2)
        assert serial, "no key was served by a replay"
        assert pooled == serial
        assert pooled_failed == serial_failed > 0


class TestFaultsReachReusedKeys:
    def test_a_reused_key_passes_the_sim_site_with_its_own_attempt(self, monkeypatch):
        runner = SimulationRunner(scale=SCALE)
        plan = [item for item in resolve_plan("figure_07", runner, benchmarks=BENCHMARKS)]
        keys = sorted(item.key for item in plan)
        # Fault the attempt 1 of every other key: those retry in a second
        # round, where the first round's traces are still in the memo.
        faulted = keys[1::2]
        hits, reused = [], set()
        real_fault = campaign.maybe_fault

        def logging_fault(site, key, attempt):
            hits.append((site, key, attempt))
            if site == "sim" and key in faulted and attempt == 1:
                raise faults.InjectedFault(f"injected at {site}")
            return real_fault(site, key, attempt)

        real_entry = campaign._simulate_entry

        @functools.wraps(real_entry)
        def marking_entry(payload):
            outcome = real_entry(payload)
            if campaign._REUSED_MARKER in outcome[1]:
                reused.add((payload["key"], payload["attempt"]))
            return outcome

        monkeypatch.setattr(campaign, "maybe_fault", logging_fault)
        monkeypatch.setattr(campaign, "_simulate_entry", marking_entry)
        results = runner.engine.run_many([item.request for item in plan])
        assert runner.engine.retries == len(faulted)
        sim_hits = sorted((key, attempt) for site, key, attempt in hits if site == "sim")
        assert sim_hits == sorted([(key, 1) for key in keys] + [(key, 2) for key in faulted])
        assert reused & {(key, 2) for key in faulted}, "no retried key was reused"
        assert reused <= set(sim_hits)
        clean = CampaignEngine(scale=SCALE).run_many([item.request for item in plan])
        assert [r.to_dict() for r in results] == [r.to_dict() for r in clean]
