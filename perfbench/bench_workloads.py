"""The three benchmark workloads: set-up, one timed pass, output checks.

* ``cold_campaign`` renders the whole paper campaign (all eleven paper
  experiments, all nine benchmarks) at :data:`CAMPAIGN_SCALE` with
  :data:`JOBS` pool workers into a fresh disk cache.
* ``dmu_replay`` replays the task programs of the nine benchmarks at scale
  1.0 through a bare :class:`~repro.core.dmu.DependenceManagementUnit`.
* ``warm_render`` renders the same campaign again from a disk cache filled
  during set-up, with a fresh engine per pass.

Every pass checks its outputs against ``pins.json`` (written by
``run.py --pin`` from a serial reference render of the same code) and
counts each mismatch or exception as a failed operation.  Host time is
taken with a :class:`~ref_clock.ReferenceClock`, in raw and reference
seconds; the reported metrics use the reference seconds.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import pathlib
import shutil
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.config import default_paper_config
from repro.core.dmu import DependenceManagementUnit
from repro.experiments import registry
from repro.experiments.common import SimulationRunner
from repro.workloads.registry import PAPER_BENCHMARKS, create_workload

from layer_trace import Tracer, add_dmu_counts
from ref_clock import ReferenceClock, WorkerSpeed

#: Workload scale of the two campaign workloads (the paper is 1.0).
CAMPAIGN_SCALE = 0.05
#: Pool workers of the campaign workloads.
JOBS = 2
#: Workload scale of the DMU replay: Table II task counts.
DMU_SCALE = 1.0
#: Most tasks the replay keeps between ``create_task`` and ``finish_task``.
DMU_WINDOW = 2048
#: Tasks the replay issues between two laps of the reference clock.
LAP_TASKS = 512
#: First task-descriptor address of a replay and the stride between two.
_DESCRIPTOR_BASE = 0x7000_0000_0000
_DESCRIPTOR_STRIDE = 64


def paper_experiments() -> List[str]:
    """The eleven paper tables and figures, in registry order."""
    return [entry["name"] for entry in registry.experiment_catalog() if entry["kind"] == "paper"]


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class PassResult:
    """What one timed pass did, measured and checked."""

    #: Raw host seconds of the pass, probes excluded.
    wall_s: float
    #: The same time in reference seconds (see ``ref_clock``).
    ref_s: float
    #: Tasks whose results the pass delivered (simulated, replayed or served).
    tasks: int
    #: DMU instructions retired in the runs whose results the pass delivered.
    dmu_instructions: int
    #: Results served: canonical-key lookups, or replayed programs.
    keys_served: int
    #: Reference seconds of each operation timed inside the pass.
    op_seconds: List[float]
    attempted: int
    failures: List[str] = field(default_factory=list)
    #: Exact counters and layer values the benchmark measures itself.
    layer: Dict[str, float] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return len(self.failures)


class BenchWorkload:
    """One workload: ``setup`` runs ``setup_repeats`` times, then passes.

    ``setup`` returns its reference seconds; ``run_pass`` times itself.
    """

    name = ""
    #: Pool workers the workload's campaign engine uses.
    jobs = 1
    setup_repeats = 1
    #: Span names whose traced set-up time is reported with the pass layers.
    setup_spans: tuple = ()

    def __init__(self, seed: int, workdir: pathlib.Path, pins: Dict[str, object]) -> None:
        seeds = pins["seeds"]
        #: The workload seed: the benchmark seed folded onto the pinned seeds.
        self.seed = seed % len(seeds)
        self.pins = seeds[str(self.seed)]
        self.workdir = workdir
        #: Operations attempted and failed outside the passes (set-up checks).
        self.setup_attempted = 0
        self.setup_failures: List[str] = []

    def setup(self, clock: ReferenceClock) -> float:
        raise NotImplementedError

    def run_pass(self, tracer: Optional[Tracer], clock: ReferenceClock) -> PassResult:
        raise NotImplementedError


# ---------------------------------------------------------------------- campaign


class _Campaign(BenchWorkload):
    """Shared plan resolution and rendering of the two campaign workloads."""

    jobs = JOBS

    def __init__(self, seed: int, workdir: pathlib.Path, pins: Dict[str, object]) -> None:
        super().__init__(seed, workdir, pins)
        self._cache_numbers = itertools.count(1)
        self.speed = WorkerSpeed(workdir / "speed")

    def _resolve_plan(self) -> None:
        runner = SimulationRunner(scale=CAMPAIGN_SCALE, seed=self.seed, jobs=JOBS)
        planned = {}
        for name in paper_experiments():
            if registry.plan_function(name) is not None:
                for item in registry.resolve_plan(name, runner):
                    planned.setdefault(item.key, item)
        self.plan = [planned[key] for key in sorted(planned)]

    def _render(self, runner: SimulationRunner, tracer: Optional[Tracer],
                expected: Dict[str, str],
                clock: ReferenceClock) -> Tuple[PassResult, Dict[str, str]]:
        """Render every paper experiment through ``runner`` and check it.

        Each experiment is one stretch of ``clock``.  Each simulation the
        pool runs is rescaled by the probes its worker took around it, and
        an experiment that simulated is rescaled by the time-weighted mean
        factor of its simulations; one that did not, by ``clock``'s probes.
        The pass's ``op_seconds`` are the experiments' reference seconds;
        the simulations' are in :attr:`key_seconds`.  Returns the pass and
        the CSV digest of every figure that rendered.
        """
        render: Callable = registry.run_experiment
        if tracer is not None:
            render = tracer.span("experiments.render", render)
        key_timings = runner.engine.key_timings
        self.key_seconds: Dict[str, float] = {}
        seconds: List[float] = []
        csvs: Dict[str, Optional[bytes]] = {}
        errors: Dict[str, str] = {}
        wall = ref_wall = 0.0
        self.speed.install(clock.probe)
        try:
            for name in paper_experiments():
                timed_before = set(key_timings)
                clock.start()
                try:
                    csvs[name] = render(name, scale=CAMPAIGN_SCALE,
                                        runner=runner).to_csv().encode()
                except Exception as error:  # noqa: BLE001 - counted as a failed render
                    csvs[name] = None
                    errors[name] = f"{type(error).__name__}: {error}"
                raw, ref = clock.stop()
                factors = self.speed.collect()
                simulated = [key for key in key_timings.keys() - timed_before if key in factors]
                if simulated:
                    busy = sum(key_timings[key] for key in simulated)
                    ref = raw * sum(key_timings[key] * factors[key] for key in simulated) / busy
                for key in simulated:
                    self.key_seconds[key] = key_timings[key] * factors[key]
                wall += raw
                ref_wall += ref
                seconds.append(ref)
        finally:
            self.speed.uninstall()

        failures = [f"{name}: {error}" for name, error in errors.items()]
        failures.extend(
            f"{name}: CSV digest differs from the reference render"
            for name, data in csvs.items()
            if data is not None and digest(data) != expected.get(name)
        )
        engine = runner.engine
        info = engine.cache_info()
        tasks = instructions = 0
        for item in self.plan:
            result = engine.cached(item)
            if result is None:
                continue
            tasks += result.num_tasks_executed
            if result.dmu_stats is not None:
                instructions += result.dmu_stats.total_instructions
        reliability = engine.reliability_info()
        outcome = PassResult(
            wall_s=wall,
            ref_s=ref_wall,
            tasks=tasks,
            dmu_instructions=instructions,
            keys_served=info["memory_hits"] + info["disk_hits"] + info["simulations_run"],
            op_seconds=seconds,
            attempted=len(csvs),
            failures=failures,
            layer={
                "campaign.worker_busy_s": sum(engine.key_timings.values()),
                "campaign.simulations": info["simulations_run"],
                "reliability.retries": reliability["retries"],
                "reliability.watchdog_kills": reliability["watchdog_kills"],
                "reliability.quarantined": reliability["quarantined"],
            },
        )
        rendered = {name: digest(data) for name, data in csvs.items() if data is not None}
        return outcome, rendered

    def _fresh_cache(self) -> pathlib.Path:
        path = self.workdir / f"cache-{next(self._cache_numbers)}"
        path.mkdir(parents=True)
        return path


class ColdCampaign(_Campaign):
    name = "cold_campaign"
    setup_repeats = 5

    def setup(self, clock: ReferenceClock) -> float:
        return clock.time(self._resolve_plan)[2]

    def run_pass(self, tracer: Optional[Tracer], clock: ReferenceClock) -> PassResult:
        cache_dir = self._fresh_cache()
        try:
            runner = SimulationRunner(
                scale=CAMPAIGN_SCALE, seed=self.seed, jobs=JOBS, cache_dir=cache_dir
            )
            outcome, _ = self._render(runner, tracer, self.pins["figures"], clock)
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        # Each planned key is one simulation: a key with no result failed.
        outcome.attempted += len(self.plan)
        outcome.failures.extend(
            f"planned run {item.key[:12]} has no result"
            for item in self.plan
            if runner.engine.cached(item) is None
        )
        outcome.op_seconds = list(self.key_seconds.values())
        return outcome


class WarmRender(_Campaign):
    name = "warm_render"

    def setup(self, clock: ReferenceClock) -> float:
        resolve_s = clock.time(self._resolve_plan)[2]
        self.cache_dir = self._fresh_cache()
        runner = SimulationRunner(
            scale=CAMPAIGN_SCALE, seed=self.seed, jobs=JOBS, cache_dir=self.cache_dir
        )
        fill, self.cold_digests = self._render(runner, None, self.pins["figures"], clock)
        self.setup_attempted += fill.attempted
        self.setup_failures.extend(f"cold fill: {failure}" for failure in fill.failures)
        return resolve_s + fill.ref_s

    def run_pass(self, tracer: Optional[Tracer], clock: ReferenceClock) -> PassResult:
        runner = SimulationRunner(
            scale=CAMPAIGN_SCALE, seed=self.seed, jobs=JOBS, cache_dir=self.cache_dir
        )
        outcome, digests = self._render(runner, tracer, self.pins["figures"], clock)
        outcome.failures.extend(
            f"{name}: warm CSV differs from the cold fill"
            for name, value in digests.items()
            if value != self.cold_digests.get(name)
        )
        simulated = runner.engine.cache_info()["simulations_run"]
        if simulated:
            outcome.failures.append(f"warm pass simulated {simulated} runs")
        return outcome


# ---------------------------------------------------------------------- DMU replay


def replay_program(program, dmu: DependenceManagementUnit, window: int = DMU_WINDOW,
                   lap: Optional[Callable[[], None]] = None) -> int:
    """Issue ``program``'s tasks to ``dmu`` in program order; returns tasks.

    Each task is ``create_task``, one ``add_dependence`` per dependence and
    ``complete_creation``.  At most ``window`` tasks are in flight.  When an
    instruction blocks on a full structure, or the window is full, the
    oldest ready task is finished (``finish_task``) and the tasks it
    readied are collected with ``get_ready_task``; the blocked instruction
    is then retried.  A region ends with every task finished (taskwait).
    ``lap``, if given, is called after every :data:`LAP_TASKS` tasks.
    """
    create = dmu.create_task
    add = dmu.add_dependence
    complete = dmu.complete_creation
    get_ready = dmu.get_ready_task
    finish = dmu.finish_task
    ready: deque = deque()
    in_flight = 0
    descriptor = _DESCRIPTOR_BASE

    def collect() -> None:
        while True:
            result = get_ready()
            if result.blocked:
                raise RuntimeError("get_ready_task blocked")
            if result.descriptor_address is None:
                return
            ready.append(result.descriptor_address)

    def retire_oldest() -> None:
        nonlocal in_flight
        if not ready:
            collect()
            if not ready:
                raise RuntimeError(f"no ready task among {in_flight} in flight")
        if finish(ready.popleft()).blocked:
            raise RuntimeError("finish_task blocked")
        in_flight -= 1
        collect()

    tasks = 0
    next_lap = LAP_TASKS if lap is not None else -1
    for region in program.regions:
        for definition in region.tasks:
            if tasks == next_lap:
                lap()
                next_lap += LAP_TASKS
            while in_flight >= window:
                retire_oldest()
            descriptor += _DESCRIPTOR_STRIDE
            while create(descriptor).blocked:
                retire_oldest()
            in_flight += 1
            tasks += 1
            for dependence in definition.dependences:
                while add(descriptor, dependence.address, dependence.size,
                          dependence.direction).blocked:
                    retire_oldest()
            while complete(descriptor).blocked:
                retire_oldest()
        while in_flight:
            retire_oldest()
    return tasks


def build_program(name: str, seed: int, scale: float = DMU_SCALE):
    """Paper program ``name`` at ``scale``, at the TDM-optimal granularity."""
    return create_workload(name, scale=scale, runtime="tdm", seed=seed).build_program()


def build_programs(seed: int, scale: float = DMU_SCALE) -> List[Tuple[str, object]]:
    """The nine paper programs at ``scale``, in registry order."""
    return [(name, build_program(name, seed, scale)) for name in PAPER_BENCHMARKS]


def replay_counts(dmu: DependenceManagementUnit) -> List[int]:
    """The pinned exact counters of one replay: instructions, SRAM, blocked."""
    stats = dmu.stats
    return [stats.total_instructions, stats.total_accesses, stats.total_blocked]


class DmuReplay(BenchWorkload):
    name = "dmu_replay"
    setup_repeats = 3
    setup_spans = ("workloads.build",)

    def __init__(self, seed: int, workdir: pathlib.Path, pins: Dict[str, object],
                 scale: float = DMU_SCALE) -> None:
        super().__init__(seed, workdir, pins)
        self.scale = scale

    def setup(self, clock: ReferenceClock) -> float:
        self.programs = []
        seconds = 0.0
        for name in PAPER_BENCHMARKS:
            program, _, ref = clock.time(build_program, name, self.seed, self.scale)
            self.programs.append((name, program))
            seconds += ref
        return seconds

    def run_pass(self, tracer: Optional[Tracer], clock: ReferenceClock) -> PassResult:
        dmu_config = default_paper_config().dmu
        expected = self.pins.get("dmu", {})
        seconds: List[float] = []
        failures: List[str] = []
        counts: Dict[str, float] = dict.fromkeys(
            ("core.instructions", "core.sram_accesses", "core.blocked",
             "core.ready_pops", "core.null_pops"), 0)
        tasks = 0
        wall = ref_wall = 0.0
        # Inside a simulation the DMU runs with the cyclic collector off
        # (Machine.run); replay it the same way, so collector passes over the
        # programs' large object graphs stay out of the timing.
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            for name, program in self.programs:
                clock.start()
                dmu = DependenceManagementUnit(dmu_config)
                try:
                    tasks += replay_program(program, dmu, lap=clock.lap)
                except Exception as error:  # noqa: BLE001 - counted as a failed replay
                    failures.append(f"{name}: {type(error).__name__}: {error}")
                    continue
                finally:
                    raw, ref = clock.stop()
                    wall += raw
                    ref_wall += ref
                    seconds.append(ref)
                add_dmu_counts(counts, dmu.stats)
                if replay_counts(dmu) != expected.get(name):
                    failures.append(f"{name}: counts {replay_counts(dmu)} differ "
                                    f"from pinned {expected.get(name)}")
        finally:
            if gc_was_enabled:
                gc.enable()
        return PassResult(
            wall_s=wall,
            ref_s=ref_wall,
            tasks=tasks,
            dmu_instructions=int(counts["core.instructions"]),
            keys_served=len(self.programs),
            op_seconds=seconds,
            attempted=len(self.programs),
            failures=failures,
            layer=counts,
        )


WORKLOADS = {cls.name: cls for cls in (ColdCampaign, DmuReplay, WarmRender)}
