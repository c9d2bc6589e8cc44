"""The simulated chip: engine, threads, runtime system, DMU, power model.

:class:`Machine` wires every substrate together for one simulation of one
:class:`~repro.runtime.task.TaskProgram` under one
:class:`~repro.config.SimulationConfig`, runs the discrete-event engine to
completion and packages the outcome into a :class:`SimulationResult`.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Mapping, Optional, Sequence

from ..config import SimulationConfig
from ..core.stats import DMUStats
from ..core.storage import DMUStorageModel
from ..errors import SimulationError
from ..power.energy import ChipEnergyModel, EnergyReport
from ..units import cycles_to_seconds, cycles_to_us, us_to_cycles

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids a circular import:
    # the runtime package imports the simulation kernel at module load time)
    from ..core.dmu import DependenceManagementUnit
    from ..runtime.task import TaskInstance, TaskProgram
from .engine import Engine
from .locality import LocalityModel
from .noc import NocModel
from .thread import RegionState, build_threads
from .timeline import Phase, Timeline, TimelineRecorder


#: While set, called with the DMU (None for a runtime without one) of every
#: :class:`Machine` about to run: how trajectory reuse records the DMU
#: instructions of a run (:func:`repro.experiments.reuse.recording`).
dmu_observer: Optional[Callable[[Optional["DependenceManagementUnit"]], None]] = None


@dataclass
class SimulationResult:
    """Everything measured in one simulation run."""

    program_name: str
    runtime_name: str
    scheduler_name: str
    config: SimulationConfig
    total_cycles: int
    timeline: Timeline
    energy: EnergyReport
    runtime_stats: Dict[str, object]
    dmu_stats: Optional[DMUStats] = None
    dat_average_occupied_sets: float = 0.0
    locality_hit_fraction: float = 0.0
    task_instances: List["TaskInstance"] = field(default_factory=list)
    #: Set on results restored from the on-disk campaign cache, which does not
    #: serialize per-task instances; live runs leave it None and count
    #: ``task_instances`` directly.
    finished_task_count: Optional[int] = None

    # ------------------------------------------------------------------ time
    @property
    def seconds(self) -> float:
        return cycles_to_seconds(self.total_cycles, self.config.chip.clock_ghz)

    @property
    def microseconds(self) -> float:
        return cycles_to_us(self.total_cycles, self.config.chip.clock_ghz)

    def speedup_over(self, baseline: "SimulationResult") -> float:
        """Speedup of this run relative to ``baseline`` (>1 means faster)."""
        if self.total_cycles == 0:
            raise SimulationError("cannot compute speedup of a zero-cycle run")
        return baseline.total_cycles / self.total_cycles

    # ------------------------------------------------------------------ energy
    @property
    def edp(self) -> float:
        return self.energy.edp

    def normalized_edp(self, baseline: "SimulationResult") -> float:
        """EDP relative to ``baseline`` (<1 means more efficient)."""
        return self.edp / baseline.edp

    # ------------------------------------------------------------------ phases
    def master_breakdown(self) -> Dict[Phase, float]:
        return self.timeline.master_breakdown()

    def worker_breakdown(self) -> Dict[Phase, float]:
        return self.timeline.worker_breakdown()

    @property
    def master_creation_fraction(self) -> float:
        """Fraction of the wall-clock time the master spends creating tasks.

        This is the metric of Figure 10 of the paper (time spent in task
        creation and dependence management by the master thread).
        """
        if self.total_cycles == 0:
            return 0.0
        master = self.timeline.threads[0]
        return master.totals[Phase.DEPS] / self.total_cycles

    @property
    def idle_fraction(self) -> float:
        """Fraction of total thread time spent idle (paper Section V-D)."""
        totals = self.timeline.totals()
        grand = sum(totals.values())
        return totals[Phase.IDLE] / grand if grand else 0.0

    @property
    def num_tasks_executed(self) -> int:
        if self.finished_task_count is not None:
            return self.finished_task_count
        return len([t for t in self.task_instances if t.is_finished])

    # ------------------------------------------------------------------ serialization
    def to_dict(self) -> Dict[str, object]:
        """JSON-safe form for the on-disk campaign cache.

        Everything the experiment harnesses consume round-trips exactly
        (cycle counts and energies are plain ints/floats, so JSON preserves
        them bit-for-bit).  Two deliberately lossy spots: timeline intervals
        and per-task instances are dropped (see :meth:`Timeline.to_dict`);
        only the finished-task count survives.
        """
        return {
            "program_name": self.program_name,
            "runtime_name": self.runtime_name,
            "scheduler_name": self.scheduler_name,
            "config": self.config.to_dict(),
            "total_cycles": self.total_cycles,
            "timeline": self.timeline.to_dict(),
            "energy": self.energy.to_dict(),
            "runtime_stats": self.runtime_stats,
            "dmu_stats": self.dmu_stats.as_dict() if self.dmu_stats is not None else None,
            "dat_average_occupied_sets": self.dat_average_occupied_sets,
            "locality_hit_fraction": self.locality_hit_fraction,
            "finished_task_count": self.num_tasks_executed,
        }

    @classmethod
    def from_dict(
        cls,
        data: Mapping[str, object],
        config: Optional[SimulationConfig] = None,
        config_dict: Optional[Mapping[str, object]] = None,
    ) -> "SimulationResult":
        """Rebuild a result from :meth:`to_dict` output (cache deserialization).

        ``config`` is a config the caller already holds and ``config_dict``
        its :meth:`~repro.config.SimulationConfig.to_dict` form: when the
        stored ``config`` equals ``config_dict`` the result shares
        ``config`` instead of parsing its own.  Any other stored config is
        parsed by :meth:`~repro.config.SimulationConfig.from_dict`.  Every
        field :meth:`to_dict` writes is required: a missing one raises
        ``KeyError``.
        """
        stored_config = data["config"]
        if config is None or stored_config != config_dict:
            config = SimulationConfig.from_dict(stored_config)
        dmu_stats = data["dmu_stats"]
        return cls(
            program_name=data["program_name"],
            runtime_name=data["runtime_name"],
            scheduler_name=data["scheduler_name"],
            config=config,
            total_cycles=int(data["total_cycles"]),
            timeline=Timeline.from_dict(data["timeline"]),
            energy=EnergyReport.from_dict(data["energy"]),
            runtime_stats=dict(data["runtime_stats"]),
            dmu_stats=DMUStats.from_dict(dmu_stats) if dmu_stats is not None else None,
            dat_average_occupied_sets=float(data["dat_average_occupied_sets"]),
            locality_hit_fraction=float(data["locality_hit_fraction"]),
            finished_task_count=data["finished_task_count"],
        )


class Machine:
    """One simulated 32-core chip executing one task program."""

    def __init__(self, program: "TaskProgram", config: SimulationConfig) -> None:
        from ..runtime.factory import create_runtime

        config.validate()
        self.program = program
        self.config = config
        self.clock_ghz = config.chip.clock_ghz
        self.engine = Engine()
        self.recorder = TimelineRecorder(
            config.chip.num_cores, record_intervals=config.record_timeline
        )
        self.noc = NocModel(num_cores=config.chip.num_cores)
        self.locality = LocalityModel(config.chip.num_cores, config.locality)
        self.runtime = create_runtime(config, self.engine, self.noc)
        self.region_states = [
            RegionState(self.engine, region, index)
            for index, region in enumerate(program.regions)
        ]
        self.threads = build_threads(self)

    # ------------------------------------------------------------------ helpers
    def execution_cycles(self, core_id: int, task: "TaskInstance") -> int:
        """Execution latency of ``task`` on ``core_id`` (locality adjusted)."""
        base = us_to_cycles(task.work_us, self.clock_ghz)
        return self.locality.execution_cycles(
            core_id,
            base,
            task.definition.all_addresses,
            task.definition.memory_sensitivity,
        )

    # ------------------------------------------------------------------ run
    def run(self) -> SimulationResult:
        """Run the simulation to completion and collect the results."""
        if dmu_observer is not None:
            dmu_observer(self.runtime.dmu)
        for thread in self.threads:
            thread.process = self.engine.process(
                thread.run(self), name=f"thread{thread.thread_id}"
            )
        # The event loop allocates heap entries and ready-pool records at a
        # rate that keeps the cyclic collector's generation-0 threshold
        # permanently saturated; none of those objects form cycles, so the
        # scans are pure overhead.  Suspend collection for the duration of
        # the run (restoring the caller's setting afterwards).
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            final_cycle = self.engine.run_all(self.config.max_cycles)
        finally:
            if gc_was_enabled:
                gc.enable()

        self.runtime.assert_drained()
        result = simulation_result(
            self.config,
            self.runtime.dmu,
            program_name=self.program.name,
            runtime_name=self.runtime.name,
            scheduler_name=(
                self.config.scheduler if self.runtime.honors_scheduler else self.runtime.name
            ),
            total_cycles=final_cycle,
            timeline=self.recorder.finalize(final_cycle),
            runtime_stats=self.runtime.stats(),
            locality_hit_fraction=self.locality.average_hit_fraction(),
            task_instances=self.runtime.all_instances,
        )

        if self.config.validate_execution:
            from ..analysis.validation import validate_execution

            validate_execution(self.program, result.task_instances)
        return result


def simulation_result(
    config: SimulationConfig,
    dmu: Optional["DependenceManagementUnit"],
    *,
    program_name: str,
    runtime_name: str,
    scheduler_name: str,
    total_cycles: int,
    timeline: Timeline,
    runtime_stats: Dict[str, object],
    locality_hit_fraction: float,
    task_instances: Sequence["TaskInstance"] = (),
    finished_task_count: Optional[int] = None,
) -> SimulationResult:
    """Package one finished run: everything ``config.dmu`` and ``dmu`` decide.

    The DMU statistics (also added to ``runtime_stats`` as ``"dmu"``), the
    DAT occupancy average and the energy report come from ``dmu`` and
    ``config``; the rest is the run's trajectory, passed in.  :meth:`Machine.run` calls it on the
    DMU it simulated with, and trajectory reuse
    (:mod:`repro.experiments.reuse`) on a DMU that replayed another run's
    instructions, so both paths produce a result the same way.
    """
    dmu_stats = dmu.stats if dmu is not None else None
    if dmu_stats is not None:
        runtime_stats = {**runtime_stats, "dmu": dmu_stats.as_dict()}
    storage = DMUStorageModel(config.dmu) if dmu is not None else None
    return SimulationResult(
        program_name=program_name,
        runtime_name=runtime_name,
        scheduler_name=scheduler_name,
        config=config,
        total_cycles=total_cycles,
        timeline=timeline,
        energy=ChipEnergyModel(config.chip, storage).report(timeline, dmu_stats),
        runtime_stats=runtime_stats,
        dmu_stats=dmu_stats,
        dat_average_occupied_sets=dmu.dat.average_occupied_sets() if dmu is not None else 0.0,
        locality_hit_fraction=locality_hit_fraction,
        task_instances=list(task_instances),
        finished_task_count=finished_task_count,
    )


def run_simulation(program: "TaskProgram", config: SimulationConfig) -> SimulationResult:
    """Convenience wrapper: build a :class:`Machine` and run it."""
    return Machine(program, config).run()
