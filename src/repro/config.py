"""Configuration objects for the chip, the DMU, the cost model and simulations.

The defaults reproduce the configuration of Table I of the paper: a 32-core
2 GHz chip, a DMU with 2048-entry 8-way TAT/DAT, 2048-entry Task/Dependence
Tables, 1024-entry list arrays with 8 elements per entry and 1-cycle SRAM
accesses.

Every configuration class is an immutable dataclass with a ``validate``
method; :func:`SimulationConfig.validated` is the single entry point used by
the simulator to reject inconsistent configurations early.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field, replace
from typing import Literal, Mapping

from .errors import ConfigurationError
from .units import DEFAULT_CLOCK_GHZ, is_power_of_two

IndexSelection = Literal["dynamic", "static"]
RuntimeKind = Literal["software", "tdm", "carbon", "task_superscalar"]

@dataclass(frozen=True)
class DMUConfig:
    """Sizing and latency parameters of the Dependence Management Unit.

    The alias tables (TAT/DAT) determine the number of in-flight tasks and
    dependences; the Task Table and Dependence Table are sized identically to
    their alias table (one entry per in-flight object), exactly as in the
    paper ("The size of the TAT and the DAT determine the size of the Task
    and Dependence Table").
    """

    tat_entries: int = 2048
    dat_entries: int = 2048
    tat_associativity: int = 8
    dat_associativity: int = 8
    successor_list_entries: int = 1024
    dependence_list_entries: int = 1024
    reader_list_entries: int = 1024
    elements_per_list_entry: int = 8
    ready_queue_entries: int = 2048
    access_cycles: int = 1
    noc_roundtrip_cycles: int = 30
    instruction_issue_cycles: int = 8
    index_selection: IndexSelection = "dynamic"
    static_index_start_bit: int = 0
    unlimited: bool = False

    @property
    def task_table_entries(self) -> int:
        """The Task Table has one entry per TAT entry."""
        return self.tat_entries

    @property
    def dependence_table_entries(self) -> int:
        """The Dependence Table has one entry per DAT entry."""
        return self.dat_entries

    @property
    def task_id_bits(self) -> int:
        """Width of internal task IDs (log2 of the Task Table size)."""
        return max(1, (self.tat_entries - 1).bit_length())

    @property
    def dependence_id_bits(self) -> int:
        """Width of internal dependence IDs (log2 of the Dependence Table size)."""
        return max(1, (self.dat_entries - 1).bit_length())

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on inconsistent sizing."""
        for name in (
            "tat_entries",
            "dat_entries",
            "successor_list_entries",
            "dependence_list_entries",
            "reader_list_entries",
            "ready_queue_entries",
        ):
            value = getattr(self, name)
            if not is_power_of_two(value):
                raise ConfigurationError(f"DMUConfig.{name} must be a power of two, got {value}")
        for name in ("tat_associativity", "dat_associativity"):
            value = getattr(self, name)
            if not is_power_of_two(value):
                raise ConfigurationError(f"DMUConfig.{name} must be a power of two, got {value}")
        if self.tat_associativity > self.tat_entries:
            raise ConfigurationError("TAT associativity cannot exceed number of entries")
        if self.dat_associativity > self.dat_entries:
            raise ConfigurationError("DAT associativity cannot exceed number of entries")
        if self.ready_queue_entries < self.tat_entries:
            # The Ready Queue model treats overflow as a protocol error rather
            # than a blocking condition, which is only sound when every
            # in-flight task (at most one per TAT entry) has a slot.
            raise ConfigurationError(
                "ready_queue_entries must be >= tat_entries: the Ready Queue "
                f"holds one slot per in-flight task ({self.ready_queue_entries} "
                f"< {self.tat_entries} would overflow mid-simulation instead of blocking)"
            )
        if self.elements_per_list_entry < 1:
            raise ConfigurationError("elements_per_list_entry must be >= 1")
        if self.access_cycles < 0:
            raise ConfigurationError("access_cycles must be >= 0")
        if self.index_selection not in ("dynamic", "static"):
            raise ConfigurationError(f"unknown index_selection: {self.index_selection}")
        if self.static_index_start_bit < 0 or self.static_index_start_bit > 40:
            raise ConfigurationError("static_index_start_bit out of range [0, 40]")

    def with_sizes(self, **kwargs: int) -> "DMUConfig":
        """Return a copy with some sizing fields replaced (used by sweeps)."""
        return replace(self, **kwargs)

    @classmethod
    def ideal(cls) -> "DMUConfig":
        """An idealized DMU with effectively unlimited entries (same latency).

        Used as the normalization baseline of the design-space exploration
        (Figures 7, 8 and 9 normalize to "an ideal DMU with unlimited entries
        and equal latency").
        """
        return cls(
            tat_entries=1 << 20,
            dat_entries=1 << 20,
            successor_list_entries=1 << 20,
            dependence_list_entries=1 << 20,
            reader_list_entries=1 << 20,
            ready_queue_entries=1 << 20,
            unlimited=True,
        )


@dataclass(frozen=True)
class CoreConfig:
    """Per-core microarchitectural parameters that feed the power model.

    The detailed out-of-order structures of Table I (issue queue, ROB, ...)
    are not simulated individually; they only determine the per-core power
    envelope used by :mod:`repro.power`.
    """

    clock_ghz: float = DEFAULT_CLOCK_GHZ
    issue_width: int = 4
    rob_entries: int = 128
    l1i_kb: int = 32
    l1d_kb: int = 32
    active_power_watts: float = 1.45
    idle_power_watts: float = 0.22
    runtime_power_watts: float = 1.10

    def validate(self) -> None:
        if self.clock_ghz <= 0:
            raise ConfigurationError("clock_ghz must be positive")
        if self.active_power_watts < self.idle_power_watts:
            raise ConfigurationError("active power must be >= idle power")
        if self.runtime_power_watts < 0:
            raise ConfigurationError("runtime_power_watts must be >= 0")


@dataclass(frozen=True)
class ChipConfig:
    """Chip-level parameters: number of cores, shared cache, and the core model."""

    num_cores: int = 32
    core: CoreConfig = field(default_factory=CoreConfig)
    l2_mb: int = 4
    uncore_power_watts: float = 3.2

    @property
    def clock_ghz(self) -> float:
        return self.core.clock_ghz

    def validate(self) -> None:
        if self.num_cores < 1:
            raise ConfigurationError("num_cores must be >= 1")
        if self.l2_mb <= 0:
            raise ConfigurationError("l2_mb must be positive")
        self.core.validate()


@dataclass(frozen=True)
class CostModelConfig:
    """Calibrated costs (in cycles) of the runtime-system phases.

    The software constants model Nanos++-style region dependence tracking:
    every new dependence performs a hash lookup, compares against the
    dependence's current readers/writer, and links the task into the TDG
    under a global runtime lock.  The TDM constants model only the work that
    remains in software when the DMU performs the tracking (allocating the
    task descriptor and issuing the ISA instructions).

    The defaults are calibrated so that the pure-software baseline reproduces
    the qualitative breakdown of Figure 2 of the paper (Cholesky/QR/
    Streamcluster bound by task creation on the master thread).
    """

    # -- software dependence tracking (per task creation) ------------------
    sw_task_alloc_cycles: int = 3_000
    sw_dep_base_cycles: int = 2_400
    sw_dep_per_reader_cycles: int = 650
    sw_dep_per_successor_cycles: int = 250
    # -- software task finalization ----------------------------------------
    sw_finish_base_cycles: int = 1_600
    sw_finish_per_successor_cycles: int = 450
    # -- software scheduling (ready-pool operations) ------------------------
    sw_schedule_pop_cycles: int = 1_100
    sw_schedule_push_cycles: int = 500
    sw_idle_poll_cycles: int = 2_000
    # -- runtime lock (serializes software TDG and pool updates) ------------
    lock_acquire_cycles: int = 120
    # -- TDM-side software work ---------------------------------------------
    tdm_task_alloc_cycles: int = 1_200
    tdm_finish_base_cycles: int = 500
    tdm_schedule_pop_cycles: int = 900
    tdm_schedule_push_cycles: int = 350
    tdm_drain_per_task_cycles: int = 150
    # -- hardware-scheduler baselines (Carbon / Task Superscalar) -----------
    hw_queue_access_cycles: int = 40
    hw_idle_poll_cycles: int = 600

    def validate(self) -> None:
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if value < 0:
                raise ConfigurationError(f"CostModelConfig.{f.name} must be >= 0")


@dataclass(frozen=True)
class LocalityConfig:
    """Parameters of the per-core cache/data-locality model.

    A task executed on a core leaves its dependence blocks in that core's
    recently-used set; a later task scheduled on the same core whose inputs
    hit that set executes faster.  ``max_speedup_fraction`` bounds the
    execution-time reduction when every input hits, and is scaled by the
    workload's memory sensitivity.
    """

    tracked_blocks_per_core: int = 64
    max_speedup_fraction: float = 0.18
    enabled: bool = True

    def validate(self) -> None:
        if self.tracked_blocks_per_core < 1:
            raise ConfigurationError("tracked_blocks_per_core must be >= 1")
        if not (0.0 <= self.max_speedup_fraction < 1.0):
            raise ConfigurationError("max_speedup_fraction must be in [0, 1)")


@dataclass(frozen=True)
class SimulationConfig:
    """Everything needed to run one simulation of one workload.

    ``runtime`` selects which runtime-system model orchestrates the
    execution; ``scheduler`` selects the software scheduling policy (ignored
    by the hardware-scheduler baselines, which use their fixed FIFO policy).
    """

    chip: ChipConfig = field(default_factory=ChipConfig)
    dmu: DMUConfig = field(default_factory=DMUConfig)
    costs: CostModelConfig = field(default_factory=CostModelConfig)
    locality: LocalityConfig = field(default_factory=LocalityConfig)
    runtime: RuntimeKind = "tdm"
    scheduler: str = "fifo"
    seed: int = 0
    max_cycles: int = 2_000_000_000_000
    #: Opt-in interval tracing: when True every thread keeps its full
    #: (phase, start, end) interval list for trace visualization.  The
    #: default records per-phase totals only — intervals are never
    #: serialized and nothing downstream of a finished experiment reads
    #: them, while materializing them dominated timeline overhead in the
    #: simulation hot loop.
    record_timeline: bool = False
    validate_execution: bool = True

    def validate(self) -> None:
        self.chip.validate()
        self.dmu.validate()
        self.costs.validate()
        self.locality.validate()
        if self.runtime not in ("software", "tdm", "carbon", "task_superscalar"):
            raise ConfigurationError(f"unknown runtime kind: {self.runtime}")
        if self.max_cycles <= 0:
            raise ConfigurationError("max_cycles must be positive")
        if self.seed < 0:
            raise ConfigurationError("seed must be >= 0")

    def validated(self) -> "SimulationConfig":
        """Validate and return ``self`` (fluent helper)."""
        self.validate()
        return self

    def with_runtime(self, runtime: RuntimeKind, scheduler: str | None = None) -> "SimulationConfig":
        """Return a copy targeting a different runtime (and optionally scheduler)."""
        return replace(self, runtime=runtime, scheduler=scheduler or self.scheduler)

    def with_scheduler(self, scheduler: str) -> "SimulationConfig":
        """Return a copy using a different software scheduler."""
        return replace(self, scheduler=scheduler)

    def with_dmu(self, dmu: DMUConfig) -> "SimulationConfig":
        """Return a copy using a different DMU configuration."""
        return replace(self, dmu=dmu)

    # ------------------------------------------------------------------ serialization
    def to_dict(self) -> dict:
        """Nested plain-dict form (JSON-safe) covering *every* field.

        This is the payload hashed by :func:`repro.experiments.cache.canonical_run_key`
        and stored alongside cached simulation results, so it must stay
        lossless: any field that can change simulation output has to appear.
        Walking ``dataclasses.fields`` guarantees that automatically; it
        builds what ``dataclasses.asdict`` would, without its deep copy of
        every leaf (all leaves are immutable scalars).
        """
        return _fields_dict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "SimulationConfig":
        """Rebuild a :class:`SimulationConfig` from :meth:`to_dict` output.

        An unknown field at any level raises ``TypeError``.
        """
        payload = dict(data)
        chip = dict(payload.pop("chip"))
        core = CoreConfig(**dict(chip.pop("core")))
        return cls(
            chip=ChipConfig(core=core, **chip),
            dmu=DMUConfig(**dict(payload.pop("dmu"))),
            costs=CostModelConfig(**dict(payload.pop("costs"))),
            locality=LocalityConfig(**dict(payload.pop("locality"))),
            **payload,
        )


def _fields_dict(config: object) -> dict:
    """Every field of a config dataclass, nested configs as nested dicts."""
    return {
        f.name: _fields_dict(value) if dataclasses.is_dataclass(value) else value
        for f in dataclasses.fields(config)
        for value in (getattr(config, f.name),)
    }


def default_paper_config(runtime: RuntimeKind = "tdm", scheduler: str = "fifo") -> SimulationConfig:
    """The Table I configuration of the paper: 32 cores and the default DMU."""
    return SimulationConfig(runtime=runtime, scheduler=scheduler).validated()
