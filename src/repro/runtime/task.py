"""Task, dependence and program abstractions.

A *workload* (see :mod:`repro.workloads`) produces a :class:`TaskProgram`: an
ordered sequence of :class:`TaskRegion` objects (parallel regions separated
by barriers), each containing :class:`TaskDefinition` objects in program
creation order.  Each definition lists its data dependences as
:class:`DependenceSpec` objects, mirroring the ``depend(in/out/inout: ...)``
clauses of OpenMP 4.0.

At simulation time the runtime system materializes every definition into a
:class:`TaskInstance`, which carries the dynamic state (descriptor address,
predecessor count, successors, timestamps, executing core).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..errors import InvalidProgramError

#: Base virtual address used to fabricate task-descriptor addresses.  The
#: value is arbitrary; it only needs to look like a 64-bit heap pointer to the
#: TAT (the paper uses addresses such as 0x8AB0...4600 in Figure 4).
TASK_DESCRIPTOR_BASE = 0x8AB0_0000_0000
#: Size of a task descriptor in bytes; descriptor addresses are spaced by it.
TASK_DESCRIPTOR_STRIDE = 0x140


class AccessMode(enum.Enum):
    """Direction of a data dependence, as annotated by the programmer."""

    IN = "in"
    OUT = "out"
    INOUT = "inout"

    @property
    def is_output(self) -> bool:
        """True for OUT and INOUT accesses (they make the task the last writer)."""
        return self in _OUTPUT_MODES

    @property
    def is_input(self) -> bool:
        """True for IN and INOUT accesses (they read the previous writer's data)."""
        return self in _INPUT_MODES


# Enum members read through the class go through the enum metaclass's
# ``__getattr__`` (a Python-level call); hot paths use these constants.
_OUTPUT_MODES = (AccessMode.OUT, AccessMode.INOUT)
_INPUT_MODES = (AccessMode.IN, AccessMode.INOUT)


class DependenceSpec:
    """One ``depend(...)`` clause: a memory region and an access direction.

    ``direction`` and ``is_output`` are precomputed at construction: they are
    consulted once per dependence per task registration (an inner loop of
    every runtime model) and the enum properties were measurable there.

    A plain ``__slots__`` class rather than a frozen dataclass (the
    generated dataclass machinery was measurable in workload builds), but
    still **enforced immutable**: built programs are shared across
    simulations by the campaign's program memo (``build_program``), so a mutation here
    would leak state between runs and break the byte-identity contract.
    Equality and hashing mirror the old frozen dataclass: by
    ``(address, size, mode)``.
    """

    __slots__ = ("address", "size", "mode", "direction", "is_output")

    def __init__(self, address: int, size: int, mode: AccessMode) -> None:
        if address < 0:
            raise InvalidProgramError(f"negative dependence address: {address:#x}")
        if size <= 0:
            raise InvalidProgramError(f"dependence size must be positive, got {size}")
        init = object.__setattr__
        init(self, "address", address)
        init(self, "size", size)
        init(self, "mode", mode)
        # The ``add_dependence`` ISA instruction only distinguishes inputs
        # from outputs; an ``inout`` access behaves as an output (it both
        # waits for the previous writer/readers and becomes the new last
        # writer).
        output = mode.is_output
        init(self, "is_output", output)
        init(self, "direction", "out" if output else "in")

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(
            f"DependenceSpec is immutable (programs are shared across "
            f"simulations); cannot set {name!r}"
        )

    def __eq__(self, other: object) -> bool:
        if isinstance(other, DependenceSpec):
            return (
                self.address == other.address
                and self.size == other.size
                and self.mode is other.mode
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.address, self.size, self.mode))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DependenceSpec(address={self.address:#x}, size={self.size}, mode={self.mode})"


class TaskDefinition:
    """Static description of one task, as produced by a workload generator.

    A plain ``__slots__`` class, **enforced immutable** (see
    :class:`DependenceSpec` for why — built programs are shared across
    simulations).  ``all_addresses`` and ``input_addresses`` are
    precomputed: the locality model reads ``all_addresses`` on every task
    execution and the old per-call tuple rebuild was measurable.
    """

    __slots__ = ("uid", "name", "kind", "work_us", "dependences",
                 "memory_sensitivity", "creation_work_us",
                 "all_addresses", "input_addresses")

    def __init__(
        self,
        uid: int,
        name: str,
        kind: str,
        work_us: float,
        dependences: Tuple[DependenceSpec, ...] = (),
        memory_sensitivity: float = 0.0,
        creation_work_us: float = 0.0,
    ) -> None:
        if work_us < 0:
            raise InvalidProgramError(f"task {name}: negative work_us")
        if not (0.0 <= memory_sensitivity <= 1.0):
            raise InvalidProgramError(f"task {name}: memory_sensitivity out of [0, 1]")
        if creation_work_us < 0:
            raise InvalidProgramError(f"task {name}: negative creation_work_us")
        init = object.__setattr__
        init(self, "uid", uid)
        init(self, "name", name)
        init(self, "kind", kind)
        init(self, "work_us", work_us)
        dependences = tuple(dependences)
        init(self, "dependences", dependences)
        init(self, "memory_sensitivity", memory_sensitivity)
        init(self, "creation_work_us", creation_work_us)
        #: Every dependence address of the task (used by the locality model).
        init(self, "all_addresses", tuple([d.address for d in dependences]))
        #: Addresses this task reads (IN and INOUT dependences).
        init(
            self,
            "input_addresses",
            tuple([d.address for d in dependences if d.mode.is_input]),
        )

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(
            f"TaskDefinition is immutable (programs are shared across "
            f"simulations); cannot set {name!r}"
        )

    @property
    def num_dependences(self) -> int:
        return len(self.dependences)

    def _key(self) -> tuple:
        return (
            self.uid, self.name, self.kind, self.work_us,
            self.dependences, self.memory_sensitivity, self.creation_work_us,
        )

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TaskDefinition):
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TaskDefinition(uid={self.uid}, name={self.name!r}, kind={self.kind!r}, "
            f"work_us={self.work_us}, {len(self.dependences)} dependences)"
        )


class TaskState(enum.Enum):
    """Lifecycle of a task instance inside the runtime system."""

    CREATED = "created"
    READY = "ready"
    RUNNING = "running"
    FINISHED = "finished"


# Module-level members for the per-task state transitions (see _OUTPUT_MODES).
_CREATED = TaskState.CREATED
_READY = TaskState.READY
_RUNNING = TaskState.RUNNING
_FINISHED = TaskState.FINISHED


class TaskInstance:
    """Dynamic runtime state of one task."""

    __slots__ = (
        "definition",
        "descriptor_address",
        "state",
        "finished",
        "num_predecessors",
        "successors",
        "num_successors",
        "created_cycle",
        "ready_cycle",
        "start_cycle",
        "finish_cycle",
        "core_id",
        "producer_core",
        "region_index",
    )

    def __init__(self, definition: TaskDefinition, descriptor_address: int, region_index: int = 0) -> None:
        self.definition = definition
        self.descriptor_address = descriptor_address
        self.state = _CREATED
        #: Mirrors ``state is TaskState.FINISHED`` as a plain attribute; the
        #: dependence tracker tests it once per matched reader/writer.
        self.finished = False
        self.num_predecessors = 0
        self.successors: List["TaskInstance"] = []
        self.num_successors = 0
        self.created_cycle: int = 0
        self.ready_cycle: Optional[int] = None
        self.start_cycle: Optional[int] = None
        self.finish_cycle: Optional[int] = None
        self.core_id: Optional[int] = None
        self.producer_core: Optional[int] = None
        self.region_index = region_index

    @property
    def uid(self) -> int:
        return self.definition.uid

    @property
    def name(self) -> str:
        return self.definition.name

    @property
    def kind(self) -> str:
        return self.definition.kind

    @property
    def work_us(self) -> float:
        return self.definition.work_us

    @property
    def is_ready(self) -> bool:
        return self.state == TaskState.READY

    @property
    def is_finished(self) -> bool:
        return self.finished

    def add_successor(self, successor: "TaskInstance") -> None:
        """Link ``successor`` after this task (mirrors the DMU successor list)."""
        self.successors.append(successor)
        self.num_successors += 1
        successor.num_predecessors += 1

    def mark_ready(self, cycle: int) -> None:
        self.state = _READY
        self.ready_cycle = cycle

    def mark_running(self, cycle: int, core_id: int) -> None:
        self.state = _RUNNING
        self.start_cycle = cycle
        self.core_id = core_id

    def mark_finished(self, cycle: int) -> None:
        self.state = _FINISHED
        self.finished = True
        self.finish_cycle = cycle

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TaskInstance({self.name!r}, state={self.state.value}, "
            f"preds={self.num_predecessors}, succs={self.num_successors})"
        )


@dataclass(frozen=True)
class TaskRegion:
    """A parallel region: tasks created in program order, closed by a barrier."""

    tasks: Tuple[TaskDefinition, ...]
    name: str = "region"
    sequential_us_before: float = 0.0

    def __post_init__(self) -> None:
        if self.sequential_us_before < 0:
            raise InvalidProgramError("sequential_us_before must be >= 0")

    @property
    def num_tasks(self) -> int:
        return len(self.tasks)

    @property
    def total_work_us(self) -> float:
        return sum(task.work_us for task in self.tasks)


@dataclass(frozen=True)
class TaskProgram:
    """A complete task-parallel program: regions executed back to back."""

    name: str
    regions: Tuple[TaskRegion, ...]
    metadata: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.regions:
            raise InvalidProgramError(f"program {self.name!r} has no regions")
        seen: set[int] = set()
        for region in self.regions:
            for task in region.tasks:
                if task.uid in seen:
                    raise InvalidProgramError(
                        f"program {self.name!r}: duplicate task uid {task.uid}"
                    )
                seen.add(task.uid)

    @property
    def num_tasks(self) -> int:
        return sum(region.num_tasks for region in self.regions)

    @property
    def total_work_us(self) -> float:
        return sum(region.total_work_us for region in self.regions)

    @property
    def average_task_us(self) -> float:
        count = self.num_tasks
        return self.total_work_us / count if count else 0.0

    def all_tasks(self) -> Iterable[TaskDefinition]:
        """All task definitions in creation order, across regions."""
        for region in self.regions:
            yield from region.tasks

    def max_dependences_per_task(self) -> int:
        return max((task.num_dependences for task in self.all_tasks()), default=0)


class TaskInstanceFactory:
    """Materializes :class:`TaskInstance` objects with unique descriptor addresses."""

    def __init__(self) -> None:
        self._next_index = 0

    def create(self, definition: TaskDefinition, region_index: int = 0) -> TaskInstance:
        index = self._next_index
        self._next_index = index + 1
        address = TASK_DESCRIPTOR_BASE + index * TASK_DESCRIPTOR_STRIDE
        return TaskInstance(definition, address, region_index=region_index)


def single_region_program(
    name: str,
    tasks: Sequence[TaskDefinition],
    metadata: Optional[Dict[str, object]] = None,
) -> TaskProgram:
    """Convenience constructor for programs with a single parallel region."""
    return TaskProgram(
        name=name,
        regions=(TaskRegion(tasks=tuple(tasks), name=f"{name}.region0"),),
        metadata=dict(metadata or {}),
    )
