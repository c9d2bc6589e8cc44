"""Base class shared by all runtime-system models.

A runtime system is the component the simulated threads call into.  Its
methods are *generators* that the calling thread drives with ``yield from``:
they yield simulation commands (a bare ``int`` of busy cycles, ``Acquire``
for a lock, ``WaitEvent`` for an event) and finally return their result.
This keeps all timing behaviour in one place while the thread model in
:mod:`repro.sim.thread` handles phase accounting.

The common machinery provided here:

* task-instance creation (descriptor addresses, the descriptor -> instance
  map used to resolve DMU responses),
* the software pool of ready tasks, its pop (:meth:`RuntimeSystem.try_get_task`)
  and the wake-up notification channel,
* the global runtime lock used by software TDG / pool updates,
* bookkeeping counters surfaced in :meth:`RuntimeSystem.stats`.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Dict, Generator, List, Optional, Union

from ..config import SimulationConfig
from ..schedulers.base import ReadyEntry, Scheduler
from ..sim.engine import Engine
from ..sim.events import Acquire, NotificationEvent, WaitEvent
from ..sim.noc import NocModel
from ..sim.resources import Lock
from .ready_pool import ReadyPool
from .task import TaskDefinition, TaskInstance, TaskInstanceFactory

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.dmu import DependenceManagementUnit
    from ..sim.thread import SimThread

#: What a runtime operation yields: the kernel's three commands.
RuntimeGenerator = Generator[Union[int, WaitEvent, Acquire], object, object]


class RuntimeSystem(abc.ABC):
    """Common state and interface of the four runtime-system models."""

    #: Registry name of the runtime ("software", "tdm", ...).
    name: str = "abstract"
    #: Whether the configured software scheduler is honoured (hardware
    #: schedulers such as Carbon / Task Superscalar use their fixed policy).
    honors_scheduler: bool = True
    #: Busy cycles of one successful software-pool pop; set by the runtimes
    #: that inherit :meth:`try_get_task`.
    _pop_cycles: int

    def __init__(
        self,
        config: SimulationConfig,
        scheduler: Scheduler,
        engine: Engine,
        noc: NocModel,
    ) -> None:
        self.config = config
        self.costs = config.costs
        self._lock_cycles = config.costs.lock_acquire_cycles
        self.engine = engine
        self.noc = noc
        self.scheduler = scheduler
        #: The pool owns the worker wake-up channel: every push notifies it
        #: (as one batched drain entry per wake-up window — see
        #: :mod:`repro.runtime.ready_pool`).
        self.pool = ReadyPool(scheduler, engine, name="ready-pool")
        self.runtime_lock = Lock(engine, "runtime-lock")
        #: Reusable ``Acquire(runtime_lock)`` command: the command object is
        #: immutable and yielded thousands of times per simulation, so the
        #: runtimes share one instance instead of allocating per acquisition.
        self.acquire_runtime_lock = Acquire(self.runtime_lock)
        self._factory = TaskInstanceFactory()
        self.instances_by_descriptor: Dict[int, TaskInstance] = {}
        self.all_instances: List[TaskInstance] = []
        self.tasks_created = 0
        self.tasks_finished = 0

    # ------------------------------------------------------------------ helpers
    def new_instance(self, definition: TaskDefinition, region_index: int) -> TaskInstance:
        """Materialize a task instance and register its descriptor address."""
        instance = self._factory.create(definition, region_index)
        instance.created_cycle = self.engine.now
        self.instances_by_descriptor[instance.descriptor_address] = instance
        self.all_instances.append(instance)
        self.tasks_created += 1
        return instance

    def resolve_descriptor(self, descriptor_address: int) -> TaskInstance:
        """Map a descriptor address returned by the hardware back to its instance."""
        return self.instances_by_descriptor[descriptor_address]

    @property
    def wake_channel(self) -> NotificationEvent:
        """The pool's worker wake-up channel (threads hoist this once per run)."""
        return self.pool.wake_channel

    def push_ready(
        self,
        instance: TaskInstance,
        producer_core: Optional[int],
        successor_count: int,
    ) -> ReadyEntry:
        """Insert a ready task into the software pool.

        The pool itself wakes the idle workers (one batched drain entry per
        wake-up window); see :mod:`repro.runtime.ready_pool`.
        """
        instance.mark_ready(self.engine.now)
        instance.producer_core = producer_core
        return self.pool.push(
            instance,
            creation_seq=instance.uid,
            successor_count=successor_count,
            producer_core=producer_core,
        )

    def notify_workers(self) -> None:
        """Wake idle workers (used when ready work appears outside the pool)."""
        self.pool.notify_waiters()

    # ------------------------------------------------------------------ interface
    @abc.abstractmethod
    def create_task(
        self, thread: "SimThread", definition: TaskDefinition, region_index: int
    ) -> RuntimeGenerator:
        """Create a task and register its dependences (master-side, DEPS phase).

        Returns the new :class:`TaskInstance`.
        """

    def try_get_task(self, thread: "SimThread") -> RuntimeGenerator:
        """Try to obtain a ready task for ``thread`` (SCHED phase).

        Returns a :class:`~repro.schedulers.base.ReadyEntry` or ``None``.
        This is the software-pool pop under the runtime lock.  The worker
        loop in :meth:`repro.sim.thread.SimThread.run` inlines these exact
        yields for every runtime that does not override this method (one
        less generator and ``send()`` frame per pop attempt); keep the two
        in sync.
        """
        if not self.pool.peek_available():
            return None
        yield self.acquire_runtime_lock
        yield self._lock_cycles
        entry: Optional[ReadyEntry] = self.pool.pop(thread.core_id)
        if entry is not None:
            yield self._pop_cycles
        self.runtime_lock.release(thread.process)
        return entry

    @abc.abstractmethod
    def finish_task(self, thread: "SimThread", instance: TaskInstance) -> RuntimeGenerator:
        """Notify that ``instance`` finished (DEPS phase on the worker side)."""

    # ------------------------------------------------------------------ hints / stats
    def work_available_hint(self) -> bool:
        """Cheap check used by idle workers before attempting a pop.

        Reads the pool's public mirrored ``size`` counter directly instead
        of delegating to :meth:`ReadyPool.peek_available`: idle workers run
        this once per wake-up and the extra frame was measurable.
        """
        return self.pool.size > 0

    @property
    def dmu(self) -> Optional["DependenceManagementUnit"]:
        """The DMU model driven by this runtime (None for pure-software runtimes)."""
        return None

    def stats(self) -> Dict[str, object]:
        """Aggregate runtime statistics for reports and tests."""
        return {
            "runtime": self.name,
            "tasks_created": self.tasks_created,
            "tasks_finished": self.tasks_finished,
            "pool_pushes": self.pool.total_pushes,
            "pool_pops": self.pool.total_pops,
            "pool_peak": self.pool.peak_size,
            "lock_acquisitions": self.runtime_lock.acquisitions,
            "lock_wait_cycles": self.runtime_lock.total_wait_cycles,
        }

    def assert_drained(self) -> None:
        """Sanity check at end of simulation: everything created also finished."""
        if self.tasks_created != self.tasks_finished:
            raise RuntimeError(
                f"{self.name} runtime finished {self.tasks_finished} of "
                f"{self.tasks_created} created tasks"
            )
