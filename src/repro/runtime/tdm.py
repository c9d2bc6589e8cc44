"""The TDM runtime: dependence management in hardware, scheduling in software.

This is the paper's proposal.  The runtime allocates task descriptors and
issues the four TDM ISA instructions; the DMU tracks tasks and dependences
and exposes ready tasks through its Ready Queue; the runtime drains ready
tasks into its software pool and schedules them with any policy.

Timing model of one ISA instruction (Section III-D gives them barrier
semantics, so the issuing core is busy for the whole duration):

    issue cycles  +  NoC round trip  +  DMU processing cycles

The DMU processes instructions sequentially, which is modeled with a lock
around the unit.  When the DMU reports that a structure is full, the
instruction blocks: the core waits until a ``finish_task`` frees entries and
then retries (only the DMU processing part is re-attempted — the instruction
sits at the DMU, it is not re-executed by the core).

Every ISA instruction follows that sequence, written out inline at each call
site (one less generator and ``send()`` frame per instruction); the cold
full-structure retry is :meth:`TDMRuntime._finish_blocked_issue`, the only
copy.  :class:`~repro.runtime.task_superscalar.TaskSuperscalarRuntime`
subclasses this runtime and shares both.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable

from ..core.dmu import DependenceManagementUnit
from ..sim.events import Acquire, NotificationEvent, WaitEvent
from ..sim.resources import Lock
from ..sim.timeline import Phase
from .base import RuntimeGenerator, RuntimeSystem
from .task import TaskDefinition, TaskInstance

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.thread import SimThread


class TDMRuntime(RuntimeSystem):
    """Runtime system using the DMU for dependence tracking."""

    name = "tdm"
    honors_scheduler = True
    #: Whether the response of an instruction that blocked on a full DMU
    #: crosses the NoC once more after the wait.  Under TDM the core stalls
    #: on a barrier instruction parked at the DMU, and the eventual response
    #: travels back to it; Task Superscalar's hardware queue replays the
    #: instruction internally and charges no extra crossing.
    BLOCKED_RESPONSE_CROSSES_NOC = True

    def __init__(self, config, scheduler, engine, noc) -> None:
        super().__init__(config, scheduler, engine, noc)
        self._dmu = DependenceManagementUnit(config.dmu)
        self.dmu_lock = Lock(engine, "dmu")
        self._acquire_dmu_lock = Acquire(self.dmu_lock)
        self.space_freed = NotificationEvent(engine, "dmu-space")
        self.blocked_instruction_events = 0
        self.blocked_cycles = 0
        # Fixed per-operation costs hoisted out of the per-yield hot path.
        costs = config.costs
        self._issue_cycles = config.dmu.instruction_issue_cycles
        self._alloc_cycles = costs.tdm_task_alloc_cycles
        self._finish_cycles = costs.tdm_finish_base_cycles
        self._drain_cycles = costs.tdm_drain_per_task_cycles
        self._push_cycles = costs.tdm_schedule_push_cycles
        self._pop_cycles = costs.tdm_schedule_pop_cycles
        # NoC round trips are pure per-core constants; the table lookup
        # replaces a bounds-checking method call on every ISA instruction.
        self._noc_round_trip = tuple(
            noc.round_trip_cycles(core) for core in range(config.chip.num_cores)
        )

    @property
    def dmu(self) -> DependenceManagementUnit:
        return self._dmu

    # ------------------------------------------------------------------ ISA issue
    # DMU results are pooled objects, valid only while the DMU lock is held
    # plus the resumption segment that releases it (the simulator is
    # cooperative: another core can only issue an instruction after this
    # process yields).  Call sites copy any field they need beyond that into
    # locals; the blocked path detaches a private copy because its result
    # crosses a wait.
    def _finish_blocked_issue(
        self, thread: "SimThread", operation: Callable[[], object], space_target
    ) -> RuntimeGenerator:
        """Cold path of an ISA instruction: the DMU reported a full structure.

        Entered with the DMU lock held and ``operation()`` just blocked;
        ``space_target`` is the notification target captured *before* the
        lock acquisition, so a ``finish_task`` that freed space while this
        core waited for the lock is not missed.  Retries (without re-paying
        issue and NoC latency) until the operation succeeds and returns its
        detached result.  Time stalled on a full DMU is accounted as IDLE
        (the core makes no progress and is clock gated), not as
        dependence-management work.
        """
        process = thread.process
        engine = self.engine
        begin = thread.timeline.begin
        IDLE, DEPS = Phase.IDLE, Phase.DEPS
        while True:
            self.dmu_lock.release(process)
            self.blocked_instruction_events += 1
            blocked_since = engine.now
            begin(IDLE, engine.now)
            yield WaitEvent(space_target)
            begin(DEPS, engine.now)
            self.blocked_cycles += engine.now - blocked_since
            space_target = self.space_freed.wait_target()
            yield self._acquire_dmu_lock
            result = operation()
            if result.blocked:
                continue
            # Detach from the pooled instance: the yields below let another
            # core issue an instruction that would recycle it.
            result = result.detach()
            yield result.cycles
            self.dmu_lock.release(process)
            if self.BLOCKED_RESPONSE_CROSSES_NOC:
                yield self._noc_round_trip[thread.core_id] // 2
            return result

    # ------------------------------------------------------------------ ready-task routing
    def _route_created_ready(self, thread: "SimThread", instance: TaskInstance) -> Iterable:
        """Commands that route a task ready at creation (run with ``yield from``).

        The creating thread drains it so it reaches the software pool
        immediately (no other thread polls the DMU).
        """
        return self._drain_ready(thread)

    def _route_woken(self, thread: "SimThread", tasks_woken: int) -> Iterable:
        """Commands that route the successors a finish woke (run with ``yield from``).

        "Just after notifying a task has finished, the runtime system uses
        get_ready_task to request the successors that have just become
        ready."
        """
        return self._drain_ready(thread)

    def _drain_ready(self, thread: "SimThread") -> RuntimeGenerator:
        """Issue ``get_ready_task`` until the DMU returns null, filling the pool."""
        # Locals hoisted because one drain loop runs after every task finish.
        dmu = self._dmu
        dmu_lock = self.dmu_lock
        process = thread.process
        issue_cycles = self._issue_cycles
        round_trip = self._noc_round_trip[thread.core_id]
        acquire_dmu = self._acquire_dmu_lock
        wait_target = self.space_freed.wait_target
        get_ready = dmu.get_ready_task
        drained = 0
        while True:
            yield issue_cycles
            yield round_trip
            space_target = wait_target()
            yield acquire_dmu
            result = get_ready()
            if result.blocked:
                result = yield from self._finish_blocked_issue(thread, get_ready, space_target)
            else:
                yield result.cycles
                dmu_lock.release(process)
            if result.is_null:
                return drained
            # Snapshot before yielding: the pooled result is recycled by the
            # next get_ready_task once the DMU lock is free.
            instance = self.resolve_descriptor(result.descriptor_address)
            successor_count = result.num_successors
            yield self._drain_cycles
            yield self.acquire_runtime_lock
            yield self._push_cycles
            self.push_ready(
                instance,
                producer_core=thread.core_id,
                successor_count=successor_count,
            )
            self.runtime_lock.release(process)
            drained += 1

    # ------------------------------------------------------------------ creation
    def create_task(
        self, thread: "SimThread", definition: TaskDefinition, region_index: int
    ) -> RuntimeGenerator:
        instance = self.new_instance(definition, region_index)
        descriptor = instance.descriptor_address
        # The 2 + num_dependences instructions every creation issues.
        dmu = self._dmu
        dmu_lock = self.dmu_lock
        process = thread.process
        issue_cycles = self._issue_cycles
        round_trip = self._noc_round_trip[thread.core_id]
        acquire_dmu = self._acquire_dmu_lock
        wait_target = self.space_freed.wait_target

        yield self._alloc_cycles
        yield issue_cycles
        yield round_trip
        space_target = wait_target()
        yield acquire_dmu
        result = dmu.create_task(descriptor)
        if result.blocked:
            yield from self._finish_blocked_issue(
                thread, lambda: dmu.create_task(descriptor), space_target
            )
        else:
            yield result.cycles
            dmu_lock.release(process)

        for dependence in definition.dependences:
            yield issue_cycles
            yield round_trip
            space_target = wait_target()
            yield acquire_dmu
            result = dmu.add_dependence(
                descriptor, dependence.address, dependence.size, dependence.direction
            )
            if result.blocked:
                yield from self._finish_blocked_issue(
                    thread,
                    lambda dep=dependence: dmu.add_dependence(
                        descriptor, dep.address, dep.size, dep.direction
                    ),
                    space_target,
                )
            else:
                yield result.cycles
                dmu_lock.release(process)

        yield issue_cycles
        yield round_trip
        space_target = wait_target()
        yield acquire_dmu
        completion = dmu.complete_creation(descriptor)
        if completion.blocked:
            completion = yield from self._finish_blocked_issue(
                thread, lambda: dmu.complete_creation(descriptor), space_target
            )
        else:
            yield completion.cycles
            dmu_lock.release(process)
        if completion.became_ready:
            yield from self._route_created_ready(thread, instance)
        return instance

    # ------------------------------------------------------------------ finalization
    def finish_task(self, thread: "SimThread", instance: TaskInstance) -> RuntimeGenerator:
        descriptor = instance.descriptor_address
        dmu = self._dmu
        yield self._finish_cycles
        # One finish instruction per task.
        yield self._issue_cycles
        yield self._noc_round_trip[thread.core_id]
        space_target = self.space_freed.wait_target()
        yield self._acquire_dmu_lock
        result = dmu.finish_task(descriptor)
        if result.blocked:
            result = yield from self._finish_blocked_issue(
                thread, lambda: dmu.finish_task(descriptor), space_target
            )
        else:
            yield result.cycles
            self.dmu_lock.release(thread.process)
        tasks_woken = result.tasks_woken
        instance.mark_finished(self.engine.now)
        self.tasks_finished += 1
        # Entries were freed in the DMU: unblock any stalled instruction.
        self.space_freed.notify_all()
        yield from self._route_woken(thread, tasks_woken)
        return None

    def stats(self):
        data = super().stats()
        data["dmu_blocked_events"] = self.blocked_instruction_events
        data["dmu_blocked_cycles"] = self.blocked_cycles
        return data
