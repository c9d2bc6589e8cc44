"""Task Superscalar baseline: dependence management *and* scheduling in hardware.

Task Superscalar [11] offloads the whole runtime activity to the
architecture.  The paper's gem5 setup builds it from TDM's parts:
"Combining this hardware queue and the DMU we also model Task Superscalar".
So does this model: it is the TDM runtime (same DMU, ISA issue sequence and
blocked-instruction retry) with the software pool replaced by the DMU's
hardware Ready Queue.  Workers pop ready tasks straight from the unit with a
fixed FIFO policy, so the configured software scheduler is ignored.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from ..schedulers.base import ReadyEntry
from .base import RuntimeGenerator
from .task import TaskInstance
from .tdm import TDMRuntime

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.thread import SimThread


class TaskSuperscalarRuntime(TDMRuntime):
    """Hardware dependence tracking + hardware FIFO scheduling."""

    name = "task_superscalar"
    honors_scheduler = False
    # The hardware queue replays a blocked instruction internally.
    BLOCKED_RESPONSE_CROSSES_NOC = False

    def __init__(self, config, scheduler, engine, noc) -> None:
        super().__init__(config, scheduler, engine, noc)
        self._hw_queue_cycles = config.costs.hw_queue_access_cycles

    def work_available_hint(self) -> bool:
        return self._dmu.ready_tasks > 0

    # ------------------------------------------------------------------ ready-task routing
    def _route_created_ready(self, thread: "SimThread", instance: TaskInstance) -> Iterable:
        # Ready tasks stay in the DMU's Ready Queue: just wake the workers.
        instance.mark_ready(self.engine.now)
        self.notify_workers()
        return ()

    def _route_woken(self, thread: "SimThread", tasks_woken: int) -> Iterable:
        if tasks_woken > 0:
            self.notify_workers()
        return ()

    # ------------------------------------------------------------------ scheduling
    def try_get_task(self, thread: "SimThread") -> RuntimeGenerator:
        dmu = self._dmu
        if dmu.ready_tasks == 0:
            return None
        yield self._hw_queue_cycles
        # One get_ready_task instruction (see the ISA issue notes in
        # repro.runtime.tdm): workers pop straight from the hardware Ready
        # Queue, so this is the hottest instruction path.
        yield self._issue_cycles
        yield self._noc_round_trip[thread.core_id]
        space_target = self.space_freed.wait_target()
        yield self._acquire_dmu_lock
        result = dmu.get_ready_task()
        if result.blocked:
            result = yield from self._finish_blocked_issue(
                thread, dmu.get_ready_task, space_target
            )
        else:
            yield result.cycles
            self.dmu_lock.release(thread.process)
        if result.is_null:
            return None
        instance = self.resolve_descriptor(result.descriptor_address)
        if instance.ready_cycle is None:
            instance.mark_ready(self.engine.now)
        self.pool.total_pops += 1
        return ReadyEntry(
            task=instance,
            creation_seq=instance.uid,
            ready_seq=self.pool.next_ready_seq(),
            successor_count=result.num_successors,
            producer_core=thread.core_id,
        )
