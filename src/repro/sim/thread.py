"""Master and worker thread models.

The execution model follows Section II-A of the paper: the master thread
executes the program sequentially and creates tasks when it encounters task
creation statements; worker threads iterate over the scheduling and execution
phases; when the master reaches a global synchronization point (the end of a
parallel region) it adopts the behaviour of a worker thread until every task
of the region has executed, and then resumes the sequential program.  Both
roles share one process body, :meth:`SimThread.run`: the master's creation
phase precedes the worker loop that every thread runs.

Phase accounting (DEPS / SCHED / EXEC / IDLE) is performed here so that the
runtime-system models only need to express *how long* their operations take,
not how they are categorized.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, List

from ..runtime.task import TaskRegion
from ..units import us_to_cycles
from .engine import Engine
from .events import WaitEvent
from .timeline import Phase, ThreadTimeline

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .machine import Machine


class RegionState:
    """Shared progress tracking of one parallel region."""

    def __init__(self, engine: Engine, region: TaskRegion, index: int) -> None:
        self.engine = engine
        self.region = region
        self.index = index
        self.total_tasks = region.num_tasks
        self.created = 0
        self.finished = 0
        self.all_created = False
        self.done_event = engine.event(f"region{index}.done")

    @property
    def done(self) -> bool:
        return self.done_event.triggered

    def note_created(self) -> None:
        self.created += 1

    def note_all_created(self) -> None:
        self.all_created = True
        if self.finished == self.total_tasks:
            self.done_event.trigger()

    def note_finished(self) -> bool:
        """Record one finished task; returns True when this completed the region."""
        self.finished += 1
        if self.all_created and self.finished == self.total_tasks and not self.done:
            self.done_event.trigger()
            return True
        return False


class SimThread:
    """One hardware thread (the simulation pins one thread per core)."""

    def __init__(self, machine: "Machine", thread_id: int, is_master: bool) -> None:
        self.machine = machine
        self.thread_id = thread_id
        self.core_id = thread_id
        self.is_master = is_master
        self.timeline: ThreadTimeline = machine.recorder.thread(thread_id)
        self.process = None  # assigned by the machine when the process starts
        self.tasks_executed = 0

    # ------------------------------------------------------------------ process body
    def run(self) -> Iterator:
        """Process body: iterate over the program's parallel regions.

        In each region the master first creates the region's tasks; then
        every thread, the master included, runs the same worker loop (wake,
        pop, execute, finish) until the region drains.  The loop is inlined
        here rather than delegated through ``yield from``: every ``send``
        into a process traverses the whole generator-delegation chain, and
        worker events are the majority of all simulation events.
        """
        # Deferred: repro.runtime.base imports this package.
        from ..runtime.base import RuntimeSystem

        machine = self.machine
        engine = machine.engine
        runtime = machine.runtime
        timeline = self.timeline
        clock_ghz = machine.clock_ghz
        is_master = self.is_master
        # Bound methods hoisted out of the wake loop (it runs once per
        # thread wake-up, the most frequent control path in a simulation).
        wait_target = runtime.wake_channel.wait_target
        work_available = runtime.work_available_hint
        core_id = self.core_id
        process = self.process
        # The software-pool pop is inlined exactly when the runtime inherits
        # it; an override (hardware queues, or any subclass) runs as written.
        inline_pop = type(runtime).try_get_task is RuntimeSystem.try_get_task
        if inline_pop:
            pool = runtime.pool
            acquire_runtime = runtime.acquire_runtime_lock
            lock_cycles = runtime._lock_cycles
            pop_cycles = runtime._pop_cycles
            runtime_lock = runtime.runtime_lock
        # Phase members as locals: every ``Phase.X`` read goes through the
        # enum metaclass, and the loop opens a phase per state change.
        begin = timeline.begin
        IDLE, EXEC, DEPS, SCHED = Phase.IDLE, Phase.EXEC, Phase.DEPS, Phase.SCHED
        begin(IDLE, engine.now)
        for region_state in machine.region_states:
            if is_master:
                region = region_state.region
                if region.sequential_us_before > 0:
                    begin(EXEC, engine.now)
                    yield us_to_cycles(region.sequential_us_before, clock_ghz)
                for definition in region.tasks:
                    if definition.creation_work_us > 0:
                        begin(EXEC, engine.now)
                        yield us_to_cycles(definition.creation_work_us, clock_ghz)
                    begin(DEPS, engine.now)
                    yield from runtime.create_task(self, definition, region_state.index)
                    region_state.note_created()
                region_state.note_all_created()
                runtime.notify_workers()
                # The master reached the barrier: it behaves as a worker
                # until the region drains.
            done_event = region_state.done_event
            # Reusable WaitEvent command: the target event changes per wait,
            # so the command is mutated in place instead of allocated per
            # idle spin.
            wait_command = WaitEvent(done_event)
            while not done_event.triggered:
                wake_target = wait_target()
                # The SCHED phase only opens when a pop will actually be
                # attempted: try_get_task performs the same hint check
                # first, so skipping it on a no-work wake-up leaves timing,
                # pool behaviour and every phase total identical.
                if work_available():
                    begin(SCHED, engine.now)
                    if inline_pop:
                        # RuntimeSystem.try_get_task, inlined (identical
                        # yields): one less generator + send() frame per
                        # pop attempt.
                        if pool.peek_available():
                            yield acquire_runtime
                            yield lock_cycles
                            entry = pool.pop(core_id)
                            if entry is not None:
                                yield pop_cycles
                            runtime_lock.release(process)
                        else:
                            entry = None
                    else:
                        entry = yield from runtime.try_get_task(self)
                else:
                    entry = None
                if entry is None:
                    begin(IDLE, engine.now)
                    if done_event.triggered:
                        break
                    wait_command.event = wake_target
                    yield wait_command
                    continue
                task = entry.task
                begin(EXEC, engine.now)
                task.mark_running(engine.now, core_id)
                yield machine.execution_cycles(core_id, task)
                self.tasks_executed += 1
                # Task finalization (dependence management work).
                begin(DEPS, engine.now)
                yield from runtime.finish_task(self, task)
                if region_state.note_finished():
                    runtime.notify_workers()
            begin(IDLE, engine.now)
        return None


def build_threads(machine: "Machine") -> List[SimThread]:
    """Create one thread per core; thread 0 is the master."""
    return [
        SimThread(machine, thread_id, is_master=(thread_id == 0))
        for thread_id in range(machine.config.chip.num_cores)
    ]
