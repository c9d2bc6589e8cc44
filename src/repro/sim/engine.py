"""A small coroutine-based discrete-event simulation kernel.

The kernel is deliberately minimal (in the spirit of SimPy, but specialized
for this project): an event queue ordered by time, and processes implemented
as generators that yield commands.  A command is a bare non-negative ``int``
(suspend for that many cycles), a :class:`~repro.sim.events.WaitEvent` or an
:class:`~repro.sim.events.Acquire`; anything else is an error.

Hot-path design (this is the innermost loop of every simulation, executed
once per event):

* Timed events live in **one binary heap** of ``(time, seq, target, value)``
  entries.  ``seq`` is unique, so tuple comparison never reaches the target.
* Zero-delay wakeups (event triggers, lock grants, process starts, ``yield
  0``) never touch the heap: they are appended to a FIFO *ready deque* as
  ``(seq, target, value)``.  Per cycle the run loop pops the heap entries
  due now, then drains the ready deque, then advances the clock.  No merge
  check is needed: every heap entry due now was queued in an earlier cycle,
  so it precedes, by seq, any ready entry created now — the observable
  order is that of a single global ``(time, seq)`` queue.
* Every target exposes ``resume(value)`` (a :class:`Process` or a batched
  waiter drain, see :class:`repro.sim.events.SimEvent`), so dispatch is
  uniform and no per-event closure is allocated.
* Command dispatch in :meth:`Process.resume` is keyed on the exact command
  type (``type(command) is ...``) with the bare-int timeout checked first.

Determinism: events scheduled at the same time are processed in scheduling
order (a monotonically increasing sequence number breaks ties), so two runs
of the same configuration produce bit-identical results.  See
``docs/determinism.md`` for the contract and ``docs/architecture.md`` for a
walk-through of the queue design.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Any, Generator, List, Optional

from ..errors import DeadlockError, SimulationError
from .events import Acquire, SimEvent, WaitEvent

ProcessBody = Generator[Any, Any, Any]


class Process:
    """A simulation process wrapping a generator of commands.

    The engine drives the generator: each ``yield`` suspends the process
    until the yielded command is satisfied, at which point the generator is
    resumed with the command's result (the trigger value for events, ``None``
    for timeouts and lock acquisitions).
    """

    __slots__ = ("engine", "name", "finished", "result", "_send")

    def __init__(self, engine: "Engine", generator: ProcessBody, name: str = "process") -> None:
        self.engine = engine
        self.name = name
        self.finished = False
        self.result: Any = None
        # Bound ``generator.send`` cached once: resume() is called once per
        # event and the two-step attribute lookup is measurable at that rate.
        self._send = generator.send

    def resume(self, value: Any) -> None:
        """Advance the generator with ``value`` and interpret its next command."""
        if self.finished:
            return
        try:
            command = self._send(value)
        except StopIteration as stop:
            self.finished = True
            self.result = stop.value
            self.engine._live_processes -= 1
            return
        except Exception as exc:  # surface the failing process in the traceback
            self.finished = True
            self.engine._live_processes -= 1
            raise SimulationError(f"process {self.name!r} raised {exc!r}") from exc

        # Command dispatch, keyed on the exact type.  Bare ints are the
        # timeout the runtime models use for every busy-cycle charge.
        cls = command.__class__
        if cls is int:
            if command > 0:
                engine = self.engine
                seq = engine._seq
                engine._seq = seq + 1
                heappush(engine._queue, (engine.now + command, seq, self, None))
            elif command == 0:
                self.engine._wake(self, None)
            else:
                raise SimulationError(
                    f"process {self.name!r} yielded a negative timeout: {command}"
                )
        elif cls is WaitEvent:
            event = command.event
            if event.triggered:
                self.engine._wake(self, event.value)
            else:
                event._waiters.append(self)
        elif cls is Acquire:
            # The uncontended grant (the overwhelmingly common case) is
            # handled here; a held lock queues the process.
            lock = command.lock
            if lock._holder is None:
                engine = self.engine
                lock._holder = self
                lock._acquired_at = engine.now
                lock.acquisitions += 1
                seq = engine._seq
                engine._seq = seq + 1
                engine._ready.append((seq, self, None))
            else:
                lock._enqueue(self)
        else:
            raise SimulationError(
                f"process {self.name!r} yielded an unknown command: {command!r}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "finished" if self.finished else "active"
        return f"Process({self.name!r}, {state})"


class Engine:
    """Discrete-event engine: clock, event queue and process registry.

    Pending events live in two places, merged by the run loop into one
    global ``(time, seq)`` order:

    * ``_queue`` — binary heap of timed events ``(time, seq, target, value)``,
      every one due strictly after the cycle that queued it.
    * ``_ready`` — FIFO deque of zero-delay wakeups ``(seq, target, value)``
      at the current time.
    """

    __slots__ = ("now", "_queue", "_ready", "_seq", "_processes", "_live_processes")

    def __init__(self) -> None:
        #: Current simulation time in cycles (read-only for client code; the
        #: run loop is the only writer).  A plain attribute, not a property:
        #: it is read several times per event by the thread and runtime
        #: models and the descriptor call was measurable.
        self.now = 0
        self._queue: list = []
        self._ready: deque = deque()
        self._seq = 0
        self._processes: List[Process] = []
        self._live_processes = 0

    def _wake(self, process: Process, value: Any = None) -> None:
        """Resume ``process`` with ``value`` at the current time (FIFO order).

        This is the zero-delay path used by event triggers, lock grants and
        process starts; it bypasses the heap while preserving the global
        scheduling order (the shared sequence counter is the tie breaker the
        run loop merges on).
        """
        seq = self._seq
        self._seq = seq + 1
        self._ready.append((seq, process, value))

    def event(self, name: str = "event") -> SimEvent:
        """Create a new one-shot event bound to this engine."""
        return SimEvent(self, name)

    def process(self, generator: ProcessBody, name: str = "process") -> Process:
        """Register a new process built from ``generator`` and queue its
        first step at the current time."""
        process = Process(self, generator, name=name)
        self._processes.append(process)
        self._live_processes += 1
        self._wake(process, None)
        return process

    # ------------------------------------------------------------------ run loop
    def run(self, until: Optional[int] = None) -> int:
        """Run until the event queues drain (or until ``until`` cycles).

        Returns the final simulation time.  Raises :class:`DeadlockError` if
        the queues drain while registered processes are still unfinished,
        which indicates a lost wake-up or a dependence cycle in the workload.
        Calling ``run`` again after an ``until``-bounded return resumes the
        simulation exactly where it stopped.
        """
        queue = self._queue
        ready = self._ready
        popleft = ready.popleft
        now = self.now
        while True:
            # Heap entries due now first: each was queued in an earlier
            # cycle, so it precedes every ready entry created in this one.
            while queue and queue[0][0] == now:
                _time, _seq, target, value = heappop(queue)
                target.resume(value)
            while ready:
                _seq, target, value = popleft()
                target.resume(value)
            if not queue:
                break
            now = queue[0][0]
            if until is not None and now > until:
                self.now = until
                return until
            self.now = now
        if self._live_processes > 0:
            blocked = [p.name for p in self._processes if not p.finished]
            raise DeadlockError(
                "simulation deadlocked: no pending events but "
                f"{self._live_processes} processes still blocked: {blocked[:8]}"
            )
        return self.now

    def run_all(self, max_cycles: Optional[int] = None) -> int:
        """Run to completion, optionally enforcing a cycle budget."""
        final = self.run(until=max_cycles)
        if max_cycles is not None and (self._ready or self._queue):
            raise SimulationError(
                f"simulation exceeded the cycle budget of {max_cycles} cycles"
            )
        return final
