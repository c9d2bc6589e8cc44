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
* **Run-ahead.**  When a process's next wakeup is certain to be the run
  loop's very next dispatch, :meth:`Process.resume` consumes its seq, sets
  ``now`` to the wake time and sends to the generator again, so many
  wakeups never touch the heap, the deque or the run loop.  It
  needs an empty ready deque, no waiter batch mid-drain, a wake time
  strictly before the heap head and within ``run(until=...)``; the
  reasoning, the waiter-batch hold and why the run loop's local clock may
  lag are in :class:`Engine`.

Determinism: events scheduled at the same time are processed in scheduling
order (a monotonically increasing sequence number breaks ties), so two runs
of the same configuration produce bit-identical results.  See
``docs/determinism.md`` for the contract and ``docs/architecture.md`` for a
walk-through of the queue design.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Any, Dict, Generator, Optional

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
        """Advance the generator with ``value`` and schedule its next wakeup.

        Each command reduces to a wake time ``when`` and a resume value: a
        bare int ``d`` wakes at ``now + d``; a wait on a triggered event and
        an uncontended lock grant wake now.  The wakeup always consumes a
        seq.  It is then either queued (heap or ready deque, as the run loop
        would see it) or, when it is certain to be the run loop's very next
        dispatch, run ahead: ``engine.now`` moves to ``when`` and the
        generator is sent to again here (see :class:`Engine`).
        """
        if self.finished:
            return
        engine = self.engine
        send = self._send
        ready = engine._ready
        queue = engine._queue
        # Locals for the whole call: only run-ahead below moves the clock
        # while it lasts, and the bound and the hold change only around it
        # (in run() and in a waiter batch's drain).
        now = engine.now
        until = engine._until
        held = engine._hold
        while True:
            try:
                command = send(value)
            except StopIteration as stop:
                self.finished = True
                self.result = stop.value
                del engine._live[self]
                return
            except Exception as exc:  # surface the failing process in the traceback
                self.finished = True
                del engine._live[self]
                raise SimulationError(f"process {self.name!r} raised {exc!r}") from exc

            # Command dispatch, keyed on the exact type.  Bare ints are the
            # timeout the runtime models use for every busy-cycle charge.
            cls = command.__class__
            if cls is int:
                if command < 0:
                    raise SimulationError(
                        f"process {self.name!r} yielded a negative timeout: {command}"
                    )
                when = now + command
                value = None
            elif cls is WaitEvent:
                event = command.event
                if not event.triggered:
                    event._waiters.append(self)
                    return
                when = now
                value = event.value
            elif cls is Acquire:
                # The uncontended grant (the overwhelmingly common case) is
                # handled here; a held lock queues the process.
                lock = command.lock
                if lock._holder is not None:
                    lock._enqueue(self)
                    return
                lock._holder = self
                when = lock._acquired_at = now
                lock.acquisitions += 1
                value = None
            else:
                raise SimulationError(
                    f"process {self.name!r} yielded an unknown command: {command!r}"
                )

            # Queue the wakeup unless it is certainly the run loop's next
            # dispatch (the four conditions in the Engine docstring).
            seq = engine._seq
            engine._seq = seq + 1
            if (ready or held or (queue and queue[0][0] <= when)
                    or (until is not None and when > until)):
                if when == now:
                    ready.append((seq, self, value))
                else:
                    heappush(queue, (when, seq, self, value))
                return
            engine.now = now = when

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

    A wakeup at time ``t`` that :meth:`Process.resume` is about to schedule
    (``t = now + d`` for a bare int ``d``, ``t = now`` for a wait on a
    triggered event or an uncontended lock grant) is *run ahead* instead —
    resumed at once, with ``now = t`` — when all four hold:

    * the ready deque is empty;
    * ``_hold`` is zero: no :class:`~repro.sim.events._WaiterBatch` is
      mid-drain with waiters left (the batch raises the hold around every
      waiter but the last, since the later waiters precede the wakeup);
    * the heap is empty or ``t < queue[0][0]`` (strictly: an equal-time
      heap entry was queued earlier and holds a smaller seq);
    * ``run(until=U)`` is not bounding the run (``_until`` is None) or
      ``t <= U``.

    The wakeup then is the minimum of the single ``(time, seq)`` queue, the
    entry the run loop would dispatch next, so skipping the queue changes no
    order.  Its seq is still consumed, so ``_seq`` counts every event.

    After a resume that ran ahead, the run loop's local ``now`` may lag
    ``self.now``.  That is safe: run-ahead required every heap entry to lie
    after ``t``, and every entry queued since lies after ``self.now``, so
    the loop's "heap entries due now" test finds none at the stale time;
    ready entries are drained at ``self.now``; and the next clock advance
    reads the heap head, which lies beyond ``self.now``.
    """

    __slots__ = ("now", "_queue", "_ready", "_seq", "_live", "_until", "_hold")

    def __init__(self) -> None:
        #: Current simulation time in cycles (read-only for client code; the
        #: run loop and run-ahead in Process.resume are its only writers).
        #: A plain attribute, not a property: it is read several times per
        #: event by the thread and runtime models and the descriptor call
        #: was measurable.
        self.now = 0
        self._queue: list = []
        self._ready: deque = deque()
        self._seq = 0
        #: Unfinished processes in registration order.  A process leaves
        #: when it finishes, so a completed run holds none: nothing links
        #: the engine and its processes in a reference cycle afterwards.
        self._live: Dict[Process, None] = {}
        #: ``until`` of the current :meth:`run`; bounds run-ahead.
        self._until: Optional[int] = None
        #: Raised by a waiter batch while later waiters of it remain.
        self._hold = 0

    def event(self, name: str = "event") -> SimEvent:
        """Create a new one-shot event bound to this engine."""
        return SimEvent(self, name)

    def process(self, generator: ProcessBody, name: str = "process") -> Process:
        """Register a new process built from ``generator`` and queue its
        first step at the current time."""
        process = Process(self, generator, name=name)
        self._live[process] = None
        seq = self._seq
        self._seq = seq + 1
        self._ready.append((seq, process, None))
        return process

    # ------------------------------------------------------------------ run loop
    def run(self, until: Optional[int] = None) -> int:
        """Run until the event queues drain (or until ``until`` cycles).

        Returns the final simulation time.  Raises :class:`DeadlockError` if
        the queues drain while registered processes are still unfinished,
        which indicates a lost wake-up or a dependence cycle in the workload.
        Calling ``run`` again after an ``until``-bounded return resumes the
        simulation exactly where it stopped; an ``until`` below the current
        clock raises :class:`SimulationError`, since time cannot run back.
        """
        if until is not None and until < self.now:
            raise SimulationError(
                f"cannot run until cycle {until}: the clock is already at {self.now}"
            )
        self._until = until
        queue = self._queue
        ready = self._ready
        popleft = ready.popleft
        # May lag self.now after a resume that ran ahead (see the class
        # docstring); self.now is the clock.
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
        if self._live:
            blocked = [p.name for p in self._live]
            raise DeadlockError(
                "simulation deadlocked: no pending events but "
                f"{len(blocked)} processes still blocked: {blocked[:8]}"
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
