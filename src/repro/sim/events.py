"""Commands and events understood by the discrete-event kernel.

Simulation processes are plain Python generators.  They communicate with the
engine by yielding commands:

a bare ``int >= 0``
    Suspend the process for that many clock cycles.

``Acquire(lock)``
    Suspend until the FIFO lock is granted to this process.

``WaitEvent(event)``
    Suspend until ``event`` is triggered; the triggered value is returned by
    the ``yield`` expression.

The :class:`SimEvent` class is the one-shot broadcast event used for
completion notifications (task finished, structure entry freed, barrier
reached, ...).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from .engine import Engine, Process
    from .resources import Lock


class Acquire:
    """Suspend the yielding process until the lock is granted to it."""

    __slots__ = ("lock",)

    def __init__(self, lock: "Lock") -> None:
        self.lock = lock

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Acquire({self.lock.name!r})"


class WaitEvent:
    """Suspend the yielding process until the event is triggered."""

    __slots__ = ("event",)

    def __init__(self, event: "SimEvent") -> None:
        self.event = event

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WaitEvent({self.event.name!r})"


class _WaiterBatch:
    """One ready-queue entry that resumes a whole waiter list in order.

    Triggering an event with ``n`` waiters used to append ``n`` entries to
    the engine's ready deque — the ready-pool wake-up storm: every push
    woke every idle worker through its own queue entry.  A batch entry
    claims a single sequence number (the position the *first* waiter would
    have held) and resumes the waiters back to back when the run loop
    reaches it.  The observable order is unchanged: the waiters run in
    registration order, before anything enqueued after the trigger, exactly
    as the per-waiter entries did.

    While waiters remain after the one being resumed, the batch raises the
    engine's ``_hold``: those waiters precede any wakeup the resumed one
    schedules, so it must not run ahead (see :class:`repro.sim.engine.Engine`).
    The last waiter resumes without the hold, as the single-waiter entry does.
    """

    __slots__ = ("waiters",)

    def __init__(self, waiters: list["Process"]) -> None:
        self.waiters = waiters

    def resume(self, value: Any) -> None:
        waiters = self.waiters
        engine = waiters[0].engine
        engine._hold += 1
        try:
            for process in waiters[:-1]:
                process.resume(value)
        finally:
            engine._hold -= 1
        waiters[-1].resume(value)


class SimEvent:
    """One-shot broadcast event.

    Processes wait on the event by yielding ``WaitEvent(event)``.  Triggering
    the event resumes every waiter (in registration order) with the trigger
    value.  Waiting on an already-triggered event resumes immediately, which
    makes the primitive safe against wake-up/wait races.
    """

    __slots__ = ("engine", "name", "triggered", "value", "_waiters")

    def __init__(self, engine: "Engine", name: str = "event") -> None:
        self.engine = engine
        self.name = name
        self.triggered = False
        self.value: Any = None
        self._waiters: list["Process"] = []

    def trigger(self, value: Any = None) -> None:
        """Fire the event, resuming every waiter at the current time.

        A single waiter is queued directly on the engine's zero-delay ready
        deque; several waiters are queued as **one** batched drain entry
        (:class:`_WaiterBatch`) that resumes them in registration order.
        Either way triggering never allocates closures or touches the timed
        queues, and the batch preserves the per-waiter order exactly.
        """
        if self.triggered:
            return
        self.triggered = True
        self.value = value
        waiters, self._waiters = self._waiters, []
        if waiters:
            engine = self.engine
            seq = engine._seq
            engine._seq = seq + 1
            if len(waiters) == 1:
                engine._ready.append((seq, waiters[0], value))
            else:
                engine._ready.append((seq, _WaiterBatch(waiters), value))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "triggered" if self.triggered else f"{len(self._waiters)} waiters"
        return f"SimEvent({self.name!r}, {state})"


class NotificationEvent:
    """A re-arming notification channel built on top of :class:`SimEvent`.

    Waiters obtain the current :class:`SimEvent` via :meth:`wait_target`; a
    call to :meth:`notify_all` triggers the current event, and the next
    :meth:`wait_target` call re-arms the channel.  This models "space was
    freed in a hardware structure" and "a task was pushed to the ready pool"
    notifications, where the condition must be re-checked after every
    wake-up.

    The replacement event is allocated *lazily* by :meth:`wait_target`, not
    eagerly by :meth:`notify_all`: runtimes notify on every ready-pool push
    and task finish, and with busy workers (nobody re-waiting between
    notifications) the eager re-arm allocated a fresh :class:`SimEvent` per
    notification that nothing ever looked at.  The observable protocol is
    unchanged — a target captured before a notification is triggered by it,
    and waiting on a triggered target resumes immediately.
    """

    __slots__ = ("engine", "name", "_current")

    def __init__(self, engine: "Engine", name: str = "notify") -> None:
        self.engine = engine
        self.name = name
        self._current: "SimEvent | None" = None

    def wait_target(self) -> SimEvent:
        """The event a process should wait on for the *next* notification."""
        current = self._current
        if current is None or current.triggered:
            current = SimEvent(self.engine, self.name)
            self._current = current
        return current

    def notify_all(self, value: Any = None) -> None:
        """Wake every process currently waiting; the channel re-arms on demand."""
        event = self._current
        if event is not None and not event.triggered:
            event.trigger(value)
