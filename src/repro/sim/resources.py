"""Synchronization resources for the discrete-event kernel.

The only resource the runtime models need is a FIFO mutual-exclusion lock:
the software runtime serializes its task-dependence-graph and ready-pool
updates behind a single lock (as Nanos++ does for its dependence domain), and
the DMU processes ISA instructions one at a time, which is modeled with the
same primitive.

The lock records contention statistics (total wait cycles, number of
acquisitions, busy cycles) that feed the runtime-overhead analysis.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Optional

from ..errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .engine import Engine, Process


class Lock:
    """FIFO mutual exclusion lock with contention statistics."""

    __slots__ = ("engine", "name", "_holder", "_waiters", "_acquired_at",
                 "acquisitions", "total_wait_cycles", "total_hold_cycles",
                 "max_queue_length")

    def __init__(self, engine: "Engine", name: str = "lock") -> None:
        self.engine = engine
        self.name = name
        self._holder: Optional["Process"] = None
        self._waiters: Deque[tuple["Process", int]] = deque()
        self._acquired_at = 0
        # statistics
        self.acquisitions = 0
        self.total_wait_cycles = 0
        self.total_hold_cycles = 0
        self.max_queue_length = 0

    @property
    def locked(self) -> bool:
        """True while some process holds the lock."""
        return self._holder is not None

    @property
    def queue_length(self) -> int:
        """Number of processes currently waiting for the lock."""
        return len(self._waiters)

    def _enqueue(self, process: "Process") -> None:
        """Queue ``process`` behind the current holder.

        Called on a yielded ``Acquire(self)`` while the lock is held; the
        uncontended grant lives in :meth:`repro.sim.engine.Process.resume`
        and the contended hand-off in :meth:`release`.
        """
        waiters = self._waiters
        waiters.append((process, self.engine.now))
        if len(waiters) > self.max_queue_length:
            self.max_queue_length = len(waiters)

    def release(self, process: "Process") -> None:
        """Release the lock; must be called by the current holder."""
        if self._holder is not process:
            holder = self._holder.name if self._holder else None
            raise SimulationError(
                f"lock {self.name!r} released by {process.name!r} but held by {holder!r}"
            )
        engine = self.engine
        now = engine.now
        self.total_hold_cycles += now - self._acquired_at
        waiters = self._waiters
        if waiters:
            # Hand-off grant: the same bookkeeping as the uncontended grant
            # in Process.resume, plus the waiter's queueing time.
            waiter, enqueued_at = waiters.popleft()
            self._holder = waiter
            self._acquired_at = now
            self.acquisitions += 1
            self.total_wait_cycles += now - enqueued_at
            seq = engine._seq
            engine._seq = seq + 1
            engine._ready.append((seq, waiter, None))
        else:
            self._holder = None

    def average_wait_cycles(self) -> float:
        """Mean cycles a holder waited before acquiring (0 when uncontended)."""
        if self.acquisitions == 0:
            return 0.0
        return self.total_wait_cycles / self.acquisitions

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        holder = self._holder.name if self._holder else None
        return f"Lock({self.name!r}, holder={holder!r}, waiters={len(self._waiters)})"
