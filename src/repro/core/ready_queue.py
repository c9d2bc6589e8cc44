"""The DMU Ready Queue: a FIFO of internal task IDs ready for execution.

The queue carries the same integer handles as the columnar Task Table: a
popped ID indexes the table's columns directly (``get_ready_task`` reads the
descriptor address and successor count straight from them).  Entries are
plain ints in a ``collections.deque`` — already columnar in spirit, with no
per-entry object to convert.

The default configuration sizes the Ready Queue with as many entries as the
Task Table (2048), so it can never overflow: a task ID is only inserted when
the task is in flight, and each in-flight task occupies at most one slot.
The model therefore treats overflow as a protocol error rather than a
blocking condition, and the capacity is used by the storage model only.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from ..errors import DMUProtocolError


class ReadyQueue:
    """FIFO queue of ready task IDs with occupancy statistics."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._queue: Deque[int] = deque()
        self.total_pushes = 0
        self.total_pops = 0
        self.peak_occupancy = 0

    def push(self, task_id: int) -> None:
        """Append a newly ready task ID."""
        queue = self._queue
        if len(queue) >= self.capacity:
            raise DMUProtocolError(
                "Ready Queue overflow: more ready tasks than in-flight task entries"
            )
        queue.append(task_id)
        self.total_pushes += 1
        size = len(queue)
        if size > self.peak_occupancy:
            self.peak_occupancy = size

    def pop(self) -> Optional[int]:
        """Remove and return the oldest ready task ID (None when empty)."""
        if not self._queue:
            return None
        self.total_pops += 1
        return self._queue.popleft()

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def is_empty(self) -> bool:
        return not self._queue
