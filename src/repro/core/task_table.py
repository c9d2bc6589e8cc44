"""The Task Table: direct-access SRAM indexed by internal task IDs.

Each entry (Figure 4 of the paper) holds the task-descriptor address, the
predecessor and successor counters, and pointers to the task's successor list
and dependence list in the corresponding list arrays.

Storage is struct-of-arrays: one column per field, indexed by the internal
task ID (the *handle* handed out by the TAT).  ``create_task`` writes the
columns in place instead of allocating an entry object per instruction, and
the DMU's hot paths read/update columns directly (``table.predecessor_count
[task_id]``).  Columns grow on demand — the TAT hands out IDs densely from
zero (fresh counter plus a recycled-ID stack), so very large "ideal"
configurations never pay for untouched capacity.
"""

from __future__ import annotations

from typing import List

from ..errors import DMUProtocolError


class TaskTable:
    """Direct-access table of in-flight tasks, stored as parallel columns.

    Public columns (lists indexed by internal task ID; read and written
    directly by the DMU's instruction paths):

    * ``descriptor_address`` — 64-bit task-descriptor address
    * ``predecessor_count`` / ``successor_count`` — dependence counters
    * ``successor_list`` / ``dependence_list`` — list-array head handles
    * ``creation_complete`` — 0/1, set by the creation-completion step
    * ``valid`` — 0/1 occupancy bit
    """

    def __init__(self, num_entries: int) -> None:
        if num_entries < 1:
            raise ValueError("num_entries must be >= 1")
        self.num_entries = num_entries
        self.descriptor_address: List[int] = []
        self.predecessor_count: List[int] = []
        self.successor_count: List[int] = []
        self.successor_list: List[int] = []
        self.dependence_list: List[int] = []
        self.creation_complete: List[int] = []
        self.valid: List[int] = []
        self._size = 0
        self.peak_occupancy = 0
        self._occupancy = 0

    @property
    def occupancy(self) -> int:
        """Number of valid entries currently held."""
        return self._occupancy

    def _grow_to(self, size: int) -> None:
        extra = size - self._size
        padding = [0] * extra
        self.descriptor_address.extend(padding)
        self.predecessor_count.extend(padding)
        self.successor_count.extend(padding)
        self.successor_list.extend(padding)
        self.dependence_list.extend(padding)
        self.creation_complete.extend(padding)
        self.valid.extend(padding)
        self._size = size

    def install(
        self,
        task_id: int,
        descriptor_address: int,
        successor_list: int,
        dependence_list: int,
    ) -> None:
        """Initialize the columns for ``task_id`` (create_task)."""
        if not (0 <= task_id < self.num_entries):
            raise DMUProtocolError(
                f"task id {task_id} out of range [0, {self.num_entries})"
            )
        if task_id >= self._size:
            self._grow_to(task_id + 1)
        elif self.valid[task_id]:
            raise DMUProtocolError(f"Task Table entry {task_id} is already in use")
        self.descriptor_address[task_id] = descriptor_address
        self.predecessor_count[task_id] = 0
        self.successor_count[task_id] = 0
        self.successor_list[task_id] = successor_list
        self.dependence_list[task_id] = dependence_list
        self.creation_complete[task_id] = 0
        self.valid[task_id] = 1
        self._occupancy += 1
        if self._occupancy > self.peak_occupancy:
            self.peak_occupancy = self._occupancy
