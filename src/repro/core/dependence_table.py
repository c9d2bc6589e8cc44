"""The Dependence Table: direct-access SRAM indexed by internal dependence IDs.

Each entry (Figure 4 of the paper) stores the internal ID of the last task
that writes the dependence (plus a valid bit) and a pointer to the list of
reader tasks in the Reader List Array.

Storage is struct-of-arrays: one column per field, indexed by the internal
dependence ID (the handle handed out by the DAT).  The first
``add_dependence`` of an address writes the columns in place instead of
allocating an entry object, and the DMU reads/updates columns directly.
Columns grow on demand (DAT IDs are dense from zero), so "ideal"
configurations never pay for untouched capacity.
"""

from __future__ import annotations

from typing import List

from ..errors import DMUProtocolError


class DependenceTable:
    """Direct-access table of in-flight dependences, stored as parallel columns.

    Public columns (lists indexed by internal dependence ID):

    * ``last_writer`` — internal task ID of the last writer (``-1`` when none)
    * ``last_writer_valid`` — 0/1 valid bit for ``last_writer``
    * ``reader_list`` — Reader List Array head handle (``-1`` when absent)
    * ``valid`` — 0/1 occupancy bit
    * ``address`` / ``size`` — the dependence address this entry aliases
      (model-level bookkeeping, not a Figure-4 field: the DMU needs it to
      release the DAT mapping when the entry is recycled)
    """

    def __init__(self, num_entries: int) -> None:
        if num_entries < 1:
            raise ValueError("num_entries must be >= 1")
        self.num_entries = num_entries
        self.last_writer: List[int] = []
        self.last_writer_valid: List[int] = []
        self.reader_list: List[int] = []
        self.valid: List[int] = []
        self.address: List[int] = []
        self.size: List[int] = []
        self._size = 0
        self.peak_occupancy = 0
        self._occupancy = 0

    @property
    def occupancy(self) -> int:
        return self._occupancy

    def _grow_to(self, size: int) -> None:
        extra = size - self._size
        padding = [0] * extra
        self.last_writer.extend(padding)
        self.last_writer_valid.extend(padding)
        self.reader_list.extend(padding)
        self.valid.extend(padding)
        self.address.extend(padding)
        self.size.extend(padding)
        self._size = size

    def install(self, dep_id: int, address: int = 0, size: int = 0) -> None:
        """Initialize the columns for ``dep_id`` (first add_dependence of an address)."""
        if not (0 <= dep_id < self.num_entries):
            raise DMUProtocolError(
                f"dependence id {dep_id} out of range [0, {self.num_entries})"
            )
        if dep_id >= self._size:
            self._grow_to(dep_id + 1)
        elif self.valid[dep_id]:
            raise DMUProtocolError(f"Dependence Table entry {dep_id} is already in use")
        self.last_writer[dep_id] = -1
        self.last_writer_valid[dep_id] = 0
        self.reader_list[dep_id] = -1
        self.valid[dep_id] = 1
        self.address[dep_id] = address
        self.size[dep_id] = size
        self._occupancy += 1
        if self._occupancy > self.peak_occupancy:
            self.peak_occupancy = self._occupancy

    def require(self, dep_id: int) -> int:
        """Bounds/validity check; returns ``dep_id`` for chaining."""
        if 0 <= dep_id < self._size and self.valid[dep_id]:
            return dep_id
        if 0 <= dep_id < self.num_entries:
            raise DMUProtocolError(f"Dependence Table entry {dep_id} is not valid")
        raise DMUProtocolError(
            f"dependence id {dep_id} out of range [0, {self.num_entries})"
        )

    def free(self, dep_id: int) -> None:
        if not (0 <= dep_id < self.num_entries):
            raise DMUProtocolError(
                f"dependence id {dep_id} out of range [0, {self.num_entries})"
            )
        if dep_id >= self._size or not self.valid[dep_id]:
            raise DMUProtocolError(f"Dependence Table entry {dep_id} is already free")
        self.valid[dep_id] = 0
        self._occupancy -= 1

    def is_valid(self, dep_id: int) -> bool:
        if 0 <= dep_id < self.num_entries:
            return dep_id < self._size and bool(self.valid[dep_id])
        raise DMUProtocolError(
            f"dependence id {dep_id} out of range [0, {self.num_entries})"
        )
