"""Inode-style list arrays (Figure 5 of the paper), stored columnar.

A list array is an SRAM that stores many variable-length lists of small IDs.
Each entry holds a fixed number of element slots plus a ``Next`` field that
points to the entry where the list continues; the ``Next`` field of the last
entry points to the entry itself.  Invalid element slots hold a marker
(:data:`INVALID_ELEMENT`).

The DMU uses three list arrays: the Successor List Array (task IDs), the
Dependence List Array (dependence IDs) and the Reader List Array (task IDs).
They share this implementation.

Storage is struct-of-arrays rather than object-per-entry: all entries'
element slots live in one flat list (entry ``i`` owns slots
``[i * elements_per_entry, (i + 1) * elements_per_entry)``) beside parallel
``next``/``in_use``/``valid`` columns indexed by entry.  Entry *handles* are
plain ints; no per-entry object is ever allocated on the DMU instruction
path.  Columns grow on demand so that very large ("ideal", effectively
unlimited) configurations cost nothing until entries are actually used.

Three per-list columns (meaningful at a list's *head* entry only) make the
DMU's uncharged capacity pre-checks O(1) instead of a chain walk:
``_list_valid`` (total valid elements in the chain), ``_list_entries``
(chain length in entries) and ``_tail`` (last entry of the chain).

Every mutating method returns the number of SRAM entry accesses it performed
so the DMU can charge the corresponding latency.  The access counts are part
of the timing model (and therefore of the pinned byte-identical CSV
digests), so performance work here may only change *how* a walk is executed,
never how many entries it visits.  ``append_only`` arrays (no ``remove``/
``flush``) exploit the invariant that only the tail entry can have free
slots to compute the charged walk length arithmetically.

Entry recycling order is observable (it decides which SRAM entry a new list
lands in, and the corrupted-chain guards walk real indices), so the free
list is a LIFO stack exactly like the object-based implementation it
replaced: ``_release_entry`` pushes, ``_allocate_entry`` pops, and fresh
indices are handed out in increasing order only when the stack is empty.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

from ..errors import DMUStructureFullError

#: Marker stored in unused element slots.  The hardware sets invalid elements
#: to all ones; the model uses -1, which lies outside the ID space by
#: construction (internal IDs count up from zero), so no configuration size
#: can make a live ID collide with it.
INVALID_ELEMENT = -1


class ListArray:
    """A pool of inode-style linked lists with explicit capacity accounting."""

    def __init__(
        self,
        name: str,
        num_entries: int,
        elements_per_entry: int,
        append_only: bool = False,
    ) -> None:
        if num_entries < 1:
            raise ValueError("num_entries must be >= 1")
        if elements_per_entry < 1:
            raise ValueError("elements_per_entry must be >= 1")
        self.name = name
        self.num_entries = num_entries
        self.elements_per_entry = elements_per_entry
        #: Append-only arrays reject ``remove``/``flush``; in exchange the
        #: append path needs no chain walk (only the tail can be non-full).
        self.append_only = append_only
        # Columnar storage, grown lazily as fresh entries are touched.
        self._elements: List[int] = []  # flat slot slab
        self._next: List[int] = []  # Next pointer (self-loop at tail)
        self._in_use: List[int] = []  # 0/1 per entry
        self._valid: List[int] = []  # valid-slot count per entry
        # Per-list columns, read/written at the head entry's index only.
        self._list_valid: List[int] = []
        self._list_entries: List[int] = []
        self._tail: List[int] = []
        self._recycled: List[int] = []
        self._next_fresh_index = 0
        self.peak_entries_used = 0
        #: Number of SRAM entries not currently assigned to any list.  A
        #: plain attribute maintained by allocate/release (not a property):
        #: the DMU reads it in every capacity pre-check.
        self.free_entries = num_entries
        # All-invalid slot row, slice-assigned to blank an entry in one C
        # call instead of a per-slot Python loop.
        self._blank_row = (INVALID_ELEMENT,) * elements_per_entry

    # ------------------------------------------------------------------ capacity
    @property
    def entries_in_use(self) -> int:
        return self.num_entries - self.free_entries

    def _allocate_entry(self) -> int:
        free = self.free_entries
        if free <= 0:
            raise DMUStructureFullError(self.name)
        if self._recycled:
            # _release_entry already blanked the slots and reset the columns.
            index = self._recycled.pop()
        else:
            index = self._next_fresh_index
            self._next_fresh_index = index + 1
            self._elements.extend(self._blank_row)
            self._next.append(index)
            self._in_use.append(0)
            self._valid.append(0)
            self._list_valid.append(0)
            self._list_entries.append(0)
            self._tail.append(index)
        self._in_use[index] = 1
        self._next[index] = index
        self.free_entries = free - 1
        in_use = self.num_entries - free + 1
        if in_use > self.peak_entries_used:
            self.peak_entries_used = in_use
        return index

    def _release_entry(self, index: int) -> None:
        self._in_use[index] = 0
        base = index * self.elements_per_entry
        self._elements[base : base + self.elements_per_entry] = self._blank_row
        self._valid[index] = 0
        self._next[index] = index
        self.free_entries += 1
        self._recycled.append(index)

    # ------------------------------------------------------------------ list API
    def new_list_head(self) -> int:
        """Allocate an empty list; returns the head handle (always 1 access).

        The no-tuple variant of :meth:`new_list` for the DMU's hot create
        path, where the access count is a known constant.
        """
        head = self._allocate_entry()
        self._list_valid[head] = 0
        self._list_entries[head] = 1
        self._tail[head] = head
        return head

    def new_list(self) -> Tuple[int, int]:
        """Allocate an empty list; returns ``(head_handle, accesses)``."""
        return self.new_list_head(), 1

    def appending_needs_new_entry(self, head: int) -> bool:
        """True when the list's *tail entry* is full — the pre-rewrite
        (object-model) semantics, which the DMU's blocking behavior is
        pinned to.

        Note this is deliberately NOT "no free slot anywhere": after
        ``remove`` leaves a hole in a non-tail entry, ``append`` fills the
        hole without allocating, but the historical pre-check still reported
        True (it walked to the tail and looked only there) and the DMU
        therefore blocked on exhausted capacity.  O(1) here via the
        maintained tail column instead of the walk.
        """
        if not self._in_use[head]:
            raise ValueError(f"{self.name}: list head {head} references a free entry")
        return self._valid[self._tail[head]] == self.elements_per_entry

    def append(self, head: int, value: int) -> int:
        """Append ``value`` to the list starting at ``head``; returns accesses.

        Raises :class:`DMUStructureFullError` when a new entry is needed and
        the array is exhausted; the caller is expected to have checked
        capacity first (the DMU pre-checks before mutating any structure).
        """
        if value == INVALID_ELEMENT:
            raise ValueError("cannot store the invalid-element marker")
        per_entry = self.elements_per_entry
        valid = self._valid
        list_valid = self._list_valid
        if self.append_only:
            # Only the tail can be non-full, so the charged walk length is
            # known without walking: the walk of the general path below
            # visits every entry up to (and including) the first one with a
            # free slot, and slots fill left to right with no holes.
            if not self._in_use[head]:
                raise ValueError(f"{self.name}: list head {head} references a free entry")
            chain_entries = self._list_entries[head]
            tail = self._tail[head]
            tail_valid = valid[tail]
            if tail_valid < per_entry:
                self._elements[tail * per_entry + tail_valid] = value
                valid[tail] = tail_valid + 1
                list_valid[head] += 1
                return chain_entries
            new_index = self._allocate_entry()
            self._next[tail] = new_index
            self._elements[new_index * per_entry] = value
            valid[new_index] = 1
            self._tail[head] = new_index
            self._list_entries[head] = chain_entries + 1
            list_valid[head] += 1
            return chain_entries + 1
        elements = self._elements
        next_column = self._next
        accesses = 0
        index = head
        while True:
            accesses += 1
            entry_valid = valid[index]
            if entry_valid < per_entry:
                # First free slot, located with the C-level scan (invalid
                # slots hold the marker, so index() finds the same slot the
                # old per-slot loop did).
                base = index * per_entry
                slot = elements.index(INVALID_ELEMENT, base, base + per_entry)
                elements[slot] = value
                valid[index] = entry_valid + 1
                list_valid[head] += 1
                return accesses
            next_index = next_column[index]
            if next_index == index:
                new_index = self._allocate_entry()
                accesses += 1
                next_column[index] = new_index
                elements[new_index * per_entry] = value
                valid[new_index] = 1
                self._tail[head] = new_index
                self._list_entries[head] += 1
                list_valid[head] += 1
                return accesses
            index = next_index

    def iterate(self, head: int) -> Tuple[List[int], int]:
        """Return ``(values, accesses)`` for the whole list."""
        elements = self._elements
        next_column = self._next
        in_use = self._in_use
        valid = self._valid
        per_entry = self.elements_per_entry
        if next_column[head] == head:
            # Single-entry chain: the overwhelmingly common shape.
            if not in_use[head]:
                raise ValueError(f"{self.name}: list head {head} references a free entry")
            entry_valid = valid[head]
            base = head * per_entry
            if entry_valid == per_entry:
                return elements[base : base + per_entry], 1
            if not entry_valid:
                return [], 1
            if self.append_only:
                # Slots fill left to right with no holes.
                return elements[base : base + entry_valid], 1
            return (
                [
                    element
                    for element in elements[base : base + per_entry]
                    if element != INVALID_ELEMENT
                ],
                1,
            )
        values: List[int] = []
        accesses = 0
        index = head
        while True:
            accesses += 1
            if not in_use[index]:
                raise ValueError(f"{self.name}: list head {head} references a free entry")
            entry_valid = valid[index]
            if entry_valid:
                base = index * per_entry
                if entry_valid == per_entry:
                    values.extend(elements[base : base + per_entry])
                elif self.append_only:
                    # Only the tail can be partial, and it has no holes.
                    values.extend(elements[base : base + entry_valid])
                else:
                    values.extend(
                        [
                            element
                            for element in elements[base : base + per_entry]
                            if element != INVALID_ELEMENT
                        ]
                    )
            next_index = next_column[index]
            if next_index == index:
                return values, accesses
            if accesses > self.num_entries:
                raise ValueError(f"{self.name}: corrupted list chain starting at {head}")
            index = next_index

    def remove(self, head: int, value: int) -> Tuple[bool, int]:
        """Remove the first occurrence of ``value``; returns ``(found, accesses)``."""
        if self.append_only:
            raise ValueError(f"{self.name}: remove() on an append-only list array")
        elements = self._elements
        next_column = self._next
        in_use = self._in_use
        valid = self._valid
        per_entry = self.elements_per_entry
        if next_column[head] == head:
            # Single-entry chain fast path.
            if not in_use[head]:
                raise ValueError(f"{self.name}: list head {head} references a free entry")
            if valid[head]:
                base = head * per_entry
                row = elements[base : base + per_entry]
                if value in row:
                    elements[base + row.index(value)] = INVALID_ELEMENT
                    valid[head] -= 1
                    self._list_valid[head] -= 1
                    return True, 1
            return False, 1
        accesses = 0
        index = head
        while True:
            accesses += 1
            if not in_use[index]:
                raise ValueError(f"{self.name}: list head {head} references a free entry")
            if valid[index]:
                base = index * per_entry
                row = elements[base : base + per_entry]
                if value in row:
                    elements[base + row.index(value)] = INVALID_ELEMENT
                    valid[index] -= 1
                    self._list_valid[head] -= 1
                    return True, accesses
            next_index = next_column[index]
            if next_index == index:
                return False, accesses
            if accesses > self.num_entries:
                raise ValueError(f"{self.name}: corrupted list chain starting at {head}")
            index = next_index

    def flush(self, head: int) -> int:
        """Empty the list (keeping its head entry allocated); returns accesses.

        Used for "Flush reader list of depID" in Algorithm 1.
        """
        if self.append_only:
            raise ValueError(f"{self.name}: flush() on an append-only list array")
        next_column = self._next
        in_use = self._in_use
        if not in_use[head]:
            raise ValueError(f"{self.name}: list head {head} references a free entry")
        accesses = 1
        index = next_column[head]
        if index != head:
            while True:
                if not in_use[index]:
                    raise ValueError(
                        f"{self.name}: list head {head} references a free entry"
                    )
                accesses += 1
                if accesses > self.num_entries:
                    raise ValueError(f"{self.name}: corrupted list chain starting at {head}")
                next_index = next_column[index]
                self._release_entry(index)
                if next_index == index:
                    break
                index = next_index
        base = head * self.elements_per_entry
        self._elements[base : base + self.elements_per_entry] = self._blank_row
        self._valid[head] = 0
        next_column[head] = head
        self._list_valid[head] = 0
        self._list_entries[head] = 1
        self._tail[head] = head
        return accesses

    def free_list(self, head: int) -> int:
        """Release every entry of the list; returns accesses."""
        next_column = self._next
        in_use = self._in_use
        if next_column[head] == head:
            # Single-entry chain fast path.
            if not in_use[head]:
                raise ValueError(f"{self.name}: list head {head} references a free entry")
            self._release_entry(head)
            return 1
        accesses = 0
        index = head
        while True:
            if not in_use[index]:
                raise ValueError(f"{self.name}: list head {head} references a free entry")
            accesses += 1
            if accesses > self.num_entries:
                raise ValueError(f"{self.name}: corrupted list chain starting at {head}")
            next_index = next_column[index]
            self._release_entry(index)
            if next_index == index:
                return accesses
            index = next_index

    def length(self, head: int) -> int:
        """Number of valid elements in the list (no access accounting)."""
        if not self._in_use[head]:
            raise ValueError(f"{self.name}: list head {head} references a free entry")
        return self._list_valid[head]

    def is_empty(self, head: int) -> bool:
        """True when the list holds no valid element."""
        return self.length(head) == 0

    def entries_of(self, head: int) -> int:
        """Number of SRAM entries the list currently spans."""
        if not self._in_use[head]:
            raise ValueError(f"{self.name}: list head {head} references a free entry")
        return self._list_entries[head]

    def audit(self) -> Dict[str, int]:
        """Whole-structure occupancy recount from the raw columns.

        Bypasses every maintained counter; the differential tests compare
        this ground truth against ``free_entries`` and ``_list_valid``.
        """
        entries_in_use = 0
        for flag in self._in_use:
            if flag:
                entries_in_use += 1
        live_elements = 0
        for element in self._elements:
            if element != INVALID_ELEMENT:
                live_elements += 1
        valid_total = 0
        for count in self._valid:
            valid_total += count
        return {
            "entries_in_use": entries_in_use,
            "free_entries": self.num_entries - entries_in_use,
            "live_elements": live_elements,
            "valid_total": valid_total,
        }

    # ------------------------------------------------------------------ internals
    def _walk(self, head: int) -> Iterator[int]:
        """Follow the chain from ``head`` (validation and tests only)."""
        index = head
        visited = 0
        while True:
            if not self._in_use[index]:
                raise ValueError(f"{self.name}: list head {head} references a free entry")
            yield index
            visited += 1
            if visited > self.num_entries:
                raise ValueError(f"{self.name}: corrupted list chain starting at {head}")
            if self._next[index] == index:
                return
            index = self._next[index]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ListArray({self.name!r}, {self.entries_in_use}/{self.num_entries} entries, "
            f"{self.elements_per_entry} elems/entry)"
        )
