"""Task and Dependence Alias Tables (TAT / DAT).

The alias tables translate 64-bit task-descriptor or dependence addresses
into small internal IDs so that the rest of the DMU can use cheap
direct-access SRAMs and narrow list elements.  Each table is a set-
associative directory plus a queue of free IDs (Section III-B1 of the paper).

The DAT additionally uses *dynamic index-bit selection*: because different
tasks frequently access different blocks of the same data structure, the low
bits of their dependence addresses are identical and a naive index would map
everything to one set.  The DMU therefore starts the index bits at
``log2(size)`` of the dependence (Section III-B1 / Section V-E), which this
module implements in :func:`dat_index_start_bit`.

Way storage is struct-of-arrays: each touched set owns a fixed slab of
``associativity`` slots in two flat parallel columns (``way address`` and
``way internal-ID``) plus an incremental per-set occupancy count — no tuple
is allocated per way insertion, and eviction shifts the short slab in place
to preserve way order.  Slabs are assigned lazily on a set's first
allocation so "ideal" configurations (2^20 entries) never pay for untouched
sets.  Internal IDs keep the fresh-counter + recycled-LIFO-stack scheme:
recycling order is observable (it decides which Task/Dependence Table row a
new allocation lands in) and is pinned by the digest tests.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..errors import DMUStructureFullError


def dat_index_start_bit(size: int) -> int:
    """Index start bit for a dependence of ``size`` bytes (dynamic selection).

    The paper: "the size of the dependence is used to select the address bits
    used as index, which start at the log2(size) lower bit".  Sizes that are
    not powers of two round down, and degenerate sizes fall back to bit 0.
    """
    if size <= 1:
        return 0
    return size.bit_length() - 1


def _nothing_pending() -> None:
    """Default :attr:`AliasTable.commit_pending`: no counter is batched."""


class AliasTable:
    """Set-associative address → internal-ID directory with a free-ID queue."""

    def __init__(
        self,
        name: str,
        num_entries: int,
        associativity: int,
        index_start_bit: int = 0,
        dynamic_index: bool = False,
    ) -> None:
        if num_entries % associativity != 0:
            raise ValueError("num_entries must be a multiple of associativity")
        self.name = name
        self.num_entries = num_entries
        self.associativity = associativity
        self.num_sets = num_entries // associativity
        self.index_start_bit = index_start_bit
        self.dynamic_index = dynamic_index
        # Way columns: set with slab number s owns slots
        # [s * associativity, (s + 1) * associativity) of both columns, with
        # its live-way count in _set_count[s].  Slabs are handed out lazily.
        self._slab_of_set: Dict[int, int] = {}
        self._way_address: List[int] = []
        self._way_id: List[int] = []
        self._set_count: List[int] = []
        self._by_address: Dict[int, int] = {}
        self._slab_of_address: Dict[int, int] = {}
        # Occupied-set count maintained incrementally: allocate/release keep
        # it in sync so occupancy sampling (once per add_dependence) does not
        # rescan every set.
        self._occupied_sets = 0
        # Internal IDs are handed out lazily (fresh counter + recycled stack)
        # so that very large "ideal" configurations cost nothing up front.
        self._next_fresh_id = 0
        self._recycled_ids: List[int] = []
        #: Called before every read of ``lookups`` or the occupancy average.
        #: The owning DMU batches those counters and installs its commit here.
        self.commit_pending: Callable[[], None] = _nothing_pending
        # statistics
        self._lookups = 0
        self.allocations = 0
        self.conflict_rejections = 0
        self.capacity_rejections = 0
        self.peak_occupancy = 0
        self._occupied_set_samples = 0
        self._occupied_set_total = 0

    # ------------------------------------------------------------------ indexing
    def set_index(self, address: int, size: int = 1) -> int:
        """Set selected for ``address`` (honouring dynamic index-bit selection)."""
        start_bit = dat_index_start_bit(size) if self.dynamic_index else self.index_start_bit
        return (address >> start_bit) % self.num_sets

    # ------------------------------------------------------------------ occupancy
    @property
    def entries_in_use(self) -> int:
        return len(self._by_address)

    @property
    def free_entries(self) -> int:
        return self.num_entries - len(self._by_address)

    def occupied_sets(self) -> int:
        """Number of sets that currently hold at least one valid entry."""
        return self._occupied_sets

    def sample_occupancy(self) -> None:
        """Record the current occupied-set count (drives Figure 11)."""
        self._occupied_set_samples += 1
        self._occupied_set_total += self._occupied_sets

    def average_occupied_sets(self) -> float:
        """Mean number of occupied sets over all samples taken so far."""
        self.commit_pending()
        if self._occupied_set_samples == 0:
            return 0.0
        return self._occupied_set_total / self._occupied_set_samples

    @property
    def lookups(self) -> int:
        """Associative lookups performed so far."""
        self.commit_pending()
        return self._lookups

    # ------------------------------------------------------------------ operations
    def lookup(self, address: int) -> Optional[int]:
        """Return the internal ID mapped to ``address`` (None on miss)."""
        self._lookups += 1
        return self._by_address.get(address)

    def can_allocate(self, address: int, size: int = 1) -> bool:
        """True when ``address`` could be inserted right now without blocking."""
        if address in self._by_address:
            return True
        return self.has_room(self.set_index(address, size))

    def has_room(self, set_index: int) -> bool:
        """True when a new address that maps to ``set_index`` fits right now."""
        if self.num_entries - len(self._by_address) <= 0:
            return False
        slab = self._slab_of_set.get(set_index)
        return slab is None or self._set_count[slab] < self.associativity

    def allocate(self, address: int, size: int = 1) -> int:
        """Map ``address`` to a fresh internal ID (or return the existing one).

        Raises :class:`DMUStructureFullError` when either no free ID remains
        (capacity rejection) or the selected set has no free way (conflict
        rejection); the two causes are counted separately because the
        index-bit-selection experiment distinguishes them.
        """
        existing = self._by_address.get(address)
        if existing is not None:
            return existing
        return self.allocate_in_set(address, self.set_index(address, size))

    def allocate_in_set(self, address: int, set_index: int) -> int:
        """:meth:`allocate` for an unmapped ``address`` whose set is known.

        Lets a caller that already computed ``set_index`` for its
        :meth:`has_room` pre-check skip computing it again.
        """
        by_address = self._by_address
        if self.num_entries - len(by_address) <= 0:
            self.capacity_rejections += 1
            raise DMUStructureFullError(self.name, f"{self.name}: no free IDs")
        set_count = self._set_count
        slab = self._slab_of_set.get(set_index)
        if slab is None:
            slab = len(set_count)
            self._slab_of_set[set_index] = slab
            blank = (-1,) * self.associativity
            self._way_address.extend(blank)
            self._way_id.extend(blank)
            set_count.append(0)
        count = set_count[slab]
        if count >= self.associativity:
            self.conflict_rejections += 1
            raise DMUStructureFullError(
                self.name, f"{self.name}: set {set_index} has no free way"
            )
        if self._recycled_ids:
            internal_id = self._recycled_ids.pop()
        else:
            internal_id = self._next_fresh_id
            self._next_fresh_id += 1
        if count == 0:
            self._occupied_sets += 1
        slot = slab * self.associativity + count
        self._way_address[slot] = address
        self._way_id[slot] = internal_id
        set_count[slab] = count + 1
        by_address[address] = internal_id
        self._slab_of_address[address] = slab
        self.allocations += 1
        occupancy = len(by_address)
        if occupancy > self.peak_occupancy:
            self.peak_occupancy = occupancy
        return internal_id

    def release(self, address: int) -> int:
        """Remove the mapping for ``address`` and return its ID to the free queue."""
        internal_id = self._by_address.pop(address, None)
        if internal_id is None:
            raise KeyError(f"{self.name}: address {address:#x} is not mapped")
        slab = self._slab_of_address.pop(address)
        count = self._set_count[slab] - 1
        self._set_count[slab] = count
        base = slab * self.associativity
        last = base + count
        way_address = self._way_address
        way_id = self._way_id
        # Close the gap by shifting the (short) slab tail left one slot —
        # preserves way order exactly like the old ``del ways[position]`` on
        # a per-set list.
        slot = way_address.index(address, base, last + 1)
        way_address[slot:last] = way_address[slot + 1 : last + 1]
        way_id[slot:last] = way_id[slot + 1 : last + 1]
        way_address[last] = -1
        way_id[last] = -1
        if not count:
            self._occupied_sets -= 1
        self._recycled_ids.append(internal_id)
        return internal_id

    def audit(self) -> Dict[str, int]:
        """Whole-structure occupancy recount from the raw way columns.

        Bypasses every maintained counter; the differential tests compare
        this ground truth against ``_occupied_sets`` and the address
        directory.
        """
        occupied_sets = 0
        entries_in_use = 0
        for count in self._set_count:
            if count:
                occupied_sets += 1
                entries_in_use += count
        return {
            "occupied_sets": occupied_sets,
            "entries_in_use": entries_in_use,
            "directory_entries": len(self._by_address),
        }

    def address_of(self, internal_id: int) -> Optional[int]:
        """Reverse lookup (used by tests and debugging; not a hardware path)."""
        for address, mapped in self._by_address.items():
            if mapped == internal_id:
                return address
        return None

    def __contains__(self, address: int) -> bool:
        return address in self._by_address

    def __len__(self) -> int:
        return self.entries_in_use

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AliasTable({self.name!r}, {self.entries_in_use}/{self.num_entries} entries, "
            f"{self.num_sets}x{self.associativity})"
        )
