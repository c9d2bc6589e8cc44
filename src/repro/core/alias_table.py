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

The table is count-only: a set's ways are not stored, because nothing reads
them.  Lookups go through the address → ID directory and a full set blocks
instead of evicting, so the observable state is which ID an address gets,
whether its set still has a free way, and the occupancy counts.  The table
keeps a live-way count per touched set index (a dict, so "ideal"
configurations with 2^20 entries never pay for untouched sets) and the
address → set map that a release needs.  Internal IDs keep the fresh-counter
+ recycled-LIFO-stack scheme: recycling order is observable (it decides
which Task/Dependence Table row a new allocation lands in) and is pinned by
the digest tests.  Every ID handed out is either mapped or on the recycled
stack, so the fresh counter is the directory size whenever the stack is
empty.
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
        self._by_address: Dict[int, int] = {}
        self._set_of_address: Dict[int, int] = {}
        # Live-way count per touched set index, and the number of sets whose
        # count is non-zero (sampled once per add_dependence, so it is
        # maintained rather than rescanned).
        self._set_count: Dict[int, int] = {}
        self._occupied_sets = 0
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
        return (
            len(self._by_address) < self.num_entries
            and self._set_count.get(set_index, 0) < self.associativity
        )

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
        occupancy = len(by_address)
        if occupancy >= self.num_entries:
            self.capacity_rejections += 1
            raise DMUStructureFullError(self.name, f"{self.name}: no free IDs")
        ways = self._set_count.get(set_index, 0)
        if ways >= self.associativity:
            self.conflict_rejections += 1
            raise DMUStructureFullError(
                self.name, f"{self.name}: set {set_index} has no free way"
            )
        internal_id = self._recycled_ids.pop() if self._recycled_ids else occupancy
        if not ways:
            self._occupied_sets += 1
        self._set_count[set_index] = ways + 1
        by_address[address] = internal_id
        self._set_of_address[address] = set_index
        self.allocations += 1
        if occupancy >= self.peak_occupancy:
            self.peak_occupancy = occupancy + 1
        return internal_id

    def release(self, address: int) -> int:
        """Remove the mapping for ``address`` and return its ID to the free queue."""
        internal_id = self._by_address.pop(address, None)
        if internal_id is None:
            raise KeyError(f"{self.name}: address {address:#x} is not mapped")
        set_index = self._set_of_address.pop(address)
        ways = self._set_count[set_index] - 1
        self._set_count[set_index] = ways
        if not ways:
            self._occupied_sets -= 1
        self._recycled_ids.append(internal_id)
        return internal_id

    def audit(self) -> Dict[str, int]:
        """Whole-structure occupancy recount from the address → set map.

        Bypasses every maintained counter: the per-set live-way counts are
        recounted from the map, ``miscounted_sets`` is the number of set
        indexes whose maintained count disagrees with the recount, and
        ``fullest_set`` (which must not exceed the associativity) is the
        largest recount.  The differential tests compare this ground truth
        against ``occupied_sets()`` and the address directory.
        """
        recount: Dict[int, int] = {}
        for set_index in self._set_of_address.values():
            recount[set_index] = recount.get(set_index, 0) + 1
        touched = recount.keys() | self._set_count.keys()
        return {
            "occupied_sets": len(recount),
            "entries_in_use": len(self._set_of_address),
            "directory_entries": len(self._by_address),
            "fullest_set": max(recount.values(), default=0),
            "miscounted_sets": sum(
                recount.get(index, 0) != self._set_count.get(index, 0) for index in touched
            ),
        }

    def __contains__(self, address: int) -> bool:
        return address in self._by_address

    def __len__(self) -> int:
        return self.entries_in_use

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AliasTable({self.name!r}, {self.entries_in_use}/{self.num_entries} entries, "
            f"{self.num_sets}x{self.associativity})"
        )
