"""Differential tests: columnar DMU structures vs object-model references.

The columnar rewrite of :class:`ListArray` / :class:`AliasTable` /
:class:`TaskTable` must be *observationally identical* to the
object-per-entry implementations it replaced: same results, same SRAM
access counts (they are part of the pinned timing model), and the same
entry-recycling / way-eviction order (it decides which SRAM entry a new
list or mapping lands in, which is observable through handles).

Each reference model below is a faithful port of the pre-rewrite
implementation (per-entry ``__slots__`` objects, per-set way lists, LIFO
free stacks).  Random op sequences drive the real and the reference model
in lockstep and every return value, exception, counter and handle is
compared.  Handles are compared *exactly*: both sides hand out entry
indices from the same fresh-counter + recycled-LIFO scheme, so any
divergence in recycle order shows up as a handle mismatch.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

import pytest

from repro.config import DMUConfig
from repro.core.alias_table import AliasTable
from repro.core.dmu import DependenceManagementUnit
from repro.core.isa import DMUBlocked
from repro.core.list_array import INVALID_ELEMENT, ListArray
from repro.core.task_table import TaskTable
from repro.errors import DMUProtocolError, DMUStructureFullError


# --------------------------------------------------------------------------
# Reference models (ports of the pre-columnar, object-per-entry code)
# --------------------------------------------------------------------------
class _RefListEntry:
    __slots__ = ("elements", "next_index", "in_use", "valid")

    def __init__(self, elements: List[int], next_index: int) -> None:
        self.elements = elements
        self.next_index = next_index
        self.in_use = False
        self.valid = len(elements) - elements.count(INVALID_ELEMENT)


class RefListArray:
    """Object-per-entry list array with the original walk algorithms."""

    def __init__(self, name: str, num_entries: int, elements_per_entry: int) -> None:
        self.name = name
        self.num_entries = num_entries
        self.elements_per_entry = elements_per_entry
        self._entries: Dict[int, _RefListEntry] = {}
        self._recycled: List[int] = []
        self._next_fresh_index = 0
        self.peak_entries_used = 0
        self.free_entries = num_entries
        self._blank_row = (INVALID_ELEMENT,) * elements_per_entry

    def _allocate_entry(self) -> int:
        free = self.free_entries
        if free <= 0:
            raise DMUStructureFullError(self.name)
        if self._recycled:
            index = self._recycled.pop()
            entry = self._entries[index]
        else:
            index = self._next_fresh_index
            self._next_fresh_index = index + 1
            entry = _RefListEntry(list(self._blank_row), next_index=index)
            self._entries[index] = entry
        entry.in_use = True
        entry.next_index = index
        self.free_entries = free - 1
        in_use = self.num_entries - free + 1
        if in_use > self.peak_entries_used:
            self.peak_entries_used = in_use
        return index

    def _release_entry(self, index: int) -> None:
        entry = self._entries[index]
        entry.in_use = False
        entry.elements[:] = self._blank_row
        entry.valid = 0
        entry.next_index = index
        self.free_entries += 1
        self._recycled.append(index)

    def new_list(self) -> Tuple[int, int]:
        return self._allocate_entry(), 1

    def appending_needs_new_entry(self, head: int) -> bool:
        index = head
        visited = 0
        while True:
            entry = self._entries[index]
            if not entry.in_use:
                raise ValueError("free entry")
            visited += 1
            if entry.next_index == index:
                return entry.valid == self.elements_per_entry
            if visited > self.num_entries:
                raise ValueError("corrupted chain")
            index = entry.next_index

    def append(self, head: int, value: int) -> int:
        accesses = 0
        index = head
        while True:
            accesses += 1
            entry = self._entries[index]
            if entry.valid < self.elements_per_entry:
                elements = entry.elements
                elements[elements.index(INVALID_ELEMENT)] = value
                entry.valid += 1
                return accesses
            next_index = entry.next_index
            if next_index == index:
                new_index = self._allocate_entry()
                accesses += 1
                entry.next_index = new_index
                new_entry = self._entries[new_index]
                new_entry.elements[0] = value
                new_entry.valid = 1
                return accesses
            index = next_index

    def iterate(self, head: int) -> Tuple[List[int], int]:
        values: List[int] = []
        accesses = 0
        index = head
        while True:
            accesses += 1
            entry = self._entries[index]
            if not entry.in_use:
                raise ValueError("free entry")
            values.extend(e for e in entry.elements if e != INVALID_ELEMENT)
            if entry.next_index == index:
                return values, accesses
            index = entry.next_index

    def remove(self, head: int, value: int) -> Tuple[bool, int]:
        accesses = 0
        index = head
        while True:
            accesses += 1
            entry = self._entries[index]
            if not entry.in_use:
                raise ValueError("free entry")
            if entry.valid and value in entry.elements:
                entry.elements[entry.elements.index(value)] = INVALID_ELEMENT
                entry.valid -= 1
                return True, accesses
            if entry.next_index == index:
                return False, accesses
            index = entry.next_index

    def flush(self, head: int) -> int:
        head_entry = self._entries[head]
        if not head_entry.in_use:
            raise ValueError("free entry")
        accesses = 1
        index = head_entry.next_index
        if index != head:
            while True:
                entry = self._entries[index]
                accesses += 1
                next_index = entry.next_index
                self._release_entry(index)
                if next_index == index:
                    break
                index = next_index
        head_entry.elements[:] = self._blank_row
        head_entry.valid = 0
        head_entry.next_index = head
        return accesses

    def free_list(self, head: int) -> int:
        accesses = 0
        index = head
        while True:
            entry = self._entries[index]
            if not entry.in_use:
                raise ValueError("free entry")
            accesses += 1
            next_index = entry.next_index
            self._release_entry(index)
            if next_index == index:
                return accesses
            index = next_index

    def length(self, head: int) -> int:
        total = 0
        index = head
        while True:
            entry = self._entries[index]
            if not entry.in_use:
                raise ValueError("free entry")
            total += entry.valid
            if entry.next_index == index:
                return total
            index = entry.next_index

    def entries_of(self, head: int) -> int:
        count = 0
        index = head
        while True:
            entry = self._entries[index]
            if not entry.in_use:
                raise ValueError("free entry")
            count += 1
            if entry.next_index == index:
                return count
            index = entry.next_index


class RefAliasTable:
    """Per-set way lists + free-ID LIFO, as in the pre-columnar AliasTable."""

    def __init__(self, num_entries: int, associativity: int) -> None:
        self.num_entries = num_entries
        self.associativity = associativity
        self.num_sets = num_entries // associativity
        self._sets: Dict[int, List[Tuple[int, int]]] = {}
        self._by_address: Dict[int, int] = {}
        self._address_set: Dict[int, int] = {}
        self._occupied_sets = 0
        self._next_fresh_id = 0
        self._recycled_ids: List[int] = []
        self.conflict_rejections = 0
        self.capacity_rejections = 0
        self.peak_occupancy = 0

    def set_index(self, address: int) -> int:
        return address % self.num_sets

    @property
    def free_entries(self) -> int:
        return self.num_entries - len(self._by_address)

    def occupied_sets(self) -> int:
        return self._occupied_sets

    def lookup(self, address: int) -> Optional[int]:
        return self._by_address.get(address)

    def can_allocate(self, address: int) -> bool:
        if address in self._by_address:
            return True
        if self.free_entries <= 0:
            return False
        ways = self._sets.get(self.set_index(address), [])
        return len(ways) < self.associativity

    def allocate(self, address: int) -> int:
        existing = self._by_address.get(address)
        if existing is not None:
            return existing
        if self.free_entries <= 0:
            self.capacity_rejections += 1
            raise DMUStructureFullError("ref")
        set_index = self.set_index(address)
        ways = self._sets.setdefault(set_index, [])
        if len(ways) >= self.associativity:
            self.conflict_rejections += 1
            raise DMUStructureFullError("ref")
        if self._recycled_ids:
            internal_id = self._recycled_ids.pop()
        else:
            internal_id = self._next_fresh_id
            self._next_fresh_id += 1
        if not ways:
            self._occupied_sets += 1
        ways.append((address, internal_id))
        self._by_address[address] = internal_id
        self._address_set[address] = set_index
        self.peak_occupancy = max(self.peak_occupancy, len(self._by_address))
        return internal_id

    def release(self, address: int) -> int:
        internal_id = self._by_address.pop(address)
        set_index = self._address_set.pop(address)
        ways = self._sets.get(set_index, [])
        for position, (way_address, _way_id) in enumerate(ways):
            if way_address == address:
                del ways[position]
                break
        if not ways:
            self._occupied_sets -= 1
        self._recycled_ids.append(internal_id)
        return internal_id

    def way_order(self, address: int) -> List[int]:
        """Way addresses of the set holding ``address``, in way order."""
        return [a for a, _ in self._sets.get(self.set_index(address), [])]


class _RefTaskEntry:
    __slots__ = ("descriptor_address", "predecessor_count", "successor_count",
                 "successor_list", "dependence_list", "creation_complete")

    def __init__(self, descriptor_address, successor_list, dependence_list):
        self.descriptor_address = descriptor_address
        self.predecessor_count = 0
        self.successor_count = 0
        self.successor_list = successor_list
        self.dependence_list = dependence_list
        self.creation_complete = False


class RefTaskTable:
    def __init__(self, num_entries: int) -> None:
        self.num_entries = num_entries
        self._entries: Dict[int, _RefTaskEntry] = {}
        self.peak_occupancy = 0

    @property
    def occupancy(self) -> int:
        return len(self._entries)

    def install(self, task_id, descriptor_address, successor_list, dependence_list):
        if task_id in self._entries:
            raise DMUProtocolError("already in use")
        self._entries[task_id] = _RefTaskEntry(
            descriptor_address, successor_list, dependence_list
        )
        self.peak_occupancy = max(self.peak_occupancy, len(self._entries))

    def free(self, task_id):
        if task_id not in self._entries:
            raise DMUProtocolError("already free")
        del self._entries[task_id]

    def is_valid(self, task_id):
        return task_id in self._entries


# --------------------------------------------------------------------------
# Drivers
# --------------------------------------------------------------------------
def _assert_list_state(real: ListArray, ref: RefListArray, heads) -> None:
    assert real.free_entries == ref.free_entries
    assert real.peak_entries_used == ref.peak_entries_used
    assert real.entries_in_use == (ref.num_entries - ref.free_entries)
    for head in heads:
        assert real.iterate(head) == ref.iterate(head)
        assert real.length(head) == ref.length(head)
        assert real.entries_of(head) == ref.entries_of(head)
        assert real.is_empty(head) == (ref.length(head) == 0)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("append_only", [False, True])
def test_list_array_random_ops_differential(seed, append_only):
    rng = random.Random(0xC0FFEE + seed)
    entries, per = 24, 3
    real = ListArray("diff", entries, per, append_only=append_only)
    ref = RefListArray("diff", entries, per)
    heads: List[int] = []
    values_of: Dict[int, List[int]] = {}

    operations = ["new", "append", "iterate", "length", "free"]
    if not append_only:
        operations += ["remove", "flush"]
    for step in range(400):
        op = rng.choice(operations)
        if op == "new" or not heads:
            needs = real.free_entries < 1
            assert needs == (ref.free_entries < 1)
            if needs:
                with pytest.raises(DMUStructureFullError):
                    real.new_list()
                with pytest.raises(DMUStructureFullError):
                    ref.new_list()
                continue
            head_real, acc_real = real.new_list()
            head_ref, acc_ref = ref.new_list()
            # Exact handle equality pins the fresh/recycled allocation order.
            assert (head_real, acc_real) == (head_ref, acc_ref)
            heads.append(head_real)
            values_of[head_real] = []
            continue
        head = rng.choice(heads)
        if op == "append":
            value = rng.randrange(0, 200)
            needs_new = real.appending_needs_new_entry(head)
            assert needs_new == ref.appending_needs_new_entry(head)
            if needs_new and real.free_entries < 1:
                with pytest.raises(DMUStructureFullError):
                    real.append(head, value)
                with pytest.raises(DMUStructureFullError):
                    ref.append(head, value)
                continue
            assert real.append(head, value) == ref.append(head, value)
            values_of[head].append(value)
        elif op == "remove":
            pool = values_of[head]
            value = rng.choice(pool) if pool and rng.random() < 0.7 else 999
            result = real.remove(head, value)
            assert result == ref.remove(head, value)
            if result[0]:
                pool.remove(value)
        elif op == "flush":
            assert real.flush(head) == ref.flush(head)
            values_of[head] = []
        elif op == "iterate":
            assert real.iterate(head) == ref.iterate(head)
        elif op == "length":
            assert real.length(head) == ref.length(head)
            assert real.entries_of(head) == ref.entries_of(head)
        elif op == "free":
            assert real.free_list(head) == ref.free_list(head)
            heads.remove(head)
            del values_of[head]
        if step % 25 == 0:
            _assert_list_state(real, ref, heads)
    _assert_list_state(real, ref, heads)
    for head in heads:
        assert real.free_list(head) == ref.free_list(head)
    assert real.free_entries == real.num_entries


@pytest.mark.parametrize("seed", range(8))
def test_alias_table_random_ops_differential(seed):
    rng = random.Random(0xA11A5 + seed)
    entries, assoc = 32, 4
    real = AliasTable("diff", entries, assoc, index_start_bit=0)
    ref = RefAliasTable(entries, assoc)
    live: List[int] = []
    for _ in range(600):
        op = rng.random()
        if op < 0.55 or not live:
            address = rng.randrange(0, 96)
            can = real.can_allocate(address)
            assert can == ref.can_allocate(address)
            if not can:
                with pytest.raises(DMUStructureFullError):
                    real.allocate(address)
                with pytest.raises(DMUStructureFullError):
                    ref.allocate(address)
                continue
            # Identical IDs pin the fresh-counter + recycled-LIFO order.
            assert real.allocate(address) == ref.allocate(address)
            if address not in live:
                live.append(address)
        elif op < 0.85:
            address = rng.choice(live)
            assert real.release(address) == ref.release(address)
            live.remove(address)
        else:
            address = rng.randrange(0, 96)
            assert real.lookup(address) == ref.lookup(address)
        assert real.free_entries == ref.free_entries
        assert real.occupied_sets() == ref.occupied_sets()
        assert real.conflict_rejections == ref.conflict_rejections
        assert real.capacity_rejections == ref.capacity_rejections
        assert real.peak_occupancy == ref.peak_occupancy


def test_alias_table_way_eviction_order_matches_reference():
    """Releasing a middle way shifts later ways up, preserving way order."""
    real = AliasTable("ways", 16, 4, index_start_bit=0)
    ref = RefAliasTable(16, 4)
    addresses = [4, 8, 12, 16]  # all map to set 0 (num_sets = 4)
    for address in addresses:
        assert real.allocate(address) == ref.allocate(address)
    real.release(8)
    ref.release(8)
    # The set has a free way again; the next conflicting allocate succeeds
    # and the two implementations hand out the same (recycled) ID.
    assert real.can_allocate(20) and ref.can_allocate(20)
    assert real.allocate(20) == ref.allocate(20)
    assert ref.way_order(4) == [4, 12, 16, 20]


@pytest.mark.parametrize("seed", range(6))
def test_task_table_random_ops_differential(seed):
    rng = random.Random(0x7A5C + seed)
    real = TaskTable(16)
    ref = RefTaskTable(16)
    for _ in range(400):
        task_id = rng.randrange(0, 16)
        op = rng.random()
        if op < 0.45:
            if ref.is_valid(task_id):
                with pytest.raises(DMUProtocolError):
                    real.install(task_id, 1, 2, 3)
                continue
            descriptor = rng.randrange(1, 1 << 40)
            real.install(task_id, descriptor, task_id * 2, task_id * 2 + 1)
            ref.install(task_id, descriptor, task_id * 2, task_id * 2 + 1)
        elif op < 0.7:
            if not ref.is_valid(task_id):
                with pytest.raises(DMUProtocolError):
                    real.free(task_id)
                continue
            real.free(task_id)
            ref.free(task_id)
        elif ref.is_valid(task_id):
            delta = rng.randrange(0, 3)
            real.predecessor_count[task_id] += delta
            ref._entries[task_id].predecessor_count += delta
            real.successor_count[task_id] += 1
            ref._entries[task_id].successor_count += 1
            if rng.random() < 0.3:
                real.creation_complete[task_id] = 1
                ref._entries[task_id].creation_complete = True
        assert real.is_valid(task_id) == ref.is_valid(task_id)
        assert real.occupancy == ref.occupancy
        assert real.peak_occupancy == ref.peak_occupancy
        for tid, entry in ref._entries.items():
            assert real.descriptor_address[tid] == entry.descriptor_address
            assert real.predecessor_count[tid] == entry.predecessor_count
            assert real.successor_count[tid] == entry.successor_count
            assert real.successor_list[tid] == entry.successor_list
            assert real.dependence_list[tid] == entry.dependence_list
            assert bool(real.creation_complete[tid]) == entry.creation_complete


# --------------------------------------------------------------------------
# Explicit edge cases
# --------------------------------------------------------------------------
class TestListArrayEdgeCases:
    def test_full_table_blocks_new_list_and_growth(self):
        array = ListArray("full", 4, 2)
        heads = [array.new_list()[0] for _ in range(4)]
        with pytest.raises(DMUStructureFullError):
            array.new_list()
        array.append(heads[0], 1)
        array.append(heads[0], 2)
        assert array.appending_needs_new_entry(heads[0])
        with pytest.raises(DMUStructureFullError):
            array.append(heads[0], 3)
        # The failed growth attempt left no partial state behind.
        assert array.iterate(heads[0]) == ([1, 2], 1)
        assert array.free_entries == 0

    def test_free_list_reuse_is_lifo(self):
        array = ListArray("lifo", 8, 2)
        heads = [array.new_list()[0] for _ in range(4)]
        assert heads == [0, 1, 2, 3]
        array.free_list(heads[1])
        array.free_list(heads[3])
        # Last released is first reused, then the earlier release, then fresh.
        assert array.new_list()[0] == 3
        assert array.new_list()[0] == 1
        assert array.new_list()[0] == 4

    def test_flush_keeps_head_and_releases_tail_lifo(self):
        array = ListArray("flush", 8, 1)
        head = array.new_list()[0]
        for value in (1, 2, 3):
            array.append(head, value)
        assert array.entries_of(head) == 3
        accesses = array.flush(head)
        assert accesses == 3  # head read + two released chain entries
        assert array.iterate(head) == ([], 1)
        assert array.entries_of(head) == 1
        # Chain entries 1 and 2 were released walk-order; reuse is LIFO.
        assert array.new_list()[0] == 2
        assert array.new_list()[0] == 1

    def test_appending_needs_new_entry_follows_tail_not_holes(self):
        """The pre-check is pinned to tail-entry fullness, not hole absence.

        After ``remove`` leaves a hole in a non-tail entry while the tail is
        full, ``append`` fills the hole without allocating — but the
        historical pre-check (which the DMU's blocking behavior is pinned
        to) walked to the tail and looked only there, reporting True.
        """
        array = ListArray("holes", 8, 2)
        ref = RefListArray("holes", 8, 2)
        head = array.new_list()[0]
        ref_head = ref.new_list()[0]
        for value in (1, 2, 3, 4):  # two full entries
            assert array.append(head, value) == ref.append(ref_head, value)
        assert array.remove(head, 1) == ref.remove(ref_head, 1)
        assert array.appending_needs_new_entry(head) is True
        assert ref.appending_needs_new_entry(ref_head) is True
        # Append fills the hole in the head entry (1 access, no allocation).
        assert array.append(head, 9) == ref.append(ref_head, 9) == 1
        assert array.free_entries == ref.free_entries
        assert array.iterate(head) == ref.iterate(ref_head)

    def test_recycled_entry_is_blank(self):
        array = ListArray("blank", 4, 2)
        head = array.new_list()[0]
        array.append(head, 7)
        array.free_list(head)
        again = array.new_list()[0]
        assert again == head
        assert array.iterate(again) == ([], 1)
        assert array.length(again) == 0

    def test_append_only_rejects_remove_and_flush(self):
        array = ListArray("ao", 4, 2, append_only=True)
        head = array.new_list()[0]
        array.append(head, 1)
        with pytest.raises(ValueError):
            array.remove(head, 1)
        with pytest.raises(ValueError):
            array.flush(head)


class TestTaskTableEdgeCases:
    def test_full_table_and_reuse(self):
        table = TaskTable(4)
        for task_id in range(4):
            table.install(task_id, task_id + 100, 0, 1)
        assert table.occupancy == 4
        with pytest.raises(DMUProtocolError):
            table.install(0, 1, 2, 3)
        table.free(2)
        table.install(2, 999, 5, 6)
        assert table.descriptor_address[2] == 999
        assert table.predecessor_count[2] == 0
        assert table.peak_occupancy == 4


# --------------------------------------------------------------------------
# Audit recounts vs maintained counters over full-DMU instruction streams
# --------------------------------------------------------------------------
#: Small DMU geometries the random streams run under.  ``small`` fills every
#: structure; ``direct_mapped`` makes every alias-table set a single way (set
#: conflicts instead of capacity); ``single_slot`` spills every list element
#: into its own list-array entry.
STREAM_GEOMETRIES = {
    "small": dict(tat_associativity=4, dat_associativity=4, elements_per_list_entry=4),
    "direct_mapped": dict(
        tat_associativity=1, dat_associativity=1, elements_per_list_entry=4
    ),
    "single_slot": dict(
        tat_associativity=4, dat_associativity=4, elements_per_list_entry=1
    ),
}


def _drive_dmu_stream(
    seed: int, geometry: str = "small", steps: int = 3000
) -> DependenceManagementUnit:
    """Drive a small DMU through a random ISA instruction stream.

    The stream blocks on full structures and deliberately violates the DMU
    protocol (duplicate creates, unknown descriptors); those protocol errors
    are expected and swallowed.  A full structure must always surface as
    ``DMUBlocked``, never as ``DMUStructureFullError``.  Returns the DMU in
    its final state.
    """
    config = DMUConfig(
        tat_entries=64, dat_entries=64,
        successor_list_entries=32, dependence_list_entries=32,
        reader_list_entries=32, ready_queue_entries=64,
        **STREAM_GEOMETRIES[geometry],
    )
    dmu = DependenceManagementUnit(config)
    rng = random.Random(seed)
    live: Dict[int, str] = {}
    addresses = [0x1000 + 0x40 * i for i in range(200)]
    dependences = [0x9000 + 0x100 * i for i in range(40)]
    for _ in range(steps):
        op = rng.randrange(6)
        try:
            if op == 0:
                address = rng.choice(addresses)
                if not isinstance(dmu.create_task(address), DMUBlocked):
                    live[address] = "created"
            elif op == 1 and live:
                dmu.add_dependence(
                    rng.choice(list(live)), rng.choice(dependences),
                    rng.choice([64, 256, 4096]), rng.choice(["in", "out"]),
                )
            elif op == 2 and live:
                address = rng.choice(list(live))
                if live[address] == "created":
                    dmu.complete_creation(address)
                    live[address] = "complete"
            elif op == 3:
                dmu.get_ready_task()
            elif op == 4 and live:
                address = rng.choice(list(live))
                if live[address] == "complete" and rng.random() < 0.5:
                    dmu.finish_task(address)
                    del live[address]
            elif op == 5:
                if rng.randrange(2) == 0:
                    dmu.add_dependence(0xDEAD, dependences[0], 64, "in")
                else:
                    dmu.finish_task(0xBEEF)
        except DMUProtocolError:
            pass
    return dmu


def _live_heads(dmu: DependenceManagementUnit) -> Dict[str, List[int]]:
    """Head handle of every list the DMU still references, per list array."""
    task_table = dmu.task_table
    tasks = [i for i, valid in enumerate(task_table.valid) if valid]
    dependence_table = dmu.dependence_table
    return {
        "SLA": [task_table.successor_list[i] for i in tasks],
        "DLA": [task_table.dependence_list[i] for i in tasks],
        "RLA": [
            dependence_table.reader_list[i]
            for i, valid in enumerate(dependence_table.valid)
            if valid and dependence_table.reader_list[i] != -1
        ],
    }


class TestAuditMatchesMaintainedCounters:
    """Raw-column recounts agree with the counters the DMU maintains.

    The capacity pre-checks read ``free_entries``, the per-list valid totals
    and the occupied-set count instead of rescanning the structures; after a
    random instruction stream every one of them must equal ``audit()``'s
    recount from the raw columns.
    """

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("geometry", sorted(STREAM_GEOMETRIES))
    def test_random_stream_counters_match_audits(self, geometry, seed):
        dmu = _drive_dmu_stream(seed, geometry)
        heads = _live_heads(dmu)
        assert dmu.stats.tasks_created > 0 and dmu.stats.total_blocked > 0
        for lists in (dmu.successor_lists, dmu.dependence_lists, dmu.reader_lists):
            audit = lists.audit()
            assert audit["free_entries"] == lists.free_entries
            assert audit["entries_in_use"] == lists.entries_in_use
            assert audit["live_elements"] == audit["valid_total"]
            list_heads = heads[lists.name]
            assert audit["valid_total"] == sum(lists._list_valid[h] for h in list_heads)
            assert audit["entries_in_use"] == sum(
                lists._list_entries[h] for h in list_heads
            )
        for table in (dmu.tat, dmu.dat):
            audit = table.audit()
            assert audit["occupied_sets"] == table.occupied_sets()
            assert audit["entries_in_use"] == table.entries_in_use
            assert audit["directory_entries"] == table.entries_in_use
