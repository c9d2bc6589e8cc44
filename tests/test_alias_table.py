"""TAT/DAT alias tables: allocation, conflicts, dynamic index-bit selection."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.alias_table import AliasTable, dat_index_start_bit
from repro.errors import DMUStructureFullError


class TestIndexStartBit:
    def test_power_of_two_sizes(self):
        assert dat_index_start_bit(4096) == 12
        assert dat_index_start_bit(64 * 1024) == 16

    def test_small_sizes_fall_back_to_bit_zero(self):
        assert dat_index_start_bit(1) == 0
        assert dat_index_start_bit(0) == 0

    def test_non_power_of_two_rounds_down(self):
        assert dat_index_start_bit(5000) == 12


def make_table(entries=64, associativity=4, dynamic=False, start_bit=0):
    return AliasTable(
        "DAT", entries, associativity, index_start_bit=start_bit, dynamic_index=dynamic
    )


class TestAllocation:
    def test_allocate_and_lookup(self):
        table = make_table()
        internal = table.allocate(0xABC000, size=4096)
        assert table.lookup(0xABC000) == internal
        assert 0xABC000 in table
        assert len(table) == 1

    def test_allocate_same_address_returns_same_id(self):
        table = make_table()
        first = table.allocate(0x1000)
        second = table.allocate(0x1000)
        assert first == second
        assert len(table) == 1

    def test_ids_unique(self):
        table = make_table()
        # Consecutive addresses spread across sets with the static bit-0 index.
        ids = {table.allocate(0x1000 + i) for i in range(32)}
        assert len(ids) == 32

    def test_release_recycles_id(self):
        table = make_table()
        internal = table.allocate(0x1000)
        table.release(0x1000)
        assert table.lookup(0x1000) is None
        assert len(table) == 0
        # Freed IDs can be reused by later allocations.
        again = table.allocate(0x2000)
        assert again == internal

    def test_release_unknown_address_rejected(self):
        table = make_table()
        with pytest.raises(KeyError):
            table.release(0xDEAD)

    def test_capacity_exhaustion_counted(self):
        table = make_table(entries=8, associativity=8)
        for index in range(8):
            table.allocate(0x1000 * (index + 1))
        with pytest.raises(DMUStructureFullError):
            table.allocate(0x9000)
        assert table.capacity_rejections == 1

    def test_conflict_exhaustion_counted(self):
        # 4 sets x 2 ways; all addresses map to set 0 with start bit 0 and a
        # stride that is a multiple of num_sets.
        table = make_table(entries=8, associativity=2)
        stride = table.num_sets  # keeps (addr >> 0) % num_sets == 0
        table.allocate(stride * 1)
        table.allocate(stride * 2)
        assert table.can_allocate(stride * 3) is False
        with pytest.raises(DMUStructureFullError):
            table.allocate(stride * 3)
        assert table.conflict_rejections == 1
        assert table.free_entries > 0  # capacity remained; it was a conflict

    def test_non_multiple_associativity_rejected(self):
        with pytest.raises(ValueError):
            AliasTable("bad", 10, 4)


class TestDynamicIndexSelection:
    def test_static_low_bits_collapse_to_one_set(self):
        table = make_table(entries=64, associativity=4, dynamic=False, start_bit=0)
        # 4 KB-aligned blocks: low 12 bits identical, stride multiple of set count.
        addresses = [0x100000 + i * 4096 for i in range(4)]
        for address in addresses:
            table.allocate(address, size=4096)
        assert table.occupied_sets() == 1

    def test_dynamic_selection_spreads_blocks(self):
        table = make_table(entries=64, associativity=4, dynamic=True)
        addresses = [0x100000 + i * 4096 for i in range(8)]
        for address in addresses:
            table.allocate(address, size=4096)
        assert table.occupied_sets() == 8

    def test_dynamic_selection_uses_dependence_size(self):
        table = make_table(entries=64, associativity=4, dynamic=True)
        small = table.set_index(0x10000, size=1024)
        large = table.set_index(0x10000, size=64 * 1024)
        # Different sizes select different index bits for the same address.
        assert isinstance(small, int) and isinstance(large, int)
        assert 0 <= small < table.num_sets and 0 <= large < table.num_sets

    def test_occupancy_sampling(self):
        table = make_table(entries=64, associativity=4, dynamic=True)
        table.allocate(0x1000, size=4096)
        table.sample_occupancy()
        table.allocate(0x2000, size=4096)
        table.sample_occupancy()
        assert 1.0 <= table.average_occupied_sets() <= 2.0

    def test_average_occupancy_without_samples_is_zero(self):
        assert make_table().average_occupied_sets() == 0.0


class TestPropertyBased:
    @settings(max_examples=50, deadline=None)
    @given(
        addresses=st.lists(
            st.integers(min_value=1, max_value=1 << 40), unique=True, max_size=32
        )
    )
    def test_allocate_release_round_trip(self, addresses):
        table = AliasTable("TAT", 64, 8)
        mapping = {}
        for address in addresses:
            try:
                mapping[address] = table.allocate(address)
            except DMUStructureFullError:
                # A set can legitimately fill up (e.g. nine size-1 addresses
                # that are all multiples of 8 land in the same set of the
                # 8-way table); rejection is correct model behavior, and the
                # round-trip property applies to the accepted addresses.
                continue
        assert len(set(mapping.values())) == len(mapping)
        for address, internal in mapping.items():
            assert table.lookup(address) == internal
            table.release(address)
        assert len(table) == 0
        assert table.free_entries == 64


class TestLargeTables:
    def test_ids_past_4095_round_trip(self):
        table = AliasTable("TAT", 8192, 8)
        ids = [table.allocate(0x1000 + index) for index in range(5000)]
        assert sorted(ids) == list(range(5000))
        assert table.lookup(0x1000 + ids.index(4095)) == 4095
        assert table.address_of(4999) == 0x1000 + ids.index(4999)
        table.release(0x1000 + ids.index(4095))
        assert table.allocate(0xF_0000) == 4095  # the freed ID is reused

    def test_audit_recount_matches_maintained_counters(self):
        table = make_table(entries=64, associativity=4)
        for index in range(48):
            table.allocate(0x1000 + index)
        for index in range(0, 48, 3):
            table.release(0x1000 + index)
        audit = table.audit()
        assert audit["entries_in_use"] == table.entries_in_use == 32
        assert audit["directory_entries"] == 32
        assert audit["occupied_sets"] == table.occupied_sets()
