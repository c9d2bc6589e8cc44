"""Inode-style list arrays (Figure 5 of the paper)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.list_array import INVALID_ELEMENT, ListArray
from repro.errors import DMUStructureFullError


def make_array(entries=8, elements=4):
    return ListArray("SLA", entries, elements)


class TestBasicOperations:
    def test_new_list_is_empty(self):
        array = make_array()
        head, accesses = array.new_list()
        assert accesses == 1
        assert array.is_empty(head)
        assert array.length(head) == 0

    def test_append_and_iterate(self):
        array = make_array()
        head, _ = array.new_list()
        for value in (3, 1, 4, 1, 5):
            array.append(head, value)
        values, _ = array.iterate(head)
        assert values == [3, 1, 4, 1, 5]
        assert array.length(head) == 5

    def test_list_spills_into_second_entry(self):
        array = make_array(entries=8, elements=4)
        head, _ = array.new_list()
        for value in range(6):
            array.append(head, value)
        assert array.entries_of(head) == 2
        values, accesses = array.iterate(head)
        assert values == list(range(6))
        assert accesses == 2

    def test_appending_needs_new_entry(self):
        array = make_array(elements=2)
        head, _ = array.new_list()
        assert not array.appending_needs_new_entry(head)
        array.append(head, 1)
        array.append(head, 2)
        assert array.appending_needs_new_entry(head)

    def test_remove_existing_element(self):
        array = make_array()
        head, _ = array.new_list()
        for value in (7, 8, 9):
            array.append(head, value)
        found, _ = array.remove(head, 8)
        assert found
        values, _ = array.iterate(head)
        assert values == [7, 9]

    def test_remove_missing_element(self):
        array = make_array()
        head, _ = array.new_list()
        array.append(head, 1)
        found, _ = array.remove(head, 99)
        assert not found

    def test_flush_empties_but_keeps_head(self):
        array = make_array(elements=2)
        head, _ = array.new_list()
        for value in range(5):
            array.append(head, value)
        used_before = array.entries_in_use
        array.flush(head)
        assert array.is_empty(head)
        assert array.entries_in_use < used_before
        assert array.entries_in_use >= 1
        # The list is still usable after a flush.
        array.append(head, 42)
        assert array.iterate(head)[0] == [42]

    def test_free_list_releases_all_entries(self):
        array = make_array(elements=2)
        head, _ = array.new_list()
        for value in range(5):
            array.append(head, value)
        array.free_list(head)
        assert array.free_entries == array.num_entries

    def test_invalid_marker_cannot_be_stored(self):
        array = make_array()
        head, _ = array.new_list()
        with pytest.raises(ValueError):
            array.append(head, INVALID_ELEMENT)


class TestCapacity:
    def test_new_list_exhaustion(self):
        array = make_array(entries=2)
        array.new_list()
        array.new_list()
        with pytest.raises(DMUStructureFullError):
            array.new_list()

    def test_append_exhaustion(self):
        array = make_array(entries=1, elements=2)
        head, _ = array.new_list()
        array.append(head, 1)
        array.append(head, 2)
        with pytest.raises(DMUStructureFullError):
            array.append(head, 3)

    def test_peak_entries_tracked(self):
        array = make_array(entries=4, elements=1)
        head, _ = array.new_list()
        array.append(head, 1)  # fills the head entry
        array.append(head, 2)  # spills into a second entry
        array.free_list(head)
        assert array.peak_entries_used == 2
        assert array.entries_in_use == 0

    def test_accessing_freed_list_rejected(self):
        array = make_array()
        head, _ = array.new_list()
        array.free_list(head)
        with pytest.raises(ValueError):
            array.iterate(head)


class TestPropertyBased:
    @settings(max_examples=60, deadline=None)
    @given(
        values=st.lists(st.integers(min_value=0, max_value=1000), max_size=40),
        elements_per_entry=st.integers(min_value=1, max_value=8),
    )
    def test_append_iterate_matches_python_list(self, values, elements_per_entry):
        array = ListArray("test", 64, elements_per_entry)
        head, _ = array.new_list()
        for value in values:
            array.append(head, value)
        got, _ = array.iterate(head)
        assert got == values
        assert array.length(head) == len(values)

    @settings(max_examples=60, deadline=None)
    @given(
        operations=st.lists(
            st.tuples(st.sampled_from(["append", "remove"]), st.integers(0, 20)),
            max_size=60,
        )
    )
    def test_append_remove_matches_reference_model(self, operations):
        array = ListArray("test", 128, 4)
        head, _ = array.new_list()
        reference = []
        for op, value in operations:
            if op == "append":
                array.append(head, value)
                reference.append(value)
            else:
                found, _ = array.remove(head, value)
                if value in reference:
                    assert found
                    reference.remove(value)
                else:
                    assert not found
        got, _ = array.iterate(head)
        assert sorted(got) == sorted(reference)

    @settings(max_examples=40, deadline=None)
    @given(list_sizes=st.lists(st.integers(min_value=0, max_value=12), min_size=1, max_size=10))
    def test_free_returns_all_entries(self, list_sizes):
        array = ListArray("test", 256, 4)
        heads = []
        for size in list_sizes:
            head, _ = array.new_list()
            for value in range(size):
                array.append(head, value)
            heads.append(head)
        for head in heads:
            array.free_list(head)
        assert array.free_entries == array.num_entries


def test_ids_past_4095_are_stored():
    # The marker used to be 0xFFF, which made ID 4095 unstorable.
    array = ListArray("SLA", 8, 4)
    head, _ = array.new_list()
    for value in (4094, 4095, 4096, 1 << 20):
        array.append(head, value)
    assert array.iterate(head)[0] == [4094, 4095, 4096, 1 << 20]
    assert array.remove(head, 4095) == (True, 1)
    assert array.iterate(head)[0] == [4094, 4096, 1 << 20]


def test_invalid_element_lies_outside_the_id_space():
    assert INVALID_ELEMENT < 0


def test_hole_is_refilled_with_an_id_past_4095():
    array = ListArray("RLA", 8, 4)
    head, _ = array.new_list()
    for value in (1, 2, 3, 4):
        array.append(head, value)
    assert array.remove(head, 2) == (True, 1)
    array.append(head, 4095)
    assert array.iterate(head)[0] == [1, 4095, 3, 4]
    assert array.entries_of(head) == 1
    assert array.audit()["live_elements"] == 4


def test_audit_recounts_without_the_maintained_counters():
    array = ListArray("SLA", 8, 4)
    head, _ = array.new_list()
    for value in range(10):
        array.append(head, value)
    truth = array.audit()
    assert truth == {
        "entries_in_use": 3, "free_entries": 5, "live_elements": 10, "valid_total": 10,
    }
    array.free_entries = 0  # a stale counter does not leak into the recount
    assert array.audit() == truth
