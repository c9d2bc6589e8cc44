"""Task Table, Dependence Table and Ready Queue (columnar storage)."""

import pytest

from repro.core.dependence_table import DependenceTable
from repro.core.ready_queue import ReadyQueue
from repro.core.task_table import TaskTable
from repro.errors import DMUProtocolError


def free_row(table, row):
    """Retire ``row`` the way ``finish_task`` does: clear its valid bit and
    drop the occupancy count (the DMU writes these columns in place)."""
    table.valid[row] = 0
    table._occupancy -= 1


class TestTaskTable:
    def test_install_read_free(self):
        table = TaskTable(8)
        table.install(3, descriptor_address=0x1234, successor_list=1, dependence_list=2)
        assert table.descriptor_address[3] == 0x1234
        assert table.successor_list[3] == 1
        assert table.dependence_list[3] == 2
        assert table.predecessor_count[3] == 0
        assert table.successor_count[3] == 0
        assert not table.creation_complete[3]
        assert table.valid[3]
        assert table.occupancy == 1
        free_row(table, 3)
        assert table.occupancy == 0

    def test_columns_grow_on_demand(self):
        table = TaskTable(1 << 20)  # "ideal" sizing costs nothing up front
        assert len(table.descriptor_address) == 0
        table.install(5, descriptor_address=0xAB, successor_list=0, dependence_list=1)
        assert len(table.descriptor_address) == 6
        assert table.valid[5]
        assert not table.valid[4]

    def test_recycled_slot_is_reinitialized(self):
        table = TaskTable(8)
        table.install(2, descriptor_address=0x1, successor_list=3, dependence_list=4)
        table.predecessor_count[2] = 7
        table.creation_complete[2] = 1
        free_row(table, 2)
        table.install(2, descriptor_address=0x2, successor_list=5, dependence_list=6)
        assert table.predecessor_count[2] == 0
        assert not table.creation_complete[2]
        assert table.descriptor_address[2] == 0x2

    def test_double_install_rejected(self):
        table = TaskTable(4)
        table.install(0, descriptor_address=1, successor_list=0, dependence_list=0)
        with pytest.raises(DMUProtocolError):
            table.install(0, descriptor_address=2, successor_list=0, dependence_list=0)

    def test_out_of_range_id_rejected(self):
        with pytest.raises(DMUProtocolError):
            TaskTable(4).install(4, descriptor_address=0, successor_list=0, dependence_list=0)

    def test_peak_occupancy(self):
        table = TaskTable(4)
        for task_id in range(3):
            table.install(task_id, descriptor_address=task_id, successor_list=0, dependence_list=0)
        free_row(table, 0)
        assert table.peak_occupancy == 3
        assert table.occupancy == 2


class TestDependenceTable:
    def test_install_read_free(self):
        table = DependenceTable(8)
        table.install(5, address=0xBEEF)
        assert table.last_writer[5] == -1
        assert not table.last_writer_valid[5]
        assert table.reader_list[5] == -1
        assert table.address[5] == 0xBEEF
        assert table.valid[5] and not table.valid[4]
        free_row(table, 5)
        assert table.occupancy == 0

    def test_last_writer_lifecycle(self):
        table = DependenceTable(4)
        table.install(0)
        table.last_writer[0] = 7
        table.last_writer_valid[0] = 1
        assert table.last_writer[0] == 7 and table.last_writer_valid[0]
        table.last_writer[0] = -1
        table.last_writer_valid[0] = 0
        assert not table.last_writer_valid[0]

    def test_recycled_slot_is_reinitialized(self):
        table = DependenceTable(4)
        table.install(1, address=0x10)
        table.last_writer[1] = 3
        table.last_writer_valid[1] = 1
        table.reader_list[1] = 9
        free_row(table, 1)
        table.install(1, address=0x20)
        assert table.last_writer[1] == -1
        assert not table.last_writer_valid[1]
        assert table.reader_list[1] == -1
        assert table.address[1] == 0x20

    def test_double_install_rejected(self):
        table = DependenceTable(4)
        table.install(0)
        with pytest.raises(DMUProtocolError):
            table.install(0)

    def test_out_of_range_id_rejected(self):
        with pytest.raises(DMUProtocolError):
            DependenceTable(4).install(4)


class TestReadyQueue:
    def test_fifo_order(self):
        queue = ReadyQueue(8)
        for task_id in (4, 2, 9):
            queue.push(task_id)
        assert [queue.pop(), queue.pop(), queue.pop()] == [4, 2, 9]

    def test_pop_empty_returns_none(self):
        assert ReadyQueue(4).pop() is None

    def test_statistics(self):
        queue = ReadyQueue(8)
        queue.push(1)
        queue.push(2)
        queue.pop()
        assert queue.total_pushes == 2
        assert queue.total_pops == 1
        assert queue.peak_occupancy == 2
        assert len(queue) == 1
        assert not queue.is_empty

    def test_overflow_rejected(self):
        queue = ReadyQueue(2)
        queue.push(1)
        queue.push(2)
        with pytest.raises(DMUProtocolError):
            queue.push(3)

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            ReadyQueue(0)
