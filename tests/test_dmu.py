"""The Dependence Management Unit: Algorithms 1 and 2, blocking, accounting."""

import pytest

from repro.config import DMUConfig
from repro.core.dmu import DependenceManagementUnit
from repro.core.isa import DMUBlocked
from repro.errors import DMUProtocolError, UnknownTaskError

DESC = 0x8AB0_0000_0000
DEP_A = 0x10_0000
DEP_B = 0x20_0000
BLOCK = 4096


def make_dmu(**overrides) -> DependenceManagementUnit:
    parameters = dict(
        tat_entries=64,
        dat_entries=64,
        successor_list_entries=64,
        dependence_list_entries=64,
        reader_list_entries=64,
        ready_queue_entries=64,
    )
    parameters.update(overrides)
    return DependenceManagementUnit(DMUConfig(**parameters))


def create(dmu, descriptor, deps=()):
    """Create a task, add its dependences and complete its creation."""
    result = dmu.create_task(descriptor)
    assert not isinstance(result, DMUBlocked)
    for address, direction in deps:
        added = dmu.add_dependence(descriptor, address, BLOCK, direction)
        assert not isinstance(added, DMUBlocked)
    return dmu.complete_creation(descriptor)


class TestCreation:
    def test_create_task_allocates_structures(self):
        dmu = make_dmu()
        result = dmu.create_task(DESC)
        assert result.cycles > 0
        assert dmu.in_flight_tasks == 1
        assert dmu.successor_lists.entries_in_use == 1
        assert dmu.dependence_lists.entries_in_use == 1

    def test_duplicate_create_rejected(self):
        dmu = make_dmu()
        dmu.create_task(DESC)
        with pytest.raises(DMUProtocolError):
            dmu.create_task(DESC)

    def test_dependence_free_task_becomes_ready_at_completion(self):
        dmu = make_dmu()
        completion = create(dmu, DESC)
        assert completion.became_ready
        assert dmu.ready_tasks == 1

    def test_task_with_pending_predecessor_not_ready(self):
        dmu = make_dmu()
        create(dmu, DESC, [(DEP_A, "out")])
        completion = create(dmu, DESC + 0x100, [(DEP_A, "in")])
        assert not completion.became_ready
        assert dmu.ready_tasks == 1  # only the writer

    def test_add_dependence_to_unknown_task_rejected(self):
        dmu = make_dmu()
        with pytest.raises(UnknownTaskError):
            dmu.add_dependence(DESC, DEP_A, BLOCK, "in")

    def test_invalid_direction_rejected(self):
        dmu = make_dmu()
        dmu.create_task(DESC)
        with pytest.raises(DMUProtocolError):
            dmu.add_dependence(DESC, DEP_A, BLOCK, "inout")

    def test_double_completion_rejected(self):
        dmu = make_dmu()
        create(dmu, DESC)
        with pytest.raises(DMUProtocolError):
            dmu.complete_creation(DESC)


class TestDependenceSemantics:
    def test_raw_dependence(self):
        """Writer then reader: the reader waits for the writer."""
        dmu = make_dmu()
        create(dmu, DESC, [(DEP_A, "out")])
        create(dmu, DESC + 0x100, [(DEP_A, "in")])
        assert dmu.ready_tasks == 1
        dmu.get_ready_task()
        finish = dmu.finish_task(DESC)
        assert finish.tasks_woken == 1
        ready = dmu.get_ready_task()
        assert ready.descriptor_address == DESC + 0x100

    def test_waw_dependence(self):
        """Two writers are serialized."""
        dmu = make_dmu()
        create(dmu, DESC, [(DEP_A, "out")])
        completion = create(dmu, DESC + 0x100, [(DEP_A, "out")])
        assert not completion.became_ready
        dmu.get_ready_task()
        assert dmu.finish_task(DESC).tasks_woken == 1

    def test_war_dependence(self):
        """A writer waits for all current readers."""
        dmu = make_dmu()
        create(dmu, DESC, [(DEP_A, "out")])          # writer W0
        create(dmu, DESC + 0x100, [(DEP_A, "in")])   # reader R1
        create(dmu, DESC + 0x200, [(DEP_A, "in")])   # reader R2
        completion = create(dmu, DESC + 0x300, [(DEP_A, "out")])  # writer W3
        assert not completion.became_ready
        # Finish W0: both readers wake, W3 still waits for them.
        dmu.get_ready_task()
        assert dmu.finish_task(DESC).tasks_woken == 2
        dmu.get_ready_task()
        dmu.get_ready_task()
        assert dmu.finish_task(DESC + 0x100).tasks_woken == 0
        woken = dmu.finish_task(DESC + 0x200).tasks_woken
        assert woken == 1  # W3 becomes ready only after the last reader

    def test_independent_readers_run_concurrently(self):
        dmu = make_dmu()
        create(dmu, DESC, [(DEP_A, "in")])
        create(dmu, DESC + 0x100, [(DEP_A, "in")])
        assert dmu.ready_tasks == 2

    def test_two_dependences_two_predecessors(self):
        dmu = make_dmu()
        create(dmu, DESC, [(DEP_A, "out")])
        create(dmu, DESC + 0x100, [(DEP_B, "out")])
        completion = create(dmu, DESC + 0x200, [(DEP_A, "in"), (DEP_B, "in")])
        assert not completion.became_ready
        dmu.get_ready_task()
        dmu.get_ready_task()
        assert dmu.finish_task(DESC).tasks_woken == 0
        assert dmu.finish_task(DESC + 0x100).tasks_woken == 1

    def test_get_ready_task_reports_successor_count(self):
        dmu = make_dmu()
        create(dmu, DESC, [(DEP_A, "out")])
        create(dmu, DESC + 0x100, [(DEP_A, "in")])
        create(dmu, DESC + 0x200, [(DEP_A, "in")])
        ready = dmu.get_ready_task()
        assert ready.descriptor_address == DESC
        assert ready.num_successors == 2

    def test_get_ready_task_on_empty_queue_returns_null(self):
        dmu = make_dmu()
        result = dmu.get_ready_task()
        assert result.is_null
        assert result.cycles > 0


class TestFinalization:
    def test_finish_frees_all_structures(self):
        dmu = make_dmu()
        create(dmu, DESC, [(DEP_A, "out"), (DEP_B, "in")])
        dmu.get_ready_task()
        dmu.finish_task(DESC)
        dmu.assert_empty()

    def test_chain_of_tasks_drains_completely(self):
        dmu = make_dmu()
        descriptors = [DESC + i * 0x100 for i in range(10)]
        for descriptor in descriptors:
            create(dmu, descriptor, [(DEP_A, "out")])
        for descriptor in descriptors:
            ready = dmu.get_ready_task()
            assert ready.descriptor_address == descriptor
            dmu.finish_task(descriptor)
        dmu.assert_empty()

    def test_finish_unknown_task_rejected(self):
        dmu = make_dmu()
        with pytest.raises(UnknownTaskError):
            dmu.finish_task(DESC)

    def test_assert_empty_fails_with_inflight_tasks(self):
        dmu = make_dmu()
        create(dmu, DESC)
        with pytest.raises(DMUProtocolError):
            dmu.assert_empty()


class TestBlocking:
    def test_tat_exhaustion_blocks_without_state_change(self):
        dmu = make_dmu(tat_entries=8, dat_entries=8)
        for index in range(8):
            create(dmu, DESC + index * 0x100)
        before = dmu.capacity_snapshot()
        result = dmu.create_task(DESC + 0x9999)
        assert isinstance(result, DMUBlocked)
        assert result.structure == "TAT"
        assert dmu.capacity_snapshot() == before
        assert dmu.stats.blocked_by_structure["TAT"] == 1

    def test_dat_conflict_blocks_add_dependence(self):
        dmu = make_dmu(dat_associativity=2, index_selection="static", static_index_start_bit=0)
        create(dmu, DESC)
        num_sets = dmu.dat.num_sets
        stride = num_sets * BLOCK  # all addresses map to the same set
        dmu.add_dependence(DESC, stride, BLOCK, "in")
        dmu.add_dependence(DESC, 2 * stride, BLOCK, "in")
        result = dmu.add_dependence(DESC, 3 * stride, BLOCK, "in")
        assert isinstance(result, DMUBlocked)
        assert result.structure == "DAT"

    def test_sla_exhaustion_blocks_create(self):
        dmu = make_dmu(successor_list_entries=4)
        for index in range(4):
            create(dmu, DESC + index * 0x100)
        result = dmu.create_task(DESC + 0x9999)
        assert isinstance(result, DMUBlocked)
        assert result.structure == "SLA"

    @staticmethod
    def _tight_sla_dmu() -> DependenceManagementUnit:
        return DependenceManagementUnit(DMUConfig(
            tat_entries=8, tat_associativity=8, dat_entries=8, dat_associativity=8,
            successor_list_entries=4, dependence_list_entries=16,
            reader_list_entries=8, elements_per_list_entry=2, ready_queue_entries=8,
        ))

    def test_sla_precheck_counts_every_append_to_one_list(self):
        """An ``out`` that appends twice to one successor list blocks cleanly.

        W is both the last writer and a reader of X, so T's ``out X`` appends
        T to W's successor list twice (plus once to B's).  W's tail entry has
        one free slot, so the second append needs a new SLA entry and none is
        free.  The pre-check used to count one entry per distinct list and
        let the instruction raise ``DMUStructureFullError`` half-way through.
        """
        dmu = self._tight_sla_dmu()
        writer, other, reader, task = (DESC + index * 0x100 for index in range(4))
        create(dmu, writer, [(DEP_A, "out"), (DEP_A, "in")])
        create(dmu, other, [(DEP_B, "out")])
        create(dmu, reader, [(DEP_A, "in")])
        assert not isinstance(dmu.create_task(task), DMUBlocked)
        assert dmu.successor_lists.free_entries == 0
        capacity = dmu.capacity_snapshot()
        counters = dmu.stats.as_dict()

        result = dmu.add_dependence(task, DEP_A, BLOCK, "out")

        assert isinstance(result, DMUBlocked)
        assert result.structure == "SLA"
        assert dmu.capacity_snapshot() == capacity
        counters["blocked_by_structure"] = {"SLA": 1}
        counters["total_blocked"] = 1
        assert dmu.stats.as_dict() == counters
        assert dmu.task_table.predecessor_count[dmu.tat.lookup(task)] == 0

        # Finishing the unrelated task frees one SLA entry; the retry adds
        # three edges: writer W, reader W and reader B.
        assert dmu.get_ready_task().descriptor_address == writer
        assert dmu.get_ready_task().descriptor_address == other
        dmu.finish_task(other)
        result = dmu.add_dependence(task, DEP_A, BLOCK, "out")
        assert not isinstance(result, DMUBlocked)
        assert result.predecessors_added == 3

    def test_sla_precheck_counts_a_reader_that_reads_twice(self):
        """R reads X twice, so T's ``out X`` appends T to R's list twice."""
        dmu = self._tight_sla_dmu()
        reader, successor, other, task = (DESC + index * 0x100 for index in range(4))
        create(dmu, reader, [(DEP_B, "out"), (DEP_A, "in"), (DEP_A, "in")])
        create(dmu, successor, [(DEP_B, "in")])  # R's tail entry: one free slot
        create(dmu, other)
        assert not isinstance(dmu.create_task(task), DMUBlocked)
        assert dmu.successor_lists.free_entries == 0
        capacity = dmu.capacity_snapshot()

        result = dmu.add_dependence(task, DEP_A, BLOCK, "out")

        assert isinstance(result, DMUBlocked)
        assert result.structure == "SLA"
        assert dmu.capacity_snapshot() == capacity

    def test_space_recovered_after_finish(self):
        dmu = make_dmu(tat_entries=8, dat_entries=8)
        for index in range(8):
            create(dmu, DESC + index * 0x100)
        assert isinstance(dmu.create_task(DESC + 0x9999), DMUBlocked)
        dmu.get_ready_task()
        dmu.finish_task(DESC)
        result = dmu.create_task(DESC + 0x9999)
        assert not isinstance(result, DMUBlocked)


class TestAccounting:
    def test_cycles_scale_with_access_latency(self):
        fast = make_dmu(access_cycles=1)
        slow = make_dmu(access_cycles=4)
        fast_cycles = fast.create_task(DESC).cycles
        slow_cycles = slow.create_task(DESC).cycles
        assert slow_cycles == 4 * fast_cycles

    def test_stats_counters(self):
        dmu = make_dmu()
        create(dmu, DESC, [(DEP_A, "out")])
        create(dmu, DESC + 0x100, [(DEP_A, "in")])
        dmu.get_ready_task()
        dmu.finish_task(DESC)
        stats = dmu.stats
        assert stats.tasks_created == 2
        assert stats.dependences_added == 2
        assert stats.tasks_finished == 1
        assert stats.instructions["create_task"] == 2
        assert stats.total_accesses > 0
        assert stats.average_cycles_per_instruction() > 0
        as_dict = stats.as_dict()
        assert as_dict["tasks_created"] == 2
        assert "structure_accesses" in as_dict

    def test_finish_cost_grows_with_successor_count(self):
        few = make_dmu()
        create(few, DESC, [(DEP_A, "out")])
        create(few, DESC + 0x100, [(DEP_A, "in")])
        few.get_ready_task()
        cost_few = few.finish_task(DESC).cycles

        many = make_dmu()
        create(many, DESC, [(DEP_A, "out")])
        for index in range(6):
            create(many, DESC + (index + 1) * 0x100, [(DEP_A, "in")])
        many.get_ready_task()
        cost_many = many.finish_task(DESC).cycles
        assert cost_many > cost_few


class TestIdsPastTheOldMarker:
    """Internal IDs of 4095 and up are ordinary list elements.

    The invalid-element marker used to be ``0xFFF``, so task ID 4095 (the
    4096th in-flight task) could not be stored in a successor list: the
    fig07 4096-entry sweep and the ideal DMU crashed at paper scale.
    """

    @staticmethod
    def _drain(dmu: DependenceManagementUnit, num_tasks: int) -> None:
        finished = 0
        while True:
            ready = dmu.get_ready_task()
            if ready.descriptor_address is None:
                break
            dmu.finish_task(ready.descriptor_address)
            finished += 1
        assert finished == num_tasks
        assert dmu.stats.total_blocked == 0
        dmu.assert_empty()

    @classmethod
    def _chain(cls, dmu: DependenceManagementUnit, num_tasks: int) -> None:
        # Every task writes one block, so each is the successor of the one
        # before it; all stay in flight until the chain is drained in order.
        for index in range(num_tasks):
            create(dmu, DESC + 0x40 * index, [(DEP_A, "out")])
        assert dmu.tat.entries_in_use == num_tasks
        cls._drain(dmu, num_tasks)

    @classmethod
    def _readers(cls, dmu: DependenceManagementUnit, num_tasks: int) -> None:
        # One writer, then readers of its block: every reader's task ID is
        # stored in the writer's successor list and in the reader list.
        create(dmu, DESC, [(DEP_A, "out")])
        for index in range(1, num_tasks):
            create(dmu, DESC + 0x40 * index, [(DEP_A, "in")])
        assert dmu.tat.entries_in_use == num_tasks
        assert dmu.get_ready_task().descriptor_address == DESC
        assert dmu.finish_task(DESC).tasks_woken == num_tasks - 1
        cls._drain(dmu, num_tasks - 1)

    @classmethod
    def _private_blocks(cls, dmu: DependenceManagementUnit, num_tasks: int) -> None:
        # Every task writes its own block, so dependence IDs count up with
        # the tasks and each lands in its task's dependence list.
        for index in range(num_tasks):
            create(dmu, DESC + 0x40 * index, [(DEP_A + BLOCK * index, "out")])
        assert dmu.dat.entries_in_use == num_tasks
        cls._drain(dmu, num_tasks)

    @staticmethod
    def _fig07_config() -> DMUConfig:
        from repro.config import default_paper_config
        from repro.experiments.fig07_tat_dat import _sweep_dmu

        return _sweep_dmu(default_paper_config().dmu, 4096, 4096)

    def test_fig07_4096_entry_config(self):
        self._chain(DependenceManagementUnit(self._fig07_config()), 4096)

    def test_ideal_config(self):
        self._chain(DependenceManagementUnit(DMUConfig.ideal()), 5000)

    def test_reader_lists_fig07_4096_entry_config(self):
        self._readers(DependenceManagementUnit(self._fig07_config()), 4096)

    def test_reader_lists_ideal_config(self):
        self._readers(DependenceManagementUnit(DMUConfig.ideal()), 5000)

    def test_dependence_lists_fig07_4096_entry_config(self):
        self._private_blocks(DependenceManagementUnit(self._fig07_config()), 4096)

    def test_dependence_lists_ideal_config(self):
        self._private_blocks(DependenceManagementUnit(DMUConfig.ideal()), 5000)
