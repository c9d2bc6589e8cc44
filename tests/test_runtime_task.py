"""Task, dependence and program abstractions."""

import pytest

from repro.errors import InvalidProgramError
from repro.runtime.task import (
    AccessMode,
    DependenceSpec,
    TaskDefinition,
    TaskInstance,
    TaskInstanceFactory,
    TaskProgram,
    TaskRegion,
    TaskState,
    single_region_program,
)


def make_definition(uid=0, deps=(), work_us=10.0, **kwargs):
    return TaskDefinition(uid=uid, name=f"t{uid}", kind="test", work_us=work_us, dependences=tuple(deps), **kwargs)


class TestAccessMode:
    def test_in_is_input_only(self):
        assert AccessMode.IN.is_input and not AccessMode.IN.is_output

    def test_out_is_output_only(self):
        assert AccessMode.OUT.is_output and not AccessMode.OUT.is_input

    def test_inout_is_both(self):
        assert AccessMode.INOUT.is_input and AccessMode.INOUT.is_output


class TestDependenceSpec:
    def test_direction_mapping(self):
        assert DependenceSpec(0x100, 64, AccessMode.IN).direction == "in"
        assert DependenceSpec(0x100, 64, AccessMode.OUT).direction == "out"
        assert DependenceSpec(0x100, 64, AccessMode.INOUT).direction == "out"

    def test_negative_address_rejected(self):
        with pytest.raises(InvalidProgramError):
            DependenceSpec(-1, 64, AccessMode.IN)

    def test_zero_size_rejected(self):
        with pytest.raises(InvalidProgramError):
            DependenceSpec(0x100, 0, AccessMode.IN)

    def test_immutable(self):
        # Built programs are shared across simulations by the campaign's
        # program memo; mutation must fail loudly.
        spec = DependenceSpec(0x100, 64, AccessMode.IN)
        with pytest.raises(AttributeError, match="immutable"):
            spec.address = 0x200

    def test_equality_and_hashing_by_value(self):
        a = DependenceSpec(0x100, 64, AccessMode.IN)
        b = DependenceSpec(0x100, 64, AccessMode.IN)
        c = DependenceSpec(0x100, 64, AccessMode.OUT)
        assert a == b and hash(a) == hash(b)
        assert a != c and len({a, b, c}) == 2


class TestTaskDefinition:
    def test_address_accessors(self):
        deps = [
            DependenceSpec(0x100, 64, AccessMode.IN),
            DependenceSpec(0x200, 64, AccessMode.OUT),
            DependenceSpec(0x300, 64, AccessMode.INOUT),
        ]
        definition = make_definition(deps=deps)
        assert definition.num_dependences == 3
        assert definition.input_addresses == (0x100, 0x300)
        assert definition.all_addresses == (0x100, 0x200, 0x300)

    def test_negative_work_rejected(self):
        with pytest.raises(InvalidProgramError):
            make_definition(work_us=-1.0)

    def test_bad_memory_sensitivity_rejected(self):
        with pytest.raises(InvalidProgramError):
            make_definition(memory_sensitivity=2.0)

    def test_immutable(self):
        definition = make_definition()
        with pytest.raises(AttributeError, match="immutable"):
            definition.work_us = 99.0


class TestTaskInstance:
    def test_lifecycle(self):
        instance = TaskInstance(make_definition(), descriptor_address=0x8000)
        assert instance.state == TaskState.CREATED
        instance.mark_ready(10)
        assert instance.is_ready and instance.ready_cycle == 10
        instance.mark_running(20, core_id=3)
        assert instance.state == TaskState.RUNNING and instance.core_id == 3
        instance.mark_finished(30)
        assert instance.is_finished and instance.finish_cycle == 30

    def test_add_successor_updates_counts(self):
        a = TaskInstance(make_definition(uid=0), 0x8000)
        b = TaskInstance(make_definition(uid=1), 0x8100)
        a.add_successor(b)
        assert a.num_successors == 1
        assert b.num_predecessors == 1
        assert a.successors == [b]

    def test_factory_assigns_unique_descriptor_addresses(self):
        factory = TaskInstanceFactory()
        addresses = {factory.create(make_definition(uid=i)).descriptor_address for i in range(50)}
        assert len(addresses) == 50


class TestTaskProgram:
    def test_single_region_program(self):
        program = single_region_program("p", [make_definition(uid=0), make_definition(uid=1)])
        assert program.num_tasks == 2
        assert len(program.regions) == 1
        assert program.average_task_us == pytest.approx(10.0)

    def test_duplicate_uid_rejected(self):
        with pytest.raises(InvalidProgramError):
            single_region_program("p", [make_definition(uid=0), make_definition(uid=0)])

    def test_empty_program_rejected(self):
        with pytest.raises(InvalidProgramError):
            TaskProgram(name="empty", regions=())

    def test_total_and_average_work(self):
        tasks = [make_definition(uid=i, work_us=100.0) for i in range(4)]
        program = single_region_program("p", tasks)
        assert program.total_work_us == pytest.approx(400.0)
        assert program.max_dependences_per_task() == 0

    def test_multi_region_iteration_order(self):
        region_a = TaskRegion(tasks=(make_definition(uid=0),), name="a")
        region_b = TaskRegion(tasks=(make_definition(uid=1),), name="b")
        program = TaskProgram(name="p", regions=(region_a, region_b))
        assert [t.uid for t in program.all_tasks()] == [0, 1]

    def test_negative_sequential_time_rejected(self):
        with pytest.raises(InvalidProgramError):
            TaskRegion(tasks=(make_definition(uid=0),), sequential_us_before=-5.0)
