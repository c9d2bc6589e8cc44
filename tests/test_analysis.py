"""Analysis utilities: metrics, graph analysis and execution validation."""

import pytest

from repro.analysis.graph import critical_path_us, max_parallelism, task_graph_edges
from repro.analysis.metrics import (
    geometric_mean,
    normalize,
    percentage_improvement,
    relative_change,
    speedup,
)
from repro.analysis.validation import ReferenceGraph, validate_execution
from repro.errors import ValidationError
from repro.runtime.task import (
    AccessMode,
    DependenceSpec,
    TaskDefinition,
    TaskInstanceFactory,
    TaskProgram,
    TaskRegion,
)
from repro.sim.machine import run_simulation
from repro.workloads.synthetic import chain_program

from tests.util import diamond_program, make_config


class TestMetrics:
    def test_geometric_mean_basic(self):
        assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)
        assert geometric_mean([1.0, 1.0, 1.0]) == pytest.approx(1.0)

    def test_geometric_mean_rejects_empty_and_non_positive(self):
        with pytest.raises(ValueError):
            geometric_mean([])
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])

    def test_speedup(self):
        assert speedup(200.0, 100.0) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            speedup(100.0, 0.0)

    def test_normalize(self):
        assert normalize([2.0, 4.0], 2.0) == [1.0, 2.0]
        with pytest.raises(ValueError):
            normalize([1.0], 0.0)

    def test_relative_change_and_improvement(self):
        assert relative_change(100.0, 80.0) == pytest.approx(-0.2)
        assert percentage_improvement(100.0, 80.0) == pytest.approx(20.0)
        with pytest.raises(ValueError):
            relative_change(0.0, 10.0)


def _two_region_program() -> TaskProgram:
    """Region 0: A(10) -> B(20), plus an independent C(5): span 30.
    Region 1: D(7) -> E(3), plus an independent F(1): span 10.  D also reads
    what B wrote, an edge across the barrier between the regions."""
    block = 4096
    x, y, z, w = 0x1000_0000, 0x2000_0000, 0x3000_0000, 0x4000_0000

    def task(uid, work_us, *dependences):
        specs = tuple(DependenceSpec(address, block, mode) for address, mode in dependences)
        return TaskDefinition(uid=uid, name=f"t{uid}", kind="t", work_us=work_us,
                              dependences=specs)

    first = TaskRegion(tasks=(
        task(0, 10.0, (x, AccessMode.OUT)),
        task(1, 20.0, (x, AccessMode.INOUT)),
        task(2, 5.0, (y, AccessMode.OUT)),
    ))
    second = TaskRegion(tasks=(
        task(3, 7.0, (x, AccessMode.IN), (z, AccessMode.OUT)),
        task(4, 3.0, (z, AccessMode.IN)),
        task(5, 1.0, (w, AccessMode.OUT)),
    ))
    return TaskProgram(name="two_regions", regions=(first, second))


class TestGraphAnalysis:
    def test_multi_region_span_is_the_sum_of_per_region_spans(self):
        program = _two_region_program()
        assert (1, 3) in task_graph_edges(program)  # the cross-region edge
        assert critical_path_us(program) == pytest.approx(30.0 + 10.0)

    def test_multi_region_parallelism_uses_the_per_region_span(self):
        program = _two_region_program()
        assert max_parallelism(program) == pytest.approx(46.0 / 40.0)

    def test_diamond_critical_path(self):
        program = diamond_program(work_us=10.0)
        assert critical_path_us(program) == pytest.approx(30.0)
        assert max_parallelism(program) == pytest.approx(40.0 / 30.0)

    def test_chain_critical_path(self):
        program = chain_program(num_chains=2, chain_length=5, work_us=10.0)
        assert critical_path_us(program) == pytest.approx(50.0)

    def test_reference_graph_regions(self):
        program = diamond_program()
        graph = ReferenceGraph.from_program(program)
        assert set(graph.region_of.values()) == {0}
        assert (0, 1) in graph.edges and (0, 2) in graph.edges


class TestValidation:
    def _simulated_instances(self, program):
        result = run_simulation(program, make_config(runtime="software"))
        return result.task_instances

    def test_valid_execution_passes(self, diamond):
        instances = self._simulated_instances(diamond)
        validate_execution(diamond, instances)

    def test_detects_dependence_violation(self, diamond):
        instances = self._simulated_instances(diamond)
        by_name = {i.name: i for i in instances}
        # Forge a start time before the predecessor finished.
        by_name["D"].created_cycle = 0
        by_name["D"].start_cycle = 0
        with pytest.raises(ValidationError, match="dependence violated"):
            validate_execution(diamond, instances)

    def test_detects_missing_task(self, diamond):
        instances = self._simulated_instances(diamond)
        with pytest.raises(ValidationError, match="never created"):
            validate_execution(diamond, instances[:-1])

    def test_detects_unfinished_task(self, diamond):
        factory = TaskInstanceFactory()
        instances = [factory.create(defn, 0) for defn in diamond.all_tasks()]
        with pytest.raises(ValidationError, match="never finished"):
            validate_execution(diamond, instances)

    def test_detects_duplicate_instances(self, diamond):
        instances = self._simulated_instances(diamond)
        with pytest.raises(ValidationError, match="twice"):
            validate_execution(diamond, list(instances) + [instances[0]])

    def test_detects_inverted_timestamps(self, diamond):
        instances = self._simulated_instances(diamond)
        instances[0].finish_cycle = 1
        instances[0].start_cycle = 100
        with pytest.raises(ValidationError):
            validate_execution(diamond, instances)

    def test_detects_barrier_violation(self):
        from repro.workloads.synthetic import fork_join_program

        program = fork_join_program(num_waves=2, tasks_per_wave=2, work_us=10.0)
        result = run_simulation(program, make_config(runtime="software"))
        instances = result.task_instances
        # Pretend a second-region task started before the first region ended.
        second_region_task = [i for i in instances if i.uid >= 2][0]
        second_region_task.start_cycle = 0
        second_region_task.created_cycle = 0
        with pytest.raises(ValidationError, match="barrier violated"):
            validate_execution(program, instances)
