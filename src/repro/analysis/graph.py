"""Task-dependence-graph analysis of a workload program.

These helpers build the *maximal* task dependence graph of a program — the
graph obtained by registering every task in creation order without retiring
any — and compute properties used by the experiments and documentation:
the dependence edges, the critical path length and an upper bound on the
parallelism available at the chosen granularity.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from ..runtime.task import TaskInstanceFactory, TaskProgram
from ..runtime.tracker import DependenceTracker


def task_graph_edges(program: TaskProgram) -> List[Tuple[int, int]]:
    """Dependence edges of ``program`` as (predecessor uid, successor uid) pairs."""
    factory = TaskInstanceFactory()
    tracker = DependenceTracker()
    instances = []
    for region_index, region in enumerate(program.regions):
        for definition in region.tasks:
            instance = factory.create(definition, region_index)
            tracker.register_task(instance)
            instances.append(instance)
    edges: List[Tuple[int, int]] = []
    for instance in instances:
        for successor in instance.successors:
            edges.append((instance.uid, successor.uid))
    return edges


def critical_path_us(program: TaskProgram) -> float:
    """Length (in microseconds of task work) of the longest dependence chain.

    Taskwait barriers already order the regions, so the span is the sum of
    each region's longest chain, computed over same-region edges only: an
    edge from an earlier region is implied by the barrier and must not
    carry that region's chain into this one a second time.
    """
    work: Dict[int, float] = {}
    region_of: Dict[int, int] = {}
    for index, region in enumerate(program.regions):
        for task in region.tasks:
            work[task.uid] = task.work_us
            region_of[task.uid] = index
    predecessors: Dict[int, Set[int]] = {uid: set() for uid in work}
    for pred, succ in task_graph_edges(program):
        if region_of[pred] == region_of[succ]:
            predecessors[succ].add(pred)

    longest: Dict[int, float] = {}
    for uid in _topological_order(work, predecessors):
        longest[uid] = work[uid] + max((longest[p] for p in predecessors[uid]), default=0.0)
    return sum(
        max((longest[task.uid] for task in region.tasks), default=0.0)
        for region in program.regions
    )


def max_parallelism(program: TaskProgram) -> float:
    """Upper bound on parallelism: total work divided by the critical path."""
    critical = critical_path_us(program)
    if critical == 0:
        return 0.0
    return program.total_work_us / critical


def _topological_order(
    work: Dict[int, float], predecessors: Dict[int, Set[int]]
) -> List[int]:
    remaining_preds = {uid: set(preds) for uid, preds in predecessors.items()}
    ready = sorted(uid for uid, preds in remaining_preds.items() if not preds)
    order: List[int] = []
    dependents: Dict[int, List[int]] = {uid: [] for uid in work}
    for uid, preds in predecessors.items():
        for pred in preds:
            dependents[pred].append(uid)
    index = 0
    ready_set = list(ready)
    while index < len(ready_set):
        uid = ready_set[index]
        index += 1
        order.append(uid)
        for dependent in dependents[uid]:
            remaining_preds[dependent].discard(uid)
            if not remaining_preds[dependent]:
                ready_set.append(dependent)
    if len(order) != len(work):
        raise ValueError("task graph contains a dependence cycle")
    return order
