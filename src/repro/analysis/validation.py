"""Post-simulation validation of dependence and barrier semantics.

After every simulation (unless disabled in the configuration) the recorded
per-task timestamps are checked against a *reference* dependence graph built
directly from the workload definitions, independently of whichever runtime
model produced the schedule:

* every task ran exactly once, with consistent created/ready/start/finish
  timestamps,
* for every edge of the maximal task dependence graph, the successor started
  no earlier than its predecessor finished,
* tasks of a later parallel region started only after every task of the
  previous region finished (barrier semantics).

This is the safety net that catches bugs in runtime/scheduler/DMU models: a
policy that "wins" by violating dependences fails validation instead of
producing a bogus speedup.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..errors import ValidationError
from ..runtime.task import TaskInstance, TaskProgram


@dataclass(frozen=True)
class ReferenceGraph:
    """The maximal dependence graph of a program (edges by task uid)."""

    edges: Tuple[Tuple[int, int], ...]
    region_of: Dict[int, int]

    @classmethod
    def from_program(cls, program: TaskProgram) -> "ReferenceGraph":
        """Build the maximal dependence graph straight from the definitions.

        Mirrors :meth:`DependenceTracker.register_task` (last writer and
        ordered reader lists per address) but operates on task uids directly:
        the graph runs once per simulation as a safety net, and
        materializing full :class:`TaskInstance` objects for it was pure
        overhead.  ``tests/test_analysis.py`` pins the equivalence against a
        tracker-built graph.
        """
        last_writer: Dict[int, int] = {}
        readers: Dict[int, List[int]] = {}
        edges: List[Tuple[int, int]] = []
        seen: set = set()
        region_of: Dict[int, int] = {}
        for region_index, region in enumerate(program.regions):
            for definition in region.tasks:
                uid = definition.uid
                region_of[uid] = region_index
                for dependence in definition.dependences:
                    address = dependence.address
                    writer = last_writer.get(address)
                    if writer is not None and writer != uid:
                        edge = (writer, uid)
                        if edge not in seen:
                            seen.add(edge)
                            edges.append(edge)
                    if dependence.is_output:
                        for reader in readers.get(address, ()):
                            if reader != uid:
                                edge = (reader, uid)
                                if edge not in seen:
                                    seen.add(edge)
                                    edges.append(edge)
                        readers[address] = []
                        last_writer[address] = uid
                    else:
                        reader_list = readers.setdefault(address, [])
                        if uid not in reader_list:
                            reader_list.append(uid)
        # Duplicate edges (the same pair reachable through several addresses)
        # are dropped: validation only checks each edge's timestamps, so the
        # dedup changes nothing semantically and shrinks the per-simulation
        # verification loop.
        return cls(edges=tuple(edges), region_of=region_of)


def validate_execution(program: TaskProgram, instances: Sequence[TaskInstance]) -> None:
    """Raise :class:`ValidationError` if the recorded schedule is inconsistent."""
    by_uid: Dict[int, TaskInstance] = {}
    for instance in instances:
        if instance.uid in by_uid:
            raise ValidationError(f"task uid {instance.uid} was instantiated twice")
        by_uid[instance.uid] = instance

    expected_uids = {task.uid for task in program.all_tasks()}
    missing = expected_uids - set(by_uid)
    if missing:
        raise ValidationError(f"{len(missing)} tasks were never created: {sorted(missing)[:5]}")

    for instance in by_uid.values():
        if not instance.is_finished:
            raise ValidationError(f"task {instance.name!r} never finished")
        if instance.start_cycle is None or instance.finish_cycle is None:
            raise ValidationError(f"task {instance.name!r} has incomplete timestamps")
        if instance.start_cycle < instance.created_cycle:
            raise ValidationError(f"task {instance.name!r} started before it was created")
        if instance.finish_cycle < instance.start_cycle:
            raise ValidationError(f"task {instance.name!r} finished before it started")

    # Programs are immutable and shared across simulations by the campaign's
    # program memo, so the reference graph is memoized on the
    # program itself (one build per program instead of one per simulation).
    reference = getattr(program, "_reference_graph", None)
    if reference is None:
        reference = ReferenceGraph.from_program(program)
        object.__setattr__(program, "_reference_graph", reference)
    for pred_uid, succ_uid in reference.edges:
        pred = by_uid[pred_uid]
        succ = by_uid[succ_uid]
        if succ.start_cycle < pred.finish_cycle:
            raise ValidationError(
                f"dependence violated: {succ.name!r} (start={succ.start_cycle}) ran before "
                f"{pred.name!r} finished (finish={pred.finish_cycle})"
            )

    # Barrier semantics between consecutive regions.
    region_finish: Dict[int, int] = {}
    region_start: Dict[int, int] = {}
    for instance in by_uid.values():
        region = reference.region_of[instance.uid]
        region_finish[region] = max(region_finish.get(region, 0), instance.finish_cycle or 0)
        start = instance.start_cycle or 0
        region_start[region] = min(region_start.get(region, start), start)
    for region_index in sorted(region_start):
        if region_index == 0:
            continue
        previous_finish = region_finish.get(region_index - 1)
        if previous_finish is not None and region_start[region_index] < previous_finish:
            raise ValidationError(
                f"barrier violated: region {region_index} started at "
                f"{region_start[region_index]} before region {region_index - 1} "
                f"finished at {previous_finish}"
            )
