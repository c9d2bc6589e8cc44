"""Verified trajectory reuse: replay the DMU instead of re-simulating.

The design-space figures sweep only the DMU's sizing while the program,
runtime and scheduler stay fixed (Fig. 7 the TAT/DAT sizes, Fig. 8 the
list arrays, Fig. 9 the access latency, Fig. 11 the index selection).  A
simulation sees its DMU only through the responses of the five ISA
instructions, so when a smaller DMU answers every instruction as a larger
one did, the two runs are the same run up to the DMU's own counters.

* A **trajectory class** (:func:`trajectory_class`) is a campaign payload
  minus the :class:`~repro.config.DMUConfig` fields that only the DMU model
  and its storage model read (:data:`DROPPED_DMU_FIELDS`).  Two keys of one
  class build the same program and drive the same runtime, scheduler and
  chip.
* The campaign engine owns the one :class:`TrajectoryMemo` and plans
  every key's part from the plan and the memo.  A class's first pending key
  (in key order) is its **reference**: when later keys of the class follow,
  the engine marks it ``payload["record"]`` and its full simulation records
  its **DMU trace** (:class:`DMUTrace`): every instruction it issued, with
  its arguments and the response fields the runtime reads.  The outcome
  carries the trace back to the engine's memo.
* A later key goes out once its reference has settled, with the class's
  :meth:`TrajectoryMemo.trace` in ``payload["trace"]``, and
  :func:`replayed` runs the trace through a fresh
  :class:`~repro.core.dmu.DependenceManagementUnit` of the key's own
  configuration and compares every response.  Equal responses mean equal
  instructions next (the rest of the simulation is a deterministic function
  of the class and of the responses so far), so by induction the key's run
  would have been the reference run, instruction for instruction.  Its
  result is then the reference's trajectory (timeline, runtime statistics,
  cycles) packaged with the replayed DMU by
  :func:`~repro.sim.machine.simulation_result`, the function
  :meth:`~repro.sim.machine.Machine.run` packages every full run with.
* The first mismatch, or any exception, abandons the replay: the key is
  simulated in full, and records nothing (its class has a trace already).
  A key goes without the trace when its DMU has fewer entries in some
  structure than a reference that never blocked held at once: it would
  block where the reference did not.

:class:`TrajectoryMemo` holds one trace per class, compressed and bounded
in bytes.  Attempts hold no memo: they replay only the trace their payload
carries.  The engine's outcomes settle in key order, so its memo, and with
it the set of replayed keys, is a function of the plan, serial or pooled.
No memo outlives its engine.
"""

from __future__ import annotations

import collections
import contextlib
import json
import zlib
from array import array
from dataclasses import fields
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..config import DMUConfig, SimulationConfig
from ..core.dmu import DAT, DLA, RLA, SLA, TAT, DependenceManagementUnit
from ..sim import machine
from ..sim.machine import SimulationResult, simulation_result
from .cache import canonical_json

#: The one :class:`DMUConfig` field the simulation reads outside the DMU:
#: ``TDMRuntime`` charges ``instruction_issue_cycles`` on every instruction.
TRAJECTORY_DMU_FIELDS = ("instruction_issue_cycles",)

#: The fields a trajectory class leaves out: read only under ``repro.core``
#: and by :class:`~repro.core.storage.DMUStorageModel` (or by nothing).
DROPPED_DMU_FIELDS = tuple(
    f.name for f in fields(DMUConfig) if f.name not in TRAJECTORY_DMU_FIELDS
)

#: The DMUConfig field that sizes each structure a trace's peak usage is
#: kept for; the list arrays' usage also depends on ``elements_per_list_entry``.
CAPACITY_FIELDS = {
    TAT: "tat_entries",
    DAT: "dat_entries",
    SLA: "successor_list_entries",
    DLA: "dependence_list_entries",
    RLA: "reader_list_entries",
}
LIST_FIELDS = tuple(CAPACITY_FIELDS[structure] for structure in (SLA, DLA, RLA))

#: Words a recording buffers before it seals a compressed chunk (32 KB).
CHUNK_WORDS = 4096

#: Bytes a memo holds at most; the least recently used classes go first.
#: A trace compresses about 8:1; at scale 1.0 the campaign's 9 classes take
#: 2.15 MB (the largest entry 1.08 MB), so the bound never evicts there.
MAX_MEMO_BYTES = 8 << 20

# Trace layout: one record per instruction call, fixed width per opcode.
#   get_ready_task     READY,    cycles, descriptor (-1: null), num_successors
#   add_dependence     ADD,      descriptor, address, size, is_out, cycles
#   finish_task        FINISH,   descriptor, cycles, tasks_woken
#   create_task        CREATE,   descriptor, cycles
#   complete_creation  COMPLETE, descriptor, cycles, became_ready
# ``cycles`` is BLOCKED for a DMUBlocked response, whose other fields are 0.
READY, ADD, FINISH, CREATE, COMPLETE = range(5)
BLOCKED = -1


def trajectory_class(payload: Dict[str, object]) -> str:
    """The canonical JSON of everything in ``payload`` a trajectory depends on."""
    config = payload["config"]
    dmu = config["dmu"]
    return canonical_json({
        "benchmark": payload["benchmark"],
        "scale": payload["scale"],
        "granularity": payload["granularity"],
        "workload_runtime": payload["workload_runtime"],
        "seed": payload["seed"],
        "config": {**config, "dmu": {name: dmu[name] for name in TRAJECTORY_DMU_FIELDS}},
    })


class DMUTrace:
    """The instructions one simulation issues to its DMU and what they answer.

    Records go into a short list of words in the layout above (a list
    takes a record faster than an ``array``).  Past :data:`CHUNK_WORDS`
    words, the next ``create_task`` or ``finish_task`` seals them into a
    zlib-compressed ``array('q')`` chunk of whole records, so a recording
    holds little more than its compressed bytes and a replay unpacks one
    chunk at a time.  Before each ``finish_task`` (which frees what the
    creations before it filled) it takes the DMU's free entries per
    structure; ``least_free`` keeps each minimum.  ``observed`` counts the
    DMUs :meth:`observe` was handed; a trace is complete only when it saw
    exactly one (``None`` for a runtime without a DMU, whose trace stays
    empty).  A trace holds plain data, so a pool worker's pickles back.
    """

    __slots__ = ("observed", "least_free", "_words", "_chunks")

    def __init__(self) -> None:
        self.observed = 0
        self.least_free: Dict[str, int] = {}
        self._words: List[int] = []
        self._chunks: List[bytes] = []

    def _pack(self) -> None:
        self._chunks.append(zlib.compress(array("q", self._words), 1))
        del self._words[:]

    def chunks(self) -> Tuple[bytes, ...]:
        """The recorded chunks, the last one sealed now."""
        if self._words:
            self._pack()
        return tuple(self._chunks)

    def observe(self, dmu: Optional[DependenceManagementUnit]) -> None:
        """Wrap ``dmu``'s five bound instructions to append each call here."""
        self.observed += 1
        if dmu is None:
            return
        words = self._words
        extend, pack = words.extend, self._pack
        snapshot = dmu.capacity_snapshot
        least_free = self.least_free
        least_free.update(snapshot())
        create, add = dmu.create_task, dmu.add_dependence
        complete, finish, ready = dmu.complete_creation, dmu.finish_task, dmu.get_ready_task

        # Every task is created and finished once: those two pack the words.
        def create_task(descriptor):
            result = create(descriptor)
            extend((CREATE, descriptor, BLOCKED if result.blocked else result.cycles))
            if len(words) > CHUNK_WORDS:
                pack()
            return result

        def add_dependence(descriptor, address, size, direction):
            result = add(descriptor, address, size, direction)
            extend((ADD, descriptor, address, size, direction == "out",
                    BLOCKED if result.blocked else result.cycles))
            return result

        def complete_creation(descriptor):
            result = complete(descriptor)
            if result.blocked:
                extend((COMPLETE, descriptor, BLOCKED, 0))
            else:
                extend((COMPLETE, descriptor, result.cycles, result.became_ready))
            return result

        def finish_task(descriptor):
            for structure, free in snapshot().items():
                if free < least_free[structure]:
                    least_free[structure] = free
            result = finish(descriptor)
            if result.blocked:
                extend((FINISH, descriptor, BLOCKED, 0))
            else:
                extend((FINISH, descriptor, result.cycles, result.tasks_woken))
            if len(words) > CHUNK_WORDS:
                pack()
            return result

        def get_ready_task():
            result = ready()
            if result.blocked:
                extend((READY, BLOCKED, 0, 0))
            else:
                address = result.descriptor_address
                extend((READY, result.cycles, -1 if address is None else address,
                        result.num_successors))
            return result

        dmu.create_task = create_task
        dmu.add_dependence = add_dependence
        dmu.complete_creation = complete_creation
        dmu.finish_task = finish_task
        dmu.get_ready_task = get_ready_task


def replay(words: Sequence[int], dmu: DependenceManagementUnit) -> bool:
    """Issue every call recorded in ``words`` to ``dmu``; True when each
    response matches the recorded one (False leaves ``dmu`` mid-trace)."""
    create, add = dmu.create_task, dmu.add_dependence
    complete, finish, ready = dmu.complete_creation, dmu.finish_task, dmu.get_ready_task
    i, end = 0, len(words)
    while i < end:
        op = words[i]
        if op == READY:
            result = ready()
            if result.blocked:
                if words[i + 1] != BLOCKED:
                    return False
            else:
                address = result.descriptor_address
                if (result.cycles != words[i + 1]
                        or (-1 if address is None else address) != words[i + 2]
                        or result.num_successors != words[i + 3]):
                    return False
            i += 4
        elif op == ADD:
            result = add(words[i + 1], words[i + 2], words[i + 3],
                         "out" if words[i + 4] else "in")
            if (BLOCKED if result.blocked else result.cycles) != words[i + 5]:
                return False
            i += 6
        elif op == FINISH:
            result = finish(words[i + 1])
            if result.blocked:
                if words[i + 2] != BLOCKED:
                    return False
            elif result.cycles != words[i + 2] or result.tasks_woken != words[i + 3]:
                return False
            i += 4
        elif op == CREATE:
            result = create(words[i + 1])
            if (BLOCKED if result.blocked else result.cycles) != words[i + 2]:
                return False
            i += 3
        else:
            result = complete(words[i + 1])
            if result.blocked:
                if words[i + 2] != BLOCKED:
                    return False
            elif result.cycles != words[i + 2] or result.became_ready != words[i + 3]:
                return False
            i += 4
    return True


#: What a replay needs (:meth:`TrajectoryMemo.trace`): the trace's chunks
#: (None for a runtime without a DMU) and the reference result as JSON.
Trace = Tuple[Optional[Tuple[bytes, ...]], bytes]

#: A memo entry: the two fields of a :data:`Trace`, then the reference's list
#: width with its peak entries in use per sizing field (None unless it never
#: blocked).
_Entry = Tuple[Optional[Tuple[bytes, ...]], bytes, Optional[Tuple[int, Dict[str, int]]]]


def replayed(trace: Trace, config: SimulationConfig) -> Optional[SimulationResult]:
    """The result of ``config``'s run when ``trace`` replays through a fresh
    DMU of ``config.dmu`` with every response equal; None when it does not."""
    config.validate()
    chunks, serialized = trace
    dmu = None
    if chunks is not None:
        dmu = DependenceManagementUnit(config.dmu)
        try:
            if not all(replay(_unpack(chunk), dmu) for chunk in chunks):
                return None
        except Exception:  # noqa: BLE001 - any failure falls back to a full run
            return None
    reference = SimulationResult.from_dict(json.loads(serialized))
    return simulation_result(
        config,
        dmu,
        program_name=reference.program_name,
        runtime_name=reference.runtime_name,
        scheduler_name=reference.scheduler_name,
        total_cycles=reference.total_cycles,
        timeline=reference.timeline,
        runtime_stats=reference.runtime_stats,
        locality_hit_fraction=reference.locality_hit_fraction,
        finished_task_count=reference.finished_task_count,
    )


class TrajectoryMemo:
    """One recorded trace and its reference result per trajectory class.

    A trace is kept as its compressed chunks and the reference result as
    JSON, one bytes object each, so a memo pins no small objects between
    simulations.  The memo keeps at most :data:`MAX_MEMO_BYTES`, dropping
    the least recently used classes.
    """

    def __init__(self) -> None:
        self._classes: "collections.OrderedDict[str, _Entry]" = collections.OrderedDict()
        self.bytes = 0

    def __contains__(self, trajectory: str) -> bool:
        return trajectory in self._classes

    def trace(self, trajectory: str, dmu: DMUConfig) -> Optional[Trace]:
        """The :data:`Trace` a key of ``trajectory`` with the DMU ``dmu``
        replays; None when the class has none, or when ``dmu`` must block
        where the reference did not (:func:`_must_block`)."""
        entry = self._classes.get(trajectory)
        if entry is None:
            return None
        self._classes.move_to_end(trajectory)
        chunks, serialized, peaks = entry
        if peaks is not None and _must_block(peaks, dmu):
            return None
        return chunks, serialized

    def add(self, trajectory: str, trace: DMUTrace, result: Dict[str, object]) -> None:
        """Keep ``trace`` as its class's reference, with ``result`` (the
        run's :meth:`~repro.sim.machine.SimulationResult.to_dict`)."""
        if trace.observed != 1 or trajectory in self._classes:
            return
        stats = result["dmu_stats"]
        chunks = trace.chunks() if stats is not None else None
        peaks = None
        if stats is not None and not any(stats["blocked_by_structure"].values()):
            sizes = result["config"]["dmu"]
            peaks = sizes["elements_per_list_entry"], {
                name: sizes[name] - trace.least_free[structure]
                for structure, name in CAPACITY_FIELDS.items()
            }
        serialized = json.dumps(result, separators=(",", ":")).encode()
        size = len(serialized) + sum(map(len, chunks or ()))
        if size > MAX_MEMO_BYTES:
            return
        self._classes[trajectory] = (chunks, serialized, peaks)
        self.bytes += size
        while self.bytes > MAX_MEMO_BYTES:
            _, (chunks, serialized, _) = self._classes.popitem(last=False)
            self.bytes -= len(serialized) + sum(map(len, chunks or ()))


def _must_block(peaks: Tuple[int, Dict[str, int]], dmu: DMUConfig) -> bool:
    """Whether a DMU of ``dmu`` lacks the entries a reference run that never
    blocked held at once: it would block on the way, where the reference
    did not, so its replay cannot match.  ``peaks`` is the reference's
    ``elements_per_list_entry`` and its peak entries in use per sizing
    field; list-array entries hold that many elements, so the lists
    compare only at the same width."""
    width, in_use = peaks
    same_width = width == dmu.elements_per_list_entry
    return any(
        getattr(dmu, name) < peak
        for name, peak in in_use.items()
        if same_width or name not in LIST_FIELDS
    )


def _unpack(chunk: bytes) -> memoryview:
    """The words of one stored chunk."""
    return memoryview(zlib.decompress(chunk)).cast("q")


@contextlib.contextmanager
def recording(trace: DMUTrace) -> Iterator[DMUTrace]:
    """Record into ``trace`` the DMU of every simulation run inside."""
    previous = machine.dmu_observer
    machine.dmu_observer = trace.observe
    try:
        yield trace
    finally:
        machine.dmu_observer = previous

