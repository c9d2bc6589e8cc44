"""Exact DMU counters: pinned full-counter goldens and commit-on-read.

The DMU instruction paths do not write their statistics per instruction:
charges that are constant per instruction are derived from instruction
counts, the rest accumulate in flat integer cells, and both are committed
into :class:`~repro.core.stats.DMUStats` and the alias tables whenever an
observer reads them.  These tests pin everything that batching touches:

* ``FULL_COUNTERS`` holds every counter of paper programs replayed through a
  DMU, pinned from the per-instruction implementation the batching replaced:
  ``stats.as_dict()`` (per-structure accesses, instruction mix, blocked by
  structure), ``tat.lookups``, ``dat.lookups``, the DAT's average occupied
  sets and every structure's peak occupancy;
* reading the counters after every instruction of a random ISA stream and
  reading them once at the end give identical results, and each mid-stream
  read sees exactly the instructions retired so far.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Dict, List

import pytest

from repro.config import DMUConfig, default_paper_config
from repro.core.dmu import DependenceManagementUnit
from repro.core.isa import DMUBlocked
from repro.errors import DMUProtocolError
from repro.workloads.registry import create_workload

DESCRIPTOR_BASE = 0x7000_0000_0000
DESCRIPTOR_STRIDE = 64

#: A DMU small enough that the replays block on every kind of structure.
SMALL_DMU = DMUConfig(
    tat_entries=64, dat_entries=64,
    successor_list_entries=16, dependence_list_entries=32,
    reader_list_entries=16, elements_per_list_entry=2,
    ready_queue_entries=64,
)

#: ``(benchmark, scale, seed, DMU, in-flight window)`` of each pinned replay.
REPLAYS = {
    "cholesky-paper": ("cholesky", 0.1, 0, default_paper_config().dmu, 2048),
    "qr-paper": ("qr", 0.1, 0, default_paper_config().dmu, 2048),
    "cholesky-small": ("cholesky", 0.1, 0, SMALL_DMU, 64),
    "qr-small": ("qr", 0.1, 0, SMALL_DMU, 64),
}


def replay(program, dmu: DependenceManagementUnit, window: int) -> int:
    """Issue ``program``'s tasks to ``dmu`` in program order; returns tasks.

    Each task is ``create_task``, one ``add_dependence`` per dependence and
    ``complete_creation``, with at most ``window`` tasks in flight.  A
    blocked instruction (or a full window) finishes the oldest ready task
    and collects what it readied, then retries.  A region ends with every
    task finished.
    """
    ready: deque = deque()
    in_flight = 0

    def collect() -> None:
        while True:
            result = dmu.get_ready_task()
            if result.descriptor_address is None:
                return
            ready.append(result.descriptor_address)

    def retire_oldest() -> None:
        nonlocal in_flight
        if not ready:
            collect()
        assert ready, f"no ready task among {in_flight} in flight"
        dmu.finish_task(ready.popleft())
        in_flight -= 1
        collect()

    descriptor = DESCRIPTOR_BASE
    tasks = 0
    for region in program.regions:
        for definition in region.tasks:
            while in_flight >= window:
                retire_oldest()
            descriptor += DESCRIPTOR_STRIDE
            while dmu.create_task(descriptor).blocked:
                retire_oldest()
            in_flight += 1
            tasks += 1
            for dependence in definition.dependences:
                while dmu.add_dependence(descriptor, dependence.address,
                                         dependence.size, dependence.direction).blocked:
                    retire_oldest()
            while dmu.complete_creation(descriptor).blocked:
                retire_oldest()
        while in_flight:
            retire_oldest()
    return tasks


def full_counters(dmu: DependenceManagementUnit) -> Dict[str, object]:
    """Every counter the DMU keeps, as plain JSON-able values."""
    return {
        "stats": dmu.stats.as_dict(),
        "tat_lookups": dmu.tat.lookups,
        "dat_lookups": dmu.dat.lookups,
        "dat_average_occupied_sets": dmu.dat.average_occupied_sets(),
        "peaks": {
            "TAT": dmu.tat.peak_occupancy,
            "DAT": dmu.dat.peak_occupancy,
            "TaskTable": dmu.task_table.peak_occupancy,
            "DepTable": dmu.dependence_table.peak_occupancy,
            "SLA": dmu.successor_lists.peak_entries_used,
            "DLA": dmu.dependence_lists.peak_entries_used,
            "RLA": dmu.reader_lists.peak_entries_used,
            "ReadyQ": dmu.ready_queue.peak_occupancy,
        },
    }


def replay_counters(key: str) -> Dict[str, object]:
    benchmark, scale, seed, config, window = REPLAYS[key]
    program = create_workload(benchmark, scale=scale, runtime="tdm", seed=seed).build_program()
    dmu = DependenceManagementUnit(config)
    replay(program, dmu, window)
    dmu.assert_empty()
    return full_counters(dmu)


#: Pinned from the per-instruction counter implementation, before the
#: counters were batched; regenerate only for an explicit semantic change.
FULL_COUNTERS: Dict[str, Dict[str, object]] = {
    "cholesky-paper": {
        "dat_average_occupied_sets": 84.51388888888889,
        "dat_lookups": 1800,
        "peaks": {
            "DAT": 120,
            "DLA": 680,
            "DepTable": 120,
            "RLA": 194,
            "ReadyQ": 14,
            "SLA": 755,
            "TAT": 680,
            "TaskTable": 680
        },
        "stats": {
            "blocked_by_structure": {},
            "dependences_added": 1800,
            "instructions": {
                "add_dependence": 1800,
                "complete_creation": 680,
                "create_task": 680,
                "finish_task": 680,
                "get_ready_task": 1361
            },
            "null_ready_pops": 681,
            "ready_pops": 680,
            "structure_accesses": {
                "DAT": 2040,
                "DLA": 3840,
                "DepTable": 4520,
                "RLA": 4023,
                "ReadyQ": 2041,
                "SLA": 4150,
                "TAT": 5200,
                "TaskTable": 10240
            },
            "tasks_created": 680,
            "tasks_finished": 680,
            "total_accesses": 36054,
            "total_blocked": 0,
            "total_cycles": 36054,
            "total_instructions": 5201
        },
        "tat_lookups": 3160
    },
    "cholesky-small": {
        "dat_average_occupied_sets": 7.772777777777778,
        "dat_lookups": 2297,
        "peaks": {
            "DAT": 25,
            "DLA": 24,
            "DepTable": 25,
            "RLA": 16,
            "ReadyQ": 11,
            "SLA": 16,
            "TAT": 16,
            "TaskTable": 16
        },
        "stats": {
            "blocked_by_structure": {
                "RLA": 466,
                "SLA": 198
            },
            "dependences_added": 1800,
            "instructions": {
                "add_dependence": 1800,
                "complete_creation": 680,
                "create_task": 680,
                "finish_task": 680,
                "get_ready_task": 1361
            },
            "null_ready_pops": 681,
            "ready_pops": 680,
            "structure_accesses": {
                "DAT": 3736,
                "DLA": 5205,
                "DepTable": 5601,
                "RLA": 5454,
                "ReadyQ": 2041,
                "SLA": 2705,
                "TAT": 5200,
                "TaskTable": 6529
            },
            "tasks_created": 680,
            "tasks_finished": 680,
            "total_accesses": 36471,
            "total_blocked": 664,
            "total_cycles": 36471,
            "total_instructions": 5201
        },
        "tat_lookups": 3657
    },
    "qr-paper": {
        "dat_average_occupied_sets": 201.62627118644068,
        "dat_lookups": 4773,
        "peaks": {
            "DAT": 299,
            "DLA": 876,
            "DepTable": 299,
            "RLA": 290,
            "ReadyQ": 15,
            "SLA": 1024,
            "TAT": 876,
            "TaskTable": 876
        },
        "stats": {
            "blocked_by_structure": {
                "SLA": 364
            },
            "dependences_added": 4720,
            "instructions": {
                "add_dependence": 4720,
                "complete_creation": 1240,
                "create_task": 1240,
                "finish_task": 1240,
                "get_ready_task": 2481
            },
            "null_ready_pops": 1241,
            "ready_pops": 1240,
            "structure_accesses": {
                "DAT": 5410,
                "DLA": 8440,
                "DepTable": 12610,
                "RLA": 7495,
                "ReadyQ": 3721,
                "SLA": 10849,
                "TAT": 10920,
                "TaskTable": 24360
            },
            "tasks_created": 1240,
            "tasks_finished": 1240,
            "total_accesses": 83805,
            "total_blocked": 364,
            "total_cycles": 83805,
            "total_instructions": 10921
        },
        "tat_lookups": 7253
    },
    "qr-small": {
        "dat_average_occupied_sets": 7.815889830508475,
        "dat_lookups": 5531,
        "peaks": {
            "DAT": 34,
            "DLA": 32,
            "DepTable": 34,
            "RLA": 16,
            "ReadyQ": 8,
            "SLA": 16,
            "TAT": 16,
            "TaskTable": 16
        },
        "stats": {
            "blocked_by_structure": {
                "RLA": 458,
                "SLA": 770
            },
            "dependences_added": 4720,
            "instructions": {
                "add_dependence": 4720,
                "complete_creation": 1240,
                "create_task": 1240,
                "finish_task": 1240,
                "get_ready_task": 2481
            },
            "null_ready_pops": 1241,
            "ready_pops": 1240,
            "structure_accesses": {
                "DAT": 8760,
                "DLA": 13130,
                "DepTable": 15969,
                "RLA": 16475,
                "ReadyQ": 3721,
                "SLA": 13013,
                "TAT": 10920,
                "TaskTable": 17616
            },
            "tasks_created": 1240,
            "tasks_finished": 1240,
            "total_accesses": 99604,
            "total_blocked": 1228,
            "total_cycles": 99604,
            "total_instructions": 10921
        },
        "tat_lookups": 8011
    }
}


class TestFullCounterGolden:
    @pytest.mark.parametrize("key", sorted(REPLAYS))
    def test_replay_matches_pinned_counters(self, key):
        assert replay_counters(key) == FULL_COUNTERS[key]

    def test_small_replays_block_on_several_structures(self):
        for key in ("cholesky-small", "qr-small"):
            blocked = FULL_COUNTERS[key]["stats"]["blocked_by_structure"]
            assert len(blocked) >= 2, (key, blocked)


# --------------------------------------------------------------------------
# Commit-on-read
# --------------------------------------------------------------------------
def _drive_stream(seed: int, observe: bool, steps: int = 2500):
    """Run a random ISA stream on a small DMU; returns ``(dmu, reads)``.

    The stream blocks on full structures and breaks the protocol on purpose
    (duplicate creates, unknown descriptors, a bad direction), so the
    blocked and error paths run too.  With ``observe`` the counters are read
    after every instruction, and each read is checked against the number of
    instructions retired so far.
    """
    dmu = DependenceManagementUnit(DMUConfig(
        tat_entries=32, dat_entries=32,
        successor_list_entries=16, dependence_list_entries=16,
        reader_list_entries=16, elements_per_list_entry=2,
        ready_queue_entries=32, tat_associativity=4, dat_associativity=4,
    ))
    rng = random.Random(seed)
    live: Dict[int, str] = {}
    addresses = [0x1000 + 0x40 * i for i in range(64)]
    dependences = [0x9000 + 0x100 * i for i in range(24)]
    retired = 0
    reads: List[float] = []
    for _ in range(steps):
        op = rng.randrange(7)
        result = None
        try:
            if op == 0:
                address = rng.choice(addresses)
                result = dmu.create_task(address)
                if not isinstance(result, DMUBlocked):
                    live[address] = "created"
            elif op == 1 and live:
                result = dmu.add_dependence(
                    rng.choice(list(live)), rng.choice(dependences),
                    rng.choice([64, 256, 4096]), rng.choice(["in", "in", "out"]),
                )
            elif op == 2 and live:
                address = rng.choice(list(live))
                if live[address] == "created":
                    result = dmu.complete_creation(address)
                    live[address] = "complete"
            elif op == 3:
                result = dmu.get_ready_task()
            elif op == 4 and live:
                address = rng.choice(list(live))
                if live[address] == "complete" and rng.random() < 0.6:
                    result = dmu.finish_task(address)
                    del live[address]
            elif op == 5:
                choice = rng.randrange(5)
                if choice == 0:
                    dmu.add_dependence(0xDEAD, dependences[0], 64, "in")
                elif choice == 1:
                    dmu.finish_task(0xBEEF)
                elif choice == 2:
                    dmu.complete_creation(0xF00D)
                elif choice == 3 and live:
                    dmu.add_dependence(rng.choice(list(live)), dependences[0], 64, "inout")
                elif live:
                    dmu.create_task(rng.choice(list(live)))
        except DMUProtocolError:
            result = None
        if result is not None and not isinstance(result, DMUBlocked):
            retired += 1
        if observe:
            stats = dmu.stats
            assert stats.total_instructions == retired
            reads.append(dmu.dat.average_occupied_sets())
    return dmu, reads


class TestCommitOnRead:
    @pytest.mark.parametrize("seed", range(6))
    def test_reading_every_instruction_equals_reading_once(self, seed):
        observed, reads = _drive_stream(seed, observe=True)
        untouched, _ = _drive_stream(seed, observe=False)
        assert observed.stats.total_blocked > 0
        assert reads[-1] > 0
        assert full_counters(observed) == full_counters(untouched)

    def test_stats_property_returns_the_same_object(self):
        dmu = DependenceManagementUnit(DMUConfig())
        stats = dmu.stats
        dmu.create_task(0x1000)
        assert dmu.stats is stats
        assert stats.tasks_created == 1
        assert stats.structure_accesses["TAT"] == 2

    def test_alias_table_reads_commit(self):
        dmu = DependenceManagementUnit(DMUConfig())
        dmu.create_task(0x1000)
        dmu.add_dependence(0x1000, 0x9000, 64, "out")
        dmu.complete_creation(0x1000)
        assert dmu.tat.lookups == 2
        assert dmu.dat.lookups == 1
        assert dmu.dat.average_occupied_sets() == 1.0
