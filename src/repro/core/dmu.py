"""The Dependence Management Unit (DMU).

The DMU is the hardware contribution of the paper: a centralized unit on the
NoC that keeps a representation of the task dependence graph, tracks
dependences between in-flight tasks, and exposes ready tasks to the runtime
system (Section III).  This module implements the unit functionally and
structurally:

* internal IDs come from the TAT/DAT alias tables (set-associative, with the
  dynamic index-bit selection of Section V-E),
* per-task and per-dependence metadata live in the direct-access Task Table
  and Dependence Table — stored as parallel columns indexed by the internal
  ID, which the instruction paths below read and write directly,
* successor / dependence / reader lists live in inode-style list arrays
  (flat columnar slabs, int handles),
* ready task IDs are exposed through a FIFO Ready Queue,
* ``add_dependence`` and ``finish_task`` follow Algorithms 1 and 2 of the
  paper,
* every operation returns the number of DMU cycles it consumed, computed as
  (number of SRAM accesses) × (configured access latency),
* if any structure needed by an operation has no free entry, the operation
  performs **no state change** and returns
  :class:`~repro.core.isa.DMUBlocked`; the simulated core retries when
  capacity is freed, which models the blocking/barrier semantics of the TDM
  ISA instructions.

Result objects are pooled: each instruction mutates and returns a shared
per-type instance (see :mod:`repro.core.isa` for the caller contract), so
the per-instruction hot path allocates nothing.

Two uncharged model-level shortcuts keep the capacity pre-checks O(1)
without touching the timing model: list arrays answer
``appending_needs_new_entry`` / ``is_empty`` from maintained per-list
counters instead of a chain walk, and the reader list of a dependence is
only materialized into a Python list for ``out`` accesses (the only
direction whose algorithm consumes it).  Neither peek ever counted as SRAM
accesses, so every charged access count is unchanged.

Deviations from the paper, both listed in ``docs/architecture.md``
("Deviations from the paper"):

* Reader lists are allocated lazily (at the first reader) instead of eagerly
  when the dependence entry is installed; with the paper's sizes (2048 DAT
  entries but 1024 RLA entries) eager allocation could not hold the
  configured number of in-flight dependences.
* A creation-completion step (:meth:`DependenceManagementUnit.complete_creation`)
  enqueues tasks whose predecessor count is already zero when their last
  dependence has been registered; the paper's algorithms only enqueue tasks
  from ``finish_task`` and would never make a dependence-free task ready.
"""

from __future__ import annotations

from typing import Dict, Union

from ..config import DMUConfig
from ..errors import DMUProtocolError, UnknownTaskError
from .alias_table import AliasTable
from .dependence_table import DependenceTable
from .isa import (
    AddDependenceResult,
    CompleteCreationResult,
    CreateTaskResult,
    DMUBlocked,
    FinishTaskResult,
    GetReadyTaskResult,
)
from .list_array import ListArray
from .ready_queue import ReadyQueue
from .stats import DMUStats
from .task_table import TaskTable

CreateOutcome = Union[CreateTaskResult, DMUBlocked]
AddDependenceOutcome = Union[AddDependenceResult, DMUBlocked]

# Structure names used consistently in stats and blocking reports.
TAT = "TAT"
DAT = "DAT"
TASK_TABLE = "TaskTable"
DEP_TABLE = "DepTable"
SLA = "SLA"
DLA = "DLA"
RLA = "RLA"
READY_QUEUE = "ReadyQ"

_NO_READERS: tuple = ()


class DependenceManagementUnit:
    """Functional + structural model of the DMU."""

    def __init__(self, config: DMUConfig) -> None:
        config.validate()
        self.config = config
        self.tat = AliasTable(
            TAT,
            config.tat_entries,
            config.tat_associativity,
            index_start_bit=6,
        )
        self.dat = AliasTable(
            DAT,
            config.dat_entries,
            config.dat_associativity,
            index_start_bit=config.static_index_start_bit,
            dynamic_index=(config.index_selection == "dynamic"),
        )
        self.task_table = TaskTable(config.task_table_entries)
        self.dependence_table = DependenceTable(config.dependence_table_entries)
        # Successor and dependence lists are append-only between allocation
        # and release (only reader lists see remove/flush), which lets the
        # list array compute charged walk lengths arithmetically.
        self.successor_lists = ListArray(
            SLA, config.successor_list_entries, config.elements_per_list_entry,
            append_only=True,
        )
        self.dependence_lists = ListArray(
            DLA, config.dependence_list_entries, config.elements_per_list_entry,
            append_only=True,
        )
        self.reader_lists = ListArray(
            RLA, config.reader_list_entries, config.elements_per_list_entry,
        )
        self.ready_queue = ReadyQueue(config.ready_queue_entries)
        self.stats = DMUStats()
        access_cycles = config.access_cycles
        self._access_cycles = access_cycles
        # Pooled result objects, one per instruction type: the hot return
        # paths mutate these in place (see repro.core.isa for the caller
        # contract).  A null ready-pop always looks the same, so it has its
        # own frozen instance; create_task always costs the same 5 accesses.
        self._create_result = CreateTaskResult(5 * access_cycles, -1)
        self._add_result = AddDependenceResult(0, -1, 0)
        self._complete_result = CompleteCreationResult(0, False)
        self._finish_result = FinishTaskResult(0, 0)
        self._ready_result = GetReadyTaskResult(2 * access_cycles, None)
        self._null_ready_result = GetReadyTaskResult(
            cycles=access_cycles, descriptor_address=None
        )
        self._blocked_result = DMUBlocked("")
        # Cached column references (the structures mutate their columns in
        # place — extend/append only — so the list identities are stable for
        # the DMU's lifetime).  The instruction paths below index these
        # directly instead of going through an attribute chain plus a method
        # call per field; that is the point of the columnar layout.
        task_table = self.task_table
        self._tt_descriptor = task_table.descriptor_address
        self._tt_pred = task_table.predecessor_count
        self._tt_succ = task_table.successor_count
        self._tt_succ_list = task_table.successor_list
        self._tt_dep_list = task_table.dependence_list
        self._tt_complete = task_table.creation_complete
        dependence_table = self.dependence_table
        self._dt_valid = dependence_table.valid
        self._dt_last_writer = dependence_table.last_writer
        self._dt_lw_valid = dependence_table.last_writer_valid
        self._dt_reader_list = dependence_table.reader_list
        self._dt_address = dependence_table.address
        # Per-list counters (meaningful at head handles) for the empty-list
        # fast paths, plus tail + per-entry-valid columns for the O(1)
        # uncharged capacity pre-checks.  The pre-checks test *tail entry*
        # fullness — the pinned pre-rewrite semantics of
        # ``appending_needs_new_entry`` (see that method's docstring).
        self._sla_list_valid = self.successor_lists._list_valid
        self._sla_tail = self.successor_lists._tail
        self._sla_valid = self.successor_lists._valid
        self._dla_list_valid = self.dependence_lists._list_valid
        self._dla_tail = self.dependence_lists._tail
        self._dla_valid = self.dependence_lists._valid
        self._rla_list_valid = self.reader_lists._list_valid
        self._rla_tail = self.reader_lists._tail
        self._rla_valid = self.reader_lists._valid
        self._per_entry = config.elements_per_list_entry
        self._tat_by_address = self.tat._by_address
        self._dat_by_address = self.dat._by_address
        self._ready_push = self.ready_queue.push
        self._ready_pop = self.ready_queue.pop

    # ------------------------------------------------------------------ helpers
    @property
    def in_flight_tasks(self) -> int:
        """Number of tasks currently tracked (created but not finished)."""
        return self.task_table.occupancy

    @property
    def in_flight_dependences(self) -> int:
        """Number of dependence addresses currently tracked."""
        return self.dependence_table.occupancy

    @property
    def ready_tasks(self) -> int:
        """Number of task IDs currently waiting in the Ready Queue."""
        return len(self.ready_queue)

    def _cycles(self, accesses: int) -> int:
        return accesses * self.config.access_cycles

    def _lookup_task(self, descriptor_address: int) -> int:
        task_id = self.tat.lookup(descriptor_address)
        if task_id is None:
            raise UnknownTaskError(
                f"task descriptor {descriptor_address:#x} is not tracked by the DMU"
            )
        return task_id

    def _blocked(self, structure: str) -> DMUBlocked:
        self.stats.record_blocked(structure)
        result = self._blocked_result
        result.structure = structure
        return result

    # ------------------------------------------------------------------ create_task
    def create_task(self, descriptor_address: int) -> CreateOutcome:
        """Register a new task (ISA ``create_task``).

        Allocates a TAT entry / internal task ID, initializes the Task Table
        columns and reserves an empty successor list and dependence list.
        Always five SRAM accesses: associative TAT lookup + directory write,
        one fresh entry in each of SLA and DLA, one Task Table write.
        """
        tat = self.tat
        if descriptor_address in self._tat_by_address:
            raise DMUProtocolError(
                f"task descriptor {descriptor_address:#x} created twice"
            )
        successor_lists = self.successor_lists
        dependence_lists = self.dependence_lists
        # Capacity pre-check: TAT way + ID, one SLA entry, one DLA entry.
        if not tat.can_allocate(descriptor_address):
            return self._blocked(TAT)
        if successor_lists.free_entries < 1:
            return self._blocked(SLA)
        if dependence_lists.free_entries < 1:
            return self._blocked(DLA)

        task_id = tat.allocate(descriptor_address)
        successor_list = successor_lists.new_list_head()
        dependence_list = dependence_lists.new_list_head()
        self.task_table.install(task_id, descriptor_address, successor_list, dependence_list)

        stats = self.stats
        structure_accesses = stats.structure_accesses
        structure_accesses[TAT] += 2
        structure_accesses[SLA] += 1
        structure_accesses[DLA] += 1
        structure_accesses[TASK_TABLE] += 1
        result = self._create_result
        stats.instructions["create_task"] += 1
        stats.total_cycles += result.cycles
        stats.tasks_created += 1
        result.task_id = task_id
        return result

    # ------------------------------------------------------------------ add_dependence
    def add_dependence(
        self,
        descriptor_address: int,
        dependence_address: int,
        size: int,
        direction: str,
    ) -> AddDependenceOutcome:
        """Register one dependence of a task (ISA ``add_dependence``).

        Implements Algorithm 1 of the paper with exact capacity pre-checks so
        a blocked instruction leaves no partial state behind.
        """
        if direction == "out":
            is_out = True
        elif direction == "in":
            is_out = False
        else:
            raise DMUProtocolError(f"invalid dependence direction: {direction!r}")
        tat = self.tat
        tat.lookups += 1
        task_id = self._tat_by_address.get(descriptor_address)
        if task_id is None:
            raise UnknownTaskError(
                f"task descriptor {descriptor_address:#x} is not tracked by the DMU"
            )
        successor_lists = self.successor_lists
        dependence_lists = self.dependence_lists
        reader_lists = self.reader_lists
        stats = self.stats
        dat = self.dat
        per_entry = self._per_entry

        dat.lookups += 1
        dep_id = self._dat_by_address.get(dependence_address)
        dep_is_new = dep_id is None
        readers = _NO_READERS
        if dep_is_new:
            reader_list = -1
            writer_id = -1
            # --- capacity pre-checks (uncharged; Blocked order is pinned:
            # DAT, DLA, SLA, RLA) -----------------------------------------
            if not dat.can_allocate(dependence_address, size):
                return self._blocked(DAT)
        else:
            reader_list = self._dt_reader_list[dep_id]
            writer_id = self._dt_last_writer[dep_id] if self._dt_lw_valid[dep_id] else -1
            if is_out and reader_list >= 0:
                # The WAR pass below consumes the reader set; ``in`` accesses
                # never do, so the (uncharged) materialization is skipped.
                readers, _ = reader_lists.iterate(reader_list)

        # O(1) capacity pre-checks: tail-entry fullness via the maintained
        # tail column — the pinned pre-rewrite ``appending_needs_new_entry``
        # semantics (for the append-only SLA/DLA, tail-full and
        # no-free-slot-anywhere coincide; for reader lists with remove()
        # holes they do not, and blocking behavior follows the tail).
        task_dependence_list = self._tt_dep_list[task_id]
        dla_valid = self._dla_valid
        if dla_valid[self._dla_tail[task_dependence_list]] == per_entry and (
            dependence_lists.free_entries < 1
        ):
            return self._blocked(DLA)

        task_successor_lists = self._tt_succ_list
        sla_tail = self._sla_tail
        sla_valid = self._sla_valid
        needed_sla = 0
        if writer_id >= 0 and writer_id != task_id:
            if sla_valid[sla_tail[task_successor_lists[writer_id]]] == per_entry:
                needed_sla += 1
        if is_out:
            for reader_id in readers:
                if reader_id == task_id:
                    continue
                if sla_valid[sla_tail[task_successor_lists[reader_id]]] == per_entry:
                    needed_sla += 1
        if needed_sla and successor_lists.free_entries < needed_sla:
            return self._blocked(SLA)

        if not is_out:
            if reader_list < 0:
                needed_rla = 1
            else:
                needed_rla = (
                    1 if self._rla_valid[self._rla_tail[reader_list]] == per_entry else 0
                )
            if needed_rla and reader_lists.free_entries < 1:
                return self._blocked(RLA)

        # --- mutation phase (charged accesses identical to the object-based
        # implementation) --------------------------------------------------
        structure_accesses = stats.structure_accesses
        accesses = 3  # TAT lookup + Task Table read + DAT lookup
        structure_accesses[TAT] += 1
        structure_accesses[TASK_TABLE] += 1
        structure_accesses[DAT] += 1
        if dep_is_new:
            dep_id = dat.allocate(dependence_address, size)
            self.dependence_table.install(dep_id, dependence_address, size)
            accesses += 2  # DAT directory write + Dependence Table install
            structure_accesses[DAT] += 1
            structure_accesses[DEP_TABLE] += 1
        else:
            accesses += 1  # Dependence Table read
            structure_accesses[DEP_TABLE] += 1

        predecessors_added = 0
        task_predecessor_count = self._tt_pred
        task_successor_count = self._tt_succ

        # "Insert depID in dependence list of taskID"
        dla_accesses = dependence_lists.append(task_dependence_list, dep_id)
        accesses += dla_accesses
        structure_accesses[DLA] += dla_accesses

        # "if lastWriterID of depID is valid": RAW / WAW / WAR-with-writer edge.
        if writer_id >= 0 and writer_id != task_id:
            sla_accesses = successor_lists.append(task_successor_lists[writer_id], task_id)
            accesses += sla_accesses + 2  # successor insert + two counter updates
            structure_accesses[SLA] += sla_accesses
            structure_accesses[TASK_TABLE] += 2
            task_successor_count[writer_id] += 1
            task_predecessor_count[task_id] += 1
            predecessors_added = 1

        if not is_out:
            # "Insert taskID in reader list of depID"
            if reader_list < 0:
                reader_list = reader_lists.new_list_head()
                self._dt_reader_list[dep_id] = reader_list
                accesses += 1
                structure_accesses[RLA] += 1
            rla_accesses = reader_lists.append(reader_list, task_id)
            accesses += rla_accesses
            structure_accesses[RLA] += rla_accesses
        else:
            # WAR edges: every current reader gains this task as a successor.
            # (Counter updates accumulated in locals, committed once below.)
            sla_append = successor_lists.append
            war_sla_accesses = 0
            war_edges = 0
            for reader_id in readers:
                if reader_id == task_id:
                    continue
                war_sla_accesses += sla_append(task_successor_lists[reader_id], task_id)
                task_successor_count[reader_id] += 1
                war_edges += 1
            if war_edges:
                accesses += war_sla_accesses + 2 * war_edges
                structure_accesses[SLA] += war_sla_accesses
                structure_accesses[TASK_TABLE] += 2 * war_edges
                task_predecessor_count[task_id] += war_edges
                predecessors_added += war_edges
            # "Flush reader list of depID"
            if reader_list >= 0:
                rla_accesses = reader_lists.flush(reader_list)
                accesses += rla_accesses
                structure_accesses[RLA] += rla_accesses
            # "Set lastWriterID of depID to taskID and mark valid"
            self._dt_last_writer[dep_id] = task_id
            self._dt_lw_valid[dep_id] = 1
            accesses += 1
            structure_accesses[DEP_TABLE] += 1

        # dat.sample_occupancy(), inlined (once per add_dependence).
        dat._occupied_set_samples += 1
        dat._occupied_set_total += dat._occupied_sets
        cycles = accesses * self._access_cycles
        stats.instructions["add_dependence"] += 1
        stats.total_cycles += cycles
        stats.dependences_added += 1
        result = self._add_result
        result.cycles = cycles
        result.dependence_id = dep_id
        result.predecessors_added = predecessors_added
        return result

    # ------------------------------------------------------------------ creation completion
    def complete_creation(self, descriptor_address: int) -> CompleteCreationResult:
        """Mark a task's registration complete; enqueue it if already ready."""
        self.tat.lookups += 1
        task_id = self._tat_by_address.get(descriptor_address)
        if task_id is None:
            raise UnknownTaskError(
                f"task descriptor {descriptor_address:#x} is not tracked by the DMU"
            )
        creation_complete = self._tt_complete
        if creation_complete[task_id]:
            raise DMUProtocolError(
                f"task descriptor {descriptor_address:#x} completed creation twice"
            )
        creation_complete[task_id] = 1
        stats = self.stats
        accesses = 2  # TAT lookup + Task Table read/update
        structure_accesses = stats.structure_accesses
        structure_accesses[TAT] += 1
        structure_accesses[TASK_TABLE] += 1
        became_ready = False
        if self._tt_pred[task_id] == 0:
            self._ready_push(task_id)
            accesses += 1
            structure_accesses[READY_QUEUE] += 1
            became_ready = True
        cycles = accesses * self._access_cycles
        stats.instructions["complete_creation"] += 1
        stats.total_cycles += cycles
        result = self._complete_result
        result.cycles = cycles
        result.became_ready = became_ready
        return result

    # ------------------------------------------------------------------ finish_task
    def finish_task(self, descriptor_address: int) -> FinishTaskResult:
        """Retire a finished task (ISA ``finish_task``); Algorithm 2 of the paper."""
        tat = self.tat
        tat.lookups += 1
        task_id = self._tat_by_address.get(descriptor_address)
        if task_id is None:
            raise UnknownTaskError(
                f"task descriptor {descriptor_address:#x} is not tracked by the DMU"
            )
        stats = self.stats
        structure_accesses = stats.structure_accesses
        accesses = 2  # TAT lookup + Task Table read
        structure_accesses[TAT] += 1
        structure_accesses[TASK_TABLE] += 1
        tasks_woken = 0
        successor_list = self._tt_succ_list[task_id]
        dependence_list = self._tt_dep_list[task_id]

        # First loop: wake up successors.  Counter updates for the loop are
        # accumulated in locals and committed once (identical totals).  An
        # empty successor list (valid total 0, single-entry chain) skips the
        # iterate walk entirely — same one charged access, no list built.
        if self._sla_list_valid[successor_list] == 0:
            accesses += 1
            structure_accesses[SLA] += 1
        else:
            ready_queue_push = self._ready_push
            successors, sla_accesses = self.successor_lists.iterate(successor_list)
            num_successors = len(successors)
            accesses += sla_accesses + num_successors
            structure_accesses[SLA] += sla_accesses
            structure_accesses[TASK_TABLE] += num_successors
            predecessor_count = self._tt_pred
            creation_complete = self._tt_complete
            for successor_id in successors:
                remaining = predecessor_count[successor_id] - 1
                predecessor_count[successor_id] = remaining
                if remaining == 0:
                    if creation_complete[successor_id]:
                        ready_queue_push(successor_id)
                        tasks_woken += 1
                elif remaining < 0:
                    raise DMUProtocolError(
                        f"task id {successor_id} predecessor count went negative"
                    )
            accesses += tasks_woken
            structure_accesses[READY_QUEUE] += tasks_woken

        # Second loop: clean this task out of its dependences (same
        # empty-list fast path as above).
        dependence_table = self.dependence_table
        reader_lists = self.reader_lists
        if self._dla_list_valid[dependence_list] == 0:
            accesses += 1
            structure_accesses[DLA] += 1
        else:
            dat_release = self.dat.release
            dependences, dla_accesses = self.dependence_lists.iterate(dependence_list)
            accesses += dla_accesses
            structure_accesses[DLA] += dla_accesses
            dep_valid = self._dt_valid
            dep_reader_list = self._dt_reader_list
            dep_last_writer = self._dt_last_writer
            dep_last_writer_valid = self._dt_lw_valid
            rla_list_valid = self._rla_list_valid
            dep_table_accesses = 0
            rla_accesses_total = 0
            dat_releases = 0
            for dep_id in dependences:
                if not dep_valid[dep_id]:
                    # The dependence entry was already recycled by an earlier
                    # occurrence of the same address in this task's list.
                    continue
                dep_table_accesses += 1
                reader_list = dep_reader_list[dep_id]
                if reader_list >= 0:
                    _found, rla_accesses = reader_lists.remove(reader_list, task_id)
                    rla_accesses_total += rla_accesses
                writer_valid = dep_last_writer_valid[dep_id]
                if writer_valid and dep_last_writer[dep_id] == task_id:
                    dep_last_writer[dep_id] = -1
                    dep_last_writer_valid[dep_id] = 0
                    writer_valid = 0
                    dep_table_accesses += 1
                if not writer_valid and (reader_list < 0 or rla_list_valid[reader_list] == 0):
                    if reader_list >= 0:
                        rla_accesses_total += reader_lists.free_list(reader_list)
                    dependence_table.free(dep_id)
                    dep_table_accesses += 1
                    dat_release(self._dt_address[dep_id])
                    dat_releases += 1
            accesses += dep_table_accesses + rla_accesses_total + dat_releases
            structure_accesses[DEP_TABLE] += dep_table_accesses
            structure_accesses[RLA] += rla_accesses_total
            structure_accesses[DAT] += dat_releases

        # Free the task's own resources.
        sla_free_accesses = self.successor_lists.free_list(successor_list)
        accesses += sla_free_accesses
        structure_accesses[SLA] += sla_free_accesses
        dla_free_accesses = self.dependence_lists.free_list(dependence_list)
        accesses += dla_free_accesses
        structure_accesses[DLA] += dla_free_accesses
        self.task_table.free(task_id)
        accesses += 1
        structure_accesses[TASK_TABLE] += 1
        self.tat.release(descriptor_address)
        accesses += 1
        structure_accesses[TAT] += 1

        cycles = accesses * self._access_cycles
        stats.instructions["finish_task"] += 1
        stats.total_cycles += cycles
        stats.tasks_finished += 1
        result = self._finish_result
        result.cycles = cycles
        result.tasks_woken = tasks_woken
        return result

    # ------------------------------------------------------------------ get_ready_task
    def get_ready_task(self) -> GetReadyTaskResult:
        """Pop the next ready task (ISA ``get_ready_task``)."""
        stats = self.stats
        stats.structure_accesses[READY_QUEUE] += 1
        stats.instructions["get_ready_task"] += 1
        task_id = self._ready_pop()
        if task_id is None:
            stats.total_cycles += self._access_cycles
            stats.null_ready_pops += 1
            return self._null_ready_result
        stats.structure_accesses[TASK_TABLE] += 1
        result = self._ready_result
        stats.total_cycles += result.cycles
        stats.ready_pops += 1
        result.descriptor_address = self._tt_descriptor[task_id]
        result.num_successors = self._tt_succ[task_id]
        return result

    # ------------------------------------------------------------------ introspection
    def capacity_snapshot(self) -> Dict[str, int]:
        """Free-entry counts per structure (used by tests and debugging)."""
        return {
            TAT: self.tat.free_entries,
            DAT: self.dat.free_entries,
            SLA: self.successor_lists.free_entries,
            DLA: self.dependence_lists.free_entries,
            RLA: self.reader_lists.free_entries,
        }

    def assert_empty(self) -> None:
        """Raise unless every structure has been drained (all tasks finished)."""
        problems = []
        if self.task_table.occupancy:
            problems.append(f"{self.task_table.occupancy} task entries")
        if self.dependence_table.occupancy:
            problems.append(f"{self.dependence_table.occupancy} dependence entries")
        if self.successor_lists.entries_in_use:
            problems.append(f"{self.successor_lists.entries_in_use} SLA entries")
        if self.dependence_lists.entries_in_use:
            problems.append(f"{self.dependence_lists.entries_in_use} DLA entries")
        if self.reader_lists.entries_in_use:
            problems.append(f"{self.reader_lists.entries_in_use} RLA entries")
        if len(self.ready_queue):
            problems.append(f"{len(self.ready_queue)} ready-queue entries")
        if problems:
            raise DMUProtocolError("DMU not empty at end of program: " + ", ".join(problems))
