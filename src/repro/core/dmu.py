"""The Dependence Management Unit (DMU).

The DMU is the hardware contribution of the paper: a centralized unit on the
NoC that keeps a representation of the task dependence graph, tracks
dependences between in-flight tasks, and exposes ready tasks to the runtime
system (Section III).  This module implements the unit functionally and
structurally:

* internal IDs come from the TAT/DAT alias tables (set-associative, with the
  dynamic index-bit selection of Section V-E; count-only, see
  :mod:`repro.core.alias_table`),
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

The five instructions are bound once per DMU
(:meth:`DependenceManagementUnit._bind_instructions`): closures over the
structures' columns, free stacks and pooled results, so an instruction
mostly indexes plain lists instead of following attribute chains.  Inlined
over those bound columns and dicts:

* the TAT/DAT set index, room pre-check, allocation and release (the DAT
  set index is computed once per pre-check + allocation),
* the Task Table and Dependence Table installs into a free row (the
  ``install`` methods still grow the columns and raise the protocol
  errors),
* the one-entry chain paths of the successor and dependence list arrays
  (allocate, append, read, free).

Longer chains and the reader lists go through the structures' methods.

Counters are committed on read.  The instructions do not update
:class:`~repro.core.stats.DMUStats` one by one: a charge that is constant
per retired instruction is derived from the instruction count (every
``create_task`` charges TAT 2, SLA 1, DLA 1 and Task Table 1; every
``add_dependence`` charges TAT, Task Table, DAT and Dependence Table 1 each,
one lookup in each alias table and one DAT occupancy sample), the variable
rest accumulates in flat integer cells, and ``total_cycles`` is the
committed accesses times the access latency.  Every read commits first:

* ``dmu.stats`` (always the same :class:`DMUStats` object),
* ``dmu.tat.lookups`` and ``dmu.dat.lookups``,
* ``dmu.dat.average_occupied_sets()`` (the Figure 11 average).

Blocked instructions and protocol errors write their few counters directly,
where the instruction stopped, so a failed instruction leaves exactly the
counters it always left.

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
* A creation-completion step (``complete_creation``) enqueues tasks whose predecessor count is already zero when their last
  dependence has been registered; the paper's algorithms only enqueue tasks
  from ``finish_task`` and would never make a dependence-free task ready.
"""

from __future__ import annotations

import weakref
from typing import Callable, Dict, Union

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
    """Functional + structural model of the DMU.

    The five ISA instructions are instance attributes bound once per DMU by
    :meth:`_bind_instructions` (closures over the structures' columns); the
    annotations below give their signatures.
    """

    create_task: Callable[[int], CreateOutcome]
    add_dependence: Callable[[int, int, int, str], AddDependenceOutcome]
    complete_creation: Callable[[int], CompleteCreationResult]
    finish_task: Callable[[int], FinishTaskResult]
    get_ready_task: Callable[[], GetReadyTaskResult]

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
        self._stats = DMUStats()
        self._bind_instructions()

    # ------------------------------------------------------------------ helpers
    @property
    def stats(self) -> DMUStats:
        """The DMU's statistics, with every pending counter committed."""
        self._commit()
        return self._stats

    @property
    def in_flight_tasks(self) -> int:
        """Number of tasks currently tracked (created but not finished)."""
        return self.task_table.occupancy

    @property
    def ready_tasks(self) -> int:
        """Number of task IDs currently waiting in the Ready Queue."""
        return len(self.ready_queue)

    # ------------------------------------------------------------------ instructions
    def _bind_instructions(self) -> None:  # noqa: C901 - one closure per instruction
        """Bind the five ISA instructions and the counter commit to this DMU.

        Every column, directory, free stack and pooled result is a closure
        cell, so the instruction paths index plain lists and dicts instead
        of calling the structures' methods.  The structures mutate their
        columns and dicts in place (never rebind them), so the bound
        identities hold for the DMU's lifetime.
        """
        config = self.config
        access_cycles = config.access_cycles
        per_entry = config.elements_per_list_entry
        stats = self._stats
        structure_accesses = stats.structure_accesses
        blocked_by_structure = stats.blocked_by_structure

        # Alias tables: set index, room pre-check, allocation and release
        # run inline over the directory, the address → set map, the per-set
        # live-way counts and the recycled-ID stack (AliasTable.has_room,
        # allocate_in_set and release, step for step).
        tat = self.tat
        tat_by_address = tat._by_address
        tat_set_of_address = tat._set_of_address
        tat_set_count = tat._set_count
        tat_recycled = tat._recycled_ids
        tat_entries = tat.num_entries
        tat_ways = tat.associativity
        tat_sets = tat.num_sets
        tat_start_bit = tat.index_start_bit
        dat = self.dat
        dat_by_address = dat._by_address
        dat_set_of_address = dat._set_of_address
        dat_set_count = dat._set_count
        dat_recycled = dat._recycled_ids
        dat_entries = dat.num_entries
        dat_ways = dat.associativity
        dat_sets = dat.num_sets
        dat_start_bit = dat.index_start_bit
        dat_dynamic_index = dat.dynamic_index

        task_table = self.task_table
        tt_install = task_table.install
        tt_descriptor = task_table.descriptor_address
        tt_pred = task_table.predecessor_count
        tt_succ = task_table.successor_count
        tt_succ_list = task_table.successor_list
        tt_dep_list = task_table.dependence_list
        tt_complete = task_table.creation_complete
        tt_valid = task_table.valid
        dependence_table = self.dependence_table
        dt_install = dependence_table.install
        dt_valid = dependence_table.valid
        dt_last_writer = dependence_table.last_writer
        dt_lw_valid = dependence_table.last_writer_valid
        dt_reader_list = dependence_table.reader_list
        dt_address = dependence_table.address

        # Successor and dependence list arrays: single-entry chains (the
        # overwhelmingly common shape) are allocated, appended to, read and
        # freed inline; longer chains go through the ListArray methods.
        sla = self.successor_lists
        sla_elements = sla._elements
        sla_next = sla._next
        sla_in_use = sla._in_use
        sla_valid = sla._valid
        sla_list_valid = sla._list_valid
        sla_list_entries = sla._list_entries
        sla_tail = sla._tail
        sla_recycled = sla._recycled
        sla_blank = sla._blank_row
        sla_entries = sla.num_entries
        sla_new_list_head = sla.new_list_head
        sla_append = sla.append
        sla_iterate = sla.iterate
        sla_free_list = sla.free_list
        dla = self.dependence_lists
        dla_elements = dla._elements
        dla_next = dla._next
        dla_in_use = dla._in_use
        dla_valid = dla._valid
        dla_list_valid = dla._list_valid
        dla_list_entries = dla._list_entries
        dla_tail = dla._tail
        dla_recycled = dla._recycled
        dla_blank = dla._blank_row
        dla_entries = dla.num_entries
        dla_new_list_head = dla.new_list_head
        dla_append = dla.append
        dla_iterate = dla.iterate
        dla_free_list = dla.free_list
        rla = self.reader_lists
        rla_valid = rla._valid
        rla_list_valid = rla._list_valid
        rla_tail = rla._tail
        rla_new_list_head = rla.new_list_head
        rla_append = rla.append
        rla_iterate = rla.iterate
        rla_remove = rla.remove
        rla_flush = rla.flush
        rla_free_list = rla.free_list

        ready_queue = self.ready_queue
        ready_fifo = ready_queue._queue
        ready_popleft = ready_fifo.popleft
        ready_push = ready_queue.push

        # Pooled results, one per instruction type: the return paths mutate
        # them in place (see repro.core.isa for the caller contract).  A null
        # ready-pop always looks the same, so it has its own instance;
        # create_task always costs the same 5 accesses.
        create_result = CreateTaskResult(5 * access_cycles, -1)
        add_result = AddDependenceResult(0, -1, 0)
        complete_result = CompleteCreationResult(0, False)
        finish_result = FinishTaskResult(0, 0)
        ready_result = GetReadyTaskResult(2 * access_cycles, None)
        null_ready_result = GetReadyTaskResult(cycles=access_cycles, descriptor_address=None)
        blocked_result = DMUBlocked("")

        # Pending counters, committed into ``stats`` and the alias tables by
        # commit().  Charges that are constant per retired instruction are
        # derived there from the instruction counts; the variable rest of
        # each structure's SRAM accesses accumulates in its *_more cell.
        # Blocked and failed instructions write their (few) counters
        # directly, exactly where the instruction stopped.
        created = added = completed = finished = popped = null_pops = 0
        blocked_adds = 0  # blocked add_dependence: a TAT and a DAT lookup each
        occupied_set_total = 0
        tt_more = dat_more = dt_more = sla_more = dla_more = rla_more = ready_more = 0
        # finish_task charges its reader-list and wake-up totals even when
        # they are zero, which creates the Counter key; commit() does too.
        rla_charged = ready_charged = False

        # The tables hold commit() and commit() reaches them weakly: a
        # strong reference back would leave every DMU in a reference cycle,
        # freed only by the cyclic collector.  A dead table has no reader.
        tat_ref = weakref.ref(tat)
        dat_ref = weakref.ref(dat)

        def commit() -> None:
            nonlocal created, added, completed, finished, popped, null_pops
            nonlocal blocked_adds, occupied_set_total
            nonlocal tt_more, dat_more, dt_more, sla_more, dla_more, rla_more, ready_more
            nonlocal rla_charged, ready_charged
            if not (created or added or completed or finished or popped or null_pops
                    or blocked_adds):
                return
            # Constant charges per retired instruction:
            #   create_task        TAT 2, Task Table 1, SLA 1, DLA 1
            #   add_dependence     TAT 1, Task Table 1, DAT 1, Dep Table 1
            #   complete_creation  TAT 1, Task Table 1
            #   finish_task        TAT 2, Task Table 2
            #   get_ready_task     Ready Queue 1 (+ Task Table 1 when it pops)
            # plus one TAT lookup per add/complete/finish and per blocked add.
            lookups = added + completed + finished
            tat_accesses = 2 * created + lookups + finished
            tt_accesses = created + lookups + finished + popped + tt_more
            dat_accesses = added + dat_more
            dt_accesses = added + dt_more
            sla_accesses = created + sla_more
            dla_accesses = created + dla_more
            ready_accesses = popped + null_pops + ready_more
            for name, count in (
                (TAT, tat_accesses), (TASK_TABLE, tt_accesses), (DAT, dat_accesses),
                (DEP_TABLE, dt_accesses), (SLA, sla_accesses), (DLA, dla_accesses),
            ):
                if count:
                    structure_accesses[name] += count
            if rla_more or rla_charged:
                structure_accesses[RLA] += rla_more
            if ready_accesses or ready_charged:
                structure_accesses[READY_QUEUE] += ready_accesses
            instructions = stats.instructions
            for name, count in (
                ("create_task", created), ("add_dependence", added),
                ("complete_creation", completed), ("finish_task", finished),
                ("get_ready_task", popped + null_pops),
            ):
                if count:
                    instructions[name] += count
            stats.total_cycles += access_cycles * (
                tat_accesses + tt_accesses + dat_accesses + dt_accesses + sla_accesses
                + dla_accesses + rla_more + ready_accesses
            )
            stats.tasks_created += created
            stats.tasks_finished += finished
            stats.dependences_added += added
            stats.ready_pops += popped
            stats.null_ready_pops += null_pops
            table = tat_ref()
            if table is not None:
                table._lookups += lookups + blocked_adds
            table = dat_ref()
            if table is not None:
                table._lookups += added + blocked_adds
                table._occupied_set_samples += added
                table._occupied_set_total += occupied_set_total
            created = added = completed = finished = popped = null_pops = 0
            blocked_adds = occupied_set_total = 0
            tt_more = dat_more = dt_more = sla_more = dla_more = rla_more = ready_more = 0
            rla_charged = ready_charged = False

        self._commit = commit
        tat.commit_pending = commit
        dat.commit_pending = commit

        def blocked(structure: str) -> DMUBlocked:
            blocked_by_structure[structure] += 1
            blocked_result.structure = structure
            return blocked_result

        def unknown_task(descriptor_address: int) -> UnknownTaskError:
            """Count the failed TAT lookup; returns the error to raise."""
            tat._lookups += 1
            return UnknownTaskError(
                f"task descriptor {descriptor_address:#x} is not tracked by the DMU"
            )

        # -------------------------------------------------------------- create_task
        def create_task(descriptor_address: int) -> CreateOutcome:
            """Register a new task (ISA ``create_task``).

            Allocates a TAT entry / internal task ID, initializes the Task
            Table columns and reserves an empty successor list and dependence
            list.  Always five SRAM accesses: associative TAT lookup +
            directory write, one fresh entry in each of SLA and DLA, one Task
            Table write.
            """
            nonlocal created
            if descriptor_address in tat_by_address:
                raise DMUProtocolError(
                    f"task descriptor {descriptor_address:#x} created twice"
                )
            # Capacity pre-check (Blocked order is pinned: TAT, SLA, DLA).
            set_index = (descriptor_address >> tat_start_bit) % tat_sets
            ways = tat_set_count.get(set_index, 0)
            occupancy = len(tat_by_address)
            if occupancy >= tat_entries or ways >= tat_ways:
                return blocked(TAT)
            if sla.free_entries < 1:
                return blocked(SLA)
            if dla.free_entries < 1:
                return blocked(DLA)

            # AliasTable.allocate_in_set.
            task_id = tat_recycled.pop() if tat_recycled else occupancy
            if not ways:
                tat._occupied_sets += 1
            tat_set_count[set_index] = ways + 1
            tat_by_address[descriptor_address] = task_id
            tat_set_of_address[descriptor_address] = set_index
            tat.allocations += 1
            if occupancy >= tat.peak_occupancy:
                tat.peak_occupancy = occupancy + 1
            # ListArray.new_list_head on a recycled entry (release already
            # blanked its slots and made it a one-entry chain).
            if sla_recycled:
                successor_list = sla_recycled.pop()
                sla_in_use[successor_list] = 1
                free = sla.free_entries - 1
                sla.free_entries = free
                if sla_entries - free > sla.peak_entries_used:
                    sla.peak_entries_used = sla_entries - free
                sla_list_valid[successor_list] = 0
                sla_list_entries[successor_list] = 1
                sla_tail[successor_list] = successor_list
            else:
                successor_list = sla_new_list_head()
            if dla_recycled:
                dependence_list = dla_recycled.pop()
                dla_in_use[dependence_list] = 1
                free = dla.free_entries - 1
                dla.free_entries = free
                if dla_entries - free > dla.peak_entries_used:
                    dla.peak_entries_used = dla_entries - free
                dla_list_valid[dependence_list] = 0
                dla_list_entries[dependence_list] = 1
                dla_tail[dependence_list] = dependence_list
            else:
                dependence_list = dla_new_list_head()
            if task_id < len(tt_valid) and not tt_valid[task_id]:
                # TaskTable.install into a free row of the grown columns.
                tt_descriptor[task_id] = descriptor_address
                tt_pred[task_id] = 0
                tt_succ[task_id] = 0
                tt_succ_list[task_id] = successor_list
                tt_dep_list[task_id] = dependence_list
                tt_complete[task_id] = 0
                tt_valid[task_id] = 1
                occupancy = task_table._occupancy + 1
                task_table._occupancy = occupancy
                if occupancy > task_table.peak_occupancy:
                    task_table.peak_occupancy = occupancy
            else:
                # Grows the columns, or raises the protocol error.
                tt_install(task_id, descriptor_address, successor_list, dependence_list)
            created += 1
            create_result.task_id = task_id
            return create_result

        # -------------------------------------------------------------- add_dependence
        def successor_entries_needed(writer_id: int, readers, task_id: int) -> int:
            """New SLA entries the successor appends of one ``out`` need.

            Counted per append and per target list: a task that is both the
            last writer and a reader, or that reads twice, receives two
            appends in its successor list.  The result is the larger of the
            entries the appends really take and the historical count (one
            entry per append into a full tail), so every instruction the
            pre-check used to block still blocks.
            """
            appends: Dict[int, int] = {}
            if writer_id >= 0:
                appends[writer_id] = 1
            for reader_id in readers:
                if reader_id != task_id:
                    appends[reader_id] = appends.get(reader_id, 0) + 1
            needed = historical = 0
            for target, count in appends.items():
                free_slots = per_entry - sla_valid[sla_tail[tt_succ_list[target]]]
                if not free_slots:
                    historical += count
                if count > free_slots:
                    needed += (count - free_slots + per_entry - 1) // per_entry
            return max(needed, historical)

        def add_dependence(
            descriptor_address: int, dependence_address: int, size: int, direction: str
        ) -> AddDependenceOutcome:
            """Register one dependence of a task (ISA ``add_dependence``).

            Implements Algorithm 1 of the paper with exact capacity
            pre-checks so a blocked instruction leaves no partial state
            behind.
            """
            nonlocal added, blocked_adds, occupied_set_total
            nonlocal tt_more, dat_more, dt_more, sla_more, dla_more, rla_more
            if direction == "out":
                is_out = True
            elif direction == "in":
                is_out = False
            else:
                raise DMUProtocolError(f"invalid dependence direction: {direction!r}")
            task_id = tat_by_address.get(descriptor_address)
            if task_id is None:
                raise unknown_task(descriptor_address)
            dep_id = dat_by_address.get(dependence_address)
            readers = _NO_READERS
            # --- capacity pre-checks (uncharged; Blocked order is pinned:
            # DAT, DLA, SLA, RLA) ---------------------------------------------
            if dep_id is None:
                reader_list = -1
                writer_id = -1
                if dat_dynamic_index:
                    # dat_index_start_bit(size): log2(size), rounded down.
                    start_bit = size.bit_length() - 1 if size > 1 else 0
                else:
                    start_bit = dat_start_bit
                set_index = (dependence_address >> start_bit) % dat_sets
                ways = dat_set_count.get(set_index, 0)
                if len(dat_by_address) >= dat_entries or ways >= dat_ways:
                    blocked_adds += 1
                    return blocked(DAT)
            else:
                reader_list = dt_reader_list[dep_id]
                writer_id = dt_last_writer[dep_id] if dt_lw_valid[dep_id] else -1
                if is_out and reader_list >= 0 and rla_list_valid[reader_list]:
                    # The WAR pass below consumes the reader set; ``in``
                    # accesses never do, so the (uncharged) materialization
                    # is skipped for them.
                    readers, _ = rla_iterate(reader_list)
            if writer_id == task_id:
                writer_id = -1  # no edge from a task to itself

            # Tail-entry fullness through the maintained tail column (for the
            # append-only SLA/DLA, tail-full and no-free-slot coincide; reader
            # lists with remove() holes block on the tail, as pinned).
            dependence_list = tt_dep_list[task_id]
            dla_tail_entry = dla_tail[dependence_list]
            dla_tail_valid = dla_valid[dla_tail_entry]
            if dla_tail_valid == per_entry and dla.free_entries < 1:
                blocked_adds += 1
                return blocked(DLA)
            if readers:
                needed = successor_entries_needed(writer_id, readers, task_id)
            elif writer_id >= 0:
                needed = 1 if sla_valid[sla_tail[tt_succ_list[writer_id]]] == per_entry else 0
            else:
                needed = 0
            if needed and sla.free_entries < needed:
                blocked_adds += 1
                return blocked(SLA)
            if not is_out and (
                reader_list < 0 or rla_valid[rla_tail[reader_list]] == per_entry
            ) and rla.free_entries < 1:
                blocked_adds += 1
                return blocked(RLA)

            # --- mutation phase ---------------------------------------------
            # Always charged: TAT lookup, Task Table read, DAT lookup and one
            # Dependence Table access (read, or install for a new entry).
            accesses = 4
            if dep_id is None:
                # AliasTable.allocate_in_set (nothing has touched the DAT
                # since the pre-check, so ``ways`` still holds).
                occupancy = len(dat_by_address)
                dep_id = dat_recycled.pop() if dat_recycled else occupancy
                if not ways:
                    dat._occupied_sets += 1
                dat_set_count[set_index] = ways + 1
                dat_by_address[dependence_address] = dep_id
                dat_set_of_address[dependence_address] = set_index
                if occupancy >= dat.peak_occupancy:
                    dat.peak_occupancy = occupancy + 1
                dat.allocations += 1
                if dep_id < len(dt_valid) and not dt_valid[dep_id]:
                    # DependenceTable.install into a free row.
                    dt_last_writer[dep_id] = -1
                    dt_lw_valid[dep_id] = 0
                    dt_reader_list[dep_id] = -1
                    dt_valid[dep_id] = 1
                    dt_address[dep_id] = dependence_address
                    occupancy = dependence_table._occupancy + 1
                    dependence_table._occupancy = occupancy
                    if occupancy > dependence_table.peak_occupancy:
                        dependence_table.peak_occupancy = occupancy
                else:
                    # Grows the columns, or raises the protocol error.
                    dt_install(dep_id, dependence_address)
                accesses += 1  # DAT directory write
                dat_more += 1

            # "Insert depID in dependence list of taskID"
            if dla_tail_valid < per_entry:
                dla_elements[dla_tail_entry * per_entry + dla_tail_valid] = dep_id
                dla_valid[dla_tail_entry] = dla_tail_valid + 1
                dla_list_valid[dependence_list] += 1
                dla_accesses = dla_list_entries[dependence_list]
            else:
                dla_accesses = dla_append(dependence_list, dep_id)
            accesses += dla_accesses
            dla_more += dla_accesses

            # "if lastWriterID of depID is valid": RAW / WAW / WAR-with-writer
            # edge, then (for ``out``) one WAR edge per current reader.  Each
            # edge is a successor insert plus two counter updates.
            edges = 0
            sla_accesses = 0
            if writer_id >= 0:
                head = tt_succ_list[writer_id]
                tail = sla_tail[head]
                tail_valid = sla_valid[tail]
                if tail_valid < per_entry:
                    sla_elements[tail * per_entry + tail_valid] = task_id
                    sla_valid[tail] = tail_valid + 1
                    sla_list_valid[head] += 1
                    sla_accesses = sla_list_entries[head]
                else:
                    sla_accesses = sla_append(head, task_id)
                tt_succ[writer_id] += 1
                edges = 1
            if is_out:
                for reader_id in readers:
                    if reader_id == task_id:
                        continue
                    sla_accesses += sla_append(tt_succ_list[reader_id], task_id)
                    tt_succ[reader_id] += 1
                    edges += 1
                # "Flush reader list of depID"
                rla_accesses = rla_flush(reader_list) if reader_list >= 0 else 0
                # "Set lastWriterID of depID to taskID and mark valid"
                dt_last_writer[dep_id] = task_id
                dt_lw_valid[dep_id] = 1
                accesses += 1
                dt_more += 1
            else:
                # "Insert taskID in reader list of depID"
                if reader_list < 0:
                    reader_list = rla_new_list_head()
                    dt_reader_list[dep_id] = reader_list
                    rla_accesses = 1 + rla_append(reader_list, task_id)
                else:
                    rla_accesses = rla_append(reader_list, task_id)
            if edges:
                tt_pred[task_id] += edges
                accesses += sla_accesses + 2 * edges
                sla_more += sla_accesses
                tt_more += 2 * edges
            if rla_accesses:
                accesses += rla_accesses
                rla_more += rla_accesses

            # DAT occupancy sample (drives Figure 11), once per instruction.
            occupied_set_total += dat._occupied_sets
            added += 1
            add_result.cycles = accesses * access_cycles
            add_result.dependence_id = dep_id
            add_result.predecessors_added = edges
            return add_result

        # -------------------------------------------------------------- complete_creation
        def complete_creation(descriptor_address: int) -> CompleteCreationResult:
            """Mark a task's registration complete; enqueue it if already ready."""
            nonlocal completed, ready_more
            task_id = tat_by_address.get(descriptor_address)
            if task_id is None:
                raise unknown_task(descriptor_address)
            if tt_complete[task_id]:
                tat._lookups += 1
                raise DMUProtocolError(
                    f"task descriptor {descriptor_address:#x} completed creation twice"
                )
            tt_complete[task_id] = 1
            # TAT lookup + Task Table read/update, plus the Ready Queue push.
            if tt_pred[task_id] == 0:
                try:
                    ready_push(task_id)
                except DMUProtocolError:
                    tat._lookups += 1
                    structure_accesses[TAT] += 1
                    structure_accesses[TASK_TABLE] += 1
                    raise
                ready_more += 1
                complete_result.cycles = 3 * access_cycles
                complete_result.became_ready = True
            else:
                complete_result.cycles = 2 * access_cycles
                complete_result.became_ready = False
            completed += 1
            return complete_result

        # -------------------------------------------------------------- finish_task
        def wake_failed(successor_accesses: int, successors: int) -> None:
            """Charge what a finish_task did before its wake-up loop failed."""
            tat._lookups += 1
            structure_accesses[TAT] += 1
            structure_accesses[TASK_TABLE] += 1
            structure_accesses[SLA] += successor_accesses
            structure_accesses[TASK_TABLE] += successors

        def finish_task(descriptor_address: int) -> FinishTaskResult:
            """Retire a finished task (ISA ``finish_task``); Algorithm 2 of the paper."""
            nonlocal finished, tt_more, dat_more, dt_more, sla_more, dla_more, rla_more
            nonlocal ready_more, rla_charged, ready_charged
            task_id = tat_by_address.get(descriptor_address)
            if task_id is None:
                raise unknown_task(descriptor_address)
            successor_list = tt_succ_list[task_id]
            dependence_list = tt_dep_list[task_id]
            tasks_woken = 0

            # First loop: wake up successors.  An empty successor list is one
            # charged access with no walk.
            if sla_list_valid[successor_list] == 0:
                sla_accesses = 1
                num_successors = 0
            else:
                if sla_next[successor_list] == successor_list:
                    base = successor_list * per_entry
                    successors = sla_elements[base : base + sla_valid[successor_list]]
                    sla_accesses = 1
                else:
                    successors, sla_accesses = sla_iterate(successor_list)
                num_successors = len(successors)
                for successor_id in successors:
                    remaining = tt_pred[successor_id] - 1
                    tt_pred[successor_id] = remaining
                    if remaining == 0:
                        if tt_complete[successor_id]:
                            try:
                                ready_push(successor_id)
                            except DMUProtocolError:
                                wake_failed(sla_accesses, num_successors)
                                raise
                            tasks_woken += 1
                    elif remaining < 0:
                        wake_failed(sla_accesses, num_successors)
                        raise DMUProtocolError(
                            f"task id {successor_id} predecessor count went negative"
                        )
                ready_charged = True

            # Second loop: clean this task out of its dependences (same
            # empty-list shortcut).
            dt_accesses = rla_accesses = dat_releases = 0
            if dla_list_valid[dependence_list] == 0:
                dla_accesses = 1
            else:
                if dla_next[dependence_list] == dependence_list:
                    base = dependence_list * per_entry
                    dependences = dla_elements[base : base + dla_valid[dependence_list]]
                    dla_accesses = 1
                else:
                    dependences, dla_accesses = dla_iterate(dependence_list)
                for dep_id in dependences:
                    if not dt_valid[dep_id]:
                        # The dependence entry was already recycled by an
                        # earlier occurrence of the same address in this list.
                        continue
                    dt_accesses += 1
                    reader_list = dt_reader_list[dep_id]
                    if reader_list >= 0:
                        rla_accesses += rla_remove(reader_list, task_id)[1]
                    writer_valid = dt_lw_valid[dep_id]
                    if writer_valid and dt_last_writer[dep_id] == task_id:
                        dt_last_writer[dep_id] = -1
                        dt_lw_valid[dep_id] = 0
                        writer_valid = 0
                        dt_accesses += 1
                    if not writer_valid and (reader_list < 0 or rla_list_valid[reader_list] == 0):
                        if reader_list >= 0:
                            rla_accesses += rla_free_list(reader_list)
                        # DependenceTable.free
                        dt_valid[dep_id] = 0
                        dependence_table._occupancy -= 1
                        dt_accesses += 1
                        # AliasTable.release of the entry's address.
                        address = dt_address[dep_id]
                        dat_recycled.append(dat_by_address.pop(address))
                        set_index = dat_set_of_address.pop(address)
                        ways = dat_set_count[set_index] - 1
                        dat_set_count[set_index] = ways
                        if not ways:
                            dat._occupied_sets -= 1
                        dat_releases += 1
                rla_charged = True

            # Free the task's own resources: ListArray.free_list on one-entry
            # chains (release blanks the slots and LIFO-pushes the entry),
            # TaskTable.free, and the TAT mapping.
            if sla_next[successor_list] == successor_list:
                sla_in_use[successor_list] = 0
                base = successor_list * per_entry
                sla_elements[base : base + per_entry] = sla_blank
                sla_valid[successor_list] = 0
                sla.free_entries += 1
                sla_recycled.append(successor_list)
                sla_accesses += 1
            else:
                sla_accesses += sla_free_list(successor_list)
            if dla_next[dependence_list] == dependence_list:
                dla_in_use[dependence_list] = 0
                base = dependence_list * per_entry
                dla_elements[base : base + per_entry] = dla_blank
                dla_valid[dependence_list] = 0
                dla.free_entries += 1
                dla_recycled.append(dependence_list)
                dla_accesses += 1
            else:
                dla_accesses += dla_free_list(dependence_list)
            tt_valid[task_id] = 0
            task_table._occupancy -= 1
            del tat_by_address[descriptor_address]
            set_index = tat_set_of_address.pop(descriptor_address)
            ways = tat_set_count[set_index] - 1
            tat_set_count[set_index] = ways
            if not ways:
                tat._occupied_sets -= 1
            tat_recycled.append(task_id)

            # TAT lookup + release and Task Table read + free are constant.
            sla_more += sla_accesses
            dla_more += dla_accesses
            tt_more += num_successors
            ready_more += tasks_woken
            dt_more += dt_accesses
            rla_more += rla_accesses
            dat_more += dat_releases
            finished += 1
            finish_result.cycles = access_cycles * (
                4 + sla_accesses + num_successors + tasks_woken + dla_accesses
                + dt_accesses + rla_accesses + dat_releases
            )
            finish_result.tasks_woken = tasks_woken
            return finish_result

        # -------------------------------------------------------------- get_ready_task
        def get_ready_task() -> GetReadyTaskResult:
            """Pop the next ready task (ISA ``get_ready_task``)."""
            nonlocal popped, null_pops
            if not ready_fifo:
                null_pops += 1
                return null_ready_result
            ready_queue.total_pops += 1
            task_id = ready_popleft()
            popped += 1
            ready_result.descriptor_address = tt_descriptor[task_id]
            ready_result.num_successors = tt_succ[task_id]
            return ready_result

        self.create_task = create_task
        self.add_dependence = add_dependence
        self.complete_creation = complete_creation
        self.finish_task = finish_task
        self.get_ready_task = get_ready_task

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
