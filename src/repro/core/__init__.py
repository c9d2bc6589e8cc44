"""The paper's contribution: the Dependence Management Unit (DMU).

The DMU keeps a hardware representation of the task dependence graph and
exposes ready tasks to the runtime system.  This package models every
structure of Figure 3 of the paper:

* :mod:`repro.core.alias_table` — TAT and DAT (set-associative alias tables
  with free-ID queues and dynamic index-bit selection),
* :mod:`repro.core.task_table` / :mod:`repro.core.dependence_table` —
  direct-access SRAM tables indexed by internal IDs (struct-of-arrays
  columns, one per Figure-4 field),
* :mod:`repro.core.list_array` — inode-style successor / dependence / reader
  list arrays (flat columnar slot slab + next/in-use/valid columns),
* :mod:`repro.core.ready_queue` — the FIFO of ready task IDs,
* :mod:`repro.core.dmu` — the unit itself, implementing Algorithms 1 and 2
  with per-instruction cycle accounting and blocking on full structures,
* :mod:`repro.core.storage` — the storage/area model behind Table III.
"""

from .alias_table import AliasTable, dat_index_start_bit
from .list_array import ListArray
from .task_table import TaskTable
from .dependence_table import DependenceTable
from .ready_queue import ReadyQueue
from .isa import (
    AddDependenceResult,
    CreateTaskResult,
    DMUBlocked,
    FinishTaskResult,
    GetReadyTaskResult,
)
from .dmu import DependenceManagementUnit
from .stats import DMUStats
from .storage import (
    DMUStorageModel,
    StructureStorage,
    TaskSuperscalarStorageModel,
    CarbonStorageModel,
)

__all__ = [
    "AliasTable",
    "dat_index_start_bit",
    "ListArray",
    "TaskTable",
    "DependenceTable",
    "ReadyQueue",
    "DependenceManagementUnit",
    "DMUStats",
    "DMUBlocked",
    "CreateTaskResult",
    "AddDependenceResult",
    "FinishTaskResult",
    "GetReadyTaskResult",
    "DMUStorageModel",
    "StructureStorage",
    "TaskSuperscalarStorageModel",
    "CarbonStorageModel",
]
