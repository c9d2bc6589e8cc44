"""Runtime-system models.

This package contains the task and dependence abstractions shared by the
whole library (:mod:`repro.runtime.task`), the software dependence tracker
(:mod:`repro.runtime.tracker`), the ready pool used by the software
schedulers (:mod:`repro.runtime.ready_pool`), the calibrated phase cost
formulas (:mod:`repro.runtime.cost_model`) and the four runtime-system
variants evaluated in the paper:

* :class:`~repro.runtime.software.SoftwareRuntime` — everything in software
  (the paper's baseline),
* :class:`~repro.runtime.tdm.TDMRuntime` — dependence management offloaded to
  the DMU, scheduling in software (the paper's contribution),
* :class:`~repro.runtime.carbon.CarbonRuntime` — hardware FIFO task queues,
  dependence management in software (Carbon [10]),
* :class:`~repro.runtime.task_superscalar.TaskSuperscalarRuntime` — both
  dependence management and scheduling in hardware (Task Superscalar [11]):
  the TDM runtime with the DMU's Ready Queue in place of the software pool.

The software-pool pop is :meth:`~repro.runtime.base.RuntimeSystem.try_get_task`,
shared by the software and TDM runtimes.
"""

from .task import (
    AccessMode,
    DependenceSpec,
    TaskDefinition,
    TaskInstance,
    TaskProgram,
    TaskRegion,
    TaskState,
)
from .tracker import DependenceTracker, MatchResult
from .ready_pool import ReadyPool
from .base import RuntimeSystem
from .software import SoftwareRuntime
from .tdm import TDMRuntime
from .carbon import CarbonRuntime
from .task_superscalar import TaskSuperscalarRuntime
from .factory import available_runtimes, create_runtime

__all__ = [
    "AccessMode",
    "DependenceSpec",
    "TaskDefinition",
    "TaskInstance",
    "TaskProgram",
    "TaskRegion",
    "TaskState",
    "DependenceTracker",
    "MatchResult",
    "ReadyPool",
    "RuntimeSystem",
    "SoftwareRuntime",
    "TDMRuntime",
    "CarbonRuntime",
    "TaskSuperscalarRuntime",
    "available_runtimes",
    "create_runtime",
]
