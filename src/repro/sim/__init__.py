"""Discrete-event simulation substrate for the TDM reproduction.

This package provides a small coroutine-based discrete-event kernel
(:mod:`repro.sim.engine`), synchronization primitives (:mod:`repro.sim.resources`),
the chip model that ties cores, threads, the runtime system and the DMU
together (:mod:`repro.sim.machine`), per-thread phase accounting
(:mod:`repro.sim.timeline`) and the data-locality model
(:mod:`repro.sim.locality`).
"""

from .engine import Engine, Process
from .events import Acquire, SimEvent, WaitEvent
from .resources import Lock
from .timeline import Phase, Timeline, TimelineRecorder
from .machine import Machine, SimulationResult, run_simulation

__all__ = [
    "Engine",
    "Process",
    "SimEvent",
    "Acquire",
    "WaitEvent",
    "Lock",
    "Phase",
    "Timeline",
    "TimelineRecorder",
    "Machine",
    "SimulationResult",
    "run_simulation",
]
