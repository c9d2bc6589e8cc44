"""Exception hierarchy for the TDM reproduction library.

All exceptions raised by the library derive from :class:`ReproError`, so
callers can catch a single base class.  Hardware-model errors (DMU structural
problems) and simulation errors (deadlocks, invalid programs) form their own
branches because they are reported to users in different contexts: the former
indicate a mis-configured or mis-used hardware model, the latter indicate a
malformed workload or a bug in a runtime/scheduler implementation.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the ``repro`` package."""


class ConfigurationError(ReproError):
    """A configuration object has inconsistent or out-of-range values."""


class DMUError(ReproError):
    """Base class for errors raised by the Dependence Management Unit model."""


class DMUStructureFullError(DMUError):
    """A DMU structure has no free entry and blocking is not permitted.

    In the simulated system the ISA instructions block until space is
    available; this exception is raised only when the DMU is driven directly
    (outside a simulation) and asked not to block.
    """

    def __init__(self, structure: str, message: str | None = None) -> None:
        self.structure = structure
        super().__init__(message or f"DMU structure '{structure}' is full")


class DMUProtocolError(DMUError):
    """The runtime used the DMU interface incorrectly.

    Examples: adding a dependence to a task that was never created, finishing
    a task twice, or finishing a task that still has unresolved predecessors.
    """


class UnknownTaskError(DMUProtocolError):
    """An operation referenced a task descriptor address the DMU does not know."""


class SimulationError(ReproError):
    """Base class for errors raised by the discrete-event simulator."""


class DeadlockError(SimulationError):
    """The simulation cannot make progress.

    Raised when every process is blocked and no events remain, which means a
    runtime/scheduler combination dropped a task or a dependence cycle exists.
    """


class InvalidProgramError(SimulationError):
    """A workload produced a task program the simulator cannot execute."""


class ValidationError(ReproError):
    """A post-simulation validation check failed (dependences violated, ...)."""


class ExperimentError(ReproError):
    """An experiment harness was invoked with unusable parameters."""
