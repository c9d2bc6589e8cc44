"""Common infrastructure of the benchmark generators.

A :class:`Workload` turns a benchmark description (problem size, task
granularity, scale factor) into a :class:`~repro.runtime.task.TaskProgram`.
Generators are deterministic: the same parameters always produce the same
program (a seeded RNG adds only small per-task duration jitter so tasks of
the same kind are not perfectly identical, which real benchmarks never are).

Granularity follows the paper's Figure 6: every workload exposes the list of
granularity values swept in the figure and its *optimal* granularity for the
software runtime and for TDM (Table II), because the evaluation always runs
each approach at its own best granularity.

The ``scale`` parameter shrinks the problem (fewer tasks, same structure) so
the test suite and the pytest benchmarks stay fast; ``scale=1.0`` reproduces
the paper's task counts.
"""

from __future__ import annotations

import abc
import functools
import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from ..runtime.task import (
    AccessMode,
    DependenceSpec,
    TaskDefinition,
    TaskProgram,
    TaskRegion,
)

#: Fractional duration jitter applied per task (deterministic, seeded).
DURATION_JITTER = 0.08


@dataclass(frozen=True)
class GranularityOption:
    """One point of the Figure 6 granularity sweep."""

    value: int
    label: str


class Workload(abc.ABC):
    """Base class of all benchmark task-graph generators."""

    #: Registry name ("cholesky", "blackscholes", ...).
    name: str = "abstract"
    #: Short label used in the paper's figures ("cho", "bla", ...).
    label: str = "abs"
    #: How much the benchmark benefits from data locality (0 = compute bound).
    memory_sensitivity: float = 0.0

    def __init__(
        self,
        scale: float = 1.0,
        granularity: Optional[int] = None,
        seed: int = 0,
    ) -> None:
        if not (0.0 < scale <= 1.0):
            raise ConfigurationError(f"scale must be in (0, 1], got {scale}")
        self.scale = scale
        self.seed = seed
        self._granularity = granularity if granularity is not None else self.optimal_granularity("software")
        if self._granularity not in {option.value for option in self.granularity_options()}:
            # Custom granularities are allowed (they are needed for sweeps
            # finer than the paper's), but must be positive.
            if self._granularity <= 0:
                raise ConfigurationError(f"granularity must be positive, got {granularity}")
        self._rng = random.Random(seed)
        self._uid = 0

    # ------------------------------------------------------------------ knobs
    @property
    def granularity(self) -> int:
        """Current granularity value (meaning is workload specific; see Fig. 6)."""
        return self._granularity

    @abc.abstractmethod
    def granularity_options(self) -> Tuple[GranularityOption, ...]:
        """The granularity values swept in Figure 6 for this benchmark."""

    @abc.abstractmethod
    def optimal_granularity(self, runtime: str = "software") -> int:
        """The granularity used in the evaluation for ``runtime`` ('software'/'tdm')."""

    def with_granularity(self, granularity: int) -> "Workload":
        """A copy of this workload at a different granularity."""
        return type(self)(scale=self.scale, granularity=granularity, seed=self.seed)

    def for_runtime(self, runtime: str) -> "Workload":
        """A copy of this workload at the optimal granularity for ``runtime``."""
        return type(self)(
            scale=self.scale,
            granularity=self.optimal_granularity(runtime),
            seed=self.seed,
        )

    # ------------------------------------------------------------------ program
    @abc.abstractmethod
    def build_program(self) -> TaskProgram:
        """Generate the task program for the current parameters."""

    # ------------------------------------------------------------------ helpers
    def _reset(self) -> None:
        """Reset per-build state (uid counter and RNG) for reproducibility."""
        self._rng = random.Random(self.seed)
        self._uid = 0

    def _next_uid(self) -> int:
        uid = self._uid
        self._uid += 1
        return uid

    def _duration(self, base_us: float) -> float:
        """Base duration with a small deterministic jitter."""
        if base_us <= 0:
            return 0.0
        jitter = 1.0 + self._rng.uniform(-DURATION_JITTER, DURATION_JITTER)
        return base_us * jitter

    def _task(
        self,
        name: str,
        kind: str,
        work_us: float,
        dependences: Iterable[DependenceSpec] = (),
        creation_work_us: float = 0.0,
    ) -> TaskDefinition:
        """Create a :class:`TaskDefinition` with this workload's defaults."""
        return TaskDefinition(
            uid=self._next_uid(),
            name=name,
            kind=kind,
            work_us=self._duration(work_us),
            dependences=dependences,
            memory_sensitivity=self.memory_sensitivity,
            creation_work_us=creation_work_us,
        )

    def _scaled(self, value: int, minimum: int = 1, exponent: float = 1.0) -> int:
        """Scale an integer problem dimension by ``scale ** exponent``."""
        return max(minimum, int(round(value * (self.scale ** exponent))))

    def _program(self, regions: Sequence[TaskRegion], metadata: Optional[Dict[str, object]] = None) -> TaskProgram:
        meta: Dict[str, object] = {
            "workload": self.name,
            "granularity": self.granularity,
            "scale": self.scale,
            "memory_sensitivity": self.memory_sensitivity,
        }
        meta.update(metadata or {})
        return TaskProgram(name=self.name, regions=tuple(regions), metadata=meta)

    def _single_region(self, tasks: List[TaskDefinition], metadata: Optional[Dict[str, object]] = None) -> TaskProgram:
        return self._program([TaskRegion(tasks=tuple(tasks), name=f"{self.name}.region0")], metadata)

    # ------------------------------------------------------------------ info
    def describe(self) -> Dict[str, object]:
        """Summary of the generated program (used by Table II reproduction)."""
        program = self.build_program()
        return {
            "workload": self.name,
            "granularity": self.granularity,
            "scale": self.scale,
            "num_tasks": program.num_tasks,
            "average_task_us": program.average_task_us,
            "total_work_us": program.total_work_us,
            "num_regions": len(program.regions),
            "max_dependences_per_task": program.max_dependences_per_task(),
        }


# Modes as module constants (see ``blocked_matrix``): the shorthands below run
# once per dependence of every generated task.
_IN, _OUT, _INOUT = AccessMode.IN, AccessMode.OUT, AccessMode.INOUT

#: Specs kept by :func:`shared_dependence`.  The largest program the paper
#: campaign builds names 20,477 distinct dependences (histogram at
#: granularity 16, scale 1.0), so no build evicts a spec it still uses.
_SHARED_SPEC_MEMO_SIZE = 1 << 15


@functools.lru_cache(maxsize=_SHARED_SPEC_MEMO_SIZE)
def shared_dependence(address: int, size: int, mode: AccessMode) -> DependenceSpec:
    """The one :class:`DependenceSpec` for ``(address, size, mode)``.

    Every generator makes its dependences here.  Tasks of one program name
    the same data blocks over and over (the aliasing the DAT exists for):
    the nine Table II programs hold 168,589 clauses but 9,259 distinct
    ones.  Sharing one immutable spec per distinct clause makes a build
    construct each once; equal specs were already interchangeable, so a
    shared one is indistinguishable from a fresh one.  Call positionally:
    keyword arguments key the memo separately.
    """
    return DependenceSpec(address, size, mode)


def in_dep(address: int, size: int) -> DependenceSpec:
    """Shorthand for an input dependence."""
    return shared_dependence(address, size, _IN)


def out_dep(address: int, size: int) -> DependenceSpec:
    """Shorthand for an output dependence."""
    return shared_dependence(address, size, _OUT)


def inout_dep(address: int, size: int) -> DependenceSpec:
    """Shorthand for an inout dependence."""
    return shared_dependence(address, size, _INOUT)
