"""Seeded generative DAG workload families for stress sweeps.

The paper's nine benchmarks are hand-coded task graphs; these families
generate adversarial graphs far outside that envelope from five structural
knobs — fan-out (``width``), depth (``layers``), dependency skew (how hard
reads concentrate on a few hot blocks), read/write ratio and phase
structure (barriers between phases).  All randomness flows through one
explicit seeded :class:`random.Random` (no module-level state anywhere),
so the same ``(family, scale, granularity, seed)`` tuple always produces
the identical program — across processes and hosts — which is
what lets the campaign engine cache and shard them like paper benchmarks.

:func:`layered_dag_program` is the core generator; the ``gen_*``
:class:`~repro.workloads.base.Workload` subclasses expose curated parameter
points as first-class registry workloads (``granularity`` is the average
task duration in µs, swept like Figure 6), and
:func:`register_builtin_workloads` installs them (plus the bundled trace
fixtures) into :mod:`repro.workloads.registry`.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from ..runtime.task import (
    AccessMode,
    DependenceSpec,
    TaskDefinition,
    TaskProgram,
    TaskRegion,
)
from ..workloads.base import GranularityOption, Workload
from ..workloads.synthetic import chain_program, fork_join_program

#: Base address of the generative families' data blocks (disjoint from the
#: synthetic generators' 0xA0/0xB0/0xC0 ranges and far below the trace
#: importer's reserved token range).
_GEN_BASE = 0xD0_0000_0000

#: Default distance between consecutive data blocks.
_BLOCK = 4096

#: Block stride that folds distinct blocks onto the same DMU index bits
#: (adversarial aliasing: many addresses, few sets).
ALIAS_STRIDE = 1 << 18


def _skewed_block(rng: random.Random, num_blocks: int, skew: float) -> int:
    """Pick a block index; ``skew`` in [0, 1] concentrates picks near 0.

    ``skew=0`` is uniform; ``skew=1`` raises the uniform draw to the 10th
    power, so almost every pick lands on the first few blocks (the
    reader-storm pattern that floods one SLA/DLA chain).
    """
    draw = rng.random() ** (1.0 + 9.0 * skew)
    return min(num_blocks - 1, int(num_blocks * draw))


def layered_dag_program(
    rng: random.Random,
    *,
    name: str = "layered",
    layers: int = 4,
    width: int = 16,
    fanout: int = 2,
    num_blocks: int = 64,
    skew: float = 0.0,
    write_ratio: float = 0.5,
    phases: int = 1,
    work_us: float = 100.0,
    block_stride: int = _BLOCK,
    jitter: float = 0.25,
    memory_sensitivity: float = 0.0,
) -> TaskProgram:
    """A layered random DAG driven entirely by the caller's seeded ``rng``.

    Each phase is one parallel region of ``layers × width`` tasks created
    layer by layer.  Every task reads ``fanout`` skew-picked blocks and,
    with probability ``write_ratio``, writes one more (OUT or INOUT, an
    even split).  Dependences derive from data accesses in creation order,
    so the graph is acyclic by construction; high ``skew`` piles readers
    onto a few hot blocks, and an ``ALIAS_STRIDE`` ``block_stride`` makes
    distinct blocks collide in the DMU's index function.
    """
    if layers < 1 or width < 1 or num_blocks < 1 or phases < 1:
        raise ValueError("layers, width, num_blocks and phases must be >= 1")
    if fanout < 0 or block_stride < 1:
        raise ValueError("fanout must be >= 0 and block_stride >= 1")
    size = min(_BLOCK, block_stride)
    regions: List[TaskRegion] = []
    uid = 0
    for phase in range(phases):
        tasks: List[TaskDefinition] = []
        for layer in range(layers):
            for index in range(width):
                deps: List[DependenceSpec] = []
                chosen: List[int] = []
                for _ in range(fanout):
                    block = _skewed_block(rng, num_blocks, skew)
                    if block not in chosen:
                        chosen.append(block)
                        deps.append(
                            DependenceSpec(
                                _GEN_BASE + block * block_stride, size, AccessMode.IN
                            )
                        )
                if rng.random() < write_ratio:
                    block = _skewed_block(rng, num_blocks, skew)
                    mode = AccessMode.OUT if rng.random() < 0.5 else AccessMode.INOUT
                    deps.append(
                        DependenceSpec(_GEN_BASE + block * block_stride, size, mode)
                    )
                duration = work_us * (1.0 - jitter + 2.0 * jitter * rng.random())
                tasks.append(
                    TaskDefinition(
                        uid=uid,
                        name=f"p{phase}_l{layer}_{index}",
                        kind="layered",
                        work_us=duration,
                        dependences=tuple(deps),
                        memory_sensitivity=memory_sensitivity,
                    )
                )
                uid += 1
        regions.append(TaskRegion(tasks=tuple(tasks), name=f"{name}.phase{phase}"))
    return TaskProgram(
        name=name,
        regions=tuple(regions),
        metadata={
            "layers": layers,
            "width": width,
            "fanout": fanout,
            "skew": skew,
            "write_ratio": write_ratio,
            "phases": phases,
        },
    )


class GenerativeDAGWorkload(Workload):
    """Base class of the ``gen_*`` families.

    ``granularity`` is the average task duration in µs (the same axis the
    paper's Figure 6 sweeps); structural knobs are class attributes so each
    curated family is a small declarative subclass.  ``scale`` shrinks the
    two structural dimensions with exponent ½ each, so the total task count
    scales roughly linearly with ``scale``.
    """

    #: Average task duration options (µs per task), swept like Figure 6.
    GRANULARITIES = (25, 50, 100, 200, 400)
    _SW_GRANULARITY = 100
    _TDM_GRANULARITY = 50

    # Structural knobs, overridden per family.
    layers = 4
    width = 16
    fanout = 2
    num_blocks = 64
    skew = 0.0
    write_ratio = 0.5
    phases = 1
    block_stride = _BLOCK

    def granularity_options(self) -> Tuple[GranularityOption, ...]:
        return tuple(
            GranularityOption(value, f"{value} us/task") for value in self.GRANULARITIES
        )

    def optimal_granularity(self, runtime: str = "software") -> int:
        if runtime in ("tdm", "task_superscalar"):
            return self._TDM_GRANULARITY
        return self._SW_GRANULARITY

    def _structure(self) -> Dict[str, int]:
        """The scaled structural dimensions of this build."""
        return {
            "layers": self._scaled(self.layers, minimum=1, exponent=0.5),
            "width": self._scaled(self.width, minimum=2, exponent=0.5),
        }

    def build_program(self) -> TaskProgram:
        self._reset()
        structure = self._structure()
        program = layered_dag_program(
            self._rng,
            name=self.name,
            layers=structure["layers"],
            width=structure["width"],
            fanout=self.fanout,
            num_blocks=self.num_blocks,
            skew=self.skew,
            write_ratio=self.write_ratio,
            phases=self.phases,
            work_us=float(self.granularity),
            block_stride=self.block_stride,
            memory_sensitivity=self.memory_sensitivity,
        )
        return self._rewrap(program)

    def _rewrap(self, program: TaskProgram) -> TaskProgram:
        """Attach the standard workload metadata keys to a generated program."""
        metadata = {
            "workload": self.name,
            "granularity": self.granularity,
            "scale": self.scale,
            "seed": self.seed,
        }
        metadata.update(program.metadata)
        return TaskProgram(name=self.name, regions=program.regions, metadata=metadata)


class WideShallowWorkload(GenerativeDAGWorkload):
    """Extreme fan-out, minimal depth: waves of independent tasks.

    Built on :func:`~repro.workloads.synthetic.fork_join_program`, so the
    graph is exactly the paper's fork/join shape blown up to ~96 tasks per
    barrier — the task-creation-rate stress case (Figure 10 territory).
    """

    name = "gen_wide_shallow"
    label = "g.wide"
    waves = 3
    tasks_per_wave = 96

    def build_program(self) -> TaskProgram:
        self._reset()
        program = fork_join_program(
            num_waves=max(1, self.waves),
            tasks_per_wave=self._scaled(self.tasks_per_wave, minimum=2),
            work_us=float(self.granularity),
            name=self.name,
        )
        return self._rewrap(program)


class DeepChainWorkload(GenerativeDAGWorkload):
    """Minimal fan-out, extreme depth: a few very long dependence chains.

    Built on :func:`~repro.workloads.synthetic.chain_program`; exercises
    the wake-up path (every finish readies exactly one successor) with
    almost no exploitable parallelism.
    """

    name = "gen_deep_chain"
    label = "g.deep"
    chains = 6
    chain_length = 48

    def build_program(self) -> TaskProgram:
        self._reset()
        program = chain_program(
            num_chains=self._scaled(self.chains, minimum=2, exponent=0.5),
            chain_length=self._scaled(self.chain_length, minimum=4, exponent=0.5),
            work_us=float(self.granularity),
            name=self.name,
        )
        return self._rewrap(program)


class ReaderStormWorkload(GenerativeDAGWorkload):
    """Heavily skewed reads: almost every task reads the same few blocks.

    Occasional writers to those hot blocks force long reader lists — the
    SLA/DLA chaining stress case the paper's benchmarks never reach.
    """

    name = "gen_reader_storm"
    label = "g.storm"
    layers = 6
    width = 32
    fanout = 3
    num_blocks = 32
    skew = 0.9
    write_ratio = 0.15


class AliasConflictWorkload(GenerativeDAGWorkload):
    """Many distinct addresses folded onto few DMU index sets.

    ``ALIAS_STRIDE`` spacing makes blocks collide in the TAT/DAT index
    function, stressing associativity and the alias-table path.
    """

    name = "gen_alias_conflict"
    label = "g.alias"
    layers = 5
    width = 24
    fanout = 2
    num_blocks = 48
    skew = 0.3
    write_ratio = 0.5
    block_stride = ALIAS_STRIDE


class PhasedWorkload(GenerativeDAGWorkload):
    """Four barrier-separated phases of mixed-skew layered DAGs.

    Exercises region teardown/warm-up behavior: every barrier drains the
    DMU and the next phase refills it from scratch.
    """

    name = "gen_phased"
    label = "g.phase"
    layers = 4
    width = 24
    fanout = 2
    num_blocks = 40
    skew = 0.5
    write_ratio = 0.4
    phases = 4


#: Every generative family, in registration order.
GENERATIVE_WORKLOADS = (
    WideShallowWorkload,
    DeepChainWorkload,
    ReaderStormWorkload,
    AliasConflictWorkload,
    PhasedWorkload,
)


def register_builtin_workloads() -> None:
    """Install the scenario workloads into :mod:`repro.workloads.registry`.

    Idempotent (``replace=True``) because both the scenario registry and
    the workload registry's lazy ``gen_*``/``trace_*`` hook call it — and
    campaign pool workers may hit the hook again in a fresh process.
    """
    from ..workloads.registry import register_workload
    from .trace import BUNDLED_TRACE_WORKLOADS

    for cls in GENERATIVE_WORKLOADS + BUNDLED_TRACE_WORKLOADS:
        register_workload(cls.name, cls, replace=True)
