"""Plain (non-fixture) helpers shared by test modules."""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Optional, Sequence, Tuple

from repro.config import ChipConfig, CoreConfig, DMUConfig, SimulationConfig
from repro.experiments.cache import canonical_json
from repro.experiments.common import SimulationRunner
from repro.experiments.registry import run_experiment
from repro.runtime.task import (
    AccessMode,
    DependenceSpec,
    TaskDefinition,
    TaskProgram,
    single_region_program,
)

#: The three forms ``canonical_run_key`` accepts for its ``config``, each
#: derived from a :class:`SimulationConfig`; all three must hash the same
#: bytes.  Parametrize key goldens over ``sorted(CONFIG_FORMS)``.
CONFIG_FORMS = {
    "object": lambda config: config,
    "dict": SimulationConfig.to_dict,
    "json": lambda config: canonical_json(config.to_dict()),
}


def make_config(
    runtime: str = "tdm",
    scheduler: str = "fifo",
    num_cores: int = 8,
    dmu: DMUConfig | None = None,
    **overrides,
) -> SimulationConfig:
    """A validated small-chip configuration for tests."""
    config = SimulationConfig(
        chip=ChipConfig(num_cores=num_cores, core=CoreConfig()),
        runtime=runtime,
        scheduler=scheduler,
    )
    if dmu is not None:
        config = dataclasses.replace(config, dmu=dmu)
    if overrides:
        config = dataclasses.replace(config, **overrides)
    return config.validated()


def experiment_output(
    experiment: str,
    scale: float,
    benchmarks: Optional[Sequence[str]] = None,
    runner: Optional[SimulationRunner] = None,
) -> Tuple[str, str]:
    """Render one experiment and return its (CSV, Markdown) byte content.

    The differential determinism harness compares these strings across
    serial and ``jobs > 1`` executions — they must match byte for byte.
    """
    runner = runner or SimulationRunner(scale=scale)
    result = run_experiment(experiment, scale=scale, benchmarks=benchmarks, runner=runner)
    return result.to_csv(), result.to_markdown()


def diamond_program(work_us: float = 50.0):
    """A four-task diamond: A -> (B, C) -> D, expressed through data blocks."""
    block = 4096
    a_out = 0x1000_0000
    b_out = 0x2000_0000
    c_out = 0x3000_0000
    tasks = [
        TaskDefinition(
            uid=0,
            name="A",
            kind="source",
            work_us=work_us,
            dependences=(DependenceSpec(a_out, block, AccessMode.OUT),),
        ),
        TaskDefinition(
            uid=1,
            name="B",
            kind="middle",
            work_us=work_us,
            dependences=(
                DependenceSpec(a_out, block, AccessMode.IN),
                DependenceSpec(b_out, block, AccessMode.OUT),
            ),
        ),
        TaskDefinition(
            uid=2,
            name="C",
            kind="middle",
            work_us=work_us,
            dependences=(
                DependenceSpec(a_out, block, AccessMode.IN),
                DependenceSpec(c_out, block, AccessMode.OUT),
            ),
        ),
        TaskDefinition(
            uid=3,
            name="D",
            kind="sink",
            work_us=work_us,
            dependences=(
                DependenceSpec(b_out, block, AccessMode.IN),
                DependenceSpec(c_out, block, AccessMode.IN),
            ),
        ),
    ]
    return single_region_program("diamond", tasks)


def program_digest(program: TaskProgram, work: bool = True) -> str:
    """SHA-256 over a built program's regions, tasks and dependences.

    With ``work=False`` the per-task durations (``work_us`` and
    ``creation_work_us``) are left out, so two programs that differ only
    in their seeded duration jitter share a digest.
    """
    digest = hashlib.sha256(repr(program.name).encode("utf-8"))
    for region in program.regions:
        digest.update(repr((region.name, region.sequential_us_before)).encode("utf-8"))
        for task in region.tasks:
            dependences = tuple((d.address, d.size, d.mode.name) for d in task.dependences)
            row = (task.uid, task.name, task.kind, dependences, task.memory_sensitivity)
            if work:
                row += (task.work_us, task.creation_work_us)
            digest.update(repr(row).encode("utf-8"))
    return digest.hexdigest()
