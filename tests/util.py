"""Plain (non-fixture) helpers shared by test modules."""

from __future__ import annotations

import dataclasses
import pathlib
from typing import Optional, Sequence, Tuple

from repro.config import ChipConfig, CoreConfig, DMUConfig, SimulationConfig
from repro.experiments.cache import canonical_json
from repro.experiments.common import SimulationRunner
from repro.experiments.registry import run_experiment
from repro.experiments.shard import ShardManifest, ShardSpec, merge_shards, run_shard_worker
from repro.runtime.task import (
    AccessMode,
    DependenceSpec,
    TaskDefinition,
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
    serial, ``jobs > 1`` and sharded split-and-merge executions — they must
    match byte for byte.
    """
    runner = runner or SimulationRunner(scale=scale)
    result = run_experiment(experiment, scale=scale, benchmarks=benchmarks, runner=runner)
    return result.to_csv(), result.to_markdown()


def run_all_shards(
    experiment: str,
    scale: float,
    benchmarks: Optional[Sequence[str]],
    shard_root: pathlib.Path,
    count: int,
) -> list[ShardManifest]:
    """Simulate every shard of an experiment into per-shard cache dirs.

    Each shard gets a *fresh* runner — the same isolation N distinct hosts
    would have — persisting to ``<shard_root>/shard<i>``.
    """
    manifests = []
    for index in range(1, count + 1):
        runner = SimulationRunner(scale=scale, cache_dir=shard_root / f"shard{index}")
        manifests.append(
            run_shard_worker(experiment, ShardSpec(index, count), runner, benchmarks=benchmarks)
        )
    return manifests


def merge_and_render(
    experiment: str,
    scale: float,
    benchmarks: Optional[Sequence[str]],
    shard_root: pathlib.Path,
    count: int,
    sources: Optional[Sequence[pathlib.Path]] = None,
) -> Tuple[str, str, SimulationRunner]:
    """Union the shard caches, verify completeness, render from the union.

    Returns (CSV, Markdown, the merge runner) so callers can additionally
    assert that rendering simulated nothing.  ``sources`` overrides the
    default per-shard directory layout (e.g. one shared cache directory).
    """
    if sources is None:
        sources = [shard_root / f"shard{index}" for index in range(1, count + 1)]
    runner = SimulationRunner(scale=scale, cache_dir=shard_root / "merged")
    merge_shards(experiment, sources, runner, benchmarks=benchmarks).verify()
    csv, markdown = experiment_output(experiment, scale, benchmarks, runner=runner)
    return csv, markdown, runner


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
