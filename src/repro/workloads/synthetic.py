"""Synthetic task programs for tests, examples and property-based checks.

Three generators are provided:

* :func:`chain_program` — independent chains of dependent tasks (the
  Blackscholes pattern at arbitrary size),
* :func:`fork_join_program` — waves of independent tasks separated by
  barriers,
* :func:`random_dag_program` — a random DAG with configurable edge density,
  used by the hypothesis-based tests to stress the dependence-tracking
  models with arbitrary (but acyclic) structures.
"""

from __future__ import annotations

import random
from typing import Optional

from ..runtime.task import AccessMode, TaskDefinition, TaskProgram, TaskRegion
from .base import shared_dependence

_CHAIN_BASE = 0xA0_0000_0000
_FORK_BASE = 0xB0_0000_0000
_DAG_BASE = 0xC0_0000_0000
_BLOCK = 4096


def chain_program(
    num_chains: int = 4,
    chain_length: int = 8,
    work_us: float = 100.0,
    name: str = "chains",
) -> TaskProgram:
    """Independent chains of in-place (inout) tasks."""
    if num_chains < 1 or chain_length < 1:
        raise ValueError("num_chains and chain_length must be >= 1")
    tasks = []
    uid = 0
    for step in range(chain_length):
        for chain in range(num_chains):
            address = _CHAIN_BASE + chain * 0x10_0000
            tasks.append(
                TaskDefinition(
                    uid=uid,
                    name=f"chain{chain}_{step}",
                    kind="chain",
                    work_us=work_us,
                    dependences=(shared_dependence(address, _BLOCK, AccessMode.INOUT),),
                )
            )
            uid += 1
    region = TaskRegion(tasks=tuple(tasks), name=f"{name}.region0")
    return TaskProgram(name=name, regions=(region,), metadata={"chains": num_chains})


def fork_join_program(
    num_waves: int = 3,
    tasks_per_wave: int = 16,
    work_us: float = 100.0,
    name: str = "forkjoin",
) -> TaskProgram:
    """Waves of independent tasks, one parallel region (barrier) per wave."""
    if num_waves < 1 or tasks_per_wave < 1:
        raise ValueError("num_waves and tasks_per_wave must be >= 1")
    regions = []
    uid = 0
    for wave in range(num_waves):
        tasks = []
        for index in range(tasks_per_wave):
            input_address = _FORK_BASE + index * _BLOCK
            output_address = _FORK_BASE + 0x1000_0000 + (wave * tasks_per_wave + index) * _BLOCK
            tasks.append(
                TaskDefinition(
                    uid=uid,
                    name=f"wave{wave}_{index}",
                    kind="fork",
                    work_us=work_us,
                    dependences=(
                        shared_dependence(input_address, _BLOCK, AccessMode.IN),
                        shared_dependence(output_address, _BLOCK, AccessMode.OUT),
                    ),
                )
            )
            uid += 1
        regions.append(TaskRegion(tasks=tuple(tasks), name=f"wave{wave}"))
    return TaskProgram(name=name, regions=tuple(regions), metadata={"waves": num_waves})


def random_dag_program(
    num_tasks: int = 32,
    num_addresses: int = 12,
    dependences_per_task: int = 3,
    output_probability: float = 0.4,
    work_us: float = 50.0,
    seed: int = 0,
    name: Optional[str] = None,
    rng: Optional[random.Random] = None,
) -> TaskProgram:
    """A random (but reproducible) task DAG over a small set of data blocks.

    Tasks pick ``dependences_per_task`` random blocks; each is an output with
    ``output_probability`` and an input otherwise.  Because dependences are
    derived from data accesses in creation order, the resulting graph is
    always acyclic regardless of the random choices.

    All randomness comes from ``rng`` when given (``seed`` is then only a
    label in the program name/metadata) or from a private
    ``random.Random(seed)`` otherwise — never from module-level state, so
    two processes with the same arguments build identical programs.
    """
    if num_tasks < 1 or num_addresses < 1 or dependences_per_task < 0:
        raise ValueError("invalid random DAG parameters")
    rng = rng if rng is not None else random.Random(seed)
    tasks = []
    for uid in range(num_tasks):
        chosen = rng.sample(range(num_addresses), k=min(dependences_per_task, num_addresses))
        deps = []
        for block in chosen:
            address = _DAG_BASE + block * _BLOCK
            if rng.random() < output_probability:
                mode = AccessMode.OUT if rng.random() < 0.5 else AccessMode.INOUT
            else:
                mode = AccessMode.IN
            deps.append(shared_dependence(address, _BLOCK, mode))
        tasks.append(
            TaskDefinition(
                uid=uid,
                name=f"dag_{uid}",
                kind="random",
                work_us=work_us * (0.5 + rng.random()),
                dependences=tuple(deps),
            )
        )
    region = TaskRegion(tasks=tuple(tasks), name="dag.region0")
    return TaskProgram(
        name=name or f"random_dag_{seed}",
        regions=(region,),
        metadata={"seed": seed, "addresses": num_addresses},
    )
