"""Reproducibility of the workload generators, and pins on a synthetic DAG.

* Cross-process determinism: every paper benchmark and the random-DAG
  generator build the identical program in two fresh interpreters started
  with different ``PYTHONHASHSEED`` values.  This is the regression test
  for the explicit-RNG rule in ``workloads/``: no generator may consult
  module-level ``random`` state or anything else that varies across
  processes, such as hash-randomized set order.
* Seeds only jitter durations: for every benchmark, a different seed
  changes task durations but not a single task, dependence or region.
* ``random_dag_program`` laws (hypothesis): edges follow creation order,
  ``seed=`` and an explicit ``rng=`` build the same graph, and every task
  touches the requested number of distinct blocks.
* Pinned cycles of one alias-heavy random DAG (64 tasks over four data
  blocks, mostly readers) under each runtime model on the paper's
  default chip.
"""

from __future__ import annotations

import json
import os
import pathlib
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.graph import task_graph_edges
from repro.config import default_paper_config
from repro.sim.machine import run_simulation
from repro.workloads.registry import PAPER_BENCHMARKS, create_workload
from repro.workloads.synthetic import chain_program, fork_join_program, random_dag_program

from tests.util import program_digest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: The scale at which the cross-process and seed checks build programs.
SCALE = 0.1

#: Cycle totals of ``_storm_program()`` under ``default_paper_config``.
PINNED_DAG_CYCLES = {
    "carbon": 1_778_750,
    "software": 1_849_574,
    "task_superscalar": 1_711_554,
    "tdm": 1_798_173,
}
PINNED_DAG_TASKS = 64

_DIGEST_SCRIPT = f"""
import json
from repro.workloads.registry import PAPER_BENCHMARKS, create_workload
from repro.workloads.synthetic import random_dag_program
from tests.util import program_digest

out = {{}}
for seed in (0, 7):
    for name in PAPER_BENCHMARKS:
        for runtime in ("software", "tdm"):
            program = create_workload(
                name, scale={SCALE}, runtime=runtime, seed=seed
            ).build_program()
            out[f"{{name}}/{{runtime}}/{{seed}}"] = program_digest(program)
    out[f"random_dag/{{seed}}"] = program_digest(random_dag_program(num_tasks=50, seed=seed))
print(json.dumps(out))
"""


def _storm_program():
    return random_dag_program(
        num_tasks=64,
        num_addresses=4,
        dependences_per_task=2,
        output_probability=0.15,
        work_us=40.0,
        seed=5,
    )


@pytest.fixture(scope="module")
def process_digests():
    """Program digests from two fresh interpreters with distinct hash seeds."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), str(REPO_ROOT), env.get("PYTHONPATH", "")]
    )
    results = []
    for hash_seed in ("1", "2"):
        env["PYTHONHASHSEED"] = hash_seed
        output = subprocess.run(
            [sys.executable, "-c", _DIGEST_SCRIPT],
            check=True,
            capture_output=True,
            text=True,
            env=env,
            cwd=REPO_ROOT,
            timeout=300,
        ).stdout
        results.append(json.loads(output))
    return results


class TestCrossProcessDeterminism:
    @pytest.mark.parametrize("benchmark_name", PAPER_BENCHMARKS)
    def test_benchmark_builds_identically_in_fresh_processes(
        self, benchmark_name, process_digests
    ):
        first, second = process_digests
        keys = [key for key in first if key.startswith(f"{benchmark_name}/")]
        assert len(keys) == 4
        assert {key: first[key] for key in keys} == {key: second[key] for key in keys}
        # ... and to the program this process builds.
        workload = create_workload(benchmark_name, scale=SCALE, runtime="tdm", seed=7)
        program = workload.build_program()
        assert first[f"{benchmark_name}/tdm/7"] == program_digest(program)

    def test_random_dag_builds_identically_in_fresh_processes(self, process_digests):
        first, second = process_digests
        for seed in (0, 7):
            assert first[f"random_dag/{seed}"] == second[f"random_dag/{seed}"]
        assert first["random_dag/0"] != first["random_dag/7"]


class TestSeedsJitterDurationsOnly:
    @pytest.mark.parametrize("benchmark_name", PAPER_BENCHMARKS)
    def test_seed_changes_durations_not_structure(self, benchmark_name):
        first = create_workload(benchmark_name, scale=SCALE, seed=0).build_program()
        second = create_workload(benchmark_name, scale=SCALE, seed=7).build_program()
        assert program_digest(first, work=False) == program_digest(second, work=False)
        assert program_digest(first) != program_digest(second)
        assert first.metadata == second.metadata


class TestRandomDagLaws:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        num_tasks=st.integers(min_value=1, max_value=40),
        num_addresses=st.integers(min_value=1, max_value=10),
        dependences_per_task=st.integers(min_value=0, max_value=4),
    )
    def test_edges_follow_creation_order(
        self, seed, num_tasks, num_addresses, dependences_per_task
    ):
        program = random_dag_program(
            num_tasks=num_tasks,
            num_addresses=num_addresses,
            dependences_per_task=dependences_per_task,
            seed=seed,
        )
        assert [task.uid for task in program.all_tasks()] == list(range(num_tasks))
        assert all(before < after for before, after in task_graph_edges(program))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_seed_and_explicit_rng_build_the_same_program(self, seed):
        from_seed = random_dag_program(num_tasks=24, seed=seed)
        from_rng = random_dag_program(num_tasks=24, seed=seed, rng=random.Random(seed))
        assert program_digest(from_rng) == program_digest(from_seed)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        num_addresses=st.integers(min_value=1, max_value=8),
        dependences_per_task=st.integers(min_value=0, max_value=6),
        work_us=st.floats(min_value=1.0, max_value=1e4, allow_nan=False),
    )
    def test_each_task_touches_distinct_blocks(
        self, seed, num_addresses, dependences_per_task, work_us
    ):
        program = random_dag_program(
            num_tasks=12,
            num_addresses=num_addresses,
            dependences_per_task=dependences_per_task,
            work_us=work_us,
            seed=seed,
        )
        expected = min(dependences_per_task, num_addresses)
        for task in program.all_tasks():
            addresses = [dependence.address for dependence in task.dependences]
            assert len(addresses) == len(set(addresses)) == expected
            assert 0.5 * work_us <= task.work_us <= 1.5 * work_us


class TestSyntheticParameterValidation:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: random_dag_program(num_addresses=0),
            lambda: random_dag_program(dependences_per_task=-1),
            lambda: chain_program(num_chains=0),
            lambda: chain_program(chain_length=0),
            lambda: fork_join_program(num_waves=0),
            lambda: fork_join_program(tasks_per_wave=0),
        ],
        ids=[
            "dag_addresses",
            "dag_dependences",
            "chain_count",
            "chain_length",
            "fork_waves",
            "fork_width",
        ],
    )
    def test_degenerate_shape_rejected(self, build):
        with pytest.raises(ValueError):
            build()


class TestPinnedDagCycles:
    @pytest.mark.parametrize("runtime", sorted(PINNED_DAG_CYCLES))
    def test_total_cycles_unchanged(self, runtime):
        result = run_simulation(_storm_program(), default_paper_config(runtime))
        assert result.total_cycles == PINNED_DAG_CYCLES[runtime]
        assert result.num_tasks_executed == PINNED_DAG_TASKS
