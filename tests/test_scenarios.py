"""Golden pins and differential determinism for the scenario subsystem.

Mirror of ``tests/test_kernel_rewrite.py`` for the curated scenario bundles
(``repro/scenarios/registry.py``):

* ``GOLDEN_SCENARIO_CSV_DIGESTS`` — SHA-256 of every bundle's CSV rows at
  ``scale=0.1``, captured when the subsystem landed.  Any change to the
  generative families, the trace importer's canonical ordering, or the
  runtime models shows up here as a digest mismatch.
* ``PINNED_SCENARIO_CYCLES`` — total cycle counts of the reader-storm
  family under each runtime model (each at its own optimal granularity).
* Differential determinism: serial vs ``jobs=2`` vs 3-shard split-and-merge
  renders are byte-identical for every bundle, and a fresh subprocess
  rebuilds every scenario workload to the identical structural digest
  (the explicit-RNG regression for ``workloads/synthetic.py``).
* Registry/docs drift: the bundle table in ``docs/scenarios.md`` must equal
  :func:`repro.scenarios.registry.scenario_table_markdown`.
"""

from __future__ import annotations

import hashlib
import pathlib
import subprocess
import sys

import pytest

from repro.experiments.common import SimulationRunner
from repro.experiments.registry import experiment_catalog, run_experiment
from repro.scenarios.registry import (
    available_scenarios,
    get_scenario,
    scenario_table_markdown,
)
from util import experiment_output, merge_and_render, run_all_shards

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

# Captured at scale=0.1 when the scenario subsystem landed.
GOLDEN_SCENARIO_CSV_DIGESTS = {
    "scenario_wide_shallow": "0dfdf1e272894a62d8e89e84a96e36747d9482c79ec7afd549beb3f1740055c1",
    "scenario_deep_chain": "c370d139d4694de437f195e16e544cd8afd0f1214dc779de86d85f742a6dafb8",
    "scenario_reader_storm": "abf7c0b735d6fb5a8d8ecf618824071198eafd0369a96c6305c30f8d503e54a4",
    "scenario_alias_conflict": "ba9d79ff0d7a7277f6a6f1da30d3d0eedd6efab7dd41365e44c385700d39543e",
    "scenario_trace_replay": "ba1146d82a24c5bdcf3a3044c884d5cf88885038a3776307ee8c612af99077e9",
}

# gen_reader_storm at scale=0.2 under the paper's default configuration,
# each runtime at its own optimal granularity (tdm/task_superscalar run
# 50 us tasks, software/carbon 100 us tasks — hence the distinct totals).
PINNED_SCENARIO_CYCLES = {
    "carbon": 939_524,
    "software": 966_254,
    "task_superscalar": 400_951,
    "tdm": 509_311,
}
PINNED_SCENARIO_TASKS = 42

ALL_WORKLOADS = (
    "gen_wide_shallow",
    "gen_deep_chain",
    "gen_reader_storm",
    "gen_alias_conflict",
    "gen_phased",
    "trace_diamond",
    "trace_mapreduce",
)

#: The differential suite runs every bundle at this scale (small but not
#: degenerate: each generative family still has multiple layers/waves).
SCALE = 0.05


def _run_pinned(runtime: str):
    from repro.config import default_paper_config
    from repro.sim.machine import run_simulation
    from repro.workloads.registry import create_workload

    workload_runtime = "tdm" if runtime in ("tdm", "task_superscalar") else "software"
    workload = create_workload("gen_reader_storm", scale=0.2, runtime=workload_runtime)
    return run_simulation(workload.build_program(), default_paper_config(runtime))


class TestRegistry:
    def test_five_bundles_registered(self):
        assert available_scenarios() == [
            "wide_shallow",
            "deep_chain",
            "reader_storm",
            "alias_conflict",
            "trace_replay",
        ]
        catalog = [e for e in experiment_catalog() if e["kind"] == "scenario"]
        assert [e["name"] for e in catalog] == list(GOLDEN_SCENARIO_CSV_DIGESTS)
        assert all(e["simulates"] for e in catalog)

    def test_scenario_aliases_resolve(self):
        from repro.experiments.registry import canonical_name

        for name in available_scenarios():
            assert canonical_name(name) == f"scenario_{name}"
            assert canonical_name(f"scenario_{name}") == f"scenario_{name}"

    def test_get_scenario_accepts_both_spellings(self):
        assert get_scenario("reader_storm") is get_scenario("scenario_reader_storm")

    def test_docs_table_in_sync(self):
        """The bundle table in docs/scenarios.md matches the registry."""
        page = (REPO_ROOT / "docs" / "scenarios.md").read_text(encoding="utf-8")
        start = page.index("<!-- SCENARIO-TABLE-START -->")
        end = page.index("<!-- SCENARIO-TABLE-END -->")
        embedded = page[start:end].split("-->", 1)[1].strip() + "\n"
        assert embedded == scenario_table_markdown(), (
            "docs/scenarios.md bundle table drifted from the scenario "
            "registry; paste the output of scenario_table_markdown()"
        )


class TestGoldenDigests:
    @pytest.fixture(scope="class")
    def runner(self):
        return SimulationRunner(scale=0.1)

    @pytest.mark.parametrize("experiment", sorted(GOLDEN_SCENARIO_CSV_DIGESTS))
    def test_csv_rows_byte_identical(self, experiment, runner):
        result = run_experiment(experiment, scale=0.1, runner=runner)
        digest = hashlib.sha256(result.to_csv().encode("utf-8")).hexdigest()
        assert digest == GOLDEN_SCENARIO_CSV_DIGESTS[experiment], (
            f"{experiment}: CSV rows diverged from the pinned scenario goldens"
        )


class TestPinnedCycles:
    @pytest.mark.parametrize("runtime", sorted(PINNED_SCENARIO_CYCLES))
    def test_total_cycles_unchanged(self, runtime):
        result = _run_pinned(runtime)
        assert result.total_cycles == PINNED_SCENARIO_CYCLES[runtime]
        assert result.num_tasks_executed == PINNED_SCENARIO_TASKS


class TestDifferentialDeterminism:
    """Serial, parallel and sharded scenario renders are byte-identical."""

    @pytest.fixture(scope="class")
    def serial_outputs(self):
        runner = SimulationRunner(scale=SCALE)
        return {
            name: experiment_output(name, SCALE, runner=runner)
            for name in GOLDEN_SCENARIO_CSV_DIGESTS
        }

    @pytest.mark.parametrize("experiment", sorted(GOLDEN_SCENARIO_CSV_DIGESTS))
    def test_jobs2_matches_serial(self, experiment, serial_outputs):
        runner = SimulationRunner(scale=SCALE, jobs=2)
        assert experiment_output(experiment, SCALE, runner=runner) == serial_outputs[
            experiment
        ]

    @pytest.mark.parametrize("experiment", sorted(GOLDEN_SCENARIO_CSV_DIGESTS))
    def test_three_shard_merge_matches_serial(self, experiment, serial_outputs, tmp_path):
        manifests = run_all_shards(experiment, SCALE, None, tmp_path, count=3)
        assert sum(m.simulated for m in manifests) > 0
        csv, markdown, merge_runner = merge_and_render(
            experiment, SCALE, None, tmp_path, count=3
        )
        assert (csv, markdown) == serial_outputs[experiment]
        assert merge_runner.cache_info()["simulations_run"] == 0


class TestCrossProcessDeterminism:
    """Same seed ⇒ same structural digest, in a *fresh* interpreter.

    The regression test for the explicit-RNG rule in
    ``workloads/synthetic.py`` / ``scenarios/generative.py``: no generative
    path may consult module-level ``random`` state (or anything else that
    varies across processes, like hash randomization).
    """

    def _digests(self):
        script = (
            "import json\n"
            "from repro.workloads.registry import create_workload\n"
            "from repro.scenarios.trace import program_digest\n"
            f"names = {list(ALL_WORKLOADS)!r}\n"
            "out = {}\n"
            "for name in names:\n"
            "    for seed in (0, 7):\n"
            "        program = create_workload(name, scale=0.1, seed=seed).build_program()\n"
            "        out[f'{name}/{seed}'] = program_digest(program)\n"
            "print(json.dumps(out))\n"
        )
        import json
        import os

        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
        # Distinct PYTHONHASHSEED values so accidental reliance on hash
        # ordering cannot produce a coincidental pass.
        results = []
        for hash_seed in ("1", "2"):
            env["PYTHONHASHSEED"] = hash_seed
            output = subprocess.run(
                [sys.executable, "-c", script],
                check=True,
                capture_output=True,
                text=True,
                env=env,
            ).stdout
            results.append(json.loads(output))
        return results

    def test_same_seed_same_digest_across_processes(self):
        first, second = self._digests()
        assert first == second
        # Different seeds must actually change the generative programs.
        for name in ("gen_reader_storm", "gen_alias_conflict", "gen_phased"):
            assert first[f"{name}/0"] != first[f"{name}/7"]
        # Trace replay ignores the seed entirely (the graph is the file).
        for name in ("trace_diamond", "trace_mapreduce"):
            assert first[f"{name}/0"] == first[f"{name}/7"]
