"""Curated scenario bundles: named workload × runtime sweeps with goldens.

A :class:`Scenario` names a reproducible bundle — which workloads to run,
under which runtimes and schedulers — and the registry turns each bundle
into a first-class experiment (``scenario_<name>``) registered alongside
the paper's figures/tables.  That single wiring point is what buys every
scenario the whole campaign stack for free: canonical run keys, the disk
cache, ``--jobs`` fan-out, shard planning/merging and the results daemon
all operate on experiment names and plans, never on what the experiment
means.

Each bundle has pinned golden CSV digests and per-runtime cycle counts in
``tests/test_scenarios.py`` (same contract as ``GOLDEN_CSV_DIGESTS`` /
``PINNED_RUNTIME_CYCLES`` for the paper experiments), and the scenario
table in ``docs/scenarios.md`` is drift-tested against
:func:`scenario_catalog`.

This module is imported lazily by :mod:`repro.experiments.registry` (its
``_ensure_scenarios`` hook) — never import it from
:mod:`repro.scenarios.__init__`, or the experiments registry and this one
would import each other eagerly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import ExperimentError
from ..experiments.campaign import RunRequest
from ..experiments.common import (
    BASELINE_SCHEDULER,
    ExperimentResult,
    SimulationRunner,
    unique_requests,
)
from .generative import register_builtin_workloads

#: Canonical experiment-name prefix of every scenario bundle.
SCENARIO_EXPERIMENT_PREFIX = "scenario_"

#: All four runtime models, in the paper's comparison order.
ALL_RUNTIMES = ("software", "carbon", "tdm", "task_superscalar")

#: Result columns of every scenario experiment.
COLUMNS = ("workload", "runtime", "scheduler", "total_cycles", "tasks", "speedup")


@dataclass(frozen=True)
class Scenario:
    """One named, curated bundle of workload × runtime × scheduler runs."""

    name: str
    title: str
    description: str
    workloads: Tuple[str, ...]
    runtimes: Tuple[str, ...] = ALL_RUNTIMES
    schedulers: Tuple[str, ...] = (BASELINE_SCHEDULER,)

    @property
    def experiment(self) -> str:
        """The canonical experiment name this scenario registers under."""
        return SCENARIO_EXPERIMENT_PREFIX + self.name


_SCENARIOS: Dict[str, Scenario] = {
    scenario.name: scenario
    for scenario in (
        Scenario(
            name="wide_shallow",
            title="Wide-shallow fan-out",
            description=(
                "Waves of ~96 independent tasks per barrier plus a phased "
                "mixed-skew DAG; stresses task-creation rate and barrier "
                "drain/refill, the Figure 10 regime taken to extremes."
            ),
            workloads=("gen_wide_shallow", "gen_phased"),
        ),
        Scenario(
            name="deep_chain",
            title="Deep dependence chains",
            description=(
                "A few ~48-deep inout chains with almost no parallelism; "
                "every task finish wakes exactly one successor, isolating "
                "the wake-up/notification path of each runtime."
            ),
            workloads=("gen_deep_chain",),
        ),
        Scenario(
            name="reader_storm",
            title="Reader storm on SLA/DLA",
            description=(
                "Heavily skewed reads (skew 0.9) pile almost every task "
                "onto a few hot blocks with occasional writers, forcing "
                "reader/dependence lists far longer than any paper "
                "benchmark produces."
            ),
            workloads=("gen_reader_storm",),
        ),
        Scenario(
            name="alias_conflict",
            title="Alias-conflict heavy",
            description=(
                "Data blocks spaced to collide in the TAT/DAT index "
                "function; stresses associativity and the alias-table "
                "path under sustained set conflicts."
            ),
            workloads=("gen_alias_conflict",),
        ),
        Scenario(
            name="trace_replay",
            title="Trace-replay fixtures",
            description=(
                "The bundled JSON trace fixtures (pure-'after' diamond and "
                "a map/shuffle/reduce pipeline) replayed through all four "
                "runtimes; proves imported DAGs are first-class workloads."
            ),
            workloads=("trace_diamond", "trace_mapreduce"),
        ),
    )
}


def available_scenarios() -> List[str]:
    """Names of every curated scenario bundle, in registry order."""
    return list(_SCENARIOS)


def get_scenario(name: str) -> Scenario:
    """Look up one scenario by bundle name (without the experiment prefix)."""
    key = name.lower()
    if key.startswith(SCENARIO_EXPERIMENT_PREFIX):
        key = key[len(SCENARIO_EXPERIMENT_PREFIX):]
    scenario = _SCENARIOS.get(key)
    if scenario is None:
        raise ExperimentError(
            f"unknown scenario {name!r}; available: {', '.join(available_scenarios())}"
        )
    return scenario


def scenario_catalog() -> List[Dict[str, object]]:
    """Machine-readable description of every bundle (docs drift-test source)."""
    return [
        {
            "name": scenario.name,
            "experiment": scenario.experiment,
            "title": scenario.title,
            "description": scenario.description,
            "workloads": list(scenario.workloads),
            "runtimes": list(scenario.runtimes),
            "schedulers": list(scenario.schedulers),
        }
        for scenario in _SCENARIOS.values()
    ]


def scenario_table_markdown() -> str:
    """The Markdown bundle table embedded in ``docs/scenarios.md``.

    The docs page carries this table between ``SCENARIO-TABLE`` markers and
    ``tests/test_scenarios.py`` regenerates it from here, so registry and
    documentation cannot drift apart.
    """
    lines = [
        "| scenario | experiment | title | workloads | runtimes |",
        "| --- | --- | --- | --- | --- |",
    ]
    for scenario in _SCENARIOS.values():
        lines.append(
            "| {name} | `{experiment}` | {title} | {workloads} | {runtimes} |".format(
                name=scenario.name,
                experiment=scenario.experiment,
                title=scenario.title,
                workloads=", ".join(f"`{w}`" for w in scenario.workloads),
                runtimes=len(scenario.runtimes),
            )
        )
    return "\n".join(lines) + "\n"


def _select_workloads(scenario: Scenario, benchmarks: Optional[Sequence[str]]) -> List[str]:
    """The bundle's workloads, optionally narrowed by a ``benchmarks`` subset."""
    if benchmarks is None:
        return list(scenario.workloads)
    unknown = [name for name in benchmarks if name not in scenario.workloads]
    if unknown:
        raise ExperimentError(
            f"scenario {scenario.name!r} has no workload(s) {', '.join(unknown)}; "
            f"it bundles: {', '.join(scenario.workloads)}"
        )
    return [name for name in scenario.workloads if name in benchmarks]


def plan_scenario(
    scenario: Scenario,
    runner: SimulationRunner,
    benchmarks: Optional[Sequence[str]] = None,
) -> List[RunRequest]:
    """Every simulation :func:`run_scenario` will request (simulated first)."""
    requests = []
    for workload in _select_workloads(scenario, benchmarks):
        requests.append(RunRequest(workload, "software"))
        for runtime in scenario.runtimes:
            for scheduler in scenario.schedulers:
                requests.append(RunRequest(workload, runtime, scheduler))
    return unique_requests(requests)


def run_scenario(
    scenario: Scenario,
    runner: SimulationRunner,
    benchmarks: Optional[Sequence[str]] = None,
) -> ExperimentResult:
    """Run one bundle: every workload under every runtime × scheduler.

    Speedups are normalized per workload to the software-runtime FIFO
    baseline, exactly like the paper's figures.
    """
    register_builtin_workloads()
    result = ExperimentResult(
        experiment=scenario.experiment,
        title=f"Scenario {scenario.name}: {scenario.title}",
        columns=COLUMNS,
    )
    for workload in _select_workloads(scenario, benchmarks):
        baseline = runner.run(workload, "software", BASELINE_SCHEDULER)
        for runtime in scenario.runtimes:
            for scheduler in scenario.schedulers:
                sim = runner.run(workload, runtime, scheduler)
                result.add_row(
                    workload=workload,
                    runtime=runtime,
                    scheduler=scheduler,
                    total_cycles=sim.total_cycles,
                    tasks=sim.num_tasks_executed,
                    speedup=sim.speedup_over(baseline),
                )
        result.add_note(
            f"{workload}: baseline software/{BASELINE_SCHEDULER} "
            f"{baseline.total_cycles} cycles over {baseline.num_tasks_executed} tasks"
        )
    result.add_note(scenario.description)
    return result


def _make_run(scenario: Scenario) -> Callable[..., ExperimentResult]:
    def run(
        runner: SimulationRunner,
        scale: float,
        benchmarks: Optional[Sequence[str]] = None,
    ) -> ExperimentResult:
        return run_scenario(scenario, runner, benchmarks=benchmarks)

    run.__name__ = f"run_{scenario.experiment}"
    return run


def _make_plan(scenario: Scenario) -> Callable[..., List[RunRequest]]:
    def plan(
        runner: SimulationRunner,
        benchmarks: Optional[Sequence[str]] = None,
    ) -> List[RunRequest]:
        register_builtin_workloads()
        return plan_scenario(scenario, runner, benchmarks=benchmarks)

    plan.__name__ = f"plan_{scenario.experiment}"
    return plan


def register_scenario_experiments(
    register: Callable[..., None],
) -> None:
    """Install every bundle as an experiment via the given ``register`` hook.

    ``register`` is :func:`repro.experiments.registry.register_experiment`;
    taking it as an argument keeps this module import-safe (the experiments
    registry imports *us* lazily, we never import it).  Also installs the
    scenario workloads so planning works immediately.
    """
    register_builtin_workloads()
    for scenario in _SCENARIOS.values():
        register(
            scenario.experiment,
            _make_run(scenario),
            plan=_make_plan(scenario),
            title=f"Scenario {scenario.name}: {scenario.title}",
            aliases=(scenario.name,),
            kind="scenario",
            replace=True,
        )
