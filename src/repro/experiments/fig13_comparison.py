"""Figure 13: comparison against Carbon and Task Superscalar.

Speedup (top) and normalized EDP (bottom) of Carbon (hardware scheduling,
software dependence management), Task Superscalar (everything in hardware,
fixed FIFO scheduling) and TDM with the best software scheduler per
benchmark, all normalized to the software runtime with a FIFO scheduler.

Headline numbers from the paper: Carbon achieves a modest 1.9% average
speedup (5.1% EDP reduction), Task Superscalar 8.1% (14.1% EDP reduction) and
TDM 12.3% (20.4% EDP reduction); in Dedup, where the scheduling policy is
decisive, TDM gains 23.1% while Carbon and Task Superscalar stay below 7.5%.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from .campaign import RunRequest
from .common import (
    ExperimentResult,
    SCHEDULERS,
    SimulationRunner,
    select_benchmarks,
    unique_requests,
)

COLUMNS = ("benchmark", "configuration", "speedup", "normalized_edp")

PAPER_AVERAGES = {
    "carbon_speedup": 1.019,
    "task_superscalar_speedup": 1.081,
    "opt_tdm_speedup": 1.123,
    "carbon_edp_reduction": 0.051,
    "task_superscalar_edp_reduction": 0.141,
    "opt_tdm_edp_reduction": 0.204,
}


def plan(
    runner: SimulationRunner,
    benchmarks: Optional[Sequence[str]] = None,
    schedulers: Sequence[str] = SCHEDULERS,
) -> list:
    """Every simulation ``run`` will request (simulated before it runs)."""
    requests = []
    for name in select_benchmarks(benchmarks):
        requests.append(RunRequest(name, "software"))
        requests.append(RunRequest(name, "carbon"))
        requests.append(RunRequest(name, "task_superscalar"))
        for scheduler in schedulers:
            requests.append(RunRequest(name, "tdm", scheduler))
    return unique_requests(requests)


def run(
    runner: SimulationRunner,
    benchmarks: Optional[Sequence[str]] = None,
    schedulers: Sequence[str] = SCHEDULERS,
) -> ExperimentResult:
    """Reproduce Figure 13 (Carbon vs Task Superscalar vs OptTDM)."""
    names = select_benchmarks(benchmarks)
    result = ExperimentResult(
        experiment="figure_13",
        title="Figure 13: speedup and EDP of Carbon, Task Superscalar and TDM over the software runtime",
        columns=COLUMNS,
        paper_reference=PAPER_AVERAGES,
    )
    speedups: Dict[str, list] = {}
    edps: Dict[str, list] = {}

    def record(benchmark: str, configuration: str, speedup: float, edp: float) -> None:
        result.add_row(
            benchmark=benchmark, configuration=configuration, speedup=speedup, normalized_edp=edp
        )
        speedups.setdefault(configuration, []).append(speedup)
        edps.setdefault(configuration, []).append(edp)

    for name in names:
        baseline = runner.software_baseline(name)
        carbon = runner.run(name, "carbon")
        record(name, "Carbon", carbon.speedup_over(baseline), carbon.normalized_edp(baseline))
        tss = runner.run(name, "task_superscalar")
        record(
            name,
            "TaskSuperscalar",
            tss.speedup_over(baseline),
            tss.normalized_edp(baseline),
        )
        tdm_runs = {scheduler: runner.run(name, "tdm", scheduler) for scheduler in schedulers}
        best = min(tdm_runs, key=lambda s: tdm_runs[s].total_cycles)
        opt_tdm = tdm_runs[best]
        record(name, "OptTDM", opt_tdm.speedup_over(baseline), opt_tdm.normalized_edp(baseline))
        result.add_note(f"{name}: OptTDM scheduler = {best}")

    for configuration in list(speedups):
        result.add_row(
            benchmark="AVG",
            configuration=configuration,
            speedup=runner.geomean(speedups[configuration]),
            normalized_edp=runner.geomean(edps[configuration]),
        )
    for configuration, paper_key in (
        ("Carbon", "carbon_speedup"),
        ("TaskSuperscalar", "task_superscalar_speedup"),
        ("OptTDM", "opt_tdm_speedup"),
    ):
        if configuration in speedups:
            result.add_note(
                f"{configuration} average speedup {runner.geomean(speedups[configuration]):.3f} "
                f"(paper {PAPER_AVERAGES[paper_key]:.3f})"
            )
    return result
