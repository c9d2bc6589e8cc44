"""Figure 6: execution time for different task granularities.

For every benchmark whose granularity can be changed (all but Dedup and
Ferret), the paper sweeps the task granularity under the software runtime and
normalizes the execution time to the best value.  The expected shape is a
U-curve: very fine granularity inflates runtime-system overheads, very coarse
granularity hurts load balancing.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..workloads.registry import create_workload
from .campaign import RunRequest
from .common import ExperimentResult, SimulationRunner, select_benchmarks, unique_requests

#: Benchmarks swept in Figure 6 (Dedup and Ferret have a fixed granularity).
SWEEPABLE = (
    "blackscholes",
    "cholesky",
    "fluidanimate",
    "histogram",
    "lu",
    "qr",
    "streamcluster",
)

COLUMNS = ("benchmark", "granularity", "granularity_label", "time_us", "normalized_time")


def plan(
    runner: SimulationRunner,
    benchmarks: Optional[Sequence[str]] = None,
) -> list:
    """Every simulation ``run`` will request (simulated before it runs)."""
    names = [name for name in select_benchmarks(benchmarks) if name in SWEEPABLE]
    requests = []
    for name in names:
        workload = create_workload(name, scale=runner.scale)
        for option in workload.granularity_options():
            requests.append(RunRequest(name, "software", granularity=option.value))
    return unique_requests(requests)


def run(
    runner: SimulationRunner,
    scale: float,
    benchmarks: Optional[Sequence[str]] = None,
) -> ExperimentResult:
    """Reproduce Figure 6 (software runtime, FIFO scheduler)."""
    names = [name for name in select_benchmarks(benchmarks) if name in SWEEPABLE]
    result = ExperimentResult(
        experiment="figure_06",
        title="Figure 6: execution time vs task granularity (normalized to the best granularity)",
        columns=COLUMNS,
        paper_reference={
            "optimal_granularity": {
                name: create_workload(name).optimal_granularity("software") for name in SWEEPABLE
            }
        },
    )
    for name in names:
        workload = create_workload(name, scale=runner.scale)
        sweeps = []
        for option in workload.granularity_options():
            sim = runner.run(name, "software", granularity=option.value)
            sweeps.append((option, sim.microseconds))
        best = min(time_us for _, time_us in sweeps)
        for option, time_us in sweeps:
            result.add_row(
                benchmark=name,
                granularity=option.value,
                granularity_label=option.label,
                time_us=time_us,
                normalized_time=time_us / best,
            )
        best_option = min(sweeps, key=lambda pair: pair[1])[0]
        result.add_note(
            f"{name}: best granularity {best_option.label} "
            f"(paper optimum: {workload.optimal_granularity('software')})"
        )
    return result
