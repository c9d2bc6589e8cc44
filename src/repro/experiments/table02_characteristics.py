"""Table II: benchmark characteristics.

Number of tasks and average task duration of every benchmark at the optimal
granularity of the software runtime and of TDM, compared against the values
the paper reports.  This experiment does not simulate anything — it checks
that the workload generators reproduce the published workload shapes.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..workloads.registry import PAPER_TABLE2
from .campaign import workload_characteristics
from .common import ExperimentResult, select_benchmarks

COLUMNS = (
    "benchmark",
    "sw_tasks",
    "paper_sw_tasks",
    "sw_duration_us",
    "paper_sw_duration_us",
    "tdm_tasks",
    "paper_tdm_tasks",
    "tdm_duration_us",
    "paper_tdm_duration_us",
)


def run(
    runner: object,
    scale: float,
    benchmarks: Optional[Sequence[str]] = None,
) -> ExperimentResult:
    """Reproduce Table II (task counts and average durations)."""
    names = select_benchmarks(benchmarks)
    result = ExperimentResult(
        experiment="table_02",
        title="Table II: number of tasks and average task duration per benchmark",
        columns=COLUMNS,
        paper_reference={name: vars(row) for name, row in PAPER_TABLE2.items()},
    )
    if scale != 1.0:
        result.add_note(
            f"Generated at scale={scale}; paper numbers correspond to scale=1.0."
        )
    sw_counts = []
    sw_durations = []
    for name in names:
        paper = PAPER_TABLE2[name]
        sw = workload_characteristics(name, scale, None, "software", 0)
        tdm = workload_characteristics(name, scale, None, "tdm", 0)
        result.add_row(
            benchmark=name,
            sw_tasks=sw["num_tasks"],
            paper_sw_tasks=paper.sw_tasks,
            sw_duration_us=sw["average_task_us"],
            paper_sw_duration_us=paper.sw_duration_us,
            tdm_tasks=tdm["num_tasks"],
            paper_tdm_tasks=paper.tdm_tasks,
            tdm_duration_us=tdm["average_task_us"],
            paper_tdm_duration_us=paper.tdm_duration_us,
        )
        sw_counts.append(sw["num_tasks"])
        sw_durations.append(sw["average_task_us"])
    if sw_counts and scale == 1.0:
        result.add_note(
            f"Average generated task count {sum(sw_counts) / len(sw_counts):.0f} "
            f"(paper average 6584), average duration "
            f"{sum(sw_durations) / len(sw_durations):.0f} us (paper average 4976 us)."
        )
    return result
