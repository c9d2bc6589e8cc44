"""Figure 10: time spent in task creation, software runtime vs TDM.

The paper measures the share of time the master thread spends creating tasks
and managing their dependences (the DEPS category of Figure 2) with the pure
software runtime and with TDM.  Expected headline numbers: task creation time
drops from 31.0% to 14.5% of the CPU time on average (up to 5.2x reduction in
Blackscholes), and the idle time of the whole execution drops from 32% to 22%.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .campaign import RunRequest
from .common import ExperimentResult, SimulationRunner, select_benchmarks, unique_requests

COLUMNS = (
    "benchmark",
    "sw_creation_fraction",
    "tdm_creation_fraction",
    "reduction_factor",
    "sw_idle_fraction",
    "tdm_idle_fraction",
)

PAPER_AVERAGES = {
    "sw_creation_fraction": 0.310,
    "tdm_creation_fraction": 0.145,
    "sw_idle_fraction": 0.32,
    "tdm_idle_fraction": 0.22,
    "max_reduction": ("blackscholes", 5.2),
}


def plan(
    runner: SimulationRunner,
    benchmarks: Optional[Sequence[str]] = None,
) -> list:
    """Every simulation ``run`` will request (simulated before it runs)."""
    requests = []
    for name in select_benchmarks(benchmarks):
        requests.append(RunRequest(name, "software"))
        requests.append(RunRequest(name, "tdm", "fifo"))
    return unique_requests(requests)


def run(
    runner: SimulationRunner,
    scale: float,
    benchmarks: Optional[Sequence[str]] = None,
) -> ExperimentResult:
    """Reproduce Figure 10 (FIFO scheduler under both runtimes)."""
    names = select_benchmarks(benchmarks)
    result = ExperimentResult(
        experiment="figure_10",
        title="Figure 10: percentage of time spent in task creation (software vs TDM)",
        columns=COLUMNS,
        paper_reference=PAPER_AVERAGES,
    )
    sw_fracs = []
    tdm_fracs = []
    sw_idles = []
    tdm_idles = []
    for name in names:
        sw = runner.software_baseline(name)
        tdm = runner.run(name, "tdm", "fifo")
        sw_frac = sw.master_creation_fraction
        tdm_frac = tdm.master_creation_fraction
        reduction = sw_frac / tdm_frac if tdm_frac > 0 else float("inf")
        result.add_row(
            benchmark=name,
            sw_creation_fraction=sw_frac,
            tdm_creation_fraction=tdm_frac,
            reduction_factor=reduction,
            sw_idle_fraction=sw.idle_fraction,
            tdm_idle_fraction=tdm.idle_fraction,
        )
        sw_fracs.append(sw_frac)
        tdm_fracs.append(tdm_frac)
        sw_idles.append(sw.idle_fraction)
        tdm_idles.append(tdm.idle_fraction)
    if sw_fracs:
        result.add_note(
            f"Average task-creation fraction: software {sum(sw_fracs) / len(sw_fracs):.3f} "
            f"(paper 0.310), TDM {sum(tdm_fracs) / len(tdm_fracs):.3f} (paper 0.145)"
        )
        result.add_note(
            f"Average idle fraction: software {sum(sw_idles) / len(sw_idles):.3f} (paper 0.32), "
            f"TDM {sum(tdm_idles) / len(tdm_idles):.3f} (paper 0.22)"
        )
    return result
