"""Figure 2: execution-time breakdown of the software runtime.

The paper characterizes the pure-software runtime on 32 cores by breaking
the time of the master thread and of the worker threads into DEPS (task
creation + dependence management), SCHED, EXEC and IDLE.  The headline
observations this experiment should reproduce:

* the master thread of Cholesky, QR and Streamcluster spends a large share of
  its time in DEPS (84%, 92% and 40% in the paper),
* worker threads spend on average about 65% of their time executing tasks and
  about 32% idle,
* scheduling time is small everywhere (below 11%).
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..sim.timeline import Phase
from .campaign import RunRequest
from .common import ExperimentResult, SimulationRunner, select_benchmarks, unique_requests

PAPER_MASTER_DEPS = {"cholesky": 0.84, "qr": 0.92, "streamcluster": 0.40}
PAPER_WORKER_AVERAGES = {"EXEC": 0.65, "IDLE": 0.32}

COLUMNS = (
    "benchmark",
    "master_DEPS",
    "master_SCHED",
    "master_EXEC",
    "master_IDLE",
    "worker_DEPS",
    "worker_SCHED",
    "worker_EXEC",
    "worker_IDLE",
)


def plan(
    runner: SimulationRunner,
    benchmarks: Optional[Sequence[str]] = None,
) -> list:
    """Every simulation ``run`` will request (simulated before it runs)."""
    return unique_requests(RunRequest(name, "software") for name in select_benchmarks(benchmarks))


def run(
    runner: SimulationRunner,
    benchmarks: Optional[Sequence[str]] = None,
) -> ExperimentResult:
    """Reproduce Figure 2 (software runtime, FIFO scheduler, 32 cores)."""
    names = select_benchmarks(benchmarks)
    result = ExperimentResult(
        experiment="figure_02",
        title="Figure 2: execution time breakdown of master and worker threads (software runtime)",
        columns=COLUMNS,
        paper_reference={
            "master_deps": PAPER_MASTER_DEPS,
            "worker_averages": PAPER_WORKER_AVERAGES,
        },
    )
    worker_exec = []
    worker_idle = []
    for name in names:
        sim = runner.software_baseline(name)
        master = sim.master_breakdown()
        worker = sim.worker_breakdown()
        result.add_row(
            benchmark=name,
            master_DEPS=master[Phase.DEPS],
            master_SCHED=master[Phase.SCHED],
            master_EXEC=master[Phase.EXEC],
            master_IDLE=master[Phase.IDLE],
            worker_DEPS=worker[Phase.DEPS],
            worker_SCHED=worker[Phase.SCHED],
            worker_EXEC=worker[Phase.EXEC],
            worker_IDLE=worker[Phase.IDLE],
        )
        worker_exec.append(worker[Phase.EXEC])
        worker_idle.append(worker[Phase.IDLE])
    if worker_exec:
        result.add_note(
            f"Average worker EXEC fraction: {sum(worker_exec) / len(worker_exec):.2f} "
            f"(paper: {PAPER_WORKER_AVERAGES['EXEC']:.2f})"
        )
        result.add_note(
            f"Average worker IDLE fraction: {sum(worker_idle) / len(worker_idle):.2f} "
            f"(paper: {PAPER_WORKER_AVERAGES['IDLE']:.2f})"
        )
    for name, paper_value in PAPER_MASTER_DEPS.items():
        if name in names:
            measured = result.row_for(benchmark=name)["master_DEPS"]
            result.add_note(
                f"{name} master DEPS: measured {measured:.2f}, paper {paper_value:.2f}"
            )
    return result
