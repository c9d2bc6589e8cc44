"""Figure 12: flexible scheduling with TDM — speedup and EDP.

For every benchmark the paper reports, normalized to the software runtime
with a FIFO scheduler:

* OptSW — the best of the five software schedulers on the software runtime,
* FIFO / LIFO / Locality / Successor / Age combined with TDM,
* OptTDM — the best scheduler per benchmark combined with TDM,

both as speedup (top chart) and as normalized EDP (bottom chart).  Headline
numbers: OptSW improves performance by 4.5% on average and reduces EDP by up
to 8.9%; OptTDM improves performance by 12.2–12.3% and reduces EDP by about
20.3–20.4%; the best TDM scheduler differs across benchmarks.
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
    "OptSW_speedup": 1.045,
    "Age+TDM_speedup": 1.091,
    "OptTDM_speedup": 1.122,
    "OptTDM_edp_reduction": 0.203,
    "blackscholes_lifo_degradation": 0.293,
    "dedup_best_improvement": 0.232,
    "cholesky_locality_vs_fifo": 0.042,
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
        for scheduler in schedulers:
            requests.append(RunRequest(name, "software", scheduler))
            requests.append(RunRequest(name, "tdm", scheduler))
    return unique_requests(requests)


def run(
    runner: SimulationRunner,
    scale: float,
    benchmarks: Optional[Sequence[str]] = None,
    schedulers: Sequence[str] = SCHEDULERS,
) -> ExperimentResult:
    """Reproduce Figure 12 (speedup and EDP of software schedulers with TDM)."""
    names = select_benchmarks(benchmarks)
    result = ExperimentResult(
        experiment="figure_12",
        title="Figure 12: speedup and EDP of software schedulers on the software runtime and TDM",
        columns=COLUMNS,
        paper_reference=PAPER_AVERAGES,
    )

    speedups_by_config: Dict[str, list] = {}
    edp_by_config: Dict[str, list] = {}

    def record(benchmark: str, configuration: str, speedup: float, edp: float) -> None:
        result.add_row(
            benchmark=benchmark,
            configuration=configuration,
            speedup=speedup,
            normalized_edp=edp,
        )
        speedups_by_config.setdefault(configuration, []).append(speedup)
        edp_by_config.setdefault(configuration, []).append(edp)

    for name in names:
        baseline = runner.software_baseline(name)

        # OptSW: the best software scheduler for this benchmark.
        sw_runs = {
            scheduler: runner.run(name, "software", scheduler) for scheduler in schedulers
        }
        best_sw_scheduler = min(sw_runs, key=lambda s: sw_runs[s].total_cycles)
        opt_sw = sw_runs[best_sw_scheduler]
        record(name, "OptSW", opt_sw.speedup_over(baseline), opt_sw.normalized_edp(baseline))

        # Each scheduler combined with TDM.
        tdm_runs = {
            scheduler: runner.run(name, "tdm", scheduler) for scheduler in schedulers
        }
        for scheduler in schedulers:
            sim = tdm_runs[scheduler]
            record(
                name,
                f"{scheduler}+TDM",
                sim.speedup_over(baseline),
                sim.normalized_edp(baseline),
            )

        # OptTDM: the best scheduler per benchmark combined with TDM.
        best_tdm_scheduler = min(tdm_runs, key=lambda s: tdm_runs[s].total_cycles)
        opt_tdm = tdm_runs[best_tdm_scheduler]
        record(name, "OptTDM", opt_tdm.speedup_over(baseline), opt_tdm.normalized_edp(baseline))
        result.add_note(
            f"{name}: best software scheduler {best_sw_scheduler}, best TDM scheduler {best_tdm_scheduler}"
        )

    for configuration in list(speedups_by_config):
        record_values = speedups_by_config[configuration]
        if record_values:
            result.add_row(
                benchmark="AVG",
                configuration=configuration,
                speedup=runner.geomean(record_values),
                normalized_edp=runner.geomean(edp_by_config[configuration]),
            )
    if "OptTDM" in speedups_by_config:
        avg_speedup = runner.geomean(speedups_by_config["OptTDM"])
        avg_edp = runner.geomean(edp_by_config["OptTDM"])
        result.add_note(
            f"OptTDM average speedup {avg_speedup:.3f} (paper 1.122), "
            f"average EDP {avg_edp:.3f} (paper ~0.797)"
        )
    if "OptSW" in speedups_by_config:
        result.add_note(
            f"OptSW average speedup {runner.geomean(speedups_by_config['OptSW']):.3f} (paper 1.045)"
        )
    return result
