"""Figure 7: performance sensitivity to the TAT and DAT sizes.

The paper sweeps the number of TAT and DAT entries between 512 and 4096
(keeping the Task Table / Dependence Table sized accordingly and the list
arrays unlimited) and normalizes performance to an *ideal* DMU with unlimited
entries and the same latency.  The expected observations:

* LU and QR are sensitive to the DAT size,
* Cholesky, Ferret and Histogram are sensitive to the TAT size (Histogram is
  the most demanding: it needs 2048 TAT entries),
* with 2048 entries in both tables the average degradation is below ~1%.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Sequence

from ..config import DMUConfig
from .campaign import RunRequest
from .common import ExperimentResult, SimulationRunner, select_benchmarks, unique_requests

#: Benchmarks shown individually in Figure 7 (the rest saturate at 512 entries).
SENSITIVE_BENCHMARKS = ("cholesky", "ferret", "histogram", "lu", "qr")
SIZES = (512, 1024, 2048, 4096)

COLUMNS = ("benchmark", "tat_entries", "dat_entries", "time_us", "performance_vs_ideal")


def _sweep_dmu(base: DMUConfig, tat: int, dat: int) -> DMUConfig:
    """A DMU with the swept alias-table sizes and unlimited list arrays."""
    huge = 1 << 20
    return replace(
        base,
        tat_entries=tat,
        dat_entries=dat,
        ready_queue_entries=max(tat, base.ready_queue_entries),
        successor_list_entries=huge,
        dependence_list_entries=huge,
        reader_list_entries=huge,
    )


def plan(
    runner: SimulationRunner,
    benchmarks: Optional[Sequence[str]] = None,
    sizes: Sequence[int] = SIZES,
) -> list:
    """Every simulation ``run`` will request (simulated before it runs)."""
    names = select_benchmarks(benchmarks) if benchmarks is not None else list(SENSITIVE_BENCHMARKS)
    base = runner.base_config.dmu
    requests = []
    for name in names:
        requests.append(RunRequest(name, "tdm", dmu=DMUConfig.ideal()))
        for tat in sizes:
            for dat in sizes:
                requests.append(RunRequest(name, "tdm", dmu=_sweep_dmu(base, tat, dat)))
    return unique_requests(requests)


def run(
    runner: SimulationRunner,
    scale: float,
    benchmarks: Optional[Sequence[str]] = None,
    sizes: Sequence[int] = SIZES,
) -> ExperimentResult:
    """Reproduce Figure 7 (TDM runtime, FIFO scheduler, ideal-normalized)."""
    names = select_benchmarks(benchmarks) if benchmarks is not None else list(SENSITIVE_BENCHMARKS)
    result = ExperimentResult(
        experiment="figure_07",
        title="Figure 7: performance with different TAT and DAT sizes (normalized to an ideal DMU)",
        columns=COLUMNS,
        paper_reference={
            "avg_degradation_at_2048": 0.0091,
            "tat_sensitive": ["cholesky", "ferret", "histogram"],
            "dat_sensitive": ["lu", "qr"],
        },
    )
    base = runner.base_config.dmu
    for name in names:
        ideal = runner.run(name, "tdm", dmu=DMUConfig.ideal())
        for tat in sizes:
            for dat in sizes:
                sim = runner.run(name, "tdm", dmu=_sweep_dmu(base, tat, dat))
                result.add_row(
                    benchmark=name,
                    tat_entries=tat,
                    dat_entries=dat,
                    time_us=sim.microseconds,
                    performance_vs_ideal=ideal.microseconds / sim.microseconds,
                )
    # Average degradation at the selected (2048, 2048) design point.
    selected = [
        row["performance_vs_ideal"]
        for row in result.rows
        if row["tat_entries"] == 2048 and row["dat_entries"] == 2048
    ]
    if selected:
        degradation = 1.0 - runner.geomean(selected)
        result.add_note(
            f"Average degradation with 2048-entry TAT and DAT: {degradation * 100:.2f}% "
            f"(paper: 0.91%)"
        )
    return result
