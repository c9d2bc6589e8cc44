"""Figure 8: performance sensitivity to the list-array sizes.

The paper sweeps the successor, dependence and reader list arrays between 128
and 2048 entries and normalizes to an ideal DMU with unlimited entries.  The
expected observations: 128 entries in any list array is clearly insufficient,
1024 entries saturate performance (about 1.1% average degradation), and
doubling to 2048 buys only ~0.1%.

Two sweep modes are provided: ``diagonal`` (default) sizes the three list
arrays identically, which is the axis the conclusion is drawn along;
``grid`` reproduces the full 4x4x4 sweep of the figure.
"""

from __future__ import annotations

import itertools
from dataclasses import replace
from typing import Optional, Sequence

from ..config import DMUConfig
from ..errors import ExperimentError
from .campaign import RunRequest
from .common import ExperimentResult, SimulationRunner, select_benchmarks, unique_requests

SIZES = (128, 512, 1024, 2048)

COLUMNS = (
    "benchmark",
    "successor_entries",
    "dependence_entries",
    "reader_entries",
    "time_us",
    "performance_vs_ideal",
)


def _sweep_dmu(base: DMUConfig, sla: int, dla: int, rla: int) -> DMUConfig:
    return replace(
        base,
        successor_list_entries=sla,
        dependence_list_entries=dla,
        reader_list_entries=rla,
    )


def _combos(sizes: Sequence[int], mode: str) -> list:
    if mode == "diagonal":
        return [(size, size, size) for size in sizes]
    if mode == "grid":
        return list(itertools.product(sizes, repeat=3))
    raise ExperimentError(f"unknown sweep mode {mode!r}; use 'diagonal' or 'grid'")


def plan(
    runner: SimulationRunner,
    benchmarks: Optional[Sequence[str]] = None,
    sizes: Sequence[int] = SIZES,
    mode: str = "diagonal",
) -> list:
    """Every simulation ``run`` will request (simulated before it runs)."""
    base = runner.base_config.dmu
    combos = _combos(sizes, mode)
    requests = []
    for name in select_benchmarks(benchmarks):
        requests.append(RunRequest(name, "tdm", dmu=DMUConfig.ideal()))
        for sla, dla, rla in combos:
            requests.append(RunRequest(name, "tdm", dmu=_sweep_dmu(base, sla, dla, rla)))
    return unique_requests(requests)


def run(
    runner: SimulationRunner,
    scale: float,
    benchmarks: Optional[Sequence[str]] = None,
    sizes: Sequence[int] = SIZES,
    mode: str = "diagonal",
) -> ExperimentResult:
    """Reproduce Figure 8 (TDM runtime, FIFO scheduler, ideal-normalized)."""
    names = select_benchmarks(benchmarks)
    result = ExperimentResult(
        experiment="figure_08",
        title="Figure 8: performance with different list-array sizes (normalized to an ideal DMU)",
        columns=COLUMNS,
        paper_reference={
            "avg_degradation_at_1024": 0.011,
            "observation": "128 entries in any list array is suboptimal; 1024 saturates",
        },
    )
    base = runner.base_config.dmu
    combos = _combos(sizes, mode)

    per_combo_perf = {combo: [] for combo in combos}
    for name in names:
        ideal = runner.run(name, "tdm", dmu=DMUConfig.ideal())
        for sla, dla, rla in combos:
            sim = runner.run(name, "tdm", dmu=_sweep_dmu(base, sla, dla, rla))
            performance = ideal.microseconds / sim.microseconds
            per_combo_perf[(sla, dla, rla)].append(performance)
            result.add_row(
                benchmark=name,
                successor_entries=sla,
                dependence_entries=dla,
                reader_entries=rla,
                time_us=sim.microseconds,
                performance_vs_ideal=performance,
            )
    for combo, values in per_combo_perf.items():
        if values:
            result.add_row(
                benchmark="AVG",
                successor_entries=combo[0],
                dependence_entries=combo[1],
                reader_entries=combo[2],
                time_us=None,
                performance_vs_ideal=runner.geomean(values),
            )
    thousand = (1024, 1024, 1024)
    if thousand in per_combo_perf and per_combo_perf[thousand]:
        degradation = 1.0 - runner.geomean(per_combo_perf[thousand])
        result.add_note(
            f"Average degradation with 1024-entry list arrays: {degradation * 100:.2f}% (paper: 1.1%)"
        )
    return result
