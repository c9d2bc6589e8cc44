"""Figure 9: performance sensitivity to the DMU access latency.

The paper varies the access time of every DMU structure from 1 to 16 cycles
and normalizes to structures with zero latency.  Because DMU operations are
rare compared to task durations at the evaluated granularities, the expected
degradation is tiny: 0.2% with 1-cycle accesses and 0.9% with 16-cycle
accesses on average, with only LU and QR showing any visible effect.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Sequence

from .campaign import RunRequest
from .common import ExperimentResult, SimulationRunner, select_benchmarks, unique_requests

LATENCIES = (1, 4, 16)

COLUMNS = ("benchmark", "access_cycles", "time_us", "speedup_vs_zero_latency")


def plan(
    runner: SimulationRunner,
    benchmarks: Optional[Sequence[str]] = None,
    latencies: Sequence[int] = LATENCIES,
) -> list:
    """Every simulation ``run`` will request (simulated before it runs)."""
    base = runner.base_config.dmu
    requests = []
    for name in select_benchmarks(benchmarks):
        for latency in [0] + list(latencies):
            requests.append(RunRequest(name, "tdm", dmu=replace(base, access_cycles=latency)))
    return unique_requests(requests)


def run(
    runner: SimulationRunner,
    benchmarks: Optional[Sequence[str]] = None,
    latencies: Sequence[int] = LATENCIES,
) -> ExperimentResult:
    """Reproduce Figure 9 (TDM runtime, FIFO scheduler)."""
    names = select_benchmarks(benchmarks)
    result = ExperimentResult(
        experiment="figure_09",
        title="Figure 9: performance degradation when varying DMU structure access time",
        columns=COLUMNS,
        paper_reference={"avg_degradation": {1: 0.002, 16: 0.009}},
    )
    base = runner.base_config.dmu
    per_latency = {latency: [] for latency in latencies}
    for name in names:
        zero = runner.run(name, "tdm", dmu=replace(base, access_cycles=0))
        for latency in latencies:
            sim = runner.run(name, "tdm", dmu=replace(base, access_cycles=latency))
            speedup = zero.microseconds / sim.microseconds
            per_latency[latency].append(speedup)
            result.add_row(
                benchmark=name,
                access_cycles=latency,
                time_us=sim.microseconds,
                speedup_vs_zero_latency=speedup,
            )
    for latency in latencies:
        if per_latency[latency]:
            average = runner.geomean(per_latency[latency])
            result.add_row(
                benchmark="AVG",
                access_cycles=latency,
                time_us=None,
                speedup_vs_zero_latency=average,
            )
            result.add_note(
                f"Average degradation at {latency}-cycle accesses: {(1 - average) * 100:.2f}%"
            )
    return result
