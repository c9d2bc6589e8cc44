"""Figure 11: DAT set occupancy with static vs dynamic index-bit selection.

When the bits used to index the DAT are fixed statically, benchmarks whose
dependences are blocks of the same data structure map every dependence to a
handful of sets (their low bits are identical), so the DAT suffers conflicts
and its occupancy collapses; worse, the best static choice differs per
benchmark because each uses a different block size.  Selecting the index bits
dynamically from the dependence size (start bit = log2(size)) spreads the
dependences over the sets for every benchmark.

The experiment reports the average number of occupied DAT sets (out of 256
sets for the default 2048-entry, 8-way DAT) for static start bits 0, 4, 8,
12 and 16 and for the dynamic policy, on the five benchmarks shown in the
paper's figure.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Sequence, Union

from .campaign import RunRequest
from .common import ExperimentResult, SimulationRunner, select_benchmarks, unique_requests

#: Benchmarks plotted in Figure 11.
FIGURE_BENCHMARKS = ("blackscholes", "cholesky", "fluidanimate", "histogram", "qr")
STATIC_BITS = (0, 4, 8, 12, 16)

COLUMNS = ("benchmark", "index_policy", "average_occupied_sets", "total_sets", "time_us")


def plan(
    runner: SimulationRunner,
    benchmarks: Optional[Sequence[str]] = None,
    static_bits: Sequence[int] = STATIC_BITS,
) -> list:
    """Every simulation ``run`` will request (simulated before it runs)."""
    names = select_benchmarks(benchmarks) if benchmarks is not None else list(FIGURE_BENCHMARKS)
    base = runner.base_config.dmu
    requests = []
    for name in names:
        for bits in static_bits:
            dmu = replace(base, index_selection="static", static_index_start_bit=int(bits))
            requests.append(RunRequest(name, "tdm", dmu=dmu))
        requests.append(RunRequest(name, "tdm", dmu=replace(base, index_selection="dynamic")))
    return unique_requests(requests)


def run(
    runner: SimulationRunner,
    benchmarks: Optional[Sequence[str]] = None,
    static_bits: Sequence[int] = STATIC_BITS,
) -> ExperimentResult:
    """Reproduce Figure 11 (TDM runtime, FIFO scheduler)."""
    names = select_benchmarks(benchmarks) if benchmarks is not None else list(FIGURE_BENCHMARKS)
    result = ExperimentResult(
        experiment="figure_11",
        title="Figure 11: DAT set occupancy with static and dynamic index-bit selection",
        columns=COLUMNS,
        paper_reference={
            "observation": "static occupancy ranges from 1% to 88% and the best bits differ "
            "per benchmark; dynamic selection maximizes occupancy everywhere",
        },
    )
    base = runner.base_config.dmu
    total_sets = base.dat_entries // base.dat_associativity
    policies: list[Union[int, str]] = list(static_bits) + ["dynamic"]
    for name in names:
        for policy in policies:
            if policy == "dynamic":
                dmu = replace(base, index_selection="dynamic")
                label = "DYN"
            else:
                dmu = replace(base, index_selection="static", static_index_start_bit=int(policy))
                label = str(policy)
            sim = runner.run(name, "tdm", dmu=dmu)
            result.add_row(
                benchmark=name,
                index_policy=label,
                average_occupied_sets=sim.dat_average_occupied_sets,
                total_sets=total_sets,
                time_us=sim.microseconds,
            )
    for name in names:
        dynamic = result.row_for(benchmark=name, index_policy="DYN")["average_occupied_sets"]
        statics = [
            row["average_occupied_sets"]
            for row in result.rows
            if row["benchmark"] == name and row["index_policy"] != "DYN"
        ]
        if statics:
            result.add_note(
                f"{name}: dynamic occupancy {dynamic:.0f}/{total_sets} sets vs static "
                f"min {min(statics):.0f} / max {max(statics):.0f}"
            )
    return result
