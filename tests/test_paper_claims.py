"""The paper's directional claims, checked on reduced-scale reproductions.

Each test regenerates one table or figure through :mod:`repro.experiments`
and asserts the direction the paper reports (Figs. 2 and 6-13, Tables II
and III): who wins, what saturates, which design point is close to ideal.
The absolute numbers are not pinned here; ``GOLDEN_CSV_DIGESTS`` pins the
bytes and the harnesses' ``paper_reference`` records the paper's values.

Every test shares one memoizing runner at scale 0.25.  Below that scale
the reduced programs stop showing the paper's effects (the Fig. 2 and
Fig. 8 claims fail at 0.05), so do not lower it to save time.

A claim the model does not reproduce today is a strict ``xfail`` whose
reason gives the measured gap; it is never loosened or deleted.  A fix that
makes it hold turns the xfail into a failure, which is the signal to drop
the marker.
"""

from __future__ import annotations

from typing import Optional, Sequence

import pytest

from repro.experiments.common import SimulationRunner
from repro.experiments.registry import run_experiment
from repro.workloads.registry import PAPER_BENCHMARKS

SCALE = 0.25


@pytest.fixture(scope="module")
def shared_runner() -> SimulationRunner:
    """One memoizing runner shared by every claim in the module."""
    return SimulationRunner(scale=SCALE)


@pytest.fixture(scope="module")
def reproduce(shared_runner):
    """Run one experiment on the shared runner and return its result."""

    def _run(experiment: str, default_benchmarks: Optional[Sequence[str]] = None, **kwargs):
        scale = kwargs.pop("scale", shared_runner.scale)
        return run_experiment(
            experiment,
            scale=scale,
            benchmarks=default_benchmarks,
            runner=shared_runner,
            **kwargs,
        )

    return _run


# ---------------------------------------------------------------------------
# The row assertions of the paper-figure harnesses
# ---------------------------------------------------------------------------
def test_figure_02_breakdown(reproduce):
    result = reproduce("figure_02", default_benchmarks=None)
    # Creation-bound benchmarks must show a dependence-management-heavy master.
    cholesky = result.row_for(benchmark="cholesky")
    assert cholesky["master_DEPS"] > 0.5
    # Workers spend most of their time executing tasks or idling.
    for row in result.rows:
        assert row["worker_EXEC"] + row["worker_IDLE"] > 0.7


def test_figure_06_granularity(reproduce):
    result = reproduce("figure_06", default_benchmarks=["blackscholes", "cholesky", "lu"])
    # The sweep is normalized to the best granularity of each benchmark, so
    # every benchmark has exactly one 1.0 point and nothing below it.
    for name in {row["benchmark"] for row in result.rows}:
        values = [row["normalized_time"] for row in result.rows if row["benchmark"] == name]
        assert min(values) == 1.0
        assert max(values) > 1.0


def test_figure_07_tat_dat(reproduce):
    result = reproduce("figure_07", default_benchmarks=["histogram", "qr"], sizes=[512, 2048])
    # The selected design point (2048/2048) is close to the ideal DMU.
    for name in {row["benchmark"] for row in result.rows}:
        selected = result.row_for(benchmark=name, tat_entries=2048, dat_entries=2048)
        assert selected["performance_vs_ideal"] > 0.9


def test_figure_08_list_arrays(reproduce):
    result = reproduce("figure_08", default_benchmarks=["cholesky", "histogram"], sizes=[128, 1024])
    averages = {
        row["successor_entries"]: row["performance_vs_ideal"]
        for row in result.rows
        if row["benchmark"] == "AVG"
    }
    # 1024-entry list arrays perform at least as well as 128-entry ones.
    assert averages[1024] >= averages[128]
    assert averages[1024] > 0.9


def test_figure_09_latency(reproduce):
    result = reproduce("figure_09", default_benchmarks=["cholesky", "lu", "qr"])
    averages = {
        row["access_cycles"]: row["speedup_vs_zero_latency"]
        for row in result.rows
        if row["benchmark"] == "AVG"
    }
    # DMU latency barely matters at the evaluated task granularities: even a
    # 16x slower SRAM stays within a few percent of the zero-latency DMU.
    # (At reduced scales the locality model adds a little schedule-dependent
    # noise, hence the 10% tolerance rather than the paper's 0.9%.)
    for latency, speedup in averages.items():
        assert speedup > 0.90, f"{latency}-cycle DMU degraded performance by more than 10%"


def test_figure_10_creation_time(reproduce):
    result = reproduce("figure_10", default_benchmarks=None)
    # TDM reduces the master's task-creation time for the creation-bound
    # benchmarks and never increases it dramatically elsewhere.
    cholesky = result.row_for(benchmark="cholesky")
    assert cholesky["reduction_factor"] > 2.0
    averages_sw = [row["sw_creation_fraction"] for row in result.rows]
    averages_tdm = [row["tdm_creation_fraction"] for row in result.rows]
    assert sum(averages_tdm) < sum(averages_sw)


def test_figure_11_dat_occupancy(reproduce):
    result = reproduce(
        "figure_11", default_benchmarks=["blackscholes", "cholesky"], static_bits=[0, 8, 16]
    )
    for name in {row["benchmark"] for row in result.rows}:
        dynamic = result.row_for(benchmark=name, index_policy="DYN")["average_occupied_sets"]
        statics = [
            row["average_occupied_sets"]
            for row in result.rows
            if row["benchmark"] == name and row["index_policy"] != "DYN"
        ]
        # Dynamic selection occupies at least as many sets as the best static
        # choice and strictly more than the worst one.
        assert dynamic >= max(statics) * 0.99
        assert dynamic > min(statics)


def test_figure_12_schedulers(reproduce):
    result = reproduce("figure_12", default_benchmarks=["cholesky", "dedup", "blackscholes", "qr"])
    averages = {
        row["configuration"]: row
        for row in result.rows
        if row["benchmark"] == "AVG"
    }
    # TDM with the best scheduler per benchmark beats the software runtime on
    # both performance and EDP, and beats the best software-only configuration.
    assert averages["OptTDM"]["speedup"] > 1.0
    assert averages["OptTDM"]["speedup"] >= averages["OptSW"]["speedup"]
    assert averages["OptTDM"]["normalized_edp"] < 1.0
    # The best TDM scheduler is at least as good as always using FIFO.
    assert averages["OptTDM"]["speedup"] >= averages["fifo+TDM"]["speedup"]


def test_figure_13_comparison(reproduce):
    result = reproduce("figure_13", default_benchmarks=["cholesky", "dedup", "blackscholes", "qr"])
    averages = {
        row["configuration"]: row
        for row in result.rows
        if row["benchmark"] == "AVG"
    }
    # The paper's ordering: OptTDM >= Task Superscalar >= Carbon (on average),
    # with TDM also winning on EDP.
    assert averages["OptTDM"]["speedup"] >= averages["TaskSuperscalar"]["speedup"] * 0.99
    assert averages["TaskSuperscalar"]["speedup"] >= averages["Carbon"]["speedup"] * 0.98
    assert averages["OptTDM"]["normalized_edp"] <= averages["Carbon"]["normalized_edp"]


def test_table_02_characteristics(reproduce):
    # Table II is always generated at full scale: it characterizes the
    # workload generators, not the simulator.
    result = reproduce("table_02", default_benchmarks=None, scale=1.0)
    qr = result.row_for(benchmark="qr")
    assert qr["tdm_tasks"] == qr["paper_tdm_tasks"]
    cholesky = result.row_for(benchmark="cholesky")
    assert cholesky["sw_tasks"] == cholesky["paper_sw_tasks"]


def test_table_03_area(reproduce):
    result = reproduce("table_03")
    total = result.row_for(structure="Total")
    assert total["storage_kb"] == pytest.approx(105.25)
    assert total["area_mm2"] == pytest.approx(0.17, rel=0.1)
    assert any("7.3x" in note for note in result.notes)


# ---------------------------------------------------------------------------
# Claims the paper makes that the row assertions above leave out
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "name",
    [
        pytest.param(
            name,
            marks=pytest.mark.xfail(
                strict=True,
                reason="qr: TDM master creation fraction 0.173 vs software 0.098 "
                "at scale 0.25 (reduction factor 0.570)",
            ),
        )
        if name == "qr"
        else name
        for name in PAPER_BENCHMARKS
    ],
)
def test_figure_10_tdm_cuts_creation_time_everywhere(reproduce, name):
    # The pytest-benchmark plugin reserves the ``benchmark`` argument name.
    row = reproduce("figure_10", default_benchmarks=None).row_for(benchmark=name)
    assert row["tdm_creation_fraction"] < row["sw_creation_fraction"]


def test_figure_11_dynamic_indexing_matches_best_static(reproduce):
    result = reproduce("figure_11", default_benchmarks=None)
    for name in {row["benchmark"] for row in result.rows}:
        dynamic = result.row_for(benchmark=name, index_policy="DYN")["average_occupied_sets"]
        statics = [
            row["average_occupied_sets"]
            for row in result.rows
            if row["benchmark"] == name and row["index_policy"] != "DYN"
        ]
        assert dynamic >= max(statics), name


def test_figure_08_largest_list_arrays_are_near_ideal(reproduce):
    result = reproduce("figure_08", default_benchmarks=None, sizes=[2048])
    for row in result.rows:
        assert row["performance_vs_ideal"] >= 0.9, row["benchmark"]


@pytest.mark.xfail(
    strict=True,
    reason="fluidanimate: OptTDM speedup 0.962 vs OptSW 1.0 at scale 0.25",
)
def test_figure_12_tdm_beats_software_on_fluidanimate(reproduce):
    result = reproduce("figure_12", default_benchmarks=["fluidanimate"])
    opt_tdm = result.row_for(benchmark="fluidanimate", configuration="OptTDM")
    opt_sw = result.row_for(benchmark="fluidanimate", configuration="OptSW")
    assert opt_tdm["speedup"] >= opt_sw["speedup"]
