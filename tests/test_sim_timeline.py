"""Per-thread phase accounting."""

import pytest

from repro.sim.timeline import Phase, Timeline, ThreadTimeline, TimelineRecorder


def test_begin_end_accumulates_totals():
    timeline = ThreadTimeline(0)
    timeline.begin(Phase.EXEC, 0)
    timeline.begin(Phase.IDLE, 100)
    timeline.end(150)
    assert timeline.totals[Phase.EXEC] == 100
    assert timeline.totals[Phase.IDLE] == 50
    assert timeline.total_cycles == 150


def test_intervals_recorded_when_enabled():
    timeline = ThreadTimeline(0, record_intervals=True)
    timeline.begin(Phase.DEPS, 10)
    timeline.begin(Phase.EXEC, 30)
    timeline.end(60)
    assert [(i.phase, i.start, i.end) for i in timeline.intervals] == [
        (Phase.DEPS, 10, 30),
        (Phase.EXEC, 30, 60),
    ]
    assert timeline.intervals[0].duration == 20


def test_intervals_not_recorded_when_disabled():
    timeline = ThreadTimeline(0, record_intervals=False)
    timeline.begin(Phase.DEPS, 0)
    timeline.end(10)
    assert timeline.intervals == []
    assert timeline.totals[Phase.DEPS] == 10


def test_fraction():
    timeline = ThreadTimeline(0)
    timeline.add(Phase.EXEC, 0, 75)
    timeline.add(Phase.IDLE, 75, 100)
    assert timeline.fraction(Phase.EXEC) == pytest.approx(0.75)
    assert timeline.fraction(Phase.IDLE) == pytest.approx(0.25)


def test_fraction_empty_timeline_is_zero():
    assert ThreadTimeline(0).fraction(Phase.EXEC) == 0.0


def test_negative_interval_rejected():
    timeline = ThreadTimeline(0)
    with pytest.raises(ValueError):
        timeline.add(Phase.EXEC, 10, 5)


def test_recorder_finalize_closes_open_intervals():
    recorder = TimelineRecorder(2)
    recorder.thread(0).begin(Phase.EXEC, 0)
    recorder.thread(1).begin(Phase.IDLE, 0)
    timeline = recorder.finalize(200)
    assert timeline.threads[0].totals[Phase.EXEC] == 200
    assert timeline.threads[1].totals[Phase.IDLE] == 200
    assert timeline.end_cycle == 200


def _two_thread_timeline() -> Timeline:
    master = ThreadTimeline(0)
    master.add(Phase.DEPS, 0, 80)
    master.add(Phase.EXEC, 80, 100)
    worker = ThreadTimeline(1)
    worker.add(Phase.EXEC, 0, 60)
    worker.add(Phase.IDLE, 60, 100)
    return Timeline([master, worker], end_cycle=100)


def test_master_and_worker_breakdowns():
    timeline = _two_thread_timeline()
    master = timeline.master_breakdown()
    assert master[Phase.DEPS] == pytest.approx(0.8)
    worker = timeline.worker_breakdown()
    assert worker[Phase.EXEC] == pytest.approx(0.6)
    assert worker[Phase.IDLE] == pytest.approx(0.4)


def test_totals_over_all_threads():
    timeline = _two_thread_timeline()
    totals = timeline.totals()
    assert totals[Phase.EXEC] == 80
    assert totals[Phase.DEPS] == 80
    assert totals[Phase.IDLE] == 40


def test_busy_fraction():
    timeline = _two_thread_timeline()
    assert timeline.busy_fraction() == pytest.approx(1.0 - 40 / 200)


def test_single_thread_worker_breakdown_is_zero():
    timeline = Timeline([ThreadTimeline(0)], end_cycle=10)
    assert all(value == 0.0 for value in timeline.worker_breakdown().values())


def test_relative_rows():
    timeline = _two_thread_timeline()
    rows = timeline.as_relative_rows()
    assert len(rows) == 2
    assert rows[0]["DEPS"] == pytest.approx(0.8)
    assert rows[1]["EXEC"] == pytest.approx(0.6)


@pytest.fixture(scope="module")
def live_timelines():
    """The finished timeline of one small simulation per runtime."""
    from repro.config import default_paper_config
    from repro.sim.machine import run_simulation
    from repro.workloads.registry import create_workload

    program = create_workload("cholesky", scale=0.05, runtime="tdm").build_program()
    return {
        runtime: run_simulation(program, default_paper_config(runtime)).timeline
        for runtime in ("software", "tdm", "carbon", "task_superscalar")
    }


@pytest.mark.parametrize("runtime", ["software", "tdm", "carbon", "task_superscalar"])
def test_serialized_round_trip_is_exact(live_timelines, runtime):
    live = live_timelines[runtime]
    serialized = live.to_dict()
    restored = Timeline.from_dict(serialized)
    assert restored.to_dict() == serialized
    assert restored.end_cycle == live.end_cycle
    assert restored.num_threads == live.num_threads
    assert restored.master_breakdown() == live.master_breakdown()
    assert restored.worker_breakdown() == live.worker_breakdown()
    assert restored.totals() == live.totals()
    for thread, original in zip(restored.threads, live.threads):
        assert thread.thread_id == original.thread_id
        assert thread.totals == original.totals
        assert list(thread.totals) == list(Phase)
        assert all(type(cycles) is int for cycles in thread.totals.values())
        assert thread.intervals == []
        assert not thread.record_intervals
    assert any(restored.phase_cycles(phase) for phase in Phase if phase is not Phase.IDLE)


def test_restored_threads_keep_accumulating_independently():
    restored = Timeline.from_dict(
        {"end_cycle": 10, "threads": [{"DEPS": 1, "SCHED": 2, "EXEC": 3, "IDLE": 4}] * 2}
    )
    first, second = restored.threads
    first.add(Phase.EXEC, 0, 5)
    assert first.totals[Phase.EXEC] == 8
    assert second.totals[Phase.EXEC] == 3
