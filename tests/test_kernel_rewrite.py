"""Guards for the discrete-event kernel hot-path rewrite.

The kernel rewrite (direct-resume heap entries, the zero-delay ready deque,
the bare-int timeout fast path, totals-only timelines) must be *bit-identical*
to the original lambda-per-event kernel.  Two layers of pinning enforce that:

* ``GOLDEN_CSV_DIGESTS`` — SHA-256 of every experiment's CSV rows at
  ``scale=0.1`` on a two-benchmark subset, captured on the pre-rewrite kernel.
  Any change to event ordering, timing arithmetic or phase accounting shows up
  here as a digest mismatch.
* ``PINNED_RUNTIME_CYCLES`` — total cycle counts of a small Cholesky run under
  each of the four runtime models, also captured pre-rewrite.  This covers the
  bare-int fast path end to end for every runtime (all four yield bare ints on
  their hot paths now).
"""

import hashlib

import pytest

from repro.config import default_paper_config
from repro.errors import SimulationError
from repro.sim.engine import WHEEL_SPAN, Engine
from repro.sim.events import NotificationEvent, SimEvent, Timeout, WaitEvent
from repro.sim.machine import run_simulation
from repro.sim.timeline import Phase, ThreadTimeline
from repro.workloads.registry import create_workload

# Captured on the pre-rewrite kernel (PR 1 state) at scale=0.1 with
# benchmarks=["blackscholes", "cholesky"]; see the experiments test below.
GOLDEN_CSV_DIGESTS = {
    "figure_02": "c3dfe6d155af4d94281721d3ab28b70094c176606521315f250bcecc7b525078",
    "figure_06": "e2b8eb3a38a0e494b54e21640cb76de1c06665197bc53e53598cfa13ca821ffa",
    "table_02": "1451c142d1d72a1adbdea36acba4579d1afe8fd006c3ff5df411fbe5a545aaca",
    "figure_07": "7b2720e7a4f002c485ac2f7cf9fc08685f9c2b2ad51b5f246dc3ecc4719a1a7b",
    "figure_08": "7a01b4f293a6dd7bc9841ddb5b8167c0a9ef4af38b37a50f04ce97dc8452f882",
    "figure_09": "68484f3da2eb9c67371a55b57736fc3e3d52711cc0464ba4cd1efa6ed2e8fa23",
    "table_03": "80d3f0b0fec221d4344c3c9bd0f2044e1b2142315a6c7fc4e79839f621c68fe8",
    "figure_10": "3172d140d654edf540b6c0453e29c01723f7780a44bc71477ebd51d6f475e5c9",
    "figure_11": "c7c86d936cafa68752b8dcb7c1dd18b079f9546131a91f3d80b1a2a4ae94b89d",
    "figure_12": "fd14aca03e43481673109a174887ed745ce54bd48fbfab6dfd316ea60144da80",
    "figure_13": "b86740e1b50837344c7e6251497ebcf0a79b44c8cd57cdb271172afbbd704a68",
}

# Cholesky at scale=0.05 under the paper's default configuration, captured on
# the pre-rewrite kernel.  The workload granularity follows each runtime's
# Table II optimum, exactly as the experiment harnesses choose it.
PINNED_RUNTIME_CYCLES = {
    "software": 7_940_856,
    "tdm": 7_639_446,
    "carbon": 7_725_088,
    "task_superscalar": 7_336_055,
}
PINNED_RUNTIME_TASKS = 364


def _run_pinned(runtime: str):
    workload_runtime = "tdm" if runtime in ("tdm", "task_superscalar") else "software"
    workload = create_workload("cholesky", scale=0.05, runtime=workload_runtime)
    return run_simulation(workload.build_program(), default_paper_config(runtime))


class TestGoldenDigests:
    """The full experiment surface is byte-identical to the pre-rewrite kernel."""

    @pytest.fixture(scope="class")
    def runner(self):
        from repro.experiments.common import SimulationRunner

        return SimulationRunner(scale=0.1)

    @pytest.mark.parametrize("experiment", sorted(GOLDEN_CSV_DIGESTS))
    def test_csv_rows_byte_identical(self, experiment, runner):
        from repro.experiments.registry import run_experiment

        result = run_experiment(
            experiment, scale=0.1, benchmarks=["blackscholes", "cholesky"], runner=runner
        )
        digest = hashlib.sha256(result.to_csv().encode("utf-8")).hexdigest()
        assert digest == GOLDEN_CSV_DIGESTS[experiment], (
            f"{experiment}: CSV rows diverged from the pre-rewrite kernel"
        )


class TestPinnedRuntimeCycles:
    """Bare-int timeout fast path, end to end, across all four runtimes."""

    @pytest.mark.parametrize("runtime", sorted(PINNED_RUNTIME_CYCLES))
    def test_total_cycles_unchanged(self, runtime):
        result = _run_pinned(runtime)
        assert result.total_cycles == PINNED_RUNTIME_CYCLES[runtime]
        assert result.num_tasks_executed == PINNED_RUNTIME_TASKS


class TestBareIntTimeouts:
    def test_int_yield_advances_clock(self):
        engine = Engine()
        log = []

        def body():
            yield 10
            log.append(engine.now)
            yield 0  # zero-delay: wakes at the same cycle via the ready deque
            log.append(engine.now)
            yield 5
            log.append(engine.now)

        engine.process(body(), name="p")
        engine.run()
        assert log == [10, 10, 15]

    def test_int_and_timeout_yields_interleave_identically(self):
        def build(use_ints):
            engine = Engine()
            trace = []

            def worker(tag, delay):
                yield delay if use_ints else Timeout(delay)
                trace.append((engine.now, tag))
                yield (delay * 2) if use_ints else Timeout(delay * 2)
                trace.append((engine.now, tag))

            for index in range(5):
                engine.process(worker(f"w{index}", index + 1), name=f"w{index}")
            engine.run()
            return trace

        assert build(True) == build(False)

    def test_negative_int_rejected(self):
        engine = Engine()

        def body():
            yield -3

        engine.process(body(), name="bad")
        with pytest.raises(SimulationError, match="negative timeout"):
            engine.run()

    def test_bool_yield_rejected(self):
        # bool is an int subclass but makes no sense as a cycle count.
        engine = Engine()

        def body():
            yield True

        engine.process(body(), name="bool")
        with pytest.raises(SimulationError, match="unknown command"):
            engine.run()

    def test_timeout_subclass_dispatches_via_cold_path(self):
        class SlowTimeout(Timeout):
            pass

        engine = Engine()
        fired = []

        def body():
            yield SlowTimeout(7)
            fired.append(engine.now)

        engine.process(body(), name="sub")
        engine.run()
        assert fired == [7]


class TestRunUntilReentry:
    def test_reentry_produces_identical_trace(self):
        def build():
            engine = Engine()
            trace = []

            def worker(tag, delay):
                for _ in range(4):
                    yield delay
                    trace.append((engine.now, tag))

            for index in range(3):
                engine.process(worker(f"w{index}", 7 * (index + 1)), name=f"w{index}")
            return engine, trace

        engine, full_trace = build()
        engine.run()

        engine2, step_trace = build()
        # Resume repeatedly from arbitrary stopping points.
        for until in (5, 20, 21, 55):
            assert engine2.run(until=until) == until
        engine2.run()
        assert step_trace == full_trace
        assert engine2.now == engine.now

    def test_until_is_inclusive_of_due_events(self):
        engine = Engine()
        fired = []

        def body():
            yield 10
            fired.append(engine.now)

        engine.process(body(), name="p")
        engine.run(until=10)
        assert fired == [10]


class TestBucketedWheel:
    """The two-tier queue (near-future wheel + far-future heap) is order-
    transparent: delays on either side of the WHEEL_SPAN horizon, horizon
    crossings via run(until), and heap-to-wheel migration must all preserve
    the single-queue (time, seq) order."""

    def test_delays_across_the_horizon_interleave_by_time_then_seq(self):
        engine = Engine()
        trace = []
        # Delays straddling the wheel horizon, scheduled in one batch: the
        # far-future heap and the wheel must merge back into time order.
        delays = [1, WHEEL_SPAN - 1, WHEEL_SPAN, WHEEL_SPAN + 1, 3 * WHEEL_SPAN, 7]

        def worker(tag, delay):
            yield delay
            trace.append((engine.now, tag))

        for tag, delay in enumerate(delays):
            engine.process(worker(tag, delay), name=f"w{tag}")
        engine.run()
        assert trace == sorted(trace), "events fired out of (time, seq) order"
        assert [now for now, _tag in trace] == sorted(delays)

    def test_same_cycle_ties_follow_scheduling_order_across_tiers(self):
        engine = Engine()
        trace = []

        def sleeper(tag, first, second):
            yield first
            trace.append((engine.now, tag, "a"))
            yield second
            trace.append((engine.now, tag, "b"))

        # Both processes reach cycle WHEEL_SPAN + 2: p0 via a far-future
        # sleep (heap, migrated into the wheel), p1 via two near sleeps
        # (wheel only).  p0 scheduled its arrival first, so it runs first.
        engine.process(sleeper("p0", WHEEL_SPAN + 2, 1), name="p0")
        engine.process(sleeper("p1", 2, WHEEL_SPAN), name="p1")
        engine.run()
        assert trace == [
            (2, "p1", "a"),
            (WHEEL_SPAN + 2, "p0", "a"),
            (WHEEL_SPAN + 2, "p1", "b"),
            (WHEEL_SPAN + 3, "p0", "b"),
        ]

    def test_run_until_pauses_inside_and_beyond_the_wheel_window(self):
        def build():
            engine = Engine()
            trace = []

            def worker(tag, delay):
                for _ in range(3):
                    yield delay
                    trace.append((engine.now, tag))

            engine.process(worker("near", 5), name="near")
            engine.process(worker("far", WHEEL_SPAN + 11), name="far")
            return engine, trace

        engine, full = build()
        engine.run()

        engine2, stepped = build()
        # Bounds inside the first window, exactly at the horizon, and far
        # beyond it (forcing heap->wheel migration on re-entry).
        for until in (3, WHEEL_SPAN, WHEEL_SPAN + 11, 2 * WHEEL_SPAN + 30):
            assert engine2.run(until=until) == until
        engine2.run()
        assert stepped == full
        assert engine2.now == engine.now

    def test_schedule_callbacks_merge_with_process_wakeups(self):
        engine = Engine()
        trace = []

        def worker():
            yield 4
            trace.append(("proc", engine.now))

        engine.process(worker(), name="p")
        engine.schedule(4, lambda: trace.append(("cb4", engine.now)))
        engine.schedule(WHEEL_SPAN + 4, lambda: trace.append(("far", engine.now)))
        engine.schedule(0, lambda: trace.append(("cb0", engine.now)))
        engine.run()
        # Ties at time 4 break by scheduling order: the callback claimed its
        # sequence number when schedule() ran, the process's wakeup only when
        # its first step executed `yield 4` (during cycle 0) — exactly the
        # pre-wheel single-queue order.
        assert trace == [
            ("cb0", 0),
            ("cb4", 4),
            ("proc", 4),
            ("far", WHEEL_SPAN + 4),
        ]

    def test_batched_trigger_preserves_waiter_and_bystander_order(self):
        engine = Engine()
        event = SimEvent(engine, "broadcast")
        trace = []

        def waiter(tag):
            yield WaitEvent(event)
            trace.append(("woke", tag, engine.now))
            yield 1
            trace.append(("after", tag, engine.now))

        def bystander():
            # Scheduled *after* the waiters at the trigger cycle: the batched
            # drain must still run every waiter first.
            yield 2
            trace.append(("bystander", engine.now))

        def trigger():
            yield 2
            event.trigger("payload")
            trace.append(("triggered", engine.now))

        for tag in range(3):
            engine.process(waiter(tag), name=f"w{tag}")
        engine.process(trigger(), name="t")
        engine.process(bystander(), name="b")
        engine.run()
        assert trace == [
            ("triggered", 2),
            ("bystander", 2),
            ("woke", 0, 2),
            ("woke", 1, 2),
            ("woke", 2, 2),
            ("after", 0, 3),
            ("after", 1, 3),
            ("after", 2, 3),
        ]

    def test_batch_drain_skips_processes_finished_mid_drain(self):
        # Process.resume guards against resuming a finished process; drive
        # a batch containing one directly (no generator interleaving can
        # produce this naturally, which is exactly why the guard must not
        # rely on it never happening).
        from repro.sim.events import _WaiterBatch

        engine = Engine()
        woken = []

        def quick():
            yield 1

        def waiter():
            got = yield WaitEvent(SimEvent(engine, "unused"))
            woken.append(got)

        finished = engine.process(quick(), name="done")
        engine.run()
        assert finished.finished
        live = engine.process(waiter(), name="live")

        def sentinel():  # keeps the queues non-empty so run(until) pauses
            yield WHEEL_SPAN * 4

        engine.process(sentinel(), name="sentinel")
        engine.run(until=engine.now + 1)  # let the waiter reach its yield
        # The stale finished process must be skipped without touching its
        # generator; the live waiter resumes with the batch value.
        _WaiterBatch([finished, live]).resume(42)
        assert woken == [42]
        assert finished.result is None

    def test_deadlock_detection_sees_wheel_and_heap_events(self):
        # A pending far-future event must keep the engine alive; once the
        # queues drain with a blocked process, DeadlockError still fires.
        from repro.errors import DeadlockError

        engine = Engine()

        def blocked():
            yield WaitEvent(SimEvent(engine, "never"))

        def worker():
            yield WHEEL_SPAN * 2

        engine.process(blocked(), name="blocked")
        engine.process(worker(), name="w")
        with pytest.raises(DeadlockError):
            engine.run()
        assert engine.now == WHEEL_SPAN * 2


class TestProcessRegistry:
    def test_process_counts_are_cheap_and_correct(self):
        engine = Engine()

        def body(delay):
            yield delay

        engine.process(body(5), name="a")
        engine.process(body(9), name="b")
        assert engine.live_process_count == 2
        assert engine.finished_process_count == 0
        # The registry property returns the live list (no per-access copy).
        assert engine.processes is engine.processes
        engine.run(until=5)
        assert engine.live_process_count == 1
        engine.run()
        assert engine.live_process_count == 0
        assert engine.finished_process_count == 2
        assert [p.name for p in engine.processes] == ["a", "b"]


class TestNotificationEventLazyRearm:
    def test_notify_with_no_waiters_allocates_nothing(self):
        engine = Engine()
        channel = NotificationEvent(engine, "n")
        assert channel._current is None
        channel.notify_all()
        assert channel._current is None

    def test_target_captured_before_notify_is_triggered(self):
        engine = Engine()
        channel = NotificationEvent(engine, "n")
        target = channel.wait_target()
        assert channel.wait_target() is target  # stable until a notification
        channel.notify_all("payload")
        assert target.triggered and target.value == "payload"
        rearmed = channel.wait_target()
        assert rearmed is not target and not rearmed.triggered

    def test_waiters_wake_in_registration_order(self):
        engine = Engine()
        channel = NotificationEvent(engine, "n")
        woken = []

        def waiter(tag):
            yield WaitEvent(channel.wait_target())
            woken.append(tag)

        def notifier():
            yield 3
            channel.notify_all()

        for tag in ("a", "b", "c"):
            engine.process(waiter(tag), name=tag)
        engine.process(notifier(), name="n")
        engine.run()
        assert woken == ["a", "b", "c"]


class TestTimelineMerge:
    def test_reentering_open_phase_merges_intervals(self):
        timeline = ThreadTimeline(0, record_intervals=True)
        timeline.begin(Phase.EXEC, 10)
        timeline.begin(Phase.EXEC, 20)  # same phase: continues the open span
        timeline.begin(Phase.DEPS, 30)
        timeline.end(45)
        assert [(i.phase, i.start, i.end) for i in timeline.intervals] == [
            (Phase.EXEC, 10, 30),
            (Phase.DEPS, 30, 45),
        ]
        assert timeline.totals[Phase.EXEC] == 20
        assert timeline.totals[Phase.DEPS] == 15

    def test_zero_duration_phase_changes_leave_no_interval(self):
        timeline = ThreadTimeline(0, record_intervals=True)
        timeline.begin(Phase.IDLE, 5)
        timeline.begin(Phase.SCHED, 9)
        timeline.begin(Phase.IDLE, 9)  # zero-duration SCHED visit
        timeline.end(12)
        assert [(i.phase, i.start, i.end) for i in timeline.intervals] == [
            (Phase.IDLE, 5, 9),
            (Phase.IDLE, 9, 12),
        ]
        assert timeline.totals[Phase.SCHED] == 0

    def test_interval_recording_is_opt_in_via_config(self):
        from repro.config import SimulationConfig

        assert SimulationConfig().record_timeline is False
        result = _run_pinned("software")
        assert all(not thread.intervals for thread in result.timeline.threads)
        assert sum(result.timeline.totals().values()) > 0
