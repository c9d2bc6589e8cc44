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
* ``PINNED_RUNTIME_EVENTS`` — the number of events (sequence numbers) each of
  those runs dispatches.  Event count is part of the determinism contract
  (``docs/determinism.md``): a kernel change may make events cheaper, never
  fewer or more.
* ``PINNED_BLOCKED_RUNS`` — cycles, events and blocked-instruction counts of
  the two DMU runtimes on a DMU small enough that ISA instructions block, so
  the blocked-instruction retry path is pinned end to end.

Run-ahead (a process resumed inline when its wakeup is the next dispatch)
is checked against a reference kernel that queues every wakeup on one
``(time, seq)`` heap and never runs ahead: random process scripts must give
the same dispatch trace and event count on both.
"""

import dataclasses
import hashlib
import heapq
import types
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import default_paper_config
from repro.errors import SimulationError
from repro.sim.engine import Engine
from repro.sim.events import Acquire, NotificationEvent, SimEvent, WaitEvent
from repro.sim.machine import Machine
from repro.sim.resources import Lock
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
# Events (``engine._seq`` at the end) of the same runs, captured on the
# two-tier-queue kernel the single heap replaced.
PINNED_RUNTIME_EVENTS = {
    "software": 11_860,
    "tdm": 20_803,
    "carbon": 8_664,
    "task_superscalar": 19_948,
}


# (benchmark, runtime) -> (total cycles, events, DMU blocked instructions) at
# scale=0.05 on the TDM workload with a 64-entry TAT, DAT and Ready Queue and
# 32-entry successor, dependence and reader lists.
PINNED_BLOCKED_RUNS = {
    ("cholesky", "tdm"): (13_079_699, 29_518, 302),
    ("cholesky", "task_superscalar"): (12_525_059, 46_838, 297),
    ("qr", "tdm"): (15_639_853, 54_811, 543),
    ("qr", "task_superscalar"): (15_098_841, 78_566, 533),
}


def _pinned_machine(runtime: str, benchmark: str = "cholesky", small_dmu: bool = False) -> Machine:
    workload_runtime = "tdm" if runtime in ("tdm", "task_superscalar") else "software"
    workload = create_workload(benchmark, scale=0.05, runtime=workload_runtime)
    config = default_paper_config(runtime)
    if small_dmu:
        dmu = dataclasses.replace(
            config.dmu,
            tat_entries=64,
            dat_entries=64,
            ready_queue_entries=64,
            successor_list_entries=32,
            dependence_list_entries=32,
            reader_list_entries=32,
        )
        config = dataclasses.replace(config, dmu=dmu).validated()
    return Machine(workload.build_program(), config)


def _run_pinned(runtime: str):
    return _pinned_machine(runtime).run()


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

    @pytest.mark.parametrize("runtime", sorted(PINNED_RUNTIME_EVENTS))
    def test_event_count_unchanged(self, runtime):
        machine = _pinned_machine(runtime)
        machine.run()
        assert machine.engine._seq == PINNED_RUNTIME_EVENTS[runtime]

    @pytest.mark.parametrize("workload,runtime", sorted(PINNED_BLOCKED_RUNS))
    def test_blocked_instruction_path_unchanged(self, workload, runtime):
        machine = _pinned_machine(runtime, workload, small_dmu=True)
        result = machine.run()
        blocked = result.runtime_stats["dmu_blocked_events"]
        assert (result.total_cycles, machine.engine._seq, blocked) == (
            PINNED_BLOCKED_RUNS[workload, runtime]
        )

    def test_master_joins_the_worker_loop_at_the_barrier(self):
        # The master runs the same worker loop as every other thread once
        # it has created a region's tasks, so it executes tasks too.
        machine = _pinned_machine("software")
        machine.run()
        executed = [thread.tasks_executed for thread in machine.threads]
        assert machine.threads[0].is_master and executed[0] > 0
        assert sum(executed) == PINNED_RUNTIME_TASKS


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

    @pytest.mark.parametrize("base", ["event", "lock"])
    def test_command_subclass_yield_rejected(self, base):
        # Dispatch is keyed on the exact command type; a subclass is not
        # one of the three commands.
        from repro.sim.events import Acquire
        from repro.sim.resources import Lock

        engine = Engine()
        if base == "event":
            command = type("MyWait", (WaitEvent,), {})(SimEvent(engine, "e"))
        else:
            command = type("MyAcquire", (Acquire,), {})(Lock(engine, "l"))

        def body():
            yield command

        engine.process(body(), name="sub")
        with pytest.raises(SimulationError, match="unknown command"):
            engine.run()


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


class TestQueueOrdering:
    """The event heap plus the zero-delay ready deque behave as one global
    (time, seq) queue: short and long delays, pauses via run(until) and
    batched triggers all preserve that order."""

    def test_short_and_long_delays_interleave_by_time_then_seq(self):
        engine = Engine()
        trace = []
        # Short and long delays scheduled in one batch fire in time order.
        delays = [1, 1023, 1024, 1025, 3072, 7]

        def worker(tag, delay):
            yield delay
            trace.append((engine.now, tag))

        for tag, delay in enumerate(delays):
            engine.process(worker(tag, delay), name=f"w{tag}")
        engine.run()
        assert trace == sorted(trace), "events fired out of (time, seq) order"
        assert [now for now, _tag in trace] == sorted(delays)

    def test_same_cycle_ties_follow_scheduling_order(self):
        engine = Engine()
        trace = []

        def sleeper(tag, first, second):
            yield first
            trace.append((engine.now, tag, "a"))
            yield second
            trace.append((engine.now, tag, "b"))

        # Both processes reach cycle 1026: p0 via one long sleep, p1 via
        # two shorter ones.  p0 scheduled its arrival first, so it runs
        # first.
        engine.process(sleeper("p0", 1026, 1), name="p0")
        engine.process(sleeper("p1", 2, 1024), name="p1")
        engine.run()
        assert trace == [
            (2, "p1", "a"),
            (1026, "p0", "a"),
            (1026, "p1", "b"),
            (1027, "p0", "b"),
        ]

    def test_run_until_pauses_before_near_and_far_events(self):
        def build():
            engine = Engine()
            trace = []

            def worker(tag, delay):
                for _ in range(3):
                    yield delay
                    trace.append((engine.now, tag))

            engine.process(worker("near", 5), name="near")
            engine.process(worker("far", 1035), name="far")
            return engine, trace

        engine, full = build()
        engine.run()

        engine2, stepped = build()
        # Bounds before the first event, between events, exactly at an
        # event time, and far beyond it.
        for until in (3, 1024, 1035, 2078):
            assert engine2.run(until=until) == until
        engine2.run()
        assert stepped == full
        assert engine2.now == engine.now

    def test_ties_break_by_the_seq_claimed_when_the_delay_was_yielded(self):
        engine = Engine()
        trace = []

        def worker(tag, delays):
            for delay in delays:
                yield delay
            trace.append((tag, engine.now))

        # "p" is created first but yields 0 before its 4-cycle delay, so it
        # claims that delay's sequence number after "d4" claimed its own.
        engine.process(worker("p", [0, 4]), name="p")
        engine.process(worker("d4", [4]), name="d4")
        engine.process(worker("far", [1028]), name="far")
        engine.process(worker("d0", [0]), name="d0")
        engine.run()
        assert trace == [
            ("d0", 0),
            ("d4", 4),
            ("p", 4),
            ("far", 1028),
        ]

    def test_heap_entries_due_now_run_before_ready_entries_created_now(self):
        engine = Engine()
        trace = []

        def first():
            yield 5
            trace.append(("first", engine.now))
            yield 0  # claims a ready-deque seq during cycle 5
            trace.append(("first again", engine.now))

        def second():
            yield 5  # queued during cycle 0, so it precedes the yield 0
            trace.append(("second", engine.now))

        engine.process(first(), name="first")
        engine.process(second(), name="second")
        engine.run()
        assert trace == [("first", 5), ("second", 5), ("first again", 5)]

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
            yield 4096

        engine.process(sentinel(), name="sentinel")
        engine.run(until=engine.now + 1)  # let the waiter reach its yield
        # The stale finished process must be skipped without touching its
        # generator; the live waiter resumes with the batch value.
        _WaiterBatch([finished, live]).resume(42)
        assert woken == [42]
        assert finished.result is None

    def test_deadlock_detection_waits_for_pending_timed_events(self):
        # A pending timed event must keep the engine alive; once the queues
        # drain with a blocked process, DeadlockError still fires.
        from repro.errors import DeadlockError

        engine = Engine()

        def blocked():
            yield WaitEvent(SimEvent(engine, "never"))

        def worker():
            yield 2048

        engine.process(blocked(), name="blocked")
        engine.process(worker(), name="w")
        with pytest.raises(DeadlockError):
            engine.run()
        assert engine.now == 2048

    def test_deadlock_message_names_only_the_blocked_processes(self):
        from repro.errors import DeadlockError

        engine = Engine()

        def blocked():
            yield WaitEvent(SimEvent(engine, "never"))

        def finisher():
            yield 3

        engine.process(finisher(), name="done")
        engine.process(blocked(), name="stuck")
        with pytest.raises(DeadlockError, match=r"1 processes still blocked: \['stuck'\]"):
            engine.run()


class TestRunAhead:
    """The hazards of resuming a process inline instead of queueing it."""

    def test_lone_process_runs_ahead_in_one_dispatch(self, monkeypatch):
        from repro.sim import engine as engine_module

        dispatches = []
        resume = engine_module.Process.resume

        def counting_resume(process, value):
            dispatches.append(value)
            resume(process, value)

        monkeypatch.setattr(engine_module.Process, "resume", counting_resume)
        engine = Engine()
        trace = []

        def body():
            for delay in (3, 0, 4, 1):
                yield delay
                trace.append(engine.now)

        engine.process(body(), name="lone")
        assert engine.run() == 8
        assert trace == [3, 3, 7, 8]
        assert len(dispatches) == 1  # the start; every wakeup ran ahead
        assert engine._seq == 5  # ...and still consumed its seq

    def test_batch_waiter_does_not_run_ahead_of_later_waiters(self):
        # The first waiter's 1-cycle delay is shorter than anything queued,
        # but the second waiter was woken by the same trigger and must run
        # first.
        engine = Engine()
        event = SimEvent(engine, "broadcast")
        trace = []

        def waiter(tag, delay):
            got = yield WaitEvent(event)
            trace.append(("woke", tag, engine.now, got))
            yield delay
            trace.append(("after", tag, engine.now))

        def trigger():
            yield 2
            event.trigger("go")

        def far():
            yield 100
            trace.append(("far", engine.now))

        engine.process(waiter("a", 1), name="a")
        engine.process(waiter("b", 5), name="b")
        engine.process(trigger(), name="t")
        engine.process(far(), name="far")
        engine.run()
        assert trace == [
            ("woke", "a", 2, "go"),
            ("woke", "b", 2, "go"),
            ("after", "a", 3),
            ("after", "b", 7),
            ("far", 100),
        ]
        assert engine._hold == 0

    def test_wake_past_until_stays_queued(self):
        def build():
            engine = Engine()
            trace = []

            def lone():
                for delay in (3, 4, 50, 2):
                    yield delay
                    trace.append(engine.now)

            engine.process(lone(), name="lone")
            return engine, trace

        engine, full = build()
        engine.run()

        paused, stepped = build()
        assert paused.run(until=20) == 20
        assert paused.now == 20
        assert stepped == [3, 7]
        assert [entry[0] for entry in paused._queue] == [57]
        assert paused.run() == engine.now
        assert stepped == full == [3, 7, 57, 59]
        assert paused._seq == engine._seq

    def test_cycle_budget_stops_a_process_that_never_blocks(self):
        engine = Engine()

        def spin():
            while True:
                yield 1

        engine.process(spin(), name="spin")
        with pytest.raises(SimulationError, match="cycle budget of 1000 cycles"):
            engine.run_all(max_cycles=1000)
        assert engine.now == 1000


# --------------------------------------------------------------------------
# Reference kernel: every wakeup, zero-delay included, goes onto one
# (time, seq) heap; the run loop pops one entry at a time.  Same commands,
# same seq accounting (a multi-waiter trigger claims one seq), no ready
# deque, no run-ahead.
class _RefEngine:
    def __init__(self):
        self.now, self._seq, self._heap = 0, 0, []

    def schedule(self, time, target, value):
        heapq.heappush(self._heap, (time, self._seq, target, value))
        self._seq += 1

    def process(self, generator, name):
        process = types.SimpleNamespace(engine=self, name=name, finished=False, send=generator.send)
        process.resume = lambda value: _ref_resume(process, value)
        self.schedule(self.now, process, None)
        return process

    def run(self, until=None):
        while self._heap:
            if until is not None and self._heap[0][0] > until:
                self.now = until
                return until
            self.now, _seq, target, value = heapq.heappop(self._heap)
            target.resume(value)
        return self.now


def _ref_resume(process, value):
    engine = process.engine
    try:
        command = process.send(value)
    except StopIteration:
        process.finished = True
        return
    kind, thing = command
    if kind == "delay":
        engine.schedule(engine.now + thing, process, None)
    elif kind == "wait" and thing.triggered:
        engine.schedule(engine.now, process, thing.value)
    elif kind == "wait":
        thing.waiters.append(process)
    elif thing.holder is None:
        thing.holder = process
        engine.schedule(engine.now, process, None)
    else:
        thing.waiters.append(process)


class _RefEvent:
    def __init__(self, engine, name):
        self.engine, self.triggered, self.value, self.waiters = engine, False, None, []

    def trigger(self, value):
        if self.triggered:
            return
        self.triggered, self.value, waiters = True, value, self.waiters
        if len(waiters) == 1:
            self.engine.schedule(self.engine.now, waiters[0], value)
        elif waiters:
            batch = types.SimpleNamespace(resume=lambda v: [w.resume(v) for w in waiters])
            self.engine.schedule(self.engine.now, batch, value)


class _RefLock:
    def __init__(self, engine, name):
        self.engine, self.holder, self.waiters = engine, None, deque()

    def release(self, process):
        assert self.holder is process
        self.holder = self.waiters.popleft() if self.waiters else None
        if self.holder is not None:
            self.engine.schedule(self.engine.now, self.holder, None)


REAL_KERNEL = types.SimpleNamespace(
    Engine=Engine, Event=SimEvent, Lock=Lock,
    delay=lambda cycles: cycles, wait=WaitEvent, acquire=Acquire)
REFERENCE_KERNEL = types.SimpleNamespace(
    Engine=_RefEngine, Event=_RefEvent, Lock=_RefLock,
    delay=lambda cycles: ("delay", cycles), wait=lambda event: ("wait", event),
    acquire=lambda lock: ("acquire", lock))

N_EVENTS, N_LOCKS = 3, 2
OPS = st.one_of(
    st.tuples(st.just("delay"), st.integers(0, 12)),
    st.tuples(st.just("wait"), st.integers(0, N_EVENTS - 1)),
    st.tuples(st.just("trigger"), st.integers(0, N_EVENTS - 1)),
    st.tuples(st.just("lock"), st.integers(0, N_LOCKS - 1), st.integers(0, 4)),
)


def _simulate(kernel, scripts, pauses):
    """Run ``scripts`` on ``kernel``: the (now, process, value) trace of
    every resumption, each run's return value, the final seq and clock."""
    engine = kernel.Engine()
    events = [kernel.Event(engine, f"e{index}") for index in range(N_EVENTS)]
    locks = [kernel.Lock(engine, f"l{index}") for index in range(N_LOCKS)]
    trace = []

    def body(name, ops, handle):
        trace.append((engine.now, name, None))
        for index, (op, target, *rest) in enumerate(ops):
            if op == "trigger":
                events[target].trigger((name, index))
                continue
            if op == "delay":
                got = yield kernel.delay(target)
            elif op == "wait":
                got = yield kernel.wait(events[target])
            else:  # a critical section: acquire, hold for rest[0] cycles, release
                got = yield kernel.acquire(locks[target])
                trace.append((engine.now, name, got))
                got = yield kernel.delay(rest[0])
                locks[target].release(handle[0])
            trace.append((engine.now, name, got))

    def closer():  # triggers every event late, so no waiter is left blocked
        yield kernel.delay(500)
        for event in events:
            event.trigger("closer")

    for number, ops in enumerate(scripts):
        handle = []
        handle.append(engine.process(body(f"p{number}", ops, handle), f"p{number}"))
    engine.process(closer(), "closer")
    returns = [engine.run(until=until) for until in sorted(pauses)]
    returns.append(engine.run())
    return trace, returns, engine._seq, engine.now


class TestReferenceOracle:
    @settings(max_examples=200, deadline=None)
    @given(scripts=st.lists(st.lists(OPS, max_size=10), min_size=1, max_size=5),
           pauses=st.lists(st.integers(0, 60), max_size=3))
    def test_engine_matches_the_single_heap_reference(self, scripts, pauses):
        assert _simulate(REAL_KERNEL, scripts, pauses) == _simulate(REFERENCE_KERNEL, scripts, pauses)

    def test_oracle_sees_batches_locks_and_pauses(self):
        # One fixed script through both kernels: three waiters on one event
        # (a batch), a contended lock and two pauses.
        scripts = [
            [("wait", 0), ("delay", 1)],
            [("wait", 0), ("delay", 0), ("lock", 0, 3)],
            [("wait", 0), ("lock", 0, 2), ("delay", 7)],
            [("delay", 2), ("trigger", 0), ("lock", 0, 4)],
        ]
        real = _simulate(REAL_KERNEL, scripts, [1, 5])
        assert real == _simulate(REFERENCE_KERNEL, scripts, [1, 5])
        assert real[1][:2] == [1, 5]
        assert (2, "p0", ("p3", 1)) in real[0]


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
