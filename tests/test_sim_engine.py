"""Discrete-event kernel: engine, processes, events."""

import pytest

from repro.errors import DeadlockError, SimulationError
from repro.sim.engine import Engine
from repro.sim.events import NotificationEvent, WaitEvent


def test_timeout_advances_clock():
    engine = Engine()
    log = []

    def body():
        yield 10
        log.append(engine.now)
        yield 5
        log.append(engine.now)

    engine.process(body(), name="p")
    engine.run()
    assert log == [10, 15]


def test_process_return_value_captured():
    engine = Engine()

    def body():
        yield 1
        return 42

    process = engine.process(body(), name="p")
    engine.run()
    assert process.finished
    assert process.result == 42


def test_same_time_events_processed_in_scheduling_order():
    engine = Engine()
    order = []

    def body(tag):
        yield 10
        order.append(tag)

    for tag in ("a", "b", "c"):
        engine.process(body(tag), name=tag)
    engine.run()
    assert order == ["a", "b", "c"]


def test_determinism_two_identical_runs():
    def build_and_run():
        engine = Engine()
        trace = []

        def worker(tag, delay):
            yield delay
            trace.append((engine.now, tag))
            yield delay * 2
            trace.append((engine.now, tag))

        for index in range(5):
            engine.process(worker(f"w{index}", index + 1), name=f"w{index}")
        engine.run()
        return trace

    assert build_and_run() == build_and_run()


def test_wait_event_resumes_with_value():
    engine = Engine()
    event = engine.event("data")
    seen = []

    def waiter():
        value = yield WaitEvent(event)
        seen.append(value)

    def producer():
        yield 30
        event.trigger("payload")

    engine.process(waiter(), name="waiter")
    engine.process(producer(), name="producer")
    engine.run()
    assert seen == ["payload"]
    assert engine.now == 30


def test_waiting_on_already_triggered_event_resumes_immediately():
    engine = Engine()
    event = engine.event("done")
    event.trigger("early")
    seen = []

    def waiter():
        value = yield WaitEvent(event)
        seen.append((engine.now, value))

    engine.process(waiter(), name="waiter")
    engine.run()
    assert seen == [(0, "early")]


def test_event_trigger_is_idempotent():
    engine = Engine()
    event = engine.event("once")
    event.trigger(1)
    event.trigger(2)
    assert event.value == 1


def test_notification_event_rearms():
    engine = Engine()
    channel = NotificationEvent(engine, "notify")
    woken = []

    def waiter(tag):
        target = channel.wait_target()
        yield WaitEvent(target)
        woken.append((tag, engine.now))
        target = channel.wait_target()
        yield WaitEvent(target)
        woken.append((tag, engine.now))

    def notifier():
        yield 5
        channel.notify_all()
        yield 5
        channel.notify_all()

    engine.process(waiter("w"), name="w")
    engine.process(notifier(), name="n")
    engine.run()
    assert woken == [("w", 5), ("w", 10)]


def test_deadlock_detection():
    engine = Engine()
    event = engine.event("never")

    def stuck():
        yield WaitEvent(event)

    engine.process(stuck(), name="stuck")
    with pytest.raises(DeadlockError):
        engine.run()


def test_run_until_stops_early():
    engine = Engine()
    log = []

    def body():
        yield 100
        log.append("late")

    engine.process(body(), name="p")
    now = engine.run(until=50)
    assert now == 50
    assert log == []


def test_run_until_below_the_clock_is_rejected():
    engine = Engine()
    log = []

    def body():
        yield 10
        log.append(engine.now)
        yield 10
        log.append(engine.now)

    engine.process(body(), name="p")
    assert engine.run(until=12) == 12
    with pytest.raises(SimulationError, match="clock is already at 12"):
        engine.run(until=5)
    # The refused call left the clock and the queued wake at 20 alone.
    assert engine.now == 12
    assert engine.run(until=12) == 12
    assert engine.run() == 20
    assert log == [10, 20]


def test_run_all_enforces_cycle_budget():
    engine = Engine()

    def body():
        yield 1000

    engine.process(body(), name="p")
    with pytest.raises(SimulationError):
        engine.run_all(max_cycles=10)


def test_exception_in_process_is_wrapped():
    engine = Engine()

    def bad():
        yield 1
        raise RuntimeError("boom")

    engine.process(bad(), name="bad")
    with pytest.raises(SimulationError, match="bad"):
        engine.run()


def test_unknown_command_rejected():
    # Fractional cycle counts are not timeouts: cost models round first.
    for command in ("not a command", 2.5):
        engine = Engine()

        def body():
            yield command

        engine.process(body(), name="p")
        with pytest.raises(SimulationError, match="unknown command"):
            engine.run()
