"""FIFO lock resource."""

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Engine
from repro.sim.events import Acquire
from repro.sim.resources import Lock


def test_lock_grants_in_fifo_order():
    engine = Engine()
    lock = Lock(engine, "l")
    order = []

    def worker(tag, start_delay, hold):
        yield start_delay
        yield Acquire(lock)
        order.append((tag, engine.now))
        yield hold
        lock.release(process_map[tag])

    process_map = {}
    for tag, delay in (("a", 0), ("b", 1), ("c", 2)):
        process_map[tag] = engine.process(worker(tag, delay, 10), name=tag)
    engine.run()
    assert [tag for tag, _ in order] == ["a", "b", "c"]
    # b waits for a's release at t=10, c for b's at t=20.
    assert [t for _, t in order] == [0, 10, 20]


def test_lock_statistics():
    engine = Engine()
    lock = Lock(engine, "l")
    procs = {}

    def worker(tag):
        yield Acquire(lock)
        yield 4
        lock.release(procs[tag])

    for tag in ("a", "b"):
        procs[tag] = engine.process(worker(tag), name=tag)
    engine.run()
    assert lock.acquisitions == 2
    assert lock.total_hold_cycles == 8
    assert lock.total_wait_cycles == 4
    assert lock.average_wait_cycles() == 2.0
    assert lock.max_queue_length == 1
    assert not lock.locked


def test_release_by_non_holder_rejected():
    engine = Engine()
    lock = Lock(engine, "l")
    procs = {}

    def holder():
        yield Acquire(lock)
        yield 100
        lock.release(procs["holder"])

    def intruder():
        yield 1
        lock.release(procs["intruder"])

    procs["holder"] = engine.process(holder(), name="holder")
    procs["intruder"] = engine.process(intruder(), name="intruder")
    with pytest.raises(SimulationError):
        engine.run()


def test_uncontended_lock_has_no_wait():
    engine = Engine()
    lock = Lock(engine, "l")
    procs = {}

    def worker():
        yield Acquire(lock)
        lock.release(procs["w"])
        yield 1

    procs["w"] = engine.process(worker(), name="w")
    engine.run()
    assert lock.average_wait_cycles() == 0.0
    assert lock.queue_length == 0
