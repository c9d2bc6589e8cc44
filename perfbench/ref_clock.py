"""Host-time measurement in reference seconds.

The benchmark runs on a few vCPUs of a shared machine whose speed changes
by a third within seconds and by twice over an hour, with CPU time equal to
wall time: the cores get slower, nothing waits.  Raw seconds measured at
different times therefore do not compare.  :class:`ReferenceClock` brackets
every timed stretch with a short, fixed piece of work (the :class:`Probe`:
read and parse a few small JSON files) and rescales the stretch to a host
on which the probe takes :data:`REFERENCE_PROBE_S`::

    reference seconds = raw seconds x REFERENCE_PROBE_S / mean(probe before, probe after)

The probe runs between stretches, never inside one, so it adds no time to
what is measured.  It calls no ``repro`` code, so a change to the program
cannot move it.  Long stretches are cut into laps (:meth:`ReferenceClock.lap`)
so that each lap's speed is read right next to it.

Simulations that run in campaign pool workers are rescaled by probes taken
inside the worker, around each simulation (:class:`WorkerSpeed`).
"""

from __future__ import annotations

import functools
import json
import os
import pathlib
import time
from typing import Callable, Dict, List, Tuple

#: Files one probe reads and parses, and rows in each.
PROBE_FILES = 8
PROBE_ROWS = 40
#: Seconds of one probe on the reference host (a quiet 2-vCPU x86-64 VM with
#: CPython 3.11); reference seconds are seconds on that host.
REFERENCE_PROBE_S = 0.0006
#: A worker whose last probe is older than this probes again before a run.
WORKER_PROBE_MAX_AGE_S = 0.5


def _probe_document(index: int) -> Dict[str, object]:
    """The fixed content of probe file ``index`` (about 5 kB of JSON)."""
    return {
        "file": index,
        "rows": [
            {"k": ((row * 7919 + index) % 1000) / 1000.0,
             "v": [(row * 31 + column * 17 + index) % 1000 for column in range(20)]}
            for row in range(PROBE_ROWS)
        ],
    }


class Probe:
    """The reference work: read and parse :data:`PROBE_FILES` small JSON files.

    Of a tight arithmetic loop, random lookups in a large dict, and this,
    this tracked the replay and the warm render best while the host's
    speed swung by 1.8x: it makes system calls and allocates many small
    objects, as they do.  Calling it returns its seconds.
    """

    def __init__(self, directory: pathlib.Path) -> None:
        directory = pathlib.Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        self.paths: List[pathlib.Path] = []
        for index in range(PROBE_FILES):
            path = directory / f"probe-{index}.json"
            path.write_text(json.dumps(_probe_document(index)), encoding="utf-8")
            self.paths.append(path)

    def __call__(self) -> float:
        started = time.perf_counter()
        for path in self.paths:
            json.loads(path.read_bytes())
        return time.perf_counter() - started


def reference_factor(before: float, after: float) -> float:
    """Reference seconds per raw second, from the probes around a stretch."""
    return REFERENCE_PROBE_S * 2.0 / (before + after)


class ReferenceClock:
    """Times one stretch of work at a time, in raw and reference seconds.

    ``start()`` probes and starts the stretch; ``lap()`` probes, adds the
    time since the last probe to the stretch and carries on; ``stop()``
    ends the stretch and returns its ``(raw, reference)`` seconds.
    """

    def __init__(self, probe: Callable[[], float]) -> None:
        self.probe = probe
        self._before = 0.0
        self._started = 0.0
        self._raw = 0.0
        self._ref = 0.0

    def start(self) -> None:
        self._before = self.probe()
        self._raw = self._ref = 0.0
        self._started = time.perf_counter()

    def lap(self) -> None:
        elapsed = time.perf_counter() - self._started
        after = self.probe()
        self._raw += elapsed
        self._ref += elapsed * reference_factor(self._before, after)
        self._before = after
        self._started = time.perf_counter()

    def stop(self) -> Tuple[float, float]:
        self.lap()
        return self._raw, self._ref

    def time(self, function: Callable, *args, **kwargs) -> Tuple[object, float, float]:
        """``function(*args, **kwargs)`` as one stretch: ``(result, raw, reference)``."""
        self.start()
        result = function(*args, **kwargs)
        raw, ref = self.stop()
        return result, raw, ref


class WorkerSpeed:
    """The reference factor of each simulation run by a campaign pool worker.

    While installed, ``repro.experiments.campaign._simulate_entry`` (the
    pool worker body) is wrapped: the worker probes before a simulation
    (unless it probed less than :data:`WORKER_PROBE_MAX_AGE_S` ago) and
    after it, and appends ``[key, seconds, before, after]`` to
    ``<directory>/speed-<pid>.jsonl``.  Workers are forked while the wrapper
    is installed, so they inherit it; ``functools.wraps`` keeps the
    original's name, so the pool pickles the wrapper by the same reference.
    """

    def __init__(self, directory: pathlib.Path) -> None:
        self.directory = pathlib.Path(directory)
        self._original = None

    def install(self, probe: Callable[[], float]) -> None:
        from repro.experiments import campaign

        if self._original is not None:
            raise RuntimeError("worker speed probe already installed")
        self.directory.mkdir(parents=True, exist_ok=True)
        self._original = campaign.__dict__["_simulate_entry"]
        campaign._simulate_entry = _speed_entry(self._original, self.directory, probe)

    def uninstall(self) -> None:
        from repro.experiments import campaign

        if self._original is not None:
            campaign._simulate_entry = self._original
            self._original = None

    def collect(self) -> Dict[str, float]:
        """``{key: reference factor}`` of the runs recorded since the last call."""
        factors: Dict[str, float] = {}
        for path in sorted(self.directory.glob("speed-*.jsonl")):
            for line in path.read_text(encoding="utf-8").splitlines():
                key, _, before, after = json.loads(line)
                factors[key] = reference_factor(before, after)
            path.unlink()
        return factors


def _speed_entry(entry: Callable, directory: pathlib.Path,
                 probe: Callable[[], float]) -> Callable:
    last = {"pid": 0, "probe": 0.0, "at": 0.0}

    @functools.wraps(entry)
    def speed_entry(payload):
        pid = os.getpid()
        if last["pid"] != pid or time.perf_counter() - last["at"] > WORKER_PROBE_MAX_AGE_S:
            last["pid"], last["probe"] = pid, probe()
        outcome = entry(payload)
        after = probe()
        key, _, seconds = outcome
        with (directory / f"speed-{pid}.jsonl").open("a", encoding="utf-8") as handle:
            handle.write(json.dumps([key, seconds, last["probe"], after]) + "\n")
        last["probe"], last["at"] = after, time.perf_counter()
        return outcome

    return speed_entry
