"""Parallel campaign engine with content-hashed result caching.

The paper's evaluation is a large cartesian sweep — 9 benchmarks x 4
runtimes x 5 schedulers x DMU sizing sweeps — in which every point is an
independent simulation.  :class:`CampaignEngine` turns that into an
embarrassingly parallel, incrementally resumable campaign:

* every run is identified by a canonical content hash of its full
  configuration (:func:`~repro.experiments.cache.canonical_run_key`), so two
  requests collide only when they would produce the identical simulation;
* results are memoized in-process *and* optionally persisted to an on-disk
  :class:`~repro.experiments.cache.ResultCache`, so re-invoking an experiment
  (or the benchmark suite) skips every already-simulated point;
* :meth:`CampaignEngine.run_many` is the one way a cold point gets
  simulated: a round loop that retries transient failures (at most
  :data:`~repro.reliability.retry.MAX_ATTEMPTS` attempts per key, with no
  wait between rounds) and commits in key-sorted order, so the campaign
  output is bit-identical whatever the completion order or worker count.
  Serial is a one-worker campaign: every attempt runs the one body,
  :func:`_simulate_entry`, in-process (``jobs == 1``) or on the engine's
  :class:`WorkerPool`, kept warm across rounds and batches, and every
  outcome is the serialized result.

:class:`~repro.experiments.common.SimulationRunner` is a thin façade over
this engine; the experiment harnesses declare their sweeps as lists of
:class:`RunRequest` (their ``plan`` functions) and the registry runs every
render's plan through :meth:`run_many` before the harness builds its rows.
"""

from __future__ import annotations

import collections
import functools
import multiprocessing
import multiprocessing.connection
import multiprocessing.util
import os
import pathlib
import queue
import threading
import time
import traceback
from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Callable, Deque, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from ..config import DMUConfig, SimulationConfig, default_paper_config
from ..errors import ExperimentError
from ..reliability.faults import active_spec, ensure_plan, install_plan, maybe_fault
from ..reliability.retry import MAX_ATTEMPTS, TRANSIENT_ERROR_TYPES
from ..reliability.watchdog import WatchdogConfig
from ..runtime.task import TaskProgram
from ..sim.machine import SimulationResult, run_simulation
from ..workloads.registry import create_workload, workload_factory
from . import reuse
from .cache import ResultCache, canonical_json, canonical_run_key

#: Runtimes whose optimal-granularity default follows the TDM optimum.
_TDM_GRANULARITY_RUNTIMES = ("tdm", "task_superscalar")

#: Sentinel field marking a worker return value as a captured failure rather
#: than a serialized result (no SimulationResult dict ever contains it).
_ERROR_MARKER = "__campaign_error__"

#: Field marking a serialized result as produced by a verified DMU replay
#: (:mod:`repro.experiments.reuse`); the engine pops it before committing.
_REUSED_MARKER = "__trajectory_reused__"

#: Field carrying a ``payload["record"]`` run's DMU trace back to the engine,
#: which pops it before committing.
_RECORDED = "__trajectory_trace__"

#: One attempt's outcome: ``(key, serialized result | error marker, seconds)``.
_Outcome = Tuple[str, Dict[str, object], float]


def _error_marker(params: Dict[str, object], error_type: str, message: str,
                  worker_traceback: str = "") -> Dict[str, object]:
    """A captured failure, returned in place of a serialized result."""
    return {
        _ERROR_MARKER: {
            "params": params,
            "error_type": error_type,
            "error_message": message,
            "traceback": worker_traceback,
        }
    }


class CampaignRunError(ExperimentError):
    """A simulation inside a campaign batch failed.

    Raw ``multiprocessing`` pool tracebacks identify neither the run nor the
    workload; this wrapper carries the canonical run key and the workload
    parameters so a failed point is diagnosable from the log alone.
    """

    def __init__(self, key: str, params: Dict[str, object], error_type: str,
                 error_message: str, worker_traceback: str = "",
                 attempts: Optional[List[Dict[str, object]]] = None) -> None:
        self.key = key
        self.params = dict(params)
        self.error_type = error_type
        self.error_message = error_message
        self.worker_traceback = worker_traceback
        #: Per-attempt failure records (``{"attempt", "error_type",
        #: "error_message"}``) when this key used up its ``MAX_ATTEMPTS``
        #: attempts; the last entry matches the headline error.
        self.attempts = list(attempts or [])
        described = ", ".join(f"{name}={value!r}" for name, value in self.params.items())
        suffix = f" after {len(self.attempts)} attempts" if len(self.attempts) > 1 else ""
        super().__init__(
            f"simulation {key[:12]}… failed{suffix} ({described}): "
            f"{error_type}: {error_message}"
        )


def _run_params(payload: Dict[str, object]) -> Dict[str, object]:
    """The human-facing workload parameters of one worker payload."""
    config = payload["config"]
    return {
        "benchmark": payload["benchmark"],
        "runtime": config["runtime"],
        "scheduler": config["scheduler"],
        "scale": payload["scale"],
        "granularity": payload["granularity"],
        "granularity_runtime": payload["workload_runtime"],
        "seed": payload["seed"],
    }


@dataclass(frozen=True)
class RunRequest:
    """One simulation the caller wants: the arguments of ``runner.run``."""

    benchmark: str
    runtime: str
    scheduler: str = "fifo"
    granularity: Optional[int] = None
    dmu: Optional[DMUConfig] = None
    granularity_runtime: Optional[str] = None


@dataclass(frozen=True)
class ResolvedRun:
    """A request resolved against the engine: canonical key + full config."""

    request: RunRequest
    key: str
    config: SimulationConfig
    #: Runtime whose Table-II optimal granularity shapes the workload when
    #: the request gives no explicit granularity; None otherwise.
    workload_runtime: Optional[str]
    #: ``config.to_dict()``, derived once per engine and shared by every run
    #: with the same runtime, scheduler and DMU: the dict pool payloads ship
    #: (the key hashes its canonical JSON text, encoded once).  Read-only.
    config_dict: Dict[str, object] = field(compare=False, repr=False)


#: Built programs kept by :func:`build_program`.  Workload sweeps (the
#: granularity figures) produce many distinct programs; keys are tiny but
#: programs are not.
_PROGRAM_MEMO_SIZE = 16


def build_program(
    benchmark: str,
    scale: float,
    granularity: Optional[int],
    workload_runtime: Optional[str],
    seed: int,
) -> TaskProgram:
    """The task program of one workload point, built once per process.

    The one program memo of both execution paths: in-process runs and pool
    workers call it alike.  Sweeps that vary only the runtime, scheduler or
    DMU (every scheduler figure, the runtime comparisons) re-simulate the
    *same* program.  Sharing is safe: :class:`TaskProgram` and everything it
    references are immutable, and all per-run state lives in the
    :class:`TaskInstance` objects the runtime materializes.  The memo key is
    every build input, and generation is deterministic in them, so a
    memoized program is indistinguishable from a rebuilt one.
    """
    return _memoized_program(
        workload_factory(benchmark), benchmark, scale, granularity, workload_runtime, seed
    )


@functools.lru_cache(maxsize=_PROGRAM_MEMO_SIZE)
def _memoized_program(
    factory: object,
    benchmark: str,
    scale: float,
    granularity: Optional[int],
    workload_runtime: Optional[str],
    seed: int,
) -> TaskProgram:
    # ``factory`` only keys the memo: a name re-registered with another
    # generator (``register_workload(..., replace=True)``) is rebuilt.
    workload = create_workload(
        benchmark, scale=scale, granularity=granularity, runtime=workload_runtime, seed=seed
    )
    return workload.build_program()


#: Characteristics kept by :func:`workload_characteristics`.  Entries are
#: eight numbers, so the bound holds many full Table II renders (18 points
#: each); the program memo's 16 would miss on every point of one render.
_CHARACTERISTICS_MEMO_SIZE = 256


def workload_characteristics(
    benchmark: str,
    scale: float,
    granularity: Optional[int],
    workload_runtime: Optional[str],
    seed: int,
) -> Mapping[str, object]:
    """``Workload.describe()`` of one workload point, built once per process.

    Keyed like :func:`build_program` (the registered generator included, so
    a re-registered name is recomputed).  Table II reads only these numbers,
    so a repeated render in one process builds no program.  The returned
    mapping is a read-only view of the shared memo entry.
    """
    return _memoized_characteristics(
        workload_factory(benchmark), benchmark, scale, granularity, workload_runtime, seed
    )


@functools.lru_cache(maxsize=_CHARACTERISTICS_MEMO_SIZE)
def _memoized_characteristics(
    factory: object,
    benchmark: str,
    scale: float,
    granularity: Optional[int],
    workload_runtime: Optional[str],
    seed: int,
) -> Mapping[str, object]:
    workload = create_workload(
        benchmark, scale=scale, granularity=granularity, runtime=workload_runtime, seed=seed
    )
    return MappingProxyType(workload.describe())


def _simulate_entry(payload: Dict[str, object]) -> Tuple[str, Dict[str, object], float]:
    """The one attempt body: rebuild the run from plain dicts and simulate it.

    A one-worker campaign calls it in-process, a pool campaign in its
    workers; the engine looks it up on this module at call time in both
    modes, so a wrapper installed here sees every attempt.  Lives at module
    scope so it pickles under both fork and spawn start methods.  Returns
    the canonical key with the serialized result and the wall seconds the
    point took (workload build + simulation, recorded in
    ``CampaignEngine.key_timings``); the engine performs the deterministic
    merge.  An attempt reads nothing but its payload: a verified replay of
    the trace in ``payload["trace"]`` (:func:`repro.experiments.reuse.replayed`)
    stands in for the build and the simulation, and a ``payload["record"]``
    run returns its DMU trace in the result's :data:`_RECORDED` field.
    Exceptions are captured into an error marker (rather than poisoning the
    pool with a raw remote traceback) so the engine can attach the
    offending key and workload parameters — and so one bad point does not
    discard its batchmates.
    """
    started = time.perf_counter()
    try:
        attempt = int(payload.get("attempt", 1))
        spec = payload.get("faults")
        # Exactly the payload's fault plan, on every attempt: a warm worker
        # outlives the plan its last payload carried.  The same spec keeps
        # its counters (a fork worker's are the inherited ones).
        if spec:
            ensure_plan(spec)
        else:
            install_plan(None)
        maybe_fault("sim", payload["key"], attempt)
        config = SimulationConfig.from_dict(payload["config"])
        if "trace" in payload:
            replayed = reuse.replayed(payload["trace"], config)
            if replayed is not None:
                serialized = replayed.to_dict()
                serialized[_REUSED_MARKER] = True
                return payload["key"], serialized, time.perf_counter() - started
        program = build_program(
            payload["benchmark"],
            payload["scale"],
            payload["granularity"],
            payload["workload_runtime"],
            payload["seed"],
        )
        if payload.get("record"):
            with reuse.recording(reuse.DMUTrace()) as trace:
                serialized = run_simulation(program, config).to_dict()
            serialized[_RECORDED] = trace
        else:
            serialized = run_simulation(program, config).to_dict()
    except Exception as error:  # noqa: BLE001 - reported with full context
        marker = _error_marker(
            _run_params(payload), type(error).__name__, str(error), traceback.format_exc()
        )
        return payload["key"], marker, time.perf_counter() - started
    return payload["key"], serialized, time.perf_counter() - started


def _worker_main(conn: multiprocessing.connection.Connection,
                 parent_end: multiprocessing.connection.Connection) -> None:
    """A pool worker's life: answer each payload the parent sends with its
    :func:`_simulate_entry` outcome, until the parent's end closes.

    The body is looked up on this module per payload, so a wrapper
    installed here before the fork is what the worker runs.
    """
    parent_end.close()  # a forked copy would keep the pipe open after the parent
    while True:
        try:
            payload = conn.recv()
        except EOFError:
            return
        conn.send(_simulate_entry(payload))


def _struck(payload: Dict[str, object], error_type: str, message: str,
            seconds: float) -> _Outcome:
    """The outcome of a payload whose worker produced no result."""
    return payload["key"], _error_marker(_run_params(payload), error_type, message), seconds


#: Strikes the pool hands out for an attempt its worker never answered.
_STRIKES = ("WorkerCrash", "WorkerTimeout")

#: A queued payload and who gets its outcome: ``(payload, landed)``.
_Job = Tuple[Dict[str, object], Callable[[_Outcome], None]]


class _Worker:
    """One worker process, the parent's end of its pipe and its payload."""

    def __init__(self) -> None:
        self.conn, child = multiprocessing.Pipe()
        self.process = multiprocessing.Process(
            target=_worker_main, args=(child, self.conn), name="campaign-worker", daemon=True
        )
        self.process.start()
        child.close()
        #: The payload being simulated (None when idle), who gets its
        #: outcome (None once cancelled), and when it was sent and is due.
        self.payload: Optional[Dict[str, object]] = None
        self.landed: Optional[Callable[[_Outcome], None]] = None
        self.started = self.deadline = 0.0

    def reap(self) -> None:
        """Kill the process, wait for it and close the pipe."""
        self.process.kill()
        self.process.join()
        self.conn.close()


class _Dispatcher:
    """The workers, queue and dispatch loop behind a :class:`WorkerPool`.

    The loop runs on a daemon thread that holds this object, never the
    pool, so dropping the pool runs its finalizer.  Every field is guarded
    by ``lock``; the loop waits outside it.
    """

    def __init__(self, processes: int, deadline_s: float) -> None:
        self.processes = processes
        self.deadline_s = deadline_s
        self.lock = threading.Lock()
        self.queue: Deque[_Job] = collections.deque()
        self.workers: List[_Worker] = []
        self.closed = False
        self.wake_r = self.wake_w = -1

    def submit(self, payloads: Sequence[Dict[str, object]],
               landed: Callable[[_Outcome], None]) -> None:
        with self.lock:
            if self.closed:
                raise ExperimentError("the campaign worker pool is closed")
            if not self.workers:
                self.wake_r, self.wake_w = os.pipe()
                os.set_blocking(self.wake_w, False)
                self.workers = [_Worker() for _ in range(self.processes)]
                threading.Thread(target=self.run, name="campaign-dispatch", daemon=True).start()
            self.queue.extend((payload, landed) for payload in payloads)
            self._wake()

    def cancel(self, landed: Callable[[_Outcome], None]) -> None:
        with self.lock:
            self.queue = collections.deque(job for job in self.queue if job[1] is not landed)
            for worker in self.workers:
                if worker.landed is landed:
                    worker.landed, worker.deadline = None, 0.0  # killed at once
            if self.workers:
                self._wake()

    def close(self, error: Optional[BaseException] = None) -> None:
        """Kill every worker; every payload still owed an outcome gets
        ``error`` (by default: the pool is closed).  Idempotent."""
        with self.lock:
            if self.closed:
                return
            if self.workers:
                self._wake()
            self.closed = True
            error_type, message = (
                (type(error).__name__, str(error)) if error is not None
                else ("ExperimentError", "the campaign worker pool is closed")
            )
            for worker in self.workers:
                worker.reap()
                if worker.payload is not None and worker.landed is not None:
                    worker.landed(_struck(worker.payload, error_type, message, 0.0))
            for payload, landed in self.queue:
                landed(_struck(payload, error_type, message, 0.0))
            self.workers, self.queue = [], collections.deque()

    def _wake(self) -> None:
        try:
            os.write(self.wake_w, b"\0")
        except BlockingIOError:
            pass  # a wake-up is already pending

    def run(self) -> None:
        """The dispatch loop, until the pool closes."""
        try:
            while self._turn():
                pass
        except BaseException as error:  # noqa: BLE001 - owed outcomes carry it
            self.close(error)
        finally:
            with self.lock:
                os.close(self.wake_r)
                os.close(self.wake_w)

    def _turn(self) -> bool:
        """Send queued payloads to idle workers, wait for a result, a death,
        a wake-up or the earliest deadline, and settle what happened."""
        with self.lock:
            if self.closed:
                return False
            now = time.monotonic()
            for worker in self.workers:
                if worker.payload is None and self.queue:
                    self._send(worker, now)
            busy = [worker for worker in self.workers if worker.payload is not None]
            waits = [self.wake_r, *(worker.process.sentinel for worker in self.workers),
                     *(worker.conn for worker in busy)]
            timeout = max(0.0, min(w.deadline for w in busy) - now) if busy else None
        ready = set(multiprocessing.connection.wait(waits, timeout))
        with self.lock:
            if self.closed:
                return False
            if self.wake_r in ready:
                os.read(self.wake_r, 4096)
            now = time.monotonic()
            for index, worker in enumerate(self.workers):
                if worker.payload is not None and worker.conn in ready:
                    try:
                        outcome = worker.conn.recv()
                    except (EOFError, OSError):
                        ready.add(worker.process.sentinel)  # its pipe closed: it died
                    else:
                        landed = worker.landed
                        worker.payload = worker.landed = None
                        if landed is not None:
                            landed(outcome)
                dead = worker.process.sentinel in ready
                if dead or (worker.payload is not None and now >= worker.deadline):
                    self._replace(index, dead, now)
        return True

    def _send(self, worker: _Worker, now: float) -> None:
        payload, landed = job = self.queue.popleft()
        try:
            worker.conn.send(payload)
        except OSError:  # the worker died idle; its sentinel reports it
            self.queue.appendleft(job)
            return
        worker.payload, worker.landed = payload, landed
        worker.started, worker.deadline = now, now + self.deadline_s

    def _replace(self, index: int, dead: bool, now: float) -> None:
        """Reap a dead or overdue worker, strike its payload and fork one
        replacement."""
        worker = self.workers[index]
        worker.reap()
        if worker.payload is not None and worker.landed is not None:
            seconds = now - worker.started
            if dead:
                error = ("WorkerCrash", f"worker exited with code {worker.process.exitcode}")
            else:
                error = ("WorkerTimeout", f"no result after {seconds:.1f}s (deadline "
                         f"{worker.deadline - worker.started:.1f}s); worker killed")
            worker.landed(_struck(worker.payload, *error, seconds))
        self.workers[index] = _Worker()


class WorkerPool:
    """Campaign worker processes, kept warm across rounds and batches.

    ``processes`` workers, each on its own pipe, forked on the first
    :meth:`submit` and serving every later one, so a worker keeps its
    :func:`build_program` memo from one batch (one figure) to the next.  A
    dispatcher thread sends each queued payload to an idle worker and hands
    every payload exactly one outcome: its result, a ``WorkerCrash`` strike
    as soon as its worker is seen dead, or a ``WorkerTimeout`` strike when
    it is still running ``deadline_s`` after it reached its worker (the
    worker is killed).  A dead or killed worker is reaped before its one
    replacement forks, so no more than ``processes`` workers are ever
    alive, and no other worker is disturbed.  :meth:`close` kills the
    workers for good; a finalizer does the same when the pool is collected
    or the interpreter exits.
    """

    def __init__(self, processes: int, deadline_s: float) -> None:
        self._dispatcher = _Dispatcher(processes, deadline_s)
        # Runs before multiprocessing reaps daemonic children at exit, so
        # the dispatcher never sees a worker die under it and fork another.
        self._reaper = multiprocessing.util.Finalize(
            self, self._dispatcher.close, exitpriority=10
        )

    def submit(self, payloads: Sequence[Dict[str, object]],
               landed: Callable[[_Outcome], None]) -> None:
        """Queue one :func:`_simulate_entry` call per payload.  ``landed``
        gets each outcome, on the dispatcher thread; it is also this
        submission's handle for :meth:`cancel`."""
        self._dispatcher.submit(payloads, landed)

    def cancel(self, landed: Callable[[_Outcome], None]) -> None:
        """Drop the payloads submitted with ``landed`` that have no outcome
        yet: queued ones are dequeued, running ones have their worker killed
        and replaced.  ``landed`` gets nothing more."""
        self._dispatcher.cancel(landed)

    def close(self) -> None:
        """Kill the workers and refuse later work.  Idempotent."""
        self._reaper()


class CampaignEngine:
    """Runs, parallelizes, memoizes and persists benchmark simulations.

    The engine is the single entry point between the experiment harnesses
    and the simulator (``docs/architecture.md`` shows the layering):

    * **Identity** — every :class:`RunRequest` resolves to a canonical
      SHA-256 run key over the full configuration and workload parameters
      (:func:`repro.experiments.cache.canonical_run_key`); the key is the
      memo key and the disk-cache filename.
    * **Memoization** — results are cached in-process and, with
      ``cache_dir``, in a :class:`~repro.experiments.cache.ResultCache`;
      reruns simulate only what is missing.
    * **Execution** — :meth:`run_many` simulates uncached runs in one
      retrying loop through one attempt body, in-process or on the engine's
      :class:`WorkerPool` (``jobs > 1``), and commits
      serialized results in key-sorted order, so parallel output is
      byte-identical to serial (``docs/determinism.md``).  Failures surface as
      :class:`CampaignRunError` carrying the key, workload parameters and
      attempt history, never raw pool tracebacks.
    * **Workers** — one pool of ``jobs`` workers, forked by the first
      pooled round and kept by every later round and batch until
      :meth:`close` ends it; a worker that dies or outlives the engine's
      one deadline is replaced alone.
    * **Derived once** — resolution is memoized per engine: each distinct
      :class:`RunRequest` is keyed once, and each distinct runtime,
      scheduler and DMU gets one validated config, one ``to_dict()``
      (shipped in pool payloads) and one canonical JSON text of it (what
      every key of that config hashes).  The memos live on the
      engine because ``scale``, ``seed`` and ``base_config`` are fixed at
      construction.
    * **Program reuse** — identical workload points share one immutable
      built :class:`~repro.runtime.task.TaskProgram` through the bounded
      module-level :func:`build_program` memo, in-process and in every
      pool worker alike.
    * **Trajectory reuse** — a key whose DMU-only sibling already ran is
      served by a verified replay of the sibling's DMU trace
      (:mod:`repro.experiments.reuse`).  The engine keeps the one memo of
      traces and plans every round's references and replays from the plan
      (:meth:`_round`), so serial and pooled runs replay the same keys.
    """

    def __init__(
        self,
        scale: float = 1.0,
        base_config: Optional[SimulationConfig] = None,
        seed: int = 0,
        jobs: int = 1,
        cache_dir: Optional[Union[str, pathlib.Path]] = None,
        verbose: bool = False,
        watchdog_config: Optional[WatchdogConfig] = None,
    ) -> None:
        if not (0.0 < scale <= 1.0):
            raise ExperimentError(f"scale must be in (0, 1], got {scale}")
        if jobs < 1:
            raise ExperimentError(f"jobs must be >= 1, got {jobs}")
        self.scale = scale
        self.seed = seed
        self.jobs = jobs
        self.verbose = verbose
        self.base_config = base_config or default_paper_config()
        self.disk_cache = ResultCache(cache_dir) if cache_dir is not None else None
        self._memo: Dict[str, SimulationResult] = {}
        #: Resolution memos (see :meth:`resolve`): requests already keyed,
        #: and the validated config + its ``to_dict()`` + the canonical JSON
        #: text of that dict per runtime, scheduler and DMU.
        self._resolved: Dict[RunRequest, ResolvedRun] = {}
        self._configs: Dict[tuple, Tuple[SimulationConfig, Dict[str, object], str]] = {}
        #: Every pooled attempt's deadline (hung-worker detection).
        self.watchdog_config = watchdog_config or WatchdogConfig.from_env()
        #: Where ``jobs > 1`` rounds run; None for a serial engine.
        self.worker_pool = (
            WorkerPool(jobs, self.watchdog_config.min_seconds) if jobs > 1 else None
        )
        #: The DMU traces of this engine's trajectory classes.
        self._trajectories = reuse.TrajectoryMemo()
        self.simulations_run = 0
        #: Committed results a verified DMU replay produced (a subset of
        #: ``simulations_run``).
        self.simulations_reused = 0
        #: Keys their class's trace did not serve: sent with it and
        #: simulated in full, or sent without it because their DMU must block.
        self.failed_replays = 0
        self.memory_hits = 0
        self.disk_hits = 0
        #: Keys resubmitted after a transient failure (retry attempts beyond
        #: the first; bounded by ``MAX_ATTEMPTS`` per key).
        self.retries = 0
        #: Pooled attempts struck because their worker died (``WorkerCrash``)
        #: or outlived the deadline and was killed (``WorkerTimeout``).
        self.watchdog_kills = 0
        #: Observed wall seconds of every simulation this engine (or its
        #: pool workers) actually ran, by canonical key.  Cache hits record
        #: nothing; the benchmark harness reads it for per-key times.
        self.key_timings: Dict[str, float] = {}

    # ------------------------------------------------------------------ resolution
    def _config_entry(
        self, runtime: str, scheduler: str, dmu: Optional[DMUConfig]
    ) -> Tuple[SimulationConfig, Dict[str, object], str]:
        """The validated config of one runtime/scheduler/DMU, its dict and
        the dict's :func:`~repro.experiments.cache.canonical_json` text."""
        signature = (runtime, scheduler, dmu)
        entry = self._configs.get(signature)
        if entry is None:
            config = replace(
                self.base_config, runtime=runtime, scheduler=scheduler, seed=self.seed
            )
            if dmu is not None:
                config = replace(config, dmu=dmu)
            config = config.validated()
            config_dict = config.to_dict()
            entry = (config, config_dict, canonical_json(config_dict))
            self._configs[signature] = entry
        return entry

    def resolve(self, request: RunRequest) -> ResolvedRun:
        """Attach the canonical key and effective configuration to a request.

        Memoized per engine: a repeated request returns the same
        :class:`ResolvedRun`.  An unknown benchmark raises
        ``ConfigurationError`` here: it has no simulation, so it gets no key.
        """
        resolved = self._resolved.get(request)
        if resolved is not None:
            return resolved
        workload_factory(request.benchmark)
        config, config_dict, config_json = self._config_entry(
            request.runtime, request.scheduler, request.dmu
        )
        workload_runtime: Optional[str]
        if request.granularity is not None:
            workload_runtime = None
        elif request.granularity_runtime is not None:
            workload_runtime = request.granularity_runtime
        elif request.runtime in _TDM_GRANULARITY_RUNTIMES:
            workload_runtime = "tdm"
        else:
            workload_runtime = "software"
        key = canonical_run_key(
            config_json,
            benchmark=request.benchmark,
            scale=self.scale,
            granularity=request.granularity,
            granularity_runtime=workload_runtime,
            seed=self.seed,
        )
        resolved = ResolvedRun(request, key, config, workload_runtime, config_dict)
        self._resolved[request] = resolved
        return resolved

    # ------------------------------------------------------------------ lookup
    def _lookup(self, resolved: ResolvedRun) -> Optional[SimulationResult]:
        cached = self._memo.get(resolved.key)
        if cached is not None:
            self.memory_hits += 1
            return cached
        if self.disk_cache is not None:
            restored = self.disk_cache.get(
                resolved.key, resolved.config, resolved.config_dict
            )
            if restored is not None:
                self.disk_hits += 1
                self._memo[resolved.key] = restored
                return restored
        return None

    def cached(self, resolved: ResolvedRun) -> Optional[SimulationResult]:
        """The memoized/persisted result for a resolved run, if any.

        Public face of the lookup :meth:`run_many` performs first; the
        benchmark harness reads a rendered plan's results through it.
        """
        return self._lookup(resolved)

    def _payload(self, resolved: ResolvedRun) -> Dict[str, object]:
        return {
            "key": resolved.key,
            "benchmark": resolved.request.benchmark,
            "scale": self.scale,
            "granularity": resolved.request.granularity,
            "workload_runtime": resolved.workload_runtime,
            "seed": self.seed,
            "config": resolved.config_dict,
        }

    def _attempt_payload(self, resolved: ResolvedRun, attempt: int,
                         spec: Optional[str]) -> Dict[str, object]:
        """What :func:`_simulate_entry` gets for one attempt, in either mode."""
        payload = self._payload(resolved)
        payload["attempt"] = attempt
        if spec:
            payload["faults"] = spec
        return payload

    # ------------------------------------------------------------------ running
    def run(self, request: RunRequest) -> SimulationResult:
        """Run one simulation, consulting the memo and disk cache first.

        Raises :class:`CampaignRunError` when the simulation fails.
        """
        return self.run_many([request])[0]

    def run_many(self, requests: Sequence[RunRequest]) -> List[SimulationResult]:
        """Run a batch: every uncached point goes through the simulation loop.

        The return list is aligned with ``requests``.  Results are committed
        in key-sorted order within each round of the loop, so the memo/disk
        state after a parallel batch is identical to the state after the
        equivalent serial loop.

        A failing simulation raises :class:`CampaignRunError` (carrying the
        canonical key, workload parameters and attempt history, not a bare
        pool traceback) once the batch is settled: its successful
        batchmates are committed first, and the failed key is neither
        memoized nor persisted.

        **Resilience.**  Transient failures — crashed pool workers, hung
        simulations killed at their deadline, injected faults — are retried
        in the next round, up to ``MAX_ATTEMPTS`` attempts per key;
        deterministic simulation errors fail immediately.  Because
        results are pure functions of their canonical key, a recovered batch
        leaves memo and disk state byte-identical to an undisturbed serial
        run.
        """
        resolved = [self.resolve(request) for request in requests]
        pending: Dict[str, ResolvedRun] = {}
        for item in resolved:
            if item.key not in pending and self._lookup(item) is None:
                pending[item.key] = item
        if pending:
            errors = self._simulate_pending(dict(pending))
            if errors:
                raise errors[min(errors)]  # deterministic: lowest key first
        return [self._memo[item.key] for item in resolved]

    def _simulate_pending(
        self, pending: Dict[str, ResolvedRun]
    ) -> Dict[str, CampaignRunError]:
        """The simulation loop: rounds of attempts, each outcome settled once.

        A round attempts every pending key through :func:`_simulate_entry`
        — in-process when ``jobs == 1``, otherwise on the engine's warm
        :class:`WorkerPool` — and settles the outcomes in key order, each
        as soon as every key before it has one.  Settling commits a result,
        requeues a transient failure for the next round until the key has
        had ``MAX_ATTEMPTS`` attempts, or fails the key with a
        :class:`CampaignRunError` carrying its attempt history.  Returns the
        failed keys' errors; ``pending`` ends empty.
        """
        failed_attempts: Dict[str, int] = {}
        history: Dict[str, List[Dict[str, object]]] = {}
        errors: Dict[str, CampaignRunError] = {}

        def settle(key: str, result: Dict[str, object], seconds: float) -> None:
            marker = result.get(_ERROR_MARKER)
            if marker is None:
                self._commit(pending.pop(key), result, seconds)
                return
            attempt = failed_attempts[key] = failed_attempts.get(key, 0) + 1
            history.setdefault(key, []).append({
                "attempt": attempt,
                "error_type": marker["error_type"],
                "error_message": marker["error_message"],
            })
            if marker["error_type"] in TRANSIENT_ERROR_TYPES and attempt < MAX_ATTEMPTS:
                self.retries += 1
                return
            del pending[key]
            errors[key] = CampaignRunError(
                key,
                marker["params"],
                marker["error_type"],
                marker["error_message"],
                marker["traceback"],
                attempts=history[key],
            )

        if self.verbose:  # pragma: no cover - console feedback only
            print(f"[campaign] {len(pending)} runs on {self.jobs} worker(s)")
        spec = active_spec()
        while pending:
            payloads = [
                self._attempt_payload(pending[key], failed_attempts.get(key, 0) + 1, spec)
                for key in sorted(pending)
            ]
            for outcome in self._round(payloads, pending):
                settle(*outcome)
        return errors

    def _round(self, payloads: Sequence[Dict[str, object]],
               pending: Mapping[str, ResolvedRun]) -> Iterator[_Outcome]:
        """Attempt ``payloads`` (in key order) once each; yields outcomes in
        key order, each once every key sorting before it has landed, so the
        caller's commits overlap the round's tail and still follow key order.

        Trajectory reuse is planned here from the plan and the memo alone.  A
        class with a trace sends each key with it (or bare, a failed replay,
        when the key's DMU must block).  Otherwise its first key is its
        reference and records the trace; the later keys go out when the
        reference's outcome is yielded.  Serial attempts run in key order.
        The :class:`WorkerPool` hands each pooled one exactly one outcome (a
        ``WorkerCrash`` / ``WorkerTimeout`` strike counts in
        :attr:`watchdog_kills`); a round abandoned before its last outcome
        cancels its remaining keys.
        """
        sent = {payload["key"]: payload for payload in payloads}
        keys = list(sent)
        memo = self._trajectories
        waiting: Dict[str, Tuple[str, List[Dict[str, object]]]] = {}

        def route(trajectory: str, members: List[Dict[str, object]]) -> List[Dict[str, object]]:
            """Which of ``members`` (one class's keys, in key order) to send now."""
            if trajectory not in memo:
                reference, *later = members
                if later:
                    reference["record"] = True
                    waiting[reference["key"]] = trajectory, later
                return [reference]
            for payload in members:
                trace = memo.trace(trajectory, pending[payload["key"]].config.dmu)
                if trace is None:
                    self.failed_replays += 1
                else:
                    payload["trace"] = trace
            return members

        settled = 0  # keys[:settled] are yielded
        if self.worker_pool is None:
            def launch(batch: List[Dict[str, object]]) -> None:
                pass

            def land() -> _Outcome:
                return _simulate_entry(sent[keys[settled]])
        else:
            landed: "queue.SimpleQueue[_Outcome]" = queue.SimpleQueue()
            land, put = landed.get, landed.put

            def launch(batch: List[Dict[str, object]]) -> None:
                self.worker_pool.submit(batch, put)

        classes: Dict[str, List[Dict[str, object]]] = collections.defaultdict(list)
        for payload in payloads:
            classes[reuse.trajectory_class(payload)].append(payload)
        launch(sorted((payload for trajectory, members in classes.items()
                       for payload in route(trajectory, members)), key=lambda p: p["key"]))
        outcomes: Dict[str, _Outcome] = {}
        try:
            while settled < len(keys):
                outcome = land()
                marker = outcome[1].get(_ERROR_MARKER)
                if marker is not None and marker["error_type"] in _STRIKES:
                    self.watchdog_kills += 1
                outcomes[outcome[0]] = outcome
                while settled < len(keys) and keys[settled] in outcomes:
                    key, result, _ = outcome = outcomes.pop(keys[settled])
                    if key in waiting:
                        trajectory, later = waiting.pop(key)
                        trace = result.pop(_RECORDED, None)
                        if trace is not None:
                            memo.add(trajectory, trace, result)
                        launch(route(trajectory, later))
                    elif ("trace" in sent[key] and _REUSED_MARKER not in result
                          and _ERROR_MARKER not in result):
                        self.failed_replays += 1
                    yield outcome
                    settled += 1
        finally:
            if settled < len(keys) and self.worker_pool is not None:
                self.worker_pool.cancel(put)

    def _commit(self, item: ResolvedRun, result: Dict[str, object], seconds: float) -> None:
        """Persist one serialized result as is and memoize its deserialized
        form: every mode commits the shape a disk-cache hit restores."""
        key = item.key
        reused = result.pop(_REUSED_MARKER, False)
        self.simulations_run += 1
        self.simulations_reused += reused
        self.key_timings[key] = seconds
        if self.disk_cache is not None:
            self.disk_cache.put_serialized(key, result)
        restored = self._memo[key] = SimulationResult.from_dict(
            result, item.config, item.config_dict
        )
        if self.verbose:  # pragma: no cover - console feedback only
            request = item.request
            print(
                f"[run] {request.benchmark} runtime={request.runtime} "
                f"scheduler={request.scheduler} tasks={restored.num_tasks_executed} "
                f"({seconds:.2f}s{', reused' if reused else ''})"
            )

    def close(self) -> None:
        """Terminate the engine's worker pool; idempotent.  A closed pooled
        engine still serves cached results but simulates nothing more."""
        if self.worker_pool is not None:
            self.worker_pool.close()

    # ------------------------------------------------------------------ stats
    def cache_info(self) -> Dict[str, int]:
        """Counters for tests and reports."""
        return {
            "simulations_run": self.simulations_run,
            "simulations_reused": self.simulations_reused,
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "memoized": len(self._memo),
        }

    def reliability_info(self) -> Dict[str, int]:
        """Recovery counters: retries, watchdog strikes, cache quarantines.

        All zero on a fault-free run; the CLI prints them (and the CI chaos
        smoke greps them) whenever any is nonzero.
        """
        cache = self.disk_cache
        return {
            "retries": self.retries,
            "watchdog_kills": self.watchdog_kills,
            "quarantined": cache.quarantined if cache is not None else 0,
        }
