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
  simulated: a round loop that runs in-process (``jobs == 1``) or over a
  watchdogged ``multiprocessing`` pool, retries transient failures and
  commits in key-sorted order, so the campaign output is bit-identical to
  a serial run regardless of completion order or worker count.  Serial
  runs, pool batches, shard workers and the results daemon all use it.

:class:`~repro.experiments.common.SimulationRunner` is a thin façade over
this engine; the experiment harnesses declare their sweeps as lists of
:class:`RunRequest` (their ``plan`` functions) and the registry prefetches
them through :meth:`run_many` when ``--jobs`` is greater than one.
"""

from __future__ import annotations

import functools
import multiprocessing
import pathlib
import time
import traceback
from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..config import DMUConfig, SimulationConfig, default_paper_config
from ..errors import ExperimentError
from ..reliability.faults import active_spec, ensure_plan, maybe_fault
from ..reliability.retry import RetryPolicy
from ..reliability.watchdog import Watchdog, WatchdogConfig, write_heartbeat
from ..runtime.task import TaskProgram
from ..sim.machine import SimulationResult, run_simulation
from ..workloads.registry import create_workload, workload_factory
from .cache import ResultCache, canonical_run_key

#: Runtimes whose optimal-granularity default follows the TDM optimum.
_TDM_GRANULARITY_RUNTIMES = ("tdm", "task_superscalar")

#: Sentinel field marking a worker return value as a captured failure rather
#: than a serialized result (no SimulationResult dict ever contains it).
_ERROR_MARKER = "__campaign_error__"

#: One attempt's outcome: ``(key, result | error marker, seconds)``.  The
#: result is a ``SimulationResult`` in-process and its serialized dict from
#: a pool worker.
_Outcome = Tuple[str, object, float]


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
    parameters so a failed point is diagnosable from logs and shard
    manifests alike.
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
        #: "error_message"}``) when the retry policy exhausted its budget on
        #: this key; the last entry matches the headline error.
        self.attempts = list(attempts or [])
        described = ", ".join(f"{name}={value!r}" for name, value in self.params.items())
        suffix = f" after {len(self.attempts)} attempts" if len(self.attempts) > 1 else ""
        super().__init__(
            f"simulation {key[:12]}… failed{suffix} ({described}): "
            f"{error_type}: {error_message}"
        )

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe form, stored in shard-manifest ``failures`` entries."""
        return {
            "key": self.key,
            "params": dict(self.params),
            "error_type": self.error_type,
            "error_message": self.error_message,
            "traceback": self.worker_traceback,
            "attempts": [dict(entry) for entry in self.attempts],
        }


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
    #: with the same runtime, scheduler and DMU: the dict the key hashes and
    #: pool payloads ship.  Read-only.
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
    """Worker-side body: rebuild the run from plain dicts and simulate it.

    Lives at module scope so it pickles under both fork and spawn start
    methods.  Returns the canonical key with the serialized result and the
    worker-side wall seconds the point took (workload build + simulation,
    recorded in ``CampaignEngine.key_timings``); the parent performs
    the deterministic merge.  Exceptions are captured into an error marker
    (rather than poisoning ``pool.map`` with a raw remote traceback) so the
    parent can attach the offending key and workload parameters — and so
    one bad point does not discard its batchmates.
    """
    started = time.perf_counter()
    try:
        attempt = int(payload.get("attempt", 1))
        spec = payload.get("faults")
        if spec:
            # Forwarded fault plan (spawn workers have no parent env/state;
            # fork workers keep the inherited plan's counters).
            ensure_plan(spec)
        heartbeat_dir = payload.get("heartbeat_dir")
        if heartbeat_dir:
            write_heartbeat(heartbeat_dir, payload["key"], attempt)
        maybe_fault("sim", payload["key"], attempt)
        config = SimulationConfig.from_dict(payload["config"])
        program = build_program(
            payload["benchmark"],
            payload["scale"],
            payload["granularity"],
            payload["workload_runtime"],
            payload["seed"],
        )
        result = run_simulation(program, config)
    except Exception as error:  # noqa: BLE001 - reported with full context
        marker = _error_marker(
            _run_params(payload), type(error).__name__, str(error), traceback.format_exc()
        )
        return payload["key"], marker, time.perf_counter() - started
    return payload["key"], result.to_dict(), time.perf_counter() - started


class CampaignEngine:
    """Runs, parallelizes, memoizes and persists benchmark simulations.

    The engine is the single entry point between the experiment harnesses
    and the simulator (``docs/architecture.md`` shows the layering):

    * **Identity** — every :class:`RunRequest` resolves to a canonical
      SHA-256 run key over the full configuration and workload parameters
      (:func:`repro.experiments.cache.canonical_run_key`); the key is the
      memo key, the disk-cache filename and the shard-ownership input.
    * **Memoization** — results are cached in-process and, with
      ``cache_dir``, in a :class:`~repro.experiments.cache.ResultCache`
      (optionally budgeted via ``cache_max_bytes``); reruns simulate only
      what is missing.
    * **Execution** — :meth:`run_many` simulates uncached runs in one
      retrying loop, in-process or over a watchdogged
      ``multiprocessing.Pool`` (``jobs > 1``), and commits results in
      key-sorted order, so parallel output is byte-identical to serial
      (``docs/determinism.md``).  Failures surface as
      :class:`CampaignRunError` carrying the key, workload parameters and
      attempt history, never raw pool tracebacks.
    * **Derived once** — resolution is memoized per engine: each distinct
      :class:`RunRequest` is keyed once, and each distinct runtime,
      scheduler and DMU gets one validated config and one ``to_dict()``,
      shared by the key and the pool payloads.  The memos live on the
      engine because ``scale``, ``seed`` and ``base_config`` are fixed at
      construction.
    * **Program reuse** — identical workload points share one immutable
      built :class:`~repro.runtime.task.TaskProgram` through the bounded
      module-level :func:`build_program` memo, in-process and in every
      pool worker alike.
    """

    def __init__(
        self,
        scale: float = 1.0,
        base_config: Optional[SimulationConfig] = None,
        seed: int = 0,
        jobs: int = 1,
        cache_dir: Optional[Union[str, pathlib.Path]] = None,
        cache_max_bytes: Optional[int] = None,
        verbose: bool = False,
        disk_cache: Optional[ResultCache] = None,
        retry_policy: Optional[RetryPolicy] = None,
        watchdog_config: Optional[WatchdogConfig] = None,
    ) -> None:
        if not (0.0 < scale <= 1.0):
            raise ExperimentError(f"scale must be in (0, 1], got {scale}")
        if jobs < 1:
            raise ExperimentError(f"jobs must be >= 1, got {jobs}")
        if cache_max_bytes is not None and cache_max_bytes < 0:
            raise ExperimentError(f"cache_max_bytes must be >= 0, got {cache_max_bytes}")
        if disk_cache is not None and cache_dir is not None:
            raise ExperimentError("pass cache_dir or disk_cache, not both")
        self.scale = scale
        self.seed = seed
        self.jobs = jobs
        self.verbose = verbose
        self.base_config = base_config or default_paper_config()
        if disk_cache is not None:
            # Injected shared cache: several engines (the results daemon keeps
            # one per requested scale/seed) serve from one ResultCache.
            self.disk_cache = disk_cache
        else:
            self.disk_cache = ResultCache(cache_dir) if cache_dir is not None else None
        #: Size budget for the on-disk cache; enforced (oldest-mtime entries
        #: evicted first) after every parallel batch and via
        #: :meth:`prune_disk_cache`.
        self.cache_max_bytes = cache_max_bytes
        self._memo: Dict[str, SimulationResult] = {}
        #: Resolution memos (see :meth:`resolve`): requests already keyed,
        #: and the validated config + its ``to_dict()`` per runtime,
        #: scheduler and DMU.
        self._resolved: Dict[RunRequest, ResolvedRun] = {}
        self._configs: Dict[tuple, Tuple[SimulationConfig, Dict[str, object]]] = {}
        #: Retry policy for transiently failed runs (crashed/hung workers,
        #: injected faults); permanent simulation errors never retry.
        self.retry_policy = retry_policy or RetryPolicy.from_env()
        #: Deadline shaping for the pool watchdog (hung-worker detection).
        self.watchdog_config = watchdog_config or WatchdogConfig.from_env()
        self.simulations_run = 0
        self.memory_hits = 0
        self.disk_hits = 0
        self.cache_evictions = 0
        #: Keys resubmitted after a transient failure (retry attempts beyond
        #: the first; bounded by ``retry_policy.max_attempts`` per key).
        self.retries = 0
        #: Keys the watchdog struck for exceeding their deadline (hung or
        #: crashed workers — both present as an overdue heartbeat).
        self.watchdog_kills = 0
        #: Observed wall seconds of every simulation this engine (or its
        #: pool workers) actually ran, by canonical key.  Cache hits record
        #: nothing; the benchmark harness reads it for per-key times.
        self.key_timings: Dict[str, float] = {}

    # ------------------------------------------------------------------ resolution
    def _config_entry(
        self, runtime: str, scheduler: str, dmu: Optional[DMUConfig]
    ) -> Tuple[SimulationConfig, Dict[str, object]]:
        """The validated config of one runtime/scheduler/DMU and its dict."""
        signature = (runtime, scheduler, dmu)
        entry = self._configs.get(signature)
        if entry is None:
            config = replace(
                self.base_config, runtime=runtime, scheduler=scheduler, seed=self.seed
            )
            if dmu is not None:
                config = replace(config, dmu=dmu)
            config = config.validated()
            entry = self._configs[signature] = (config, config.to_dict())
        return entry

    def config_for(
        self,
        runtime: str,
        scheduler: str = "fifo",
        dmu: Optional[DMUConfig] = None,
    ) -> SimulationConfig:
        """The full simulation configuration for one runtime/scheduler/DMU."""
        return self._config_entry(runtime, scheduler, dmu)[0]

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
        config, config_dict = self._config_entry(
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
            config_dict,
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
            restored = self.disk_cache.get(resolved.key)
            if restored is not None:
                self.disk_hits += 1
                self._memo[resolved.key] = restored
                return restored
        return None

    def cached(self, resolved: ResolvedRun) -> Optional[SimulationResult]:
        """The memoized/persisted result for a resolved run, if any.

        Public face of the lookup :meth:`run_many` performs first — the
        results daemon probes with it to decide what a render must simulate.
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

    # ------------------------------------------------------------------ running
    def run(self, request: RunRequest) -> SimulationResult:
        """Run one simulation, consulting the memo and disk cache first.

        Raises :class:`CampaignRunError` when the simulation fails.
        """
        return self.run_many([request])[0]

    def run_many(
        self,
        requests: Sequence[RunRequest],
        failures: Optional[Dict[str, CampaignRunError]] = None,
    ) -> List[Optional[SimulationResult]]:
        """Run a batch: every uncached point goes through the simulation loop.

        The return list is aligned with ``requests``.  Results are committed
        in key-sorted order within each round of the loop, so the memo/disk
        state after a parallel batch is identical to the state after the
        equivalent serial loop.

        A failing simulation raises :class:`CampaignRunError` (carrying the
        canonical key, workload parameters and attempt history, not a bare
        pool traceback).  When ``failures`` is a dict the engine records
        errors there instead — keyed by canonical run key — and returns
        ``None`` in the failed requests' slots; successful batchmates still
        commit.  Shard workers use that mode to turn crashes into manifest
        entries.

        **Resilience.**  Transient failures — crashed pool workers, hung
        simulations struck by the watchdog, injected faults — are retried
        with exponential backoff up to ``retry_policy.max_attempts`` per
        key; deterministic simulation errors fail immediately.  Because
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
            self.prune_disk_cache()
            if errors:
                if failures is None:
                    raise errors[min(errors)]  # deterministic: lowest key first
                failures.update(errors)
        return [self._memo.get(item.key) for item in resolved]

    def _simulate_pending(
        self, pending: Dict[str, ResolvedRun]
    ) -> Dict[str, CampaignRunError]:
        """The simulation loop: rounds of attempts, each outcome settled once.

        A round attempts every pending key — in-process when ``jobs == 1``,
        otherwise on a fresh ``multiprocessing`` pool under the
        :class:`~repro.reliability.watchdog.Watchdog` — and settles the
        outcomes in key order.  Settling commits a result, requeues a
        transient failure (backing off before the next round) until the
        retry policy is exhausted, or fails the key with a
        :class:`CampaignRunError` carrying its attempt history.  Keys a
        condemned pool round left unfinished requeue without penalty.
        Returns the failed keys' errors; ``pending`` ends empty.
        """
        policy = self.retry_policy
        failed_attempts: Dict[str, int] = {}
        history: Dict[str, List[Dict[str, object]]] = {}
        errors: Dict[str, CampaignRunError] = {}

        def settle(key: str, result: object, seconds: float) -> None:
            marker = result.get(_ERROR_MARKER) if isinstance(result, dict) else None
            if marker is None:
                del pending[key]
                self._commit(key, result, seconds)
                return
            attempt = failed_attempts[key] = failed_attempts.get(key, 0) + 1
            history.setdefault(key, []).append({
                "attempt": attempt,
                "error_type": marker["error_type"],
                "error_message": marker["error_message"],
            })
            if policy.transient(marker["error_type"]) and not policy.exhausted(attempt):
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

        watchdog = None
        if self.jobs > 1:
            watchdog = Watchdog(self.watchdog_config)
            if self.verbose:  # pragma: no cover - console feedback only
                print(f"[campaign] {len(pending)} runs on {self.jobs} workers")
        try:
            while pending:
                batch = [pending[key] for key in sorted(pending)]
                backoff = max(
                    (policy.delay(failed_attempts[item.key], item.key)
                     for item in batch if item.key in failed_attempts),
                    default=0.0,
                )
                if backoff:
                    time.sleep(backoff)
                if watchdog is None:
                    outcomes = (
                        self._attempt(item, failed_attempts.get(item.key, 0) + 1)
                        for item in batch
                    )
                else:
                    outcomes = self._pool_round(batch, failed_attempts, watchdog)
                for outcome in outcomes:
                    settle(*outcome)
        finally:
            if watchdog is not None:
                watchdog.cleanup()
        return errors

    def _attempt(self, item: ResolvedRun, attempt: int) -> _Outcome:
        """One in-process attempt at ``item``: its outcome, never an exception."""
        started = time.perf_counter()
        try:
            result = self._simulate(item, attempt)
        except Exception as error:  # noqa: BLE001 - settled with run context
            return self._failure(
                item, type(error).__name__, str(error), traceback.format_exc()
            )
        return item.key, result, time.perf_counter() - started

    def _pool_round(self, batch: Sequence[ResolvedRun], failed_attempts: Dict[str, int],
                    watchdog: Watchdog) -> List[_Outcome]:
        """Attempt ``batch`` on a fresh pool; the key-sorted outcomes.

        Completions are collected as they land.  The round ends when every
        key finished, or when the watchdog finds overdue keys (or sees no
        progress for a whole stall budget: workers that died before
        heartbeating).  Struck keys get a ``WorkerTimeout``/``WorkerStall``
        outcome; the rest of an unfinished round get none and requeue.
        Leaving the ``with`` block terminates the pool, killing any hung
        worker and discarding tasks orphaned by a crash.
        """
        spec = active_spec()
        items = {item.key: item for item in batch}
        watchdog.reset()
        deadlines = {item.key: watchdog.deadline_for(item) for item in batch}
        stall_budget = watchdog.config.min_seconds + max(deadlines.values())
        outcomes: Dict[str, _Outcome] = {}
        with multiprocessing.Pool(processes=min(self.jobs, len(batch))) as pool:
            handles = {}
            for item in batch:
                payload = self._payload(item)
                payload["attempt"] = failed_attempts.get(item.key, 0) + 1
                payload["heartbeat_dir"] = str(watchdog.directory)
                if spec:
                    payload["faults"] = spec
                handles[item.key] = pool.apply_async(_simulate_entry, (payload,))
            last_progress = time.monotonic()
            while handles:
                for key in [key for key in sorted(handles) if handles[key].ready()]:
                    try:
                        outcomes[key] = handles.pop(key).get()
                    except Exception as error:  # noqa: BLE001 - pool plumbing failure
                        outcomes[key] = self._failure(
                            items[key], type(error).__name__, str(error)
                        )
                    last_progress = time.monotonic()
                if not handles:
                    break
                overdue = watchdog.overdue({key: deadlines[key] for key in handles})
                if overdue:
                    struck = {
                        key: ("WorkerTimeout",
                              f"no result after {seconds:.1f}s "
                              f"(deadline {deadlines[key]:.1f}s); pool terminated")
                        for key, seconds in overdue.items()
                    }
                elif time.monotonic() - last_progress > stall_budget:
                    struck = {
                        key: ("WorkerStall",
                              f"no worker progress for {stall_budget:.1f}s; "
                              "pool terminated")
                        for key in handles
                    }
                else:
                    time.sleep(watchdog.config.poll_interval_s)
                    continue
                self.watchdog_kills += len(struck)
                for key, (error_type, message) in struck.items():
                    outcomes[key] = self._failure(items[key], error_type, message)
                break
        return [outcomes[key] for key in sorted(outcomes)]

    def _failure(self, item: ResolvedRun, error_type: str, message: str,
                 worker_traceback: str = "") -> _Outcome:
        """The outcome of an attempt at ``item`` that produced no result."""
        params = _run_params(self._payload(item))
        return item.key, _error_marker(params, error_type, message, worker_traceback), 0.0

    def _commit(self, key: str, result: object, seconds: float) -> None:
        """Memoize and persist one simulated result (serialized when it
        comes from a pool worker — persisted as is, never re-serialized)."""
        self.simulations_run += 1
        self.key_timings[key] = seconds
        if isinstance(result, dict):
            if self.disk_cache is not None:
                self.disk_cache.put_serialized(key, result)
            result = SimulationResult.from_dict(result)
        elif self.disk_cache is not None:
            self.disk_cache.put(key, result)
        self._memo[key] = result

    def prune_disk_cache(self) -> int:
        """Enforce ``cache_max_bytes`` on the disk cache; returns evictions."""
        if self.disk_cache is None or self.cache_max_bytes is None:
            return 0
        evicted = self.disk_cache.prune(self.cache_max_bytes)
        self.cache_evictions += evicted
        return evicted

    def _simulate(self, resolved: ResolvedRun, attempt: int = 1) -> SimulationResult:
        """Run one simulation in-process.

        The ``sim`` fault site fires here too, so serial campaigns exercise
        ``error``/``hang`` faults (a ``crash`` fault in serial mode exits
        the campaign process itself — use ``jobs > 1`` for crash chaos).
        """
        maybe_fault("sim", resolved.key, attempt)
        request = resolved.request
        program = build_program(
            request.benchmark, self.scale, request.granularity,
            resolved.workload_runtime, self.seed,
        )
        if self.verbose:  # pragma: no cover - console feedback only
            print(
                f"[run] {request.benchmark} runtime={request.runtime} "
                f"scheduler={request.scheduler} tasks={program.num_tasks}"
            )
        return run_simulation(program, resolved.config)

    # ------------------------------------------------------------------ stats
    def cache_info(self) -> Dict[str, int]:
        """Counters for tests and reports."""
        return {
            "simulations_run": self.simulations_run,
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "memoized": len(self._memo),
            "cache_evictions": self.cache_evictions,
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
            "orphans_swept": cache.orphans_swept if cache is not None else 0,
        }
