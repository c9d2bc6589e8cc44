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
* :meth:`CampaignEngine.run_many` fans the uncached runs out over a
  ``multiprocessing`` pool.  Workers return serialized results and the parent
  merges them in key-sorted order, so the campaign output is bit-identical
  to a serial run regardless of completion order or worker count.

:class:`~repro.experiments.common.SimulationRunner` is a thin façade over
this engine; the experiment harnesses declare their sweeps as lists of
:class:`RunRequest` (their ``plan`` functions) and the registry prefetches
them through :meth:`run_many` when ``--jobs`` is greater than one.
"""

from __future__ import annotations

import multiprocessing
import pathlib
import time
import traceback
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..config import DMUConfig, SimulationConfig, default_paper_config
from ..errors import ExperimentError
from ..reliability.faults import active_spec, ensure_plan, maybe_fault
from ..reliability.retry import RetryPolicy
from ..reliability.watchdog import Watchdog, WatchdogConfig, write_heartbeat
from ..runtime.cost_model import CampaignCostModel
from ..sim.machine import SimulationResult, run_simulation
from ..workloads.registry import create_workload
from .cache import ResultCache, canonical_run_key, load_cost_profile

#: Runtimes whose optimal-granularity default follows the TDM optimum.
_TDM_GRANULARITY_RUNTIMES = ("tdm", "task_superscalar")

#: Sentinel field marking a worker return value as a captured failure rather
#: than a serialized result (no SimulationResult dict ever contains it).
_ERROR_MARKER = "__campaign_error__"


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


def _simulate_entry(payload: Dict[str, object]) -> Tuple[str, Dict[str, object], float]:
    """Worker-side body: rebuild the run from plain dicts and simulate it.

    Lives at module scope so it pickles under both fork and spawn start
    methods.  Returns the canonical key with the serialized result and the
    worker-side wall seconds the point took (workload build + simulation —
    the quantity cost-aware shard planning predicts); the parent performs
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
        workload = create_workload(
            payload["benchmark"],
            scale=payload["scale"],
            granularity=payload["granularity"],
            runtime=payload["workload_runtime"],
            seed=payload["seed"],
        )
        result = run_simulation(workload.build_program(), config)
    except Exception as error:  # noqa: BLE001 - reported with full context
        return payload["key"], {
            _ERROR_MARKER: {
                "params": _run_params(payload),
                "error_type": type(error).__name__,
                "error_message": str(error),
                "traceback": traceback.format_exc(),
            }
        }, time.perf_counter() - started
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
    * **Parallelism** — :meth:`run_many` fans uncached runs over a
      ``multiprocessing.Pool`` (``jobs > 1``) and commits worker results in
      key-sorted order, so parallel output is byte-identical to serial
      (``docs/determinism.md``).  Worker failures surface as
      :class:`CampaignRunError` markers carrying the key and workload
      parameters, never raw pool tracebacks.
    * **Program reuse** — identical workload points share one immutable
      built :class:`~repro.runtime.task.TaskProgram` (scheduler and
      runtime sweeps re-simulate the same program object).
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
        program_cache: Optional[Dict[tuple, object]] = None,
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
        #: Built task programs keyed by their workload parameters.  Sweeps
        #: that vary only the runtime/scheduler/DMU (every scheduler figure,
        #: the runtime-comparison figures) re-simulate the *same* immutable
        #: program, so rebuilding it per run was pure overhead.  Bounded FIFO
        #: (workload sweeps such as the granularity figures produce many
        #: distinct programs; keys are tiny but programs are not).  The cache
        #: key embeds scale and seed, so an injected dict is safe to share
        #: across engines with different parameters.
        self._program_cache: Dict[tuple, object] = (
            program_cache if program_cache is not None else {}
        )
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
        #: nothing — the map is the raw material of the campaign cost model
        #: (shard manifests persist it as ``key_timings``).
        self.key_timings: Dict[str, float] = {}

    _PROGRAM_CACHE_LIMIT = 16

    def _build_program(
        self,
        benchmark: str,
        granularity: Optional[int],
        workload_runtime: Optional[str],
    ):
        """Build (or reuse) the task program for one workload point.

        Safe to share across simulations: :class:`TaskProgram` and everything
        it references (regions, definitions, dependence specs) are immutable;
        all per-run state lives in the :class:`TaskInstance` objects the
        runtime materializes from the definitions.  Workload generation is
        deterministic in the key parameters, so a cached program is
        indistinguishable from a rebuilt one.
        """
        key = (benchmark, self.scale, granularity, workload_runtime, self.seed)
        program = self._program_cache.get(key)
        if program is None:
            workload = create_workload(
                benchmark,
                scale=self.scale,
                granularity=granularity,
                runtime=workload_runtime,
                seed=self.seed,
            )
            program = workload.build_program()
            cache = self._program_cache
            if len(cache) >= self._PROGRAM_CACHE_LIMIT:
                cache.pop(next(iter(cache)))
            cache[key] = program
        return program

    # ------------------------------------------------------------------ resolution
    def config_for(
        self,
        runtime: str,
        scheduler: str = "fifo",
        dmu: Optional[DMUConfig] = None,
    ) -> SimulationConfig:
        """The full simulation configuration for one runtime/scheduler/DMU."""
        config = replace(
            self.base_config, runtime=runtime, scheduler=scheduler, seed=self.seed
        )
        if dmu is not None:
            config = replace(config, dmu=dmu)
        return config.validated()

    def resolve(self, request: RunRequest) -> ResolvedRun:
        """Attach the canonical key and effective configuration to a request."""
        config = self.config_for(request.runtime, request.scheduler, request.dmu)
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
            config,
            benchmark=request.benchmark,
            scale=self.scale,
            granularity=request.granularity,
            granularity_runtime=workload_runtime,
            seed=self.seed,
        )
        return ResolvedRun(request, key, config, workload_runtime)

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

    def _store(self, resolved: ResolvedRun, result: SimulationResult) -> None:
        self._memo[resolved.key] = result
        if self.disk_cache is not None:
            self.disk_cache.put(resolved.key, result)

    def cached(self, resolved: ResolvedRun) -> Optional[SimulationResult]:
        """The memoized/persisted result for a resolved run, if any.

        Public face of the lookup the run methods perform first — callers
        that orchestrate their own execution (the results daemon offloads
        simulation to an executor) probe with this and commit via
        :meth:`commit_serialized`.
        """
        return self._lookup(resolved)

    def commit_serialized(
        self, key: str, result_dict: Dict[str, object], seconds: float = 0.0
    ) -> SimulationResult:
        """Commit one worker-serialized simulation result under its key.

        This is the single write path for results produced *outside* the
        engine's process: the ``run_many`` pool loop and the results
        daemon's executor both land here, so counters, timings, memo and
        disk persistence stay consistent regardless of who simulated.
        """
        self.simulations_run += 1
        if seconds:
            self.key_timings[key] = seconds
        result = SimulationResult.from_dict(result_dict)
        self._memo[key] = result
        if self.disk_cache is not None:
            # The worker already serialized; don't re-serialize.
            self.disk_cache.put_serialized(key, result_dict)
        return result

    def payload_for(self, resolved: ResolvedRun) -> Dict[str, object]:
        """The picklable worker payload of one resolved run.

        Pairs with the module-level :func:`_simulate_entry` worker: external
        executors submit ``_simulate_entry(payload_for(resolved))`` and feed
        the outcome back through :meth:`commit_serialized`.
        """
        return self._payload(resolved)

    def _payload(self, resolved: ResolvedRun) -> Dict[str, object]:
        return {
            "key": resolved.key,
            "benchmark": resolved.request.benchmark,
            "scale": self.scale,
            "granularity": resolved.request.granularity,
            "workload_runtime": resolved.workload_runtime,
            "seed": self.seed,
            "config": resolved.config.to_dict(),
        }

    # ------------------------------------------------------------------ running
    def run(self, request: RunRequest) -> SimulationResult:
        """Run one simulation, consulting the memo and disk cache first."""
        resolved = self.resolve(request)
        cached = self._lookup(resolved)
        if cached is not None:
            return cached
        result = self._simulate_retrying(resolved, [])
        self._store(resolved, result)
        return result

    def run_many(
        self,
        requests: Sequence[RunRequest],
        failures: Optional[Dict[str, CampaignRunError]] = None,
    ) -> List[Optional[SimulationResult]]:
        """Run a batch, fanning uncached points out over a process pool.

        The return list is aligned with ``requests``.  Workers return
        serialized results; the parent deserializes and commits them in
        key-sorted order, so the memo/disk state after a parallel batch is
        identical to the state after the equivalent serial loop.

        A failing simulation raises :class:`CampaignRunError` (carrying the
        canonical key and workload parameters, not a bare pool traceback).
        When ``failures`` is a dict the engine records errors there instead
        — keyed by canonical run key — and returns ``None`` in the failed
        requests' slots; successful batchmates still commit.  Shard workers
        use that mode to turn crashes into manifest entries.

        **Resilience.**  Transient failures — crashed pool workers, hung
        simulations struck by the watchdog, injected faults — are requeued
        with exponential backoff up to ``retry_policy.max_attempts`` per
        key; deterministic simulation errors fail immediately.  Because
        results are pure functions of their canonical key and are committed
        in key-sorted order, a recovered batch leaves memo and disk state
        byte-identical to an undisturbed serial run.
        """
        resolved = [self.resolve(request) for request in requests]
        pending: Dict[str, ResolvedRun] = {}
        for item in resolved:
            if item.key not in pending and self._lookup(item) is None:
                pending[item.key] = item
        ordered = sorted(pending.values(), key=lambda item: item.key)
        errors: Dict[str, CampaignRunError] = {}
        if len(ordered) > 1 and self.jobs > 1:
            self._run_pool(ordered, errors)
        else:
            for item in ordered:
                history: List[Dict[str, object]] = []
                try:
                    result = self._simulate_retrying(item, history)
                except Exception as error:  # noqa: BLE001 - wrapped with context
                    errors[item.key] = CampaignRunError(
                        item.key,
                        _run_params(self._payload(item)),
                        type(error).__name__,
                        str(error),
                        traceback.format_exc(),
                        attempts=history,
                    )
                    continue
                self._store(item, result)
        if ordered:
            self.prune_disk_cache()
        if errors:
            if failures is None:
                raise errors[min(errors)]  # deterministic: lowest key first
            failures.update(errors)
        return [self._memo.get(item.key) for item in resolved]

    def _simulate_retrying(self, item: ResolvedRun,
                           history: List[Dict[str, object]]) -> SimulationResult:
        """Serial-path simulation with transient-error retries.

        Appends one record per failed attempt to ``history`` and re-raises
        the last error once the attempt budget is spent (or immediately for
        permanent errors) — the caller wraps it with run context.
        """
        policy = self.retry_policy
        attempt = 0
        while True:
            attempt += 1
            try:
                return self._simulate(item, attempt=attempt)
            except Exception as error:  # noqa: BLE001 - classified below
                history.append({
                    "attempt": attempt,
                    "error_type": type(error).__name__,
                    "error_message": str(error),
                })
                if not policy.transient(type(error).__name__) or policy.exhausted(attempt):
                    raise
                self.retries += 1
                time.sleep(policy.delay(attempt, item.key))

    def _run_pool(self, ordered: Sequence[ResolvedRun],
                  errors: Dict[str, CampaignRunError]) -> None:
        """Fan a batch over a worker pool with watchdog + retry recovery.

        Round-based: every pending key is submitted to a pool, completions
        are collected as they land, and a round ends when either everything
        finished or the watchdog finds overdue keys — the pool (and any hung
        or orphaned task in it) is then terminated and surviving keys are
        resubmitted.  Keys struck by the watchdog or failed transiently
        accrue attempts; the rest requeue without penalty.  All commits
        happen in key-sorted order after the loop, so completion order (and
        recovery) cannot affect the merged state.
        """
        policy = self.retry_policy
        spec = active_spec()
        cost_model = CampaignCostModel(
            load_cost_profile(self.disk_cache.directory) if self.disk_cache else {},
            scale=self.scale,
        )
        watchdog = Watchdog(self.watchdog_config, cost_model)
        pending: Dict[str, ResolvedRun] = {item.key: item for item in ordered}
        attempts: Dict[str, int] = {}
        history: Dict[str, List[Dict[str, object]]] = {}
        outcomes: Dict[str, Tuple[Dict[str, object], float]] = {}
        if self.verbose:  # pragma: no cover - console feedback only
            print(f"[campaign] {len(pending)} runs on {self.jobs} workers")

        def strike(key: str, error_type: str, message: str) -> None:
            attempts[key] = attempts.get(key, 0) + 1
            history.setdefault(key, []).append({
                "attempt": attempts[key],
                "error_type": error_type,
                "error_message": message,
            })
            if policy.exhausted(attempts[key]):
                item = pending.pop(key)
                errors[key] = CampaignRunError(
                    key,
                    _run_params(self._payload(item)),
                    error_type,
                    message,
                    attempts=history[key],
                )
            else:
                self.retries += 1

        try:
            while pending:
                batch = [pending[key] for key in sorted(pending)]
                backoff = max(
                    (policy.delay(attempts[item.key], item.key)
                     for item in batch if attempts.get(item.key)),
                    default=0.0,
                )
                if backoff:
                    time.sleep(backoff)
                watchdog.reset()
                deadlines = {item.key: watchdog.deadline_for(item) for item in batch}
                with multiprocessing.Pool(processes=min(self.jobs, len(batch))) as pool:
                    handles = {}
                    for item in batch:
                        payload = self._payload(item)
                        payload["attempt"] = attempts.get(item.key, 0) + 1
                        payload["heartbeat_dir"] = str(watchdog.directory)
                        if spec:
                            payload["faults"] = spec
                        handles[item.key] = pool.apply_async(_simulate_entry, (payload,))
                    self._collect(
                        handles, deadlines, watchdog, pending, outcomes, errors, strike
                    )
                    # Exiting the with-block terminates the pool, killing any
                    # hung worker and discarding tasks orphaned by a crash.
        finally:
            watchdog.cleanup()
        for key in sorted(outcomes):
            result_dict, seconds = outcomes[key]
            self.commit_serialized(key, result_dict, seconds)

    def _collect(self, handles, deadlines, watchdog, pending, outcomes,
                 errors, strike) -> None:
        """One round's completion loop: drain results until done or overdue.

        Successful keys leave ``pending`` and land in ``outcomes``;
        transient worker errors strike (requeue or exhaust); permanent ones
        fail directly — a deterministic simulation error recurs on every
        attempt, so its first failure is definitive.  Returning with
        ``handles`` non-empty means the watchdog condemned this round — the
        caller terminates the pool and requeues un-struck survivors.
        """
        poll = watchdog.config.poll_interval_s
        stall_budget = watchdog.config.min_seconds + max(deadlines.values(), default=0.0)
        last_progress = time.monotonic()
        while handles:
            progressed = False
            for key in sorted(handles):
                handle = handles[key]
                if not handle.ready():
                    continue
                progressed = True
                del handles[key]
                try:
                    _, result_dict, seconds = handle.get()
                except Exception as error:  # noqa: BLE001 - pool plumbing failure
                    strike(key, type(error).__name__, str(error))
                    continue
                marker = result_dict.get(_ERROR_MARKER)
                if marker is not None:
                    if self.retry_policy.transient(marker["error_type"]):
                        strike(key, marker["error_type"], marker["error_message"])
                    else:
                        # Permanent: one deterministic failure is definitive.
                        pending.pop(key, None)
                        errors[key] = CampaignRunError(
                            key,
                            marker["params"],
                            marker["error_type"],
                            marker["error_message"],
                            marker["traceback"],
                        )
                    continue
                pending.pop(key, None)
                outcomes[key] = (result_dict, seconds)
            if progressed:
                last_progress = time.monotonic()
            if not handles:
                return
            overdue = watchdog.overdue(
                {key: deadlines[key] for key in handles}
            )
            if overdue:
                self.watchdog_kills += len(overdue)
                for key in sorted(overdue):
                    del handles[key]
                    strike(
                        key,
                        "WorkerTimeout",
                        f"no result after {overdue[key]:.1f}s "
                        f"(deadline {deadlines[key]:.1f}s); pool terminated",
                    )
                return  # terminate the pool; un-struck keys requeue freely
            if time.monotonic() - last_progress > stall_budget:
                # No completion and no overdue heartbeat for a whole budget:
                # workers died before heartbeating (or the pool wedged).
                self.watchdog_kills += len(handles)
                for key in sorted(handles):
                    del handles[key]
                    strike(key, "WorkerStall",
                           f"no worker progress for {stall_budget:.1f}s; pool terminated")
                return
            time.sleep(poll)

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
        program = self._build_program(
            request.benchmark, request.granularity, resolved.workload_runtime
        )
        if self.verbose:  # pragma: no cover - console feedback only
            print(
                f"[run] {request.benchmark} runtime={request.runtime} "
                f"scheduler={request.scheduler} tasks={program.num_tasks}"
            )
        # Count *completed* simulations only (matching the pool path, where
        # failed workers never reach the parent's counter): shard manifests
        # report failures separately from `simulated`.
        started = time.perf_counter()
        result = run_simulation(program, resolved.config)
        self.key_timings[resolved.key] = time.perf_counter() - started
        self.simulations_run += 1
        return result

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
