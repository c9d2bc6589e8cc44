"""The campaign results daemon: a stdlib-only asyncio HTTP/JSON service.

``tdm-repro serve`` (or ``scripts/run_server.py``) starts one
:class:`ResultsService`.  The service owns, for its whole lifetime:

* one :class:`~repro.experiments.cache.ResultCache` — every request's
  engine reads and writes the same on-disk store;
* a bounded pool of :class:`~repro.experiments.campaign.CampaignEngine`
  instances keyed by ``(scale, seed)`` — the in-memory memo of a
  warm parameter set;
* simulation offload through the engine's own loop
  (:meth:`~repro.experiments.campaign.CampaignEngine.run_many`, with its
  retries and watchdog) in a worker thread, so the event loop never blocks
  on a simulation and at most ``workers`` simulating processes run at once;
* a :class:`~repro.service.singleflight.SingleFlight` group keyed by
  canonical run key — N concurrent identical requests cost one simulation
  per key.

Endpoints::

    GET  /experiments      registry listing (experiment_catalog)
    POST /figures/<name>   render; JSON body of knobs; CSV/Markdown reply
                           with a canonical-key-set ETag (If-None-Match
                           revalidation answers 304 with zero simulation)
    GET  /jobs/<id>        progress record in the ShardManifest vocabulary
    GET  /healthz          liveness + cache/engine/flight counters
"""

from __future__ import annotations

import asyncio
import pathlib
import sys
import time
from typing import Dict, List, Optional, Sequence, TextIO, Tuple, Union
import json

from ..errors import ExperimentError
from ..reliability.faults import maybe_fault
from ..experiments.cache import ResultCache
from ..experiments.campaign import CampaignEngine, CampaignRunError, ResolvedRun
from ..experiments.common import SimulationRunner
from ..experiments.registry import (
    canonical_name,
    experiment_catalog,
    plan_function,
    resolve_plan,
    run_experiment,
)
from .jobs import JobTable
from .schemas import (
    CONTENT_TYPES,
    RenderRequest,
    etag_for,
    etag_matches,
    parse_render_request,
)
from .singleflight import SingleFlight

#: Largest accepted request body; render requests are a handful of knobs.
MAX_BODY_BYTES = 1 << 20

_REASONS = {
    200: "OK",
    304: "Not Modified",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Cap on request header lines; real clients send a handful.
MAX_HEADER_LINES = 100


class _HttpError(Exception):
    """An error with a definite HTTP status, rendered as a JSON body."""

    def __init__(self, status: int, message: str,
                 headers: Optional[Dict[str, str]] = None) -> None:
        super().__init__(message)
        self.status = status
        self.headers = dict(headers or {})


class ResultsService:
    """The daemon: engine pool, simulation offload, request handlers."""

    #: Engines kept warm; beyond this the oldest parameter set is dropped
    #: (its results stay in the shared disk cache — only the memo goes).
    ENGINE_LIMIT = 8

    #: How long a poison key's failure is served from cache before a fresh
    #: simulation attempt is allowed (negative-TTL caching).
    DEFAULT_FAILURE_TTL_S = 30.0

    #: Seconds the graceful shutdown waits for in-flight requests.
    DRAIN_TIMEOUT_S = 30.0

    def __init__(
        self,
        cache_dir: Optional[Union[str, pathlib.Path]] = None,
        workers: int = 2,
        verbose: bool = False,
        log: TextIO = sys.stdout,
        request_timeout_s: Optional[float] = None,
        queue_budget: int = 32,
        failure_ttl_s: float = DEFAULT_FAILURE_TTL_S,
    ) -> None:
        if workers < 1:
            raise ExperimentError(f"workers must be >= 1, got {workers}")
        if request_timeout_s is not None and request_timeout_s <= 0:
            request_timeout_s = None
        if queue_budget < 0:
            raise ExperimentError(f"queue_budget must be >= 0, got {queue_budget}")
        self.cache = ResultCache(cache_dir) if cache_dir is not None else None
        self.workers = workers
        self.verbose = verbose
        self._log_stream = log
        #: Per-request render deadline (None = unbounded): a render that
        #: cannot finish in time answers 503 + Retry-After while its
        #: simulations keep running in the pool and land in the cache, so
        #: the client's retry is a warm hit.
        self.request_timeout_s = request_timeout_s
        #: Maximum simulations *queued behind* the pool (in-flight beyond
        #: ``workers``) before new renders are refused with 503.
        self.queue_budget = queue_budget
        self.failure_ttl_s = failure_ttl_s
        self.engines: Dict[tuple, CampaignEngine] = {}
        self.flights = SingleFlight()
        self.jobs = JobTable()
        #: One slot per simulating process: each flight runs one key through
        #: its engine's loop, which simulates it in a one-process pool.
        self._sim_slots = asyncio.Semaphore(workers)
        #: Recovery counters of engines dropped from :attr:`engines`.
        self._evicted_reliability = {"retries": 0, "watchdog_kills": 0}
        self.started_at = time.time()
        #: Serializes render sections per engine (simulations stay parallel:
        #: the lock is only held around memo lookups and row assembly).
        self._render_locks: Dict[tuple, asyncio.Lock] = {}
        #: Negative-TTL failure cache: key -> (monotonic expiry, message).
        #: A poison key (deterministic simulation failure) answers from here
        #: until the TTL lapses instead of re-simulating in a hot loop.
        self._failures: Dict[str, Tuple[float, str]] = {}
        self.failure_cache_hits = 0
        #: Simulations in flight (simulating or waiting for a slot).
        self.inflight_sims = 0
        #: Renders refused because the simulation queue exceeded budget.
        self.rejected_busy = 0
        #: Renders that hit their per-request deadline.
        self.deadline_expired = 0
        #: Open HTTP connections being handled (drained on shutdown).
        self._active_requests = 0
        self.draining = False

    # ------------------------------------------------------------------ plumbing
    def log(self, message: str) -> None:
        print(f"[serve] {message}", file=self._log_stream, flush=True)

    def engine_for(self, request: RenderRequest) -> CampaignEngine:
        """The (warm or new) engine of one parameter set, sharing the caches."""
        key = (request.scale, request.seed)
        engine = self.engines.get(key)
        if engine is None:
            engine = CampaignEngine(
                scale=request.scale,
                seed=request.seed,
                # Never 1: a single-worker daemon still simulates in a pool
                # process (crash isolation, watchdog), not on its own threads.
                jobs=max(2, self.workers),
                disk_cache=self.cache,
            )
            if len(self.engines) >= self.ENGINE_LIMIT:
                evicted = next(iter(self.engines))
                dropped = self.engines.pop(evicted).reliability_info()
                for name in self._evicted_reliability:
                    self._evicted_reliability[name] += dropped[name]
                self._render_locks.pop(evicted, None)
            self.engines[key] = engine
            self._render_locks[key] = asyncio.Lock()
        return engine

    def _render_lock(self, request: RenderRequest) -> asyncio.Lock:
        return self._render_locks[(request.scale, request.seed)]

    async def _simulate(self, engine: CampaignEngine, resolved: ResolvedRun) -> None:
        """Simulate one resolved run through its engine's loop.

        The loop retries transient failures (a crashed or hung worker) and
        commits the result; it runs in a worker thread, holding one of the
        ``workers`` simulation slots.  Coalesced by canonical key across
        *all* concurrent requests and engines: joiners of a flight started
        by another engine re-probe the shared disk cache once it lands.
        """

        self._check_failure_cache(resolved.key)

        async def flight() -> None:
            if engine.cached(resolved) is not None:
                # A previous flight for this key landed between our caller's
                # cache probe and takeoff — nothing left to simulate.
                return
            self.inflight_sims += 1
            try:
                async with self._sim_slots:
                    await asyncio.to_thread(engine.run_many, [resolved.request])
            except CampaignRunError as error:
                # Negative-TTL cache: until the TTL lapses, repeat requests
                # for this poison key are answered without resimulating.
                self._failures[error.key] = (
                    time.monotonic() + self.failure_ttl_s, str(error)
                )
                raise
            finally:
                self.inflight_sims -= 1

        await self.flights.run(resolved.key, flight)
        if engine.cached(resolved) is None:
            # The flight may have been led by another engine (one since
            # evicted and rebuilt): it committed to the shared disk cache,
            # which ``cached`` reads through, so a miss means nothing landed.
            raise _HttpError(
                500, f"simulation {resolved.key[:12]}… landed but is not cached"
            )

    def _check_failure_cache(self, key: str) -> None:
        """Refuse (503 + Retry-After) keys with a live cached failure."""
        entry = self._failures.get(key)
        if entry is None:
            return
        expiry, message = entry
        remaining = expiry - time.monotonic()
        if remaining <= 0:
            del self._failures[key]
            return
        self.failure_cache_hits += 1
        raise _HttpError(
            503,
            f"cached failure for {key[:12]}… (retry in {remaining:.0f}s): {message}",
            headers={"Retry-After": str(max(1, int(remaining + 0.999)))},
        )

    def _prune_failure_cache(self) -> None:
        now = time.monotonic()
        for key in [k for k, (expiry, _) in self._failures.items() if expiry <= now]:
            del self._failures[key]

    def _check_queue_budget(self, new_sims: int) -> None:
        """Refuse renders that would overflow the simulation queue budget."""
        projected = self.inflight_sims + new_sims
        if projected <= self.workers + self.queue_budget:
            return
        self.rejected_busy += 1
        # Rough drain estimate: a full queue at ~1s per simulation slot.
        backlog = max(1, (projected - self.workers) // max(1, self.workers))
        raise _HttpError(
            503,
            f"simulation queue over budget ({self.inflight_sims} in flight, "
            f"{new_sims} requested, budget {self.queue_budget}); retry later",
            headers={"Retry-After": str(min(60, backlog))},
        )

    # ------------------------------------------------------------------ handlers
    async def handle_experiments(self) -> Tuple[int, bytes, str, Dict[str, str]]:
        body = _json_bytes({"experiments": experiment_catalog()})
        return 200, body, "application/json", {}

    async def handle_healthz(self) -> Tuple[int, bytes, str, Dict[str, str]]:
        self._prune_failure_cache()
        degraded = []
        if self.cache is not None and self.cache.quarantined:
            degraded.append(f"{self.cache.quarantined} cache entries quarantined")
        if self._failures:
            degraded.append(f"{len(self._failures)} keys in failure cache")
        if self.inflight_sims > self.workers + self.queue_budget:
            degraded.append("simulation queue over budget")
        if self.draining:
            degraded.append("draining for shutdown")
        body = _json_bytes(
            {
                "status": "degraded" if degraded else "ok",
                "degraded_reasons": degraded,
                "uptime_s": round(time.time() - self.started_at, 3),
                "engines": len(self.engines),
                "jobs": len(self.jobs),
                "flights": {
                    "in_flight": len(self.flights),
                    "started": self.flights.started,
                    "joined": self.flights.joined,
                },
                "reliability": {
                    **self._engine_reliability(),
                    "inflight_sims": self.inflight_sims,
                    "queue_budget": self.queue_budget,
                    "rejected_busy": self.rejected_busy,
                    "deadline_expired": self.deadline_expired,
                    "failure_cache": len(self._failures),
                    "failure_cache_hits": self.failure_cache_hits,
                    "quarantined": self.cache.quarantined if self.cache is not None else 0,
                },
                "cache_dir": str(self.cache.directory) if self.cache is not None else None,
            }
        )
        return 200, body, "application/json", {}

    def _engine_reliability(self) -> Dict[str, int]:
        """Simulation retries and watchdog strikes of every engine so far."""
        totals = dict(self._evicted_reliability)
        for engine in self.engines.values():
            info = engine.reliability_info()
            for name in totals:
                totals[name] += info[name]
        return totals

    async def handle_job(self, job_id: str) -> Tuple[int, bytes, str, Dict[str, str]]:
        job = self.jobs.get(job_id)
        if job is None:
            raise _HttpError(404, f"unknown job {job_id!r}")
        return 200, _json_bytes(job.to_dict()), "application/json", {}

    async def handle_render(
        self, name: str, body: bytes, if_none_match: Optional[str]
    ) -> Tuple[int, bytes, str, Dict[str, str]]:
        maybe_fault("serve", key=None)
        try:
            experiment = canonical_name(name)
        except ExperimentError as error:
            raise _HttpError(404, str(error)) from error
        try:
            request = parse_render_request(body)
        except ExperimentError as error:
            raise _HttpError(400, str(error)) from error

        engine = self.engine_for(request)
        runner = SimulationRunner(engine=engine)
        try:
            plan = plan_function(experiment)
            resolved: List[ResolvedRun] = (
                resolve_plan(
                    experiment, runner,
                    benchmarks=request.benchmarks, **request.plan_kwargs(),
                )
                if plan is not None
                else []
            )
        except ExperimentError as error:
            raise _HttpError(400, str(error)) from error

        etag = etag_for(experiment, request, [item.key for item in resolved])
        if etag_matches(if_none_match, etag):
            # Revalidation is pure identity: no simulation, no render.
            self.log(f"revalidated experiment={experiment} etag={etag[1:13]}… 304")
            return 304, b"", CONTENT_TYPES[request.format], {"ETag": etag}

        # Degradation gates, before any work is admitted: a queue already
        # over budget refuses the render outright (503 + Retry-After).
        cold = sum(1 for item in resolved if engine.cached(item) is None)
        if cold:
            self._check_queue_budget(cold)

        job = self.jobs.create(
            experiment, request.scale, request.seed, request.benchmarks,
            [item.key for item in resolved],
        )
        try:
            payload = await asyncio.wait_for(
                self._render(engine, experiment, request, resolved, job),
                timeout=self.request_timeout_s,
            )
        except asyncio.TimeoutError as error:
            # The per-request deadline lapsed.  In-flight simulations are
            # *not* abandoned: single-flight shields them, they land in the
            # shared cache, and the client's retry renders warm.
            self.deadline_expired += 1
            job.finish("failed")
            self.log(job.summary())
            raise _HttpError(
                503,
                f"render deadline ({self.request_timeout_s:.0f}s) exceeded; "
                "simulations continue in the background — retry shortly",
                headers={"Retry-After": "2"},
            ) from error
        except CampaignRunError as error:
            job.failures[error.key] = error.to_dict()
            job.finish("failed")
            self.log(job.summary())
            raise _HttpError(500, str(error)) from error
        except _HttpError:
            job.finish("failed")
            self.log(job.summary())
            raise
        except ExperimentError as error:
            job.finish("failed")
            self.log(job.summary())
            raise _HttpError(400, str(error)) from error
        job.finish("done", etag=etag)
        self.log(job.summary())
        headers = {"ETag": etag, "X-Job-Id": job.id}
        return 200, payload, CONTENT_TYPES[request.format], headers

    async def _render(
        self,
        engine: CampaignEngine,
        experiment: str,
        request: RenderRequest,
        resolved: Sequence[ResolvedRun],
        job,
    ) -> bytes:
        """Simulate what is missing, then render from the warm engine."""
        missing = []
        for item in resolved:
            if engine.cached(item) is None:
                missing.append(item)
            else:
                job.cached_hits += 1
        if missing:
            await asyncio.gather(
                *(self._simulate(engine, item) for item in missing)
            )
        # Keys this request had to wait on a simulation for.  Single-flight
        # means concurrent identical requests each report the shared wait;
        # the engine's `simulations_run` counter stays the ground truth for
        # how many actually ran.
        job.simulated = len(missing)
        lock = self._render_lock(request)
        async with lock:
            # Every key is warm: the render is pure memo reads + row math,
            # so holding the per-engine lock here serializes only cheap
            # sections (concurrent different-engine renders still overlap).
            try:
                result = await asyncio.to_thread(
                    run_experiment,
                    experiment,
                    scale=request.scale,
                    benchmarks=request.benchmarks,
                    runner=SimulationRunner(engine=engine),
                    **request.plan_kwargs(),
                )
            except TypeError as error:
                # An option the harness does not take (e.g. schedulers on a
                # figure without a scheduler sweep) → caller error.
                raise _HttpError(400, f"unsupported option for {experiment}: {error}") from error
        text = result.to_csv() if request.format == "csv" else result.to_markdown()
        return text.encode("utf-8")

    # ------------------------------------------------------------------ HTTP
    async def handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._active_requests += 1
        try:
            await self._handle_connection(reader, writer)
        finally:
            self._active_requests -= 1

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            parsed = await _read_request(reader)
            if parsed is None:
                return
            method, target, headers, body = parsed
            status, payload, content_type, extra = await self._route(
                method, target, headers, body
            )
        except _HttpError as error:
            status, payload, content_type, extra = (
                error.status,
                _json_bytes({"error": str(error)}),
                "application/json",
                dict(error.headers),
            )
        except (asyncio.IncompleteReadError, ConnectionError):
            writer.close()
            return
        except Exception as error:  # noqa: BLE001 - daemon must not die per-request
            # Full context to the server log; a generic body to the client
            # (internal exception text is not part of the API surface).
            self.log(f"internal error: {type(error).__name__}: {error}")
            status, payload, content_type, extra = (
                500,
                _json_bytes({"error": "internal server error"}),
                "application/json",
                {},
            )
        try:
            _write_response(writer, status, payload, content_type, extra)
            await writer.drain()
        except ConnectionError:
            pass
        finally:
            writer.close()

    async def _route(
        self, method: str, target: str, headers: Dict[str, str], body: bytes
    ) -> Tuple[int, bytes, str, Dict[str, str]]:
        path = target.split("?", 1)[0]
        if path == "/healthz":
            _require(method, "GET")
            return await self.handle_healthz()
        if path == "/experiments":
            _require(method, "GET")
            return await self.handle_experiments()
        if path.startswith("/jobs/"):
            _require(method, "GET")
            return await self.handle_job(path[len("/jobs/"):])
        if path.startswith("/figures/"):
            _require(method, "POST")
            return await self.handle_render(
                path[len("/figures/"):], body, headers.get("if-none-match")
            )
        raise _HttpError(404, f"no route for {path!r}")

    # ------------------------------------------------------------------ lifecycle
    async def serve(
        self,
        host: str = "127.0.0.1",
        port: int = 8765,
        ready: Optional[asyncio.Event] = None,
        bound: Optional[list] = None,
    ) -> None:
        """Run until cancelled.  ``ready``/``bound`` exist for test harnesses:
        ``bound`` receives the actual ``(host, port)`` (``port=0`` binds an
        ephemeral one) before ``ready`` is set."""
        server = await asyncio.start_server(self.handle_connection, host, port)
        address = server.sockets[0].getsockname()[:2]
        if bound is not None:
            bound.append(address)
        self.log(
            f"listening on http://{address[0]}:{address[1]} "
            f"(cache={self.cache.directory if self.cache is not None else 'memory-only'}, "
            f"workers={self.workers})"
        )
        if ready is not None:
            ready.set()
        async with server:
            try:
                await server.serve_forever()
            except asyncio.CancelledError:
                # Graceful drain: stop accepting, let in-flight requests
                # finish (bounded).
                self.draining = True
                server.close()
                deadline = time.monotonic() + self.DRAIN_TIMEOUT_S
                while self._active_requests and time.monotonic() < deadline:
                    await asyncio.sleep(0.05)
                if self._active_requests:
                    self.log(
                        f"drain timeout: {self._active_requests} "
                        "requests still in flight"
                    )
                raise


def _require(method: str, expected: str) -> None:
    if method != expected:
        raise _HttpError(405, f"method {method} not allowed (use {expected})")


def _json_bytes(data: Dict[str, object]) -> bytes:
    return (json.dumps(data, indent=1, sort_keys=True) + "\n").encode("utf-8")


async def _readline(reader: asyncio.StreamReader, what: str) -> bytes:
    """One header line, with StreamReader overruns mapped to clean 400s.

    An over-long line (beyond the reader's 64 KiB limit) raises
    ``ValueError``/``LimitOverrunError`` from ``readline``; without this
    wrapper that surfaced as a traceback-shaped 500.
    """
    try:
        return await reader.readline()
    except (ValueError, asyncio.LimitOverrunError) as error:
        raise _HttpError(400, f"oversized {what}") from error


async def _read_request(
    reader: asyncio.StreamReader,
) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
    request_line = await _readline(reader, "request line")
    if not request_line:
        return None
    parts = request_line.decode("latin-1").strip().split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        raise _HttpError(400, "malformed request line")
    method, target = parts[0].upper(), parts[1]
    headers: Dict[str, str] = {}
    while True:
        line = await _readline(reader, "header line")
        if line in (b"\r\n", b"\n", b""):
            break
        if len(headers) >= MAX_HEADER_LINES:
            raise _HttpError(400, f"more than {MAX_HEADER_LINES} header lines")
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    try:
        length = int(headers.get("content-length", "0") or "0")
    except ValueError as error:
        raise _HttpError(400, "malformed Content-Length") from error
    if length > MAX_BODY_BYTES:
        raise _HttpError(413, f"request body exceeds {MAX_BODY_BYTES} bytes")
    body = await reader.readexactly(length) if length else b""
    return method, target, headers, body


def _write_response(
    writer: asyncio.StreamWriter,
    status: int,
    payload: bytes,
    content_type: str,
    extra: Dict[str, str],
) -> None:
    lines = [f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}"]
    headers = dict(extra)
    headers.setdefault("Connection", "close")
    if status != 304:
        headers.setdefault("Content-Type", content_type)
        headers.setdefault("Content-Length", str(len(payload)))
    lines.extend(f"{name}: {value}" for name, value in headers.items())
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    writer.write(head + (payload if status != 304 else b""))


def serve(
    host: str = "127.0.0.1",
    port: int = 8765,
    cache_dir: Optional[Union[str, pathlib.Path]] = None,
    workers: int = 2,
    verbose: bool = False,
    request_timeout_s: Optional[float] = None,
    queue_budget: int = 32,
    failure_ttl_s: float = ResultsService.DEFAULT_FAILURE_TTL_S,
) -> int:
    """Blocking entry point shared by ``tdm-repro serve`` and run_server.py."""
    service = ResultsService(
        cache_dir=cache_dir,
        workers=workers,
        verbose=verbose,
        request_timeout_s=request_timeout_s,
        queue_budget=queue_budget,
        failure_ttl_s=failure_ttl_s,
    )
    try:
        asyncio.run(service.serve(host=host, port=port))
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
        service.log("shutting down")
    return 0
