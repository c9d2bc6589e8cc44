"""Per-layer spans and counters, wrapped around ``repro``'s entry points.

Nothing under ``src/`` knows about this module.  :class:`Tracer` replaces
public entry points of each layer (``sim``, ``core``, ``schedulers``,
``workloads``, ``power``, ``analysis``, the campaign engine and its result
cache) with timing wrappers, and puts the originals back on
:meth:`Tracer.uninstall`.  Each wrapper records one span: inclusive time,
self time (inclusive minus the spans nested inside it) and a call count.
Counters of simulated work are read where the work finishes
(``Machine.run`` returning).

Campaign pool workers are forked while the wrappers are installed, so they
inherit them.  The worker entry point is wrapped too: after each
simulation a worker appends its span totals as one JSON line to
``<worker_dir>/worker-<pid>.jsonl`` (pool workers are terminated, never
exited, so nothing is left for an exit hook), and the parent folds those
lines into its own totals with :meth:`Tracer.collect_workers`.
"""

from __future__ import annotations

import functools
import json
import os
import pathlib
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: The DMU's ISA entry points, wrapped on each *instance* (a storage backend
#: may rebind them there at construction).
ISA_METHODS = (
    "create_task",
    "add_dependence",
    "complete_creation",
    "finish_task",
    "get_ready_task",
)


class Tracer:
    """In-memory span totals and counters for one process."""

    def __init__(self, worker_dir: Optional[pathlib.Path] = None) -> None:
        self.worker_dir = worker_dir
        self.pid = self.parent_pid = os.getpid()
        # The containers are cleared in place, never replaced: wrappers
        # bind them once for speed.
        self.total: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[float] = []
        #: Time inside spans opened with no span around them, in this
        #: process only (worker records never add to it).
        self.top_level = [0.0]
        self._active: Dict[str, int] = defaultdict(int)
        self._patches: List[Tuple[object, str, object]] = []
        self.worker_records = 0

    # ------------------------------------------------------------------ spans
    def reset(self) -> None:
        for container in (self.total, self.self_time, self.calls, self.counts, self._active):
            container.clear()
        self._stack.clear()
        self.top_level[0] = 0.0
        self.worker_records = 0

    def span(self, name: str, function: Callable) -> Callable:
        """``function`` wrapped in a span called ``name``.

        A call made while a span of the same name is open (a subclass method
        reaching its parent's) counts toward the outer span only.
        """
        perf = time.perf_counter
        stack = self._stack
        active = self._active
        total = self.total
        self_time = self.self_time
        calls = self.calls
        top_level = self.top_level

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if active[name]:
                return function(*args, **kwargs)
            active[name] = 1
            stack.append(0.0)
            start = perf()
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = perf() - start
                nested = stack.pop()
                active[name] = 0
                total[name] += elapsed
                self_time[name] += elapsed - nested
                calls[name] += 1
                if stack:
                    stack[-1] += elapsed
                else:
                    top_level[0] += elapsed

        return wrapper

    # ------------------------------------------------------------------ patching
    def _patch(self, owner: object, attribute: str, replacement: object) -> None:
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def _patch_method(self, cls: type, attribute: str, name: str) -> None:
        self._patch(cls, attribute, self.span(name, cls.__dict__[attribute]))

    def install(self) -> None:
        """Wrap every layer's entry points; :meth:`uninstall` undoes it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        from repro.analysis import validation
        from repro.core import dmu as dmu_module
        from repro.experiments import cache as cache_module
        from repro.experiments import campaign
        from repro.power.energy import ChipEnergyModel
        from repro.schedulers.base import Scheduler
        from repro.sim.machine import Machine
        from repro.workloads.base import Workload

        self._patch(Machine, "run", self.span("sim.machine_run", self._counting_run(Machine.run)))
        self._patch_dmu_init(dmu_module.DependenceManagementUnit)
        for cls in _subclasses(Scheduler):
            for method in ("push", "pop"):
                if method in cls.__dict__:
                    self._patch_method(cls, method, f"schedulers.{method}")
        for cls in [Workload, *_subclasses(Workload)]:
            if "build_program" in cls.__dict__:
                self._patch_method(cls, "build_program", "workloads.build")
        self._patch_method(ChipEnergyModel, "report", "power.report")
        self._patch(validation, "validate_execution",
                    self.span("analysis.validate", validation.validate_execution))
        self._patch_method(campaign.CampaignEngine, "run_many", "campaign.run_many")
        key_span = self.span("cache.key", cache_module.canonical_run_key)
        self._patch(cache_module, "canonical_run_key", key_span)
        self._patch(campaign, "canonical_run_key", key_span)
        self._patch_method(cache_module.ResultCache, "get", "cache.get")
        self._patch(cache_module.ResultCache, "put_serialized",
                    self.span("cache.put", self._counting_put(
                        cache_module.ResultCache.put_serialized)))
        self._patch(campaign, "_simulate_entry", self._worker_entry(campaign._simulate_entry))

    def uninstall(self) -> None:
        """Put every original entry point back (in reverse patch order)."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # ------------------------------------------------------------------ wrappers
    def _counting_run(self, run: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(run)
        def counting_run(machine):
            result = run(machine)
            counts["sim.events"] += machine.engine._seq
            counts["sim.cycles_total"] += result.total_cycles
            counts["sim.tasks"] += result.num_tasks_executed
            runtime_stats = result.runtime_stats
            counts["runtime.tasks"] += runtime_stats["tasks_finished"]
            counts["runtime.pool_pops"] += runtime_stats["pool_pops"]
            counts["runtime.lock_wait_cycles"] += runtime_stats["lock_wait_cycles"]
            if result.dmu_stats is not None:
                add_dmu_counts(counts, result.dmu_stats)
            return result

        return counting_run

    def _counting_put(self, put: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(put)
        def counting_put(cache, key, result_dict):
            path = put(cache, key, result_dict)
            counts["cache.bytes_written"] += path.stat().st_size
            return path

        return counting_put

    def _patch_dmu_init(self, dmu_class: type) -> None:
        original = dmu_class.__dict__["__init__"]
        span = self.span

        @functools.wraps(original)
        def init(dmu, *args, **kwargs):
            original(dmu, *args, **kwargs)
            for method in ISA_METHODS:
                setattr(dmu, method, span("core.isa", getattr(dmu, method)))

        self._patch(dmu_class, "__init__", init)

    def _worker_entry(self, entry: Callable) -> Callable:
        """The pool worker body, dumping this worker's totals after each run.

        ``functools.wraps`` keeps the original ``__module__``/``__qualname__``,
        so the pool pickles the wrapper by the same reference as the
        original and a forked worker resolves it to this wrapper.
        """
        tracer = self

        @functools.wraps(entry)
        def worker_entry(payload):
            pid = os.getpid()
            if pid == tracer.parent_pid:
                return entry(payload)
            if pid != tracer.pid:
                # First call in a forked worker: drop what the parent had
                # accumulated (and its open spans) before the fork.
                tracer.pid = pid
                tracer.reset()
            try:
                return entry(payload)
            finally:
                tracer.dump_worker()

        return worker_entry

    # ------------------------------------------------------------------ workers
    def dump_worker(self) -> None:
        """Append this process's totals to its worker file and reset them."""
        if self.worker_dir is None:
            return
        record = {
            "total": dict(self.total),
            "self": dict(self.self_time),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
        }
        path = pathlib.Path(self.worker_dir) / f"worker-{os.getpid()}.jsonl"
        with path.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
        self.reset()

    def collect_workers(self) -> None:
        """Fold every worker record into this tracer and delete the files."""
        if self.worker_dir is None:
            return
        for path in sorted(pathlib.Path(self.worker_dir).glob("worker-*.jsonl")):
            for line in path.read_text(encoding="utf-8").splitlines():
                record = json.loads(line)
                for target, key in ((self.total, "total"), (self.self_time, "self"),
                                    (self.calls, "calls"), (self.counts, "counts")):
                    for name, value in record[key].items():
                        target[name] += value
                self.worker_records += 1
            path.unlink()


def add_dmu_counts(counts: Dict[str, float], stats) -> None:
    """Add one DMU's final statistics to the ``core.*`` counters."""
    counts["core.instructions"] += stats.total_instructions
    counts["core.sram_accesses"] += stats.total_accesses
    counts["core.blocked"] += stats.total_blocked
    counts["core.ready_pops"] += stats.ready_pops
    counts["core.null_pops"] += stats.null_ready_pops


def _subclasses(cls: type) -> List[type]:
    found: List[type] = []
    pending = list(cls.__subclasses__())
    while pending:
        sub = pending.pop()
        if sub not in found:
            found.append(sub)
            pending.extend(sub.__subclasses__())
    return sorted(found, key=lambda sub: (sub.__module__, sub.__qualname__))
