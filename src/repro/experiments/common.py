"""Shared infrastructure of the experiment harnesses.

:class:`SimulationRunner` runs (workload, runtime, scheduler, configuration)
combinations on top of the :class:`~repro.experiments.campaign.CampaignEngine`,
which memoizes results by a content hash of the full configuration — so
experiments which share runs (for example the software FIFO baseline every
figure normalizes to) do not simulate them twice, across processes or even
across invocations when a cache directory is configured.

:class:`ExperimentResult` is the uniform output format: named rows (one per
plotted bar/point), free-form notes, and renderers for Markdown and CSV used
by EXPERIMENTS.md and the command-line tool.
"""

from __future__ import annotations

import csv
import io
import pathlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Union

from ..analysis.metrics import geometric_mean
from ..config import DMUConfig, SimulationConfig
from ..sim.machine import SimulationResult
from ..workloads.registry import PAPER_BENCHMARKS
from .campaign import CampaignEngine, RunRequest
from ..errors import ExperimentError

#: Scheduler names swept by the scheduling-flexibility experiments.
SCHEDULERS = ("fifo", "lifo", "locality", "successor", "age")

#: Default scheduler used when a single software policy is needed.
BASELINE_SCHEDULER = "fifo"


def unique_requests(requests: Iterable[RunRequest]) -> List[RunRequest]:
    """Order-preserving deduplication of a planned sweep.

    Harness plans naturally repeat points (every figure replans its
    software-FIFO baseline next to the same request from its scheduler
    sweep); :class:`RunRequest` is a frozen dataclass, so equal requests
    collapse here and plan sizes, shard manifests and prefetch batches all
    count *simulations*, not enumeration artifacts.
    """
    return list(dict.fromkeys(requests))


@dataclass
class ExperimentResult:
    """Uniform result container for every experiment harness."""

    experiment: str
    title: str
    columns: Sequence[str]
    rows: List[Mapping[str, object]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    paper_reference: Dict[str, object] = field(default_factory=dict)

    def add_row(self, **values: object) -> None:
        self.rows.append(dict(values))

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    def column_values(self, column: str) -> List[object]:
        return [row.get(column) for row in self.rows]

    def row_for(self, **match: object) -> Mapping[str, object]:
        """First row whose fields match all the given key/value pairs."""
        for row in self.rows:
            if all(row.get(key) == value for key, value in match.items()):
                return row
        raise KeyError(f"no row matching {match} in {self.experiment}")

    # ------------------------------------------------------------------ rendering
    def to_markdown(self) -> str:
        """Render the result as a Markdown section with a table."""
        lines = [f"### {self.title}", ""]
        header = "| " + " | ".join(self.columns) + " |"
        separator = "| " + " | ".join("---" for _ in self.columns) + " |"
        lines.extend([header, separator])
        for row in self.rows:
            cells = [self._format(row.get(column)) for column in self.columns]
            lines.append("| " + " | ".join(cells) + " |")
        if self.notes:
            lines.append("")
            for note in self.notes:
                lines.append(f"- {note}")
        lines.append("")
        return "\n".join(lines)

    def to_csv(self) -> str:
        """Render the rows as CSV text."""
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=list(self.columns), extrasaction="ignore")
        writer.writeheader()
        for row in self.rows:
            writer.writerow({column: row.get(column) for column in self.columns})
        return buffer.getvalue()

    @staticmethod
    def _format(value: object) -> str:
        if isinstance(value, float):
            return f"{value:.3f}"
        if value is None:
            return ""
        return str(value)


class SimulationRunner:
    """Runs and memoizes benchmark simulations for the experiment harnesses.

    A thin façade over :class:`~repro.experiments.campaign.CampaignEngine`
    keeping the historical ``runner.run(...)`` call signature the harnesses
    use.  ``jobs`` and ``cache_dir`` flow straight to the engine: with
    ``jobs > 1`` batched prefetches (:meth:`prefetch`) fan out over a process
    pool, and with ``cache_dir`` every result persists across invocations.
    """

    def __init__(
        self,
        scale: float = 1.0,
        base_config: Optional[SimulationConfig] = None,
        seed: int = 0,
        verbose: bool = False,
        jobs: int = 1,
        cache_dir: Optional[Union[str, pathlib.Path]] = None,
        cache_max_bytes: Optional[int] = None,
        engine: Optional[CampaignEngine] = None,
    ) -> None:
        # An injected engine carries all its own parameters; the results
        # daemon uses this to render through long-lived engines that share
        # one disk cache across requests.
        self.engine = engine or CampaignEngine(
            scale=scale,
            base_config=base_config,
            seed=seed,
            jobs=jobs,
            cache_dir=cache_dir,
            cache_max_bytes=cache_max_bytes,
            verbose=verbose,
        )

    # ------------------------------------------------------------------ engine façade
    @property
    def scale(self) -> float:
        return self.engine.scale

    @property
    def seed(self) -> int:
        return self.engine.seed

    @property
    def jobs(self) -> int:
        return self.engine.jobs

    @property
    def verbose(self) -> bool:
        return self.engine.verbose

    @property
    def base_config(self) -> SimulationConfig:
        return self.engine.base_config

    def config_for(
        self,
        runtime: str,
        scheduler: str = BASELINE_SCHEDULER,
        dmu: Optional[DMUConfig] = None,
    ) -> SimulationConfig:
        return self.engine.config_for(runtime, scheduler, dmu)

    def cache_info(self) -> Dict[str, int]:
        """Hit/miss/simulation counters of the underlying engine."""
        return self.engine.cache_info()

    def reliability_info(self) -> Dict[str, int]:
        """Recovery counters (retries/watchdog/quarantine) of the engine."""
        return self.engine.reliability_info()

    def prune_cache(self) -> int:
        """Enforce the engine's disk-cache size budget; returns evictions."""
        return self.engine.prune_disk_cache()

    @staticmethod
    def _config_token(config: SimulationConfig) -> str:
        """The legacy hand-written cache token.  DO NOT use for caching.

        Kept only to document (and regression-test) the collision it caused:
        it omits ``tat_associativity``, ``dat_associativity``,
        ``elements_per_list_entry``, ``ready_queue_entries``,
        ``instruction_issue_cycles``, ``noc_roundtrip_cycles`` and
        ``unlimited``, so sweeps varying any of those mapped to the same key
        and returned stale results.  Superseded by
        :func:`repro.experiments.cache.canonical_run_key`.
        """
        dmu = config.dmu
        return (
            f"{dmu.tat_entries}/{dmu.dat_entries}/{dmu.successor_list_entries}/"
            f"{dmu.dependence_list_entries}/{dmu.reader_list_entries}/"
            f"{dmu.access_cycles}/{dmu.index_selection}/{dmu.static_index_start_bit}/"
            f"{config.chip.num_cores}"
        )

    # ------------------------------------------------------------------ running
    def run(
        self,
        benchmark: str,
        runtime: str,
        scheduler: str = BASELINE_SCHEDULER,
        granularity: Optional[int] = None,
        dmu: Optional[DMUConfig] = None,
        granularity_runtime: Optional[str] = None,
    ) -> SimulationResult:
        """Run one benchmark under one runtime/scheduler/DMU configuration.

        Unless ``granularity`` is given, the workload is generated at the
        optimal granularity of ``granularity_runtime`` (defaulting to the
        software optimum for the software/Carbon runtimes and the TDM optimum
        for the DMU-based runtimes, exactly as the paper's evaluation does).
        """
        return self.engine.run(
            RunRequest(
                benchmark=benchmark,
                runtime=runtime,
                scheduler=scheduler,
                granularity=granularity,
                dmu=dmu,
                granularity_runtime=granularity_runtime,
            )
        )

    def run_many(self, requests: Sequence[RunRequest]) -> List[SimulationResult]:
        """Run a batch of requests, in parallel when ``jobs > 1``."""
        return self.engine.run_many(requests)

    def prefetch(self, requests: Iterable[RunRequest]) -> int:
        """Warm the caches with ``requests``; later ``run`` calls hit the memo."""
        batch = list(requests)
        if batch:
            self.engine.run_many(batch)
        return len(batch)

    def software_baseline(self, benchmark: str) -> SimulationResult:
        """The software-runtime FIFO baseline every figure normalizes to."""
        return self.run(benchmark, "software", BASELINE_SCHEDULER)

    # ------------------------------------------------------------------ aggregates
    @staticmethod
    def geomean(values: Iterable[float]) -> float:
        return geometric_mean(values)


def select_benchmarks(benchmarks: Optional[Sequence[str]]) -> List[str]:
    """Validate and normalize a benchmark subset (default: all nine)."""
    if benchmarks is None:
        return list(PAPER_BENCHMARKS)
    unknown = [name for name in benchmarks if name not in PAPER_BENCHMARKS]
    if unknown:
        raise ExperimentError(f"unknown benchmarks: {', '.join(unknown)}")
    return list(benchmarks)
