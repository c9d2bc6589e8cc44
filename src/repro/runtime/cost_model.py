"""Calibrated cycle costs of runtime-system phases.

This is the bridge between the functional models (dependence tracker, DMU)
and the discrete-event simulation: every runtime-system action is converted
into a number of cycles the acting thread is busy.

Software costs model a Nanos++-style runtime: allocating and initializing a
task descriptor, and, per dependence, hashing the address, comparing against
the dependence's current readers and last writer, and linking the task into
the TDG.  The reader/successor-proportional terms are what make benchmarks
with wide reader sets (QR, Cholesky, Histogram) creation-bound, which is the
behaviour Figure 2 of the paper reports.

TDM costs model only the software work that remains once the DMU tracks
dependences: allocating the descriptor and issuing the ISA instructions (the
DMU processing cycles are computed separately by the DMU model itself, and
the NoC round trip by :class:`~repro.sim.noc.NocModel`).
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

from ..config import CostModelConfig
from .tracker import MatchResult


# The runtimes read fixed per-operation costs straight from
# ``CostModelConfig``; only the three costs that depend on the matching work
# performed are formulas.
def sw_dependence_lookup_cycles(costs: CostModelConfig, num_dependences: int) -> int:
    """Address hashing / region lookup work, performed outside the lock.

    Nanos++-style runtimes resolve each dependence region before taking the
    dependence-domain lock; only linking the task into the TDG needs mutual
    exclusion.  Splitting the cost keeps lock contention realistic (the
    paper measures thread-synchronization overheads below 1% of the
    dependence-management time).
    """
    return num_dependences * costs.sw_dep_base_cycles


def sw_dependence_commit_cycles(costs: CostModelConfig, match: MatchResult) -> int:
    """TDG linking work (reader traversals, successor inserts), under the lock."""
    return (
        match.readers_traversed * costs.sw_dep_per_reader_cycles
        + match.successor_links * costs.sw_dep_per_successor_cycles
    )


def sw_finish_cycles(costs: CostModelConfig, num_successors: int) -> int:
    """Software task-finalization cost (wake up successors, update the TDG)."""
    return costs.sw_finish_base_cycles + num_successors * costs.sw_finish_per_successor_cycles


# ---------------------------------------------------------------------------
# Campaign-level cost prediction (wall time of whole simulations)
# ---------------------------------------------------------------------------

#: Relative simulation cost per task by runtime model.  The software runtime
#: simulates per-dependence reader/successor traversals under the runtime
#: lock (more events per task); the hardware-queue runtimes replace pool
#: mechanics with single queue accesses.  Magnitudes are irrelevant — only
#: the ratios shape the partition — and the calibrated fit absorbs the
#: absolute scale.
RUNTIME_COST_WEIGHTS: Dict[str, float] = {
    "software": 1.3,
    "carbon": 1.1,
    "tdm": 1.0,
    "task_superscalar": 0.9,
}

#: Relative cost per task by scheduling policy (the policy runs inside the
#: simulated pop, so richer policies add simulated — and simulation — work).
SCHEDULER_COST_WEIGHTS: Dict[str, float] = {
    "fifo": 1.0,
    "lifo": 1.0,
    "age": 1.05,
    "locality": 1.1,
    "successor": 1.1,
}


class CampaignCostModel:
    """Predicts a campaign run's wall time from its workload parameters.

    Two-layer predictor used by cost-binned shard planning
    (:class:`repro.experiments.shard.ShardPlan` with ``strategy="cost"``):

    * **Analytic baseline** — ``task_count x per-task weight``: the task
      count comes from Table II of the paper scaled by the problem scale
      (the same numbers the workload generators target), the weight from
      the runtime/scheduler of the run and a mild pressure term for
      finite DMU geometries (full tables block and retry, which simulates
      more events).  Granularity sweeps reuse the runtime-optimal task
      count; their residual folds into the calibration error.
    * **Calibration** — a least-squares fit (through the origin) of
      observed seconds against analytic units over every per-key timing
      recorded in shard manifests and unioned into
      ``<cache>/cost_profile.json``.  A key that was itself observed is
      predicted by its own measurement; everything else gets
      ``fitted seconds-per-unit x units``.

    Predictions feed *planning only*: they never enter canonical run keys
    and cannot change rendered bytes (``docs/determinism.md``).
    """

    #: Seconds per analytic unit before any observation exists (roughly the
    #: per-task simulation cost of the smoke workloads on a laptop-class
    #: core; only the cross-run ratios matter for planning).
    DEFAULT_SECONDS_PER_UNIT = 25e-6

    def __init__(
        self,
        profile: Optional[Mapping[str, Mapping[str, float]]] = None,
        scale: float = 1.0,
    ) -> None:
        self.scale = scale
        #: key -> {"seconds": observed wall time, "units": analytic units}.
        self.profile: Dict[str, Dict[str, float]] = {
            key: dict(entry) for key, entry in (profile or {}).items()
        }
        self.seconds_per_unit = self._fit()

    def _fit(self) -> float:
        """Least-squares slope of seconds vs units through the origin."""
        numerator = 0.0
        denominator = 0.0
        for entry in self.profile.values():
            try:
                units = float(entry["units"])
                seconds = float(entry["seconds"])
            except (KeyError, TypeError, ValueError):
                continue  # tolerate hand-edited / older profile entries
            if units <= 0.0 or seconds <= 0.0:
                continue
            numerator += units * seconds
            denominator += units * units
        if denominator <= 0.0:
            return self.DEFAULT_SECONDS_PER_UNIT
        return numerator / denominator

    @property
    def calibrated(self) -> bool:
        """True once at least one usable observation shaped the fit."""
        return self.seconds_per_unit != self.DEFAULT_SECONDS_PER_UNIT or any(
            entry.get("units", 0) and entry.get("seconds", 0)
            for entry in self.profile.values()
        )

    # -------------------------------------------------------------- analytic
    def analytic_units(
        self,
        benchmark: str,
        runtime: str,
        scheduler: str = "fifo",
        workload_runtime: Optional[str] = None,
        dmu: Optional[object] = None,
    ) -> float:
        """Dimensionless predicted cost of one run (before calibration)."""
        # Local import: the workloads package imports repro.runtime.task, so
        # a module-level import here would be circular.
        from ..workloads.registry import PAPER_TABLE2

        row = PAPER_TABLE2.get(benchmark.lower())
        if row is None:
            tasks = 1_000.0  # unknown (custom-registered) workload: flat guess
        elif (workload_runtime or runtime) in ("tdm", "task_superscalar"):
            tasks = float(row.tdm_tasks)
        else:
            tasks = float(row.sw_tasks)
        tasks *= self.scale
        units = tasks * RUNTIME_COST_WEIGHTS.get(runtime, 1.0)
        units *= SCHEDULER_COST_WEIGHTS.get(scheduler, 1.0)
        if dmu is not None and not getattr(dmu, "unlimited", True):
            # Finite tables block and retry when full: simulated occupancy
            # pressure adds events.  Capped so degenerate sizings stay finite.
            pressure = tasks / max(float(getattr(dmu, "tat_entries", 1)), 1.0)
            units *= 1.0 + 0.15 * min(pressure, 4.0)
        return units

    def units_for(self, resolved: object) -> float:
        """Analytic units of a resolved campaign run (``ResolvedRun`` duck)."""
        request = resolved.request
        return self.analytic_units(
            request.benchmark,
            request.runtime,
            scheduler=request.scheduler,
            workload_runtime=getattr(resolved, "workload_runtime", None),
            dmu=resolved.config.dmu,
        )

    # -------------------------------------------------------------- predict
    def predict(self, resolved: object) -> float:
        """Predicted wall seconds for one resolved run.

        An exact observation of this key (same canonical key = identical
        simulation) beats any model; otherwise the calibrated analytic
        estimate is used.
        """
        observed = self.profile.get(resolved.key)
        if observed is not None:
            try:
                seconds = float(observed["seconds"])
                if seconds > 0.0:
                    return seconds
            except (KeyError, TypeError, ValueError):
                pass
        return self.seconds_per_unit * self.units_for(resolved)

    # -------------------------------------------------------------- updates
    def observations_for(
        self, timings: Mapping[str, float], resolved_by_key: Mapping[str, object]
    ) -> Dict[str, Dict[str, float]]:
        """Profile entries for newly observed timings (seconds + units).

        Only keys whose resolved run is known contribute — units are a
        function of the workload parameters, which the timings alone do not
        carry.  The result merges into a persisted profile via
        :func:`repro.experiments.cache.store_cost_profile`.
        """
        entries: Dict[str, Dict[str, float]] = {}
        for key, seconds in timings.items():
            resolved = resolved_by_key.get(key)
            if resolved is None or seconds <= 0.0:
                continue
            entries[key] = {
                "seconds": round(float(seconds), 6),
                "units": round(self.units_for(resolved), 3),
            }
        return entries
