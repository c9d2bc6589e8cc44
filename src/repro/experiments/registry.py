"""Experiment registry: run any table/figure/scenario reproduction by name.

Two populations share one namespace: the paper's figures and tables
(registered eagerly below, with ``fig2``/``figure12``-style aliases derived
from their names) and the curated scenario bundles from
:mod:`repro.scenarios.registry` (registered lazily on first lookup, so
importing this module never drags the scenario subsystem in).  Everything
downstream — the CLI, sharding, the results daemon — resolves names through
:func:`canonical_name` and is agnostic to which population a name belongs
to.

When an experiment has a ``plan`` function (every simulating harness does),
:func:`run_experiment` simulates the whole planned sweep through the
runner's campaign engine before invoking the harness, which then assembles
its rows from the memo.  A serial runner is a one-worker campaign: it runs
the same plan, the same attempt body and commits the same result shape as
``--jobs N``.  An option the experiment does not take fails in the plan,
before anything simulates.

:func:`resolve_plan` exposes the same plan as resolved runs (canonical key
plus full configuration, deduplicated and key-sorted) — the authoritative
key set the sharded campaign layer partitions across hosts and verifies
merged caches against.
"""

from __future__ import annotations

import sys
from typing import Callable, Dict, List, Optional, Sequence

from ..errors import ExperimentError
from .campaign import ResolvedRun
from . import (
    fig02_breakdown,
    fig06_granularity,
    fig07_tat_dat,
    fig08_list_arrays,
    fig09_latency,
    fig10_creation_time,
    fig11_dat_occupancy,
    fig12_schedulers,
    fig13_comparison,
    table02_characteristics,
    table03_area,
)
from .common import ExperimentResult, SimulationRunner

ExperimentFunction = Callable[..., ExperimentResult]
PlanFunction = Callable[..., List]

_EXPERIMENTS: Dict[str, ExperimentFunction] = {}
_PLANS: Dict[str, Optional[PlanFunction]] = {}
_TITLES: Dict[str, str] = {}
_KINDS: Dict[str, str] = {}

#: Aliases accepted by the CLI (fig2, fig12, table2, scenario names, ...).
_ALIASES: Dict[str, str] = {}


def register_experiment(
    name: str,
    run: ExperimentFunction,
    plan: Optional[PlanFunction] = None,
    title: Optional[str] = None,
    aliases: Sequence[str] = (),
    kind: str = "paper",
    replace: bool = False,
) -> None:
    """Register one experiment under ``name`` (and optional ``aliases``).

    ``plan`` is the sweep enumerator every render simulates first and
    sharding partitions (None for analytic tables); ``title`` is the
    one-line human description shown in catalogs; ``kind`` tags the
    population (``paper`` or ``scenario``) so catalogs can group without
    parsing names.
    """
    key = name.lower()
    if key in _EXPERIMENTS and not replace:
        raise ExperimentError(f"experiment {name!r} is already registered")
    _EXPERIMENTS[key] = run
    _PLANS[key] = plan
    _KINDS[key] = kind
    if title is None:
        module = sys.modules.get(run.__module__)
        docstring = (getattr(module, "__doc__", None) or "").strip()
        title = docstring.splitlines()[0].rstrip(".") if docstring else key
    _TITLES[key] = title
    for alias in aliases:
        alias_key = alias.lower()
        target = _ALIASES.get(alias_key)
        if target is not None and target != key and not replace:
            raise ExperimentError(
                f"alias {alias!r} already points at experiment {target!r}"
            )
        _ALIASES[alias_key] = key


def _register_paper_experiments() -> None:
    modules = {
        "figure_02": fig02_breakdown,
        "figure_06": fig06_granularity,
        "table_02": table02_characteristics,
        "figure_07": fig07_tat_dat,
        "figure_08": fig08_list_arrays,
        "figure_09": fig09_latency,
        "table_03": table03_area,
        "figure_10": fig10_creation_time,
        "figure_11": fig11_dat_occupancy,
        "figure_12": fig12_schedulers,
        "figure_13": fig13_comparison,
    }
    for name, module in modules.items():
        kind_word, _, number = name.partition("_")
        register_experiment(
            name,
            module.run,
            plan=getattr(module, "plan", None),
            aliases=(
                f"{kind_word[:3]}{int(number)}",
                f"{kind_word}{int(number)}",
                name.replace("_", ""),
            ),
            kind="paper",
        )


_register_paper_experiments()

_scenarios_loaded = False


def _ensure_scenarios() -> None:
    """Lazily register the scenario bundles (idempotent, import-cycle safe)."""
    global _scenarios_loaded
    if _scenarios_loaded:
        return
    _scenarios_loaded = True
    from ..scenarios.registry import register_scenario_experiments

    register_scenario_experiments(register_experiment)


def available_experiments() -> List[str]:
    """Names of every reproducible table/figure/scenario, in registry order."""
    _ensure_scenarios()
    return list(_EXPERIMENTS)


def experiment_catalog() -> List[Dict[str, object]]:
    """Machine-readable description of every experiment, in registry order.

    One entry per experiment: its canonical ``name``, the accepted
    ``aliases``, a one-line ``title``, its ``kind`` (``paper`` figure/table
    or curated ``scenario``) and whether rendering it ``simulates``
    (analytic tables have no simulation plan and render instantly).  This
    is the payload of the results daemon's ``GET /experiments`` endpoint
    and is equally usable by scripts that want to enumerate the
    reproduction surface.
    """
    _ensure_scenarios()
    return [
        {
            "name": name,
            "aliases": sorted(
                alias for alias, target in _ALIASES.items() if target == name
            ),
            "title": _TITLES[name],
            "kind": _KINDS[name],
            "simulates": _PLANS[name] is not None,
        }
        for name in _EXPERIMENTS
    ]


def canonical_name(name: str) -> str:
    """Resolve an experiment name or alias to its canonical registry name."""
    _ensure_scenarios()
    key = name.lower()
    canonical = key if key in _EXPERIMENTS else _ALIASES.get(key)
    if canonical is None:
        raise ExperimentError(
            f"unknown experiment {name!r}; available: {', '.join(available_experiments())}"
        )
    return canonical


def get_experiment(name: str) -> ExperimentFunction:
    """Look up an experiment ``run`` function by name or alias."""
    return _EXPERIMENTS[canonical_name(name)]


def plan_function(name: str) -> Optional[PlanFunction]:
    """The ``plan`` function of an experiment, or None for analytic tables."""
    return _PLANS[canonical_name(name)]


def resolve_plan(
    name: str,
    runner: SimulationRunner,
    benchmarks: Optional[Sequence[str]] = None,
    **kwargs: object,
) -> List[ResolvedRun]:
    """Every simulation of one experiment's sweep, resolved and key-sorted.

    Duplicate requests collapse by canonical key, so the result is the
    exact key set a full run populates — what shard workers partition and
    what the merge step's completeness check demands.  Raises for
    experiments with no simulation plan (the analytic tables).
    """
    plan = plan_function(name)
    if plan is None:
        raise ExperimentError(
            f"experiment {name!r} has no simulation plan (nothing to shard)"
        )
    resolved: Dict[str, ResolvedRun] = {}
    for request in plan(runner, benchmarks=benchmarks, **kwargs):
        item = runner.engine.resolve(request)
        resolved.setdefault(item.key, item)
    return [resolved[key] for key in sorted(resolved)]


def run_experiment(
    name: str,
    scale: float = 1.0,
    benchmarks: Optional[Sequence[str]] = None,
    runner: Optional[SimulationRunner] = None,
    **kwargs: object,
) -> ExperimentResult:
    """Run one experiment by name: simulate its whole plan, then render.

    ``runner`` defaults to a serial :class:`SimulationRunner` at ``scale``.
    Every harness is called as ``run(runner, scale, benchmarks, **options)``:
    the simulating ones take their scale from the runner, and Table II
    characterizes its workloads at ``scale``.
    """
    function = get_experiment(name)
    runner = runner or SimulationRunner(scale=scale)
    plan = plan_function(name)
    if plan is not None:
        runner.run_many(plan(runner, benchmarks=benchmarks, **kwargs))
    return function(runner=runner, scale=scale, benchmarks=benchmarks, **kwargs)


def run_all(
    scale: float = 1.0,
    benchmarks: Optional[Sequence[str]] = None,
    share_runner: bool = True,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
) -> Dict[str, ExperimentResult]:
    """Run the paper campaign (every table and figure), sharing cached runs.

    Scenario bundles are excluded: they have their own workloads and are
    run explicitly (``tdm-repro scenario <name>`` or by experiment name).
    """
    runner = (
        SimulationRunner(scale=scale, jobs=jobs, cache_dir=cache_dir)
        if share_runner
        else None
    )
    results: Dict[str, ExperimentResult] = {}
    for name in available_experiments():
        if _KINDS[name] != "paper":
            continue
        results[name] = run_experiment(name, scale=scale, benchmarks=benchmarks, runner=runner)
    return results
