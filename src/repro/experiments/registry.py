"""Experiment registry: run any table/figure reproduction by name.

The paper's eleven figures and tables are registered eagerly below, with
``fig2``/``figure12``-style aliases derived from their names.  Everything
downstream — the CLI and the benchmark harness — resolves names through
:func:`canonical_name`.

When an experiment has a ``plan`` function (every simulating harness does),
:func:`run_experiment` simulates the whole planned sweep through the
runner's campaign engine before invoking the harness, which then assembles
its rows from the memo.  A serial runner is a one-worker campaign: it runs
the same plan, the same attempt body and commits the same result shape as
``--jobs N``.  An option the experiment does not take fails in the plan,
before anything simulates.

:func:`resolve_plan` exposes the same plan as resolved runs (canonical key
plus full configuration, deduplicated and key-sorted) — the authoritative
key set a full render populates.
"""

from __future__ import annotations

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

#: Aliases accepted by the CLI (fig2, fig12, table2, ...).
_ALIASES: Dict[str, str] = {}


def _register_paper_experiments() -> None:
    """Register each harness under its name and three aliases.

    ``plan`` is the sweep enumerator every render simulates first (None
    for analytic tables); the title shown in
    catalogs is the first line of the harness module's docstring.
    """
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
        _EXPERIMENTS[name] = module.run
        _PLANS[name] = getattr(module, "plan", None)
        _TITLES[name] = module.__doc__.strip().splitlines()[0].rstrip(".")
        kind_word, _, number = name.partition("_")
        for alias in (
            f"{kind_word[:3]}{int(number)}",
            f"{kind_word}{int(number)}",
            name.replace("_", ""),
        ):
            _ALIASES[alias] = name


_register_paper_experiments()


def available_experiments() -> List[str]:
    """Names of every reproducible table and figure, in registry order."""
    return list(_EXPERIMENTS)


def experiment_catalog() -> List[Dict[str, object]]:
    """Machine-readable description of every experiment, in registry order.

    One entry per experiment: its canonical ``name``, the accepted
    ``aliases``, a one-line ``title``, ``kind`` (always ``paper``; the
    benchmark harness under ``perfbench/`` still filters on it) and whether
    rendering it ``simulates`` (analytic tables have no simulation plan and
    render instantly).  Tests and the benchmark harness enumerate the
    reproduction surface through it.
    """
    return [
        {
            "name": name,
            "aliases": sorted(
                alias for alias, target in _ALIASES.items() if target == name
            ),
            "title": _TITLES[name],
            "kind": "paper",
            "simulates": _PLANS[name] is not None,
        }
        for name in _EXPERIMENTS
    ]


def canonical_name(name: str) -> str:
    """Resolve an experiment name or alias to its canonical registry name."""
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
    exact key set a full run populates.  Raises for experiments with no
    simulation plan (the analytic tables).
    """
    plan = plan_function(name)
    if plan is None:
        raise ExperimentError(
            f"experiment {name!r} has no simulation plan"
        )
    resolved: Dict[str, ResolvedRun] = {}
    for request in plan(runner, benchmarks=benchmarks, **kwargs):
        item = runner.engine.resolve(request)
        resolved.setdefault(item.key, item)
    return [resolved[key] for key in sorted(resolved)]


def run_experiment(
    name: str,
    scale: Optional[float] = None,
    benchmarks: Optional[Sequence[str]] = None,
    runner: Optional[SimulationRunner] = None,
    **kwargs: object,
) -> ExperimentResult:
    """Run one experiment by name: simulate its whole plan, then render.

    ``runner`` defaults to a serial :class:`SimulationRunner` at ``scale``
    (1.0 when ``scale`` is None).  Every harness is called as
    ``run(runner, benchmarks, **options)`` and takes its scale from the
    runner, so a ``scale`` passed with a runner must equal ``runner.scale``.
    """
    function = get_experiment(name)
    if runner is None:
        runner = SimulationRunner(scale=1.0 if scale is None else scale)
    elif scale is not None and scale != runner.scale:
        raise ExperimentError(
            f"scale {scale} differs from the runner's scale {runner.scale}; "
            "pass one or make them equal"
        )
    plan = plan_function(name)
    if plan is not None:
        runner.run_many(plan(runner, benchmarks=benchmarks, **kwargs))
    return function(runner=runner, benchmarks=benchmarks, **kwargs)
