#!/usr/bin/env python3
"""Campaign-engine smoke benchmark: reduced sweep, cold vs warm cache.

Runs a small but representative slice of the evaluation (one breakdown
figure, one scheduler sweep, one comparison figure on three benchmarks)
twice against the same cache directory and records the timings in
``BENCH_campaign.json``.  The second pass must perform **zero** simulations
— its time is pure cache-read and row-assembly overhead — so the record
doubles as an end-to-end check of the content-hashed result cache and
feeds the performance trajectory across PRs.

The record also carries a **shard-balance** metric: the predicted per-shard
loads of the smoke sweep under the modulo hash partition vs cost-aware LPT
binning (``--shard-strategy cost``), as max/mean imbalance ratios.  The
cost bins' peak must not exceed modulo's — the straggler-avoidance claim,
quantified on every refresh.

A **fault-hook overhead** record covers the reliability layer's claim that
instrumentation is free when no fault plan is active: the per-call cost of
``maybe_fault`` with no plan installed (the state every production run is
in), next to the cost with a plan installed whose selectors never fire.

Usage::

    PYTHONPATH=src python scripts/bench_smoke.py --jobs 4
"""

from __future__ import annotations

import argparse
import json
import pathlib
import tempfile
import time

from repro.experiments.common import SimulationRunner
from repro.experiments.registry import resolve_plan, run_experiment
from repro.experiments.shard import ShardPlan
from repro.runtime.cost_model import CampaignCostModel

SMOKE_EXPERIMENTS = ("figure_02", "figure_10", "figure_12")
SMOKE_BENCHMARKS = ["blackscholes", "cholesky", "qr"]


def run_pass(scale: float, jobs: int, cache_dir: pathlib.Path) -> dict:
    runner = SimulationRunner(scale=scale, jobs=jobs, cache_dir=cache_dir)
    start = time.perf_counter()
    rows = 0
    for name in SMOKE_EXPERIMENTS:
        result = run_experiment(name, scale=scale, benchmarks=SMOKE_BENCHMARKS, runner=runner)
        rows += len(result.rows)
    elapsed = time.perf_counter() - start
    info = runner.cache_info()
    return {"seconds": round(elapsed, 3), "rows": rows, **info}


def shard_balance(scale: float, shards: int) -> dict:
    """Predicted per-shard load balance of the smoke sweep, modulo vs cost."""
    runner = SimulationRunner(scale=scale)
    resolved = [
        item
        for name in SMOKE_EXPERIMENTS
        for item in resolve_plan(name, runner, benchmarks=SMOKE_BENCHMARKS)
    ]
    model = CampaignCostModel(scale=scale)

    def measure(strategy: str) -> dict:
        plan = ShardPlan(resolved, shards, strategy=strategy, cost_model=model)
        loads = plan.shard_loads()
        mean = sum(loads) / len(loads)
        return {
            "max_shard_s": round(max(loads), 4),
            "mean_shard_s": round(mean, 4),
            "imbalance_max_over_mean": round(max(loads) / mean, 3) if mean else None,
        }

    modulo, cost = measure("modulo"), measure("cost")
    return {
        "shards": shards,
        "keys": len({item.key for item in resolved}),
        "modulo": modulo,
        "cost": cost,
        "peak_load_reduction": round(modulo["max_shard_s"] / cost["max_shard_s"], 3)
        if cost["max_shard_s"]
        else None,
    }


def fault_hook_overhead(calls: int = 200_000) -> dict:
    """Per-call cost of the ``maybe_fault`` instrumentation hook.

    The no-plan figure is the one that matters: every instrumented hot
    path (simulations, cache reads, commits) pays it on every production run.
    The armed-plan figure uses selectors that never match, isolating the
    dispatch cost of an installed-but-quiet plan.
    """
    from repro.reliability import faults

    def timed(calls: int) -> float:
        start = time.perf_counter()
        for _ in range(calls):
            faults.maybe_fault("sim", "deadbeef", 1)
        return (time.perf_counter() - start) / calls * 1e9

    faults.install_plan(None)
    no_plan_ns = timed(calls)
    faults.install_plan("error@sim:key%3=1")  # deadbeef % 3 == 2: never fires
    armed_ns = timed(calls)
    faults.install_plan(None)
    return {
        "calls": calls,
        "no_plan_ns_per_call": round(no_plan_ns, 1),
        "armed_quiet_plan_ns_per_call": round(armed_ns, 1),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.15)
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--cache-dir", type=pathlib.Path, default=None,
                        help="cache directory (default: a fresh temporary one)")
    parser.add_argument("--output", type=pathlib.Path, default=pathlib.Path("BENCH_campaign.json"))
    parser.add_argument("--shards", type=int, default=3,
                        help="shard count for the predicted balance metric")
    args = parser.parse_args()

    cache_dir = args.cache_dir or pathlib.Path(tempfile.mkdtemp(prefix="campaign-cache-"))
    cold = run_pass(args.scale, args.jobs, cache_dir)
    warm = run_pass(args.scale, args.jobs, cache_dir)
    balance = shard_balance(args.scale, args.shards)

    record = {
        "benchmark": "campaign_smoke",
        "experiments": list(SMOKE_EXPERIMENTS),
        "benchmarks": SMOKE_BENCHMARKS,
        "scale": args.scale,
        "jobs": args.jobs,
        "cache_dir": str(cache_dir),
        "cold": cold,
        "warm": warm,
        "warm_is_simulation_free": warm["simulations_run"] == 0,
        "speedup_cold_over_warm": round(cold["seconds"] / warm["seconds"], 2)
        if warm["seconds"] > 0
        else None,
        "shard_balance": balance,
        "fault_hook_overhead": fault_hook_overhead(),
    }
    args.output.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(record, indent=2))
    if not record["warm_is_simulation_free"]:
        raise SystemExit("warm pass re-simulated cached points — cache regression!")
    if balance["cost"]["max_shard_s"] > balance["modulo"]["max_shard_s"]:
        raise SystemExit("cost binning produced a worse peak shard load than modulo!")


if __name__ == "__main__":
    main()
