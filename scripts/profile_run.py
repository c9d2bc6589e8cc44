#!/usr/bin/env python3
"""cProfile one figure run so the next perf PR starts from data, not guesses.

Profiles a single experiment end to end (workload build, simulation,
analysis) under ``cProfile`` and prints the top-N entries by cumulative and
by internal time.  Optionally dumps the raw ``pstats`` file for interactive
drill-down (``python -m pstats dump.prof``) or for tools like snakeviz.

The runner is constructed fresh and uncached, so the profile reflects *cold*
simulation cost — the same thing ``scripts/bench_engine.py`` measures.

Usage::

    PYTHONPATH=src python scripts/profile_run.py --experiment figure_12
    PYTHONPATH=src python scripts/profile_run.py --experiment figure_02 \
        --benchmark blackscholes --benchmark cholesky --scale 0.05 \
        --top 40 --sort tottime --pstats /tmp/fig02.prof
"""

from __future__ import annotations

import argparse
import cProfile
import pathlib
import pstats
import sys


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--experiment", default="figure_12",
                        help="experiment name from the registry (default: figure_12)")
    parser.add_argument("--benchmark", action="append", default=None,
                        help="benchmark to include (repeatable; default: the "
                             "bench_engine smoke set)")
    parser.add_argument("--scale", type=float, default=0.1)
    parser.add_argument("--top", type=int, default=30,
                        help="rows to print per table (default: 30)")
    parser.add_argument("--sort", choices=["cumulative", "tottime", "both"],
                        default="both", help="stats ordering (default: both tables)")
    parser.add_argument("--pstats", type=pathlib.Path, default=None,
                        help="also dump the raw pstats file here")
    args = parser.parse_args()

    from repro.experiments.common import SimulationRunner
    from repro.experiments.registry import run_experiment

    benchmarks = args.benchmark or ["blackscholes", "cholesky", "qr"]
    runner = SimulationRunner(scale=args.scale)

    profiler = cProfile.Profile()
    profiler.enable()
    result = run_experiment(
        args.experiment, scale=args.scale, benchmarks=benchmarks, runner=runner
    )
    profiler.disable()

    print(f"profiled {args.experiment} scale={args.scale} "
          f"benchmarks={benchmarks} ({len(result.rows)} rows, "
          f"{runner.cache_info()['simulations_run']} simulations)\n")
    stats = pstats.Stats(profiler, stream=sys.stdout)
    orders = ("cumulative", "tottime") if args.sort == "both" else (args.sort,)
    for order in orders:
        print(f"==== top {args.top} by {order} " + "=" * 30)
        stats.sort_stats(order).print_stats(args.top)
    if args.pstats is not None:
        stats.dump_stats(str(args.pstats))
        print(f"pstats dump written to {args.pstats}")


if __name__ == "__main__":
    main()
