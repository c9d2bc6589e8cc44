#!/usr/bin/env python3
"""Run the reproduction campaign used to fill EXPERIMENTS.md.

Runs every experiment with a shared simulation cache and writes one Markdown
file per table/figure under ``results/``.  The scale and the benchmark subset
of the heavier design-space sweeps are chosen so the whole campaign finishes
in tens of minutes on a laptop; pass ``--scale 1.0`` for the paper's full task
counts.
"""

from __future__ import annotations

import argparse
import pathlib
import time

from repro.experiments.common import SimulationRunner
from repro.experiments.env import bench_cache_dir, bench_jobs
from repro.experiments.registry import run_experiment


def main() -> None:
    # The REPRO_BENCH_* environment (shared with the benchmark suite and
    # run_campaign_rest.py, see repro.experiments.env) provides the flag
    # defaults, so one exported environment configures every driver alike.
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.4)
    parser.add_argument("--output", type=pathlib.Path, default=pathlib.Path("results"))
    parser.add_argument("--sweep-scale", type=float, default=None,
                        help="scale for the design-space sweeps (default: same as --scale)")
    parser.add_argument("--jobs", type=int, default=bench_jobs(),
                        help="worker processes for the campaign engine "
                        "(default: REPRO_BENCH_JOBS or serial)")
    parser.add_argument("--cache-dir", type=pathlib.Path, default=bench_cache_dir(),
                        help="persist simulation results here; reruns resume "
                        "incrementally (default: REPRO_BENCH_CACHE_DIR)")
    parser.add_argument("--cache-max-bytes", type=int, default=None,
                        help="size budget for --cache-dir (oldest-mtime entries evicted first)")
    args = parser.parse_args()
    if args.cache_max_bytes is not None and args.cache_dir is None:
        parser.error("--cache-max-bytes requires --cache-dir")
    args.output.mkdir(parents=True, exist_ok=True)

    runner = SimulationRunner(scale=args.scale, verbose=True,
                              jobs=args.jobs, cache_dir=args.cache_dir,
                              cache_max_bytes=args.cache_max_bytes)
    sweep_runner = SimulationRunner(scale=args.sweep_scale or args.scale, verbose=True,
                                    jobs=args.jobs, cache_dir=args.cache_dir,
                                    cache_max_bytes=args.cache_max_bytes)

    plan = [
        ("table_03", dict(runner=runner)),
        ("table_02", dict(scale=1.0)),
        ("figure_02", dict(runner=runner)),
        ("figure_10", dict(runner=runner)),
        ("figure_12", dict(runner=runner)),
        ("figure_13", dict(runner=runner)),
        ("figure_06", dict(runner=sweep_runner,
                           benchmarks=["blackscholes", "cholesky", "lu", "qr", "histogram"])),
        ("figure_07", dict(runner=sweep_runner, benchmarks=["cholesky", "histogram", "qr", "lu", "ferret"])),
        ("figure_08", dict(runner=sweep_runner, benchmarks=["cholesky", "histogram", "qr"])),
        ("figure_09", dict(runner=sweep_runner, benchmarks=["cholesky", "lu", "qr"])),
        ("figure_11", dict(runner=sweep_runner,
                           benchmarks=["blackscholes", "cholesky", "fluidanimate", "histogram", "qr"])),
    ]
    for name, kwargs in plan:
        start = time.time()
        print(f"=== running {name} ...", flush=True)
        result = run_experiment(name, scale=kwargs.pop("scale", args.scale), **kwargs)
        path = args.output / f"{result.experiment}.md"
        path.write_text(result.to_markdown(), encoding="utf-8")
        print(f"=== {name} done in {time.time() - start:.1f}s -> {path}", flush=True)

    evicted = runner.prune_cache() + sweep_runner.prune_cache()
    if evicted:
        print(f"=== cache budget: evicted {evicted} oldest entries", flush=True)


if __name__ == "__main__":
    main()
