#!/usr/bin/env python3
"""Remaining design-space figures for EXPERIMENTS.md (7, 8, 9, 11).

Environment knobs (all optional): ``REPRO_BENCH_JOBS`` (worker processes,
default 1) and ``REPRO_BENCH_CACHE_DIR`` (persistent result cache, default
none).  The older spellings ``REPRO_JOBS`` / ``REPRO_CACHE_DIR`` are still
honored with a :class:`DeprecationWarning`; the shared handling
lives in :mod:`repro.experiments.env`.
"""
import pathlib, time
from repro.experiments.common import SimulationRunner
from repro.experiments.env import bench_cache_dir, bench_jobs
from repro.experiments.registry import run_experiment


def main() -> None:
    out = pathlib.Path("results"); out.mkdir(exist_ok=True)
    runner = SimulationRunner(scale=0.25, verbose=True,
                              jobs=bench_jobs(),
                              cache_dir=bench_cache_dir())
    plan = [
        ("figure_07", dict(benchmarks=["cholesky", "histogram", "qr", "lu", "ferret"])),
        ("figure_08", dict(benchmarks=["cholesky", "histogram", "qr"])),
        ("figure_09", dict(benchmarks=["cholesky", "lu", "qr"])),
        ("figure_11", dict(benchmarks=["blackscholes", "cholesky", "fluidanimate", "histogram", "qr"])),
    ]
    for name, kwargs in plan:
        t0 = time.time()
        print(f"=== running {name}", flush=True)
        result = run_experiment(name, scale=0.25, runner=runner, **kwargs)
        (out / f"{result.experiment}.md").write_text(result.to_markdown(), encoding="utf-8")
        print(f"=== {name} done in {time.time()-t0:.1f}s", flush=True)


if __name__ == "__main__":  # required: the process pool re-imports this module
    main()
