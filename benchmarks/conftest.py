"""Shared infrastructure of the benchmark harnesses.

Every file in this directory regenerates one table or figure of the paper
through :mod:`repro.experiments` and reports it via pytest-benchmark.  The
rows are printed (run pytest with ``-s`` to see them inline) and stored in
``benchmark.extra_info`` so the numbers survive in the benchmark JSON.

Two environment variables control the cost of the campaign:

``REPRO_BENCH_SCALE``
    Problem scale in (0, 1].  The default of 0.25 keeps the whole benchmark
    suite at a few minutes; 1.0 reproduces the paper's task counts (use the
    ``tdm-repro`` CLI for full-scale campaigns).

``REPRO_BENCH_BENCHMARKS``
    Comma-separated benchmark subset overriding each harness's default.

``REPRO_BENCH_JOBS``
    Worker processes for the campaign engine (default 1 = serial).  With
    more than one, every harness prefetches its sweep over a process pool.

``REPRO_BENCH_CACHE_DIR``
    Directory for the persistent result cache.  A second benchmark session
    pointed at the same directory simulates nothing.

``REPRO_BENCH_SHARDS``
    ``i/N`` turns the session into a distributed cache warmer: every
    simulating harness runs only its deterministic shard of the sweep into
    ``REPRO_BENCH_CACHE_DIR`` (required), writes a shard manifest, and the
    row assertions are skipped.  Run shard sessions on N hosts against a
    shared (or later-merged) cache directory, then one plain session renders
    every figure from pure cache hits and asserts as usual.

The knobs are parsed by :mod:`repro.experiments.env` — one definition shared
with ``scripts/run_campaign*.py`` — which also honors the deprecated
``REPRO_JOBS`` / ``REPRO_CACHE_DIR`` spellings with a DeprecationWarning.
"""

from __future__ import annotations

from typing import Optional, Sequence

import pytest

from repro.experiments.common import SimulationRunner
from repro.experiments.env import (
    bench_benchmarks,
    bench_cache_dir,
    bench_jobs,
    bench_scale,
    bench_shard,
)
from repro.experiments.registry import plan_function, run_experiment
from repro.experiments.shard import run_shard_worker


@pytest.fixture(scope="session")
def shared_runner() -> SimulationRunner:
    """One memoizing runner shared by every harness in the session."""
    return SimulationRunner(
        scale=bench_scale(),
        jobs=bench_jobs(),
        cache_dir=bench_cache_dir(),
    )


@pytest.fixture
def reproduce(benchmark, shared_runner):
    """Run one experiment under pytest-benchmark and report its rows."""

    def _run(experiment: str, default_benchmarks: Optional[Sequence[str]] = None, **kwargs):
        names = bench_benchmarks(default_benchmarks)
        scale = kwargs.pop("scale", shared_runner.scale)

        shard = bench_shard()
        if shard is not None and plan_function(experiment) is not None:
            if bench_cache_dir() is None:
                pytest.fail("REPRO_BENCH_SHARDS requires REPRO_BENCH_CACHE_DIR")

            def _warm():
                return run_shard_worker(
                    experiment, shard, shared_runner, benchmarks=names, **kwargs
                )

            manifest = benchmark.pedantic(_warm, rounds=1, iterations=1)
            benchmark.extra_info["experiment"] = experiment
            benchmark.extra_info["shard"] = str(shard)
            benchmark.extra_info["manifest"] = manifest.to_dict()
            assert not manifest.failures, f"shard failures: {sorted(manifest.failures)}"
            pytest.skip(
                f"shard-warm mode {shard}: {experiment} warmed "
                f"{manifest.attempted} keys ({manifest.simulated} simulated); "
                "row assertions run in the merged render session"
            )

        def _call():
            return run_experiment(
                experiment,
                scale=scale,
                benchmarks=names,
                runner=shared_runner,
                **kwargs,
            )

        result = benchmark.pedantic(_call, rounds=1, iterations=1)
        print()
        print(result.to_markdown())
        benchmark.extra_info["experiment"] = result.experiment
        benchmark.extra_info["scale"] = shared_runner.scale
        benchmark.extra_info["rows"] = [dict(row) for row in result.rows]
        benchmark.extra_info["notes"] = list(result.notes)
        return result

    return _run
