"""Shared ``REPRO_BENCH_*`` environment handling.

One definition of the benchmark-campaign environment knobs, used by the
pytest-benchmark conftest and every ``scripts/run_campaign*.py`` driver.
Before this module the :func:`bench_env` deprecation shim lived only in
``scripts/run_campaign_rest.py``, so the drivers drifted: the
``REPRO_JOBS`` / ``REPRO_CACHE_DIR`` deprecation warning fired in exactly
one script.

Knobs (all optional; empty values count as unset):

``REPRO_BENCH_SCALE``
    Problem scale in (0, 1] (default 0.25 for the benchmark suite).
``REPRO_BENCH_BENCHMARKS``
    Comma-separated benchmark subset.
``REPRO_BENCH_JOBS``
    Worker processes for the campaign engine (default 1 = serial).
``REPRO_BENCH_CACHE_DIR``
    Directory for the persistent result cache.
``REPRO_BENCH_SHARDS``
    ``i/N`` turns a benchmark session into a distributed cache warmer.

The pre-PR6 spellings ``REPRO_JOBS`` and ``REPRO_CACHE_DIR`` are still
honored with a :class:`DeprecationWarning`; the ``REPRO_BENCH_*`` name wins
when both are set.
"""

from __future__ import annotations

import os
import warnings
from typing import List, Optional, Sequence

#: Pre-PR6 spellings, applied automatically by :func:`bench_env` when the
#: caller does not name one explicitly.
DEPRECATED_SPELLINGS = {
    "JOBS": "REPRO_JOBS",
    "CACHE_DIR": "REPRO_CACHE_DIR",
}

DEFAULT_SCALE = 0.25


def bench_env(name: str, deprecated: Optional[str] = None) -> Optional[str]:
    """``REPRO_BENCH_<name>`` from the environment, or None when unset.

    ``deprecated`` names the pre-PR6 spelling (e.g. ``REPRO_JOBS``); when
    omitted it defaults from :data:`DEPRECATED_SPELLINGS`.  A deprecated
    spelling is accepted with a DeprecationWarning, but the new name wins
    when both are set.  Empty values count as unset either way.
    """
    value = os.environ.get(f"REPRO_BENCH_{name}")
    if value:
        return value
    if deprecated is None:
        deprecated = DEPRECATED_SPELLINGS.get(name)
    if deprecated:
        value = os.environ.get(deprecated)
        if value:
            warnings.warn(
                f"{deprecated} is deprecated; use REPRO_BENCH_{name} instead",
                DeprecationWarning,
                stacklevel=2,
            )
            return value
    return None


def bench_scale(default: float = DEFAULT_SCALE) -> float:
    return float(bench_env("SCALE") or default)


def bench_benchmarks(
    default: Optional[Sequence[str]] = None,
) -> Optional[List[str]]:
    raw = bench_env("BENCHMARKS")
    if not raw:
        return list(default) if default is not None else None
    return [name.strip() for name in raw.split(",") if name.strip()]


def bench_jobs() -> int:
    return int(bench_env("JOBS") or "1")


def bench_cache_dir() -> Optional[str]:
    return bench_env("CACHE_DIR")


def bench_shard():
    """The ``REPRO_BENCH_SHARDS`` spec as a ShardSpec, or None when unset."""
    raw = bench_env("SHARDS")
    if not raw:
        return None
    from .shard import ShardSpec  # local import: shard pulls in the campaign stack

    return ShardSpec.parse(raw)
