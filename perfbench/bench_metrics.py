"""Pure helpers that turn pass measurements into reported metrics.

Kept free of any ``repro`` import so the unit tests (and the failure path of
``run.py`` in a tree without ``src/``) can use them on their own.
"""

from __future__ import annotations

import math
import re
import statistics
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

#: Every metric name the benchmark prints must match this.
METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def median(values: Iterable[float]) -> float:
    """Median of a non-empty sequence."""
    values = list(values)
    if not values:
        raise ValueError("median of no values")
    return statistics.median(values)


def percentile(samples: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with ``pct``% at or below it."""
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0 < pct <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {pct}")
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def percentile_summary(samples: Sequence[float]) -> Dict[str, float]:
    """p50 and p90 of ``samples`` together with the sample count."""
    return {
        "p50": percentile(samples, 50),
        "p90": percentile(samples, 90),
        "samples": len(samples),
    }


def pass_percentiles(passes: Sequence[Sequence[float]]) -> Dict[str, float]:
    """p50 and p90 of each pass's samples, each a median over the passes.

    A percentile of one pass's operations, taken pass by pass, stays on the
    same operation from pass to pass; pooled over the passes, a percentile
    that falls between two operations would flip between them.  Carries the
    sample count over all passes and the number of passes.
    """
    summaries = [percentile_summary(samples) for samples in passes]
    return {
        "p50": median(summary["p50"] for summary in summaries),
        "p90": median(summary["p90"] for summary in summaries),
        "samples": sum(summary["samples"] for summary in summaries),
        "passes": len(summaries),
    }


def pool_util(worker_busy_s: float, jobs: int, run_many_s: float) -> float:
    """Share of the pool's capacity spent simulating: busy / (jobs x run_many)."""
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if run_many_s <= 0:
        return 0.0
    return worker_busy_s / (jobs * run_many_s)


def overhead_frac(traced_wall_s: float, untraced_wall_s: float) -> float:
    """Tracing cost: traced wall / untraced wall - 1."""
    if untraced_wall_s <= 0:
        raise ValueError("untraced wall time must be positive")
    return traced_wall_s / untraced_wall_s - 1.0


def safe_ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, or 0.0 when there is nothing to divide by."""
    return numerator / denominator if denominator else 0.0


def median_by_key(records: Sequence[Mapping[str, float]]) -> Dict[str, float]:
    """Per-key median over records that share one key set."""
    if not records:
        return {}
    return {key: median(record[key] for record in records) for key in records[0]}


def metric_block(values: Mapping[str, float], units: Mapping[str, str]) -> Dict[str, Dict[str, object]]:
    """The ``metrics`` object of the result line: ``{name: {value, unit}}``.

    Emits exactly the names in ``units`` (in that order) and refuses a name
    that is malformed or has no measured value, so a typo cannot silently
    drop a metric from the report.
    """
    block: Dict[str, Dict[str, object]] = {}
    for name, unit in units.items():
        if not METRIC_NAME.match(name):
            raise ValueError(f"malformed metric name {name!r}")
        if name not in values:
            raise KeyError(f"metric {name!r} was not measured")
        block[name] = {"value": float(values[name]), "unit": unit}
    return block


def ops_ok_frac(attempted: int, failed: int) -> float:
    """Share of attempted operations that succeeded."""
    if attempted < 1:
        raise ValueError("no operation was attempted")
    return (attempted - failed) / attempted


def format_lines(block: Mapping[str, Mapping[str, object]],
                 samples: Mapping[str, Tuple[int, int]]) -> List[str]:
    """Human-readable ``name = value unit`` lines.

    A percentile carries its ``(samples, passes)``: ``(n=612 in 2 passes)``.
    """
    lines = []
    for name, entry in block.items():
        line = f"{name} = {entry['value']:.6g} {entry['unit']}"
        if name in samples:
            count, passes = samples[name]
            line += f" (n={count} in {passes} passes)"
        lines.append(line)
    return lines
