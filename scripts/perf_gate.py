#!/usr/bin/env python3
"""Base-vs-head performance gate over perfbench run records.

Each input file holds one JSON object per line: the last line a
``perfbench/run.py`` run prints, plus a ``workload`` key naming the run's
``--workload``.  The base file holds runs of the parent tree, the head file
runs of the changed tree, ideally interleaved on one machine.

Metric directions and regression bounds come from the ``end_to_end`` list
of ``BENCHMARK.json``.  The gate fails when

* any run, base or head, reports ``"correct": false``;
* a workload's median ``ops_ok_frac`` drops;
* a gated metric's head median is worse than its base median by more than
  its bound: ``wall_s`` on ``cold_campaign`` and on ``warm_render``, and
  ``dmu_instr_per_s`` on ``dmu_replay``.

Every other metric is printed as an advisory.

Usage::

    python3 scripts/perf_gate.py base.jsonl head.jsonl
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys
from typing import Dict, List, Optional

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: The (workload, metric) pairs that fail the gate when they regress.
GATED = {
    ("cold_campaign", "wall_s"),
    ("warm_render", "wall_s"),
    ("dmu_replay", "dmu_instr_per_s"),
}


def load_bounds(path: pathlib.Path = REPO_ROOT / "BENCHMARK.json") -> Dict[str, dict]:
    """``{metric: {"better": "lower"|"higher", "bound": float}}``."""
    spec = json.loads(path.read_text(encoding="utf-8"))
    return {entry["name"]: entry for entry in spec["end_to_end"]}


def load_runs(path: pathlib.Path) -> List[dict]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return [json.loads(line) for line in lines if line.strip()]


def worse_by(base: float, head: float, better: str) -> Optional[float]:
    """How much worse ``head`` is than ``base`` as a fraction of ``base``.

    Negative means better.  None when the base is zero, which leaves no
    scale to compare against.
    """
    if base == 0:
        return None
    change = head / base - 1.0
    return change if better == "lower" else -change


def gate(base_runs: List[dict], head_runs: List[dict], bounds: Dict[str, dict]) -> List[str]:
    """Print the comparison and return the reasons the gate fails."""
    failures = []
    for side, runs in (("base", base_runs), ("head", head_runs)):
        for index, run in enumerate(runs, 1):
            if run.get("correct") is not True:
                failures.append(f"{side} run {index} ({run.get('workload')}) is not correct")

    def by_workload(runs: List[dict]) -> Dict[str, List[dict]]:
        grouped: Dict[str, List[dict]] = {}
        for run in runs:
            grouped.setdefault(run["workload"], []).append(run)
        return grouped

    base_groups, head_groups = by_workload(base_runs), by_workload(head_runs)
    for workload in sorted(set(base_groups) ^ set(head_groups)):
        failures.append(f"{workload} was run on only one side")
    for workload in sorted(set(base_groups) & set(head_groups)):
        print(f"{workload}: {len(base_groups[workload])} base runs, "
              f"{len(head_groups[workload])} head runs")
        for name, entry in bounds.items():
            base = statistics.median(
                run["metrics"][name]["value"] for run in base_groups[workload])
            head = statistics.median(
                run["metrics"][name]["value"] for run in head_groups[workload])
            change = worse_by(base, head, entry["better"])
            if name == "ops_ok_frac":
                regressed = head < base
            else:
                regressed = change is not None and change > entry["bound"]
            gated = name == "ops_ok_frac" or (workload, name) in GATED
            if regressed and gated:
                verdict = "FAIL"
                failures.append(f"{workload} {name}: head {head:.6g} vs base {base:.6g}")
            else:
                verdict = "advisory" if regressed else "ok"
            shown = "n/a" if change is None else f"{change:+.1%}"
            print(f"  {name:<18} base {base:<12.6g} head {head:<12.6g} "
                  f"worse by {shown:>7} (bound {entry['bound']:.0%}) {verdict}")
    return failures


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=pathlib.Path, help="run records of the base tree")
    parser.add_argument("head", type=pathlib.Path, help="run records of the head tree")
    args = parser.parse_args(argv)
    failures = gate(load_runs(args.base), load_runs(args.head), load_bounds())
    for failure in failures:
        print(f"FAILED {failure}")
    print("perf gate: " + ("FAIL" if failures else "pass"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
