#!/usr/bin/env python3
"""Discrete-event kernel benchmark: raw event throughput and cold run time.

Two measurements, recorded in ``BENCH_engine.json``:

* **Raw kernel throughput** — a synthetic pure-kernel workload (processes
  cycling through timeouts, event waits and lock handoffs, with no runtime
  model on top) measured in events per second.  The command-object variant
  (``yield Timeout(n)``) runs on every kernel generation; the bare-int
  variant (``yield n``) is attempted and recorded as ``None`` on kernels
  that predate the fast path.  The short-delay mix exercises the near-future
  time wheel; a mixed near/far bare-int variant forces traffic through the
  far-future heap and its wheel migration as well.  Its delay pattern is
  tier-agnostic, so it runs (and records a real number) on pre-wheel
  kernels too — like every raw-kernel figure it is only meaningful within
  one machine, and cross-generation comparisons belong to the
  ``--record-baseline`` protocol.

* **Raw DMU throughput** — a synthetic dependence chain driving the DMU's
  ISA surface directly (``create_task`` / ``add_dependence`` /
  ``complete_creation`` / ``get_ready_task`` / ``finish_task``) with no
  event kernel at all, measured in instructions per second.  This isolates
  the functional-model hot path (the columnar tables and list arrays) from
  kernel overhead; it uses only the public ISA API, so it runs on older
  trees for ``--record-baseline`` A/B comparisons.  Recorded as
  ``dmu_ops``.

* **Cold single-run wall time** — the fig02/fig12 smoke set (three
  benchmarks, serial, no result cache) simulated from scratch.  This is the
  end-to-end number the kernel rewrite is judged by: the PR 1 campaign cache
  makes *warm* sweeps fast, this makes every *cold* simulation fast.
  ``--full`` additionally measures the fig07/fig08 sweeps (the TAT/DAT and
  list-array design-space experiments, the heaviest DMU stress) as a
  separate ``cold_smoke_full`` figure without changing the recorded default
  metric.

Usage::

    # once, before a kernel change: pin the reference numbers
    PYTHONPATH=src python scripts/bench_engine.py --record-baseline

    # after the change: measure again and compute the speedup
    PYTHONPATH=src python scripts/bench_engine.py

    # CI perf gate: re-measure and fail if cold smoke or dmu_ops regressed
    # beyond the noise tolerance vs the recorded baseline (advisory print
    # otherwise)
    PYTHONPATH=src python scripts/bench_engine.py --check --tolerance 1.25
"""

from __future__ import annotations

import argparse
import json
import pathlib
import time

from repro.sim.engine import Engine
from repro.sim.events import Timeout, WaitEvent
from repro.sim.resources import Lock

SMOKE_EXPERIMENTS = ("figure_02", "figure_12")
#: --full adds the design-space sweeps that hammer the DMU structures
#: (figure_07: TAT/DAT sizing, figure_08: list-array sizing).
FULL_SMOKE_EXPERIMENTS = ("figure_02", "figure_12", "figure_07", "figure_08")
SMOKE_BENCHMARKS = ["blackscholes", "cholesky", "qr"]


# --------------------------------------------------------------------- raw kernel
def _kernel_workload(
    engine: Engine,
    events_per_process: int,
    use_int_yields: bool,
    far_future: bool = False,
):
    """A synthetic process mix exercising timeouts, events and lock handoffs.

    With ``far_future`` one delay in eight jumps hundreds of cycles ahead,
    pushing traffic through the far-future heap tier and the heap-to-wheel
    migration path of the two-tier queue.
    """
    lock = Lock(engine, "bench")
    channel = engine.event("bench-start")

    def worker(offset: int):
        yield WaitEvent(channel)
        for step in range(events_per_process):
            delay = (step * 7 + offset) % 11
            if far_future and step % 8 == 0:
                delay = 300 + (step * 13 + offset) % 700
            if use_int_yields:
                yield delay
            else:
                yield Timeout(delay)
            if step % 16 == 0:
                from repro.sim.events import Acquire

                yield Acquire(lock)
                if use_int_yields:
                    yield 3
                else:
                    yield Timeout(3)
                lock.release(engine_process_of(engine, offset))

    # Processes need a handle on themselves to release the lock; resolve via
    # a registration list filled as processes are created.
    procs = []

    def engine_process_of(_engine, index):
        return procs[index]

    for index in range(64):
        procs.append(engine.process(worker(index), name=f"bench{index}"))
    channel.trigger()
    return procs


def measure_raw_kernel(
    events_per_process: int = 2000,
    use_int_yields: bool = False,
    far_future: bool = False,
):
    """Events/second of the synthetic kernel workload.

    The bare-int variants return ``None`` on kernels that predate the fast
    path (they reject int yields); any other failure propagates — a kernel
    that cannot run the command-object workload is a regression the
    benchmark must report loudly, not record as ``null``.
    """
    engine = Engine()
    try:
        _kernel_workload(engine, events_per_process, use_int_yields, far_future)
        start = time.perf_counter()
        engine.run()
        elapsed = time.perf_counter() - start
    except Exception:
        if use_int_yields:
            return None
        raise
    # Each loop iteration is one timeout event plus the periodic lock pair.
    total_events = 64 * events_per_process * (1 + 2 / 16)
    return {
        "seconds": round(elapsed, 4),
        "events": int(total_events),
        "events_per_sec": round(total_events / elapsed),
    }


# --------------------------------------------------------------------- raw DMU
def measure_dmu_ops(num_tasks: int = 6144, window: int = 512):
    """Instructions/second of a synthetic dependence chain on a bare DMU.

    Each task writes its own block (WAW edge to the task ``window``
    creations earlier, still in flight), reads its predecessor's block (RAW
    edge), and every eighth task also reads a hot shared block (growing
    reader lists, exercising the Reader List Array walks).  From the
    ``window``-th creation on, one ready task is popped and finished per
    creation, holding the in-flight set at the steady-state ``window``.  No
    event kernel is involved: this is the pure functional-model hot path.
    """
    from repro.config import DMUConfig
    from repro.core.dmu import DependenceManagementUnit

    dmu = DependenceManagementUnit(DMUConfig())
    descriptor_base = 0x8AB0_0000_0000
    descriptor_stride = 0x140
    block = 4096
    dependence_base = 0x10_0000
    shared_block = dependence_base - block
    ops = 0
    start = time.perf_counter()
    def unblocked(result):
        # Every instruction must complete: a blocked op mutates nothing, so
        # counting it would silently measure a different instruction mix.
        if result.blocked:
            raise RuntimeError("DMU blocked in benchmark: sizing bug")
        return result

    for index in range(num_tasks):
        descriptor = descriptor_base + index * descriptor_stride
        unblocked(dmu.create_task(descriptor))
        unblocked(dmu.add_dependence(
            descriptor, dependence_base + (index % window) * block, block, "out"
        ))
        ops += 2
        if index:
            unblocked(dmu.add_dependence(
                descriptor, dependence_base + ((index - 1) % window) * block, block, "in"
            ))
            ops += 1
        if index % 8 == 7:
            unblocked(dmu.add_dependence(descriptor, shared_block, block, "in"))
            ops += 1
        dmu.complete_creation(descriptor)
        ops += 1
        if index >= window:
            ready = dmu.get_ready_task()
            ops += 1
            if ready.descriptor_address is not None:
                dmu.finish_task(ready.descriptor_address)
                ops += 1
    while True:
        ready = dmu.get_ready_task()
        ops += 1
        if ready.descriptor_address is None:
            break
        dmu.finish_task(ready.descriptor_address)
        ops += 1
    elapsed = time.perf_counter() - start
    return {
        "seconds": round(elapsed, 4),
        "instructions": ops,
        "ops_per_sec": round(ops / elapsed),
        "tasks": num_tasks,
        "window": window,
    }


# --------------------------------------------------------------------- cold smoke
def measure_cold_smoke(scale: float = 0.1, experiments=SMOKE_EXPERIMENTS):
    """Wall time of an experiment smoke set, cold (serial, no cache)."""
    from repro.experiments.common import SimulationRunner
    from repro.experiments.registry import run_experiment

    runner = SimulationRunner(scale=scale)
    start = time.perf_counter()
    rows = 0
    for name in experiments:
        result = run_experiment(name, scale=scale, benchmarks=SMOKE_BENCHMARKS, runner=runner)
        rows += len(result.rows)
    elapsed = time.perf_counter() - start
    info = runner.cache_info()
    return {
        "seconds": round(elapsed, 3),
        "rows": rows,
        "simulations_run": info["simulations_run"],
    }


def _best(measure, repeat: int):
    """Best (minimum-seconds) of ``repeat`` runs — the right statistic on a
    shared/noisy machine, where every disturbance only ever adds time."""
    results = [measure() for _ in range(repeat)]
    results = [result for result in results if result is not None]
    if not results:
        return None
    return min(results, key=lambda result: result["seconds"])


def run_measurements(scale: float, repeat: int, full: bool = False) -> dict:
    """All figures, each the best of ``repeat`` runs."""
    measured = {
        "raw_kernel_command_objects": _best(
            lambda: measure_raw_kernel(use_int_yields=False), repeat
        ),
        "raw_kernel_bare_int": _best(lambda: measure_raw_kernel(use_int_yields=True), repeat),
        "raw_kernel_far_future": _best(
            lambda: measure_raw_kernel(use_int_yields=True, far_future=True), repeat
        ),
        "cold_smoke": _best(lambda: measure_cold_smoke(scale), repeat),
        "dmu_ops": _best(measure_dmu_ops, repeat),
        "repeat": repeat,
    }
    if full:
        # Separate figure: the recorded default metric (cold_smoke) stays
        # comparable across records whether or not --full was requested.
        measured["cold_smoke_full"] = _best(
            lambda: measure_cold_smoke(scale, FULL_SMOKE_EXPERIMENTS),
            repeat,
        )
        measured["full_experiments"] = list(FULL_SMOKE_EXPERIMENTS)
    return measured


def _speedup(baseline: dict, measured: dict) -> dict:
    """Baseline/current ratios for every figure present in both records."""
    speedup = {
        "cold_smoke": round(
            baseline["cold_smoke"]["seconds"] / measured["cold_smoke"]["seconds"], 2
        )
    }
    base_raw = baseline.get("raw_kernel_command_objects")
    cur_raw = measured.get("raw_kernel_command_objects")
    if base_raw and cur_raw:
        speedup["raw_events_per_sec"] = round(
            cur_raw["events_per_sec"] / base_raw["events_per_sec"], 2
        )
    base_dmu = baseline.get("dmu_ops")
    cur_dmu = measured.get("dmu_ops")
    if base_dmu and cur_dmu:
        speedup["dmu_ops_per_sec"] = round(
            cur_dmu["ops_per_sec"] / base_dmu["ops_per_sec"], 2
        )
    return speedup


def run_check(args) -> int:
    """CI perf gate: fresh measurements vs the recorded baseline.

    Fails (exit 1) only when the cold-smoke time or the ``dmu_ops``
    throughput regressed beyond ``--tolerance``; everything else —
    including improvements and within-noise slowdowns — is printed as an
    advisory delta.  The record file is never modified.  Baseline figures
    this script no longer measures (such as the ``dmu_ops_accel`` figures
    of older records) are ignored.
    """
    if not args.output.exists():
        print(f"perf-smoke: no record at {args.output}; run --record-baseline first")
        return 1
    record = json.loads(args.output.read_text(encoding="utf-8"))
    baseline = record.get("baseline")
    if not baseline or not baseline.get("cold_smoke"):
        print(f"perf-smoke: {args.output} has no recorded baseline cold_smoke")
        return 1
    baseline_scale = baseline.get("scale")
    if baseline_scale is not None and baseline_scale != args.scale:
        print(
            f"perf-smoke: baseline was recorded at --scale {baseline_scale}, "
            f"not {args.scale}; the ratio would be meaningless"
        )
        return 1
    measured = run_measurements(args.scale, args.repeat)
    failures = []
    ratio = measured["cold_smoke"]["seconds"] / baseline["cold_smoke"]["seconds"]
    print(
        f"perf-smoke: cold smoke {measured['cold_smoke']['seconds']}s vs baseline "
        f"{baseline['cold_smoke']['seconds']}s ({ratio:.2f}x, tolerance {args.tolerance}x)"
    )
    if ratio > args.tolerance:
        failures.append("cold smoke regressed beyond the noise tolerance")

    # DMU throughput gate; skipped against baselines that predate it.
    current = measured["dmu_ops"]
    reference = baseline.get("dmu_ops")
    if reference:
        dmu_ratio = reference["ops_per_sec"] / current["ops_per_sec"]
        print(
            f"perf-smoke: dmu_ops {current['ops_per_sec']}/s vs baseline "
            f"{reference['ops_per_sec']}/s ({dmu_ratio:.2f}x, tolerance {args.tolerance}x)"
        )
        if dmu_ratio > args.tolerance:
            failures.append("dmu_ops throughput regressed beyond the noise tolerance")

    for name, value in sorted(_speedup(baseline, measured).items()):
        print(f"perf-smoke: advisory speedup {name}: {value}x")
    if failures:
        for failure in failures:
            print(f"perf-smoke: FAIL — {failure}")
        return 1
    print("perf-smoke: OK")
    return 0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.1)
    parser.add_argument("--repeat", type=int, default=3,
                        help="repetitions per measurement; the best run is kept")
    parser.add_argument("--output", type=pathlib.Path, default=pathlib.Path("BENCH_engine.json"))
    parser.add_argument(
        "--record-baseline",
        action="store_true",
        help="store this run as the pre-change baseline instead of the current numbers",
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="additionally measure the fig07/fig08 DMU-stress sweeps "
             "(recorded as cold_smoke_full; the default metric is unchanged)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="re-measure and compare against the recorded baseline without "
             "writing; exit 1 on a cold-smoke or dmu_ops regression beyond "
             "--tolerance",
    )
    parser.add_argument(
        "--tolerance", type=float, default=1.25,
        help="allowed slowdown factor in --check mode (noise margin)",
    )
    args = parser.parse_args()

    if args.check:
        raise SystemExit(run_check(args))

    record = {}
    if args.output.exists():
        record = json.loads(args.output.read_text(encoding="utf-8"))

    measured = run_measurements(args.scale, args.repeat, full=args.full)
    measured["scale"] = args.scale
    measured["experiments"] = list(SMOKE_EXPERIMENTS)
    measured["benchmarks"] = SMOKE_BENCHMARKS

    if args.record_baseline:
        record["baseline"] = measured
        record.pop("current", None)
        record.pop("speedup", None)
    else:
        record["current"] = measured
        baseline = record.get("baseline")
        if baseline:
            record["speedup"] = _speedup(baseline, measured)

    args.output.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(record, indent=2))


if __name__ == "__main__":
    main()
