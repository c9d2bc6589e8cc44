"""Repository benchmark: one workload per run, end-to-end or traced.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload cold_campaign --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload dmu_replay --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --pin      # rewrite pins.json from reference renders

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a run that alternates untraced and traced passes.  End-to-end
host times are in reference seconds (see ``ref_clock.py``).  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import datetime
import gc
import json
import os
import pathlib
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from typing import Dict, List

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PINS = HERE / "pins.json"
WORK = HERE / ".work"
#: Workload seeds with pinned reference outputs; ``--seed`` folds onto them.
PIN_SEEDS = 8

sys.path.insert(0, str(HERE))

from bench_metrics import (  # noqa: E402 - needs HERE on sys.path
    format_lines,
    median,
    median_by_key,
    metric_block,
    ops_ok_frac,
    overhead_frac,
    pass_percentiles,
    pool_util,
    safe_ratio,
)

#: End-to-end metrics (``--trace 0``) and their units, as in BENCHMARK.json.
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_tasks_per_s": "1/s",
    "sim_s_p50": "s",
    "sim_s_p90": "s",
    "dmu_instr_per_s": "1/s",
    "render_keys_per_s": "1/s",
    "ops_ok_frac": "ratio",
}

#: Per-layer metrics (``--trace 1``) and their units, as in BENCHMARK.json.
PER_LAYER = {
    "sim.machine_run_s": "s",
    "sim.self_s": "s",
    "sim.events": "count",
    "sim.events_per_task": "ratio",
    "sim.cycles_total": "cycles",
    "core.isa_s": "s",
    "core.isa_calls": "count",
    "core.instructions": "count",
    "core.sram_accesses": "count",
    "core.blocked_frac": "ratio",
    "core.null_pop_frac": "ratio",
    "runtime.tasks": "count",
    "runtime.pool_pops": "count",
    "runtime.lock_wait_cycles": "cycles",
    "schedulers.s": "s",
    "schedulers.pops": "count",
    "workloads.build_s": "s",
    "workloads.builds": "count",
    "power.report_s": "s",
    "analysis.validate_s": "s",
    "campaign.run_many_s": "s",
    "campaign.worker_busy_s": "s",
    "campaign.pool_util": "ratio",
    "cache.key_s": "s",
    "cache.keys": "count",
    "cache.get_s": "s",
    "cache.gets": "count",
    "cache.put_s": "s",
    "cache.puts": "count",
    "cache.bytes_written": "bytes",
    "experiments.render_s": "s",
    "reliability.retries": "count",
    "reliability.watchdog_kills": "count",
    "reliability.quarantined": "count",
    "trace.overhead_frac": "ratio",
    "trace.unattributed_s": "s",
    "ops_failed_frac": "ratio",
    "sim_s.samples": "count",
    "host.probe_s": "s",
    "host.raw_wall_s": "s",
}

#: Per-layer metrics that are zero by construction on a workload, and why.
NOT_APPLICABLE = {
    "dmu_replay": {
        "sim": "no discrete-event simulation runs; the DMU is driven directly",
        "runtime": "no runtime model runs",
        "schedulers": "no software scheduler runs",
        "power": "no energy report is made",
        "analysis": "no execution is validated",
        "campaign": "no campaign engine runs",
        "cache": "no result cache is used",
        "experiments": "no figure is rendered",
        "reliability": "no campaign engine runs",
    },
    "warm_render": {
        "sim": "every result is served from the disk cache",
        "core": "every result is served from the disk cache",
        "runtime": "every result is served from the disk cache",
        "schedulers": "every result is served from the disk cache",
        "power": "every result is served from the disk cache",
        "analysis": "every result is served from the disk cache",
        "campaign.worker_busy_s": "no pool work: nothing is simulated",
        "campaign.pool_util": "no pool work: nothing is simulated",
        "cache.put": "nothing is written",
        "cache.bytes_written": "nothing is written",
    },
}


def host_probe(loops: int = 5, size: int = 1_000_000) -> float:
    """Median seconds of a fixed pure-Python loop: how fast the host is now."""
    timings = []
    for _ in range(loops):
        started = time.perf_counter()
        total = 0
        for value in range(size):
            total += value * value
        timings.append(time.perf_counter() - started)
    return median(timings)


def git_sha() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() or "unknown"


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest peak of any child it reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def layer_metrics(workload, tracer, outcome, setup_layers: Dict[str, float]) -> Dict[str, float]:
    """Per-layer values of one traced pass."""
    total, self_time, calls = tracer.total, tracer.self_time, tracer.calls
    counts = dict(tracer.counts)
    for name, value in outcome.layer.items():
        counts[name] = counts.get(name, 0) + value
    for name, value in setup_layers.items():
        counts[name] = counts.get(name, 0) + value
    count = counts.get
    instructions = count("core.instructions", 0)
    blocked = count("core.blocked", 0)
    null_pops = count("core.null_pops", 0)
    run_many_s = total.get("campaign.run_many", 0.0)
    busy = count("campaign.worker_busy_s", 0.0)
    return {
        "sim.machine_run_s": total.get("sim.machine_run", 0.0),
        "sim.self_s": self_time.get("sim.machine_run", 0.0),
        "sim.events": count("sim.events", 0),
        "sim.events_per_task": safe_ratio(count("sim.events", 0), count("sim.tasks", 0)),
        "sim.cycles_total": count("sim.cycles_total", 0),
        "core.isa_s": total.get("core.isa", 0.0),
        "core.isa_calls": calls.get("core.isa", 0),
        "core.instructions": instructions,
        "core.sram_accesses": count("core.sram_accesses", 0),
        "core.blocked_frac": safe_ratio(blocked, instructions + blocked),
        "core.null_pop_frac": safe_ratio(null_pops, null_pops + count("core.ready_pops", 0)),
        "runtime.tasks": count("runtime.tasks", 0),
        "runtime.pool_pops": count("runtime.pool_pops", 0),
        "runtime.lock_wait_cycles": count("runtime.lock_wait_cycles", 0),
        "schedulers.s": total.get("schedulers.push", 0.0) + total.get("schedulers.pop", 0.0),
        "schedulers.pops": calls.get("schedulers.pop", 0),
        "workloads.build_s": total.get("workloads.build", 0.0) + count("workloads.build_s", 0.0),
        "workloads.builds": calls.get("workloads.build", 0) + count("workloads.builds", 0),
        "power.report_s": total.get("power.report", 0.0),
        "analysis.validate_s": total.get("analysis.validate", 0.0),
        "campaign.run_many_s": run_many_s,
        "campaign.worker_busy_s": busy,
        "campaign.pool_util": pool_util(busy, workload.jobs, run_many_s),
        "cache.key_s": total.get("cache.key", 0.0),
        "cache.keys": calls.get("cache.key", 0),
        "cache.get_s": total.get("cache.get", 0.0),
        "cache.gets": calls.get("cache.get", 0),
        "cache.put_s": total.get("cache.put", 0.0),
        "cache.puts": calls.get("cache.put", 0),
        "cache.bytes_written": count("cache.bytes_written", 0),
        "experiments.render_s": self_time.get("experiments.render", 0.0),
        "reliability.retries": count("reliability.retries", 0),
        "reliability.watchdog_kills": count("reliability.watchdog_kills", 0),
        "reliability.quarantined": count("reliability.quarantined", 0),
        "trace.unattributed_s": max(0.0, outcome.wall_s - tracer.top_level[0]),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 workdir: pathlib.Path) -> Dict[str, object]:
    """Set up, run passes for ``seconds``, and summarize one workload."""
    from bench_workloads import WORKLOADS
    from layer_trace import Tracer
    from ref_clock import Probe, ReferenceClock

    pins = json.loads(PINS.read_text(encoding="utf-8"))
    workload = WORKLOADS[name](seed, workdir, pins)
    perf = time.perf_counter
    clock = ReferenceClock(Probe(workdir / "probe"))

    setup_times = [workload.setup(clock) for _ in range(workload.setup_repeats)]

    tracer = Tracer(worker_dir=workdir / "trace-workers") if trace else None
    setup_layers: Dict[str, float] = {}
    if tracer is not None:
        tracer.worker_dir.mkdir(parents=True, exist_ok=True)
    if tracer is not None and workload.setup_spans:
        # One more, traced, set-up for the layers whose work happens there.
        tracer.install()
        try:
            workload.setup(clock)
        finally:
            tracer.uninstall()
        for span in workload.setup_spans:
            setup_layers[f"{span}_s"] = tracer.total.get(span, 0.0)
            setup_layers[f"{span}s"] = tracer.calls.get(span, 0)
        tracer.reset()

    plain, traced, layers = [], [], []
    unseen: List[str] = []
    deadline = perf() + seconds
    while True:
        # Start every pass from a collected heap, as a fresh process would,
        # not from whatever the previous pass left for the collector.
        gc.collect()
        if tracer is not None and len(traced) < len(plain):
            tracer.reset()
            tracer.install()
            try:
                outcome = workload.run_pass(tracer, clock)
            finally:
                tracer.uninstall()
            tracer.collect_workers()
            simulated = outcome.layer.get("campaign.simulations", 0)
            seen = tracer.calls.get("sim.machine_run", 0)
            if seen < simulated:
                unseen.append(f"{simulated - seen} of {simulated} simulations ran "
                              "where the trace could not see them")
            traced.append(outcome)
            layers.append(layer_metrics(workload, tracer, outcome, setup_layers))
        else:
            plain.append(workload.run_pass(None, clock))
        if perf() >= deadline and (tracer is None or traced):
            break

    outcomes = plain + traced
    attempted = workload.setup_attempted + sum(outcome.attempted for outcome in outcomes)
    failures = workload.setup_failures + [f for outcome in outcomes for f in outcome.failures]
    summary = pass_percentiles([outcome.op_seconds for outcome in plain])
    values: Dict[str, float] = {
        "wall_s": median(outcome.ref_s for outcome in plain),
        "setup_s": median(setup_times),
        "peak_rss_mb": peak_rss_mb(),
        "sim_tasks_per_s": median(o.tasks / o.ref_s for o in plain),
        "sim_s_p50": summary["p50"],
        "sim_s_p90": summary["p90"],
        "dmu_instr_per_s": median(o.dmu_instructions / o.ref_s for o in plain),
        "render_keys_per_s": median(o.keys_served / o.ref_s for o in plain),
        "ops_ok_frac": ops_ok_frac(attempted, len(failures)),
    }
    report = {
        "values": values,
        "samples": {name: (summary["samples"], summary["passes"])
                    for name in ("sim_s_p50", "sim_s_p90")},
        "attempted": attempted,
        "failures": failures,
        "passes": {"untraced": len(plain), "traced": len(traced)},
        "raw_wall_s": median(outcome.wall_s for outcome in plain),
        "notes": {},
    }
    if tracer is not None:
        layer_values = median_by_key(layers)
        layer_values["trace.overhead_frac"] = overhead_frac(
            median(outcome.ref_s for outcome in traced), values["wall_s"]
        )
        layer_values["ops_failed_frac"] = safe_ratio(len(failures), attempted)
        layer_values["sim_s.samples"] = summary["samples"]
        layer_values["host.raw_wall_s"] = report["raw_wall_s"]
        report["layer_values"] = layer_values
        report["notes"] = dict(NOT_APPLICABLE.get(name, {}))
        report["notes"]["trace.unattributed_s"] = (
            "pass time outside every span: the benchmark's own loop and checks"
        )
        if unseen:
            report["notes"]["unattributed"] = "; ".join(sorted(set(unseen)))
    return report


def write_pins() -> None:
    """Write ``pins.json``: reference digests and counts for each pinned seed.

    The reference render is serial (``jobs=1``), so a pooled campaign that
    matches it also shows that pooling changes no byte.
    """
    from bench_workloads import (
        CAMPAIGN_SCALE, DMU_SCALE, DMU_WINDOW, build_programs, digest, paper_experiments,
        replay_counts, replay_program,
    )
    from repro.config import default_paper_config
    from repro.core.dmu import DependenceManagementUnit
    from repro.experiments import registry
    from repro.experiments.common import SimulationRunner

    pinned = {}
    for seed in range(PIN_SEEDS):
        runner = SimulationRunner(scale=CAMPAIGN_SCALE, seed=seed, jobs=1)
        figures = {
            name: digest(registry.run_experiment(
                name, scale=CAMPAIGN_SCALE, runner=runner).to_csv().encode())
            for name in paper_experiments()
        }
        counts = {}
        for name, program in build_programs(seed):
            dmu = DependenceManagementUnit(default_paper_config().dmu)
            replay_program(program, dmu)
            counts[name] = replay_counts(dmu)
        pinned[str(seed)] = {"figures": figures, "dmu": counts}
        print(f"pinned seed {seed}", flush=True)
    document = {
        "campaign_scale": CAMPAIGN_SCALE,
        "dmu_scale": DMU_SCALE,
        "dmu_window": DMU_WINDOW,
        "seeds": pinned,
    }
    PINS.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def prepare_environment(workdir: pathlib.Path) -> None:
    """Run against ``src/`` with no ``REPRO_*`` overrides and a local TMPDIR."""
    for variable in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[variable]
    scratch = workdir / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(scratch)
    tempfile.tempdir = str(scratch)
    sys.path.insert(0, str(SRC))


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("cold_campaign", "dmu_replay", "warm_render"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="rewrite pins.json from serial reference renders")
    args = parser.parse_args(argv)
    if not args.pin and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if not args.pin and not PINS.is_file():
        print(f"error: {PINS} is missing; run with --pin first", file=sys.stderr)
        return 2
    workdir = WORK / f"run-{os.getpid()}"
    prepare_environment(workdir)
    try:
        if args.pin:
            write_pins()
            return 0
        probe = host_probe()
        report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = report["failures"]
    if args.trace:
        values = dict(report["layer_values"])
        values["host.probe_s"] = probe
        block = metric_block(values, PER_LAYER)
    else:
        block = metric_block(report["values"], END_TO_END)
    host = {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "probe_s": probe,
        "raw_wall_s": report["raw_wall_s"],
    }
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {report['passes']}")
    print("host " + json.dumps(host, sort_keys=True))
    for line in format_lines(block, report["samples"]):
        print(line)
    if report["notes"]:
        print("notes " + json.dumps(report["notes"], sort_keys=True))
    for failure in failures:
        print(f"FAILED {failure}")
    record = {
        "time": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host,
        "attempted": report["attempted"],
        "failed": len(failures),
        "metrics": {name: entry["value"] for name, entry in block.items()},
    }
    with (WORK / "runs.jsonl").open("a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": not failures,
        "attempted": report["attempted"],
        "failed": len(failures),
        "metrics": block,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
