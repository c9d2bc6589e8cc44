"""Command-line entry point: ``tdm-repro``.

Examples::

    # Reproduce Figure 12 at 30% problem scale and print the Markdown table
    tdm-repro figure_12 --scale 0.3

    # Reproduce Table III (no simulation needed)
    tdm-repro table_03

    # Run the full campaign and write one Markdown file per experiment
    tdm-repro all --scale 0.2 --output results/

    # Fan the sweeps out over 8 worker processes with a persistent result
    # cache: a second invocation simulates nothing
    tdm-repro all --scale 0.2 --jobs 8 --cache-dir .campaign-cache --output results/

    # Distribute one figure across three hosts: each host simulates its
    # deterministic third of the sweep into its own cache ...
    tdm-repro figure_12 --scale 0.2 --shard 1/3 --cache-dir shards/1   # host A
    tdm-repro figure_12 --scale 0.2 --shard 2/3 --cache-dir shards/2   # host B
    tdm-repro figure_12 --scale 0.2 --shard 3/3 --cache-dir shards/3   # host C

    # ... then any host unions the shard caches, verifies completeness and
    # renders — byte-identical to a serial run
    tdm-repro figure_12 --scale 0.2 --merge-shards shards/1 shards/2 shards/3 \\
        --cache-dir merged --output results/ --csv

    # Audit the partition first: keys, owning shards and per-shard key
    # counts, without simulating anything
    tdm-repro figure_07 --scale 0.2 --shard 1/3 --dry-run

    # Shared-filesystem variant: every shard writes into one cache; a dead
    # host is repaired by rerunning its shard, merged bytes unchanged
    tdm-repro figure_12 --scale 0.2 --shard 1/3 --cache-dir cache
    tdm-repro figure_12 --scale 0.2 --shard 2/3 --cache-dir cache
    tdm-repro figure_12 --scale 0.2 --shard 3/3 --cache-dir cache

    # Long-running results daemon: one ResultCache serves every
    # request; repeated sweeps cost zero simulations
    tdm-repro serve --cache-dir cache --port 8765 --service-workers 4

    # ... then render over HTTP: identical bytes to the CLI render, with an
    # ETag over the resolved canonical key set (If-None-Match gives 304)
    curl -s -X POST localhost:8765/figures/figure_02 \\
        -d '{"scale": 0.2, "format": "csv"}'
    curl -s localhost:8765/experiments
    curl -s localhost:8765/healthz
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from typing import Optional, Sequence

from ..errors import ExperimentError
from .common import SimulationRunner, select_benchmarks
from .registry import (
    available_experiments,
    canonical_name,
    resolve_plan,
    run_experiment,
)
from .shard import ShardPlan, ShardSpec, merge_shards, run_shard_worker


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tdm-repro",
        description="Reproduce the tables and figures of the TDM paper (HPCA 2018).",
    )
    parser.add_argument(
        "experiment",
        nargs="?",
        default=None,
        help="experiment name (e.g. figure_12, table_03), 'all', or 'serve' "
        "(results daemon)",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="problem scale in (0, 1]; 1.0 reproduces the paper's task counts",
    )
    parser.add_argument(
        "--benchmarks",
        nargs="*",
        default=None,
        help="subset of benchmarks to run (default: the experiment's own set)",
    )
    parser.add_argument(
        "--output",
        type=pathlib.Path,
        default=None,
        help="directory to write Markdown/CSV results into (default: print to stdout)",
    )
    parser.add_argument(
        "--csv",
        action="store_true",
        help="also write CSV files when --output is used",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the campaign engine (default: 1 = serial)",
    )
    parser.add_argument(
        "--cache-dir",
        type=pathlib.Path,
        default=None,
        help="persist simulation results here; rerunning skips cached points",
    )
    parser.add_argument(
        "--cache-max-bytes",
        type=int,
        default=None,
        help="size budget for --cache-dir; oldest entries are evicted "
        "(by mtime) whenever the cache exceeds it",
    )
    parser.add_argument(
        "--shard",
        metavar="I/N",
        default=None,
        help="shard-worker mode: simulate only this experiment's deterministic "
        "shard I of N into --cache-dir and write a shard manifest (no rendering)",
    )
    parser.add_argument(
        "--dry-run",
        action="store_true",
        help="print the resolved plan (keys, owning shards, per-shard key "
        "counts) without simulating anything; use --shard I/N to choose the "
        "shard count being audited",
    )
    parser.add_argument(
        "--merge-shards",
        metavar="DIR",
        nargs="+",
        type=pathlib.Path,
        default=None,
        help="merge mode: union these shard cache directories into --cache-dir, "
        "verify the experiment's full key set is present, then render",
    )
    parser.add_argument(
        "--manifest",
        type=pathlib.Path,
        default=None,
        help="shard-worker manifest path (default: <cache-dir>/manifests/...)",
    )
    parser.add_argument(
        "--allow-incomplete",
        action="store_true",
        help="with --merge-shards: render even if planned keys are missing "
        "(the missing points are simulated locally)",
    )
    parser.add_argument(
        "--host",
        default="127.0.0.1",
        help="serve mode: interface to bind the results daemon to",
    )
    parser.add_argument(
        "--port",
        type=int,
        default=8765,
        help="serve mode: TCP port for the results daemon (0 = ephemeral)",
    )
    parser.add_argument(
        "--service-workers",
        type=int,
        default=2,
        help="serve mode: size of the daemon's simulation process pool",
    )
    parser.add_argument(
        "--request-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="serve mode: per-render deadline; a render that cannot finish in "
        "time answers 503 + Retry-After while its simulations keep running "
        "and land in the cache (default: unbounded)",
    )
    parser.add_argument(
        "--queue-budget",
        type=int,
        default=32,
        help="serve mode: maximum simulations queued beyond the worker pool "
        "before new renders are refused with 503 (default: 32)",
    )
    parser.add_argument(
        "--failure-ttl",
        type=float,
        default=None,
        metavar="SECONDS",
        help="serve mode: how long a key's deterministic simulation failure "
        "is answered from the negative cache before a fresh attempt "
        "(default: 30)",
    )
    parser.add_argument(
        "--faults",
        metavar="SPEC",
        default=None,
        help="inject deterministic faults for resilience testing: comma-"
        "separated kind@site[:selector][xT] terms, e.g. "
        "'crash@sim:key%%7,hang@cache-read:2,corrupt@commit:1' "
        "(kinds crash/hang/error/corrupt; also via REPRO_FAULTS; "
        "see docs/reliability.md)",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="list available experiments and exit",
    )
    parser.add_argument(
        "--verbose",
        action="store_true",
        help="print one line per simulated key as it is committed (serial or --jobs N alike)",
    )
    return parser


def _report_reliability(runner: SimulationRunner) -> None:
    """One-line recovery summary (retries/watchdog/quarantine), only when
    something actually went wrong and was absorbed — the common, healthy run
    prints nothing."""
    info = runner.reliability_info()
    if any(info.values()):
        print("[reliability] " + " ".join(
            f"{key}={value}" for key, value in sorted(info.items())
        ))


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list:
        for name in available_experiments():
            print(name)
        return 0
    if args.faults is not None:
        from ..reliability import faults as fault_injection

        try:
            fault_injection.install_plan(args.faults)
        except ExperimentError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    if args.experiment is None:
        parser.error("an experiment name (or 'all') is required unless --list is given")
    command = args.experiment.lower()

    if command == "serve":
        # Daemon mode: a long-running results server owning one ResultCache
        # (see docs/architecture.md, "Results daemon").
        if args.shard is not None or args.merge_shards is not None or args.dry_run:
            parser.error("serve does not combine with --shard/--merge-shards/--dry-run")
        if args.output is not None:
            parser.error("serve has no --output; responses go to HTTP clients")
        from ..service.server import serve as run_service

        service_kwargs = {}
        if args.failure_ttl is not None:
            service_kwargs["failure_ttl_s"] = args.failure_ttl
        return run_service(
            host=args.host,
            port=args.port,
            cache_dir=args.cache_dir,
            workers=args.service_workers,
            verbose=args.verbose,
            request_timeout_s=args.request_timeout,
            queue_budget=args.queue_budget,
            **service_kwargs,
        )

    try:
        names = available_experiments() if command == "all" else [canonical_name(args.experiment)]
    except ExperimentError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.cache_max_bytes is not None and args.cache_dir is None:
        parser.error("--cache-max-bytes requires --cache-dir")
    if args.shard is not None and args.merge_shards is not None:
        parser.error("--shard and --merge-shards are mutually exclusive")
    if (
        (args.shard is not None or args.merge_shards is not None)
        and args.cache_dir is None
        and not args.dry_run
    ):
        parser.error("--shard/--merge-shards require --cache-dir")
    if (args.shard is not None or args.merge_shards is not None or args.dry_run) and len(names) != 1:
        parser.error("--shard/--merge-shards/--dry-run take a single experiment, not 'all'")
    try:
        select_benchmarks(args.benchmarks)
        runner = SimulationRunner(
            scale=args.scale,
            verbose=args.verbose,
            jobs=args.jobs,
            cache_dir=args.cache_dir,
            cache_max_bytes=args.cache_max_bytes,
        )
    except ExperimentError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    if args.dry_run:
        # Audit mode: resolve and partition the plan, print it, simulate
        # nothing.
        try:
            count = ShardSpec.parse(args.shard).count if args.shard is not None else 1
            plan = ShardPlan(resolve_plan(names[0], runner, benchmarks=args.benchmarks), count)
        except ExperimentError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        print(plan.describe(names[0]))
        return 0

    if args.shard is not None:
        try:
            manifest = run_shard_worker(
                names[0],
                ShardSpec.parse(args.shard),
                runner,
                benchmarks=args.benchmarks,
                manifest=args.manifest,
            )
        except ExperimentError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        exit_code = manifest.report()
        runner.prune_cache()
        _report_reliability(runner)
        return exit_code

    if args.merge_shards is not None:
        try:
            report = merge_shards(
                names[0], args.merge_shards, runner, benchmarks=args.benchmarks
            )
            print(report.summary())
            if not args.allow_incomplete:
                report.verify()
        except ExperimentError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        # Fall through: render below from the (now complete) merged cache.

    exit_code = 0
    for name in names:
        result = run_experiment(name, scale=args.scale, benchmarks=args.benchmarks, runner=runner)
        if args.output is None:
            print(result.to_markdown())
            continue
        args.output.mkdir(parents=True, exist_ok=True)
        markdown_path = args.output / f"{result.experiment}.md"
        markdown_path.write_text(result.to_markdown(), encoding="utf-8")
        if args.csv:
            csv_path = args.output / f"{result.experiment}.csv"
            csv_path.write_text(result.to_csv(), encoding="utf-8")
        print(f"wrote {markdown_path}")
    evicted = runner.prune_cache()
    if evicted:
        print(f"cache budget: evicted {evicted} oldest entries")
    _report_reliability(runner)
    return exit_code


if __name__ == "__main__":  # pragma: no cover - module execution hook
    sys.exit(main())
