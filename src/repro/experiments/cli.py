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
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from typing import Optional, Sequence

from ..errors import ExperimentError
from .common import SimulationRunner, select_benchmarks
from .registry import available_experiments, canonical_name, run_experiment


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tdm-repro",
        description="Reproduce the tables and figures of the TDM paper (HPCA 2018).",
    )
    parser.add_argument(
        "experiment",
        nargs="?",
        default=None,
        help="experiment name (e.g. figure_12, table_03) or 'all'",
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
    try:
        names = (
            available_experiments() if args.experiment.lower() == "all"
            else [canonical_name(args.experiment)]
        )
    except ExperimentError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    try:
        select_benchmarks(args.benchmarks)
        runner = SimulationRunner(
            scale=args.scale,
            verbose=args.verbose,
            jobs=args.jobs,
            cache_dir=args.cache_dir,
        )
    except ExperimentError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    try:
        return _run(args, names, runner)
    finally:
        # The engine's warm pool workers end with the command.
        runner.close()


def _run(args: argparse.Namespace, names: Sequence[str], runner: SimulationRunner) -> int:
    """Render ``names`` through ``runner``."""
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
    _report_reliability(runner)
    return 0


if __name__ == "__main__":  # pragma: no cover - module execution hook
    sys.exit(main())
