#!/usr/bin/env python3
"""Generate ``docs/cli.md`` from the ``tdm-repro`` argparse tree.

The reference is *generated, never hand-edited*: every option row comes
straight from :func:`repro.experiments.cli.build_parser`, so a flag added,
renamed or re-documented in the parser shows up here by rerunning the
script — and ``tests/test_docs.py`` (plus the CI ``docs`` job) regenerates
the page and fails on any drift between the parser and the committed file.

Usage::

    PYTHONPATH=src python scripts/gen_cli_docs.py           # (re)write docs/cli.md
    PYTHONPATH=src python scripts/gen_cli_docs.py --check   # exit 1 on drift
"""

from __future__ import annotations

import os
import sys

# argparse wraps its usage string to the terminal width; pin it so the
# generated page is identical on every machine (and in CI).
os.environ["COLUMNS"] = "100"

import argparse  # noqa: E402  (after COLUMNS pin, see above)
import pathlib  # noqa: E402

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.experiments.cli import build_parser  # noqa: E402

OUTPUT = REPO_ROOT / "docs" / "cli.md"

HEADER = """\
# `tdm-repro` command-line reference

<!-- GENERATED FILE — do not edit by hand.
     Regenerate with: PYTHONPATH=src python scripts/gen_cli_docs.py
     tests/test_docs.py and the CI docs job fail when this page drifts
     from the argparse tree in src/repro/experiments/cli.py. -->
"""


def _escape(text: str) -> str:
    return text.replace("|", "\\|")


def _value_placeholder(action: argparse.Action) -> str:
    """The value an option consumes, as argparse would render it."""
    if action.nargs == 0:
        return ""
    metavar = action.metavar
    if metavar is None:
        metavar = action.dest.upper()
    if isinstance(metavar, tuple):  # pragma: no cover - not used by tdm-repro
        metavar = " ".join(metavar)
    if action.nargs in ("+", "*"):
        return f"{metavar} [{metavar} ...]" if action.nargs == "+" else f"[{metavar} ...]"
    return str(metavar)


def _default_cell(action: argparse.Action) -> str:
    if action.nargs == 0 or action.default is argparse.SUPPRESS:
        return ""
    if action.default is None:
        return ""
    return f"`{action.default}`"


def generate() -> str:
    parser = build_parser()
    lines = [HEADER]
    lines.append(
        f"One executable, `{parser.prog}` (or `PYTHONPATH=src python -m "
        "repro.experiments.cli` from a checkout): it renders any of the "
        "paper's figures and tables, fans sweeps out over local processes, "
        "persists results in content-addressed caches, and runs/merges "
        "multi-host shards.  See [figures.md](figures.md) for what each "
        "experiment reproduces and [architecture.md](architecture.md) for "
        "the campaign machinery underneath."
    )
    lines.append("")
    lines.append("## Usage")
    lines.append("")
    lines.append("```text")
    lines.append(parser.format_usage().strip())
    lines.append("```")
    lines.append("")
    lines.append(f"{_escape(parser.description or '')}")
    lines.append("")

    positionals = [a for a in parser._actions if not a.option_strings]
    options = [a for a in parser._actions if a.option_strings]

    if positionals:
        lines.append("## Positional arguments")
        lines.append("")
        lines.append("| argument | description |")
        lines.append("| --- | --- |")
        for action in positionals:
            lines.append(f"| `{action.dest}` | {_escape(action.help or '')} |")
        lines.append("")

    lines.append("## Options")
    lines.append("")
    lines.append("| option | default | description |")
    lines.append("| --- | --- | --- |")
    for action in options:
        flags = ", ".join(f"`{flag}`" for flag in action.option_strings)
        placeholder = _value_placeholder(action)
        if placeholder:
            flags += f" `{_escape(placeholder)}`"
        lines.append(
            f"| {flags} | {_default_cell(action)} | {_escape(action.help or '')} |"
        )
    lines.append("")

    lines.append("## Examples")
    lines.append("")
    lines.append(
        "The module docstring of `repro.experiments.cli` is the canonical "
        "example set (shard workers, merges, cache budgets):"
    )
    lines.append("")
    lines.append("```text")
    import repro.experiments.cli as cli_module

    lines.append((cli_module.__doc__ or "").strip())
    lines.append("```")
    lines.append("")
    lines.append(
        "Without installing the package, `PYTHONPATH=src python -m "
        "repro.experiments.cli` is the same command. Performance is "
        "measured by `perfbench/run.py` (see `perfbench/README.md`); "
        "`scripts/perf_gate.py` compares its run records of two trees."
    )
    lines.append("")
    return "\n".join(lines)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="exit 1 if docs/cli.md differs from the argparse tree")
    check = parser.parse_args().check
    rendered = generate()
    if check:
        current = OUTPUT.read_text(encoding="utf-8") if OUTPUT.exists() else ""
        if current != rendered:
            sys.stderr.write(
                "docs/cli.md is out of date with the tdm-repro argparse tree;\n"
                "regenerate with: PYTHONPATH=src python scripts/gen_cli_docs.py\n"
            )
            return 1
        print("docs/cli.md is up to date")
        return 0
    OUTPUT.parent.mkdir(parents=True, exist_ok=True)
    OUTPUT.write_text(rendered, encoding="utf-8")
    print(f"wrote {OUTPUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
