"""Every declared entry point imports and runs.

``pyproject.toml`` names the console scripts ``pip install -e .`` creates,
and ``scripts/`` plus ``perfbench/run.py`` are run straight from a
checkout.  A renamed function or a broken import in any of them fails here
rather than in a user's shell.
"""

from __future__ import annotations

import importlib
import os
import pathlib
import subprocess
import sys
import tomllib

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
PROJECT = tomllib.loads((REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]

#: Scripts run from a checkout, without installing the package.
CHECKOUT_SCRIPTS = ("scripts/gen_cli_docs.py", "scripts/perf_gate.py", "perfbench/run.py")


def test_project_declares_the_cli():
    assert PROJECT["scripts"]["tdm-repro"] == "repro.experiments.cli:main"


@pytest.mark.parametrize("name", sorted(PROJECT["scripts"]))
def test_console_script_target_imports_and_lists(name, capsys):
    module_name, _, attribute = PROJECT["scripts"][name].partition(":")
    main = getattr(importlib.import_module(module_name), attribute)
    assert main(["--list"]) == 0
    assert "figure_02" in capsys.readouterr().out


@pytest.mark.parametrize("script", CHECKOUT_SCRIPTS)
def test_checkout_script_answers_help(script):
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / script), "--help"],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage:")
