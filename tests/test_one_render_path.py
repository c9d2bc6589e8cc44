"""The CLI campaign is the one way to render a figure.

Pins that the deleted results daemon left nothing behind: no package, no
extra verb or option, and no engine parameter that shared a disk cache or a
worker pool between engines.  Each engine owns its cache and its pool.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.experiments.campaign import CampaignEngine
from repro.experiments.cli import build_parser, main

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_the_daemon_package_is_gone():
    assert not (REPO_ROOT / "src" / "repro" / "service").exists()


def test_serve_is_an_unknown_experiment(capsys):
    assert main(["serve"]) == 2
    assert "unknown experiment 'serve'" in capsys.readouterr().err


def test_the_cli_takes_only_campaign_options():
    flags = {flag for action in build_parser()._actions for flag in action.option_strings}
    assert flags == {
        "-h", "--help", "--list", "--verbose", "--scale", "--benchmarks", "--jobs",
        "--output", "--csv", "--cache-dir", "--cache-max-bytes", "--faults",
        "--shard", "--dry-run", "--merge-shards", "--manifest", "--allow-incomplete",
    }


@pytest.mark.parametrize("keyword", ["worker_pool", "disk_cache"])
def test_engines_share_no_pool_or_cache(keyword):
    with pytest.raises(TypeError):
        CampaignEngine(scale=0.1, **{keyword: None})
