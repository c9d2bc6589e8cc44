"""The CLI campaign is the one way to render a figure.

Pins that the deleted results daemon left nothing behind: no package, no
extra verb or option, and no engine parameter that shared a disk cache or a
worker pool between engines.  Each engine owns its cache and its pool.
Nor does any campaign take a cache size budget or a retry policy: a cache
hit is a pure read, and every engine retries a transient failure at most
``MAX_ATTEMPTS`` times with no wait.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.experiments.campaign import CampaignEngine
from repro.experiments.cli import build_parser, main
from repro.experiments.common import SimulationRunner

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
        "--output", "--csv", "--cache-dir", "--faults",
        "--shard", "--dry-run", "--merge-shards", "--manifest", "--allow-incomplete",
    }


@pytest.mark.parametrize("keyword", ["worker_pool", "disk_cache"])
def test_engines_share_no_pool_or_cache(keyword):
    with pytest.raises(TypeError):
        CampaignEngine(scale=0.1, **{keyword: None})


@pytest.mark.parametrize("keyword", ["cache_max_bytes", "retry_policy"])
def test_engines_take_no_cache_budget_or_retry_policy(keyword):
    with pytest.raises(TypeError):
        CampaignEngine(scale=0.1, **{keyword: None})


def test_runners_take_no_cache_budget():
    with pytest.raises(TypeError):
        SimulationRunner(scale=0.1, cache_max_bytes=None)


def test_the_cli_rejects_a_cache_budget(tmp_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["figure_02", "--cache-dir", str(tmp_path), "--cache-max-bytes", "1000"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --cache-max-bytes" in capsys.readouterr().err


def test_no_doc_names_a_retired_knob():
    pages = [REPO_ROOT / "README.md", *sorted((REPO_ROOT / "docs").glob("*.md"))]
    for page in pages:
        text = page.read_text(encoding="utf-8")
        for knob in ("--cache-max-bytes", "cache_max_bytes", "REPRO_RETRY_MAX",
                     "REPRO_RETRY_DELAY_S", "RetryPolicy", "prune("):
            assert knob not in text, f"{page.name} names {knob}"
