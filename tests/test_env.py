"""Tests for the shared REPRO_BENCH_* environment handling."""

from __future__ import annotations

import pathlib
import warnings

import pytest

from repro.experiments import env
from repro.experiments.shard import ShardSpec


@pytest.fixture(autouse=True)
def _clean_environment(monkeypatch):
    """Every REPRO* knob unset unless a test sets it."""
    for name in (
        "REPRO_BENCH_SCALE",
        "REPRO_BENCH_BENCHMARKS",
        "REPRO_BENCH_JOBS",
        "REPRO_BENCH_CACHE_DIR",
        "REPRO_BENCH_SHARDS",
        "REPRO_JOBS",
        "REPRO_CACHE_DIR",
    ):
        monkeypatch.delenv(name, raising=False)


class TestBenchEnv:
    def test_unset_returns_none(self):
        assert env.bench_env("JOBS") is None

    def test_new_name_wins_without_warning(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_JOBS", "4")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert env.bench_env("JOBS") == "4"

    def test_deprecated_spelling_warns_and_is_honored(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        with pytest.warns(DeprecationWarning, match="REPRO_JOBS is deprecated"):
            assert env.bench_env("JOBS") == "3"

    def test_new_name_shadows_deprecated(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_JOBS", "4")
        monkeypatch.setenv("REPRO_JOBS", "3")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert env.bench_env("JOBS") == "4"

    def test_empty_values_count_as_unset(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_CACHE_DIR", "")
        monkeypatch.setenv("REPRO_CACHE_DIR", "legacy-dir")
        with pytest.warns(DeprecationWarning):
            assert env.bench_env("CACHE_DIR") == "legacy-dir"

    def test_deprecated_mapping_applies_automatically(self, monkeypatch):
        # The pre-PR6 spellings are honored without callers having to name
        # them — the drift this module fixed: only run_campaign_rest.py used
        # to pass the deprecated spelling explicitly.
        monkeypatch.setenv("REPRO_CACHE_DIR", "/tmp/legacy")
        with pytest.warns(DeprecationWarning, match="REPRO_CACHE_DIR"):
            assert env.bench_cache_dir() == "/tmp/legacy"

    def test_knobs_without_deprecated_spelling_ignore_legacy_names(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.5")
        monkeypatch.setenv("REPRO_SCALE", "0.75")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert env.bench_scale() == 0.5


class TestTypedHelpers:
    def test_scale_default_and_override(self, monkeypatch):
        assert env.bench_scale() == env.DEFAULT_SCALE
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.5")
        assert env.bench_scale() == 0.5

    def test_jobs_deprecated_spelling(self, monkeypatch):
        assert env.bench_jobs() == 1
        monkeypatch.setenv("REPRO_JOBS", "6")
        with pytest.warns(DeprecationWarning):
            assert env.bench_jobs() == 6

    def test_benchmarks_parsing(self, monkeypatch):
        assert env.bench_benchmarks() is None
        assert env.bench_benchmarks(["cholesky"]) == ["cholesky"]
        monkeypatch.setenv("REPRO_BENCH_BENCHMARKS", "cholesky, qr ,,lu")
        assert env.bench_benchmarks(["ferret"]) == ["cholesky", "qr", "lu"]

    def test_shard_parsing(self, monkeypatch):
        assert env.bench_shard() is None
        monkeypatch.setenv("REPRO_BENCH_SHARDS", "2/3")
        assert env.bench_shard() == ShardSpec(2, 3)


class TestBenchEnvConvention:
    """The campaign scripts honor REPRO_BENCH_* through the shared shim.

    Pins that the script layer routes through :mod:`repro.experiments.env`;
    the drift this convention fixed was ``scripts/run_campaign_rest.py``
    carrying a private copy.
    """

    def test_new_name_wins_without_warning(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_JOBS", "4")
        monkeypatch.setenv("REPRO_JOBS", "2")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert env.bench_env("JOBS", "REPRO_JOBS") == "4"

    def test_deprecated_name_warns_and_is_honored(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", "/tmp/somewhere")
        with pytest.warns(DeprecationWarning, match="REPRO_CACHE_DIR is deprecated"):
            assert env.bench_env("CACHE_DIR", "REPRO_CACHE_DIR") == "/tmp/somewhere"

    def test_empty_values_count_as_unset(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "")
        assert env.bench_env("SCALE") is None

    @pytest.mark.parametrize(
        "script", ["run_campaign_rest.py", "run_campaign.py", "run_server.py"]
    )
    def test_scripts_use_the_shared_shim(self, script):
        path = pathlib.Path(__file__).resolve().parent.parent / "scripts" / script
        source = path.read_text(encoding="utf-8")
        assert "from repro.experiments.env import" in source
        assert "def bench_env" not in source  # no private copies left
