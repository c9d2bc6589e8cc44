"""The determinism contract of pooled campaigns, pinned as tests.

Every speedup in this repository — process-pool fan-out, content-addressed
caching, the kernel rewrite — was sold on the same promise: the rendered
figures are *byte-identical* to a serial run.  This module makes that
promise executable, for every simulating figure:

* serial and ``--jobs 2`` executions produce identical CSV and Markdown
  bytes, and identical cache directories;
* a campaign with a ``--cache-dir`` resumes: a warm re-render simulates
  nothing and writes nothing, a campaign cut short simulates only the keys
  it is missing, and a torn entry is quarantined and resimulated to the
  same bytes.
"""

from __future__ import annotations

import multiprocessing
import shutil
from contextlib import closing

import pytest

from repro.experiments.cache import QUARANTINE_DIRNAME, ResultCache
from repro.experiments.common import SimulationRunner
from repro.experiments.registry import experiment_catalog, resolve_plan

from tests.util import experiment_output

SCALE = 0.05
BENCHMARKS = ["blackscholes"]

#: The figures under differential test: every paper experiment with a
#: simulation plan, each a tiny but structurally distinct sweep for one
#: benchmark (from 1 canonical key for figure_02 to the TAT/DAT grid of
#: figure_07).  A test below keeps this in step with the registry.
FIGURES = (
    "figure_02",
    "figure_06",
    "figure_07",
    "figure_08",
    "figure_09",
    "figure_10",
    "figure_11",
    "figure_12",
    "figure_13",
)


@pytest.fixture(scope="module")
def serial_outputs():
    """Reference CSV/Markdown of every figure, rendered fully serially."""
    return {name: experiment_output(name, SCALE, BENCHMARKS) for name in FIGURES}


class TestDifferentialEquivalence:
    def test_every_simulating_experiment_is_under_test(self):
        planned = [entry["name"] for entry in experiment_catalog() if entry["simulates"]]
        assert list(FIGURES) == planned

    @pytest.mark.parametrize("figure", FIGURES)
    def test_jobs2_output_is_byte_identical(self, figure, serial_outputs, tmp_path):
        with closing(SimulationRunner(scale=SCALE, jobs=2, cache_dir=tmp_path / "cache")) as runner:
            assert experiment_output(figure, SCALE, BENCHMARKS, runner) == serial_outputs[figure]


@pytest.fixture(scope="module")
def serial_caches(tmp_path_factory):
    """Per figure: a cache directory filled by one cold serial render, that
    render's (CSV, Markdown) and its ``cache_info()``.  Tests that write to
    a cache work on a copy (:func:`_copy`)."""
    root = tmp_path_factory.mktemp("serial-caches")
    caches = {}
    for name in FIGURES:
        runner = SimulationRunner(scale=SCALE, cache_dir=root / name)
        output = experiment_output(name, SCALE, BENCHMARKS, runner)
        caches[name] = (root / name, output, runner.cache_info())
    return caches


def _plan(figure, runner=None):
    return resolve_plan(figure, runner or SimulationRunner(scale=SCALE), benchmarks=BENCHMARKS)


def _copy(source, tmp_path):
    return shutil.copytree(source, tmp_path / "cache")


def _tree(directory):
    """Every file under ``directory``: relative path -> bytes."""
    return {
        path.relative_to(directory): path.read_bytes()
        for path in sorted(directory.rglob("*"))
        if path.is_file()
    }


class TestCacheDirCampaigns:
    """What a ``--cache-dir`` campaign leaves on disk, and how it resumes."""

    @pytest.mark.parametrize("figure", FIGURES)
    def test_plan_keys_do_not_depend_on_jobs_or_cache_dir(self, figure, tmp_path):
        keys = [item.key for item in _plan(figure)]
        assert keys and keys == sorted(set(keys))
        with closing(SimulationRunner(scale=SCALE, jobs=2, cache_dir=tmp_path)) as pooled:
            assert [item.key for item in _plan(figure, pooled)] == keys

    @pytest.mark.parametrize("figure", FIGURES)
    def test_cold_render_caches_exactly_its_plan(self, figure, serial_caches, serial_outputs):
        directory, output, info = serial_caches[figure]
        keys = [item.key for item in _plan(figure)]
        assert output == serial_outputs[figure]
        assert ResultCache(directory).keys() == keys
        assert info["simulations_run"] == len(keys)
        assert info["disk_hits"] == 0

    @pytest.mark.parametrize("figure", FIGURES)
    def test_pooled_cache_equals_serial_cache(self, figure, serial_caches, tmp_path):
        directory, output, _ = serial_caches[figure]
        with closing(SimulationRunner(scale=SCALE, jobs=2, cache_dir=tmp_path)) as runner:
            assert experiment_output(figure, SCALE, BENCHMARKS, runner) == output
        assert _tree(tmp_path) == _tree(directory)

    @pytest.mark.parametrize("figure", FIGURES)
    def test_warm_rerender_simulates_nothing(self, figure, serial_caches):
        directory, output, info = serial_caches[figure]
        warm = SimulationRunner(scale=SCALE, cache_dir=directory)
        assert experiment_output(figure, SCALE, BENCHMARKS, warm) == output
        assert warm.cache_info()["simulations_run"] == 0
        assert warm.cache_info()["disk_hits"] == info["simulations_run"]
        assert not any(warm.reliability_info().values())

    @pytest.mark.parametrize("figure", FIGURES)
    def test_pooled_warm_rerender_forks_no_worker(self, figure, serial_caches, tmp_path):
        directory, output, _ = serial_caches[figure]
        cache = _copy(directory, tmp_path)
        before = _tree(cache)
        with closing(SimulationRunner(scale=SCALE, jobs=2, cache_dir=cache)) as warm:
            assert experiment_output(figure, SCALE, BENCHMARKS, warm) == output
            assert multiprocessing.active_children() == []
        assert warm.cache_info()["simulations_run"] == 0
        assert _tree(cache) == before

    @pytest.mark.parametrize("figure", FIGURES)
    def test_a_cache_nothing_may_write_serves_a_warm_render(
        self, figure, serial_caches, tmp_path, monkeypatch
    ):
        # What a read-only directory does to a writer, without needing a
        # non-root user for the permission bits to bite.
        directory, output, _ = serial_caches[figure]
        cache = _copy(directory, tmp_path)

        def refuse(*args, **kwargs):
            raise PermissionError(30, "Read-only file system")

        for name in ("replace", "unlink"):
            monkeypatch.setattr(f"repro.experiments.cache.os.{name}", refuse)
        monkeypatch.setattr("repro.experiments.cache.atomic_write", refuse)
        warm = SimulationRunner(scale=SCALE, cache_dir=cache)
        assert experiment_output(figure, SCALE, BENCHMARKS, warm) == output
        assert warm.cache_info()["simulations_run"] == 0

    @pytest.mark.parametrize("figure", FIGURES)
    def test_cut_short_campaign_resumes_only_missing_keys(
        self, figure, serial_caches, tmp_path
    ):
        directory, output, _ = serial_caches[figure]
        plan = _plan(figure)
        done = plan[::2]  # what a campaign committed before it was cut short
        SimulationRunner(scale=SCALE, cache_dir=tmp_path).run_many(
            [item.request for item in done]
        )
        resumed = SimulationRunner(scale=SCALE, cache_dir=tmp_path)
        assert experiment_output(figure, SCALE, BENCHMARKS, resumed) == output
        assert resumed.cache_info()["simulations_run"] == len(plan) - len(done)
        assert resumed.cache_info()["disk_hits"] == len(done)
        assert _tree(tmp_path) == _tree(directory)

    @pytest.mark.parametrize("figure", FIGURES)
    def test_torn_entry_is_quarantined_and_resimulated(
        self, figure, serial_caches, tmp_path
    ):
        directory, output, _ = serial_caches[figure]
        cache = _copy(directory, tmp_path)
        entry = ResultCache(cache).path_for(_plan(figure)[0].key)
        blob = entry.read_bytes()
        entry.write_bytes(blob[: len(blob) // 2])
        repaired = SimulationRunner(scale=SCALE, cache_dir=cache)
        assert experiment_output(figure, SCALE, BENCHMARKS, repaired) == output
        assert repaired.cache_info()["simulations_run"] == 1
        assert repaired.reliability_info()["quarantined"] == 1
        assert entry.read_bytes() == blob
        assert [path.name for path in (cache / QUARANTINE_DIRNAME).glob("*.json")] == [
            entry.name
        ]
