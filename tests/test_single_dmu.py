"""The columnar core is the only DMU.

Pins two sides of retiring the DMU storage-backend knob:

* no layer carries it any more — config, engines, CLI — so there is
  nothing left to select a second implementation with;
* data written while ``DMUConfig`` still had a ``backend`` field keeps
  working: configurations load, canonical run keys are unchanged, and a
  warm result cache filled back then still answers every request.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import pathlib

import pytest

from repro.config import DMUConfig, SimulationConfig, default_paper_config
from repro.core.dmu import DependenceManagementUnit
from repro.core.stats import DMUStats
from repro.experiments.cache import ResultCache, canonical_run_key, result_checksum
from repro.experiments.campaign import CampaignEngine
from repro.experiments.cli import build_parser
from repro.experiments.common import SimulationRunner

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Values the retired ``dmu.backend`` field was stored with on disk.
RETIRED_VALUES = ("pure", "accel")
RUNTIMES = ("software", "tdm", "carbon", "task_superscalar")


def _with_retired_field(config_dict: dict, value: str) -> dict:
    legacy = copy.deepcopy(config_dict)
    legacy["dmu"]["backend"] = value
    return legacy


class TestNoKnobRemains:
    def test_dmu_config_has_no_backend_field(self):
        assert "backend" not in {field.name for field in dataclasses.fields(DMUConfig)}
        assert "backend" not in default_paper_config().to_dict()["dmu"]

    def test_dmu_config_rejects_backend_keyword(self):
        with pytest.raises(TypeError):
            DMUConfig(backend="pure")

    @pytest.mark.parametrize("factory", [CampaignEngine, SimulationRunner])
    def test_engines_reject_backend_keyword(self, factory):
        with pytest.raises(TypeError):
            factory(scale=0.1, backend="pure")

    def test_backend_package_directory_is_gone(self):
        assert not (REPO_ROOT / "src" / "repro" / "core" / "backends").exists()

    def test_dmu_stats_is_the_stats_object(self):
        dmu = DependenceManagementUnit(DMUConfig())
        assert type(dmu.stats) is DMUStats
        assert not hasattr(dmu, "backend")
        dmu.create_task(0x1000)
        assert dmu.stats.tasks_created == 1

    def test_cli_rejects_backend_option(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["figure_02", "--backend", "pure"])
        assert excinfo.value.code == 2
        assert "--backend" in capsys.readouterr().err


class TestRetiredFieldLoads:
    """Dicts carrying the retired ``dmu.backend`` field still load."""

    @pytest.mark.parametrize("value", RETIRED_VALUES)
    @pytest.mark.parametrize("runtime", RUNTIMES)
    def test_from_dict_drops_retired_field(self, runtime, value):
        config = default_paper_config(runtime)
        legacy = _with_retired_field(config.to_dict(), value)
        assert SimulationConfig.from_dict(legacy) == config

    def test_from_dict_does_not_mutate_its_input(self):
        legacy = _with_retired_field(default_paper_config().to_dict(), "accel")
        before = copy.deepcopy(legacy)
        SimulationConfig.from_dict(legacy)
        assert legacy == before

    def test_from_dict_still_rejects_unknown_dmu_fields(self):
        bogus = default_paper_config().to_dict()
        bogus["dmu"]["storage_strategy"] = "pure"
        with pytest.raises(TypeError):
            SimulationConfig.from_dict(bogus)

    @pytest.mark.parametrize("value", RETIRED_VALUES)
    def test_canonical_key_unchanged(self, value):
        legacy = _with_retired_field(default_paper_config().to_dict(), value)
        # The pinned digest of tests/test_shard_plan.py's key-schema contract.
        assert (
            canonical_run_key(SimulationConfig.from_dict(legacy), "cholesky", 0.1)
            == "7cdb155fdc5f0c6703da6dbf27b25907555e5220e302d037847791a08d6ec3ec"
        )

    @pytest.mark.parametrize("value", RETIRED_VALUES)
    def test_warm_cache_written_with_field_simulates_nothing(self, tmp_path, value):
        cold = SimulationRunner(scale=0.1, cache_dir=tmp_path)
        expected = {
            runtime: cold.run("cholesky", runtime).total_cycles
            for runtime in ("software", "tdm")
        }
        # Rewrite every entry the way older versions stored it: the field
        # inside the result's config, covered by a valid checksum.
        entries = sorted(tmp_path.glob("??/*.json"))
        assert len(entries) == 2
        for path in entries:
            document = json.loads(path.read_text(encoding="utf-8"))
            document["result"]["config"]["dmu"]["backend"] = value
            document["sha256"] = result_checksum(document["result"])
            path.write_text(json.dumps(document, sort_keys=True), encoding="utf-8")

        warm = SimulationRunner(scale=0.1, cache_dir=tmp_path)
        for runtime, cycles in expected.items():
            assert warm.run("cholesky", runtime).total_cycles == cycles
        info = warm.cache_info()
        assert (info["simulations_run"], info["disk_hits"]) == (0, 2)
        assert warm.reliability_info()["quarantined"] == 0
        assert len(ResultCache(tmp_path)) == 2

