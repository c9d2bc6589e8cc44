"""The columnar core is the only DMU.

Pins that no layer carries the retired DMU storage-backend knob any more —
config, engines, CLI — so there is nothing left to select a second
implementation with, and a stored config that still names the field is
rejected like any other unknown field.
"""

from __future__ import annotations

import dataclasses
import pathlib

import pytest

from repro.config import DMUConfig, SimulationConfig, default_paper_config
from repro.core.dmu import DependenceManagementUnit
from repro.core.stats import DMUStats
from repro.experiments.campaign import CampaignEngine
from repro.experiments.cli import build_parser
from repro.experiments.common import SimulationRunner

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


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

    @pytest.mark.parametrize(
        "field, value",
        [("storage_strategy", "pure"), ("backend", "pure"), ("backend", "accel")],
    )
    def test_from_dict_still_rejects_unknown_dmu_fields(self, field, value):
        bogus = default_paper_config().to_dict()
        bogus["dmu"][field] = value
        with pytest.raises(TypeError):
            SimulationConfig.from_dict(bogus)
