"""``scripts/perf_gate.py`` on synthetic perfbench run records.

The gate is what CI's ``perf-smoke`` job trusts to catch a regression, so
each way it can fail is pinned here: a regression past the
``BENCHMARK.json`` bound, a run that reports wrong output, a drop in the
share of operations that succeeded, and the direction of metrics where
higher is better.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def _load_gate():
    path = REPO_ROOT / "scripts" / "perf_gate.py"
    spec = importlib.util.spec_from_file_location("perf_gate", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


perf_gate = _load_gate()
BOUNDS = perf_gate.load_bounds()


def record(workload: str, correct: bool = True, **values: float) -> dict:
    """One run's last line: every end-to-end metric at 1.0 unless given."""
    metrics = {name: {"value": values.get(name, 1.0), "unit": entry["unit"]}
               for name, entry in BOUNDS.items()}
    return {"workload": workload, "correct": correct, "attempted": 10,
            "failed": 0 if correct else 1, "metrics": metrics}


def run_gate(tmp_path, base_runs, head_runs) -> int:
    files = []
    for name, runs in (("base.jsonl", base_runs), ("head.jsonl", head_runs)):
        path = tmp_path / name
        path.write_text("".join(json.dumps(run) + "\n" for run in runs), encoding="utf-8")
        files.append(str(path))
    return perf_gate.main(files)


def three(workload: str, **values: float) -> list:
    return [record(workload, **values) for _ in range(3)]


def test_bounds_come_from_benchmark_json():
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert set(BOUNDS) == {entry["name"] for entry in spec["end_to_end"]}
    assert BOUNDS["wall_s"]["better"] == "lower"
    assert BOUNDS["dmu_instr_per_s"]["better"] == "higher"


def test_passes_within_the_bound(tmp_path, capsys):
    base = three("cold_campaign", wall_s=7.0) + three("dmu_replay", dmu_instr_per_s=1e6)
    head = three("cold_campaign", wall_s=7.7) + three("dmu_replay", dmu_instr_per_s=0.9e6)
    assert run_gate(tmp_path, base, head) == 0
    assert "perf gate: pass" in capsys.readouterr().out


def test_fails_on_a_30_percent_wall_regression(tmp_path, capsys):
    base = three("cold_campaign", wall_s=7.0)
    head = three("cold_campaign", wall_s=9.1)
    assert run_gate(tmp_path, base, head) == 1
    assert "FAILED cold_campaign wall_s" in capsys.readouterr().out


def test_fails_on_a_30_percent_warm_render_wall_regression(tmp_path, capsys):
    base = three("warm_render", wall_s=0.10)
    head = three("warm_render", wall_s=0.13)
    assert run_gate(tmp_path, base, head) == 1
    assert "FAILED warm_render wall_s" in capsys.readouterr().out


@pytest.mark.parametrize("side", ["base", "head"])
def test_fails_on_an_incorrect_run(tmp_path, side):
    runs = {"base": three("warm_render"), "head": three("warm_render")}
    runs[side][1] = record("warm_render", correct=False)
    assert run_gate(tmp_path, runs["base"], runs["head"]) == 1


def test_fails_when_ops_ok_frac_drops(tmp_path):
    base = three("warm_render", ops_ok_frac=1.0)
    head = three("warm_render", ops_ok_frac=0.995)
    assert run_gate(tmp_path, base, head) == 1


def test_higher_is_better_metrics(tmp_path, capsys):
    base = three("dmu_replay", dmu_instr_per_s=1e6)
    assert run_gate(tmp_path, base, three("dmu_replay", dmu_instr_per_s=1.3e6)) == 0
    assert run_gate(tmp_path, base, three("dmu_replay", dmu_instr_per_s=0.7e6)) == 1
    assert "FAILED dmu_replay dmu_instr_per_s" in capsys.readouterr().out


def test_ungated_regressions_are_advisories(tmp_path, capsys):
    base = three("cold_campaign", peak_rss_mb=100.0) + three("warm_render", sim_s_p90=0.2)
    head = three("cold_campaign", peak_rss_mb=150.0) + three("warm_render", sim_s_p90=0.4)
    assert run_gate(tmp_path, base, head) == 0
    out = capsys.readouterr().out
    assert out.count("advisory") == 2


def test_compares_medians_not_single_runs(tmp_path):
    base = three("cold_campaign", wall_s=7.0)
    head = three("cold_campaign", wall_s=7.0)
    head[0] = record("cold_campaign", wall_s=20.0)
    assert run_gate(tmp_path, base, head) == 0


def test_fails_on_a_workload_run_on_one_side_only(tmp_path):
    assert run_gate(tmp_path, three("cold_campaign"), three("dmu_replay")) == 1
