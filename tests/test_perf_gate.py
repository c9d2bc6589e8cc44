"""``scripts/perf_gate.py`` on synthetic perfbench run records.

The gate is what CI's ``perf-smoke`` job trusts to catch a regression, so
each way it can fail is pinned here: a regression past the
``BENCHMARK.json`` bound, a run that reports wrong output, a drop in the
share of operations that succeeded, and the direction of metrics where
higher is better.  The work-counter comparison of traced runs is pinned as
advisory: it marks counters ``exact`` or ``changed`` and never fails.
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


def test_fails_on_a_30_percent_dmu_replay_setup_regression(tmp_path, capsys):
    base = three("dmu_replay", setup_s=0.30)
    head = three("dmu_replay", setup_s=0.39)
    assert run_gate(tmp_path, base, head) == 1
    assert "FAILED dmu_replay setup_s" in capsys.readouterr().out


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


def traced(workload: str, correct: bool = True, events: float = 1000.0) -> dict:
    """A traced run's last line: per-layer metrics, no end-to-end ones."""
    values = {name: 1000.0 for name in perf_gate.WORK_COUNTERS}
    values["sim.events"] = events
    values["sim.self_s"] = 20.0
    return {"workload": workload, "correct": correct, "attempted": 10,
            "failed": 0 if correct else 1,
            "metrics": {name: {"value": value, "unit": "count"} for name, value in values.items()}}


def counter_lines(out: str) -> dict:
    """``{counter: verdict}`` from the gate's work-counter table."""
    lines = [line.split() for line in out.splitlines()]
    return {words[0]: words[-1] for words in lines
            if words and words[0] in perf_gate.WORK_COUNTERS}


def test_equal_work_counters_are_exact(tmp_path, capsys):
    base = three("cold_campaign") + [traced("cold_campaign")]
    head = three("cold_campaign") + [traced("cold_campaign")]
    assert run_gate(tmp_path, base, head) == 0
    out = capsys.readouterr().out
    assert counter_lines(out) == {name: "exact" for name in perf_gate.WORK_COUNTERS}
    assert "cold_campaign work counters: 1 base traced runs, 1 head traced runs" in out


def test_changed_work_counters_are_advisory(tmp_path, capsys):
    base = three("cold_campaign") + [traced("cold_campaign", events=8_169_799)]
    head = three("cold_campaign") + [traced("cold_campaign", events=7_037_043)]
    assert run_gate(tmp_path, base, head) == 0
    out = capsys.readouterr().out
    verdicts = counter_lines(out)
    assert verdicts.pop("sim.events") == "changed"
    assert set(verdicts.values()) == {"exact"}
    assert "perf gate: pass" in out


def test_traced_runs_take_no_part_in_the_medians(tmp_path):
    # The traced runs carry no wall_s; the untraced medians alone decide.
    base = three("cold_campaign", wall_s=7.0) + [traced("cold_campaign")]
    head = three("cold_campaign", wall_s=9.1) + [traced("cold_campaign")]
    assert run_gate(tmp_path, base, head) == 1
    assert run_gate(tmp_path, base, three("cold_campaign", wall_s=7.0) + [traced("cold_campaign")]) == 0


def test_an_incorrect_traced_run_fails(tmp_path):
    base = three("cold_campaign") + [traced("cold_campaign")]
    head = three("cold_campaign") + [traced("cold_campaign", correct=False)]
    assert run_gate(tmp_path, base, head) == 1


def test_traced_on_one_side_only_is_noted(tmp_path, capsys):
    base = three("cold_campaign") + [traced("cold_campaign")]
    assert run_gate(tmp_path, base, three("cold_campaign")) == 0
    out = capsys.readouterr().out
    assert "cold_campaign work counters: traced on one side only" in out
    assert counter_lines(out) == {}


def test_orchestration_values_are_shown_beside_the_counters(tmp_path, capsys):
    # Program builds and pool utilization may move with no semantic change:
    # printed side by side, judged neither exact nor changed, never failing.
    base_run, head_run = traced("cold_campaign"), traced("cold_campaign")
    for run, builds, util in ((base_run, 149.0, 0.91), (head_run, 81.0, 0.95)):
        run["metrics"]["workloads.builds"] = {"value": builds, "unit": "count"}
        run["metrics"]["campaign.pool_util"] = {"value": util, "unit": "ratio"}
    base = three("cold_campaign") + [base_run]
    head = three("cold_campaign") + [head_run]
    assert run_gate(tmp_path, base, head) == 0
    out = capsys.readouterr().out
    shown = {words[0]: words[1:] for words in map(str.split, out.splitlines())
             if words and words[0] in perf_gate.ORCHESTRATION_VALUES}
    assert shown == {
        "workloads.builds": ["base", "149", "head", "81", "(advisory)"],
        "campaign.pool_util": ["base", "0.91", "head", "0.95", "(advisory)"],
    }
    assert set(counter_lines(out).values()) == {"exact"}


def test_orchestration_values_missing_on_a_side_are_not_shown(tmp_path, capsys):
    head_run = traced("cold_campaign")
    head_run["metrics"]["workloads.builds"] = {"value": 81.0, "unit": "count"}
    base = three("cold_campaign") + [traced("cold_campaign")]
    assert run_gate(tmp_path, base, three("cold_campaign") + [head_run]) == 0
    assert "workloads.builds" not in capsys.readouterr().out
