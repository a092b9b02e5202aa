"""Reduced-size smoke test of the benchmark harness.

Runs tiny workloads in-process through the same code paths as
`bench/run.py` and checks the result format, the counters of a traced
run, failure accounting and that tracing leaves the package unpatched.
"""

import json
import subprocess
import sys
from pathlib import Path

import levitherm
from levitherm import kramers, langevin, thermo

import harness

SRC = Path(levitherm.__file__).resolve().parents[1]

TINY = {"steps": [
    {"subcommand": "env-sweep", "overrides": {"sweep": {"n_points": 5}}},
    {"subcommand": "simulate",
     "overrides": {"simulation": {"duration_ms": 0.02, "n_traj": 4}}},
    {"subcommand": "kramers",
     "overrides": {"well": {"mass_fg": 10, "barrier_kT": 5,
                            "separation_nm": 200},
                   "kramers": {"n_points": 5}}},
]}


def _run(tmp_path, monkeypatch, workload, trace):
    monkeypatch.setattr(harness, "SETUP_SAMPLES", 1)
    return harness.run_workload(workload, seed=3, seconds=0, trace=trace,
                                work_root=tmp_path, src=SRC, name="tiny")


def test_timing_run_reports_end_to_end_metrics(tmp_path, monkeypatch):
    res = _run(tmp_path, monkeypatch, TINY, trace=False)
    assert res["correct"] and res["failed"] == 0
    assert res["attempted"] == len(TINY["steps"]) * (harness.MIN_PASSES + 1)
    assert set(res["metrics"]) == set(harness.END_TO_END)
    assert all(m["value"] > 0 for m in res["metrics"].values())
    assert [p.name for p in tmp_path.iterdir()] == []


def test_traced_run_counts_and_restores(tmp_path, monkeypatch):
    originals = (langevin.simulate, thermo.simulate,
                 kramers.simulate_double_well, langevin.trajectory_streams)
    res = _run(tmp_path, monkeypatch, TINY, trace=True)
    assert res["correct"], res
    m = {k: v["value"] for k, v in res["metrics"].items()}
    assert set(m) == set(harness.PER_LAYER)
    assert m["langevin.traj_steps"] == 4 * 50          # 0.02 ms / 400 ns
    assert m["langevin.streams"] == 4
    assert m["langevin.bytes_recorded"] > 3 * 4 * 51 * 8
    assert m["kramers.turnover_rate.calls"] == 5
    assert m["cli.bytes_emitted"] > 0
    assert m["langevin.simulate.s"] > 0 and m["environment.self_s"] > 0
    assert m["cli.self_s"] >= m["cli.env-sweep.s"] + m["cli.kramers.s"] > 0
    spans = [json.loads(line) for line in
             (tmp_path / "traces" / "tiny-seed3.jsonl").read_text().splitlines()]
    assert {"cli.simulate", "langevin.simulate",
            "langevin.trajectory_streams"} <= {s["name"] for s in spans}
    assert (langevin.simulate, thermo.simulate, kramers.simulate_double_well,
            langevin.trajectory_streams) == originals


def test_failed_subcommand_counts_as_failed(tmp_path, monkeypatch):
    # far too few trajectories for the histogram fit: exits 1
    bad = {"steps": [{"subcommand": "fluctuation",
                      "overrides": {"simulation": {"n_traj": 8}}}]}
    res = _run(tmp_path, monkeypatch, bad, trace=False)
    assert not res["correct"]
    assert res["failed"] == res["attempted"] == harness.MIN_PASSES + 1


def test_run_refuses_a_directory_without_sources(tmp_path):
    run_py = Path(harness.__file__).with_name("run.py")
    res = subprocess.run([sys.executable, str(run_py), "--workload", "thermo",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True,
                         timeout=60)
    assert res.returncode != 0
    assert res.stdout == ""


def test_benchmark_json_matches_the_harness():
    spec = json.loads((Path(harness.__file__).resolve().parents[1]
                       / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(
        harness.SPEC["workloads"])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == harness.PER_LAYER
