"""End-to-end checks of the command line interface."""

import csv
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from levitherm import analysis


BASE_CONFIG = {
    "particle": {"radius_nm": 100},
    "gas": {"pressure_mbar": 1.0e-2, "temperature_K": 300},
    "trap": {"power_mW": 70, "waist_x_um": 0.7, "wavelength_nm": 1550},
    "sweep": {"p_min_mbar": 1.0e-8, "p_max_mbar": 1.0e3, "n_points": 12},
    "oscillator": {"mass_fg": 5.0, "frequency_kHz": 20,
                   "damping_Hz": 318.31, "temperature_K": 300,
                   "duffing_um2": 0},
    "simulation": {"dt_ns": 400, "duration_ms": 1.0, "n_traj": 50,
                   "record_every": 1, "seed": 7},
    "psd": {"n_segments": 4},
    "modulation": {"phase_rad": 0.7853981633974483, "depths": [0.01]},
    "relax": {"ratio": 0.1},
    "fluctuation": {"feedback_gain_um2": 5.0},
    "squeeze": {"ratio": 2.0, "time_ms": 0.5},
    "engine": {"mass_fg": 5.0, "damping_Hz": 100000, "t_hot_K": 600,
               "t_cold_K": 300, "k_max_stiffness_fN_um": 50,
               "k_min_stiffness_fN_um": 20, "tau_hot_ms": 5,
               "tau_cold_ms": 5, "regime": "overdamped"},
}


def write_config(tmp_path, overrides=None, name="cfg.yaml"):
    cfg = yaml.safe_load(yaml.safe_dump(BASE_CONFIG))
    for section, keys in (overrides or {}).items():
        cfg.setdefault(section, {}).update(keys)
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg))
    return path


def run_cli(args, **kw):
    return subprocess.run([sys.executable, "-m", "levitherm.cli", *args],
                          capture_output=True, text=True, **kw)


def sha256_of(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_help_lists_subcommands():
    res = run_cli(["--help"])
    assert res.returncode == 0
    for name in ("env-sweep", "simulate", "psd", "modulate", "relax",
                 "fluctuation", "kramers", "engine", "squeeze"):
        assert name in res.stdout


def test_missing_config_file_is_a_usage_error(tmp_path):
    res = run_cli(["simulate", "--config", str(tmp_path / "nope.yaml")])
    assert res.returncode == 2


def test_validation_reports_all_violations(tmp_path):
    cfg = write_config(tmp_path, {"oscillator": {"frequency_kHz": -5},
                                  "simulation": {"n_traj": 0}})
    out = tmp_path / "out"
    res = run_cli(["simulate", "--config", str(cfg), "--out", str(out)])
    assert res.returncode == 2
    err = json.loads(res.stderr)["error"]
    assert err["type"] == "ValidationError"
    joined = " ".join(err["violations"])
    assert "frequency_kHz" in joined
    assert "n_traj" in joined
    # no data files are left behind on a validation failure
    assert not list(out.glob("*.csv")) and not list(out.glob("*.json"))


WELL = {"mass_fg": 10, "barrier_kT": 5, "separation_nm": 200}


@pytest.mark.parametrize("command, overrides, keys", [
    pytest.param("psd", {"psd": {"n_segments": "abc"}}, ["psd.n_segments"],
                 id="non-numeric"),
    pytest.param("modulate", {"modulation": {"depths": ["x"]}},
                 ["modulation.depths"], id="non-numeric-list-item"),
    pytest.param("kramers", {"well": WELL, "kramers": {"mc_damping_Hz": [-5]}},
                 ["kramers.mc_damping_Hz"], id="negative-mc-damping"),
    pytest.param("simulate", {"simulation": {"n_trajs": 50}},
                 ["simulation.n_trajs"], id="unknown-key"),
    pytest.param("simulate", {"simulation": {"n_traj": 2.7}},
                 ["simulation.n_traj"], id="non-integer"),
    pytest.param("simulate", {"simulation": {"seed": -1}},
                 ["simulation.seed"], id="negative-seed"),
    pytest.param("env-sweep", {"sweep": {"p_min_mbar": 10, "p_max_mbar": 1},
                               "trap": {"power_mW": -1}},
                 ["sweep.p_max_mbar", "trap.power_mW"], id="cross-key"),
    pytest.param("engine", {"engine": {"regime": "adiabatic"}},
                 ["engine.regime"], id="choice"),
    pytest.param("fluctuation", {"fluctuation": {"n_bins": 40}},
                 ["fluctuation.n_bins"], id="removed-key"),
    # 6 and 3 samples recorded, shorter than the 8-sample least segment
    pytest.param("psd", {"simulation": {"duration_ms": 0.002}},
                 ["psd.n_segments"], id="psd-run-shorter-than-a-segment"),
    pytest.param("psd", {"simulation": {"record_every": 1000}},
                 ["psd.n_segments"], id="psd-stride-longer-than-a-segment"),
    # 8-sample segments: no positive bin up to a quarter of Nyquist
    pytest.param("psd", {"psd": {"n_segments": 5000}},
                 ["psd.n_segments"], id="psd-too-few-fit-bins"),
])
def test_invalid_config_exits_2_before_any_work(tmp_path, command, overrides,
                                                keys):
    cfg = write_config(tmp_path, overrides)
    out = tmp_path / "out"
    res = run_cli([command, "--config", str(cfg), "--out", str(out)])
    assert res.returncode == 2, res.stderr
    err = json.loads(res.stderr)["error"]
    assert err["type"] == "ValidationError"
    for key in keys:
        assert key in " ".join(err["violations"])
    assert not out.exists()


def test_psd_segmentation_limit(tmp_path):
    # 2501 samples: 199 segments of 25 samples leave the Lorentzian fit 3
    # bins up to a quarter of Nyquist, 200 segments of 24 samples 2
    codes = {}
    for n_segments in (199, 200):
        cfg = write_config(tmp_path, {"psd": {"n_segments": n_segments}})
        out = tmp_path / str(n_segments)
        res = run_cli(["psd", "--config", str(cfg), "--out", str(out)])
        codes[n_segments] = res.returncode
    assert codes == {199: 0, 200: 2}


@pytest.mark.parametrize("mc_damping_hz, code", [([], 0), ([40000], 2)])
def test_kramers_reads_simulation_only_for_monte_carlo(tmp_path,
                                                       mc_damping_hz, code):
    cfg = yaml.safe_load(yaml.safe_dump(BASE_CONFIG))
    del cfg["simulation"]
    cfg["well"] = WELL
    cfg["kramers"] = {"n_points": 5, "mc_damping_Hz": mc_damping_hz}
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(cfg))
    out = tmp_path / "out"
    res = run_cli(["kramers", "--config", str(path), "--out", str(out)])
    assert res.returncode == code, res.stderr
    if code == 0:
        names = {o["path"] for o in
                 json.loads((out / "manifest.json").read_text())["outputs"]}
        assert names == {"kramers_theory.csv"}
    else:
        assert "missing required key simulation.dt_ns" in res.stderr


def test_every_config_key_is_declared_by_some_subcommand(tmp_path,
                                                         monkeypatch):
    # the config counterpart of test_api_surface: KEYS keeps no entry that
    # no subcommand reads
    from levitherm import cli
    declared = set()

    def capture(raw, keys, extra, *args):
        declared.update(keys)
        # every value that can switch on the conditional keys of `extra`
        for key, spec in cli.KEYS.items():
            choices = (spec.kind if isinstance(spec.kind, tuple)
                       else [[1.0]] if spec.kind is list else [])
            for value in choices:
                declared.update(extra({key: value}))
        raise cli.ValidationError(["captured"])

    monkeypatch.setattr(cli, "validate", capture)
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("{}\n")
    for name in cli.main.commands:
        with pytest.raises(SystemExit):
            cli.main.main([name, "--config", str(cfg), "--out",
                           str(tmp_path / name)], standalone_mode=False)
    # validate reads simulation.seed for every subcommand
    assert set(cli.KEYS) - declared == {"simulation.seed"}


def test_relax_reads_only_damping_and_temperature(tmp_path):
    cfg = yaml.safe_load(yaml.safe_dump(BASE_CONFIG))
    del cfg["oscillator"]["mass_fg"], cfg["oscillator"]["frequency_kHz"]
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(cfg))
    tables = []
    for config in (path, write_config(tmp_path, name="full.yaml")):
        out = tmp_path / config.stem
        res = run_cli(["relax", "--config", str(config), "--out", str(out)])
        assert res.returncode == 0, res.stderr
        # the first line carries the hash of the config, which differs
        tables.append((out / "relax.csv").read_bytes().split(b"\n", 1))
    assert tables[0][0] != tables[1][0]
    assert tables[0][1] == tables[1][1]


def test_fluctuation_reads_no_time_step(tmp_path):
    # the endpoints are drawn in one exact transition over the duration
    cfg = yaml.safe_load(yaml.safe_dump(BASE_CONFIG))
    cfg["simulation"]["n_traj"] = 40_000
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(cfg))
    del cfg["simulation"]["dt_ns"]
    no_dt = tmp_path / "no_dt.yaml"
    no_dt.write_text(yaml.safe_dump(cfg))
    reports = []
    for config in (path, no_dt):
        out = tmp_path / config.stem
        res = run_cli(["fluctuation", "--config", str(config),
                       "--out", str(out)])
        assert res.returncode == 0, res.stderr
        report = json.loads((out / "fluctuation_report.json").read_text())
        reports.append((report.pop("config_hash"), report))
    assert reports[0][0] != reports[1][0]
    assert reports[0][1] == reports[1][1]


def test_fluctuation_fits_500_trajectories(tmp_path):
    # 500 trajectories draw more than 20 samples of each sign
    cfg = write_config(tmp_path, {"simulation": {"n_traj": 500}})
    out = tmp_path / "out"
    res = run_cli(["fluctuation", "--config", str(cfg), "--out", str(out)])
    assert res.returncode == 0, res.stderr
    names = {o["path"] for o in
             json.loads((out / "manifest.json").read_text())["outputs"]}
    assert names == {"fluctuation_report.json"}
    report = json.loads((out / "fluctuation_report.json").read_text())
    assert set(report) == {"applicable", "slope", "intercept",
                           "slope_stderr", "n_traj", "config_hash"}
    assert report["applicable"] is True
    assert math.isfinite(report["slope_stderr"])
    assert report["slope_stderr"] > 0


def test_squeeze_reads_the_state_at_the_end_of_the_pulse(tmp_path):
    # the pulse runs from 0.5 ms to 0.525 ms: a coarser record stride and
    # a duration that ends inside the pulse leave the result unchanged
    reports = []
    for name, overrides in (("base", {}),
                            ("stride", {"record_every": 3}),
                            ("short", {"duration_ms": 0.51})):
        cfg = write_config(tmp_path, {"simulation": overrides},
                           name=f"{name}.yaml")
        out = tmp_path / name
        res = run_cli(["squeeze", "--config", str(cfg), "--out", str(out)])
        assert res.returncode == 0, res.stderr
        report = json.loads((out / "squeeze.json").read_text())
        del report["config_hash"]
        reports.append(report)
    assert reports[1] == reports[0]
    assert reports[2] == reports[0]


def test_memory_preflight_refuses_runs_larger_than_ram(tmp_path, monkeypatch,
                                                       capsys):
    from levitherm import cli
    # a machine with 1 byte of RAM: the 50 x 2501 sample run cannot fit
    monkeypatch.setattr(os, "sysconf", lambda name: 1)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        cli.main.main(["simulate", "--config", str(write_config(tmp_path)),
                       "--out", str(out)], standalone_mode=False)
    assert exc.value.code == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert "physical memory" in " ".join(err["violations"])
    assert not out.exists()


@pytest.mark.parametrize("command, ram", [
    # 385 kiB: simulate's one trajectory of 2 samples, with the energy
    # row block (262 kB) and sample moments (131 kB) it forms after the
    # run, needs 394080 B less its noise stream (958 B)
    pytest.param("simulate", 385 * 1024, id="simulate"),
    # 2.25 kiB: fluctuation's noise block padded to a 64-column stream
    # block, draw buffer and working vectors need 2120 B
    pytest.param("fluctuation", 2304, id="fluctuation")])
def test_memory_preflight_counts_noise_streams(tmp_path, monkeypatch, capsys,
                                               command, ram):
    from levitherm import cli
    # one trajectory of one step fits the machine `ram` but for its noise
    # stream
    monkeypatch.setattr(os, "sysconf",
                        lambda name: ram if name == "SC_PAGE_SIZE" else 1)
    cfg = write_config(tmp_path, {"simulation": {"n_traj": 1,
                                                 "duration_ms": 0.0004}})
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        cli.main.main([command, "--config", str(cfg), "--out", str(out)],
                      standalone_mode=False)
    assert exc.value.code == 2
    err = json.loads(capsys.readouterr().err)["error"]
    joined = " ".join(err["violations"])
    assert "noise streams" in joined and "physical memory" in joined
    assert not out.exists()


def test_memory_preflight_counts_one_stream_per_block(monkeypatch):
    from levitherm import cli
    monkeypatch.setattr(os, "sysconf", lambda name: 1)
    raw = {"simulation": {"dt_ns": 400, "duration_ms": 0.0004,
                          "n_traj": 130}}
    with pytest.raises(cli.ValidationError) as exc:
        cli.validate(raw, cli.RUN)
    # 130 trajectories take 3 streams of 958 B and a noise block of one
    # step padded to 3 x 64 columns
    (message,) = exc.value.violations
    assert "noise streams 2.87e+03, noise block 1.54e+03" in message


def test_relax_memory_preflight_counts_its_largest_noise_block(
        tmp_path, monkeypatch, capsys):
    from levitherm import cli, langevin
    # 64 trajectories x 600 steps of the energy dynamics, two draws a step
    cfg = write_config(tmp_path, {"simulation": {"n_traj": 64,
                                                 "duration_ms": 0.24}})
    blocks = []
    draw = langevin._draw_normals

    def spy(streams, count, n_traj):
        noise = draw(streams, count, n_traj)
        blocks.append(noise.nbytes)
        return noise

    monkeypatch.setattr(langevin, "_draw_normals", spy)
    cli.main.main(["relax", "--config", str(cfg), "--out",
                   str(tmp_path / "run")], standalone_mode=False)
    monkeypatch.setattr(os, "sysconf", lambda name: 1)
    with pytest.raises(SystemExit) as exc:
        cli.main.main(["relax", "--config", str(cfg), "--out",
                       str(tmp_path / "out")], standalone_mode=False)
    assert exc.value.code == 2
    (violation,) = json.loads(capsys.readouterr().err)["error"]["violations"]
    counted = re.search(r"noise block (\S+),", violation).group(1)
    # the violation prints 3 significant digits
    assert float(counted) >= float(f"{max(blocks):.3g}")


def test_kramers_memory_preflight_counts_monte_carlo_paths(tmp_path):
    # Monte Carlo keeps a well label every 4th step: 100000 x 1666667
    # samples, about 1.7e11 bytes
    cfg = write_config(tmp_path, {
        "well": WELL, "kramers": {"n_points": 5, "mc_damping_Hz": [40000]},
        "simulation": {"n_traj": 100000, "duration_ms": 1000,
                       "dt_ns": 150}})
    out = tmp_path / "out"
    res = run_cli(["kramers", "--config", str(cfg), "--out", str(out)])
    assert res.returncode == 2, res.stderr
    (violation,) = json.loads(res.stderr)["error"]["violations"]
    assert violation.startswith("simulation.n_traj")
    assert "well labels of 100000 trajectories x 1666667 samples" in violation
    assert not out.exists()


def _preflight_terms(violation):
    """The terms of a memory preflight violation, by name."""
    terms = violation.split(": ", 1)[1].split(" need ")[0].split(", ")
    return dict(term.rsplit(" ", 1) for term in terms)


def test_kramers_memory_preflight_counts_every_damping(tmp_path, monkeypatch,
                                                       capsys):
    # the dampings run side by side: three of them triple the streams,
    # the noise block and the labels of one
    from levitherm import cli
    monkeypatch.setattr(os, "sysconf", lambda name: 1)
    counted = []
    for dampings in ([40000], [40000, 72000, 145000]):
        cfg = write_config(tmp_path, {
            "well": WELL, "kramers": {"mc_damping_Hz": dampings},
            "simulation": {"dt_ns": 150, "duration_ms": 7.0, "n_traj": 64}})
        with pytest.raises(SystemExit) as exc:
            cli.main.main(["kramers", "--config", str(cfg), "--out",
                           str(tmp_path / "out")], standalone_mode=False)
        assert exc.value.code == 2
        (violation,) = json.loads(capsys.readouterr().err)["error"][
            "violations"]
        counted.append(_preflight_terms(violation))
    one, three = counted
    assert one["noise streams"] == f"{958:.3g}"
    assert three["noise streams"] == f"{3 * 958:.3g}"
    # the violation prints 3 significant digits
    assert float(three["noise block"]) == pytest.approx(
        3 * float(one["noise block"]), rel=1e-2)
    # 7 ms at 150 ns is 46667 steps, a label every 4th: 11666 + 1 samples
    assert one["well labels of 64 trajectories x 11667 samples"] \
        == f"{64 * 11667:.3g}"
    assert three["well labels of 192 trajectories x 11667 samples"] \
        == f"{192 * 11667:.3g}"


@pytest.mark.parametrize("command, entry, overrides", [
    # the benchmark's sizes: calibrate's psd step, relax at the same size,
    # the Monte Carlo dampings of the hopping workload, calibrate's
    # squeeze step and thermo's fluctuation step; then simulate, which
    # keeps q, p and energy, at the psd size, thermo's underdamped engine
    # step, modulate at the psd size with one depth, and a psd whose
    # 32805-sample segments are longer than a row block, one row each.
    # `entry` is the ensemble run the preflight describes; the subcommand
    # runs it once
    ("psd", "langevin.simulate",
     {"oscillator": {"damping_Hz": 5000},
      "simulation": {"duration_ms": 2.0, "n_traj": 500}}),
    ("relax", "langevin.simulate_energy_sde",
     {"simulation": {"duration_ms": 2.0, "n_traj": 500}}),
    ("kramers", "kramers.monte_carlo_rates",
     {"well": WELL, "kramers": {"n_points": 5,
                                "mc_damping_Hz": [40000, 72000, 145000]},
      "simulation": {"dt_ns": 150, "duration_ms": 7.0, "n_traj": 64}}),
    ("squeeze", "langevin.simulate",
     {"simulation": {"duration_ms": 0.1, "n_traj": 20000},
      "squeeze": {"time_ms": 0.05}}),
    ("fluctuation", "thermo.transient_ft_check",
     {"simulation": {"dt_ns": 2000, "duration_ms": 0.5, "n_traj": 40000}}),
    ("simulate", "langevin.simulate",
     {"simulation": {"duration_ms": 2.0, "n_traj": 500}}),
    ("engine", "thermo.underdamped_cycle_sde",
     {"engine": {"regime": "underdamped", "damping_Hz": 5000,
                 "tau_hot_ms": 0.2, "tau_cold_ms": 0.2},
      "simulation": {"n_traj": 300}}),
    ("modulate", "langevin.simulate",
     {"modulation": {"depths": [0.01]},
      "simulation": {"duration_ms": 2.0, "n_traj": 500}}),
    ("psd", "langevin.simulate",
     {"oscillator": {"damping_Hz": 5000}, "psd": {"n_segments": 2},
      "simulation": {"duration_ms": 20.0, "n_traj": 8}}),
])
def test_memory_preflight_covers_the_measured_peak(tmp_path, monkeypatch,
                                                   capsys, command, entry,
                                                   overrides):
    import importlib
    import tracemalloc
    from levitherm import cli
    module_name, name = entry.split(".")
    module = importlib.import_module(f"levitherm.{module_name}")
    run, calls = getattr(module, name), []

    def spy(*args, **kw):
        calls.append(name)
        return run(*args, **kw)

    cfg = write_config(tmp_path, overrides)
    # an untraced first run imports the scipy modules the subcommand calls,
    # whose code would otherwise count in the traced peak
    cli.main.main([command, "--config", str(cfg), "--out",
                   str(tmp_path / "warm")], standalone_mode=False)
    monkeypatch.setattr(module, name, spy)
    # the whole subcommand is traced: the run and the analysis after it
    tracemalloc.start()
    try:
        cli.main.main([command, "--config", str(cfg), "--out",
                       str(tmp_path / "run")], standalone_mode=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert calls == [name]
    # a machine one byte short of the measured peak is refused
    monkeypatch.setattr(os, "sysconf", lambda key: peak - 1
                        if key == "SC_PAGE_SIZE" else 1)
    with pytest.raises(SystemExit) as exc:
        cli.main.main([command, "--config", str(cfg), "--out",
                       str(tmp_path / "out")], standalone_mode=False)
    assert exc.value.code == 2
    (violation,) = json.loads(capsys.readouterr().err)["error"]["violations"]
    assert "physical memory" in violation
    # nor is the run overcounted: within a quarter of the peak and 1 MiB
    count = float(re.search(r"need (\S+) bytes", violation).group(1))
    assert count <= 1.25 * peak + 2**20
    # nor is the noise block overcounted: squeeze, which reads no
    # duration, draws only up to the step its pulse ends on (188 rows),
    # in chunks of CHUNK_BYTES (13 rows at 20000 trajectories)
    terms = _preflight_terms(violation)
    assert float(terms["noise block"]) < 2 * peak
    # nor the Welch window of `psd`, one segment of the ensemble
    if command == "psd":
        assert float(terms["welch window"]) < 2 * peak


@pytest.mark.parametrize("command, overrides", [
    ("env-sweep", {}),
    ("engine", {}),                 # the overdamped moment engine
    ("kramers", {"well": WELL}),    # the turnover theory, no Monte Carlo
])
def test_memory_preflight_never_refuses_a_subcommand_without_a_run(
        tmp_path, monkeypatch, command, overrides):
    from levitherm import cli
    # a machine with 1 byte of RAM
    monkeypatch.setattr(os, "sysconf", lambda name: 1)
    out = tmp_path / "out"
    cli.main.main([command, "--config", str(write_config(tmp_path, overrides)),
                   "--out", str(out)], standalone_mode=False)
    assert json.loads((out / "manifest.json").read_text())["complete"]


def test_memory_preflight_counts_what_a_recording_run_holds(
        tmp_path, monkeypatch, capsys):
    # at 500 x 5001 samples: simulate frees its noise block and chunk
    # record before it forms the third of its q, p and energy arrays, and
    # relax writes each energy sample into its one array, with no chunk
    # record
    from levitherm import cli
    monkeypatch.setattr(os, "sysconf", lambda name: 1)
    cfg = write_config(tmp_path, {"simulation": {"duration_ms": 2.0,
                                                 "n_traj": 500}})
    counted = {}
    for command in ("simulate", "relax"):
        with pytest.raises(SystemExit):
            cli.main.main([command, "--config", str(cfg), "--out",
                           str(tmp_path / "out")], standalone_mode=False)
        (violation,) = json.loads(capsys.readouterr().err)["error"][
            "violations"]
        counted[command] = (_preflight_terms(violation), float(
            re.search(r"need (\S+) bytes", violation).group(1)))
    terms, total = counted["simulate"]
    assert total - 3 * 500 * 5001 * 8 < float(terms["noise block"])
    assert "chunk record" not in counted["relax"][0]


def test_modulate_runs_do_not_reuse_the_streams_of_another_seed(tmp_path):
    # with seed + i, depth 1 of --seed 7 repeated depth 0 of --seed 8
    cfg = write_config(tmp_path, {"modulation": {"depths": [0.01, 0.01]},
                                  "simulation": {"n_traj": 8}})
    measured = {}
    for seed in (7, 8):
        out = tmp_path / str(seed)
        res = run_cli(["modulate", "--config", str(cfg), "--out", str(out),
                       "--seed", str(seed)])
        assert res.returncode == 0, res.stderr
        lines = (out / "modulate.csv").read_text().splitlines()
        measured[seed] = [row["t_measured_K"]
                          for row in csv.DictReader(lines[1:])]
    assert measured[7][1] != measured[8][0]
    assert measured[7][0] != measured[7][1]


UNDERDAMPED = {"engine": {"regime": "underdamped", "damping_Hz": 5000,
                          "tau_hot_ms": 0.2, "tau_cold_ms": 0.2}}
# the psd step of the calibrate benchmark workload: a resolved line
CALIBRATE_PSD = {"oscillator": {"damping_Hz": 5000},
                 "simulation": {"duration_ms": 2.0, "n_traj": 500}}


@pytest.mark.parametrize("command, overrides, loads", [
    pytest.param(None, None, (), id="import"),
    pytest.param("simulate", None, (), id="simulate"),
    # Brent's method, the Welch transforms and the Lorentzian fit are
    # the package's own; BASE_CONFIG's line is narrower than a bin
    pytest.param("env-sweep", None, (), id="env-sweep"),
    pytest.param("psd", None, (), id="psd"),
    pytest.param("psd", CALIBRATE_PSD, (), id="psd-calibrate"),
    pytest.param("relax", None, (), id="relax"),
    pytest.param("squeeze", None, (), id="squeeze"),
    pytest.param("modulate", None, (), id="modulate"),
    pytest.param("engine", UNDERDAMPED, (), id="engine-underdamped"),
    # 500 trajectories: the 50 of BASE_CONFIG draw too few negative
    # samples to fit
    # the truncated-Gaussian start energies are drawn by the package's
    # own erfcx, log Phi and inverse CDF
    pytest.param("fluctuation", {"simulation": {"n_traj": 500}}, (),
                 id="fluctuation"),
    # the well actions are closed-form and the depopulation integral is
    # summed on fixed nodes, with or without the Monte Carlo
    pytest.param("kramers", {"well": WELL, "kramers": {"n_points": 5}}, (),
                 id="kramers-theory"),
    pytest.param("kramers", {
        "well": WELL, "kramers": {"n_points": 5,
                                  "mc_damping_Hz": [40000, 145000]},
        "simulation": {"dt_ns": 150, "duration_ms": 0.3, "n_traj": 8}}, (),
        id="kramers-monte-carlo"),
])
def test_a_run_loads_only_the_scipy_modules_it_calls(tmp_path, command,
                                                      overrides, loads):
    # each module imports scipy in the functions that call it, so a fresh
    # interpreter that imports the CLI and runs `command` loads no other
    # scipy module (command None: the import alone)
    code = "import json, sys, levitherm.cli as cli\n"
    if command is not None:
        args = [command, "--config", str(write_config(tmp_path, overrides)),
                "--out", str(tmp_path / "out")]
        code += f"cli.main.main({args!r}, standalone_mode=False)\n"
    code += ("print(json.dumps([m for m in sys.modules\n"
             "                  if m.split('.')[0] == 'scipy']))")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True)
    assert res.returncode == 0, res.stderr
    loaded = set(json.loads(res.stdout.splitlines()[-1]))
    if not loads:
        assert not loaded
    for name in ("optimize", "integrate", "fft", "special", "stats"):
        assert (f"scipy.{name}" in loaded) == (name in loads), name


def _bench_step_configs():
    """BASE_CONFIG and the config of every step of the benchmark."""
    spec = json.loads((Path(__file__).parents[1] / "bench"
                       / "workloads.json").read_text())
    configs = [BASE_CONFIG]
    for workload in spec["workloads"].values():
        for step in workload["steps"]:
            cfg = yaml.safe_load(yaml.safe_dump(spec["base_config"]))
            for section, keys in step["overrides"].items():
                cfg.setdefault(section, {}).update(keys)
            configs.append(cfg)
    return configs


def test_config_loader_parses_as_the_python_safe_loader(tmp_path):
    from levitherm import cli
    if yaml.__with_libyaml__:
        assert cli.YAML_LOADER is yaml.CSafeLoader
    for i, cfg in enumerate(_bench_step_configs()):
        path = tmp_path / f"cfg{i}.yaml"
        path.write_text(yaml.safe_dump(cfg))
        parsed = cli._load_config(str(path), None)
        assert parsed == yaml.load(path.read_text(), Loader=yaml.SafeLoader)
        assert parsed == cfg


def test_config_hash_stable_and_sensitive():
    from levitherm import cli
    h1 = cli.config_hash({"a": 1, "b": [1, 2]})
    h2 = cli.config_hash({"b": [1, 2], "a": 1})
    h3 = cli.config_hash({"a": 2, "b": [1, 2]})
    assert h1 == h2
    assert h1 != h3


def test_simulate_outputs_and_manifest(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    res = run_cli(["simulate", "--config", str(cfg), "--out", str(out)])
    assert res.returncode == 0, res.stderr
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["complete"] is True
    assert manifest["seed"] == 7
    names = {o["path"] for o in manifest["outputs"]}
    assert names == {"trajectory_stats.csv", "simulate_summary.json"}
    for entry in manifest["outputs"]:
        assert sha256_of(out / entry["path"]) == entry["sha256"]
    # CSV carries the config hash and parses cleanly
    lines = (out / "trajectory_stats.csv").read_text().splitlines()
    assert lines[0] == f"# config_hash={manifest['config_hash']}"
    rows = list(csv.DictReader(lines[1:]))
    assert len(rows) > 10
    assert "time_s" in rows[0]
    summary = json.loads((out / "simulate_summary.json").read_text())
    assert summary["config_hash"] == manifest["config_hash"]


def test_reruns_are_byte_identical(tmp_path):
    cfg = write_config(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        res = run_cli(["simulate", "--config", str(cfg), "--out", str(out)])
        assert res.returncode == 0, res.stderr
    for name in ("trajectory_stats.csv", "simulate_summary.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_seed_override_changes_data_and_manifest(tmp_path):
    cfg = write_config(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    run_cli(["simulate", "--config", str(cfg), "--out", str(out_a)])
    res = run_cli(["simulate", "--config", str(cfg), "--out", str(out_b),
                   "--seed", "99"])
    assert res.returncode == 0, res.stderr
    manifest = json.loads((out_b / "manifest.json").read_text())
    assert manifest["seed"] == 99
    assert ((out_a / "trajectory_stats.csv").read_bytes()
            != (out_b / "trajectory_stats.csv").read_bytes())


def test_json_format(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    res = run_cli(["simulate", "--config", str(cfg), "--out", str(out),
                   "--format", "json"])
    assert res.returncode == 0, res.stderr
    table = json.loads((out / "trajectory_stats.json").read_text())
    assert "time_s" in table
    assert "config_hash" in table
    assert not (out / "trajectory_stats.csv").exists()


@pytest.mark.parametrize("shape", [(500, 5001), (50, 2501), (70, 301),
                                   (20000, 2), (20000, 1)])
def test_sample_variance_is_numpy_variance_bit_for_bit(shape):
    # simulate's variance of a whole path, and the reducer, which sees
    # time-major chunks as a run hands them over: sample 0 alone, then
    # chunks of 1 to 524 rows.  numpy sums the (n, 1) column of a
    # one-sample path pairwise, and a longer path row by row
    from levitherm import cli, langevin
    n_traj, n_samples = shape
    rng = np.random.default_rng(4)
    q = rng.normal(3e-9, 1e-8, shape)
    assert cli._sample_variance(q).tobytes() == q.var(axis=0).tobytes()
    p = rng.normal(0.0, 1e-20, shape)
    force = langevin.ForceModel(mass=5e-18, omega0=1.3e5, duffing_xi=2e11)
    moments = analysis.SampleMoments(force, n_traj, n_samples)
    i0, sizes = 0, [1, 1, 3, 1, 524, 2]
    while i0 < n_samples:
        rows = min(sizes[0], n_samples - i0)
        sizes = sizes[1:] + sizes[:1]
        moments(i0, np.ascontiguousarray(q.T[i0:i0 + rows]),
                np.ascontiguousarray(p.T[i0:i0 + rows]))
        i0 += rows
    energy = langevin.mechanical_energy(force, q, p,
                                        np.full(n_samples, force.omega0))
    assert moments.q_mean.tobytes() == q.mean(axis=0).tobytes()
    assert moments.q_var.tobytes() == q.var(axis=0).tobytes()
    assert moments.energy.tobytes() == energy.mean(axis=0).tobytes()


@pytest.mark.parametrize("overrides", [{}, {"record_every": 3},
                                       {"duration_ms": 0.0004,
                                        "record_every": 2}])
def test_simulate_variances_are_numpy_variances(tmp_path, monkeypatch,
                                                overrides):
    # both variances are formed without a copy of the path, the global
    # one in place; the JSON tables carry every bit
    from levitherm import cli, langevin
    run, paths = langevin.simulate, []

    def spy(*args, **kw):
        traj = run(*args, **kw)
        paths.append(traj.q.copy())
        return traj

    monkeypatch.setattr(langevin, "simulate", spy)
    cfg = write_config(tmp_path, {"simulation": overrides})
    out = tmp_path / "out"
    cli.main.main(["simulate", "--config", str(cfg), "--out", str(out),
                   "--format", "json"], standalone_mode=False)
    (q,) = paths
    table = json.loads((out / "trajectory_stats.json").read_text())
    summary = json.loads((out / "simulate_summary.json").read_text())
    assert table["q_var_m2"] == q.var(axis=0).tolist()
    assert summary["q_var_m2"] == float(q.var())


def test_modulate_keeps_no_paths(tmp_path):
    # at 500 x 5001 samples one q path is 20 MB; the whole subcommand,
    # traced, holds half of one
    import tracemalloc
    from levitherm import cli
    cfg = write_config(tmp_path, {
        "modulation": {"depths": [0.01]},
        "simulation": {"duration_ms": 2.0, "n_traj": 500}})
    # an untraced run first imports what the subcommand calls
    cli.main.main(["modulate", "--config", str(write_config(
        tmp_path, {"simulation": {"duration_ms": 0.02}}, "warm.yaml")),
        "--out", str(tmp_path / "warm")], standalone_mode=False)
    tracemalloc.start()
    try:
        cli.main.main(["modulate", "--config", str(cfg), "--out",
                       str(tmp_path / "run")], standalone_mode=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6


def test_runtime_failure_leaves_incomplete_manifest(tmp_path):
    # far too few trajectories for the logistic fit: fewer than 20
    # samples of each sign
    cfg = write_config(tmp_path, {"simulation": {"n_traj": 8}})
    out = tmp_path / "out"
    res = run_cli(["fluctuation", "--config", str(cfg), "--out", str(out)])
    assert res.returncode == 1
    err = json.loads(res.stderr)["error"]
    assert err["type"] != "ValidationError"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["complete"] is False


def test_env_sweep_table(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    res = run_cli(["env-sweep", "--config", str(cfg), "--out", str(out)])
    assert res.returncode == 0, res.stderr
    lines = (out / "env_sweep.csv").read_text().splitlines()
    rows = list(csv.DictReader(lines[1:]))
    assert len(rows) == 12
    assert float(rows[0]["pressure_mbar"]) == pytest.approx(1e-8)
    # damping grows with pressure across the sweep
    assert (float(rows[-1]["gamma_cm_rad_s"])
            > float(rows[0]["gamma_cm_rad_s"]))
    # the high-pressure end leaves the Knudsen regime: the warning goes to
    # stderr and into the manifest, not into the data file
    message = "gas cooling formula used outside the Knudsen regime"
    manifest = json.loads((out / "manifest.json").read_text())
    assert {"category": "UserWarning", "message": message} in \
        manifest["warnings"]
    assert message in res.stderr
    assert message not in (out / "env_sweep.csv").read_text()


@pytest.mark.parametrize("overrides, warns", [
    # BASE_CONFIG: 1000-sample segments at 400 ns give bins of 15.7 krad/s,
    # and the fit returns a gamma near 45 rad/s
    ({}, True),
    # calibrate's psd step: 31.4 krad/s against bins of 7.9 krad/s
    ({"oscillator": {"damping_Hz": 5000},
      "simulation": {"duration_ms": 2.0, "n_traj": 500}}, False),
])
def test_psd_fit_narrower_than_a_bin_warns(tmp_path, overrides, warns):
    cfg = write_config(tmp_path, overrides)
    out = tmp_path / "out"
    res = run_cli(["psd", "--config", str(cfg), "--out", str(out)])
    assert res.returncode == 0, res.stderr
    manifest = json.loads((out / "manifest.json").read_text())
    flagged = [w for w in manifest["warnings"]
               if w["category"] == "UserWarning"
               and "below one Welch bin" in w["message"]]
    assert len(flagged) == int(warns), manifest["warnings"]
    fit = json.loads((out / "psd_fit.json").read_text())
    bin_width = 2.0 * math.pi / (
        analysis.welch_segment(5001 if overrides else 2501, 4) * 400e-9)
    assert (fit["gamma_rad_s"] < bin_width) == warns


def test_engine_summary(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    res = run_cli(["engine", "--config", str(cfg), "--out", str(out)])
    assert res.returncode == 0, res.stderr
    summary = json.loads((out / "engine_cycle.json").read_text())
    assert 0.0 < summary["efficiency"] <= summary["eta_carnot"]
