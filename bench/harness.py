"""Closed-loop runner for the levitherm benchmark.

One client runs the subcommands of a workload in order, in-process,
through `levitherm.cli.main`; the next subcommand starts only after the
previous one returns.  One pass over the subcommands is one sample of
`wall_s`.  Outputs are checked after each pass, outside the timed
interval, and the digests of every pass must equal those of the first,
since every pass uses the same seed.
"""

from __future__ import annotations

import copy
import csv
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import yaml

from tracing import COUNT_NAMES, TRACED_MODULES, Tracer

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE / "workloads.json").read_text())

SETUP_SAMPLES = 5
MIN_PASSES = 3          # timed passes of a timing run, after the warm-up
MIN_TRACE_PAIRS = 2     # untraced + traced pass pairs of a traced run

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

SUBCOMMANDS = ("env-sweep", "psd", "squeeze", "fluctuation", "engine",
               "kramers")
PER_LAYER = {
    "langevin.simulate.s": "s",
    "langevin.simulate_energy_sde.s": "s",
    "langevin.trajectory_streams.s": "s",
    "langevin.count_well_hops.s": "s",
    "langevin.traj_steps": "count",
    "langevin.streams": "count",
    "langevin.bytes_recorded": "bytes",
    "langevin.ns_per_traj_step": "ns",
    "analysis.psd.s": "s",
    "analysis.psd.fft_len": "count",
    "analysis.lorentzian_fit.s": "s",
    "thermo.transient_ft_check.s": "s",
    "thermo.relaxation_entropy_samples.s": "s",
    "thermo.underdamped_cycle_sde.s": "s",
    "thermo.work_heat.s": "s",
    "thermo.ft_slope.s": "s",
    "kramers.turnover_rate.s": "s",
    "kramers.turnover_rate.calls": "count",
    "kramers.monte_carlo_rate.s": "s",
    "kramers.hop_statistics.s": "s",
    "kramers.hops": "count",
    "environment.pressure_sweep.s": "s",
    **{f"{layer}.self_s": "s" for layer in TRACED_MODULES},
    **{f"cli.{sub}.s": "s" for sub in SUBCOMMANDS},
    "cli.self_s": "s",
    "cli.bytes_emitted": "bytes",
    "trace.overhead_s": "s",
}
# per-layer counts that must repeat exactly across traced passes
COUNTED = COUNT_NAMES + ("cli.bytes_emitted",)


# ---------------------------------------------------------------------------
# configs


def step_config(step: dict) -> dict:
    """Base config with the step's overrides applied section by section."""
    cfg = copy.deepcopy(SPEC["base_config"])
    for section, keys in step["overrides"].items():
        cfg.setdefault(section, {}).update(copy.deepcopy(keys))
    return cfg


# ---------------------------------------------------------------------------
# output checks (acceptance-suite tolerances)


def _read_csv(path: Path) -> list[dict]:
    lines = path.read_text().splitlines()
    return list(csv.DictReader(lines[1:]))      # line 0 is the config hash


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text())


def _rel(a: float, b: float) -> float:
    return abs(a / b - 1.0)


def check_env_sweep(out: Path, cfg: dict) -> list[str]:
    rows = _read_csv(out / "env_sweep.csv")
    problems = []
    if len(rows) != cfg["sweep"]["n_points"]:
        problems.append(f"env-sweep: {len(rows)} rows")
    if not (float(rows[-1]["gamma_cm_rad_s"])
            > float(rows[0]["gamma_cm_rad_s"])):
        problems.append("env-sweep: damping does not grow with pressure")
    return problems


def check_psd(out: Path, cfg: dict) -> list[str]:
    fit = _read_json(out / "psd_fit.json")
    return [f"psd: fitted {key} off by {_rel(fit[key], fit[ref]):.3f}"
            for key, ref in (("omega0_rad_s", "omega0_input_rad_s"),
                             ("gamma_rad_s", "gamma_input_rad_s"),
                             ("temperature_K", "temperature_input_K"))
            if not _rel(fit[key], fit[ref]) <= 0.05]


def check_squeeze(out: Path, cfg: dict) -> list[str]:
    res = _read_json(out / "squeeze.json")
    dev = _rel(res["var_q_ratio"], res["predicted_q_ratio"])
    return [] if dev <= 0.05 else [f"squeeze: var_q_ratio off by {dev:.3f}"]


def check_fluctuation(out: Path, cfg: dict) -> list[str]:
    rep = _read_json(out / "fluctuation_report.json")
    if not rep["applicable"]:
        return ["fluctuation: not applicable"]
    dev = abs(rep["slope"] - 1.0)
    return [] if dev < 0.1 else [f"fluctuation: slope {rep['slope']:.3f}"]


def check_engine(out: Path, cfg: dict) -> list[str]:
    res = _read_json(out / "engine_cycle.json")
    if 0.0 < res["efficiency"] <= res["eta_carnot"]:
        return []
    return [f"engine: efficiency {res['efficiency']} outside "
            f"(0, {res['eta_carnot']}]"]


def check_kramers(out: Path, cfg: dict) -> list[str]:
    problems = []
    if len(_read_csv(out / "kramers_theory.csv")) != cfg["kramers"]["n_points"]:
        problems.append("kramers: wrong number of theory points")
    if not cfg["kramers"].get("mc_damping_Hz"):
        return problems
    sim = cfg["simulation"]
    traj_time = sim["n_traj"] * sim["duration_ms"] * 1e-3
    for row in _read_csv(out / "kramers_mc.csv"):
        mc, theory = float(row["rate_mc_per_s"]), float(row["rate_theory_per_s"])
        if not _rel(mc, theory) <= 0.25:
            problems.append(f"kramers: MC rate off theory by "
                            f"{_rel(mc, theory):.3f} at gamma "
                            f"{row['gamma_rad_s']}")
        if theory * traj_time < 300:
            problems.append("kramers: fewer than 300 expected hops")
    return problems


def _no_check(out: Path, cfg: dict) -> list[str]:
    return []


CHECKS = {"env-sweep": check_env_sweep, "psd": check_psd,
          "squeeze": check_squeeze, "fluctuation": check_fluctuation,
          "engine": check_engine, "kramers": check_kramers}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_manifest(out: Path, seed: int) -> tuple[list[str], list]:
    """Problems with manifest.json, and its (path, sha256) list."""
    path = out / "manifest.json"
    if not path.exists():
        return ["no manifest.json"], []
    manifest = _read_json(path)
    problems = []
    if manifest.get("complete") is not True:
        problems.append("manifest not complete")
    if manifest.get("seed") != seed:
        problems.append(f"manifest seed {manifest.get('seed')}")
    digests = sorted((o["path"], o["sha256"]) for o in manifest["outputs"])
    for name, digest in digests:
        if _sha256(out / name) != digest:
            problems.append(f"{name}: sha256 differs from the manifest")
    return problems, digests


# ---------------------------------------------------------------------------
# running


def invoke(cli, args: list[str]) -> tuple[int, str]:
    """Run one CLI command in-process; return (exit code, captured stderr)."""
    err = io.StringIO()
    code = 0
    with redirect_stderr(err), redirect_stdout(err):
        try:
            cli.main.main(args=args, prog_name="levitherm",
                          standalone_mode=False)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else int(
                exc.code is not None)
        except Exception:       # report any crash as a failed subcommand
            traceback.print_exc(file=err)
            code = 1
    return code, err.getvalue()


class Run:
    """One benchmark run: a workload, a seed and a work directory."""

    def __init__(self, workload: dict, seed: int, work: Path):
        import levitherm.cli as cli
        self.cli = cli
        self.steps = workload["steps"]
        self.seed = seed
        self.work = work
        self.configs = []
        for i, step in enumerate(self.steps):
            cfg = step_config(step)
            path = work / f"config{i}-{step['subcommand']}.yaml"
            path.write_text(yaml.safe_dump(cfg))
            self.configs.append((cfg, path))
        self.reference = None       # digests of the first pass
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def one_pass(self, pass_id: int, tracer: Tracer | None = None) -> float:
        """Run every step once; return the wall time of the pass."""
        outs = [self.work / f"pass{pass_id}" / f"{i}-{step['subcommand']}"
                for i, step in enumerate(self.steps)]
        codes = []
        t0 = time.perf_counter()
        for step, (_, cfg_path), out in zip(self.steps, self.configs, outs):
            args = [step["subcommand"], "--config", str(cfg_path),
                    "--out", str(out), "--seed", str(self.seed)]
            if tracer is None:
                codes.append(invoke(self.cli, args))
            else:
                with tracer.span(f"cli.{step['subcommand']}"):
                    codes.append(invoke(self.cli, args))
        wall = time.perf_counter() - t0

        digests, emitted = [], 0
        for i, (step, (cfg, _), out, (code, err)) in enumerate(zip(
                self.steps, self.configs, outs, codes)):
            self.attempted += 1
            sub = step["subcommand"]
            if code != 0:
                problems = [f"{sub}: exit {code}: {err.strip()[-400:]}"]
                dig = None
            else:
                problems, dig = check_manifest(out, self.seed)
                if not problems:
                    try:
                        problems = CHECKS.get(sub, _no_check)(out, cfg)
                    except (OSError, KeyError, ValueError) as exc:
                        problems = [f"{sub}: unreadable output: {exc!r}"]
                    emitted += sum((out / name).stat().st_size
                                   for name, _ in dig)
            digests.append(dig)
            if self.reference is not None and dig != self.reference[i]:
                problems.append(f"{sub}: outputs differ from the first pass")
            if problems:
                self.failed += 1
                self.problems.extend(f"pass {pass_id}: {p}" for p in problems)
        if self.reference is None:
            self.reference = digests
        if tracer is not None:
            tracer.counts[-1]["cli.bytes_emitted"] = emitted
        shutil.rmtree(self.work / f"pass{pass_id}")
        return wall


def setup_sample(src: Path) -> float:
    """Seconds for a fresh interpreter to import levitherm.cli."""
    code = (f"import sys; sys.path.insert(0, {str(src)!r}); "
            "import levitherm.cli; print('ready', flush=True)")
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", code],
                            stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    proc.stdout.read()
    proc.stdout.close()
    if proc.wait() != 0 or line.strip() != "ready":
        raise RuntimeError("a fresh interpreter could not import "
                           "levitherm.cli")
    return elapsed


def _median(values):
    return statistics.median(values) if values else 0.0


def timing_run(run: Run, seconds: float, src: Path) -> dict:
    """Passes until `seconds` have elapsed, set-up samples spread among them.

    The first pass warms up (lazy imports, allocator growth) and is
    checked but not timed.  The machine's speed drifts over tens of
    seconds, so the set-up samples are taken between passes rather than
    in one burst.
    """
    setup, walls = [], []
    t_end = time.perf_counter() + seconds
    run.one_pass(0)
    while len(walls) < MIN_PASSES or time.perf_counter() < t_end:
        if len(setup) < SETUP_SAMPLES:
            setup.append(setup_sample(src))
        walls.append(run.one_pass(len(walls) + 1))
    while len(setup) < SETUP_SAMPLES:
        setup.append(setup_sample(src))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    log(f"wall_s samples ({len(walls)}): "
        + " ".join(f"{w:.3f}" for w in walls))
    log(f"setup_s samples ({len(setup)}): "
        + " ".join(f"{s:.3f}" for s in setup))
    return {"wall_s": _median(walls), "setup_s": _median(setup),
            "peak_rss_mb": peak_mb}


def trace_run(run: Run, seconds: float, trace_path: Path) -> dict:
    """Alternate untraced and traced passes; reduce the traced spans.

    `trace.overhead_s` is the median, over adjacent pairs, of a traced
    pass minus the untraced pass just before it, so that drift in the
    machine's speed over the run cancels within each pair.
    """
    tracer = Tracer()
    untraced, traced, per_pass = [], [], []
    t_end = time.perf_counter() + seconds
    pass_id = 0
    while len(traced) < MIN_TRACE_PAIRS or time.perf_counter() < t_end:
        untraced.append(run.one_pass(pass_id))
        pass_id += 1
        tracer.begin_pass(pass_id)
        with tracer:
            traced.append(run.one_pass(pass_id, tracer))
        per_pass.append(_layer_values(tracer, pass_id))
        pass_id += 1
    tracer.write(trace_path)
    log(f"spans: {len(tracer.spans)} written to {trace_path}")
    log("untraced / traced pass times: " + " ".join(
        f"{u:.3f}/{t:.3f}" for u, t in zip(untraced, traced)))

    first = per_pass[0]
    for n, values in enumerate(per_pass[1:], start=1):
        changed = [k for k in COUNTED if values[k] != first[k]]
        if changed:
            run.failed += 1
            run.problems.append(f"traced pass {n}: counts changed: "
                                + ", ".join(changed))
    metrics = {k: _median([v[k] for v in per_pass]) for k in first}
    metrics.update({k: first[k] for k in COUNTED})
    metrics["trace.overhead_s"] = _median([t - u for u, t
                                           in zip(untraced, traced)])
    return metrics


def _layer_values(tracer: Tracer, pass_id: int) -> dict:
    selfs = tracer.self_times(pass_id)
    counts = tracer.counts[-1]
    values = {name: 0.0 for name, unit in PER_LAYER.items() if unit == "s"}
    for name, t in selfs.items():
        key = f"{name}.s"
        if key in values:
            values[key] = t
        layer = name.split(".")[0]
        values[f"{layer}.self_s"] += t
    for name in COUNTED:
        values[name] = int(counts[name])
    kernel = (values["langevin.simulate.s"]
              + values["langevin.simulate_energy_sde.s"])
    steps = values["langevin.traj_steps"]
    values["langevin.ns_per_traj_step"] = 1e9 * kernel / steps if steps else 0.0
    del values["trace.overhead_s"]
    return values


def log(msg: str):
    print(msg, file=sys.stderr, flush=True)


def run_workload(workload: dict, seed: int, seconds: float, trace: bool,
                 work_root: Path, src: Path, name: str = "workload") -> dict:
    """Run one workload and return the result object the benchmark prints.

    Scratch outputs go under `work_root` and are removed at the end; the
    spans of a traced run are kept in `work_root/traces`.  `src` is the
    directory that holds the `levitherm` package.
    """
    work = work_root / f"{name}-seed{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        run = Run(workload, seed, work)
        if trace:
            traces = work_root / "traces"
            traces.mkdir(exist_ok=True)
            values = trace_run(run, seconds,
                               traces / f"{name}-seed{seed}.jsonl")
            units = PER_LAYER
        else:
            values = timing_run(run, seconds, src)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in run.problems:
        log(f"FAILED {problem}")
    failed = min(run.failed, run.attempted)
    return {"correct": failed == 0, "attempted": run.attempted,
            "failed": failed,
            "metrics": {k: {"value": values[k], "unit": u}
                        for k, u in units.items()}}
