"""Batch command line front end.

Reads a YAML experiment configuration (keys carry explicit units in
their names, e.g. ``pressure_mbar``), runs one experiment per process
invocation, and writes plot-ready CSV/JSON plus a ``manifest.json``
recording the config hash, seed, tool version, wall time, a checksum
for every emitted file and the warnings the run raised (which are also
printed to stderr).  ``KEYS`` is the single list of config keys with
their units, bounds and defaults.  The whole config is checked against
it before any work starts: a validation failure exits 2 and lists every
violation.  On a runtime failure a machine-readable error JSON is
printed to stderr and the exit code is 1.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import sys
import time
import warnings
import zlib
from contextlib import contextmanager
from types import SimpleNamespace
from typing import NamedTuple

import click
import numpy as np
import yaml

from . import __version__, analysis, environment, kramers, langevin, thermo
from .constants import k_B
from .langevin import BathModel, ForceModel
from .particles import silica_sphere

TWO_PI = 2.0 * math.pi
# libyaml's parser where PyYAML was built with it: about 7 times faster
YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


class ValidationError(ValueError):
    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


# ---------------------------------------------------------------------------
# configuration schema

REQUIRED = object()


class Key(NamedTuple):
    """One config key, as a subcommand body reads it.

    `name` is the attribute holding the SI value; `kind` is float, int,
    list (of floats, each bounded and scaled) or a tuple of allowed
    values; config values within [lo, hi] are multiplied by `scale`.
    """

    name: str
    kind: object
    lo: float = -math.inf
    hi: float = math.inf
    scale: float = 1.0
    default: object = REQUIRED


KEYS = {
    "particle.radius_nm": Key("radius", float, 1.0, 1e4, 1e-9),
    "particle.density_kg_m3": Key("density", float, 1.0, 3e4, 1.0, 2198.0),
    # env-sweep replaces the pressure of the gas at every sweep point
    "gas.pressure_mbar": Key("pressure", float, 1e-12, 1e4, 100.0, 1e-2),
    "gas.temperature_K": Key("temperature", float, 1e-3, 1e4, 1.0, 300.0),
    "gas.accommodation": Key("accommodation", float, 0.0, 1.0, 1.0, 0.65),
    "trap.power_mW": Key("power", float, 0.0, 1e5, 1e-3),
    "trap.waist_x_um": Key("waist", float, 0.05, 100.0, 1e-6),
    "trap.wavelength_nm": Key("wavelength", float, 100.0, 1e5, 1e-9),
    "sweep.p_min_mbar": Key("p_min", float, 1e-12, 1e4, 100.0, 1e-9),
    "sweep.p_max_mbar": Key("p_max", float, 1e-12, 1e4, 100.0, 1e3),
    "sweep.n_points": Key("n_points", int, 2, 100_000, default=60),
    "oscillator.mass_fg": Key("mass", float, 1e-6, 1e9, 1e-18),
    # linear kHz -> rad/s
    "oscillator.frequency_kHz": Key("omega0", float, 1e-3, 1e6, TWO_PI * 1e3),
    # gamma / 2 pi -> rad/s
    "oscillator.damping_Hz": Key("gamma", float, 0.0, 1e9, TWO_PI),
    "oscillator.temperature_K": Key("temperature", float, 1e-3, 1e4, 1.0,
                                    300.0),
    # 1/um^2 -> 1/m^2
    "oscillator.duffing_um2": Key("duffing_xi", float, -1e12, 1e12, 1e12, 0.0),
    "simulation.dt_ns": Key("dt", float, 1e-3, 1e9, 1e-9),
    "simulation.duration_ms": Key("duration", float, 1e-9, 1e6, 1e-3),
    "simulation.n_traj": Key("n_traj", int, 1, 10_000_000),
    "simulation.record_every": Key("record_every", int, 1, 1_000_000,
                                   default=1),
    "simulation.seed": Key("seed", int, 0, 2**63 - 1, default=0),
    "psd.n_segments": Key("n_segments", int, 1, 100_000, default=8),
    "modulation.phase_rad": Key("phase", float, -10.0, 10.0, 1.0, math.pi / 4),
    "modulation.depths": Key("depths", list, 0.0, 1.0, 1.0,
                             [0.002, 0.005, 0.01]),
    "relax.ratio": Key("ratio", float, 1e-6, 1e6, 1.0, 0.1),
    "fluctuation.feedback_gain_um2": Key("eta", float, 0.0, 1e12, 1e12, 0.0),
    "fluctuation.depth": Key("eps0", float, 0.0, 1.0, 1.0, 0.0),
    "fluctuation.phase_rad": Key("phase", float, -10.0, 10.0, 1.0,
                                 -math.pi / 4),
    "squeeze.ratio": Key("ratio", float, 1e-6, 1e6, 1.0, 2.0),
    "squeeze.time_ms": Key("t_start", float, 0.0, 1e6, 1e-3, 0.0),
    "well.mass_fg": Key("mass", float, 1e-6, 1e9, 1e-18),
    "well.temperature_K": Key("temperature", float, 1e-3, 1e4, 1.0, 300.0),
    "well.barrier_kT": Key("barrier_kt", float, 0.1, 100.0),
    "well.separation_nm": Key("separation", float, 1.0, 1e5, 1e-9),
    "kramers.n_points": Key("n_points", int, 2, 100_000, default=40),
    # Monte Carlo dampings (gamma / 2 pi); empty runs the theory alone
    "kramers.mc_damping_Hz": Key("mc_gammas", list, 1e-3, 1e9, TWO_PI, []),
    "engine.mass_fg": Key("mass", float, 1e-6, 1e9, 1e-18),
    "engine.damping_Hz": Key("gamma", float, 0.0, 1e9, TWO_PI),
    "engine.t_hot_K": Key("t_hot", float, 1e-3, 1e4),
    "engine.t_cold_K": Key("t_cold", float, 1e-3, 1e4),
    # fN/um -> N/m
    "engine.k_max_stiffness_fN_um": Key("k_max", float, 1e-9, 1e9, 1e-9),
    "engine.k_min_stiffness_fN_um": Key("k_min", float, 1e-9, 1e9, 1e-9),
    "engine.tau_hot_ms": Key("tau_hot", float, 1e-9, 1e6, 1e-3),
    "engine.tau_cold_ms": Key("tau_cold", float, 1e-9, 1e6, 1e-3),
    "engine.regime": Key("regime", ("overdamped", "underdamped"),
                         default="overdamped"),
}

SECTIONS = {key.split(".")[0] for key in KEYS}

# (larger, smaller) pairs, checked whenever a subcommand reads both
ORDERED = (("sweep.p_max_mbar", "sweep.p_min_mbar"),
           ("engine.k_max_stiffness_fN_um", "engine.k_min_stiffness_fN_um"),
           ("engine.t_hot_K", "engine.t_cold_K"))


def _section(name: str) -> tuple:
    return tuple(k for k in KEYS if k.startswith(name + "."))


OSCILLATOR = ("oscillator.mass_fg", "oscillator.frequency_kHz",
              "oscillator.damping_Hz", "oscillator.temperature_K")
RUN = ("simulation.dt_ns", "simulation.duration_ms", "simulation.n_traj")
RECORDED = RUN + ("simulation.record_every",)


def _number(kind, spec: Key, value):
    if isinstance(value, bool):
        raise ValueError("is not numeric")
    try:
        x = float(value)
    except (TypeError, ValueError):
        raise ValueError("is not numeric") from None
    if kind is int:
        if not x.is_integer():
            raise ValueError("is not an integer")
        x = value if isinstance(value, int) else int(x)
    if not spec.lo <= x <= spec.hi:
        raise ValueError(f"outside allowed range [{spec.lo:g}, {spec.hi:g}]")
    return x if kind is int else x * spec.scale


def _si(spec: Key, value):
    """SI value of one config value; ValueError says what is wrong."""
    if isinstance(spec.kind, tuple):
        if value not in spec.kind:
            raise ValueError(f"must be one of {', '.join(spec.kind)}")
        return value
    if spec.kind is list:
        if not isinstance(value, list):
            raise ValueError("must be a list")
        return [_number(float, spec, item) for item in value]
    return _number(spec.kind, spec, value)


def _memory_preflight(need: dict) -> list:
    """A violation if the bytes `need`, by name, exceed physical RAM."""
    total = sum(need.values())
    ram = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if total <= ram:
        return []
    parts = ", ".join(f"{name} {size:.3g}" for name, size in need.items()
                      if size)
    return [f"simulation.n_traj: {parts} need {total:.3g} bytes at once, "
            f"more than the {ram:.3g} bytes of physical memory"]


def _samples(c) -> int:
    return langevin.step_count(c.duration, c.dt) // c.record_every + 1


def _psd_segmentation(c) -> list:
    """Violations of a psd.n_segments whose segments are longer than the
    run, or leave fewer bins than the 3 parameters of the Lorentzian fit."""
    samples = _samples(c)
    segment = analysis.welch_segment(samples, c.n_segments)
    if segment > samples:
        return [f"psd.n_segments = {c.n_segments}: a segment needs "
                f"{segment} samples, more than the {samples} the run records"]
    bins = analysis.fit_bins(segment)
    if bins < 3:
        return [f"psd.n_segments = {c.n_segments}: {segment}-sample segments "
                f"leave {bins} positive bins up to a quarter of the Nyquist "
                "rate, fewer than the 3 parameters of the Lorentzian fit"]
    return []


def validate(raw: dict, keys, extra=lambda values: (),
             run=lambda c: langevin.simulate_bytes(c.dt, c.duration, c.n_traj)
             ) -> SimpleNamespace:
    """Check `raw` against KEYS; return the SI values a subcommand reads.

    `keys` (plus simulation.seed) are read always, and `extra(values)`
    names the keys read only for some values of those.  Unknown keys,
    type, bound, missing-key and cross-key violations are collected into
    one ValidationError; once there are none, so is a run too large for
    physical RAM: `run(result)` counts, by name, the bytes its ensemble
    run holds at once (None: no run).  The result holds each value under
    its Key.name.
    """
    violations = []
    for section, entries in raw.items():
        if section not in SECTIONS:
            violations.append(f"unknown section '{section}'")
        elif not isinstance(entries, dict):
            violations.append(f"section '{section}' must be a mapping")
        else:
            violations += [f"unknown key {section}.{key}" for key in entries
                           if f"{section}.{key}" not in KEYS]
    values = {}

    def read(key):
        spec = KEYS[key]
        section, name = key.split(".")
        entries = raw.get(section, {})
        if not isinstance(entries, dict):
            return
        if name not in entries and spec.default is REQUIRED:
            violations.append(f"missing required key {key}")
            return
        value = entries.get(name, spec.default)
        try:
            values[key] = _si(spec, value)
        except ValueError as exc:
            violations.append(f"{key} = {value!r} {exc}")

    for key in ("simulation.seed", *keys):
        read(key)
    for key in extra(values):
        read(key)
    for big, small in ORDERED:
        if (big in values and small in values
                and not values[big] > values[small]):
            violations.append(f"{big} must exceed {small}")
    c = SimpleNamespace(**{KEYS[k].name: v for k, v in values.items()})
    if all(k in values for k in RECORDED + ("psd.n_segments",)):
        violations += _psd_segmentation(c)
    if not violations and run is not None:
        violations = _memory_preflight(run(c))
    if violations:
        raise ValidationError(violations)
    return c


def _load_config(path: str, seed) -> dict:
    with open(path) as f:
        raw = yaml.load(f, Loader=YAML_LOADER)
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ValidationError(["top-level config must be a mapping"])
    if seed is not None:
        sim = raw.setdefault("simulation", {})
        if isinstance(sim, dict):
            sim["seed"] = seed
    return raw


def config_hash(config: dict) -> str:
    """Stable hash of a JSON-serializable configuration record."""
    blob = json.dumps(config, sort_keys=True, default=str).encode()
    return f"{zlib.crc32(blob):08x}"


# ---------------------------------------------------------------------------
# output plumbing

# bytes of an emitted file that `Emitter` reads at once to hash it
HASH_BLOCK = 2**16


class Emitter:
    """Writes data files and the run manifest for one invocation."""

    def __init__(self, out_dir: str, fmt: str, cfg_hash: str, seed: int):
        self.out_dir = out_dir
        self.fmt = fmt
        self.cfg_hash = cfg_hash
        self.seed = seed
        self.t0 = time.time()
        self.outputs = []
        os.makedirs(out_dir, exist_ok=True)

    def _register(self, path: str):
        digest = hashlib.sha256()
        with open(path, "rb") as f:
            for block in iter(lambda: f.read(HASH_BLOCK), b""):
                digest.update(block)
        self.outputs.append({"path": os.path.basename(path),
                             "sha256": digest.hexdigest()})

    def table(self, name: str, columns: dict):
        """Emit a column table as CSV or JSON depending on --format."""
        if self.fmt == "json":
            return self.summary(name, {k: np.asarray(col).tolist()
                                       for k, col in columns.items()})
        keys = list(columns)
        n = len(next(iter(columns.values())))
        path = os.path.join(self.out_dir, f"{name}.csv")
        with open(path, "w", newline="") as f:
            f.write(f"# config_hash={self.cfg_hash}\n")
            writer = csv.writer(f)
            writer.writerow(keys)
            for i in range(n):
                writer.writerow([self._fmt(columns[k][i]) for k in keys])
        self._register(path)
        return path

    def summary(self, name: str, payload: dict):
        path = os.path.join(self.out_dir, f"{name}.json")
        payload = dict(payload)
        payload["config_hash"] = self.cfg_hash
        with open(path, "w") as f:
            json.dump(payload, f, indent=1, sort_keys=True, default=self._num)
            f.write("\n")
        self._register(path)
        return path

    @staticmethod
    def _fmt(value):
        if isinstance(value, str):
            return value
        if isinstance(value, (int, np.integer)):
            return str(int(value))
        return format(float(value), ".12g")

    @staticmethod
    def _num(value):
        if isinstance(value, (np.integer,)):
            return int(value)
        if isinstance(value, (np.floating,)):
            return float(value)
        if isinstance(value, np.ndarray):
            return value.tolist()
        return value

    def finish(self, complete: bool = True, warned=()):
        """Write manifest.json; `warned` holds the run's warning records."""
        manifest = {
            "tool_version": __version__,
            "config_hash": self.cfg_hash,
            "seed": self.seed,
            "wall_time_s": round(time.time() - self.t0, 3),
            "complete": complete,
            "outputs": self.outputs,
            "warnings": [{"category": w.category.__name__,
                          "message": str(w.message)} for w in warned],
        }
        path = os.path.join(self.out_dir, "manifest.json")
        with open(path, "w") as f:
            json.dump(manifest, f, indent=1, sort_keys=True)
            f.write("\n")


@contextmanager
def _recording_warnings():
    """Collect the warnings raised in the block; print them on exit."""
    caught = []
    try:
        with warnings.catch_warnings(record=True) as caught:
            yield caught
    finally:
        for w in caught:
            warnings.showwarning(w.message, w.category, w.filename, w.lineno)


def _fail(exc: Exception, code: int):
    if isinstance(exc, ValidationError):
        err = {"type": "ValidationError", "message": str(exc),
               "violations": exc.violations}
    else:
        err = {"type": type(exc).__name__, "message": str(exc)}
    print(json.dumps({"error": err}, sort_keys=True), file=sys.stderr)
    sys.exit(code)


# ---------------------------------------------------------------------------
# subcommands


@click.group()
@click.version_option(__version__)
def main():
    """Levitated-particle stochastic dynamics toolkit."""


OPTIONS = (
    click.option("--config", required=True,
                 type=click.Path(exists=True, dir_okay=False),
                 help="YAML experiment configuration."),
    click.option("--seed", type=int, default=None,
                 help="Override simulation.seed from the config."),
    click.option("--out", type=click.Path(file_okay=False), default=".",
                 help="Output directory."),
    click.option("--format", "fmt", type=click.Choice(["csv", "json"]),
                 default="csv", help="Data file format."),
)


def subcommand(name: str, keys, extra=lambda values: (), run=None):
    """Register `body(c, em)` as subcommand `name`; see `validate`.

    The config is loaded and validated before `body` runs, so `c` holds
    plain SI values and `em` is the Emitter of the output directory.
    """
    def register(body):
        def command(config, seed, out, fmt):
            try:
                raw = _load_config(config, seed)
                c = validate(raw, keys, extra, run)
            except (OSError, ValueError, yaml.YAMLError) as exc:
                _fail(exc, 2)
            em, caught = None, []
            try:
                with _recording_warnings() as caught:
                    em = Emitter(out, fmt, config_hash(raw), c.seed)
                    body(c, em)
                em.finish(complete=True, warned=caught)
            except Exception as exc:
                if em is not None:
                    em.finish(complete=False, warned=caught)
                _fail(exc, 1)
        command.__doc__ = body.__doc__
        for option in reversed(OPTIONS):
            command = option(command)
        return main.command(name)(command)
    return register


@subcommand("env-sweep", _section("particle") + _section("gas")
            + _section("trap") + _section("sweep"))
def env_sweep(c, em):
    """Pressure sweep of damping, internal and center-of-mass temperature."""
    particle = silica_sphere(c.radius, density=c.density)
    gas = environment.nitrogen(c.pressure, temperature=c.temperature,
                               accommodation=c.accommodation)
    intensity = 2.0 * c.power / (math.pi * c.waist**2)
    pressures_mbar = np.geomspace(c.p_min / 100.0, c.p_max / 100.0,
                                  c.n_points)
    data = environment.pressure_sweep(particle, gas, intensity, c.wavelength,
                                      pressures_mbar=pressures_mbar)
    em.table("env_sweep", data)


def _sample_variance(q: np.ndarray) -> np.ndarray:
    """q.var(axis=0) bit for bit without a copy of q: squared deviations of
    row blocks of about 2**14 samples, added row by row in trajectory order
    as numpy's axis-0 sum adds them (it sums a one-sample column pairwise)."""
    if q.shape[1] == 1:
        return q.var(axis=0)
    mean, total = q.mean(axis=0), np.zeros(q.shape[1])
    rows = max(1, 2**14 // q.shape[1])
    for r in range(0, q.shape[0], rows):
        dev = q[r:r + rows] - mean
        dev *= dev
        dev[0] += total
        np.sum(dev, axis=0, out=total)
    return total / q.shape[0]


# after the run, 4 float64 per sample and a row block of about 2**14 samples
@subcommand("simulate", OSCILLATOR + ("oscillator.duffing_um2",) + RECORDED,
            run=lambda c: {**langevin.simulate_bytes(
                c.dt, c.duration, c.n_traj, c.record_every, recorded=True),
                "sample moments": 32 * _samples(c)
                + 8 * max(2**14, _samples(c))})
def simulate_cmd(c, em):
    """Harmonic (optionally Duffing) Langevin ensemble; summary statistics."""
    force = ForceModel(mass=c.mass, omega0=c.omega0, duffing_xi=c.duffing_xi)
    bath = BathModel(gamma=c.gamma, temperature=c.temperature)
    traj = langevin.simulate(force, bath, "thermal", c.dt, c.duration, c.seed,
                             n_traj=c.n_traj, record_every=c.record_every)
    em.table("trajectory_stats", {
        "time_s": traj.time,
        "q_mean_m": traj.q.mean(axis=0),
        "q_var_m2": _sample_variance(traj.q),
        "energy_mean_J": traj.energy.mean(axis=0),
    })
    # q.var(), formed in place on the path, which is read no more
    q = traj.q
    q -= q.mean()
    q *= q
    em.summary("simulate_summary", {
        "n_traj": int(traj.n_traj),
        "q_var_m2": float(q.sum() / q.size),
        "q_var_expected_m2": k_B * c.temperature / (c.mass * c.omega0**2),
        "mean_energy_J": float(traj.energy.mean()),
        "equipartition_J": k_B * c.temperature,
    })


@subcommand("psd", OSCILLATOR + RECORDED + _section("psd"),
            run=lambda c: {**langevin.simulate_bytes(
                c.dt, c.duration, c.n_traj, c.record_every),
                **analysis.welch_stream_bytes(c.n_traj, _samples(c),
                                              c.n_segments)})
def psd_cmd(c, em):
    """Welch spectrum of a simulated ensemble plus a Lorentzian fit."""
    force = ForceModel(mass=c.mass, omega0=c.omega0)
    bath = BathModel(gamma=c.gamma, temperature=c.temperature)
    # the spectrum is reduced chunk by chunk; the run keeps no path
    stream = analysis.WelchStream(c.n_traj, _samples(c), c.record_every
                                  * c.dt, n_segments=c.n_segments)
    langevin.simulate(force, bath, "thermal", c.dt, c.duration, c.seed,
                      n_traj=c.n_traj, record_every=c.record_every,
                      observe=lambda i0, q, p: stream(i0, q))
    spectrum = stream.spectrum()
    em.table("psd", {
        "omega_rad_s": spectrum.omega,
        "psd_m2_s": spectrum.values,
        "psd_model_m2_s": analysis.psd_analytic(
            spectrum.omega, c.omega0, c.gamma, c.temperature, c.mass),
    })
    fit = analysis.lorentzian_fit(spectrum, c.mass)
    em.summary("psd_fit", {
        "omega0_rad_s": fit.omega0,
        "gamma_rad_s": fit.gamma,
        "temperature_K": fit.t_cm,
        "omega0_input_rad_s": c.omega0,
        "gamma_input_rad_s": c.gamma,
        "temperature_input_K": c.temperature,
    })


@subcommand("modulate", OSCILLATOR + RECORDED + _section("modulation"),
            run=lambda c: langevin.simulate_bytes(
                c.dt, c.duration, c.n_traj, c.record_every, recorded=True))
def modulate_cmd(c, em):
    """Effective temperature under phase-locked parametric modulation."""
    rows = {"depth": [], "t_measured_K": [], "t_predicted_K": []}
    bath = BathModel(gamma=c.gamma, temperature=c.temperature)
    for i, depth in enumerate(c.depths):
        force = ForceModel(mass=c.mass, omega0=c.omega0,
                           modulation=langevin.Modulation(
                               depth, phase=c.phase, phase_locked=True))
        traj = langevin.simulate(
            force, bath, "thermal", c.dt, c.duration,
            langevin.derive_seed(c.seed, "modulate", i), n_traj=c.n_traj,
            record_every=c.record_every)
        tail = traj.energy[:, traj.energy.shape[1] // 2:]
        t_pred, _ = analysis.effective_temperature_modulated(
            depth, c.phase, c.omega0, c.omega0, c.gamma, c.temperature)
        rows["depth"].append(depth)
        rows["t_measured_K"].append(float(tail.mean() / k_B))
        rows["t_predicted_K"].append(t_pred)
        del traj, tail    # the next depth's run starts with no paths
    em.table("modulate", rows)


# after the run, 4 float64 per sample: the table's columns and a temporary
@subcommand("relax", ("oscillator.damping_Hz", "oscillator.temperature_K")
            + RECORDED + _section("relax"),
            run=lambda c: {**langevin.simulate_energy_sde_bytes(
                c.dt, c.duration, c.n_traj, c.record_every),
                "sample means": 32 * _samples(c)})
def relax_cmd(c, em):
    """Energy relaxation from a fixed initial energy toward the bath."""
    e0 = c.ratio * k_B * c.temperature
    bath = BathModel(gamma=c.gamma, temperature=c.temperature)
    path = langevin.simulate_energy_sde(bath, e0, c.dt, c.duration, c.seed,
                                        n_traj=c.n_traj,
                                        record_every=c.record_every)
    em.table("relax", {
        "time_s": path.time,
        "t_measured_K": path.energy.mean(axis=0) / k_B,
        "t_predicted_K": analysis.relaxation_temperature(
            path.time, e0 / k_B, c.temperature, c.gamma),
    })


@subcommand("fluctuation", OSCILLATOR + ("simulation.duration_ms",
                                         "simulation.n_traj")
            + _section("fluctuation"),
            run=lambda c: thermo.transient_ft_bytes(c.n_traj))
def fluctuation_cmd(c, em):
    """Entropy-production fluctuation theorem for a relaxation step."""
    dist = analysis.steady_state_distribution(c.temperature, c.gamma,
                                              c.omega0, c.mass, eps0=c.eps0,
                                              phi=c.phase, eta=c.eta)
    report = thermo.transient_ft_check(dist, c.gamma, c.duration, c.seed,
                                       c.n_traj)
    if not report.applicable:
        em.summary("fluctuation_report", {"applicable": False,
                                          "note": report.note})
        return
    em.summary("fluctuation_report", {
        "applicable": True,
        "slope": report.fit.slope,
        "intercept": report.fit.intercept,
        "slope_stderr": report.fit.slope_stderr,
        "n_traj": c.n_traj,
    })


@subcommand("kramers", _section("well") + _section("kramers"),
            extra=lambda values: RUN if values.get("kramers.mc_damping_Hz")
            else (),
            run=lambda c: kramers.monte_carlo_bytes(
                c.dt, c.duration, c.n_traj, len(c.mc_gammas))
            if c.mc_gammas else {})
def kramers_cmd(c, em):
    """Interwell hopping rates: turnover theory and optional Monte Carlo."""
    q_m = c.separation / 2.0
    b = c.barrier_kt * k_B * c.temperature / q_m**4
    spec = kramers.DoubleWellSpec(b=b, q_m=q_m, mass=c.mass)
    omega_b = abs(spec.extrema[1].omega)
    gammas = np.geomspace(1e-3 * omega_b, 10.0 * omega_b, c.n_points)
    theory = [kramers.turnover_rate(spec, g, c.temperature).r_turnover
              for g in gammas]
    em.table("kramers_theory", {
        "gamma_rad_s": gammas,
        "rate_per_s": theory,
    })
    if not c.mc_gammas:
        return
    results = kramers.monte_carlo_rates(
        spec, c.mc_gammas, c.temperature, c.duration, c.dt,
        [langevin.derive_seed(c.seed, "kramers-mc", i)
         for i in range(len(c.mc_gammas))], n_traj=c.n_traj)
    rows = {"gamma_rad_s": c.mc_gammas,
            "rate_mc_per_s": [rate for rate, _ in results],
            "rate_theory_per_s": [
                kramers.turnover_rate(spec, g, c.temperature).r_turnover
                for g in c.mc_gammas],
            "hops": [hops for _, hops in results]}
    em.table("kramers_mc", rows)


@subcommand("engine", _section("engine"),
            extra=lambda values: ("simulation.dt_ns", "simulation.n_traj")
            if values.get("engine.regime") == "underdamped" else (),
            run=lambda c: thermo.underdamped_cycle_sde_bytes(
                c.tau_hot, c.tau_cold, c.dt, c.n_traj)
            if c.regime == "underdamped" else {})
def engine_cmd(c, em):
    """Cyclic two-bath heat engine; per-stroke CSV and a cycle summary."""
    spec = thermo.EngineCycleSpec(mass=c.mass, gamma=c.gamma, k_max=c.k_max,
                                  k_min=c.k_min, t_hot=c.t_hot,
                                  t_cold=c.t_cold, tau_hot=c.tau_hot,
                                  tau_cold=c.tau_cold)
    if c.regime == "overdamped":
        result = thermo.overdamped_cycle(spec)
        stderr = [0.0, 0.0]
    else:
        result = thermo.underdamped_cycle_sde(spec, c.dt, c.seed, c.n_traj)
        stderr = [result.detail["work_stderr"]] * 2
    em.table("engine_strokes", {
        "stroke": ["hot_expansion", "cold_compression"],
        "work_J": list(result.work_strokes),
        "heat_to_bath_J": list(result.heat_strokes),
        "work_stderr_J": stderr,
    })
    em.summary("engine_cycle", {
        "regime": c.regime,
        "work_output_J": result.work_output,
        "heat_in_J": result.heat_in,
        "efficiency": result.efficiency,
        "power_W": result.power,
        "eta_carnot": result.eta_carnot,
        "eta_curzon_ahlborn": result.eta_curzon_ahlborn,
    })


def _quench_pulse(omega0: float, ratio: float, t_start: float, dt: float):
    """Squeezed frequency, pulse length and the step the pulse ends on."""
    omega_s = omega0 / ratio
    tau = math.pi / (2.0 * omega_s)
    return omega_s, tau, langevin.step_count(t_start + tau, dt)


def _squeeze_run(c) -> dict:
    n_end = _quench_pulse(c.omega0, c.ratio, c.t_start, c.dt)[2]
    # `simulate` refuses a pulse that ends on step 0
    return langevin.simulate_bytes(c.dt, n_end * c.dt, c.n_traj, n_end or 1)


@subcommand("squeeze", OSCILLATOR + ("simulation.dt_ns", "simulation.n_traj")
            + _section("squeeze"), run=_squeeze_run)
def squeeze_cmd(c, em):
    """Quadrature statistics after a trap-frequency quench pulse."""
    # run to the step the pulse ends on and keep the state there
    omega_s, tau, n_end = _quench_pulse(c.omega0, c.ratio, c.t_start, c.dt)
    force = ForceModel(mass=c.mass, omega0=c.omega0, stiffness_schedule=(
        (c.t_start, omega_s), (n_end * c.dt, c.omega0)))
    bath = BathModel(gamma=c.gamma, temperature=c.temperature)
    q, p = langevin.simulate(force, bath, "thermal", c.dt, n_end * c.dt,
                             c.seed, n_traj=c.n_traj, record_every=n_end,
                             observe=lambda i0, q, p: None)
    res = analysis.squeeze_quadratures(q, p, c.omega0, omega_s, tau,
                                       c.temperature, c.mass)
    em.summary("squeeze", {
        "var_q_ratio": res.var_q_ratio,
        "var_p_ratio": res.var_p_ratio,
        "covariance_qp": res.covariance_qp,
        "predicted_q_ratio": res.predicted_q_ratio,
        "predicted_p_ratio": res.predicted_p_ratio,
        "squeezing_parameter": res.r,
    })


if __name__ == "__main__":
    main()
