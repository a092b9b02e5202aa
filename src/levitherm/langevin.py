"""Stochastic integrators for the trapped-particle equations of motion.

The central model is the 1D underdamped Langevin equation

    dq = (p/m) dt,
    dp = [-m W(t)^2 q - m W0^2 xi q^3 + eps(t) m W0^2 q + f(t)] dt
         - gamma p dt + sqrt(2 m gamma k_B T) dW,

where W(t) is the (possibly scheduled) trap frequency, xi the Duffing
coefficient and eps(t) a dimensionless stiffness modulation that may be
an open-loop drive eps0 cos(w_mod t), a phase-locked drive
eps0 cos(2 theta - 2 phi) with theta the instantaneous oscillation
phase, or the feedback term -(eta/W0) q qdot.

The integrator is a splitting scheme: half kick with the anharmonic and
control forces, exact half rotation of the harmonic part, exact full
Ornstein-Uhlenbeck step for damping and noise, then the mirror half
steps.  For a pure harmonic trap the rotation and OU substeps are both
exact, so the stationary state is sampled without discretization bias
and the undamped oscillator conserves energy to round-off.  With a
custom (for example double-well) potential the harmonic rotation is
replaced by free drift, which recovers the standard BAOAB scheme.

All state is integrated in dimensionless internal units (lengths in
sqrt(k_B T_ref / m) / W_ref, times in 1/W_ref) and converted back to SI
on output.  Ensembles use one counter-based random stream per
trajectory, derived deterministically from the master seed, so results
are bit-reproducible regardless of chunking.
"""

from __future__ import annotations

import json
import math
import zlib
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .constants import k_B

SCHEMA_VERSION = 1
# Steps integrated between noise-buffer refills; results do not depend
# on this value because each trajectory consumes its stream in order.
CHUNK_STEPS = 1024


class IntegratorBlowupError(RuntimeError):
    """Raised when the state leaves the representable range.

    Carries the index of the first bad step.  For an above-threshold
    parametric drive on a purely harmonic trap this is the expected
    physical signal of instability, not a numerical bug.
    """

    def __init__(self, step: int):
        super().__init__(f"non-finite state first detected at step {step}")
        self.step = step


@dataclass(frozen=True)
class BathModel:
    """White-noise bath: damping rate gamma (rad/s) and temperature (K)."""

    gamma: float
    temperature: float

    def __post_init__(self):
        if self.gamma < 0 or self.temperature < 0:
            raise ValueError("bath parameters must be non-negative")


@dataclass(frozen=True)
class Modulation:
    """Parametric stiffness modulation.

    Open loop (`phase_locked=False`): eps(t) = depth cos(frequency t + phase).
    Phase locked: eps = depth cos(2 theta - 2 phase) with theta the
    instantaneous oscillation phase, so `phase` is the commanded relative
    phase; +pi/4 extracts energy, -pi/4 injects it.
    """

    depth: float
    frequency: float = 0.0
    phase: float = 0.0
    phase_locked: bool = False

    def __post_init__(self):
        if self.depth < 0:
            raise ValueError("modulation depth must be non-negative")


@dataclass(frozen=True)
class CustomPotential:
    """User potential: `force(q)` in N and `energy(q)` in J, vectorized."""

    force: Callable
    energy: Callable


@dataclass(frozen=True)
class ForceModel:
    """Deterministic forces acting on the particle.

    Parameters
    ----------
    mass : float
        Particle mass (kg).
    omega0 : float
        Base trap frequency (rad/s); also the reference for modulation
        and feedback terms.
    duffing_xi : float
        Duffing coefficient (1/m^2), negative for a softening trap.
    modulation : Modulation, optional
    feedback_gain : float
        eta in eps_fb = -(eta/omega0) q qdot (1/m^2 s/s, net 1/m^2).
    external_force : callable, optional
        f(t) in N, scalar function of time.
    stiffness_schedule : tuple of (time, omega), optional
        Piecewise-constant trap frequency, right-continuous; before the
        first entry the frequency is `omega0`.  Switch times are snapped
        to the integration grid.
    potential : CustomPotential, optional
        Replaces the harmonic + Duffing potential entirely.
    """

    mass: float
    omega0: float
    duffing_xi: float = 0.0
    modulation: Modulation | None = None
    feedback_gain: float = 0.0
    external_force: Callable | None = None
    stiffness_schedule: tuple | None = None
    potential: CustomPotential | None = None

    def __post_init__(self):
        if self.mass <= 0:
            raise ValueError("mass must be positive")
        if self.omega0 < 0:
            raise ValueError("omega0 must be non-negative")
        if self.potential is not None and self.stiffness_schedule is not None:
            raise ValueError("custom potential excludes a stiffness schedule")


@dataclass
class Trajectory:
    """Sampled phase-space paths of an ensemble.

    `q`, `p` and `energy` have shape (n_traj, n_samples); `time` is the
    shared grid.  `protocol` holds per-sample control values (trap
    frequency, realized modulation, external force).
    """

    time: np.ndarray
    q: np.ndarray
    p: np.ndarray
    energy: np.ndarray
    protocol: dict
    dt: float
    mass: float
    omega0: float
    seed: int
    meta: dict = field(default_factory=dict)

    @property
    def n_traj(self) -> int:
        return self.q.shape[0]

    @property
    def velocity(self) -> np.ndarray:
        return self.p / self.mass


def trajectory_streams(master_seed: int, n_traj: int) -> list:
    """Independent counter-based generators, one per trajectory."""
    root = np.random.SeedSequence(master_seed)
    return [np.random.Generator(np.random.Philox(s)) for s in root.spawn(n_traj)]


def _draw_normals(streams, count: int) -> np.ndarray:
    return np.stack([g.standard_normal(count) for g in streams])


def _omega_per_step(force: ForceModel, dt: float, n_steps: int) -> np.ndarray:
    omega = np.full(n_steps + 1, force.omega0)
    if force.stiffness_schedule:
        sched = np.asarray(force.stiffness_schedule, dtype=float)
        switch_steps = np.rint(sched[:, 0] / dt).astype(int)
        order = np.argsort(switch_steps, kind="stable")
        switch_steps, values = switch_steps[order], sched[order, 1]
        idx = np.searchsorted(switch_steps, np.arange(n_steps + 1),
                              side="right") - 1
        active = idx >= 0
        omega[active] = values[idx[active]]
    return omega


def _check_dt(dt: float, omega_max: float, gamma: float, allow_coarse: bool):
    limit = math.inf
    if omega_max > 0:
        limit = 2.0 * math.pi / (50.0 * omega_max)
    if gamma > 0:
        limit = min(limit, 1.0 / (10.0 * gamma))
    if dt > limit and not allow_coarse:
        raise ValueError(f"dt = {dt:.3e} exceeds resolution limit {limit:.3e}; "
                         "pass allow_coarse_dt=True to override")


def simulate(force: ForceModel, bath: BathModel, init, dt: float,
             duration: float, seed: int, n_traj: int = 1,
             record_every: int = 1, allow_coarse_dt: bool = False) -> Trajectory:
    """Integrate the Langevin equation for an ensemble of trajectories.

    Parameters
    ----------
    init : "thermal" or (q0, p0)
        Thermal draws position and momentum from the equilibrium Gaussian
        of the base harmonic trap at the bath temperature; a tuple sets
        every trajectory to the same SI initial condition (arrays of
        length n_traj are also accepted).
    record_every : int
        Keep every k-th step (plus the initial sample).
    """
    m = force.mass
    n_steps = int(round(duration / dt))
    if n_steps < 1:
        raise ValueError("duration must cover at least one step")
    omega_steps = _omega_per_step(force, dt, n_steps)
    _check_dt(dt, float(omega_steps.max()), bath.gamma, allow_coarse_dt)

    # Internal units: time in 1/w_ref, length in the thermal amplitude of
    # the reference trap (an arbitrary positive scale when T = 0).
    w_ref = force.omega0 if force.omega0 > 0 else 1.0
    t_ref_temp = bath.temperature if bath.temperature > 0 else 300.0
    x0 = math.sqrt(k_B * t_ref_temp / m) / w_ref
    p0_scale = m * x0 * w_ref

    h = dt * w_ref
    gam = bath.gamma / w_ref
    temp = bath.temperature / t_ref_temp
    w0 = force.omega0 / w_ref
    xi = force.duffing_xi * x0**2
    eta = force.feedback_gain * x0**2
    omega_nd = omega_steps / w_ref

    ou_decay = math.exp(-gam * h)
    ou_kick = math.sqrt(max(0.0, (1.0 - ou_decay**2) * temp))

    streams = trajectory_streams(seed, n_traj)
    if isinstance(init, str) and init == "thermal":
        if bath.temperature <= 0 or force.omega0 <= 0:
            raise ValueError("thermal init needs T > 0 and omega0 > 0")
        sig_q = math.sqrt(k_B * bath.temperature / m) / force.omega0 / x0
        draws = _draw_normals(streams, 2)
        q = sig_q * draws[:, 0]
        p = math.sqrt(temp) * draws[:, 1]
    else:
        q0, p0 = init
        q = np.broadcast_to(np.asarray(q0, dtype=float) / x0, (n_traj,)).copy()
        p = np.broadcast_to(np.asarray(p0, dtype=float) / p0_scale,
                            (n_traj,)).copy()

    mod = force.modulation
    f_ext = force.external_force
    custom = force.potential

    def epsilon(t_si, q_nd, p_nd):
        eps = 0.0
        if mod is not None:
            if mod.phase_locked:
                theta = np.arctan2(-p_nd / w0, q_nd)
                eps = mod.depth * np.cos(2.0 * theta - 2.0 * mod.phase)
            else:
                eps = mod.depth * math.cos(mod.frequency * t_si + mod.phase)
        if eta != 0.0:
            eps = eps - (eta / w0) * q_nd * p_nd
        return eps

    def extra_force(t_si, q_nd, p_nd):
        """Anharmonic and control force in internal units."""
        if custom is not None:
            return np.asarray(custom.force(q_nd * x0)) * (x0 / (k_B * t_ref_temp))
        f = -w0**2 * xi * q_nd**3
        if mod is not None or eta != 0.0:
            f = f + epsilon(t_si, q_nd, p_nd) * w0**2 * q_nd
        if f_ext is not None:
            f = f + f_ext(t_si) / (m * x0 * w_ref**2)
        return f

    n_samples = n_steps // record_every + 1
    q_out = np.empty((n_traj, n_samples))
    p_out = np.empty((n_traj, n_samples))
    eps_out = np.zeros(n_samples)
    fext_out = np.zeros(n_samples)
    omega_out = np.empty(n_samples)

    def record(k_sample, step, q_nd, p_nd):
        q_out[:, k_sample] = q_nd
        p_out[:, k_sample] = p_nd
        omega_out[k_sample] = omega_steps[step]
        t_si = step * dt
        if mod is not None and not mod.phase_locked:
            eps_out[k_sample] = mod.depth * math.cos(mod.frequency * t_si
                                                     + mod.phase)
        if f_ext is not None:
            fext_out[k_sample] = f_ext(t_si)

    record(0, 0, q, p)
    k_sample = 1
    step = 0
    while step < n_steps:
        chunk = min(CHUNK_STEPS, n_steps - step)
        noise = _draw_normals(streams, chunk)
        for j in range(chunk):
            t_si = (step + j) * dt
            w = omega_nd[step + j]
            # half kick (anharmonic + control)
            p += 0.5 * h * extra_force(t_si, q, p)
            # half rotation or half drift
            if custom is None and w > 0:
                th = 0.5 * h * w
                c, s = math.cos(th), math.sin(th)
                q, p = c * q + (s / w) * p, -w * s * q + c * p
            else:
                q = q + 0.5 * h * p
            # exact Ornstein-Uhlenbeck step
            p = ou_decay * p + ou_kick * noise[:, j]
            if custom is None and w > 0:
                q, p = c * q + (s / w) * p, -w * s * q + c * p
            else:
                q = q + 0.5 * h * p
            p += 0.5 * h * extra_force(t_si + dt, q, p)
            if (step + j + 1) % record_every == 0:
                record(k_sample, step + j + 1, q, p)
                k_sample += 1
        if not (np.all(np.isfinite(q)) and np.all(np.isfinite(p))):
            raise IntegratorBlowupError(step + chunk)
        step += chunk

    q_si = q_out * x0
    p_si = p_out * p0_scale
    if custom is not None:
        energy = p_si**2 / (2.0 * m) + np.asarray(custom.energy(q_si))
    else:
        energy = (p_si**2 / (2.0 * m)
                  + 0.5 * m * omega_out[None, :]**2 * q_si**2
                  + 0.25 * force.duffing_xi * m * force.omega0**2 * q_si**4)
    time = np.arange(n_samples) * (record_every * dt)
    protocol = {"omega": omega_out, "epsilon": eps_out,
                "external_force": fext_out}
    return Trajectory(time, q_si, p_si, energy, protocol, dt, m,
                      force.omega0, seed)


def simulate_parametric(force: ForceModel, bath: BathModel, init, dt: float,
                        duration: float, seed: int, depth: float,
                        frequency: float = 0.0, phase: float = 0.0,
                        phase_locked: bool = False, **kw) -> Trajectory:
    """Convenience wrapper attaching a parametric drive to `force`."""
    mod = Modulation(depth, frequency, phase, phase_locked)
    return simulate(replace(force, modulation=mod), bath, init, dt, duration,
                    seed, **kw)


def simulate_quench(force: ForceModel, bath: BathModel, init, dt: float,
                    duration: float, seed: int, omega_s: float,
                    t_start: float, tau: float, **kw) -> Trajectory:
    """Frequency quench omega0 -> omega_s for a pulse of length `tau`.

    Switch times are placed exactly on grid points of the time step.
    """
    t0 = round(t_start / dt) * dt
    t1 = round((t_start + tau) / dt) * dt
    sched = ((t0, omega_s), (t1, force.omega0))
    return simulate(replace(force, stiffness_schedule=sched), bath, init, dt,
                    duration, seed, **kw)


def simulate_double_well(potential: CustomPotential, minima: tuple,
                         force_template: ForceModel, bath: BathModel, init,
                         dt: float, duration: float, seed: int,
                         **kw) -> tuple[Trajectory, np.ndarray]:
    """Integrate in a bistable potential and count interwell hops.

    Returns the trajectory and the per-trajectory hop counts from the
    hysteresis detector (a hop registers only on reaching the opposite
    minimum, so barrier-top recrossings are not counted).
    """
    traj = simulate(replace(force_template, potential=potential), bath, init,
                    dt, duration, seed, **kw)
    hops = count_well_hops(traj.q, minima)
    return traj, hops


def well_labels(q: np.ndarray, minima: tuple) -> np.ndarray:
    """Hysteresis well labels of sampled paths, shape (n_traj, n_samples).

    A sample is labelled -1 (well A, lower minimum) or +1 (well C) once the
    path reaches the corresponding minimum position, and keeps that label
    until it reaches the other one, so barrier-top recrossings do not
    change it.  Samples before either minimum is first reached are 0.
    """
    r_a, r_c = sorted(minima)
    q = np.atleast_2d(q)
    label = np.zeros(q.shape, dtype=np.int8)
    label[q <= r_a] = -1
    label[q >= r_c] = 1
    idx = np.where(label != 0, np.arange(q.shape[1]), 0)
    np.maximum.accumulate(idx, axis=1, out=idx)
    return np.take_along_axis(label, idx, axis=1)


def count_well_hops(q: np.ndarray, minima: tuple) -> np.ndarray:
    """Per-trajectory count of changes of the hysteresis well label."""
    filled = well_labels(q, minima)
    flips = (filled[:, 1:] != filled[:, :-1]) & (filled[:, :-1] != 0)
    return np.count_nonzero(flips, axis=1).astype(np.int64)


@dataclass
class EnergyPath:
    """Sampled energies from the reduced energy dynamics, shape (n, samples)."""

    time: np.ndarray
    energy: np.ndarray
    seed: int


def simulate_energy_sde(bath: BathModel, omega0: float, mass: float,
                        e0, dt: float, duration: float, seed: int,
                        n_traj: int = 1, modulation: Modulation | None = None,
                        feedback_gain: float = 0.0, omega: float | None = None,
                        record_every: int = 1) -> EnergyPath:
    """Integrate the reduced (period-averaged) dynamics of the energy.

    The energy follows the square-root diffusion

        dE = -gamma [(1 + s) E + 2 c k_B T E^2 - k_B T] dt
             + sqrt(2 gamma k_B T E) dW,
        s = eps0 W0^2 sin(2 phi) / (gamma W),
        c = eta W0 / (4 m gamma W^2),

    equivalently an overdamped walker in the effective potential
    (1 + s) y^2 + c y^4 - k_B T ln y for y = sqrt(E).  The E form is the
    one integrated here because its drift stays bounded at the origin;
    excursions below zero are reflected.  Without modulation or feedback
    the stationary law is exponential with mean k_B T and the finite-time
    transition density is the noncentral chi-squared form implemented in
    the analysis module.
    """
    if bath.gamma <= 0 or bath.temperature <= 0:
        raise ValueError("energy dynamics require gamma > 0 and T > 0")
    w = omega if omega is not None else omega0
    s = 0.0
    if modulation is not None:
        s = (modulation.depth * omega0**2 * math.sin(2.0 * modulation.phase)
             / (bath.gamma * w))
    c_hat = feedback_gain * omega0 / (4.0 * mass * bath.gamma * w**2) \
        * k_B * bath.temperature

    gam = bath.gamma
    n_steps = int(round(duration / dt))
    if dt * gam > 0.05:
        raise ValueError("dt too coarse for the energy dynamics (gamma dt > 0.05)")
    streams = trajectory_streams(seed, n_traj)
    # x = E / k_B T; e0 may be a scalar or per-trajectory array
    e0 = np.broadcast_to(np.asarray(e0, dtype=float), (n_traj,))
    x = e0 / (k_B * bath.temperature)
    kick = math.sqrt(2.0 * gam * dt)
    n_samples = n_steps // record_every + 1
    out = np.empty((n_traj, n_samples))
    out[:, 0] = x
    k_sample = 1
    step = 0
    while step < n_steps:
        chunk = min(CHUNK_STEPS, n_steps - step)
        noise = _draw_normals(streams, chunk)
        for j in range(chunk):
            drift = -gam * ((1.0 + s) * x + 2.0 * c_hat * x**2 - 1.0)
            x = np.abs(x + drift * dt + kick * np.sqrt(x) * noise[:, j])
            if (step + j + 1) % record_every == 0:
                out[:, k_sample] = x
                k_sample += 1
        step += chunk
    time = np.arange(n_samples) * (record_every * dt)
    return EnergyPath(time, out * k_B * bath.temperature, seed)


def config_hash(config: dict) -> str:
    """Stable hash of a JSON-serializable configuration record."""
    blob = json.dumps(config, sort_keys=True, default=str).encode()
    return f"{zlib.crc32(blob):08x}"


def save_trajectory(traj: Trajectory, path: str, config: dict | None = None):
    """Write a trajectory to .npz (columnar) or .csv (fallback).

    The header records the schema version, a hash of the generating
    configuration and the master seed, so the file is traceable back to
    a reproducible run.
    """
    header = {"schema_version": SCHEMA_VERSION,
              "config_hash": config_hash(config or {}),
              "seed": traj.seed, "dt": traj.dt, "mass": traj.mass,
              "omega0": traj.omega0}
    path = str(path)
    if path.endswith(".csv"):
        cols = [traj.time]
        names = ["time_s"]
        for i in range(traj.n_traj):
            cols += [traj.q[i], traj.p[i], traj.energy[i]]
            names += [f"q{i}_m", f"p{i}_kg_m_s", f"E{i}_J"]
        data = np.column_stack(cols)
        head = "# " + json.dumps(header) + "\n" + ",".join(names)
        np.savetxt(path, data, delimiter=",", header=head, comments="")
    else:
        np.savez_compressed(path, header=json.dumps(header), time=traj.time,
                            q=traj.q, p=traj.p, energy=traj.energy,
                            **{f"protocol_{k}": v
                               for k, v in traj.protocol.items()})


def load_trajectory(path: str) -> Trajectory:
    """Read a trajectory written by `save_trajectory` (.npz only)."""
    with np.load(path) as f:
        header = json.loads(str(f["header"]))
        protocol = {k[len("protocol_"):]: f[k] for k in f.files
                    if k.startswith("protocol_")}
        return Trajectory(f["time"], f["q"], f["p"], f["energy"], protocol,
                          header["dt"], header["mass"], header["omega0"],
                          header["seed"], meta=header)
