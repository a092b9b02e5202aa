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
and the undamped oscillator conserves energy to round-off.  In the
quartic double well of `ForceModel` the harmonic rotation is replaced
by free drift, which recovers the standard BAOAB scheme.

`simulate` runs one step kernel.  It compiles the force model into
in-place ufuncs on preallocated rows for its active terms only (double
well, Duffing, drive and feedback, external force) and picks the half
step once: free drift in a double well or a free trap, else the exact
rotation.  A step allocates nothing: half kick, half step, OU step on
one noise row, half step, force, half kick, 13 ufunc calls in a double
well.  A force of q alone is reused as the next step's first half kick;
a harmonic trap makes no kicks.  The state (q, p), noise draws and
recorded samples are held time-major, one row of the ensemble per step
or sample; the SI arrays of a `Trajectory` are (n_traj, n_samples).
One call can integrate several groups of trajectories side by side,
each with its own damping and seed.  A run records (q, p) one chunk at
a time and hands each chunk, in SI, to an observer `observe(i0, q, p)`;
without one it records whole paths and returns them with their energy
as a `Trajectory`.  Hysteresis well labels (`simulate_double_well`), the
Welch spectrum of `psd` and the per-sample sums of the engine's work
are observed, so those runs keep no paths.  A chunk is sized by bytes
(`chunk_steps`): its noise block stays near CHUNK_BYTES and its (q, p)
record near twice that at any width.  Each runner states the bytes it
holds at once by name (`simulate_bytes` and its siblings).

All state is integrated in dimensionless internal units (lengths in
sqrt(k_B T_ref / m) / W_ref, times in 1/W_ref) and converted back to SI
on output.  Ensembles draw their noise from SFC64 random streams, one
per block of BLOCK trajectories, spawned from the master seed's
`SeedSequence`: draw j of trajectory i is normal j * BLOCK + i % BLOCK of
stream i // BLOCK.  A trajectory's noise therefore depends only on the
seed and its index, so a smaller ensemble is a prefix of a larger one
and results are bit-reproducible regardless of chunking.  `derive_seed`
gives the master seeds of the runs that make up one experiment; a group
of a batched run draws from the streams of its own seed, so its path is
that of the same run alone.

`simulate_energy_sde` samples the reduced energy dynamics of free
relaxation only, by the exact transition of `energy_transition`, valid
at any dt; the energy law of a driven steady state is
`analysis.steady_state_distribution`, and driven dynamics run through
`simulate` with a `Modulation` or a feedback gain.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .constants import k_B

# A chunk of steps draws one noise block of at most CHUNK_STEPS rows and
# at most CHUNK_BYTES (see `chunk_steps`); results do not depend on the
# chunking because each stream is consumed in order.  Any run of 256
# trajectories or fewer takes chunks of CHUNK_STEPS rows.
CHUNK_STEPS = 1024
CHUNK_BYTES = 2**21
# Largest |q| or |p| a run may reach, in thermal units of the reference
# trap; far beyond any physical excursion, yet the SI energies of a state
# within it stay finite.
STATE_BOUND = 1e100


class IntegratorBlowupError(RuntimeError):
    """Raised when |q| or |p| exceeds STATE_BOUND or becomes NaN.

    Carries the index of the first step that leaves the bound.  For an
    above-threshold parametric drive on a purely harmonic trap this is
    the expected physical signal of instability, not a numerical bug.
    """

    def __init__(self, step: int):
        super().__init__(f"state left the bound {STATE_BOUND:g} at step {step}")
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
        to the nearest step of the integration grid.
    double_well : (b, q_m), optional
        U(q) = b (q^2 - q_m^2)^2 in SI, in place of the trap and of every
        other term; `omega0` then sets only the internal units.
    """

    mass: float
    omega0: float
    duffing_xi: float = 0.0
    modulation: Modulation | None = None
    feedback_gain: float = 0.0
    external_force: Callable | None = None
    stiffness_schedule: tuple | None = None
    double_well: tuple | None = None

    def __post_init__(self):
        if self.mass <= 0:
            raise ValueError("mass must be positive")
        if self.omega0 < 0:
            raise ValueError("omega0 must be non-negative")
        if self.double_well is not None and any((
                self.duffing_xi, self.modulation, self.feedback_gain,
                self.external_force, self.stiffness_schedule)):
            raise ValueError("a double well excludes every other force term "
                             "and a stiffness schedule")


@dataclass
class Trajectory:
    """Sampled phase-space paths of an ensemble.

    `q`, `p` and `energy` have shape (n_traj, n_samples); `time` is the
    shared grid.  `protocol` holds per-sample control values (trap
    frequency, external force).
    """

    time: np.ndarray
    q: np.ndarray
    p: np.ndarray
    energy: np.ndarray
    protocol: dict
    dt: float
    mass: float

    @property
    def n_traj(self) -> int:
        return self.q.shape[0]

    @property
    def velocity(self) -> np.ndarray:
        return self.p / self.mass


# Trajectories served by one noise stream of `trajectory_streams`.
BLOCK = 64
# Memory held per stream of `trajectory_streams` (SFC64 generator and its
# SeedSequence): 896 B by tracemalloc, 958 B of RSS at 2e5 streams.
STREAM_BYTES = 958


def trajectory_streams(master_seed: int, n_traj: int) -> list:
    """Independent SFC64 generators, one per block of BLOCK
    trajectories: ceil(n_traj / BLOCK) children of the master seed."""
    root = np.random.SeedSequence(master_seed)
    return [np.random.Generator(np.random.SFC64(s))
            for s in root.spawn(-(-n_traj // BLOCK))]


def derive_seed(seed: int, *key) -> int:
    """Master seed of one run within an experiment seeded by `seed`.

    `key` names the run: a purpose string, then integer indices, e.g.
    ("modulate", i).  The result is drawn from SeedSequence([seed, *key])
    with each string read as the integer of its UTF-8 bytes, so distinct
    seeds or keys give unrelated streams (with seed + i, run i + 1 of
    seed s would repeat run i of seed s + 1).
    """
    entropy = [seed] + [int.from_bytes(k.encode(), "little")
                        if isinstance(k, str) else k for k in key]
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


def step_count(duration: float, dt: float) -> int:
    """Steps of `dt` in a run of `duration`: the nearest whole number."""
    return int(round(duration / dt))


def chunk_steps(width: int, rows_per_step: int = 1) -> int:
    """Steps of one chunk of a run whose noise block is `width` columns
    wide and takes `rows_per_step` rows a step: at least one, and as
    many as keep the block within CHUNK_STEPS rows and CHUNK_BYTES."""
    return max(1, min(CHUNK_STEPS, CHUNK_BYTES // (8 * width))
               // rows_per_step)


def _draw_normals(streams, count: int, n_traj: int,
                  out: np.ndarray | None = None) -> np.ndarray:
    """Time-major (count, n_traj) block of draws, written into `out` (for
    example a column slice of a wider block) when it is given.

    Each stream draws BLOCK columns in C order, into one (count, BLOCK)
    buffer that every stream reuses, so draw j of trajectory i is normal
    j * BLOCK + i % BLOCK of stream i // BLOCK: a function of (seed, i)
    alone, whatever n_traj or the chunking of the draws.
    """
    if out is None:
        out = np.empty((count, n_traj))
    buf = np.empty((count, BLOCK))
    for b, g in enumerate(streams):
        cols = out[:, b * BLOCK:(b + 1) * BLOCK]
        cols[:] = g.standard_normal(out=buf)[:, :cols.shape[1]]
    return out


def noise_bytes(n_traj: int, rows: int, n_groups: int = 1) -> dict:
    """Bytes, by name, of drawing `rows` rows at a time: the streams, the
    block (padded to whole stream blocks) and one stream's buffer."""
    n_streams = n_groups * -(-n_traj // BLOCK)
    return {"noise streams": n_streams * STREAM_BYTES,
            "noise block": 8 * rows * n_streams * BLOCK,
            "draw buffer": 8 * rows * BLOCK}


def after_run_bytes(need: dict, formed: int) -> int:
    """Bytes `formed` once the run `need` counts has freed its noise block
    and chunk record, beyond those two."""
    return max(0, formed - need["noise block"] - need["chunk record"])


def _omega_per_step(force: ForceModel, dt: float, n_steps: int) -> np.ndarray:
    """The trap frequency of steps 0..n_steps: `omega0` before the first
    switch of the schedule, then each entry's value from its switch step
    on; of entries that share a step the later one holds, and switches
    beyond n_steps are clipped."""
    sched = force.stiffness_schedule
    if not sched:
        return np.full(n_steps + 1, force.omega0)
    # the first step of omega0 and of each entry's value (its time / dt,
    # rounded half to even), then the end of the run
    bounds = np.fromiter(itertools.chain(
        (0,), (round(t / dt) for t, _ in sched), (n_steps + 1,)),
        np.intp, len(sched) + 2)
    values = np.fromiter(itertools.chain(
        (force.omega0,), (w for _, w in sched)), float, len(sched) + 1)
    starts = bounds[1:-1]
    if np.any(starts[1:] < starts[:-1]):
        order = np.argsort(starts, kind="stable")
        starts[:], values[1:] = starts[order], values[1:][order]
    np.clip(bounds, 0, n_steps + 1, out=bounds)
    counts = np.diff(bounds)
    del bounds, starts    # freed before the frequencies are formed
    return np.repeat(values, counts)


def _check_dt(dt: float, omega_max: float, gamma: float, allow_coarse: bool):
    limit = math.inf
    if omega_max > 0:
        limit = 2.0 * math.pi / (50.0 * omega_max)
    if gamma > 0:
        limit = min(limit, 1.0 / (10.0 * gamma))
    if dt > limit and not allow_coarse:
        raise ValueError(f"dt = {dt:.3e} exceeds resolution limit {limit:.3e}; "
                         "pass allow_coarse_dt=True to override")


def _compile_force(force: ForceModel, x0: float, w_ref: float,
                   t_ref_temp: float, q: np.ndarray, p: np.ndarray,
                   out: np.ndarray) -> tuple[Callable | None, bool]:
    """Compile `force` into force_at(t_si), which writes the force on the
    rows (q, p) into the row `out`, in internal units, or None if no term
    is active.  Each active term runs in-place ufuncs on rows made for it
    (the third argument is the output), keeping the operands and order of
    its formula, so the force is bit-identical to the formula's.  The
    flag is true when every term depends on q alone, so the force at the
    end of a step is also the force at the start of the next.  A double
    well is the only term of its model.
    """
    mul, add = np.multiply, np.add
    if force.double_well is not None:
        # -U'(q) in units of k_B T_ref / x0: q (a1 + a3 q^2)
        b, q_m = force.double_well
        kt = k_B * t_ref_temp
        a1 = np.full_like(q, 4.0 * b * q_m**2 * x0**2 / kt)
        a3 = np.full_like(q, -4.0 * b * x0**4 / kt)

        def well(t):
            mul(q, add(a1, mul(a3, mul(q, q, out), out), out), out)
        return well, True
    w0 = force.omega0 / w_ref
    xi = force.duffing_xi * x0**2
    eta = force.feedback_gain * x0**2
    mod, f_ext = force.modulation, force.external_force
    terms = []    # each writes its force into the row it is given
    if xi != 0.0:
        k3 = np.full_like(q, -w0**2 * xi)
        terms.append(lambda t, f: mul(k3, mul(mul(q, q, f), q, f), f))
    if mod is not None or eta != 0.0:
        # eps w0^2 q: eps scales the base stiffness, the open-loop or
        # phase-locked drive minus the feedback term (eta / w0) q p
        w0_sq = np.full_like(q, w0**2)
        if eta != 0.0:
            fb, fqp = np.full_like(q, eta / w0), np.empty_like(q)

        def stiffness(t, f):
            if mod is not None and mod.phase_locked:
                # depth cos(2 theta - 2 phase), theta = arctan2(-p / w0, q)
                np.arctan2(np.divide(np.negative(p, f), w0, f), q, f)
                np.cos(np.subtract(mul(2.0, f, f), 2.0 * mod.phase, f), f)
                mul(mod.depth, f, f)
            else:
                f.fill(0.0 if mod is None else
                       mod.depth * math.cos(mod.frequency * t + mod.phase))
            if eta != 0.0:
                np.subtract(f, mul(mul(fb, q, fqp), p, fqp), f)
            mul(mul(f, w0_sq, f), q, f)
        terms.append(stiffness)
    if f_ext is not None:
        f_scale = force.mass * x0 * w_ref**2
        terms.append(lambda t, f: f.fill(f_ext(t) / f_scale))
    if not terms:
        return None, False
    first, rest = terms[0], terms[1:]
    if rest:
        f_term = np.empty_like(q)

    def force_at(t):
        first(t, out)
        for term in rest:
            term(t, f_term)
            add(out, f_term, out)
    return force_at, mod is None and eta == 0.0 and f_ext is None


def simulate_bytes(dt: float, duration: float, n_traj: int,
                   record_every: int = 1, n_groups: int = 1,
                   recorded: bool = False, switches: int = 0) -> dict:
    """Bytes, by name, that `simulate` holds at once: the noise and (q, p)
    record of a chunk, the frequency of each step (read from a stiffness
    schedule of `switches` entries through three arrays of its length)
    and 16 float64 per trajectory.  A `recorded` run keeps q and p, then
    forms the energy, its row blocks and 4 float64 per sample once the
    chunk is freed."""
    n_steps, width = step_count(duration, dt), n_traj * n_groups
    chunk = min(chunk_steps(width), n_steps)
    samples = n_steps // record_every + 1
    need = noise_bytes(n_traj, chunk, n_groups)
    need["chunk record"] = 16 * width * (chunk // record_every + 1)
    need["trap frequencies"] = (8 * (n_steps + 1) + 24 * switches
                                + 32 * chunk)
    need["working vectors"] = 128 * width
    if recorded:
        path = 8 * width * samples
        need[f"q and p record of n_traj x {samples} samples"] = 2 * path
        need["energy array after the run"] = after_run_bytes(
            need, path + 16 * max(2**14, samples) + 32 * samples)
    return need


def simulate(force: ForceModel, bath: BathModel | Sequence[BathModel], init,
             dt: float, duration: float, seed: int | Sequence[int],
             n_traj: int = 1, record_every: int = 1,
             allow_coarse_dt: bool = False,
             observe: Callable | None = None) -> Trajectory | tuple:
    """Integrate the Langevin equation for an ensemble of trajectories.

    Parameters
    ----------
    bath, seed : BathModel and int, or equal-length sequences of them
        Sequences split the n_traj columns into as many equal groups, in
        order.  Group g is damped at bath[g].gamma and draws its noise
        from trajectory_streams(seed[g], n_traj // len(seed)), so its path
        is the one a separate run with bath[g] and seed[g] gives.  The
        baths must share one temperature.
    init : "thermal" or (q0, p0)
        Thermal draws position and momentum from the equilibrium Gaussian
        of the base harmonic trap at the bath temperature; a tuple sets
        every trajectory to the same SI initial condition (arrays of
        length n_traj are also accepted).
    record_every : int
        Keep every k-th step (plus the initial sample).
    observe : callable, optional
        observe(i0, q, p) reads the run in place of recorded paths.  It
        is called with sample 0, then after each chunk of steps with the
        SI positions and momenta of samples i0, i0 + 1, ..., each a
        contiguous time-major (rows, n_traj) view, valid only during the
        call.  The run then keeps no paths and returns its final SI state
        (q, p) instead of a Trajectory.
    """
    baths = tuple(bath) if isinstance(bath, (list, tuple)) else (bath,)
    seeds = tuple(seed) if isinstance(seed, (list, tuple)) else (seed,)
    if len(seeds) != len(baths) or n_traj % len(baths):
        raise ValueError("give one seed per bath, and n_traj a multiple "
                         "of their number")
    if len({b.temperature for b in baths}) != 1:
        raise ValueError("the baths of one run must share a temperature")
    width = n_traj // len(baths)
    temperature = baths[0].temperature
    m = force.mass
    n_steps = step_count(duration, dt)
    if n_steps < 1:
        raise ValueError("duration must cover at least one step")
    omega_steps = _omega_per_step(force, dt, n_steps)
    _check_dt(dt, float(omega_steps.max()), max(b.gamma for b in baths),
              allow_coarse_dt)

    # Internal units: time in 1/w_ref, length in the thermal amplitude of
    # the reference trap (an arbitrary positive scale when T = 0).
    w_ref = force.omega0 if force.omega0 > 0 else 1.0
    t_ref_temp = temperature if temperature > 0 else 300.0
    x0 = math.sqrt(k_B * t_ref_temp / m) / w_ref
    p0_scale = m * x0 * w_ref

    h = dt * w_ref
    half_h = 0.5 * h
    temp = temperature / t_ref_temp
    # OU decay and noise scale per group, as rows over the ensemble
    decay = [math.exp(-(b.gamma / w_ref) * h) for b in baths]
    ou_decay = np.repeat(decay, width)
    ou_kick = np.repeat([math.sqrt(max(0.0, (1.0 - d**2) * temp))
                         for d in decay], width)

    # state x = (q, p), one row each, so one ufunc updates both
    x = np.empty((2, n_traj))
    q, p = x
    streams = [trajectory_streams(s, width) for s in seeds]

    def draw(count):
        noise = np.empty((count, n_traj))
        for g, group in enumerate(streams):
            _draw_normals(group, count, width,
                          noise[:, g * width:(g + 1) * width])
        return noise

    if isinstance(init, str) and init == "thermal":
        if temperature <= 0 or force.omega0 <= 0:
            raise ValueError("thermal init needs T > 0 and omega0 > 0")
        sig_q = math.sqrt(k_B * temperature / m) / force.omega0 / x0
        draws = draw(2)
        np.multiply(sig_q, draws[0], out=q)
        np.multiply(math.sqrt(temp), draws[1], out=p)
    else:
        q0, p0 = init
        q[:] = np.asarray(q0, dtype=float) / x0
        p[:] = np.asarray(p0, dtype=float) / p0_scale

    well = force.double_well
    mul, add = np.multiply, np.add    # a ufunc's third argument is its output
    tmp = np.empty_like(x)
    t0, t1 = tmp
    dp = np.empty(n_traj)          # the half kick 0.5 h f(t, q, p)
    force_at, q_only = _compile_force(force, x0, w_ref, t_ref_temp, q, p, dp)
    # the half step is chosen once per run: free drift in a double well
    # or a free trap, else the exact rotation of the harmonic part
    drifts = well is not None or not (omega_steps > 0).any()
    if drifts or force_at is not None:
        h2 = np.full(n_traj, half_h)

    def drift(w):
        add(q, mul(h2, p, t0), q)

    # c, s / w and -w s of the frequency w_now, rewritten in place when
    # it changes; w = 0 takes their limits 1, h / 2 and 0, a free drift
    rot, w_now = np.empty(3), [None]
    c_w, s_w, ws = (rot[i, ...] for i in range(3))

    def rotate(w):
        if w != w_now[0]:
            s = math.sin(half_h * w)
            rot[:] = (math.cos(half_h * w), s / w, -w * s) if w > 0 else (
                1.0, half_h, 0.0)
            w_now[0] = w
        mul(s_w, p, t0)
        mul(ws, q, t1)
        add(mul(c_w, x, x), tmp, x)
    half = drift if drifts else rotate

    n_samples = n_steps // record_every + 1
    chunk = chunk_steps(n_traj)
    # the (q, p) samples of one chunk, written time-major: chunk_t[i] is
    # sample lo + i of both
    chunk_rec = np.empty((2, min(n_samples, chunk // record_every + 1),
                          n_traj))
    chunk_t = chunk_rec.swapaxes(0, 1)
    recorded = observe is None
    if recorded:
        # the recorder: q and p blocks, each (n_samples, n_traj)
        rec = np.empty((2, n_samples, n_traj))

        def observe(i0, q_si, p_si):
            rec[0, i0:i0 + len(q_si)] = q_si
            rec[1, i0:i0 + len(p_si)] = p_si

    def emit(lo, hi):
        """Observe samples lo .. hi - 1, scaled to SI in place."""
        q_si, p_si = chunk_rec[:, :hi - lo]
        observe(lo, mul(q_si, x0, q_si), mul(p_si, p0_scale, p_si))

    def advance(k0, noise, lo, check):
        """Steps k0 .. k0 + len(noise) - 1, sample i stored in row i - lo
        of the chunk record; with `check`, raise at the first state
        outside STATE_BOUND."""
        omega_nd = (omega_steps[k0:k0 + len(noise)] / w_ref).tolist()
        k = k0
        for row, w in zip(noise, omega_nd):
            t_si = k * dt
            if force_at is not None:
                if not q_only:
                    force_at(t_si)
                    mul(h2, dp, dp)
                add(p, dp, p)
            half(w)
            # exact Ornstein-Uhlenbeck step; noise is pre-scaled by ou_kick
            mul(ou_decay, p, p)
            add(p, row, p)
            half(w)
            k += 1
            if force_at is not None:
                force_at(t_si + dt)
                mul(h2, dp, dp)
                add(p, dp, p)
            if k % record_every == 0:
                chunk_t[k // record_every - lo] = x
            if check and not np.abs(x).max() <= STATE_BOUND:
                raise IntegratorBlowupError(k)

    chunk_t[0] = x
    emit(0, 1)
    if q_only:
        force_at(0.0)
        mul(h2, dp, dp)
    step = 0
    while step < n_steps:
        noise = draw(min(chunk, n_steps - step))
        noise *= ou_kick
        # samples lo, lo + 1, ... fall in this chunk
        lo = step // record_every + 1
        start = x.copy(), dp.copy()
        advance(step, noise, lo, False)
        if not np.abs(x).max() <= STATE_BOUND:
            # replay the chunk from its start to find the first bad step
            x[:], dp[:] = start
            advance(step, noise, lo, True)
        step += len(noise)
        del noise    # free the block before the next one is drawn
        hi = step // record_every + 1
        if hi > lo:
            emit(lo, hi)
    if not recorded:
        return x[0] * x0, x[1] * p0_scale

    # free the chunk record; transposed to (n_traj, n_samples), p takes the
    # recorded q block and the energy the recorded p block, so the three
    # arrays need one allocation beyond the record
    del chunk_rec, chunk_t
    shape = (n_traj, n_samples)
    q_si = rec[0].T.copy()
    p_si = rec[0].reshape(shape)
    p_si[:] = rec[1].T
    energy = rec[1].reshape(shape)
    omega_out = np.ascontiguousarray(omega_steps[::record_every])
    stiffness = 0.5 * m * omega_out[None, :]**2
    # row blocks of about 2**14 samples bound the temporaries
    rows = max(1, 2**14 // n_samples)
    for r in range(0, n_traj, rows):
        q_r, e_r = q_si[r:r + rows], energy[r:r + rows]
        np.square(p_si[r:r + rows], out=e_r)
        e_r /= 2.0 * m
        if well is not None:
            b, q_m = well
            e_r += b * np.square(np.square(q_r) - q_m**2)
        else:
            e_r += stiffness * np.square(q_r)
            if force.duffing_xi != 0.0:
                # q^4 as q2 * q2: q_si**4 goes through the generic pow
                q4 = q_r * q_r
                q4 *= q4
                q4 *= 0.25 * force.duffing_xi * m * force.omega0**2
                e_r += q4
    fext_out = np.zeros(n_samples)
    f_ext = force.external_force
    if f_ext is not None:
        for k_sample, step in enumerate(range(0, n_steps + 1, record_every)):
            fext_out[k_sample] = f_ext(step * dt)
    time = np.arange(n_samples) * (record_every * dt)
    protocol = {"omega": omega_out, "external_force": fext_out}
    return Trajectory(time, q_si, p_si, energy, protocol, dt, m)


def simulate_double_well_bytes(dt: float, duration: float, n_traj: int,
                               record_every: int, n_groups: int) -> dict:
    """Bytes, by name, that `simulate_double_well` holds at once: its run,
    its labels and `well_labels`' temporaries, as large as a chunk record."""
    need = simulate_bytes(dt, duration, n_traj, record_every, n_groups)
    width = n_traj * n_groups
    samples = step_count(duration, dt) // record_every + 1
    need[f"well labels of {width} trajectories x {samples} samples"] = (
        width * samples)
    need["label temporaries"] = need["chunk record"]
    return need


def simulate_double_well(double_well: tuple, minima: tuple,
                         force_template: ForceModel,
                         bath: BathModel | Sequence[BathModel], init,
                         dt: float, duration: float,
                         seed: int | Sequence[int], **kw) -> np.ndarray:
    """Integrate in the double well (b, q_m) of `ForceModel`; return
    the hysteresis well labels of the recorded samples (see `well_labels`),
    shape (n_traj, n_samples).  The run's observer labels each chunk,
    carrying every trajectory's label into the next, so no path is kept.
    `bath` and `seed` may be sequences, one entry per group of
    trajectories (see `simulate`).
    """
    n_samples = step_count(duration, dt) // kw.get("record_every", 1) + 1
    labels = np.empty((kw.get("n_traj", 1), n_samples), dtype=np.int8)

    def label(i0, q, p):
        carry = labels[:, i0 - 1] if i0 else None
        labels[:, i0:i0 + len(q)] = well_labels(q.T, minima, carry)

    simulate(replace(force_template, double_well=double_well), bath, init,
             dt, duration, seed, observe=label, **kw)
    return labels


def well_labels(q: np.ndarray, minima: tuple,
                carry: np.ndarray | None = None) -> np.ndarray:
    """Hysteresis well labels of sampled paths, shape (n_traj, n_samples).

    A sample is labelled -1 (well A, lower minimum) or +1 (well C) once the
    path reaches the corresponding minimum position, and keeps that label
    until it reaches the other one, so barrier-top recrossings do not
    change it.  Samples before either minimum is first reached take the
    trajectory's `carry` label, the last label of the samples before
    these, or 0 without it; labelling a path piece by piece, each piece
    carrying the last label of the one before, gives the labels of the
    whole path.
    """
    r_a, r_c = sorted(minima)
    q = np.atleast_2d(q)
    label = np.zeros(q.shape, dtype=np.int8)
    label[q <= r_a] = -1
    label[q >= r_c] = 1
    idx = np.where(label != 0, np.arange(q.shape[1]), 0)
    np.maximum.accumulate(idx, axis=1, out=idx)
    filled = np.take_along_axis(label, idx, axis=1)
    if carry is not None:
        # a label stays 0 only before the first minimum is reached
        filled = np.where(filled == 0, carry[:, None], filled)
    return filled


@dataclass
class EnergyPath:
    """Sampled energies from the reduced energy dynamics, shape (n, samples)."""

    time: np.ndarray
    energy: np.ndarray


def energy_transition(x, gamma_h: float, noise) -> np.ndarray:
    """Exact transition of the reduced energy dynamics over a time h.

    `x` is E / k_B T, a scalar or one value per trajectory, `gamma_h`
    is gamma h and `noise` holds two standard normals per trajectory in
    its rows 0 and 1.  Returns

        x' = (sqrt(c) z1 + sqrt(x e^{-gamma h}))^2 + c z2^2,
        c = (1 - e^{-gamma h}) / 2,

    the squared modulus of the oscillator's two slow quadratures, each
    an exact Ornstein-Uhlenbeck step.  Its law is the scaled noncentral
    chi-squared of `analysis.relaxation_cdf` for any h, and it is never
    negative.
    """
    decay = math.exp(-gamma_h)
    c = -0.5 * math.expm1(-gamma_h)
    return ((math.sqrt(c) * noise[0] + np.sqrt(x * decay)) ** 2
            + c * noise[1] ** 2)


def simulate_energy_sde_bytes(dt: float, duration: float, n_traj: int,
                              record_every: int) -> dict:
    """Bytes, by name, that `simulate_energy_sde` holds at once: noise of
    two rows a step, its energies and times, and 16 float64 a trajectory."""
    n_steps = step_count(duration, dt)
    samples = n_steps // record_every + 1
    return {**noise_bytes(n_traj, 2 * min(chunk_steps(n_traj, 2), n_steps)),
            f"energies of n_traj x {samples} samples": 8 * n_traj * samples,
            "working vectors": 128 * n_traj + 8 * samples}


def simulate_energy_sde(bath: BathModel, e0, dt: float, duration: float,
                        seed: int, n_traj: int = 1,
                        record_every: int = 1) -> EnergyPath:
    """Sample the reduced (period-averaged) energy dynamics of free
    relaxation, the square-root (Cox-Ingersoll-Ross) diffusion

        dE = -gamma (E - k_B T) dt + sqrt(2 gamma k_B T E) dW,

    one exact `energy_transition` per step, valid at any dt.  Step j of
    a chunk reads rows 2j and 2j + 1 of the chunk's noise block, so the
    path of trajectory i depends only on (seed, i).  Its stationary law
    is exponential with mean k_B T and its transition law is that of
    `analysis.relaxation_cdf`.  Driven steady states are not modelled
    here: their energy law is `analysis.steady_state_distribution`.
    """
    if bath.gamma <= 0 or bath.temperature <= 0:
        raise ValueError("energy dynamics require gamma > 0 and T > 0")
    # x = E / k_B T; e0 may be a scalar or per-trajectory array
    e0 = np.broadcast_to(np.asarray(e0, dtype=float), (n_traj,))
    if not np.all(np.isfinite(e0) & (e0 >= 0)):
        raise ValueError("starting energies must be finite and non-negative")
    n_steps = step_count(duration, dt)
    streams = trajectory_streams(seed, n_traj)
    x = e0 / (k_B * bath.temperature)
    gamma_h = bath.gamma * dt
    n_samples = n_steps // record_every + 1
    out = np.empty((n_traj, n_samples))
    out[:, 0] = x
    k_sample = 1
    step = 0
    while step < n_steps:
        chunk = min(chunk_steps(n_traj, 2), n_steps - step)
        noise = _draw_normals(streams, 2 * chunk, n_traj)
        for j in range(chunk):
            x = energy_transition(x, gamma_h, noise[2 * j:2 * j + 2])
            if (step + j + 1) % record_every == 0:
                out[:, k_sample] = x
                k_sample += 1
        step += chunk
        del noise    # free the block before the next one is drawn
    time = np.arange(n_samples) * (record_every * dt)
    out *= k_B
    out *= bath.temperature
    return EnergyPath(time, out)
