"""Stochastic energetics: work, heat, fluctuation theorems, heat engines.

Work and heat are evaluated on sampled trajectories with the midpoint
(Stratonovich) rule.  Sign conventions: `work` is the work done on the
particle by the control protocol, `heat` is the energy delivered to the
bath, so the first law reads dE = dW - dQ.  An instantaneous stiffness
jump k -> k' at position q contributes (k' - k) q^2 / 2 to the work.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .constants import k_B
from .langevin import (BathModel, ForceModel, Trajectory, _draw_normals,
                       derive_seed, energy_transition, mechanical_energy,
                       noise_bytes, simulate, simulate_bytes, step_count,
                       trajectory_streams)


class ProtocolError(ValueError):
    """Raised when a trajectory cannot support the requested bookkeeping."""


def _require_full_resolution(traj: Trajectory):
    if traj.time.size < 2:
        raise ProtocolError("trajectory too short for work/heat integrals")
    stride = (traj.time[1] - traj.time[0]) / traj.dt
    if abs(stride - 1.0) > 1e-9:
        raise ProtocolError("work/heat bookkeeping needs record_every=1 so "
                            "that every protocol update is sampled")


@dataclass
class WorkHeatRecord:
    """Per-trajectory energetics of one protocol realization.

    All arrays have length n_traj.  `first_law_residual` collects the
    discretization error dE - (W - Q); it shrinks with the time step.
    """

    work: np.ndarray
    heat: np.ndarray
    delta_energy: np.ndarray
    work_stiffness: np.ndarray
    work_force: np.ndarray

    @property
    def first_law_residual(self) -> np.ndarray:
        return self.delta_energy - (self.work - self.heat)

    @property
    def mean_work(self) -> float:
        return float(self.work.mean())


def work_heat(traj: Trajectory) -> WorkHeatRecord:
    """Work and heat functionals of a sampled trajectory ensemble.

    The stiffness channel sums the jump contributions of the (piecewise
    constant) trap stiffness k = m omega^2; a staircase built by
    `stiffness_staircase` therefore integrates (dk/dt) q^2 / 2 exactly
    for the process that was actually simulated.  The force channel is
    the midpoint integral of f dq.  Heat is obtained from the kinetic
    energy balance, Q = -d(KE) + integral of F_sys o dq, which makes the
    first law an O(dt) consistency check rather than an identity.
    The control values are those logged on the trajectory.
    """
    _require_full_resolution(traj)
    q = traj.q
    omega = traj.protocol["omega"]
    k = traj.mass * omega**2
    f = traj.protocol["external_force"]

    dk = np.diff(k)
    w_stiff = 0.5 * (q[:, 1:] ** 2 @ dk)

    dq = np.diff(q, axis=1)
    f_mid = 0.5 * (f[:-1] + f[1:])
    w_force = dq @ f_mid
    work = w_stiff + w_force

    # systematic force at the midpoint of each step; the stiffness active
    # during step i is k[i] (right-continuous protocol)
    q_mid = 0.5 * (q[:, :-1] + q[:, 1:])
    f_sys = -k[:-1] * q_mid + f_mid
    kinetic = traj.p[:, [0, -1]]**2 / (2.0 * traj.mass)
    heat = -(kinetic[:, 1] - kinetic[:, 0]) + np.sum(f_sys * dq, axis=1)

    delta_e = traj.energy[:, -1] - traj.energy[:, 0]
    return WorkHeatRecord(work=work, heat=heat, delta_energy=delta_e,
                          work_stiffness=w_stiff, work_force=w_force)


def work_conjugate_force(traj: Trajectory) -> np.ndarray:
    """Work in the tilted-potential convention, W = -integral qdot(f) dt.

    For a force ramp this differs from the f dq integral by the boundary
    term [f q]; it is the convention under which the free energy change
    of a ramp 0 -> f_max in a trap of stiffness k is -f_max^2 / (2 k).
    """
    _require_full_resolution(traj)
    f = traj.protocol["external_force"]
    df = np.diff(f)
    q_mid = 0.5 * (traj.q[:, :-1] + traj.q[:, 1:])
    return -(q_mid @ df)


# ---------------------------------------------------------------------------
# protocols


# a step of a stroke of `underdamped_cycle_sde`: its `stiffness_staircase`
# entry, frequency and stiffness step (128 B by tracemalloc) and q^2 sum
STAIRCASE_BYTES = 136


def stiffness_staircase(mass: float, k_start: float, k_end: float,
                        duration: float, dt: float) -> tuple:
    """Per-step stiffness schedule approximating a linear ramp.

    Step j runs at the ramp value of its left edge and a final entry
    pins k_end exactly at t = duration.  Every stiffness change
    then falls on a sampled grid point, so the jump bookkeeping in
    `work_heat` is exact for the simulated process and the endpoint free
    energies are those of the nominal ramp.
    Returns a schedule of (time, omega) pairs for `ForceModel`.
    """
    n = step_count(duration, dt)
    if n < 1:
        raise ValueError("ramp must span at least one step")
    frac = np.arange(n) / n
    k_steps = k_start + (k_end - k_start) * frac
    times = np.arange(n) * dt
    sched = [(float(t), math.sqrt(kk / mass))
             for t, kk in zip(times, k_steps)]
    sched.append((n * dt, math.sqrt(k_end / mass)))
    return tuple(sched)


def run_stiffness_ramp(mass: float, gamma: float, temperature: float,
                       k_start: float, k_end: float, tau: float, dt: float,
                       seed: int, n_traj: int) -> Trajectory:
    """Equilibrate at k_start, then ramp the stiffness linearly to k_end."""
    omega0 = math.sqrt(k_start / mass)
    force = ForceModel(mass=mass, omega0=omega0,
                       stiffness_schedule=stiffness_staircase(
                           mass, k_start, k_end, tau, dt))
    bath = BathModel(gamma=gamma, temperature=temperature)
    return simulate(force, bath, "thermal", dt, tau, seed, n_traj=n_traj)


def run_force_ramp(mass: float, omega0: float, gamma: float,
                   temperature: float, f_max: float, tau: float, dt: float,
                   seed: int, n_traj: int, reverse: bool = False) -> Trajectory:
    """Linear force ramp 0 -> f_max (or the time-reversed protocol).

    The reverse run starts from equilibrium in the tilted trap, i.e. a
    Gaussian centred on f_max / k, as required for a Crooks comparison.
    """
    k = mass * omega0**2
    if reverse:
        def f_ext(t):
            return f_max * (1.0 - t / tau)
        # as for the thermal start, trajectory i's draws depend only on
        # (seed, i)
        z = _draw_normals(trajectory_streams(
            derive_seed(seed, "reverse-start"), n_traj), 2, n_traj)
        init = (f_max / k + math.sqrt(k_B * temperature / k) * z[0],
                math.sqrt(mass * k_B * temperature) * z[1])
    else:
        def f_ext(t):
            return f_max * t / tau
        init = "thermal"
    force = ForceModel(mass=mass, omega0=omega0, external_force=f_ext)
    bath = BathModel(gamma=gamma, temperature=temperature)
    return simulate(force, bath, init, dt, tau, seed, n_traj=n_traj)


def delta_f_stiffness(k_start: float, k_end: float, temperature: float) -> float:
    """Free energy change of a harmonic trap under a stiffness change."""
    return 0.5 * k_B * temperature * math.log(k_end / k_start)


def delta_f_force_ramp(f_max: float, stiffness: float) -> float:
    """Free energy change of tilting a harmonic trap by a force f_max."""
    return -f_max**2 / (2.0 * stiffness)


# ---------------------------------------------------------------------------
# fluctuation theorems


@dataclass
class JarzynskiResult:
    estimate: float          # <exp(-beta (W - dF))>, ideally 1
    stderr: float
    mean_work: float
    delta_f: float


def jarzynski_estimate(work: np.ndarray, temperature: float,
                       delta_f: float) -> JarzynskiResult:
    """Exponential work average, with an effective-sample-size warning.

    The weights w_i = exp(-beta W_i) are dominated by rare low-work
    realizations when the protocol is fast; the effective sample size
    (sum w)^2 / sum w^2 quantifies how many trajectories actually
    contribute.
    """
    beta = 1.0 / (k_B * temperature)
    x = np.exp(-beta * (work - delta_f))
    est = float(x.mean())
    err = float(x.std(ddof=1) / math.sqrt(x.size))
    w = np.exp(-beta * (work - work.min()))
    ess = float(w.sum() ** 2 / np.sum(w**2))
    if ess < 0.01 * work.size:
        warnings.warn("exponential average dominated by few trajectories "
                      f"(effective samples {ess:.1f} of {work.size})",
                      RuntimeWarning)
    return JarzynskiResult(estimate=est, stderr=err,
                           mean_work=float(work.mean()), delta_f=delta_f)


@dataclass
class SlopeFit:
    slope: float
    intercept: float
    slope_stderr: float


# Fewest samples of each label per fitted parameter of a logistic fit
# (Peduzzi et al., J. Clin. Epidemiol. 49, 1373, 1996).
MIN_PER_PARAMETER = 10


def _logistic_fit(x, label, offset: float):
    """Maximum-likelihood fit of P(label | x) = sigma(a x + b + offset)
    by Newton steps from a = b = 0; returns (a, b, inverse Fisher
    information).  Raises ValueError when a threshold in x separates the
    boolean labels (no finite maximum exists) or the steps do not converge.
    """
    if not (x[label].min() < x[~label].max()
            and x[~label].min() < x[label].max()):
        raise ValueError("a threshold separates the labels: no finite "
                         "maximum-likelihood fit exists")
    theta = np.zeros(2)
    for _ in range(100):
        # sigma(z) = (1 + tanh(z / 2)) / 2 and sigma' = (1 - tanh^2) / 4
        t = np.tanh(0.5 * (theta[0] * x + theta[1] + offset))
        w = 0.25 * (1.0 - t * t)
        r = label - 0.5 * (1.0 + t)
        # elementwise sums: a BLAS dot product of 40 000 samples took
        # 8 ms on a 2-core x86 VM, these sums 0.03 ms
        wx = w * x
        try:
            cov = np.linalg.inv([[(wx * x).sum(), wx.sum()],
                                 [wx.sum(), w.sum()]])
        except np.linalg.LinAlgError:
            break
        step = cov @ [(r * x).sum(), r.sum()]
        theta += step
        if np.all(np.abs(step) <= 1e-10 * (1.0 + np.abs(theta))):
            return float(theta[0]), float(theta[1]), cov
    raise ValueError("the logistic fit did not converge")


def ft_slope(samples: np.ndarray) -> SlopeFit:
    """Detailed-balance slope s of ln[P(x)/P(-x)] = s x + b.

    The relation is the logistic law P(x > 0 | |x|) = sigma(s |x| + b),
    fitted by maximum likelihood to every nonzero sample; the standard
    error comes from the Fisher information.  Refuses samples with fewer
    than 2 * MIN_PER_PARAMETER of either sign.
    """
    x = np.asarray(samples, dtype=float)
    x = x[x != 0]
    positive = x > 0
    n_pos, n_neg = np.count_nonzero(positive), np.count_nonzero(~positive)
    if min(n_pos, n_neg) < 2 * MIN_PER_PARAMETER:
        raise ValueError(f"samples do not straddle zero: {n_pos} positive "
                         f"and {n_neg} negative, need "
                         f"{2 * MIN_PER_PARAMETER} of each")
    slope, intercept, cov = _logistic_fit(np.abs(x), positive, 0.0)
    return SlopeFit(slope=slope, intercept=intercept,
                    slope_stderr=math.sqrt(cov[0, 0]))


def crooks_crossing(work_forward: np.ndarray, work_reverse: np.ndarray,
                    temperature: float) -> tuple[float, float]:
    """Free energy and slope of the Crooks relation by Bennett's acceptance
    ratio (J. Comput. Phys. 22, 245, 1976) in maximum-likelihood form.

    Pools beta W_F and -beta W_R, labels the forward ones and fits
    P(forward | beta W) = sigma(a beta W + b + ln(n_F / n_R)) (Shirts,
    Bair, Hooker & Pande, PRL 91, 140601, 2003); the Crooks relation
    ln[P_F(W) / P_R(-W)] = beta (W - dF) is a = 1, b = -beta dF.
    Returns (dF_estimate, a) = (-b / (a beta), a).
    """
    beta = 1.0 / (k_B * temperature)
    wf = np.asarray(work_forward, dtype=float)
    wr = np.asarray(work_reverse, dtype=float)
    a, b, _ = _logistic_fit(beta * np.concatenate([wf, -wr]),
                            np.arange(wf.size + wr.size) < wf.size,
                            math.log(wf.size / wr.size))
    return float(-b / (a * beta)), a


# ---------------------------------------------------------------------------
# entropy bookkeeping for relaxation from a driven steady state


def stochastic_entropy_change(e0: np.ndarray, e_t: np.ndarray,
                              dist) -> np.ndarray:
    """Change of -ln P0(E) along a path, with the initial steady state P0
    as the reference distribution (in units of k_B)."""
    return dist.log_pdf(np.asarray(e0)) - dist.log_pdf(np.asarray(e_t))


def total_entropy_relaxation(e0: np.ndarray, e_t: np.ndarray,
                             dist) -> np.ndarray:
    """Total entropy production of a free relaxation step (units of k_B).

    Combines the bath piece beta Q with Q = -(E_t - E_0) and the system
    piece from `stochastic_entropy_change`; for the steady state
    exp(-beta[(1+s) E + c E^2]) the potential-shape terms cancel and the
    total reduces to beta [s (E_t - E_0) + c (E_t^2 - E_0^2)].
    """
    beta = dist.beta
    s = dist.linear - 1.0
    c = dist.quadratic
    e0 = np.asarray(e0, dtype=float)
    e_t = np.asarray(e_t, dtype=float)
    return beta * (s * (e_t - e0) + c * (e_t**2 - e0**2))


def relaxation_entropy_samples(dist, gamma: float, t_relax: float,
                               seed: int, n_traj: int) -> np.ndarray:
    """Entropy production of free relaxation from a driven steady state,
    in units of k_B, one sample per trajectory.

    Draws initial energies from `dist` (an `analysis.SteadyStateDistribution`),
    relaxes them under the undriven energy dynamics at the bath
    temperature, and evaluates the path entropy production with the
    initial distribution as reference.  Only the endpoint is needed, so
    it is drawn in one exact `energy_transition` over `t_relax`.
    """
    if gamma <= 0:
        raise ValueError("energy dynamics require gamma > 0")
    rng = np.random.default_rng(derive_seed(seed, "relax-start"))
    e0 = dist.sample(n_traj, rng)
    kt = k_B * dist.temperature
    streams = trajectory_streams(derive_seed(seed, "relax-end"), n_traj)
    e_t = kt * energy_transition(e0 / kt, gamma * t_relax,
                                 _draw_normals(streams, 2, n_traj))
    heat = -(e_t - e0)
    return dist.beta * heat + stochastic_entropy_change(e0, e_t, dist)


def transient_ft_bytes(n_traj: int) -> dict:
    """Bytes, by name, that `transient_ft_check` holds at once: the noise
    of its one exact transition and 9 float64 per trajectory (tracemalloc,
    40000: 4.8 beside the noise in the transition, 9.4 in the fit)."""
    return {**noise_bytes(n_traj, 2), "working vectors": 72 * n_traj}


@dataclass
class TransientFTReport:
    applicable: bool
    fit: SlopeFit | None
    samples: np.ndarray | None    # entropy production, units of k_B
    note: str = ""


def transient_ft_check(dist, gamma: float, t_relax: float,
                       seed: int, n_traj: int) -> TransientFTReport:
    """Detailed fluctuation theorem check for relaxation from `dist`.

    An equilibrium start makes the entropy production identically zero,
    in which case the check is flagged not applicable instead of fitted.
    """
    if dist.linear == 1.0 and dist.quadratic == 0.0:
        return TransientFTReport(applicable=False, fit=None, samples=None,
                                 note="equilibrium start: entropy production "
                                      "is degenerate at zero")
    samples = relaxation_entropy_samples(dist, gamma, t_relax, seed, n_traj)
    fit = ft_slope(samples)
    return TransientFTReport(applicable=True, fit=fit, samples=samples)


@dataclass
class DrivenFTReport:
    jarzynski: JarzynskiResult
    crooks_delta_f: float
    crooks_slope: float
    delta_f: float
    work_forward: np.ndarray


def differential_ft_driven(mass: float, omega0: float, gamma: float,
                           temperature: float, f_max: float, tau: float,
                           dt: float, seed: int, n_traj: int) -> DrivenFTReport:
    """Work fluctuation theorems for a linear force ramp on a harmonic trap.

    Uses the tilted-potential work convention (see
    `work_conjugate_force`), for which the free energy change is
    -f_max^2 / (2 k); reports the Jarzynski average and the
    Crooks fit of `crooks_crossing`.
    """
    k = mass * omega0**2
    df = delta_f_force_ramp(f_max, k)
    fwd = run_force_ramp(mass, omega0, gamma, temperature, f_max, tau, dt,
                         seed, n_traj)
    rev = run_force_ramp(mass, omega0, gamma, temperature, f_max, tau, dt,
                         derive_seed(seed, "reverse-ramp"), n_traj,
                         reverse=True)
    w_f = work_conjugate_force(fwd)
    w_r = work_conjugate_force(rev)
    jr = jarzynski_estimate(w_f, temperature, df)
    dfe, slope = crooks_crossing(w_f, w_r, temperature)
    return DrivenFTReport(jarzynski=jr, crooks_delta_f=dfe,
                          crooks_slope=slope, delta_f=df,
                          work_forward=w_f)


# ---------------------------------------------------------------------------
# cyclic heat engine


@dataclass(frozen=True)
class EngineCycleSpec:
    """Two-isotherm stiffness cycle between a hot and a cold bath.

    The hot stroke expands the trap (k_max -> k_min) at `t_hot`, the
    cold stroke recompresses it (k_min -> k_max) at `t_cold`; the bath
    switches between strokes are instantaneous.
    """

    mass: float
    gamma: float
    k_max: float
    k_min: float
    t_hot: float
    t_cold: float
    tau_hot: float
    tau_cold: float

    def __post_init__(self):
        if not (self.k_max > self.k_min > 0):
            raise ValueError("need k_max > k_min > 0")
        if not (self.t_hot > self.t_cold > 0):
            raise ValueError("need t_hot > t_cold > 0")
        if self.tau_hot <= 0 or self.tau_cold <= 0:
            raise ValueError("stroke durations must be positive")

    @property
    def period(self) -> float:
        return self.tau_hot + self.tau_cold

    @property
    def eta_carnot(self) -> float:
        return 1.0 - self.t_cold / self.t_hot

    @property
    def eta_curzon_ahlborn(self) -> float:
        return 1.0 - math.sqrt(self.t_cold / self.t_hot)

    def strokes(self) -> tuple:
        """(duration, k_start, k_end, temperature) per stroke."""
        return ((self.tau_hot, self.k_max, self.k_min, self.t_hot),
                (self.tau_cold, self.k_min, self.k_max, self.t_cold))


@dataclass
class EngineResult:
    work_strokes: tuple          # work done on the particle, per stroke (J)
    heat_strokes: tuple          # heat to the bath, per stroke (J)
    work_output: float           # net extracted work per cycle (J)
    heat_in: float               # heat drawn from the hot bath (J)
    efficiency: float
    power: float                 # W
    eta_carnot: float
    eta_curzon_ahlborn: float
    work_closed_form: tuple = ()  # per-stroke check values, if available
    detail: dict = field(default_factory=dict)


# Cycles `underdamped_cycle_sde` runs to reach the periodic state, and the
# cycles it then averages over.
N_TRANSIENT = 4
N_CYCLES = 6


def _stroke_k(spec_k0, spec_k1, tau):
    def k_of(t):
        return spec_k0 + (spec_k1 - spec_k0) * t / tau
    return k_of


def _periodic_state(spec: EngineCycleSpec, rhs_of, dim: int,
                    n_per_stroke: int):
    """Periodic state of the linear moment ODE rhs_of(k_of, temp)(t, y).

    The one-cycle map is affine, y -> A y + b, so its fixed point follows
    from dim + 1 propagations and one linear solve.  Returns the fixed
    point, the state one cycle later, and that cycle's strokes on a dense
    grid as (t, y, k_of, kdot, temp).
    """
    from scipy.integrate import solve_ivp

    def propagate(y0, dense=False):
        y = np.asarray(y0, dtype=float)
        traces = []
        for tau, k0, k1, temp in spec.strokes():
            k_of = _stroke_k(k0, k1, tau)
            t_eval = np.linspace(0.0, tau, n_per_stroke) if dense else None
            sol = solve_ivp(rhs_of(k_of, temp), (0.0, tau), y, rtol=1e-11,
                            atol=1e-30, t_eval=t_eval, method="DOP853")
            y = sol.y[:, -1].copy()
            if dense:
                traces.append((sol.t, sol.y, k_of, (k1 - k0) / tau, temp))
        return y, traces

    b, _ = propagate(np.zeros(dim))
    amat = np.column_stack([propagate(e)[0] - b for e in np.eye(dim)])
    y_star = np.linalg.solve(np.eye(dim) - amat, b)
    y_end, traces = propagate(y_star, dense=True)
    return y_star, y_end, traces


def _engine_result(spec: EngineCycleSpec, works, heats, kinetic: float = 0.0,
                   **fields) -> EngineResult:
    """Cycle totals from per-stroke work and heat, hot stroke first;
    `kinetic` is hot-bath heat drawn outside the strokes."""
    w_out = -sum(works)
    q_in = -heats[0] + kinetic
    return EngineResult(work_strokes=tuple(works), heat_strokes=tuple(heats),
                        work_output=w_out, heat_in=q_in,
                        efficiency=w_out / q_in if q_in > 0 else math.nan,
                        power=w_out / spec.period,
                        eta_carnot=spec.eta_carnot,
                        eta_curzon_ahlborn=spec.eta_curzon_ahlborn, **fields)


def overdamped_cycle(spec: EngineCycleSpec, n_per_stroke: int = 4000,
                     include_kinetic: bool = True) -> EngineResult:
    """Periodic-state energetics of the cycle in the overdamped limit.

    The position variance obeys a linear ODE, so the periodic state is
    the fixed point of the affine one-cycle map, found from two
    propagations.  Work per stroke is evaluated twice: by quadrature of
    kdot sigma / 2 and from the equivalent closed form

        (1/4 mu) int sigmadot^2 / sigma dt
        - (k_B T / 2) [ln sigma] + [k sigma] / 2,

    with mu = 1/(m gamma).  With `include_kinetic`, the instantaneous
    re-thermalization of the velocity at each bath switch contributes
    k_B (T_hot - T_cold) / 2 to the heat drawn from the hot bath.
    """
    from scipy.integrate import simpson

    mu = 1.0 / (spec.mass * spec.gamma)

    def rhs_of(k_of, temp):
        def rhs(t, y):
            return [-2.0 * mu * k_of(t) * y[0] + 2.0 * mu * k_B * temp]
        return rhs

    y_star, y_end, traces = _periodic_state(spec, rhs_of, 1, n_per_stroke)
    works, works_cf, heats = [], [], []
    for t, y, k_of, kdot, temp in traces:
        sig = y[0]
        k_vals = k_of(t)
        w_quad = simpson(0.5 * kdot * sig, x=t)
        sigdot = -2.0 * mu * k_vals * sig + 2.0 * mu * k_B * temp
        w_cf = (simpson(sigdot**2 / sig, x=t) / (4.0 * mu)
                - 0.5 * k_B * temp * math.log(sig[-1] / sig[0])
                + 0.5 * (k_vals[-1] * sig[-1] - k_vals[0] * sig[0]))
        de = 0.5 * (k_vals[-1] * sig[-1] - k_vals[0] * sig[0])
        works.append(w_quad)
        works_cf.append(w_cf)
        heats.append(w_quad - de)

    kinetic = 0.5 * k_B * (spec.t_hot - spec.t_cold) if include_kinetic else 0.0
    return _engine_result(spec, works, heats, kinetic,
                          work_closed_form=tuple(works_cf),
                          detail={"sigma_start": float(y_star[0]),
                                  "sigma_end": float(y_end[0])})


def underdamped_cycle_moments(spec: EngineCycleSpec,
                              n_per_stroke: int = 4000) -> EngineResult:
    """Cycle energetics from the exact second-moment equations.

    Propagates (sigma_q, cov_qv, sigma_v); the map over one cycle is
    affine in this state, so the periodic point follows from four
    propagations.  No kinetic correction is needed here: the velocity
    variance relaxes continuously through the bath switches.
    """
    from scipy.integrate import simpson

    m, gam = spec.mass, spec.gamma

    def rhs_of(k_of, temp):
        def rhs(t, y):
            sq, c, sv = y
            kk = k_of(t)
            return [2.0 * c,
                    sv - (kk / m) * sq - gam * c,
                    -2.0 * gam * sv - 2.0 * (kk / m) * c
                    + 2.0 * gam * k_B * temp / m]
        return rhs

    y_star, y_end, traces = _periodic_state(spec, rhs_of, 3, n_per_stroke)
    works, heats = [], []
    for t, y, k_of, kdot, temp in traces:
        sq, sv = y[0], y[2]
        w = simpson(0.5 * kdot * sq, x=t)
        e = 0.5 * m * sv + 0.5 * k_of(t) * sq
        works.append(w)
        heats.append(w - (e[-1] - e[0]))
    return _engine_result(spec, works, heats,
                          detail={"state_start": y_star, "state_end": y_end})


def underdamped_cycle_sde_bytes(tau_hot: float, tau_cold: float, dt: float,
                                n_traj: int) -> dict:
    """Bytes, by name, that `underdamped_cycle_sde` holds at once: the run
    of its longer stroke, reading its staircase, and the steps of both
    strokes."""
    n_hot, n_cold = step_count(tau_hot, dt), step_count(tau_cold, dt)
    return {**simulate_bytes(dt, max(tau_hot, tau_cold), n_traj,
                             switches=max(n_hot, n_cold) + 1),
            "stiffness staircases": STAIRCASE_BYTES * (n_hot + n_cold + 2)}


def underdamped_cycle_sde(spec: EngineCycleSpec, dt: float, seed: int,
                          n_traj: int) -> EngineResult:
    """Cycle energetics from a Langevin ensemble.

    Runs N_TRANSIENT cycles to reach the periodic state, then averages
    per-stroke work and heat over the next N_CYCLES cycles.  Stroke ramps
    are staircases on the integration grid, so the work is a sum of
    exact stiffness-jump terms, (1/2) sum_j dk_j <q_j^2>: each stroke's
    observer sums q^2 over the ensemble per sample, and the stroke
    returns its final state, which starts the next one.  The heat is the
    work less the mean energy change between the stroke's end states.
    """
    m = spec.mass
    strokes = []
    for tau, k0, k1, temp in spec.strokes():
        schedule = stiffness_staircase(m, k0, k1, tau, dt)
        force = ForceModel(mass=m, omega0=math.sqrt(k0 / m),
                           stiffness_schedule=schedule)
        # the staircase sets the trap frequency of every sample
        omega = np.array([w for _, w in schedule])
        strokes.append((tau, force, BathModel(spec.gamma, temp), omega,
                        np.diff(m * omega**2)))
    q = p = None
    works = np.zeros((N_CYCLES, 2))
    heats = np.zeros((N_CYCLES, 2))
    for cyc in range(N_TRANSIENT + N_CYCLES):
        for idx, (tau, force, bath, omega, dk) in enumerate(strokes):
            q2_sum = np.empty(len(omega))

            def square_sum(i0, rows, p_rows):
                np.einsum("ij,ij->i", rows, rows,
                          out=q2_sum[i0:i0 + len(rows)])

            init = "thermal" if q is None else (q, p)
            q_end, p_end = simulate(
                force, bath, init, dt, tau,
                derive_seed(seed, "engine-stroke", cyc, idx), n_traj=n_traj,
                observe=square_sum)
            if cyc >= N_TRANSIENT:
                work = 0.5 * float(q2_sum[1:] @ dk) / n_traj
                delta_e = (mechanical_energy(force, q_end, p_end, omega[-1])
                           - mechanical_energy(force, q, p, omega[0]))
                works[cyc - N_TRANSIENT, idx] = work
                heats[cyc - N_TRANSIENT, idx] = work - float(delta_e.mean())
            q, p = q_end, p_end

    stderr = works.sum(axis=1).std(ddof=1) / math.sqrt(N_CYCLES)
    return _engine_result(spec, works.mean(axis=0), heats.mean(axis=0),
                          detail={"work_stderr": float(stderr),
                                  "n_cycles": N_CYCLES})

