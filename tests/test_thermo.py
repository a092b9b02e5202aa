"""Work/heat bookkeeping, fluctuation relations, and the stiffness engine."""

import math

import numpy as np
import pytest

from levitherm.constants import k_B
from levitherm import analysis, thermo
from levitherm.langevin import BathModel, ForceModel, derive_seed, simulate
from levitherm.thermo import EngineCycleSpec, ProtocolError

MASS = 1e-17
OMEGA0 = 2.0 * math.pi * 1e5
K0 = MASS * OMEGA0**2
KT300 = k_B * 300.0


# ---------------------------------------------------------------------------
# protocols and bookkeeping


def test_staircase_left_edge_and_endpoint_pin():
    dt = 1e-7
    tau = 1e-5
    sched = thermo.stiffness_staircase(MASS, K0, 2 * K0, tau, dt)
    times = np.array([t for t, _ in sched])
    k_vals = MASS * np.array([w for _, w in sched]) ** 2
    n = int(round(tau / dt))
    assert len(sched) == n + 1
    assert times[0] == 0.0
    assert times[-1] == pytest.approx(tau, rel=1e-12)
    # left-edge rule: step j holds the ramp value at its start
    expect = K0 + (2 * K0 - K0) * np.arange(n) / n
    assert np.allclose(k_vals[:-1], expect, rtol=1e-12)
    assert k_vals[-1] == pytest.approx(2 * K0, rel=1e-12)


def test_work_heat_requires_full_resolution():
    force = ForceModel(mass=MASS, omega0=OMEGA0)
    bath = BathModel(gamma=2e4, temperature=300.0)
    traj = simulate(force, bath, "thermal", 1e-7, 1e-4, seed=3, n_traj=4,
                    record_every=10)
    with pytest.raises(ProtocolError):
        thermo.work_heat(traj)


def test_single_stiffness_jump_work():
    # one instantaneous stiffness jump: W = dk q^2 / 2 at the jump sample
    dt = 1e-7
    t_jump = 200 * dt
    sched = ((0.0, OMEGA0), (t_jump, math.sqrt(2.0) * OMEGA0))
    force = ForceModel(mass=MASS, omega0=OMEGA0, stiffness_schedule=sched)
    bath = BathModel(gamma=2e4, temperature=300.0)
    traj = simulate(force, bath, "thermal", dt, 4e-5, seed=9, n_traj=16)
    rec = thermo.work_heat(traj)
    i = int(np.argmax(traj.protocol["omega"] > OMEGA0))
    expect = 0.5 * K0 * traj.q[:, i] ** 2
    assert np.allclose(rec.work_stiffness, expect, rtol=1e-10)
    assert np.allclose(rec.work_force, 0.0)


def test_first_law_residual_is_tiny():
    traj = thermo.run_stiffness_ramp(MASS, 2e5, 300.0, K0, 2 * K0,
                                     tau=1e-4, dt=1e-7, seed=4, n_traj=32)
    rec = thermo.work_heat(traj)
    assert np.abs(rec.first_law_residual).max() < 1e-12 * KT300


def test_work_conjugate_force_boundary_identity():
    # sum(f_mid dq) + sum(q_mid df) telescopes to [f q] exactly
    def f_ext(t):
        return 2e-15 * t / 1e-4

    force = ForceModel(mass=MASS, omega0=OMEGA0, external_force=f_ext)
    bath = BathModel(gamma=2e4, temperature=300.0)
    traj = simulate(force, bath, "thermal", 1e-7, 1e-4, seed=21, n_traj=8)
    rec = thermo.work_heat(traj)
    w_conj = thermo.work_conjugate_force(traj)
    f = traj.protocol["external_force"]
    boundary = f[-1] * traj.q[:, -1] - f[0] * traj.q[:, 0]
    assert np.allclose(w_conj, rec.work_force - boundary, rtol=1e-10,
                       atol=1e-30)


# ---------------------------------------------------------------------------
# free energies and work theorems


def test_delta_f_closed_forms():
    assert thermo.delta_f_stiffness(K0, 2 * K0, 300.0) == pytest.approx(
        0.5 * KT300 * math.log(2.0), rel=1e-12)
    assert thermo.delta_f_force_ramp(2e-15, K0) == pytest.approx(
        -(2e-15) ** 2 / (2 * K0), rel=1e-12)


def test_quasistatic_ramp_mean_work_is_delta_f():
    traj = thermo.run_stiffness_ramp(MASS, 2e5, 300.0, K0, 2 * K0,
                                     tau=1e-3, dt=1e-7, seed=11, n_traj=400)
    rec = thermo.work_heat(traj)
    df = thermo.delta_f_stiffness(K0, 2 * K0, 300.0)
    assert rec.mean_work == pytest.approx(df, rel=0.03)


def test_jarzynski_fast_stiffness_ramp():
    traj = thermo.run_stiffness_ramp(MASS, 2e5, 300.0, K0, 2 * K0,
                                     tau=2e-4, dt=1e-7, seed=12, n_traj=4000)
    rec = thermo.work_heat(traj)
    df = thermo.delta_f_stiffness(K0, 2 * K0, 300.0)
    jr = thermo.jarzynski_estimate(rec.work, 300.0, df)
    assert abs(jr.estimate - 1.0) < 4 * jr.stderr + 0.01
    # second law: mean dissipated work is positive for the finite-time ramp
    assert jr.mean_work > df


def test_jarzynski_warns_on_poor_sampling():
    rng = np.random.default_rng(0)
    work = KT300 * (20.0 + 15.0 * rng.standard_normal(500))
    with pytest.warns(RuntimeWarning, match="effective samples"):
        thermo.jarzynski_estimate(work, 300.0, 0.0)


def test_ft_slope_gaussian_oracle():
    # for x ~ N(mu, sigma^2), ln[P(x)/P(-x)] = (2 mu / sigma^2) x
    rng = np.random.default_rng(3)
    mu, sigma = 1.0, 2.0
    fit = thermo.ft_slope(mu + sigma * rng.standard_normal(200_000))
    assert fit.slope == pytest.approx(2 * mu / sigma**2, rel=0.05)
    assert abs(fit.slope - 2 * mu / sigma**2) < 4 * fit.slope_stderr
    assert abs(fit.intercept) < 0.05


def test_ft_slope_needs_symmetric_support():
    with pytest.raises(ValueError, match="straddle"):
        thermo.ft_slope(np.linspace(0.5, 3.0, 1000))


def test_ft_slope_needs_20_samples_of_each_sign():
    rng = np.random.default_rng(11)
    positive = rng.exponential(1.0, 200)
    negative = -rng.exponential(1.0, 20)
    with pytest.raises(ValueError, match="straddle") as exc:
        thermo.ft_slope(np.concatenate([positive, negative[:19]]))
    assert "200 positive and 19 negative" in str(exc.value)
    fit = thermo.ft_slope(np.concatenate([positive, negative]))
    assert math.isfinite(fit.slope) and 0 < fit.slope_stderr < math.inf


def test_crooks_crossing_refuses_work_that_does_not_overlap():
    # W_F in [1, 2] kT and -W_R in [-2, -1] kT: a threshold separates the
    # forward from the reversed samples, so no finite fit exists
    rng = np.random.default_rng(12)
    w_f = 1.0 + rng.uniform(size=500)
    w_r = 1.0 + rng.uniform(size=500)
    with pytest.raises(ValueError, match="separates"):
        thermo.crooks_crossing(w_f, w_r, 1.0 / k_B)


def test_crooks_crossing_gaussian_oracle():
    # Gaussian work pair satisfying the detailed relation with kT = 1:
    # mu_f = dF + sigma^2/2, mu_r = -dF + sigma^2/2
    temperature = 1.0 / k_B
    d_f, sigma = 0.3, 1.0
    rng = np.random.default_rng(8)
    w_f = d_f + 0.5 * sigma**2 + sigma * rng.standard_normal(200_000)
    w_r = -d_f + 0.5 * sigma**2 + sigma * rng.standard_normal(200_000)
    d_f_est, slope = thermo.crooks_crossing(w_f, w_r, temperature)
    assert d_f_est == pytest.approx(d_f, abs=0.02)
    assert slope == pytest.approx(1.0, rel=0.03)


def test_differential_ft_driven_force_ramp():
    # linear force ramp over one period at Q = pi: dF = -4 kT and, from the
    # mean equation of motion, about 0.5 kT of dissipated work
    f_max = math.sqrt(8.0 * KT300 * K0)
    rep = thermo.differential_ft_driven(MASS, OMEGA0, 2e5, 300.0, f_max,
                                        tau=1e-5, dt=1e-7, seed=31,
                                        n_traj=20_000)
    df = thermo.delta_f_force_ramp(f_max, K0)
    assert rep.delta_f == df
    assert abs(rep.jarzynski.estimate - 1.0) < 4 * rep.jarzynski.stderr
    # The Crooks fit weights each pooled sample by sigma (1 - sigma); with
    # equal counts and the reverse density exp(-x) times the forward one,
    # x = (W - dF) / kT, these weights sum over both directions to the
    # overlap sum_i 1 / (1 + exp(x_i)) over forward samples.  The inverse
    # Fisher information then gives slope error 1 / sqrt(S_xx) and
    # crossing error sqrt(1 / sum + x_mean^2 / S_xx) kT.
    x = (rep.work_forward - df) / KT300
    w = 1.0 / (1.0 + np.exp(x))
    x_mean = np.sum(w * x) / w.sum()
    s_xx = np.sum(w * (x - x_mean) ** 2)
    se_df = KT300 * math.sqrt(1.0 / w.sum() + x_mean**2 / s_xx)
    assert abs(rep.crooks_delta_f - df) < 4 * se_df
    assert abs(rep.crooks_slope - 1.0) < 4 / math.sqrt(s_xx)


def test_reverse_ramp_start_depends_only_on_seed_and_index():
    # a smaller ensemble is a prefix of a larger one, starting state
    # included, within one noise stream block and across blocks
    f_max = math.sqrt(8.0 * KT300 * K0)
    small, large = (thermo.run_force_ramp(MASS, OMEGA0, 2e5, 300.0, f_max,
                                          1e-6, 1e-7, seed=5, n_traj=n,
                                          reverse=True) for n in (70, 130))
    assert np.array_equal(small.q, large.q[:70])
    assert np.array_equal(small.p, large.p[:70])


# ---------------------------------------------------------------------------
# entropy production of relaxation


def make_feedback_dist():
    return analysis.steady_state_distribution(300.0, 2000.0, OMEGA0, MASS,
                                              eta=5e12)


def test_entropy_relations_consistency():
    dist = make_feedback_dist()
    rng = np.random.default_rng(2)
    e0 = dist.sample(500, rng)
    e_t = dist.sample(500, rng)
    total = thermo.total_entropy_relaxation(e0, e_t, dist)
    # antisymmetric under swapping endpoints
    assert np.allclose(thermo.total_entropy_relaxation(e_t, e0, dist), -total)
    assert np.allclose(thermo.stochastic_entropy_change(e0, e0, dist), 0.0)


def test_equilibrium_start_has_zero_entropy_production():
    eq = analysis.steady_state_distribution(300.0, 2000.0, OMEGA0, MASS)
    e = np.array([0.5, 1.0, 3.0]) * KT300
    assert np.allclose(thermo.total_entropy_relaxation(e, 2 * e, eq), 0.0)
    rep = thermo.transient_ft_check(eq, 2000.0, 5e-4, seed=1,
                                    n_traj=10)
    assert not rep.applicable
    assert rep.fit is None


def test_transient_ft_feedback_relaxation():
    rep = thermo.transient_ft_check(make_feedback_dist(), 2000.0, 5e-4,
                                    seed=5, n_traj=40_000)
    assert rep.applicable
    assert abs(rep.fit.slope - 1.0) < 0.12
    # second law on average
    assert rep.samples.mean() > 0.0


# ---------------------------------------------------------------------------
# engine cycle


def make_engine_spec(**kw):
    base = dict(mass=MASS, gamma=1e5, k_max=5e-8, k_min=2e-8, t_hot=600.0,
                t_cold=300.0, tau_hot=5e-3, tau_cold=5e-3)
    base.update(kw)
    return EngineCycleSpec(**base)


def test_engine_spec_validation():
    with pytest.raises(ValueError):
        make_engine_spec(k_min=1e-7)
    with pytest.raises(ValueError):
        make_engine_spec(t_hot=100.0)
    with pytest.raises(ValueError):
        make_engine_spec(tau_cold=0.0)
    spec = make_engine_spec()
    assert spec.eta_carnot == pytest.approx(0.5)
    assert spec.eta_curzon_ahlborn == pytest.approx(1 - math.sqrt(0.5))


def test_overdamped_quadrature_matches_closed_form():
    res = thermo.overdamped_cycle(make_engine_spec())
    for w, w_cf in zip(res.work_strokes, res.work_closed_form):
        assert w == pytest.approx(w_cf, rel=5e-3)
    assert res.work_output > 0
    assert 0 < res.efficiency <= res.eta_carnot


def test_kinetic_switch_heat():
    spec = make_engine_spec()
    with_k = thermo.overdamped_cycle(spec, include_kinetic=True)
    without = thermo.overdamped_cycle(spec, include_kinetic=False)
    assert with_k.heat_in - without.heat_in == pytest.approx(
        0.5 * k_B * (spec.t_hot - spec.t_cold), rel=1e-9)
    assert with_k.efficiency < without.efficiency


def test_quasistatic_efficiency_closed_form():
    # slow strokes: eta -> dT ln r / (T_hot ln r + dT), r = k_max / k_min
    r = 10.0
    spec = make_engine_spec(k_min=5e-8 / r, tau_hot=0.2, tau_cold=0.2)
    res = thermo.overdamped_cycle(spec, include_kinetic=False)
    pred = (300.0 * math.log(r)) / (600.0 * math.log(r) + 300.0)
    assert res.efficiency == pytest.approx(pred, rel=0.01)
    assert res.efficiency < res.eta_carnot


def test_underdamped_moments_match_overdamped_at_strong_damping():
    om = math.sqrt(5e-8 / MASS)
    spec = make_engine_spec(gamma=10 * om, tau_hot=1e-3, tau_cold=1e-3)
    od = thermo.overdamped_cycle(spec, n_per_stroke=1500)
    ud = thermo.underdamped_cycle_moments(spec, n_per_stroke=1500)
    assert od.work_output == pytest.approx(ud.work_output, rel=0.02)
    assert od.heat_in == pytest.approx(ud.heat_in, rel=0.02)
    assert ud.efficiency <= ud.eta_carnot


def test_engine_periodic_state_is_fixed_point():
    res = thermo.overdamped_cycle(make_engine_spec())
    assert res.detail["sigma_end"] == pytest.approx(
        res.detail["sigma_start"], rel=1e-8)
    ud = thermo.underdamped_cycle_moments(make_engine_spec())
    assert np.allclose(ud.detail["state_end"], ud.detail["state_start"],
                       rtol=1e-7)


def _recorded_cycle_sde(spec, dt, seed, n_traj):
    """`underdamped_cycle_sde` with every stroke recorded and booked by
    `work_heat`: the mean work and heat per stroke of each averaged
    cycle."""
    baths = (BathModel(spec.gamma, spec.t_hot),
             BathModel(spec.gamma, spec.t_cold))
    q = p = None
    works, heats = [], []
    for cyc in range(thermo.N_TRANSIENT + thermo.N_CYCLES):
        for idx, (tau, k0, k1, _) in enumerate(spec.strokes()):
            force = ForceModel(
                mass=spec.mass, omega0=math.sqrt(k0 / spec.mass),
                stiffness_schedule=thermo.stiffness_staircase(
                    spec.mass, k0, k1, tau, dt))
            traj = simulate(force, baths[idx],
                            "thermal" if q is None else (q, p), dt, tau,
                            derive_seed(seed, "engine-stroke", cyc, idx),
                            n_traj=n_traj)
            q, p = traj.q[:, -1].copy(), traj.p[:, -1].copy()
            if cyc >= thermo.N_TRANSIENT:
                rec = thermo.work_heat(traj)
                works.append(rec.mean_work)
                heats.append(rec.mean_work - float(rec.delta_energy.mean()))
    return (np.reshape(works, (thermo.N_CYCLES, 2)),
            np.reshape(heats, (thermo.N_CYCLES, 2)))


def test_observed_engine_strokes_match_recorded_work_heat():
    # the stroke observers sum q^2 per sample in the step loop; the work
    # and heat equal those of recorded strokes booked by work_heat up to
    # summation order
    spec = make_engine_spec(gamma=2.0 * math.pi * 5e3, tau_hot=2e-4,
                            tau_cold=2e-4)
    res = thermo.underdamped_cycle_sde(spec, 4e-7, 5, 70)
    works, heats = _recorded_cycle_sde(spec, 4e-7, 5, 70)
    np.testing.assert_allclose(res.work_strokes, works.mean(axis=0),
                               rtol=1e-12)
    np.testing.assert_allclose(res.heat_strokes, heats.mean(axis=0),
                               rtol=1e-12)
    assert res.detail["work_stderr"] == pytest.approx(
        works.sum(axis=1).std(ddof=1) / math.sqrt(thermo.N_CYCLES),
        rel=1e-9)
