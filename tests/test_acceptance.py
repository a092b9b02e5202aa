"""End-to-end checks of simulated physics against closed forms.

Each test freezes a seeded recipe that was verified to pass with margin;
tolerances are the acceptance targets, not the observed deviations.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy import optimize, stats

from levitherm.constants import k_B
from levitherm import analysis, environment, kramers, thermo
from levitherm.langevin import (BathModel, ForceModel, Modulation, simulate,
                                simulate_energy_sde)
from levitherm.particles import silica_sphere

MASS = 1e-17
OMEGA0 = 2.0 * math.pi * 1e5
KT300 = k_B * 300.0


# ---------------------------------------------------------------------------
# 1 + 2: equilibrium statistics and correlation functions share one ensemble


@pytest.fixture(scope="module")
def equilibrium_ensemble():
    # Q = 10, 2000 trajectories, 200 periods
    force = ForceModel(mass=MASS, omega0=OMEGA0)
    bath = BathModel(gamma=OMEGA0 / 10.0, temperature=300.0)
    t0 = time.time()
    traj = simulate(force, bath, "thermal", 2e-7, 2e-3, seed=101,
                    n_traj=2000)
    return traj, time.time() - t0


def test_equilibrium_variance_and_equipartition(equilibrium_ensemble):
    traj, elapsed = equilibrium_ensemble
    q2 = float(np.mean(traj.q**2))
    p2 = float(np.mean(traj.p**2))
    assert q2 == pytest.approx(KT300 / (MASS * OMEGA0**2), rel=0.02)
    assert p2 / MASS == pytest.approx(MASS * OMEGA0**2 * q2, rel=0.02)
    assert elapsed < 60.0


def test_correlation_functions_match_closed_forms(equilibrium_ensemble):
    traj, _ = equilibrium_ensemble
    gamma = OMEGA0 / 10.0
    max_lag = int(round(5.0 / gamma / 2e-7))
    n_groups = 20
    cvv_g, cqv_g = [], []
    for g in range(n_groups):
        sub = replace(traj, q=traj.q[g::n_groups], p=traj.p[g::n_groups],
                      energy=traj.energy[g::n_groups])
        lags, _, cvv, cqv = analysis.autocorrelations(sub, max_lag)
        cvv_g.append(cvv)
        cqv_g.append(cqv)
    cvv_g, cqv_g = np.array(cvv_g), np.array(cqv_g)
    sem = math.sqrt(n_groups)
    cvv_th = analysis.autocorrelation_vv(lags, OMEGA0, gamma, 300.0, MASS)
    cqv_th = analysis.autocorrelation_qv(lags, OMEGA0, gamma, 300.0, MASS)
    z_vv = np.abs(cvv_g.mean(0) - cvv_th) / (cvv_g.std(0, ddof=1) / sem)
    z_qv = np.abs(cqv_g.mean(0) - cqv_th) / (cqv_g.std(0, ddof=1) / sem)
    assert float(z_vv.max()) < 3.0
    assert float(z_qv.max()) < 3.0


# ---------------------------------------------------------------------------
# 3: mean-square displacement across the ballistic-to-diffusive crossover


def test_msd_free_particle_crossover():
    gamma = 1e4
    n = 8000
    rng = np.random.default_rng(5)
    p0 = math.sqrt(MASS * KT300) * rng.standard_normal(n)
    force = ForceModel(mass=MASS, omega0=0.0)
    traj = simulate(force, BathModel(gamma=gamma, temperature=300.0),
                    (np.zeros(n), p0), 1e-6, 2e-3, seed=33, n_traj=n,
                    record_every=4)
    msd = np.mean((traj.q - traj.q[:, :1])**2, axis=0)
    t = traj.time - traj.time[0]
    theory = analysis.msd_free(t, gamma, 300.0, MASS)
    # crossover time 1/gamma = 1e-4 s sits well inside the 2 ms window
    rel = np.abs(msd[1:] / theory[1:] - 1.0)
    assert float(rel.max()) < 0.05


# ---------------------------------------------------------------------------
# 4: spectral estimation and Lorentzian parameter recovery


@pytest.mark.parametrize("q_factor,dt,duration,n_segments,seed", [
    (0.5, 5e-8, 5e-3, 16, 51),
    (10.0, 2e-7, 2e-2, 32, 52),
    (100.0, 2e-7, 4e-2, 16, 53),
])
def test_lorentzian_fit_recovers_parameters(q_factor, dt, duration,
                                            n_segments, seed):
    gamma = OMEGA0 / q_factor
    force = ForceModel(mass=MASS, omega0=OMEGA0)
    bath = BathModel(gamma=gamma, temperature=300.0)
    traj = simulate(force, bath, "thermal", dt, duration, seed, n_traj=16)
    spec = analysis.psd(traj.q, traj.time[1] - traj.time[0],
                        n_segments=n_segments)
    fit = analysis.lorentzian_fit(spec, MASS)
    assert fit.omega0 == pytest.approx(OMEGA0, rel=0.05)
    assert fit.gamma == pytest.approx(gamma, rel=0.05)
    assert fit.t_cm == pytest.approx(300.0, rel=0.05)
    # Parseval: spectral integral equals the position variance
    assert spec.integral() == pytest.approx(float(np.mean(traj.q**2)),
                                            rel=0.02)


def test_analytic_psd_overdamped_and_underdamped_shapes():
    omega = np.linspace(0.0, 3.0 * OMEGA0, 4000)
    over = analysis.psd_analytic(omega, OMEGA0, 2.0 * OMEGA0, 300.0, MASS)
    under = analysis.psd_analytic(omega, OMEGA0, OMEGA0 / 100.0, 300.0, MASS)
    # overdamped: maximum at zero frequency, monotone decay
    assert int(np.argmax(over)) == 0
    assert np.all(np.diff(over) < 0)
    # underdamped: sharp line at the resonance
    i_peak = int(np.argmax(under))
    assert omega[i_peak] == pytest.approx(OMEGA0, rel=0.01)
    assert under[i_peak] > 100.0 * under[0]


# ---------------------------------------------------------------------------
# 5: Duffing-broadened spectrum at strong nonlinearity


def test_nonlinear_spectrum_shape_and_red_shift():
    q_factor = 1000.0
    gamma = OMEGA0 / q_factor
    # nonlinearity chosen so the thermal line spread is 10x the linewidth
    xi = 10.0 * 4.0 * OMEGA0**2 * MASS / (3.0 * q_factor * KT300)
    assert analysis.nonlinearity_parameter(xi, OMEGA0, gamma, 300.0,
                                           MASS) == pytest.approx(10.0,
                                                                  rel=0.01)
    a2 = 2.0 * KT300 / (MASS * OMEGA0**2)
    dshift = 3.0 / 8.0 * OMEGA0 * xi * a2
    force = ForceModel(mass=MASS, omega0=OMEGA0, duffing_xi=-xi)
    bath = BathModel(gamma=gamma, temperature=300.0)
    # the spectrum is reduced while the run goes, so no path is kept
    stream = analysis.WelchStream(600, 100001, 2e-7, n_segments=2)
    simulate(force, bath, "thermal", 2e-7, 0.02, seed=902, n_traj=600,
             observe=lambda i0, q, p: stream(i0, q))
    spec = stream.spectrum()
    sel = (spec.omega >= OMEGA0 - 3.5 * dshift) \
        & (spec.omega <= OMEGA0 + 1.5 * dshift)
    w = spec.omega[sel]
    s_emp = spec.values[sel]
    s_th = analysis.psd_nonlinear(w, OMEGA0, gamma, 300.0, -xi, MASS)
    dev = np.trapezoid(np.abs(s_emp - s_th), w) / np.trapezoid(s_th, w)
    assert float(dev) < 0.10
    # red shift of the smoothed peak matches (3/8) W0 |xi| <a^2>
    sm = np.convolve(s_emp, np.ones(5) / 5.0, mode="same")
    i = int(np.argmax(sm))
    coef = np.polyfit(w[max(i - 4, 0):i + 5], sm[max(i - 4, 0):i + 5], 2)
    w_peak = -coef[1] / (2.0 * coef[0])
    assert (OMEGA0 - w_peak) / dshift == pytest.approx(1.0, abs=0.10)


# ---------------------------------------------------------------------------
# 6: effective temperature under phase-locked stiffness modulation


def test_modulated_effective_temperature_both_phases():
    q_factor = 10.0
    gamma = OMEGA0 / q_factor
    for phi in (math.pi / 4.0, -math.pi / 4.0):
        for eps in (0.02, 0.05, 0.08, 0.11, 0.14):
            t_pred, gs = analysis.effective_temperature_modulated(
                eps, phi, OMEGA0, 2.0 * OMEGA0, gamma, 300.0)
            mod = Modulation(depth=eps, frequency=2.0 * OMEGA0, phase=phi,
                             phase_locked=True)
            force = ForceModel(mass=MASS, omega0=OMEGA0, modulation=mod)
            dur = 8.0 / abs(gs) + 5.0 / gamma
            seed = abs(int(1000 * eps) + int(phi * 100)) % 97 + 3
            traj = simulate(force, BathModel(gamma=gamma, temperature=300.0),
                            "thermal", 2e-7, dur, seed=seed, n_traj=400,
                            record_every=20)
            t_meas = traj.energy[:, traj.time.size // 2:].mean() / k_B
            assert t_meas == pytest.approx(t_pred, rel=0.10), (phi, eps)


def test_parametric_instability_onset():
    q_factor = 10.0
    gamma = OMEGA0 / q_factor
    threshold = 2.0 / q_factor
    onset = None
    for eps in np.arange(0.12, 0.30, 0.02):
        mod = Modulation(depth=float(eps), frequency=2.0 * OMEGA0,
                         phase=-math.pi / 4.0, phase_locked=True)
        force = ForceModel(mass=MASS, omega0=OMEGA0, modulation=mod)
        traj = simulate(force, BathModel(gamma=gamma, temperature=300.0),
                        "thermal", 2e-7, 4e-3, seed=11, n_traj=64,
                        record_every=50)
        tenth = traj.time.size // 10
        growth = (traj.energy[:, -tenth:].mean()
                  / traj.energy[:, :tenth].mean())
        if growth > 2.0:
            onset = float(eps)
            break
    assert onset is not None
    assert abs(onset - threshold) <= 0.2 * threshold


# ---------------------------------------------------------------------------
# 7: energy relaxation law from a displaced start


def test_energy_relaxation_distribution_and_rate():
    gamma = 2000.0
    e0 = 5.0 * KT300
    bath = BathModel(gamma=gamma, temperature=300.0)
    path = simulate_energy_sde(bath, e0, 2e-6, 3.0 / gamma,
                               seed=71, n_traj=5000, record_every=25)
    for gt in (0.3, 1.0, 3.0):
        i = int(np.argmin(np.abs(path.time * gamma - gt)))
        cdf = lambda e, t=path.time[i]: analysis.relaxation_cdf(
            e, e0, t, gamma, 300.0)
        assert stats.kstest(path.energy[:, i], cdf).pvalue > 0.01

    def model(t, rate):
        return KT300 + (e0 - KT300) * np.exp(-rate * t)

    popt, _ = optimize.curve_fit(model, path.time, path.energy.mean(0),
                                 p0=[gamma])
    assert popt[0] == pytest.approx(gamma, rel=0.05)


# ---------------------------------------------------------------------------
# 8: fluctuation theorems


def test_fluctuation_theorem_slopes_and_jarzynski():
    t0 = time.time()
    gamma = 2000.0
    # (a) relaxation from a quadratic-feedback steady state
    dist_fb = analysis.steady_state_distribution(300.0, gamma, OMEGA0, MASS,
                                                 eta=5e12)
    rep_a = thermo.transient_ft_check(dist_fb, gamma, 5e-4, seed=5,
                                      n_traj=100_000)
    assert rep_a.applicable
    assert abs(rep_a.fit.slope - 1.0) < 0.1
    # (b) relaxation from a hot parametrically modulated steady state
    dist_hot = analysis.steady_state_distribution(
        300.0, gamma, OMEGA0, MASS, eps0=0.003, phi=-math.pi / 4.0,
        omega=2.0 * OMEGA0)
    rep_b = thermo.transient_ft_check(dist_hot, gamma, 5e-4, seed=55,
                                      n_traj=100_000)
    assert abs(rep_b.fit.slope - 1.0) < 0.1
    # Jarzynski equality for a finite-time stiffness ramp
    k0 = MASS * OMEGA0**2
    traj = thermo.run_stiffness_ramp(MASS, 2e5, 300.0, k0, 2.0 * k0,
                                     tau=2e-4, dt=1e-7, seed=12, n_traj=4000)
    rec = thermo.work_heat(traj)
    df = thermo.delta_f_stiffness(k0, 2.0 * k0, 300.0)
    jr = thermo.jarzynski_estimate(rec.work, 300.0, df)
    assert abs(jr.estimate - 1.0) < 0.05
    assert jr.mean_work > df
    assert time.time() - t0 < 600.0


# ---------------------------------------------------------------------------
# 9: hopping-rate turnover against Monte Carlo


def _double_well(barrier_kt=5.0):
    q_m = 1e-7
    return kramers.DoubleWellSpec(b=barrier_kt * KT300 / q_m**4, q_m=q_m,
                                  mass=MASS)


def test_monte_carlo_hopping_matches_turnover_over_three_decades():
    spec = _double_well()
    wa = spec.extrema[0].omega
    wb = spec.extrema[1].omega
    dt = 2.0 * math.pi / (40.0 * wa)
    for i, g in enumerate(np.geomspace(0.01, 10.0, 6) * wb):
        theory = kramers.turnover_rate(spec, g, 300.0).r_turnover
        lag_t = max(5.0 / g, 30.0 * 2.0 * math.pi / wa, 10.0 * g / wb**2)
        dur = max(300.0 / (theory * 64.0), 25.0 * lag_t)
        # one damping per call: each has its own duration
        ((rate, _),) = kramers.monte_carlo_rates(
            spec, [g], 300.0, duration=dur, dt=dt, seeds=[909 + i],
            n_traj=64, record_every=16)
        assert rate == pytest.approx(theory, rel=0.25), g / wb


def test_turnover_curve_single_maximum_near_barrier_frequency():
    spec = _double_well()
    wb = spec.extrema[1].omega
    gammas = np.geomspace(1e-3, 1e2, 60) * wb
    rates = np.array([kramers.turnover_rate(spec, g, 300.0).r_turnover
                      for g in gammas])
    signs = np.sign(np.diff(rates))
    assert np.count_nonzero(np.diff(signs) != 0) == 1
    g_peak = gammas[np.argmax(rates)]
    assert 0.1 * wb < g_peak < 10.0 * wb


def test_depopulation_factor_limits_to_1e6():
    assert kramers.depopulation_factor(0.0, 300.0) == 0.0
    assert kramers.depopulation_factor(1e3 * KT300, 300.0) == pytest.approx(
        1.0, abs=1e-6)
    deltas = np.geomspace(1e-4, 1e3, 50) * KT300
    vals = [kramers.depopulation_factor(d, 300.0) for d in deltas]
    assert all(b > a or b == 1.0 for a, b in zip(vals, vals[1:]))
    # strong damping: the turnover reduces to the spatial-diffusion sum
    spec = _double_well()
    wb = spec.extrema[1].omega
    res = kramers.turnover_rate(spec, 100.0 * wb, 300.0)
    assert res.r_turnover == pytest.approx(res.r_hd_total, rel=1e-6)


# ---------------------------------------------------------------------------
# 10: stochastic heat engine


def _engine_spec(**kw):
    base = dict(mass=1e-17, gamma=1e5, k_max=5e-8, k_min=2e-8, t_hot=600.0,
                t_cold=300.0, tau_hot=5e-3, tau_cold=5e-3)
    base.update(kw)
    return thermo.EngineCycleSpec(**base)


def test_overdamped_cycle_work_matches_closed_form():
    for spec in (_engine_spec(), _engine_spec(t_hot=450.0, gamma=2e5),
                 _engine_spec(k_min=1e-8, tau_hot=8e-3)):
        res = thermo.overdamped_cycle(spec)
        for w, w_cf in zip(res.work_strokes, res.work_closed_form):
            assert w == pytest.approx(w_cf, rel=0.005, abs=1e-24)
        assert 0.0 < res.efficiency <= res.eta_carnot


def test_underdamped_sde_cycle_matches_moment_equations():
    spec = _engine_spec(gamma=1e4, tau_hot=1e-3, tau_cold=1e-3)
    mom = thermo.underdamped_cycle_moments(spec, n_per_stroke=2000)
    sde = thermo.underdamped_cycle_sde(spec, dt=1e-6, seed=21, n_traj=1000)
    # 1000 trajectories put the ensemble error at the few-percent level
    assert sde.work_output == pytest.approx(mom.work_output, rel=0.05)
    assert sde.heat_in == pytest.approx(mom.heat_in, rel=0.05)
    assert sde.efficiency == pytest.approx(mom.efficiency, rel=0.05)
    assert sde.efficiency <= sde.eta_carnot


# ---------------------------------------------------------------------------
# 11: internal and center-of-mass temperatures across a pressure sweep


def test_pressure_sweep_temperatures():
    particle = silica_sphere(100e-9)
    gas = environment.nitrogen(1e-9, temperature=300.0, accommodation=0.65)
    pressures = np.geomspace(1e-13, 1e3, 33)
    data = environment.pressure_sweep(particle, gas, 6e11, 1550e-9,
                                      pressures_mbar=pressures)
    pm = data["pressure_mbar"]
    t_int = data["T_int_K"]
    t_cm = data["T_cm_K"]
    # gas-dominated regime: internal temperature pinned to the environment
    assert np.all(np.abs(t_int[pm > 10.0] / 300.0 - 1.0) < 0.01)
    # photon-absorption regime: monotone rise as pressure drops
    assert np.all(np.diff(t_int[pm < 10.0]) <= 1e-9)
    # recoil-limited plateau at the low-pressure end of the sweep
    low = t_cm[pm < 5e-12]
    assert low.size >= 2
    assert (low.max() - low.min()) / low.mean() < 1e-3
    # still rising at 1e-7 mbar on the way to the plateau
    rising = t_cm[(pm > 1e-9) & (pm < 1e-4)]
    assert np.all(np.diff(rising) < 0)


def test_free_molecular_damping_matches_interpolation_at_large_knudsen():
    particle = silica_sphere(100e-9)
    ref = environment.nitrogen(1.0, temperature=300.0, accommodation=0.65)
    kn_ref = ref.knudsen(100e-9)
    for kn_target in (100.0, 1000.0):
        gas = environment.nitrogen(kn_ref / kn_target, temperature=300.0,
                                   accommodation=0.65)
        g_full, _ = environment.gas_damping(particle, gas)
        g_lin, _ = environment.gas_damping_linear(particle, gas)
        assert g_lin == pytest.approx(g_full, rel=0.10)


# ---------------------------------------------------------------------------
# 12: squeezing by a 2:1 frequency quench


def _squeeze_run():
    m = 1e-18
    w0 = 2.0 * math.pi * 1e5
    ws = w0 / 2.0
    tau = math.pi / (2.0 * ws)
    dt = 2.0 * math.pi / w0 / 200.0
    i_end = int(round(tau / dt))
    force = ForceModel(mass=m, omega0=w0,
                       stiffness_schedule=((0.0, ws), (i_end * dt, w0)))
    bath = BathModel(gamma=0.0, temperature=300.0)
    traj = simulate(force, bath, "thermal", dt, tau * 1.01, seed=4,
                    n_traj=30000)
    return analysis.squeeze_quadratures(traj.q[:, i_end], traj.p[:, i_end],
                                        w0, ws, tau, 300.0, m)


@pytest.mark.xfail(strict=True,
                   reason="a quarter period in the weakened trap transfers "
                          "variance by the squared frequency ratio 4, not 2; "
                          "the attainable ratios are (4, 1/4), checked by "
                          "the companion test")
def test_quench_variance_ratios_half_and_two():
    res = _squeeze_run()
    assert res.var_q_ratio == pytest.approx(0.5, rel=0.05)
    assert res.var_p_ratio == pytest.approx(2.0, rel=0.05)


def test_quench_variance_ratios_four_and_quarter():
    res = _squeeze_run()
    assert res.var_q_ratio == pytest.approx(4.0, rel=0.05)
    assert res.var_p_ratio == pytest.approx(0.25, rel=0.05)
    assert res.var_q_ratio == pytest.approx(res.predicted_q_ratio, rel=0.05)
    assert res.var_p_ratio == pytest.approx(res.predicted_p_ratio, rel=0.05)


# ---------------------------------------------------------------------------
# 13: reproducibility


def test_same_seed_reproduces_arrays_exactly():
    force = ForceModel(mass=MASS, omega0=OMEGA0)
    bath = BathModel(gamma=OMEGA0 / 10.0, temperature=300.0)
    a = simulate(force, bath, "thermal", 2e-7, 2e-4, seed=101, n_traj=50)
    b = simulate(force, bath, "thermal", 2e-7, 2e-4, seed=101, n_traj=50)
    assert np.array_equal(a.q, b.q)
    assert np.array_equal(a.p, b.p)
    assert np.array_equal(a.energy, b.energy)


def test_dt_halving_leaves_observables_within_half_percent():
    omega = 2.0 * math.pi * 2e4
    force = ForceModel(mass=MASS, omega0=omega)
    bath = BathModel(gamma=omega / 2.0, temperature=300.0)

    def observables(dt, record_every):
        traj = simulate(force, bath, "thermal", dt, 6e-3, seed=407,
                        n_traj=1200, record_every=record_every)
        burn = traj.q.shape[1] // 10
        return (float(np.mean(traj.q[:, burn:]**2)),
                float(np.mean(traj.p[:, burn:]**2)))

    coarse = observables(2.5e-7, 4)
    fine = observables(1.25e-7, 8)
    for a, b in zip(coarse, fine):
        assert abs(b - a) / a < 0.005
    # deterministic observables: halving the ODE step of the moment cycle
    spec = _engine_spec(gamma=1e4, tau_hot=1e-3, tau_cold=1e-3)
    m1 = thermo.underdamped_cycle_moments(spec, n_per_stroke=1000)
    m2 = thermo.underdamped_cycle_moments(spec, n_per_stroke=2000)
    assert m2.work_output == pytest.approx(m1.work_output, rel=0.005)
    assert m2.efficiency == pytest.approx(m1.efficiency, rel=0.005)
