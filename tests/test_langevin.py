"""Stochastic integrator: reproducibility, exactness, guards, energy SDE."""

import math

import numpy as np
import pytest
from scipy import stats

from levitherm.constants import k_B
from levitherm import langevin
from levitherm.langevin import (BathModel, CustomPotential, ForceModel,
                                IntegratorBlowupError, Modulation,
                                count_well_hops, simulate,
                                simulate_energy_sde, simulate_parametric,
                                simulate_quench)

MASS = 1e-17
OMEGA0 = 2.0 * math.pi * 1.0e5
DT = 1e-7
KT300 = k_B * 300.0


def make_models(gamma=OMEGA0 / 10.0, temperature=300.0, **force_kw):
    return (ForceModel(mass=MASS, omega0=OMEGA0, **force_kw),
            BathModel(gamma=gamma, temperature=temperature))


# ---------------------------------------------------------------------------
# reproducibility


def test_same_seed_bit_identical():
    force, bath = make_models()
    a = simulate(force, bath, "thermal", DT, 2e-4, seed=11, n_traj=4)
    b = simulate(force, bath, "thermal", DT, 2e-4, seed=11, n_traj=4)
    assert np.array_equal(a.q, b.q)
    assert np.array_equal(a.p, b.p)
    assert np.array_equal(a.energy, b.energy)


def test_different_seed_differs():
    force, bath = make_models()
    a = simulate(force, bath, "thermal", DT, 1e-4, seed=11, n_traj=2)
    b = simulate(force, bath, "thermal", DT, 1e-4, seed=12, n_traj=2)
    assert not np.array_equal(a.q, b.q)


def test_trajectory_streams_independent_of_ensemble_size():
    # stream k is a function of (seed, k) only, so a smaller ensemble is a
    # prefix of a larger one
    force, bath = make_models()
    small = simulate(force, bath, "thermal", DT, 1e-4, seed=3, n_traj=3)
    large = simulate(force, bath, "thermal", DT, 1e-4, seed=3, n_traj=8)
    assert np.array_equal(small.q, large.q[:3])
    assert np.array_equal(small.p, large.p[:3])


def test_record_every_subsamples_same_path():
    force, bath = make_models()
    fine = simulate(force, bath, "thermal", DT, 2e-4, seed=5, n_traj=2)
    coarse = simulate(force, bath, "thermal", DT, 2e-4, seed=5, n_traj=2,
                      record_every=4)
    assert np.array_equal(coarse.q, fine.q[:, ::4])
    assert np.array_equal(coarse.time, fine.time[::4])


def test_chunk_boundary_invisible():
    # a duration crossing the internal chunk size must agree with the
    # same path truncated, step for step
    force, bath = make_models()
    n_long = langevin.CHUNK_STEPS + 100
    long = simulate(force, bath, "thermal", DT, n_long * DT, seed=9, n_traj=2)
    short = simulate(force, bath, "thermal", DT, 900 * DT, seed=9, n_traj=2)
    assert np.array_equal(short.q, long.q[:, :901])


# ---------------------------------------------------------------------------
# integrator exactness


def test_undamped_oscillator_conserves_energy():
    force, _ = make_models()
    bath = BathModel(gamma=0.0, temperature=0.0)
    amp = 1e-9
    traj = simulate(force, bath, (amp, 0.0), DT, 1e-3, seed=0, n_traj=1)
    e0 = 0.5 * MASS * OMEGA0**2 * amp**2
    assert np.allclose(traj.energy, e0, rtol=1e-10)


def test_undamped_rotation_is_exact():
    # one full period returns exactly to the initial state
    force, _ = make_models()
    bath = BathModel(gamma=0.0, temperature=0.0)
    period = 2.0 * math.pi / OMEGA0
    dt = period / 200.0
    traj = simulate(force, bath, (1e-9, 0.0), dt, period, seed=0, n_traj=1)
    assert traj.q[0, -1] == pytest.approx(1e-9, rel=1e-9)
    assert abs(traj.p[0, -1]) < MASS * OMEGA0 * 1e-9 * 1e-8


def test_equipartition_unbiased():
    force, bath = make_models(gamma=OMEGA0 / 10.0)
    traj = simulate(force, bath, "thermal", DT, 1e-3, seed=21, n_traj=400)
    var_q = traj.q[:, 20:].var()
    var_p = traj.p[:, 20:].var()
    assert var_q == pytest.approx(KT300 / (MASS * OMEGA0**2), rel=0.03)
    assert var_p == pytest.approx(MASS * KT300, rel=0.03)


def test_constant_force_shifts_equilibrium_mean():
    f0 = 2e-15
    force, bath = make_models(external_force=lambda t: f0)
    traj = simulate(force, bath, "thermal", DT, 2e-3, seed=8, n_traj=300)
    k = MASS * OMEGA0**2
    assert traj.q[:, 200:].mean() == pytest.approx(f0 / k, rel=0.05)


# ---------------------------------------------------------------------------
# guards and failure modes


def test_coarse_dt_rejected():
    force, bath = make_models()
    with pytest.raises(ValueError, match="allow_coarse_dt"):
        simulate(force, bath, "thermal", 1e-5, 1e-3, seed=0)
    simulate(force, bath, "thermal", 1e-5, 1e-3, seed=0,
             allow_coarse_dt=True)  # explicit override works


def test_above_threshold_drive_blows_up():
    # open-loop modulation at 2 W0 beyond depth 2/Q grows exponentially
    q_factor = 20.0
    force, bath = make_models(
        gamma=OMEGA0 / q_factor,
        modulation=Modulation(depth=10.0 / q_factor, frequency=2 * OMEGA0))
    with pytest.raises(IntegratorBlowupError):
        simulate(force, bath, "thermal", DT, 0.1, seed=2, n_traj=2)


def test_invalid_construction():
    with pytest.raises(ValueError):
        ForceModel(mass=-1.0, omega0=OMEGA0)
    with pytest.raises(ValueError):
        BathModel(gamma=-1.0, temperature=300.0)
    with pytest.raises(ValueError):
        Modulation(depth=-0.1)
    with pytest.raises(ValueError):
        simulate(*make_models(), "thermal", DT, DT / 2, seed=0)


def test_thermal_init_requires_temperature():
    force, _ = make_models()
    with pytest.raises(ValueError):
        simulate(force, BathModel(0.0, 0.0), "thermal", DT, 1e-5, seed=0)


# ---------------------------------------------------------------------------
# protocols


def test_stiffness_schedule_is_right_continuous():
    omega_s = OMEGA0 / 2.0
    force, bath = make_models()
    traj = simulate_quench(force, bath, (1e-9, 0.0), DT, 100 * DT, seed=0,
                           omega_s=omega_s, t_start=30 * DT, tau=40 * DT)
    omega = traj.protocol["omega"]
    assert np.all(omega[:30] == OMEGA0)
    assert np.all(omega[30:70] == omega_s)
    assert np.all(omega[70:] == OMEGA0)


def test_energy_uses_scheduled_stiffness():
    omega_s = OMEGA0 / 2.0
    force, _ = make_models()
    bath = BathModel(gamma=0.0, temperature=0.0)
    traj = simulate_quench(force, bath, (1e-9, 0.0), DT, 100 * DT, seed=0,
                           omega_s=omega_s, t_start=30 * DT, tau=40 * DT)
    expected = (traj.p**2 / (2 * MASS)
                + 0.5 * MASS * traj.protocol["omega"]**2 * traj.q**2)
    assert np.allclose(traj.energy, expected, rtol=1e-12)


def test_phase_locked_modulation_cools_and_heats():
    force, bath = make_models(gamma=OMEGA0 / 50.0)
    common = dict(init="thermal", dt=DT, duration=4e-3, seed=14,
                  depth=0.01, phase_locked=True, n_traj=200, record_every=10)
    cold = simulate_parametric(force, bath, phase=math.pi / 4, **common)
    hot = simulate_parametric(force, bath, phase=-math.pi / 4, **common)
    tail = slice(200, None)
    assert cold.energy[:, tail].mean() < KT300 < hot.energy[:, tail].mean()


# ---------------------------------------------------------------------------
# double well helpers


def test_count_well_hops_synthetic():
    q = np.array([[-1.0, -0.2, 0.3, 1.0, 0.5, -1.0, -1.0, 1.0]])
    assert count_well_hops(q, (-1.0, 1.0)).tolist() == [3]
    assert count_well_hops(np.array([[0.0, 0.5, -0.5]]),
                           (-1.0, 1.0)).tolist() == [0]


def _hops_by_row_loop(q, minima):
    """Reference hysteresis hop count: one row and one sample at a time."""
    r_a, r_c = sorted(minima)
    counts = []
    for row in np.atleast_2d(q):
        well, hops = 0, 0
        for x in row:
            new = -1 if x <= r_a else (1 if x >= r_c else well)
            hops += well != 0 and new != well
            well = new
        counts.append(hops)
    return counts


def test_vectorised_hop_count_matches_row_loop():
    from levitherm import kramers
    rng = np.random.default_rng(5)
    for _ in range(50):
        q = np.cumsum(rng.normal(size=(4, 80)), axis=1)
        expected = _hops_by_row_loop(q, (1.0, -1.0))
        assert count_well_hops(q, (1.0, -1.0)).tolist() == expected
        assert kramers.hop_statistics(q, (1.0, -1.0), 0.1)[2] == sum(expected)


def test_double_well_custom_potential_round_trip():
    # quartic double well integrates and reports energy consistently
    b, q_m = 1e6, 1e-7
    pot = CustomPotential(
        force=lambda q: -4.0 * b * q * (q**2 - q_m**2),
        energy=lambda q: b * (q**2 - q_m**2) ** 2)
    force, bath = make_models(gamma=OMEGA0 / 10.0)
    traj = simulate(langevin.replace(force, potential=pot), bath,
                    (q_m, 0.0), DT, 1e-4, seed=1, n_traj=2)
    expected = traj.p**2 / (2 * MASS) + b * (traj.q**2 - q_m**2) ** 2
    assert np.allclose(traj.energy, expected, rtol=1e-12)


# ---------------------------------------------------------------------------
# energy dynamics


def test_energy_sde_stationary_exponential():
    gamma = 2000.0
    bath = BathModel(gamma=gamma, temperature=300.0)
    path = simulate_energy_sde(bath, OMEGA0, MASS, KT300, 1e-5, 5e-3,
                               seed=4, n_traj=4000,
                               record_every=100)
    tail = path.energy[:, -1]
    assert tail.mean() == pytest.approx(KT300, rel=0.05)
    # exponential law: KS against the stationary CDF
    stat = stats.kstest(tail / KT300, "expon")
    assert stat.pvalue > 0.01


def test_energy_sde_transition_density_noncentral_chi2():
    from levitherm.analysis import relaxation_cdf
    gamma = 2000.0
    t_relax = 0.5 / gamma
    e0 = 3.0 * KT300
    bath = BathModel(gamma=gamma, temperature=300.0)
    path = simulate_energy_sde(bath, OMEGA0, MASS, e0, 2e-6, t_relax,
                               seed=17, n_traj=5000,
                               record_every=int(round(t_relax / 2e-6)))
    samples = path.energy[:, -1]
    stat = stats.kstest(samples,
                        lambda e: relaxation_cdf(e, e0, t_relax, gamma, 300.0))
    assert stat.pvalue > 0.01


def test_energy_sde_mean_relaxation_curve():
    gamma = 2000.0
    e0 = 0.1 * KT300
    bath = BathModel(gamma=gamma, temperature=300.0)
    path = simulate_energy_sde(bath, OMEGA0, MASS, e0, 2e-6, 2e-3,
                               seed=23, n_traj=4000, record_every=100)
    expected = KT300 + (e0 - KT300) * np.exp(-gamma * path.time)
    meas = path.energy.mean(axis=0)
    assert np.max(np.abs(meas - expected)) < 0.04 * KT300


def test_energy_sde_guards():
    bath = BathModel(gamma=2000.0, temperature=300.0)
    with pytest.raises(ValueError, match="gamma dt"):
        simulate_energy_sde(bath, OMEGA0, MASS, KT300, 1e-4, 1e-2, seed=0)
    with pytest.raises(ValueError):
        simulate_energy_sde(BathModel(0.0, 300.0), OMEGA0, MASS, KT300,
                            1e-6, 1e-4, seed=0)


def test_energy_sde_accepts_per_trajectory_start():
    bath = BathModel(gamma=2000.0, temperature=300.0)
    e0 = np.array([0.5, 1.0, 2.0]) * KT300
    path = simulate_energy_sde(bath, OMEGA0, MASS, e0, 1e-5, 1e-4, seed=0,
                               n_traj=3)
    assert np.allclose(path.energy[:, 0], e0)


# ---------------------------------------------------------------------------
# persistence


def test_save_load_round_trip(tmp_path):
    force, bath = make_models()
    traj = simulate(force, bath, "thermal", DT, 1e-4, seed=33, n_traj=3)
    path = tmp_path / "run.npz"
    langevin.save_trajectory(traj, str(path), config={"seed": 33})
    back = langevin.load_trajectory(str(path))
    assert np.array_equal(back.q, traj.q)
    assert np.array_equal(back.p, traj.p)
    assert np.array_equal(back.energy, traj.energy)
    assert back.meta["seed"] == 33
    assert np.array_equal(back.protocol["omega"], traj.protocol["omega"])


def test_config_hash_stable_and_sensitive():
    h1 = langevin.config_hash({"a": 1, "b": [1, 2]})
    h2 = langevin.config_hash({"b": [1, 2], "a": 1})
    h3 = langevin.config_hash({"a": 2, "b": [1, 2]})
    assert h1 == h2
    assert h1 != h3
