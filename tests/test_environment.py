"""Damping and noise channels, blackbody balance, internal temperature."""

import math

import numpy as np
import pytest

from levitherm import environment as env
from levitherm.constants import c_light, hbar, k_B
from levitherm.particles import Cylinder, ParticleSpec, silica_sphere


@pytest.fixture(scope="module")
def particle():
    return silica_sphere(100e-9)


def gas_at_knudsen(kn: float, radius: float, accommodation: float = 0.65):
    """N2 at the pressure that gives the requested Knudsen number."""
    template = env.nitrogen(1.0, accommodation=accommodation)
    pressure = k_B * 300.0 / (math.sqrt(2.0) * template.cross_section
                              * kn * radius)
    return env.nitrogen(pressure, accommodation=accommodation)


def test_constants_are_scipys_bit_for_bit():
    # written out so that importing them loads no scipy module; a CODATA
    # update in scipy fails here rather than moving results silently
    import scipy.constants as sc
    from scipy.special import zeta

    from levitherm import constants
    pairs = [(constants.k_B, sc.Boltzmann), (constants.hbar, sc.hbar),
             (constants.c_light, sc.speed_of_light),
             (constants.eps0, sc.epsilon_0), (env.ZETA5, zeta(5))]
    for ours, scipys in pairs:
        assert float(ours).hex() == float(scipys).hex()


# ---------------------------------------------------------------------------
# gas state


def test_mean_free_path_inverse_in_pressure():
    g1 = env.nitrogen(1.0)
    g2 = env.nitrogen(10.0)
    assert g1.mean_free_path == pytest.approx(10 * g2.mean_free_path,
                                              rel=1e-12)
    assert env.nitrogen(0.0).mean_free_path == math.inf


def test_thermal_speed_nitrogen_room_temperature():
    # sqrt(8 k_B 300 / (pi m_N2)) with m_N2 = 4.65e-26 kg
    g = env.nitrogen(100.0)
    assert g.thermal_speed == pytest.approx(
        math.sqrt(8 * k_B * 300.0 / (math.pi * 4.65e-26)), rel=1e-12)
    assert g.thermal_speed == pytest.approx(476.0, rel=0.01)


def test_gas_validation():
    with pytest.raises(ValueError):
        env.GasSpec(pressure=-1.0, temperature=300.0)
    with pytest.raises(ValueError):
        env.GasSpec(pressure=1.0, temperature=300.0, accommodation=1.5)


# ---------------------------------------------------------------------------
# translational gas damping


def test_damping_vanishes_at_zero_pressure(particle):
    gamma, s_ff = env.gas_damping(particle, env.nitrogen(0.0))
    assert gamma == 0.0 and s_ff == 0.0


def test_free_molecular_agreement_within_ten_percent(particle):
    # the all-Knudsen interpolation and the linear-in-pressure
    # free-molecular form must agree in the Kn >> 1 regime
    for kn in (10.0, 100.0, 1000.0):
        gas = gas_at_knudsen(kn, particle.characteristic_radius)
        g_full, _ = env.gas_damping(particle, gas)
        g_lin, _ = env.gas_damping_linear(particle, gas)
        assert abs(g_full / g_lin - 1.0) < 0.11


def test_continuum_limit_is_stokes_drag(particle):
    gas = gas_at_knudsen(1e-4, particle.characteristic_radius)
    gamma, _ = env.gas_damping(particle, gas)
    stokes = 6.0 * math.pi * gas.viscosity * particle.characteristic_radius \
        / particle.mass
    assert gamma == pytest.approx(stokes, rel=2e-3)


def test_damping_linear_in_pressure_free_molecular(particle):
    g1, _ = env.gas_damping_linear(particle, env.nitrogen(1e-3))
    g2, _ = env.gas_damping_linear(particle, env.nitrogen(2e-3))
    assert g2 == pytest.approx(2 * g1, rel=1e-12)


def test_fluctuation_dissipation_closure(particle):
    gas = env.nitrogen(10.0)
    gamma, s_ff = env.gas_damping(particle, gas)
    assert s_ff == pytest.approx(
        env.thermal_force_density(particle.mass, gas.temperature, gamma),
        rel=1e-12)
    assert env.effective_temperature(s_ff, gamma, particle.mass) \
        == pytest.approx(gas.temperature, rel=1e-12)


def test_effective_temperature_needs_damping():
    with pytest.raises(env.NoSteadyStateError):
        env.effective_temperature(1e-40, 0.0, 1e-18)


# ---------------------------------------------------------------------------
# hot emerging molecules


def test_emerging_molecule_temperature(particle):
    gas = env.nitrogen(1.0, accommodation=0.65)
    gamma_gas, _ = env.gas_damping(particle, gas)
    _, _, t_em = env.hot_molecule_channel(particle, gas, 1000.0, gamma_gas)
    assert t_em == pytest.approx(300.0 + 0.65 * 700.0, rel=1e-12)  # 755 K


def test_emerging_channel_reduces_to_equilibrium(particle):
    gas = env.nitrogen(1.0, accommodation=0.65)
    gamma_gas, _ = env.gas_damping(particle, gas)
    gamma_em, s_em, t_em = env.hot_molecule_channel(particle, gas, 300.0,
                                                    gamma_gas)
    assert t_em == 300.0
    assert gamma_em == pytest.approx(gamma_gas / 16.0, rel=1e-12)
    assert s_em == pytest.approx(env.thermal_force_density(
        particle.mass, 300.0, gamma_em), rel=1e-12)


def test_pressure_coefficient_radius_independent():
    # deep in the free-molecular regime gamma = 2 pi c_P P / a with c_P
    # independent of the radius; check flatness and the closed form
    gas = env.nitrogen(1e-2, accommodation=0.65)
    cps = []
    for a_nm in (50, 100, 200, 500):
        p = silica_sphere(a_nm * 1e-9)
        c_p = env.combined_gas_channel(p, gas, 300.0)
        cps.append(c_p)
    assert np.ptp(cps) / np.mean(cps) < 0.01
    # closed form of the strictly linear free-molecular limit; the
    # all-Knudsen interpolation sits about 7% below it
    expected = (3.0 / (math.pi * math.sqrt(2.0)) * gas.viscosity
                * gas.cross_section / (k_B * 300.0 * 2198.0)
                * (1.0 + 1.0 / 16.0) * 1e8)
    assert cps[1] == pytest.approx(expected, rel=0.10)


# ---------------------------------------------------------------------------
# cylinders and rotation


def test_cylinder_damping_tensor_structure():
    cyl = ParticleSpec(Cylinder(50e-9, 500e-9), density=2198.0)
    gas = gas_at_knudsen(100.0, cyl.characteristic_radius, accommodation=1.0)
    tensor, pref = env.cylinder_damping(cyl, gas, axis=[0, 0, 1])
    evals = np.sort(np.linalg.eigvalsh(tensor))
    c = 1.0
    f = (8.0 - 6.0 * c + math.pi * c) / (8.0 - 2.0 * c + math.pi * c)
    assert evals[1] == pytest.approx(pref, rel=1e-9)
    assert evals[2] == pytest.approx(pref, rel=1e-9)
    assert evals[0] == pytest.approx(pref * (1.0 - f), rel=1e-9)
    assert evals[0] < evals[1]  # easier to slide along the axis


def test_cylinder_damping_regime_guards():
    cyl = ParticleSpec(Cylinder(50e-9, 500e-9), density=2198.0)
    with pytest.raises(env.OutOfRegimeError):
        env.cylinder_damping(cyl, gas_at_knudsen(0.5, 25e-9), axis=[0, 0, 1])
    with pytest.warns(UserWarning, match="marginal"):
        env.cylinder_damping(cyl, gas_at_knudsen(5.0, 25e-9), axis=[0, 0, 1])


def test_sphere_rotational_damping_positive(particle):
    assert env.sphere_rotational_damping(particle, env.nitrogen(1.0)) > 0


# ---------------------------------------------------------------------------
# photon recoil


def test_photon_recoil_temperature_is_half_photon_energy(particle):
    # for the recoil channel alone T_CM = pi S_ff / (k_B m gamma)
    # reduces to hbar omega_L / (2 k_B) independent of everything else
    omega_l = 2.0 * math.pi * c_light / 1550e-9
    for orientation in ("parallel", "perpendicular"):
        gamma, s_ff = env.photon_recoil(1e-6, orientation, omega_l,
                                        particle.mass)
        t_cm = env.effective_temperature(s_ff, gamma, particle.mass)
        assert t_cm == pytest.approx(hbar * omega_l / (2.0 * k_B), rel=1e-12)
    assert t_cm == pytest.approx(4641.2, rel=1e-4)


def test_photon_recoil_orientation_factor(particle):
    omega_l = 2.0 * math.pi * c_light / 1064e-9
    g_par, s_par = env.photon_recoil(1e-6, "parallel", omega_l, particle.mass)
    g_perp, s_perp = env.photon_recoil(1e-6, "perpendicular", omega_l,
                                       particle.mass)
    assert g_perp == pytest.approx(2 * g_par, rel=1e-12)
    assert s_perp == pytest.approx(2 * s_par, rel=1e-12)
    with pytest.raises(ValueError):
        env.photon_recoil(1e-6, "diagonal", omega_l, particle.mass)


def test_csl_noise_formula():
    assert env.csl_noise(1e-8, 1e-7, 2.0) == pytest.approx(
        1e-8 * (hbar / 1e-7) ** 2 * 2.0, rel=1e-12)
    with pytest.raises(ValueError):
        env.csl_noise(-1.0, 1e-7, 1.0)


# ---------------------------------------------------------------------------
# blackbody exchange


def test_blackbody_closed_form_matches_quadrature(particle):
    # the fifth-power law against direct integration of the Planck-weighted
    # absorption spectrum
    for temp in (150.0, 300.0, 900.0):
        closed, _ = env.blackbody_rates(particle, temp, temp)
        quadrature = env.blackbody_power_quadrature(particle, temp)
        assert quadrature == pytest.approx(closed, rel=1e-6)


def test_blackbody_balance_cancels_at_equal_temperatures(particle):
    absorbed, emitted = env.blackbody_rates(particle, 300.0, 300.0)
    assert absorbed + emitted == 0.0
    absorbed, emitted = env.blackbody_rates(particle, 300.0, 600.0)
    assert emitted == pytest.approx(-32.0 * absorbed, rel=1e-12)  # (T^5)


def test_blackbody_fifth_power_scaling(particle):
    a1, _ = env.blackbody_rates(particle, 200.0, 200.0)
    a2, _ = env.blackbody_rates(particle, 400.0, 400.0)
    assert a2 == pytest.approx(32.0 * a1, rel=1e-12)


# ---------------------------------------------------------------------------
# internal temperature balance


def test_internal_temperature_at_least_environment(particle):
    gas = env.nitrogen(1e2, accommodation=0.65)
    state = env.internal_temperature(particle, gas, intensity=1e10,
                                     wavelength=1550e-9)
    assert state.T_int >= 300.0
    assert abs(state.residual) < 1e-18 * max(1.0, abs(state.absorbed_optical))


def test_internal_temperature_monotone_in_intensity(particle):
    gas = env.nitrogen(1e-2, accommodation=0.65)
    temps = [env.internal_temperature(particle, gas, intensity=i,
                                      wavelength=1550e-9).T_int
             for i in (1e10, 1e11, 6e11)]
    assert temps[0] < temps[1] < temps[2]


def test_internal_temperature_monotone_decreasing_in_pressure(particle):
    temps = [env.internal_temperature(particle, env.nitrogen(p, accommodation=0.65),
                                      intensity=6e11, wavelength=1550e-9).T_int
             for p in (1e-4, 1e-1, 1e3)]
    assert temps[0] > temps[1] > temps[2]
    assert temps[2] == pytest.approx(300.0, rel=0.01)


def test_internal_temperature_evolution_reaches_steady_state(particle):
    gas = env.nitrogen(1e-1, accommodation=0.65)
    state = env.internal_temperature(particle, gas, intensity=6e11,
                                     wavelength=1550e-9)
    t = np.linspace(0.0, 50.0, 200)
    temps = env.internal_temperature_evolution(particle, gas, 6e11, 1550e-9,
                                               300.0, t)
    assert temps[0] == pytest.approx(300.0)
    assert temps[-1] == pytest.approx(state.T_int, rel=1e-3)
    # monotone rise up to solver noise at the plateau
    assert np.all(np.diff(temps) >= -1e-3)


def test_gas_cooling_sign_convention(particle):
    gas = env.nitrogen(1.0, accommodation=0.65)
    assert env.gas_cooling_power(particle, gas, 400.0) < 0
    assert env.gas_cooling_power(particle, gas, 300.0) == 0.0
    assert env.gas_cooling_power(particle, gas, 200.0) > 0


# ---------------------------------------------------------------------------
# pressure sweep


def test_pressure_sweep_columns_and_monotone_damping(particle):
    gas = env.nitrogen(1.0, accommodation=0.65)
    data = env.pressure_sweep(particle, gas, intensity=6e11,
                              wavelength=1550e-9,
                              pressures_mbar=np.geomspace(1e-8, 1e2, 12))
    assert set(data) == {"pressure_mbar", "gamma_cm_rad_s", "T_int_K",
                         "T_cm_K"}
    assert np.all(np.diff(data["gamma_cm_rad_s"]) > 0)
    assert np.all(data["T_int_K"] >= 300.0 - 1e-9)
    assert np.all(data["T_cm_K"] > 0)
