"""Optical trap physics: polarizability, potential, frequencies, torque."""

import math

import numpy as np
import pytest

from levitherm.constants import c_light, eps0
from levitherm.particles import Cylinder, ParticleSpec, silica_sphere
from levitherm import optics
from levitherm.optics import TrapSpec, UnsupportedShapeError


@pytest.fixture(scope="module")
def particle():
    return silica_sphere(100e-9)


@pytest.fixture(scope="module")
def trap():
    return TrapSpec(power=0.5, waist_x=0.6e-6, waist_y=0.7e-6,
                    wavelength=1064e-9)


@pytest.fixture(scope="module")
def alpha(particle, trap):
    return optics.polarizability(particle, trap.wavelength)


# ---------------------------------------------------------------------------
# beam geometry and intensity


def test_waist_and_rayleigh_range(trap):
    assert trap.waist == pytest.approx(math.sqrt(0.6e-6 * 0.7e-6), rel=1e-12)
    assert trap.rayleigh_range == pytest.approx(
        math.pi * trap.waist**2 / trap.wavelength, rel=1e-12)
    assert trap.waist_z == pytest.approx(math.sqrt(2) * trap.rayleigh_range)


def test_peak_intensity_is_power_over_area(trap):
    # Gaussian beam: I0 = 2 P / (pi w0^2), and I0 = c eps0 E0^2 / 2
    assert trap.intensity == pytest.approx(
        2.0 * trap.power / (math.pi * trap.waist**2), rel=1e-12)
    assert trap.intensity == pytest.approx(
        c_light * eps0 * trap.field_squared / 2.0, rel=1e-12)


def test_total_beam_power_from_intensity_profile(trap):
    # integrating I0 exp(-2x^2/wx^2 - 2y^2/wy^2) over the focal plane
    # must recover the total power
    integral = trap.intensity * math.pi * trap.waist_x * trap.waist_y / 2.0
    assert integral == pytest.approx(trap.power, rel=1e-12)


def test_invalid_trap_parameters():
    with pytest.raises(ValueError):
        TrapSpec(power=-1.0, waist_x=1e-6, waist_y=1e-6, wavelength=1e-6)


# ---------------------------------------------------------------------------
# polarizability


def test_clausius_mossotti(particle, alpha):
    n2 = 1.45**2
    chi = 3.0 * (n2 - 1.0) / (n2 + 2.0)
    assert alpha.alpha0.real == pytest.approx(eps0 * particle.volume * chi,
                                              rel=1e-9)


def test_radiation_reaction_increases_imaginary_part(alpha):
    assert alpha.alpha.imag > alpha.alpha0.imag
    # real part barely changes for a Rayleigh particle
    assert alpha.alpha.real == pytest.approx(alpha.alpha0.real, rel=1e-4)


def test_scattering_cross_section_k4(particle, trap, alpha):
    k = 2.0 * math.pi / trap.wavelength
    expected = abs(alpha.alpha) ** 2 * k**4 / (6.0 * math.pi * eps0**2)
    assert alpha.sigma_scat == pytest.approx(expected, rel=1e-12)
    # frozen value at 1550 nm, a = 100 nm silica
    pol_1550 = optics.polarizability(particle, 1550e-9)
    assert pol_1550.sigma_scat == pytest.approx(1.63346e-16, rel=1e-4)


def test_cylinder_susceptibilities():
    cyl = ParticleSpec(Cylinder(50e-9, 500e-9), density=2198.0)
    pol = optics.polarizability(cyl, 1550e-9)
    n2 = 1.45**2
    assert pol.alpha0_parallel == pytest.approx(
        eps0 * cyl.volume * (n2 - 1.0), rel=1e-9)
    assert pol.alpha0_perpendicular == pytest.approx(
        eps0 * cyl.volume * 2.0 * (n2 - 1.0) / (n2 + 1.0), rel=1e-9)
    assert pol.susceptibility_anisotropy.real > 0


def test_sphere_has_no_anisotropy(alpha):
    with pytest.raises(UnsupportedShapeError):
        alpha.susceptibility_anisotropy


# ---------------------------------------------------------------------------
# potential and forces


def test_force_is_negative_gradient(trap, alpha):
    # central-difference check of the analytic gradient at several points
    rng = np.random.default_rng(42)
    pts = rng.uniform(-1, 1, size=(12, 3)) * [0.3e-6, 0.3e-6, 0.8e-6]
    h = 1e-12
    for r in pts:
        _, f = optics.optical_potential(trap, alpha, r)
        for i in range(3):
            dr = np.zeros(3)
            dr[i] = h
            up, _ = optics.optical_potential(trap, alpha, r + dr)
            dn, _ = optics.optical_potential(trap, alpha, r - dr)
            assert f[i] == pytest.approx(-(up - dn) / (2 * h),
                                         rel=2e-4, abs=1e-22)


def test_potential_minimum_at_focus(trap, alpha):
    u0, f0 = optics.optical_potential(trap, alpha, np.zeros(3))
    assert u0 == pytest.approx(-optics.trap_depth(trap, alpha), rel=1e-12)
    assert np.allclose(f0, 0.0)
    u_off, _ = optics.optical_potential(trap, alpha, [0.2e-6, 0.0, 0.0])
    assert u_off > u0


def test_vectorized_potential_matches_scalar(trap, alpha):
    pts = np.array([[0.1e-6, -0.05e-6, 0.3e-6], [0.0, 0.2e-6, -0.5e-6]])
    u_vec, f_vec = optics.optical_potential(trap, alpha, pts)
    for i, r in enumerate(pts):
        u, f = optics.optical_potential(trap, alpha, r)
        assert u == pytest.approx(u_vec[i], rel=1e-12)
        assert np.allclose(f, f_vec[i], rtol=1e-12)


# ---------------------------------------------------------------------------
# trap frequencies


def test_frequency_routes_agree(trap, alpha, particle):
    direct = optics.trap_frequencies(trap, alpha, particle)
    curvature = optics.trap_frequencies_from_curvature(trap, alpha, particle)
    assert np.allclose(direct, curvature, rtol=1e-9)


def test_frequencies_from_numerical_curvature(trap, alpha, particle):
    # second difference of the potential at the focus, axis by axis
    h = 2e-11
    m = particle.mass
    for i, w_ref in enumerate(
            optics.trap_frequencies_from_curvature(trap, alpha, particle)):
        dr = np.zeros(3)
        dr[i] = h
        up, _ = optics.optical_potential(trap, alpha, dr)
        mid, _ = optics.optical_potential(trap, alpha, np.zeros(3))
        dn, _ = optics.optical_potential(trap, alpha, -dr)
        curv = (up - 2 * mid + dn) / h**2
        assert math.sqrt(curv / m) == pytest.approx(w_ref, rel=1e-5)


def test_frequency_scaling_with_power(trap, alpha, particle):
    trap4 = TrapSpec(power=4 * trap.power, waist_x=trap.waist_x,
                     waist_y=trap.waist_y, wavelength=trap.wavelength)
    f1 = optics.trap_frequencies(trap, alpha, particle)
    f4 = optics.trap_frequencies(trap4, alpha, particle)
    assert np.allclose(np.array(f4) / np.array(f1), 2.0, rtol=1e-12)


def test_frequencies_frozen_values(trap, alpha, particle):
    fx, fy, fz = optics.trap_frequencies(trap, alpha, particle)
    assert fx == pytest.approx(2.2681420e6, rel=1e-6)
    assert fy == pytest.approx(1.9441217e6, rel=1e-6)
    assert fz == pytest.approx(7.7597718e5, rel=1e-6)


# ---------------------------------------------------------------------------
# Duffing tensor


def test_duffing_tensor_matches_symbolic_taylor(trap):
    sympy = pytest.importorskip("sympy")
    x, y, z = sympy.symbols("x y z", real=True)
    wx, wy, z0 = sympy.symbols("w_x w_y z_0", positive=True)
    s = 1 + z**2 / z0**2
    u = -sympy.exp(-2 * x**2 / (wx**2 * s) - 2 * y**2 / (wy**2 * s)) / s
    coords = [x, y, z]
    subs = {wx: trap.waist_x, wy: trap.waist_y, z0: trap.rayleigh_range}
    origin = {x: 0, y: 0, z: 0}
    oracle = np.empty((3, 3))
    for i, qi in enumerate(coords):
        f = -sympy.diff(u, qi)
        lin = sympy.diff(f, qi).subs(origin)
        for j, qj in enumerate(coords):
            # Taylor coefficients of q_i^3 and of q_i q_j^2 in f_i
            if j == i:
                cub = sympy.diff(f, qi, 3).subs(origin) / 6
            else:
                cub = sympy.diff(f, qi, qj, 2).subs(origin) / 2
            oracle[i, j] = float(sympy.simplify(cub / lin).subs(subs))
    assert np.allclose(optics.duffing_coefficients(trap), oracle, rtol=1e-12)


def test_duffing_tensor_all_softening(trap):
    assert np.all(optics.duffing_coefficients(trap) < 0)


# ---------------------------------------------------------------------------
# rotation and torque


def test_rotational_frequencies_positive():
    cyl = ParticleSpec(Cylinder(50e-9, 300e-9), density=2198.0)
    trap = TrapSpec(power=0.5, waist_x=0.7e-6, waist_y=0.7e-6,
                    wavelength=1550e-9)
    pol = optics.polarizability(cyl, trap.wavelength)
    w_theta, w_phi = optics.rotational_frequencies(trap, cyl, pol)
    assert w_theta > w_phi > 0


def test_rotational_frequencies_need_cylinder(trap, alpha, particle):
    with pytest.raises(UnsupportedShapeError):
        optics.rotational_frequencies(trap, particle, alpha)


def test_eta_integrals_point_dipole_limit():
    # kl -> 0: eta1 -> int 3/4 (1 - s^2)/2 ds ... = 1, eta2 -> 0
    eta1, eta2 = optics._eta_integrals(1e-8)
    assert eta1 == pytest.approx(1.0, abs=1e-10)
    assert eta2 == pytest.approx(0.0, abs=1e-10)


def test_eta1_series_small_kl():
    # Taylor expansion of the sinc^2 weight gives
    # eta1 = 1 - (kl)^2/60 + (kl)^4/4200 + O(kl^6)
    for kl in (0.1, 0.3, 0.6):
        eta1, _ = optics._eta_integrals(kl)
        series = 1.0 - kl**2 / 60.0 + kl**4 / 4200.0
        assert eta1 == pytest.approx(series, abs=1e-4 * kl**6 + 1e-12)


def test_circular_torque_scales_with_power():
    cyl = ParticleSpec(Cylinder(40e-9, 100e-9), density=2198.0)
    trap1 = TrapSpec(power=0.1, waist_x=0.7e-6, waist_y=0.7e-6,
                     wavelength=1550e-9)
    trap2 = TrapSpec(power=0.2, waist_x=0.7e-6, waist_y=0.7e-6,
                     wavelength=1550e-9)
    pol = optics.polarizability(cyl, trap1.wavelength)
    n1, w1 = optics.circular_torque(trap1, cyl, pol, gamma_rot=1e3)
    n2, w2 = optics.circular_torque(trap2, cyl, pol, gamma_rot=1e3)
    assert n1 > 0 and w1 > 0
    assert n2 == pytest.approx(2 * n1, rel=1e-12)
    assert w2 == pytest.approx(2 * w1, rel=1e-12)


def test_circular_torque_warns_outside_regime():
    cyl = ParticleSpec(Cylinder(50e-9, 2e-6), density=2198.0)
    trap = TrapSpec(power=0.1, waist_x=0.7e-6, waist_y=0.7e-6,
                    wavelength=1550e-9)
    pol = optics.polarizability(cyl, trap.wavelength)
    with pytest.warns(UserWarning, match="Rayleigh-Gans"):
        optics.circular_torque(trap, cyl, pol, gamma_rot=1e3)
