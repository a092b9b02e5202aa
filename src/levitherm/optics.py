"""Optical trap physics in the Rayleigh (point-dipole) regime.

Maps particle and beam parameters to polarizability, optical potential,
harmonic trap frequencies, Duffing coefficients, librational frequencies
and the spin torque on a cylinder in circularly polarized light.

The focal intensity profile is Gaussian transverse to the beam and
Lorentzian along it,

    U(r) = -U0 / (1 + (z/z0)^2) * exp[-2/(1+(z/z0)^2) (x^2/wx^2 + y^2/wy^2)],

with trap depth U0 = alpha' E0^2 / 4 and E0^2 = 4 P / (pi c eps0 w0^2),
w0^2 = wx*wy.  The longitudinal waist is defined through the Rayleigh
range, z0 = wz / sqrt(2).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .constants import c_light, eps0
from .particles import Cylinder, ParticleSpec, Sphere


class UnsupportedShapeError(TypeError):
    """Raised when an operation does not apply to the particle's shape."""


@dataclass(frozen=True)
class TrapSpec:
    """Single-beam optical trap parameters; the trap potential takes the
    beam linearly polarized along x, `circular_torque` circularly.

    Parameters
    ----------
    power : float
        Optical power (W).
    waist_x, waist_y : float
        Transverse focal waists (m).
    wavelength : float
        Laser wavelength (m).
    """

    power: float
    waist_x: float
    waist_y: float
    wavelength: float

    def __post_init__(self):
        if min(self.power, self.waist_x, self.waist_y, self.wavelength) <= 0:
            raise ValueError("trap parameters must be positive")

    @property
    def waist(self) -> float:
        """Geometric-mean transverse waist w0 = sqrt(wx wy)."""
        return math.sqrt(self.waist_x * self.waist_y)

    @property
    def rayleigh_range(self) -> float:
        return math.pi * self.waist**2 / self.wavelength

    @property
    def waist_z(self) -> float:
        """Longitudinal waist, wz = sqrt(2) z0."""
        return math.sqrt(2.0) * self.rayleigh_range

    @property
    def wavenumber(self) -> float:
        return 2.0 * math.pi / self.wavelength

    @property
    def field_squared(self) -> float:
        """Peak field intensity E0^2 = 4 P / (pi c eps0 w0^2)."""
        return 4.0 * self.power / (math.pi * c_light * eps0 * self.waist**2)

    @property
    def intensity(self) -> float:
        """Peak optical intensity I0 = c eps0 E0^2 / 2 = 2 P / (pi w0^2)."""
        return c_light * eps0 * self.field_squared / 2.0


@dataclass(frozen=True)
class Polarizability:
    """Particle polarizability and derived optical cross sections.

    `alpha0` is the static (quasi-static) polarizability; `alpha` includes
    the radiation-reaction correction.  For a cylinder `alpha0_parallel`
    and `alpha0_perpendicular` hold the two tensor components and `alpha0`
    the parallel (maximal) one.
    """

    alpha0: complex
    alpha: complex
    sigma_scat: float
    sigma_abs: float
    alpha0_parallel: complex | None = None
    alpha0_perpendicular: complex | None = None

    @property
    def susceptibility_anisotropy(self) -> complex:
        if self.alpha0_parallel is None:
            raise UnsupportedShapeError("anisotropy defined for cylinders only")
        return self.alpha0_parallel - self.alpha0_perpendicular


def polarizability(particle: ParticleSpec, wavelength: float) -> Polarizability:
    """Polarizability alpha0 = eps0 V chi with shape-dependent susceptibility.

    Sphere: Clausius-Mossotti, chi = 3 (eps_p - 1)/(eps_p + 2).
    Cylinder: chi_par = eps_r - 1, chi_perp = 2 (eps_r - 1)/(eps_r + 1).

    The sphere polarizability is corrected for radiation reaction,
    alpha = alpha0 / (1 - i k^3 alpha0 / (6 pi eps0)); the correction is
    omitted for cylinders where the dipole model is only used for torque
    and libration estimates.
    """
    k = 2.0 * math.pi / wavelength
    eps_p = particle.permittivity
    V = particle.volume
    if isinstance(particle.shape, Sphere):
        chi = 3.0 * (eps_p - 1.0) / (eps_p + 2.0)
        alpha0 = eps0 * V * chi
        alpha = alpha0 / (1.0 - 1j * k**3 * alpha0 / (6.0 * math.pi * eps0))
        par = perp = None
    else:
        chi_par = eps_p - 1.0
        chi_perp = 2.0 * (eps_p - 1.0) / (eps_p + 1.0)
        par = eps0 * V * chi_par
        perp = eps0 * V * chi_perp
        alpha0 = par
        alpha = alpha0
    sigma_scat = abs(alpha) ** 2 * k**4 / (6.0 * math.pi * eps0**2)
    sigma_abs = alpha0.imag * k / eps0
    return Polarizability(alpha0, alpha, sigma_scat, sigma_abs, par, perp)


def absorption_cross_section(particle: ParticleSpec, wavelength: float) -> float:
    """sigma_abs = alpha0'' k / eps0 at the given wavelength."""
    return polarizability(particle, wavelength).sigma_abs


def trap_depth(trap: TrapSpec, alpha: Polarizability) -> float:
    """Potential depth U0 = alpha' E0^2 / 4 (J, positive)."""
    return alpha.alpha.real * trap.field_squared / 4.0


def optical_potential(trap: TrapSpec, alpha: Polarizability, r):
    """Potential energy U(r) and force F = -grad U at position(s) r.

    Parameters
    ----------
    r : array_like, shape (3,) or (N, 3)
        Position(s) relative to the focus, beam along z.

    Returns
    -------
    U : float or ndarray (N,)
    F : ndarray (3,) or (N, 3)
        Analytic gradient (no numerical differencing).
    """
    r = np.asarray(r, dtype=float)
    single = r.ndim == 1
    r = np.atleast_2d(r)
    x, y, z = r[:, 0], r[:, 1], r[:, 2]
    u0 = trap_depth(trap, alpha)
    z0 = trap.rayleigh_range
    wx2, wy2 = trap.waist_x**2, trap.waist_y**2

    g = 1.0 / (1.0 + (z / z0) ** 2)
    a = x**2 / wx2 + y**2 / wy2
    envelope = np.exp(-2.0 * g * a)
    U = -u0 * g * envelope

    dg = -2.0 * z / z0**2 * g**2
    dU_dx = 4.0 * u0 * g**2 * (x / wx2) * envelope
    dU_dy = 4.0 * u0 * g**2 * (y / wy2) * envelope
    dU_dz = -u0 * dg * envelope * (1.0 - 2.0 * a * g)
    F = -np.stack([dU_dx, dU_dy, dU_dz], axis=-1)
    if single:
        return float(U[0]), F[0]
    return U, F


def trap_frequencies(trap: TrapSpec, alpha: Polarizability,
                     particle: ParticleSpec) -> tuple[float, float, float]:
    """Harmonic frequencies (Omega_x, Omega_y, Omega_z) in rad/s.

    Omega_i = 2 sqrt(chi / (c pi rho)) sqrt(P) / (w0 w_i), with the
    longitudinal waist wz = sqrt(2) z0 and chi the (radiation-reaction
    corrected) effective susceptibility alpha' / (eps0 V).
    """
    chi_eff = alpha.alpha.real / (eps0 * particle.volume)
    pref = 2.0 * math.sqrt(chi_eff / (c_light * math.pi * particle.density)) \
        * math.sqrt(trap.power) / trap.waist
    return (pref / trap.waist_x, pref / trap.waist_y, pref / trap.waist_z)


def trap_frequencies_from_curvature(trap: TrapSpec, alpha: Polarizability,
                                    particle: ParticleSpec) -> tuple[float, float, float]:
    """Frequencies from the analytic curvature of the optical potential.

    Independent route used to cross-check `trap_frequencies`:
    Omega_i = sqrt((d^2 U / d i^2)|_0 / m).
    """
    u0 = trap_depth(trap, alpha)
    m = particle.mass
    z0 = trap.rayleigh_range
    return (
        math.sqrt(4.0 * u0 / (m * trap.waist_x**2)),
        math.sqrt(4.0 * u0 / (m * trap.waist_y**2)),
        math.sqrt(2.0 * u0 / (m * z0**2)),
    )


def duffing_coefficients(trap: TrapSpec) -> np.ndarray:
    """Duffing tensor xi_ij (1/m^2) of the Gaussian-Lorentzian focus.

    Defined by the quartic expansion of the optical force,
    F_i = -m Omega_i^2 q_i (1 + sum_j xi_ij q_j^2).  All entries are
    negative (trap softening).  The exact Taylor coefficients are

        xi_xj = -2/wj^2 (transverse), xi_iz = -2/z0^2,
        xi_zx = -4/wx^2, xi_zy = -4/wy^2, xi_zz = -2/z0^2.
    """
    wx2, wy2 = trap.waist_x**2, trap.waist_y**2
    z02 = trap.rayleigh_range**2
    return np.array([
        [-2.0 / wx2, -2.0 / wy2, -2.0 / z02],
        [-2.0 / wx2, -2.0 / wy2, -2.0 / z02],
        [-4.0 / wx2, -4.0 / wy2, -2.0 / z02],
    ])


def rotational_frequencies(trap: TrapSpec, particle: ParticleSpec,
                           alpha: Polarizability) -> tuple[float, float]:
    """Librational frequencies (Omega_theta, Omega_phi) of a trapped cylinder.

    Includes the finite-size correction (k_L l)^2 / 12 in Omega_theta.
    """
    if not isinstance(particle.shape, Cylinder):
        raise UnsupportedShapeError("rotational frequencies require a cylinder")
    length = particle.shape.length
    chi_par = (alpha.alpha0_parallel / (eps0 * particle.volume)).real
    chi_perp = (alpha.alpha0_perpendicular / (eps0 * particle.volume)).real
    dchi = chi_par - chi_perp
    kl = trap.wavenumber * length
    base = 24.0 * trap.power / (math.pi * particle.density * c_light
                                * trap.waist**2 * length**2)
    omega_theta = math.sqrt(base * chi_par * (dchi / chi_par + kl**2 / 12.0))
    omega_phi = math.sqrt(base * dchi) if dchi > 0 else 0.0
    return omega_theta, omega_phi


def _eta_integrals(kl: float) -> tuple[float, float]:
    """eta_1, eta_2 angular-scattering integrals by adaptive quadrature."""
    from scipy.integrate import quad

    def sinc2(s):
        arg = kl * s / 2.0
        return np.sinc(arg / math.pi) ** 2

    eta1, _ = quad(lambda s: 0.75 * (1.0 - s**2) * sinc2(s), -1.0, 1.0,
                   epsrel=1e-10, epsabs=1e-12)
    eta2, _ = quad(lambda s: 0.375 * (1.0 - 3.0 * s**2) * sinc2(s), -1.0, 1.0,
                   epsrel=1e-10, epsabs=1e-12)
    return eta1, eta2


def circular_torque(trap: TrapSpec, particle: ParticleSpec,
                    alpha: Polarizability, gamma_rot: float) -> tuple[float, float]:
    """Spin torque N_phi and steady rotation rate for circular polarization.

    N_phi = dchi l^2 d^4 k^3 / (96 c w0^2) [dchi eta1(kl) + chi_perp eta2(kl)] P
    and Omega_rot = N_phi / (I gamma_rot) with I = m l^2 / 12.

    Valid in the Rayleigh-Gans regime k_L l (eps_r - 1) << 1; a warning is
    issued when that parameter exceeds 0.5.
    """
    if not isinstance(particle.shape, Cylinder):
        raise UnsupportedShapeError("circular torque requires a cylinder")
    d, length = particle.shape.diameter, particle.shape.length
    k = trap.wavenumber
    chi_par = (alpha.alpha0_parallel / (eps0 * particle.volume)).real
    chi_perp = (alpha.alpha0_perpendicular / (eps0 * particle.volume)).real
    dchi = chi_par - chi_perp
    rg = k * length * abs(particle.permittivity.real - 1.0)
    if rg > 0.5:
        warnings.warn(f"Rayleigh-Gans parameter k_L l (eps_r - 1) = {rg:.2f} > 0.5",
                      stacklevel=2)
    eta1, eta2 = _eta_integrals(k * length)
    torque = (dchi * length**2 * d**4 * k**3 / (96.0 * c_light * trap.waist**2)
              * (dchi * eta1 + chi_perp * eta2) * trap.power)
    omega_rot = torque / (particle.moment_of_inertia * gamma_rot)
    return torque, omega_rot

