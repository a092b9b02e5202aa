"""Dissipation and noise channels, and the particle's internal heat balance.

Each force channel (gas collisions, molecules emerging from the hot
surface, photon recoil, collapse-model noise) is a damping rate gamma
(rad/s) and a force spectral density S_ff, <F(t)F(t')> = 2 pi S_ff
delta(t - t'); a thermal channel at T has S_ff = m k_B T gamma / pi.
Channels add in gamma and in S_ff, and the summed bath has the
fluctuation-dissipation temperature T = pi S_ff / (k_B m gamma).

All rates are stored as angular rates (rad/s); conversion to Hz happens
only at I/O boundaries.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import optics
from .constants import c_light, eps0, hbar, k_B
from .optics import UnsupportedShapeError
from .particles import ParticleSpec, Sphere
from .roots import brentq

# zeta(5), as scipy.special.zeta(5) gives it
ZETA5 = 1.03692775514337
# Specific heat ratio of a diatomic gas, used in the gas cooling power.
GAMMA_SH = 7.0 / 5.0
# Kinetic diameter (m) and mass (kg) of an N2 molecule, the gas of GasSpec.
N2_DIAMETER = 0.372e-9
N2_MASS = 4.65e-26


class OutOfRegimeError(ValueError):
    """Raised when inputs fall outside a formula's validity regime."""


class NoSteadyStateError(ValueError):
    """Raised when no stationary solution exists for the requested inputs."""


@dataclass(frozen=True)
class GasSpec:
    """Background N2 gas state (molecules of N2_DIAMETER and N2_MASS).

    Parameters
    ----------
    pressure : float
        Gas pressure (Pa).
    temperature : float
        Gas temperature (K).
    accommodation : float
        Thermal accommodation coefficient in [0, 1]; the fraction of
        thermal energy a molecule equilibrates with the particle surface
        during a collision.
    """

    pressure: float
    temperature: float
    accommodation: float = 1.0

    def __post_init__(self):
        if self.pressure < 0:
            raise ValueError("pressure must be non-negative")
        if self.temperature <= 0:
            raise ValueError("gas temperature must be positive")
        if not 0.0 <= self.accommodation <= 1.0:
            raise ValueError("accommodation coefficient must lie in [0, 1]")

    @property
    def cross_section(self) -> float:
        """Collision cross section sigma_gas = pi d_m^2 (m^2)."""
        return math.pi * N2_DIAMETER**2

    @property
    def viscosity(self) -> float:
        """Dilute-gas viscosity mu_v = 2 sqrt(m_gas k_B T) / (3 sqrt(pi) sigma)."""
        return (2.0 * math.sqrt(N2_MASS * k_B * self.temperature)
                / (3.0 * math.sqrt(math.pi) * self.cross_section))

    @property
    def mean_free_path(self) -> float:
        """l_bar = k_B T / (sqrt(2) sigma_gas P); infinite at zero pressure."""
        if self.pressure == 0:
            return math.inf
        return k_B * self.temperature / (math.sqrt(2.0) * self.cross_section
                                         * self.pressure)

    @property
    def thermal_speed(self) -> float:
        """Mean molecular speed v_th = sqrt(8 k_B T / (pi m_gas))."""
        return math.sqrt(8.0 * k_B * self.temperature
                         / (math.pi * N2_MASS))

    def knudsen(self, radius: float) -> float:
        """Knudsen number Kn = l_bar / radius."""
        return self.mean_free_path / radius


def nitrogen(pressure: float, temperature: float = 300.0,
             accommodation: float = 0.65) -> GasSpec:
    """N2 gas at the given pressure (Pa) with a silica-typical accommodation."""
    return GasSpec(pressure, temperature, accommodation=accommodation)


def _require_sphere(particle: ParticleSpec, what: str) -> float:
    if not isinstance(particle.shape, Sphere):
        raise UnsupportedShapeError(f"{what} requires a sphere "
                                    "(use cylinder_damping for cylinders)")
    return particle.shape.radius


def thermal_force_density(mass: float, temperature: float, gamma: float) -> float:
    """S_ff = m k_B T gamma / pi for a channel in equilibrium at T."""
    return mass * k_B * temperature * gamma / math.pi


def gas_damping(particle: ParticleSpec, gas: GasSpec) -> tuple[float, float]:
    """Center-of-mass damping of a sphere by gas collisions.

    Implements the interpolation valid at all Knudsen numbers,

        gamma/2pi = 3 mu_v (a/m) 0.619/(0.619 + Kn) (1 + c_K),
        c_K = 0.31 Kn / (0.785 + 1.152 Kn + Kn^2),

    together with the thermal force density S_ff = m k_B T_gas gamma / pi.
    At zero pressure both vanish; for Kn >> 1 the result approaches the
    linear-in-pressure form `gas_damping_linear` within 10%, and Kn -> 0
    recovers the Stokes drag 3 a mu_v / m.
    """
    a = _require_sphere(particle, "gas damping")
    if gas.pressure == 0:
        return 0.0, 0.0
    kn = gas.knudsen(a)
    c_k = 0.31 * kn / (0.785 + 1.152 * kn + kn**2)
    gamma = 2.0 * math.pi * 3.0 * gas.viscosity * a / particle.mass \
        * 0.619 / (0.619 + kn) * (1.0 + c_k)
    return gamma, thermal_force_density(particle.mass, gas.temperature, gamma)


def gas_damping_linear(particle: ParticleSpec, gas: GasSpec) -> tuple[float, float]:
    """Free-molecular (Kn >> 1) gas damping, linear in pressure.

    gamma/2pi = (3 / (pi sqrt(2))) mu_v sigma_gas / (k_B T rho) * P / a.
    """
    a = _require_sphere(particle, "gas damping")
    gamma = 2.0 * math.pi * 3.0 / (math.pi * math.sqrt(2.0)) \
        * gas.viscosity * gas.cross_section \
        / (k_B * gas.temperature * particle.density) * gas.pressure / a
    return gamma, thermal_force_density(particle.mass, gas.temperature, gamma)


def hot_molecule_channel(particle: ParticleSpec, gas: GasSpec, T_int: float,
                         gamma_gas: float) -> tuple[float, float, float]:
    """Extra damping and noise from molecules leaving the hot surface.

    Molecules emerge thermalized to T_em = T_gas + c_acc (T_int - T_gas)
    and act as a second bath:

        gamma_em = (1/16) sqrt(T_em / T_gas) gamma_gas,
        S_ff_em = (m k_B / pi) [c_acc T_int + (1 - c_acc) T_gas] gamma_em.

    Returns (gamma_em, S_ff_em, T_em).
    """
    if T_int <= 0:
        raise ValueError("internal temperature must be positive")
    c = gas.accommodation
    t_em = gas.temperature + c * (T_int - gas.temperature)
    gamma_em = gamma_gas / 16.0 * math.sqrt(t_em / gas.temperature)
    s_ff = particle.mass * k_B / math.pi \
        * (c * T_int + (1.0 - c) * gas.temperature) * gamma_em
    return gamma_em, s_ff, t_em


def combined_gas_channel(particle: ParticleSpec, gas: GasSpec,
                         T_int: float) -> float:
    """Coefficient c_P (Hz um / mbar) of the impinging plus emerging
    gas damping, gamma_gas + gamma_em = 2 pi c_P P / a; 0 at zero pressure.

    For silica spheres at room temperature c_P is of order 50 and, deep
    in the free-molecular regime, independent of the radius.
    """
    a = _require_sphere(particle, "combined gas channel")
    gamma_gas, _ = gas_damping(particle, gas)
    gamma_em, _, _ = hot_molecule_channel(particle, gas, T_int, gamma_gas)
    if gas.pressure == 0:
        return 0.0
    return (gamma_gas + gamma_em) / (2.0 * math.pi) * a / gas.pressure * 1e8


def _cylinder_prefactor(particle: ParticleSpec, gas: GasSpec) -> float:
    d = particle.shape.diameter
    c = gas.accommodation
    return 2.0 * math.pi * 6.0 * math.sqrt(2.0) \
        * gas.viscosity * gas.cross_section \
        / (k_B * gas.temperature * particle.density) * gas.pressure / d \
        * (2.0 - 0.5 * c + math.pi / 4.0 * c)


def cylinder_damping(particle: ParticleSpec, gas: GasSpec,
                     axis) -> tuple[np.ndarray, float]:
    """Translational damping tensor and rotational damping of a cylinder.

    The tensor (rad/s) is anisotropic about the symmetry axis m_hat,

        Gamma_trans = pref (I - f m m^T),
        f = (8 - 6 c + pi c) / (8 - 2 c + pi c),

    so the perpendicular eigenvalue is `pref` (double) and the parallel
    one pref (1 - f).  Rotational damping about transverse axes is
    isotropic and equals `pref`.  Valid in the free-molecular regime;
    warns for Kn < 10 and raises for Kn < 1.
    """
    from .particles import Cylinder
    if not isinstance(particle.shape, Cylinder):
        raise UnsupportedShapeError("cylinder damping requires a cylinder")
    m_hat = np.asarray(axis, dtype=float)
    m_hat = m_hat / np.linalg.norm(m_hat)
    kn = gas.knudsen(particle.characteristic_radius)
    if kn < 1:
        raise OutOfRegimeError(f"Kn = {kn:.2g} < 1: free-molecular formula invalid")
    if kn < 10:
        warnings.warn(f"Kn = {kn:.2g} < 10: free-molecular formula marginal",
                      stacklevel=2)
    c = gas.accommodation
    pref = _cylinder_prefactor(particle, gas)
    f = (8.0 - 6.0 * c + math.pi * c) / (8.0 - 2.0 * c + math.pi * c)
    tensor = pref * (np.eye(3) - f * np.outer(m_hat, m_hat))
    return tensor, pref


def sphere_rotational_damping(particle: ParticleSpec, gas: GasSpec) -> float:
    """Rotational damping of a sphere, gamma_rot (rad/s)."""
    a = _require_sphere(particle, "sphere rotational damping")
    return 2.0 * math.pi * 30.0 * gas.accommodation / (8.0 * math.pi * math.sqrt(2.0)) \
        * gas.viscosity * gas.cross_section \
        / (k_B * gas.temperature * particle.density) * gas.pressure / a


def photon_recoil(p_scat: float, orientation: str, omega_l: float,
                  mass: float) -> tuple[float, float]:
    """Photon shot-noise bath from the scattered power P_scat.

    gamma_rad = c_dp P_scat / (m c^2) and
    S_ff_rad = c_dp hbar omega_L P_scat / (2 pi c^2), with c_dp = 2/5 for
    motion along the polarization and 4/5 perpendicular to it.
    """
    if orientation == "parallel":
        c_dp = 2.0 / 5.0
    elif orientation == "perpendicular":
        c_dp = 4.0 / 5.0
    else:
        raise ValueError("orientation must be 'parallel' or 'perpendicular'")
    gamma = c_dp * p_scat / (mass * c_light**2)
    s_ff = c_dp * hbar * omega_l * p_scat / (2.0 * math.pi * c_light**2)
    return gamma, s_ff


def csl_noise(lambda_csl: float, r_csl: float, alpha_csl: float) -> float:
    """Collapse-model force noise S_ff = lambda (hbar / r)^2 alpha.

    The mass and geometry factor alpha_csl must be supplied by the
    caller; for a sphere it scales as m^(2/3).
    """
    if lambda_csl < 0 or r_csl <= 0 or alpha_csl < 0:
        raise ValueError("collapse parameters must be non-negative (r > 0)")
    return lambda_csl * (hbar / r_csl) ** 2 * alpha_csl


def effective_temperature(s_ff: float, gamma_cm: float, mass: float) -> float:
    """Fluctuation-dissipation temperature T_CM = pi S_ff / (k_B m gamma)."""
    if gamma_cm <= 0:
        raise NoSteadyStateError("no stationary state without net damping")
    return math.pi * s_ff / (k_B * mass * gamma_cm)


def default_blackbody_polarizability(particle: ParticleSpec) -> float:
    """Imaginary polarizability averaged over the blackbody spectrum.

    The silica value 0.1 * 4 pi eps0 a^3, used for every particle.
    """
    return 0.1 * 4.0 * math.pi * eps0 * particle.characteristic_radius**3


def blackbody_spectral_rate(omega, temperature: float, alpha_bb_imag: float):
    """Spectral photon absorption rate density rho(omega) (per s per rad/s).

    Weights the cross section sigma_abs(omega), from the spectrum-averaged
    constant alpha_bb'', by the Planck occupation.
    """
    omega = np.asarray(omega, dtype=float)
    sigma_abs = alpha_bb_imag * omega / (c_light * eps0)
    x = hbar * omega / (k_B * temperature)
    occ = 1.0 / np.expm1(np.clip(x, 1e-300, 700.0))
    return (omega / (math.pi * c_light)) ** 2 * sigma_abs * occ


def blackbody_rates(particle: ParticleSpec, T_env: float,
                    T_int: float) -> tuple[float, float]:
    """Integrated blackbody absorption and emission powers (W).

    Both follow the fifth-power law

        E_dot = +/- 24 zeta(5) / (pi^2 eps0 c^3 hbar^4) alpha_bb'' (k_B T)^5

    with T = T_env for absorption (positive) and T = T_int for emission
    (negative).  They cancel exactly at T_int = T_env.
    """
    alpha_bb_imag = default_blackbody_polarizability(particle)
    pref = 24.0 * ZETA5 / (math.pi**2 * eps0 * c_light**3 * hbar**4) * alpha_bb_imag
    return pref * (k_B * T_env) ** 5, -pref * (k_B * T_int) ** 5


def blackbody_power_quadrature(particle: ParticleSpec,
                               temperature: float) -> float:
    """Absorbed blackbody power by direct quadrature of the spectral rate.

    Independent check of the closed form in `blackbody_rates`: integrates
    hbar omega rho_abs(omega) over omega in [0, 100 k_B T / hbar].
    """
    from scipy.integrate import quad

    alpha_bb_imag = default_blackbody_polarizability(particle)
    w_max = 100.0 * k_B * temperature / hbar

    def integrand(w):
        return hbar * w * blackbody_spectral_rate(w, temperature, alpha_bb_imag)

    power, _ = quad(integrand, 0.0, w_max, epsrel=1e-10, limit=200)
    return power


def gas_cooling_power(particle: ParticleSpec, gas: GasSpec, T_int: float) -> float:
    """Heat flow from the particle surface to the gas (W, negative if hot).

    E_dot = -c_acc sqrt(2/3pi) pi a^2 v_th (g+1)/(g-1) (T_int/T_gas - 1) P
    with the diatomic specific heat ratio g = 7/5.  Free-molecular regime
    only; warns when the mean free path is not large against the radius.
    """
    a = particle.characteristic_radius
    if gas.pressure > 0 and gas.mean_free_path < 10 * a:
        warnings.warn("gas cooling formula used outside the Knudsen regime",
                      stacklevel=2)
    return -gas.accommodation * math.sqrt(2.0 / (3.0 * math.pi)) \
        * math.pi * a**2 * gas.thermal_speed \
        * (GAMMA_SH + 1.0) / (GAMMA_SH - 1.0) \
        * (T_int / gas.temperature - 1.0) * gas.pressure


@dataclass(frozen=True)
class InternalThermalState:
    """Steady internal temperature and its power budget (W)."""

    T_int: float
    absorbed_optical: float
    gas_exchange: float
    bb_absorbed: float
    bb_emitted: float

    @property
    def residual(self) -> float:
        return (self.absorbed_optical + self.gas_exchange
                + self.bb_absorbed + self.bb_emitted)


T_INT_MAX = 5000.0


def _power_balance(particle: ParticleSpec, gas: GasSpec, intensity: float,
                   wavelength: float):
    sigma_abs = optics.absorption_cross_section(particle, wavelength)
    absorbed = intensity * sigma_abs

    def terms(t_int):
        e_gas = gas_cooling_power(particle, gas, t_int)
        e_abs, e_emis = blackbody_rates(particle, gas.temperature, t_int)
        return absorbed, e_gas, e_abs, e_emis

    return terms


def internal_temperature(particle: ParticleSpec, gas: GasSpec, intensity: float,
                         wavelength: float) -> InternalThermalState:
    """Steady internal temperature from the surface power balance.

    Solves absorbed optical power + gas exchange + blackbody absorption
    + blackbody emission = 0 for T_int by Brent's method on
    [T_gas, 5000 K], to within 1e-9 K + 1e-14 T_int (`roots.brentq`,
    which takes scipy's steps and loads no scipy module); the gas
    temperature is also the blackbody environment's.  Above 5000 K the
    particle is considered destroyed and an error is raised with the
    bracket residuals.
    """
    terms = _power_balance(particle, gas, intensity, wavelength)

    def residual(t_int):
        return sum(terms(t_int))

    lo, hi = gas.temperature, T_INT_MAX
    r_lo, r_hi = residual(lo), residual(hi)
    if r_lo <= 0:
        t_star = lo
    elif r_hi > 0:
        raise NoSteadyStateError(
            "no steady internal temperature in [%.0f, %.0f] K: "
            "residuals %.3e W and %.3e W" % (lo, hi, r_lo, r_hi))
    else:
        t_star = brentq(residual, lo, hi, xtol=1e-9, rtol=1e-14)
    return InternalThermalState(t_star, *terms(t_star))


def internal_temperature_evolution(particle: ParticleSpec, gas: GasSpec,
                                   intensity: float, wavelength: float,
                                   T0: float, t_eval) -> np.ndarray:
    """Integrate m c dT_int/dt = sum of power terms from T_int(0) = T0."""
    from scipy.integrate import solve_ivp

    terms = _power_balance(particle, gas, intensity, wavelength)
    heat_cap = particle.mass * particle.heat_capacity
    t_eval = np.asarray(t_eval, dtype=float)

    def rhs(_, y):
        return [sum(terms(y[0])) / heat_cap]

    sol = solve_ivp(rhs, (t_eval[0], t_eval[-1]), [T0], t_eval=t_eval,
                    rtol=1e-8, atol=1e-8, method="RK45")
    if not sol.success:
        raise RuntimeError(f"internal temperature ODE failed: {sol.message}")
    return sol.y[0]


def pressure_sweep(particle: ParticleSpec, gas_template: GasSpec,
                   intensity: float, wavelength: float,
                   pressures_mbar) -> dict[str, np.ndarray]:
    """Damping, internal and center-of-mass temperature versus pressure.

    For each pressure: solve the steady internal temperature, sum the gas,
    hot-molecule and photon-recoil (perpendicular motion) channels, and
    assign T_CM through the fluctuation-dissipation relation.

    Returns columns pressure_mbar, gamma_cm_rad_s, T_int_K, T_cm_K.
    """
    pressures_mbar = np.asarray(pressures_mbar, dtype=float)
    pol = optics.polarizability(particle, wavelength)
    p_scat = pol.sigma_scat * intensity
    omega_l = 2.0 * math.pi * c_light / wavelength
    gamma_rad, s_rad = photon_recoil(p_scat, "perpendicular", omega_l,
                                     particle.mass)

    gammas, t_ints, t_cms = [], [], []
    for p_mbar in pressures_mbar:
        gas = replace(gas_template, pressure=p_mbar * 100.0)
        state = internal_temperature(particle, gas, intensity, wavelength)
        gamma_gas, s_gas = gas_damping(particle, gas)
        gamma_em, s_em, _ = hot_molecule_channel(particle, gas, state.T_int,
                                                 gamma_gas)
        gamma = gamma_gas + gamma_em + gamma_rad
        gammas.append(gamma)
        t_ints.append(state.T_int)
        t_cms.append(effective_temperature(s_gas + s_em + s_rad, gamma,
                                           particle.mass))
    return {"pressure_mbar": pressures_mbar,
            "gamma_cm_rad_s": np.array(gammas),
            "T_int_K": np.array(t_ints),
            "T_cm_K": np.array(t_cms)}
