"""Interwell hopping rates across damping regimes.

Limiting formulas (spatial-diffusion and energy-diffusion), the
depopulation-factor interpolation between them, well actions, and a
Monte Carlo harness that counts hops in simulated double-well
trajectories with a hysteresis detector.

The bistable potential is the tilted quartic

    U(q) = b (q^2 - q_m^2)^2 - tilt * q,

with minima A (left) and C (right) separated by the saddle B.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .constants import k_B
from .langevin import (BathModel, ForceModel, after_run_bytes,
                       simulate_double_well, simulate_double_well_bytes,
                       step_count, well_labels)
from .roots import brentq


@dataclass(frozen=True)
class Extremum:
    """Location, energy and curvature frequency of a potential extremum."""

    position: float
    energy: float
    omega: float  # sqrt(|U''|/m); magnitude of the imaginary value at a saddle
    kind: str     # "minimum" or "saddle"


@dataclass(frozen=True)
class DoubleWellSpec:
    """Tilted bistable quartic with derived extremal properties.

    Parameters
    ----------
    b : float
        Quartic strength (J/m^4).
    q_m : float
        Half-separation of the untilted minima (m).
    tilt : float
        Linear bias (N); positive tilt deepens the right well.
    mass : float
        Particle mass (kg).
    """

    b: float
    q_m: float
    mass: float
    tilt: float = 0.0

    def __post_init__(self):
        if self.b <= 0 or self.q_m <= 0 or self.mass <= 0:
            raise ValueError("b, q_m and mass must be positive")

    def potential(self, q):
        q = np.asarray(q, dtype=float)
        return self.b * (q**2 - self.q_m**2) ** 2 - self.tilt * q

    def curvature(self, q) -> float:
        return 12.0 * self.b * q**2 - 4.0 * self.b * self.q_m**2

    @cached_property
    def extrema(self) -> tuple[Extremum, Extremum, Extremum]:
        """(A, B, C): left minimum, saddle, right minimum."""
        roots = np.roots([4.0 * self.b, 0.0, -4.0 * self.b * self.q_m**2,
                          -self.tilt])
        roots = np.sort(roots.real[np.abs(roots.imag) < 1e-9 * self.q_m])
        if len(roots) != 3:
            raise ValueError("tilt too large: potential is no longer bistable")
        out = []
        for pos, kind in zip(roots, ("minimum", "saddle", "minimum")):
            curv = self.curvature(pos)
            out.append(Extremum(float(pos), float(self.potential(pos)),
                                math.sqrt(abs(curv) / self.mass), kind))
        return tuple(out)

    def barrier(self, well: str) -> float:
        """Barrier height U_B - U_well (J) seen from well 'A' or 'C'."""
        a, b_sad, c = self.extrema
        return b_sad.energy - (a.energy if well == "A" else c.energy)

    @cached_property
    def actions(self) -> tuple[float, float]:
        """(S_A, S_C): the loop `action` of each well."""
        return action(self, "A"), action(self, "C")


def extremize(potential, q_grid) -> list[Extremum]:
    """Locate extrema of a tabulated 1D potential by deflated root finding.

    Brackets sign changes of the numerical derivative on `q_grid`, then
    refines each root by `roots.brentq`; curvatures come from a central
    second difference with relative step 1e-5.  Returned frequencies use
    unit mass; scale by 1/sqrt(m) for a physical particle.
    """
    q_grid = np.asarray(q_grid, dtype=float)
    h = 1e-5 * (q_grid[-1] - q_grid[0])

    def dU(q):
        return (potential(q + h) - potential(q - h)) / (2.0 * h)

    vals = dU(q_grid)
    out = []
    for i in np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]:
        root = brentq(dU, q_grid[i], q_grid[i + 1], xtol=1e-12 * abs(h) + 1e-30)
        curv = (potential(root + h) - 2.0 * potential(root)
                + potential(root - h)) / h**2
        kind = "minimum" if curv > 0 else "saddle"
        out.append(Extremum(root, float(potential(root)),
                            math.sqrt(abs(curv)), kind))
    return out


def rate_hd(spec: DoubleWellSpec, gamma: float, temperature: float,
            well: str = "A") -> float:
    """Spatial-diffusion (high damping) hopping rate out of a well.

    R = (W^well / |W_B|) [sqrt(|W_B|^2 + gamma^2/4) - gamma/2]
        exp(-U_barrier / k_B T) / 2pi,

    the 1D Kramers rate over the saddle frequency W_B = sqrt(|U''|/m).
    The bracket is the damped growth rate of the unstable saddle
    direction, so the undamped limit recovers the transition-state
    value (W^well / 2 pi) e^{-beta U}.
    """
    a, saddle, c = spec.extrema
    src = a if well == "A" else c
    bracket = math.sqrt(saddle.omega**2 + gamma**2 / 4.0) - gamma / 2.0
    return (src.omega / saddle.omega * bracket / (2.0 * math.pi)
            * math.exp(-spec.barrier(well) / (k_B * temperature)))


def rate_hd_approx(spec: DoubleWellSpec, gamma: float,
                   temperature: float) -> float:
    """1D overdamped rate from well A, W^A W^B e^{-beta U} / (2 pi gamma)."""
    a, saddle, _ = spec.extrema
    return (a.omega * saddle.omega / (2.0 * math.pi * gamma)
            * math.exp(-spec.barrier("A") / (k_B * temperature)))


def action(spec: DoubleWellSpec, well: str = "A") -> float:
    """Loop action S = oint p dq of the barrier-energy orbit in one well.

    The orbit at the saddle energy U_B runs from the saddle s through the
    well minimum to the far turning point and back, so
    S = 2 int sqrt(2 m (U_B - U(r))) dr.  The energy lost per
    oscillation at weak friction is gamma S.  The saddle is a double root
    of U - U_B, which for the tilted quartic gives

        U_B - U(r) = b (r - s)^2 (D^2 - (r + s)^2),  D^2 = 2 q_m^2 - 2 s^2,

    with turning points -s -/+ D.  With u = +/-(r + s) (+ toward well C)
    the integral runs from the saddle at u = c = +/-2s to u = D, and

        S = 2 sqrt(2 m b) int_c^D (u - c) sqrt(D^2 - u^2) du
          = sqrt(2 m b) [D^2 (w - alpha c) - w^3 / 3],

    where w = sqrt(D^2 - c^2) and alpha = atan2(w, c).  For both wells at
    tilts up to 0.99 of the bistable limit this agrees to 4e-15 relative
    with the same integral in 40-digit arithmetic, and to 4e-14 with a
    `brentq` turning point and a `quad` integral at epsrel 1e-13 (the
    error of that reference) up to 0.95.
    """
    s = spec.extrema[1].position
    c = 2.0 * s if well == "C" else -2.0 * s
    d = math.sqrt(2.0 * (spec.q_m - s) * (spec.q_m + s))
    w = math.sqrt((d - c) * (d + c))
    return (math.sqrt(2.0 * spec.mass * spec.b)
            * (d * d * (w - math.atan2(w, c) * c) - w**3 / 3.0))


def rate_ld(spec: DoubleWellSpec, gamma: float, temperature: float) -> float:
    """Energy-diffusion (low damping) rate out of well A,
    gamma S W e^{-beta U} / (2 pi k_B T)."""
    a = spec.extrema[0]
    return (gamma * spec.actions[0] * a.omega
            / (2.0 * math.pi * k_B * temperature)
            * math.exp(-spec.barrier("A") / (k_B * temperature)))


def _depopulation_rule():
    """Nodes x_k = 4 sin^2(phi_k) and weights of a tanh-sinh rule
    (Takahasi & Mori, Publ. RIMS 9, 721, 1974) for (2/pi) int_0^{pi/2}
    f(phi) dphi: t_k = k h for |k| <= 205 with h = 1/64, where the
    weights have fallen to 1e-17, u = (pi/2) sinh t and
    phi = (pi/2) / (1 + e^{-2u}), which keeps the digits of the nodes
    near phi = 0 that (1 + tanh u) pi/4 would round away."""
    h = 1.0 / 64.0
    t = h * np.arange(-205, 206)
    u = 0.5 * math.pi * np.sinh(t)
    phi = 0.5 * math.pi / (1.0 + np.exp(-2.0 * u))
    weights = 0.25 * math.pi * h * np.cosh(t) / np.cosh(u) ** 2
    return 4.0 * np.sin(phi) ** 2, weights


_DEPOPULATION_NODES, _DEPOPULATION_WEIGHTS = _depopulation_rule()


def depopulation_factor(delta: float, temperature: float) -> float:
    """Upsilon(delta): probability correction for incomplete well relaxation.

    Upsilon = exp[(1/pi) int_0^inf ln(1 - e^{-(d/kT)(x^2 + 1/4)})
                               dx / (x^2 + 1/4)],

    monotone in delta with limits 0 (delta -> 0) and 1 (delta -> inf);
    for small delta it behaves as delta / k_B T.  With x = cot(phi) / 2
    the exponent is (2/pi) int_0^{pi/2} ln(1 - e^{-d / (4 sin^2 phi)}) dphi,
    a finite interval on which the integrand goes to 0 smoothly at
    phi -> 0; it is summed on the 411 fixed nodes of
    `_depopulation_rule` (h = 1/64), which agree with a 40-digit
    quadrature to 6e-15 relative in Upsilon over d in [1e-8, 745].
    """
    if delta < 0:
        raise ValueError("energy loss parameter must be non-negative")
    if delta == 0:
        return 0.0
    d = delta / (k_B * temperature)
    if d > 745.0:   # every term is below e^{-186}: Upsilon rounds to 1
        return 1.0
    # ln(1 - e^{-y}) through expm1 keeps its digits at small y
    logs = np.log(-np.expm1(-d / _DEPOPULATION_NODES))
    return math.exp(float(np.dot(_DEPOPULATION_WEIGHTS, logs)))


@dataclass(frozen=True)
class RateResult:
    """Hopping rates (1/s) and depopulation diagnostics at one damping."""

    gamma: float
    r_turnover: float
    r_hd_total: float
    upsilon_a: float


def turnover_rate(spec: DoubleWellSpec, gamma: float,
                  temperature: float) -> RateResult:
    """Total hopping rate valid from the energy- to the spatial-diffusion limit.

    R(gamma) = Upsilon(g S_A) Upsilon(g S_C) / Upsilon(g S_A + g S_C)
               * [R_HD(A->C) + R_HD(C->A)].

    Approaches the spatial-diffusion sum at large gamma and is linear in
    gamma at small gamma, with a single maximum near gamma ~ |W_B|.
    """
    s_a, s_c = spec.actions
    u_a = depopulation_factor(gamma * s_a, temperature)
    # a symmetric well has S_C == S_A, so Upsilon(g S_C) is u_a
    u_c = (u_a if s_c == s_a
           else depopulation_factor(gamma * s_c, temperature))
    u_sum = depopulation_factor(gamma * (s_a + s_c), temperature)
    hd = rate_hd(spec, gamma, temperature, "A") \
        + rate_hd(spec, gamma, temperature, "C")
    factor = u_a * u_c / u_sum if u_sum > 0 else 0.0
    return RateResult(gamma, factor * hd, hd, u_a)


def escape_rate(barrier: float, temperature: float, attempt: float) -> float:
    """Arrhenius escape rate R = R0 exp(-U / k_B T)."""
    return attempt * math.exp(-barrier / (k_B * temperature))


def _well_changes(filled: np.ndarray) -> tuple[int, int]:
    """Counts of A -> C and C -> A changes in hysteresis well labels."""
    flips = np.diff(filled, axis=1)
    return (int(np.count_nonzero(flips == 2)),
            int(np.count_nonzero(flips == -2)))


def hop_statistics(q: np.ndarray, minima: tuple, dt: float):
    """Directional hop rates from trajectories with hysteresis labeling.

    A sample is labeled A (or C) on reaching the corresponding minimum
    and keeps its label until it reaches the other one, so recrossings
    of the barrier top are not counted (see `langevin.well_labels`).
    Returns (rate A->C, rate C->A, total hop count).
    """
    filled = well_labels(q, minima)
    n_ac, n_ca = _well_changes(filled)
    t_a = np.count_nonzero(filled == -1) * dt
    t_c = np.count_nonzero(filled == 1) * dt
    rate_ac = n_ac / t_a if t_a > 0 else 0.0
    rate_ca = n_ca / t_c if t_c > 0 else 0.0
    return rate_ac, rate_ca, n_ac + n_ca


# Steps per recorded sample of `monte_carlo_rates`.
MC_RECORD_EVERY = 4


def monte_carlo_bytes(dt: float, duration: float, n_traj: int,
                      n_groups: int) -> dict:
    """Bytes, by name, that `monte_carlo_rates` holds at once: its run of
    n_groups dampings, then two bytes per label of one damping."""
    need = simulate_double_well_bytes(dt, duration, n_traj,
                                      MC_RECORD_EVERY, n_groups)
    need["label comparisons"] = after_run_bytes(need, 2 * n_traj * (
        step_count(duration, dt) // MC_RECORD_EVERY + 1))
    return need


def monte_carlo_rates(spec: DoubleWellSpec, gammas, temperature: float,
                      duration: float, dt: float, seeds, n_traj: int = 64,
                      record_every: int = MC_RECORD_EVERY
                      ) -> list[tuple[float, int]]:
    """Total hopping rate R(A->C) + R(C->A) from Langevin ensembles, one
    (rate, hop count) per damping in `gammas`.

    Every damping is one group of `n_traj` trajectories with its own
    seed from `seeds`, and all groups run side by side in one labelled
    `simulate_double_well` ensemble; a group's result is the one a run
    of that damping and seed alone gives.  Trajectories start split
    between the two minima.  The rate comes from a two-state estimate
    on the hysteresis labels: sampling the occupied well at a lag that
    exceeds both the intrawell relaxation time and the oscillation
    period filters out activated sloshing across the barrier top, and
    the flip fraction f at that lag gives the total rate through
    -ln(1 - 2 f) / lag for a symmetric two-state process, so a tilted
    well (``spec.tilt != 0``) is refused.  The hop count is that of the
    same labels, by the rule of `hop_statistics`.
    """
    if spec.tilt != 0:
        raise ValueError("monte_carlo_rates uses the symmetric two-state "
                         "estimate and needs an untilted well (tilt = 0)")
    a, saddle, c = spec.extrema
    minima = (a.position, c.position)
    q0 = np.where(np.arange(n_traj) % 2 == 0, a.position, c.position)
    # omega0 only sets the internal scaling here; the double well
    # replaces the harmonic force entirely.
    force = ForceModel(mass=spec.mass, omega0=a.omega)
    baths = [BathModel(g, temperature) for g in gammas]
    width = n_traj * len(baths)
    # every row starts at a minimum, so every label is known
    labels = simulate_double_well(
        (spec.b, spec.q_m), minima, force, baths,
        (np.tile(q0, len(baths)), np.zeros(width)), dt, duration,
        list(seeds), n_traj=width, record_every=record_every,
        allow_coarse_dt=True)
    dts = record_every * dt
    results = []
    for i, gamma in enumerate(gammas):
        filled = labels[i * n_traj:(i + 1) * n_traj]
        # lag long enough to decorrelate intrawell motion and sloshing
        lag_t = max(5.0 / gamma, 30.0 * 2.0 * math.pi / a.omega,
                    10.0 * gamma / saddle.omega**2)
        lag = int(round(lag_t / dts))
        lag = min(max(lag, 1), max(1, filled.shape[1] // 20))
        while True:
            f = float(np.mean(filled[:, lag:] != filled[:, :-lag]))
            if f < 0.4 or lag == 1:
                break
            lag //= 2
        if f >= 0.5:
            raise RuntimeError("hop rate too fast for the chosen duration")
        rate = -math.log1p(-2.0 * f) / (lag * dts)
        results.append((rate, sum(_well_changes(filled))))
    return results
