"""Estimators and closed-form references for trajectory statistics.

Covers mean-square displacement, correlation functions, power spectral
densities (linear, thermally broadened nonlinear, and the asymmetric
low-occupation spectrum), Lorentzian calibration fits, steady-state and
relaxation energy distributions, modulated effective temperatures, and
squeezing quadratures.

Spectral convention: two-sided S_qq(W) on an angular frequency grid,
normalized so that the integral over all W equals <q^2>.  For the
harmonic oscillator this is

    S_qq(W) = (gamma k_B T / pi m) / [(W^2 - W0^2)^2 + gamma^2 W^2].
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .constants import hbar, k_B
from .langevin import ForceModel, Trajectory, mechanical_energy


class FitError(RuntimeError):
    """Raised when a spectral fit does not converge."""


class AboveThresholdError(ValueError):
    """Raised when a parametric drive admits no stationary state."""


# ---------------------------------------------------------------------------
# mean-square displacement


def msd(traj: Trajectory, lags: np.ndarray) -> np.ndarray:
    """Ensemble- and time-averaged mean-square displacement at integer lags."""
    q = np.atleast_2d(traj.q)
    out = np.empty(len(lags))
    for i, lag in enumerate(lags):
        if lag == 0:
            out[i] = 0.0
        else:
            d = q[:, lag:] - q[:, :-lag]
            out[i] = np.mean(d**2)
    return out


def msd_free(t, gamma: float, temperature: float, mass: float):
    """Free-particle MSD 2 k_B T / (m gamma^2) [gamma t - 1 + exp(-gamma t)].

    Ballistic (k_B T / m) t^2 at short times, diffusive 2 D t with
    D = k_B T / (m gamma) at long times.
    """
    t = np.asarray(t, dtype=float)
    gt = gamma * t
    # series for small gamma t keeps precision in the ballistic regime
    small = gt < 1e-4
    bracket = np.where(small, gt**2 / 2.0 - gt**3 / 6.0,
                       gt - 1.0 + np.exp(-np.minimum(gt, 700.0)))
    return 2.0 * k_B * temperature / (mass * gamma**2) * bracket


def _damped_modes(t, omega0: float, gamma: float):
    """(e^{-gamma t/2}, cos wt, sin(wt)/w) with w^2 = W0^2 - gamma^2/4.

    The underdamped modes continue analytically to the overdamped case
    (cosh wt, sinh(wt)/w) and to critical damping (1, t).
    """
    t = np.asarray(t, dtype=float)
    disc = omega0**2 - gamma**2 / 4.0
    decay = np.exp(-0.5 * gamma * t)
    if disc > 0:
        w = math.sqrt(disc)
        return decay, np.cos(w * t), np.sin(w * t) / w
    if disc < 0:
        w = math.sqrt(-disc)
        return decay, np.cosh(w * t), np.sinh(w * t) / w
    return decay, 1.0, t


def msd_harmonic(t, omega0: float, gamma: float, temperature: float,
                 mass: float):
    """Position MSD of the trapped particle, valid in all damping regimes."""
    decay, c, s = _damped_modes(t, omega0, gamma)
    return (2.0 * k_B * temperature / (mass * omega0**2)
            * (1.0 - decay * (c + 0.5 * gamma * s)))


# ---------------------------------------------------------------------------
# correlation functions


def _next_fast_len(n: int) -> int:
    """The smallest 11-smooth integer >= n (prime factors 2, 3, 5, 7 and
    11), a fast length of numpy's pocketfft transforms: what
    scipy.fft.next_fast_len(n) returns."""
    best = 1 << (n - 1).bit_length()
    p11 = 1
    while p11 < best:
        p7 = p11
        while p7 < best:
            p5 = p7
            while p5 < best:
                p3 = p5
                while p3 < best:
                    # the least p3 2^k >= n
                    best = min(best, p3 << (-(-n // p3) - 1).bit_length())
                    p3 *= 3
                p5 *= 5
            p7 *= 7
        p11 *= 11
    return best


def _prev_fast_len(n: int) -> int:
    """The largest 5-smooth integer <= n (prime factors 2, 3 and 5), a
    fast length of a real transform: what
    scipy.fft.prev_fast_len(n, real=True) returns."""
    best = 1 << (n.bit_length() - 1)
    p5 = 1
    while p5 <= n:
        p3 = p5
        while p3 <= n:
            # the largest p3 2^k <= n
            best = max(best, p3 << (n // p3).bit_length() - 1)
            p3 *= 3
        p5 *= 5
    return best


def _fft_corr(x: np.ndarray, y: np.ndarray, max_lag: int) -> np.ndarray:
    """Unbiased estimator of <x(t) y(t + lag)> averaged over the ensemble."""
    n = x.shape[1]
    nfft = _next_fast_len(2 * n)
    fx = np.fft.rfft(x, nfft, axis=1)
    fy = np.fft.rfft(y, nfft, axis=1)
    r = np.fft.irfft(np.conj(fx) * fy, nfft, axis=1)[:, :max_lag + 1]
    counts = n - np.arange(max_lag + 1)
    return (r / counts).mean(axis=0)


def autocorrelations(traj: Trajectory, max_lag: int):
    """Estimated C_qq, C_vv, C_qv at lags 0..max_lag.

    Returns (lag times, C_qq, C_vv, C_qv) with C_qv = <q(t) v(t+lag)>.
    """
    q = np.atleast_2d(traj.q)
    v = np.atleast_2d(traj.velocity)
    lags = np.arange(max_lag + 1) * (traj.time[1] - traj.time[0])
    return (lags, _fft_corr(q, q, max_lag), _fft_corr(v, v, max_lag),
            _fft_corr(q, v, max_lag))


def autocorrelation_qq(t, omega0, gamma, temperature, mass):
    """C_qq(t) = k_B T / (m W0^2) - MSD(t)/2."""
    return (k_B * temperature / (mass * omega0**2)
            - 0.5 * msd_harmonic(t, omega0, gamma, temperature, mass))


def autocorrelation_vv(t, omega0, gamma, temperature, mass):
    """C_vv(t) = (k_B T/m) e^{-gamma t/2}(cos wt - (gamma/2w) sin wt)."""
    decay, c, s = _damped_modes(t, omega0, gamma)
    return k_B * temperature / mass * decay * (c - 0.5 * gamma * s)


def autocorrelation_qv(t, omega0, gamma, temperature, mass):
    """C_qv(t) = <q(0) v(t)> = -(k_B T / m w) e^{-gamma t/2} sin(wt).

    The time derivative of C_qq; the mirrored cross correlation
    <v(0) q(t)> carries the opposite sign.
    """
    decay, _, s = _damped_modes(t, omega0, gamma)
    return -k_B * temperature / mass * decay * s


# ---------------------------------------------------------------------------
# power spectral densities


@dataclass
class SpectralDensity:
    """Two-sided spectrum on an angular frequency grid (values in m^2 s)."""

    omega: np.ndarray
    values: np.ndarray
    n_segments: int
    dt: float

    def integral(self) -> float:
        """Total power, to compare against <q^2>."""
        return float(np.trapezoid(self.values, self.omega))


# samples of the ensemble that `psd` windows, transforms and squares at
# once (see `welch_stream_bytes`)
PSD_BLOCK = 2**14


def welch_segment(n_samples: int, n_segments: int) -> int:
    """Samples per Welch segment of `psd`: n_segments half-overlapping
    segments span n_samples, a segment has at least 8 samples, and its
    length is rounded down to the largest 5-smooth one, a fast length of
    numpy's real FFT (scipy.fft.prev_fast_len(n, real=True))."""
    return _prev_fast_len(max(8, int(2 * n_samples / (n_segments + 1))))


def welch_stream_bytes(n_traj: int, n_samples: int, n_segments: int) -> dict:
    """Bytes, by name, that a `WelchStream` holds at once: a segment of
    every trajectory, a row block with its transform and modulus (32 B a
    sample), then, beyond the window it frees, the spectrum and the fit,
    model line and table `psd` forms from it (40 B a segment sample)."""
    seg = welch_segment(n_samples, n_segments)
    return {"welch window": 8 * n_traj * seg,
            "psd row block": 32 * max(PSD_BLOCK, seg),
            "spectrum after the run": 8 * seg * max(0, 5 - n_traj)}


class WelchStream:
    """The spectrum of `psd`, reduced while the path arrives.

    A reducer of positions: each call stream(i0, q) hands it
    samples i0, i0 + 1, ... of every trajectory, as a time-major
    (rows, n_traj) view, in order, `n_samples` in all, sampled every
    `dt`.  A segment is transformed as soon as its last sample arrives,
    its samples before the call read from the window and the rest from
    `q` in place.  The window, a ring of n_traj x segment samples made
    when a call first leaves a segment pending, then keeps only the
    samples of the segment still pending.  Segments are transformed in start order
    and each in row blocks in trajectory order, as `psd` describes, so
    `spectrum()` is bit-identical whatever the rows of each call.
    """

    def __init__(self, n_traj: int, n_samples: int, dt: float,
                 n_segments: int = 8):
        seg = welch_segment(n_samples, n_segments)
        self.starts = range(0, n_samples - seg + 1, seg // 2)
        if not self.starts:
            raise ValueError("trajectory too short for the requested "
                             "segmentation")
        self.n_traj, self.n_samples, self.dt = n_traj, n_samples, dt
        self.win = np.hanning(seg)
        self.block = np.empty((min(n_traj, max(1, PSD_BLOCK // seg)), seg))
        self.acc = np.zeros(seg // 2 + 1)
        self.window = None
        self.received = 0     # samples seen
        self.done = 0         # segments transformed

    def __call__(self, i0: int, q: np.ndarray):
        end = i0 + len(q)
        if i0 != self.received or end > self.n_samples:
            raise ValueError(f"samples {i0}..{end - 1} do not follow the "
                             f"{self.received} of {self.n_samples} seen")
        seg, win, block = len(self.win), self.win, self.block
        rows = len(block)
        while (self.done < len(self.starts)
               and self.starts[self.done] + seg <= end):
            start = self.starts[self.done]
            # (offset in the segment, n_traj x samples view) of each piece
            pieces = [(a - start, self.window[:, pos:pos + n])
                      for a, pos, n in self._ring(start, i0)]
            a = max(start, i0)
            pieces.append((a - start, q[a - i0:start + seg - i0].T))
            for r in range(0, self.n_traj, rows):
                b = block[:min(rows, self.n_traj - r)]
                for off, part in pieces:
                    n = part.shape[1]
                    np.multiply(part[r:r + rows], win[off:off + n],
                                out=b[:, off:off + n])
                spec = np.abs(np.fft.rfft(b, axis=1))
                np.square(spec, out=spec)
                spec[0] += self.acc
                np.sum(spec, axis=0, out=self.acc)
            self.done += 1
        self.received = end
        if self.done == len(self.starts):
            self.window = None    # no segment is pending
            return
        # keep the pending segment's samples of this call
        if self.window is None and self.starts[self.done] < end:
            self.window = np.empty((self.n_traj, seg))
        for a, pos, n in self._ring(max(self.starts[self.done], i0), end):
            self.window[:, pos:pos + n] = q[a - i0:a - i0 + n].T

    def _ring(self, a: int, b: int):
        """(sample, slot, count) of each run of samples a .. b - 1 that
        is contiguous in the window, where sample k sits in slot k modulo
        the segment length."""
        seg = len(self.win)
        while a < b:
            pos = a % seg
            n = min(b - a, seg - pos)
            yield a, pos, n
            a += n

    def spectrum(self) -> SpectralDensity:
        """The two-sided spectrum, once every sample has arrived."""
        if self.received != self.n_samples:
            raise ValueError(f"{self.received} of {self.n_samples} samples "
                             "seen")
        seg, win = len(self.win), self.win
        count = self.n_traj * len(self.starts)
        # mean periodogram, as a per-(rad/s) rather than per-Hz density
        half = self.acc * (self.dt / ((win**2).sum() * count * 2.0 * math.pi))
        freq = np.fft.fftshift(np.fft.fftfreq(seg, d=self.dt))
        return SpectralDensity(2.0 * math.pi * freq,
                               np.concatenate([half[:0:-1],
                                               half[:(seg + 1) // 2]]),
                               count, self.dt)


def sample_moments_bytes(n_traj: int, n_samples: int) -> dict:
    """Bytes, by name, that a `SampleMoments` holds at once: its three
    moments of each sample and four arrays of a row block."""
    rows = min(n_samples, max(1, PSD_BLOCK // n_traj))
    return {f"moments of {n_samples} samples": 24 * n_samples,
            "moment blocks": 32 * rows * n_traj}


class SampleMoments:
    """Per-sample ensemble moments of a `langevin.simulate` run, reduced
    while it runs by the observer moments(i0, q, p): the mean and variance
    of q and the mean `langevin.mechanical_energy` at the trap frequency
    omega0, bit for bit numpy's mean(axis=0) and var(axis=0) of the
    (n_traj, n_samples) paths.  Row blocks of about PSD_BLOCK values are
    summed over trajectories in their order, as numpy's axis-0 sum adds,
    the variance over deviations from the mean (Chan, Golub and LeVeque,
    Am. Stat. 37, 242 (1983)).
    """

    def __init__(self, force: ForceModel, n_traj: int, n_samples: int):
        # squared as an array, as the recorder squares its frequencies
        self.force, self.omega = force, np.full(1, force.omega0)
        self.q_mean, self.q_var, self.energy = np.empty((3, n_samples))
        self.rows = min(n_samples, max(1, PSD_BLOCK // n_traj))
        self.pairwise = n_samples == 1

    def _mean(self, rows: np.ndarray) -> np.ndarray:
        # each row's mean over trajectories, added in numpy's axis-0
        # order: row by row, but pairwise for a path of one sample
        if self.pairwise:
            return rows.mean(axis=1)
        return np.add.accumulate(rows, axis=1)[:, -1] / rows.shape[1]

    def __call__(self, i0: int, q: np.ndarray, p: np.ndarray):
        for r in range(0, len(q), self.rows):
            q_r, p_r = q[r:r + self.rows], p[r:r + self.rows]
            at = slice(i0 + r, i0 + r + len(q_r))
            self.q_mean[at] = self._mean(q_r)
            dev = q_r - self.q_mean[at, None]
            dev *= dev
            self.q_var[at] = self._mean(dev)
            self.energy[at] = self._mean(mechanical_energy(
                self.force, q_r, p_r, self.omega))


def psd(q: np.ndarray, dt: float, n_segments: int = 8) -> SpectralDensity:
    """Hann-windowed periodogram of the positions `q`, shape
    (n_traj, n_samples) sampled every `dt`, averaged over segments
    (Welch, 50% overlap).

    Averages over the ensemble as well as over segments, and normalizes
    to the two-sided angular-frequency convention so the spectrum
    integrates to <q^2>.  Each segment is windowed in row blocks of about
    PSD_BLOCK samples and takes one real FFT per block; the squared
    moduli of all segments' rows are added in trajectory order, the order
    of numpy's axis-0 sum, so the result is bit-identical to one real
    transform of every segment's rows stacked.  The half spectrum is
    mirrored onto the two-sided grid.  The path is read in place, by
    one call of a `WelchStream`.
    """
    q = np.atleast_2d(q)
    stream = WelchStream(*q.shape, dt, n_segments)
    stream(0, q.T)
    return stream.spectrum()


def psd_analytic(omega, omega0: float, gamma: float, temperature: float,
                 mass: float):
    """Harmonic-oscillator spectrum (gamma k_B T / pi m) / [(W^2-W0^2)^2 + g^2 W^2]."""
    omega = np.asarray(omega, dtype=float)
    return (gamma * k_B * temperature / (math.pi * mass)
            / ((omega**2 - omega0**2) ** 2 + gamma**2 * omega**2))


def nonlinearity_parameter(xi: float, omega0: float, gamma: float,
                           temperature: float, mass: float) -> float:
    """R = 3 xi Q k_B T / (4 W^2 m): thermal frequency shift over linewidth."""
    q_factor = omega0 / gamma
    return 3.0 * abs(xi) * q_factor * k_B * temperature / (4.0 * omega0**2 * mass)


def psd_nonlinear(omega, omega0: float, gamma: float, temperature: float,
                  xi: float, mass: float):
    """Thermally broadened Duffing spectrum.

    Averages the energy-shifted Lorentzian kernel

        S_L(W, E) = E gamma / (pi m) / [(W^2 - What(E)^2)^2 + g^2 W^2],
        What(E) = W0 + 3 xi E / (4 m W0),

    over the Gibbs distribution rho(E) = exp(-E/k_B T)/k_B T by adaptive
    quadrature.  Reduces pointwise to `psd_analytic` as xi -> 0; for
    xi < 0 the line shape skews below W0.
    """
    from scipy.integrate import quad

    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    kt = k_B * temperature
    # energy (in k_B T) resonant with w, and the Lorentzian width in the
    # same units; both guide the quadrature to the narrow ridge
    slope = 3.0 * xi * kt / (4.0 * mass * omega0)
    out = np.empty_like(omega)
    for i, w in enumerate(omega):
        def integrand(u):
            e = u * kt
            what = omega0 + 3.0 * xi * e / (4.0 * mass * omega0)
            lor = 1.0 / ((w**2 - what**2) ** 2 + gamma**2 * w**2)
            return u * np.exp(-u) * lor

        pts = None
        if slope != 0.0:
            u_res = (w - omega0) / slope
            width = abs(gamma / (2.0 * slope))
            cand = [u_res + k * width for k in (-8.0, -2.0, 0.0, 2.0, 8.0)]
            pts = sorted(u for u in cand if 0.0 < u < 50.0) or None
        val, _ = quad(integrand, 0.0, 50.0, epsrel=1e-6, limit=500,
                      points=pts)
        out[i] = gamma * kt / (math.pi * mass) * val
    return out if out.size > 1 else float(out[0])


def psd_quantum(omega, omega0: float, gamma_eff: float, t_cm: float,
                mass: float):
    """Asymmetric spectrum when k_B T_CM is comparable to hbar W0.

    (hbar/pi) Im chi / (1 - e^{-x}), x = hbar W / k_B T_CM, written as
    gamma k_B T_CM / (pi m D exprel(-x)) with D the denominator of |chi|^2
    and exprel(y) = expm1(y) / y (1 at y = 0): finite at W = 0, where it
    is `psd_analytic`, and tending to it for |x| << 1.  The sideband
    ratio S(+W0)/S(-W0) = exp(hbar W0 / k_B T_CM).
    """
    omega = np.asarray(omega, dtype=float)
    denom_chi = (omega0**2 - omega**2) ** 2 + gamma_eff**2 * omega**2
    kt = k_B * t_cm
    y = -hbar * omega / kt
    tiny = np.abs(y) < 1e-16
    exprel = np.where(tiny, 1.0, np.expm1(y) / np.where(tiny, 1.0, y))
    return gamma_eff * kt / (math.pi * mass * denom_chi) / exprel


@dataclass
class LorentzianFit:
    """Calibration parameters recovered from a measured spectrum."""

    omega0: float
    gamma: float
    t_cm: float


def fit_bins(segment: int) -> int:
    """Bins that `lorentzian_fit` can use in a spectrum of `segment`-sample
    segments: positive frequencies up to a quarter of the largest."""
    return (segment - 1) // 2 // 4


# MINPACK's ftol, xtol and gtol, as scipy's least_squares sets them
FIT_TOL = 1e-8


def _lm_parameter(s: np.ndarray, c: np.ndarray, delta: float,
                  par: float) -> tuple[float, np.ndarray]:
    """MINPACK's lmpar on the SVD J D^-1 = U diag(s) V^T of the scaled
    Jacobian, with c = U^T f.  Returns the Levenberg-Marquardt parameter
    `par` and the scaled step D p = V z, z_i = -s_i c_i / (s_i^2 + par),
    such that par = 0 and |z| <= 1.1 delta, or par > 0 and |z| is within
    delta / 10 of delta.  `par` enters as the previous iteration's value
    and takes at most 10 safeguarded Newton steps on |z(par)| = delta."""
    tiny = np.finfo(float).tiny

    def step(par):
        z = np.divide(-s * c, s * s + par, out=np.zeros_like(s),
                      where=s * s + par > 0.0)
        return z, float(np.linalg.norm(z))

    def slope(par, z, znorm):
        """-(d|z|/dpar) / |z|, the sum of s^2 c^2 / (s^2 + par)^3 over
        |z|^2; par > 0 or every s > 0."""
        return float(np.sum(z * z / (s * s + par))) / znorm**2

    z, znorm = step(0.0)
    fp = znorm - delta
    if fp <= 0.1 * delta:
        return 0.0, z
    # bounds of Moré's safeguarded Newton iteration
    parl = (fp / delta) / slope(0.0, z, znorm) if np.all(s > 0) else 0.0
    gnorm = float(np.linalg.norm(s * c))
    paru = gnorm / delta or tiny / min(delta, 0.1)
    par = min(max(par, parl), paru) or gnorm / znorm
    for it in range(1, 11):
        if par == 0.0:
            par = max(tiny, 0.001 * paru)
        z, znorm = step(par)
        fp_before, fp = fp, znorm - delta
        if (abs(fp) <= 0.1 * delta or it == 10
                or (parl == 0.0 and fp <= fp_before < 0.0)):
            break
        parc = (fp / delta) / slope(par, z, znorm)
        if fp > 0.0:
            parl = max(parl, par)
        elif fp < 0.0:
            paru = min(paru, par)
        par = max(parl, par + parc)
    return par, z


def _levenberg_marquardt(fun, jac, x: np.ndarray, max_nfev: int):
    """Minimise |fun(x)|^2 by MINPACK's lmder (J. J. Moré, "The
    Levenberg-Marquardt algorithm: implementation and theory", Lecture
    Notes in Mathematics 630, 1978), as scipy's least_squares(method="lm")
    runs it: a trust region of radius delta in the variables scaled by D,
    Marquardt's diagonal of the largest column norms of the Jacobian seen
    so far, the initial radius 100 |D x0|, and MINPACK's tests at
    ftol = xtol = gtol = FIT_TOL.

    Returns (x, fun(x), message); the message is None on convergence,
    which is a relative cost reduction, actual and predicted, of at most
    ftol, a radius of at most xtol |D x|, or a cosine of at most gtol
    between the residuals and every column of the Jacobian.  It names
    the fault when a residual or the Jacobian is not finite or when
    `max_nfev` residual evaluations have not converged.
    """
    f = fun(x)
    fnorm = float(np.linalg.norm(f))
    nfev, diag, first = 1, None, True
    par = 0.0
    while True:
        if not (math.isfinite(fnorm) and np.all(np.isfinite(x))):
            return x, f, "the residuals are not finite"
        j = jac(x)
        if not np.all(np.isfinite(j)):
            return x, f, "the Jacobian is not finite"
        col_norms = np.linalg.norm(j, axis=0)
        if diag is None:
            diag = np.where(col_norms > 0.0, col_norms, 1.0)
            xnorm = float(np.linalg.norm(diag * x))
            delta = 100.0 * xnorm or 100.0
        g = np.abs(j.T @ f)
        if fnorm == 0.0 or np.all(g <= FIT_TOL * fnorm * col_norms):
            return x, f, None
        diag = np.maximum(diag, col_norms)
        u, s, vt = np.linalg.svd(j / diag, full_matrices=False)
        c = u.T @ f
        while True:
            par, z = _lm_parameter(s, c, delta, par)
            p = (vt.T @ z) / diag
            pnorm = float(np.linalg.norm(z))
            if first:
                delta = min(delta, pnorm)
            trial = x + p
            f_trial = fun(trial)
            nfev += 1
            fnorm1 = float(np.linalg.norm(f_trial))
            # relative reductions of the cost, actual and predicted by the
            # linear model; a non-finite trial counts as a failed step
            actred = (1.0 - (fnorm1 / fnorm)**2 if 0.1 * fnorm1 < fnorm
                      else -1.0)
            t1 = float(np.linalg.norm(j @ p)) / fnorm
            t2 = math.sqrt(par) * pnorm / fnorm
            prered = t1 * t1 + 2.0 * t2 * t2
            dirder = -(t1 * t1 + t2 * t2)
            ratio = actred / prered if prered != 0.0 else 0.0
            if ratio <= 0.25:
                temp = 0.5 if actred >= 0.0 else \
                    0.5 * dirder / (dirder + 0.5 * actred)
                if 0.1 * fnorm1 >= fnorm or temp < 0.1:
                    temp = 0.1
                delta = temp * min(delta, pnorm / 0.1)
                par /= temp
            elif par == 0.0 or ratio >= 0.75:
                delta = pnorm / 0.5
                par *= 0.5
            if ratio >= 1e-4:
                x, f, fnorm = trial, f_trial, fnorm1
                xnorm = float(np.linalg.norm(diag * x))
                first = False
            if ((abs(actred) <= FIT_TOL and prered <= FIT_TOL
                 and 0.5 * ratio <= 1.0) or delta <= FIT_TOL * xnorm):
                return x, f, None
            if nfev >= max_nfev:
                return x, f, (f"{max_nfev} residual evaluations did not "
                              "converge")
            if ratio >= 1e-4:
                break


def lorentzian_fit(spectrum: SpectralDensity, mass: float) -> LorentzianFit:
    """Least-squares fit of the harmonic spectrum to (W0, gamma, T).

    The residual is taken in log space, which weights each bin by its
    relative error; Welch bins have constant relative noise.  The fit
    uses only positive frequencies below a quarter of the Nyquist rate:
    the spectrum of the sampled process rolls off relative to the
    continuous-time line near Nyquist, and those bins would otherwise
    dominate the log-space cost.  The starting point is read off the
    spectrum: peak position, area over peak height, and total power.
    The parameters enter as their absolute values, and the cost is
    minimised by Levenberg-Marquardt (`_levenberg_marquardt`, MINPACK's
    steps and stopping tests at scipy's tolerances) on the analytic
    Jacobian of log S; a resolved line gives scipy's
    least_squares(method="lm") fit to about 1e-7 relative.  FitError is
    raised with fewer than 3 bins, when the residuals, the Jacobian or
    the fit are not finite, and when 20000 evaluations have not
    converged.  A fitted gamma below one Welch bin,
    2 pi / (segment x dt), is not identified by the spectrum (nor is
    T_CM with it): the cost is a flat valley there, and the fit warns.
    """
    w, s = spectrum.omega, spectrum.values
    keep = (w > 0.0) & (w <= 0.25 * float(w.max())) & (s > 0)
    w, s = w[keep], s[keep]
    if len(w) < 3:
        raise FitError(f"spectrum has {len(w)} usable bins (fit_bins); "
                       "the fit needs 3")
    w0_g = w[np.argmax(s)]
    if w0_g < 3.0 * (w[1] - w[0]):
        w0_g = w[np.argmax(s * w**2)]
    area = np.trapezoid(s, w)
    g_g = max(area / (math.pi * s.max()), w[1] - w[0])
    t_g = 2.0 * area * mass * w0_g**2 / k_B

    log_s = np.log(s)
    w2 = w * w

    def resid(p):
        w0, gam, temp = np.abs(p)
        model = psd_analytic(w, w0, gam, temp, mass)
        return np.log(model) - log_s

    def jac(p):
        w0, gam, temp = np.abs(p)
        denom = (w2 - w0**2) ** 2 + gam**2 * w2
        cols = np.empty((len(w), 3))
        cols[:, 0] = 4.0 * w0 * (w2 - w0**2) / denom
        cols[:, 1] = 1.0 / gam - 2.0 * gam * w2 / denom
        cols[:, 2] = 1.0 / temp
        return cols * np.sign(p)

    x, fun, message = _levenberg_marquardt(
        resid, jac, np.array([w0_g, g_g, t_g]), max_nfev=20000)
    if message is not None or not np.all(np.isfinite(x)):
        raise FitError(f"spectrum fit failed: {message}; "
                       f"residual norm {np.linalg.norm(fun):.3g}")
    w0, gam, temp = np.abs(x)
    bin_width = 2.0 * math.pi / (len(spectrum.omega) * spectrum.dt)
    if gam < bin_width:
        warnings.warn(f"fitted gamma {gam:.3g} rad/s is below one Welch bin "
                      f"of {bin_width:.3g} rad/s: the line is not resolved, "
                      "so gamma and T_CM are not identified", UserWarning)
    return LorentzianFit(w0, gam, temp)


# ---------------------------------------------------------------------------
# modulated steady states


def parametric_threshold(q_factor: float, omega_mod: float,
                         omega0: float) -> float:
    """Instability depth (2/Q) sqrt(1 + Q^2 (2 - w_mod/W0)^2)."""
    detune = 2.0 - omega_mod / omega0
    return 2.0 / q_factor * math.sqrt(1.0 + q_factor**2 * detune**2)


def modulation_strength(eps0: float, phi: float, omega0: float, omega: float,
                        gamma: float) -> float:
    """s = eps0 W0^2 sin(2 phi) / (gamma W), the linear bias on the energy.

    At resonance (W = 2 W0) this is eps0 Q sin(2 phi) / 2, which places
    the heating instability (s = -1 at phi = -pi/4) at eps0 = 2/Q, in
    agreement with the period-averaged power balance of the phase-locked
    drive eps(t) = eps0 cos(2 theta - 2 phi).
    """
    return eps0 * omega0**2 * math.sin(2.0 * phi) / (gamma * omega)


def effective_temperature_modulated(eps0: float, phi: float, omega0: float,
                                    omega: float, gamma: float,
                                    temperature: float) -> tuple[float, float]:
    """Effective temperature T' = T (1 + s)^{-1} and relaxation rate.

    s > 0 (phi in (0, pi/2)) cools, s < 0 heats; s <= -1 means the drive
    outruns dissipation and no stationary state exists, which coincides
    with the threshold eps0 > 2/Q at resonance.  The thermalization rate
    toward T' is gamma' = gamma (T/T' - 1) = gamma s.
    """
    s = modulation_strength(eps0, phi, omega0, omega, gamma)
    if 1.0 + s <= 0.0:
        raise AboveThresholdError(
            f"modulation bias s = {s:.3f} <= -1: effective temperature diverges")
    t_eff = temperature / (1.0 + s)
    return t_eff, gamma * s


# Cody's rational Chebyshev approximations of erf and erfc (Math. Comp. 23,
# 631 (1969)), as in his CALERF, coefficients highest power first: erf(x) =
# x A(x^2) on |x| <= 0.46875, erfcx(x) = C(x) on (0.46875, 4] and
# erfcx(x) = (1/sqrt(pi) - P(1/x^2)) / x beyond 4
_ERF_A = ((1.85777706184603153e-1, 3.16112374387056560e0,
           1.13864154151050156e2, 3.77485237685302021e2,
           3.20937758913846947e3),
          (1.0, 2.36012909523441209e1, 2.44024637934444173e2,
           1.28261652607737228e3, 2.84423683343917062e3))
_ERFCX_C = ((2.15311535474403846e-8, 5.64188496988670089e-1,
             8.88314979438837594e0, 6.61191906371416295e1,
             2.98635138197400131e2, 8.81952221241769090e2,
             1.71204761263407058e3, 2.05107837782607147e3,
             1.23033935479799725e3),
            (1.0, 1.57449261107098347e1, 1.17693950891312499e2,
             5.37181101862009858e2, 1.62138957456669019e3,
             3.29079923573345963e3, 4.36261909014324716e3,
             3.43936767414372164e3, 1.23033935480374942e3))
_ERFCX_P = ((1.63153871373020978e-2, 3.05326634961232344e-1,
             3.60344899949804439e-1, 1.25781726111229246e-1,
             1.60837851487422766e-2, 6.58749161529837803e-4),
            (1.0, 2.56852019228982242e0, 1.87295284992346725e0,
             5.27905102951428412e-1, 6.05183413124413191e-2,
             2.33520497626869185e-3))
# erfcx(x) for x below -26.628 exceeds the largest float
_ERFCX_XNEG = -26.628
# beyond 6.71e7, 1/(x sqrt(pi)) is erfcx to rounding
_ERFCX_XHUGE = 6.71e7
_INV_SQRT_PI = 0.56418958354775628695

# Wichura's AS241 (PPND16, Appl. Stat. 37, 477 (1988)): the inverse normal
# CDF as a ratio of degree-7 polynomials, highest power first, in
# 0.180625 - q^2 on |q| = |p - 1/2| <= 0.425, and beyond in r - 1.6 for
# r = sqrt(-log min(p, 1-p)) <= 5, then in r - 5
_AS241_CENTRAL = (
    (2.5090809287301226727e3, 3.3430575583588128105e4,
     6.7265770927008700853e4, 4.5921953931549871457e4,
     1.3731693765509461125e4, 1.9715909503065514427e3,
     1.3314166789178437745e2, 3.3871328727963666080e0),
    (5.2264952788528544610e3, 2.8729085735721942674e4,
     3.9307895800092710610e4, 2.1213794301586595867e4,
     5.3941960214247511077e3, 6.8718700749205790830e2,
     4.2313330701600911252e1, 1.0))
_AS241_NEAR = (
    (7.74545014278341407640e-4, 2.27238449892691845833e-2,
     2.41780725177450611770e-1, 1.27045825245236838258e0,
     3.64784832476320460504e0, 5.76949722146069140550e0,
     4.63033784615654529590e0, 1.42343711074968357734e0),
    (1.05075007164441684324e-9, 5.47593808499534494600e-4,
     1.51986665636164571966e-2, 1.48103976427480074590e-1,
     6.89767334985100004550e-1, 1.67638483018380384940e0,
     2.05319162663775882187e0, 1.0))
_AS241_FAR = (
    (2.01033439929228813265e-7, 2.71155556874348757815e-5,
     1.24266094738807843860e-3, 2.65321895265761230930e-2,
     2.96560571828504891230e-1, 1.78482653991729133580e0,
     5.46378491116411436990e0, 6.65790464350110377720e0),
    (2.04426310338993978564e-15, 1.42151175831644588870e-7,
     1.84631831751005468180e-5, 7.86869131145613259100e-4,
     1.48753612908506148525e-2, 1.36929880922735805310e-1,
     5.99832206555887937690e-1, 1.0))
# AS241 is fitted for r <= 27 (p above about 1e-317); beyond, the
# quantile is found from its asymptote
_AS241_R_MAX = 27.0


def _rational(coefs, x):
    """num(x) / den(x) by Horner's rule, for `coefs` = (num, den)."""
    num, den = (np.full_like(x, c[0]) for c in coefs)
    for out, c in ((num, coefs[0]), (den, coefs[1])):
        for k in c[1:]:
            out *= x
            out += k
    return num / den


def _erfcx(x):
    """exp(x^2) erfc(x) by Cody's approximations, for a float or an array.

    Finite for every x above -26.628 (where it exceeds the largest float)
    and never under- or overflowing on the way, as exp(x^2) erfc(x)
    does beyond |x| of about 26; negative x below -0.46875 reflect by
    erfcx(-x) = 2 exp(x^2) - erfcx(x).
    """
    x = np.asarray(x, dtype=float)
    y = np.abs(x)
    out = np.full_like(y, np.nan)
    small = y <= 0.46875
    xs = x[small]
    ysq = xs * xs
    out[small] = np.exp(ysq) * (1.0 - xs * _rational(_ERF_A, ysq))
    mid = (y > 0.46875) & (y <= 4.0)
    out[mid] = _rational(_ERFCX_C, y[mid])
    big = (y > 4.0) & (y < _ERFCX_XHUGE)
    yb = y[big]
    ysq = 1.0 / (yb * yb)
    out[big] = (_INV_SQRT_PI - ysq * _rational(_ERFCX_P, ysq)) / yb
    huge = y >= _ERFCX_XHUGE
    out[huge] = _INV_SQRT_PI / y[huge]
    neg = (x < -0.46875) & (x >= _ERFCX_XNEG)
    xn = x[neg]
    # exp(x^2) with x^2 split so that its rounding does not enter
    ysq = np.trunc(xn * 16.0) / 16.0
    e2 = np.exp(ysq * ysq) * np.exp((xn - ysq) * (xn + ysq))
    out[neg] = (e2 + e2) - out[neg]
    out[x < _ERFCX_XNEG] = np.inf
    return out[()]


def _log_ndtr(x: float) -> float:
    """log Phi(x), the log of the standard normal CDF, at a float.

    From math.erfc (by log1p above the median) down to x = -20, and
    below by erfcx, log(erfcx(-x/sqrt 2) / 2) - x^2 / 2, since
    erfc(-x/sqrt 2) loses digits and then underflows beyond x = -37.5.
    """
    z = x / math.sqrt(2.0)
    if x > 0.0:
        return math.log1p(-0.5 * math.erfc(z))
    if x > -20.0:
        return math.log(0.5 * math.erfc(-z))
    return math.log(0.5 * float(_erfcx(-z))) - 0.5 * x * x


def _ndtri_exp(w):
    """Phi^{-1}(e^w) for an array of w <= 0: the standard normal quantile
    of p = e^w, with no p formed where it would underflow.

    Wichura's AS241: a rational in q = e^w - 1/2 near the median; in the
    tails a rational in r = sqrt(-log min(p, 1-p)), with r = sqrt(-w)
    below the median and sqrt(-log(-expm1(w))) above it.  Beyond
    r = 27 the quantile solves log Phi(x) = w by two Newton steps from
    its asymptote x^2 = -2w - log(-4 pi w), with Phi / phi =
    sqrt(pi/2) erfcx(-x / sqrt 2).
    """
    w = np.asarray(w, dtype=float)
    q = np.exp(w) - 0.5
    # the central rational is finite for every |q| <= 1/2 (its denominator
    # stays above 0.002), so it runs on every w and the tails overwrite it
    x = q * _rational(_AS241_CENTRAL, 0.180625 - q * q)
    tail = np.abs(q) > 0.425
    upper = q[tail] > 0.0
    lw = w[tail]
    lw[upper] = np.log(-np.expm1(lw[upper]))
    r = np.sqrt(-lw)
    xt = np.empty_like(r)
    near = r <= 5.0
    xt[near] = _rational(_AS241_NEAR, r[near] - 1.6)
    far = (r > 5.0) & (r <= _AS241_R_MAX)
    xt[far] = _rational(_AS241_FAR, r[far] - 5.0)
    deep = r > _AS241_R_MAX
    if deep.any():
        xt[deep] = -_ndtri_exp_asymptotic(lw[deep])
    xt[~upper] *= -1.0
    x[tail] = xt
    return x


def _ndtri_exp_asymptotic(w):
    """Phi^{-1}(e^w) for w < -729 (and -inf at w = -inf)."""
    with np.errstate(invalid="ignore"):
        x = -np.sqrt(-2.0 * w - np.log(-4.0 * math.pi * w))
        for _ in range(2):
            h = _erfcx(-x / math.sqrt(2.0))
            x -= ((np.log(0.5 * h) - 0.5 * x * x - w)
                  * math.sqrt(0.5 * math.pi) * h)
    return np.where(np.isneginf(w), w, x)


@dataclass
class SteadyStateDistribution:
    """Energy law P_E(E) = Z^{-1} exp(-beta [(1+s) E + c E^2]).

    `linear` is (1+s) with s the modulation bias; `quadratic` is the
    feedback coefficient c = eta W0 / (4 m gamma W^2) in 1/J.
    """

    temperature: float
    linear: float
    quadratic: float
    omega0: float
    mass: float

    def __post_init__(self):
        if self.linear <= 0 and self.quadratic <= 0:
            raise AboveThresholdError("energy distribution not normalizable")

    @property
    def beta(self) -> float:
        return 1.0 / (k_B * self.temperature)

    @cached_property
    def normalization(self) -> float:
        """Z = (1/2) sqrt(pi / (beta c)) erfcx(beta(1+s) / (2 sqrt(beta c)))."""
        a = self.beta * self.linear
        b = self.beta * self.quadratic
        if b == 0:
            return 1.0 / a
        return 0.5 * math.sqrt(math.pi / b) * float(
            _erfcx(a / (2.0 * math.sqrt(b))))

    def pdf(self, energy):
        e = np.asarray(energy, dtype=float)
        expo = -self.beta * (self.linear * e + self.quadratic * e**2)
        out = np.where(e >= 0, np.exp(expo) / self.normalization, 0.0)
        return out

    def log_pdf(self, energy):
        e = np.asarray(energy, dtype=float)
        return (-self.beta * (self.linear * e + self.quadratic * e**2)
                - math.log(self.normalization))

    def mean(self) -> float:
        """<E>: the mean of the Gaussian in E truncated to E >= 0,
        loc + sigma sqrt(2/pi) / erfcx(alpha / sqrt 2), alpha = -loc / sigma
        (1 / (beta (1+s)) when c = 0)."""
        a = self.beta * self.linear
        b = self.beta * self.quadratic
        if b == 0:
            return 1.0 / a
        loc = -a / (2.0 * b)
        scale = 1.0 / math.sqrt(2.0 * b)
        alpha = -loc / scale
        return loc + scale * math.sqrt(2.0 / math.pi) / float(
            _erfcx(alpha / math.sqrt(2.0)))

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Exact draws: a truncated Gaussian in E, by its inverse CDF in log
        space from one uniform each (exponential when c = 0)."""
        a = self.beta * self.linear
        b = self.beta * self.quadratic
        if b == 0:
            return rng.exponential(1.0 / a, size=n)
        loc = -a / (2.0 * b)
        scale = 1.0 / math.sqrt(2.0 * b)
        w = np.log(rng.random(n)) + _log_ndtr(loc / scale)
        return loc - scale * _ndtri_exp(w)

    def sample_phase_space(self, n: int, rng: np.random.Generator):
        """(q, p) draws: energy from `sample`, phase uniform on the orbit."""
        e = self.sample(n, rng)
        theta = rng.uniform(0.0, 2.0 * math.pi, size=n)
        q = np.sqrt(2.0 * e / (self.mass * self.omega0**2)) * np.cos(theta)
        p = -np.sqrt(2.0 * self.mass * e) * np.sin(theta)
        return q, p


def steady_state_distribution(temperature: float, gamma: float, omega0: float,
                              mass: float, eps0: float = 0.0, phi: float = 0.0,
                              eta: float = 0.0,
                              omega: float | None = None) -> SteadyStateDistribution:
    """Energy distribution under parametric modulation and feedback.

    With eps0 = eta = 0 this is the Gibbs law with mean k_B T; feedback
    adds the quadratic term c E^2 with c = eta W0 / (4 m gamma W^2).
    """
    w = omega if omega is not None else omega0
    s = modulation_strength(eps0, phi, omega0, w, gamma) if eps0 else 0.0
    c = eta * omega0 / (4.0 * mass * gamma * w**2)
    return SteadyStateDistribution(temperature, 1.0 + s, c, omega0, mass)


def h_function(x):
    """h(x) = exp(x^2) erfc(x), evaluated stably as erfcx."""
    return _erfcx(x)


# ---------------------------------------------------------------------------
# relaxation


def relaxation_density(energy, e0: float, t: float, gamma: float,
                       temperature: float):
    """Transition density of the energy during free relaxation.

    P(E, t | E0) = c_t exp[-c_t (E + E0 e^{-gt})] I0(2 c_t sqrt(E E0 e^{-gt}))
    with c_t = beta / (1 - e^{-gamma t}), evaluated in log space so large
    Bessel arguments cannot overflow.  The t -> infinity limit is the
    exponential law beta e^{-beta E} for any E0.
    """
    from scipy.special import i0e

    e = np.asarray(energy, dtype=float)
    beta = 1.0 / (k_B * temperature)
    decay = math.exp(-gamma * t)
    c_t = beta / (1.0 - decay)
    arg = 2.0 * c_t * np.sqrt(np.maximum(e, 0.0) * e0 * decay)
    # log I0(x) = log(i0e(x)) + x
    log_p = (math.log(c_t) - c_t * (e + e0 * decay)
             + np.log(i0e(arg)) + arg)
    return np.where(e >= 0, np.exp(log_p), 0.0)


def relaxation_cdf(energy, e0: float, t: float, gamma: float,
                   temperature: float):
    """CDF of the relaxation density via the noncentral chi-squared law.

    2 c_t E follows a noncentral chi-squared with 2 degrees of freedom
    and noncentrality 2 c_t E0 e^{-gamma t}.
    """
    from scipy.stats import ncx2

    beta = 1.0 / (k_B * temperature)
    decay = math.exp(-gamma * t)
    c_t = beta / (1.0 - decay)
    return ncx2.cdf(2.0 * c_t * np.asarray(energy), 2, 2.0 * c_t * e0 * decay)


def relaxation_temperature(t, t_init: float, t_final: float, gamma: float):
    """T(t) = T_inf + (T_init - T_inf) e^{-gamma t}."""
    return t_final + (t_init - t_final) * np.exp(-gamma * np.asarray(t))


# ---------------------------------------------------------------------------
# squeezing


@dataclass
class SqueezeResult:
    """Quadrature statistics right after a frequency-quench pulse.

    Variance ratios are relative to the thermal values of the base trap
    (k_B T / m W^2 for position, m k_B T for momentum).  `r` is the
    squeezing parameter (1/2) ln(W / W_s).
    """

    var_q_ratio: float
    var_p_ratio: float
    covariance_qp: float
    r: float
    predicted_q_ratio: float
    predicted_p_ratio: float


def squeeze_prediction(omega: float, omega_s: float, tau: float,
                       temperature: float):
    """Analytic quadrature statistics after a pulse at W_s of length tau.

    Propagating the thermal Gaussian through the pulse gives

        var q / var_th = cos^2 + (W/W_s)^2 sin^2,
        var p / var_th = cos^2 + (W_s/W)^2 sin^2,
        cov(q, p) = sin cos (k_B T / W_s)(1 - W_s^2 / W^2),

    with the trigonometric functions at W_s tau.  At a quarter period the
    ratios are ((W/W_s)^2, (W_s/W)^2) = (e^{4r}, e^{-4r}) and the
    covariance vanishes.
    """
    c, s = math.cos(omega_s * tau), math.sin(omega_s * tau)
    var_q = c**2 + (omega / omega_s) ** 2 * s**2
    var_p = c**2 + (omega_s / omega) ** 2 * s**2
    cov = s * c * k_B * temperature / omega_s * (1.0 - omega_s**2 / omega**2)
    return var_q, var_p, cov


def squeeze_quadratures(q: np.ndarray, p: np.ndarray, omega: float,
                        omega_s: float, tau: float, temperature: float,
                        mass: float) -> SqueezeResult:
    """Measured and predicted quadrature variances after a quench pulse.

    `q`, `p` are ensemble samples taken immediately after the pulse.
    """
    var_q_th = k_B * temperature / (mass * omega**2)
    var_p_th = mass * k_B * temperature
    pred_q, pred_p, _ = squeeze_prediction(omega, omega_s, tau, temperature)
    r = 0.5 * math.log(omega / omega_s)
    return SqueezeResult(float(np.var(q) / var_q_th),
                         float(np.var(p) / var_p_th),
                         float(np.mean(q * p) - np.mean(q) * np.mean(p)),
                         r, pred_q, pred_p)
