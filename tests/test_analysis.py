"""Estimators versus closed forms: MSD, correlations, spectra, distributions."""

import math
import warnings

import numpy as np
import pytest
from scipy import stats
from scipy.fft import rfft
from scipy.integrate import quad

from levitherm.constants import hbar, k_B
from levitherm import analysis
from levitherm.langevin import BathModel, ForceModel, simulate

MASS = 1e-17
OMEGA0 = 2.0 * math.pi * 1.0e5
KT300 = k_B * 300.0


# ---------------------------------------------------------------------------
# mean-square displacement


def test_msd_free_ballistic_limit():
    gamma = 1e3
    t = np.array([1e-9, 1e-8])
    msd = analysis.msd_free(t, gamma, 300.0, MASS)
    assert np.allclose(msd, k_B * 300.0 / MASS * t**2, rtol=1e-6)


def test_msd_free_diffusive_limit():
    gamma = 1e3
    d = k_B * 300.0 / (MASS * gamma)
    t = np.array([1.0, 10.0])
    msd = analysis.msd_free(t, gamma, 300.0, MASS)
    assert np.allclose(msd, 2 * d * t - 2 * d / gamma, rtol=1e-6)


def test_msd_free_series_branch_continuous():
    gamma = 1e3
    t = np.array([0.9999e-7, 1.0001e-7])  # straddles the series switch
    msd = analysis.msd_free(t, gamma, 300.0, MASS)
    assert msd[1] / msd[0] == pytest.approx(
        (t[1] / t[0]) ** 2, rel=1e-6)


def test_msd_harmonic_limits():
    gamma = OMEGA0 / 10.0
    plateau = 2 * KT300 / (MASS * OMEGA0**2)
    assert analysis.msd_harmonic(0.0, OMEGA0, gamma, 300.0, MASS) == 0.0
    late = analysis.msd_harmonic(50.0 / gamma, OMEGA0, gamma, 300.0, MASS)
    assert late == pytest.approx(plateau, rel=1e-9)


def test_msd_harmonic_damping_branches_continuous():
    # the analytic continuation across critical damping must be smooth
    t = np.linspace(0.0, 1e-5, 50)
    for fn in (analysis.msd_harmonic, analysis.autocorrelation_vv,
               analysis.autocorrelation_qv):
        under = fn(t, OMEGA0, 2 * OMEGA0 * (1 - 1e-9), 300.0, MASS)
        crit = fn(t, OMEGA0, 2 * OMEGA0, 300.0, MASS)
        over = fn(t, OMEGA0, 2 * OMEGA0 * (1 + 1e-9), 300.0, MASS)
        assert np.allclose(under, crit, rtol=1e-6, atol=1e-30), fn.__name__
        assert np.allclose(over, crit, rtol=1e-6, atol=1e-30), fn.__name__


def test_msd_estimator_matches_free_formula():
    gamma = 5e4
    force = ForceModel(mass=MASS, omega0=0.0)
    bath = BathModel(gamma=gamma, temperature=300.0)
    v0 = math.sqrt(KT300 / MASS) * np.zeros(400)
    traj = simulate(force, bath, (np.zeros(400), MASS * v0), 1e-7, 4e-4,
                    seed=6, n_traj=400, allow_coarse_dt=True)
    lags = np.array([1, 10, 100, 1000, 4000])
    est = analysis.msd(traj, lags)
    # free particle started at p = 0 equilibrates its velocity within
    # 1/gamma; compare at lags beyond that transient
    ref = analysis.msd_free(lags * 1e-7, gamma, 300.0, MASS)
    assert np.all(np.abs(est[2:] / ref[2:] - 1.0) < 0.15)


# ---------------------------------------------------------------------------
# correlation functions


def test_correlations_at_zero_lag():
    gamma = OMEGA0 / 10.0
    assert analysis.autocorrelation_qq(0.0, OMEGA0, gamma, 300.0, MASS) \
        == pytest.approx(KT300 / (MASS * OMEGA0**2), rel=1e-12)
    assert analysis.autocorrelation_vv(0.0, OMEGA0, gamma, 300.0, MASS) \
        == pytest.approx(KT300 / MASS, rel=1e-12)
    assert analysis.autocorrelation_qv(0.0, OMEGA0, gamma, 300.0, MASS) == 0.0


def test_qv_is_derivative_of_qq():
    gamma = OMEGA0 / 10.0
    t = np.linspace(1e-7, 2e-5, 40)
    h = 1e-11
    num = (analysis.autocorrelation_qq(t + h, OMEGA0, gamma, 300.0, MASS)
           - analysis.autocorrelation_qq(t - h, OMEGA0, gamma, 300.0, MASS)) \
        / (2 * h)
    ana = analysis.autocorrelation_qv(t, OMEGA0, gamma, 300.0, MASS)
    assert np.allclose(num, ana, rtol=1e-4, atol=1e-22)


def test_vv_is_negative_second_derivative_of_qq():
    gamma = OMEGA0 / 20.0
    t = np.linspace(1e-7, 1e-5, 20)
    h = 1e-10
    num = -(analysis.autocorrelation_qq(t + h, OMEGA0, gamma, 300.0, MASS)
            - 2 * analysis.autocorrelation_qq(t, OMEGA0, gamma, 300.0, MASS)
            + analysis.autocorrelation_qq(t - h, OMEGA0, gamma, 300.0, MASS)) \
        / h**2
    ana = analysis.autocorrelation_vv(t, OMEGA0, gamma, 300.0, MASS)
    assert np.allclose(num, ana, rtol=1e-3)


def test_correlation_estimators_match_theory():
    gamma = OMEGA0 / 10.0
    force = ForceModel(mass=MASS, omega0=OMEGA0)
    bath = BathModel(gamma=gamma, temperature=300.0)
    traj = simulate(force, bath, "thermal", 1e-7, 4e-3, seed=31, n_traj=200)
    lags, c_qq, c_vv, c_qv = analysis.autocorrelations(traj, 300)
    amp_q = KT300 / (MASS * OMEGA0**2)
    amp_v = KT300 / MASS
    assert np.max(np.abs(
        c_qq - analysis.autocorrelation_qq(lags, OMEGA0, gamma, 300.0, MASS)
    )) < 0.05 * amp_q
    assert np.max(np.abs(
        c_vv - analysis.autocorrelation_vv(lags, OMEGA0, gamma, 300.0, MASS)
    )) < 0.05 * amp_v
    assert np.max(np.abs(
        c_qv - analysis.autocorrelation_qv(lags, OMEGA0, gamma, 300.0, MASS)
    )) < 0.05 * math.sqrt(amp_q * amp_v)


# ---------------------------------------------------------------------------
# spectra


def test_psd_analytic_integrates_to_position_variance():
    gamma = OMEGA0 / 10.0
    val, _ = quad(lambda w: analysis.psd_analytic(w, OMEGA0, gamma, 300.0,
                                                  MASS),
                  -40 * OMEGA0, 40 * OMEGA0, limit=400,
                  points=[-OMEGA0, 0.0, OMEGA0])
    assert val == pytest.approx(KT300 / (MASS * OMEGA0**2), rel=1e-3)


def test_psd_parseval():
    gamma = OMEGA0 / 10.0
    force = ForceModel(mass=MASS, omega0=OMEGA0)
    bath = BathModel(gamma=gamma, temperature=300.0)
    traj = simulate(force, bath, "thermal", 1e-7, 4e-3, seed=12, n_traj=100)
    spec = analysis.psd(traj.q, traj.time[1] - traj.time[0], n_segments=8)
    assert spec.integral() == pytest.approx(float(traj.q.var()), rel=0.02)


def _psd_one_shot(traj, n_segments):
    """`analysis.psd` as one real transform of every segment's rows
    stacked, with its squared moduli summed on axis 0."""
    q, dt = traj.q, traj.time[1] - traj.time[0]
    seg = analysis.welch_segment(q.shape[1], n_segments)
    win = np.hanning(seg)
    stacked = np.concatenate([q[:, start:start + seg] * win for start
                              in range(0, q.shape[1] - seg + 1, seg // 2)])
    half = (np.abs(rfft(stacked, axis=1))**2).sum(axis=0)
    half *= dt / ((win**2).sum() * len(stacked) * 2.0 * math.pi)
    return np.concatenate([half[:0:-1], half[:(seg + 1) // 2]]), len(stacked)


def _psd_complex(traj, n_segments):
    """The two-sided periodogram by numpy's complex FFT, at the segment
    length of `analysis.psd`."""
    q, dt = traj.q, traj.time[1] - traj.time[0]
    seg = analysis.welch_segment(q.shape[1], n_segments)
    win = np.hanning(seg)
    norm = (win**2).sum() / dt
    acc, count = None, 0
    for start in range(0, q.shape[1] - seg + 1, seg // 2):
        spec = np.abs(np.fft.fft(q[:, start:start + seg] * win, axis=1))**2
        spec = spec / norm
        acc = spec.sum(axis=0) if acc is None else acc + spec.sum(axis=0)
        count += q.shape[0]
    return np.fft.fftshift(acc / count) / (2.0 * math.pi)


@pytest.mark.parametrize("record_every", [1, 3])
@pytest.mark.parametrize("n_traj", [1, 70, 130, 500])
def test_psd_row_blocks_are_bit_identical_to_one_transform(n_traj,
                                                           record_every):
    force = ForceModel(mass=MASS, omega0=OMEGA0)
    bath = BathModel(gamma=OMEGA0 / 10.0, temperature=300.0)
    traj = simulate(force, bath, "thermal", 1e-7, 3e-4, seed=5,
                    n_traj=n_traj, record_every=record_every)
    for n_segments in (4, 8):
        spec = analysis.psd(traj.q, traj.time[1] - traj.time[0],
                            n_segments=n_segments)
        values, count = _psd_one_shot(traj, n_segments)
        assert np.array_equal(spec.values, values)
        assert spec.n_segments == count
        np.testing.assert_allclose(spec.values,
                                   _psd_complex(traj, n_segments), rtol=1e-9)


@pytest.mark.parametrize("n_traj, n_samples, n_segments",
                         [(1, 300, 4), (70, 3001, 8), (130, 1001, 4)])
def test_welch_stream_is_bit_identical_to_psd_at_any_chunking(
        n_traj, n_samples, n_segments):
    # fed one path in chunks of any length, the reducer transforms each
    # segment in the order `psd` does, from its window and the chunk
    q = np.random.default_rng(n_traj).standard_normal((n_traj, n_samples))
    expected = analysis.psd(q, 1e-7, n_segments=n_segments)
    seg = analysis.welch_segment(n_samples, n_segments)
    time_major = np.ascontiguousarray(q.T)
    for rows in (1, 7, seg - 1, seg + 3, n_samples):
        stream = analysis.WelchStream(n_traj, n_samples, 1e-7,
                                      n_segments=n_segments)
        for i0 in range(0, n_samples, rows):
            stream(i0, time_major[i0:i0 + rows])
        spec = stream.spectrum()
        assert np.array_equal(spec.values, expected.values)
        assert np.array_equal(spec.omega, expected.omega)
        assert spec.n_segments == expected.n_segments


def test_welch_stream_refuses_samples_out_of_order_or_missing():
    stream = analysis.WelchStream(2, 100, 1e-7, n_segments=4)
    q = np.zeros((10, 2))
    stream(0, q)
    with pytest.raises(ValueError, match="do not follow"):
        stream(20, q)
    with pytest.raises(ValueError, match="10 of 100 samples"):
        stream.spectrum()


def _is_5_smooth(n):
    for p in (2, 3, 5):
        while n % p == 0:
            n //= p
    return n == 1


@pytest.mark.parametrize("n_samples, n_segments, segment",
                         [(100001, 2, 65610), (3001, 8, 648), (5001, 4, 2000),
                          (1001, 8, 216), (41, 2, 27), (12, 3, 8)])
def test_welch_segment_is_the_longest_5_smooth_within_welch(n_samples,
                                                            n_segments,
                                                            segment):
    # Welch's segment: 100001 samples in 2 segments give 66667 = 163 x 409
    welch = max(8, int(2 * n_samples / (n_segments + 1)))
    assert analysis.welch_segment(n_samples, n_segments) == segment
    assert segment == max(n for n in range(8, welch + 1) if _is_5_smooth(n))


def test_psd_temporaries_stay_bounded():
    import tracemalloc
    from levitherm.langevin import Trajectory
    # 500 x 5001 samples: one transform of the ensemble per segment held
    # 48 MB beyond the 20 MB path
    q = np.random.default_rng(3).standard_normal((500, 5001))
    traj = Trajectory(np.arange(5001) * 1e-7, q, q, q, {}, 1e-7, MASS)
    tracemalloc.start()
    try:
        analysis.psd(traj.q, traj.time[1] - traj.time[0], n_segments=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_lorentzian_fit_recovers_parameters():
    gamma = OMEGA0 / 10.0
    force = ForceModel(mass=MASS, omega0=OMEGA0)
    bath = BathModel(gamma=gamma, temperature=300.0)
    traj = simulate(force, bath, "thermal", 1e-7, 2e-2, seed=44, n_traj=20)
    fit = analysis.lorentzian_fit(
        analysis.psd(traj.q, traj.time[1] - traj.time[0], n_segments=32),
        MASS)
    assert fit.omega0 == pytest.approx(OMEGA0, rel=0.02)
    assert fit.gamma == pytest.approx(gamma, rel=0.05)
    assert fit.t_cm == pytest.approx(300.0, rel=0.05)


@pytest.mark.parametrize("segment", [8, 16, 24])
def test_lorentzian_fit_names_too_few_bins(segment):
    # 0, 1 and 2 usable bins once failed with unrelated errors: numpy's
    # argmax of an empty sequence, an IndexError and scipy's refusal of
    # 'lm' with fewer residuals than parameters
    omega = 2.0 * math.pi * np.fft.fftshift(np.fft.fftfreq(segment, d=1e-7))
    values = analysis.psd_analytic(omega, OMEGA0, OMEGA0 / 10.0, 300.0, MASS)
    spectrum = analysis.SpectralDensity(omega, values, 4, 1e-7)
    bins = analysis.fit_bins(segment)
    assert bins == segment // 8 - 1
    with pytest.raises(analysis.FitError,
                       match=f"has {bins} usable bins .*needs 3"):
        analysis.lorentzian_fit(spectrum, MASS)


@pytest.mark.parametrize("q_factor, dt, duration, n_segments, seed", [
    # the resolved spectra of the acceptance tests
    (0.5, 5e-8, 5e-3, 16, 51), (10.0, 2e-7, 2e-2, 32, 52),
    (100.0, 2e-7, 4e-2, 16, 53)])
def test_lorentzian_fit_is_scipys_least_squares(monkeypatch, q_factor, dt,
                                                duration, n_segments, seed):
    # the same bins, start point and residuals, minimised by MINPACK as
    # scipy's least_squares(method="lm") runs it, with a finite-difference
    # Jacobian
    from scipy.optimize import least_squares

    force = ForceModel(mass=MASS, omega0=OMEGA0)
    bath = BathModel(gamma=OMEGA0 / q_factor, temperature=300.0)
    traj = simulate(force, bath, "thermal", dt, duration, seed, n_traj=16)
    spectrum = analysis.psd(traj.q, dt, n_segments=n_segments)
    fit = analysis.lorentzian_fit(spectrum, MASS)

    def scipy_lm(fun, jac, x, max_nfev):
        sol = least_squares(fun, x, method="lm", max_nfev=max_nfev)
        return sol.x, sol.fun, None if sol.success else sol.message

    monkeypatch.setattr(analysis, "_levenberg_marquardt", scipy_lm)
    ref = analysis.lorentzian_fit(spectrum, MASS)
    assert [fit.omega0, fit.gamma, fit.t_cm] == pytest.approx(
        [ref.omega0, ref.gamma, ref.t_cm], rel=1e-6)


def test_fast_fft_lengths_are_scipys():
    from scipy.fft import next_fast_len, prev_fast_len

    n = range(1, 70001)
    assert [analysis._next_fast_len(k) for k in n] == [next_fast_len(k)
                                                       for k in n]
    assert [analysis._prev_fast_len(k) for k in n] == [
        prev_fast_len(k, real=True) for k in n]


def test_autocorrelations_are_scipy_ffts_bit_for_bit(monkeypatch):
    import scipy.fft

    force = ForceModel(mass=MASS, omega0=OMEGA0)
    bath = BathModel(gamma=OMEGA0 / 10.0, temperature=300.0)
    # 1000, 2048 and 10080 samples: transforms of 2000, 4096 and 20160
    for duration in (0.999e-4, 2.047e-4, 1.0079e-3):
        traj = simulate(force, bath, "thermal", 1e-7, duration, seed=5,
                        n_traj=3)
        ours = analysis.autocorrelations(traj, 50)
        with monkeypatch.context() as m:
            m.setattr(analysis, "_next_fast_len", scipy.fft.next_fast_len)
            m.setattr(analysis.np, "fft", scipy.fft)
            ref = analysis.autocorrelations(traj, 50)
        for a, b in zip(ours, ref):
            assert a.tobytes() == b.tobytes()


def test_nonlinear_psd_reduces_to_lorentzian():
    gamma = OMEGA0 / 50.0
    w = np.linspace(0.97 * OMEGA0, 1.03 * OMEGA0, 7)
    lin = analysis.psd_analytic(w, OMEGA0, gamma, 300.0, MASS)
    nonlin = analysis.psd_nonlinear(w, OMEGA0, gamma, 300.0, xi=0.0,
                                    mass=MASS)
    assert np.allclose(nonlin, lin, rtol=1e-5)


def test_nonlinear_psd_softening_skews_red():
    # strongly nonlinear line (thermal shift about 8 linewidths): the peak
    # sits red of the bare resonance by roughly the mean thermal shift
    gamma = OMEGA0 / 500.0
    xi = -2e13
    shift = 3.0 * abs(xi) * KT300 / (4.0 * MASS * OMEGA0)
    w = np.linspace(OMEGA0 - 6 * shift, OMEGA0 + 2 * shift, 401)
    s = analysis.psd_nonlinear(w, OMEGA0, gamma, 300.0, xi=xi, mass=MASS)
    w_peak = w[np.argmax(s)]
    assert w_peak < OMEGA0
    assert OMEGA0 - w_peak == pytest.approx(shift, rel=0.25)


def test_nonlinearity_parameter_formula():
    xi = -1e12
    gamma = OMEGA0 / 50.0
    r = analysis.nonlinearity_parameter(xi, OMEGA0, gamma, 300.0, MASS)
    assert r == pytest.approx(3 * abs(xi) * (OMEGA0 / gamma) * KT300
                              / (4 * OMEGA0**2 * MASS), rel=1e-12)


def test_quantum_psd_sideband_ratio():
    t_cm = 1e-4  # low occupation
    gamma = OMEGA0 / 100.0
    w = OMEGA0 * np.array([1.0, -1.0, -3.0, -0.2, 0.5, 1.01, 4.0])
    s = analysis.psd_quantum(w, OMEGA0, gamma, t_cm, MASS)
    assert s[0] / s[1] == pytest.approx(
        math.exp(hbar * OMEGA0 / (k_B * t_cm)), rel=1e-9)
    # the two printed forms, (hbar/pi) Im chi and hbar W m gamma |chi|^2 / pi,
    # over the thermal factor 1 - e^{-hbar W / k_B T_CM}
    denom = (OMEGA0**2 - w**2) ** 2 + gamma**2 * w**2
    thermal = -np.expm1(-hbar * w / (k_B * t_cm))
    im_chi = gamma * w / (MASS * denom)
    abs_chi2 = 1.0 / (MASS**2 * denom)
    np.testing.assert_allclose(s, hbar / math.pi * im_chi / thermal,
                               rtol=1e-12)
    np.testing.assert_allclose(
        s, hbar * w * MASS * gamma / math.pi * abs_chi2 / thermal,
        rtol=1e-12)


def test_quantum_psd_classical_limit_and_zero_frequency():
    gamma = OMEGA0 / 100.0
    t_cm = 1e-4
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s0 = analysis.psd_quantum(np.array([0.0, OMEGA0]), OMEGA0, gamma,
                                  t_cm, MASS)
    assert np.isfinite(s0).all()
    assert s0[0] == pytest.approx(
        analysis.psd_analytic(0.0, OMEGA0, gamma, t_cm, MASS), rel=1e-12)
    # at hbar W / k_B T_CM = x << 1, S / S_classical = 1 + x/2 + x^2/12 + ...
    w = OMEGA0 * np.array([0.5, 1.0, 2.0])
    for t in (1e-3, 1e0, 1e3):
        x = hbar * w / (k_B * t)
        ratio = (analysis.psd_quantum(w, OMEGA0, gamma, t, MASS)
                 / analysis.psd_analytic(w, OMEGA0, gamma, t, MASS))
        np.testing.assert_allclose(ratio, 1.0 + x / 2.0,
                                   rtol=x.max() ** 2 + 1e-14)


def test_h_function_asymptote():
    # h(x) = e^{x^2} erfc(x) ~ 1 / (x sqrt(pi)) for large x
    x = 50.0
    assert analysis.h_function(x) == pytest.approx(
        1.0 / (x * math.sqrt(math.pi)), rel=1e-3)
    assert analysis.h_function(0.0) == 1.0


def test_erfcx_is_scipys():
    from scipy.special import erfcx
    x = np.concatenate([np.linspace(-26.0, 26.0, 52001),
                        np.geomspace(26.0, 1e8, 2001)])
    ref = erfcx(x)
    rel = np.abs(analysis._erfcx(x) - ref) / ref
    # Cody's three ranges: worst seen 8.4e-16
    right = x >= -0.46875
    assert rel[right].max() <= 1e-15
    # the reflection 2 exp(x^2) - erfcx(-x): scipy forms exp(x^2) from a
    # rounded x^2, off by up to 2^-53 x^2 relative (5.7e-14 at -23.6),
    # where Cody's split x^2 is not; worst seen 4.1e-16 beyond that
    assert (rel[~right] - 2.0**-53 * x[~right] ** 2).max() <= 1e-15
    # finite and exact for large x, where exp(x^2) erfc(x) is not
    assert analysis._erfcx(1e9) == 1.0 / (1e9 * math.sqrt(math.pi))
    assert analysis._erfcx(-27.0) == math.inf


def test_log_ndtr_is_scipys():
    from scipy.special import log_ndtr
    x = np.linspace(-40.0, 8.0, 4801)
    ref = log_ndtr(x)
    rel = np.abs(np.array([analysis._log_ndtr(float(v)) for v in x]) - ref) \
        / np.abs(ref)
    # worst seen 6.3e-16
    assert rel[x <= 0].max() <= 1e-15
    # log Phi(x) = log1p(-erfc(x / sqrt 2) / 2): the rounding of x / sqrt 2
    # moves erfc by up to 2^-53 x^2 relative in both (7e-15 at x = 8);
    # worst seen 1.3e-14
    assert rel[x > 0].max() <= 2e-14


def test_ndtri_exp_is_scipys():
    from scipy.special import ndtri_exp
    w = np.concatenate([-np.geomspace(700.0, 1e-12, 20001),
                        np.linspace(-3.0, -1e-3, 20001)])
    # every AS241 branch, below and above the median: the central
    # rational in q = p - 1/2, then r = sqrt(-log min(p, 1-p)) up to 5
    # and beyond it
    q = np.exp(w) - 0.5
    r = np.sqrt(-np.where(q < 0, w, np.log(-np.expm1(w))))
    for branch in (np.abs(q) <= 0.425, (q < -0.425) & (r <= 5),
                   (q < -0.425) & (r > 5), (q > 0.425) & (r <= 5),
                   (q > 0.425) & (r > 5)):
        assert branch.sum() > 1000
    ref = ndtri_exp(w)
    # relative, and absolute near the median: worst seen 1.4e-15
    err = np.abs(analysis._ndtri_exp(w) - ref) / np.maximum(np.abs(ref), 1.0)
    assert err.max() <= 2e-15
    # beyond r = 27, Newton from the asymptote: log Phi(x) returns w to
    # 3.1e-16 relative, and scipy agrees to its own 5.6e-13
    deep = -np.geomspace(729.5, 1e300, 301)
    x = analysis._ndtri_exp(deep)
    resid = np.array([analysis._log_ndtr(float(v)) for v in x]) - deep
    assert np.abs(resid / deep).max() <= 1e-15
    np.testing.assert_allclose(x, ndtri_exp(deep), rtol=1e-12)
    assert analysis._ndtri_exp(np.array([-np.inf]))[0] == -np.inf


# ---------------------------------------------------------------------------
# modulated steady states


def test_parametric_threshold_resonant():
    assert analysis.parametric_threshold(10.0, 2 * OMEGA0, OMEGA0) \
        == pytest.approx(0.2, rel=1e-12)
    assert analysis.parametric_threshold(10.0, 1.9 * OMEGA0, OMEGA0) > 0.2


def test_effective_temperature_signs():
    gamma = OMEGA0 / 10.0
    t_cool, rate = analysis.effective_temperature_modulated(
        0.01, math.pi / 4, OMEGA0, OMEGA0, gamma, 300.0)
    t_heat, _ = analysis.effective_temperature_modulated(
        0.01, -math.pi / 4, OMEGA0, OMEGA0, gamma, 300.0)
    assert t_cool < 300.0 < t_heat
    assert rate > 0
    with pytest.raises(analysis.AboveThresholdError):
        analysis.effective_temperature_modulated(
            0.5, -math.pi / 4, OMEGA0, OMEGA0, gamma, 300.0)


def test_steady_state_distribution_equilibrium():
    dist = analysis.steady_state_distribution(300.0, OMEGA0 / 10.0, OMEGA0,
                                              MASS)
    assert dist.mean() == pytest.approx(KT300, rel=1e-6)
    norm, _ = quad(dist.pdf, 0.0, 100 * KT300)
    assert norm == pytest.approx(1.0, rel=1e-6)


def test_steady_state_distribution_feedback_normalization_and_sampling():
    dist = analysis.steady_state_distribution(300.0, OMEGA0 / 10.0, OMEGA0,
                                              MASS, eta=1e16)
    assert dist.quadratic > 0
    norm, _ = quad(dist.pdf, 0.0, 100 * KT300, limit=200)
    assert norm == pytest.approx(1.0, rel=1e-6)
    rng = np.random.default_rng(7)
    samples = dist.sample(20000, rng)
    cdf = np.vectorize(lambda e: quad(dist.pdf, 0.0, e)[0])
    stat = stats.kstest(samples, cdf)
    assert stat.pvalue > 0.01
    assert samples.mean() == pytest.approx(dist.mean(), rel=0.03)


@pytest.mark.parametrize("linear, quadratic_kT, mean_kT", [
    (1.0, 5.0, 0.2192316169), (0.5, 2.0, 0.3567769897)])
def test_steady_state_mean_under_strong_feedback(linear, quadratic_kT,
                                                 mean_kT):
    # references: quad to infinity of E P(E) in thermal units
    dist = analysis.SteadyStateDistribution(300.0, linear,
                                            quadratic_kT / KT300, OMEGA0,
                                            MASS)
    assert dist.mean() / KT300 == pytest.approx(mean_kT, rel=1e-9)


def test_phase_space_density_normalized():
    dist = analysis.steady_state_distribution(300.0, OMEGA0 / 10.0, OMEGA0,
                                              MASS, eta=1e15)
    rng = np.random.default_rng(3)
    q, p = dist.sample_phase_space(50000, rng)
    e = p**2 / (2 * MASS) + 0.5 * MASS * OMEGA0**2 * q**2
    # energies of the phase-space draws follow the energy law
    cdf = np.vectorize(lambda x: quad(dist.pdf, 0.0, x)[0])
    assert stats.kstest(e[:5000], cdf).pvalue > 0.01


# ---------------------------------------------------------------------------
# relaxation densities


def test_relaxation_density_normalized_and_matches_cdf():
    gamma, t = 2000.0, 3e-4
    e0 = 2.0 * KT300
    norm, _ = quad(lambda e: analysis.relaxation_density(e, e0, t, gamma,
                                                         300.0),
                   0.0, 60 * KT300, limit=300)
    assert norm == pytest.approx(1.0, rel=1e-6)
    # density integrates to the noncentral chi-squared CDF
    for e_hi in (0.5 * KT300, 2 * KT300, 6 * KT300):
        part, _ = quad(lambda e: analysis.relaxation_density(e, e0, t, gamma,
                                                             300.0),
                       0.0, e_hi, limit=300)
        assert part == pytest.approx(
            float(analysis.relaxation_cdf(e_hi, e0, t, gamma, 300.0)),
            rel=1e-6)


def test_relaxation_density_long_time_is_gibbs():
    gamma = 2000.0
    e = np.linspace(0.0, 10 * KT300, 50)
    late = analysis.relaxation_density(e, 5 * KT300, 20.0 / gamma, gamma,
                                       300.0)
    gibbs = np.exp(-e / KT300) / KT300
    assert np.allclose(late, gibbs, rtol=1e-6)


def test_relaxation_temperature_endpoints():
    t = np.array([0.0, 1e9])
    vals = analysis.relaxation_temperature(t, 30.0, 300.0, 2000.0)
    assert vals[0] == pytest.approx(30.0)
    assert vals[-1] == pytest.approx(300.0)


# ---------------------------------------------------------------------------
# squeezing


def test_squeeze_prediction_quarter_period():
    omega, omega_s = OMEGA0, OMEGA0 / 2.0
    tau = math.pi / (2 * omega_s)
    var_q, var_p, cov = analysis.squeeze_prediction(omega, omega_s, tau,
                                                    300.0)
    r = 0.5 * math.log(omega / omega_s)
    assert var_q == pytest.approx(math.exp(4 * r), rel=1e-9)   # 4.0
    assert var_p == pytest.approx(math.exp(-4 * r), rel=1e-9)  # 0.25
    assert abs(cov) < 1e-25


def test_squeeze_prediction_no_quench_is_identity():
    var_q, var_p, cov = analysis.squeeze_prediction(OMEGA0, OMEGA0, 1e-5,
                                                    300.0)
    assert var_q == pytest.approx(1.0, rel=1e-12)
    assert var_p == pytest.approx(1.0, rel=1e-12)
    assert cov == pytest.approx(0.0, abs=1e-30)


def test_squeeze_quadratures_on_exact_propagated_gaussian():
    # propagate thermal samples through the quench analytically and
    # compare the estimator against its own prediction
    omega, omega_s = OMEGA0, OMEGA0 / 2.0
    tau = math.pi / (2 * omega_s)
    rng = np.random.default_rng(5)
    n = 200000
    q0 = math.sqrt(KT300 / (MASS * omega**2)) * rng.standard_normal(n)
    v0 = math.sqrt(KT300 / MASS) * rng.standard_normal(n)
    c, s = math.cos(omega_s * tau), math.sin(omega_s * tau)
    q1 = c * q0 + (s / omega_s) * v0
    v1 = -omega_s * s * q0 + c * v0
    res = analysis.squeeze_quadratures(q1, MASS * v1, omega, omega_s, tau,
                                       300.0, MASS)
    assert res.var_q_ratio == pytest.approx(res.predicted_q_ratio, rel=0.02)
    assert res.var_p_ratio == pytest.approx(res.predicted_p_ratio, rel=0.02)
    assert res.r == pytest.approx(0.5 * math.log(2.0), rel=1e-12)
