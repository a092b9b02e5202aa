"""Interwell hopping: well geometry, rate limits, turnover, Monte Carlo."""

import math

import numpy as np
import pytest

from levitherm.constants import k_B
from levitherm import kramers
from levitherm.kramers import DoubleWellSpec

MASS = 1e-17
Q_M = 1e-7
KT300 = k_B * 300.0


def make_spec(barrier_kt=5.0, tilt=0.0):
    b = barrier_kt * KT300 / Q_M**4
    return DoubleWellSpec(b=b, q_m=Q_M, mass=MASS, tilt=tilt)


# ---------------------------------------------------------------------------
# geometry


def test_untilted_extrema_analytic():
    spec = make_spec()
    a, saddle, c = spec.extrema
    assert a.position == pytest.approx(-Q_M, rel=1e-9)
    assert saddle.position == pytest.approx(0.0, abs=1e-18)
    assert c.position == pytest.approx(Q_M, rel=1e-9)
    assert a.omega == pytest.approx(math.sqrt(8 * spec.b * Q_M**2 / MASS),
                                    rel=1e-9)
    assert saddle.omega == pytest.approx(
        math.sqrt(4 * spec.b * Q_M**2 / MASS), rel=1e-9)
    assert spec.barrier("A") == pytest.approx(5 * KT300, rel=1e-9)
    assert spec.barrier("C") == pytest.approx(5 * KT300, rel=1e-9)


def test_positive_tilt_deepens_right_well():
    spec = make_spec(tilt=1e-16)
    assert spec.barrier("C") > spec.barrier("A")
    a, _, c = spec.extrema
    assert spec.potential(c.position) < spec.potential(a.position)


def test_too_large_tilt_rejected():
    with pytest.raises(ValueError, match="bistable"):
        make_spec(tilt=1e-12).extrema


def test_extremize_matches_analytic_extrema():
    spec = make_spec()
    grid = np.linspace(-2 * Q_M, 2 * Q_M, 400)
    found = kramers.extremize(spec.potential, grid)
    assert len(found) == 3
    a, saddle, c = spec.extrema
    assert found[0].position == pytest.approx(a.position, rel=1e-6)
    assert found[1].position == pytest.approx(saddle.position, abs=1e-12)
    # extremize uses unit mass; rescale
    assert found[0].omega / math.sqrt(MASS) == pytest.approx(a.omega,
                                                             rel=1e-4)
    assert found[1].kind == "saddle"


def test_invalid_spec():
    with pytest.raises(ValueError):
        DoubleWellSpec(b=-1.0, q_m=Q_M, mass=MASS)


# ---------------------------------------------------------------------------
# action


def test_action_closed_form_untilted():
    # loop action of the barrier-energy orbit of the untilted quartic:
    # the orbit spans one side, from the saddle at q = 0 to the turning
    # point at sqrt(2) q_m, so S = (4 sqrt(2) / 3) sqrt(2 m b) q_m^3
    spec = make_spec()
    closed = (4.0 * math.sqrt(2.0) / 3.0
              * math.sqrt(2 * MASS * spec.b) * Q_M**3)
    assert kramers.action(spec, "A") == pytest.approx(closed, rel=1e-8)
    assert kramers.action(spec, "C") == pytest.approx(closed, rel=1e-8)


def _action_reference(spec, well):
    # the far turning point by brentq, then S = 2 int p dr by quad with
    # r = r_t + u^2 toward the saddle, which removes the square-root
    # endpoint at r_t
    from scipy.integrate import quad
    from scipy.optimize import brentq

    a, saddle, c = spec.extrema
    src = a if well == "A" else c
    u_b = saddle.energy
    far = src.position + 2.0 * (src.position - saddle.position)
    lo, hi = sorted((src.position, far))
    r_t = brentq(lambda r: spec.potential(r) - u_b, lo, hi,
                 xtol=1e-16 * (abs(lo) + abs(hi)), rtol=8.9e-16)
    sign = math.copysign(1.0, saddle.position - r_t)

    def integrand(u):
        r = r_t + sign * u * u
        return 2.0 * u * math.sqrt(max(
            2.0 * spec.mass * (u_b - float(spec.potential(r))), 0.0))

    val, _ = quad(integrand, 0.0, math.sqrt(abs(saddle.position - r_t)),
                  epsabs=0.0, epsrel=1e-13, limit=200)
    return 2.0 * val


@pytest.mark.parametrize("fraction", [-0.95, -0.6, -0.2, 0.0, 1e-3, 0.1,
                                      0.3, 0.5, 0.75, 0.9, 0.95])
def test_action_matches_a_quadrature_across_the_bistable_range(fraction):
    # tilt as a fraction of 8 b q_m^3 / (3 sqrt 3), where one well vanishes
    spec = make_spec()
    limit = 8.0 * spec.b * Q_M**3 / (3.0 * math.sqrt(3.0))
    spec = make_spec(tilt=fraction * limit)
    for well in "AC":
        assert kramers.action(spec, well) == pytest.approx(
            _action_reference(spec, well), rel=1e-12, abs=0.0)


def test_action_grows_with_barrier():
    assert kramers.action(make_spec(10.0)) > kramers.action(make_spec(5.0))


# ---------------------------------------------------------------------------
# depopulation factor


def test_depopulation_limits_and_monotonicity():
    deltas = np.geomspace(1e-4, 1e3, 40) * KT300
    vals = [kramers.depopulation_factor(d, 300.0) for d in deltas]
    assert kramers.depopulation_factor(0.0, 300.0) == 0.0
    assert vals[-1] == pytest.approx(1.0, abs=1e-6)
    # strictly increasing until it saturates at 1 in double precision
    assert all(b > a or b == 1.0 for a, b in zip(vals, vals[1:]))
    assert all(0.0 < v <= 1.0 for v in vals)


def _depopulation_reference(d):
    # the defining integral over x, split at multiples of the scale
    # 1/sqrt(d) on which the integrand varies at small d
    from scipy.integrate import quad

    def integrand(x):
        y = x * x + 0.25
        return math.log(-math.expm1(-d * y)) / y

    scale = 1.0 / math.sqrt(d)
    edges = sorted({0.0, 0.5, 2.0,
                    *(k * scale for k in (0.1, 0.3, 1.0, 3.0, 10.0))})
    tight = dict(epsabs=1e-13, epsrel=1e-13, limit=200)
    val = sum(quad(integrand, lo, hi, **tight)[0]
              for lo, hi in zip(edges[:-1], edges[1:]))
    val += quad(integrand, edges[-1], np.inf, **tight)[0]
    return math.exp(val / math.pi)


def test_depopulation_matches_a_quadrature():
    for d in np.geomspace(1e-8, 745.0, 37):
        assert kramers.depopulation_factor(d * KT300, 300.0) == pytest.approx(
            _depopulation_reference(d), rel=1e-9, abs=0.0)


def test_depopulation_small_delta_asymptote():
    for d in (1e-6, 1e-5):
        ups = kramers.depopulation_factor(d * KT300, 300.0)
        assert ups == pytest.approx(d, rel=5e-3)


def test_depopulation_rejects_negative():
    with pytest.raises(ValueError):
        kramers.depopulation_factor(-1.0, 300.0)


# ---------------------------------------------------------------------------
# rate limits


def test_hd_rate_undamped_limit_is_tst():
    spec = make_spec()
    a, _, _ = spec.extrema
    tst = a.omega / (2 * math.pi) * math.exp(-spec.barrier("A") / KT300)
    assert kramers.rate_hd(spec, 1e-9, 300.0) == pytest.approx(tst,
                                                               rel=1e-9)


def test_hd_rate_strong_damping_approximation():
    spec = make_spec()
    a, saddle, _ = spec.extrema
    gamma = 100 * saddle.omega
    assert kramers.rate_hd(spec, gamma, 300.0) == pytest.approx(
        kramers.rate_hd_approx(spec, gamma, 300.0), rel=1e-3)


def test_ld_rate_linear_in_gamma():
    spec = make_spec()
    assert kramers.rate_ld(spec, 2e3, 300.0) == pytest.approx(
        2 * kramers.rate_ld(spec, 1e3, 300.0), rel=1e-12)


def test_arrhenius_scaling_of_rates():
    # in the weak-friction limit of the spatial branch the rate is the
    # transition-state value, so the prefactor scales as sqrt(barrier)
    g = 1e-6
    r5 = kramers.rate_hd(make_spec(5.0), g, 300.0)
    r7 = kramers.rate_hd(make_spec(7.0), g, 300.0)
    assert r5 / r7 == pytest.approx(math.exp(2.0) * math.sqrt(5.0 / 7.0),
                                    rel=1e-4)


# ---------------------------------------------------------------------------
# turnover


def test_turnover_limits():
    spec = make_spec()
    wb = spec.extrema[1].omega
    low = kramers.turnover_rate(spec, 1e-4 * wb, 300.0)
    lower = kramers.turnover_rate(spec, 5e-5 * wb, 300.0)
    assert low.r_turnover / lower.r_turnover == pytest.approx(2.0, rel=0.02)
    high = kramers.turnover_rate(spec, 100 * wb, 300.0)
    assert high.r_turnover == pytest.approx(high.r_hd_total, rel=1e-6)
    assert high.upsilon_a == pytest.approx(1.0, abs=1e-6)


def test_turnover_single_maximum_near_barrier_frequency():
    spec = make_spec()
    wb = spec.extrema[1].omega
    gammas = np.geomspace(1e-3 * wb, 1e2 * wb, 120)
    rates = np.array([kramers.turnover_rate(spec, g, 300.0).r_turnover
                      for g in gammas])
    signs = np.sign(np.diff(rates))
    # exactly one sign change: rise then fall
    flips = np.count_nonzero(np.diff(signs) != 0)
    assert flips == 1
    g_peak = gammas[np.argmax(rates)]
    assert 0.1 * wb < g_peak < 10 * wb


def test_turnover_bounded_by_branches():
    spec = make_spec()
    wb = spec.extrema[1].omega
    for g in (1e-3 * wb, 0.3 * wb, 30 * wb):
        res = kramers.turnover_rate(spec, g, 300.0)
        assert res.r_turnover <= res.r_hd_total * (1 + 1e-12)
        assert res.r_turnover > 0


# ---------------------------------------------------------------------------
# trajectory statistics


def test_hop_statistics_synthetic():
    dt = 1.0
    q = np.array([[-1.0, -1.0, 0.0, 1.0, 0.5, -1.0, 1.0, 1.0]])
    rate_ac, rate_ca, hops = kramers.hop_statistics(q, (-1.0, 1.0), dt)
    assert hops == 3
    assert rate_ac > 0 and rate_ca > 0


def test_hop_statistics_ignores_barrier_recrossings():
    # excursions that fail to reach the other minimum do not count
    q = np.array([[-1.0, 0.5, -1.0, 0.9, -1.0]])
    _, _, hops = kramers.hop_statistics(q, (-1.0, 1.0), 1.0)
    assert hops == 0


def test_monte_carlo_rate_matches_turnover():
    # moderate barrier keeps hops frequent enough for a fast check
    spec = make_spec(barrier_kt=3.0)
    wb = spec.extrema[1].omega
    gamma = 0.3 * wb
    dt = 2.0 * math.pi / (40.0 * spec.extrema[0].omega)
    ((rate, hops),) = kramers.monte_carlo_rates(spec, [gamma], 300.0,
                                                duration=1.5e-3, dt=dt,
                                                seeds=[77], n_traj=24)
    assert hops > 100
    theory = kramers.turnover_rate(spec, gamma, 300.0).r_turnover
    assert rate == pytest.approx(theory, rel=0.35)


def test_monte_carlo_groups_match_separate_runs_in_any_order():
    # 70 trajectories a damping: two noise stream blocks each, the second
    # padded; each damping's rate and hop count are those of its run alone
    spec = make_spec(barrier_kt=3.0)
    wb = spec.extrema[1].omega
    dt = 2.0 * math.pi / (40.0 * spec.extrema[0].omega)
    gammas, seeds = [0.3 * wb, 1.0 * wb], [5, 6]
    kw = dict(duration=2200 * dt, dt=dt, n_traj=70)
    batched = kramers.monte_carlo_rates(spec, gammas, 300.0, seeds=seeds,
                                        **kw)
    swapped = kramers.monte_carlo_rates(spec, gammas[::-1], 300.0,
                                        seeds=seeds[::-1], **kw)
    assert swapped == batched[::-1]
    for gamma, seed, result in zip(gammas, seeds, batched):
        assert kramers.monte_carlo_rates(spec, [gamma], 300.0, seeds=[seed],
                                         **kw) == [result]
    assert all(hops > 20 for _, hops in batched)


def test_monte_carlo_rate_refuses_a_tilted_well():
    # the two-state estimate -ln(1 - 2f)/lag holds only for symmetric wells
    spec = make_spec(barrier_kt=3.0, tilt=0.05 * KT300 / Q_M)
    with pytest.raises(ValueError, match="tilt"):
        kramers.monte_carlo_rates(spec, [spec.extrema[1].omega], 300.0,
                                  duration=1e-4, dt=1e-8, seeds=[1], n_traj=2)


def test_escape_rate_arrhenius():
    assert kramers.escape_rate(5 * KT300, 300.0, 1e5) == pytest.approx(
        1e5 * math.exp(-5.0), rel=1e-12)
