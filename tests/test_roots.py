"""Brent's method against scipy's brentq, bit for bit."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq as scipy_brentq

from levitherm import environment, kramers
from levitherm.particles import silica_sphere
from levitherm.roots import brentq


def test_brentq_is_scipys_on_smooth_brackets():
    rng = np.random.default_rng(11)
    compared = 0
    for _ in range(400):
        c = rng.normal(size=3)
        s = rng.uniform(0.1, 5.0)

        def f(x):
            return (math.tanh(s * (x - c[0])) + 0.3 * c[1] * math.sin(3 * x)
                    + 0.1 * c[2] * x**3)

        if f(-4.0) * f(4.0) >= 0.0:
            continue
        xtol = 10.0 ** rng.uniform(-14, -2)
        assert brentq(f, -4.0, 4.0, xtol=xtol) == scipy_brentq(
            f, -4.0, 4.0, xtol=xtol)
        compared += 1
    assert compared > 300


def test_env_sweep_roots_are_scipys(monkeypatch):
    # the internal temperatures of a 60-point sweep over 1e-10..10 mbar,
    # the steady state of every row of an env-sweep table
    particle = silica_sphere(100e-9)
    gas = environment.nitrogen(1.0)
    args = (particle, gas, 2.0 * 70e-3 / (math.pi * 0.7e-6**2), 1550e-9,
            np.geomspace(1e-10, 10.0, 60))
    ours = environment.pressure_sweep(*args)
    monkeypatch.setattr(environment, "brentq", scipy_brentq)
    ref = environment.pressure_sweep(*args)
    assert ours["T_int_K"].tobytes() == ref["T_int_K"].tobytes()
    assert ours["T_cm_K"].tobytes() == ref["T_cm_K"].tobytes()


@pytest.mark.parametrize("tilt", [0.0, 0.3, -0.8])
def test_extremize_roots_are_scipys(monkeypatch, tilt):
    q_m, b = 1e-7, 5.0 * 1.380649e-23 * 300.0 / 1e-7**4
    # a fraction of the tilt at which the potential stops being bistable
    spec = kramers.DoubleWellSpec(b=b, q_m=q_m, mass=1e-17,
                                  tilt=tilt * 8.0 * b * q_m**3
                                  / (3.0 * math.sqrt(3.0)))
    grid = np.linspace(-2 * q_m, 2 * q_m, 400)
    ours = kramers.extremize(spec.potential, grid)
    monkeypatch.setattr(kramers, "brentq", scipy_brentq)
    assert ours == kramers.extremize(spec.potential, grid)
    assert len(ours) == 3


def test_brentq_refuses_what_it_cannot_solve():
    with pytest.raises(ValueError, match="different signs"):
        brentq(lambda x: x * x + 1.0, -1.0, 1.0, xtol=1e-12)
    with pytest.raises(ValueError, match="NaN"):
        brentq(lambda x: math.nan if x > 0.5 else x - 0.7, 0.0, 1.0,
               xtol=1e-12)
    # bisecting a jump from 1e300 down to a 1e-300 tolerance takes about
    # 2000 halvings
    with pytest.raises(RuntimeError, match="did not converge"):
        brentq(lambda x: -1.0 if x < 1e-200 else 1.0, 0.0, 1e300,
               xtol=1e-300)
