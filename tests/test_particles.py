"""Geometry and material properties of the particle models."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from levitherm.particles import Cylinder, ParticleSpec, Sphere, silica_sphere


def test_sphere_volume():
    s = Sphere(100e-9)
    assert s.volume == pytest.approx(4.0 / 3.0 * math.pi * 1e-21, rel=1e-12)


def test_cylinder_volume():
    c = Cylinder(diameter=50e-9, length=1e-6)
    assert c.volume == pytest.approx(math.pi * 25e-9**2 * 1e-6, rel=1e-12)


def test_silica_sphere_mass_frozen():
    # independent hand evaluation: rho 4/3 pi a^3 at a = 100 nm, rho = 2198
    p = silica_sphere(100e-9)
    assert p.mass == pytest.approx(9.20696087012e-18, rel=1e-10)
    assert p.characteristic_radius == 100e-9


def test_permittivity_is_index_squared():
    p = silica_sphere(200e-9, refractive_index=1.45 + 1e-7j)
    assert p.permittivity == pytest.approx((1.45 + 1e-7j) ** 2)


def test_moment_of_inertia_sphere_and_cylinder():
    sph = silica_sphere(100e-9)
    assert sph.moment_of_inertia == pytest.approx(
        0.4 * sph.mass * (100e-9) ** 2, rel=1e-12)
    cyl = ParticleSpec(Cylinder(50e-9, 1e-6), density=2198.0)
    assert cyl.moment_of_inertia == pytest.approx(
        cyl.mass * 1e-12 / 12.0, rel=1e-12)


def test_cylinder_characteristic_radius_is_half_diameter():
    cyl = ParticleSpec(Cylinder(50e-9, 1e-6), density=2198.0)
    assert cyl.characteristic_radius == 25e-9


@pytest.mark.parametrize("bad", [
    lambda: Sphere(-1e-9),
    lambda: Sphere(0.0),
    lambda: Cylinder(0.0, 1e-6),
    lambda: Cylinder(50e-9, -1.0),
    lambda: ParticleSpec(Sphere(1e-7), density=-1.0),
    lambda: ParticleSpec(Sphere(1e-7), density=2198.0,
                         refractive_index=1.45 - 1e-9j),
    lambda: ParticleSpec(Sphere(1e-7), density=2198.0, heat_capacity=0.0),
])
def test_invalid_inputs_raise(bad):
    with pytest.raises(ValueError):
        bad()


@given(radius=st.floats(1e-9, 1e-5), density=st.floats(1.0, 2e4))
def test_mass_scales_with_volume(radius, density):
    p = ParticleSpec(Sphere(radius), density=density)
    assert p.mass == pytest.approx(density * p.volume, rel=1e-12)
    assert p.mass > 0
