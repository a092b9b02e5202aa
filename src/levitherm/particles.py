"""Particle geometry and material properties.

A particle is described by its shape (sphere or cylinder), mass density,
complex refractive index at the trapping wavelength, and specific heat
capacity.  Mass, volume and moments of inertia derive from the shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Sphere:
    """Sphere of radius `radius` (m)."""

    radius: float

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("sphere radius must be positive")

    @property
    def volume(self) -> float:
        return 4.0 / 3.0 * math.pi * self.radius**3


@dataclass(frozen=True)
class Cylinder:
    """Cylinder of diameter `diameter` and length `length` (m)."""

    diameter: float
    length: float

    def __post_init__(self):
        if self.diameter <= 0 or self.length <= 0:
            raise ValueError("cylinder dimensions must be positive")

    @property
    def volume(self) -> float:
        return math.pi * (self.diameter / 2.0) ** 2 * self.length


@dataclass(frozen=True)
class ParticleSpec:
    """Geometry plus material parameters of the levitated particle.

    Parameters
    ----------
    shape : Sphere or Cylinder
    density : float
        Mass density (kg/m^3).
    refractive_index : complex
        Complex refractive index n at the trapping wavelength; Im(n) >= 0.
    heat_capacity : float
        Specific heat capacity (J/(kg K)); only used by the internal
        temperature balance.
    """

    shape: Sphere | Cylinder
    density: float
    refractive_index: complex = 1.45 + 0j
    heat_capacity: float = 700.0

    def __post_init__(self):
        if self.density <= 0:
            raise ValueError("density must be positive")
        if self.refractive_index.imag < 0:
            raise ValueError("Im(n) must be non-negative")
        if self.heat_capacity <= 0:
            raise ValueError("heat capacity must be positive")

    @property
    def volume(self) -> float:
        return self.shape.volume

    @property
    def mass(self) -> float:
        return self.density * self.shape.volume

    @property
    def permittivity(self) -> complex:
        """Relative permittivity eps_p = n^2."""
        return self.refractive_index**2

    @property
    def characteristic_radius(self) -> float:
        """Radius for a sphere, half-diameter for a cylinder (Knudsen scale)."""
        if isinstance(self.shape, Sphere):
            return self.shape.radius
        return self.shape.diameter / 2.0

    @property
    def moment_of_inertia(self) -> float:
        """Moment of inertia about a transverse axis through the centre.

        For a thin cylinder this is m l^2 / 12; for a sphere 2/5 m a^2.
        """
        if isinstance(self.shape, Cylinder):
            return self.mass * self.shape.length**2 / 12.0
        return 0.4 * self.mass * self.shape.radius**2


def silica_sphere(radius: float, *, refractive_index: complex = 1.45 + 2.5e-9j,
                  density: float = 2198.0) -> ParticleSpec:
    """Convenience constructor with standard fused-silica parameters."""
    return ParticleSpec(Sphere(radius), density, refractive_index)
