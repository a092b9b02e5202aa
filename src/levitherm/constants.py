"""Physical constants used throughout, in SI units.

The values of `scipy.constants` (CODATA 2022, scipy 1.17), written out so
that importing them loads no scipy module.
"""

k_B = 1.380649e-23              # Boltzmann constant, J/K
hbar = 1.0545718176461565e-34   # reduced Planck constant, J s
c_light = 299792458.0           # speed of light, m/s
eps0 = 8.8541878188e-12         # vacuum permittivity, F/m

__all__ = ["k_B", "hbar", "c_light", "eps0"]
