"""Certified bounds for the sharp constant of the advection inequality

    || P (v . grad) w ||_n  <=  K_n ||v||_n ||w||_{n+1}

for divergence-free fields on the d-torus, n > d/2.  The package computes a
certified enclosure [K_minus, K_plus] by combining an exact symmetry-reduced
lattice search, a two-sided asymptotic expansion for large wavenumbers, a
closed-form tail bound, and an independent trial-field witness.
"""

from .certify import BoundCertificate, K_minus, ParameterError, certify_bounds

__version__ = "0.1.0"

__all__ = ["BoundCertificate", "K_minus", "ParameterError", "certify_bounds"]
