"""Certified bounds for the sharp constant of the advection inequality

    || P (v . grad) w ||_n  <=  K_n ||v||_n ||w||_{n+1}

for divergence-free fields on the d-torus, n > d/2.  The package computes a
certified enclosure [K_minus, K_plus] by combining an exact symmetry-reduced
lattice search, a two-sided asymptotic expansion for large wavenumbers, a
closed-form tail bound, and an independent trial-field witness.
"""

from .certify import (
    AsymptoticModel,
    BoundCertificate,
    K_minus,
    ParameterError,
    asymptotic_upper,
    build_asymptotic_model,
    certify_bounds,
    search_sup_Km,
)
from .fields import (
    FourierField,
    advect,
    field_from_text,
    field_to_text,
    leray_project,
    lower_bound_witness,
    sobolev_norm,
    trial_pair,
    witness_prediction,
)
from .kernel import (
    EnclosureWidthError,
    RemainderExtrema,
    remainder_extrema,
    substituted_coeff,
    taylor_coeff,
)
from .lattice import (
    BallEnumeration,
    PointBudgetExceeded,
    enumerate_ball,
    enumerate_canonical,
)
from .sums import (
    Interval,
    K_m,
    SpherePolynomial,
    SumConfig,
    Z_n,
    build_Q,
    extremize_Q,
    vV_nt,
)
from .tail import delta_K, tail_sum_bound, wedge_power_bound

__version__ = "0.1.0"

__all__ = [
    "AsymptoticModel",
    "BallEnumeration",
    "BoundCertificate",
    "EnclosureWidthError",
    "FourierField",
    "Interval",
    "K_m",
    "K_minus",
    "ParameterError",
    "PointBudgetExceeded",
    "RemainderExtrema",
    "SpherePolynomial",
    "SumConfig",
    "Z_n",
    "advect",
    "asymptotic_upper",
    "build_Q",
    "build_asymptotic_model",
    "certify_bounds",
    "delta_K",
    "enumerate_ball",
    "enumerate_canonical",
    "extremize_Q",
    "field_from_text",
    "field_to_text",
    "leray_project",
    "lower_bound_witness",
    "remainder_extrema",
    "search_sup_Km",
    "sobolev_norm",
    "substituted_coeff",
    "tail_sum_bound",
    "taylor_coeff",
    "trial_pair",
    "vV_nt",
    "wedge_power_bound",
    "witness_prediction",
]
