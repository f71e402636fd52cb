"""Numerical laboratory for eigenfunction restriction estimates.

Explicit Laplace eigenfunction families on round spheres and the flat torus,
restricted L^p norms along curves and great subspheres, growth-exponent fits
against the sharp theoretical exponents, and direct verification of the
oscillatory-integral machinery (kernel decay, phase expansions, the caustic
model operator) behind them.
"""

from .geometry import GreatSubsphere, LatitudeCircle, equator
from .harmonics import (AssocHarmonic, Averaged, HighestWeight, TorusSum,
                        Zonal, eigenvalue)
from .oscillatory import (AirySpec, airy_operator_norm, phase_expansion_fit,
                          verify_kernel_bound)
from .restriction import (ExponentFit, NormSample, envelope_check,
                          fit_exponent, geometric_degrees, lp_norm_on_curve,
                          sweep, theoretical_exponent, turning_point_sweep)
from .torus import (r2_table, random_eigenfunction, representations,
                    verify_linfty_bound)

__all__ = [
    "AirySpec", "AssocHarmonic", "Averaged", "ExponentFit",
    "GreatSubsphere", "HighestWeight", "LatitudeCircle", "NormSample",
    "TorusSum", "Zonal", "airy_operator_norm",
    "eigenvalue", "envelope_check", "equator",
    "fit_exponent", "geometric_degrees", "lp_norm_on_curve",
    "phase_expansion_fit", "r2_table", "random_eigenfunction",
    "representations", "sweep", "theoretical_exponent",
    "turning_point_sweep", "verify_kernel_bound", "verify_linfty_bound",
]

__version__ = "0.1.0"
