"""Arbitrary-precision one-loop effective-Lagrangian toolkit.

Closed-form evaluation of the spin-0, spin-1/2, and self-dual background
functions, their divergent weak-field expansions, and resummation of those
expansions by finite-part integration of the underlying generalized
Stieltjes representation, with Pade and delta-transformation baselines.
"""
from .comparators import pade_eval, weniger_delta
from .errors import (
    CacheMismatchError,
    ConsistencyError,
    DegeneracyError,
    DomainError,
    HeulagError,
    OracleFailureError,
)
from .extrapolant import Extrapolant, ExtrapolationResult, extrapolate, tail_sum
from .finitepart import fp_coth, fp_csch, fp_exp_over_xm, fp_sinh2
from .models import (
    ModelId,
    SeriesCoefficients,
    closed_form,
    coefficients,
    direct_integral_oracle,
    finite_part_assembly,
    partial_sum,
    strong_field_leading,
)
from .momentrec import (
    MomentVector,
    ReconstructionCoefficients,
    build_P_exact,
    moments_from_coeffs,
    reconstruct,
    residual_norm_of,
    rho_eval,
    solve_coeffs,
)
from .specfun import PrecisionContext

__version__ = "0.1.0"

__all__ = [
    "CacheMismatchError",
    "ConsistencyError",
    "DegeneracyError",
    "DomainError",
    "Extrapolant",
    "ExtrapolationResult",
    "HeulagError",
    "ModelId",
    "MomentVector",
    "OracleFailureError",
    "PrecisionContext",
    "ReconstructionCoefficients",
    "SeriesCoefficients",
    "build_P_exact",
    "closed_form",
    "coefficients",
    "direct_integral_oracle",
    "extrapolate",
    "finite_part_assembly",
    "fp_coth",
    "fp_csch",
    "fp_exp_over_xm",
    "fp_sinh2",
    "moments_from_coeffs",
    "pade_eval",
    "partial_sum",
    "reconstruct",
    "residual_norm_of",
    "rho_eval",
    "solve_coeffs",
    "strong_field_leading",
    "tail_sum",
    "weniger_delta",
]
