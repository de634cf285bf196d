"""Numerical verification of trisecant identities on Jacobian theta functions."""

__version__ = "0.1.0"

from .scaled import ScaledComplex, rel_diff
from .theta import (
    DEFAULT_RADIUS_CAP,
    Level2Vector,
    PeriodMatrix,
    ThetaCharacteristic,
    ThetaJets,
    ThetaRequest,
    characteristic_by_index,
    gauss_exponent,
    gauss_exponents,
    half_period,
    lattice_distance,
    lattice_reduce,
    level_two_vector,
    level_two_vectors,
    normalized_log_abs_many,
    theta,
    theta_fd_check,
    theta_jet,
    theta_jets,
    truncation_radius,
)

__all__ = [
    "DEFAULT_RADIUS_CAP",
    "Level2Vector",
    "PeriodMatrix",
    "ScaledComplex",
    "ThetaCharacteristic",
    "ThetaJets",
    "ThetaRequest",
    "characteristic_by_index",
    "gauss_exponent",
    "gauss_exponents",
    "half_period",
    "lattice_distance",
    "lattice_reduce",
    "level_two_vector",
    "level_two_vectors",
    "normalized_log_abs_many",
    "rel_diff",
    "theta",
    "theta_fd_check",
    "theta_jet",
    "theta_jets",
    "truncation_radius",
]
