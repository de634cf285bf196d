"""Numerical verification of trisecant identities on Jacobian theta functions."""

__version__ = "0.1.0"

from .scaled import ScaledComplex
from .theta import (
    DEFAULT_RADIUS_CAP,
    Level2Vector,
    PeriodMatrix,
    ThetaJets,
    ThetaRequest,
    gauss_exponents,
    half_period,
    lattice_distance,
    level_two_vector,
    level_two_vectors,
    normalized_log_abs_many,
    theta,
    theta_jet,
    theta_jets,
    truncation_radius,
)

__all__ = [
    "DEFAULT_RADIUS_CAP",
    "Level2Vector",
    "PeriodMatrix",
    "ScaledComplex",
    "ThetaJets",
    "ThetaRequest",
    "gauss_exponents",
    "half_period",
    "lattice_distance",
    "level_two_vector",
    "level_two_vectors",
    "normalized_log_abs_many",
    "theta",
    "theta_jet",
    "theta_jets",
    "truncation_radius",
]
