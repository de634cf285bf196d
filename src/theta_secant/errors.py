"""Exception hierarchy.

Two families matter operationally: validation errors (bad input data or
violated invariants, CLI exit code 2) and numerical errors (the machinery
gave up or hit a guard, CLI exit code 3).
"""


class ThetaSecantError(Exception):
    """Base class for all package errors."""


class ValidationError(ThetaSecantError):
    """Input data or invariant violation."""


class NumericalError(ThetaSecantError):
    """Numerical machinery failed loudly rather than degrade silently."""


# -- validation family --------------------------------------------------

class NonPosDef(ValidationError):
    """Im B is not positive definite (its smallest eigenvalue is not positive)."""


class DegenerateCurve(ValidationError):
    """Curve polynomial has (nearly) repeated branch points."""


class CoincidentPoints(ValidationError):
    """Curve points coincide modulo the period lattice."""


class BranchPoint(ValidationError):
    """Operation undefined at a branch point (y = 0)."""


class DimensionMismatch(ValidationError):
    """Operands live in different genus / projective dimension."""


class ConfigError(ValidationError):
    """Scenario configuration rejected."""


# -- numerical family ---------------------------------------------------

class RadiusCap(NumericalError):
    """Certified truncation radius would exceed the configured cap."""


class QuadratureStall(NumericalError):
    """Gauss-Legendre node doubling did not converge."""


class BadPeriods(NumericalError):
    """A curve's computed period matrix is not a Riemann matrix."""


class PathFailure(NumericalError):
    """No admissible integration path found."""


class RootSearchFailed(NumericalError):
    """Too few theta-divisor roots located."""


class ZeroVector(NumericalError):
    """All projective coordinates collapsed numerically."""


class RankDeficient(NumericalError):
    """Least-squares design matrix is numerically rank deficient."""


class DivisorHit(NumericalError):
    """A required theta value sits too close to the theta divisor."""


class LostZero(NumericalError):
    """Zero tracking diverged or jumped between grid points."""


class DegenerateZero(NumericalError):
    """Tracked zero is not simple enough for Laurent data."""


class GuardFailed(NumericalError):
    """A non-vanishing side condition failed at a tracked zero."""


class Collision(NumericalError):
    """Particle collision guard violated during integration."""


class WindowExhausted(NumericalError):
    """Series extension ran past the configured lattice window."""


class NonPeriodic(NumericalError):
    """Potential is not periodic to tolerance on the cyclic grid."""
