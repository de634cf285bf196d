"""Riemann theta function with certified truncation and overflow-safe scaling.

Conventions
-----------
For a symmetric g x g matrix B with positive definite imaginary part,

    theta[eps, delta](z | B) = sum over m in Z^g of
        exp( pi*i*(B(m+eps), m+eps) + 2*pi*i*(z+delta, m+eps) )

with (x, y) = x_1 y_1 + ... + x_g y_g and half-integer characteristics
eps, delta in {0, 1/2}^g.  The plain theta is eps = delta = 0.  Directional
derivatives multiply the m-th term by 2*pi*i*(d, m+eps) once per direction.

Evaluation strategy:

1. argument reduction: pick integer vectors a, b so that z' = z - a - B@b
   has its Gaussian peak centered near the origin, using

       theta[eps,delta](z' + a + B b)
           = exp( 2*pi*i*(a,eps) - pi*i*(B b, b) - 2*pi*i*(b, z'+delta) )
             * theta[eps,delta](z'),

   accumulating the exponential prefactor in a ScaledComplex logscale;
2. certified truncation: an axis-aligned box of radius r around zero, with
   r chosen from a conservative Gaussian shell bound driven by the smallest
   eigenvalue of Im B, so the discarded tail is below tolerance on the
   scaled mantissa;
3. the boxed lattice sum, vectorized, with the largest exponent factored
   out before exponentiation.

The normalized modulus |theta(z)| * exp(-pi * Im z . (Im B)^-1 . Im z) is
invariant under lattice translations of z and O(1) on the fundamental cell;
it is the right yardstick for "how close to the theta divisor" questions.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, NonPosDef, RadiusCap, ValidationError
from .scaled import ScaledComplex

DEFAULT_RADIUS_CAP = 64
DEFAULT_TOL = 1e-13
TOL_RANGE = (1e-16, 1e-4)
_TWO_PI_I = 2j * np.pi


def resolve_cap(cap: int | None = None) -> int:
    """Radius cap: explicit argument, THETA_SECANT_CAP env var, or default."""
    if cap is not None:
        return int(cap)
    env = os.environ.get("THETA_SECANT_CAP")
    return int(env) if env else DEFAULT_RADIUS_CAP


# ----------------------------------------------------------------------
# domain types
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class PeriodMatrix:
    """Point of the Siegel upper half space: symmetric, Im positive definite."""

    entries: np.ndarray

    def __init__(self, entries):
        M = np.atleast_2d(np.asarray(entries, dtype=complex))
        if M.shape[0] != M.shape[1]:
            raise ValidationError(f"period matrix must be square, got {M.shape}")
        scale = np.max(np.abs(M))
        if scale == 0 or np.max(np.abs(M - M.T)) > 1e-12 * scale:
            raise ValidationError("period matrix is not symmetric to 1e-12")
        M = 0.5 * (M + M.T)
        M.setflags(write=False)
        object.__setattr__(self, "entries", M)
        Y = np.ascontiguousarray(M.imag)
        try:
            chol = np.linalg.cholesky(Y)
        except np.linalg.LinAlgError as exc:
            raise NonPosDef("Im B is not positive definite") from exc
        object.__setattr__(self, "_chol", chol)
        object.__setattr__(self, "_y_inv", np.linalg.inv(Y))
        object.__setattr__(self, "_lam_min", float(np.linalg.eigvalsh(Y)[0]))
        object.__setattr__(self, "_quad_cache", {})
        object.__setattr__(self, "_doubled", None)

    @property
    def g(self) -> int:
        return self.entries.shape[0]

    @property
    def im(self) -> np.ndarray:
        return self.entries.imag

    @property
    def im_inv(self) -> np.ndarray:
        return self._y_inv

    @property
    def lam_min(self) -> float:
        return self._lam_min

    def doubled(self) -> "PeriodMatrix":
        """Period matrix 2B (for level-two thetas), cached."""
        if self._doubled is None:
            object.__setattr__(self, "_doubled", PeriodMatrix(2.0 * self.entries))
        return self._doubled

    def __eq__(self, other):
        return self is other

    def __hash__(self):
        return id(self)


def _reduce_half(values) -> tuple:
    out = []
    for v in np.atleast_1d(np.asarray(values, dtype=float)):
        r = v % 1.0
        if abs(2.0 * r - round(2.0 * r)) > 1e-9:
            raise ValidationError(f"characteristic component {v} is not half-integer")
        out.append((round(2.0 * r) / 2.0) % 1.0)
    return tuple(out)


@dataclass(frozen=True)
class ThetaCharacteristic:
    """Half-integer characteristic, components reduced into {0, 1/2}."""

    eps: tuple
    delta: tuple

    def __init__(self, eps, delta=None):
        eps = _reduce_half(eps)
        delta = _reduce_half(delta) if delta is not None else (0.0,) * len(eps)
        if len(eps) != len(delta):
            raise ValidationError("eps and delta lengths differ")
        object.__setattr__(self, "eps", eps)
        object.__setattr__(self, "delta", delta)

    @staticmethod
    def zero(g: int) -> "ThetaCharacteristic":
        return ThetaCharacteristic((0.0,) * g, (0.0,) * g)


@dataclass(frozen=True)
class ThetaRequest:
    """One theta evaluation: argument, matrix, characteristic, derivatives."""

    z: np.ndarray
    B: PeriodMatrix
    char: ThetaCharacteristic | None = None
    deriv_dirs: tuple = ()
    tol: float = DEFAULT_TOL

    def __init__(self, z, B, char=None, deriv_dirs=(), tol=DEFAULT_TOL):
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        if z.shape != (B.g,):
            raise DimensionMismatch(f"z has shape {z.shape}, expected ({B.g},)")
        if char is not None and len(char.eps) != B.g:
            raise DimensionMismatch("characteristic length does not match genus")
        dirs = tuple(np.atleast_1d(np.asarray(d, dtype=complex)) for d in deriv_dirs)
        if len(dirs) > 2:
            raise ValidationError("at most two derivative directions supported")
        for d in dirs:
            if d.shape != (B.g,):
                raise DimensionMismatch("derivative direction has wrong length")
        if not (TOL_RANGE[0] <= tol <= TOL_RANGE[1]):
            raise ValidationError(f"tol {tol} outside {TOL_RANGE}")
        z.setflags(write=False)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "char", char)
        object.__setattr__(self, "deriv_dirs", dirs)
        object.__setattr__(self, "tol", float(tol))


# ----------------------------------------------------------------------
# truncation radius
# ----------------------------------------------------------------------

def truncation_radius(B: PeriodMatrix, z, tol: float,
                      cap: int | None = None,
                      deriv_norms: Sequence[float] = ()) -> int:
    """Smallest box radius whose Gaussian tail bound is below tol.

    The bound is relative to the peak term of the sum: shells at sup-norm
    distance rho from the box center contribute at most

        count(rho) * exp(-lam_min * (rho - 1/2)^2 / 2) * poly(rho)

    where poly collects the 2*pi*(d, n) factors of requested derivatives.
    The exponent 0.5*lam*(rho - 1/2)^2 against the true exp(-pi*lam*rho^2)
    decay is a factor-of-2*pi slack, which keeps the bound conservative
    against off-center peaks and roundoff.

    The radius depends only on (g, lam_min, tol, cap, deriv_norms) and is
    cached per that key; z is unused.  The cap is resolved on every call,
    so THETA_SECANT_CAP is read each time.
    """
    if not (TOL_RANGE[0] <= tol <= TOL_RANGE[1]):
        raise ValidationError(f"tol {tol} outside {TOL_RANGE}")
    cap = resolve_cap(cap)
    lam = B.lam_min
    if lam <= 0:
        raise NonPosDef("Im B is not positive definite")
    r = _shell_radius(B.g, lam, tol, cap, tuple(deriv_norms))
    if r is None:
        raise RadiusCap(f"radius bound exceeds cap {cap} (lam_min={lam:.3g}, tol={tol:g})")
    return r


@lru_cache(maxsize=1024)
def _shell_radius(g: int, lam: float, tol: float, cap: int,
                  deriv_norms: tuple) -> int | None:
    """The shell/tail loop of truncation_radius; None past the cap."""
    sqrt_g = math.sqrt(g)

    def shell(rho: int) -> float:
        cnt = (2 * rho + 1) ** g - (2 * rho - 1) ** g
        expo = -0.5 * lam * max(rho - 0.5, 0.0) ** 2
        for dn in deriv_norms:
            expo += math.log(2.0 * math.pi * dn * sqrt_g * (rho + 1) + 1.0)
        if expo < -740.0:
            return 0.0
        return cnt * math.exp(expo)

    def tail(r: int) -> float:
        total = 0.0
        for rho in range(r + 1, r + 500):
            t = shell(rho)
            total += t
            if t != 0.0 and t < 1e-320:
                break
            if t == 0.0:
                break
        return total

    for r in range(2, cap + 1):
        if tail(r) <= tol:
            return r
    return None


# ----------------------------------------------------------------------
# lattice sums
# ----------------------------------------------------------------------

def _box(g: int, r: int) -> np.ndarray:
    key = (g, r)
    box = _box_cache.get(key)
    if box is None:
        rng = np.arange(-r, r + 1, dtype=float)
        if g == 1:
            box = rng.reshape(-1, 1)
        else:
            grids = np.meshgrid(*([rng] * g), indexing="ij")
            box = np.stack([a.ravel() for a in grids], axis=-1)
        box.setflags(write=False)
        _box_cache[key] = box
    return box


_box_cache: dict = {}


def _quad_phase(B: PeriodMatrix, r: int, eps: tuple) -> tuple:
    """(N, pi*i*(B n, n)) for the box lattice, cached on the matrix."""
    key = (r, eps)
    hit = B._quad_cache.get(key)
    if hit is None:
        N = _box(B.g, r) + np.asarray(eps, dtype=float)
        quad = 1j * np.pi * np.einsum("ij,jk,ik->i", N, B.entries, N)
        N.setflags(write=False)
        quad.setflags(write=False)
        hit = (N, quad)
        B._quad_cache[key] = hit
    return hit


def _reduce_argument(z: np.ndarray, B: PeriodMatrix, eps, delta):
    """Return z', integer shifts, and the complex log of the prefactor."""
    bvec = np.round(B.im_inv @ z.imag)
    w = z - B.entries @ bvec
    avec = np.round(w.real)
    zr = w - avec
    log_factor = (_TWO_PI_I * float(avec @ np.asarray(eps))
                  - 1j * np.pi * (bvec @ B.entries @ bvec)
                  - _TWO_PI_I * (bvec @ (zr + np.asarray(delta))))
    return zr, bvec, log_factor


def _theta_jet(z, B: PeriodMatrix, char: ThetaCharacteristic | None,
               dirs: tuple, tol: float, radius: int | None = None) -> dict:
    """Jet of theta at z: value and requested directional derivatives.

    Returns a dict with keys drawn from {"f", "d0", "d1", "d01"} holding
    ScaledComplex values: "d0"/"d1" are first derivatives along dirs[0]
    and dirs[1], "d01" the mixed second derivative (for a single repeated
    direction pass dirs = (V, V)).
    """
    g = B.g
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    eps = np.asarray(char.eps if char else (0.0,) * g, dtype=float)
    delta = np.asarray(char.delta if char else (0.0,) * g, dtype=float)
    zr, bvec, log_factor = _reduce_argument(z, B, eps, delta)
    if radius is None:
        radius = truncation_radius(B, zr, tol,
                                   deriv_norms=[float(np.linalg.norm(d)) for d in dirs])
    N, quad = _quad_phase(B, radius, tuple(eps))
    expo = quad + _TWO_PI_I * (N @ (zr + delta))
    emax = float(np.max(expo.real))
    terms = np.exp(expo - emax)

    # correction factors from the quasi-periodicity prefactor
    corr = [-_TWO_PI_I * (bvec @ d) for d in dirs]
    phase = complex(np.exp(1j * log_factor.imag))
    base_scale = emax + log_factor.real

    def pack(msum: complex) -> ScaledComplex:
        return ScaledComplex.make(msum * phase, base_scale)

    out = {}
    s_f = terms.sum()
    if dirs:
        lin = [_TWO_PI_I * (N @ d) for d in dirs]
        s_d = [(l * terms).sum() for l in lin]
    if len(dirs) == 2:
        s_dd = (lin[0] * lin[1] * terms).sum()
    out["f"] = pack(s_f)
    if len(dirs) >= 1:
        out["d0"] = pack(s_d[0] + corr[0] * s_f)
    if len(dirs) == 2:
        out["d1"] = pack(s_d[1] + corr[1] * s_f)
        out["d01"] = pack(s_dd + corr[0] * s_d[1] + corr[1] * s_d[0]
                          + corr[0] * corr[1] * s_f)
    return out


def theta(req: ThetaRequest, radius: int | None = None) -> ScaledComplex:
    """theta[char](z | B) with 0, 1 or 2 directional derivatives applied."""
    jet = _theta_jet(req.z, req.B, req.char, req.deriv_dirs, req.tol, radius)
    if len(req.deriv_dirs) == 0:
        return jet["f"]
    if len(req.deriv_dirs) == 1:
        return jet["d0"]
    return jet["d01"]


def theta_jet(z, B: PeriodMatrix, dirs=(), char=None, tol: float = DEFAULT_TOL) -> dict:
    """Convenience jet evaluation sharing one lattice pass (see _theta_jet)."""
    dirs = tuple(np.atleast_1d(np.asarray(d, dtype=complex)) for d in dirs)
    return _theta_jet(z, B, char, dirs, tol)


def theta_fd_check(req: ThetaRequest, h: float) -> float:
    """Relative gap between analytic derivatives and central differences.

    First order uses (f(z+hV) - f(z-hV)) / 2h, second order the four-point
    cross difference; both are O(h^2) accurate, so the returned discrepancy
    should shrink accordingly.
    """
    if not req.deriv_dirs:
        raise ValidationError("theta_fd_check needs 1 or 2 derivative directions")
    if not (1e-6 <= h <= 1e-3):
        raise ValidationError(f"h {h} outside [1e-6, 1e-3]")
    analytic = theta(req)
    plain = lambda zz: theta(ThetaRequest(zz, req.B, req.char, (), req.tol))
    if len(req.deriv_dirs) == 1:
        V = req.deriv_dirs[0]
        fd = (plain(req.z + h * V) - plain(req.z - h * V)) * (0.5 / h)
    else:
        V, W = req.deriv_dirs
        fd = (plain(req.z + h * V + h * W) - plain(req.z + h * V - h * W)
              - plain(req.z - h * V + h * W) + plain(req.z - h * V - h * W)) \
            * (0.25 / h ** 2)
    ref = max(analytic.logscale if not analytic.is_zero() else -math.inf,
              fd.logscale if not fd.is_zero() else -math.inf)
    if ref == -math.inf:
        return 0.0
    ma, mf = analytic.rescaled(ref), fd.rescaled(ref)
    return abs(ma - mf) / (abs(ma) + abs(mf) + 1e-300)


# ----------------------------------------------------------------------
# level-two vectors and the normalized modulus
# ----------------------------------------------------------------------

def characteristic_by_index(k: int, g: int) -> ThetaCharacteristic:
    """eps in {0, 1/2}^g in lexicographic order; first component most significant."""
    eps = [0.5 * ((k >> (g - 1 - j)) & 1) for j in range(g)]
    return ThetaCharacteristic(eps, (0.0,) * g)


@dataclass(frozen=True)
class Level2Vector:
    """All 2^g level-two theta values at one point, on a shared logscale."""

    coords: np.ndarray
    logscale: float
    g: int

    def component(self, k: int) -> ScaledComplex:
        return ScaledComplex.make(self.coords[k], self.logscale)


def level_two_vector(Z, B: PeriodMatrix, deriv_dir=None,
                     tol: float = DEFAULT_TOL) -> Level2Vector:
    """Vector of theta[eps,0](2Z | 2B) over eps in {0,1/2}^g (lex order).

    With deriv_dir = V the components are the directional derivatives of
    the level-two functions with respect to Z (chain rule factor 2).
    """
    Z = np.atleast_1d(np.asarray(Z, dtype=complex))
    B2 = B.doubled()
    g = B.g
    vals = []
    for k in range(2 ** g):
        ch = characteristic_by_index(k, g)
        if deriv_dir is None:
            vals.append(theta(ThetaRequest(2.0 * Z, B2, ch, (), tol)))
        else:
            d = theta(ThetaRequest(2.0 * Z, B2, ch, (np.asarray(deriv_dir, complex),), tol))
            vals.append(2.0 * d)
    ref = max(v.logscale for v in vals if not v.is_zero()) if any(
        not v.is_zero() for v in vals) else 0.0
    coords = np.array([v.rescaled(ref) for v in vals], dtype=complex)
    return Level2Vector(coords, ref, g)


def gauss_exponent(B: PeriodMatrix, z) -> float:
    """pi * Im z . (Im B)^-1 . Im z, the invariant growth exponent of theta."""
    y = np.atleast_1d(np.asarray(z, dtype=complex)).imag
    return float(np.pi * (y @ B.im_inv @ y))


def normalized_log_abs(value: ScaledComplex, B: PeriodMatrix, z) -> float:
    """log of the lattice-invariant modulus |theta| * exp(-pi y Y^-1 y)."""
    return value.log_abs() - gauss_exponent(B, z)


def theta_hat_abs(z, B: PeriodMatrix, tol: float = DEFAULT_TOL) -> float:
    """Normalized modulus of theta at z: O(1) on the cell, 0 on the divisor."""
    val = theta(ThetaRequest(z, B, None, (), tol))
    la = normalized_log_abs(val, B, z)
    return 0.0 if la == -math.inf else math.exp(la)


# ----------------------------------------------------------------------
# lattice helpers
# ----------------------------------------------------------------------

def lattice_reduce(v, B: PeriodMatrix) -> np.ndarray:
    """Representative of v modulo Z^g + B Z^g with small imaginary part."""
    v = np.atleast_1d(np.asarray(v, dtype=complex))
    b = np.round(B.im_inv @ v.imag)
    w = v - B.entries @ b
    return w - np.round(w.real)


def lattice_distance(v, B: PeriodMatrix) -> float:
    """Euclidean distance from v to the period lattice (after reduction)."""
    return float(np.linalg.norm(lattice_reduce(v, B)))


def half_period(B: PeriodMatrix, index: int) -> np.ndarray:
    """Half period (eps + B delta)/2 for index in 0..4^g-1.

    The low g bits of index select eps components, the next g bits delta;
    bit j controls coordinate j.
    """
    g = B.g
    if not (0 <= index < 4 ** g):
        raise ValidationError(f"half-period index {index} out of range")
    eps = np.array([(index >> j) & 1 for j in range(g)], dtype=float)
    delta = np.array([(index >> (g + j)) & 1 for j in range(g)], dtype=float)
    return 0.5 * eps + B.entries @ (0.5 * delta)


def half_periods(B: PeriodMatrix) -> list:
    return [half_period(B, k) for k in range(4 ** B.g)]
