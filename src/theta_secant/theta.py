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
2. certified truncation: the sum runs over the ellipsoid

       { n in Z^g + eps : pi * (n, Im B n) <= R^2 },

   whose radius R comes from the tail bound of Deconinck, Heil, Bobenko,
   van Hoeij and Schmies (Computing Riemann theta functions, Math. Comp. 73,
   2004), extended by the derivative factors: the discarded terms sum to
   less than tol times the largest term (see truncation_radius).  R is
   fixed by an integer r, the largest coordinate of the ellipsoid; r, the
   points and their phases pi*i*(B n, n) are cached on the matrix;
3. the ellipsoid sum, vectorized, with the largest exponent factored out
   before exponentiation.  A level-two vector is one such sum for B/2,
   binned by the parity of n.

The normalized modulus |theta(z)| * exp(-pi * Im z . (Im B)^-1 . Im z) is
invariant under lattice translations of z and O(1) on the fundamental cell;
it is the right yardstick for "how close to the theta divisor" questions.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, NonPosDef, RadiusCap, ValidationError
from .scaled import ScaledComplex

DEFAULT_RADIUS_CAP = 64
DEFAULT_TOL = 1e-13
TOL_RANGE = (1e-16, 1e-4)
_TWO_PI_I = 2j * np.pi
_JET_KEYS = (("f",), ("f", "d0"), ("f", "d0", "d1", "d01"))    # by number of dirs


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
        object.__setattr__(self, "_radii", {})
        object.__setattr__(self, "_points", {})
        object.__setattr__(self, "_halved", None)

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

    def halved(self) -> "PeriodMatrix":
        """Period matrix B/2 (level-two vectors are one theta sum for it), cached."""
        if self._halved is None:
            object.__setattr__(self, "_halved", PeriodMatrix(0.5 * self.entries))
        return self._halved

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
    """Largest coordinate r of the certified summation ellipsoid.

    With Y = Im B, the sum runs over the n in Z^g + eps with
    pi * (n, Y n) <= R^2, where R = r / w and w = max_j sqrt((Y^-1)_jj / pi),
    so that r bounds |n_j| on the ellipsoid.  r is the smallest integer
    whose R satisfies the bound of Deconinck et al. (2004)

        (g/2) (2/rho)^g sum_j c_j Gamma((g+j)/2, (R - delta - rho/2)^2)
            <= tol * exp(-delta^2),    R - delta - rho/2 >= t_N,

    which makes the discarded terms, with their derivative factors, sum to
    less than tol times the largest term:

    * after argument reduction (see _reduce_argument) the terms decay as
      exp(-|v|^2), v = sqrt(pi) T (n - c), Y = T^T T, about a centre c in
      the cube [-1/2, 1/2]^g; pi (c, Y c) <= delta^2 = (pi/4) sum |Y_ij|,
      so a discarded n has |v| > R - delta, and the largest term is at
      least exp(-delta^2) times the envelope's peak;
    * rho = sqrt(pi lam_min) bounds the shortest vector of the lattice of
      the v from below; disjoint balls of radius rho/2 around them turn the
      sum into an integral, where |v|^j exp(-|v|^2) is subharmonic for
      |v| >= t_N = sqrt(g + 2N + sqrt(g^2 + 8N)) / 2;
    * c_j are the coefficients of prod_k (1 + 2 pi |d_k| (|v| / rho + b))
      in |v|^j, b = sqrt(g)/2, since |(d_k, n)| <= |d_k| (|v|/rho + |c|):
      one bound for the value and every requested derivative (N of them).
      After a reduction by B b the factors are (d_k, n - b), which adds
      |(d_k, b)| times the value's error: tol times about the largest term
      of the derivative series when b is large.

    Gamma(s, x) for half-integer s is closed-form in erfc and exp.  The
    derivative norms are rounded up to powers of two (at least 1/64), and r
    is cached on the matrix per tolerance and rounded norms; z is unused.
    The cap is resolved on every call, so THETA_SECANT_CAP is read each
    time, and RadiusCap is raised whenever r exceeds it.
    """
    if not (TOL_RANGE[0] <= tol <= TOL_RANGE[1]):
        raise ValidationError(f"tol {tol} outside {TOL_RANGE}")
    cap = resolve_cap(cap)
    key = (tol, _norm_octaves(deriv_norms))
    r = B._radii.get(key)
    if r is None:
        r = B._radii[key] = _ellipsoid_radius(B, tol, key[1])
    if r > cap:
        raise RadiusCap(f"radius {r} exceeds cap {cap} "
                        f"(lam_min={B.lam_min:.3g}, tol={tol:g})")
    return r


def _norm_octaves(deriv_norms) -> tuple:
    """Sorted exponents of the derivative norms rounded up to powers of two."""
    return tuple(sorted([math.ceil(math.log2(max(n, 2.0 ** -6))) for n in deriv_norms]))


def _upper_gamma(k: int, x: float) -> float:
    """Gamma(k/2, x) for a positive integer k.

    From Gamma(1/2, x) = sqrt(pi) erfc(sqrt(x)) or Gamma(1, x) = exp(-x),
    stepping with Gamma(s + 1, x) = s Gamma(s, x) + x^s exp(-x).
    """
    if k % 2:
        s, val = 0.5, math.sqrt(math.pi) * math.erfc(math.sqrt(x))
    else:
        s, val = 1.0, math.exp(-x)
    while s < 0.5 * k:
        val = s * val + x ** s * math.exp(-x)
        s += 1.0
    return val


def _ellipsoid_radius(B: PeriodMatrix, tol: float, octaves: tuple) -> int:
    """Smallest r that passes the tail bound of truncation_radius."""
    g, lam = B.g, B.lam_min
    if lam <= 0:
        raise NonPosDef("Im B is not positive definite")
    rho = math.sqrt(math.pi * lam)
    delta = math.sqrt(0.25 * math.pi * float(np.abs(B.im).sum()))
    w = math.sqrt(float(np.max(np.diag(B.im_inv))) / math.pi)
    coeffs = np.ones(1)
    for e in octaves:
        s = 2.0 * math.pi * 2.0 ** e
        coeffs = np.convolve(coeffs, [1.0 + s * 0.5 * math.sqrt(g), s / rho])
    order = len(octaves)
    t_min = 0.5 * math.sqrt(g + 2 * order + math.sqrt(g * g + 8 * order))
    pref = 0.5 * g * (2.0 / rho) ** g
    target = tol * math.exp(-delta * delta)

    def certified(r: int) -> bool:
        t = r / w - delta - 0.5 * rho
        return t >= t_min and pref * sum(
            c * _upper_gamma(g + j, t * t) for j, c in enumerate(coeffs)) <= target

    hi = 1
    while not certified(hi):
        hi *= 2
    lo = hi // 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if certified(mid) else (mid, hi)
    return hi


# ----------------------------------------------------------------------
# lattice sums
# ----------------------------------------------------------------------

def _lex_weights(g: int) -> np.ndarray:
    """Weights turning a 0/1 vector into its lex index (first component high)."""
    return 2.0 ** np.arange(g - 1, -1, -1)


def _ellipsoid(B: PeriodMatrix, r: int, eps: tuple, binned: bool) -> tuple:
    """(N, pi*i*(B n, n), sel) over the ellipsoid of largest coordinate r.

    N holds the points n in Z^g + eps with pi * (n, Im B n) <= R^2 (see
    truncation_radius); rows @ sel sums rows of terms per bin: one bin, or
    with binned the 2^g classes of n mod 2 in lex order.  Cached on the
    matrix.
    """
    key = (r, eps, binned)
    hit = B._points.get(key)
    if hit is None:
        yinv = np.diag(B.im_inv)
        half = r * np.sqrt(yinv / yinv.max())
        axes = [np.arange(math.ceil(-h - e), math.floor(h - e) + 1) + e
                for h, e in zip(half, eps)]
        N = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, B.g)
        N = N[np.pi * np.einsum("ij,jk,ik->i", N, B.im, N) <= math.pi * r * r / yinv.max()]
        quad = 1j * np.pi * np.einsum("ij,jk,ik->i", N, B.entries, N)
        if binned:
            idx = np.mod(N, 2.0) @ _lex_weights(B.g)
            sel = (idx[:, None] == np.arange(2 ** B.g)).astype(complex)
        else:
            sel = np.ones((len(N), 1), dtype=complex)
        for a in (N, quad, sel):
            a.setflags(write=False)
        hit = B._points[key] = (N, quad, sel)
    return hit


def _reduce_argument(z: np.ndarray, B: PeriodMatrix, eps, delta):
    """Return z', integer shifts, and the complex log of the prefactor."""
    bvec = np.rint(B.im_inv @ z.imag)
    w = z - B.entries @ bvec
    avec = np.rint(w.real)
    zr = w - avec
    log_factor = (_TWO_PI_I * float(avec @ eps)
                  - 1j * np.pi * (bvec @ B.entries @ bvec)
                  - _TWO_PI_I * (bvec @ (zr + delta)))
    return zr, bvec, log_factor


def _lattice_jet(z, B: PeriodMatrix, eps, delta, dirs: tuple, tol: float,
                 radius: int | None = None, binned: bool = False) -> tuple:
    """One ellipsoid pass: sums of the value and directional derivatives.

    Returns (sums, logscale): sums maps "f", and with dirs "d0", "d1",
    "d01" (see _theta_jet), to an array with one entry per bin (see
    _ellipsoid) of mantissas relative to exp(logscale).
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    zr, bvec, log_factor = _reduce_argument(z, B, eps, delta)
    if radius is None:
        radius = truncation_radius(B, zr, tol,
                                   deriv_norms=[float(np.linalg.norm(d)) for d in dirs])
    N, quad, sel = _ellipsoid(B, radius, tuple(eps), binned)
    expo = quad + _TWO_PI_I * (N @ (zr + delta))
    emax = float(np.max(expo.real))
    terms = np.exp(expo - emax)
    # derivative factors 2*pi*i*(d, n - bvec) of the terms before reduction
    lin = [_TWO_PI_I * ((N - bvec) @ d) for d in dirs]
    rows = [terms] + [l * terms for l in lin]
    if len(dirs) == 2:
        rows.append(lin[0] * lin[1] * terms)
    sums = np.array(rows) @ sel * np.exp(1j * log_factor.imag)
    if binned:
        # the sum ran over n + bvec: the parity class of n is that bin xor bvec's
        flip = int(np.mod(bvec, 2.0) @ _lex_weights(B.g))
        sums = sums[:, np.arange(sums.shape[1]) ^ flip]
    return dict(zip(_JET_KEYS[len(dirs)], sums)), emax + log_factor.real


def _theta_jet(z, B: PeriodMatrix, char: ThetaCharacteristic | None,
               dirs: tuple, tol: float, radius: int | None = None) -> dict:
    """Jet of theta at z: value and requested directional derivatives.

    Returns a dict with keys drawn from {"f", "d0", "d1", "d01"} holding
    ScaledComplex values: "d0"/"d1" are first derivatives along dirs[0]
    and dirs[1], "d01" the mixed second derivative (for a single repeated
    direction pass dirs = (V, V)).
    """
    g = B.g
    eps = np.asarray(char.eps if char else (0.0,) * g, dtype=float)
    delta = np.asarray(char.delta if char else (0.0,) * g, dtype=float)
    sums, scale = _lattice_jet(z, B, eps, delta, dirs, tol, radius)
    return {key: ScaledComplex.make(v[0], scale) for key, v in sums.items()}


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

    All 2^g components are one sum over m in Z^g of
    exp(pi*i*(B m, m)/2 + 2*pi*i*(Z, m)), i.e. the plain theta of Z for
    B/2, binned by m mod 2 (m = 2n + 2 eps).  With deriv_dir = V the
    components are the directional derivatives with respect to Z.
    """
    Z = np.atleast_1d(np.asarray(Z, dtype=complex))
    dirs = () if deriv_dir is None else (np.atleast_1d(np.asarray(deriv_dir, complex)),)
    if any(v.shape != (B.g,) for v in (Z,) + dirs):
        raise DimensionMismatch(f"level-two argument or direction is not of length {B.g}")
    zero = np.zeros(B.g)
    sums, scale = _lattice_jet(Z, B.halved(), zero, zero, dirs, tol, binned=True)
    coords = sums["d0" if dirs else "f"]
    peak = float(np.max(np.abs(coords)))
    if peak > 0.0:
        coords = coords / peak
        scale += math.log(peak)
    return Level2Vector(coords, scale, B.g)


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
