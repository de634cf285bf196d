"""Riemann theta function with certified truncation and overflow-safe scaling.

Conventions
-----------
For a symmetric g x g matrix B with positive definite imaginary part,

    theta(z | B) = sum over n in Z^g of exp( pi*i*(B n, n) + 2*pi*i*(z, n) )

with (x, y) = x_1 y_1 + ... + x_g y_g.  Directional derivatives multiply
the n-th term by 2*pi*i*(d, n) once per direction.

Evaluation strategy:

1. argument reduction: pick integer vectors a, b so that z' = z - a - B@b
   has its Gaussian peak centered near the origin, using

       theta(z' + a + B b) = exp( -pi*i*(B b, b) - 2*pi*i*(b, z') ) * theta(z'),

   with the prefactor's real exponent added to the point's logscale and
   its phase folded into the exponents of the sum (step 3);
2. certified truncation: the sum runs over the ellipsoid

       { n in Z^g : pi * (n, Im B n) <= R^2 },

   whose radius R comes from the tail bound of Deconinck, Heil, Bobenko,
   van Hoeij and Schmies (Computing Riemann theta functions, Math. Comp. 73,
   2004), extended by the derivative factors: the discarded terms sum to
   less than tol times the largest term (see truncation_radius).  R is
   fixed by an integer r, the largest coordinate of the ellipsoid; r, the
   points and their phases pi*i*(B n, n) are cached on the matrix;
3. one pass for P points at once (_lattice_jets): step 1 row by row, the
   radius looked up once, the exponents of every point and lattice term as
   one (P, M) array with each row's largest real part factored out and the
   prefactor's phase folded in, one exp, the derivative factors multiplied
   in, and row-wise sums (np.add.reduceat over the bins of the points).  A
   level-two vector is one such sum for B/2, its points stored sorted by
   the parity of n, one bin per class.  Each row is computed alone and in
   an order that does not depend on P, so a point's result is bitwise the
   same in any batch: theta, theta_jet and level_two_vector are one-point
   views of theta_jets and level_two_vectors.

The normalized modulus |theta(z)| * exp(-pi * Im z . (Im B)^-1 . Im z) is
invariant under lattice translations of z and O(1) on the fundamental cell;
it is the right yardstick for "how close to the theta divisor" questions.
"""

from __future__ import annotations

import functools
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
_NORMAL_MIN = np.finfo(float).tiny    # the smallest normal float
_JET_KEYS = (("f",), ("f", "d0"), ("f", "d0", "d1", "d01"))    # by number of dirs


def resolve_cap() -> int:
    """Radius cap: the THETA_SECANT_CAP env var, or the default."""
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
        if not 0 < scale < math.inf:
            # NaN fails both comparisons
            raise ValidationError("period matrix needs finite entries, not all zero")
        if np.max(np.abs(M - M.T)) > 1e-12 * scale:
            raise ValidationError("period matrix is not symmetric to 1e-12")
        M = 0.5 * (M + M.T)
        M.setflags(write=False)
        object.__setattr__(self, "entries", M)
        Y = np.ascontiguousarray(M.imag)
        try:
            np.linalg.cholesky(Y)
        except np.linalg.LinAlgError as exc:
            raise NonPosDef("Im B is not positive definite") from exc
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


@dataclass(frozen=True)
class ThetaRequest:
    """One theta value: argument and matrix."""

    z: np.ndarray
    B: PeriodMatrix

    def __init__(self, z, B):
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        if z.shape != (B.g,):
            raise DimensionMismatch(f"z has shape {z.shape}, expected ({B.g},)")
        z.setflags(write=False)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "B", B)


# ----------------------------------------------------------------------
# truncation radius
# ----------------------------------------------------------------------

def truncation_radius(B: PeriodMatrix, z, tol: float,
                      deriv_norms: Sequence[float] = ()) -> int:
    """Largest coordinate r of the certified summation ellipsoid.

    With Y = Im B, the sum runs over the n in Z^g with
    pi * (n, Y n) <= R^2, where R = r / w and w = max_j sqrt((Y^-1)_jj / pi),
    so that r bounds |n_j| on the ellipsoid.  r is the smallest integer
    whose R satisfies the bound of Deconinck et al. (2004)

        (g/2) (2/rho)^g sum_j c_j Gamma((g+j)/2, (R - delta - rho/2)^2)
            <= tol * exp(-delta^2),    R - delta - rho/2 >= t_N,

    which makes the discarded terms, with their derivative factors, sum to
    less than tol times the largest term:

    * after argument reduction (step 1 of _lattice_jets) the terms decay as
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
    cap = resolve_cap()
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

    # walk from the radius where the Gaussian factor alone meets the target:
    # up until the bound holds, then down while it still holds (the bound
    # falls as r grows, and the guess is within a few steps of the answer)
    t_guess = math.sqrt(max(math.log(pref * coeffs.sum() / tol) + delta * delta, t_min ** 2))
    r = max(1, math.ceil(w * (t_guess + delta + 0.5 * rho)))
    while not certified(r):
        r += 1
    while r > 1 and certified(r - 1):
        r -= 1
    return r


# ----------------------------------------------------------------------
# lattice sums
# ----------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _lex_weights(g: int) -> np.ndarray:
    """Weights turning a 0/1 vector into its lex index (first component high)."""
    w = 2.0 ** np.arange(g - 1, -1, -1)
    w.setflags(write=False)
    return w


def _sum_last(T: np.ndarray) -> np.ndarray:
    """Sum over the last axis in index order.

    Batched products are summed this way and not by matmul, whose kernels
    (and so roundings) may change with the number of rows: each entry
    depends on its own row alone.
    """
    out = T[..., 0]
    for j in range(1, T.shape[-1]):
        out = out + T[..., j]
    return out


def _ellipsoid(B: PeriodMatrix, r: int, binned: bool) -> tuple:
    """(2*pi*i*N, pi*i*(B n, n), starts) over the ellipsoid of largest coordinate r.

    N, of shape (g, M), holds as columns the points n in Z^g with
    pi * (n, Im B n) <= R^2 (see truncation_radius); starts are the first
    columns of the bins: one bin, or with binned the 2^g classes of n mod 2
    in lex order, the points sorted by class.  A class the ellipsoid misses
    (possible when Im B is large and skew) gets one point of zero weight
    (phase -inf), so that no bin is empty.  Cached on the matrix.
    """
    key = (r, binned)
    hit = B._points.get(key)
    if hit is None:
        yinv = np.diag(B.im_inv)
        half = r * np.sqrt(yinv / yinv.max())
        lo = [math.ceil(-h) for h in half]
        size = [math.floor(h) + 1 - a for h, a in zip(half, lo)]
        N = np.indices(size).reshape(B.g, -1).T + np.array(lo, dtype=float)
        N = N[np.pi * np.einsum("ij,jk,ik->i", N, B.im, N) <= math.pi * r * r / yinv.max()]
        quad = 1j * np.pi * np.einsum("ij,jk,ik->i", N, B.entries, N)
        starts = np.zeros(1, dtype=np.intp)
        if binned:
            idx = (np.mod(N, 2.0) @ _lex_weights(B.g)).astype(np.intp)
            missing = np.flatnonzero(np.bincount(idx, minlength=2 ** B.g) == 0)
            if len(missing):
                N = np.vstack([N, (missing[:, None] >> np.arange(B.g - 1, -1, -1)) & 1])
                quad = np.append(quad, np.full(len(missing), -np.inf + 0j))
                idx = np.append(idx, missing)
            order = np.argsort(idx, kind="stable")
            N, quad = N[order], quad[order]
            starts = np.searchsorted(idx[order], np.arange(2 ** B.g))
        N = _TWO_PI_I * np.ascontiguousarray(N.T)
        for a in (N, quad, starts):
            a.setflags(write=False)
        hit = B._points[key] = (N, quad, starts)
    return hit


def _lattice_jets(Z: np.ndarray, B: PeriodMatrix, dirs: tuple,
                  radius: int | None = None, binned: bool = False) -> tuple:
    """One ellipsoid pass at P points: sums of the value and directional derivatives.

    Z has shape (P, g).  Returns (sums, logscale): sums has shape
    (K, P, bins), its K rows the keys _JET_KEYS[len(dirs)] ("f", and with
    dirs "d0", "d1", "d01", see theta_jet) and its bins those of
    _ellipsoid, holding mantissas relative to exp(logscale), shape (P,).

    Every step acts on each point alone, in the same order whatever P, so
    row p is bitwise the result for Z[p] alone.  That rules out matmul
    (see _sum_last) and a broadcast product of two general complex arrays,
    which numpy may evaluate with or without fused multiply-adds depending
    on the strides: the prefactor's phase joins the exponent instead, and
    the derivative factors multiply the terms elementwise, shape for shape.
    Products with a real or imaginary factor are exact either way.
    """
    # argument reduction (step 1): z = z' + a + B b, and the prefactor
    # exp(2 pi i s), s = -(b, z' + B b / 2)
    g = Z.shape[1]
    bvec = np.rint(_sum_last(Z.imag[:, None, :] * B.im_inv))
    Bb = _sum_last(bvec[:, None, :] * B.entries)
    u = Z - Bb
    u.real -= np.rint(u.real)
    s = _sum_last(bvec * (-0.5 * Bb - u))
    if radius is None:
        radius = truncation_radius(B, Z, DEFAULT_TOL, deriv_norms=[
            math.hypot(*map(abs, d.tolist())) for d in dirs])
    N2pi, quad, starts = _ellipsoid(B, radius, binned)
    expo = quad + u[:, :1] * N2pi[0]
    for j in range(1, g):
        expo += u[:, j:j + 1] * N2pi[j]
    emax = expo.real.max(axis=1)
    # the prefactor's phase 2 pi Re(s), taken mod 2 pi so that adding it to
    # each exponent costs no more than the exponent's own rounding
    turns = s.real - np.rint(s.real)
    rows = np.empty((len(_JET_KEYS[len(dirs)]),) + expo.shape, dtype=complex)
    np.exp(expo - (emax - _TWO_PI_I * turns)[:, None], out=rows[0])
    if dirs:
        # derivative factors 2*pi*i*(d, n - b) of the terms before reduction
        b2pi = _TWO_PI_I * bvec
        shifted = [N2pi[j] - b2pi[:, j:j + 1] for j in range(g)]
        lin = []
        for k, d in enumerate(dirs):
            factor = shifted[0] * d[0]
            for j in range(1, g):
                factor += shifted[j] * d[j]
            lin.append(factor)
            np.multiply(factor, rows[0], out=rows[k + 1])
        if len(dirs) == 2:
            np.multiply(lin[0], rows[2], out=rows[3])
    sums = np.add.reduceat(rows, starts, axis=2)
    if binned:
        # the sum ran over n + b: the parity class of n is that bin xor b's
        # (a matmul of small integers is exact in any order)
        flip = (np.mod(bvec, 2.0) @ _lex_weights(g)).astype(np.intp)
        sums = sums[:, np.arange(len(flip))[:, None], np.arange(len(starts)) ^ flip[:, None]]
    return sums, emax - 2.0 * np.pi * s.imag


class ThetaJets:
    """Jets of theta at P points, from one lattice pass.

    sums maps each jet key ("f", and with derivative directions "d0",
    "d1", "d01", see theta_jet) to a (P,) array of mantissas relative to
    exp(logscale), a (P,) array.  Point p is bitwise the jet of that point
    evaluated alone.
    """

    __slots__ = ("sums", "logscale")

    def __init__(self, sums: dict, logscale: np.ndarray):
        self.sums = sums
        self.logscale = logscale


def _directions(dirs, g: int) -> tuple:
    """At most two derivative directions as complex arrays, each of shape (g,)."""
    dirs = tuple(np.atleast_1d(np.asarray(d, dtype=complex)) for d in dirs)
    if len(dirs) > 2:
        raise ValidationError("at most two derivative directions supported")
    if any(d.shape != (g,) for d in dirs):
        raise DimensionMismatch(f"derivative direction not of shape ({g},)")
    return dirs


def theta_jets(Z, B: PeriodMatrix, dirs=(), radius: int | None = None) -> ThetaJets:
    """Jets of theta at the rows of Z, shape (P, g), from one lattice pass.

    Point p is bitwise theta_jet(Z[p], ...) (see ThetaJets).  The sum is
    truncated at the certified radius for DEFAULT_TOL (see
    truncation_radius), or at radius when given.
    """
    Z, dirs = np.asarray(Z, dtype=complex), _directions(dirs, B.g)
    if Z.ndim != 2 or Z.shape[1] != B.g:
        raise DimensionMismatch(f"points have shape {Z.shape}, expected (P, {B.g})")
    sums, scale = _lattice_jets(Z, B, dirs, radius)
    return ThetaJets(dict(zip(_JET_KEYS[len(dirs)], sums[..., 0])), scale)


def theta(req: ThetaRequest) -> ScaledComplex:
    """theta(z | B): the value of theta_jets at the one point z."""
    jets = theta_jets(req.z[None], req.B)
    return ScaledComplex.make(jets.sums["f"][0], float(jets.logscale[0]))


def theta_jet(z, B: PeriodMatrix, dirs=()) -> dict:
    """Jet of theta at z from one lattice pass: value and directional derivatives.

    Returns a dict with keys drawn from {"f", "d0", "d1", "d01"} holding
    ScaledComplex values: "d0"/"d1" are first derivatives along dirs[0]
    and dirs[1], "d01" the mixed second derivative (for a single repeated
    direction pass dirs = (V, V)).
    """
    jets = theta_jets(np.asarray(z, dtype=complex).reshape(1, -1), B, dirs)
    scale = float(jets.logscale[0])
    return {key: ScaledComplex.make(v[0], scale) for key, v in jets.sums.items()}


# ----------------------------------------------------------------------
# level-two vectors and the normalized modulus
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Level2Vector:
    """All 2^g level-two theta values at one point, on a shared logscale."""

    coords: np.ndarray
    logscale: float
    g: int


def _level_two(Z: np.ndarray, B: PeriodMatrix, deriv_dir, keys: tuple) -> dict:
    """The level-two vectors of the given jet keys at the rows of Z (one binned pass)."""
    dirs = _directions(() if deriv_dir is None else (deriv_dir,), B.g)
    if Z.ndim != 2 or Z.shape[1] != B.g:
        raise DimensionMismatch(f"level-two arguments not of length {B.g}")
    sums, scale = _lattice_jets(Z, B.halved(), dirs, binned=True)
    out = {}
    for key, coords in zip(_JET_KEYS[len(dirs)], sums):
        if key in keys:
            # each vector scaled by its largest modulus, or by 1 if that is
            # zero or subnormal (numpy divides by multiplying with 1 / pk,
            # which overflows there)
            pks = [pk if pk >= _NORMAL_MIN else 1.0
                   for pk in np.abs(coords).max(axis=1).tolist()]
            out[key] = [Level2Vector(c / pk, ls + math.log(pk), B.g)
                        for c, pk, ls in zip(coords, pks, scale.tolist())]
    return out


def level_two_vectors(Z, B: PeriodMatrix, deriv_dir=None) -> dict:
    """Level-two vectors at the rows of Z, shape (P, g), from one binned pass.

    Maps "f" to the vectors of theta[eps,0](2Z | 2B), one Level2Vector per
    row, and with deriv_dir = V also "d0" to their directional derivatives
    with respect to Z.  Row p is bitwise level_two_vector(Z[p], ...).
    """
    return _level_two(np.asarray(Z, dtype=complex), B, deriv_dir, ("f", "d0"))


def level_two_vector(Z, B: PeriodMatrix, deriv_dir=None) -> Level2Vector:
    """Vector of theta[eps,0](2Z | 2B) over eps in {0,1/2}^g (lex order).

    theta[eps,0](2Z | 2B) is the sum over n in Z^g of
    exp(2*pi*i*(B (n+eps), n+eps) + 4*pi*i*(Z, n+eps)), so all 2^g
    components are one sum over m in Z^g of exp(pi*i*(B m, m)/2 +
    2*pi*i*(Z, m)), i.e. the plain theta of Z for B/2, binned by m mod 2
    (m = 2n + 2 eps).  With deriv_dir = V the components are the
    directional derivatives with respect to Z.
    """
    key = "f" if deriv_dir is None else "d0"
    Z = np.asarray(Z, dtype=complex).reshape(1, -1)
    return _level_two(Z, B, deriv_dir, (key,))[key][0]


def gauss_exponents(B: PeriodMatrix, Z) -> np.ndarray:
    """pi * Im z . (Im B)^-1 . Im z, the invariant growth exponent of theta,
    per row z of Z."""
    Y = np.asarray(Z, dtype=complex).imag
    return np.pi * _sum_last(Y * _sum_last(Y[:, None, :] * B.im_inv))


def normalized_log_abs_many(jets: ThetaJets, B: PeriodMatrix, Z) -> np.ndarray:
    """log of the lattice-invariant modulus |theta| * exp(-pi y Y^-1 y) of
    the values of jets at the rows of Z, as an array (-inf where a value
    vanishes)."""
    with np.errstate(divide="ignore"):
        return np.log(np.abs(jets.sums["f"])) + jets.logscale - gauss_exponents(B, Z)


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
