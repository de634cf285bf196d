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
   its phase folded into the exponents of the sum (step 3).  A pass whose
   points all have b = 0 skips the prefactor and the parity re-indexing
   of level-two bins, which would change no bit;
2. certified truncation: the sum runs over the ellipsoid

       { n in Z^g : pi * (n, Im B n) <= R^2 },

   whose radius R comes from the tail bound of Deconinck, Heil, Bobenko,
   van Hoeij and Schmies (Computing Riemann theta functions, Math. Comp. 73,
   2004), extended by the derivative factors: the discarded terms sum to
   less than tol times the largest term (see truncation_radius).  R is
   fixed by an integer r, the largest coordinate of the ellipsoid; r, the
   points and their phases pi*i*(B n, n) are cached on the matrix, and the
   matrix B/2 of the level-two vectors is B scaled exactly (halved);
3. one pass for P points at once (_lattice_jets): step 1 row by row (in
   Python floats for a single point), the radius looked up once, then, per
   block of max(1, PASS_TERMS // M) consecutive points for the M lattice
   terms, the exponents of each point and term as one array with each
   row's largest real part factored out and the prefactor's phase folded
   in, one exp, the derivative factors multiplied in, and row-wise sums
   (np.add.reduceat over the bins of the points).  So a pass's work arrays
   hold PASS_TERMS = 2^12 terms (or one row of M), not P * M, and a pass
   of at most PASS_TERMS // M points is one block.  A level-two vector is
   one such sum for B/2, its points stored sorted by the parity of n, one
   bin per class.  Each row is computed alone and in an order that depends
   neither on P nor on the blocks, so a point's result is bitwise the same
   in any batch: theta, theta_jet and level_two_vector are one-point views
   of theta_jets and level_two_vectors.

The normalized modulus |theta(z)| * exp(-pi * Im z . (Im B)^-1 . Im z) is
invariant under lattice translations of z and O(1) on the fundamental cell;
it is the right yardstick for "how close to the theta divisor" questions.
"""

from __future__ import annotations

import functools
import math
import os
from typing import NamedTuple, Sequence

import numpy as np

try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:     # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_features__

from .errors import (ConfigError, DimensionMismatch, NonPosDef, NumericalError,
                     RadiusCap, ValidationError)
from .scaled import ScaledComplex

DEFAULT_RADIUS_CAP = 64
DEFAULT_TOL = 1e-13
# lattice terms per row block of a pass (_lattice_jets): 64 KB per complex work array
PASS_TERMS = 2 ** 12
TOL_RANGE = (1e-16, 1e-4)
_TWO_PI_I = 2j * np.pi
_NORMAL_MIN = np.finfo(float).tiny    # the smallest normal float
_JET_KEYS = (("f",), ("f", "d0"), ("f", "d0", "d1", "d01"))    # by number of dirs
# the x86-64 levels numpy may dispatch to, highest first: several ufuncs (exp,
# log, complex abs and multiplication among them) round differently under each
LEVELS = ("X86_V4", "X86_V3", "X86_V2")
_EPS = 2.0 ** -53             # LAPACK's dlamch('E')
_SPLIT = 2.0 ** 27 + 1.0      # Veltkamp's splitter of a 53-bit float (_fma)


def dispatch_class() -> str:
    """The highest x86-64 level numpy dispatches to in this process."""
    return next((v for v in LEVELS if __cpu_features__.get(v)), "below X86_V2")


@functools.cache
def blas_core() -> str:
    """The core name of numpy's bundled OpenBLAS in this process (SkylakeX,
    Haswell, ...), whose kernels round BLAS products and solves differently;
    "unknown" when numpy carries no scipy-openblas library."""
    import ctypes
    root = os.path.dirname(np.__file__)
    folders = (os.path.join(root, os.pardir, "numpy.libs"), os.path.join(root, ".dylibs"))
    for path in [os.path.join(folder, name) for folder in folders if os.path.isdir(folder)
                 for name in os.listdir(folder) if "openblas" in name]:
        try:
            corename = ctypes.CDLL(path).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return "unknown"


def resolve_cap() -> int:
    """Radius cap: the THETA_SECANT_CAP env var, or the default when it is
    unset or empty; ConfigError unless it is an integer of at least 1."""
    env = os.environ.get("THETA_SECANT_CAP")
    if not env:
        return DEFAULT_RADIUS_CAP
    try:
        cap = int(env)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ConfigError(f"THETA_SECANT_CAP must be an integer of at least 1, "
                          f"got {env!r}")
    return cap


# ----------------------------------------------------------------------
# domain types
# ----------------------------------------------------------------------

class Frozen:
    """Base of the immutable records: __init__ sets each attribute once,
    through _set, and assignment or deletion raises."""

    __slots__ = ()

    def _set(self, **attrs):
        for name, value in attrs.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {type(self).__name__}.{name}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {type(self).__name__}.{name}")


def _fma(a: float, b: float, c: float) -> float:
    """a * b + c rounded once, as a fused multiply-add rounds it.

    Dekker's two-product, with Veltkamp's split of a and b into 26-bit
    halves, gives a * b = p + e exactly, and fsum rounds p + e + c once.
    The split is exact for |a|, |b| < 2^996 with a * b zero or between
    2^-968 and 2^1023 in magnitude: the splitter does not overflow, and
    the error e does not underflow.
    """
    t = _SPLIT * a
    ah = t - (t - a)
    al = a - ah
    t = _SPLIT * b
    bh = t - (t - b)
    bl = b - bh
    p = a * b
    return math.fsum((p, ((ah * bh - p) + ah * bl + al * bh) + al * bl, c))


def _least_eigenvalue2(rows: list) -> float:
    """Least eigenvalue of a symmetric 2 x 2 matrix [[a, b], [b, c]], given as
    rows of floats, as np.linalg.eigvalsh computes it from its lower
    triangle, bit for bit under every OpenBLAS kernel.

    This is reference LAPACK's path for n = 2 (dsyevd, dsterf, dlae2):
    dsterf's two split tests, then dlae2 (dsterf swaps a and c when
    |c| < |a|, which changes none of dlae2's steps).  It holds while the
    largest |entry| lies in [2^-405, 2^484], where neither dsyevd nor
    dsterf rescales.  A trace a + c <= 0 returns min(a, c), which is then
    <= 0 as the least eigenvalue is.
    """
    (a, _), (b, c) = rows
    if (abs(b) <= math.sqrt(abs(a)) * math.sqrt(abs(c)) * _EPS
            or b * b <= _EPS * _EPS * abs(a * c)):
        return min(a, c)
    rte = math.sqrt(b * b)
    sm = a + c
    if not sm > 0:
        return min(a, c)
    adf, ab = abs(a - c), abs(rte + rte)
    acmx, acmn = (a, c) if abs(a) > abs(c) else (c, a)
    # q * q, not q ** 2: pow may round differently
    if adf > ab:
        q = ab / adf
        rt = adf * math.sqrt(1.0 + q * q)
    elif adf < ab:
        q = adf / ab
        rt = ab * math.sqrt(1.0 + q * q)
    else:
        rt = ab * math.sqrt(2.0)
    rt1 = 0.5 * (sm + rt)
    return min(rt1, (acmx / rt1) * acmn - (rte / rt1) * rte)


def _inverse2(rows: list) -> np.ndarray:
    """Inverse of a 2 x 2 matrix, given as rows of floats, as np.linalg.inv
    computes it under OpenBLAS's AVX-512 (SkylakeX) kernels, on any machine.

    inv solves against the identity by LU with partial pivoting: multiplier
    l = y10 (1/y00), pivot u11 = y11 - l y01, then per column forward and
    back substitution by the reciprocal pivots, x0 fused as
    fma(-y01, x1, y0) (1/y00).  The unfused x0 is what the AVX2 kernels
    return, and differs in the last bit for some matrices.
    """
    (a, b), (c, d) = rows
    swap = abs(c) > abs(a)
    if swap:
        (a, b), (c, d) = (c, d), (a, b)
    ra = 1.0 / a
    l = c * ra
    ru = 1.0 / (d - l * b)
    x0, x1 = [], []
    for y0, y1 in ((0.0, 1.0), (1.0, 0.0)) if swap else ((1.0, 0.0), (0.0, 1.0)):
        x1.append((y1 - l * y0) * ru)
        x0.append(_fma(-b, x1[-1], y0) * ra)
    return np.array([x0, x1])


class PeriodMatrix(Frozen):
    """Point of the Siegel upper half space: symmetric, Im positive definite.

    Holds its facts as attributes: entries, g, im = Im B, im_inv = (Im B)^-1
    and lam_min, the least eigenvalue of Im B.  For g = 1 and 2 they are
    computed without np.linalg, bit for bit what its eigvalsh and inv return
    with OpenBLAS's SkylakeX kernels, whichever kernel a machine loads; for
    g >= 3 they come from np.linalg.  Compared and hashed by identity: its
    caches live on the instance.
    """

    def __init__(self, entries):
        M = np.atleast_2d(np.asarray(entries, dtype=complex))
        if M.shape[0] != M.shape[1]:
            raise ValidationError(f"period matrix must be square, got {M.shape}")
        scale = np.maximum.reduce(np.abs(M), axis=None)
        if not 0 < scale < math.inf:
            # NaN fails both comparisons
            raise ValidationError("period matrix needs finite entries, not all zero")
        if np.maximum.reduce(np.abs(M - M.T), axis=None) > 1e-12 * scale:
            raise ValidationError("period matrix is not symmetric to 1e-12")
        M = 0.5 * (M + M.T)
        Y = np.ascontiguousarray(M.imag)
        g, rows = len(Y), Y.tolist()
        # for g = 1, 1/y and y are what inv and eigvalsh return, bit for bit
        lam_min = (rows[0][0] if g == 1 else _least_eigenvalue2(rows) if g == 2
                   else float(np.linalg.eigvalsh(Y)[0]))
        if not lam_min > 0:
            raise NonPosDef("Im B is not positive definite")
        im_inv = 1.0 / Y if g == 1 else _inverse2(rows) if g == 2 else np.linalg.inv(Y)
        self._init(M, im_inv, lam_min)

    def _init(self, entries, im_inv, lam_min):
        entries.setflags(write=False)
        # the matrix's own figures of every radius search and ellipsoid build
        # (_ellipsoid_radius, _ellipsoid), computed once
        diag = im_inv.diagonal().tolist()
        delta = math.sqrt(0.25 * math.pi * float(np.add.reduce(np.abs(entries.imag), axis=None)))
        self._set(entries=entries, g=entries.shape[0], im=entries.imag, im_inv=im_inv,
                  lam_min=lam_min, _rows=(im_inv.tolist(), entries.tolist()),
                  _diag=diag, _delta=delta, _w=math.sqrt(max(diag) / math.pi),
                  _radii={}, _points={}, _halved=None)

    def halved(self) -> "PeriodMatrix":
        """Period matrix B/2 (level-two vectors are one theta sum for it), cached.

        Built from B by exact power-of-two scaling: entries/2, 2 (Im B)^-1 and
        lam_min/2 are bit for bit what PeriodMatrix(B.entries / 2) computes
        (its LU and eigensolver commute with scaling by 2 in binary floating
        point, barring underflow), without its factorizations; B/2 is
        positive definite when B is.
        """
        if self._halved is None:
            half = object.__new__(PeriodMatrix)
            half._init(0.5 * self.entries, 2.0 * self.im_inv, 0.5 * self.lam_min)
            self._set(_halved=half)
        return self._halved


def as_vector(v) -> np.ndarray:
    """v as a complex array of at least one dimension (a scalar becomes one entry)."""
    return np.atleast_1d(np.asarray(v, dtype=complex))


class ThetaRequest(Frozen):
    """One theta value: argument and matrix."""

    def __init__(self, z, B):
        z = as_vector(z)
        if z.shape != (B.g,):
            raise DimensionMismatch(f"z has shape {z.shape}, expected ({B.g},)")
        z.setflags(write=False)
        self._set(z=z, B=B)


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
    The search walks r in Python floats from a Gaussian-only guess (see
    _ellipsoid_radius).
    The cap is resolved on every call, so THETA_SECANT_CAP is read each
    time, and RadiusCap is raised whenever r exceeds it.  A FixedJets (below:
    the tau sections, the elliptic kernel and series.SemidiscreteSystem)
    calls this once, at its first pass, and keeps the radius.
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


def _dirs_radius(B: PeriodMatrix, dirs: tuple) -> int:
    """The certified radius for DEFAULT_TOL along the complex arrays dirs."""
    return truncation_radius(B, None, DEFAULT_TOL, deriv_norms=[
        math.hypot(*map(abs, d.tolist())) for d in dirs])


def _norm_octaves(deriv_norms) -> tuple:
    """Sorted exponents of the derivative norms rounded up to powers of two."""
    if not deriv_norms:
        return ()
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
    """Smallest r that passes the tail bound of truncation_radius.

    In Python floats: with at most two octaves each coefficient c_j is a
    sum of at most two products, and the sums over j run in index order, so
    every figure is the one numpy's convolve and sum would give.
    """
    g, delta, w = B.g, B._delta, B._w
    rho = math.sqrt(math.pi * B.lam_min)
    coeffs = [1.0]
    for e in octaves:
        s = 2.0 * math.pi * 2.0 ** e
        a, c = 1.0 + s * 0.5 * math.sqrt(g), s / rho
        n = len(coeffs)
        coeffs = [coeffs[0] * a] + [coeffs[j] * a + coeffs[j - 1] * c
                                    for j in range(1, n)] + [coeffs[-1] * c]
    order = len(octaves)
    t_min = 0.5 * math.sqrt(g + 2 * order + math.sqrt(g * g + 8 * order))
    pref = 0.5 * g * (2.0 / rho) ** g
    target = tol * math.exp(-delta * delta)

    def certified(r: int) -> bool:
        t = r / w - delta - 0.5 * rho
        if t < t_min:
            return False
        total = 0.0
        for j, c in enumerate(coeffs):
            total += c * _upper_gamma(g + j, t * t)
        return pref * total <= target

    # walk from the radius where the Gaussian factor alone meets the target:
    # up until the bound holds, then down while it still holds (the bound
    # falls as r grows, and the guess is within a few steps of the answer)
    csum = 0.0
    for c in coeffs:
        csum += c
    t_guess = math.sqrt(max(math.log(pref * csum / tol) + delta * delta, t_min ** 2))
    r = max(1, math.ceil(w * (t_guess + delta + 0.5 * rho)))
    while not certified(r):
        r += 1
    while r > 1 and certified(r - 1):
        r -= 1
    return r


# ----------------------------------------------------------------------
# lattice sums
# ----------------------------------------------------------------------

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


def _grid(axes: list) -> np.ndarray:
    """The points of the box axes[0] x axes[1] x ... as columns, first coordinate slowest."""
    out = np.empty((len(axes),) + tuple(len(a) for a in axes))
    for j, a in enumerate(axes):
        out[j] = a.reshape((-1,) + (1,) * (len(axes) - 1 - j))
    return out.reshape(len(axes), -1)


def _ellipsoid(B: PeriodMatrix, r: int, binned: bool) -> tuple:
    """(2*pi*i*N, pi*i*(B n, n), starts) over the ellipsoid of largest coordinate r.

    N, of shape (g, M), holds as columns the points n in Z^g with
    pi * (n, Im B n) <= R^2 (see truncation_radius), in the order of their
    bounding box with the first coordinate slowest; starts are the first
    columns of the bins: one bin, or with binned the 2^g classes of n mod 2
    in lex order, the points sorted by class.  A class the ellipsoid misses
    (possible when Im B is large and skew) gets one point of zero weight
    (phase -inf), so that no bin is empty.  Cached on the matrix.
    """
    key = (r, binned)
    hit = B._points.get(key)
    if hit is None:
        g = B.g
        yinv = B._diag
        top = max(yinv)
        axes = []
        for y in yinv:
            h = r * math.sqrt(y / top)
            axes.append(np.arange(math.ceil(-h), math.floor(h) + 1, dtype=float))
        N = _grid(axes)
        N = N.compress(np.pi * np.einsum("ji,jk,ki->i", N, B.im, N) <= math.pi * r * r / top,
                       axis=1)
        quad = 1j * np.pi * np.einsum("ji,jk,ki->i", N, B.entries, N)
        starts = np.zeros(1, dtype=np.intp)
        if binned:
            par = np.mod(N, 2.0).astype(np.intp)
            idx = par[0]
            for j in range(1, g):
                idx = 2 * idx + par[j]
            counts = np.bincount(idx, minlength=2 ** g)
            missing = np.flatnonzero(counts == 0)
            if len(missing):
                N = np.hstack([N, (missing >> np.arange(g - 1, -1, -1)[:, None]) & 1])
                quad = np.append(quad, np.full(len(missing), -np.inf + 0j))
                idx = np.append(idx, missing)
                counts[missing] = 1
            order = idx.argsort(kind="stable")
            N, quad = N.take(order, axis=1), quad[order]
            starts = np.cumsum(counts) - counts
        N, quad = _TWO_PI_I * N, quad[None]
        for a in (N, quad, starts):
            a.setflags(write=False)
        hit = B._points[key] = (tuple(N), quad, starts)
    return hit


def _rint(x: float) -> float:
    """np.rint of a Python float: round half to even, keeping the sign of zero."""
    r = float(round(x))
    return r if r else math.copysign(0.0, x)


def _reduce(Z: np.ndarray, B: PeriodMatrix) -> tuple:
    """Step 1 of _lattice_jets at the rows of Z: (b, u, prefactor) with
    b = rint((Im B)^-1 Im z), u = z - B b less its nearest integers, as g
    factors of the lattice rows, and the prefactor exp(2 pi i s),
    s = -(b, u + B b / 2), as (Re s mod 1 in turns, Im s), or None when
    every b is 0.  A single point's u and prefactor are scalars, several
    points' the columns of u and arrays.

    One point goes through Python floats, cheaper than a dozen array calls
    on arrays of g entries and bit for bit the same: the same products and
    sums in the same order as _sum_last, a real factor x taken as x + 0i,
    as numpy multiplies once x is cast to complex, and rint keeping the
    sign of zero.  A point that is not finite takes the array path, which
    raises NumericalError for it.
    """
    if len(Z) == 1:
        y_inv, entries = B._rows
        z = Z[0].tolist()
        g = len(z)
        try:
            b = []
            for row in y_inv:
                acc = z[0].imag * row[0]
                for j in range(1, g):
                    acc = acc + z[j].imag * row[j]
                b.append(_rint(acc))
            bc = [complex(bj, 0.0) for bj in b]
            Bb, u = [], []
            for zi, row in zip(z, entries):
                w = bc[0] * row[0]
                for j in range(1, g):
                    w = w + bc[j] * row[j]
                v = zi - w
                Bb.append(w)
                u.append(complex(v.real - _rint(v.real), v.imag))
            pref = None
            if any(b):
                c = [complex(-0.5, 0.0) * w - v for w, v in zip(Bb, u)]
                s = bc[0] * c[0]
                for j in range(1, g):
                    s = s + bc[j] * c[j]
                pref = (s.real - _rint(s.real), s.imag)
            return np.array([b]), u, pref
        except (ValueError, OverflowError):
            pass
    if np.count_nonzero(np.isfinite(Z)) < Z.size:
        raise NumericalError("argument reduction of a point that is not finite")
    bvec = np.rint(_sum_last(Z.imag[:, None, :] * B.im_inv))
    Bb = _sum_last(bvec[:, None, :] * B.entries)
    u = Z - Bb
    u.real -= np.rint(u.real)
    pref = None
    if np.count_nonzero(bvec):
        s = _sum_last(bvec * (-0.5 * Bb - u))
        pref = (s.real - np.rint(s.real), s.imag)
    return bvec, [u[:, j:j + 1] for j in range(Z.shape[1])], pref


@functools.lru_cache(maxsize=None)
def _xor_table(bins: int) -> np.ndarray:
    """Row f holds the bin indices xor f."""
    t = np.arange(bins) ^ np.arange(bins)[:, None]
    t.setflags(write=False)
    return t


def _lattice_jets(Z: np.ndarray, B: PeriodMatrix, dirs: tuple,
                  radius: int | None = None, binned: bool = False) -> tuple:
    """One ellipsoid pass at P points: sums of the value and directional derivatives.

    Z has shape (P, g).  Returns (sums, logscale): sums has shape
    (K, P, bins), its K rows the keys _JET_KEYS[len(dirs)] ("f", and with
    dirs "d0", "d1", "d01", see theta_jet) and its bins those of
    _ellipsoid, holding mantissas relative to exp(logscale), shape (P,).

    Step 1 (_reduce) runs over all P points, so that a point that is not
    finite raises NumericalError before the radius is looked up; the rest
    of the pass (_lattice_rows) runs over consecutive blocks of
    max(1, PASS_TERMS // M) points for the ellipsoid's M terms, each block
    writing its rows of sums and logscale, so that the pass's work arrays
    hold at most max(PASS_TERMS, M) terms per jet key, not P * M (one
    block when P is within that budget).

    Every step acts on each point alone, in the same order whatever P, so
    row p is bitwise the result for Z[p] alone, whatever block it falls in.
    That rules out matmul (see _sum_last) and a product of two general
    complex arrays whose strides differ from row to row, which numpy may
    evaluate with or without fused multiply-adds: the prefactor's phase
    joins the exponent instead, and the derivative factors multiply the
    terms row for row (each point's own row, or one row that the points of
    a block sharing their b share, broadcast so that every row is one
    contiguous inner loop, as for a single point).  Products with a real or
    imaginary factor are exact either way.

    When no point has a lattice shift b (step 1, _reduce), the prefactor
    is exactly 1: its phase and real exponent are signed zeros that change
    no bit of the result (the n = 0 exponent has real part +0, so the row
    maxima are never -0), and the parity classes need no re-indexing, so
    that work is skipped.
    """
    # argument reduction (step 1): z = z' + a + B b, and the prefactor
    # exp(2 pi i s), s = -(b, z' + B b / 2)
    bvec, cols, pref = _reduce(Z, B)
    if radius is None:
        radius = _dirs_radius(B, dirs)
    ellipsoid = _ellipsoid(B, radius, binned)
    step = max(1, PASS_TERMS // ellipsoid[1].shape[1])
    if len(Z) <= step:
        return _lattice_rows(bvec, cols, pref, ellipsoid, dirs, binned)
    sums = np.empty((len(_JET_KEYS[len(dirs)]), len(Z), len(ellipsoid[2])), dtype=complex)
    logscale = np.empty(len(Z))
    for lo in range(0, len(Z), step):
        block = slice(lo, lo + step)
        sums[:, block], logscale[block] = _lattice_rows(
            bvec[block], [c[block] for c in cols],
            None if pref is None else (pref[0][block], pref[1][block]),
            ellipsoid, dirs, binned)
    return sums, logscale


def _lattice_rows(bvec: np.ndarray, cols: list, pref, ellipsoid: tuple, dirs: tuple,
                  binned: bool) -> tuple:
    """Steps 2 and 3 of _lattice_jets for the points that _reduce left as
    (bvec, cols, pref), over the ellipsoid (N2pi, quad, starts): their
    (sums, logscale)."""
    N2pi, quad, starts = ellipsoid
    g = len(N2pi)
    expo = quad + cols[0] * N2pi[0]
    for j in range(1, g):
        expo += cols[j] * N2pi[j]
    emax = np.maximum.reduce(expo.real, axis=1)
    # the prefactor's phase 2 pi Re(s) is taken mod 2 pi, so that adding it
    # to each exponent costs no more than the exponent's own rounding; a
    # single point's in Python floats, as numpy computes it
    if pref is None:
        expo -= emax[:, None]
        logscale = emax
    elif isinstance(pref[0], float):
        turns, s_imag = pref
        e = float(emax[0])
        expo -= complex(e, 0.0) - _TWO_PI_I * complex(turns, 0.0)
        logscale = np.array([e - 2.0 * math.pi * s_imag])
    else:
        turns, s_imag = pref
        expo -= (emax - _TWO_PI_I * turns)[:, None]
        logscale = emax - 2.0 * np.pi * s_imag
    rows = np.empty((len(_JET_KEYS[len(dirs)]),) + expo.shape, dtype=complex)
    np.exp(expo, out=rows[0])
    if dirs:
        # derivative factors 2*pi*i*(d, n - b) of the terms before reduction
        # (one row, broadcast, when every point has the same b)
        shared = bvec.tobytes() == bvec[:1].tobytes() * len(bvec)
        b2pi = _TWO_PI_I * (bvec[:1] if shared else bvec)
        lin = []
        for d in dirs:
            factor = (N2pi[0] - b2pi[:, :1]) * d[0]
            for j in range(1, g):
                factor += (N2pi[j] - b2pi[:, j:j + 1]) * d[j]
            lin.append(factor)
        for k, factor in enumerate(lin):
            np.multiply(factor, rows[0], out=rows[k + 1])
        if len(dirs) == 2:
            np.multiply(lin[0], rows[2], out=rows[3])
    sums = np.add.reduceat(rows, starts, axis=2)
    if binned and pref is not None:
        # the sum ran over n + b: the parity class of n is that bin xor b's
        flips = []
        for row in bvec.tolist():
            f = 0
            for x in row:
                f = 2 * f + (int(x) & 1)
            flips.append(f)
        sums = sums[:, np.arange(len(flips))[:, None], _xor_table(len(starts))[flips]]
    return sums, logscale


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
    dirs = tuple(np.asarray(d, dtype=complex) for d in dirs)
    if len(dirs) > 2:
        raise ValidationError("at most two derivative directions supported")
    if any(d.shape != (g,) for d in dirs):
        raise DimensionMismatch(f"derivative direction not of shape ({g},)")
    return dirs


def _as_points(Z, g: int) -> np.ndarray:
    """Z as a complex array of P points, shape (P, g)."""
    Z = np.asarray(Z, dtype=complex)
    if Z.ndim != 2 or Z.shape[1] != g:
        raise DimensionMismatch(f"points have shape {Z.shape}, expected (P, {g})")
    return Z


def theta_jets(Z, B: PeriodMatrix, dirs=(), radius: int | None = None) -> ThetaJets:
    """Jets of theta at the rows of Z, shape (P, g), from one lattice pass.

    Point p is bitwise theta_jet(Z[p], ...) (see ThetaJets).  The sum is
    truncated at the certified radius for DEFAULT_TOL (see
    truncation_radius), or at radius when given.
    """
    return _pass(Z, B, _directions(dirs, B.g), radius)


def _pass(Z, B: PeriodMatrix, dirs: tuple, radius: int | None) -> ThetaJets:
    """theta_jets past its direction check: dirs are _directions' arrays."""
    sums, scale = _lattice_jets(_as_points(Z, B.g), B, dirs, radius)
    return ThetaJets(dict(zip(_JET_KEYS[len(dirs)], sums[..., 0])), scale)


class FixedJets:
    """A holder of one period matrix B and one tuple dirs of at most two
    complex derivative directions for its whole life (set by the subclass),
    whose lattice passes _jets(W) are bitwise theta_jets(W, B, dirs).

    Its first pass that succeeds checks dirs (keeping _directions' tuple)
    and looks up the certified radius for DEFAULT_TOL, so DimensionMismatch,
    a THETA_SECANT_CAP ConfigError and RadiusCap are raised there; every
    pass then goes to _pass, past theta_jets' direction check.
    """

    _radius = None

    def _jets(self, W) -> ThetaJets:
        if self._radius is None:
            self.dirs = _directions(self.dirs, self.B.g)
            self._radius = _dirs_radius(self.B, self.dirs)
        return _pass(W, self.B, self.dirs, self._radius)


def theta(req: ThetaRequest) -> ScaledComplex:
    """theta(z | B): the value of theta_jets at the one point z."""
    jets = theta_jets(req.z[None], req.B)
    return ScaledComplex.make(jets.sums["f"][0], float(jets.logscale[0]))


def theta_jet(z, B: PeriodMatrix, dirs=()) -> dict:
    """Jet of theta at z from one lattice pass: value and directional derivatives.

    Returns a dict with keys drawn from {"f", "d0", "d1", "d01"} holding
    ScaledComplex values: "d0"/"d1" are first derivatives along dirs[0]
    and dirs[1], "d01" the mixed second derivative (for a single repeated
    direction pass dirs = (V, V)).  The values of theta_jets at the one
    point z.
    """
    jets = theta_jets(np.asarray(z, dtype=complex).reshape(1, -1), B, dirs)
    scale = float(jets.logscale[0])
    return {key: ScaledComplex.make(v[0], scale) for key, v in jets.sums.items()}


# ----------------------------------------------------------------------
# level-two vectors and the normalized modulus
# ----------------------------------------------------------------------

class Level2Vector(NamedTuple):
    """All 2^g level-two theta values at one point, on a shared logscale."""

    coords: np.ndarray
    logscale: float


def level_two_vectors(Z, B: PeriodMatrix, deriv_dir=None) -> dict:
    """Level-two vectors at the rows of Z, shape (P, g), from one binned pass.

    Maps "f" to the vectors of theta[eps,0](2Z | 2B), one Level2Vector per
    row, and with deriv_dir = V also "d0" to their directional derivatives
    with respect to Z.  Row p is bitwise level_two_vector(Z[p], ...).
    """
    dirs = _directions(() if deriv_dir is None else (deriv_dir,), B.g)
    sums, scale = _lattice_jets(_as_points(Z, B.g), B.halved(), dirs, binned=True)
    scales = scale.tolist()
    out = {}
    for key, coords in zip(_JET_KEYS[len(dirs)], sums):
        # each vector scaled by its largest modulus, or by 1 if that is
        # zero or subnormal (numpy divides by multiplying with 1 / pk,
        # which overflows there)
        pks = [pk if pk >= _NORMAL_MIN else 1.0
               for pk in np.maximum.reduce(np.abs(coords), axis=1).tolist()]
        out[key] = [Level2Vector(c / pk, ls + math.log(pk))
                    for c, pk, ls in zip(coords, pks, scales)]
    return out


def level_two_vector(Z, B: PeriodMatrix, deriv_dir=None) -> Level2Vector:
    """Vector of theta[eps,0](2Z | 2B) over eps in {0,1/2}^g (lex order).

    theta[eps,0](2Z | 2B) is the sum over n in Z^g of
    exp(2*pi*i*(B (n+eps), n+eps) + 4*pi*i*(Z, n+eps)), so all 2^g
    components are one sum over m in Z^g of exp(pi*i*(B m, m)/2 +
    2*pi*i*(Z, m)), i.e. the plain theta of Z for B/2, binned by m mod 2
    (m = 2n + 2 eps).  With deriv_dir = V the components are the
    directional derivatives with respect to Z.
    """
    vectors = level_two_vectors(np.asarray(Z, dtype=complex).reshape(1, -1), B, deriv_dir)
    return vectors["f" if deriv_dir is None else "d0"][0]


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


def rescale(mantissa, logscale, ref):
    """Values mantissa * exp(logscale) as mantissas relative to exp(ref)."""
    return mantissa * np.exp(logscale - ref)


def relative_gap(res, a, b) -> float:
    """max |res| / (|a| + |b|), an identity's relative residual, on one scale per point."""
    return float(np.max(np.abs(res) / (np.abs(a) + np.abs(b) + 1e-300)))


# ----------------------------------------------------------------------
# lattice helpers
# ----------------------------------------------------------------------

def lattice_distance(v, B: PeriodMatrix) -> float:
    """Euclidean distance from v to the period lattice: the norm of the
    representative v - a - B b that argument reduction (_reduce) leaves;
    NumericalError if v is not finite."""
    _, u, _ = _reduce(as_vector(v)[None], B)
    return float(np.linalg.norm(u))


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
