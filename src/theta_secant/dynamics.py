"""Pole dynamics: tau-zero tracking, the second-order zero law, the
Ruijsenaars-Schneider system, and the discrete six-factor zero identity.

The tau functions here are one-complex-variable sections tau(x, t) (or
tau(x, nu)) of a theta function; zeros eta are continued in the parameter
by a predictor-corrector: Newton starts from eta + eta_dot dt and always
takes one step; every later evaluation is the one-pass stencil of the
Laurent data, so the pass that shows the zero also gives them and the
field v at eta +- 1 that the zero law reads:

    eta_dot = -tau_t / tau_x          (implicit differentiation)
    v0      = lim_{x->eta} [ v(x,t) - eta_dot/(x - eta) ],  v = -tau_t/tau

with v0 extracted by averaging v - eta_dot/(x-eta) over a small 5-point
circle around eta (the roots-of-unity mean kills the first four Taylor
corrections).

The zero law couples eta(t) to the field v:

    eta_ddot = eta_dot * [2 v0(t) - v(eta+1, t) - v(eta-1, t)].

Its residual is normalized by the natural term scale
|eta_ddot| + |eta_dot| (2|v0| + |v(eta+1)| + |v(eta-1)|): for genus-1
theta data the zeros move linearly and both sides vanish, so a pure
left-right relative error would be 0/0 noise.

The n-particle system

    x_i'' = sum_{j != i} x_i' x_j' F(x_i - x_j),
    F(q) = 2 zeta(q) - zeta(q+1) - zeta(q-1)

is integrated by classical RK4 in Python complex scalars; zeta is 1/q
(rational), (pi/L) cot(pi q/L) (trigonometric, period L), or the odd-theta
log derivative for the elliptic case (the Weierstrass linear corrections
cancel in F).  F is odd, so a stage evaluates it once per pair, at
x_i - x_j with i < j: a kernel's forces(q) maps the list of these
separations to their F values, or to the index of the first one not clear
of the poles.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from typing import NamedTuple

import numpy as np

from .errors import (
    Collision,
    DegenerateZero,
    GuardFailed,
    LostZero,
    NumericalError,
    ValidationError,
)
from .theta import FixedJets, PeriodMatrix, as_vector, gauss_exponents, lattice_distance

ZERO_TARGET = 1e-10
SIMPLE_ZERO_GUARD = 1e-10
FACTOR_GUARD = 1e-8
NEIGHBOUR_GUARD = 1e-10       # least normalized |tau| at a discrete zero's NEIGHBOURS
NEIGHBOURS = ((1, 1), (1, -1), (2, 0), (-1, 1), (-1, -1), (-2, 0))      # (dx, dn)
MAX_RS_STEPS = 10**6
MAX_RS_PARTICLES = 100        # an elliptic stage is one pass of 3N(N-1)/2 <= 14850 points
MAX_RS_POINTS = 4 * 10**6     # (steps + 1) * N positions, and as many velocities
NEWTON_MAX_ITER = 60
NEWTON_STEP_CAP = 0.5
LAURENT_RADIUS = 0.01         # circle radius of the v0 fit, relative to 1 + |x|


# ----------------------------------------------------------------------
# tau sections
# ----------------------------------------------------------------------

def _times(x, U, iU) -> np.ndarray:
    """The points x_p U, shape (P, g), given U and iU = i U; the point x U,
    shape (g,), for a scalar x (a Python or numpy float or complex).

    The real and imaginary parts of x multiply U and iU, which rounds like
    real products: numpy may round a broadcast product of two complex
    arrays with fused multiply-adds, depending on the strides, while these
    round alike at any P.  A scalar takes the same two products (the
    imaginary one keeps the signs of zeros), without the array calls.
    """
    if isinstance(x, (float, complex)):
        return x.real * U + x.imag * iU
    x = np.ravel(np.asarray(x, dtype=complex))
    return np.multiply.outer(x.real, U) + np.multiply.outer(x.imag, iU)


class _ThetaSection(FixedJets):
    """A tau section theta(x X + t T + Z | B) with derivatives along dirs.

    jets(xs, ts) is its one evaluation: xs and ts of one shape, or a scalar
    t, in one lattice pass.  It returns (P,) arrays (f, fx, ft, g): g is
    the Gaussian exponent of each argument, and f, fx, ft are tau, tau_x
    and tau_t divided by exp(g), so abs(f) is the normalized modulus (O(1)
    generically, 0 on a zero).  ft is None for a section without a t
    direction.  Row p is bitwise the value at the p-th point alone.
    """

    def __init__(self, X, T, Z, B: PeriodMatrix, dirs: tuple):
        self.X, self.T, self.Z, self.B, self.dirs = X, T, as_vector(Z), B, dirs
        self._iX, self._iT = 1j * X, 1j * T

    def arg(self, x, t):
        return _times(x, self.X, self._iX) + _times(t, self.T, self._iT) + self.Z

    def jets(self, xs, ts) -> tuple:
        W = self.arg(xs, ts)
        J = self._jets(W)
        g = gauss_exponents(self.B, W)
        unit = np.exp(J.logscale - g)
        ft = J.sums.get("d1")
        return (J.sums["f"] * unit, J.sums["d0"] * unit,
                None if ft is None else ft * unit, g)


class ThetaTau(_ThetaSection):
    """tau(x, t) = theta(x U + t V + Z | B) with analytic x/t derivatives."""

    def __init__(self, U, V, Z, B: PeriodMatrix):
        U, V = as_vector(U), as_vector(V)
        super().__init__(U, V, Z, B, (U, V))


class PerturbedTau:
    """tau plus an additive non-theta term, for negative controls.

    The term is pinned to the lattice-invariant Gaussian scale of theta at
    the reference argument (not the theta value there, which may sit on
    the divisor), so it is O(epsilon) relative to generic tau values on
    the tracked region while staying analytic in x.

    mode "const" adds epsilon * exp(g_ref); mode "oscillatory" adds
    epsilon * exp(g_ref) * exp(i pi x), which alternates sign across the
    unit x-steps of the lattice identities.  Constants are close to the
    tangent space of theta-family deformations (argument shifts and
    rescalings, under which the identities are exact), so their
    first-order effect on the six-factor ratio largely cancels; the
    oscillatory term does not.  jets adds the term, divided by exp(g)
    like the rest, to the arrays of the base section's one pass.
    """

    def __init__(self, base, epsilon: float, x_ref: complex = 0j,
                 mode: str = "const"):
        if mode not in ("const", "oscillatory"):
            raise ValidationError(f"unknown perturbation mode {mode!r}")
        self.base, self.epsilon, self.mode = base, epsilon, mode
        self.g_ref = gauss_exponents(base.B, base.arg([x_ref], 0.0))[0]

    def jets(self, xs, ts) -> tuple:
        f, fx, ft, g = self.base.jets(xs, ts)
        term = self.epsilon * np.exp(self.g_ref - g)
        if self.mode == "oscillatory":
            term = term * np.exp(1j * np.pi * np.ravel(xs))
            fx = fx + 1j * np.pi * term
        return f + term, fx, ft, g


# ----------------------------------------------------------------------
# zero location and tracking
# ----------------------------------------------------------------------

def _newton_step(f: complex, fx: complex, x: complex) -> complex:
    """The Newton step f / fx at x, capped at NEWTON_STEP_CAP; LostZero if it
    is not finite."""
    with np.errstate(all="ignore"):
        dx = complex(f / fx)
    if not cmath.isfinite(dx):
        raise LostZero(f"non-finite Newton step at x={x:.4g}")
    if abs(dx) > NEWTON_STEP_CAP:
        dx *= NEWTON_STEP_CAP / abs(dx)
    return dx


def _newton(jets, x: complex) -> tuple:
    """Newton from x until |f| <= ZERO_TARGET, where jets(x) is a pass whose
    first two arrays lead with f and f_x at x: (the zero, its pass)."""
    x0 = x
    for _ in range(NEWTON_MAX_ITER):
        out = jets(x)
        f, fx = out[0][0], out[1][0]
        if abs(f) <= ZERO_TARGET:
            return x, out
        x = x - _newton_step(f, fx, x)
    raise LostZero(f"Newton failed to converge near x={x0:.4g}")


def _scan_start(tau, t: float, span: float = 2.0, n: int = 21) -> complex:
    """A Newton start for some zero on the line: the point of least |tau| on
    the n x n grid over the square |Re x|, |Im x| <= span, from one pass."""
    xs = np.linspace(-span, span, n)
    grid = (xs[:, None] + 1j * xs[None, :]).ravel()
    return complex(grid[np.argmin(np.abs(tau.jets(grid, t)[0]))])


class ZeroPath(NamedTuple):
    """A tracked zero with per-point Laurent data; v_side is v at eta +- 1."""

    t: np.ndarray
    eta: np.ndarray
    etadot: np.ndarray
    v0: np.ndarray
    tau_abs: np.ndarray
    v_side: np.ndarray

    def csv_rows(self):
        yield ["t", "re_eta", "im_eta", "re_v0", "im_v0"]
        yield from ([t, e.real, e.imag, v.real, v.imag]
                    for t, e, v in zip(self.t, self.eta, self.v0))


def _stencil(tau, x: complex, t: float) -> tuple:
    """(f, fx, ft, circle): tau.jets at x, x + 1, x - 1 and the 5-point
    circle about x, in one lattice pass."""
    rho = LAURENT_RADIUS * (1.0 + abs(x))
    circle = x + rho * np.exp(2j * np.pi * np.arange(5) / 5.0)
    f, fx, ft, _ = tau.jets(np.concatenate([[x, x + 1.0, x - 1.0], circle]), t)
    return f, fx, ft, circle


def _laurent_data(x: complex, t: float, stencil: tuple):
    """(|tau|, eta_dot, v0, v at x + 1 and x - 1) at a zero x from its
    stencil pass, with tau(x +- 1) guarded."""
    f, fx, ft, circle = stencil
    if abs(fx[0]) < SIMPLE_ZERO_GUARD:
        raise DegenerateZero(f"|tau_x| ~ {abs(fx[0]):.2e} at tracked zero")
    for off, h in zip((1.0, -1.0), np.abs(f[1:3])):
        if h < FACTOR_GUARD:
            raise GuardFailed(f"tau(eta{off:+g}, t) vanishes at t={t:.4g}")
    etadot = complex(-ft[0] / fx[0])
    v0 = complex(sum(-ft[3:] / f[3:] - etadot / (circle - x))) / 5.0
    return float(abs(f[0])), etadot, v0, -ft[1:3] / f[1:3]


def track_zero(tau, grid, x0: complex | None = None) -> ZeroPath:
    """Continue a zero of tau(., t) across the parameter grid (module doc);
    the forced first step keeps the path free of the predictor's error."""
    grid = np.asarray(grid, dtype=float)
    if len(grid) < 2:
        raise ValidationError("grid needs at least two points")
    if not np.isfinite(grid).all() or not np.diff(grid).all():
        raise ValidationError("grid needs finite values and nonzero steps")
    eta = np.zeros(len(grid), complex)
    etadot = np.zeros(len(grid), complex)
    v0 = np.zeros(len(grid), complex)
    tau_abs = np.zeros(len(grid))
    v_side = np.zeros((len(grid), 2), complex)
    # at the first point every Newton pass is a stencil pass already
    x = _scan_start(tau, grid[0]) if x0 is None else complex(x0)
    for k, t in enumerate(grid):
        if k > 0:
            dt = t - grid[k - 1]
            pred = eta[k - 1] + etadot[k - 1] * dt
            f, fx, _, _ = tau.jets([pred], t)
            x = pred - _newton_step(f[0], fx[0], pred)
        x, stencil = _newton(lambda y: _stencil(tau, y, t), x)
        if k > 0:
            # a converged zero far from the velocity prediction means we
            # hopped to another sheet of the zero set (grid too coarse for
            # the motion)
            if abs(x - pred) > 0.05 * (1.0 + abs(pred - eta[k - 1])):
                raise LostZero(
                    f"zero at t={t:.4g} is {abs(x - pred):.3g} from the "
                    "continuation prediction; refine the grid")
            limit = 10.0 * abs(dt) * (abs(etadot[k - 1]) + 1.0)
            if abs(x - eta[k - 1]) > limit:
                raise LostZero(f"zero jumped by {abs(x - eta[k-1]):.3g} "
                               f"(limit {limit:.3g}) at t={t:.4g}")
        eta[k] = x
        tau_abs[k], etadot[k], v0[k], v_side[k] = _laurent_data(x, t, stencil)
    return ZeroPath(grid, eta, etadot, v0, tau_abs, v_side)


def track_tau_zero(U, V, Z, B: PeriodMatrix, grid) -> ZeroPath:
    """Track a scanned zero of theta(xU + tV + Z) in x along the t grid
    (track_zero takes any section, such as a perturbed one, and a start)."""
    return track_zero(ThetaTau(U, V, Z, B), grid)


def cm5_residual(path: ZeroPath, U, V, Z, B: PeriodMatrix, tau=None) -> float:
    """Zero-law residual: eta_ddot vs eta_dot [2 v0 - v(eta+1) - v(eta-1)].

    eta_ddot comes from a 5-point central difference of the tracked path
    (an oracle independent of the analytic Laurent data); the right side
    is fully analytic: v(eta +- 1) is path.v_side, from the guarded passes
    that tracked the zero, so no pass is made here.  Normalization uses
    the term scale, see module doc.  U, V, Z, B and tau are unused (the
    benchmark passes them by position).
    """
    t, eta = path.t, path.eta
    if len(t) < 5:
        raise ValidationError("need at least 5 grid points")
    h = t[1] - t[0]
    if h == 0:
        raise ValidationError("cm5 residual needs a nonzero grid step")
    if np.max(np.abs(np.diff(t) - h)) > 1e-12 * max(abs(h), 1.0):
        raise ValidationError("cm5 residual needs a uniform grid")
    worst = 0.0
    for k, (vp, vm) in zip(range(2, len(t) - 2), path.v_side[2:]):
        ddot = (-eta[k - 2] + 16 * eta[k - 1] - 30 * eta[k]
                + 16 * eta[k + 1] - eta[k + 2]) / (12.0 * h * h)
        rhs = path.etadot[k] * (2.0 * path.v0[k] - vp - vm)
        scale = (abs(ddot) + abs(path.etadot[k])
                 * (2.0 * abs(path.v0[k]) + abs(vp) + abs(vm)))
        if scale <= 1e-9 * (1.0 + abs(eta[k])):
            # statically trivial: both sides vanish below numerical noise
            continue
        worst = max(worst, abs(ddot - rhs) / (scale + 1e-300))
    return worst


# ----------------------------------------------------------------------
# Ruijsenaars-Schneider integration
# ----------------------------------------------------------------------

def _pole_spacing(periods: tuple) -> float:
    """The least distance between two poles of F = 2 L(q) - L(q + 1) - L(q - 1)
    when L has its poles on the lattice of periods: the least nonzero |p + e|,
    e = 0, 1, 2, over lattice points p within three periods along each."""
    points = [0j]
    for w in periods:
        points = [p + m * w for p in points for m in range(-3, 4)]
    return min(d for p in points for e in (0, 1, 2) if (d := abs(p + e)) > 0)


class RationalKernel:
    clearance = 1e-6
    spacing = 1.0         # the least distance between the poles 0, 1, -1 of F

    def forces(self, qs: list) -> list | int:
        """F at each q of qs, or the index of the first q that is not finite
        (abs inf or nan) or has q, q + 1 or q - 1 within the clearance of 0."""
        c, F = self.clearance, []
        for q in qs:
            p, m = q + 1.0, q - 1.0
            if not (c < abs(q) < math.inf and abs(p) > c and abs(m) > c):
                return len(F)
            F.append(2.0 / q - 1.0 / p - 1.0 / m)
        return F


class TrigKernel:
    """Trigonometric kernel with period L (L must not divide 1)."""

    clearance = 1e-6

    def __init__(self, period: float = 2.0):
        if not cmath.isfinite(period):
            raise ValidationError(f"trig period must be finite, got {period}")
        if abs(period) < 1e-9 or abs(period - 1.0) < 1e-9:
            raise ValidationError("trig period must differ from 0 and 1")
        self.L = period
        self.spacing = _pole_spacing((period,))     # the poles of F lie on L Z + {0, 1, -1}

    def forces(self, qs: list) -> list | int:
        """F at each q of qs, or the index of the first q that is not finite or
        has |sin u| <= clearance at a u = pi (q + d)/L, d = 0, 1, -1; these
        share Im u, and past |Im u| = 1 (sin may overflow) |sin u| > sinh 1."""
        w, c, F = math.pi / self.L, self.clearance, []
        sin, tan = cmath.sin, cmath.tan
        for q in qs:
            u, up, um = w * q, w * (q + 1.0), w * (q - 1.0)
            if not abs(q) < math.inf or abs(u.imag) <= 1.0 and not (
                    abs(sin(u)) > c and abs(sin(up)) > c and abs(sin(um)) > c):
                return len(F)
            F.append(w * (2.0 / tan(u) - 1.0 / tan(up) - 1.0 / tan(um)))
        return F


class EllipticKernel(FixedJets):
    """Elliptic kernel on the lattice omega1 (Z + tau Z), via odd theta.

    zeta-like log derivative: L(q) = theta1'(q/omega1) / theta1(q/omega1)
    / omega1 with theta1 = theta[1/2,1/2] the odd theta of modulus tau.  The
    Weierstrass eta-linear corrections cancel in
    F(q) = 2 L(q) - L(q+1) - L(q-1), which is genuinely doubly periodic.

    theta1 is read through the plain theta at the half period (1 + tau)/2:

        theta[1/2,1/2](z | tau) = exp(pi i tau/4 + pi i (z + 1/2))
                                  * theta(z + (1 + tau)/2 | tau),

    so theta1'/theta1 (z) = pi i + theta'/theta (z + (1 + tau)/2).  The
    constant pi i / omega1 cancels in F and is left out, and the normalized
    modulus of theta1 at z is exactly that of theta at the shifted point.

    An omega1 whose reciprocal lies within 1e-8 of the lattice Z + tau Z
    (omega1 = 1 among them) is a ValidationError: there F vanishes
    identically.
    """

    clearance = 1e-8

    def __init__(self, tau: complex, omega1: complex):
        if complex(tau).imag <= 0:
            raise ValidationError("elliptic kernel needs Im tau > 0")
        if not (cmath.isfinite(omega1) and omega1 != 0):
            raise ValidationError("elliptic kernel needs a finite nonzero omega1")
        self.tau = complex(tau)
        self.omega1 = complex(omega1)
        self.B = PeriodMatrix([[self.tau]])
        # when 1/omega1 is a lattice vector, L(q + 1) and L(q - 1) differ
        # from L(q) by opposite constants
        if lattice_distance([1.0 / self.omega1], self.B) < 1e-8:
            raise ValidationError(f"elliptic kernel needs 1/omega1 off the lattice "
                                  f"Z + tau Z (else F vanishes): omega1 = {omega1}")
        self.dirs = (np.array([1.0 + 0j]),)
        # the poles of F lie on omega1 (Z + tau Z) + {0, 1, -1}
        self.spacing = _pole_spacing((self.omega1, self.omega1 * self.tau))
        self._half = 0.5 * (1.0 + self.tau)
        # the Gaussian exponent of theta at w is (pi / Im tau) (Im w)^2
        self._gauss = math.pi / self.tau.imag

    def evaluate(self, q: np.ndarray) -> tuple:
        """F and dist, shape (3, len(q)), from one theta pass at (q + d)/omega1
        + (1 + tau)/2, d = 0, 1, -1: dist is the normalized modulus of theta1
        at (q + d)/omega1 (value and derivative share a logscale), nan where
        q is not finite or the modulus overflows (a bounded normalized
        modulus past float range is no measurement), all without numpy's
        division or overflow warnings."""
        k = len(q)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            w = np.concatenate((q, q + 1.0, q - 1.0)) / self.omega1 + self._half
            try:
                J = self._jets(w[:, None])
            except NumericalError:
                # the core takes finite points only: nan at the others
                finite = np.isfinite(w)
                if finite.all():
                    raise
                J = self._jets(np.where(finite, w, self._half)[:, None])
                f = np.where(finite, J.sums["f"], np.nan)
            else:
                f = J.sums["f"]
            z = J.sums["d0"] / f / self.omega1
            dist = np.abs(f) * np.exp(J.logscale - self._gauss * w.imag ** 2)
        dist[dist == np.inf] = np.nan
        return 2.0 * z[:k] - z[k:2 * k] - z[2 * k:], dist.reshape(3, k)

    def forces(self, qs: list) -> list | int:
        """F at each q of qs from one pass, or the index of the first q whose
        dist is not above the clearance."""
        if not qs:
            return []
        F, dist = self.evaluate(np.array(qs))
        if dist.min() > self.clearance:
            return F.tolist()
        return int(np.argmin(dist.min(axis=0) > self.clearance))

    # One-point views of evaluate: the benchmark's tracer wraps these two by
    # name and its oracle check calls F.
    def F(self, q: complex) -> complex:
        return complex(self.evaluate(np.array([q], complex))[0][0])

    def guard(self, q: complex) -> bool:
        return bool(self.evaluate(np.array([q], complex))[1].min() > self.clearance)


def make_kernel(spec) -> object:
    """A kernel, or one from "rational", ("trig", L), ("elliptic", tau, omega1)."""
    if isinstance(spec, (RationalKernel, TrigKernel, EllipticKernel)):
        return spec
    if spec == "rational":
        return RationalKernel()
    if isinstance(spec, tuple) and spec:
        if spec[0] == "trig":
            return TrigKernel(*spec[1:])
        if spec[0] == "elliptic":
            return EllipticKernel(*spec[1:])
    raise ValidationError(f"unknown kernel spec {spec!r}")


class RSState:
    """Positions and velocities of the interacting zeros."""

    def __init__(self, x, xdot, kernel="rational"):
        self.x, self.xdot = as_vector(x), as_vector(xdot)
        if self.x.shape != self.xdot.shape:
            raise ValidationError("positions and velocities differ in length")
        if not 1 <= len(self.x) <= MAX_RS_PARTICLES:
            raise ValidationError(f"need 1..{MAX_RS_PARTICLES} particles, "
                                  f"got {len(self.x)}")
        if not (np.isfinite(self.x).all() and np.isfinite(self.xdot).all()):
            raise ValidationError("positions and velocities must be finite")
        self.kernel = make_kernel(kernel)


class Trajectory(NamedTuple):
    t: np.ndarray
    x: np.ndarray        # shape (steps+1, N)
    xdot: np.ndarray

    def csv_rows(self):
        yield ["t", "i", "re_x", "im_x", "re_xdot", "im_xdot"]
        yield from ([t, i, x.real, x.imag, v.real, v.imag]
                    for t, xs, vs in zip(self.t, self.x, self.xdot)
                    for i, (x, v) in enumerate(zip(xs, vs)))


@functools.lru_cache(maxsize=None)
def _pairs(N: int) -> tuple:
    """The pairs (i, j), i < j, of N particles in row-major order."""
    return tuple(itertools.combinations(range(N), 2))


def _slope(kernel, y: list) -> list:
    """The slope (v, a) of the state y = (x, v), lists joined, with a_i = v_i
    sum_{j != i} v_j F(x_i - x_j) in increasing j, from one kernel call on the
    x_i - x_j, i < j, in row-major order; Collision unless all are clear."""
    N = len(y) // 2
    x, v = y[:N], y[N:]
    pairs = _pairs(N)
    q = [x[i] - x[j] for i, j in pairs]
    F = kernel.forces(q)
    if isinstance(F, int):
        i, j = pairs[F]
        raise Collision(f"particles {i} and {j} at separation {q[F]:.4g}")
    s = [0j] * N
    for (i, j), f in zip(pairs, F):
        s[i] += v[j] * f
        s[j] -= v[i] * f
    return v + [vi * si for vi, si in zip(v, s)]


def _rs_steps(t_end: float, h: float) -> int:
    """The number of RK4 steps of size h from t = 0 to t_end; h must divide
    t_end to 1e-9 relative, so the last step lands on t_end."""
    if not (math.isfinite(h) and math.isfinite(t_end)):
        raise ValidationError("h and t_end must be finite")
    if h <= 0 or t_end <= 0:
        raise ValidationError("need h > 0 and t_end > 0")
    steps = round(t_end / h)
    if not 1 <= steps <= MAX_RS_STEPS:
        raise ValidationError(f"t_end / h gives {steps:.3g} steps, "
                              f"outside 1..{MAX_RS_STEPS}")
    if abs(steps * h - t_end) > 1e-9 * t_end:
        raise ValidationError(f"h = {h:g} does not divide t_end = {t_end:g} "
                              f"({steps} steps reach t = {steps * h:g})")
    return steps


def rs_integrate(state: RSState, t_end: float, h: float) -> Trajectory:
    """Classical fixed-step RK4 on (x, xdot) from t = 0 to t_end; aborts on
    collision guard.  ValidationError past MAX_RS_POINTS positions, that is
    (steps + 1) N.

    Collision, naming the first such step, if a step puts a particle farther
    from x + h xdot than the kernel's spacing between two poles of F: the
    step did not resolve F and may have crossed a pole unseen by the
    clearance (checked after the loop, one particle's column at a time)."""
    steps = _rs_steps(t_end, h)
    N = len(state.x)
    if (steps + 1) * N > MAX_RS_POINTS:
        raise ValidationError(f"{steps} steps of {N} particles exceed "
                              f"{MAX_RS_POINTS} trajectory points")
    kernel = state.kernel
    # row k is (x, xdot) after k steps
    X, V = np.empty((2, steps + 1, N), complex)
    X[0], V[0] = state.x, state.xdot
    y = state.x.tolist() + state.xdot.tolist()
    half, sixth = 0.5 * h, h / 6.0
    for k in range(1, steps + 1):
        s1 = _slope(kernel, y)
        s2 = _slope(kernel, [p + half * r for p, r in zip(y, s1)])
        s3 = _slope(kernel, [p + half * r for p, r in zip(y, s2)])
        s4 = _slope(kernel, [p + h * r for p, r in zip(y, s3)])
        y = [p + sixth * (r1 + 2 * r2 + 2 * r3 + r4)
             for p, r1, r2, r3, r4 in zip(y, s1, s2, s3, s4)]
        X[k], V[k] = y[:N], y[N:]
    spacing = state.kernel.spacing
    firsts = [(k[0] + 1, i) for i in range(N) if len(k := np.flatnonzero(
        np.abs(np.diff(X[:, i]) - h * V[:-1, i]) > spacing))]
    if firsts:
        k, i = min(firsts)
        off = abs(X[k, i] - X[k - 1, i] - h * V[k - 1, i])
        raise Collision(f"step {k} put particle {i} at distance {off:.3g} from x + h xdot, "
                        f"beyond the pole spacing {spacing:.3g} of F: the step did not resolve F")
    # t is the running sum of the steps, the float a step loop reaches
    ts = np.array(list(itertools.accumulate([h] * steps, initial=0.0)))
    return Trajectory(ts, X, V)


def elliptic_zero_crosscheck(tau_mod: complex, U: complex, V: complex, Z: complex,
                             t_end: float = 0.5, h: float = 1e-3,
                             samples: int = 26):
    """Two tracked theta zeros versus the N=2 elliptic flow.

    The zeros of theta(xU + tV + Z | tau_mod) in x form one lattice family
    eta(t) + (Z + tau_mod Z)/U.  Viewing them as two particles per cell of
    the index-2 sublattice generated by 2/U and tau_mod/U, the particles
    sit a half period apart, where any odd, doubly periodic kernel
    vanishes: the flow is free.  The check tests that the genus-1 zeros
    move linearly and that the integrator follows them, not the kernel;
    a wrong normalization (F times 1.05, or F = 0) leaves the deviation
    bitwise the same.  The zeros are tracked at samples evenly spaced
    times of [0, t_end], each of which must be an RK4 step: samples - 1
    must divide the t_end / h steps, or ValidationError is raised.

    Returns (max deviation, the two ZeroPaths, the trajectory).
    """
    steps = _rs_steps(t_end, h)
    if samples < 2 or steps % (samples - 1):
        raise ValidationError(f"samples - 1 = {samples - 1} must divide the "
                              f"{steps} steps, so that each sample is a step")
    B1 = PeriodMatrix([[tau_mod]])
    omega1 = 1.0 / U
    grid = np.linspace(0.0, t_end, samples)
    tau = ThetaTau(np.array([U]), np.array([V]), np.array([Z]), B1)
    path1 = track_zero(tau, grid)
    path2 = track_zero(tau, grid, x0=path1.eta[0] + omega1)
    kernel = EllipticKernel(tau_mod / 2.0, omega1=2.0 * omega1)
    state = RSState(x=np.array([path1.eta[0], path2.eta[0]]),
                    xdot=np.array([path1.etadot[0], path2.etadot[0]]),
                    kernel=kernel)
    traj = rs_integrate(state, t_end, h)
    stride = steps // (samples - 1)
    dev = 0.0
    for k in range(samples):
        xk = traj.x[k * stride]
        dev = max(dev, abs(xk[0] - path1.eta[k]), abs(xk[1] - path2.eta[k]))
    return dev, (path1, path2), traj


# ----------------------------------------------------------------------
# discrete six-factor identity
# ----------------------------------------------------------------------

class DiscreteTau(_ThetaSection):
    """tau(x, nu) = theta((x/2)(U-V) + ((nu+1)/2)(U+V) + Z)."""

    def __init__(self, U, V, Z, B: PeriodMatrix):
        U, V = as_vector(U), as_vector(V)
        W = 0.5 * (U - V)
        super().__init__(W, 0.5 * (U + V), Z, B, (W,))

    def arg(self, x, nu):
        return super().arg(x, nu + 1.0)


def find_tau_zero(tau, nu: float, x_guess: complex | None = None) -> complex:
    """A zero of x -> tau(x, nu), scanned if no warm start is given."""
    start = _scan_start(tau, nu, span=2.5, n=25) if x_guess is None else x_guess
    return _newton(lambda x: tau.jets([x], nu), complex(start))[0]


def neighbour_pass(tau, eta: complex, nu: float, extra=()) -> tuple:
    """(f, fx, g) of tau.jets in one pass at the six NEIGHBOURS (eta + dx,
    nu + dn) of a zero eta of tau(., nu), then at the extra (x, nu) points;
    GuardFailed if a neighbour's normalized modulus is below NEIGHBOUR_GUARD."""
    xs, ns = (np.array(c) for c in zip(*[(eta + dx, nu + dn) for dx, dn in NEIGHBOURS], *extra))
    f, fx, _, g = tau.jets(xs, ns)
    for (dx, dn), h in zip(NEIGHBOURS, np.abs(f[:6])):
        if h < NEIGHBOUR_GUARD:
            raise GuardFailed(f"tau(eta{dx:+d}, nu{dn:+d}) too close to zero")
    return f, fx, g


def f2d_residual(U, V, Z, B: PeriodMatrix, nu: float,
                 x_guess: complex | None = None, tau=None) -> float:
    """|ratio + 1| for the six-factor ratio at a zero eta of tau(., nu).

    ratio = tau(eta+1,nu+1) tau(eta-2,nu) tau(eta+1,nu-1)
          / [tau(eta-1,nu+1) tau(eta+2,nu) tau(eta-1,nu-1)].
    """
    if tau is None:
        tau = DiscreteTau(U, V, Z, B)
    f, _, g = neighbour_pass(tau, find_tau_zero(tau, nu, x_guess), nu)
    ratio = (f[0] * f[5] * f[1] / (f[3] * f[2] * f[4])
             * np.exp(g[0] + g[5] + g[1] - g[3] - g[2] - g[4]))
    return float(abs(ratio + 1.0))
