"""Pole dynamics: tau-zero tracking, the second-order zero law, the
Ruijsenaars-Schneider system, and the discrete six-factor zero identity.

The tau functions here are one-complex-variable sections tau(x, t) (or
tau(x, nu)) of a theta function; zeros eta are continued in the parameter
by warm-started Newton.  Laurent data at a simple zero:

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

is integrated by classical RK4; zeta is 1/q (rational), (pi/L) cot(pi q/L)
(trigonometric, period L), or the odd-theta log derivative for the
elliptic case (the Weierstrass linear corrections cancel in F).  A kernel's
evaluate(q) maps the array of an RK4 stage's N(N-1) separations x_i - x_j
to the arrays F and guard (q, q+1 and q-1 clear of the poles).
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    Collision,
    DegenerateZero,
    GuardFailed,
    LostZero,
    ValidationError,
)
from .theta import (
    DEFAULT_TOL,
    PeriodMatrix,
    ThetaCharacteristic,
    gauss_exponents,
    normalized_log_abs_many,
    theta_jets,
)

ZERO_TARGET = 1e-10
SIMPLE_ZERO_GUARD = 1e-10
FACTOR_GUARD = 1e-8
MAX_RS_STEPS = 10**6


# ----------------------------------------------------------------------
# tau sections
# ----------------------------------------------------------------------

def _times(x, U) -> np.ndarray:
    """The points x_p U, shape (P, g), from real products: numpy may round a
    broadcast complex product with fused multiply-adds, depending on the
    strides, while real products round alike at any P."""
    x = np.ravel(np.asarray(x, dtype=complex))
    out = np.empty((len(x), len(U)), dtype=complex)
    out.real = np.multiply.outer(x.real, U.real) - np.multiply.outer(x.imag, U.imag)
    out.imag = np.multiply.outer(x.real, U.imag) + np.multiply.outer(x.imag, U.real)
    return out


class _ThetaSection:
    """A tau section theta(arg(x, t) | B) with derivatives along dirs.

    jets(xs, ts) is its one evaluation: xs and ts of one shape, or a scalar
    t, in one lattice pass.  It returns (P,) arrays (f, fx, ft, g): g is
    the Gaussian exponent of each argument, and f, fx, ft are tau, tau_x
    and tau_t divided by exp(g), so abs(f) is the normalized modulus (O(1)
    generically, 0 on a zero).  ft is None for a section without a t
    direction.  Row p is bitwise the value at the p-th point alone.
    """

    def jets(self, xs, ts) -> tuple:
        W = self.arg(xs, ts)
        J = theta_jets(W, self.B, dirs=self.dirs, tol=self.tol)
        g = gauss_exponents(self.B, W)
        unit = np.exp(J.logscale - g)
        ft = J.sums.get("d1")
        return (J.sums["f"] * unit, J.sums["d0"] * unit,
                None if ft is None else ft * unit, g)


class ThetaTau(_ThetaSection):
    """tau(x, t) = theta(x U + t V + Z | B) with analytic x/t derivatives."""

    def __init__(self, U, V, Z, B: PeriodMatrix, tol: float = DEFAULT_TOL):
        self.U = np.atleast_1d(np.asarray(U, complex))
        self.V = np.atleast_1d(np.asarray(V, complex))
        self.Z = np.atleast_1d(np.asarray(Z, complex))
        self.B = B
        self.tol = tol
        self.dirs = (self.U, self.V)

    def arg(self, x, t):
        return _times(x, self.U) + _times(t, self.V) + self.Z


class PerturbedTau(_ThetaSection):
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
                 t_ref: float = 0.0, mode: str = "const"):
        if mode not in ("const", "oscillatory"):
            raise ValidationError(f"unknown perturbation mode {mode!r}")
        self.base = base
        self.epsilon = epsilon
        self.g_ref = gauss_exponents(base.B, base.arg(x_ref, t_ref))[0]
        self.mode = mode

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

def newton_zero(tau, x0: complex, t: float, max_iter: int = 60,
                step_cap: float = 0.5) -> complex:
    x = complex(x0)
    for _ in range(max_iter):
        f, fx, _, _ = tau.jets([x], t)
        if abs(f[0]) <= ZERO_TARGET:
            return x
        with np.errstate(all="ignore"):
            dx = complex(f[0] / fx[0])
        if not cmath.isfinite(dx):
            raise LostZero(f"non-finite Newton step at x={x:.4g}")
        if abs(dx) > step_cap:
            dx *= step_cap / abs(dx)
        x = x - dx
    raise LostZero(f"Newton failed to converge near x={x0:.4g}")


def scan_zero(tau, t: float, center: complex = 0j, span: float = 2.0,
              n: int = 21) -> complex:
    """Coarse |tau| scan followed by Newton; finds some zero on the line."""
    xs = np.linspace(-span, span, n)
    grid = center + (xs[:, None] + 1j * xs[None, :]).ravel()
    return newton_zero(tau, grid[np.argmin(np.abs(tau.jets(grid, t)[0]))], t)


@dataclass
class ZeroPath:
    """A tracked zero with per-point Laurent data."""

    t: np.ndarray
    eta: np.ndarray
    etadot: np.ndarray
    v0: np.ndarray
    tau_abs: np.ndarray

    def to_csv(self, path):
        import csv
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["t", "re_eta", "im_eta", "re_v0", "im_v0"])
            for k in range(len(self.t)):
                w.writerow([self.t[k], self.eta[k].real, self.eta[k].imag,
                            self.v0[k].real, self.v0[k].imag])


def _laurent_data(tau, x: complex, t: float, fit_radius: float = 0.01):
    """(|tau|, eta_dot, v0) at a zero x, with tau(x +- 1) guarded: one lattice
    pass for x, x + 1, x - 1 and the 5-point circle."""
    rho = fit_radius * (1.0 + abs(x))
    circle = x + rho * np.exp(2j * np.pi * np.arange(5) / 5.0)
    f, fx, ft, _ = tau.jets(np.concatenate([[x, x + 1.0, x - 1.0], circle]), t)
    if abs(fx[0]) < SIMPLE_ZERO_GUARD:
        raise DegenerateZero(f"|tau_x| ~ {abs(fx[0]):.2e} at tracked zero")
    for off, h in zip((1.0, -1.0), np.abs(f[1:3])):
        if h < FACTOR_GUARD:
            raise GuardFailed(f"tau(eta{off:+g}, t) vanishes at t={t:.4g}")
    etadot = complex(-ft[0] / fx[0])
    v0 = complex(sum(-ft[3:] / f[3:] - etadot / (circle - x))) / 5.0
    return float(abs(f[0])), etadot, v0


def track_zero(tau, grid, x0: complex | None = None) -> ZeroPath:
    """Continue a zero of tau(., t) across the parameter grid."""
    grid = np.asarray(grid, dtype=float)
    if len(grid) < 2:
        raise ValidationError("grid needs at least two points")
    eta = np.zeros(len(grid), complex)
    etadot = np.zeros(len(grid), complex)
    v0 = np.zeros(len(grid), complex)
    tau_abs = np.zeros(len(grid))
    x = scan_zero(tau, grid[0]) if x0 is None else newton_zero(tau, x0, grid[0])
    for k, t in enumerate(grid):
        if k > 0:
            dt = grid[k] - grid[k - 1]
            pred = eta[k - 1] + etadot[k - 1] * dt
            x = newton_zero(tau, eta[k - 1], t)
            # Newton warm-starts from the previous point; a converged zero
            # far from the velocity prediction means we hopped to another
            # sheet of the zero set (grid too coarse for the motion)
            if abs(x - pred) > 0.05 * (1.0 + abs(pred - eta[k - 1])):
                raise LostZero(
                    f"zero at t={t:.4g} is {abs(x - pred):.3g} from the "
                    "continuation prediction; refine the grid")
            limit = 10.0 * abs(dt) * (abs(etadot[k - 1]) + 1.0)
            if abs(x - eta[k - 1]) > limit:
                raise LostZero(f"zero jumped by {abs(x - eta[k-1]):.3g} "
                               f"(limit {limit:.3g}) at t={t:.4g}")
        eta[k] = x
        tau_abs[k], etadot[k], v0[k] = _laurent_data(tau, x, t)
    return ZeroPath(grid, eta, etadot, v0, tau_abs)


def track_tau_zero(U, V, Z, B: PeriodMatrix, grid, x0: complex | None = None,
                   tol: float = DEFAULT_TOL) -> ZeroPath:
    """Track a zero of theta(xU + tV + Z) in x along the t grid (track_zero
    takes any section, such as a perturbed one)."""
    return track_zero(ThetaTau(U, V, Z, B, tol=tol), grid, x0=x0)


def cm5_residual(path: ZeroPath, U, V, Z, B: PeriodMatrix,
                 tol: float = DEFAULT_TOL, tau=None) -> float:
    """Zero-law residual: eta_ddot vs eta_dot [2 v0 - v(eta+1) - v(eta-1)].

    eta_ddot comes from a 5-point central difference of the tracked path
    (an oracle independent of the analytic Laurent data); the right side
    is fully analytic.  Normalization uses the term scale, see module doc.
    """
    if tau is None:
        tau = ThetaTau(U, V, Z, B, tol=tol)
    t, eta = path.t, path.eta
    if len(t) < 5:
        raise ValidationError("need at least 5 grid points")
    h = t[1] - t[0]
    if h == 0:
        raise ValidationError("cm5 residual needs a nonzero grid step")
    if np.max(np.abs(np.diff(t) - h)) > 1e-12 * max(abs(h), 1.0):
        raise ValidationError("cm5 residual needs a uniform grid")
    # tau and v = -tau_t / tau at eta(t_k) +- 1 for every inner k, in one pass
    shifts = [(k, off) for k in range(2, len(t) - 2) for off in (1.0, -1.0)]
    f, _, ft, _ = tau.jets(np.array([eta[k] + off for k, off in shifts]),
                           np.array([t[k] for k, _ in shifts]))
    for (k, off), h_abs in zip(shifts, np.abs(f)):
        if h_abs < FACTOR_GUARD:
            raise GuardFailed(f"tau(eta{off:+g}) vanished at t={t[k]:.4g}")
    v_shift = (-ft / f).reshape(-1, 2)
    worst = 0.0
    for k, (vp, vm) in zip(range(2, len(t) - 2), v_shift):
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

# the points q, q + 1, q - 1 at which F reads zeta, one row each
_SHIFTS = np.array([[0j], [1.0], [-1.0]])


class RationalKernel:
    name = "rational"

    def evaluate(self, q: np.ndarray) -> tuple:
        s = q + _SHIFTS
        z = 1.0 / s
        return 2.0 * z[0] - z[1] - z[2], np.abs(s).min(axis=0) > 1e-6


class TrigKernel:
    """Trigonometric kernel with period L (L must not divide 1)."""

    name = "trigonometric"

    def __init__(self, period: float = 2.0):
        if abs(period) < 1e-9 or abs(period - 1.0) < 1e-9:
            raise ValidationError("trig period must differ from 0 and 1")
        self.L = period

    def evaluate(self, q: np.ndarray) -> tuple:
        u = np.pi * (q + _SHIFTS) / self.L
        z = (np.pi / self.L) / np.tan(u)
        return 2.0 * z[0] - z[1] - z[2], np.abs(np.sin(u)).min(axis=0) > 1e-6


class EllipticKernel:
    """Elliptic kernel on the lattice omega1 (Z + tau Z), via odd theta.

    zeta-like log derivative: L(q) = theta1'(q/omega1) / theta1(q/omega1)
    / omega1 with theta1 the odd characteristic (1/2,1/2) theta of modulus
    tau.  The Weierstrass eta-linear corrections cancel in
    F(q) = 2 L(q) - L(q+1) - L(q-1), which is genuinely doubly periodic.
    """

    name = "elliptic"

    def __init__(self, tau: complex, omega1: complex = 1.0,
                 tol: float = DEFAULT_TOL):
        if complex(tau).imag <= 0:
            raise ValidationError("elliptic kernel needs Im tau > 0")
        self.tau = complex(tau)
        self.omega1 = complex(omega1)
        self.B = PeriodMatrix([[self.tau]])
        self.char = ThetaCharacteristic((0.5,), (0.5,))
        self.tol = tol
        self._unit = np.array([1.0 + 0j])

    def evaluate(self, q: np.ndarray) -> tuple:
        """F and guard from one theta pass at (q + d)/omega1, d = 0, 1, -1 (the
        value and derivative share a logscale, which cancels in L)."""
        W = ((q + _SHIFTS) / self.omega1).reshape(-1, 1)
        J = theta_jets(W, self.B, dirs=(self._unit,), char=self.char, tol=self.tol)
        hat = np.exp(normalized_log_abs_many(J, self.B, W)).reshape(3, -1)
        z = (J.sums["d0"] / J.sums["f"] / self.omega1).reshape(3, -1)
        return 2.0 * z[0] - z[1] - z[2], hat.min(axis=0) > 1e-8

    # One-point views of evaluate: the benchmark's tracer wraps these two by
    # name and its oracle check calls F; they go once it traces _accel.
    def F(self, q: complex) -> complex:
        return complex(self.evaluate(np.array([q], complex))[0][0])

    def guard(self, q: complex) -> bool:
        return bool(self.evaluate(np.array([q], complex))[1][0])


def make_kernel(spec) -> object:
    """A kernel, or one from "rational", ("trig", L), ("elliptic", tau, omega1)."""
    if isinstance(spec, (RationalKernel, TrigKernel, EllipticKernel)):
        return spec
    if spec == "rational":
        return RationalKernel()
    if isinstance(spec, tuple) and spec:
        if spec[0] in ("trig", "trigonometric"):
            return TrigKernel(*spec[1:])
        if spec[0] == "elliptic":
            return EllipticKernel(*spec[1:])
    raise ValidationError(f"unknown kernel spec {spec!r}")


@dataclass
class RSState:
    """Positions and velocities of the interacting zeros."""

    x: np.ndarray
    xdot: np.ndarray
    kernel: object = "rational"

    def __post_init__(self):
        self.x = np.atleast_1d(np.asarray(self.x, complex))
        self.xdot = np.atleast_1d(np.asarray(self.xdot, complex))
        if self.x.shape != self.xdot.shape:
            raise ValidationError("positions and velocities differ in length")
        if not len(self.x):
            raise ValidationError("need at least one particle")
        self.kernel = make_kernel(self.kernel)

    @property
    def N(self) -> int:
        return len(self.x)


@dataclass
class Trajectory:
    t: np.ndarray
    x: np.ndarray        # shape (steps+1, N)
    xdot: np.ndarray

    def to_csv(self, path):
        import csv
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["t", "i", "re_x", "im_x", "re_xdot", "im_xdot"])
            for k, tk in enumerate(self.t):
                for i in range(self.x.shape[1]):
                    w.writerow([tk, i, self.x[k, i].real, self.x[k, i].imag,
                                self.xdot[k, i].real, self.xdot[k, i].imag])


@functools.lru_cache(maxsize=None)
def _pairs(N: int) -> tuple:
    """Indices (i, j), j != i, of the N(N-1) ordered pairs in row-major order."""
    return np.nonzero(~np.eye(N, dtype=bool))


def _accel(kernel, x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """a_i = v_i sum_{j != i} v_j F(x_i - x_j) (F may be inf where the guard fails)."""
    N = len(x)
    i, j = _pairs(N)
    q = x[i] - x[j]
    F, clear = kernel.evaluate(q)
    if not clear.all():
        k = int(np.argmin(clear))
        raise Collision(f"particles {i[k]} and {j[k]} at separation {q[k]:.4g}")
    return v * (v[j] * F).reshape(N, N - 1).sum(axis=1)


# a pole of F raises Collision, not numpy's division warnings
@np.errstate(divide="ignore", invalid="ignore")
def rs_integrate(state: RSState, t_end: float, h: float,
                 t_start: float = 0.0) -> Trajectory:
    """Classical fixed-step RK4 on (x, xdot); aborts on collision guard."""
    if not all(map(math.isfinite, (h, t_end, t_end - t_start))):
        raise ValidationError("h, t_end and t_end - t_start must be finite")
    if h <= 0 or t_end <= t_start:
        raise ValidationError("need h > 0 and t_end > t_start")
    steps = round((t_end - t_start) / h)
    if not 1 <= steps <= MAX_RS_STEPS:
        raise ValidationError(f"(t_end - t_start) / h gives {steps:.3g} steps, "
                              f"outside 1..{MAX_RS_STEPS}")
    kernel = state.kernel
    x = state.x.copy()
    v = state.xdot.copy()
    ts = [t_start]
    xs = [x.copy()]
    vs = [v.copy()]
    for _ in range(steps):
        k1x, k1v = v, _accel(kernel, x, v)
        k2x, k2v = v + 0.5 * h * k1v, _accel(kernel, x + 0.5 * h * k1x,
                                             v + 0.5 * h * k1v)
        k3x, k3v = v + 0.5 * h * k2v, _accel(kernel, x + 0.5 * h * k2x,
                                             v + 0.5 * h * k2v)
        k4x, k4v = v + h * k3v, _accel(kernel, x + h * k3x, v + h * k3v)
        x = x + (h / 6.0) * (k1x + 2 * k2x + 2 * k3x + k4x)
        v = v + (h / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v)
        ts.append(ts[-1] + h)
        xs.append(x.copy())
        vs.append(v.copy())
    return Trajectory(np.array(ts), np.array(xs), np.array(vs))


def elliptic_zero_crosscheck(tau_mod: complex, U: complex, V: complex, Z: complex,
                             t_end: float = 0.5, h: float = 1e-3,
                             samples: int = 26, tol: float = DEFAULT_TOL):
    """Two tracked theta zeros versus the N=2 elliptic flow.

    The zeros of theta(xU + tV + Z | tau_mod) in x form one lattice family
    eta(t) + (Z + tau_mod Z)/U.  Viewing them as two particles per cell of
    the index-2 sublattice generated by 2/U and tau_mod/U, the particles
    sit a half period apart, where the elliptic kernel vanishes (the
    zeta-difference combination is constant around a half period), so the
    integrated flow must reproduce the independently tracked zeros.  A
    wrong kernel normalization makes the particles accelerate and the
    comparison fail.

    Returns (max deviation, the two ZeroPaths, the trajectory).
    """
    B1 = PeriodMatrix([[tau_mod]])
    omega1 = 1.0 / U
    grid = np.linspace(0.0, t_end, samples)
    tau = ThetaTau(np.array([U]), np.array([V]), np.array([Z]), B1, tol=tol)
    path1 = track_zero(tau, grid)
    path2 = track_zero(tau, grid, x0=path1.eta[0] + omega1)
    kernel = EllipticKernel(tau_mod / 2.0, omega1=2.0 * omega1, tol=tol)
    state = RSState(x=np.array([path1.eta[0], path2.eta[0]]),
                    xdot=np.array([path1.etadot[0], path2.etadot[0]]),
                    kernel=kernel)
    traj = rs_integrate(state, t_end, h)
    stride = (len(traj.t) - 1) // (samples - 1)
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

    def __init__(self, U, V, Z, B: PeriodMatrix, tol: float = DEFAULT_TOL):
        U = np.atleast_1d(np.asarray(U, complex))
        V = np.atleast_1d(np.asarray(V, complex))
        self.W = 0.5 * (U - V)
        self.S = 0.5 * (U + V)
        self.Z = np.atleast_1d(np.asarray(Z, complex))
        self.B = B
        self.tol = tol
        self.dirs = (self.W,)

    def arg(self, x, nu):
        return _times(x, self.W) + _times(nu + 1.0, self.S) + self.Z


def find_tau_zero(tau, nu: float, x_guess: complex | None = None) -> complex:
    """A zero of x -> tau(x, nu), scanned if no warm start is given."""
    if x_guess is None:
        return scan_zero(tau, nu, span=2.5, n=25)
    return newton_zero(tau, x_guess, nu)


def f2d_residual(U, V, Z, B: PeriodMatrix, nu: float,
                 x_guess: complex | None = None, tol: float = DEFAULT_TOL,
                 tau=None) -> float:
    """|ratio + 1| for the six-factor ratio at a zero eta of tau(., nu).

    ratio = tau(eta+1,nu+1) tau(eta-2,nu) tau(eta+1,nu-1)
          / [tau(eta-1,nu+1) tau(eta+2,nu) tau(eta-1,nu-1)].
    """
    if tau is None:
        tau = DiscreteTau(U, V, Z, B, tol=tol)
    eta = find_tau_zero(tau, nu, x_guess)
    factors = [(eta + 1.0, nu + 1.0), (eta - 2.0, nu), (eta + 1.0, nu - 1.0),
               (eta - 1.0, nu + 1.0), (eta + 2.0, nu), (eta - 1.0, nu - 1.0)]
    xs, ns = (np.array(c) for c in zip(*factors))
    f, _, _, g = tau.jets(xs, ns)
    for (x, n), h in zip(factors, np.abs(f)):
        if h < 1e-10:
            raise GuardFailed(f"factor tau({x:.3g}, {n:g}) too close to zero")
    ratio = (f[0] * f[1] * f[2] / (f[3] * f[4] * f[5])
             * np.exp(g[0] + g[1] + g[2] - g[3] - g[4] - g[5]))
    return float(abs(ratio + 1.0))
