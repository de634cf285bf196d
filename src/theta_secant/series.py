"""Wave-series recursions at desk scale.

Fully discrete: the recursion

    xi_{s+1}(x-1, nu) - xi_{s+1}(x+1, nu) = u(x, nu) xi_s(x, nu-1),
    u(x, nu) = tau(x, nu+1) tau(x, nu-1) / [tau(x-1, nu) tau(x+1, nu)]

extends xi_{s+1} along orbits {anchor + 2k} one step at a time.  At a
zero eta of tau(., nu), the requirement that xi_{s+1} stay pole-free on
the two neighbours pins its residue twice (once from eta+1, once from
eta-1); the two expressions must agree up to sign, which is exactly the
six-factor ratio identity.  That consistency is what
``discrete_residue_consistency`` measures.

Semi-discrete: with an exactly N-periodic potential (N U in Z^g), the
recursion (T - 1) xi_{s+1} = xi_s' + u xi_s is solved on the cyclic grid
Z/N by prefix sums.  Solvability requires a zero x-mean right hand side;
the mean is cancelled by the canonical time-dependent constant c_s(t)
satisfying c_s'(t) = -mean_x(rhs), discretized on a 5-point time stencil
(time derivatives of xi_s by 5-point differentiation, c_s by polynomial
quadrature of the mean).  Skipping that normalization leaves a cyclic
defect of N * |mean|, which the negative control exhibits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GuardFailed, NonPeriodic, ValidationError, WindowExhausted
from .theta import DEFAULT_TOL, PeriodMatrix, theta_jets
from .dynamics import DiscreteTau, find_tau_zero

ORBIT_CAP = 64

# 5-point first-derivative weights on a uniform stencil (rows: node index)
_D5 = np.array([
    [-25.0 / 12.0, 4.0, -3.0, 4.0 / 3.0, -0.25],
    [-0.25, -5.0 / 6.0, 1.5, -0.5, 1.0 / 12.0],
    [1.0 / 12.0, -2.0 / 3.0, 0.0, 2.0 / 3.0, -1.0 / 12.0],
    [-1.0 / 12.0, 0.5, -1.5, 5.0 / 6.0, 0.25],
    [0.25, -4.0 / 3.0, 3.0, -4.0, 25.0 / 12.0],
])


@dataclass
class SeriesTable:
    """Wave-series coefficients on lattice orbits.

    entries maps (s, level, k) -> complex where ``level`` is nu for the
    discrete recursion or the time-stencil index for the semi-discrete
    one, and k indexes the orbit point.  anchors[(s, level)] records the
    complex x of k = 0 for discrete orbits (stride 2).
    """

    s_max: int = 3
    entries: dict = field(default_factory=dict)
    anchors: dict = field(default_factory=dict)
    seeds: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    def xi(self, s: int, level, k: int) -> complex:
        if s == 0:
            return 1.0 + 0j
        try:
            return self.entries[(s, level, k)]
        except KeyError:
            raise WindowExhausted(f"xi_{s} unknown at level {level}, offset {k}")

    def xi_at_x(self, s: int, level, x: complex) -> complex:
        if s == 0:
            return 1.0 + 0j
        anchor = self.anchors.get((s, level))
        if anchor is None:
            raise WindowExhausted(f"no orbit stored for (s={s}, level={level})")
        kf = (complex(x) - anchor) / 2.0
        k = int(round(kf.real))
        if abs(kf - k) > 1e-9:
            raise WindowExhausted(f"x={x:.6g} is off the stored orbit")
        return self.xi(s, level, k)


# ----------------------------------------------------------------------
# fully discrete recursion
# ----------------------------------------------------------------------

def tau_u_fn(tau):
    """Potential u(x, nu) of the discrete linear problem from a tau section,
    one four-point lattice pass per u."""

    def u(x: complex, nu: float) -> complex:
        f, _, _, g = tau.jets(np.array([x, x, x - 1.0, x + 1.0]),
                              np.array([nu + 1.0, nu - 1.0, nu, nu]))
        return complex(f[0] * f[1] / (f[2] * f[3]) * np.exp(g[0] + g[1] - g[2] - g[3]))

    return u


def discrete_series_extend(table: SeriesTable, u_fn, anchor: complex,
                           nu: float, s: int, seeds: dict,
                           k_range: tuple = (0, 1)) -> SeriesTable:
    """Extend xi_{s+1} over the orbit {anchor + 2k, k in k_range} at level nu.

    One-sided stepping from the seed values:
        xi_{s+1}(x+2) = xi_{s+1}(x) - u(x+1, nu) xi_s(x+1, nu-1).
    Seed keys are orbit offsets k; xi_s values at the intermediate points
    come from the table (level nu-1; s=0 means the constant 1).
    """
    k_lo, k_hi = k_range
    if k_hi - k_lo > ORBIT_CAP:
        raise WindowExhausted(f"orbit wider than {ORBIT_CAP}")
    if not seeds:
        raise ValidationError("need at least one seed value")
    dest = dict(seeds)
    ks = sorted(dest)
    # forward from the highest contiguous seed, backward from the lowest
    k = ks[-1]
    while k < k_hi:
        xk = anchor + 2.0 * k
        xi_s = table.xi_at_x(s, nu - 1.0, xk + 1.0)
        dest[k + 1] = dest[k] - u_fn(xk + 1.0, nu) * xi_s
        k += 1
    k = ks[0]
    while k > k_lo:
        xk = anchor + 2.0 * k
        xi_s = table.xi_at_x(s, nu - 1.0, xk - 1.0)
        dest[k - 1] = dest[k] + u_fn(xk - 1.0, nu) * xi_s
        k -= 1
    for k, val in dest.items():
        table.entries[(s + 1, nu, k)] = val
    table.anchors[(s + 1, nu)] = complex(anchor)
    table.seeds[(s + 1, nu)] = dict(seeds)
    return table


def discrete_recursion_residual(table: SeriesTable, u_fn, nu: float, s: int) -> float:
    """Re-check the stored level s+1 against its defining recursion."""
    anchor = table.anchors[(s + 1, nu)]
    ks = sorted(k for (ss, lvl, k) in table.entries if ss == s + 1 and lvl == nu)
    worst = 0.0
    for k in ks[:-1]:
        xk = anchor + 2.0 * k
        lhs = table.xi(s + 1, nu, k) - table.xi(s + 1, nu, k + 1)
        rhs = u_fn(xk + 1.0, nu) * table.xi_at_x(s, nu - 1.0, xk + 1.0)
        scale = abs(lhs) + abs(rhs) + 1.0
        worst = max(worst, abs(lhs - rhs) / scale)
    return worst


def discrete_residue_consistency(U, V, Z, B: PeriodMatrix, nu: float, s: int,
                                 tol: float = DEFAULT_TOL, tau=None,
                                 seed_val: complex = 0.3 + 0.1j,
                                 x_guess: complex | None = None):
    """Mismatch of the two residue formulas for xi_{s+1} at a zero eta(nu).

    Pole-freedom of xi_{s+1} at eta+1 and at eta-1 each determine the
    residue r_{s+1}; the two expressions must be negatives of each other.
    Returns (mismatch, eta, fd4d_gap) where fd4d_gap is
    |xi_s(eta+1, nu-1) - xi_s(eta-1, nu-1)| (forced small by u(eta, nu-1)=0).
    """
    if s not in (0, 1):
        raise ValidationError("residue consistency implemented for s = 0, 1")
    if tau is None:
        tau = DiscreteTau(U, V, Z, B, tol=tol)
    eta = find_tau_zero(tau, nu, x_guess)
    # the Laurent coefficient of tau at eta (the directional derivative along
    # the x-translation direction) and the six factors, in one lattice pass
    shifts = ((0, 0), (1, 1), (1, -1), (2, 0), (-1, 1), (-1, -1), (-2, 0))
    f, fx, _, g = tau.jets(np.array([eta + dx for dx, _ in shifts]),
                           np.array([nu + dn for _, dn in shifts]))
    for (dx, dn), h in zip(shifts[1:], np.abs(f[1:])):
        if h < 1e-10:
            raise GuardFailed(f"tau(eta{dx:+d}, nu{dn:+d}) too close to zero")

    table = SeriesTable()
    u_fn = tau_u_fn(tau)
    if s == 1:
        # xi_1 at level nu-1 on the orbit through eta-1, eta+1
        table.anchors[(1, nu - 1.0)] = eta - 1.0
        table.entries[(1, nu - 1.0, 0)] = seed_val
        discrete_series_extend(table, u_fn, eta - 1.0, nu - 1.0, 0,
                               {0: seed_val}, (0, 1))
    xi_p = table.xi_at_x(s, nu - 1.0, eta + 1.0)
    xi_m = table.xi_at_x(s, nu - 1.0, eta - 1.0)
    fd4d_gap = abs(xi_p - xi_m)

    # each residue is a product of mantissas times exp of its Gaussian
    # exponents, taken at the larger of the two scales (exp(g) of tau_x(eta)
    # divides both)
    e = np.array([g[1] + g[2] - g[3], g[4] + g[5] - g[6]])
    r_plus, r_minus = np.exp(e - e.max()) * np.array([
        f[1] * f[2] / (fx[0] * f[3]) * xi_p, f[4] * f[5] / (fx[0] * f[6]) * xi_m])
    mismatch = abs(r_plus + r_minus) / (abs(r_plus) + abs(r_minus) + 1e-300)
    return float(mismatch), eta, fd4d_gap


# ----------------------------------------------------------------------
# semi-discrete recursion
# ----------------------------------------------------------------------

class SemidiscreteSystem:
    """Closures for the periodic semi-discrete problem on Z/N.

    tau = theta(x U + t V + Z); v = -d_V log theta, u = (T-1)v, and the
    analytic time derivative of v for resubstitution oracles.  v, vdot and
    u take x and t as scalars or as arrays of one shape (or a scalar t) and
    make one lattice pass per call.
    """

    def __init__(self, U, V, Z, B: PeriodMatrix, N: int, tol: float = DEFAULT_TOL):
        self.U = np.atleast_1d(np.asarray(U, complex))
        self.V = np.atleast_1d(np.asarray(V, complex))
        self.Z = np.atleast_1d(np.asarray(Z, complex))
        self.B = B
        self.N = int(N)
        self.tol = tol
        NU = self.N * self.U
        if np.max(np.abs(NU - np.round(NU.real))) > 1e-9:
            raise NonPeriodic(f"N U = {NU} is not an integer vector")

    def _ratios(self, x, t):
        """(theta_V / theta, theta_VV / theta) at the points (x, t), shaped like x."""
        x = np.asarray(x, dtype=float)
        W = np.multiply.outer(x, self.U) + np.multiply.outer(t, self.V) + self.Z
        J = theta_jets(W.reshape(-1, self.B.g), self.B, dirs=(self.V, self.V),
                       tol=self.tol).sums
        f = J["f"]
        return (J["d0"] / f).reshape(x.shape), (J["d01"] / f).reshape(x.shape)

    def v(self, x, t):
        return -self._ratios(x, t)[0][()]

    def vdot(self, x, t):
        r0, r1 = self._ratios(x, t)
        return (r0 * r0 - r1)[()]

    def u(self, x, t):
        x, t = np.broadcast_arrays(np.asarray(x, dtype=float), t)
        v = self.v(np.stack([x + 1.0, x]), np.stack([t, t]))
        return v[0] - v[1]

    def check_periodic(self, t: float):
        x = np.arange(self.N, dtype=float)
        shifted = self.u(np.stack([x + self.N, x]), t)
        worst = float(np.max(np.abs(shifted[0] - shifted[1])))
        if worst > 1e-10:
            raise NonPeriodic(f"u not N-periodic: defect {worst:.2e}")
        return worst


def _stencil_times(table: SeriesTable):
    ts = table.meta["t_stencil"]
    dt = ts[1] - ts[0]
    if max(abs((ts[i + 1] - ts[i]) - dt) for i in range(4)) > 1e-12:
        raise ValidationError("time stencil must be uniform")
    return ts, dt


def new_semidiscrete_table(t_center: float, dt: float, s_max: int = 3) -> SeriesTable:
    ts = tuple(t_center + (j - 2) * dt for j in range(5))
    return SeriesTable(s_max=s_max, meta={"t_stencil": ts, "defect": {}})


def semidiscrete_series_extend(table: SeriesTable, system: SemidiscreteSystem,
                               s: int, skip_normalization: bool = False) -> SeriesTable:
    """Build level s+1 on the cyclic grid for all five stencil times.

    Updates the stored level s with its canonical time-dependent constant
    (zero at the center time) before integrating, then solves the cyclic
    first-difference system by prefix sums.  With skip_normalization the
    mean is left in place and the resulting cyclic defect N*|mean| is
    recorded in meta["defect"][s+1] instead (the level is then built from
    the defective right side, for the negative control).
    """
    ts, dt = _stencil_times(table)
    N = system.N
    if s >= table.s_max:
        raise ValidationError(f"s={s} beyond table s_max={table.s_max}")
    system.check_periodic(ts[2])

    xi_s = np.empty((5, N), complex)
    for j in range(5):
        for x in range(N):
            xi_s[j, x] = table.xi(s, j, x)
    u = system.u(np.tile(np.arange(N, dtype=float), (5, 1)),
                 np.repeat(np.array(ts)[:, None], N, axis=1))

    xidot = (_D5 @ xi_s) / dt if s > 0 else np.zeros((5, N), complex)
    rhs = xidot + u * xi_s
    m = rhs.mean(axis=1)

    if skip_normalization:
        c = np.zeros(5, complex)
        rhs_used = rhs
        table.meta["defect"][s + 1] = float(abs(N * m[2]))
    else:
        # c_s(t_j) = -integral of the degree-4 interpolant of m from t_center
        dts = np.array([(j - 2) * dt for j in range(5)])
        coeffs = np.polyfit(dts, m, 4)
        anti = np.polyint(coeffs)
        c = -np.polyval(anti, dts) + np.polyval(anti, 0.0)
        if s > 0:
            for j in range(5):
                for x in range(N):
                    table.entries[(s, j, x)] = xi_s[j, x] + c[j]
        rhs_used = (xidot - m[:, None]) + u * (xi_s + c[:, None])
        rhs_used = rhs_used - rhs_used.mean(axis=1)[:, None]

    for j in range(5):
        acc = 0j
        table.entries[(s + 1, j, 0)] = acc
        for x in range(N - 1):
            acc += rhs_used[j, x]
            table.entries[(s + 1, j, x + 1)] = acc
    table.meta.setdefault("c", {})[s] = c
    return table


def semidiscrete_resubstitution(table: SeriesTable, system: SemidiscreteSystem,
                                s: int) -> float:
    """Residual of the recursion for level s+1, analytic time derivative.

    Uses the closed forms xi_0 = 1 and xi_1 = v(x,t) - v(0,t) + const to
    evaluate d/dt xi_s at the center stencil time, so the comparison is
    independent of the finite differences used in the construction.
    """
    if s not in (0, 1):
        raise ValidationError("analytic resubstitution available for s = 0, 1")
    ts, dt = _stencil_times(table)
    N = system.N
    t_c = ts[2]
    xi_s = np.array([table.xi(s, 2, x) for x in range(N)])
    xs = np.arange(N, dtype=float)
    u = system.u(xs, t_c)
    if s == 0:
        xidot = np.zeros(N, complex)
    else:
        vdot = system.vdot(xs, t_c)
        xidot = vdot - vdot[0]
    rhs = xidot + u * xi_s
    rhs = rhs - rhs.mean()
    worst = 0.0
    scale = float(np.max(np.abs(rhs))) + 1e-300
    for x in range(N):
        # (x + 1) % N wraps: the prefix sums close up to the removed mean
        delta = table.xi(s + 1, 2, (x + 1) % N) - table.xi(s + 1, 2, x)
        worst = max(worst, abs(delta - rhs[x]) / scale)
    return worst


def semidiscrete_cyclic_defect(table: SeriesTable, system: SemidiscreteSystem,
                               s_level: int) -> float:
    """|xi(x0+N) - xi(x0)| implied by the stored right side of level s_level."""
    return table.meta["defect"].get(s_level, 0.0)
