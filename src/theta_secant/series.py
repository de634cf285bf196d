"""Wave-series recursions at desk scale.

Fully discrete: the recursion

    xi_{s+1}(x-1, nu) - xi_{s+1}(x+1, nu) = u(x, nu) xi_s(x, nu-1),
    u(x, nu) = tau(x, nu+1) tau(x, nu-1) / [tau(x-1, nu) tau(x+1, nu)]

has a pole-free xi_{s+1} only if its residues agree.  At a zero eta of
tau(., nu), the requirement that xi_{s+1} stay pole-free at the two
neighbours pins its residue twice (once from eta+1, once from eta-1); the
two expressions must agree up to sign, which is exactly the six-factor
ratio identity.  That consistency is what ``discrete_residue_consistency``
measures, for s = 0 (xi_0 = 1) and s = 1 (xi_1 at level nu-1 seeded at
eta-1 and stepped once by the recursion to eta+1).

Semi-discrete: with an exactly N-periodic potential (N U in Z^g), the
recursion (T - 1) xi_{s+1} = xi_s' + u xi_s is solved on the cyclic grid
Z/N by prefix sums.  Solvability requires a zero x-mean right hand side;
the mean is cancelled by the canonical time-dependent constant c_s(t)
satisfying c_s'(t) = -mean_x(rhs), discretized on a 5-point time stencil
(time derivatives of xi_s by 5-point differentiation, c_s by fixed
interpolatory weights on the 5-point stencil, exact for degree <= 4 and
zero at the centre).  Skipping that normalization leaves a cyclic defect
of N * |mean|, which the negative control exhibits.
"""

from __future__ import annotations

import numpy as np

from .errors import NonPeriodic, ValidationError, WindowExhausted
from .theta import FixedJets, PeriodMatrix, _sum_last, as_vector, rescale
from .dynamics import DiscreteTau, find_tau_zero, neighbour_pass

S_MAX = 3                     # highest level of a semi-discrete table
RESIDUE_SEED = 0.3 + 0.1j     # xi_1 at eta - 1 in the s = 1 residue check

# 5-point first-derivative weights on a uniform stencil (rows: node index)
_D5 = np.array([
    [-25.0 / 12.0, 4.0, -3.0, 4.0 / 3.0, -0.25],
    [-0.25, -5.0 / 6.0, 1.5, -0.5, 1.0 / 12.0],
    [1.0 / 12.0, -2.0 / 3.0, 0.0, 2.0 / 3.0, -1.0 / 12.0],
    [-1.0 / 12.0, 0.5, -1.5, 5.0 / 6.0, 0.25],
    [0.25, -4.0 / 3.0, 3.0, -4.0, 25.0 / 12.0],
])

# 5-point integration weights on a uniform stencil: row j holds the integrals
# from the centre node to node j of the five Lagrange basis polynomials
_Q5 = np.array([
    [-29.0 / 90.0, -62.0 / 45.0, -4.0 / 15.0, -2.0 / 45.0, 1.0 / 90.0],
    [19.0 / 720.0, -173.0 / 360.0, -19.0 / 30.0, 37.0 / 360.0, -11.0 / 720.0],
    [0.0, 0.0, 0.0, 0.0, 0.0],
    [11.0 / 720.0, -37.0 / 360.0, 19.0 / 30.0, 173.0 / 360.0, -19.0 / 720.0],
    [-1.0 / 90.0, 2.0 / 45.0, 4.0 / 15.0, 62.0 / 45.0, 29.0 / 90.0],
])


# ----------------------------------------------------------------------
# fully discrete recursion
# ----------------------------------------------------------------------

def discrete_residue_consistency(U, V, Z, B: PeriodMatrix, nu: float, s: int,
                                 tau=None):
    """Mismatch of the two residue formulas for xi_{s+1} at a zero eta(nu).

    Pole-freedom of xi_{s+1} at eta+1 and at eta-1 each determine the
    residue r_{s+1}; the two expressions must be negatives of each other.
    Returns (mismatch, eta, fd4d_gap) where fd4d_gap is
    |xi_s(eta+1, nu-1) - xi_s(eta-1, nu-1)| (forced small by u(eta, nu-1)=0).
    """
    if s not in (0, 1):
        raise ValidationError("residue consistency implemented for s = 0, 1")
    if tau is None:
        tau = DiscreteTau(U, V, Z, B)
    eta = find_tau_zero(tau, nu)
    # the six factors and, at eta, the Laurent coefficient of tau (its
    # derivative along the x-translation direction), in one lattice pass
    extra = [(eta, nu)]
    if s == 1:
        # and the four factors of u(x, nu-1) at x = (eta-1) + 1, the point
        # where the recursion steps xi_1 from eta-1 to eta+1 (not bitwise eta)
        x, n = (eta - 1.0) + 1.0, nu - 1.0
        extra += [(x, n + 1.0), (x, n - 1.0), (x - 1.0, n), (x + 1.0, n)]
    f, fx, g = neighbour_pass(tau, eta, nu, extra)

    xi_m = xi_p = 1.0 + 0j
    if s == 1:
        u = complex(f[7] * f[8] / (f[9] * f[10]) * np.exp(g[7] + g[8] - g[9] - g[10]))
        xi_m = RESIDUE_SEED
        xi_p = RESIDUE_SEED - u       # xi_1(eta+1) = xi_1(eta-1) - u xi_0
    fd4d_gap = abs(xi_p - xi_m)

    # each residue is a product of mantissas times exp of its Gaussian
    # exponents, taken at the larger of the two scales (exp(g) of tau_x(eta)
    # divides both)
    e = np.array([g[0] + g[1] - g[2], g[3] + g[4] - g[5]])
    r_plus, r_minus = rescale(np.array([f[0] * f[1] / (fx[6] * f[2]) * xi_p,
                                        f[3] * f[4] / (fx[6] * f[5]) * xi_m]), e, e.max())
    mismatch = abs(r_plus + r_minus) / (abs(r_plus) + abs(r_minus) + 1e-300)
    return float(mismatch), eta, fd4d_gap


# ----------------------------------------------------------------------
# semi-discrete recursion
# ----------------------------------------------------------------------

class SemidiscreteSystem(FixedJets):
    """Closures for the periodic semi-discrete problem on Z/N.

    tau = theta(x U + t V + Z); v = -d_V log theta, u = (T-1)v, and the
    analytic time derivative of v for resubstitution oracles.  v, vdot and
    u take x and t as scalars or as arrays of one shape (or a scalar t) and
    make one lattice pass per call.
    """

    def __init__(self, U, V, Z, B: PeriodMatrix, N: int):
        self.U, self.V, self.Z = as_vector(U), as_vector(V), as_vector(Z)
        self.B, self.N, self.dirs = B, int(N), (self.V, self.V)
        NU = self.N * self.U
        if np.max(np.abs(NU - np.round(NU.real))) > 1e-9:
            raise NonPeriodic(f"N U = {NU} is not an integer vector")

    def _ratios(self, x, t):
        """(theta_V / theta, theta_VV / theta) at the points (x, t), shaped like x."""
        x = np.asarray(x, dtype=float)
        W = np.multiply.outer(x, self.U) + np.multiply.outer(t, self.V) + self.Z
        J = self._jets(W.reshape(-1, W.shape[-1])).sums
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


class SeriesTable:
    """Semi-discrete wave-series levels on the 5-point time stencil ts.

    levels[s] is a (5, N) array whose row j holds xi_s on the cyclic grid
    Z/N at time ts[j] (xi_0 = 1 is implied); defect[s] is the cyclic defect
    N |mean| of a level built without the periodic normalization.
    """

    def __init__(self, ts: tuple, dt: float):
        self.ts, self.dt = ts, dt
        self.levels, self.defect = {}, {}

    def level(self, s: int, N: int) -> np.ndarray:
        if s == 0:
            return np.ones((5, N), complex)
        try:
            return self.levels[s]
        except KeyError:
            raise WindowExhausted(f"xi_{s} unknown") from None


def new_semidiscrete_table(t_center: float, dt: float) -> SeriesTable:
    """An empty table on the stencil t_center + (j - 2) dt, j = 0..4, which
    must be uniform to 1e-12 in floating point."""
    ts = tuple(t_center + (j - 2) * dt for j in range(5))
    step = ts[1] - ts[0]
    if max(abs((ts[i + 1] - ts[i]) - step) for i in range(4)) > 1e-12:
        raise ValidationError("time stencil must be uniform")
    return SeriesTable(ts, step)


def semidiscrete_series_extend(table: SeriesTable, system: SemidiscreteSystem,
                               s: int, skip_normalization: bool = False) -> SeriesTable:
    """Build level s+1 on the cyclic grid for all five stencil times.

    Updates the stored level s with its canonical time-dependent constant
    (zero at the center time) before integrating, then solves the cyclic
    first-difference system by prefix sums.  With skip_normalization the
    mean is left in place and the resulting cyclic defect N*|mean| is
    recorded in defect[s+1] instead (the level is then built from the
    defective right side, for the negative control).
    """
    ts, dt, N = table.ts, table.dt, system.N
    if s >= S_MAX:
        raise ValidationError(f"s={s} beyond S_MAX={S_MAX}")
    system.check_periodic(ts[2])

    xi_s = table.level(s, N)
    u = system.u(np.tile(np.arange(N, dtype=float), (5, 1)),
                 np.repeat(np.array(ts)[:, None], N, axis=1))

    xidot = (_D5 @ xi_s) / dt if s > 0 else np.zeros((5, N), complex)
    rhs = xidot + u * xi_s
    m = rhs.mean(axis=1)

    if skip_normalization:
        rhs_used = rhs
        table.defect[s + 1] = float(abs(N * m[2]))
    else:
        # c_s(t_j) = -integral of the degree-4 interpolant of m from t_center
        c = -dt * _sum_last(_Q5 * m)
        if s > 0:
            table.levels[s] = xi_s + c[:, None]
        rhs_used = (xidot - m[:, None]) + u * (xi_s + c[:, None])
        rhs_used = rhs_used - rhs_used.mean(axis=1)[:, None]

    table.levels[s + 1] = np.cumsum(
        np.concatenate([np.zeros((5, 1), complex), rhs_used[:, :-1]], axis=1), axis=1)
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
    N = system.N
    t_c = table.ts[2]
    xi_s = table.level(s, N)[2]
    xi_next = table.level(s + 1, N)[2]
    xs = np.arange(N, dtype=float)
    u = system.u(xs, t_c)
    if s == 0:
        xidot = np.zeros(N, complex)
    else:
        vdot = system.vdot(xs, t_c)
        xidot = vdot - vdot[0]
    rhs = xidot + u * xi_s
    rhs = rhs - rhs.mean()
    scale = float(np.max(np.abs(rhs))) + 1e-300
    # the roll wraps x = N-1 to 0: the prefix sums close up to the removed mean
    delta = np.roll(xi_next, -1) - xi_next
    return float(np.max(np.abs(delta - rhs) / scale))


def semidiscrete_cyclic_defect(table: SeriesTable, system: SemidiscreteSystem,
                               s_level: int) -> float:
    """|xi(x0+N) - xi(x0)| implied by the stored right side of level s_level."""
    return table.defect.get(s_level, 0.0)
