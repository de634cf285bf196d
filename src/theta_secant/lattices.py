"""Theta-functional solutions of the semi-discrete and fully discrete
linear problems, tabulated on finite windows with their residuals.

Semi-discrete (Toda-type): psi(x,t) = theta(A + xU + tV + Z)/theta(xU + tV + Z)
* exp(xp + tE) should satisfy (d/dt - T + u) psi = 0 with T the unit shift
in x, u = v(x+1,t) - v(x,t), v = -d_V log theta(xU + tV + Z).  The time
derivative is realized analytically through directional theta derivatives
(the argument depends on t only through tV), never finite differences.

Fully discrete: psi(m,n) = theta(A + mU + nV + Z)/theta(mU + nV + Z)
* exp(mp + nE) should satisfy psi(m,n+1) = psi(m+1,n) + u(m,n) psi(m,n)
with the four-theta ratio u.

Both residual systems are linear in the exponential constants once the
common exp factor is divided out, which gives an independent window-based
least-squares estimate of (e^p, e^E) (resp. (e^p, E)) used for the
(A)-versus-(B) consistency checks.
"""

from __future__ import annotations

import numpy as np

from .errors import DivisorHit, NumericalError, ValidationError
from .rng import Xoshiro256
from .theta import Frozen, PeriodMatrix, normalized_log_abs_many, theta_jets

DIVISOR_GUARD = 1e-12
MAX_WINDOW = 64
BASE_MARGIN = 3e-2            # least normalized |theta| on a base point's grid
BASE_TRIES = 64               # seeded draws of find_clear_base_point


class LatticeWindow(Frozen):
    """Index window: (m,n) rectangle for the discrete problem, or an
    x-interval with a list of t samples for the semi-discrete one.

    Its grid is what a field table evaluates and what the base-point
    search keeps clear: the axes reach one step past the window in m and n
    (in x), where the shifts of the linear problems land, and are oriented
    [m, n] (BDHE) or [t, x] (Toda).
    """

    def __init__(self, m_range=None, n_range=None, x_range=None, t_samples=None):
        if m_range is not None or n_range is not None:
            if m_range is None or n_range is None or x_range is not None:
                raise ValidationError("discrete window needs m_range and n_range only")
            m_range, n_range = tuple(m_range), tuple(n_range)
            for lo, hi in (m_range, n_range):
                if hi < lo or hi - lo + 1 > MAX_WINDOW:
                    raise ValidationError(f"window range ({lo},{hi}) invalid or > {MAX_WINDOW}")
        else:
            if x_range is None or t_samples is None:
                raise ValidationError("semi-discrete window needs x_range and t_samples")
            x_range = tuple(x_range)
            t_samples = tuple(float(t) for t in t_samples)
            if x_range[1] < x_range[0] or x_range[1] - x_range[0] + 1 > MAX_WINDOW:
                raise ValidationError("x_range invalid or too large")
            if not (1 <= len(t_samples) <= MAX_WINDOW):
                raise ValidationError("need between 1 and 64 t samples")
        object.__setattr__(self, "m_range", m_range)
        object.__setattr__(self, "n_range", n_range)
        object.__setattr__(self, "x_range", x_range)
        object.__setattr__(self, "t_samples", t_samples)

    @property
    def axes(self) -> tuple:
        """The grid's index arrays: (ms, ns) or (ts, xs)."""
        if self.m_range is not None:
            return (np.arange(self.m_range[0], self.m_range[1] + 2),
                    np.arange(self.n_range[0], self.n_range[1] + 2))
        return (np.asarray(self.t_samples),
                np.arange(self.x_range[0], self.x_range[1] + 2))

    def points(self, U, V, Z) -> np.ndarray:
        """m U + n V + Z (x U + t V + Z) at the grid points, shape grid + (g,):
        the two products are summed first and Z is added last."""
        a0, a1 = self.axes
        if self.m_range is not None:
            return a0[:, None, None] * U + a1[:, None] * V + Z
        return a1[:, None] * U + a0[:, None, None] * V + Z

    def name(self, i: int) -> str:
        """The grid point of flat index i, as DivisorHit names it."""
        a0, a1 = self.axes
        i0, i1 = divmod(i, len(a1))
        if self.m_range is not None:
            return f"m={a0[i0]}, n={a1[i1]}"
        return f"x={a1[i1]}, t={self.t_samples[i0]}"


class FieldTable:
    """Tabulated fields on a window's grid: u (and v for Toda), psi, and
    enough analytic side data (theta ratios, log-derivative gaps) to re-fit
    constants.

    Arrays are indexed as the window's grid: u and v cover the window,
    psi, ratio and dlog the whole grid.  psi and ratio are mantissas
    relative to exp(psi_logscale) and exp(ratio_logscale); u, v and dlog
    are plain values.  A non-finite entry raises NumericalError.
    """

    def __init__(self, kind: str, window: LatticeWindow, u, psi, psi_logscale,
                 v=None, ratio=None, ratio_logscale=None, dlog=None, E: complex = 0j):
        self.kind, self.window = kind, window
        self.u, self.psi, self.psi_logscale, self.v = u, psi, psi_logscale, v
        self.ratio = ratio                          # theta(A+w)/theta(w)
        self.ratio_logscale = ratio_logscale
        self.dlog = dlog                            # d_V log ratio (Toda)
        self.E = E                                  # psi's exponent in n (t)
        for name in ("u", "v", "psi", "psi_logscale", "ratio", "ratio_logscale", "dlog"):
            values = getattr(self, name)
            if values is not None and not np.isfinite(values).all():
                raise NumericalError(f"non-finite {name} in the {kind} table")

    def to_csv(self, path):
        """Columns: indices, Re/Im u, Re/Im v, psi mantissa Re/Im, psi logscale."""
        import csv
        a0, a1 = self.window.axes
        if self.kind == "bdhe":
            head = ["m", "n"]
            idx = np.meshgrid(a0[:-1], a1[:-1], indexing="ij")
            u, v = self.u, np.zeros_like(self.u)
            psi, scale = self.psi[:-1, :-1], self.psi_logscale[:-1, :-1]
        else:
            # rows by x, then t
            head = ["x", "t"]
            idx = np.meshgrid(a1[:-1], a0, indexing="ij")
            u, v = self.u.T, self.v.T
            psi, scale = self.psi[:, :-1].T, self.psi_logscale[:, :-1].T
        cols = (*idx, u.real, u.imag, v.real, v.imag, psi.real, psi.imag, scale)
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(head + ["re_u", "im_u", "re_v", "im_v",
                               "re_psi_mantissa", "im_psi_mantissa", "psi_logscale"])
            w.writerows(zip(*(c.ravel().tolist() for c in cols)))


def _window_jets(win: LatticeWindow, U, V, A, Z, B: PeriodMatrix, dirs=()):
    """Jets at the grid points w of win (based at Z) and at A + w, from one pass.

    Returns the ThetaJets of the points, each w followed by its A + w, and
    their normalized moduli.
    """
    W = win.points(U, V, Z)
    P = np.stack([W, A + W], axis=-2).reshape(-1, len(A))
    J = theta_jets(P, B, dirs=dirs)
    return J, np.exp(normalized_log_abs_many(J, B, P))


def _guarded_jets(win: LatticeWindow, U, V, A, Z, B: PeriodMatrix, dirs) -> list:
    """(sums, logscale) arrays of the grid's shape for w and then for A + w.

    The first point on the divisor, in the order of _window_jets, raises
    DivisorHit.
    """
    J, hat = _window_jets(win, U, V, A, Z, B, dirs)
    low = np.flatnonzero(hat < DIVISOR_GUARD)
    if len(low):
        q = low[0]
        raise DivisorHit(f"theta value at {'A+, ' * (q % 2)}{win.name(q // 2)} is on "
                         f"the divisor (normalized modulus {hat[q]:.2e})")
    shape = (*map(len, win.axes), 2)
    return [({key: s.reshape(shape)[..., side] for key, s in J.sums.items()},
             J.logscale.reshape(shape)[..., side]) for side in (0, 1)]


def _rescale(mantissa, logscale, ref):
    """Values mantissa * exp(logscale) as mantissas relative to exp(ref)."""
    return mantissa * np.exp(logscale - ref)


def _max_relative(res, a, b) -> float:
    """max of |res| / (|a| + |b|): the relative residual of an identity
    between the terms a and b, all three on one scale per point."""
    return float(np.max(np.abs(res) / (np.abs(a) + np.abs(b) + 1e-300)))


def _fit_rows(a, b, rhs):
    """Least-squares (w0, w1) of the rows a w0 - b w1 = rhs, each row
    divided by |a| + |b| + |rhs|."""
    scale = np.abs(a) + np.abs(b) + np.abs(rhs) + 1e-300
    M = np.stack([a / scale, -b / scale], axis=-1).reshape(-1, 2)
    w, *_ = np.linalg.lstsq(M, (rhs / scale).ravel(), rcond=None)
    return complex(w[0]), complex(w[1])


# ----------------------------------------------------------------------
# semi-discrete (Toda) tables
# ----------------------------------------------------------------------

def toda_fields(U, V, A, p, E, Z, win: LatticeWindow, B: PeriodMatrix) -> FieldTable:
    """Build v, u, psi and the log-derivative gap dlog of d/dt psi on the window.

    v(x,t) = -d_V log theta(xU+tV+Z); u = v(x+1,t) - v(x,t);
    psi per the two-theta ratio times exp(xp + tE);
    d/dt psi = psi * (d_V log theta(A+w) - d_V log theta(w) + E).
    """
    if win.x_range is None:
        raise ValidationError("toda_fields needs a semi-discrete window")
    U, V, A, Z = (np.atleast_1d(np.asarray(c, complex)) for c in (U, V, A, Z))
    p, E = complex(p), complex(E)
    ts, xs = win.axes
    (w, w_scale), (a, a_scale) = _guarded_jets(win, U, V, A, Z, B, (V,))
    lw = w["d0"] / w["f"]            # d_V log theta(w); the logscales cancel
    ratio, ratio_scale = a["f"] / w["f"], a_scale - w_scale
    arg = xs * p + ts[:, None] * E
    return FieldTable("toda", win, u=lw[:, :-1] - lw[:, 1:], v=-lw[:, :-1],
                      psi=ratio * np.exp(1j * arg.imag),
                      psi_logscale=ratio_scale + arg.real,
                      ratio=ratio, ratio_logscale=ratio_scale,
                      dlog=a["d0"] / a["f"] - lw, E=E)


def toda_psi_residual(table: FieldTable) -> float:
    """max relative residual of (d/dt - T + u) psi over the window.

    d/dt psi = psi * (dlog + E); each point is taken at the larger
    logscale of psi(x, t) and psi(x + 1, t).
    """
    if table.kind != "toda":
        raise ValidationError("expected a Toda table")
    psi, scale = table.psi, table.psi_logscale
    ref = np.maximum(scale[:, :-1], scale[:, 1:])
    here = _rescale(psi[:, :-1], scale[:, :-1], ref)
    shift = _rescale(psi[:, 1:], scale[:, 1:], ref)
    dpsi = here * (table.dlog[:, :-1] + table.E)
    return _max_relative(dpsi - shift + table.u * here, shift, dpsi)


def refit_constants_toda(table: FieldTable):
    """Window least-squares estimate of (e^p, E) from the residual system.

    Rows (per window point, after dividing out exp(xp+tE)):
        R(x+1,t) e^p - R(x,t) E = Rdot(x,t) + u(x,t) R(x,t),
    with R the theta ratio and Rdot = R * (d_V log theta gap), all linear
    in the unknowns.
    """
    R, scale = table.ratio[:, :-1], table.ratio_logscale
    R1 = _rescale(table.ratio[:, 1:], scale[:, 1:], scale[:, :-1])
    return _fit_rows(R1, R, R * table.dlog[:, :-1] + table.u * R)


# ----------------------------------------------------------------------
# fully discrete (BDHE) tables
# ----------------------------------------------------------------------

def bdhe_fields(U, V, A, p, E, Z, win: LatticeWindow, B: PeriodMatrix) -> FieldTable:
    """Four-theta u(m,n) and two-theta psi(m,n) on the window."""
    if win.m_range is None:
        raise ValidationError("bdhe_fields needs a discrete window")
    U, V, A, Z = (np.atleast_1d(np.asarray(c, complex)) for c in (U, V, A, Z))
    p, E = complex(p), complex(E)
    ms, ns = win.axes
    (w, w_scale), (a, a_scale) = _guarded_jets(win, U, V, A, Z, B, ())
    th = w["f"]
    ratio, ratio_scale = a["f"] / th, a_scale - w_scale
    arg = ms[:, None] * p + ns * E
    # u = theta(m+1,n+1) theta(m,n) / (theta(m,n+1) theta(m+1,n))
    cross = (th[1:, 1:] * th[:-1, :-1]) / (th[:-1, 1:] * th[1:, :-1])
    cross_scale = ((w_scale[1:, 1:] + w_scale[:-1, :-1])
                   - (w_scale[:-1, 1:] + w_scale[1:, :-1]))
    return FieldTable("bdhe", win, u=cross * np.exp(cross_scale),
                      psi=ratio * np.exp(1j * arg.imag),
                      psi_logscale=ratio_scale + arg.real,
                      ratio=ratio, ratio_logscale=ratio_scale, E=E)


def bdhe_psi_residual(table: FieldTable) -> float:
    """max relative residual of psi(m,n+1) = psi(m+1,n) + u psi(m,n),
    each point taken at the larger logscale of psi(m,n+1) and psi(m+1,n)."""
    if table.kind != "bdhe":
        raise ValidationError("expected a BDHE table")
    psi, scale = table.psi, table.psi_logscale
    ref = np.maximum(scale[:-1, 1:], scale[1:, :-1])
    up = _rescale(psi[:-1, 1:], scale[:-1, 1:], ref)
    right = _rescale(psi[1:, :-1], scale[1:, :-1], ref)
    here = _rescale(psi[:-1, :-1], scale[:-1, :-1], ref)
    return _max_relative(up - right - table.u * here, up, right)


def refit_constants_bdhe(table: FieldTable):
    """Window least-squares estimate of (e^p, e^E).

    Rows: R(m+1,n) e^p - R(m,n+1) e^E = -u(m,n) R(m,n), linear in the
    unknowns after dividing out exp(mp + nE).
    """
    R, scale = table.ratio, table.ratio_logscale
    ref = scale[:-1, :-1]
    return _fit_rows(_rescale(R[1:, :-1], scale[1:, :-1], ref),
                     _rescale(R[:-1, 1:], scale[:-1, 1:], ref),
                     -table.u * R[:-1, :-1])


# ----------------------------------------------------------------------
# base-point search
# ----------------------------------------------------------------------

def find_clear_base_point(U, V, A, B: PeriodMatrix, seed: int,
                          win: LatticeWindow) -> np.ndarray:
    """Seeded search for a base point Z of win's grid off the divisor.

    Every theta argument a field table on win will evaluate, w and A + w,
    must have normalized modulus at least BASE_MARGIN; each of the
    BASE_TRIES tries is one pass.
    """
    rng = Xoshiro256(seed)
    U, V, A = (np.atleast_1d(np.asarray(c, complex)) for c in (U, V, A))
    best_val = -1.0
    for _ in range(BASE_TRIES):
        Z = np.array(rng.complex_vector(B.g, scale=0.5))
        low = float(_window_jets(win, U, V, A, Z, B)[1].min())
        if low >= BASE_MARGIN:
            return Z
        best_val = max(best_val, low)
    raise DivisorHit(f"no clear base point found (best margin {best_val:.2e})")
