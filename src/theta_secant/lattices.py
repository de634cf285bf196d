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
from .theta import (Frozen, PeriodMatrix, as_vector, normalized_log_abs_many, relative_gap,
                    rescale, theta_jets)

DIVISOR_GUARD = 1e-12
MAX_WINDOW = 64
BASE_MARGIN = 3e-2            # least normalized |theta| on a base point's grid
BASE_TRIES = 64               # seeded draws of find_clear_base_point


class LatticeWindow(Frozen):
    """Index window of one of the two problems (kind): an (m,n) rectangle
    for the discrete one, "bdhe", or an x-interval with a list of t
    samples for the semi-discrete one, "toda".

    Its grid is what the base-point search keeps clear, and the search's
    pass (a WindowPass) is the one the field tables read.  axes holds the
    grid's read-only index arrays, integer axis first, [m, n] or [x, t] as
    names says; the integer axes reach one step past the window, where the
    shifts of the linear problems land.
    """

    def __init__(self, m_range=None, n_range=None, x_range=None, t_samples=None):
        if m_range is not None or n_range is not None:
            if m_range is None or n_range is None or x_range is not None:
                raise ValidationError("discrete window needs m_range and n_range only")
            m_range, n_range = tuple(m_range), tuple(n_range)
            for lo, hi in (m_range, n_range):
                if hi < lo or hi - lo + 1 > MAX_WINDOW:
                    raise ValidationError(f"window range ({lo},{hi}) invalid or > {MAX_WINDOW}")
            kind, names = "bdhe", ("m", "n")
            axes = (np.arange(m_range[0], m_range[1] + 2), np.arange(n_range[0], n_range[1] + 2))
        else:
            if x_range is None or t_samples is None:
                raise ValidationError("semi-discrete window needs x_range and t_samples")
            x_range = tuple(x_range)
            t_samples = tuple(float(t) for t in t_samples)
            if x_range[1] < x_range[0] or x_range[1] - x_range[0] + 1 > MAX_WINDOW:
                raise ValidationError("x_range invalid or too large")
            if not (1 <= len(t_samples) <= MAX_WINDOW):
                raise ValidationError("need between 1 and 64 t samples")
            kind, names = "toda", ("x", "t")
            axes = (np.arange(x_range[0], x_range[1] + 2), np.array(t_samples))
        for a in axes:
            a.setflags(write=False)
        self._set(kind=kind, axes=axes, names=names)

    def points(self, U, V, Z) -> np.ndarray:
        """m U + n V + Z (x U + t V + Z) at the grid points, shape grid + (g,):
        the two products are summed first and Z is added last."""
        a0, a1 = self.axes
        return a0[:, None, None] * U + a1[:, None] * V + Z

    def name(self, i: int) -> str:
        """The grid point of flat index i, as DivisorHit names it."""
        a0, a1 = self.axes
        i0, i1 = divmod(i, len(a1))
        return f"{self.names[0]}={a0[i0]}, {self.names[1]}={a1[i1]}"


class FieldTable:
    """Tabulated fields on a window's grid: u (and v for Toda), psi, and
    enough analytic side data (theta ratios, log-derivative gaps) to re-fit
    constants; the problem is the window's kind.

    Arrays are indexed as the window's grid: u and v cover the window,
    psi, ratio and dlog the whole grid.  psi and ratio are mantissas
    relative to exp(psi_logscale) and exp(ratio_logscale); u, v and dlog
    are plain values.  A non-finite entry raises NumericalError.
    """

    def __init__(self, window: LatticeWindow, u, psi, psi_logscale,
                 v=None, ratio=None, ratio_logscale=None, dlog=None, E: complex = 0j):
        self.window = window
        self.u, self.psi, self.psi_logscale, self.v = u, psi, psi_logscale, v
        self.ratio = ratio                          # theta(A+w)/theta(w)
        self.ratio_logscale = ratio_logscale
        self.dlog = dlog                            # d_V log ratio (Toda)
        self.E = E                                  # psi's exponent in n (t)
        for name in ("u", "v", "psi", "psi_logscale", "ratio", "ratio_logscale", "dlog"):
            values = getattr(self, name)
            if values is not None and not np.isfinite(values).all():
                raise NumericalError(f"non-finite {name} in the {window.kind} table")

    def csv_rows(self):
        """The header, then one row per window point, first index slowest:
        indices, Re/Im u, Re/Im v (0 without v), psi mantissa Re/Im and logscale."""
        a0, a1 = self.window.axes
        n0, n1 = self.u.shape
        v = np.zeros_like(self.u) if self.v is None else self.v
        cols = (*np.meshgrid(a0[:n0], a1[:n1], indexing="ij"),
                self.u.real, self.u.imag, v.real, v.imag,
                self.psi[:n0, :n1].real, self.psi[:n0, :n1].imag, self.psi_logscale[:n0, :n1])
        yield [*self.window.names, "re_u", "im_u", "re_v", "im_v",
               "re_psi_mantissa", "im_psi_mantissa", "psi_logscale"]
        yield from zip(*(c.ravel().tolist() for c in cols))


class WindowPass(Frozen):
    """One theta pass at the grid points w of win (based at Z) and at
    A + w, with the direction V on a "toda" window and none on a "bdhe" one.

    Holds window, Z, the sums w and a (dicts of grid-shaped arrays), their
    logscales w_scale and a_scale, and hat, the normalized moduli in the
    pass's order, each w followed by its A + w.
    """

    def __init__(self, win: LatticeWindow, U, V, A, Z, B: PeriodMatrix):
        U, V, A, Z = map(as_vector, (U, V, A, Z))
        W = win.points(U, V, Z)
        P = np.stack([W, A + W], axis=-2).reshape(-1, len(A))
        J = theta_jets(P, B, dirs=(V,) if win.kind == "toda" else ())
        shape = (*map(len, win.axes), 2)
        (w, w_scale), (a, a_scale) = [
            ({key: s.reshape(shape)[..., side] for key, s in J.sums.items()},
             J.logscale.reshape(shape)[..., side]) for side in (0, 1)]
        self._set(window=win, Z=Z, w=w, a=a, w_scale=w_scale, a_scale=a_scale,
                  hat=np.exp(normalized_log_abs_many(J, B, P)))


def _fit_rows(a, b, rhs):
    """Least-squares (w0, w1) of the rows a w0 - b w1 = rhs, each row
    divided by |a| + |b| + |rhs|; one row (a one-point window) is an error."""
    if np.size(rhs) < 2:
        raise ValidationError("a one-point window gives one row for two constants")
    scale = np.abs(a) + np.abs(b) + np.abs(rhs) + 1e-300
    M = np.stack([a / scale, -b / scale], axis=-1).reshape(-1, 2)
    w, *_ = np.linalg.lstsq(M, (rhs / scale).ravel(), rcond=None)
    return complex(w[0]), complex(w[1])


def _field_pass(base: WindowPass, p, E):
    """The psi, psi_logscale, ratio R = theta(A + w)/theta(w), ratio_logscale
    and E of a FieldTable from base's pass, psi = R exp(a0 p + a1 E) at the
    grid point (a0, a1); DivisorHit at the pass's first point on the divisor."""
    p, E = complex(p), complex(E)
    win, hat = base.window, base.hat
    low = np.flatnonzero(hat < DIVISOR_GUARD)
    if len(low):
        q = low[0]
        raise DivisorHit(f"theta value at {'A+, ' * (q % 2)}{win.name(q // 2)} is on "
                         f"the divisor (normalized modulus {hat[q]:.2e})")
    ratio, ratio_scale = base.a["f"] / base.w["f"], base.a_scale - base.w_scale
    a0, a1 = win.axes
    arg = a0[:, None] * p + a1 * E
    return {"psi": ratio * np.exp(1j * arg.imag), "psi_logscale": ratio_scale + arg.real,
            "ratio": ratio, "ratio_logscale": ratio_scale, "E": E}


# ----------------------------------------------------------------------
# semi-discrete (Toda) tables
# ----------------------------------------------------------------------

def toda_fields(base: WindowPass, p, E) -> FieldTable:
    """Build v, u, psi and the log-derivative gap dlog of d/dt psi on base's window.

    v(x,t) = -d_V log theta(xU+tV+Z); u = v(x+1,t) - v(x,t);
    psi per the two-theta ratio times exp(xp + tE);
    d/dt psi = psi * (d_V log theta(A+w) - d_V log theta(w) + E).
    """
    if base.window.kind != "toda":
        raise ValidationError("toda_fields needs a semi-discrete window")
    fields = _field_pass(base, p, E)
    w, a = base.w, base.a
    lw = w["d0"] / w["f"]            # d_V log theta(w); the logscales cancel
    return FieldTable(base.window, u=lw[:-1] - lw[1:], v=-lw[:-1],
                      dlog=a["d0"] / a["f"] - lw, **fields)


def toda_psi_residual(table: FieldTable) -> float:
    """max relative residual of (d/dt - T + u) psi over the window.

    d/dt psi = psi * (dlog + E); each point is taken at the larger
    logscale of psi(x, t) and psi(x + 1, t).
    """
    if table.window.kind != "toda":
        raise ValidationError("expected a Toda table")
    psi, scale = table.psi, table.psi_logscale
    ref = np.maximum(scale[:-1], scale[1:])
    here = rescale(psi[:-1], scale[:-1], ref)
    shift = rescale(psi[1:], scale[1:], ref)
    dpsi = here * (table.dlog[:-1] + table.E)
    return relative_gap(dpsi - shift + table.u * here, shift, dpsi)


def refit_constants_toda(table: FieldTable):
    """Window least-squares estimate of (e^p, E) from the residual system.

    Rows (per window point, after dividing out exp(xp+tE)):
        R(x+1,t) e^p - R(x,t) E = Rdot(x,t) + u(x,t) R(x,t),
    with R the theta ratio and Rdot = R * (d_V log theta gap), all linear
    in the unknowns; the rows are taken t-major.
    """
    R, scale = table.ratio[:-1], table.ratio_logscale
    R1 = rescale(table.ratio[1:], scale[1:], scale[:-1])
    return _fit_rows(R1.T, R.T, (R * table.dlog[:-1] + table.u * R).T)


# ----------------------------------------------------------------------
# fully discrete (BDHE) tables
# ----------------------------------------------------------------------

def bdhe_fields(base: WindowPass, p, E) -> FieldTable:
    """Four-theta u(m,n) and two-theta psi(m,n) on base's window."""
    if base.window.kind != "bdhe":
        raise ValidationError("bdhe_fields needs a discrete window")
    fields = _field_pass(base, p, E)
    th, w_scale = base.w["f"], base.w_scale
    # u = theta(m+1,n+1) theta(m,n) / (theta(m,n+1) theta(m+1,n))
    cross = (th[1:, 1:] * th[:-1, :-1]) / (th[:-1, 1:] * th[1:, :-1])
    cross_scale = ((w_scale[1:, 1:] + w_scale[:-1, :-1])
                   - (w_scale[:-1, 1:] + w_scale[1:, :-1]))
    return FieldTable(base.window, u=cross * np.exp(cross_scale), **fields)


def bdhe_psi_residual(table: FieldTable) -> float:
    """max relative residual of psi(m,n+1) = psi(m+1,n) + u psi(m,n),
    each point taken at the larger logscale of psi(m,n+1) and psi(m+1,n)."""
    if table.window.kind != "bdhe":
        raise ValidationError("expected a BDHE table")
    psi, scale = table.psi, table.psi_logscale
    ref = np.maximum(scale[:-1, 1:], scale[1:, :-1])
    up = rescale(psi[:-1, 1:], scale[:-1, 1:], ref)
    right = rescale(psi[1:, :-1], scale[1:, :-1], ref)
    here = rescale(psi[:-1, :-1], scale[:-1, :-1], ref)
    return relative_gap(up - right - table.u * here, up, right)


def refit_constants_bdhe(table: FieldTable):
    """Window least-squares estimate of (e^p, e^E).

    Rows: R(m+1,n) e^p - R(m,n+1) e^E = -u(m,n) R(m,n), linear in the
    unknowns after dividing out exp(mp + nE).
    """
    R, scale = table.ratio, table.ratio_logscale
    ref = scale[:-1, :-1]
    return _fit_rows(rescale(R[1:, :-1], scale[1:, :-1], ref),
                     rescale(R[:-1, 1:], scale[:-1, 1:], ref),
                     -table.u * R[:-1, :-1])


# ----------------------------------------------------------------------
# base-point search
# ----------------------------------------------------------------------

def find_clear_base_point(U, V, A, B: PeriodMatrix, seed: int,
                          win: LatticeWindow) -> WindowPass:
    """Seeded search for a base point Z of win's grid off the divisor: the
    WindowPass of the first clear draw, the pass its field tables read.

    Every theta argument of the pass, w and A + w, must have normalized
    modulus at least BASE_MARGIN; each of the BASE_TRIES tries is one pass.
    """
    rng = Xoshiro256(seed)
    best_val = -1.0
    for _ in range(BASE_TRIES):
        base = WindowPass(win, U, V, A, np.array(rng.complex_vector(B.g, scale=0.5)), B)
        low = float(base.hat.min())
        if low >= BASE_MARGIN:
            return base
        best_val = max(best_val, low)
    raise DivisorHit(f"no clear base point found (best margin {best_val:.2e})")
