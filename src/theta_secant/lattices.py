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

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import DivisorHit, ValidationError
from .scaled import exp_scaled, rel_residual
from .theta import DEFAULT_TOL, PeriodMatrix, normalized_log_abs_many, theta_jets

DIVISOR_GUARD = 1e-12
MAX_WINDOW = 64


@dataclass(frozen=True)
class LatticeWindow:
    """Index window: (m,n) rectangle for the discrete problem, or an
    x-interval with a list of t samples for the semi-discrete one."""

    Z: np.ndarray
    m_range: tuple | None = None
    n_range: tuple | None = None
    x_range: tuple | None = None
    t_samples: tuple | None = None

    def __init__(self, Z, m_range=None, n_range=None, x_range=None, t_samples=None):
        Z = np.atleast_1d(np.asarray(Z, complex))
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
        object.__setattr__(self, "Z", Z)
        object.__setattr__(self, "m_range", m_range)
        object.__setattr__(self, "n_range", n_range)
        object.__setattr__(self, "x_range", x_range)
        object.__setattr__(self, "t_samples", t_samples)

    def m_values(self):
        return range(self.m_range[0], self.m_range[1] + 1)

    def n_values(self):
        return range(self.n_range[0], self.n_range[1] + 1)

    def x_values(self):
        return range(self.x_range[0], self.x_range[1] + 1)


@dataclass
class FieldTable:
    """Tabulated fields: u (and v for Toda), psi, and enough analytic
    side data (theta ratios, log-derivative gaps) to re-fit constants."""

    kind: str
    window: LatticeWindow
    u: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    psi: dict = field(default_factory=dict)
    psi_t: dict = field(default_factory=dict)
    ratio: dict = field(default_factory=dict)        # theta(A+w)/theta(w)
    dlog: dict = field(default_factory=dict)         # d_V log ratio (Toda)
    meta: dict = field(default_factory=dict)

    def to_csv(self, path):
        """Columns: indices, Re/Im u, Re/Im v, psi mantissa Re/Im, psi logscale."""
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            if self.kind == "bdhe":
                w.writerow(["m", "n", "re_u", "im_u", "re_v", "im_v",
                            "re_psi_mantissa", "im_psi_mantissa", "psi_logscale"])
                for key in sorted(self.u):
                    uval = self.u[key].to_complex()
                    psi = self.psi[key]
                    w.writerow([key[0], key[1], uval.real, uval.imag, 0.0, 0.0,
                                psi.mantissa.real, psi.mantissa.imag, psi.logscale])
            else:
                w.writerow(["x", "t", "re_u", "im_u", "re_v", "im_v",
                            "re_psi_mantissa", "im_psi_mantissa", "psi_logscale"])
                ts = self.window.t_samples
                for key in sorted(self.u):
                    uval = self.u[key].to_complex()
                    vval = self.v[key].to_complex()
                    psi = self.psi[key]
                    w.writerow([key[0], ts[key[1]], uval.real, uval.imag,
                                vval.real, vval.imag,
                                psi.mantissa.real, psi.mantissa.imag, psi.logscale])


def _guarded_jets(A, B: PeriodMatrix, dirs, tol: float, points):
    """(jet at w, jet at A + w) for each (w, context) of points, from one pass.

    The pairs come in order, each value checked against the divisor as it
    is taken (w, then A + w), so the first point on it raises DivisorHit
    as a point-by-point loop would.
    """
    Z = [z for w, _ in points for z in (w, A + w)]
    J = theta_jets(Z, B, dirs=dirs, tol=tol)
    hat = np.exp(normalized_log_abs_many(J, B, Z))
    for p, (_, context) in enumerate(points):
        for q, where in ((2 * p, context), (2 * p + 1, "A+, " + context)):
            if hat[q] < DIVISOR_GUARD:
                raise DivisorHit(f"theta value at {where} is on the divisor "
                                 f"(normalized modulus {hat[q]:.2e})")
        yield [J.jet(2 * p), J.jet(2 * p + 1)]


# ----------------------------------------------------------------------
# semi-discrete (Toda) tables
# ----------------------------------------------------------------------

def toda_fields(U, V, A, p, E, win: LatticeWindow, B: PeriodMatrix,
                tol: float = DEFAULT_TOL) -> FieldTable:
    """Build v, u, psi and the analytic d/dt psi on the window.

    v(x,t) = -d_V log theta(xU+tV+Z); u = v(x+1,t) - v(x,t);
    psi per the two-theta ratio times exp(xp + tE);
    d/dt psi = psi * (d_V log theta(A+w) - d_V log theta(w) + E).
    """
    if win.x_range is None:
        raise ValidationError("toda_fields needs a semi-discrete window")
    U = np.atleast_1d(np.asarray(U, complex))
    V = np.atleast_1d(np.asarray(V, complex))
    A = np.atleast_1d(np.asarray(A, complex))
    p, E = complex(p), complex(E)
    tab = FieldTable("toda", win,
                     meta={"U": U, "V": V, "A": A, "p": p, "E": E, "B": B})
    x0, x1 = win.x_range
    ts = win.t_samples
    grid = [(x, it) for it in range(len(ts)) for x in range(x0, x1 + 2)]
    jets = _guarded_jets(A, B, (V,), tol, [(x * U + ts[it] * V + win.Z, f"x={x}, t={ts[it]}")
                                           for x, it in grid])
    vloc = {}
    for (x, it), (jw, ja) in zip(grid, jets):
        lv = jw["d0"] / jw["f"]          # d_V log theta(w)
        la = ja["d0"] / ja["f"]
        vloc[(x, it)] = -lv
        ratio = ja["f"] / jw["f"]
        psi = ratio * exp_scaled(x * p + ts[it] * E)
        dl = la - lv
        tab.ratio[(x, it)] = ratio
        tab.dlog[(x, it)] = dl
        tab.psi[(x, it)] = psi
        tab.psi_t[(x, it)] = psi * (dl.to_complex() + E)
    tab.v = {key: v for key, v in vloc.items() if key[0] <= x1}
    tab.u = {(x, it): vloc[(x + 1, it)] - v for (x, it), v in tab.v.items()}
    return tab


def toda_psi_residual(table: FieldTable) -> float:
    """max relative residual of (d/dt - T + u) psi over the window."""
    if table.kind != "toda":
        raise ValidationError("expected a Toda table")
    win = table.window
    worst = 0.0
    for it in range(len(win.t_samples)):
        for x in win.x_values():
            dpsi = table.psi_t[(x, it)]
            shift = table.psi[(x + 1, it)]
            res = dpsi - shift + table.u[(x, it)] * table.psi[(x, it)]
            worst = max(worst, rel_residual(res, shift, dpsi))
    return worst


def refit_constants_toda(table: FieldTable):
    """Window least-squares estimate of (e^p, E) from the residual system.

    Rows (per window point, after dividing out exp(xp+tE)):
        R(x+1,t) e^p - R(x,t) E = Rdot(x,t) + u(x,t) R(x,t),
    with R the theta ratio and Rdot = R * (d_V log theta gap), all linear
    in the unknowns.
    """
    win = table.window
    rows, rhs = [], []
    for it in range(len(win.t_samples)):
        for x in win.x_values():
            ref = table.psi[(x, it)].logscale
            R = table.ratio[(x, it)].rescaled(ref)
            R1 = table.ratio[(x + 1, it)].rescaled(ref)
            rdot = R * table.dlog[(x, it)].to_complex()
            u = table.u[(x, it)].to_complex()
            scale = abs(R1) + abs(R) + abs(rdot + u * R) + 1e-300
            rows.append([R1 / scale, -R / scale])
            rhs.append((rdot + u * R) / scale)
    M, r = np.array(rows), np.array(rhs)
    w, *_ = np.linalg.lstsq(M, r, rcond=None)
    return complex(w[0]), complex(w[1])


# ----------------------------------------------------------------------
# fully discrete (BDHE) tables
# ----------------------------------------------------------------------

def bdhe_fields(U, V, A, p, E, win: LatticeWindow, B: PeriodMatrix,
                tol: float = DEFAULT_TOL) -> FieldTable:
    """Four-theta u(m,n) and two-theta psi(m,n) on the window."""
    if win.m_range is None:
        raise ValidationError("bdhe_fields needs a discrete window")
    U = np.atleast_1d(np.asarray(U, complex))
    V = np.atleast_1d(np.asarray(V, complex))
    A = np.atleast_1d(np.asarray(A, complex))
    p, E = complex(p), complex(E)
    tab = FieldTable("bdhe", win,
                     meta={"U": U, "V": V, "A": A, "p": p, "E": E, "B": B})
    m0, m1 = win.m_range
    n0, n1 = win.n_range
    grid = [(m, n) for m in range(m0, m1 + 2) for n in range(n0, n1 + 2)]
    jets = _guarded_jets(A, B, (), tol, [(m * U + n * V + win.Z, f"m={m}, n={n}")
                                         for m, n in grid])
    th = {}
    for (m, n), (jw, ja) in zip(grid, jets):
        th[(m, n)] = jw["f"]
        tab.ratio[(m, n)] = ja["f"] / jw["f"]
        tab.psi[(m, n)] = tab.ratio[(m, n)] * exp_scaled(m * p + n * E)
    for m in range(m0, m1 + 1):
        for n in range(n0, n1 + 1):
            tab.u[(m, n)] = (th[(m + 1, n + 1)] * th[(m, n)]) / \
                (th[(m, n + 1)] * th[(m + 1, n)])
    return tab


def bdhe_psi_residual(table: FieldTable) -> float:
    """max relative residual of psi(m,n+1) = psi(m+1,n) + u psi(m,n)."""
    if table.kind != "bdhe":
        raise ValidationError("expected a BDHE table")
    win = table.window
    worst = 0.0
    for m in win.m_values():
        for n in win.n_values():
            up = table.psi[(m, n + 1)]
            right = table.psi[(m + 1, n)]
            res = up - right - table.u[(m, n)] * table.psi[(m, n)]
            worst = max(worst, rel_residual(res, up, right))
    return worst


def refit_constants_bdhe(table: FieldTable):
    """Window least-squares estimate of (e^p, e^E).

    Rows: R(m+1,n) e^p - R(m,n+1) e^E = -u(m,n) R(m,n), linear in the
    unknowns after dividing out exp(mp + nE).
    """
    win = table.window
    rows, rhs = [], []
    for m in win.m_values():
        for n in win.n_values():
            ref = table.psi[(m, n)].logscale
            R = table.ratio[(m, n)].rescaled(ref)
            Rm = table.ratio[(m + 1, n)].rescaled(ref)
            Rn = table.ratio[(m, n + 1)].rescaled(ref)
            u = table.u[(m, n)].to_complex()
            scale = abs(Rm) + abs(Rn) + abs(u * R) + 1e-300
            rows.append([Rm / scale, -Rn / scale])
            rhs.append(-u * R / scale)
    M, r = np.array(rows), np.array(rhs)
    w, *_ = np.linalg.lstsq(M, r, rcond=None)
    return complex(w[0]), complex(w[1])


# ----------------------------------------------------------------------
# base-point search
# ----------------------------------------------------------------------

def find_clear_base_point(U, V, A, B: PeriodMatrix, seed: int,
                          spans, margin: float = 3e-2,
                          tol: float = DEFAULT_TOL, tries: int = 64) -> np.ndarray:
    """Seeded search for Z keeping all window thetas off the divisor.

    spans is an iterable of (coeff_U, coeff_V, with_A) index tuples the
    window will touch; every theta argument must have normalized modulus
    above margin.
    """
    from .rng import Xoshiro256
    rng = Xoshiro256(seed)
    U = np.atleast_1d(np.asarray(U, complex))
    V = np.atleast_1d(np.asarray(V, complex))
    A = np.atleast_1d(np.asarray(A, complex))
    best, best_val = None, -1.0
    for _ in range(tries):
        Z = np.array(rng.complex_vector(B.g, scale=0.5))
        W = [cm * U + cn * V + Z + (A if with_a else 0.0) for (cm, cn, with_a) in spans]
        J = theta_jets(W, B, tol=tol)
        low = float(np.exp(normalized_log_abs_many(J, B, W)).min())
        if low > best_val:
            best, best_val = Z, low
        if best_val >= margin:
            return best
    if best_val < margin:
        raise DivisorHit(f"no clear base point found (best margin {best_val:.2e})")
    return best


def window_spans(win: LatticeWindow):
    """All (m, n, with_A) argument offsets a field table will evaluate."""
    out = []
    if win.m_range is not None:
        for m in range(win.m_range[0], win.m_range[1] + 2):
            for n in range(win.n_range[0], win.n_range[1] + 2):
                out.append((m, n, False))
                out.append((m, n, True))
    else:
        for x in win.x_values():
            for t in win.t_samples:
                out.append((x, t, False))
                out.append((x, t, True))
        out.extend([(win.x_range[1] + 1, t, a) for t in win.t_samples
                    for a in (False, True)])
    return out
