"""Independent Riemann theta oracle at 30 significant digits.

It shares no code with ``theta_secant``.  Genus 1 goes through
``mpmath.jtheta``; any genus goes through a brute-force lattice sum over the
ellipsoid

    { n in Z^g + eps : (n - c)^T Y (n - c) <= R^2 },   c = -Y^{-1} Im z,

around the peak of the Gaussian envelope.  Every term is bounded by
exp(pi c^T Y c) * exp(-pi (n - c)^T Y (n - c)), i.e. by the true decay
exp(-pi * lam_min * |n - c|^2), so the radius R comes from this module's own
tail bound (``_tail_bound``), not from the engine's shell bound.

Conventions follow the package README: theta[eps, delta](z | B) sums
exp(pi i (B n, n) + 2 pi i (z + delta, n)) over n in Z^g + eps, and a
derivative along d multiplies the n-th term by 2 pi i (d, n).  Level-two
values theta[eps, 0](2Z | 2B) are one sum over m in Z^g of
exp(pi i (B m, m) / 2 + 2 pi i (Z, m)) binned by m mod 2.
"""

from __future__ import annotations

import math

import mpmath
from mpmath import mp, mpc, mpf

DIGITS = 30
_KEYS = ("f", "d0", "d1", "d01")


class Jet(dict):
    """Oracle values keyed like the engine's jets, plus the largest term.

    ``peak[key]`` is the largest modulus of a single term of the series
    behind ``self[key]``: the scale the engine's tolerance refers to.
    """

    def __init__(self, values, peak):
        super().__init__(values)
        self.peak = peak


# ----------------------------------------------------------------------
# lattice geometry (floats)
# ----------------------------------------------------------------------

def _cholesky(Y):
    g = len(Y)
    L = [[0.0] * g for _ in range(g)]
    for i in range(g):
        for j in range(i + 1):
            s = Y[i][j] - sum(L[i][k] * L[j][k] for k in range(j))
            if i == j:
                if s <= 0.0:
                    raise ValueError("Im B is not positive definite")
                L[i][i] = math.sqrt(s)
            else:
                L[i][j] = s / L[j][j]
    return L


def _inverse(Y):
    g = len(Y)
    if g == 1:
        return [[1.0 / Y[0][0]]]
    if g == 2:
        det = Y[0][0] * Y[1][1] - Y[0][1] * Y[1][0]
        return [[Y[1][1] / det, -Y[0][1] / det], [-Y[1][0] / det, Y[0][0] / det]]
    raise ValueError("oracle supports genus 1 and 2")


def _tail_bound(R, g, yinv_diag, cnorm, dnorms):
    """Bound on sum over q(n) > R^2 of exp(-pi q(n)) * prod |2 pi (d, n)|.

    Points with q(n) <= r^2 lie in a box of half-widths r*sqrt((Y^-1)_jj),
    so at most prod_j (2 r sqrt((Y^-1)_jj) + 1) of them; on that set
    |(d, n)| <= |d| (|c| + r sqrt(tr Y^-1)).  Summing unit shells
    R + k < sqrt(q) <= R + k + 1 gives the bound below.
    """
    spread = math.sqrt(sum(yinv_diag))
    total = 0.0
    for k in range(400):
        r = R + k + 1
        count = 1.0
        for w in yinv_diag:
            count *= 2.0 * r * math.sqrt(w) + 1.0
        poly = 1.0
        for dn in dnorms:
            poly *= 2.0 * math.pi * dn * (cnorm + r * spread)
        term = count * poly * math.exp(-math.pi * (R + k) ** 2)
        total += term
        if term < 1e-40 * total:
            break
    return total


def _radius(g, yinv_diag, cnorm, dnorms, digits):
    R = 1.0
    target = 10.0 ** (-digits - 2)
    while _tail_bound(R, g, yinv_diag, cnorm, dnorms) > target:
        R += 0.25
    return R


def _ellipsoid(Y, c, eps, R):
    """All n in Z^g + eps with (n - c)^T Y (n - c) <= R^2 (Fincke-Pohst)."""
    g = len(Y)
    L = _cholesky(Y)
    points = []

    def rec(level, fixed, budget):
        # level runs from g-1 down to 0; coordinates above `level` are fixed
        i = level
        shift = sum(L[j][i] * (fixed[j] - c[j]) for j in range(i + 1, g))
        half = math.sqrt(max(budget, 0.0)) / L[i][i]
        center = c[i] - shift / L[i][i]
        lo = math.ceil(center - half - eps[i])
        hi = math.floor(center + half - eps[i])
        for k in range(lo, hi + 1):
            x = k + eps[i]
            t = L[i][i] * (x - c[i]) + shift
            rest = budget - t * t
            if rest < 0.0:
                continue
            fixed[i] = x
            if i == 0:
                points.append(tuple(fixed))
            else:
                rec(i - 1, fixed, rest)

    rec(g - 1, [0.0] * g, R * R)
    return points


# ----------------------------------------------------------------------
# brute-force sums
# ----------------------------------------------------------------------

def _as_lists(z, B):
    z = [complex(v) for v in (z if hasattr(z, "__len__") else [z])]
    rows = B.tolist() if hasattr(B, "tolist") else B
    if not hasattr(rows, "__len__"):
        rows = [[rows]]
    rows = [[complex(v) for v in (r if hasattr(r, "__len__") else [r])] for r in rows]
    return z, rows


def _sums(z, B, dirs=(), eps=None, delta=None, bins=False, digits=DIGITS):
    """Brute-force jet sums; with bins=True also split f/d0 by n mod 2."""
    z, B = _as_lists(z, B)
    g = len(z)
    eps = [float(e) for e in (eps or [0.0] * g)]
    delta = [float(d) for d in (delta or [0.0] * g)]
    dirs = [[complex(v) for v in (d if hasattr(d, "__len__") else [d])] for d in dirs]
    Y = [[B[i][j].imag for j in range(g)] for i in range(g)]
    Yinv = _inverse(Y)
    y = [v.imag for v in z]
    c = [-sum(Yinv[i][j] * y[j] for j in range(g)) for i in range(g)]
    cnorm = math.sqrt(sum(v * v for v in c)) + 1.0
    dnorms = [math.sqrt(sum(abs(v) ** 2 for v in d)) for d in dirs]
    R = _radius(g, [Yinv[i][i] for i in range(g)], cnorm, dnorms, digits)
    pts = _ellipsoid(Y, c, eps, R)
    with mp.workdps(digits + 10):
        Bm = [[mpc(v) for v in row] for row in B]
        zm = [mpc(v) + mpf(d) for v, d in zip(z, delta)]
        dm = [[mpc(v) for v in d] for d in dirs]
        two_pi_i = 2 * mp.pi * mpc(0, 1)
        pi_i = mp.pi * mpc(0, 1)
        step_ratio = mpmath.exp(2 * pi_i * Bm[0][0])
        step_fac = [two_pi_i * d[0] for d in dm]
        acc = {k: [mpc(0)] * (2 ** g if bins else 1) for k in _KEYS}
        prev = None
        for n in pts:
            # consecutive points of one row differ by 1 in n[0]: step the
            # term by a ratio that itself steps by exp(2 pi i B00)
            if prev is not None and n[1:] == prev[1:] and n[0] == prev[0] + 1:
                term *= ratio
                ratio *= step_ratio
                fac = [f + s for f, s in zip(fac, step_fac)]
            else:
                nm = [mpf(v) for v in n]
                quad = sum(Bm[i][j] * nm[i] * nm[j] for i in range(g) for j in range(g))
                lin = sum(zm[i] * nm[i] for i in range(g))
                term = mpmath.exp(pi_i * quad + two_pi_i * lin)
                cross = sum(Bm[0][j] * nm[j] for j in range(1, g))
                ratio = mpmath.exp(pi_i * Bm[0][0] * (2 * nm[0] + 1)
                                   + two_pi_i * (cross + zm[0]))
                fac = [two_pi_i * sum(d[i] * nm[i] for i in range(g)) for d in dm]
            prev = n
            b = 0
            if bins:
                for v in n:
                    b = (b << 1) | (int(round(v)) & 1)
            acc["f"][b] += term
            if fac:
                acc["d0"][b] += fac[0] * term
            if len(fac) == 2:
                t1 = fac[1] * term
                acc["d1"][b] += t1
                acc["d01"][b] += fac[0] * t1
    keys = ["f"] + (["d0"] if dirs else []) + (["d1", "d01"] if len(dirs) == 2 else [])
    values = {k: (acc[k] if bins else acc[k][0]) for k in keys}
    peak = _peaks(z, B, eps, dirs)
    return Jet(values, {k: peak[k] for k in keys})


def peaks(z, B, dirs=(), eps=None) -> dict:
    """Largest term moduli of each jet series, without summing it."""
    z, B = _as_lists(z, B)
    dirs = [[complex(v) for v in (d if hasattr(d, "__len__") else [d])] for d in dirs]
    return _peaks(z, B, eps or [0.0] * len(z), dirs)


def _peaks(z, B, eps, dirs):
    g = len(z)
    Y = [[B[i][j].imag for j in range(g)] for i in range(g)]
    Yinv = _inverse(Y)
    c = [-sum(Yinv[i][j] * z[j].imag for j in range(g)) for i in range(g)]
    # terms with q > 5^2 are below exp(-78) of the envelope
    pts = _ellipsoid(Y, c, [float(e) for e in eps], 5.0)
    out = {k: 0.0 for k in ("f", "d0", "d1", "d01")}
    for n in pts:
        expo = -math.pi * sum(Y[i][j] * n[i] * n[j] for i in range(g) for j in range(g))
        expo -= 2 * math.pi * sum(n[i] * z[i].imag for i in range(g))
        mag = math.exp(expo) if expo < 700 else math.inf
        out["f"] = max(out["f"], mag)
        fac = [2 * math.pi * abs(sum(d[i] * n[i] for i in range(g))) for d in dirs]
        if fac:
            out["d0"] = max(out["d0"], fac[0] * mag)
        if len(fac) == 2:
            out["d1"] = max(out["d1"], fac[1] * mag)
            out["d01"] = max(out["d01"], fac[0] * fac[1] * mag)
    return out


def brute_jet(z, B, dirs=(), eps=None, delta=None, digits=DIGITS) -> Jet:
    """theta[eps,delta](z|B) and up to two directional derivatives, any g."""
    return _sums(z, B, dirs, eps, delta, digits=digits)


# ----------------------------------------------------------------------
# genus 1 through mpmath.jtheta
# ----------------------------------------------------------------------

def jtheta_jet(z, tau, dirs=(), eps=0.0, delta=0.0, digits=DIGITS) -> Jet:
    """Genus-1 jet through mpmath.jtheta and the characteristic shift.

    theta[eps,delta](z|tau) = exp(pi i tau eps^2 + 2 pi i eps (z + delta))
                              * theta(z + delta + tau eps | tau),
    theta(w|tau) = jtheta(3, pi w, exp(pi i tau)).
    """
    z = complex(z[0] if hasattr(z, "__len__") else z)
    tau = complex(tau)
    dirs = [complex(d[0] if hasattr(d, "__len__") else d) for d in dirs]
    with mp.workdps(digits + 10):
        zm, tm = mpc(z), mpc(tau)
        em, dl = mpf(eps), mpf(delta)
        pi_i = mp.pi * mpc(0, 1)
        q = mpmath.exp(pi_i * tm)
        w = zm + dl + tm * em
        T = [mpmath.jtheta(3, mp.pi * w, q, k) * mp.pi ** k for k in range(3)]
        b = 2 * pi_i * em
        E = mpmath.exp(pi_i * tm * em ** 2 + b * (zm + dl))
        f = E * T[0]
        f1 = E * (b * T[0] + T[1])
        f2 = E * (b * b * T[0] + 2 * b * T[1] + T[2])
        vals = {"f": f}
        if dirs:
            vals["d0"] = mpc(dirs[0]) * f1
        if len(dirs) == 2:
            vals["d1"] = mpc(dirs[1]) * f1
            vals["d01"] = mpc(dirs[0]) * mpc(dirs[1]) * f2
    peak = _peaks([z], [[tau]], [eps], [[d] for d in dirs])
    return Jet(vals, {k: peak[k] for k in vals})


def jet(z, B, dirs=(), eps=None, delta=None, digits=DIGITS) -> Jet:
    """Oracle jet: jtheta for genus 1, the ellipsoid sum otherwise."""
    z, rows = _as_lists(z, B)
    if len(z) == 1:
        return jtheta_jet(z[0], rows[0][0], [d[0] if hasattr(d, "__len__") else d
                                            for d in dirs],
                          (eps or [0.0])[0], (delta or [0.0])[0], digits)
    return brute_jet(z, rows, dirs, eps, delta, digits)


def level_two(Z, B, deriv_dir=None, digits=DIGITS) -> Jet:
    """theta[eps,0](2Z|2B) over eps in lex order, as one parity-binned sum.

    With deriv_dir the values are d/dZ along it.  ``self["f"]`` (or
    ``self["d0"]``) is the list of 2^g values; ``peak`` is the largest
    term over all bins.
    """
    Z, rows = _as_lists(Z, B)
    half = [[v / 2.0 for v in row] for row in rows]
    dirs = () if deriv_dir is None else (deriv_dir,)
    return _sums(Z, half, dirs, bins=True, digits=digits)


# ----------------------------------------------------------------------
# comparisons against engine outputs
# ----------------------------------------------------------------------

def scaled_to_mp(mantissa: complex, logscale: float):
    """An engine (mantissa, logscale) pair as an mpmath complex."""
    with mp.workdps(DIGITS + 10):
        return mpc(mantissa) * mpmath.exp(mpf(logscale))


def gap(engine_value, oracle_value, peak: float) -> float:
    """|engine - oracle| in units of the largest series term."""
    with mp.workdps(DIGITS + 10):
        return float(abs(engine_value - oracle_value)) / max(peak, 1e-300)


def theta_zero_i() -> mpf:
    """Closed form theta(0 | i) = pi^(1/4) / Gamma(3/4)."""
    with mp.workdps(DIGITS + 10):
        return mp.pi ** mpf(0.25) / mpmath.gamma(mpf(0.75))
