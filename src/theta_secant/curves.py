"""Jacobian data from genus-2 curves: periods, Abel maps, tangents,
secancy vectors.

A curve is the hyperelliptic model y^2 = p(x) with p monic of degree 5
(one branch point at infinity).  Branch points are sorted by (Re, Im); the
finite cuts are [e1,e2] and [e3,e4], the odd cut runs from e5 to infinity
along the outward ray.  A global single-valued branch Y(x) of sqrt(p) on
the cut plane is built as a product of per-root square roots whose
individual branch cuts are aligned with the cut segments, so the pairwise
sign flips cancel everywhere except across the cuts themselves.  All
integrals are straight(-ish) polylines routed around the cuts; endpoint
square-root singularities are removed by substitutions, and the on-cut
a-period integrals use the closed form of the two vanishing factors.

Homology convention (fixed, validated by the Riemann relations and by the
downstream trisecant residuals): with chain cycles gamma_k around the
consecutive sorted pairs (e1,e2), (e2,e3), (e3,e4), (e4,e5),

    a1 = gamma_1,  a2 = gamma_3,  b1 = gamma_2 + gamma_4,  b2 = gamma_4.

Each gamma_k integral equals twice the segment integral between its two
branch points taken with the global branch Y.

The Gauss-Legendre rules (RULE_SIZES nodes) are read from the frozen table
data/gauss_legendre.npy, whose two rows hold the nodes and the weights on
[-1, 1] of every size in turn.  It was written by numpy's leggauss, and
this one-liner, run from the repository root, writes it again:

    python -c "import numpy as np; from numpy.polynomial.legendre import leggauss; np.save('src/theta_secant/data/gauss_legendre.npy', np.hstack([leggauss(24 * 2 ** k) for k in range(7)]))"
"""

from __future__ import annotations

import cmath
import json
import math
from collections.abc import Mapping
from functools import lru_cache
from numbers import Number, Real
from pathlib import Path

import numpy as np

from .errors import (
    BadPeriods,
    BranchPoint,
    CoincidentPoints,
    DegenerateCurve,
    PathFailure,
    QuadratureStall,
    ValidationError,
)
from .theta import _EPS, Frozen, PeriodMatrix, _inverse2, _sum_last, lattice_distance

QUAD_TOL = 1e-11
QUAD_MAX_NODES = 2 ** 13
CUT_CLEARANCE = 1e-3
DETOUR_SCALE = 0.4            # route's first detour, per unit length of the blocking cut
# node doubling from 24, up to 192 per panel (_seg_adaptive) and 1536 per
# on-cut integral (cut_integral)
RULE_SIZES = tuple(24 * 2 ** k for k in range(7))
ROOT_SWEEPS = 64             # cap of _roots' Aberth-Ehrlich sweeps
# _roots' start directions, at 36.87 + 72 k degrees (k < 5)
_STARTS = [(0.8 + 0.6j) * complex(0.30901699437494745, 0.9510565162951535) ** k
           for k in range(5)]


# ----------------------------------------------------------------------
# specs and points
# ----------------------------------------------------------------------

class CurveSpec(Frozen):
    """A genus-2 curve y^2 = p(x), of the one kind "hyperelliptic2".

    poly holds the coefficients of p in increasing degree order,
    [c0, c1, c2, c3, c4, 1], each a finite number or [re, im] pair (the
    corpus form), as a tuple of complex; the leading coefficient must be
    exactly monic to 1e-9.  roots holds the five roots of p sorted by
    (Re, Im) (_roots, read-only), which the validation computes.
    """

    def __init__(self, kind, poly=None):
        if kind != "hyperelliptic2":
            raise ValidationError(f"unknown curve kind {kind!r}")
        if poly is None:
            raise ValidationError("hyperelliptic2 curve needs poly")
        if not isinstance(poly, (list, tuple, np.ndarray)):
            raise ValidationError("poly must be a list of coefficients")
        c = tuple(map(_coefficient, poly))
        if len(c) != 6:
            raise ValidationError("poly must have 6 coefficients (degree 5)")
        if not all(cmath.isfinite(v) for v in c):
            raise ValidationError("poly coefficients must be finite")
        if abs(c[5] - 1.0) > 1e-9:
            raise ValidationError("poly must be monic (leading coefficient 1)")
        # Root separation relative to the root scale S = max |root|, read
        # at the critical points: two roots d*S apart give
        # |p| ~ (d/2)^2 S^5 there (so d of a few 1e-6 is rejected),
        # and a repeated root of any multiplicity gives |p| at rounding
        # level, below 5e-15 S^5, whereas the computed roots of a double
        # root stay about 1e-8 S apart.  S^5 or p there must not overflow.
        roots = _roots(c)
        try:
            crit = _roots([k * ck for k, ck in enumerate(c)][1:])
            low = min(abs(_horner(c, z)[0]) for z in crit)
            scale = max(map(abs, roots)) ** 5
        except OverflowError:
            low = math.inf
        if not math.isfinite(low):
            raise ValidationError("poly coefficients too large for the degeneracy check")
        if not low > 1e-12 * scale:
            i, j = min(((i, j) for i in range(5) for j in range(i)),
                       key=lambda ij: abs(roots[ij[0]] - roots[ij[1]]))
            raise DegenerateCurve(
                f"branch points {roots[i]:.6g} and {roots[j]:.6g} collide")
        roots = np.array(roots)
        roots.setflags(write=False)
        self._set(kind=kind, poly=c, roots=roots)


def _coefficient(v) -> complex:
    """One poly coefficient: a number, or a pair [re, im] of real numbers."""
    if isinstance(v, Number):
        return complex(v)
    if isinstance(v, (list, tuple)) and len(v) == 2 and all(isinstance(x, Real) for x in v):
        return complex(v[0], v[1])
    raise ValidationError(f"poly coefficient {v!r} is not a number or an [re, im] pair")


def _horner(c, z) -> tuple:
    """(p(z), p'(z), sum |c_k| |z|^k) of the polynomial with coefficients c,
    in increasing degree order, by Horner's rule."""
    f, df, size, r = c[-1], 0j, abs(c[-1]), abs(z)
    for ck in c[-2::-1]:
        df = df * z + f
        f = f * z + ck
        size = size * r + abs(ck)
    return f, df, size


def _roots(c) -> list:
    """The n <= 5 roots of the polynomial with coefficients c (increasing
    degree order, c[n] != 0), sorted by (Re, Im), in Python complex
    arithmetic, so that every machine computes the same bits.

    Aberth-Ehrlich iteration (Aberth, Math. Comp. 27, 1973) from n points on
    a circle about the centroid m = -c[n-1] / (n c[n]) of the roots, whose
    radius is the power of two next above max_k |b_k|^(1/(n-k)), b the
    coefficients of p(x + m) (radius 0, every root m, when they vanish).  A
    sweep moves each unsettled root z by p / (p' - p sum_j 1/(z - z_j)), the
    other roots z_j as last moved; z settles after the step from a point
    where |p(z)| <= 8 n eps sum |c_k| |z|^k, rounding level.  ValidationError
    when a root is not finite (the coefficients too large) or some root has
    not settled after ROOT_SWEEPS sweeps.
    """
    n = len(c) - 1
    c = [ck / c[n] for ck in c]
    m = -c[n - 1] / n
    b = list(c)
    for i in range(n):
        for k in range(n - 1, i - 1, -1):
            b[k] += m * b[k + 1]
    try:
        exps = [-(-math.frexp(abs(b[k]))[1] // (n - k)) for k in range(n) if b[k]]
        z = [m + (math.ldexp(1.0, max(exps)) if exps else 0.0) * d for d in _STARTS[:n]]
        settled = [False] * n
        for _ in range(ROOT_SWEEPS):
            for j, zj in enumerate(z):
                if settled[j]:
                    continue
                f, df, size = _horner(c, zj)
                den = df - f * sum(1.0 / (zj - zk) for zk in z if zk != zj)
                if den:
                    z[j] = zj - f / den
                settled[j] = abs(f) <= 8 * n * _EPS * size
                if not cmath.isfinite(z[j]):
                    raise OverflowError
            if all(settled):
                return sorted(z, key=lambda v: (v.real, v.imag))
    except OverflowError:
        raise ValidationError("poly coefficients too large for the root iteration") from None
    raise ValidationError(f"the roots of poly did not settle in {ROOT_SWEEPS} sweeps")


class CurvePoint(Frozen):
    """Point (x, sheet) on a genus-2 curve."""

    def __init__(self, x, sheet=1):
        if sheet not in (1, -1):
            raise ValidationError("sheet must be +1 or -1")
        self._set(x=x, sheet=sheet)


# ----------------------------------------------------------------------
# geometry helpers
# ----------------------------------------------------------------------

def _pt_seg(x, u, v) -> float:
    w = v - u
    L2 = abs(w) ** 2
    if L2 == 0.0:
        return abs(x - u)
    s = min(max(((x - u).conjugate() * w).real / L2, 0.0), 1.0)
    return abs(x - (u + s * w))


def _orient(a, b, c) -> int:
    v = ((b - a).conjugate() * (c - a)).imag
    return int(v > 0) - int(v < 0)


def _seg_seg_dist(p1, p2, q1, q2) -> float:
    p1, p2, q1, q2 = complex(p1), complex(p2), complex(q1), complex(q2)
    d1, d2 = _orient(q1, q2, p1), _orient(q1, q2, p2)
    d3, d4 = _orient(p1, p2, q1), _orient(p1, p2, q2)
    if d1 * d2 < 0 and d3 * d4 < 0:
        return 0.0
    return min(_pt_seg(p1, q1, q2), _pt_seg(p2, q1, q2),
               _pt_seg(q1, p1, p2), _pt_seg(q2, p1, p2))


@lru_cache(maxsize=1)
def _rules() -> dict:
    """{n: (nodes, weights)} of the Gauss-Legendre rules on [0, 1], n in
    RULE_SIZES, from the frozen table (read at the first quadrature)."""
    table = np.load(Path(__file__).parent / "data" / "gauss_legendre.npy")
    parts = np.split(table, np.cumsum(RULE_SIZES)[:-1], axis=1)
    return {n: (0.5 * (x + 1.0), 0.5 * w) for n, (x, w) in zip(RULE_SIZES, parts)}


def _doubled(fn, top: int) -> tuple:
    """(value, nodes): fn(n) for n doubling from 24 to at most top, until
    two successive values agree to QUAD_TOL, and the nodes of the doubled
    rules spent; value is None if they never agree."""
    n = 24
    prev = fn(n)
    spent = 0
    while n < top:
        n *= 2
        spent += n
        cur = fn(n)
        if np.max(np.abs(cur - prev)) < QUAD_TOL:
            return cur, spent
        prev = cur
    return None, spent


# ----------------------------------------------------------------------
# AbelData
# ----------------------------------------------------------------------

class AbelData:
    """One genus-2 curve: its branch, cut routing and quadrature, and the
    Jacobian data computed with them (curve, B, a_periods, normalization
    and basepoint, the first branch point).  cuts holds the three cuts as
    (start, end) segments, the odd one ending ray_len = 60 scale out along
    ray_dir, where scale = max(1, max |e|) is the curve's length scale.

    Raises BadPeriods, a NumericalError, if the a-periods are singular,
    or if the computed period matrix is asymmetric beyond 1e-8 or its
    imaginary part is not positive definite (a non-positive eigenvalue):
    on a valid curve these are failures of the quadrature or of the
    homology orientation, surfaced rather than repaired.
    """

    def __init__(self, curve: CurveSpec):
        self.curve = curve
        self.e = e = curve.roots
        d = e[4] - np.mean(e[:4])
        self.ray_dir = d / abs(d)
        th1, th2 = np.angle(e[1] - e[0]), np.angle(e[3] - e[2])
        th3 = np.angle(self.ray_dir)
        self.fac_angle = np.array([th1, th1, th2, th2, th3])
        self.scale = max(1.0, float(np.max(np.abs(e))))
        self.ray_len = 60.0 * self.scale
        self.cuts = ((e[0], e[1]), (e[2], e[3]),
                     (e[4], e[4] + self.ray_len * self.ray_dir))

        gamma1 = 2.0 * self.cut_integral(0)
        gamma3 = 2.0 * self.cut_integral(1)
        gamma2 = 2.0 * self.path_integral(self.route(e[1], e[2]))
        gamma4 = 2.0 * self.path_integral(self.route(e[3], e[4]))
        self.a_periods = np.stack([gamma1, gamma3], axis=1)
        b_periods = np.stack([gamma2 + gamma4, gamma4], axis=1)
        det, self.normalization = _inverse2(self.a_periods.tolist())
        if abs(det) < 1e-14:
            raise BadPeriods("a-period matrix is singular")
        Bm = _sum_last(self.normalization[:, None, :] * b_periods.T)
        asym = float(np.max(np.abs(Bm - Bm.T)))
        if asym > 1e-8:
            raise BadPeriods(f"period matrix asymmetric by {asym:.2e}; "
                             "homology orientation inconsistent for this curve")
        try:
            self.B = PeriodMatrix(0.5 * (Bm + Bm.T))
        except ValidationError as exc:        # NonPosDef, or a non-finite entry
            raise BadPeriods(f"computed period matrix: {exc}") from exc
        self.basepoint = complex(e[0])

    # -- branch ---------------------------------------------------------

    def sqrt_br(self, w, th):
        w = np.asarray(w, dtype=complex)
        a = np.angle(w)
        a = th + np.mod(a - th, 2.0 * np.pi)
        return np.sqrt(np.abs(w)) * np.exp(0.5j * a)

    def Y(self, x, skip=()):
        """The product of the branch factors sqrt_br(x - e[j], fac_angle[j])
        over j not in skip: the factors as the rows of one array, multiplied
        in index order."""
        x = np.asarray(x, dtype=complex)
        keep = [j for j in range(5) if j not in skip]
        shape = (-1,) + (1,) * x.ndim
        out = np.ones_like(x)
        for factor in self.sqrt_br(x - self.e[keep].reshape(shape),
                                   self.fac_angle[keep].reshape(shape)):
            out = out * factor
        return out

    # -- routing --------------------------------------------------------

    def seg_clear(self, P, Q) -> bool:
        for (u, v) in self.cuts:
            if _seg_seg_dist(P, Q, u, v) < CUT_CLEARANCE:
                # contact at an endpoint that is a branch point is fine;
                # retest a slightly shrunk open segment
                if min(abs(P - u), abs(P - v), abs(Q - u), abs(Q - v)) < 1e-9:
                    Ps = P + (Q - P) * 0.02
                    Qs = Q + (P - Q) * 0.02
                    if _seg_seg_dist(Ps, Qs, u, v) < CUT_CLEARANCE:
                        return False
                else:
                    return False
        return True

    def route(self, P, Q, depth=0) -> list:
        """Cut-avoiding polyline from P to Q (both off the cuts)."""
        if depth > 8:
            raise PathFailure(f"no admissible path from {P:.4g} to {Q:.4g}")
        if self.seg_clear(P, Q):
            return [P, Q]
        blocking = None
        for (u, v) in self.cuts:
            d = _seg_seg_dist(P, Q, u, v)
            if d < CUT_CLEARANCE:
                mid = 0.5 * (u + v)
                if blocking is None or abs(mid - P) < blocking[0]:
                    blocking = (abs(mid - P), u, v)
        _, u, v = blocking
        L = abs(v - u)
        if L > 10.0 * self.scale:
            base, outward, Lref = u, -(v - u) / abs(v - u), 1.0
        else:
            mid = 0.5 * (P + Q)
            base = u if abs(u - mid) < abs(v - mid) else v
            other = v if base == u else u
            outward = (base - other) / abs(base - other)
            Lref = L
        for k in range(8):
            kappa = DETOUR_SCALE * (1.6 ** k)
            for W in (base + kappa * Lref * outward,
                      base + kappa * Lref * (outward + 1j * outward) / np.sqrt(2.0),
                      base + kappa * Lref * (outward - 1j * outward) / np.sqrt(2.0)):
                if self.seg_clear(P, W) and self.seg_clear(W, Q):
                    return [P, W, Q]
        W = base + 0.5 * Lref * outward
        left = self.route(P, W, depth + 1)
        right = self.route(W, Q, depth + 1)
        return left[:-1] + right

    # -- quadrature -----------------------------------------------------

    def branch_index(self, x) -> int | None:
        d = np.abs(self.e - x)
        j = int(np.argmin(d))
        return j if d[j] < 1e-12 else None

    def _seg_nodes(self, P, jP, Q, jQ, n):
        t, w = _rules()[n]
        if jP is not None:
            x = P + (Q - P) * t ** 2
            cE = self.sqrt_br(Q - P, self.fac_angle[jP])
            base = 2.0 * (Q - P) * t / (cE * t * self.Y(x, skip=(jP,)))
        elif jQ is not None:
            return -self._seg_nodes(Q, jQ, P, None, n)
        else:
            x = P + (Q - P) * t
            base = (Q - P) / self.Y(x)
        return np.array([np.sum(w * base), np.sum(w * base * x)])

    def _cut_nodes(self, k, n):
        """On-cut integral along pair cut k from e[2k] to e[2k+1].

        The two vanishing square-root factors combine on the segment to
        i*exp(i*theta)*(L/2)*sin(phi) under x = m + h cos(phi), leaving a
        regular integrand -i/R(x) with R the remaining three factors.
        """
        u, v = self.e[2 * k], self.e[2 * k + 1]
        m, h = 0.5 * (u + v), 0.5 * (v - u)
        t, w = _rules()[n]
        phi = np.pi * t
        wphi = np.pi * w
        x = m + h * np.cos(phi)
        base = -1j / self.Y(x, skip=(2 * k, 2 * k + 1))
        return np.array([np.sum(wphi * base), np.sum(wphi * base * x)])

    def cut_integral(self, k):
        value, _ = _doubled(lambda n: self._cut_nodes(k, n), 1536)
        if value is None:
            raise QuadratureStall("no convergence by 1536 nodes")
        return value

    def _seg_adaptive(self, P, jP, Q, jQ, budget: list):
        """Node doubling per panel, bisecting panels that refuse to settle.

        A panel grows its rule up to 192 nodes and is then bisected, which
        resolves integrands that pass close to a cut where one larger rule
        would not; the total node budget per original segment enforces the
        2^13 stall limit.
        """
        value, spent = _doubled(lambda n: self._seg_nodes(P, jP, Q, jQ, n), 192)
        budget[0] += spent
        if value is not None:
            return value
        if budget[0] > QUAD_MAX_NODES:
            raise QuadratureStall(
                f"no convergence within {QUAD_MAX_NODES} total nodes")
        M = 0.5 * (P + Q)
        return (self._seg_adaptive(P, jP, M, None, budget)
                + self._seg_adaptive(M, None, Q, jQ, budget))

    def segment_integral(self, P, Q):
        jP, jQ = self.branch_index(P), self.branch_index(Q)
        budget = [0]
        if jP is not None and jQ is not None:
            m = 0.5 * (P + Q)
            return (self._seg_adaptive(P, jP, m, None, budget)
                    + self._seg_adaptive(m, None, Q, jQ, budget))
        return self._seg_adaptive(P, jP, Q, jQ, budget)

    def path_integral(self, waypoints):
        total = np.zeros(2, dtype=complex)
        for P, Q in zip(waypoints[:-1], waypoints[1:]):
            total += self.segment_integral(P, Q)
        return total

    def point_y(self, P: CurvePoint) -> complex:
        """The y coordinate implied by (x, sheet) under the global branch."""
        return P.sheet * complex(self.Y(P.x))


def build_abel_data(curve: CurveSpec) -> AbelData:
    """Periods and normalized differentials for a genus-2 curve (see AbelData)."""
    return AbelData(curve)


# ----------------------------------------------------------------------
# operations
# ----------------------------------------------------------------------

def abel_map(data: AbelData, P: CurvePoint) -> np.ndarray:
    """Abel map with basepoint at the first branch point, modulo lattice,
    integrated along the cut-avoiding route from the basepoint to P.x.

    The hyperelliptic involution sends (x, sheet) to (x, -sheet) and the
    basepoint is a Weierstrass point, so the two sheets differ by a global
    sign.
    """
    raw = data.path_integral(data.route(data.basepoint, complex(P.x)))
    return P.sheet * _sum_last(data.normalization * raw)


def abel_tangent(data: AbelData, P: CurvePoint) -> np.ndarray:
    """Derivative of the Abel map in the affine x chart at P."""
    x = complex(P.x)
    if abs(_horner(data.curve.poly, x)[0]) < 1e-10:
        raise BranchPoint(f"abel_tangent undefined at branch point x={x:.6g}")
    y = data.point_y(P)
    return _sum_last(data.normalization * (np.array([1.0, x]) / y))


def fay_vectors(data: AbelData, a: CurvePoint, b: CurvePoint,
                c: CurvePoint, d: CurvePoint):
    """Secancy vectors U = A(c)-A(b), V = A(d)-A(b), A = A(a)-A(b)."""
    images = [abel_map(data, p) for p in (a, b, c, d)]
    names = "abcd"
    for i in range(4):
        for j in range(i + 1, 4):
            if lattice_distance(images[i] - images[j], data.B) < 1e-8:
                raise CoincidentPoints(
                    f"points {names[i]} and {names[j]} coincide mod lattice")
    Aa, Ab, Ac, Ad = images
    return Ac - Ab, Ad - Ab, Aa - Ab


# ----------------------------------------------------------------------
# corpus files
# ----------------------------------------------------------------------

def parse_curve_record(rec) -> CurveSpec:
    """The CurveSpec of one corpus record, a JSON object."""
    if not isinstance(rec, dict):
        raise ValidationError("curve record must be a JSON object")
    return CurveSpec(rec.get("kind"), poly=rec.get("poly"))


class Corpus(Mapping):
    """Curve records by id, each parsed and validated when it is looked up,
    so that a bad record fails only its own lookups; each id maps to the
    (index, record) pairs that claim it, and two claims fail its lookups."""

    def __init__(self, records: dict):
        self._records = records

    def __getitem__(self, ident) -> CurveSpec:
        claims = self._records[ident]
        if len(claims) > 1:
            raise ValidationError(f"curve id {ident!r} is claimed by records "
                                  f"{', '.join(str(i) for i, _ in claims)}")
        return parse_curve_record(claims[0][1])

    def __contains__(self, ident) -> bool:
        return ident in self._records

    def __iter__(self):
        return iter(self._records)

    def __len__(self) -> int:
        return len(self._records)


def load_corpus(path) -> Corpus:
    """Load a JSON corpus: array of records with optional "id" keys."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read corpus file {path}: "
                              f"{exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ValidationError(f"corpus file {path} is not UTF-8 text") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"corpus file {path} is not valid JSON") from exc
    if not isinstance(data, list):
        raise ValidationError("curve corpus must be a JSON array")
    records = {}
    for i, rec in enumerate(data):
        ident = rec.get("id", f"curve{i}") if isinstance(rec, dict) else f"curve{i}"
        records.setdefault(str(ident), []).append((i, rec))
    return Corpus(records)


def default_corpus_path() -> Path:
    return Path(__file__).parent / "data" / "corpus.json"


def default_corpus() -> Corpus:
    return load_corpus(default_corpus_path())
