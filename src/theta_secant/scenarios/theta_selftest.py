"""The theta-selftest scenario: evenness, quasi-periodicity, the jets
against finite differences and the stability of the truncation radius,
on seeded Siegel matrices of genus 1 and 2."""

from __future__ import annotations

import numpy as np

from ..reports import CheckRecord, Report, ScenarioConfig
from ..rng import Xoshiro256, random_siegel, random_z
from ..theta import PeriodMatrix, relative_gap, rescale, theta_jets, truncation_radius


def _values(Z, B: PeriodMatrix, radius: int | None = None) -> tuple:
    """theta at the rows of Z from one pass, as (mantissas, logscales)."""
    jets = theta_jets(Z, B, radius=radius)
    return jets.sums["f"], jets.logscale


def _rel_diff(a: tuple, b: tuple) -> float:
    """relative_gap of two (mantissas, logscales) pairs, each row at its larger scale."""
    (ma, la), (mb, lb) = a, b
    ref = np.maximum(la, lb)
    ma, mb = rescale(ma, la, ref), rescale(mb, lb, ref)
    return relative_gap(ma - mb, ma, mb)


def run_theta_selftest(config: ScenarioConfig) -> Report:
    rng = Xoshiro256(config.seed)
    n_even = config.win("samples")
    n_qp = max(20, n_even // 5)
    n_fd = max(10, n_even // 10)
    mats = [random_siegel(rng, 1 + (k % 2)) for k in range(6)]

    def points(count: int, scale: float = 0.7) -> list:
        """count seeded points, the k-th for mats[k % 6], as (B, Z) per matrix."""
        zs = [random_z(rng, mats[k % 6].g, scale) for k in range(count)]
        return [(B, np.array(zs[i::6])) for i, B in enumerate(mats) if zs[i::6]]

    worst_even = max(_rel_diff(_values(Z, B), _values(-Z, B)) for B, Z in points(n_even))
    worst_qp = 0.0
    for B, Z in points(n_qp):
        f, ls = _values(Z, B)
        for j in range(B.g):
            pref = -1j * np.pi * B.entries[j, j] - 2j * np.pi * Z[:, j]
            worst_qp = max(worst_qp, _rel_diff(_values(Z + B.entries[:, j], B),
                                               (f * np.exp(1j * pref.imag), ls + pref.real)))
    # central differences with h = 1e-4 against the 2-jet along (V, V): the
    # first order from z +- hV, the second from the four-point cross
    # difference, both O(h^2) accurate
    worst_fd1 = worst_fd2 = 0.0
    h = 1e-4
    for k in range(n_fd):
        B = mats[k % 6]
        z = random_z(rng, B.g, scale=0.4)
        V = np.array(rng.complex_vector(B.g, scale=0.8))
        jet = theta_jets(z[None], B, dirs=(V, V))
        hV = h * V
        f, ls = _values(np.array([z + hV, z - hV, z + hV + hV, z + hV - hV,
                                  z - hV + hV, z - hV - hV]), B)
        ref = ls.max()
        f = rescale(f, ls, ref)
        fd1 = (f[0] - f[1]) * (0.5 / h)
        fd2 = (f[2] - f[3] - f[4] + f[5]) * (0.25 / h ** 2)
        worst_fd1 = max(worst_fd1, _rel_diff((jet.sums["d0"], jet.logscale), (fd1, ref)))
        worst_fd2 = max(worst_fd2, _rel_diff((jet.sums["d01"], jet.logscale), (fd2, ref)))
    worst_rad = 0.0
    for B, Z in points(n_fd, scale=0.5):
        r = truncation_radius(B, Z, 1e-13)
        worst_rad = max(worst_rad, _rel_diff(_values(Z, B, radius=r),
                                             _values(Z, B, radius=r + 4)))
    checks = [
        CheckRecord.le("evenness", worst_even, config.tol("evenness")),
        CheckRecord.le("quasi_periodicity", worst_qp, config.tol("quasi_periodicity")),
        CheckRecord.le("fd_first", worst_fd1, config.tol("fd_first")),
        CheckRecord.le("fd_second", worst_fd2, config.tol("fd_second")),
        CheckRecord.le("radius_stability", worst_rad, config.tol("radius_stability")),
    ]
    return Report("theta-selftest", config.seed, checks)
