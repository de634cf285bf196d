"""Acceptance suite: every exit criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one summary line
per criterion.  All thresholds are pinned here, none are calibrated at
run time.  The wall-clock criterion is enforced by the final test, which
uses the session start time from conftest.
"""

import time

import numpy as np
from conftest import SESSION_T0
from theta_secant.divisor import (
    residual_cm7,
    residual_cm7d,
    sample_theta_divisor,
    singular_locus_probe,
)
from theta_secant.dynamics import (
    DiscreteTau,
    PerturbedTau,
    RSState,
    ThetaTau,
    cm5_residual,
    elliptic_zero_crosscheck,
    f2d_residual,
    find_tau_zero,
    rs_integrate,
    track_tau_zero,
    track_zero,
)
from theta_secant.kummer import fit_secancy_discrete
from theta_secant.lattices import (
    LatticeWindow,
    bdhe_fields,
    bdhe_psi_residual,
    find_clear_base_point,
    refit_constants_bdhe,
    refit_constants_toda,
    toda_fields,
    toda_psi_residual,
)
from theta_secant.rng import Xoshiro256, random_siegel, random_z
from theta_secant.series import discrete_residue_consistency
from theta_secant.theta import PeriodMatrix, theta_jets, truncation_radius
from theta_values import rel_diff, value_at, values

B_I = PeriodMatrix([[1j]])


def report(label: str, ok: bool, detail: str):
    print(f"{label}: {'PASS' if ok else 'FAIL'}  ({detail})")
    assert ok, f"{label}: {detail}"


# ----------------------------------------------------------------------
# 1. theta engine suites
# ----------------------------------------------------------------------

def test_ac01_theta_engine():
    t0 = time.perf_counter()
    rng = Xoshiro256(2024)
    mats = [random_siegel(rng, 1 + (k % 2)) for k in range(8)]

    def points(count, scale=0.7):
        """count seeded points, the k-th for mats[k % 8], as (B, Z) per matrix."""
        zs = [random_z(rng, mats[k % len(mats)].g, scale) for k in range(count)]
        return [(B, np.array(zs[i::len(mats)])) for i, B in enumerate(mats)]

    worst_even = max(np.max(rel_diff(value_at(Z, B), value_at(-Z, B)))
                     for B, Z in points(1000))
    worst_qp = 0.0
    for B, Z in points(200):
        f, ls = value_at(Z, B)
        for j in range(B.g):
            pref = -1j * np.pi * B.entries[j, j] - 2j * np.pi * Z[:, j]
            rhs = f * np.exp(1j * pref.imag), ls + pref.real
            worst_qp = max(worst_qp, np.max(rel_diff(value_at(Z + B.entries[:, j], B), rhs)))
    # central differences with h = 1e-4: z +- hV against the first
    # derivative, the four-point cross difference against the second
    worst_fd1 = worst_fd2 = 0.0
    h = 1e-4
    for k in range(100):
        B = mats[k % len(mats)]
        z = random_z(rng, B.g, scale=0.4)
        V = np.array(rng.complex_vector(B.g, scale=0.8))
        hV = h * V
        f, ls = value_at([z + hV, z - hV, z + hV + hV, z + hV - hV, z - hV + hV, z - hV - hV], B)
        ref = ls.max()
        f = f * np.exp(ls - ref)
        fd1 = (f[0] - f[1]) * (0.5 / h), ref
        fd2 = (f[2] - f[3] - f[4] + f[5]) * (0.25 / h ** 2), ref
        worst_fd1 = max(worst_fd1, rel_diff(value_at([z], B, dirs=(V,), key="d0"), fd1)[0])
        worst_fd2 = max(worst_fd2, rel_diff(value_at([z], B, dirs=(V, V), key="d01"), fd2)[0])
    worst_rad = 0.0
    for B, Z in points(100):
        r = truncation_radius(B, Z, 1e-13)
        worst_rad = max(worst_rad, np.max(rel_diff(values(theta_jets(Z, B, radius=r)),
                                                   values(theta_jets(Z, B, radius=r + 4)))))
    elapsed = time.perf_counter() - t0
    ok = (worst_even <= 1e-12 and worst_qp <= 1e-10 and worst_fd1 <= 1e-6
          and worst_fd2 <= 1e-4 and worst_rad <= 1e-13 and elapsed < 30.0)
    report("AC01 theta engine", ok,
           f"even={worst_even:.1e}<=1e-12 qp={worst_qp:.1e}<=1e-10 "
           f"fd1={worst_fd1:.1e}<=1e-6 fd2={worst_fd2:.1e}<=1e-4 "
           f"radius={worst_rad:.1e}<=1e-13 in {elapsed:.1f}s<30s")


# ----------------------------------------------------------------------
# 2. genus-1 three-term identity
# ----------------------------------------------------------------------

def test_ac02_genus1_identity():
    rng = Xoshiro256(13)
    Z = np.array([[(1 + 1j) / 2]])
    worst = 0.0
    for _ in range(20):
        U = random_z(rng, 1, 0.4)
        V = random_z(rng, 1, 0.4)
        worst = max(worst, residual_cm7d(Z, U, V, B_I)[0])
    report("AC02 genus-1 identity", worst <= 1e-10, f"max={worst:.1e}<=1e-10")


# ----------------------------------------------------------------------
# 3. fully discrete secancy fit and controls
# ----------------------------------------------------------------------

def test_ac03_discrete_secancy(x5m1):
    from theta_secant.cli import jacobian_fay_data
    t0 = time.perf_counter()
    B = x5m1.B
    rng = Xoshiro256(301)
    worst_fit = 0.0
    for _ in range(5):
        U, V, A, _ = jacobian_fay_data(x5m1, rng)
        worst_fit = max(worst_fit, fit_secancy_discrete(U, V, A, B).residual)
    ctrl = rng.spawn(99)
    best_ctrl = min(fit_secancy_discrete(random_z(ctrl, 2, 0.35),
                                         random_z(ctrl, 2, 0.35),
                                         random_z(ctrl, 2, 0.35), B).residual
                    for _ in range(5))
    gap = best_ctrl / max(worst_fit, 1e-300)
    elapsed = time.perf_counter() - t0
    ok = worst_fit <= 1e-8 and best_ctrl >= 1e-2 and gap >= 1e4 and elapsed < 120
    report("AC03 discrete secancy", ok,
           f"fit={worst_fit:.1e}<=1e-8 control={best_ctrl:.1e}>=1e-2 "
           f"gap={gap:.1e}>=1e4 in {elapsed:.1f}s<120s")


# ----------------------------------------------------------------------
# 4. fully discrete linear problem on a window
# ----------------------------------------------------------------------

def test_ac04_bdhe_window(x5m1, fay_data, discrete_fit):
    B = x5m1.B
    U, V = fay_data["U"], fay_data["V"]
    As = discrete_fit.As
    win = LatticeWindow(m_range=(-5, 4), n_range=(-5, 4))
    Z = find_clear_base_point(U, V, As, B, seed=41, win=win)
    table = bdhe_fields(U, V, As, discrete_fit.p, discrete_fit.E, Z, win, B)
    res = bdhe_psi_residual(table)
    ep, eE = refit_constants_bdhe(table)
    ab = max(abs(ep - discrete_fit.exp_p) / abs(discrete_fit.exp_p),
             abs(eE - discrete_fit.exp_E) / abs(discrete_fit.exp_E))
    ok = res <= 1e-8 and ab <= 1e-6
    report("AC04 discrete linear problem", ok,
           f"psi residual={res:.1e}<=1e-8 (10x10), A<->B gap={ab:.1e}<=1e-6")


# ----------------------------------------------------------------------
# 5. fully discrete divisor identity
# ----------------------------------------------------------------------

def test_ac05_cm7d_divisor(x5m1, fay_data, divisor_points):
    worst = max(residual_cm7d(divisor_points, fay_data["U"], fay_data["V"], x5m1.B))
    Bd = PeriodMatrix(np.diag([1j, 1.3j]))
    dec = np.array([s.Z for s in sample_theta_divisor(Bd, seed=5, count=5)])
    ctrl = min(residual_cm7d(dec, fay_data["U"], fay_data["V"], Bd))
    ok = worst <= 1e-8 and ctrl >= 1e-2
    report("AC05 discrete divisor identity", ok,
           f"max={worst:.1e}<=1e-8 on 10 samples, "
           f"decomposable control={ctrl:.1e}>=1e-2")


# ----------------------------------------------------------------------
# 6. semi-discrete chain via degeneration
# ----------------------------------------------------------------------

def test_ac06_semidiscrete_chain(x5m1, tangent_data, semidiscrete_fit,
                                 divisor_points):
    B = x5m1.B
    U, V = tangent_data["U"], tangent_data["V"]
    fit = semidiscrete_fit
    As = fit.As
    ts = tuple(np.linspace(-0.3, 0.3, 8))
    win = LatticeWindow(x_range=(-4, 3), t_samples=ts)
    Z = find_clear_base_point(U, V, As, B, seed=43, win=win)
    table = toda_fields(U, V, As, fit.p, fit.E, Z, win, B)
    res = toda_psi_residual(table)
    ep, E = refit_constants_toda(table)
    ab = max(abs(ep - fit.exp_p) / abs(fit.exp_p),
             abs(E - fit.E) / abs(fit.E))
    worst_cm7 = max(residual_cm7(divisor_points, U, V, B))
    ok = (fit.residual <= 1e-7 and res <= 1e-6 and worst_cm7 <= 1e-7
          and ab <= 1e-6)
    report("AC06 semi-discrete chain", ok,
           f"fit={fit.residual:.1e}<=1e-7 psi={res:.1e}<=1e-6 "
           f"cm7={worst_cm7:.1e}<=1e-7 A<->B={ab:.1e}<=1e-6")


# ----------------------------------------------------------------------
# 7. zero law on tracked zeros
# ----------------------------------------------------------------------

def test_ac07_zero_law():
    U1 = np.array([0.85 + 0.00j])
    V1 = np.array([-0.25 + 0.10j])
    Z1 = np.array([0.05 + 0.21j])
    grid = np.linspace(0.0, 0.5, 101)
    path = track_tau_zero(U1, V1, Z1, B_I, grid)
    res = cm5_residual(path, U1, V1, Z1, B_I)
    base = ThetaTau(U1, V1, Z1, B_I)
    pert = PerturbedTau(base, 0.05, x_ref=path.eta[0] + 0.5)
    pathp = track_zero(pert, grid, x0=path.eta[0])
    ctrl = cm5_residual(pathp, U1, V1, Z1, B_I, tau=pert)
    ok = res <= 1e-6 and ctrl >= 1e-2
    report("AC07 zero law", ok,
           f"residual={res:.1e}<=1e-6 (101 pts), perturbed={ctrl:.1e}>=1e-2")


# ----------------------------------------------------------------------
# 8. interacting-zero dynamics
# ----------------------------------------------------------------------

def test_ac08_particle_dynamics():
    st3 = RSState(x=np.array([0.0, 1.7 + 0.4j, -1.5 + 0.9j]),
                  xdot=np.array([0.3, 0.2 - 0.1j, -0.25 + 0.05j]))
    tr3 = rs_integrate(st3, 1.0, 1e-3)
    drift = float(max(abs(tr3.xdot[k].sum() - tr3.xdot[0].sum())
                      for k in range(len(tr3.t))))
    dev, _, _ = elliptic_zero_crosscheck(1j, 0.35 + 0.02j, 0.21 - 0.05j,
                                         0.12 + 0.28j, t_end=0.5, h=1e-3,
                                         samples=26)
    ok = drift <= 1e-9 and dev <= 1e-5
    report("AC08 particle dynamics", ok,
           f"momentum drift={drift:.1e}<=1e-9 (N=3 rational), "
           f"elliptic-vs-tracking={dev:.1e}<=1e-5 (N=2)")


# ----------------------------------------------------------------------
# 9. six-factor zero identity
# ----------------------------------------------------------------------

def test_ac09_six_factor(x5m1, fay_data):
    U1 = np.array([0.35 + 0.05j])
    V1 = np.array([0.21 - 0.13j])
    Z1 = np.array([0.12 + 0.33j])
    tau1 = DiscreteTau(U1, V1, Z1, B_I)
    worst1 = 0.0
    guess = None
    for k in range(20):
        nu = 0.2 * k
        guess = find_tau_zero(tau1, nu, guess)
        worst1 = max(worst1, f2d_residual(U1, V1, Z1, B_I, nu, x_guess=guess))
    Z2 = np.array([0.15 + 0.2j, -0.1 + 0.1j])
    tau2 = DiscreteTau(fay_data["U"], fay_data["V"], Z2, x5m1.B)
    worst2 = 0.0
    guess = None
    for k in range(20):
        nu = 0.2 * k
        guess = find_tau_zero(tau2, nu, guess)
        worst2 = max(worst2, f2d_residual(fay_data["U"], fay_data["V"], Z2,
                                          x5m1.B, nu, x_guess=guess))
    ok = worst1 <= 1e-8 and worst2 <= 1e-7
    report("AC09 six-factor identity", ok,
           f"genus1={worst1:.1e}<=1e-8, genus2={worst2:.1e}<=1e-7 (20 zeros each)")


# ----------------------------------------------------------------------
# 10. residue induction step and locus probe
# ----------------------------------------------------------------------

def test_ac10_residue_and_probe(x5m1, fay_data, divisor_points):
    U1 = np.array([0.35 + 0.05j])
    V1 = np.array([0.21 - 0.13j])
    Z1 = np.array([0.12 + 0.33j])
    worst = 0.0
    for s in (0, 1):
        mis, _, _ = discrete_residue_consistency(U1, V1, Z1, B_I, nu=0.0, s=s)
        worst = max(worst, mis)
    probe = min(singular_locus_probe(divisor_points, fay_data["U"], fay_data["V"],
                                     x5m1.B, 10))
    ok = worst <= 1e-8 and probe >= 1e-3
    report("AC10 residue induction + locus probe", ok,
           f"residue mismatch={worst:.1e}<=1e-8 (s=0,1), "
           f"probe={probe:.2e}>=1e-3 (K=10, all samples)")


# ----------------------------------------------------------------------
# 11. wall clock
# ----------------------------------------------------------------------

def test_ac11_wall_clock():
    elapsed = time.perf_counter() - SESSION_T0
    report("AC11 wall clock", elapsed < 300.0, f"suite at {elapsed:.0f}s<300s")
