"""Bitwise guards of the pole dynamics: frozen output hashes of the tau
sections, the RS integrator and the wave series, and the certified radius
that each section, kernel and semi-discrete system looks up once."""

import hashlib

import numpy as np
import pytest

import theta_secant.theta as theta_module
from theta_secant import series
from theta_secant.dynamics import (
    DiscreteTau,
    EllipticKernel,
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
from theta_secant.errors import DimensionMismatch, RadiusCap
from theta_secant.rng import Xoshiro256
from theta_secant.theta import PeriodMatrix, theta_jets

from frozen import assert_frozen

B_I = PeriodMatrix([[1j]])
B2 = PeriodMatrix([[1.1j, 0.2 + 0.3j], [0.2 + 0.3j, 0.9j]])
U1 = np.array([0.85 + 0.00j])
V1 = np.array([-0.25 + 0.10j])
Z1 = np.array([0.05 + 0.21j])
UD = np.array([0.35 + 0.05j])
VD = np.array([0.21 - 0.13j])
ZD = np.array([0.12 + 0.33j])
KERNELS = ("rational", ("trig", 2.0), ("elliptic", 1.1j, 2.5))


def _update(h, *values):
    for v in values:
        h.update(np.asarray(v).tobytes())


def test_dynamics_outputs_are_pinned():
    """sha256 of RS trajectories (every kernel, N = 2, 3 and 10), a tracked
    zero with its zero-law residual, a perturbed path, six-factor residuals
    (genus 1 and 2), the elliptic crosscheck, both residue consistencies and
    a semi-discrete table: dynamics and series, bit for bit (frozen from
    the sections and kernels that resolved the truncation radius on every
    pass)."""
    h = hashlib.sha256()
    rng = Xoshiro256(2507)
    for kernel in KERNELS:
        for n in (2, 3, 10):
            x = [complex(2.2 * k, 0.0) + 0.3 * rng.complex_normal() for k in range(n)]
            v = [0.5 * rng.complex_normal() for _ in range(n)]
            traj = rs_integrate(RSState(x=x, xdot=v, kernel=kernel), 0.05, 1e-3)
            _update(h, traj.t, traj.x, traj.xdot)

    grid = np.linspace(0.0, 0.5, 41)
    path = track_tau_zero(U1, V1, Z1, B_I, grid)
    _update(h, path.eta, path.etadot, path.v0, path.tau_abs,
            cm5_residual(path, U1, V1, Z1, B_I))
    pert = PerturbedTau(ThetaTau(U1, V1, Z1, B_I), 0.05, x_ref=path.eta[0] + 0.5,
                        mode="oscillatory")
    pathp = track_zero(pert, grid, x0=path.eta[0])
    _update(h, pathp.eta, pathp.v0, cm5_residual(pathp, U1, V1, Z1, B_I, tau=pert))

    tau = DiscreteTau(UD, VD, ZD, B_I)
    guess = None
    for nu in (0.0, 0.25, 0.5):
        guess = find_tau_zero(tau, nu, guess)
        _update(h, guess, f2d_residual(UD, VD, ZD, B_I, nu, x_guess=guess))
    _update(h, f2d_residual([0.3 + 0.1j, -0.2 + 0.05j], [0.1 - 0.2j, 0.25j],
                            [0.15 + 0.2j, -0.1 + 0.1j], B2, 0.0))

    dev, (p1, p2), traj = elliptic_zero_crosscheck(
        1j, 0.35 + 0.02j, 0.21 - 0.05j, 0.12 + 0.28j, t_end=0.2, h=2e-3, samples=11)
    _update(h, dev, p1.eta, p1.etadot, p1.v0, p2.eta, p2.etadot, p2.v0, traj.x)

    for s in (0, 1):
        mismatch, eta, gap = series.discrete_residue_consistency(UD, VD, ZD, B_I, 0.0, s)
        _update(h, mismatch, eta, gap)

    system = series.SemidiscreteSystem(np.array([0.2 + 0j]), VD, ZD + 0.1, B_I, N=5)
    table = series.new_semidiscrete_table(t_center=0.1, dt=0.01)
    for s in (0, 1):
        series.semidiscrete_series_extend(table, system, s)
        _update(h, series.semidiscrete_resubstitution(table, system, s))
    series.semidiscrete_series_extend(table, system, 2, skip_normalization=True)
    for s in (1, 2, 3):
        _update(h, table.levels[s])
    _update(h, table.defect[3])
    assert_frozen(h.hexdigest(), {
        "numpy 2.4 X86_V4 SkylakeX": "5676b8c55adeacf150110d81129052b2684755ef2641fdc7d200043640dd7ab3",
        "numpy 2.4 X86_V3 Haswell": "6bfb534990ab7da5b7bdf7bff3bf43c5ea77c5988e4b2ed14f238592e29c0da1",
        "numpy 2.4 X86_V2 Nehalem": "81acce1b68011eb3c5b96bb63e045bf3d0e64e733f78f73817f4b550e75b33ea",
    })


@pytest.fixture
def radius_calls(monkeypatch):
    """The B of every truncation_radius call made while the test runs, by
    the core or by a holder of a fixed (B, dirs)."""
    radius = theta_module.truncation_radius
    calls = []

    def counting(B, *args, **kwargs):
        calls.append(B)
        return radius(B, *args, **kwargs)

    monkeypatch.setattr(theta_module, "truncation_radius", counting)
    return calls


def _holders():
    theta = ThetaTau(U1, V1, Z1, B_I)
    return {
        "theta": theta,
        "theta-genus2": ThetaTau([0.3 + 0.1j, -0.2 + 0.05j], [0.1 - 0.2j, 0.25j],
                                 [0.1 + 0.2j, -0.3 + 0.1j], B2),
        "discrete": DiscreteTau(UD, VD, ZD, B_I),
        "perturbed": PerturbedTau(theta, 0.05, x_ref=0.3 + 0.1j, mode="oscillatory"),
        "elliptic": EllipticKernel(1.1j, omega1=2.5),
        "semidiscrete": series.SemidiscreteSystem(np.array([0.2 + 0j]), VD, ZD, B_I, N=5),
    }


def _passes(holder, k):
    """The k-th lattice pass of a holder, at points that vary with k."""
    x = np.array([0.3 + 0.1j, -0.4 + 0.2j]) + 0.05 * k
    if isinstance(holder, EllipticKernel):
        return holder.evaluate(x)
    if isinstance(holder, series.SemidiscreteSystem):
        return holder.vdot(x.real, 0.1 * k)
    return holder.jets(x, 0.1 * k)


@pytest.mark.parametrize("name", list(_holders()))
def test_radius_looked_up_once_per_life(name, radius_calls, lattice_passes):
    """A holder of one (B, dirs) calls truncation_radius at its first pass
    and never again; no pass of it asks the core for one."""
    holder = _holders()[name]
    assert radius_calls == []
    for k in range(4):
        _passes(holder, k)
    B = getattr(holder, "base", holder).B
    assert radius_calls == [B] and len(lattice_passes) == 4


@pytest.mark.parametrize("name", ["theta", "theta-genus2", "discrete", "elliptic",
                                  "semidiscrete"])
def test_bound_passes_are_the_cores(name):
    """A holder's pass is bitwise theta_jets along its dirs without a radius."""
    holder = _holders()[name]
    rng = Xoshiro256(25)
    for P in (1, 3, 7):
        W = np.array([rng.complex_vector(holder.B.g, scale=0.6) for _ in range(P)])
        bound, core = holder._jets(W), theta_jets(W, holder.B, dirs=holder.dirs)
        assert bound.logscale.tobytes() == core.logscale.tobytes()
        assert bound.sums.keys() == core.sums.keys()
        for key in core.sums:
            assert bound.sums[key].tobytes() == core.sums[key].tobytes()


@pytest.mark.parametrize("name", list(_holders()))
def test_cap_raised_at_the_first_pass_until_a_pass_succeeds(name, monkeypatch):
    """A cap below the certified radius raises RadiusCap at the first pass,
    and at every pass while no radius is bound; a radius bound under a
    larger cap stays bound."""
    holder = _holders()[name]
    monkeypatch.setenv("THETA_SECANT_CAP", "2")
    for k in range(2):
        with pytest.raises(RadiusCap, match="exceeds cap 2"):
            _passes(holder, k)
    monkeypatch.delenv("THETA_SECANT_CAP")
    _passes(holder, 0)
    monkeypatch.setenv("THETA_SECANT_CAP", "2")
    _passes(holder, 1)


@pytest.mark.parametrize("make", [
    lambda U, V, Z: ThetaTau(U, V, Z, B_I),
    lambda U, V, Z: DiscreteTau(U, V, Z, B_I),
    lambda U, V, Z: series.SemidiscreteSystem(U, V, Z, B_I, N=5),
], ids=["theta", "discrete", "semidiscrete"])
@pytest.mark.parametrize("U, V, Z", [
    ([0.2, 0.4], [0.2, 0.1], [0.1, 0.2]),
    ([0.2], [0.2], [0.1, 0.2]),
], ids=["directions", "Z"])
def test_wrong_lengths_raise_at_the_first_pass(make, U, V, Z):
    """Directions or a Z whose length is not the genus of B are a
    DimensionMismatch at a holder's first pass, not an IndexError."""
    with pytest.raises(DimensionMismatch):
        _passes(make(U, V, Z), 0)


@pytest.mark.parametrize("name", list(_holders()))
def test_later_passes_skip_theta_jets_and_the_direction_check(name, monkeypatch):
    """A holder checks its directions at its first pass alone; no pass of it
    goes through theta_jets."""
    holder = _holders()[name]
    calls = []
    for fn in ("theta_jets", "_directions"):
        def counting(*args, _fn=fn, _core=getattr(theta_module, fn), **kwargs):
            calls.append(_fn)
            return _core(*args, **kwargs)
        monkeypatch.setattr(theta_module, fn, counting)
    for k in range(4):
        _passes(holder, k)
    assert calls == ["_directions"]


def test_elliptic_forces_F_and_evaluate_agree_bitwise():
    """The forces of a stage, F one separation at a time and the F row of
    evaluate are the same floats."""
    ker = EllipticKernel(0.35 + 0.8j, omega1=1.3 - 0.4j)
    rng = Xoshiro256(26)
    qs = [complex(rng.uniform_in(-1.2, 1.2), rng.uniform_in(-0.8, 0.8)) for _ in range(15)]
    F = ker.forces(qs)
    assert isinstance(F, list)
    assert F == [ker.F(q) for q in qs] == ker.evaluate(np.array(qs))[0].tolist()
