"""Field tables and residuals for the two lattice linear problems."""

import cmath
import csv
import math

import numpy as np
import pytest

from theta_secant import lattices
from theta_secant.errors import DivisorHit, NumericalError, ValidationError
from theta_secant.lattices import (
    FieldTable,
    LatticeWindow,
    bdhe_fields,
    bdhe_psi_residual,
    find_clear_base_point,
    refit_constants_bdhe,
    refit_constants_toda,
    toda_fields,
    toda_psi_residual,
)
from theta_secant.rng import Xoshiro256
from theta_values import jet_at, rel_diff, value_at


@pytest.fixture(scope="module")
def bdhe_setup(x5m1, fay_data, discrete_fit):
    B = x5m1.B
    U, V = fay_data["U"], fay_data["V"]
    As = discrete_fit.As
    win = LatticeWindow(m_range=(-5, 4), n_range=(-5, 4))
    Z = find_clear_base_point(U, V, As, B, seed=41, win=win)
    table = bdhe_fields(U, V, As, discrete_fit.p, discrete_fit.E, Z, win, B)
    return {"B": B, "U": U, "V": V, "As": As, "Z": Z, "win": win, "table": table}


@pytest.fixture(scope="module")
def toda_setup(x5m1, tangent_data, semidiscrete_fit):
    B = x5m1.B
    U, V = tangent_data["U"], tangent_data["V"]
    As = semidiscrete_fit.As
    ts = tuple(np.linspace(-0.3, 0.3, 8))
    win = LatticeWindow(x_range=(-4, 3), t_samples=ts)
    Z = find_clear_base_point(U, V, As, B, seed=43, win=win)
    table = toda_fields(U, V, As, semidiscrete_fit.p, semidiscrete_fit.E, Z, win, B)
    return {"B": B, "U": U, "V": V, "As": As, "Z": Z, "win": win, "table": table}


class TestWindows:
    def test_validation(self):
        with pytest.raises(ValidationError):
            LatticeWindow(m_range=(0, 70), n_range=(0, 3))
        with pytest.raises(ValidationError):
            LatticeWindow(m_range=(0, 3))
        with pytest.raises(ValidationError):
            LatticeWindow(x_range=(0, 3))
        LatticeWindow(x_range=(0, 3), t_samples=(0.0, 0.1))

    def test_grid(self):
        """Axes reach one step past the window; the points are the products
        summed first and Z added last; names are those of DivisorHit."""
        U, V, Z = np.array([0.3 + 0.1j, -0.2j]), np.array([0.1, 0.4 + 0.2j]), np.array([0.05j, 0.7])
        win = LatticeWindow(m_range=(-1, 1), n_range=(0, 2))
        ms, ns = win.axes
        assert ms.tolist() == [-1, 0, 1, 2] and ns.tolist() == [0, 1, 2, 3]
        W = win.points(U, V, Z)
        assert W.shape == (4, 4, 2)
        assert np.array_equal(W[3, 1], (2 * U + 1 * V) + Z)
        assert win.name(3 * 4 + 1) == "m=2, n=1"
        win = LatticeWindow(x_range=(0, 2), t_samples=(0.0, -0.3))
        ts, xs = win.axes
        assert ts.tolist() == [0.0, -0.3] and xs.tolist() == [0, 1, 2, 3]
        W = win.points(U, V, Z)
        assert W.shape == (2, 4, 2)
        assert np.array_equal(W[1, 3], (3 * U + -0.3 * V) + Z)
        assert win.name(4 + 3) == "x=3, t=-0.3"


class TestSynthetic:
    def test_toda_exact_eigenfunction(self):
        """psi = k^x e^{kt} with u = 0 solves (d/dt - T + u) psi = 0 exactly."""
        k = 2.0
        ts = (0.0, 0.3, 0.7)
        win = LatticeWindow(x_range=(0, 4), t_samples=ts)
        psi = np.array([[k ** x * math.exp(k * t) for x in range(0, 6)] for t in ts],
                       dtype=complex)
        # d/dt psi = psi * (dlog + E) = psi * k
        table = FieldTable("toda", win, u=np.zeros((3, 5), complex), psi=psi,
                           psi_logscale=np.zeros(psi.shape), v=np.zeros((3, 5), complex),
                           dlog=np.zeros(psi.shape, complex), E=k)
        assert toda_psi_residual(table) <= 1e-14

    def test_bdhe_constant_coefficient(self):
        """psi(m,n) = 2^n with u = 1: 2^{n+1} = 2^n + 2^n exactly."""
        win = LatticeWindow(m_range=(0, 3), n_range=(0, 3))
        psi = np.array([[2.0 ** n for n in range(0, 5)] for m in range(0, 5)], dtype=complex)
        table = FieldTable("bdhe", win, u=np.ones((4, 4), complex), psi=psi,
                           psi_logscale=np.zeros(psi.shape))
        assert bdhe_psi_residual(table) == 0.0


class TestReference:
    """Table entries against theta values from their own passes."""

    def test_toda_psi_u_v(self, toda_setup, semidiscrete_fit):
        s, table = toda_setup, toda_setup["table"]
        U, V, As, B, win, Z = s["U"], s["V"], s["As"], s["B"], s["win"], s["Z"]
        p, E = semidiscrete_fit.p, semidiscrete_fit.E

        def v_ref(x, t):
            j = jet_at(x * U + t * V + Z, B, dirs=(V,))
            return -j["d0"] / j["f"]

        for x, it in ((-4, 0), (0, 3), (3, 7)):
            t = win.t_samples[it]
            w = x * U + t * V + Z
            f, ls = value_at([As + w, w], B)
            e = x * p + t * E
            want = f[0] / f[1] * cmath.exp(1j * e.imag), ls[0] - ls[1] + e.real
            got = table.psi[it, x + 4], table.psi_logscale[it, x + 4]
            assert rel_diff(got, want) <= 1e-13
            v = v_ref(x, t)
            assert abs(table.v[it, x + 4] - v) <= 1e-13 * abs(v)
            u = v_ref(x + 1, t) - v
            assert abs(table.u[it, x + 4] - u) <= 1e-13 * abs(u)

    def test_bdhe_psi_u(self, bdhe_setup, discrete_fit):
        s, table = bdhe_setup, bdhe_setup["table"]
        U, V, As, B, Z = s["U"], s["V"], s["As"], s["B"], s["Z"]
        p, E = discrete_fit.p, discrete_fit.E

        def w(m, n):
            return m * U + n * V + Z

        for m, n in ((-5, -5), (0, 2), (4, 4)):
            f, ls = value_at([As + w(m, n), w(m, n), w(m + 1, n + 1), w(m, n + 1),
                              w(m + 1, n)], B)
            e = m * p + n * E
            want = f[0] / f[1] * cmath.exp(1j * e.imag), ls[0] - ls[1] + e.real
            got = table.psi[m + 5, n + 5], table.psi_logscale[m + 5, n + 5]
            assert rel_diff(got, want) <= 1e-13
            u = f[2] * f[1] / (f[3] * f[4]) * math.exp(ls[2] + ls[1] - ls[3] - ls[4])
            assert abs(table.u[m + 5, n + 5] - u) <= 1e-13 * abs(u)

    def test_nan_constant_is_numerical_error(self, toda_setup, bdhe_setup):
        for build, s in ((toda_fields, toda_setup), (bdhe_fields, bdhe_setup)):
            with pytest.raises(NumericalError):
                build(s["U"], s["V"], s["As"], math.nan, 0.1, s["Z"], s["win"], s["B"])


class TestBdhe:
    def test_residual(self, bdhe_setup, discrete_fit):
        assert bdhe_psi_residual(bdhe_setup["table"]) <= 1e-8

    def test_ab_consistency(self, bdhe_setup, discrete_fit):
        ep, eE = refit_constants_bdhe(bdhe_setup["table"])
        assert abs(ep - discrete_fit.exp_p) / abs(discrete_fit.exp_p) <= 1e-6
        assert abs(eE - discrete_fit.exp_E) / abs(discrete_fit.exp_E) <= 1e-6

    def test_window_shift_covariance(self, bdhe_setup, discrete_fit):
        s = bdhe_setup
        win2 = LatticeWindow(m_range=(-6, 3), n_range=(-5, 4))
        t2 = bdhe_fields(s["U"], s["V"], s["As"], discrete_fit.p,
                         discrete_fit.E, s["Z"] + s["U"], win2, s["B"])
        # u(m, n) of the table is u(m - 1, n) of the shifted one, at the same index
        assert np.abs(s["table"].u - t2.u).max() <= 1e-12

    def test_z_integer_shift_invariance(self, bdhe_setup, discrete_fit):
        s = bdhe_setup
        t2 = bdhe_fields(s["U"], s["V"], s["As"], discrete_fit.p, discrete_fit.E,
                         s["Z"] + np.array([1.0, 0.0]), s["win"], s["B"])
        assert np.abs(s["table"].u - t2.u).max() <= 1e-12

    def test_divisor_hit_guard(self, x5m1, fay_data, discrete_fit,
                               divisor_samples):
        # base the window exactly on a divisor point: the (0,0) theta is zero
        U, V, A = fay_data["U"], fay_data["V"], fay_data["A"]
        win = LatticeWindow(m_range=(0, 2), n_range=(0, 2))
        with pytest.raises(DivisorHit, match="theta value at m=0, n=0 is on the divisor"):
            bdhe_fields(U, V, A, discrete_fit.p, discrete_fit.E, divisor_samples[0].Z,
                        win, x5m1.B)

    def test_table_is_one_lattice_pass(self, bdhe_setup, discrete_fit, lattice_passes):
        s = bdhe_setup
        bdhe_fields(s["U"], s["V"], s["As"], discrete_fit.p, discrete_fit.E,
                    s["Z"], s["win"], s["B"])
        assert lattice_passes == [(2 * 11 * 11, False)]     # w and A + w

    def test_csv_export(self, bdhe_setup, tmp_path):
        path = tmp_path / "bdhe.csv"
        bdhe_setup["table"].to_csv(path)
        rows = list(csv.DictReader(open(path)))
        assert len(rows) == 100
        assert {"m", "n", "re_u", "psi_logscale"} <= set(rows[0])


class TestToda:
    def test_residual(self, toda_setup):
        assert toda_psi_residual(toda_setup["table"]) <= 1e-6

    def test_ab_consistency(self, toda_setup, semidiscrete_fit):
        ep, E = refit_constants_toda(toda_setup["table"])
        assert abs(ep - semidiscrete_fit.exp_p) / abs(semidiscrete_fit.exp_p) <= 1e-6
        assert abs(E - semidiscrete_fit.E) / abs(semidiscrete_fit.E) <= 1e-6

    def test_perturbed_E_control(self, toda_setup, semidiscrete_fit):
        s = toda_setup
        table = toda_fields(s["U"], s["V"], s["As"], semidiscrete_fit.p,
                            semidiscrete_fit.E + 1e-3, s["Z"], s["win"], s["B"])
        assert toda_psi_residual(table) >= 1e-4

    def test_table_is_one_lattice_pass(self, toda_setup, semidiscrete_fit,
                                       lattice_passes):
        s = toda_setup
        toda_fields(s["U"], s["V"], s["As"], semidiscrete_fit.p, semidiscrete_fit.E,
                    s["Z"], s["win"], s["B"])
        assert lattice_passes == [(2 * 9 * 8, False)]       # x in [-4, 4], 8 t

    def test_zero_direction_fields_vanish(self, x5m1, fay_data):
        # V = 0 kills every time derivative: v and u vanish identically
        U, A = fay_data["U"], fay_data["A"]
        V = np.zeros(2, complex)
        win = LatticeWindow(x_range=(0, 2), t_samples=(0.0, 0.5))
        table = toda_fields(U, V, A, 0.1, 0.2, np.array([0.21 + 0.17j, -0.33 + 0.08j]),
                            win, x5m1.B)
        assert np.abs(table.v).max() <= 1e-12
        assert np.abs(table.u).max() <= 1e-12

    def test_csv_export(self, toda_setup, tmp_path):
        path = tmp_path / "toda.csv"
        toda_setup["table"].to_csv(path)
        rows = list(csv.DictReader(open(path)))
        assert len(rows) == 8 * 8
        assert {"x", "t", "re_v", "psi_logscale"} <= set(rows[0])


class TestBasePoint:
    def test_one_lattice_pass_per_try(self, x5m1, fay_data, lattice_passes,
                                      monkeypatch):
        U, V, A = fay_data["U"], fay_data["V"], fay_data["A"]
        win = LatticeWindow(m_range=(0, 2), n_range=(0, 1))
        monkeypatch.setattr(lattices, "BASE_MARGIN", 0.0)
        find_clear_base_point(U, V, A, x5m1.B, seed=3, win=win)
        assert lattice_passes == [(2 * 4 * 3, False)]       # w and A + w
        lattice_passes.clear()
        # no point is this clear, so every try is made
        monkeypatch.setattr(lattices, "BASE_MARGIN", 1e9)
        monkeypatch.setattr(lattices, "BASE_TRIES", 3)
        with pytest.raises(DivisorHit, match="no clear base point"):
            find_clear_base_point(U, V, A, x5m1.B, seed=3, win=win)
        assert lattice_passes == [(2 * 4 * 3, False)] * 3

    def test_first_draw_clear_by_margin(self, x5m1, fay_data, monkeypatch):
        # seed 5 on this 5 x 5 window: the clearest of the first 11 draws
        # keeps 0.223 from the divisor, the 12th 0.246
        U, V, A = fay_data["U"], fay_data["V"], fay_data["A"]
        win = LatticeWindow(m_range=(-2, 2), n_range=(-2, 2))
        rng = Xoshiro256(5)
        draws = [np.array(rng.complex_vector(2, scale=0.5)) for _ in range(12)]
        monkeypatch.setattr(lattices, "BASE_MARGIN", 0.24)
        Z = find_clear_base_point(U, V, A, x5m1.B, seed=5, win=win)
        assert np.array_equal(Z, draws[11])
        monkeypatch.setattr(lattices, "BASE_TRIES", 11)
        with pytest.raises(DivisorHit, match=r"best margin 2\.23e-01"):
            find_clear_base_point(U, V, A, x5m1.B, seed=5, win=win)
