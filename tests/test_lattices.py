"""Field tables and residuals for the two lattice linear problems."""

import csv
import math

import numpy as np
import pytest

from theta_secant.errors import DivisorHit, ValidationError
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
    window_spans,
)
from theta_secant.rng import Xoshiro256
from theta_secant.scaled import ScaledComplex
from theta_secant.theta import half_period


@pytest.fixture(scope="module")
def bdhe_setup(x5m1, fay_data, discrete_fit):
    B = x5m1.B
    U, V = fay_data["U"], fay_data["V"]
    As = fay_data["A"] + half_period(B, discrete_fit.calibration_shift)
    probe = LatticeWindow(np.zeros(2, complex), m_range=(-5, 4), n_range=(-5, 4))
    Z = find_clear_base_point(U, V, As, B, seed=41, spans=window_spans(probe))
    win = LatticeWindow(Z, m_range=(-5, 4), n_range=(-5, 4))
    table = bdhe_fields(U, V, As, discrete_fit.p, discrete_fit.E, win, B)
    return {"B": B, "U": U, "V": V, "As": As, "win": win, "table": table}


@pytest.fixture(scope="module")
def toda_setup(x5m1, tangent_data, semidiscrete_fit):
    B = x5m1.B
    U, V = tangent_data["U"], tangent_data["V"]
    As = tangent_data["A"] + half_period(B, semidiscrete_fit.calibration_shift)
    ts = tuple(np.linspace(-0.3, 0.3, 8))
    probe = LatticeWindow(np.zeros(2, complex), x_range=(-4, 3), t_samples=ts)
    Z = find_clear_base_point(U, V, As, B, seed=43, spans=window_spans(probe))
    win = LatticeWindow(Z, x_range=(-4, 3), t_samples=ts)
    table = toda_fields(U, V, As, semidiscrete_fit.p, semidiscrete_fit.E, win, B)
    return {"B": B, "U": U, "V": V, "As": As, "win": win, "table": table}


class TestWindows:
    def test_validation(self):
        Z = np.zeros(2, complex)
        with pytest.raises(ValidationError):
            LatticeWindow(Z, m_range=(0, 70), n_range=(0, 3))
        with pytest.raises(ValidationError):
            LatticeWindow(Z, m_range=(0, 3))
        with pytest.raises(ValidationError):
            LatticeWindow(Z, x_range=(0, 3))
        LatticeWindow(Z, x_range=(0, 3), t_samples=(0.0, 0.1))


class TestSynthetic:
    def test_toda_exact_eigenfunction(self):
        """psi = k^x e^{kt} with u = 0 solves (d/dt - T + u) psi = 0 exactly."""
        k = 2.0
        ts = (0.0, 0.3, 0.7)
        win = LatticeWindow(np.zeros(1, complex), x_range=(0, 4), t_samples=ts)
        table = FieldTable("toda", win)
        for it, t in enumerate(ts):
            for x in range(0, 6):
                psi = ScaledComplex.from_complex(k ** x * math.exp(k * t))
                table.psi[(x, it)] = psi
                table.psi_t[(x, it)] = psi * k
                if x <= 4:
                    table.u[(x, it)] = ScaledComplex.zero()
                    table.v[(x, it)] = ScaledComplex.zero()
        assert toda_psi_residual(table) <= 1e-14

    def test_bdhe_constant_coefficient(self):
        """psi(m,n) = 2^n with u = 1: 2^{n+1} = 2^n + 2^n exactly."""
        win = LatticeWindow(np.zeros(1, complex), m_range=(0, 3), n_range=(0, 3))
        table = FieldTable("bdhe", win)
        for m in range(0, 5):
            for n in range(0, 5):
                table.psi[(m, n)] = ScaledComplex.from_complex(2.0 ** n)
                if m <= 3 and n <= 3:
                    table.u[(m, n)] = ScaledComplex.from_complex(1.0)
        assert bdhe_psi_residual(table) == 0.0


class TestBdhe:
    def test_residual(self, bdhe_setup, discrete_fit):
        assert bdhe_psi_residual(bdhe_setup["table"]) <= 1e-8

    def test_ab_consistency(self, bdhe_setup, discrete_fit):
        ep, eE = refit_constants_bdhe(bdhe_setup["table"])
        assert abs(ep - discrete_fit.exp_p) / abs(discrete_fit.exp_p) <= 1e-6
        assert abs(eE - discrete_fit.exp_E) / abs(discrete_fit.exp_E) <= 1e-6

    def test_window_shift_covariance(self, bdhe_setup, discrete_fit):
        s = bdhe_setup
        win2 = LatticeWindow(s["win"].Z + s["U"], m_range=(-6, 3), n_range=(-5, 4))
        t2 = bdhe_fields(s["U"], s["V"], s["As"], discrete_fit.p,
                         discrete_fit.E, win2, s["B"])
        worst = max(abs((s["table"].u[(m, n)] - t2.u[(m - 1, n)]).to_complex())
                    for m in range(-5, 5) for n in range(-5, 5))
        assert worst <= 1e-12

    def test_z_integer_shift_invariance(self, bdhe_setup, discrete_fit):
        s = bdhe_setup
        win2 = LatticeWindow(s["win"].Z + np.array([1.0, 0.0]),
                             m_range=(-5, 4), n_range=(-5, 4))
        t2 = bdhe_fields(s["U"], s["V"], s["As"], discrete_fit.p,
                         discrete_fit.E, win2, s["B"])
        worst = max(abs((s["table"].u[key] - t2.u[key]).to_complex())
                    for key in s["table"].u)
        assert worst <= 1e-12

    def test_divisor_hit_guard(self, x5m1, fay_data, discrete_fit,
                               divisor_samples):
        # base the window exactly on a divisor point: the (0,0) theta is zero
        U, V, A = fay_data["U"], fay_data["V"], fay_data["A"]
        win = LatticeWindow(divisor_samples[0].Z, m_range=(0, 2), n_range=(0, 2))
        with pytest.raises(DivisorHit, match="theta value at m=0, n=0 is on the divisor"):
            bdhe_fields(U, V, A, discrete_fit.p, discrete_fit.E, win, x5m1.B)

    def test_table_is_one_lattice_pass(self, bdhe_setup, discrete_fit, lattice_passes):
        s = bdhe_setup
        bdhe_fields(s["U"], s["V"], s["As"], discrete_fit.p, discrete_fit.E,
                    s["win"], s["B"])
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
                            semidiscrete_fit.E + 1e-3, s["win"], s["B"])
        assert toda_psi_residual(table) >= 1e-4

    def test_table_is_one_lattice_pass(self, toda_setup, semidiscrete_fit,
                                       lattice_passes):
        s = toda_setup
        toda_fields(s["U"], s["V"], s["As"], semidiscrete_fit.p, semidiscrete_fit.E,
                    s["win"], s["B"])
        assert lattice_passes == [(2 * 9 * 8, False)]       # x in [-4, 4], 8 t

    def test_zero_direction_fields_vanish(self, x5m1, fay_data):
        # V = 0 kills every time derivative: v and u vanish identically
        U, A = fay_data["U"], fay_data["A"]
        V = np.zeros(2, complex)
        win = LatticeWindow(np.array([0.21 + 0.17j, -0.33 + 0.08j]),
                            x_range=(0, 2), t_samples=(0.0, 0.5))
        table = toda_fields(U, V, A, 0.1, 0.2, win, x5m1.B)
        assert max(v.abs() for v in table.v.values()) <= 1e-12
        assert max(u.abs() for u in table.u.values()) <= 1e-12

    def test_csv_export(self, toda_setup, tmp_path):
        path = tmp_path / "toda.csv"
        toda_setup["table"].to_csv(path)
        rows = list(csv.DictReader(open(path)))
        assert len(rows) == 8 * 8
        assert {"x", "t", "re_v", "psi_logscale"} <= set(rows[0])


class TestBasePoint:
    def test_one_lattice_pass_per_try(self, x5m1, fay_data, lattice_passes):
        U, V, A = fay_data["U"], fay_data["V"], fay_data["A"]
        spans = window_spans(LatticeWindow(np.zeros(2, complex), m_range=(0, 2),
                                           n_range=(0, 1)))
        find_clear_base_point(U, V, A, x5m1.B, seed=3, spans=spans, margin=0.0)
        assert lattice_passes == [(len(spans), False)]
        lattice_passes.clear()
        # no point is this clear, so every try is made
        with pytest.raises(DivisorHit, match="no clear base point"):
            find_clear_base_point(U, V, A, x5m1.B, seed=3, spans=spans,
                                  margin=1e9, tries=3)
        assert lattice_passes == [(len(spans), False)] * 3

    def test_first_draw_clear_by_margin(self, x5m1, fay_data):
        # seed 5 on this 5 x 5 window: the clearest of the first 11 draws
        # keeps 0.223 from the divisor, the 12th 0.246
        U, V, A = fay_data["U"], fay_data["V"], fay_data["A"]
        spans = window_spans(LatticeWindow(np.zeros(2, complex), m_range=(-2, 2),
                                           n_range=(-2, 2)))
        rng = Xoshiro256(5)
        draws = [np.array(rng.complex_vector(2, scale=0.5)) for _ in range(12)]
        Z = find_clear_base_point(U, V, A, x5m1.B, seed=5, spans=spans, margin=0.24)
        assert np.array_equal(Z, draws[11])
        with pytest.raises(DivisorHit, match=r"best margin 2\.23e-01"):
            find_clear_base_point(U, V, A, x5m1.B, seed=5, spans=spans,
                                  margin=0.24, tries=11)
