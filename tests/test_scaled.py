import math

import pytest

from theta_secant.errors import NumericalError
from theta_secant.scaled import ScaledComplex, rel_diff


def test_make_normalizes_mantissa():
    s = ScaledComplex.make(123.456 - 78.9j, 10.0)
    assert 1.0 <= abs(s.mantissa) < math.e
    assert abs(s.to_complex() / math.exp(10.0) - (123.456 - 78.9j)) < 1e-9


def test_zero_round_trip():
    z = ScaledComplex.zero()
    assert z.is_zero()
    assert z.abs() == 0.0
    assert z.log_abs() == -math.inf


def test_mul_div_add_sub():
    a = ScaledComplex.make(2.0 + 1.0j, 100.0)
    b = ScaledComplex.make(-0.5 + 0.25j, 98.0)
    prod = a * b
    assert 1.0 <= abs(prod.mantissa) < math.e
    assert abs(prod.log_abs() - (a.log_abs() + b.log_abs())) < 1e-12
    quot = a / b
    assert abs(quot.log_abs() - (a.log_abs() - b.log_abs())) < 1e-12
    tot = a + b
    ref = a.mantissa * math.exp(a.logscale - 100.0) + \
        b.mantissa * math.exp(b.logscale - 100.0)
    assert abs(tot.rescaled(100.0) - ref) < 1e-14 * abs(ref)
    assert (a - a).is_zero() or (a - a).abs() < 1e-16 * a.abs()


def test_huge_scales_do_not_overflow():
    a = ScaledComplex.make(1.5, 40000.0)
    b = ScaledComplex.make(2.5, 39990.0)
    c = a * b
    assert c.logscale > 79000
    assert (a + b).logscale == pytest.approx(40000.0, abs=1.0)
    with pytest.raises(OverflowError):
        c.to_complex()


def test_scalar_ops():
    a = ScaledComplex.make(1.0 + 0j, 5.0)
    assert abs((2.0 * a).to_complex() - 2.0 * math.exp(5.0)) < 1e-10
    assert abs((a / 2.0).to_complex() - 0.5 * math.exp(5.0)) < 1e-10


def test_rel_diff():
    a = ScaledComplex.make(1.0, 50.0)
    b = ScaledComplex.make(1.0, 50.0)
    assert rel_diff(a, b) == 0.0
    c = ScaledComplex.make(-1.0, 50.0)
    assert rel_diff(a, c) == pytest.approx(1.0)
    assert rel_diff(ScaledComplex.zero(), ScaledComplex.zero()) == 0.0


@pytest.mark.parametrize("mantissa", [complex(math.nan, 1.0), math.inf,
                                      complex(1.0, -math.inf)])
def test_non_finite_mantissa_is_numerical_error(mantissa):
    with pytest.raises(NumericalError):
        ScaledComplex.make(mantissa, 3.0)


def test_subnormal_mantissa_normalizes():
    # a difference of two values whose real parts cancel can leave a
    # subnormal imaginary part; exp(-shift) alone would overflow
    d = ScaledComplex.make(1.0 + 3e-316j, 2.0) - ScaledComplex.make(1.0 + 1e-316j, 2.0)
    assert 1.0 <= abs(d.mantissa) < math.e
    assert d.log_abs() == pytest.approx(math.log(2e-316) + 2.0, abs=1e-6)
