"""ScaledComplex.make, and the relative difference of scaled values that the
theta tests compare with."""

import math

import numpy as np
import pytest

from theta_secant.errors import NumericalError
from theta_secant.scaled import ScaledComplex
from theta_values import rel_diff


def test_make_normalizes_mantissa():
    s = ScaledComplex.make(123.456 - 78.9j, 10.0)
    assert 1.0 <= abs(s.mantissa) < math.e
    assert abs(s.mantissa * math.exp(s.logscale - 10.0) - (123.456 - 78.9j)) < 1e-9


def test_zero_round_trip():
    for z in (ScaledComplex.make(0j, 5.0), ScaledComplex.make(1.0, -math.inf)):
        assert (z.mantissa, z.logscale) == (0j, 0.0)


def test_huge_scales_do_not_overflow():
    a = ScaledComplex.make(1e300, 40000.0)
    assert 1.0 <= abs(a.mantissa) < math.e
    assert a.logscale == pytest.approx(40000.0 + 300 * math.log(10.0), abs=1.0)


def test_rel_diff():
    one = np.array([1.0 + 0j]), np.array([50.0])
    assert rel_diff(one, one)[0] == 0.0
    assert rel_diff(one, (-one[0], one[1]))[0] == pytest.approx(1.0)
    zero = np.zeros(1, complex), np.zeros(1)
    assert rel_diff(zero, zero)[0] == 0.0


@pytest.mark.parametrize("mantissa", [complex(math.nan, 1.0), math.inf,
                                      complex(1.0, -math.inf)])
def test_non_finite_mantissa_is_numerical_error(mantissa):
    with pytest.raises(NumericalError):
        ScaledComplex.make(mantissa, 3.0)


def test_subnormal_mantissa_normalizes():
    # a theta row can be subnormal (a vanishing derivative along a tiny
    # direction); exp(-shift) alone would overflow
    d = ScaledComplex.make(2e-316j, 2.0)
    assert 1.0 <= abs(d.mantissa) < math.e
    assert math.log(abs(d.mantissa)) + d.logscale == pytest.approx(math.log(2e-316) + 2.0,
                                                                   abs=1e-6)
