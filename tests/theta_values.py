"""Theta values as the core returns them: (mantissa, logscale) array pairs."""

import numpy as np

from theta_secant.theta import gauss_exponents, rescale, theta_jets


def values(jets, key="f"):
    """(mantissas, logscales) of one jet key of a theta_jets pass."""
    return jets.sums[key], jets.logscale


def value_at(Z, B, dirs=(), key="f"):
    """(mantissas, logscales) of one jet key at the rows of Z, one pass."""
    return values(theta_jets(np.asarray(Z, dtype=complex), B, dirs=dirs), key)


def jet_at(z, B, dirs=()):
    """The jet of theta at the one point z, as plain complex numbers by key."""
    jets = theta_jets(np.asarray(z, dtype=complex).reshape(1, -1), B, dirs=dirs)
    return {key: complex(v[0] * np.exp(jets.logscale[0])) for key, v in jets.sums.items()}


def to_complex(value):
    """mantissa * exp(logscale) as plain complex numbers."""
    mantissa, logscale = value
    return mantissa * np.exp(logscale)


def rel_diff(a, b, floor=1e-300):
    """|a - b| / (|a| + |b| + floor) row by row, each row at its larger scale."""
    (ma, la), (mb, lb) = a, b
    ref = np.maximum(la, lb)
    ma, mb = rescale(ma, la, ref), rescale(mb, lb, ref)
    return np.abs(ma - mb) / (np.abs(ma) + np.abs(mb) + floor)


def char_eps(k, g):
    """eps of the k-th characteristic in {0, 1/2}^g, lexicographic with the
    first component most significant."""
    return [0.5 * ((k >> (g - 1 - j)) & 1) for j in range(g)]


def gauss_exponent(B, z):
    """gauss_exponents at the one point z."""
    return float(gauss_exponents(B, np.atleast_1d(np.asarray(z, dtype=complex))[None])[0])
