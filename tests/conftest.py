"""Shared fixtures: the expensive genus-2 objects are built once per session."""

import time

import numpy as np
import pytest

import theta_secant.theta as theta_module
from theta_secant.curves import CurvePoint, CurveSpec, build_abel_data, fay_vectors
from theta_secant.divisor import sample_theta_divisor
from theta_secant.kummer import fit_secancy_discrete, fit_secancy_semidiscrete
from theta_secant.curves import abel_map, abel_tangent

SESSION_T0 = time.perf_counter()

# four generic points on y^2 = x^5 - 1 used throughout; frozen so every
# residual in the suite is reproducible
FAY_POINTS = [(-0.2 + 1.3j, +1), (1.1 - 0.8j, -1),
              (-1.4 - 1.1j, +1), (0.6 + 0.5j, -1)]


@pytest.fixture(scope="session")
def x5m1():
    return build_abel_data(CurveSpec("hyperelliptic2", poly=[-1, 0, 0, 0, 0, 1]))


@pytest.fixture(scope="session")
def fay_data(x5m1):
    pts = [CurvePoint(x=x, sheet=s) for (x, s) in FAY_POINTS]
    U, V, A = fay_vectors(x5m1, *pts)
    return {"U": U, "V": V, "A": A, "points": pts}


@pytest.fixture(scope="session")
def tangent_data(x5m1, fay_data):
    pts = fay_data["points"]
    V = abel_tangent(x5m1, pts[1])
    U = abel_map(x5m1, pts[2]) - abel_map(x5m1, pts[1])
    return {"U": U, "V": V, "A": fay_data["A"]}


@pytest.fixture(scope="session")
def discrete_fit(x5m1, fay_data):
    return fit_secancy_discrete(fay_data["U"], fay_data["V"], fay_data["A"],
                                x5m1.B)


@pytest.fixture(scope="session")
def semidiscrete_fit(x5m1, tangent_data):
    return fit_secancy_semidiscrete(tangent_data["U"], tangent_data["V"],
                                    tangent_data["A"], x5m1.B)


@pytest.fixture(scope="session")
def divisor_samples(x5m1):
    return sample_theta_divisor(x5m1.B, seed=7, count=10)


@pytest.fixture(scope="session")
def divisor_points(divisor_samples):
    """The points of divisor_samples as rows, shape (10, 2)."""
    return np.array([s.Z for s in divisor_samples])


@pytest.fixture
def lattice_passes(monkeypatch):
    """(points, binned) of every lattice pass made while the test runs."""
    core = theta_module._lattice_jets
    passes = []

    def counting(Z, *args, **kwargs):
        passes.append((len(Z), kwargs.get("binned", False)))
        return core(Z, *args, **kwargs)

    monkeypatch.setattr(theta_module, "_lattice_jets", counting)
    return passes
