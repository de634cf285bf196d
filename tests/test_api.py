"""The truncation tolerance is an option of truncation_radius only."""

import inspect

import pytest

from theta_secant import divisor, dynamics, kummer, lattices, series
from theta_secant.theta import level_two_vector, level_two_vectors, theta_jet, theta_jets


def _public_callables(mod):
    """(name, signature) of each public function and class constructor
    defined in mod."""
    for name, obj in vars(mod).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
            continue
        if inspect.isfunction(obj) or inspect.isclass(obj):
            yield name, inspect.signature(obj)


@pytest.mark.parametrize("mod", [divisor, dynamics, kummer, lattices, series],
                         ids=lambda m: m.__name__.rsplit(".", 1)[-1])
def test_pipelines_take_no_tol(mod):
    # every pipeline evaluates theta at the core's DEFAULT_TOL
    found = [name for name, sig in _public_callables(mod) if "tol" in sig.parameters]
    assert found == []


@pytest.mark.parametrize("entry", [theta_jets, theta_jet, level_two_vectors,
                                   level_two_vector], ids=lambda f: f.__name__)
def test_theta_entry_points_take_no_tol_or_char(entry):
    # one series (no characteristics) at one tolerance (DEFAULT_TOL)
    params = inspect.signature(entry).parameters
    assert "tol" not in params and "char" not in params
