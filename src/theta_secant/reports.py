"""Scenario configuration and machine-readable reports.

Configs reject an unknown scenario and any tolerance or window name that
the scenario does not read (PARAMETERS lists them with their defaults);
tolerance overrides are range checked, and window overrides must be
integers of at least 1 (probe_depth at least 0).
Reports serialize to JSON with sorted keys so identical config + seed
yields byte-identical output up to the isolated "timing" object.
"""

from __future__ import annotations

import json
import operator
from typing import NamedTuple

from .errors import ConfigError

# every scenario's tolerance and window names with their defaults: the
# config accepts no other name, and the runners read the defaults here
PARAMETERS = {
    "theta-selftest": {
        "tolerances": {"evenness": 1e-12, "quasi_periodicity": 1e-10,
                       "fd_first": 1e-6, "fd_second": 1e-4,
                       "radius_stability": 1e-13},
        "window": {"samples": 200},
    },
    "fay-trisecant": {
        "tolerances": {"fit_residual": 1e-8, "fay_collinearity": 1e-7,
                       "random_control": 1e-2},
        "window": {"tuples": 2},
    },
    "divisor-identities": {
        "tolerances": {"genus1_identity": 1e-10, "divisor_membership": 1e-10,
                       "divisor_reverify": 1e-10, "cm7d": 1e-8, "cm7": 1e-7,
                       "cm7d_decomposable_control": 1e-2,
                       "cm7_random_control": 1e-2, "singular_locus_probe": 1e-3},
        "window": {"g1_pairs": 5, "samples": 5, "probe_depth": 10},
    },
    "toda": {
        "tolerances": {"fit_residual": 1e-7, "psi_residual": 1e-6,
                       "ab_consistency": 1e-6, "perturbed_E_control": 1e-4},
        "window": {"x_size": 8, "t_size": 8},
    },
    "bdhe": {
        "tolerances": {"fit_residual": 1e-8, "psi_residual": 1e-8,
                       "ab_consistency": 1e-6, "random_control": 1e-2},
        "window": {"m_size": 10, "n_size": 10},
    },
    "rs-dynamics": {
        "tolerances": {"free_particle_linear": 1e-12, "momentum_rational": 1e-9,
                       "elliptic_vs_tracking": 1e-5, "momentum_elliptic": 1e-8,
                       "cm5": 1e-6, "cm5_perturbed_control": 1e-2},
        "window": {"grid": 101},
    },
    "wave-series": {
        "tolerances": {"f2d_genus1": 1e-8, "f2d_genus2": 1e-7,
                       "f2d_perturbed_control": 1e-2, "residue_consistency": 1e-8,
                       "residue_perturbed_control": 1e-2,
                       "semidiscrete_resubstitution": 1e-6, "kp4_skip_defect": 1e-3},
        "window": {"zeros": 5},
    },
    "controls": {
        "tolerances": {"jacobian_fit": 1e-8, "random_fit": 1e-2,
                       "jacobian_identity": 1e-8, "decomposable_identity": 1e-2},
        "window": {"trials": 3},
    },
}

SCENARIOS = tuple(PARAMETERS)

TOL_BOUNDS = (1e-16, 1e-1)


class ScenarioConfig:
    """One scenario run: its name, curve, seed, overrides and outputs,
    checked on construction."""

    def __init__(self, scenario: str, curve: str | None = None, seed: int = 7,
                 tolerances: dict | None = None, window: dict | None = None,
                 csv_dir: str | None = None, corpus: str | None = None):
        self.scenario, self.curve, self.seed = scenario, curve, seed
        self.tolerances = {} if tolerances is None else tolerances
        self.window = {} if window is None else window
        self.csv_dir, self.corpus = csv_dir, corpus
        if scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {scenario!r}; "
                              f"choose from {', '.join(SCENARIOS)}")
        if not isinstance(seed, int):
            raise ConfigError("seed must be an integer")
        for what, accepted in PARAMETERS[self.scenario].items():
            unknown = sorted(set(getattr(self, what)) - set(accepted))
            if unknown:
                raise ConfigError(
                    f"unknown {what} {', '.join(unknown)} for {self.scenario}; "
                    f"accepted: {', '.join(accepted)}")
        for name, value in self.tolerances.items():
            try:
                value = float(value)
            except (TypeError, ValueError):
                raise ConfigError(f"tolerance {name} is not a number")
            if not (TOL_BOUNDS[0] <= value <= TOL_BOUNDS[1]):
                raise ConfigError(
                    f"tolerance {name}={value:g} outside [{TOL_BOUNDS[0]:g}, {TOL_BOUNDS[1]:g}]")
            self.tolerances[name] = value
        for name, value in self.window.items():
            try:
                count = int(value, 10) if isinstance(value, str) else operator.index(value)
            except (TypeError, ValueError):
                raise ConfigError(f"window {name}={value!r} is not an integer")
            low = 0 if name == "probe_depth" else 1
            if count < low:
                raise ConfigError(f"window {name}={count} is below {low}")
            self.window[name] = count

    def tol(self, name: str) -> float:
        """Tolerance name: the override, or the scenario's default."""
        return self.tolerances.get(name, PARAMETERS[self.scenario]["tolerances"][name])

    def win(self, name: str) -> int:
        """Window size name: the override, or the scenario's default."""
        return self.window.get(name, PARAMETERS[self.scenario]["window"][name])


class CheckRecord(NamedTuple):
    name: str
    residual: float
    threshold: float
    passed: bool
    direction: str = "<="      # "<=" for residuals, ">=" for controls/gaps

    @staticmethod
    def le(name: str, residual: float, threshold: float) -> "CheckRecord":
        return CheckRecord(name, float(residual), float(threshold),
                           bool(residual <= threshold), "<=")

    @staticmethod
    def ge(name: str, value: float, threshold: float) -> "CheckRecord":
        return CheckRecord(name, float(value), float(threshold),
                           bool(value >= threshold), ">=")

    def to_dict(self) -> dict:
        return {"name": self.name, "residual": self.residual,
                "threshold": self.threshold, "pass": self.passed,
                "direction": self.direction}


class Report:
    """A scenario's checks, with its environment, timing and extra data."""

    def __init__(self, scenario: str, seed: int, checks: list, curve: str | None = None,
                 environment: dict | None = None, timing: dict | None = None,
                 extra: dict | None = None):
        self.scenario, self.seed, self.checks, self.curve = scenario, seed, checks, curve
        self.environment = {} if environment is None else environment
        self.timing = {} if timing is None else timing
        self.extra = {} if extra is None else extra

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "curve": self.curve,
            "seed": self.seed,
            "checks": [c.to_dict() for c in self.checks],
            "environment": dict(sorted(self.environment.items())),
            "extra": dict(sorted(self.extra.items())),
            "pass": self.passed,
            "timing": dict(sorted(self.timing.items())),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @staticmethod
    def from_dict(data: dict) -> "Report":
        checks = [CheckRecord(c["name"], c["residual"], c["threshold"],
                              c["pass"], c.get("direction", "<="))
                  for c in data["checks"]]
        return Report(scenario=data["scenario"], seed=data["seed"],
                      checks=checks, curve=data.get("curve"),
                      environment=data.get("environment", {}),
                      timing=data.get("timing", {}),
                      extra=data.get("extra", {}))
