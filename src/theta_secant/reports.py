"""Scenario configuration and machine-readable reports.

Configs reject unknown fields; tolerance overrides are range checked, and
window overrides must be integers of at least 1 (probe_depth at least 0).
Reports serialize to JSON with sorted keys so identical config + seed
yields byte-identical output up to the isolated "timing" object.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field

from .errors import ConfigError

SCENARIOS = (
    "theta-selftest",
    "fay-trisecant",
    "divisor-identities",
    "toda",
    "bdhe",
    "rs-dynamics",
    "wave-series",
    "controls",
)

_CONFIG_FIELDS = {"scenario", "curve", "seed", "tolerances", "window",
                  "out", "csv_dir", "corpus"}

TOL_BOUNDS = (1e-16, 1e-1)


@dataclass
class ScenarioConfig:
    scenario: str
    curve: str | None = None
    seed: int = 7
    tolerances: dict = field(default_factory=dict)
    window: dict = field(default_factory=dict)
    out: str | None = None
    csv_dir: str | None = None
    corpus: str | None = None

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {self.scenario!r}; "
                              f"choose from {', '.join(SCENARIOS)}")
        if not isinstance(self.seed, int):
            raise ConfigError("seed must be an integer")
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

    @staticmethod
    def from_dict(data: dict) -> "ScenarioConfig":
        unknown = set(data) - _CONFIG_FIELDS
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        if "scenario" not in data:
            raise ConfigError("config needs a scenario")
        return ScenarioConfig(**data)


@dataclass
class CheckRecord:
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


@dataclass
class Report:
    scenario: str
    seed: int
    checks: list
    curve: str | None = None
    environment: dict = field(default_factory=dict)
    timing: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)

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
