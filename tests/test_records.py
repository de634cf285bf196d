"""The package's records keep their contracts as plain classes and
NamedTuples, and importing the package builds no dataclass."""

import json
import subprocess
import sys

import numpy as np
import pytest

from theta_secant.cli import run_scenario
from theta_secant.curves import CurvePoint, CurveSpec
from theta_secant.lattices import LatticeWindow
from theta_secant.reports import SCENARIOS, CheckRecord, Report, ScenarioConfig
from theta_secant.scaled import ScaledComplex
from theta_secant.theta import PeriodMatrix, ThetaRequest


def test_import_paths_load_neither_dataclasses_nor_csv():
    # csv is imported where a table is written (the to_csv methods)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys\n"
         "import theta_secant.cli, theta_secant.curves, theta_secant.kummer\n"
         "import theta_secant.divisor, theta_secant.lattices\n"
         "import theta_secant.dynamics, theta_secant.series\n"
         "print(sorted({'dataclasses', 'csv'} & set(sys.modules)))"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


B = PeriodMatrix([[1.1j, 0.2 + 0.3j], [0.2 + 0.3j, 0.9j]])


@pytest.mark.parametrize("record, name", [
    (B, "entries"),
    (ThetaRequest(np.array([0.1, 0.2j]), B), "z"),
    (CurveSpec("hyperelliptic2", poly=[-1, 0, 0, 0, 0, 1]), "poly"),
    (CurvePoint(x=0.9 + 0.9j, sheet=-1), "sheet"),
    (LatticeWindow(m_range=(0, 3), n_range=(0, 2)), "m_range"),
], ids=["PeriodMatrix", "ThetaRequest", "CurveSpec", "CurvePoint", "LatticeWindow"])
def test_frozen_records_refuse_assignment(record, name):
    value = getattr(record, name)
    for attr in (name, "new_attribute"):
        with pytest.raises(AttributeError):
            setattr(record, attr, value)
    with pytest.raises(AttributeError):
        delattr(record, name)
    assert getattr(record, name) is value


def test_scaled_complex_compares_and_hashes_by_value():
    a, b = ScaledComplex(1.5 - 2j, 3.0), ScaledComplex(1.5 - 2j, logscale=3.0)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != ScaledComplex(1.5 - 2j, 4.0)
    assert ScaledComplex(2j).logscale == 0.0


def test_check_record_builds_positionally():
    rec = CheckRecord("gap", 0.5, 1e-2, True, ">=")
    assert (rec.name, rec.residual, rec.threshold, rec.passed, rec.direction) == (
        "gap", 0.5, 1e-2, True, ">=")
    assert CheckRecord("fit", 1e-9, 1e-8, True).direction == "<="
    assert CheckRecord.ge("gap", 0.5, 1e-2) == rec


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_report_round_trips_through_json(scenario):
    text = run_scenario(ScenarioConfig(scenario, seed=7)).to_json()
    assert Report.from_dict(json.loads(text)).to_json() == text
