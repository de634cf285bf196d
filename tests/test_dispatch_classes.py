"""The four frozen-hash tests rerun as the machines of each lower class.

A machine of a lower numpy dispatch class loads another OpenBLAS core too:
an X86_V3 machine Haswell (OpenBLAS names Zen Haswell too, with the same
bits), an X86_V2 one Nehalem.  numpy reads NPY_DISABLE_CPU_FEATURES and
OpenBLAS reads OPENBLAS_CORETYPE once, when they load, so each class runs
in a fresh pytest process.  A change that keeps the frozen bits only on the
machine that runs the suite fails here, not on a runner of another class.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from theta_secant.theta import LEVELS, dispatch_class

HERE = Path(__file__).parent
PINNED = ("test_curves.py::test_engine_outputs_are_pinned",
          "test_divisor.py::TestLineRoots::test_roots_are_pinned",
          "test_dynamics_bitwise.py::test_dynamics_outputs_are_pinned",
          "test_theta_bitwise.py::test_outputs_are_pinned")
# the setting that lowers a process to each class (tests/frozen.py), and the
# OpenBLAS core that the machines of that class load
SETTINGS = {"X86_V3": ("X86_V4 AVX512_ICL AVX512_SPR", "Haswell"),
            "X86_V2": ("X86_V4 AVX512_ICL AVX512_SPR X86_V3", "Nehalem")}


def run_python(args: list, target: str) -> subprocess.CompletedProcess:
    setting, core = SETTINGS[target]
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": setting, "OPENBLAS_CORETYPE": core}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


@pytest.mark.parametrize("target", SETTINGS)
def test_frozen_hashes_hold_under_lower_classes(target):
    """As a machine of each class below this run's, with its OpenBLAS core,
    the four hash tests pass against the hashes frozen for that class and
    core."""
    here = dispatch_class()
    if here not in LEVELS:
        pytest.skip(f"this run's class is {here}: no x86-64 level to lower")
    probe = run_python(["-c", "from theta_secant.theta import blas_core, dispatch_class; "
                              "print(dispatch_class(), blas_core())"], target)
    assert probe.returncode == 0, probe.stderr
    lowered, core = probe.stdout.split()
    if lowered not in LEVELS[LEVELS.index(here) + 1:] or core != SETTINGS[target][1]:
        pytest.skip(f"{SETTINGS[target]} does not make this run's class {here} "
                    f"a {target} machine (it reads {lowered} {core})")
    assert lowered == target
    proc = run_python(["-m", "pytest", "-q", "-p", "no:cacheprovider",
                       *(f"{HERE / test}" for test in PINNED)], target)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-2000:]
    assert "4 passed" in proc.stdout
