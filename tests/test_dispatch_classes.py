"""The four frozen-hash tests rerun under each lower numpy dispatch class.

numpy reads NPY_DISABLE_CPU_FEATURES once, when it loads, so each class
runs in a fresh pytest process.  A change that keeps the frozen bits only
under the class of the machine that runs the suite fails here, not on a
runner of another class.
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
# the setting that lowers a process to each class (tests/frozen.py)
SETTINGS = {"X86_V3": "X86_V4 AVX512_ICL AVX512_SPR",
            "X86_V2": "X86_V4 AVX512_ICL AVX512_SPR X86_V3"}


def run_python(args: list, setting: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": setting}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


@pytest.mark.parametrize("target", SETTINGS)
def test_frozen_hashes_hold_under_lower_classes(target):
    """Under each setting that lowers this run's class, the four hash
    tests pass against the hashes frozen for the class it lowers to."""
    setting, here = SETTINGS[target], dispatch_class()
    if here not in LEVELS:
        pytest.skip(f"this run's class is {here}: no x86-64 level to lower")
    probe = run_python(["-c", "from theta_secant.theta import dispatch_class; "
                              "print(dispatch_class())"], setting)
    assert probe.returncode == 0, probe.stderr
    lowered = probe.stdout.strip()
    if lowered not in LEVELS[LEVELS.index(here) + 1:]:
        pytest.skip(f"{setting!r} does not lower this run's class {here} "
                    f"(it reads {lowered})")
    assert lowered == target
    proc = run_python(["-m", "pytest", "-q", "-p", "no:cacheprovider",
                       *(f"{HERE / test}" for test in PINNED)], setting)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-2000:]
    assert "4 passed" in proc.stdout
