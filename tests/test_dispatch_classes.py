"""The four frozen-hash tests rerun as the machines of each class, under each
OpenBLAS core.

numpy reads NPY_DISABLE_CPU_FEATURES and OpenBLAS reads OPENBLAS_CORETYPE
once, when they load, so each (class, core) runs in a fresh pytest process:
this run's class and the classes below it, each under the SkylakeX, Haswell
and Nehalem kernels (OpenBLAS names Zen Haswell too, with the same bits),
all but the pair this run already is.  A hash is frozen per class, so each
must hold under all three cores: a change that calls a BLAS or LAPACK
routine on a hashed path fails here, as does one that keeps the frozen bits
only on the machine that runs the suite.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from theta_secant.theta import LEVELS, blas_core, dispatch_class

HERE = Path(__file__).parent
PINNED = ("test_curves.py::test_engine_outputs_are_pinned",
          "test_divisor.py::TestLineRoots::test_roots_are_pinned",
          "test_dynamics_bitwise.py::test_dynamics_outputs_are_pinned",
          "test_theta_bitwise.py::test_outputs_are_pinned")
# the setting that lowers a process to each class below X86_V4 (tests/frozen.py)
SETTINGS = {"X86_V4": "", "X86_V3": "X86_V4 AVX512_ICL AVX512_SPR",
            "X86_V2": "X86_V4 AVX512_ICL AVX512_SPR X86_V3"}
CORES = ("SkylakeX", "Haswell", "Nehalem")


def run_python(args: list, target: str, core: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": SETTINGS[target],
           "OPENBLAS_CORETYPE": core}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


@pytest.mark.parametrize("core", CORES)
@pytest.mark.parametrize("target", SETTINGS)
def test_frozen_hashes_hold_under_every_core(target, core):
    """As a machine of this run's class or a lower one, with each OpenBLAS
    core, the four hash tests pass against the hashes frozen for the class."""
    here = dispatch_class()
    if here not in LEVELS or LEVELS.index(target) < LEVELS.index(here):
        pytest.skip(f"this run's class is {here}: it cannot be raised to {target}")
    if (target, core) == (here, blas_core()):
        pytest.skip("the suite itself runs as this class and core")
    probe = run_python(["-c", "from theta_secant.theta import blas_core, dispatch_class; "
                              "print(dispatch_class(), blas_core())"], target, core)
    assert probe.returncode == 0, probe.stderr
    if probe.stdout.split() != [target, core]:
        pytest.skip(f"{target} {core} is out of this machine's reach "
                    f"(the process reads {probe.stdout.strip()})")
    proc = run_python(["-m", "pytest", "-q", "-p", "no:cacheprovider",
                       *(f"{HERE / test}" for test in PINNED)], target, core)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-2000:]
    assert "4 passed" in proc.stdout
