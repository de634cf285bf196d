"""Frozen output hashes, one per numpy dispatch class.

numpy picks its SIMD code at run time, and several ufuncs (exp, log, complex
abs and multiplication among them) round differently under each choice, so
a hash of output bytes holds only for the numpy major.minor and x86-64 level
that froze it.  NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"
lowers a process to X86_V3; adding X86_V3 lowers it to X86_V2.
"""

import numpy as np

try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:     # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_features__


LEVELS = ("X86_V4", "X86_V3", "X86_V2")


def dispatch_class() -> str:
    """The highest x86-64 level numpy dispatches to in this process."""
    return next((v for v in LEVELS if __cpu_features__.get(v)), "below X86_V2")


def assert_frozen(digest: str, frozen: dict) -> None:
    """digest is the hash frozen for this process's class, "numpy 2.4
    X86_V4" say; a class with no frozen hash fails, naming the digest."""
    key = f"numpy {'.'.join(np.__version__.split('.')[:2])} {dispatch_class()}"
    assert key in frozen, f"no hash frozen for {key}: this run computed {digest}"
    assert digest == frozen[key], f"{key}: computed {digest}, frozen {frozen[key]}"
