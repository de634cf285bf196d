"""Frozen output hashes, one per numpy dispatch class.

numpy picks its SIMD code at run time, and several ufuncs (exp, log, complex
abs and multiplication among them) round differently under each choice.
So a hash of output bytes holds only for the numpy major.minor and x86-64
level that froze it, "numpy 2.4 X86_V4" say.  NPY_DISABLE_CPU_FEATURES=
"X86_V4 AVX512_ICL AVX512_SPR" lowers a process to X86_V3, and adding X86_V3
lowers it to X86_V2.  The hashed paths call no BLAS or LAPACK routine, so a
hash holds under every OpenBLAS core (OPENBLAS_CORETYPE) of its class.
"""

import numpy as np

from theta_secant.theta import dispatch_class


def assert_frozen(digest: str, frozen: dict) -> None:
    """digest is the hash frozen for this process's class; a key with no
    frozen hash fails, naming the digest."""
    key = f"numpy {'.'.join(np.__version__.split('.')[:2])} {dispatch_class()}"
    assert key in frozen, f"no hash frozen for {key}: this run computed {digest}"
    assert digest == frozen[key], f"{key}: computed {digest}, frozen {frozen[key]}"
