#!/usr/bin/env python3
"""Print the name of the OpenBLAS core whose kernels numpy's bundled OpenBLAS runs.

    python3 tools/blas_core.py

An OpenBLAS built with ``DYNAMIC_ARCH``, as numpy's wheels bundle it, picks
one set of kernels when it loads: for the CPU it finds, or for the core named
by the ``OPENBLAS_CORETYPE`` environment variable (``Haswell``, say). Kernels
of different cores can round the same product differently, and the
bit-for-bit tests and the benchmark's digests hold for one core, so a record
of them needs the core's name. This script imports numpy, loads the library
numpy bundles (``numpy.libs/libscipy_openblas64_*.so``) with ``ctypes``,
calls its ``scipy_openblas_get_corename64_`` and prints the name
(``SkylakeX``, say). Where it finds no such library, as with a numpy built
against another BLAS, it prints that it found none and still exits 0.
"""

from __future__ import annotations

import ctypes
import sys
from pathlib import Path

import numpy as np

LIBS = Path(np.__file__).resolve().parent.parent / "numpy.libs"


def core_name(libs: Path = LIBS) -> str | None:
    """The core of the bundled OpenBLAS in ``libs``, or None where there is none."""
    for path in sorted(libs.glob("libscipy_openblas64_*.so*")):
        get_corename = getattr(ctypes.CDLL(str(path)), "scipy_openblas_get_corename64_", None)
        if get_corename is not None:
            get_corename.restype = ctypes.c_char_p
            return get_corename().decode()
    return None


def main() -> int:
    name = core_name(LIBS)
    print(name if name is not None else f"no bundled OpenBLAS with a core name found in {LIBS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
