"""Print the name of the kernel numpy's bundled OpenBLAS picked, or ``unknown``.

Needs only numpy and ctypes.  Run it as ``python tests/blas_kernel.py``; with
``OPENBLAS_CORETYPE`` set (say, to Haswell) an OpenBLAS built with
``DYNAMIC_ARCH`` names the kernel forced, and one built without it, or a
non-x86 host, names another.
"""

import ctypes
import glob
import os

import numpy


def corename() -> str:
    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_corename64_", "openblas_get_corename64_",
                    "openblas_get_corename"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_char_p
                return fn().decode()
    return "unknown"


if __name__ == "__main__":
    try:
        print(corename())
    except OSError:         # a library that does not load names no kernel
        print("unknown")
