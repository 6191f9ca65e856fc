"""One BLAS thread in every process that imports cartal (README "Determinism").

Set on the loaded OpenBLAS library through ctypes: numpy reads
``OPENBLAS_NUM_THREADS`` when it is imported, which may be before cartal is.
Without OpenBLAS (Accelerate, MKL) nothing is set.
"""

import ctypes
from contextlib import suppress

# (setter, getter) of the scipy-openblas wheels numpy ships, of 64-bit-integer
# builds, and of the plain library
_SYMBOLS = (("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
            ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
            ("openblas_set_num_threads", "openblas_get_num_threads"))


def _loaded_openblas() -> list[tuple]:
    """(setter, getter) of each OpenBLAS library mapped into this process."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split(maxsplit=5)[5].strip() for line in fh if "openblas" in line})
    except OSError:  # no /proc
        return []
    found = []
    for path in paths:
        with suppress(OSError):  # a mapping whose file has since been replaced
            lib = ctypes.CDLL(path)
            found += [(getattr(lib, s), getattr(lib, g)) for s, g in _SYMBOLS if hasattr(lib, s)][:1]
    return found


def pin_one_thread() -> None:
    """Set every OpenBLAS library this process has loaded to one thread."""
    for setter, _ in _loaded_openblas():
        setter(1)


def threads() -> int | None:
    """The OpenBLAS thread count in effect (the largest, if more than one
    library is loaded); None where no OpenBLAS is loaded."""
    return max((getter() for _, getter in _loaded_openblas()), default=None)
