"""The thread count of the OpenBLAS library in numpy's wheel, read and set
through ctypes, independently of cartal. It imports no cartal module, so a
script can read the count before ``import cartal`` and again after."""

from __future__ import annotations

import ctypes
import glob
import os

import numpy as np

_NAMES = ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads",
          "openblas_{}_num_threads64_", "openblas_{}_num_threads")


def _library():
    """numpy's bundled OpenBLAS and its symbol pattern; None if numpy ships none."""
    root = os.path.dirname(np.__file__)
    for path in sorted(glob.glob(root + ".libs/*openblas*") + glob.glob(root + "/.dylibs/*openblas*")):
        lib = ctypes.CDLL(path)
        for name in _NAMES:
            if hasattr(lib, name.format("get")):
                return lib, name
    return None


def openblas_threads(set_to: int | None = None) -> int | None:
    """The thread count of numpy's OpenBLAS, first set to ``set_to`` when
    given; None where numpy ships no OpenBLAS of its own."""
    found = _library()
    if found is None:
        return None
    lib, name = found
    if set_to is not None:
        getattr(lib, name.format("set"))(set_to)
    return getattr(lib, name.format("get"))()
