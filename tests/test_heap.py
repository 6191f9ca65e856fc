"""The malloc thresholds ``import cartal`` fixes: a pool-sized temporary is
mapped, and unmapped on free, even after a larger array has been freed."""

from __future__ import annotations

import ctypes
import os
import subprocess
import sys

import pytest

import cartal
from cartal import heap

_LIBC = ctypes.CDLL(None)
pytestmark = pytest.mark.skipif(not (hasattr(_LIBC, "mallopt") and hasattr(_LIBC, "mallinfo2")),
                                reason="libc has no mallopt/mallinfo2 (not glibc 2.33+)")

# Bytes of mmapped blocks (mallinfo2's hblkhd) that a 1.5 MiB array adds
# after a 16 MiB one was allocated and freed; argv[1] says whether cartal is
# imported first.
_GROWTH = """
import ctypes, sys
import numpy as np
if sys.argv[1] == "cartal":
    import cartal

class MallInfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in ("arena", "ordblks", "smblks", "hblks", "hblkhd",
                                                     "usmblks", "fsmblks", "uordblks", "fordblks", "keepcost")]

libc = ctypes.CDLL(None)
libc.mallinfo2.restype = MallInfo2
big = np.ones(1 << 21)
del big
before = libc.mallinfo2().hblkhd
held = np.ones(3 << 16)
print(libc.mallinfo2().hblkhd - before)
"""


def _mapped_growth(first: str) -> int:
    src = os.path.dirname(os.path.dirname(cartal.__file__))
    env = {k: v for k, v in os.environ.items() if not k.startswith("MALLOC_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", _GROWTH, first], env=env,
                         capture_output=True, text=True, check=True, timeout=60)
    return int(out.stdout)


def test_import_cartal_maps_a_pool_sized_array_after_a_larger_free():
    assert _mapped_growth("cartal") >= 3 << 19  # the 1.5 MiB array was mmapped
    # glibc's own rising threshold would have put it on the heap
    assert _mapped_growth("numpy") < 3 << 19


def test_the_reporter_gives_the_threshold_set():
    assert heap.mmap_threshold() == 1 << 20
