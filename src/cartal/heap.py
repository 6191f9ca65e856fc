"""glibc's malloc thresholds, fixed when cartal is imported (README "Memory").

A 1 MiB mmap threshold, above a 0.5 MiB MC row block, maps the 1-2 MiB
temporaries of a pool-sized pass and unmaps them on free; glibc's rising
threshold would put them on the heap, which keeps freed pages. The trim
threshold, which glibc raises in step, is fixed at 4 MiB: room at the heap top
for the 0.5-1.5 MiB buffers of a fit or MC pass, not handed back and faulted in anew.
"""

import ctypes

_THRESHOLD = 1 << 20
_set: int | None = None


def pin_mmap_threshold() -> None:
    global _set
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no mallopt, or no handle on the process (Windows)
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    if mallopt(-3, _THRESHOLD) == 1 and mallopt(-1, 4 * _THRESHOLD) == 1:  # M_MMAP_, M_TRIM_THRESHOLD
        _set = _THRESHOLD


def mmap_threshold() -> int | None:
    """The mmap threshold set at import, in bytes; None where none was set."""
    return _set
