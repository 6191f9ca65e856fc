"""Deterministic seed derivation.

Every stochastic component draws from its own ``numpy`` Generator seeded by a
value derived here, so runs are reproducible across processes and platforms
without any global RNG state. Python's builtin ``hash`` is salted per process
and unusable for this; we mix the parts through SHA-256 instead.
"""

from __future__ import annotations

import hashlib


def derive_seed(*parts: object) -> int:
    """Collapse an arbitrary tuple of labels/ints into a stable 64-bit seed."""
    text = "\x1f".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")

