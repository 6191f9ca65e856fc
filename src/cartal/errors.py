"""Exception types shared across the package.

Plain argument errors (bad sizes, bad ranges) raise ``ValueError`` directly;
the classes below cover failures that callers may want to handle separately.
"""

from __future__ import annotations


class CartalError(Exception):
    """Base class for package-specific failures."""


class ParseError(CartalError):
    """A record could not be parsed. Carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class SchemaError(CartalError):
    """Data violates a dataset invariant (dimensions, ids, labels)."""


class ConfigError(CartalError):
    """An experiment configuration is invalid. Carries the key path and the
    message without it (``reason``)."""

    def __init__(self, message: str, key: str | None = None):
        self.reason = message
        if key is not None:
            message = f"{key}: {message}"
        super().__init__(message)
        self.key = key


class StateError(CartalError):
    """A pool bookkeeping operation violated the labelled/unlabelled contract."""


class CapacityError(CartalError):
    """Not enough examples available to satisfy a request."""


class DivergenceError(CartalError):
    """Training produced a non-finite loss. Carries the global step index."""

    def __init__(self, message: str, step: int | None = None):
        if step is not None:
            message = f"step {step}: {message}"
        super().__init__(message)
        self.step = step


class InsufficientDynamicsError(CartalError):
    """Too few training-dynamics snapshots were collected to build a datamap."""
