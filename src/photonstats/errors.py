"""Exception taxonomy shared by every photonstats module.

The split mirrors how failures should be handled at the command line:
value/usage problems (DomainError and friends, ConfigError) are the caller's
to fix, while AccuracyError means a numerical guarantee could not be met and
the run must not be trusted.

Every integer argument (counts, orders, shots, sizes, budgets, cutoffs, seeds)
obeys `_count`: a Python or NumPy integer, never a bool or a float, at or above
its lower bound, and entry by entry an integer array (or a list or tuple of
such integers; an empty one is an empty grid) where a law broadcasts.
Anything else raises DomainError naming the parameter.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "PhotonStatsError",
    "DomainError",
    "ContractError",
    "UndefinedCoherenceError",
    "SingularPointError",
    "SaturationError",
    "AccuracyError",
    "ConfigError",
]


class PhotonStatsError(Exception):
    """Base class for all package-specific failures."""


class DomainError(PhotonStatsError, ValueError):
    """A parameter lies outside its mathematical or physical domain."""


class ContractError(PhotonStatsError, ValueError):
    """Mismatched shapes, lengths, or otherwise inconsistent arguments."""


class UndefinedCoherenceError(DomainError):
    """g2 requested for a distribution with zero mean photon number."""


class SingularPointError(DomainError):
    """Derivative-based quantity evaluated where the derivative vanishes."""


class SaturationError(DomainError):
    """A ratio diverges (zero noise floor); reported instead of returning inf."""


class AccuracyError(PhotonStatsError, ArithmeticError):
    """A truncation or quadrature target could not be met; results untrusted."""


class ConfigError(PhotonStatsError, ValueError):
    """Malformed run configuration (unknown keys, missing files, bad values)."""


def _count(value, name: str, low: int = 0, *, grid: bool = False):
    """The integer rule above: ``value`` as an int, or with ``grid=True``
    also as an integer array."""
    if type(value) is int or isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        if value >= low:
            return int(value)
    elif grid:
        arr = np.asarray(value)
        if isinstance(value, (list, tuple)) and arr.size == 0:
            arr = arr.astype(int)  # np.asarray([]) is float64
        # np.asarray turns a bool among the ints of a list into an int
        mixed = isinstance(value, (list, tuple)) and any(
            isinstance(v, (bool, np.bool_)) for v in np.asarray(value, dtype=object).flat
        )
        if arr.dtype.kind in "iu" and not mixed and not np.any(arr < low):
            return arr
    raise DomainError(f"{name} must be an integer >= {low}, got {value!r}")
