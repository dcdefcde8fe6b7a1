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

Every real argument (means, rates, efficiencies, angles, lengths, weights,
solver settings, positions, sample grids) obeys `_real`, the float twin: a
Python or NumPy integer or float, never a bool, a string or None, finite and
in its range, used as a Python float, and entry by entry a float64 array
where a law broadcasts. So a NumPy float32 gives the result of the Python
float of its value, bit for bit. Anything else raises DomainError naming the
parameter.
"""

from __future__ import annotations

import math

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


def _holds_bool(value) -> bool:
    """Whether ``value`` is a list or tuple holding a bool, which np.asarray
    would turn into a number."""
    return isinstance(value, (list, tuple)) and any(
        isinstance(v, (bool, np.bool_)) for v in np.asarray(value, dtype=object).flat
    )


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
        if arr.dtype.kind in "iu" and not _holds_bool(value) and not np.any(arr < low):
            return arr
    raise DomainError(f"{name} must be an integer >= {low}, got {value!r}")


def _real(value, name: str, low=-math.inf, high=math.inf, *, strict: bool = False, grid: bool = False):
    """The real rule above: ``value`` as a float in [low, high], or in
    (low, high) with ``strict``; with ``grid=True`` as a float64 array, which
    is 0-d for a scalar."""
    real, extremes = None, [math.nan]  # refused, unless value is a number
    if grid:
        arr = np.asarray(value)
        if arr.dtype.kind in "iuf" and not _holds_bool(value):
            real = arr.astype(float, copy=False)
            extremes = [real.min(), real.max()] if real.size else []  # a NaN is both
    elif isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool):
        try:
            real = float(value)
        except OverflowError:  # an int past the float range
            real = math.inf
        extremes = [real]
    if all(math.isfinite(x) and (low < x < high if strict else low <= x <= high) for x in extremes):
        return real
    bounds = f"{'(' if strict else '['}{low!r}, {high!r}{')' if strict else ']'}"
    raise DomainError(f"{name} must be a finite real in {bounds}, got {value!r}")


def _real_fields(config, names: str, low=-math.inf, high=math.inf, *, strict: bool = False) -> None:
    """Store each of the space-separated ``names`` of a frozen dataclass as
    the float `_real` returns for it."""
    for name in names.split():
        object.__setattr__(config, name, _real(getattr(config, name), name, low, high, strict=strict))
