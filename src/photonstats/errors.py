"""Exception taxonomy shared by every photonstats module.

The split mirrors how failures should be handled at the command line:
value/usage problems (DomainError and friends, ConfigError) are the caller's
to fix, while AccuracyError means a numerical guarantee could not be met and
the run must not be trusted.

Every integer argument (counts, orders, shots, sizes, budgets, cutoffs, seeds)
obeys `_count`: a Python or NumPy integer, never a bool or a float, at or above
its lower bound and below 2**64, and entry by entry an integer array (or a
list or tuple of such integers; an empty one is an empty grid) where a law
broadcasts, whose integer dtype already keeps it below 2**64. Anything else
raises DomainError naming the parameter and the bound it misses.

Every real argument (means, rates, efficiencies, angles, lengths, weights,
solver settings, positions, sample grids) obeys `_real`, the float twin: a
Python or NumPy integer or float, never a bool, a string or None, finite and
in its range, used as a Python float, and entry by entry a float64 array
where a law broadcasts. So a NumPy float32 gives the result of the Python
float of its value, bit for bit. A grid parameter given a scalar takes it by
the scalar rule, as a 0-d float64 array, and an integer past int64 is taken
as a float there too, alone or in a list. Anything else raises DomainError
naming the parameter.
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


def _is_real_scalar(value) -> bool:
    """Whether ``value`` is a Python or NumPy integer or float, not a bool."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def _shown(value) -> str:
    """``value``'s repr for a message, but an integer of 2**64 or more by its
    bit length: Python refuses the repr of one past 4300 digits, also inside
    a list, a tuple or an array, which is then named by its type."""
    if isinstance(value, int) and abs(value) >= 2**64:
        return f"{'a negative' if value < 0 else 'an'} integer of {abs(value).bit_length()} bits"
    try:
        return repr(value)
    except ValueError:
        return f"a {type(value).__name__} holding an integer past 4300 digits"


def _count(value, name: str, low: int = 0, *, grid: bool = False):
    """The integer rule above: ``value`` as an int, or with ``grid=True``
    also as an integer array."""
    if type(value) is int or isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        if value >= 2**64:
            raise DomainError(f"{name} must be below 2**64, got {_shown(value)}")
        if value >= low:
            return int(value)
    elif grid:
        arr = np.asarray(value)
        if isinstance(value, (list, tuple)) and arr.dtype.kind not in "iu":
            entries = list(np.asarray(value, dtype=object).flat)  # [] and ints past int64 come back float64 or object
            if all(isinstance(v, (int, np.integer)) and not isinstance(v, bool) for v in entries):
                if max(entries, default=0) >= 2**64:
                    raise DomainError(f"{name} must be below 2**64, got {_shown(value)}")
                if min(entries, default=0) >= 0:
                    arr = np.asarray(value, dtype=np.uint64 if entries else int)
        if arr.dtype.kind in "iu" and not _holds_bool(value) and not np.any(arr < low):
            return arr
    raise DomainError(f"{name} must be an integer >= {low}, got {_shown(value)}")


def _within(x, low, high, strict: bool) -> bool:
    """Whether the float ``x`` is finite and in [low, high], or in (low,
    high) with ``strict``."""
    return math.isfinite(x) and (low < x < high if strict else low <= x <= high)


def _real(value, name: str, low=-math.inf, high=math.inf, *, strict: bool = False, grid: bool = False):
    """The real rule above: ``value`` as a float in [low, high], or in
    (low, high) with ``strict``; with ``grid=True`` as a float64 array, which
    is 0-d for a scalar."""
    if _is_real_scalar(value):
        try:
            real = float(value)
        except OverflowError:  # an int past the float range
            real = math.inf
        if _within(real, low, high, strict):
            return np.asarray(real) if grid else real
    elif grid:
        arr = np.asarray(value)
        if arr.dtype == object and all(map(_is_real_scalar, arr.flat)):  # ints past int64
            try:
                arr = arr.astype(float)
            except OverflowError:  # an int past the float range
                arr = np.asarray(math.inf)
        if arr.dtype.kind in "iuf" and not _holds_bool(value):
            real = arr.astype(float, copy=False)
            extremes = [real.min(), real.max()] if real.size else []  # a NaN is both
            if all(_within(x, low, high, strict) for x in extremes):
                return real
    bounds = f"{'(' if strict else '['}{low!r}, {high!r}{')' if strict else ']'}"
    raise DomainError(f"{name} must be a finite real in {bounds}, got {_shown(value)}")


def _real_fields(config, names: str, low=-math.inf, high=math.inf, *, strict: bool = False) -> None:
    """Store each of the space-separated ``names`` of a frozen dataclass as
    the float `_real` returns for it."""
    for name in names.split():
        object.__setattr__(config, name, _real(getattr(config, name), name, low, high, strict=strict))
