"""Photon-number distributions and the basic statistics built on them.

Everything downstream (angle scans, wavepacket correlations, conditional
sensing, imaging) manipulates truncated photon-number pmfs. This module fixes
the conventions once:

* a distribution is a non-negative vector p(0..n_max) whose missing mass is
  tracked explicitly in ``tail_bound`` and never renormalized away;
* the three canonical sources are Fock (unit mass at n), coherent
  (Poissonian, p(n) = e^(-n̄) n̄^n / n!) and thermal (Bose–Einstein,
  p(n) = n̄^n / (1+n̄)^(n+1));
* g2 is the single-mode zero-delay form ⟨n(n−1)⟩/⟨n⟩², which equals
  1 + (⟨(Δn)²⟩ − ⟨n⟩)/⟨n⟩².

Truncation policy, shared by every truncated law in the package (``pmf``
here, the scatter law, the P-function quadrature and the subtracted and
heralded sensing states): start at a baseline cutoff, by default
max(16, ceil(20·(n̄+1))) for the law's total mean, and grow it to
ceil(1.25·n_max) + 8 until the mass past the cutoff is at or below
``tail_target``. Each law supplies that tail exactly, as a closed form
(geometric, Poisson and negative-binomial survival functions, the scatter
law's own identity), never as a mass deficit 1 − Σp, so rounding in the sum
is not booked as truncation. The target is a real argument >= 0 (see
`photonstats.errors`), checked before any work. A total mean whose baseline
overflows, and a cutoff past the 2**27-entry budget, raise DomainError
naming the caller's inputs before any array is made. A growth step that
does not lower the tail (a guard for a tail that stops falling) or 64
growth steps short of the target raise AccuracyError, so non-convergence is
never silent and never slow. The default construction honors tail_bound ≤
1e-10 without silent rescaling.

Each count law has one kernel here, in log space and broadcast over integer
counts: ``_poisson_pmf`` (coherent light, dark counts), ``_negbin_pmf`` and
its exact tail ``_negbin_tail`` (Bose–Einstein, the L-subtracted thermal
law) and ``_binomial_pmf`` (loss, splitting), whose log sum
``_binomial_terms`` also takes ``binomial_thin``'s tabled pieces. Every
primary law calls them; ``scipy.special`` is the only scipy import. The
oracles keep their own arithmetic, so one kernel fault cannot pass both
sides of a dual-route check (``photonstats._routes`` and the per-shot Monte
Carlo). The count oracles take whole count grids, so each check is one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Literal

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import special

from .errors import (
    AccuracyError,
    ContractError,
    DomainError,
    UndefinedCoherenceError,
    _count,
    _real,
    _real_fields,
)

__all__ = [
    "DEFAULT_TAIL_TARGET",
    "PhotonNumberDistribution",
    "SourceSpec",
    "fock",
    "coherent",
    "thermal",
    "default_cutoff",
    "pmf",
    "moments",
    "g2_from_pmf",
    "convolve",
    "binomial_thin",
]

DEFAULT_TAIL_TARGET = 1e-10

# Numerical slack for "sums to one": accumulated float error over ~1e3 terms.
_SUM_SLACK = 1e-12

# Most entries one truncated pmf may hold: 1 GiB of float64. A cutoff past it
# is refused with DomainError, whose message quotes this budget, before any
# array is made.
_ENTRY_BUDGET = 2**27

_THIN_BLOCK = 128  # kernel rows per block, and columns per step, in binomial_thin
_THIN_DELTA = 1e-17  # relative mass each binomial_thin row may leave out


# ===================================================================
# Value types
# ===================================================================

@dataclass(frozen=True)
class PhotonNumberDistribution:
    """Truncated pmf over photon number n = 0..n_max.

    ``tail_bound`` is a guaranteed upper bound on the probability mass lost to
    truncation. The stored vector is never renormalized: sum(probs) always
    lies in [1 - tail_bound, 1], so truncation error stays auditable.
    """

    probs: np.ndarray
    tail_bound: float = 0.0

    def __post_init__(self) -> None:
        arr = np.array(self.probs, dtype=float, copy=True)
        if arr.ndim != 1 or arr.size == 0:
            raise ContractError("probs must be a non-empty 1-D vector")
        if not np.all(np.isfinite(arr)):
            raise DomainError("probs must be finite")
        if np.any(arr < 0.0):
            raise DomainError("probs must be non-negative")
        if not (math.isfinite(self.tail_bound) and 0.0 <= self.tail_bound < 1.0):
            raise DomainError(f"tail_bound {self.tail_bound!r} outside [0, 1)")
        total = float(arr.sum())
        if total > 1.0 + _SUM_SLACK:
            raise ContractError(f"probability mass {total} exceeds 1")
        if total < 1.0 - self.tail_bound - _SUM_SLACK:
            raise ContractError(
                f"probability mass {total} below 1 - tail_bound = {1.0 - self.tail_bound}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)

    @property
    def n_max(self) -> int:
        return self.probs.size - 1

    def support(self) -> np.ndarray:
        return np.arange(self.probs.size)


@dataclass(frozen=True)
class SourceSpec:
    """One of the canonical sources: fock(n), coherent(n̄) or thermal(n̄).

    ``mean`` is the mean photon number; for a Fock state it is the (integer)
    photon number itself.
    """

    kind: Literal["fock", "coherent", "thermal"]
    mean: float

    def __post_init__(self) -> None:
        if self.kind not in ("fock", "coherent", "thermal"):
            raise DomainError(f"unknown source kind {self.kind!r}")
        _real_fields(self, "mean", 0)
        if self.kind == "fock" and self.mean != int(self.mean):
            raise DomainError(f"fock occupation must be a non-negative integer, got {self.mean!r}")


def fock(n: int) -> SourceSpec:
    """Number state with exactly n photons."""
    return SourceSpec("fock", _count(n, "n"))


def coherent(mean: float) -> SourceSpec:
    """Coherent state with mean photon number n̄ = |α|²."""
    return SourceSpec("coherent", mean)


def thermal(mean: float) -> SourceSpec:
    """Single-mode thermal (Bose–Einstein) state with mean n̄."""
    return SourceSpec("thermal", mean)


# ===================================================================
# Count-law kernels (log space, broadcast over integer counts)
# ===================================================================

def _log_factorial_rest(k) -> np.ndarray:
    """ρ(k) = log k! − k·log k + k, 0 at k = 0: the difference itself below
    k = 50, and the Stirling series above, where it would lose k·log k·ε."""
    s = np.maximum(k, 50.0)
    series = 0.5 * np.log(2.0 * math.pi * s) + (1 / 12 - (1 / 360 - 1 / (1260 * s * s)) / (s * s)) / s
    return np.where(k < 50.0, special.gammaln(k + 1.0) - special.xlogy(k, k) + k, series)


def _poisson_pmf(k, mean: float) -> np.ndarray:
    """Poisson(ν) probability of k in Loader's saddle-point form
    exp(−ρ(k) − bd0), bd0 = k·log(k/ν) + ν − k: nothing of size ν·log ν
    cancels, so large means keep their digits. Exact at k = 0 and ν = 0."""
    k = np.asarray(k, dtype=float)
    gap = k - mean
    with np.errstate(over="ignore"):  # k/ν is inf at a subnormal ν, as p(k ≥ 1) is 0
        bd0 = np.asarray(special.xlog1py(k, gap / mean if mean > 0.0 else math.inf) - gap)
    if mean > 64.0:
        # The difference loses |k − ν|·ε near the mode: sum (k−ν)·v + 2k·(atanh v − v) there.
        near = np.abs(gap) < 0.3 * (k + mean)
        v = gap[near] / (k[near] + mean)
        bd0[near] = gap[near] * v + 2.0 * k[near] * v**3 * np.polyval(1.0 / np.arange(33.0, 1.0, -2.0), v * v)
    return np.exp(-_log_factorial_rest(k) - bd0)


def _log_choose(n, level):
    """log C(n+L, n) = ρ(n+L) − ρ(n) − ρ(L) + n·log1p(L/n) + L·log1p(n/L),
    whose terms stay small where log-gamma differences would cancel."""
    return (
        _log_factorial_rest(n + level) - _log_factorial_rest(n) - _log_factorial_rest(level)
        + special.xlog1py(n, level / np.maximum(n, 1.0)) + special.xlog1py(level, n / np.maximum(level, 1.0))
    )


def _negbin_pmf(n, level, mean) -> np.ndarray:
    """L-subtracted thermal law C(n+L, n)·rⁿ·(1−r)^(L+1), r = n̄/(1+n̄), of mean
    (L+1)n̄ (Bose–Einstein at L = 0); L and n̄ broadcast too. n·log r uses r up
    to n̄ = 1 and log1p(−1/(1+n̄)) above, where rounding r ≈ 1 costs n·ε."""
    xlog_r = np.where(mean > 1.0, special.xlog1py(n, -1.0 / (1.0 + mean)), special.xlogy(n, mean / (1.0 + mean)))
    return np.exp(_log_choose(n, level) + xlog_r - (level + 1) * np.log1p(mean))


def _negbin_tail(mean: float, level: int, n_max: int) -> float:
    """Mass of `_negbin_pmf` past ``n_max``: fewer than L+1 successes in
    T = n_max+L+1 trials, (1+n̄)·Σ_{j≤L} NB(T−j; j); r^(n_max+1) at L = 0."""
    j = np.arange(level + 1)
    return float((1.0 + mean) * _negbin_pmf(n_max + level + 1 - j, j, mean).sum())


def _binomial_terms(log_n, log_k, log_rest, xlog_k, xlog_rest) -> np.ndarray:
    """The binomial law as one log sum, log n! − log k! − log (n−k)! +
    k·log p + (n−k)·log1p(−p), exponentiated: exactly 0 where k > n, at
    log-gamma's pole. The pieces broadcast, so ``binomial_thin`` can pass
    table views."""
    return np.exp(log_n - log_k - log_rest + xlog_k + xlog_rest)


def _binomial_pmf(k, n, p: float) -> np.ndarray:
    """Binomial(n, p) probability of k; 0 where k > n. p = 0 and p = 1 are
    exact (n − k is clipped at 0 in (n−k)·log1p(−p), whose +inf at p = 1
    would meet the pole). Log-gamma loses ~n·log n·ε: 1e-12 near n = 700."""
    return _binomial_terms(
        special.gammaln(n + 1), special.gammaln(k + 1), special.gammaln(n - k + 1),
        special.xlogy(k, p), special.xlog1py(np.maximum(n - k, 0), -p),
    )


# ===================================================================
# Truncation
# ===================================================================

def default_cutoff(mean_total: float) -> int:
    """Baseline truncation index for a source of the given total mean; a
    mean past ~9e306, whose 20·(n̄+1) overflows, raises DomainError."""
    baseline = 20.0 * (_real(mean_total, "mean_total", 0) + 1.0)
    if not math.isfinite(baseline):
        raise DomainError(
            f"mean_total {mean_total!r} is too large: its baseline cutoff 20·(n̄+1) overflows"
        )
    return max(16, math.ceil(baseline))


def _check_budget(entries: int, what: str, table: str = "its pmf") -> None:
    """DomainError naming ``what``, the input that asks for it, if ``table``
    needs more than `_ENTRY_BUDGET` entries."""
    if entries > _ENTRY_BUDGET:
        raise DomainError(
            f"{what}: {table} needs over 2**27 entries, past the budget of 1 GiB of float64"
        )


def _grow_cutoff(
    mean_total: float, tail: Callable[[int], float], tail_target: float, what: str
) -> tuple[int, float]:
    """The truncation rule of every truncated law (see the module docstring):
    start at `default_cutoff` of the law's total mean and grow the cutoff
    until ``tail(n_max)`` ≤ ``tail_target``; return the cutoff and its tail.
    A total mean whose baseline overflows, and a cutoff past
    `_ENTRY_BUDGET`, raise DomainError naming ``what``, the caller's inputs,
    before any tail is taken."""
    tail_target = _real(tail_target, "tail_target", 0)
    try:
        n_max = default_cutoff(mean_total)
    except DomainError:  # the total mean is inf, or its 20·(n̄+1) is
        raise DomainError(f"{what}: its baseline cutoff 20·(n̄+1) overflows") from None
    _check_budget(n_max + 1, what)
    current = tail(n_max)
    steps = 0
    while not current <= tail_target:
        if steps == 64:
            raise AccuracyError(
                f"truncated mass {current:g} still above tail_target {tail_target:g} "
                f"after 64 cutoff increases (cutoff {n_max})"
            )
        n_max = math.ceil(n_max * 1.25) + 8
        steps += 1
        _check_budget(n_max + 1, what)
        previous, current = current, tail(n_max)
        if not current < previous:
            raise AccuracyError(
                f"truncated mass stalled at {current:g} above tail_target "
                f"{tail_target:g} (cutoff {n_max})"
            )
    return n_max, current


def pmf(
    source: SourceSpec,
    cutoff: int | None = None,
    tail_target: float = DEFAULT_TAIL_TARGET,
) -> PhotonNumberDistribution:
    """Exact truncated pmf of a canonical source.

    With ``cutoff=None`` the baseline rule is used and then extended until the
    exact tail mass drops to ``tail_target`` or below. An explicit ``cutoff``
    is honored verbatim, with the true tail recorded in the result. A cutoff
    of `_ENTRY_BUDGET` or more, given or grown, raises DomainError.
    """
    if cutoff is not None:
        cutoff = _count(cutoff, "cutoff")
        _check_budget(cutoff + 1, f"cutoff {cutoff}")
    mean = source.mean
    what = f"{source.kind} mean {mean!r}"

    if source.kind == "fock":
        n = int(mean)
        n_max = max(default_cutoff(0.0), n) if cutoff is None else cutoff
        _check_budget(n_max + 1, what)
        if n_max < n:
            raise ContractError(f"cutoff {n_max} cannot hold fock({n})")
        probs = np.zeros(n_max + 1)
        probs[n] = 1.0
        return PhotonNumberDistribution(probs, 0.0)

    if source.kind == "thermal":
        law, tail_of = (lambda n: _negbin_pmf(n, 0, mean)), (lambda c: _negbin_tail(mean, 0, c))
    else:  # coherent; pdtrc is the Poisson survival function
        law, tail_of = (lambda n: _poisson_pmf(n, mean)), (lambda c: float(special.pdtrc(c, mean)))
    if cutoff is None:
        n_max, tail = _grow_cutoff(mean, tail_of, tail_target, what)
    else:
        n_max, tail = cutoff, tail_of(cutoff)
    return PhotonNumberDistribution(law(np.arange(n_max + 1)), tail)


# ===================================================================
# Statistics
# ===================================================================

def moments(dist: PhotonNumberDistribution) -> tuple[float, float]:
    """Mean and variance of the truncated pmf."""
    n = dist.support()
    mean = float(np.dot(n, dist.probs))
    second = float(np.dot(n * n, dist.probs))
    return mean, second - mean * mean


def g2_from_pmf(dist: PhotonNumberDistribution) -> float:
    """Zero-delay second-order coherence ⟨n(n−1)⟩/⟨n⟩², which equals
    1 + (var − mean)/mean² but keeps its digits at small means, where the
    moment form cancels."""
    n = dist.support()
    mean = float(np.dot(n, dist.probs))
    if mean * mean == 0.0:  # a mean below ~1e-162 squares to 0
        raise UndefinedCoherenceError(f"g2 undefined for a distribution of mean {mean!r}, whose square is 0")
    return float(np.dot(n * (n - 1), dist.probs)) / (mean * mean)


def convolve(
    a: PhotonNumberDistribution, b: PhotonNumberDistribution
) -> PhotonNumberDistribution:
    """Pmf of the sum of two independent photon numbers.

    The full support (n_max_a + n_max_b) is kept, so no new mass is chopped;
    the tail bound is simply additive in the inputs' missing mass.
    """
    out = np.convolve(a.probs, b.probs)  # non-negative: a sum of products of non-negative entries
    return PhotonNumberDistribution(out, min(a.tail_bound + b.tail_bound, 1.0 - 1e-15))


def _thin_kernel(size: int, efficiency: float) -> Callable[[np.ndarray, int, int], np.ndarray]:
    """``kernel(k, lo, hi)``, bit for bit ``_binomial_pmf(k[:, None],
    np.arange(lo, hi), efficiency)`` for a block k of at most 128 consecutive
    counts below ``size`` and k[0] ≤ lo ≤ hi ≤ ``size``, read from tables
    built once (see `binomial_thin`)."""
    gap = np.arange(1 - _THIN_BLOCK, size)  # n − k over every block's band
    log_rest = special.gammaln(gap + 1)  # +inf where k > n
    log_fact = log_rest[_THIN_BLOCK - 1 :]  # log n! for n = 0..size−1
    xlog_k = special.xlogy(np.arange(size), efficiency)

    def toeplitz(table):  # [i, x] = table at n − k = x − i, for i < 128 and 0 ≤ x < size
        return sliding_window_view(table, size)[::-1]

    log_rest = toeplitz(log_rest)
    xlog_rest = toeplitz(special.xlog1py(np.maximum(gap, 0), -efficiency))  # as _binomial_pmf clips it

    def kernel(k, lo, hi):  # row i, column j at n − k = (lo − k[0] + j) − i
        rows, cols = slice(k[0], k[0] + k.size), slice(lo - k[0], hi - k[0])
        return _binomial_terms(
            log_fact[lo:hi], log_fact[rows, None], log_rest[: k.size, cols],
            xlog_k[rows, None], xlog_rest[: k.size, cols],
        )

    return kernel


def binomial_thin(
    dist: PhotonNumberDistribution, efficiency: float
) -> PhotonNumberDistribution:
    """Random deletion of photons: each survives independently with
    probability ``efficiency``. p'(k) = Σ_n p(n) C(n,k) η^k (1−η)^(n−k).

    Each block of 128 output rows k sums the kernel only where its mass is.
    In n, row k's terms rise while n + 1 ≤ k/η and fall after, so the band
    starts on the block's [⌊k0/η⌋, ⌈k_last/η⌉] (on the last 128 columns
    when k0 ≥ N·η, where every row still rises at N − 1) and grows outward,
    128 columns at a time. A side stops once, for every row, the band's
    edge column, which bounds every term beyond it, times the input mass
    past the edge is at most δ/2 of the row's running sum (δ = 1e-17). So
    each row is short by at most δ of itself and the thinned law by at most
    δ·Σp, which is added to the tail bound. A row whose terms are all 0
    stays exactly 0, and η = 0, η = 1 and a subnormal η take the same path.
    At η = 0.55 that is 1.37M kernel terms instead of the full triangle's
    3.2M for thermal(100) (N = 2534 entries), and 31.6M instead of 313M for
    thermal(1000).

    A kernel term has O(N) distinct pieces: log n! by column, log k! and
    k·log η by row, and log (n−k)! and (n−k)·log1p(−η) by diagonal. They
    are tabled once per call, the diagonal ones over n − k = −127…N−1 with
    the entries ``_binomial_pmf`` gives there and seen through one 128 × N
    Toeplitz view each, which a block reads by slicing, so a term costs
    four adds and one exp instead of three log-gamma and two log calls.
    ``_binomial_terms`` sums the same pieces in the same order and the
    block product is the same matrix-vector product, so the result is bit
    for bit what ``_binomial_pmf`` over the band gives. Memory stays linear
    in N.
    """
    efficiency = _real(efficiency, "efficiency", 0, 1)
    p, size = dist.probs, dist.probs.size
    kernel = _thin_kernel(size, efficiency)

    def band(k, lo, hi, rows=0.0):  # rows + Σ p(n)·C(n,k) η^k (1−η)^(n−k) over lo ≤ n < hi, per k
        block = kernel(k, lo, hi)  # and its edge columns, copied: a view keeps the block alive
        return rows + block @ p[lo:hi], block[:, 0].copy(), block[:, -1].copy()

    probs = np.empty(size)
    for k0 in range(0, size, _THIN_BLOCK):
        k = np.arange(k0, min(k0 + _THIN_BLOCK, size))
        # the columns k/η of the block, written so that η = 0 and a subnormal η
        # do not overflow; terms at n < k0 are 0
        lo = max(k0, math.floor(k0 / efficiency) if k0 < size * efficiency else size - _THIN_BLOCK)
        hi = min(size, math.ceil(k[-1] / efficiency) + 1) if k[-1] < size * efficiency else size
        rows, first, last = band(k, lo, hi)
        while True:
            slack = 0.5 * _THIN_DELTA * rows
            grow_left = lo > k0 and not np.all(first * p[k0:lo].sum() <= slack)
            grow_right = hi < size and not np.all(last * p[hi:].sum() <= slack)
            if not (grow_left or grow_right):
                break
            if grow_left:
                lo, edge = max(k0, lo - _THIN_BLOCK), lo
                rows, first, _ = band(k, lo, edge, rows)
            if grow_right:
                edge, hi = hi, min(size, hi + _THIN_BLOCK)
                rows, _, last = band(k, edge, hi, rows)
        probs[k0 : k0 + k.size] = rows
    tail = dist.tail_bound + _THIN_DELTA * p.sum()
    return PhotonNumberDistribution(probs, min(tail, 1.0 - 1e-15))
