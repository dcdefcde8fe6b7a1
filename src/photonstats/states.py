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
its exact tail ``_negbin_tail`` (Bose–Einstein, the L-subtracted thermal law)
and ``_binomial_pmf`` (loss, splitting; q = 1 − p from its caller), in
Loader's form from one ρ(k) = log k! − k·log k + k and one deviance
bd0(k, M) = k·log(k/M) + M − k, so nothing of size n·log n cancels. ρ, for
whole k ≥ 0 only, is read from a 50-entry table, formed once at import, below
k = 50, and is the Stirling series at and above. The negative binomial at
L > 0 is the binomial of L+1 successes in n+L+1 trials with q = n̄/(1+n̄), and
at a scalar L = 0 the Bose–Einstein law itself. Every primary law calls the
kernels; ``scipy.special`` is the only scipy import. ``binomial_thin`` needs
none: it thins by sums of products of non-negative numbers. The oracles keep
their own arithmetic, so one kernel fault cannot pass both sides of a
dual-route check (``photonstats._routes`` and the per-shot Monte Carlo). The
count oracles take whole count grids, so each check is one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Literal

import numpy as np
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

_THIN_BLOCK = 128  # photons per Horner step in binomial_thin


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

_RHO_TABLE = special.gammaln(np.arange(1.0, 51.0)) - special.xlogy(np.arange(50.0), np.arange(50.0)) + np.arange(50.0)
_RHO_TABLE.setflags(write=False)


def _log_factorial_rest(k) -> np.ndarray:
    """ρ(k) = log k! − k·log k + k, 0 at k = 0, for whole counts k ≥ 0 (any
    integer or float dtype, any shape): read from `_RHO_TABLE`, the
    difference itself, below k = 50, and the Stirling series at and above,
    where the difference would lose k·log k·ε. The series is formed only
    when some k reaches 50."""
    k = np.asarray(k)
    rest = _RHO_TABLE[np.minimum(k, 49).astype(np.intp)]
    if k.size and k.max() >= 50:
        s = np.maximum(k, 50.0)
        series = 0.5 * np.log(2.0 * math.pi * s) + (1 / 12 - (1 / 360 - 1 / (1260 * s * s)) / (s * s)) / s
        rest = np.where(k < 50, rest, series)
    return rest


def _bd0(k, mean) -> np.ndarray:
    """Loader's deviance bd0(k, M) = k·log(k/M) + M − k ≥ 0, k and M broadcast, with
    nothing of size M·log M to cancel. Exactly 0 at k = M = 0, +inf at k > M = 0."""
    k, mean = np.asarray(k, dtype=float), np.asarray(mean, dtype=float)
    gap = k - mean
    # k/M is +inf at M = 0 or a subnormal M, and 0/0 NaN at k = M = 0; k − M rounds to −M at 1 ≤ k < M·ε/2.
    # fmax takes NaN and −1 to the float above −1: log1p stays finite, xlog1py(0, ·) is 0, and bd0 ≈ M there.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        bd0 = np.asarray(special.xlog1py(k, np.fmax(gap / mean, -1.0 + 2.0**-53)) - gap)
    near = mean > 64.0
    if near.any():  # the difference loses |k − M|·ε near the mode: sum (k−M)·v + 2k·(atanh v − v) there
        near = near & (np.abs(gap) < 0.3 * (k + mean))
        k, mean = np.broadcast_to(k, gap.shape), np.broadcast_to(mean, gap.shape)
        v = gap[near] / (k[near] + mean[near])
        bd0[near] = gap[near] * v + 2.0 * k[near] * v**3 * np.polyval(1.0 / np.arange(33.0, 1.0, -2.0), v * v)
    return bd0


def _poisson_pmf(k, mean: float) -> np.ndarray:
    """Poisson(ν) probability of k, exp(−ρ(k) − bd0(k, ν)); exact at k = 0 and ν = 0."""
    return np.exp(-_log_factorial_rest(k) - _bd0(k, mean))


def _binomial_pmf(k, n, p, q) -> np.ndarray:
    """Binomial(n, p) probability of k, exp(ρ(n) − ρ(k) − ρ(n−k) − bd0(k, n·p)
    − bd0(n−k, n·q)), with q = 1 − p given by the caller, as in Loader's
    dbinom_raw. Exactly 0 where k > n; p = 0 and q = 0 give exact 0s and 1s."""
    rest = np.maximum(n - k, 0)
    rho = _log_factorial_rest(n) - _log_factorial_rest(k) - _log_factorial_rest(rest)
    return np.exp(rho - _bd0(k, n * p) - _bd0(rest, n * q)) * (k <= n)


def _negbin_pmf(n, level, mean) -> np.ndarray:
    """L-subtracted thermal law C(n+L, n)·rⁿ·(1−r)^(L+1), r = n̄/(1+n̄), of mean
    (L+1)n̄; L and n̄ broadcast too. At L > 0 it is (L+1)/(n+L+1)·Binomial(L+1;
    n+L+1, 1−r) with q = r, as R's dnbinom forms it. A scalar L = 0 is
    Bose–Einstein: n·log r uses r up to n̄ = 1 and log1p(−1/(1+n̄)) above, where
    rounding r ≈ 1 costs n·ε; a scalar n̄ forms only the form it takes, an array both."""
    if np.ndim(level) or level:
        trials = n + level + 1
        return (level + 1) / trials * _binomial_pmf(level + 1, trials, 1.0 / (1.0 + mean), mean / (1.0 + mean))
    if np.ndim(mean):
        xlog_r = np.where(mean > 1.0, special.xlog1py(n, -1.0 / (1.0 + mean)), special.xlogy(n, mean / (1.0 + mean)))
    elif mean > 1.0:
        xlog_r = special.xlog1py(n, -1.0 / (1.0 + mean))
    else:
        xlog_r = special.xlogy(n, mean / (1.0 + mean))
    return np.exp(xlog_r - np.log1p(mean))


def _negbin_tail(mean: float, level: int, n_max: int) -> float:
    """Mass of `_negbin_pmf` past ``n_max``: fewer than L+1 successes in
    T = n_max+L+1 trials, (1+n̄)·Σ_{j≤L} NB(T−j; j); r^(n_max+1) at L = 0."""
    j = np.arange(level + 1) if level else 0  # a scalar L = 0 forms no binomial
    return float((1.0 + mean) * _negbin_pmf(n_max + level + 1 - j, j, mean).sum())


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


def binomial_thin(
    dist: PhotonNumberDistribution, efficiency: float
) -> PhotonNumberDistribution:
    """Random deletion of photons: each survives independently with
    probability ``efficiency``. p'(k) = Σ_n p(n) C(n,k) η^k (1−η)^(n−k).

    The result is the exact thinning of the truncated input, Σ_n p(n)·Kⁿδ₀,
    where K adds one photon kept with probability η: (Kq)(k) = (1−η)·q(k) +
    η·q(k−1). Horner's rule sums it 128 photons at a time, from the last
    nonzero count down: q ← K¹²⁸q + Σ_{j<128} p(lo+j)·Kʲδ₀. Kʲδ₀ is
    Binomial(j, η), tabled once for j ≤ 128 by the two-term recurrence, and
    K¹²⁸ is one convolution with its last row, summed directly (an FFT would
    lose the tails' relative digits). Every term added is a product of
    non-negative numbers, so nothing cancels and the tails keep their
    relative digits; the tail bound is the input's. Rows past the last
    nonzero count are exactly 0, η = 1 returns the input bit for bit and
    η = 0 puts all the mass at 0. The cost is about top²/2 multiply-adds for
    the last nonzero count top, and memory stays linear in it.
    """
    efficiency = _real(efficiency, "efficiency", 0, 1)
    p, size = dist.probs, dist.probs.size
    table = np.zeros((_THIN_BLOCK + 1, _THIN_BLOCK + 1))  # row j is K^j δ0 = Binomial(j, η)
    table[0, 0] = 1.0
    for j in range(1, _THIN_BLOCK + 1):
        table[j] = (1.0 - efficiency) * table[j - 1]
        table[j, 1:] += efficiency * table[j - 1, :-1]
    top = int(np.flatnonzero(p).max(initial=0))
    q = np.zeros(1)
    for lo in range(top - top % _THIN_BLOCK, -1, -_THIN_BLOCK):
        q = np.convolve(q, table[_THIN_BLOCK])
        block = p[lo : lo + _THIN_BLOCK]
        q[: _THIN_BLOCK + 1] += block @ table[: block.size]
    probs = np.zeros(size)
    probs[: q.size] = q[:size]
    return PhotonNumberDistribution(probs, dist.tail_bound)
