"""Brute-force sampling oracle: sources through splitters and noisy detectors.

Every closed form in the package can be cross-checked by drawing photon
numbers from the source law, routing each photon through a lossy splitter
network into detectors of efficiency η and adding Poisson dark counts. A
photon reaches mode i with probability pᵢ and is then kept with probability
ηᵢ, independently, so routing and detection are one multinomial draw over
(p₁η₁, …, p_mη_m, loss); the loss category is left out when nothing is lost.
No amplitude-level interference is simulated here; wherever the physics
needs amplitudes the analytic modules handle it and this module only
validates their photon-number predictions.

Where a caller reads only the total over S thermal shots, the private
`_thermal_total` draws that total in one step from its composition law:
S thermal(n̄) shots sum to NegBin(S, 1/(1+n̄)). The caller thins it by one
Binomial(Σn, pη) and adds one Poisson(S·ν) of dark counts, because a sum of
independent binomials with a common p is binomial and a sum of Poissons is
Poisson.

Where a caller reads only how many of S thermal shots hold each photon
number, `_thermal_classes` draws those class counts H_n with the coin that
`sample_source`'s geometric flips: of the R shots holding at least n photons,
Bin(R, 1/(1+n̄)) stop at n. One multinomial draw flips that coin for a
block of classes, and once fewer than one of the R shots left is expected to
stop per class, those R < 1 + n̄ shots are drawn one by one, so the cost
grows like log S, not like S. `_shots_reading` then thins each class as a
whole: shots with the same n are exchangeable, so one multinomial draw over
Binomial(n, p) at k = 0..N, plus one cell for k > N, splits a class by its
kept photons k, and Bin(·, Poisson(N − k; ν)) shots of each cell read
exactly N counts; both laws are the `states` kernels. `sample_source` and
`split_and_detect` per shot stay the oracle.

Every count is an int64. A draw whose mean, per shot or summed over the
shots, passes 2^57 could overflow it, and is refused with DomainError before
anything is drawn.

Reproducibility contract: generators are counter-based (Philox) keyed by
(seed, stream_id), so identical seeds give identical samples on every
platform and distinct stream_ids give provably disjoint streams for parallel
sweeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DomainError, UndefinedCoherenceError, _count, _real, _real_fields
from .states import PhotonNumberDistribution, SourceSpec, _binomial_pmf, _poisson_pmf

__all__ = [
    "RngSeed",
    "SplitterNetwork",
    "DetectorModel",
    "make_generator",
    "sample_source",
    "split_and_detect",
    "estimate_pmf",
    "empirical_g2",
]

# Most photon-number classes `_thermal_classes` draws in one multinomial.
_CLASS_BLOCK = 4096

# Largest expected value of one integer draw. A thermal shot of this mean
# reaches 2^63, where numpy's samplers clip or fail and int64 sums wrap, with
# probability ≈ e^−64; a Poisson draw or a total of S ≥ 2 thermal shots of
# this mean with less.
_DRAW_MEAN_MAX = 2.0**57


@dataclass(frozen=True)
class RngSeed:
    """Reproducible stream address: (seed, stream_id) -> one Philox key."""

    seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        for name in ("seed", "stream_id"):
            value = _count(getattr(self, name), name)
            if value >= 2**64:
                raise DomainError(f"{name} must be below 2**64, got {value!r}")
            object.__setattr__(self, name, value)

    def key(self) -> int:
        return self.seed + (self.stream_id << 64)


@dataclass(frozen=True)
class SplitterNetwork:
    """Multinomial photon router. Probabilities may sum below 1; the
    remainder is loss (photons that reach no detector)."""

    routing_probs: tuple[float, ...]

    def __post_init__(self) -> None:
        probs = tuple(_real(p, f"routing_probs[{i}]", 0, 1) for i, p in enumerate(self.routing_probs))
        if len(probs) < 1:
            raise ContractError("network needs at least one output mode")
        if sum(probs) > 1.0 + 1e-12:
            raise DomainError(f"routing probabilities sum to {sum(probs)} > 1")
        object.__setattr__(self, "routing_probs", probs)

    @property
    def mode_count(self) -> int:
        return len(self.routing_probs)

    @property
    def loss_probability(self) -> float:
        return max(0.0, 1.0 - sum(self.routing_probs))


@dataclass(frozen=True)
class DetectorModel:
    """Photon-number detector with efficiency η and Poisson dark rate ν
    (mean dark counts per measurement window)."""

    efficiency: float = 1.0
    dark_rate: float = 0.0

    def __post_init__(self) -> None:
        _real_fields(self, "efficiency", 0, 1)
        _real_fields(self, "dark_rate", 0)


def _check_draw_mean(mean: float, shots: int, summed: bool = False) -> None:
    """Raise DomainError, before any draw, when one draw of ``shots`` shots
    of ``mean`` counts each, or of their sum if ``summed``, expects more than
    `_DRAW_MEAN_MAX`."""
    expected = mean * shots if summed else mean
    if not expected <= _DRAW_MEAN_MAX:
        raise DomainError(
            f"mean {mean:g} over {shots} shots expects {expected:g} counts in one draw, "
            f"past 2**57, where int64 counts could overflow"
        )


def make_generator(seed: RngSeed | int) -> np.random.Generator:
    """Philox generator for the given stream address."""
    if not isinstance(seed, RngSeed):
        seed = RngSeed(seed)
    return np.random.Generator(np.random.Philox(key=seed.key()))


def sample_source(source: SourceSpec, n_samples: int, seed: RngSeed | int) -> np.ndarray:
    """i.i.d. photon numbers from the exact source law.

    Thermal draws use the geometric trick: if G ~ geometric with success
    probability 1/(1+n̄) on {1,2,...}, then G−1 is Bose–Einstein with mean n̄.
    Coherent light is Poisson; Fock is deterministic.
    """
    n_samples = _count(n_samples, "n_samples", 1)
    rng = make_generator(seed)
    mean = source.mean
    _check_draw_mean(mean, n_samples)
    if source.kind == "fock":
        return np.full(n_samples, int(mean), dtype=np.int64)
    if source.kind == "coherent":
        return rng.poisson(mean, size=n_samples).astype(np.int64)
    # thermal
    if mean == 0.0:
        return np.zeros(n_samples, dtype=np.int64)
    return (rng.geometric(1.0 / (1.0 + mean), size=n_samples) - 1).astype(np.int64)


def _thermal_total(mean: float, n_samples: int, seed: RngSeed) -> int:
    """Σn over ``n_samples`` thermal(``mean``) shots of `sample_source`,
    drawn as one number: the failures before the S-th success of a
    1/(1+n̄) coin, NegBin(S, 1/(1+n̄)), as a sum of S geometric draws."""
    _check_draw_mean(mean, n_samples, summed=True)
    if mean == 0.0:
        return 0
    return int(make_generator(seed).negative_binomial(n_samples, 1.0 / (1.0 + mean)))


def _thermal_classes(mean: float, n_samples: int, seed: RngSeed) -> tuple[np.ndarray, np.ndarray]:
    """(n, H_n) for each photon number n held by at least one of
    ``n_samples`` thermal(``mean``) shots of `sample_source`, H_n the number
    of shots holding it, n ascending.

    The geometric's memoryless coin decides class by class: of the R shots
    holding at least n photons, Bin(R, 1/(1+n̄)) stop at n and the rest go
    on. One multinomial draw flips that coin for a block of B classes, cells
    p(1−p)^i for i < B; its last cell, (1−p)^B, holds the shots that go past
    the block and start the next one. B is at most `_CLASS_BLOCK` and keeps
    the last cell's mass at e^−16 or more, so the sequential cell
    probabilities numpy forms stay accurate to ~1e−12. Once fewer than one of
    the R shots left is expected to stop per class (R < 1 + n̄), most classes
    would be empty, and the R shots are drawn one by one instead."""
    _check_draw_mean(mean, n_samples)
    if mean == 0.0:
        return np.zeros(1, dtype=np.int64), np.array([n_samples], dtype=np.int64)
    rng = make_generator(seed)
    stop, go_on = 1.0 / (1.0 + mean), mean / (1.0 + mean)
    size = max(1, min(_CLASS_BLOCK, math.ceil(16.0 / math.log1p(1.0 / mean))))
    cells = np.append(stop * go_on ** np.arange(size), go_on**size)
    numbers, counts, first, left = [], [], 0, n_samples
    while left * stop >= 1.0:
        drawn = rng.multinomial(left, cells)
        held = np.flatnonzero(drawn[:-1])
        numbers.append(first + held)
        counts.append(drawn[held])
        first, left = first + size, int(drawn[-1])
    if left:
        last, tally = np.unique(first + rng.geometric(stop, size=left) - 1, return_counts=True)
        numbers.append(last)
        counts.append(tally)
    return np.concatenate(numbers), np.concatenate(counts)


def _shots_reading(
    numbers: np.ndarray,
    counts: np.ndarray,
    keep: float,
    detector: DetectorModel,
    big_n: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Of the H_n shots (``counts``) holding n photons (``numbers``), how
    many keep k of their photons, each with probability ``keep``, and read
    exactly N once ``detector``'s Poisson(ν) dark counts are added: an (n, k)
    array over k = 0..N. The shots of a class are exchangeable, so it splits
    by k in one multinomial draw over Binomial(n, keep) at k = 0..N plus one
    cell for k > N; then Bin(·, Poisson(N − k; ν)) shots of each cell read N.
    """
    k = np.arange(big_n + 1)
    split = _binomial_pmf(k, numbers[:, None], keep)
    split = np.hstack([split, np.maximum(1.0 - split.sum(axis=1, keepdims=True), 0.0)])
    match = _poisson_pmf(big_n - k, detector.dark_rate)
    return rng.binomial(rng.multinomial(counts, split)[:, : big_n + 1], match)


def _photon_counts(counts, name: str) -> np.ndarray:
    """Photon numbers drawn per shot, as `split_and_detect` and `estimate_pmf`
    take them: a non-empty 1-D vector of integer dtype, entries >= 0."""
    arr = np.asarray(counts)
    if arr.ndim != 1 or arr.size == 0 or not np.issubdtype(arr.dtype, np.integer):
        raise ContractError(f"{name} must be a non-empty 1-D integer vector")
    return _count(counts, name, grid=True)


def split_and_detect(
    counts: np.ndarray,
    network: SplitterNetwork,
    detectors: tuple[DetectorModel, ...] | list[DetectorModel],
    seed: RngSeed | int,
) -> np.ndarray:
    """Route, detect and add dark counts; returns shape (n_samples, mode_count).

    Each input photon independently picks output mode i with probability
    routing_probs[i] (or is lost with the leftover probability) and mode i
    keeps each arrival with probability η_i. Both steps are one multinomial
    per shot over (p_iη_i for every mode, 1 − Σ p_iη_i); the last, loss,
    category is left out of the draw when it is exactly 0 (a lossless
    network read by perfect detectors). Mode i then adds Poisson(ν_i) dark
    counts when ν_i > 0. counts must have an integer dtype.
    """
    counts = _photon_counts(counts, "counts")
    if len(detectors) != network.mode_count:
        raise ContractError(
            f"{len(detectors)} detectors for {network.mode_count} output modes"
        )
    rng = make_generator(seed)
    pvals = [p * det.efficiency for p, det in zip(network.routing_probs, detectors)]
    loss = 1.0 - sum(pvals)
    if loss > 0.0:
        pvals.append(loss)
    out = rng.multinomial(counts.astype(np.int64, copy=False), pvals)[:, : network.mode_count]
    for i, det in enumerate(detectors):
        if det.dark_rate > 0.0:
            out[:, i] += rng.poisson(det.dark_rate, size=counts.size)
    return out


def estimate_pmf(samples: np.ndarray) -> tuple[PhotonNumberDistribution, np.ndarray]:
    """Empirical pmf with per-bin binomial standard errors sqrt(p(1−p)/N)."""
    samples = _photon_counts(samples, "samples")
    n = samples.size
    freqs = np.bincount(samples.astype(np.int64)) / n
    se = np.sqrt(freqs * (1.0 - freqs) / n)
    return PhotonNumberDistribution(freqs, 0.0), se


def empirical_g2(samples: np.ndarray) -> tuple[float, float]:
    """Sample g2 = ⟨n(n−1)⟩/⟨n⟩² and its delta-method standard error.

    Writing g = m2/m1² with m1 = ⟨n⟩ and m2 = ⟨n(n−1)⟩, the gradient is
    (−2 m2/m1³, 1/m1²) and the error follows from the sample covariance of
    (n, n(n−1)) scaled by 1/N.
    """
    samples = _real(samples, "samples", grid=True)
    if samples.ndim != 1 or samples.size < 2:
        raise ContractError("need at least two samples")
    n = samples.size
    pairs = samples * (samples - 1.0)
    m1 = samples.mean()
    m2 = pairs.mean()
    if m1 <= 0.0:
        raise UndefinedCoherenceError("empirical g2 undefined for zero-mean samples")
    g2 = m2 / (m1 * m1)
    grad = np.array([-2.0 * m2 / m1**3, 1.0 / (m1 * m1)])
    cov = np.cov(np.stack([samples, pairs])) / n
    var = float(grad @ cov @ grad)
    return float(g2), math.sqrt(max(var, 0.0))
