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
exactly N counts; both laws are the `states` kernels, tabled once by
`_class_split` for every class a caller draws. `sample_source` and
`split_and_detect` per shot stay the oracle.

Every count is an int64. A draw whose mean, per shot or summed over the
shots, passes 2^57 could overflow it, and is refused with DomainError before
anything is drawn.

Reproducibility contract: generators are counter-based (Philox) keyed by
(seed, stream_id), so identical seeds give identical samples on every
platform and distinct stream_ids give provably disjoint streams for parallel
sweeps. A caller that walks many substreams keeps one generator and
`_rekey`s it to each: that puts its Philox in the state a fresh
`make_generator` of the substream holds, so its draws are the same bits
without the cost of building a generator per substream.

`sample_source` and `split_and_detect` cut a draw of S shots into blocks of
2^20 shots. Block b draws from Philox(key=seed.key(), counter=b·2^64): block
0 is `make_generator(seed)` itself, and since a block reads far fewer than
2^64 counter steps, the blocks never overlap. So a draw of at most 2^20
shots is the single-stream draw, bit for bit, and a larger one has the same
law. Each block writes only its own rows of the output, so the blocks run on
threads (NumPy releases the GIL inside a draw) and the result does not
depend on how many threads there are.
"""

from __future__ import annotations

import math
import os
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DomainError, UndefinedCoherenceError, _count, _real, _real_fields
from .states import PhotonNumberDistribution, SourceSpec, _binomial_pmf, _check_budget, _poisson_pmf

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

# Shots per block of a per-shot draw, each block on its own Philox counter;
# a block is tens of ms of work, far more than a thread hand-off costs.
_BLOCK_SHOTS = 2**20

# Shots per NumPy call inside a block: bounds the temporary each thread holds.
_SLICE_SHOTS = 2**16

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
            object.__setattr__(self, name, _count(getattr(self, name), name))

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


def _rekey(rng: np.random.Generator, seed: RngSeed) -> np.random.Generator:
    """``rng`` at the start of ``seed``'s stream: its Philox set to the state
    of a fresh ``Philox(key=seed.key())``, counter 0, no buffered output, so
    its draws from here are those of ``make_generator(seed)``, bit for bit."""
    key = seed.key()
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {
            "counter": np.zeros(4, dtype=np.uint64),
            "key": np.array([key & (2**64 - 1), key >> 64], dtype=np.uint64),
        },
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


def _cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _draw_blocks(
    shots: int, seed: RngSeed, fill: Callable[[np.random.Generator, list[slice]], None]
) -> None:
    """Call ``fill(rng, slices)`` once per block of `_BLOCK_SHOTS` shots:
    block b's generator is Philox(key=seed.key(), counter=b·2^64) and its
    slices cover its shots `_SLICE_SHOTS` at a time, in order. The blocks run
    on a pool of threads made for this call, one per CPU at most; a one-block
    draw runs in the calling thread."""
    key = seed.key()
    blocks = -(-shots // _BLOCK_SHOTS)

    def block(b: int) -> None:
        rng = np.random.Generator(np.random.Philox(key=key, counter=b << 64))
        stop = min((b + 1) * _BLOCK_SHOTS, shots)
        starts = range(b * _BLOCK_SHOTS, stop, _SLICE_SHOTS)
        fill(rng, [slice(lo, min(lo + _SLICE_SHOTS, stop)) for lo in starts])

    if blocks == 1:
        block(0)
        return
    with ThreadPoolExecutor(min(blocks, _cpus())) as pool:
        for done in [pool.submit(block, b) for b in range(blocks)]:
            done.result()


def sample_source(source: SourceSpec, n_samples: int, seed: RngSeed | int) -> np.ndarray:
    """i.i.d. photon numbers from the exact source law, as int64.

    Thermal draws use the geometric trick: if G ~ geometric with success
    probability 1/(1+n̄) on {1,2,...}, then G−1 is Bose–Einstein with mean n̄.
    Coherent light is Poisson; Fock is deterministic.

    The shots are drawn in blocks of 2^20, one Philox counter each (see the
    module docstring), on up to one thread per CPU; each thread holds one
    2^16-shot draw (512 KiB) besides the returned array.
    """
    n_samples = _count(n_samples, "n_samples", 1)
    if not isinstance(seed, RngSeed):
        seed = RngSeed(seed)
    mean = source.mean
    _check_draw_mean(mean, n_samples)
    if source.kind == "fock":
        return np.full(n_samples, int(mean), dtype=np.int64)
    if source.kind == "thermal" and mean == 0.0:
        return np.zeros(n_samples, dtype=np.int64)
    out = np.empty(n_samples, dtype=np.int64)

    def fill(rng: np.random.Generator, slices: list[slice]) -> None:
        for sl in slices:
            if source.kind == "coherent":
                out[sl] = rng.poisson(mean, size=sl.stop - sl.start)
            else:  # thermal
                np.subtract(rng.geometric(1.0 / (1.0 + mean), size=sl.stop - sl.start), 1, out=out[sl])

    _draw_blocks(n_samples, seed, fill)
    return out


def _thermal_total(mean: float, n_samples: int, rng: np.random.Generator) -> int:
    """Σn over ``n_samples`` thermal(``mean``) shots of `sample_source`,
    drawn from ``rng`` as one number: the failures before the S-th success
    of a 1/(1+n̄) coin, NegBin(S, 1/(1+n̄)), as a sum of S geometric draws."""
    _check_draw_mean(mean, n_samples, summed=True)
    if mean == 0.0:
        return 0
    return int(rng.negative_binomial(n_samples, 1.0 / (1.0 + mean)))


def _thermal_classes(
    mean: float, n_samples: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """(n, H_n) for each photon number n held by at least one of
    ``n_samples`` thermal(``mean``) shots of `sample_source`, H_n the number
    of shots holding it, n ascending, drawn from ``rng``.

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


def _class_split(
    numbers: np.ndarray, keep: float, dark_rate: float, big_n: int
) -> tuple[np.ndarray, np.ndarray]:
    """The tables `_shots_reading` draws with, for shots holding n photons
    (``numbers``), each kept with probability ``keep``, read by a detector
    with Poisson(``dark_rate``) dark counts: per n, Binomial(n, keep) at
    k = 0..N plus one cell for k > N; and Poisson(N − k; ν) over k = 0..N,
    the chance that k kept photons read exactly N. Both are the `states`
    kernels, entry by entry, so a table over more numbers than one row holds
    has the same bits in every row. A split table past the 2**27-entry
    budget raises DomainError naming N."""
    _check_budget(numbers.size * (big_n + 2), f"N {big_n}", f"its {numbers.size} × (N+2) class-split table")
    k = np.arange(big_n + 1)
    split = _binomial_pmf(k, numbers[:, None], keep)
    split = np.hstack([split, np.maximum(1.0 - split.sum(axis=1, keepdims=True), 0.0)])
    return split, _poisson_pmf(big_n - k, dark_rate)


def _shots_reading(
    counts: np.ndarray, split: np.ndarray, match: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Of the H_n shots (``counts``) of each photon-number class, how many
    keep k of their photons and read exactly N: an (n, k) array over
    k = 0..N. The shots of a class are exchangeable, so it splits by k in one
    multinomial draw over its row of ``split``; then Bin(·, ``match``[k])
    shots of each cell read N (tables from `_class_split`)."""
    return rng.binomial(rng.multinomial(counts, split)[:, : match.size], match)


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
    """Route, detect and add dark counts; returns a contiguous int64 array
    of shape (n_samples, mode_count).

    Each input photon independently picks output mode i with probability
    routing_probs[i] (or is lost with the leftover probability) and mode i
    keeps each arrival with probability η_i. Both steps are one multinomial
    per shot over (p_iη_i for every mode, 1 − Σ p_iη_i); the last, loss,
    category is left out of the draw when it is exactly 0 (a lossless
    network read by perfect detectors). Mode i then adds Poisson(ν_i) dark
    counts when ν_i > 0. counts must have an integer dtype.

    The shots are drawn in blocks of 2^20, one Philox counter each (see the
    module docstring), on up to one thread per CPU. A block draws the
    multinomial for all its shots, then each mode's dark counts, 2^16 shots
    per call, so each thread holds one 2^16-shot draw (at most
    2^19·(mode_count + 1) bytes) besides the returned array.
    """
    counts = _photon_counts(counts, "counts")
    if len(detectors) != network.mode_count:
        raise ContractError(
            f"{len(detectors)} detectors for {network.mode_count} output modes"
        )
    if not isinstance(seed, RngSeed):
        seed = RngSeed(seed)
    counts = counts.astype(np.int64, copy=False)
    modes = network.mode_count
    pvals = [p * det.efficiency for p, det in zip(network.routing_probs, detectors)]
    loss = 1.0 - sum(pvals)
    if loss > 0.0:
        pvals.append(loss)
    out = np.empty((counts.size, modes), dtype=np.int64)

    def fill(rng: np.random.Generator, slices: list[slice]) -> None:
        for sl in slices:
            out[sl] = rng.multinomial(counts[sl], pvals)[:, :modes]
        for i, det in enumerate(detectors):
            if det.dark_rate > 0.0:
                for sl in slices:
                    out[sl, i] += rng.poisson(det.dark_rate, size=sl.stop - sl.start)

    _draw_blocks(counts.size, seed, fill)
    return out


def estimate_pmf(samples: np.ndarray) -> tuple[PhotonNumberDistribution, np.ndarray]:
    """Empirical pmf with per-bin binomial standard errors sqrt(p(1−p)/N)."""
    samples = _photon_counts(samples, "samples")
    _check_budget(int(samples.max()) + 1, f"samples' largest count {samples.max()}", "its frequency table")
    n = samples.size
    freqs = np.bincount(samples.astype(np.int64)) / n
    se = np.sqrt(freqs * (1.0 - freqs) / n)
    return PhotonNumberDistribution(freqs, 0.0), se


def empirical_g2(samples: np.ndarray) -> tuple[float, float]:
    """Sample g2 = ⟨n(n−1)⟩/⟨n⟩² and its delta-method standard error.

    Writing g = m2/m1² with m1 = ⟨n⟩ and m2 = ⟨n(n−1)⟩ over whole counts n ≥ 0,
    the gradient is (−2 m2/m1³, 1/m1²) and the error follows from the sample
    covariance of (n, n(n−1)) scaled by 1/N, its three entries dot products of
    the centred samples and pairs over N − 1. ``samples`` is never written to.
    """
    given = np.asarray(samples)
    samples = _real(samples, "samples", grid=True)
    if samples.ndim != 1 or samples.size < 2:
        raise ContractError("need at least two samples")
    if samples.min() < 0.0 or given.dtype.kind == "f" and np.any(np.floor(samples) != samples):
        raise DomainError("samples must be whole photon counts >= 0")
    n = samples.size
    pairs = samples * (samples - 1.0)
    m1 = samples.mean()
    m2 = pairs.mean()
    if m1 <= 0.0:
        raise UndefinedCoherenceError("empirical g2 undefined for zero-mean samples")
    g2 = m2 / (m1 * m1)
    d1, d2 = -2.0 * m2 / m1**3, 1.0 / (m1 * m1)
    centred = samples - m1
    pairs -= m2  # centred in place: pairs is this call's own array
    c11, c12, c22 = float(centred @ centred), float(centred @ pairs), float(pairs @ pairs)
    var = (d1 * d1 * c11 + 2.0 * d1 * d2 * c12 + d2 * d2 * c22) / ((n - 1) * n)
    return float(g2), math.sqrt(max(var, 0.0))
