"""Single-pixel imaging with photon-number detection and TV reconstruction.

A scene s0 (non-negative mean photons per pixel) is probed row by row with
binary masks Q; each projection illuminates a thermal mode of mean
n̄_t = Q_t·s0 that is split between two detectors (angle θ), each with
efficiency η and Poisson dark rate ν. The joint detected-count law is the
double finite sum

    p(n,m) = e^(−ν_a−ν_b)/(n! m!) Σ_i Σ_j C(n,i) C(m,j) (i+j)!
             η_a^i η_b^j ν_a^(n−i) ν_b^(m−j) cos^(2i)θ sin^(2j)θ
             · n̄_t^(i+j) / (1 + n̄_t(η_a cos²θ + η_b sin²θ))^(1+i+j),

written here in the rearranged form that stays finite as n̄_t → 0 (where it
reduces to a product of dark-count Poissonians). Post-selecting N-photon
events or conditioning arm a on an N-count in arm b boosts the signal against
the dark-count floor; measurement vectors y from any of the three modes feed
a total-variation-regularized least-squares reconstruction.

``joint_pmf_noisy`` is that double sum on whole (n, m) grids: the oracle. The
primaries, vectorized over projections, are ``_post_probability``
(``arm_a_marginal``, ``snr_post``, exact post(N)) and ``_conditional_mean``
(``snr_sub``, exact subtract(N)); their count weights are the `states` kernels.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from scipy import special

from .errors import (
    AccuracyError,
    ContractError,
    DomainError,
    SaturationError,
    _count,
    _real,
    _real_fields,
)
from .montecarlo import (
    DetectorModel,
    RngSeed,
    _check_draw_mean,
    _class_split,
    _rekey,
    _shots_reading,
    _thermal_classes,
    _thermal_total,
    make_generator,
)
from .states import _check_budget, _negbin_pmf, _poisson_pmf

__all__ = [
    "SensingScene",
    "SensingMatrix",
    "TwoArmDetection",
    "ReconstructionResult",
    "binary_phantom",
    "random_sensing_matrix",
    "scale_scene_to_projection",
    "joint_pmf_noisy",
    "arm_a_marginal",
    "snr_post",
    "snr_sub",
    "acquire",
    "tv_prox",
    "cs_reconstruct",
    "image_snr",
]


# ===================================================================
# Types
# ===================================================================

@dataclass(frozen=True)
class SensingScene:
    """Per-pixel mean-photon contributions on a width x height grid."""

    values: np.ndarray
    width: int
    height: int

    def __post_init__(self) -> None:
        arr = np.array(_real(self.values, "values", 0, grid=True)).ravel()  # a copy of its own
        if arr.size != _count(self.width, "width", 1) * _count(self.height, "height", 1):
            raise ContractError(
                f"{arr.size} pixel values for a {self.width}x{self.height} grid"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    def as_image(self) -> np.ndarray:
        return self.values.reshape(self.height, self.width)


@dataclass(frozen=True)
class SensingMatrix:
    """Binary projection masks, one scene-sized row per measurement."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(_real(self.matrix, "matrix", grid=True))  # a copy the caller cannot write
        if arr.ndim != 2 or arr.size == 0:
            raise ContractError("matrix must be a non-empty 2-D array")
        if not np.all((arr == 0.0) | (arr == 1.0)):
            raise DomainError("sensing matrix entries must be 0 or 1")
        arr.setflags(write=False)
        object.__setattr__(self, "matrix", arr)

    @property
    def n_measurements(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_pixels(self) -> int:
        return self.matrix.shape[1]

    @cached_property
    def metric(self) -> tuple[float, float]:
        """(β, λ) of `cs_reconstruct`'s solver metric, from `_rank_one_metric`:
        computed on first use and kept, as the matrix is read-only."""
        return _rank_one_metric(self.matrix)


@dataclass(frozen=True)
class TwoArmDetection:
    """Fiber-splitter angle plus the two detector models behind it."""

    theta_split: float
    det_a: DetectorModel
    det_b: DetectorModel

    def __post_init__(self) -> None:
        _real_fields(self, "theta_split", 0, math.pi / 2.0)

    @property
    def arm_fractions(self) -> tuple[float, float]:
        c2 = math.cos(self.theta_split) ** 2
        return c2, 1.0 - c2


@dataclass(frozen=True)
class ReconstructionResult:
    """Solver output; the objective trace must be finite and must not
    increase (1e-9 slack, scaled problem).

    gradient_mapping is the solver's optimality measure at its last step,
    ½·L·‖x⁺ − z‖²_M / F(x⁺) (see `cs_reconstruct`), and stop_reason is
    "converged" (that measure fell to tol, or there was nothing to solve) or
    "max_iter" (the iteration budget ran out first). A result built without
    them does not claim convergence. restarts counts the steps on which the
    solver reset its momentum, at most one per iteration. iterations is an
    integer >= 0 and the trace holds its iterations + 1 objective values,
    the start point's first.
    """

    s_hat: np.ndarray
    iterations: int
    objective_trace: np.ndarray
    residual: float
    stop_reason: str = "max_iter"
    gradient_mapping: float = math.inf
    restarts: int = 0

    def __post_init__(self) -> None:
        if self.stop_reason not in ("converged", "max_iter"):
            raise ContractError(
                f"stop_reason must be 'converged' or 'max_iter', got {self.stop_reason!r}"
            )
        s = np.array(self.s_hat, dtype=float, copy=True)
        trace = np.array(self.objective_trace, dtype=float, copy=True)
        if s.ndim != 1 or trace.ndim != 1:
            raise ContractError("s_hat and objective_trace must be 1-D")
        if (
            isinstance(self.iterations, bool)
            or not isinstance(self.iterations, (int, np.integer))
            or self.iterations < 0
        ):
            raise ContractError(f"iterations must be an integer >= 0, got {self.iterations!r}")
        if trace.size != self.iterations + 1:
            raise ContractError(
                f"objective_trace must hold iterations + 1 = {self.iterations + 1} values, got {trace.size}"
            )
        if not math.isfinite(self.residual) or not self.gradient_mapping >= 0:
            raise ContractError("need a finite residual and gradient_mapping >= 0")
        if (
            isinstance(self.restarts, bool)
            or not isinstance(self.restarts, (int, np.integer))
            or not 0 <= self.restarts <= self.iterations
        ):
            raise ContractError(
                f"restarts must be an integer in [0, iterations = {self.iterations}], got {self.restarts!r}"
            )
        if not np.all(np.isfinite(trace)):
            raise ContractError("objective_trace must be finite")
        if np.any(np.diff(trace) > 1e-9 * np.maximum(1.0, np.abs(trace[:-1]))):
            raise ContractError("objective trace increases")
        s.setflags(write=False)
        trace.setflags(write=False)
        object.__setattr__(self, "s_hat", s)
        object.__setattr__(self, "objective_trace", trace)


# ===================================================================
# Scene and mask construction
# ===================================================================

def binary_phantom(width: int = 32, height: int = 32) -> SensingScene:
    """Piecewise-constant test target: three axis-aligned blocks covering
    roughly a quarter of the frame."""
    width, height = _count(width, "width", 8), _count(height, "height", 8)
    _check_budget(width * height, f"width {width}, height {height}", "its image")
    img = np.zeros((height, width))
    img[height // 5 : 2 * height // 5, width // 5 : 4 * width // 5] = 1.0
    img[3 * height // 5 : 4 * height // 5, width // 5 : 2 * width // 5] = 1.0
    img[3 * height // 5 : 4 * height // 5, width // 2 : 4 * width // 5] = 1.0
    return SensingScene(img.ravel(), width, height)


def random_sensing_matrix(
    n_measurements: int,
    n_pixels: int,
    fill_fraction: float = 0.5,
    seed: RngSeed | int = 0,
) -> SensingMatrix:
    """Independent Bernoulli(fill_fraction) masks from a seeded stream;
    fill_fraction lies in (0, 1)."""
    n_measurements = _count(n_measurements, "n_measurements", 1)
    n_pixels = _count(n_pixels, "n_pixels", 1)
    fill_fraction = _real(fill_fraction, "fill_fraction", 0, 1, strict=True)
    _check_budget(n_measurements * n_pixels, f"n_measurements {n_measurements}, n_pixels {n_pixels}", "its masks")
    rng = make_generator(seed)
    return SensingMatrix((rng.random((n_measurements, n_pixels)) < fill_fraction).astype(float))


def scale_scene_to_projection(
    scene: SensingScene, masks: SensingMatrix, target_mean: float
) -> SensingScene:
    """Rescale pixel means so the average projected intensity mean(Q·s0)
    equals ``target_mean``."""
    target_mean = _real(target_mean, "target_mean", 0)
    current = float(np.mean(masks.matrix @ scene.values))
    if current == 0.0:
        raise DomainError("scene projects to zero through these masks")
    return SensingScene(
        scene.values * (target_mean / current), scene.width, scene.height
    )


# ===================================================================
# Joint detected-count law and SNR figures
# ===================================================================

def joint_pmf_noisy(n_t: float, arms: TwoArmDetection, n, m):
    """Probability of detecting (n, m) photons in arms (a, b) for one
    thermal projection of mean n̄_t behind the splitter and noisy detectors.

    n and m broadcast. The detected signal is tabulated once for i ≤ max n
    and j ≤ max m, then convolved with each arm's Poisson dark counts, so a
    lone tall cell such as (3000, 1) pays for its whole 3001 × 2 table.
    """
    n, m = _count(n, "n", grid=True), _count(m, "m", grid=True)
    n_t = _real(n_t, "n_t", 0)
    c2, s2 = arms.arm_fractions
    eta_a, eta_b = arms.det_a.efficiency, arms.det_b.efficiency
    i = np.arange(np.max(n, initial=0) + 1)[:, None]
    j = np.arange(np.max(m, initial=0) + 1)[None, :]
    # C(i+j, i)·A^i·B^j/(1+A+B)^(1+i+j): a negative multinomial, each term ≤ 1
    table = np.exp(
        special.gammaln(i + j + 1)
        - special.gammaln(i + 1)
        - special.gammaln(j + 1)
        + special.xlogy(i, eta_a * c2 * n_t)
        + special.xlogy(j, eta_b * s2 * n_t)
        - (1.0 + i + j) * math.log1p(n_t * (eta_a * c2 + eta_b * s2))
    )
    # then each arm's Poisson dark counts, convolved in along its axis
    for axis, nu in enumerate((arms.det_a.dark_rate, arms.det_b.dark_rate)):
        k = np.arange(table.shape[axis])
        dark = np.exp(special.xlogy(k, nu) - nu - special.gammaln(k + 1))
        table = np.apply_along_axis(np.convolve, axis, table, dark).take(k, axis)
    return table[n, m]


def _check_weights(rows: int, big_n: int) -> None:
    """Refuse a (rows, N+1) count-weight table past the 2**27-entry budget
    with a DomainError naming N."""
    _check_budget(rows * (big_n + 1), f"N {big_n}", f"its {rows} × (N+1) count-weight table")


def _count_weights(signal: np.ndarray, dark_rate: float, big_n: int) -> np.ndarray:
    """The (rows, N+1) matrix BE(i; s)·Poisson(N−i; ν): i signal counts (thermal
    mean s, one per row) and N − i dark counts (rate ν) in one arm."""
    _check_weights(signal.size, big_n)
    i = np.arange(big_n + 1)
    return _negbin_pmf(i, 0, signal[:, None]) * _poisson_pmf(big_n - i, dark_rate)


def _post_probability(n_t, arms: TwoArmDetection, big_n: int) -> np.ndarray:
    """P(N counts in arm a) for each projection n̄_t: the thinned thermal
    signal BE(i; A_t), A_t = η_a cos²θ n̄_t, convolved with the dark counts
    Poisson(N−i; ν_a)."""
    c2, _ = arms.arm_fractions
    signal = arms.det_a.efficiency * c2 * np.atleast_1d(_real(n_t, "n_t", 0, grid=True))
    return _count_weights(signal, arms.det_a.dark_rate, big_n).sum(axis=1)


def _conditional_mean(n_t, arms: TwoArmDetection, big_n: int) -> np.ndarray:
    """E[counts in arm a | N counts in arm b] for each projection n̄_t. Given
    j signal counts in arm b, arm a's signal is negative binomial with mean
    (j+1)·A/(1+B), A and B the detected signal means (a negative multinomial
    conditioned), so the mean is ν_a + A/(1+B)·(1 + E[j | N]) under arm b's
    weights BE(j; B)·Poisson(N−j; ν_b): a sum over j ≤ N, truncating nothing."""
    n_t = np.atleast_1d(_real(n_t, "n_t", 0, grid=True))
    c2, s2 = arms.arm_fractions
    a = arms.det_a.efficiency * c2 * n_t
    b = arms.det_b.efficiency * s2 * n_t
    weights = _count_weights(b, arms.det_b.dark_rate, big_n)
    total = weights.sum(axis=1)
    if np.any(total <= 0.0):
        row = int(np.argmax(total <= 0.0))
        raise DomainError(f"conditioning on {big_n} counts in arm b has zero probability at row {row}")
    return arms.det_a.dark_rate + a / (1.0 + b) * (1.0 + weights @ np.arange(big_n + 1) / total)


def arm_a_marginal(n_t: float, arms: TwoArmDetection, n: int) -> float:
    """Marginal probability of n counts in arm a (the joint law summed over
    arm b): thinned thermal signal convolved with Poisson dark counts."""
    return float(_post_probability(n_t, arms, _count(n, "n"))[0])


def snr_post(n_t: float, arms: TwoArmDetection, big_n: int) -> float:
    """Post-selected signal-to-noise: probability of an N-count in arm a
    relative to the dark-count-only Poisson probability of the same count.

    The floor Σ_i BE(i; 0)·Poisson(N−i; ν) is Poisson(N; ν) itself, as
    BE(i; 0) is exactly δ_i0, so it is evaluated first and alone: a floor of
    0 raises SaturationError before the signal's weight table is built."""
    big_n = _count(big_n, "big_n")
    n_t = _real(n_t, "n_t", 0)
    _check_weights(1, big_n)
    nu = arms.det_a.dark_rate
    noise = float(_poisson_pmf(big_n, nu))
    if noise == 0.0:
        why = "is zero (no dark counts)" if nu == 0.0 else f"Poisson(N; ν) underflows to zero at N {big_n}, ν {nu!r}"
        raise SaturationError(f"noise floor {why}; post-selected SNR saturates")
    return float(_post_probability(n_t, arms, big_n)[0] / noise)


def snr_sub(n_t: float, arms: TwoArmDetection, big_n: int) -> float:
    """Subtraction-mode signal-to-noise: conditional mean count in arm a
    given an N-count in arm b, relative to the noise-only conditional mean
    (which is just the dark rate, arms being independent without signal)."""
    big_n = _count(big_n, "big_n")
    nu_a = arms.det_a.dark_rate
    if nu_a == 0.0:
        raise SaturationError(
            "noise-only conditional mean is zero; subtraction SNR saturates"
        )
    return float(_conditional_mean(n_t, arms, big_n)[0]) / nu_a


# ===================================================================
# Acquisition
# ===================================================================

_MODE_RE = re.compile(r"^(?:intensity|(post|subtract)\(0*(\d+)\))$")  # N without leading zeros

# Rows per block of a heralded Monte Carlo acquisition: a block's classes
# and its class-split table are all it holds at once.
_ROW_BLOCK = 32


def _parse_mode(mode: str) -> tuple[str, int]:
    match = _MODE_RE.match(mode.strip()) if isinstance(mode, str) else None
    if match is None:
        raise DomainError(
            f"mode must be 'intensity', 'post(N)' or 'subtract(N)', got {mode!r}"
        )
    kind, digits = match.groups()
    if kind is None:
        return "intensity", 0
    # a length test first: Python refuses int() of a string past 4300 digits
    if len(digits) > 20 or int(digits) >= 2**64:
        raise DomainError(f"mode {kind}(N) needs N below 2**64, got an N of {len(digits)} digits")
    return kind, int(digits)


def acquire(
    scene: SensingScene,
    masks: SensingMatrix,
    arms: TwoArmDetection,
    mode: str = "intensity",
    shots: int | None = None,
    seed: RngSeed | int = 0,
) -> np.ndarray:
    """Measurement vector y over all mask rows.

    With ``shots=None`` the exact (infinite-shot) statistics are returned:
    mean detected count in arm a (intensity), the probability of an N-count
    in arm a (post(N)), or the conditional mean of arm a given an N-count in
    arm b (subtract(N)). With finite ``shots`` each row is sampled through
    the Monte Carlo pipeline on its own RNG substreams, reducing to the
    empirical counterpart of the same quantity. intensity and post(N) draw
    arm a alone: each shot is Binomial(n, c²η_a) + Poisson(ν_a), and det_b
    does not enter. subtract(N) draws both arms. No row draws its S shots
    one by one.
    An intensity row reads only its total over the S shots: Σn ~ NegBin(S,
    1/(1+n̄_t)) on substream 2t, then one Binomial(Σn, c²η_a) + Poisson(S·ν_a)
    on substream 2t+1, and y_t is the count over S. post(N) and subtract(N)
    rows draw H_n, the number of shots holding n photons, on substream 2t,
    and thin those classes on substream 2t+1. post(N) counts the shots whose
    k signal counts plus dark counts read N in arm a. subtract(N) keeps the
    C shots whose arm b reads N, per cell of n photons with j detected in
    arm b; their n − j other photons are detected in arm a by one
    Binomial(Σ(n − j), c²η_a/(1 − s²η_b)), plus Poisson(C·ν_a) dark counts,
    over C. Each row has exactly the law of its per-shot estimator. An
    intensity row's cost does not depend on S; a post(N) or subtract(N)
    row's grows like log S, the number of photon-number classes.

    A call makes one generator and `_rekey`s it to each substream, which
    gives the bits a fresh generator per substream would. post(N) and
    subtract(N) read the rows in blocks of 32: a block first draws its rows'
    classes, then builds one class-split table (`_class_split`) over every
    photon number they hold, and each row reads its classes' entries; the
    streams and y are those of a generator and a table per row, and memory
    grows with the classes of one block, not of every row.
    """
    if masks.n_pixels != scene.values.size:
        raise ContractError(
            f"masks cover {masks.n_pixels} pixels, scene has {scene.values.size}"
        )
    kind, big_n = _parse_mode(mode)
    projections = masks.matrix @ scene.values
    if not isinstance(seed, RngSeed):
        seed = RngSeed(seed)

    if shots is None:
        if kind == "post":
            return _post_probability(projections, arms, big_n)
        if kind == "subtract":
            return _conditional_mean(projections, arms, big_n)
        c2, _ = arms.arm_fractions
        return arms.det_a.efficiency * c2 * projections + arms.det_a.dark_rate

    shots = _count(shots, "shots", 1)
    # intensity and subtract(N) rows draw sums over the shots; post(N) rows
    # draw no count larger than one shot's
    _check_draw_mean(
        float(projections.max()) + arms.det_a.dark_rate, shots, summed=kind != "post"
    )
    c2, s2 = arms.arm_fractions
    # subtract(N): a photon that arm b did not detect is detected in arm a
    # with probability c²η_a/(1 − s²η_b)
    to_b = s2 * arms.det_b.efficiency
    to_a = min(1.0, c2 * arms.det_a.efficiency / (1.0 - to_b)) if to_b < 1.0 else 0.0
    y = np.empty(projections.size)
    rng = make_generator(seed)

    def substream(t: int, detect: int) -> np.random.Generator:
        return _rekey(rng, RngSeed(seed.seed, seed.stream_id + 2 * t + detect))

    if kind == "intensity":
        keep, dark = c2 * arms.det_a.efficiency, shots * arms.det_a.dark_rate
        for t, n_t in enumerate(projections):
            total = _thermal_total(float(n_t), shots, substream(t, 0))
            detect = substream(t, 1)
            y[t] = (detect.binomial(total, keep) + detect.poisson(dark)) / shots
        return y
    if kind == "post":
        keep, dark = c2 * arms.det_a.efficiency, arms.det_a.dark_rate
    else:
        keep, dark = to_b, arms.det_b.dark_rate
    for first in range(0, projections.size, _ROW_BLOCK):
        block = range(first, min(first + _ROW_BLOCK, projections.size))
        # the block's classes first, so that one split table covers them all
        classes = [_thermal_classes(float(projections[t]), shots, substream(t, 0)) for t in block]
        levels, level_of = np.unique(np.concatenate([numbers for numbers, _ in classes]), return_inverse=True)
        ends = np.cumsum([numbers.size for numbers, _ in classes])[:-1]
        split, match = _class_split(levels, keep, dark, big_n)
        for t, (numbers, counts), rows in zip(block, classes, np.split(level_of, ends)):
            detect = substream(t, 1)
            reading = _shots_reading(counts, split[rows], match, detect)
            if kind == "post":
                y[t] = reading.sum() / shots
                continue
            # reading[n, j]: shots of n photons, j of them detected in arm b,
            # that read N in arm b; their other n − j photons may reach arm a
            hits = int(reading.sum())
            if hits == 0:
                raise AccuracyError(
                    f"no {big_n}-count events in arm b at row {t}; increase shots"
                )
            n_left = np.maximum(numbers[:, None] - np.arange(big_n + 1), 0)
            others = int((reading * n_left).sum())
            y[t] = (detect.binomial(others, to_a) + detect.poisson(hits * arms.det_a.dark_rate)) / hits
    return y


# ===================================================================
# Total-variation reconstruction
# ===================================================================

def _tv(u: np.ndarray) -> float:
    """Anisotropic TV of a 2-D image: the summed absolute forward
    differences along rows and down columns."""
    across = u[:, 1:] - u[:, :-1]
    down = u[1:, :] - u[:-1, :]
    np.abs(across, out=across)
    np.abs(down, out=down)
    return float(across.sum() + down.sum())


class _TvWorkspace:
    """The buffers of the TV prox on one (H, W) float64 grid, made once per
    solve; the dual is carried from one prox call to the next.

    G is the forward-difference operator with slope 0 past the last row and
    column. Every array a sweep touches is stored H × (W + 1): each row is
    followed by one 0, the pad column, and stays contiguous. The dual lives
    in one flat buffer laid out as W + 1 zeros, then py, then px. Gᵀ never
    reads px's last column or py's last row, and the workspace holds both,
    and the pad column, at 0, as G's slope is there. Then "py one row up"
    and "px one entry left" are plain shifted slices of the buffer with
    zeros where Gᵀ adds nothing, and u's pad column stays 0.

    u is followed by one zero row, so (u one row down, u one entry right) is
    a single (2, H, W + 1) view of its buffer, and one subtract gives
    (gy, gx). At G's edges each slope is a 0 next to u minus u, so none can
    overflow; the step array holds 0 there and the step inside, so one
    multiply takes the step and zeroes the edge slopes without forming
    step·0, which is NaN at step = inf. The step array is built when the
    weight changes, so a solve, which passes one weight, builds it once. A
    sweep is then 9 whole-array operations with ``out=``, and a prox copies
    v in and u out once.
    """

    def __init__(self, shape: tuple[int, int]) -> None:
        height, width = shape
        row = width + 1
        n = height * row
        self._flat = np.zeros(row + 2 * n)
        self.dual = self._flat[row:].reshape(2, height, row)  # (py, px)
        self._py, self._px = self.dual
        # py[i−1, j] with 0 on the first row; px[i, j−1] with 0 at j = 0
        self._py_above = self._flat[:n].reshape(height, row)
        self._px_left = self._flat[row + n - 1 : -1].reshape(height, row)
        padded = np.zeros(n + row)
        self._u = padded[:n].reshape(height, row)
        # u one row down starts a row into the buffer and u one entry right
        # one entry in, so the pair's stride is 1 − (W + 1) entries
        item = padded.itemsize
        self._u_ahead = np.lib.stride_tricks.as_strided(
            padded[row:], (2, height, row), (-width * item, row * item, item), writeable=False
        )
        self._v = np.zeros((height, row))
        self._steps = np.empty((2, height, row))  # (py's, px's) step, 0 on G's edges
        self._weight = None  # the weight whose step `_steps` holds
        self.slope = np.empty((2, height, row))  # (step·gy, step·gx)
        self._adjoint = np.empty((height, row))

    def _primal(self, out: np.ndarray, weight: float) -> None:
        """out = v − weight·Gᵀp, with Gᵀp summed as px[i, j−1] − px[i, j]
        − py[i, j] + py[i−1, j]."""
        adj = self._adjoint
        np.subtract(self._px_left, self._px, out=adj)
        np.subtract(adj, self._py, out=adj)
        np.add(adj, self._py_above, out=adj)
        np.multiply(weight, adj, out=adj)
        np.subtract(self._v, adj, out=out)

    def prox(self, v: np.ndarray, weight: float, n_inner: int, out: np.ndarray) -> None:
        """`tv_prox` in place: advances the dual by n_inner sweeps and writes
        u into `out`, an (H, W) array that overlaps neither v nor the
        workspace."""
        steps, slope, dual = self._steps, self.slope, self.dual
        if weight != self._weight:
            steps.fill(1.0 / (8.0 * weight))
            steps[..., -1] = 0.0  # the pad column,
            steps[0, -1] = 0.0  # py's last row
            steps[1, :, -2] = 0.0  # and px's last column
            self._weight = weight
        self._v[:, :-1] = v
        for _ in range(n_inner):
            self._primal(self._u, weight)
            np.subtract(self._u_ahead, self._u, out=slope)
            np.multiply(slope, steps, out=slope)
            np.add(dual, slope, out=dual)
            dual.clip(-1.0, 1.0, out=dual)  # the method: np.clip's wrapper costs ~1 µs more
        self._primal(self._u, weight)
        out[...] = self._u[:, :-1]


def tv_prox(v: np.ndarray, weight: float, n_inner: int = 20) -> np.ndarray:
    """Approximate argmin_u weight·TV(u) + ½‖u−v‖² (anisotropic TV).

    Projected gradient ascent on the dual from p = 0: with G the
    forward-difference operator, iterate
    p ← clamp(p + G(v − weight·Gᵀp)/(8·weight), [−1,1]) and return
    u = v − weight·Gᵀp. `cs_reconstruct` carries the dual from one prox to
    the next in its own `_TvWorkspace`.

    The sweeps run in place in a `_TvWorkspace` (float64) made for this
    call; v is not written to. Each sweep performs the textbook sweep's
    floating-point operations in the same order on the same operands, so u
    equals that of the sweep written with fresh arrays for G and Gᵀ, bit
    for bit (the tests compare them).
    """
    v, weight = _real(v, "v", grid=True), _real(weight, "weight", 0)
    n_inner = _count(n_inner, "n_inner", 1)
    if weight == 0.0:
        return v.copy()
    u = np.empty(v.shape)
    _TvWorkspace(v.shape).prox(v, weight, n_inner, u)
    return u


# Warm-started dual sweeps per prox in `cs_reconstruct` (16 saves steps but
# not time on every input); a cold `tv_prox` keeps its default of 20.
_SOLVER_SWEEPS = 8


def _rank_one_metric(q: np.ndarray) -> tuple[float, float]:
    """(β, λ) of the solver metric M = I + β·eeᵀ, e = 1/√n, for Q (m × n).

    β takes the all-ones curvature eᵀQᵀQe down to λmax of QᵀQ projected off
    e (β = 0 when it is not above that), and λ = λmax(M^{-1/2}QᵀQM^{-1/2}),
    the step constant per unit μ. With r = Q1 both are top eigenvalues of
    QQᵀ − σ·rrᵀ/n: σ = 1 for the projection and β/(1+β) for
    QM⁻¹Qᵀ, which shares its nonzero spectrum with M^{-1/2}QᵀQM^{-1/2}. They
    come from a dense symmetric eigensolver: once the all-ones mode is gone
    the top eigenvalues lie close together, where power iteration would
    underestimate λ. A Q with more rows than columns is first replaced by
    the R of its QR factorization, which has the same QᵀQ, so the Gram
    matrix is never larger than min(m, n) square.
    """
    if q.shape[0] > q.shape[1]:
        q = np.linalg.qr(q, mode="r")
    n = q.shape[1]
    row_sums = q.sum(axis=1)
    ones_curvature = float(row_sums @ row_sums) / n
    ones_part = np.outer(row_sums, row_sums / n)
    gram = q @ q.T
    gram -= ones_part  # σ = 1, then σ = β/(1+β) in place
    rest = float(np.linalg.eigvalsh(gram)[-1])
    beta = ones_curvature / rest - 1.0 if ones_curvature > rest > 0.0 else 0.0
    ones_part *= 1.0 / (1.0 + beta)
    gram += ones_part
    return beta, float(np.linalg.eigvalsh(gram)[-1])


@lru_cache(maxsize=4)
def _ranks(n: int) -> np.ndarray:
    """0, 1, …, n − 1 as read-only floats, kept for `_metric_shift`."""
    ranks = np.arange(float(n))
    ranks.setflags(write=False)
    return ranks


def _metric_shift(w: np.ndarray, v: np.ndarray, beta: float) -> float:
    """The c with c = (β/n)·Σ(max(wᵢ − c, 0) − vᵢ), exactly.

    With w the TV prox of v, max(w − c, 0) is the prox of TV + {s ≥ 0} in
    the metric I + β·eeᵀ: TV does not change when a constant is added, and
    clipping the TV prox at 0 is the prox of TV + {s ≥ 0}. Left side minus
    right side is increasing and piecewise linear in c, with breaks at the
    wᵢ: it is positive at the k largest wᵢ, which therefore lie above c, so
    c = β·(sum of those k − Σvᵢ)/(n + β·k).
    """
    n = w.size
    top = np.sort(w, axis=None)[::-1]
    sums = np.cumsum(top)
    total_v = float(v.sum())
    # above = top − (β/n)·(sums − top − rank·top − Σv), in place
    above = np.subtract(sums, top)
    np.subtract(above, np.multiply(_ranks(n), top), out=above)
    np.subtract(above, total_v, out=above)
    np.multiply(beta / n, above, out=above)
    np.subtract(top, above, out=above)
    k = int(np.count_nonzero(above > 0.0))
    kept = float(sums[k - 1]) if k else 0.0
    return beta * (kept - total_v) / (n + beta * k)


def cs_reconstruct(
    masks: SensingMatrix | np.ndarray,
    y: np.ndarray,
    mu: float = 10.0,
    max_iter: int = 2000,
    tol: float = 5e-8,
    nonneg: bool = True,
    shape: tuple[int, int] | None = None,
) -> ReconstructionResult:
    """Minimize TV(s) + (μ/2)‖Qs − y‖₂² by accelerated proximal gradient in
    an identity + rank-one metric.

    Binary masks give QᵀQ one near-constant direction far above the rest
    (256 half-filled 32 × 32 masks: λmax 66007 against a second eigenvalue
    of 567), and a 1/λmax step crawls along every other direction. So each step
    is taken in the metric M = I + β·eeᵀ, e = 1/√n (Becker & Fadili, NIPS
    2012), with β and L = μ·λmax(M^{-1/2}QᵀQM^{-1/2}) from `_rank_one_metric`;
    when Q has no dominant all-ones mode β is 0 and M = I. β and λ are
    computed once per `SensingMatrix` (its ``metric``) and kept for every
    solve on it, and once per call for a raw array. A step from the
    momentum point z moves to v = z − M⁻¹∇f(z)/L, where
    M⁻¹g = g − (β/(1+β))·mean(g)·1, and then takes the prox of TV (weight
    1/L) and, by default, of s ≥ 0, in the metric M. That prox is exact in
    closed form around the ordinary TV prox w of v: TV does not change when a
    constant is added, so it is max(w − c, 0) with the scalar shift c from
    `_metric_shift` (with nonneg=False, c = 0 because the TV prox keeps the
    mean). Q·s and Q·candidate are kept from the objective, so Q·momentum is
    their linear combination and a step costs two matrix products. Each
    iterate is one buffer [image | Q·image], so one whole-buffer operation
    updates an image and its Q product together.

    The TV prox is inexact: `_SOLVER_SWEEPS` dual ascent sweeps, warm-started
    from the previous prox. Consecutive prox inputs differ less and less, so
    the warm dual starts ever nearer its fixed point, which is what an
    accelerated method needs to keep its rate (Schmidt, Le Roux & Bach, NIPS
    2011). The momentum sequence is the monotone FISTA variant: an
    extrapolated candidate is kept only if it does not increase the
    objective, so the recorded trace never rises. The momentum restarts
    (O'Donoghue & Candès, Found. Comput. Math. 2015) on every step whose
    candidate x⁺ moves against the momentum point z, as seen from the last
    iterate x: when ⟨z − x⁺, x⁺ − x⟩_M > 0, with ⟨a, b⟩_M = ⟨a, b⟩ +
    β·(Σa)(Σb)/n, t is set to 1 before that step's momentum update. The rule
    is always on; the result's restarts counts the steps it fired.
    Measurements are scaled to max 1 before solving and scaled back.

    A solve makes its iterates and the prox's buffers once: one
    `_TvWorkspace`, whose dual is carried from each prox call to the next,
    four [image | Q·image] buffers and a few image-sized arrays, all updated
    with ``out=``. A step still allocates small temporaries: the objective's
    residual, `_tv`'s differences, and `_metric_shift`'s sorted copy and
    sums. The iterates, objective trace and iteration count equal, bit for
    bit, those of the same loop written with fresh arrays and the textbook
    `tv_prox` sweep (the tests keep that loop as the oracle).

    Each step measures its candidate x⁺ from the momentum point z by the
    gradient mapping ½·L·‖x⁺ − z‖²_M, ‖d‖²_M = ‖d‖² + β(Σd)²/n, relative to
    the scaled objective F(x⁺) (Beck & Teboulle, SIAM J. Imaging Sci. 2009).
    The solve stops as "converged" once that is ≤ tol, else as "max_iter";
    its value at the last step is the result's gradient_mapping.
    """
    q = masks.matrix if isinstance(masks, SensingMatrix) else _real(masks, "masks", grid=True)
    y = _real(y, "y", grid=True)
    if q.ndim != 2 or y.ndim != 1 or q.shape[0] != y.size:
        raise ContractError(
            f"incompatible shapes: Q is {q.shape}, y has {y.size} entries"
        )
    mu, tol = _real(mu, "mu", 0, strict=True), _real(tol, "tol", 0)
    max_iter = _count(max_iter, "max_iter", 1)
    n_pixels = q.shape[1]
    if shape is None:
        side = math.isqrt(n_pixels)
        if side * side != n_pixels:
            raise ContractError(
                f"{n_pixels} pixels is not square; pass shape=(height, width)"
            )
        shape = (side, side)
    try:
        height, width = shape
    except (TypeError, ValueError):
        raise ContractError(f"shape must be a pair (height, width), got {shape!r}") from None
    if _count(height, "shape", 1) * _count(width, "shape", 1) != n_pixels:
        raise ContractError(f"shape {shape} does not cover {n_pixels} pixels")

    scale = float(np.max(np.abs(y)))
    if scale == 0.0:
        zeros = np.zeros(n_pixels)
        return ReconstructionResult(zeros, 0, [0.0], float(np.linalg.norm(y)), "converged", 0.0)
    y_scaled = y / scale

    beta, lam = masks.metric if isinstance(masks, SensingMatrix) else _rank_one_metric(q)
    if lam == 0.0:
        raise DomainError("sensing matrix is identically zero")
    base_step = 1.0 / (mu * lam)
    mean_share = beta / (1.0 + beta)

    def objective(iterate: np.ndarray) -> float:
        """The objective at iterate's image, writing its Q product into the
        rest of the buffer."""
        image, q_image = iterate[:n_pixels], iterate[n_pixels:]
        np.matmul(q, image, out=q_image)
        resid = q_image - y_scaled
        return _tv(image.reshape(shape)) + 0.5 * mu * float(resid @ resid)

    # One workspace per solve, and one buffer per iterate holding [image |
    # Q·image], so a linear combination of iterates updates both in one
    # call. `s` and `candidate` swap buffers when a candidate is accepted,
    # so no iterate is overwritten while in use.
    work = _TvWorkspace(shape)
    s, candidate, momentum, spare = np.zeros((4, n_pixels + q.shape[0]))
    s_img, candidate_img, momentum_img, spare_img = (
        buffer[:n_pixels].reshape(shape) for buffer in (s, candidate, momentum, spare)
    )
    moved = np.empty(shape)  # the gradient, then the gradient-step point v
    ahead = np.empty(shape)  # candidate − s, for the restart test
    data_resid = np.empty(q.shape[0])
    t_k = 1.0
    trace = [objective(s)]
    iterations = restarts = 0
    stop_reason = "max_iter"
    for _ in range(max_iter):
        np.subtract(momentum[n_pixels:], y_scaled, out=data_resid)
        np.matmul(q.T, data_resid, out=moved.ravel())
        np.multiply(mu, moved, out=moved)
        np.subtract(moved, mean_share * (moved.sum() / n_pixels), out=moved)
        np.multiply(base_step, moved, out=moved)
        np.subtract(momentum_img, moved, out=moved)
        work.prox(moved, base_step, _SOLVER_SWEEPS, candidate_img)
        if nonneg:
            np.subtract(candidate_img, _metric_shift(candidate_img, moved, beta), out=candidate_img)
            np.maximum(candidate_img, 0.0, out=candidate_img)
        value = objective(candidate)
        # ½·L·‖x⁺ − z‖²_M, then relative to F(x⁺); 0 when x⁺ = z
        np.subtract(candidate_img, momentum_img, out=spare_img)
        total = float(spare_img.sum())
        gap = 0.5 * (mu * lam) * (float(np.vdot(spare_img, spare_img)) + beta * total * total / n_pixels)
        measure = gap / value if value > 0.0 else (0.0 if gap == 0.0 else math.inf)
        # restart when ⟨z − x⁺, x⁺ − s⟩_M > 0, that is ⟨x⁺ − z, x⁺ − s⟩_M < 0
        np.subtract(candidate_img, s_img, out=ahead)
        if float(np.vdot(spare_img, ahead)) + beta * total * float(ahead.sum()) / n_pixels < 0.0:
            t_k = 1.0
            restarts += 1
        previous = trace[-1]
        accepted = value <= previous  # monotone guard: extrapolation may overshoot
        s_next = candidate if accepted else s
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_k * t_k))
        # momentum = s_next + (t_k / t_next)·(candidate − s_next)
        #            + ((t_k − 1) / t_next)·(s_next − s), in that order, and
        # in the same buffers Q·momentum the same combination of Q products
        np.subtract(candidate, s_next, out=momentum)
        np.multiply(t_k / t_next, momentum, out=momentum)
        np.add(s_next, momentum, out=momentum)
        np.subtract(s_next, s, out=spare)
        np.multiply((t_k - 1.0) / t_next, spare, out=spare)
        np.add(momentum, spare, out=momentum)
        if accepted:
            s, candidate = candidate, s
            s_img, candidate_img = candidate_img, s_img
        t_k = t_next
        iterations += 1
        trace.append(value if accepted else previous)
        if measure <= tol:
            stop_reason = "converged"
            break

    s_hat = s_img.ravel() * scale
    residual = float(np.linalg.norm(q @ s_hat - y))
    return ReconstructionResult(s_hat, iterations, trace, residual, stop_reason, measure, restarts)


def image_snr(s_hat: np.ndarray, object_mask: np.ndarray) -> float:
    """Contrast ratio of a reconstruction: mean over object pixels divided by
    mean over background pixels, negatives clipped, capped at 1e6."""
    values = _real(s_hat, "s_hat", grid=True).ravel()
    mask = np.asarray(object_mask).ravel().astype(bool)
    if values.size != mask.size:
        raise ContractError("image and mask sizes differ")
    if not np.any(mask) or np.all(mask):
        raise DomainError("object mask must split pixels into two non-empty regions")
    clipped = np.clip(values, 0.0, None)
    signal = float(clipped[mask].mean())
    background = float(clipped[~mask].mean())
    if background == 0.0:
        return 1e6
    return min(signal / background, 1e6)
