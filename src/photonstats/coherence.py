"""Wavepacket correlations of split thermal light and double-slit far fields.

Five related pieces live here because they share one physical setting, a
thermal field split between a photonic and a plasmonic path behind a double
slit:

* exact joint photon statistics of a thermal beam behind a lossless splitter
  of angle θ, and the wavepacket correlation g̃²(N,M) built from them, the
  quantity that dips below 1 for very unequal (N,M) even though the source is
  classical;
* the far-field single-detector fringe (``farfield_intensity``, public as
  the paper's fringe) and the two-detector second-order correlation
  g²(k₁,k₂) of the polarization-mixed double slit;
* the conditional spatial correlation map: g̃²(N,M) riding the interference
  modulation under a diffraction envelope;
* a classical Gaussian-field oracle that produces the same fringe physics by
  quadrature over one centred slit and an exact phase per slit, to validate
  the fringe frequency and envelope shape without photon-number reasoning;
* vacuum preselection probabilities of a five-splitter routing network.

The split-thermal laws, the conditional map, the classical oracle,
``gamma_sum`` and ``preselection_distribution`` take whole grids: counts and
positions broadcast, and scalars give ``np.float64``.

Primary routes and their oracles: far-field fringes vs ``classical_envelope_oracle``;
``gamma_sum`` and the vacuum rate in ``photonstats._routes``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import AccuracyError, ContractError, DomainError, _count, _real, _real_fields
from .states import _binomial_pmf, _log_factorial_rest, _negbin_pmf, pmf, thermal

__all__ = [
    "ThermalSplitterState",
    "InterferenceConfig",
    "PreselectionNetwork",
    "joint_pmf",
    "gtilde2_thermal",
    "farfield_intensity",
    "farfield_g2",
    "conditional_g2_map",
    "classical_envelope_oracle",
    "modulation_frequency",
    "mode_probabilities",
    "gamma_sum",
    "preselection_distribution",
    "detected_vacuum_probability",
]


# ===================================================================
# Types
# ===================================================================

@dataclass(frozen=True)
class ThermalSplitterState:
    """Thermal beam of total mean n̄ behind a lossless splitter of angle
    θ_split: arm a carries n̄cos²θ, arm b carries n̄sin²θ."""

    mean_total: float
    split_angle: float

    def __post_init__(self) -> None:
        _real_fields(self, "mean_total", 0)
        _real_fields(self, "split_angle", 0, math.pi / 2.0)

    @property
    def arm_means(self) -> tuple[float, float]:
        c2 = math.cos(self.split_angle) ** 2
        return self.mean_total * c2, self.mean_total * (1.0 - c2)


@dataclass(frozen=True)
class InterferenceConfig:
    """Polarized double-slit geometry and fringe parameters.

    mean_h / mean_v are the horizontally and vertically polarized mean photon
    numbers (only the H component couples to the plasmonic path and carries
    the fringe). psi is the plasmonic splitting angle. The slit pair
    (separation d, width w) at distance D for wavelength λ gives the derived
    scales beta = πd/(λD) (fringe, per meter of detector coordinate) and
    alpha = λD/(πw) (diffraction envelope, meters). gamma_fringe scales the
    fringe contrast; zeta, envelope_width and envelope_offset shape the
    conditional correlation map and are free parameters here (defaults:
    0.9, 4/beta, 0).
    """

    mean_h: float
    mean_v: float
    psi: float
    slit_separation: float = 9.05e-6
    slit_width: float = 200e-9
    distance: float = 1.0
    wavelength: float = 780e-9
    gamma_fringe: float = 1.0
    zeta: float = 0.9
    envelope_width: float | None = None
    envelope_offset: float = 0.0

    def __post_init__(self) -> None:
        _real_fields(self, "mean_h mean_v", 0)
        _real_fields(self, "psi envelope_offset")
        _real_fields(self, "slit_separation slit_width distance wavelength", 0, strict=True)
        _real_fields(self, "gamma_fringe zeta", 0, 1)
        if self.envelope_width is not None:
            _real_fields(self, "envelope_width", 0, strict=True)
        scale = self.wavelength * self.distance  # λD; β and α from the fields, as their properties form them
        if not (0.0 < scale < math.inf and 0.0 < math.pi * self.slit_separation / scale < math.inf
                and 0.0 < scale / (math.pi * self.slit_width) < math.inf):
            raise DomainError(f"wavelength = {self.wavelength!r} and distance = {self.distance!r} give λD = "
                              f"{scale!r}: λD, β = πd/(λD) and α = λD/(πw) must each be finite and > 0")

    @property
    def beta(self) -> float:
        return math.pi * self.slit_separation / (self.wavelength * self.distance)

    @property
    def alpha(self) -> float:
        return self.wavelength * self.distance / (math.pi * self.slit_width)

    @property
    def sigma_env(self) -> float:
        return self.envelope_width if self.envelope_width is not None else 4.0 / self.beta

    @property
    def polarization_angle(self) -> float:
        """Input polarization angle fixed by cos²θ_pl = n̄_H/(n̄_H+n̄_V)."""
        total = self.mean_h + self.mean_v
        if total == 0.0:
            raise DomainError("polarization angle undefined with no photons")
        return math.acos(math.sqrt(self.mean_h / total))


@dataclass(frozen=True)
class PreselectionNetwork:
    """Five-splitter cascade routing one thermal input of mean n̄ into three
    detected modes (1..3) and three loss modes (4..6)."""

    angles: tuple[float, float, float, float, float]
    mean: float

    def __post_init__(self) -> None:
        if len(self.angles) != 5:
            raise ContractError("exactly five splitter angles required")
        angles = tuple(_real(a, f"angles[{i}]", 0, math.pi / 2.0) for i, a in enumerate(self.angles))
        object.__setattr__(self, "angles", angles)
        _real_fields(self, "mean", 0)


# ===================================================================
# Split thermal light: joint statistics and wavepacket correlation
# ===================================================================

def joint_pmf(state: ThermalSplitterState, big_n, big_m):
    """Probability of seeing exactly (N, M) photons in arms (a, b).

    Closed form: C(N+M, N) n̄^(N+M) cos^(2N)θ sin^(2M)θ / (1+n̄)^(N+M+1), the
    Bose–Einstein weight of N+M photons times Binomial(N; N+M, cos²θ).
    Marginals are thermal with the arm means. N and M broadcast.
    """
    big_n, big_m = _count(big_n, "big_n", grid=True), _count(big_m, "big_m", grid=True)
    total, c2 = big_n + big_m, math.cos(state.split_angle) ** 2
    return _negbin_pmf(total, 0, state.mean_total) * _binomial_pmf(big_n, total, c2, 1.0 - c2)


def _gtilde2(big_n, big_m, mean_a, mean_b, n_bar):
    """g̃²(N,M) from the arm means and the total mean, all broadcasting; log C(N+M, N) from ρ."""
    log_g = (
        _log_factorial_rest(big_n + big_m) - _log_factorial_rest(big_n) - _log_factorial_rest(big_m)
        + special.xlog1py(big_n, big_m / np.maximum(big_n, 1.0))
        + special.xlog1py(big_m, big_n / np.maximum(big_m, 1.0))
        + (big_n + 1) * np.log1p(mean_a)
        + (big_m + 1) * np.log1p(mean_b)
        - (big_n + big_m + 1) * np.log1p(n_bar)
    )
    return np.exp(log_g)


def gtilde2_thermal(state: ThermalSplitterState, big_n, big_m):
    """Wavepacket correlation of the split thermal field.

    g̃²(N,M) = C(N+M,N) (1+n̄cos²θ)^(N+1) (1+n̄sin²θ)^(M+1) / (1+n̄)^(N+M+1),
    equal to joint_pmf / (marginal_a(N)·marginal_b(M)). It exceeds 1 near the
    diagonal N=M and drops below 1 when N and M differ strongly. N and M
    broadcast.
    """
    big_n, big_m = _count(big_n, "big_n", grid=True), _count(big_m, "big_m", grid=True)
    return _gtilde2(big_n, big_m, *state.arm_means, state.mean_total)


# ===================================================================
# Far field of the polarized double slit
# ===================================================================

def _sinc(x: np.ndarray | float) -> np.ndarray | float:
    """sin(x)/x with sinc(0) = 1."""
    return np.sinc(np.asarray(x) / np.pi)


def _finite(values: np.ndarray, what: str) -> np.ndarray:
    """``values``, computed with overflow ignored, or a DomainError saying
    that ``what`` overflows a float: a sine, cosine or sinc of it is NaN."""
    if not np.all(np.isfinite(values)):
        raise DomainError(f"{what} overflows a float")
    return values


def farfield_intensity(cfg: InterferenceConfig, k: np.ndarray | float):
    """Mean detected intensity at detector-plane position k (unnormalized).

    sinc²(k/α) · (n̄_V + n̄_H [1 + γ sin(2ψ) cos(2βk)]): the V component only
    feeds the envelope, the H component carries the fringe.
    """
    out = _intensity(cfg, _real(k, "k", grid=True), "k")
    return float(out) if out.ndim == 0 else out


def _intensity(cfg: InterferenceConfig, k: np.ndarray, name: str) -> np.ndarray:
    """`farfield_intensity` on a float64 grid that is already checked; a k
    whose k/α or 2βk overflows is refused by ``name``."""
    with np.errstate(over="ignore"):
        arg, phase = k / cfg.alpha, 2.0 * cfg.beta * k
    envelope = np.square(_sinc(_finite(arg, f"the envelope argument {name}/α")))
    fringe = np.cos(_finite(phase, f"the fringe phase 2β·{name}"))
    fringe = 1.0 + cfg.gamma_fringe * math.sin(2.0 * cfg.psi) * fringe
    return envelope * (cfg.mean_v + cfg.mean_h * fringe)


def farfield_g2(cfg: InterferenceConfig, k1, k2):
    """Normalized two-point correlation of the far field.

    (2n̄_H²[1 − ½sin²(2ψ)sin²(βΔk)] + 4n̄_H n̄_V[1 − ½sin²(2ψ)] + 2n̄_V²)
    divided by (n̄_H+n̄_V)². The diffraction envelope cancels in the
    normalization, so only Δk = k₁−k₂ enters.
    """
    total = cfg.mean_h + cfg.mean_v
    if total == 0.0:
        raise DomainError("farfield_g2 undefined with no photons")
    k1, k2 = _real(k1, "k1", grid=True), _real(k2, "k2", grid=True)
    s2psi = math.sin(2.0 * cfg.psi) ** 2
    with np.errstate(over="ignore"):
        phase = cfg.beta * (k1 - k2)
    mod = np.square(np.sin(_finite(phase, "the fringe phase β(k1 − k2)")))
    num = (
        2.0 * cfg.mean_h**2 * (1.0 - 0.5 * s2psi * mod)
        + 4.0 * cfg.mean_h * cfg.mean_v * (1.0 - 0.5 * s2psi)
        + 2.0 * cfg.mean_v**2
    )
    out = num / total**2
    return float(out) if out.ndim == 0 else out


def conditional_g2_map(
    cfg: InterferenceConfig, state_params: ThermalSplitterState | None, n1, n2, k1, k2
):
    """Spatial wavepacket correlation conditioned on counts (n₁, n₂) at
    detector positions (k₁, k₂).

    sinc²((k₁−k₂+k′)/σ) · (1 + (1−ζ sin²(β(k₁−k₂))) [g̃²(n₁,n₂) − 1]).

    With ``state_params=None`` the arm means are read off the detector
    intensities: n̄cos²θ = ⟨n̂(k₁)⟩, n̄sin²θ = ⟨n̂(k₂)⟩. n₁, n₂, k₁ and k₂
    broadcast.
    """
    n1, n2 = _count(n1, "n1", grid=True), _count(n2, "n2", grid=True)
    k1, k2 = _real(k1, "k1", grid=True), _real(k2, "k2", grid=True)
    if state_params is None:
        mean_a, mean_b = _intensity(cfg, k1, "k1"), _intensity(cfg, k2, "k2")
        total = mean_a + mean_b
        if np.any(total <= 0.0):
            raise DomainError("cannot derive splitter state from zero intensities")
        g_th = _gtilde2(n1, n2, mean_a, mean_b, total)
    else:
        g_th = _gtilde2(n1, n2, *state_params.arm_means, state_params.mean_total)
    with np.errstate(over="ignore"):
        delta = k1 - k2
        arg, phase = (delta + cfg.envelope_offset) / cfg.sigma_env, cfg.beta * delta
    envelope = np.square(_sinc(_finite(arg, "the envelope argument (k1 − k2 + k′)/σ")))
    modulation = 1.0 - cfg.zeta * np.square(np.sin(_finite(phase, "the fringe phase β(k1 − k2)")))
    return envelope * (1.0 + modulation * (g_th - 1.0))


# ===================================================================
# Classical Gaussian-field oracle
# ===================================================================

# Points per block in `_slit_integral`: its working memory is about
# 8 · _PAIR_BLOCK floats per quadrature node of a pass (64 + 128 nodes in the
# first), whatever the grid size.
_PAIR_BLOCK = 128


@functools.lru_cache(maxsize=None)
def _gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only nodes and weights of the Gauss–Legendre rule of ``order``
    points, built once per order. The envelope oracle asks only for 64, 128,
    …, 1024, so at most five rules are kept. The slit kernels built on these
    nodes have their own cache, `_slit_kernel`, bounded at five kernels."""
    rule = special.roots_legendre(order)
    for arr in rule:
        arr.setflags(write=False)
    return rule


@functools.lru_cache(maxsize=None)
def _half_rules(orders: tuple[int, ...]) -> tuple[np.ndarray, tuple[slice, ...], np.ndarray]:
    """The nodes u > 0 of the Gauss–Legendre rules of ``orders`` side by side,
    each rule's slice of them, and where each rule's cosines and then its
    sines start in a row [cosines | sines] of `_slit_integral`; read-only.
    The envelope oracle asks for (64, 128), (256,), (512,) and (1024,) only."""
    halves = [order // 2 for order in orders]
    nodes = np.concatenate([_gauss_legendre(order)[0][half:] for order, half in zip(orders, halves)])
    ends = np.cumsum(halves)
    starts = ends - halves
    cuts = np.concatenate((starts, starts + nodes.size))
    for arr in (nodes, cuts):
        arr.setflags(write=False)
    return nodes, tuple(slice(start, end) for start, end in zip(starts, ends)), cuts


@functools.lru_cache(maxsize=5)
def _slit_kernel(slit_width: float, coherence_scale: float, order: int) -> np.ndarray:
    """The read-only weighted kernel of a centred slit of width w on the
    ``order``-point Gauss–Legendre rule, built once per (w, s, order) while it
    stays among the five most recently used.

    The rule is symmetric under u ↦ −u, node for node and weight for weight,
    so the kernel acts on the even (cosine) and odd (sine) part of a column
    apart, over the nodes u > 0 alone. It is the stack [K₊, K₋] of two
    (order/2)² blocks, K±[i, j] = ½ g_i g_j (exp(−(u_i−u_j)²/s) ±
    exp(−(u_i+u_j)²/s)): the Gauss–Legendre weights g, the ¼ of (w/2)²/w² and
    the 2 of the mirrored half are folded in, and each block is exactly
    symmetric. One kernel holds order²/2 floats, so a full ladder 64, 128, …,
    1024 for one (w, s) takes 5.3 MiB, and five order-1024 kernels 20 MiB,
    within a 40 MiB ceiling. At a subnormal s the exponents overflow to −inf
    and those terms are exactly 0, their limit."""
    nodes, weights = _gauss_legendre(order)
    half = order // 2
    u, g = slit_width / 2.0 * nodes[half:], weights[half:]
    with np.errstate(over="ignore"):
        near = np.exp(-np.square(u[:, None] - u) / coherence_scale)
        far = np.exp(-np.square(u[:, None] + u) / coherence_scale)
    kernel = np.stack((near + far, near - far))
    kernel *= 0.5 * np.multiply.outer(g, g)
    kernel.setflags(write=False)
    return kernel


def _slit_integral(
    slit_width: float, coherence_scale: float, p1: np.ndarray, p2: np.ndarray, orders: tuple[int, ...]
) -> np.ndarray:
    """q(p_a, p_b) = ∫∫ exp(i(p_b u' − p_a u)) exp(−(u−u')²/s) du du' over one
    slit of width w centred at 0, normalized by the slit area w², on the
    Gauss–Legendre rule of each of ``orders``. p1 and p2 are 1-D arrays of
    wavenumbers κk in the slit plane. Returns the rows q(p1, p1), q(p2, p2)
    and q(p1, p2) for each order: shape (len(orders), 3, p1.size).

    The slit is symmetric, so q is real: with c = cos(pu) and s = sin(pu) on
    the nodes u > 0, q(p_a, p_b) = c_b·K₊c_a + s_b·K₋s_a (`_slit_kernel`).
    Each wavenumber's c and s are evaluated once for all the orders, and
    multiplied by each kernel once. Every sum runs along a contiguous row, so
    a point gets the same bits alone as within a grid."""
    kernels = [_slit_kernel(slit_width, coherence_scale, order) for order in orders]
    nodes, spans, cuts = _half_rules(orders)
    u = slit_width / 2.0 * nodes
    out = np.empty((len(orders), 3, p1.size))
    for lo in range(0, p1.size, _PAIR_BLOCK):
        rows = slice(lo, lo + _PAIR_BLOCK)
        b = p1[rows].size
        theta = np.concatenate((p1[rows], p2[rows]))[:, None] * u
        # one row per wavenumber: the cosines of every order, then the sines
        parts = np.empty((2 * b, 2, u.size))
        np.cos(theta, out=parts[:, 0])
        np.sin(theta, out=parts[:, 1])
        folded = np.empty_like(parts)
        for kernel, span in zip(kernels, spans):
            np.matmul(parts[:, :, span].transpose(1, 0, 2), kernel, out=folded[:, :, span].transpose(1, 0, 2))
        # the autos q(p, p) of both columns, then the cross q(p1, p2)
        terms = np.empty((3 * b, 2, u.size))
        np.multiply(parts, folded, out=terms[: 2 * b])
        np.multiply(parts[b:], folded[:b], out=terms[2 * b :])
        sums = np.add.reduceat(terms.reshape(3 * b, -1), cuts, axis=1)
        out[:, :, rows] = (sums[:, : len(orders)] + sums[:, len(orders) :]).T.reshape(len(orders), 3, b)
    return out


def classical_envelope_oracle(cfg: InterferenceConfig, coherence_scale: float, k1, k2):
    """Two-point correlation of a classical Gaussian field behind the slits.

    The field has correlation exp(−(x−x')²/s) across the slit plane
    (s = ``coherence_scale``, squared length). The photonic slit sits at
    +d/2, the plasmonic one at −d/2, and the polarization/splitting weights
    mix their contributions. x = ±d/2 + u leaves one integral q over a
    centred slit of width w and puts each slit's position into an exact
    phase, with κ = 2π/(λD) and Δk = k_b − k_a:

        cross(k_a,k_b) = q·[(cos²θ_pl cos²ψ + sin²θ_pl)·e^(iκΔk·d/2)
                            + cos²θ_pl sin²ψ·e^(−iκΔk·d/2)]
        g²(k₁,k₂) = 1 + |cross(k₁,k₂)|² / (cross(k₁,k₁)·cross(k₂,k₂)).

    κ·d/2 is never read from ``cfg.beta``, so the oracle shares nothing with
    the fringe it checks. k₁ and k₂ broadcast; a k whose slit-plane
    wavenumber κk, or its phase κk·w/2 across a slit or κk·d/2 between them,
    overflows a float is refused by name before any quadrature.

    The Gauss–Legendre order starts at 64 per axis and doubles, once for the
    whole grid, until q at every point is stable to 1e-6 relative; failing to
    stabilize by order 1024 raises AccuracyError. Orders 64 and 128 go in one
    pass, since every call compares them. Each wavenumber, k₁ and k₂ of each
    point, is evaluated once per pass and multiplied by each order's weighted
    slit kernel once. The kernels come from a cache of the five most recently
    used (w, s, order), at most 20 MiB, so calls that repeat w and s, such as
    one call per Δk, build each once.
    """
    return _envelope_oracle(cfg, coherence_scale, k1, k2)[0]


def _envelope_oracle(cfg: InterferenceConfig, coherence_scale: float, k1, k2):
    """`classical_envelope_oracle` and the Gauss–Legendre order it settled at."""
    coherence_scale = _real(coherence_scale, "coherence_scale", 0, strict=True)
    k1, k2 = _real(k1, "k1", grid=True), _real(k2, "k2", grid=True)
    if k1.shape != k2.shape:
        k1, k2 = np.broadcast_arrays(k1, k2)
    theta_pl = cfg.polarization_angle
    c2 = math.cos(theta_pl) ** 2
    s2 = 1.0 - c2
    w_photonic = c2 * math.cos(cfg.psi) ** 2 + s2
    w_plasmonic = c2 * math.sin(cfg.psi) ** 2
    if w_photonic + w_plasmonic <= 0.0:
        raise DomainError("slit weights vanish; no field reaches the screen")

    # the slit-plane wavenumbers of k₁ then k₂. The phases below, p·u across
    # the slit and p·d/2 between the slits, stay within p·max(w/2, d).
    kappa = 2.0 * math.pi / (cfg.wavelength * cfg.distance)
    ks = np.concatenate((k1, k2), axis=None)
    with np.errstate(over="ignore", invalid="ignore"):
        p = kappa * ks
        finite = np.isfinite(p * max(0.5 * cfg.slit_width, cfg.slit_separation))
    if not finite.all():
        at = int(np.argmin(finite))
        name = "k1" if at < k1.size else "k2"
        raise DomainError(
            f"{name} = {ks[at]:g}: its slit-plane wavenumber 2π/(λD)·{name} overflows a float "
            "across the slits"
        )
    p1, p2 = p[: k1.size], p[k1.size :]
    prev, cur = _slit_integral(cfg.slit_width, coherence_scale, p1, p2, (64, 128))
    order = 128
    while not np.all(np.abs(cur - prev) <= 1e-6 * np.maximum(np.abs(prev), 1e-300)):
        order *= 2
        if order > 1024:
            raise AccuracyError("slit quadrature did not stabilize by order 1024")
        prev, (cur,) = cur, _slit_integral(cfg.slit_width, coherence_scale, p1, p2, (order,))

    auto1, auto2, cross = cur
    denom = auto1 * auto2
    if np.any(denom <= 0.0):
        raise AccuracyError("non-positive autocorrelation from quadrature")
    # |w_ph e^(iφ) + w_pl e^(−iφ)|² / (w_ph + w_pl)², φ = κΔk·d/2 the exact
    # phase of each slit's position, is a + b·cos²φ
    total = (w_photonic + w_plasmonic) ** 2
    a, b = (w_photonic - w_plasmonic) ** 2 / total, 4.0 * w_photonic * w_plasmonic / total
    half_d = 0.5 * cfg.slit_separation
    mix = a + b * np.cos(half_d * p2 - half_d * p1) ** 2
    g2 = 1.0 + cross**2 * mix / denom
    return g2.reshape(k1.shape)[()], order


def modulation_frequency(x: np.ndarray, y: np.ndarray) -> float:
    """Dominant angular frequency of an oscillatory signal on a uniform grid.

    Mean and linear trend are removed, a Hann window applied, and the FFT
    magnitude peak refined by quadratic interpolation in log magnitude.
    Returns ω in radians per unit of x; the grid step must be finite and > 0,
    and large enough that ω is finite.
    """
    grid, y = np.asarray(x), _real(y, "y", grid=True)
    if grid.ndim != 1 or grid.shape != y.shape or grid.size < 8:
        raise ContractError("need matching 1-D arrays with at least 8 samples")
    # a grid of numbers is checked by its step first, so a NaN entry is a bad
    # step: a uniform step that is finite and > 0 leaves no room for one
    if grid.dtype.kind in "iuf":
        dx = np.diff(grid.astype(float))
        if not (0.0 < dx[0] < math.inf and np.allclose(dx, dx[0], rtol=1e-9, atol=0.0)):
            raise ContractError(f"x grid must be uniform with a finite step > 0, got step {dx[0]:g}")
    x = _real(x, "x", grid=True)  # refuses a grid of anything but numbers
    # the grid is uniform, so the trend is a line in the sample index, and the
    # step enters only the final division: no power of it can over- or underflow
    index = np.arange(x.size)
    detrended = y - np.polyval(np.polyfit(index, y, 1), index)
    windowed = detrended * np.hanning(x.size)
    mag = np.abs(np.fft.rfft(windowed))
    peak = int(np.argmax(mag[1:])) + 1
    if peak >= mag.size - 1:
        raise AccuracyError("no interior spectral peak found")
    with np.errstate(divide="ignore"):
        la, lc, lb = (
            math.log(mag[peak - 1] + 1e-300),
            math.log(mag[peak] + 1e-300),
            math.log(mag[peak + 1] + 1e-300),
        )
    denom = la - 2.0 * lc + lb
    shift = 0.0 if denom == 0.0 else 0.5 * (la - lb) / denom
    step = float(x[1] - x[0])
    omega = 2.0 * math.pi * (peak + shift) / (x.size * step)
    if not math.isfinite(omega):
        raise ContractError(f"x grid step {step:g} is too small: its frequency overflows")
    return omega


# ===================================================================
# Vacuum preselection through a five-splitter cascade
# ===================================================================

def mode_probabilities(net: PreselectionNetwork) -> tuple[float, ...]:
    """Routing probabilities of the six output modes (first three detected,
    last three lost); they always sum to 1."""
    t1, t2, t3, t4, t5 = net.angles
    return (
        (math.sin(t1) * math.cos(t4)) ** 2,
        (math.cos(t1) * math.sin(t2) * math.cos(t5)) ** 2,
        (math.cos(t1) * math.cos(t2) * math.cos(t3)) ** 2,
        (math.sin(t1) * math.sin(t4)) ** 2,
        (math.cos(t1) * math.sin(t2) * math.sin(t5)) ** 2,
        (math.cos(t1) * math.cos(t2) * math.sin(t3)) ** 2,
    )


def gamma_sum(n):
    """Σ_{k=0}^{n} C(n,k) Γ(n+½−k) Γ(½+k) / π, which collapses to n!.

    Evaluated term by term in log space; the identity (not assumed here) is
    what reduces the routed multiparticle distribution to a Bose–Einstein
    weight times a multinomial. n broadcasts; an n past 170, whose n!
    overflows a float, raises DomainError naming n.
    """
    n = np.expand_dims(_count(n, "n", grid=True), -1)
    if (top := np.max(n, initial=0)) > 170:
        raise DomainError(f"n {top} is past 170: n! overflows a float")
    k = np.arange(top + 1)
    log_terms = (
        special.gammaln(n + 1)
        - special.gammaln(k + 1)
        - special.gammaln(n - k + 1)
        + special.gammaln(n + 0.5 - k)
        + special.gammaln(0.5 + k)
        - math.log(math.pi)
    )
    return np.exp(special.logsumexp(np.where(k <= n, log_terms, -np.inf), axis=-1))


def preselection_distribution(net: PreselectionNetwork, counts):
    """Probability of the joint outcome (n₁..n₆) across the six modes, in log
    space: the Bose–Einstein weight of n = Σnᵢ times a multinomial over the
    mode probabilities. The six counts broadcast against each other.
    """
    if len(counts) != 6:
        raise ContractError("counts must have exactly six entries")
    per_mode = [_count(c, "counts", grid=True) for c in counts]
    n = sum(per_mode)
    log_p = (
        special.xlogy(n, net.mean / (1.0 + net.mean))
        - math.log1p(net.mean)
        + sum(special.xlogy(c, p) - special.gammaln(c + 1) for c, p in zip(per_mode, mode_probabilities(net)))
        + special.gammaln(n + 1)
    )
    return np.exp(log_p)


def detected_vacuum_probability(net: PreselectionNetwork) -> float:
    """Probability that all three detected modes are empty, in closed form:
    Σ_n BE(n) (p₄+p₅+p₆)^n = 1/(1 + n̄(p₁+p₂+p₃)).

    This is the preselected vacuum rate; it exceeds the unconditional vacuum
    probability exactly when the loss arms carry weight.
    """
    return 1.0 / (1.0 + net.mean * sum(mode_probabilities(net)[:3]))


def _detected_vacuum_sum(net: PreselectionNetwork) -> float:
    """Oracle for :func:`detected_vacuum_probability`: the factored joint
    distribution summed over the loss modes, n₄ + n₅ + n₆ ≤ a cutoff c.

    c is the cutoff of ``pmf(thermal(n̄), tail_target=1e-13)``: with all
    light in the loss modes the sum leaves out the Bose–Einstein tail
    (n̄/(1+n̄))^(c+1), so c keeps that at or below 1e-13 (c = 26 at n̄ = 0.3)."""
    cutoff = pmf(thermal(net.mean), tail_target=1e-13).n_max
    n4, n5, n6 = np.ogrid[: cutoff + 1, : cutoff + 1, : cutoff + 1]
    loss = np.nonzero(n4 + n5 + n6 <= cutoff)
    return float(preselection_distribution(net, (0, 0, 0, *loss)).sum())
