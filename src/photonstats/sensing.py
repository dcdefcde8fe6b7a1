"""Conditional plasmon-subtraction sensing: statistics, SNR, phase error.

A thermal probe of mean n̄ enters a lossy two-output coupler (total coupled
fraction γ_loss split as ξ : 1−ξ between the kept, photonic output and the
subtraction output) behind an interferometer with analyte phase φ. Detecting
L quanta in the subtraction arm (efficiency η_pl) conditions the kept arm
(efficiency η_ph) on an L-subtracted state:

* ideal L-subtracted thermal statistics follow the negative-binomial law
  p(n) = (n+L)! n̄ⁿ / (n! L! (1+n̄)^(L+1+n)) with mean (L+1)n̄ and
  g² = (L+2)/(L+1);
* the realistic conditional state takes the coupler and both detector
  efficiencies into account (``conditional_state_pmf``);
* closed forms for the conditional mean, its standard deviation, the
  signal-to-noise ratio and the phase uncertainty Δφ = Δn/|d⟨n⟩/dφ|.

The subtracted and conditional pmfs are truncated by the policy stated in
`photonstats.states`.

Two phase conventions coexist deliberately: the subtraction arm's success
probability carries sin²(φ/2) while the kept arm's conditional moments carry
cos²(φ/2). Each formula keeps the convention of the branch it describes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import special, stats

from .errors import DomainError, SingularPointError
from .states import (
    DEFAULT_TAIL_TARGET,
    PhotonNumberDistribution,
    _grow_cutoff,
    binomial_thin,
    default_cutoff,
    moments,
)

__all__ = [
    "SensorConfig",
    "preset",
    "PUBLISHED_SUBTRACTION_TABLE",
    "subtracted_pmf",
    "g2_subtracted",
    "subtraction_success_probability",
    "conditional_state_pmf",
    "conditional_mean",
    "conditional_std",
    "conditional_mean_phase_derivative",
    "snr",
    "snr_from_pmf",
    "phase_uncertainty",
]


@dataclass(frozen=True)
class SensorConfig:
    """Probe and device parameters.

    mean: input mean occupation; phase: analyte phase φ in [0, 2π];
    xi: normalized photonic transmission T_ph/(T_ph+T_pl); gamma_loss: total
    coupled power fraction T_ph+T_pl; eta_ph / eta_pl: detector efficiencies
    of the kept and subtraction arms.
    """

    mean: float
    phase: float
    xi: float
    gamma_loss: float
    eta_ph: float
    eta_pl: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.mean) and self.mean >= 0.0):
            raise DomainError(f"mean must be >= 0, got {self.mean!r}")
        if not (math.isfinite(self.phase) and 0.0 <= self.phase <= 2.0 * math.pi):
            raise DomainError(f"phase must lie in [0, 2*pi], got {self.phase!r}")
        for name in ("xi", "gamma_loss", "eta_ph", "eta_pl"):
            v = getattr(self, name)
            if not (math.isfinite(v) and 0.0 <= v <= 1.0):
                raise DomainError(f"{name} must lie in [0, 1], got {v!r}")


# The device preset ships the transmissions behind the published table:
# gamma_loss = T_ph + T_pl = 0.0941 and xi chosen so that
# gamma_loss * (1 - xi) equals the plasmonic transmission T_pl = 0.0176
# exactly. The rounded two-figure value 0.80 misses several published
# subtraction-probability cells by over 20%; the derived value lands all of
# them within a few percent.
_PRESETS = {
    "thesis-ch5": dict(
        mean=3.75,
        phase=math.pi / 2.0,
        xi=1.0 - 0.0176 / 0.0941,
        gamma_loss=0.0941,
        eta_ph=0.3,
        eta_pl=0.3,
    ),
}

# Published subtraction probabilities at phase = π (rows: input mean;
# columns: L = 1, 2, 3), quoted to two significant figures. Used by the CLI
# to report relative errors.
PUBLISHED_SUBTRACTION_TABLE: dict[float, tuple[float, float, float]] = {
    2.0: (1.0e-2, 1.0e-4, 1.1e-6),
    1.0: (5.2e-3, 2.7e-5, 1.4e-7),
    0.5: (2.6e-3, 7.0e-6, 1.8e-8),
    0.3: (1.5e-3, 2.5e-6, 4.0e-9),
}


def preset(name: str, **overrides) -> SensorConfig:
    """Named parameter set; ``overrides`` replace individual fields."""
    try:
        params = dict(_PRESETS[name])
    except KeyError:
        raise DomainError(
            f"unknown preset {name!r}; available: {sorted(_PRESETS)}"
        ) from None
    params.update(overrides)
    return SensorConfig(**params)


# ===================================================================
# Ideal L-subtracted thermal statistics
# ===================================================================

def _validate_subtraction_order(level: int) -> None:
    if not isinstance(level, (int, np.integer)) or level < 0:
        raise DomainError(f"subtraction order must be a non-negative integer, got {level!r}")


def subtracted_pmf(
    mean: float, level: int, tail_target: float = DEFAULT_TAIL_TARGET
) -> PhotonNumberDistribution:
    """Photon-number law after subtracting ``level`` quanta from a thermal
    field of mean n̄: p(n) = (n+L)! n̄ⁿ / (n! L! (1+n̄)^(L+1+n)).

    Negative-binomial with mean (L+1)n̄ and variance (L+1)n̄(1+n̄)."""
    _validate_subtraction_order(level)
    if not (math.isfinite(mean) and mean >= 0.0):
        raise DomainError(f"mean must be >= 0, got {mean!r}")
    success = 1.0 / (1.0 + mean)
    n_max, tail = _grow_cutoff(
        default_cutoff((level + 1) * mean),
        lambda c: float(stats.nbinom.sf(c, level + 1, success)),
        tail_target,
    )

    n = np.arange(n_max + 1)
    log_p = (
        special.gammaln(n + level + 1)
        - special.gammaln(n + 1)
        - special.gammaln(level + 1)
        + special.xlogy(n, mean)
        - (level + 1 + n) * math.log1p(mean)
    )
    return PhotonNumberDistribution(np.exp(log_p), tail)


def g2_subtracted(level: int) -> float:
    """Second-order coherence after L-quantum subtraction: (L+2)/(L+1)."""
    _validate_subtraction_order(level)
    return (level + 2.0) / (level + 1.0)


def subtraction_success_probability(cfg: SensorConfig, level: int) -> float:
    """Probability of registering exactly L quanta in the subtraction arm.

    The arm stays thermal with mean
    n̄_d = n̄ · γ_loss · (1−ξ) · η_pl · sin²(φ/2), so the probability is the
    Bose–Einstein weight n̄_d^L/(1+n̄_d)^(L+1).
    """
    _validate_subtraction_order(level)
    mean_d = (
        cfg.mean
        * cfg.gamma_loss
        * (1.0 - cfg.xi)
        * cfg.eta_pl
        * math.sin(cfg.phase / 2.0) ** 2
    )
    return math.exp(special.xlogy(level, mean_d) - (level + 1) * math.log1p(mean_d))


# ===================================================================
# Realistic conditional state
# ===================================================================

def _kept_branch_mean(cfg: SensorConfig, phase: float) -> float:
    """Thermal mean entering the coupler stage of the kept branch."""
    return cfg.mean * cfg.gamma_loss * math.cos(phase / 2.0) ** 2


def conditional_state_pmf(
    cfg: SensorConfig, level: int, tail_target: float = 1e-8
) -> PhotonNumberDistribution:
    """Kept-arm photon statistics conditioned on an L-count in the
    subtraction arm, including coupler split and both efficiencies.

    The unnormalized weight of n kept photons is

        w(n) = Σ_m C(m,L) η_pl^L (1−η_pl)^(m−L) · p_th(m+n; ñ)
                    · C(m+n, m) ξ^n (1−ξ)^m,

    with ñ the kept-branch thermal mean; the normalizer is the thermal
    L-count probability of the subtraction mode (mean ñ(1−ξ)η_pl). The
    detected distribution is the η_ph binomial thinning of w/normalizer.
    The cutoff follows the `photonstats.states` policy with the mass deficit
    as the tail.
    """
    _validate_subtraction_order(level)
    tilde_n = _kept_branch_mean(cfg, cfg.phase)
    if level > 0 and (tilde_n == 0.0 or cfg.xi == 1.0 or cfg.eta_pl == 0.0):
        raise DomainError(
            "conditioning on L > 0 has probability zero for this configuration"
        )
    # L·log(mean_d) from the logs of its factors: the product itself can
    # round (or underflow) in the subnormal range while the weights below
    # use the same factors in log space.
    mean_d = tilde_n * (1.0 - cfg.xi) * cfg.eta_pl
    log_norm = (
        special.xlogy(level, tilde_n)
        + special.xlog1py(level, -cfg.xi)
        + special.xlogy(level, cfg.eta_pl)
        - (level + 1) * math.log1p(mean_d)
    )

    @functools.cache  # the accepted cutoff is not evaluated twice
    def weights(n_cut: int) -> np.ndarray:
        m = np.arange(level, n_cut + 1, dtype=float)[:, None]
        n = np.arange(0, n_cut + 1, dtype=float)[None, :]
        log_w = (
            special.gammaln(m + 1)
            - special.gammaln(level + 1)
            - special.gammaln(m - level + 1)
            + special.xlogy(m + n, tilde_n / (1.0 + tilde_n))
            - math.log1p(tilde_n)
            + special.gammaln(m + n + 1)
            - special.gammaln(m + 1)
            - special.gammaln(n + 1)
            + special.xlogy(level, cfg.eta_pl)
            + special.xlog1py(m - level, -cfg.eta_pl)
            + special.xlogy(n, cfg.xi)
            + special.xlog1py(m, -cfg.xi)
        )
        return np.exp(special.logsumexp(log_w, axis=0) - log_norm)

    # The tail is the mass deficit, plus float slack for its ~1e2-term sum.
    n_cut, tail = _grow_cutoff(
        default_cutoff((level + 1) * (tilde_n + 1.0)),
        lambda c: max(0.0, 1.0 - float(weights(c).sum())) + 1e-15,
        tail_target,
    )
    return binomial_thin(PhotonNumberDistribution(weights(n_cut), tail), cfg.eta_ph)


def conditional_mean(cfg: SensorConfig, level: int, phase: float | None = None) -> float:
    """Closed-form mean of the detected conditional state:
    n̄ γ ξ η_ph cos²(φ/2) (L+1) / (1 + n̄ γ (1−ξ) η_pl cos²(φ/2))."""
    _validate_subtraction_order(level)
    phi = cfg.phase if phase is None else phase
    c = math.cos(phi / 2.0) ** 2
    numer = cfg.mean * cfg.gamma_loss * cfg.xi * cfg.eta_ph * c * (level + 1)
    denom = 1.0 + cfg.mean * cfg.gamma_loss * (1.0 - cfg.xi) * cfg.eta_pl * c
    return numer / denom


def snr(cfg: SensorConfig, level: int, phase: float | None = None) -> float:
    """Closed-form conditional signal-to-noise ratio:
    sqrt((1+L) n̄ γ η_ph ξ cos²(φ/2) / (1 + n̄ γ (ξη_ph + (1−ξ)η_pl) cos²(φ/2))).
    """
    _validate_subtraction_order(level)
    phi = cfg.phase if phase is None else phase
    c = math.cos(phi / 2.0) ** 2
    numer = (1 + level) * cfg.mean * cfg.gamma_loss * cfg.eta_ph * cfg.xi * c
    denom = 1.0 + cfg.mean * cfg.gamma_loss * (
        cfg.xi * cfg.eta_ph + (1.0 - cfg.xi) * cfg.eta_pl
    ) * c
    return math.sqrt(numer / denom)


def conditional_std(cfg: SensorConfig, level: int, phase: float | None = None) -> float:
    """Standard deviation of the detected conditional count, mean/SNR."""
    value = snr(cfg, level, phase)
    if value == 0.0:
        return 0.0
    return conditional_mean(cfg, level, phase) / value


def snr_from_pmf(cfg: SensorConfig, level: int) -> float:
    """SNR evaluated from the full conditional distribution instead of the
    closed form; exposed so both conventions can be compared."""
    mean, var = moments(conditional_state_pmf(cfg, level))
    if var <= 0.0:
        raise DomainError("SNR undefined for a deterministic distribution")
    return mean / math.sqrt(var)


def conditional_mean_phase_derivative(
    cfg: SensorConfig, level: int, phase: float | None = None
) -> float:
    """Analytic d⟨n⟩/dφ of the conditional mean.

    With K = n̄γξη_ph, B = n̄γ(1−ξ)η_pl and c = cos²(φ/2):
    d/dφ [K c (L+1)/(1+Bc)] = −K (L+1) sin(φ) / (2 (1+Bc)²).
    """
    _validate_subtraction_order(level)
    phi = cfg.phase if phase is None else phase
    big_k = cfg.mean * cfg.gamma_loss * cfg.xi * cfg.eta_ph
    big_b = cfg.mean * cfg.gamma_loss * (1.0 - cfg.xi) * cfg.eta_pl
    c = math.cos(phi / 2.0) ** 2
    return -big_k * (level + 1) * math.sin(phi) / (2.0 * (1.0 + big_b * c) ** 2)


def phase_uncertainty(
    cfg: SensorConfig, level: int, phase: float | None = None
) -> float:
    """Phase estimation error Δφ = Δn / |d⟨n⟩/dφ| at the working point.

    The slope is ``conditional_mean_phase_derivative``; a vanishing slope
    (φ near 0 or π, where the fringe is stationary) raises
    SingularPointError rather than returning a divergent number.
    """
    phi = cfg.phase if phase is None else phase
    derivative = conditional_mean_phase_derivative(cfg, level, phi)
    if abs(derivative) < 1e-12:
        raise SingularPointError(
            f"conditional mean is stationary at phase {phi}; uncertainty diverges"
        )
    return conditional_std(cfg, level, phi) / abs(derivative)
