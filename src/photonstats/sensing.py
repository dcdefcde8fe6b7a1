"""Conditional plasmon-subtraction sensing: statistics, SNR, phase error.

A thermal probe of mean n̄ enters a lossy two-output coupler (total coupled
fraction γ_loss split as ξ : 1−ξ between the kept, photonic output and the
subtraction output) behind an interferometer with analyte phase φ. Detecting
L quanta in the subtraction arm (efficiency η_pl) conditions the kept arm
(efficiency η_ph) on an L-subtracted state:

* ideal L-subtracted thermal statistics follow the negative-binomial law
  p(n) = C(n+L, n) n̄ⁿ / (1+n̄)^(n+L+1) with mean (L+1)n̄ and
  g² = (L+2)/(L+1);
* the realistic conditional state is that same law at the detected mean
  μ = Kc/(1+Bc), with K = n̄γ_loss ξ η_ph, B = n̄γ_loss (1−ξ) η_pl and
  c = cos²(φ/2): summing the split thermal light over the undetected
  subtraction-arm photons and thinning the kept arm by η_ph leaves a
  negative binomial (``conditional_state_pmf``);
* closed forms for its mean (L+1)μ, standard deviation, signal-to-noise
  ratio and the phase uncertainty Δφ = Δn/|d⟨n⟩/dφ|.

The subtracted and conditional pmfs are `states._negbin_pmf`, the binomial
kernel at L > 0, truncated by the policy stated in `photonstats.states`.

Two phase conventions coexist deliberately: the subtraction arm's success
probability carries sin²(φ/2) while the kept arm's conditional moments carry
cos²(φ/2). Each formula keeps the convention of the branch it describes.

Every law reads φ from its `SensorConfig`. To evaluate at another phase,
pass ``dataclasses.replace(cfg, phase=φ)``, so the new phase goes through
the config's [0, 2π] check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SingularPointError, _count, _real, _real_fields
from .states import (
    DEFAULT_TAIL_TARGET,
    PhotonNumberDistribution,
    _check_budget,
    _grow_cutoff,
    _negbin_pmf,
    _negbin_tail,
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
        _real_fields(self, "mean", 0)
        _real_fields(self, "phase", 0, 2.0 * math.pi)
        _real_fields(self, "xi gamma_loss eta_ph eta_pl", 0, 1)


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

def subtracted_pmf(
    mean: float, level: int, tail_target: float = DEFAULT_TAIL_TARGET
) -> PhotonNumberDistribution:
    """Photon-number law after subtracting ``level`` quanta from a thermal
    field of mean n̄: p(n) = (n+L)! n̄ⁿ / (n! L! (1+n̄)^(L+1+n)).

    Negative-binomial with mean (L+1)n̄ and variance (L+1)n̄(1+n̄). Its
    exact tail sums L + 1 terms, so L + 1 past the 2**27-entry budget raises
    DomainError naming the inputs, as a cutoff past it does. Far from the
    mode at large L it is up to ~5e-12 relative off exact at L = 10⁶,
    wherever 1/(1+n̄) rounds (`states._negbin_pmf`); it is held to 1e-12 up
    to L = 10⁴."""
    level, mean = _count(level, "level"), _real(mean, "mean", 0)
    what = f"mean {mean!r} at level {level}"
    _check_budget(level + 1, what, "its tail sum")
    n_max, tail = _grow_cutoff((level + 1) * mean, lambda c: _negbin_tail(mean, level, c), tail_target, what)
    return PhotonNumberDistribution(_negbin_pmf(np.arange(n_max + 1), level, mean), tail)


def g2_subtracted(level: int) -> float:
    """Second-order coherence after L-quantum subtraction: (L+2)/(L+1)."""
    level = _count(level, "level")
    return (level + 2.0) / (level + 1.0)


def subtraction_success_probability(cfg: SensorConfig, level: int) -> float:
    """Probability of registering exactly L quanta in the subtraction arm.

    The arm stays thermal with mean n̄_d = B sin²(φ/2), B = n̄γ_loss(1−ξ)η_pl,
    so the probability is the Bose–Einstein weight n̄_d^L/(1+n̄_d)^(L+1).
    """
    level = _count(level, "level")
    _, big_b, _ = _kept_arm(cfg)
    return float(_negbin_pmf(level, 0, big_b * math.sin(cfg.phase / 2.0) ** 2))


# ===================================================================
# Realistic conditional state
# ===================================================================

def _kept_arm(cfg: SensorConfig) -> tuple[float, float, float]:
    """(K, B, c): detected kept-arm and subtraction-arm means per unit c, and
    the fringe factor c = cos²(φ/2)."""
    big_k = cfg.mean * cfg.gamma_loss * cfg.xi * cfg.eta_ph
    big_b = cfg.mean * cfg.gamma_loss * (1.0 - cfg.xi) * cfg.eta_pl
    return big_k, big_b, math.cos(cfg.phase / 2.0) ** 2


def conditional_state_pmf(
    cfg: SensorConfig, level: int, tail_target: float = DEFAULT_TAIL_TARGET
) -> PhotonNumberDistribution:
    """Kept-arm photon statistics conditioned on an L-count in the
    subtraction arm, including coupler split and both efficiencies: the
    negative binomial ``subtracted_pmf(μ, L)`` with μ = Kc/(1+Bc)."""
    level = _count(level, "level")
    big_k, big_b, c = _kept_arm(cfg)
    # The factors, not B·c: that product can underflow while each is positive.
    if level > 0 and 0.0 in (cfg.mean * cfg.gamma_loss * c, 1.0 - cfg.xi, cfg.eta_pl):
        raise DomainError(
            "conditioning on L > 0 has probability zero for this configuration"
        )
    return subtracted_pmf(big_k * c / (1.0 + big_b * c), level, tail_target)


def conditional_mean(cfg: SensorConfig, level: int) -> float:
    """Closed-form mean of the detected conditional state, (L+1)μ =
    (L+1) K c / (1 + B c)."""
    level = _count(level, "level")
    big_k, big_b, c = _kept_arm(cfg)
    return big_k * c * (level + 1) / (1.0 + big_b * c)


def snr(cfg: SensorConfig, level: int) -> float:
    """Closed-form conditional signal-to-noise ratio, mean/std of the
    negative binomial: sqrt((L+1) K c / (1 + (K+B) c))."""
    level = _count(level, "level")
    big_k, big_b, c = _kept_arm(cfg)
    return math.sqrt((level + 1) * big_k * c / (1.0 + (big_k + big_b) * c))


def conditional_std(cfg: SensorConfig, level: int) -> float:
    """Standard deviation of the detected conditional count, mean/SNR."""
    value = snr(cfg, level)
    if value == 0.0:
        return 0.0
    return conditional_mean(cfg, level) / value


def snr_from_pmf(cfg: SensorConfig, level: int) -> float:
    """SNR evaluated from the full conditional distribution instead of the
    closed form; exposed so both conventions can be compared."""
    mean, var = moments(conditional_state_pmf(cfg, level))
    if var <= 0.0:
        raise DomainError("SNR undefined for a deterministic distribution")
    return mean / math.sqrt(var)


def conditional_mean_phase_derivative(cfg: SensorConfig, level: int) -> float:
    """Analytic d⟨n⟩/dφ of the conditional mean:
    d/dφ [K c (L+1)/(1+Bc)] = −K (L+1) sin(φ) / (2 (1+Bc)²)."""
    level = _count(level, "level")
    big_k, big_b, c = _kept_arm(cfg)
    return -big_k * (level + 1) * math.sin(cfg.phase) / (2.0 * (1.0 + big_b * c) ** 2)


def phase_uncertainty(cfg: SensorConfig, level: int) -> float:
    """Phase estimation error Δφ = Δn / |d⟨n⟩/dφ| at the working point.

    The slope is ``conditional_mean_phase_derivative``; a vanishing slope
    (φ near 0 or π, where the fringe is stationary) raises
    SingularPointError rather than returning a divergent number.
    """
    derivative = conditional_mean_phase_derivative(cfg, level)
    if abs(derivative) < 1e-12:
        raise SingularPointError(
            f"conditional mean is stationary at phase {cfg.phase}; uncertainty diverges"
        )
    return conditional_std(cfg, level) / abs(derivative)
