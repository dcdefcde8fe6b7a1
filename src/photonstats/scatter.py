"""Photon statistics of a polarized source mixed with its plasmonic scatter.

A vertically-referenced polarization angle θ (degrees) splits the source mean
n̄_s between two effective thermal modes that reach the detector together: one
carrying the plasmon-side mean A = n̄_pl + η·n̄_s and one carrying the leftover
B = (1−η)·n̄_s, with η = cos²θ. The detected photon-number law is the double
geometric sum

    p_det(n) = Σ_{m=0}^{n} A^(n−m) B^m / ((A+1)^(n−m+1) (B+1)^(m+1)),

which is exactly the convolution of two Bose–Einstein pmfs. Summing the
geometric series gives the primary evaluation path, the closed form
p_det(n) = (r_A^(n+1) − r_B^(n+1))/(A − B) with r = n̄/(1+n̄); the tests and
`oracle-check` compare it with the convolution of `states.pmf` results, the
independent route. Both laws here are truncated by the policy stated in
`photonstats.states`.

The resulting g2 runs between 2 (single thermal mode) and 1.5 (two equal
thermal modes), the classic bunching reduction of incoherent mode mixing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import AccuracyError, DomainError, UndefinedCoherenceError, _real, _real_fields
from .states import (
    _SUM_SLACK,
    DEFAULT_TAIL_TARGET,
    PhotonNumberDistribution,
    _grow_cutoff,
    _negbin_tail,
)

__all__ = [
    "ScatterConfig",
    "detected_pmf",
    "g2_vs_angle",
    "p_function_convolution_check",
]


# The largest Gauss–Laguerre order `special.roots_laguerre` builds: its
# weights overflow from order 364 on (a RuntimeWarning, then NaN). It caps
# `p_function_convolution_check` at a combined mean of 27.1 at the default
# tail target.
_LAGUERRE_MAX_ORDER = 363


@dataclass(frozen=True)
class ScatterConfig:
    """Source mean n̄_s, plasmonic mean n̄_pl, polarization angle in degrees
    measured from the vertical axis. η = cos²θ is derived."""

    mean_source: float
    mean_plasmon: float
    theta_deg: float

    def __post_init__(self) -> None:
        _real_fields(self, "mean_source mean_plasmon", 0)
        _real_fields(self, "theta_deg", 0, 90)

    @property
    def eta(self) -> float:
        return math.cos(math.radians(self.theta_deg)) ** 2

    @property
    def mode_means(self) -> tuple[float, float]:
        """(A, B): plasmon-side and residual-photon-side thermal means."""
        eta = self.eta
        return (
            self.mean_plasmon + eta * self.mean_source,
            (1.0 - eta) * self.mean_source,
        )


def _log_ratio(mean: float) -> float:
    """log r = log(n̄/(1+n̄)), without rounding r first; −inf at n̄ = 0."""
    if mean == 0.0:
        return -math.inf
    return math.log(mean) - math.log1p(mean) if mean < 1.0 else -math.log1p(1.0 / mean)


def detected_pmf(
    cfg: ScatterConfig, tail_target: float = DEFAULT_TAIL_TARGET
) -> PhotonNumberDistribution:
    """Detected photon-number distribution of the mixed field.

    With r = n̄/(1+n̄) per mode and A ≥ B (the law is symmetric),
    p(n) = (r_A^(n+1) − r_B^(n+1))/(A − B), evaluated as
    r_A^(n+1)·(−expm1((n+1)·log(r_B/r_A)))/(A − B); two equal modes give
    (n+1)·r^n/(1+A)². The mass past the cutoff is exact:
    P(X+Y > n) = A·p_det(n) + r_B^(n+1), because P(X > n−m) = A·BE_A(n−m)
    turns the tail's sum over m into A times the double geometric sum at n.
    """
    big_b, big_a = sorted(cfg.mode_means)
    log_ra = _log_ratio(big_a)
    if big_a == big_b:

        def law(n: np.ndarray) -> np.ndarray:
            power = np.multiply(n, log_ra, out=np.zeros(n.shape), where=n > 0)  # r⁰ = 1
            return (n + 1) * np.exp(power - 2.0 * math.log1p(big_a))
    else:
        # log(r_B/r_A) = log1p(x); as x nears −1 that loses digits and the
        # difference of the logs does not (−inf at B = 0).
        x = (big_b - big_a) / (big_a * (1.0 + big_b))
        log_q = math.log1p(x) if x > -0.5 else _log_ratio(big_b) - log_ra

        def law(n: np.ndarray) -> np.ndarray:
            m = n + 1.0
            return np.exp(m * log_ra) / (big_a - big_b) * -np.expm1(m * log_q)

    n_max, tail_bound = _grow_cutoff(
        big_a + big_b,
        lambda c: big_a * float(law(np.array([c]))[0]) + _negbin_tail(big_b, 0, c),
        tail_target,
        f"mode means {cfg.mode_means!r} of {cfg!r}",
    )
    return PhotonNumberDistribution(law(np.arange(n_max + 1)), tail_bound)


def g2_vs_angle(
    mean_source: float,
    mean_plasmon: float,
    theta_grid_deg: np.ndarray | list[float],
) -> np.ndarray:
    """g2 of the detected field per polarization angle; rows (theta_deg, g2)
    sorted by angle.

    Two independent thermal modes of means A and B give the closed form
    g2 = 1 + (A² + B²)/(A + B)² = 1 + ρ² + (1 − ρ)², ρ = A/(A + B), on each
    angle's mode means; the tests check it against
    `g2_from_pmf(detected_pmf(cfg))`.
    """
    grid = _real(theta_grid_deg, "theta grid", 0, 90, grid=True)
    if grid.ndim != 1 or grid.size == 0:
        raise DomainError("theta grid must be a non-empty 1-D array")
    cfg = ScatterConfig(mean_source, mean_plasmon, 0.0)  # checks both means
    top = max(cfg.mean_source, cfg.mean_plasmon)
    if top <= 0.0:  # A + B at every angle
        raise UndefinedCoherenceError("g2 undefined for a zero-mean distribution")
    grid = np.sort(grid)
    eta = np.cos(np.radians(grid)) ** 2
    # In units of the larger mean A + B lies in [1, 2], so the share ρ neither
    # overflows nor is 0/0, whatever the scale of the means.
    source, plasmon = cfg.mean_source / top, cfg.mean_plasmon / top
    rho = (plasmon + eta * source) / (plasmon + source)
    return np.column_stack((grid, 1.0 + rho * rho + (1.0 - rho) ** 2))


def p_function_convolution_check(
    mean_1: float, mean_2: float, tail_target: float = DEFAULT_TAIL_TARGET
) -> PhotonNumberDistribution:
    """Pmf of the state whose phase-space quasi-probability is the convolution
    of two thermal ones.

    Thermal states have Gaussian quasi-probability weight exp(−|α|²/n̄)/(πn̄)
    over coherent amplitudes, so convolving two of them adds the variances:
    the combined weight is again thermal with ñ = n̄₁+n̄₂. Rather than just
    returning that closed form, this routine evaluates the diagonal projection
    integral numerically,

        p(n) = (1/ñ) ∫_0^∞ exp(−u(1+1/ñ)) uⁿ/n! du,     u = |α|²,

    by Gauss–Laguerre quadrature (after rescaling t = u(1+ñ)/ñ the integrand
    is a polynomial times e^(−t), which the rule integrates exactly), keeping
    the check honest: agreement with the thermal pmf is a numerical outcome,
    not an identity wired into the code.

    The rule has order n_max//2 + 8, and one past `_LAGUERRE_MAX_ORDER`
    cannot be built: such means and tail targets (a combined mean from 28
    up at the default target) raise AccuracyError before any rule is made.
    """
    combined = _real(mean_1, "mean_1", 0) + _real(mean_2, "mean_2", 0)
    n_max, tail = _grow_cutoff(
        combined, lambda c: _negbin_tail(combined, 0, c), tail_target, f"mean_1 {mean_1!r} and mean_2 {mean_2!r}"
    )

    order = n_max // 2 + 8
    if order > _LAGUERRE_MAX_ORDER:
        raise AccuracyError(
            f"mean_1 {mean_1!r} and mean_2 {mean_2!r} at tail_target {tail_target!r} need a "
            f"Gauss–Laguerre rule of order {order}; the largest that builds is {_LAGUERRE_MAX_ORDER}"
        )
    nodes, weights = special.roots_laguerre(order)
    positive = weights > 0.0
    log_w = np.log(weights[positive])
    log_t = np.log(nodes[positive])

    n = np.arange(n_max + 1)
    # log Σ_i w_i t_i^n, one logsumexp per photon number.
    log_gamma_integral = special.logsumexp(
        log_w[None, :] + n[:, None] * log_t[None, :], axis=1
    )
    log_thermal_scale = (
        special.xlogy(n, combined / (1.0 + combined))
        - math.log1p(combined)
        - special.gammaln(n + 1.0)
    )
    probs = np.exp(log_gamma_integral + log_thermal_scale)

    total = float(probs.sum())
    # Quadrature round-off is not truncation: the tail stays the exact
    # geometric one, and a mass off 1 − tail by more than the float slack of
    # the distribution type is a quadrature failure.
    if not abs(total - (1.0 - tail)) <= _SUM_SLACK:
        raise AccuracyError(
            f"quadrature mass {total} deviates from 1 - tail = {1.0 - tail}"
        )
    return PhotonNumberDistribution(probs, tail)
