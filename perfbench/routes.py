"""Independent routes the benchmark checks library outputs against.

Each route reaches a law by a different path than the library function
under test: a convolution of canonical pmfs instead of the noisy joint
double sum, a conditional negative-binomial argument instead of a truncated
conditional mean, a closed form instead of a cubic sum. Monte Carlo outputs
are compared through an aggregate chi-square test over all rows, whose
acceptance band is set from the chi-square law itself, so it cannot fail
spuriously for any seed the way a per-row maximum would.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special, stats

from photonstats import coherent, convolve, pmf, thermal

# Two-sided tail probability of the chi-square acceptance band.
CHI2_TAIL = 1e-9


def _pmf(tr, source):
    with tr.span("states.pmf"):
        return pmf(source)


def _arm_means(n_t: float, arms) -> tuple[float, float]:
    c2, s2 = arms.arm_fractions
    return arms.det_a.efficiency * c2 * n_t, arms.det_b.efficiency * s2 * n_t


def post_probability(tr, n_t: float, arms, big_n: int) -> float:
    """P(N counts in arm a): thinned thermal convolved with Poisson darks."""
    a, _ = _arm_means(n_t, arms)
    signal = _pmf(tr, thermal(a))
    dark = _pmf(tr, coherent(arms.det_a.dark_rate))
    with tr.span("states.convolve"):
        return float(convolve(signal, dark).probs[big_n])


def conditional_arm_a(tr, n_t: float, arms, big_n: int) -> tuple[float, float, float]:
    """Mean and variance of arm-a counts given N counts in arm b, and P(b=N).

    Given k signal counts in arm b, arm a's signal is a sum of k+1 thermal
    variables of mean q = A/(1+B) (A, B the detected arm means); arm b's
    signal is thermal(B) and its darks Poisson(ν_b), so the posterior over k
    given b = N is a finite sum.
    """
    a, b = _arm_means(n_t, arms)
    q = a / (1.0 + b)
    k = np.arange(big_n + 1)
    signal_b = _pmf(tr, thermal(b)).probs[: big_n + 1]
    dark_b = _pmf(tr, coherent(arms.det_b.dark_rate)).probs[big_n::-1]
    weights = signal_b * dark_b
    p_b = float(weights.sum())
    post = weights / p_b
    k_mean = float(post @ k)
    k_var = float(post @ (k * k)) - k_mean * k_mean
    nu_a = arms.det_a.dark_rate
    mean = nu_a + q * (1.0 + k_mean)
    var = nu_a + q * (1.0 + q) * (1.0 + k_mean) + q * q * k_var
    return mean, var, p_b


def intensity_moments(n_t: float, arms) -> tuple[float, float]:
    """Mean and variance of arm-a counts: thermal(A) plus Poisson(ν_a)."""
    a, _ = _arm_means(n_t, arms)
    nu_a = arms.det_a.dark_rate
    return a + nu_a, a * (1.0 + a) + nu_a


def poisson_probability(rate: float, count: int) -> float:
    return math.exp(count * math.log(rate) - rate - math.lgamma(count + 1))


def mixed_thermal_g2(a: float, b: float) -> float:
    """g2 of the sum of two independent thermal modes."""
    return 1.0 + (a * a + b * b) / (a + b) ** 2


def split_thermal_joint(mean: float, size: int) -> np.ndarray:
    """p(n, m) of thermal light behind a balanced lossless splitter:
    Bose–Einstein(n+m) times a fair binomial split."""
    n = np.arange(size)[:, None]
    m = np.arange(size)[None, :]
    total = n + m
    log_p = (
        special.gammaln(total + 1)
        - special.gammaln(n + 1)
        - special.gammaln(m + 1)
        + total * (math.log(0.5) + math.log(mean) - math.log1p(mean))
        - math.log1p(mean)
    )
    return np.exp(log_p)


def chi2_check(z: np.ndarray) -> tuple[bool, float]:
    """Aggregate test of standardized residuals; returns (ok, chi2/dof)."""
    z = np.asarray(z, dtype=float)
    dof = z.size
    stat = float(z @ z)
    ok = stats.chi2.ppf(CHI2_TAIL, dof) <= stat <= stats.chi2.isf(CHI2_TAIL, dof)
    return bool(ok), stat / dof


def max_rel_err(got, want) -> float:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    return float(np.max(np.abs(got - want) / np.maximum(np.abs(want), 1e-300)))
