"""The dual routes: each counting law's primary beside its one independent twin.

`ROUTES` maps a row's name to (a function from a point, as keywords, to its
primary and twin values; the reference point `photonstats oracle-check` uses;
tolerance; relative?), and `route_error` measures a row at any point, so the
property tests draw the same rows over their boxes. This module never imports
the CLI.
"""

import math

import numpy as np

from .coherence import (PreselectionNetwork, ThermalSplitterState, _detected_vacuum_sum, detected_vacuum_probability,
                        gamma_sum, joint_pmf)
from .imaging import DetectorModel, TwoArmDetection, _conditional_mean, arm_a_marginal, joint_pmf_noisy
from .scatter import ScatterConfig, detected_pmf, p_function_convolution_check
from .sensing import _kept_arm, conditional_state_pmf, preset
from .states import convolve, pmf, thermal


def route_error(primary, twin, relative: bool) -> float:
    """max|p − t|, or if relative max|p/t − 1| over the cells where |p − t| > 1e-300."""
    primary, twin = np.asarray(primary, dtype=float), np.asarray(twin, dtype=float)
    if not relative:
        return float(np.max(np.abs(primary - twin)))
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.max(np.where(np.abs(primary - twin) <= 1e-300, 0.0, np.abs(primary / twin - 1.0))))


def _p_function_route(mean_1, mean_2):
    dist = p_function_convolution_check(mean_1, mean_2)
    return dist.probs, pmf(thermal(mean_1 + mean_2), cutoff=dist.n_max).probs


def _scatter_route(cfg):
    d, (a, b) = detected_pmf(cfg), cfg.mode_means
    return d.probs, convolve(pmf(thermal(a), cutoff=d.n_max), pmf(thermal(b), cutoff=d.n_max)).probs[: d.n_max + 1]


def _joint_route(state, size):
    # with perfect detectors the noisy law is joint_pmf in its own arithmetic
    perfect = TwoArmDetection(state.split_angle, DetectorModel(), DetectorModel())
    grid = np.indices((size, size))
    return joint_pmf(state, *grid), joint_pmf_noisy(state.mean_total, perfect, *grid)


# exact post(N) and subtract(N) rows, N < levels, against the noisy law on that count grid
def _post_route(n_t, arms, levels, shape):
    table = joint_pmf_noisy(n_t, arms, *np.indices(shape))
    return [arm_a_marginal(n_t, arms, n) for n in range(levels)], table.sum(axis=1)[:levels]


def _subtract_route(n_t, arms, levels, shape):
    table = joint_pmf_noisy(n_t, arms, *np.indices(shape))
    means = np.arange(shape[0]) @ table / table.sum(axis=0)
    return [_conditional_mean([n_t], arms, n)[0] for n in range(levels)], means[:levels]


def _sensing_route(sensor, support_multiple):
    # the heralded state given L = 0..3 counts against the arm-a column at arm
    # b = L of a perfect-detector table with arm means A = Kc and B = Bc, over
    # support_multiple times the states' support, normalized by its sum
    heralded = [conditional_state_pmf(sensor, level) for level in range(4)]
    big_k, big_b, c = _kept_arm(sensor)
    a, b = big_k * c, big_b * c
    split = TwoArmDetection(math.atan(math.sqrt(b / a)), DetectorModel(), DetectorModel())
    table = joint_pmf_noisy(a + b, split, *np.indices((support_multiple * (max(d.n_max for d in heralded) + 1), 4)))
    columns = table / table.sum(axis=0)
    return (np.concatenate([d.probs for d in heralded]),
            np.concatenate([columns[: d.n_max + 1, level] for level, d in enumerate(heralded)]))


PRESELECT_ANGLES = (0.3, 0.7, 0.4, 0.6, 0.5)
_NOISY = dict(n_t=0.8, arms=TwoArmDetection(math.pi / 4.0, DetectorModel(0.55, 0.3), DetectorModel(0.55, 0.3)),
              levels=8, shape=(25, 25))  # counts past 24 carry < 1e-20 of this law's mass
ROUTES = {
    "p_function_vs_thermal": (_p_function_route, dict(mean_1=0.7, mean_2=1.4), 1e-12, False),
    "scatter_vs_convolution": (_scatter_route, dict(cfg=ScatterConfig(1.0, 1.0 / 3.0, 45.0)), 1e-12, False),
    "gamma_sum_identity": (lambda n: (gamma_sum(n), [float(math.factorial(k)) for k in n]), dict(n=range(21)),
                           1e-9, True),
    "joint_pmf_vs_noisy_law": (_joint_route, dict(state=ThermalSplitterState(1.0, math.pi / 4.0), size=60), 1e-12,
                               True),
    "post_vs_noisy_law": (_post_route, _NOISY, 1e-12, True),
    "subtract_vs_noisy_law": (_subtract_route, _NOISY, 1e-12, True),
    "sensing_vs_noisy_law": (_sensing_route, dict(sensor=preset("thesis-ch5"), support_multiple=1), 1e-12, True),
    "vacuum_closed_form_vs_sum": (lambda net: (detected_vacuum_probability(net), _detected_vacuum_sum(net)),
                                  dict(net=PreselectionNetwork(PRESELECT_ANGLES, 0.3)), 1e-9, True),
}
