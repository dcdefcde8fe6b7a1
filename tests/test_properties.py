"""Property tests: the vectorized counting-law primaries against the
cell-by-cell joint law, and the mass/tail contract of truncated pmfs, over
random parameters rather than frozen points."""

import math
import time

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from photonstats import (
    AccuracyError,
    DetectorModel,
    DomainError,
    ScatterConfig,
    SensorConfig,
    TwoArmDetection,
    binomial_thin,
    coherent,
    conditional_state_pmf,
    default_cutoff,
    detected_pmf,
    fock,
    joint_pmf_noisy,
    p_function_convolution_check,
    pmf,
    preset,
    subtracted_pmf,
    thermal,
)
from photonstats.imaging import _conditional_mean, _post_probability
from photonstats.states import _grow_cutoff

# Derandomized so a failure reproduces bit for bit, like the frozen Monte
# Carlo seeds elsewhere in the suite.
SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)

means = st.one_of(st.just(0.0), st.floats(1e-3, 3.0))
rates = st.one_of(st.just(0.0), st.floats(1e-3, 2.0))
efficiencies = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.01, 1.0))


@st.composite
def two_arms(draw):
    return TwoArmDetection(
        draw(st.floats(0.0, math.pi / 2.0)),
        DetectorModel(draw(efficiencies), draw(rates)),
        DetectorModel(draw(efficiencies), draw(rates)),
    )


def _arm_means(n_t, arms):
    c2, s2 = arms.arm_fractions
    return arms.det_a.efficiency * c2 * n_t, arms.det_b.efficiency * s2 * n_t


@SETTINGS
@given(n_t=means, arms=two_arms(), big_n=st.integers(0, 6))
def test_post_probability_is_the_marginal_of_the_joint_law(n_t, arms, big_n):
    _, b = _arm_means(n_t, arms)
    # Given N counts in arm a, arm b's signal is negative binomial with mean at
    # most (N+1)·B; twice the default cutoff leaves out less than 1e-17.
    cut = 2 * default_cutoff((big_n + 1) * b + arms.det_b.dark_rate)
    oracle = sum(joint_pmf_noisy(n_t, arms, big_n, m) for m in range(cut + 1))
    got = _post_probability(n_t, arms, big_n)[0]
    assert np.isclose(got, oracle, rtol=1e-10, atol=1e-300)


@SETTINGS
@given(n_t=means, arms=two_arms(), big_n=st.integers(0, 6))
# A bright arm a: a cutoff of default_cutoff(A) alone would be off by ~1e-9.
@example(
    n_t=3.0,
    arms=TwoArmDetection(0.0, DetectorModel(1.0, 1.0), DetectorModel(0.0, 0.0)),
    big_n=0,
)
def test_conditional_mean_is_the_joint_law_conditioned(n_t, arms, big_n):
    a, b = _arm_means(n_t, arms)
    assume(big_n == 0 or b > 0.0 or arms.det_b.dark_rate > 0.0)
    # Likewise for arm a's signal given N counts in arm b.
    cut = 2 * default_cutoff((big_n + 1) * a + arms.det_a.dark_rate)
    counts = np.arange(cut + 1)
    column = np.array([joint_pmf_noisy(n_t, arms, int(n), big_n) for n in counts])
    oracle = float(counts @ column) / float(column.sum())
    got = _conditional_mean(n_t, arms, big_n)[0]
    assert np.isclose(got, oracle, rtol=1e-10, atol=1e-300)


@SETTINGS
@given(n_t=st.lists(means, min_size=1, max_size=8), arms=two_arms(), big_n=st.integers(0, 40))
def test_post_probabilities_lie_in_the_unit_interval(n_t, arms, big_n):
    probs = _post_probability(np.array(n_t), arms, big_n)
    assert probs.shape == (len(n_t),)
    assert np.all((probs >= 0.0) & (probs <= 1.0))


@SETTINGS
@given(
    kind=st.sampled_from([thermal, coherent, fock]),
    mean=st.floats(0.0, 50.0),
    tail_target=st.floats(1e-14, 1e-3),
)
# Large coherent means: a pmf body that cancels ~n̄·log n̄ overshot 1 by 1.6e-12 at 2500.
@example(kind=coherent, mean=2500.0, tail_target=1e-10)
@example(kind=coherent, mean=1e5, tail_target=1e-10)
def test_pmf_mass_honors_the_tail_bound(kind, mean, tail_target):
    dist = pmf(kind(round(mean) if kind is fock else mean), tail_target=tail_target)
    total = float(dist.probs.sum())
    assert dist.tail_bound <= tail_target
    # 1e-12 is the float slack the distribution type allows on "sums to one".
    assert 1.0 - dist.tail_bound - 1e-12 <= total <= 1.0 + 1e-12


@SETTINGS
@given(
    kind=st.sampled_from([thermal, coherent]),
    mean=st.floats(0.0, 40.0),
    efficiency=st.floats(0.0, 1.0),
)
# Total loss and no loss: both go through the log-space kernel unbranched.
@example(kind=thermal, mean=40.0, efficiency=0.0)
@example(kind=coherent, mean=40.0, efficiency=1.0)
def test_binomial_thin_is_the_thinned_law_short_by_at_most_the_tail(kind, mean, efficiency):
    """Thinning keeps a canonical source canonical, with mean ηn̄. The
    truncated input misses only its tail, so the thinned pmf lies between
    the exact thinned law (same cutoff) and that law less the tail bound."""
    dist = binomial_thin(pmf(kind(mean)), efficiency)
    exact = pmf(kind(efficiency * mean), cutoff=dist.n_max).probs
    assert np.all(dist.probs <= exact + 1e-12)
    assert np.all(dist.probs >= exact - dist.tail_bound - 1e-12)
    # 1e-12 is the float slack the distribution type allows on "sums to one".
    total = float(dist.probs.sum())
    assert 1.0 - dist.tail_bound - 1e-12 <= total <= 1.0 + 1e-12


# The other truncating constructors: every one grows its cutoff by the shared
# rule in `states`, so each must honor the same mass/tail contract.

tail_targets = st.floats(1e-14, 1e-3)


def _assert_mass_honors_the_tail_bound(dist, tail_target):
    assert dist.tail_bound <= tail_target
    assert float(dist.probs.sum()) >= 1.0 - dist.tail_bound - 1e-12


@SETTINGS
@given(mean=st.floats(0.0, 20.0), level=st.integers(0, 4), tail_target=tail_targets)
# High levels: a tail summed as binom(T, j)·exp(…) overflowed to inf·0 = NaN.
@example(mean=10.0, level=200, tail_target=1e-10)
@example(mean=100.0, level=150, tail_target=1e-10)
@example(mean=0.5, level=400, tail_target=1e-10)
def test_subtracted_pmf_mass_honors_the_tail_bound(mean, level, tail_target):
    dist = subtracted_pmf(mean, level, tail_target=tail_target)
    _assert_mass_honors_the_tail_bound(dist, tail_target)


@SETTINGS
@given(
    mean_source=st.floats(0.0, 10.0),
    mean_plasmon=st.floats(0.0, 10.0),
    theta=st.floats(0.0, 90.0),
    tail_target=tail_targets,
)
def test_detected_pmf_mass_honors_the_tail_bound(mean_source, mean_plasmon, theta, tail_target):
    dist = detected_pmf(ScatterConfig(mean_source, mean_plasmon, theta), tail_target=tail_target)
    _assert_mass_honors_the_tail_bound(dist, tail_target)


@SETTINGS
@given(mean_1=st.floats(0.0, 10.0), mean_2=st.floats(0.0, 10.0), tail_target=tail_targets)
# ~1.5e-14 of quadrature round-off once counted as truncated mass here.
@example(mean_1=0.0, mean_2=6.0, tail_target=1e-14)
def test_p_function_mass_honors_the_tail_bound(mean_1, mean_2, tail_target):
    dist = p_function_convolution_check(mean_1, mean_2, tail_target=tail_target)
    _assert_mass_honors_the_tail_bound(dist, tail_target)


# Zero, one, tiny and subnormal values: the normalizer of a vanishing
# subtraction-mode mean is where precision is lost first.
fractions = st.one_of(
    st.just(0.0), st.just(1.0), st.floats(0.0, 1e-300), st.floats(0.0, 1.0)
)


@SETTINGS
@given(
    cfg=st.builds(
        SensorConfig,
        st.one_of(st.just(0.0), st.floats(1e-3, 20.0)),
        st.floats(0.0, 2.0 * math.pi),
        fractions, fractions, fractions, fractions,
    ),
    level=st.integers(0, 3),
    tail_target=tail_targets,
)
# A subnormal subtraction-mode mean ñ(1−ξ)η_pl ≈ 6.6e-316 from a tiny loss.
@example(cfg=SensorConfig(1.0, 0.0, 0.0, 3e-300, 0.0, 2.2e-16), level=1, tail_target=1e-8)
def test_conditional_state_pmf_mass_honors_the_tail_bound(cfg, level, tail_target):
    tilde_n = cfg.mean * cfg.gamma_loss * math.cos(cfg.phase / 2.0) ** 2
    assume(level == 0 or (tilde_n > 0.0 and cfg.xi < 1.0 and cfg.eta_pl > 0.0))
    dist = conditional_state_pmf(cfg, level, tail_target=tail_target)
    _assert_mass_honors_the_tail_bound(dist, tail_target)


TRUNCATING_CONSTRUCTORS = {
    "pmf": lambda t: pmf(thermal(1.0), tail_target=t),
    "subtracted_pmf": lambda t: subtracted_pmf(1.0, 1, tail_target=t),
    "detected_pmf": lambda t: detected_pmf(ScatterConfig(1.0, 1.0, 45.0), tail_target=t),
    "p_function_convolution_check": lambda t: p_function_convolution_check(0.7, 1.4, tail_target=t),
    "conditional_state_pmf": lambda t: conditional_state_pmf(preset("thesis-ch5"), 1, tail_target=t),
}


@pytest.mark.parametrize("tail_target", [-1.0, math.nan])
@pytest.mark.parametrize("name", sorted(TRUNCATING_CONSTRUCTORS))
def test_bad_tail_target_is_a_domain_error(name, tail_target):
    with pytest.raises(DomainError, match="tail_target"):
        TRUNCATING_CONSTRUCTORS[name](tail_target)


def test_unreachable_deficit_target_fails_fast():
    # A mass deficit stuck at its float floor (~1e-15): the cutoff stops
    # growing as soon as a step fails to lower the tail.
    start = time.perf_counter()
    with pytest.raises(AccuracyError, match="stalled"):
        _grow_cutoff(16, lambda n_max: 1e-15, 1e-20)
    assert time.perf_counter() - start < 1.0


def test_a_tail_that_falls_too_slowly_stops_after_64_steps():
    cutoffs = []

    def tail(n_max):
        cutoffs.append(n_max)
        return 1.0 / n_max

    with pytest.raises(AccuracyError, match="64 cutoff increases"):
        _grow_cutoff(16, tail, 0.0)
    assert len(cutoffs) == 65


def test_heralded_state_meets_a_target_below_float_epsilon():
    dist = conditional_state_pmf(preset("thesis-ch5"), 1, tail_target=1e-20)
    assert dist.tail_bound <= 1e-20
