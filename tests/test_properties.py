"""Property tests: each dual route of `photonstats._routes` over its
parameter box, and the mass/tail contract of truncated pmfs, over random
parameters rather than frozen points."""

import math
import time

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from photonstats import (
    AccuracyError,
    DetectorModel,
    PhotonNumberDistribution,
    DomainError,
    PreselectionNetwork,
    ScatterConfig,
    SensorConfig,
    ThermalSplitterState,
    TwoArmDetection,
    acquire,
    arm_a_marginal,
    binary_phantom,
    binomial_thin,
    coherent,
    conditional_state_pmf,
    convolve,
    cs_reconstruct,
    default_cutoff,
    detected_pmf,
    fock,
    p_function_convolution_check,
    pmf,
    preset,
    random_sensing_matrix,
    subtracted_pmf,
    thermal,
)
from photonstats._routes import ROUTES, route_error
from photonstats.states import _binomial_pmf, _grow_cutoff

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


@st.composite
def noisy_tables(draw, post):
    """A post(N) or subtract(N) point: N < levels ≤ 7 and a count grid that
    leaves out less than 1e-17 of the summed arm's mass. Given N counts in
    one arm, the other arm's signal is negative binomial with mean at most
    (N+1) times its arm mean, so twice the default cutoff of that plus its
    dark rate suffices."""
    n_t, arms, levels = draw(means), draw(two_arms()), draw(st.integers(1, 7))
    a, b = _arm_means(n_t, arms)
    if post:
        cut = 2 * default_cutoff(levels * b + arms.det_b.dark_rate)
        return dict(n_t=n_t, arms=arms, levels=levels, shape=(levels, cut + 1))
    if b == 0.0 and arms.det_b.dark_rate == 0.0:
        levels = 1  # arm b never counts: only N = 0 can be conditioned on
    cut = 2 * default_cutoff(levels * a + arms.det_a.dark_rate)
    return dict(n_t=n_t, arms=arms, levels=levels, shape=(cut + 1, levels))


angles = st.floats(0.0, math.pi / 2.0)

# The parameter box each dual route of `photonstats._routes` is drawn from.
ROUTE_BOXES = {
    # a combined mean from 28 up needs a Gauss–Laguerre rule past the largest that builds
    "p_function_vs_thermal": st.fixed_dictionaries({"mean_1": st.floats(0.0, 10.0), "mean_2": st.floats(0.0, 10.0)}),
    "scatter_vs_convolution": st.fixed_dictionaries(
        {"cfg": st.builds(ScatterConfig, st.floats(0.0, 10.0), st.floats(0.0, 10.0), st.floats(0.0, 90.0))}
    ),
    # up to 170!, the largest factorial below the float maximum
    "gamma_sum_identity": st.fixed_dictionaries({"n": st.lists(st.integers(0, 170), min_size=1, max_size=16)}),
    "joint_pmf_vs_noisy_law": st.fixed_dictionaries(
        {"state": st.builds(ThermalSplitterState, st.one_of(st.just(0.0), st.floats(1e-3, 30.0)), angles),
         "size": st.integers(1, 60)}
    ),
    "post_vs_noisy_law": noisy_tables(post=True),
    "subtract_vs_noisy_law": noisy_tables(post=False),
    # twice the states' support, so the column's own normalization misses < 1e-12
    "sensing_vs_noisy_law": st.fixed_dictionaries(
        {"sensor": st.builds(preset, st.just("thesis-ch5"), mean=st.floats(1e-3, 50.0),
                             phase=st.floats(0.1, math.pi - 0.1)),
         "support_multiple": st.just(2)}
    ),
    # the oracle sums a (c + 1)³ grid, c the thermal cutoff at a 1e-13 tail: ~30 ms at 2, ~60 ms at 3
    "vacuum_closed_form_vs_sum": st.fixed_dictionaries(
        {"net": st.builds(PreselectionNetwork, st.tuples(*[angles] * 5), st.floats(0.0, 3.0))}
    ),
}

# Edges a box holds but rarely draws.
BRIGHT_ARM_A = TwoArmDetection(0.0, DetectorModel(1.0, 1.0), DetectorModel(0.0, 0.0))
ROUTE_EDGES = [
    # a bright arm a: a grid of default_cutoff(A) rows alone would be off by ~1e-9
    ("subtract_vs_noisy_law", dict(n_t=3.0, arms=BRIGHT_ARM_A, levels=1, shape=(2 * default_cutoff(4.0) + 1, 1))),
    ("gamma_sum_identity", dict(n=range(171))),
]


def _route_error_at(name, point):
    values, _, tol, relative = ROUTES[name]
    return route_error(*values(**point), relative), tol


def test_every_dual_route_has_a_box():
    assert list(ROUTE_BOXES) == list(ROUTES)


@pytest.mark.parametrize("name", list(ROUTES))
@settings(SETTINGS, max_examples=100)
@given(data=st.data())
def test_dual_routes_agree_over_their_boxes(name, data):
    """Each row of `photonstats._routes` at its own gate over its box, as
    oracle-check checks it at its reference point. Budget: about 3 s for the
    eight rows on a 2-vCPU box."""
    error, tol = _route_error_at(name, data.draw(ROUTE_BOXES[name], label="point"))
    assert error <= tol


@pytest.mark.parametrize(("name", "point"), ROUTE_EDGES, ids=[name for name, _ in ROUTE_EDGES])
def test_dual_routes_agree_at_their_edges(name, point):
    error, tol = _route_error_at(name, point)
    assert error <= tol


@settings(SETTINGS, max_examples=16)
@given(mean=st.floats(1e-3, 1e4))
@example(mean=0.1)
@example(mean=1.0)
@example(mean=30.0)
@example(mean=1000.0)
def test_coherent_pmf_matches_mpmath(mean):
    """`pmf(coherent(ν))`, whose terms come from `_poisson_pmf`, against the
    textbook exp(−ν + k·log ν − log k!) in 40-digit mpmath: within 1e-12
    relative at ~60 counts spread over the cells ≥ 1e-300. Budget: about
    0.3 s for the 20 means on a 2-vCPU box."""
    mpmath = pytest.importorskip("mpmath")
    probs = pmf(coherent(mean)).probs
    cells = np.flatnonzero(probs >= 1e-300)
    counts = cells[np.unique((np.linspace(0.0, 1.0, 60) * (cells.size - 1)).astype(int))]
    with mpmath.workdps(40):
        nu = mpmath.mpf(mean)
        exact = np.array([float(mpmath.exp(-nu + k * mpmath.log(nu) - mpmath.loggamma(k + 1))) for k in counts])
    assert np.max(np.abs(probs[counts] / exact - 1.0)) <= 1e-12


@settings(SETTINGS, max_examples=44)
@given(mean=st.floats(1e-3, 1e3), level=st.integers(0, 50))
@example(mean=1e-3, level=0)
@example(mean=1e-3, level=50)
@example(mean=1e3, level=0)
@example(mean=1e3, level=50)
def test_subtracted_pmf_matches_mpmath(mean, level):
    """`subtracted_pmf(n̄, L)`, whose terms come from `_negbin_pmf`, against the
    textbook (n+L)! n̄ⁿ / (n! L! (1+n̄)^(L+1+n)) in 40-digit mpmath: within
    1e-12 relative at up to 400 counts spread over the cells ≥ 1e-300.
    Budget: about 2 s for the 48 cases on a 2-vCPU box."""
    mpmath = pytest.importorskip("mpmath")
    probs = subtracted_pmf(mean, level).probs
    cells = np.flatnonzero(probs >= 1e-300)
    counts = cells[np.unique((np.linspace(0.0, 1.0, 400) * (cells.size - 1)).astype(int))]
    with mpmath.workdps(40):
        nu, big_l = mpmath.mpf(mean), mpmath.mpf(level)
        log_fixed = -mpmath.loggamma(big_l + 1) - (big_l + 1) * mpmath.log1p(nu)
        log_ratio = mpmath.log(nu) - mpmath.log1p(nu)
        exact = np.array(
            [float(mpmath.exp(log_fixed + mpmath.loggamma(n + big_l + 1) - mpmath.loggamma(n + 1) + n * log_ratio))
             for n in counts.tolist()]
        )
    assert np.max(np.abs(probs[counts] / exact - 1.0)) <= 1e-12


@SETTINGS
@given(n_t=st.lists(means, min_size=1, max_size=8), arms=two_arms(), big_n=st.integers(0, 40))
def test_post_probabilities_lie_in_the_unit_interval(n_t, arms, big_n):
    probs = arm_a_marginal(np.array(n_t), arms, big_n)
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
# Subnormal η and η one ulp below 1: the band starts at k/η without overflowing.
@example(kind=thermal, mean=40.0, efficiency=2.2e-311)
@example(kind=coherent, mean=40.0, efficiency=5e-324)
@example(kind=thermal, mean=40.0, efficiency=1.0 - 2.0**-53)
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


@st.composite
def two_peaked_pmfs(draw):
    """A mixture of two canonical pmfs of means up to 60, or the sum of a
    thermal and a coherent photon number of means up to 30 each."""
    if draw(st.booleans()):
        return convolve(pmf(thermal(draw(st.floats(0.0, 30.0)))), pmf(coherent(draw(st.floats(0.0, 30.0)))))
    a, b = (pmf(draw(st.sampled_from([thermal, coherent]))(draw(st.floats(0.0, 60.0)))) for _ in range(2))
    weight, size = draw(st.floats(0.0, 1.0)), max(a.probs.size, b.probs.size)
    probs = weight * np.pad(a.probs, (0, size - a.probs.size))
    probs += (1.0 - weight) * np.pad(b.probs, (0, size - b.probs.size))
    return PhotonNumberDistribution(probs, weight * a.tail_bound + (1.0 - weight) * b.tail_bound)


@SETTINGS
@given(
    dist=two_peaked_pmfs(),
    efficiency=st.one_of(st.sampled_from([0.0, 1.0, 2.2e-311, 1.0 - 2.0**-53]), st.floats(0.0, 1.0)),
)
def test_binomial_thin_stops_where_the_dense_sum_is_complete(dist, efficiency):
    """The band of each block of rows stops on its edge columns; the rows
    must still be the dense kernel sum over every column, to 1e-13, with the
    same zeros. The reference is the same kernel (`_binomial_pmf`) summed in
    128-row slabs over every column n ≥ k0 (terms at n < k are exactly 0),
    so only the stop rule is under test. Budget: about 2 s for the 40
    derandomized examples (N up to ~1500 entries, a dense sum of up to 1.2M
    terms each)."""
    thinned = binomial_thin(dist, efficiency).probs
    n, p = np.arange(dist.probs.size), dist.probs
    slabs = np.split(n, n[128::128])
    dense = np.concatenate([_binomial_pmf(k[:, None], n[k[0] :], efficiency) @ p[k[0] :] for k in slabs])
    assert np.array_equal(thinned == 0.0, dense == 0.0)
    assert np.allclose(thinned, dense, rtol=1e-13, atol=0.0)


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
        _grow_cutoff(0.0, lambda n_max: 1e-15, 1e-20, "a stuck tail")
    assert time.perf_counter() - start < 1.0


def test_a_tail_that_falls_too_slowly_stops_after_64_steps():
    cutoffs = []

    def tail(n_max):
        cutoffs.append(n_max)
        return 1.0 / n_max

    with pytest.raises(AccuracyError, match="64 cutoff increases"):
        _grow_cutoff(0.0, tail, 0.0, "a slow tail")
    assert len(cutoffs) == 65


def test_heralded_state_meets_a_target_below_float_epsilon():
    dist = conditional_state_pmf(preset("thesis-ch5"), 1, tail_target=1e-20)
    assert dist.tail_bound <= 1e-20


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(
    mask_seed=st.integers(0, 2**32 - 1),
    mu=st.floats(1.0, 1e3),
    tol=st.sampled_from([0.0, 1e-9, 5e-8, 1e-4]),
    max_iter=st.integers(1, 400),
)
def test_solver_stop_reason_states_its_bound(mask_seed, mu, tol, max_iter):
    ideal = TwoArmDetection(0.0, DetectorModel(1.0, 0.0), DetectorModel(1.0, 0.0))
    scene = binary_phantom(8, 8)
    masks = random_sensing_matrix(32, 64, seed=mask_seed)
    y = acquire(scene, masks, ideal, mode="intensity")
    res = cs_reconstruct(masks, y, mu=mu, max_iter=max_iter, tol=tol, shape=(8, 8))
    assert math.isfinite(res.gradient_mapping)
    assert (res.stop_reason == "converged") == (res.gradient_mapping <= tol)
    assert np.all(np.diff(res.objective_trace) <= 0.0)
