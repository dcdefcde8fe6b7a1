"""Sampling pipeline: seeded streams, splitting, thinning, dark counts."""

import math

import numpy as np
import pytest
from scipy import stats

from photonstats import (
    ContractError,
    DetectorModel,
    DomainError,
    RngSeed,
    SplitterNetwork,
    UndefinedCoherenceError,
    coherent,
    empirical_g2,
    estimate_pmf,
    fock,
    make_generator,
    sample_source,
    split_and_detect,
    thermal,
)
from photonstats.montecarlo import _rekey, _thermal_classes, _thermal_total

SHOTS = 200_000


def test_seed_validation():
    with pytest.raises(DomainError):
        RngSeed(-1)
    with pytest.raises(DomainError):
        RngSeed(2**64)
    assert RngSeed(3, 1).key() != RngSeed(3, 2).key()
    assert RngSeed(3).key() != RngSeed(4).key()


def test_generator_streams_are_reproducible_and_distinct():
    a = make_generator(RngSeed(9, 0)).random(4)
    b = make_generator(RngSeed(9, 0)).random(4)
    c = make_generator(RngSeed(9, 1)).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize(
    "source,mean,var",
    [
        (thermal(1.4), 1.4, 1.4 + 1.4**2),
        (coherent(2.2), 2.2, 2.2),
    ],
)
def test_sample_source_moments(source, mean, var):
    counts = sample_source(source, SHOTS, RngSeed(17))
    se_mean = math.sqrt(var / SHOTS)
    assert counts.mean() == pytest.approx(mean, abs=4.0 * se_mean)
    assert counts.min() >= 0


def _every_draw(rng):
    """One draw of each kind the samplers make, as bytes."""
    draws = [
        rng.random(5),
        rng.integers(0, 10**6, size=7),
        rng.integers(0, 2**32, size=3, dtype=np.uint32),
        rng.geometric(0.3, size=5),
        rng.binomial(1000, 0.37, size=5),
        rng.multinomial(50, [0.2, 0.3, 0.5], size=3),
        rng.negative_binomial(7, 0.4, size=5),
        rng.poisson(2.5, size=5),
    ]
    return [d.tobytes() for d in draws]


@pytest.mark.parametrize("seed", [RngSeed(0), RngSeed(9, 3), RngSeed(2**64 - 1, 2**64 - 1)])
def test_rekey_gives_the_bits_of_a_fresh_generator(seed):
    """A generator re-keyed to a stream draws what `make_generator` of that
    stream draws, bit for bit, even one that has just left half a 64-bit
    word buffered (an odd count of uint32 draws) and numpy's binomial set-up
    cached for the same (n, p)."""
    rng = make_generator(RngSeed(5, 1))
    rng.binomial(1000, 0.37)
    rng.integers(0, 2**32, size=3, dtype=np.uint32)
    assert rng.bit_generator.state["has_uint32"] == 1
    assert _rekey(rng, seed) is rng
    assert _every_draw(rng) == _every_draw(make_generator(seed))
    again = _every_draw(_rekey(rng, seed))
    assert again == _every_draw(make_generator(seed))


@pytest.mark.parametrize(("source", "draw"), [
    (thermal(1.5), lambda rng, n: rng.geometric(1.0 / 2.5, size=n) - 1),
    (coherent(1.5), lambda rng, n: rng.poisson(1.5, size=n)),
], ids=["thermal", "coherent"])
def test_sample_source_is_the_seeded_numpy_draw(source, draw):
    """Bit for bit the draw numpy makes from the same stream, as int64."""
    counts = sample_source(source, 1000, RngSeed(9))
    assert counts.dtype == np.int64
    np.testing.assert_array_equal(counts, draw(make_generator(RngSeed(9)), 1000))


def test_fock_source_is_deterministic():
    counts = sample_source(fock(3), 100, RngSeed(0))
    assert np.all(counts == 3)


def test_thermal_total_follows_the_law_of_a_sum_of_shots():
    """5-shot thermal(1.4) totals drawn in one step on 5000 seeds against
    NegBin(5, 1/2.4), the law of a sum of five Bose–Einstein counts. Pearson
    chi-square over the totals expecting at least 50 draws plus one cell for
    the rest, inside a two-sided 1e-9 band."""
    draws, law = 5000, stats.nbinom(5, 1.0 / 2.4)
    totals = np.array([_thermal_total(1.4, 5, make_generator(RngSeed(seed))) for seed in range(draws)])
    cells = np.arange(int(law.isf(1e-9)))
    expected = draws * law.pmf(cells)
    kept = expected >= 50.0
    observed = np.bincount(totals, minlength=cells.size)[: cells.size]
    want = np.append(expected[kept], draws - expected[kept].sum())
    got = np.append(observed[kept], draws - observed[kept].sum())
    stat, dof, tail = float(((got - want) ** 2 / want).sum()), int(kept.sum()), 1e-9
    assert dof >= 8
    assert stats.chi2.ppf(tail, dof) <= stat <= stats.chi2.isf(tail, dof), (stat, dof)


def test_thermal_total_of_vacuum_is_zero():
    assert _thermal_total(0.0, 10**12, make_generator(RngSeed(0))) == 0


@pytest.mark.parametrize("draw", [
    # numpy's geometric clips at 2**63 - 1: four of these five shots would
    # read 2**63 - 2
    lambda: sample_source(thermal(1e20), 5, RngSeed(1)),
    # numpy raises a bare ValueError("lam value too large")
    lambda: sample_source(coherent(1e19), 5, RngSeed(1)),
    lambda: _thermal_classes(1e20, 5, make_generator(RngSeed(1))),
    # a total of 2e19 photons: numpy's negative_binomial raises ValueError
    lambda: _thermal_total(1e15, 20_000, make_generator(RngSeed(1))),
], ids=["thermal", "coherent", "classes", "total"])
def test_draws_that_cannot_fit_in_int64_are_rejected(draw):
    with pytest.raises(DomainError, match=r"shots expects .* past 2\*\*57"):
        draw()


def test_draws_at_the_int64_bound_are_taken():
    assert sample_source(thermal(2.0**57), 5, RngSeed(1)).min() >= 0
    assert _thermal_total(2.0**52, 32, make_generator(RngSeed(1))) > 0


@pytest.mark.parametrize(("mean", "shots", "seeds"), [
    (0.8, 2000, 50), (30.0, 2000, 50), (5000.0, 2000, 50), (3.0, 3, 10_000),
])
def test_thermal_classes_follow_the_bose_einstein_law(mean, shots, seeds):
    """Photon-number classes of thermal shots on seeds 0, 1, …, pooled,
    against the Bose–Einstein law: Pearson chi-square over bins cut at its
    twentieths, inside a two-sided 1e-9 band. At 0.8 the blocks of classes
    draw nearly every shot; at 5000 (2000 < 1 + n̄) and at 3 (3 < 1 + n̄) the
    shots are drawn one by one; at 30 both parts run. Every draw accounts
    for each shot once, in ascending non-empty classes."""
    law = stats.geom(1.0 / (1.0 + mean), loc=-1)
    edges = np.unique(law.ppf(np.linspace(0.0, 1.0, 21)[1:-1]))
    observed = np.zeros(edges.size + 1)
    for seed in range(seeds):
        numbers, counts = _thermal_classes(mean, shots, make_generator(RngSeed(seed)))
        assert counts.sum() == shots and np.all(counts > 0) and np.all(np.diff(numbers) > 0)
        np.add.at(observed, np.searchsorted(edges, numbers), counts)
    expected = shots * seeds * np.diff(np.concatenate([[0.0], law.cdf(edges), [1.0]]))
    stat, dof, tail = float(((observed - expected) ** 2 / expected).sum()), edges.size, 1e-9
    assert dof >= 2
    assert stats.chi2.ppf(tail, dof) <= stat <= stats.chi2.isf(tail, dof), (stat, dof)


def test_thermal_classes_hold_every_shot_at_any_shot_count():
    """10**12 shots in ascending non-empty classes. At n̄ = 0.8 a block holds
    20 classes, so the first few blocks run; every class expected to hold at
    least 100 shots is within 6 standard errors of S·p(1−p)^n."""
    shots = 10**12
    for mean in (0.0, 0.8, 100.0):
        numbers, counts = _thermal_classes(mean, shots, make_generator(RngSeed(2)))
        assert counts.sum() == shots and numbers[0] == 0
        assert np.all(counts > 0) and np.all(np.diff(numbers) > 0)
    p_n = stats.geom(1.0 / 1.8, loc=-1).pmf(np.arange(40))
    numbers, counts = _thermal_classes(0.8, shots, make_generator(RngSeed(3)))
    held = np.zeros(40)
    held[numbers[numbers < 40]] = counts[numbers < 40]
    sure = shots * p_n >= 100.0
    assert sure.sum() > 20
    z = (held - shots * p_n)[sure] / np.sqrt(shots * p_n * (1.0 - p_n))[sure]
    assert np.all(np.abs(z) < 6.0), z


def test_estimate_pmf_frequencies():
    counts = sample_source(thermal(0.6), SHOTS, RngSeed(21))
    dist, se = estimate_pmf(counts)
    assert dist.probs.sum() == pytest.approx(1.0, abs=1e-12)
    expected0 = 1.0 / 1.6
    assert abs(dist.probs[0] - expected0) < 4.0 * se[0]


@pytest.mark.parametrize("samples", [[1.5, 2.7], np.array([True, False, True]), []])
def test_estimate_pmf_takes_only_integer_samples(samples):
    with pytest.raises(ContractError, match="integer"):
        estimate_pmf(samples)


class TestSplitterNetwork:
    def test_loss_probability(self):
        net = SplitterNetwork((0.5, 0.3))
        assert net.mode_count == 2
        assert net.loss_probability == pytest.approx(0.2)

    def test_overfull_routing_rejected(self):
        with pytest.raises(DomainError, match="sum"):
            SplitterNetwork((0.7, 0.6))

    def test_negative_probability_rejected(self):
        with pytest.raises(DomainError):
            SplitterNetwork((-0.1, 0.5))


class TestSplitAndDetect:
    def test_lossless_perfect_detection_conserves_photons(self):
        counts = sample_source(thermal(2.0), 20_000, RngSeed(5))
        net = SplitterNetwork((0.6, 0.4))
        detected = split_and_detect(counts, net, (DetectorModel(), DetectorModel()), RngSeed(5, 1))
        assert detected.shape == (20_000, 2)
        assert np.array_equal(detected.sum(axis=1), counts)

    def test_arm_fractions_respected(self):
        counts = sample_source(thermal(2.0), SHOTS, RngSeed(8))
        net = SplitterNetwork((0.25, 0.75))
        detected = split_and_detect(counts, net, (DetectorModel(), DetectorModel()), RngSeed(8, 1))
        total = counts.sum()
        assert detected[:, 0].sum() / total == pytest.approx(0.25, abs=0.01)

    def test_dark_counts_on_vacuum_input(self):
        counts = np.zeros(SHOTS, dtype=np.int64)
        net = SplitterNetwork((1.0,))
        detected = split_and_detect(counts, net, (DetectorModel(1.0, 0.35),), RngSeed(2, 0))
        assert detected.mean() == pytest.approx(0.35, abs=0.02)

    def test_thinning_reduces_mean_by_efficiency(self):
        counts = sample_source(thermal(1.5), SHOTS, RngSeed(13))
        net = SplitterNetwork((1.0,))
        detected = split_and_detect(counts, net, (DetectorModel(0.4, 0.0),), RngSeed(13, 1))
        assert detected.mean() / counts.mean() == pytest.approx(0.4, abs=0.01)

    def test_reproducible_for_fixed_seeds(self):
        counts = sample_source(thermal(1.0), 1000, RngSeed(3))
        net = SplitterNetwork((0.5, 0.4))
        dets = (DetectorModel(0.9, 0.1), DetectorModel(0.8, 0.2))
        a = split_and_detect(counts, net, dets, RngSeed(3, 7))
        b = split_and_detect(counts, net, dets, RngSeed(3, 7))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize(
        "counts", [np.array([1.7, 2.9, 0.5]), np.array([True, False, True])]
    )
    def test_non_integer_counts_rejected(self, counts):
        with pytest.raises(ContractError, match="integer"):
            split_and_detect(counts, SplitterNetwork((1.0,)), (DetectorModel(),), RngSeed(0))

    def test_folded_draw_gives_independent_poisson_arms(self):
        """Coherent light split and read by lossy, noisy detectors: arm i
        is Poisson(n̄·pᵢ·ηᵢ + νᵢ), independently of the other arm. Pearson
        chi-square over the joint cells expecting at least 100 counts plus
        one cell for the rest, inside a two-sided 1e-9 band."""
        shots = 1_000_000
        counts = sample_source(coherent(2.0), shots, RngSeed(21))
        detected = split_and_detect(
            counts,
            SplitterNetwork((0.3, 0.5)),
            (DetectorModel(0.6, 0.2), DetectorModel(0.9, 0.0)),
            RngSeed(21, 1),
        )
        size = int(detected.max()) + 1
        cells = np.arange(size)
        expected = shots * np.outer(stats.poisson.pmf(cells, 0.56), stats.poisson.pmf(cells, 0.9)).ravel()
        observed = np.bincount(detected[:, 0] * size + detected[:, 1], minlength=expected.size)
        kept = expected >= 100.0
        want = np.append(expected[kept], shots - expected[kept].sum())
        got = np.append(observed[kept], shots - observed[kept].sum())
        stat = float(((got - want) ** 2 / want).sum())
        dof = int(kept.sum())
        assert dof >= 10
        tail = 1e-9
        assert stats.chi2.ppf(tail, dof) <= stat <= stats.chi2.isf(tail, dof), (stat, dof)

    def test_detector_count_must_match_modes(self):
        counts = np.zeros(10, dtype=np.int64)
        with pytest.raises(ContractError, match="detector"):
            split_and_detect(counts, SplitterNetwork((0.5, 0.5)), (DetectorModel(),), RngSeed(0))


class TestEmpiricalG2:
    def test_hand_computed_value(self):
        # counts 0,1,2,3: mean 1.5, E[n(n-1)] = (0+0+2+6)/4 = 2, g2 = 2/2.25
        g2, se = empirical_g2(np.array([0, 1, 2, 3]))
        assert g2 == pytest.approx(2.0 / 2.25, rel=1e-12)
        assert se > 0.0

    def test_thermal_sample_brackets_two(self):
        counts = sample_source(thermal(1.0), SHOTS, RngSeed(29))
        g2, se = empirical_g2(counts)
        assert abs(g2 - 2.0) < 4.0 * se

    def test_coherent_sample_brackets_one(self):
        counts = sample_source(coherent(1.5), SHOTS, RngSeed(31))
        g2, se = empirical_g2(counts)
        assert abs(g2 - 1.0) < 4.0 * se

    def test_matches_the_covariance_form_and_leaves_samples_unchanged(self):
        """g2 is the ratio of the two sample means, bit for bit, and se is
        the delta-method error from `np.cov` of (n, n(n−1)) to rtol 1e-12;
        a float64 input, which the call reads without copying, is unchanged."""
        counts = sample_source(thermal(1.3), SHOTS, RngSeed(37)).astype(float)
        before = counts.copy()
        g2, se = empirical_g2(counts)
        np.testing.assert_array_equal(counts, before)
        pairs = counts * (counts - 1.0)
        m1, m2 = counts.mean(), pairs.mean()
        assert g2 == m2 / (m1 * m1)
        grad = np.array([-2.0 * m2 / m1**3, 1.0 / (m1 * m1)])
        cov = np.cov(np.stack([counts, pairs])) / counts.size
        assert se == pytest.approx(math.sqrt(float(grad @ cov @ grad)), rel=1e-12)

    def test_zero_mean_sample_rejected(self):
        with pytest.raises(UndefinedCoherenceError):
            empirical_g2(np.zeros(100, dtype=np.int64))

    @pytest.mark.parametrize(
        "samples",
        [[0.5, 1.5], np.full(10, 1e-300), [3, -1], np.array([2.0, -0.0, -1.0]), np.array([-2, 4], dtype=np.int8)],
    )
    def test_samples_that_are_not_counts_rejected(self, samples):
        with pytest.raises(DomainError, match="^samples must be whole photon counts >= 0$"):
            empirical_g2(samples)
