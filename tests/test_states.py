"""Photon-number distribution construction, moments, and validation."""

import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats

from photonstats import (
    ContractError,
    DomainError,
    PhotonNumberDistribution,
    UndefinedCoherenceError,
    binomial_thin,
    coherent,
    convolve,
    default_cutoff,
    fock,
    g2_from_pmf,
    moments,
    pmf,
    thermal,
)
from photonstats import states
from photonstats.states import (
    _binomial_pmf,
    _log_factorial_rest,
    _negbin_pmf,
    _negbin_tail,
    _poisson_pmf,
)


class TestSourcePmfs:
    def test_thermal_closed_form(self):
        dist = pmf(thermal(1.0))
        assert dist.probs[0] == pytest.approx(0.5, abs=1e-15)
        assert dist.probs[1] == pytest.approx(0.25, abs=1e-15)
        assert dist.probs[5] == pytest.approx(1.0 / 2.0**6, rel=1e-13)

    def test_coherent_matches_poisson(self):
        dist = pmf(coherent(1.3))
        ref = stats.poisson.pmf(np.arange(dist.n_max + 1), 1.3)
        assert np.allclose(dist.probs, ref, atol=1e-15)

    def test_fock_is_a_point_mass(self):
        dist = pmf(fock(4))
        assert dist.probs[4] == 1.0
        assert dist.probs.sum() == 1.0
        assert dist.tail_bound == 0.0

    def test_vacuum_limits(self):
        for source in (thermal(0.0), coherent(0.0), fock(0)):
            dist = pmf(source)
            assert dist.probs[0] == 1.0

    @pytest.mark.parametrize("mean", [0.3, 1.0, 4.0, 17.5])
    def test_tail_target_honored(self, mean):
        dist = pmf(thermal(mean), tail_target=1e-12)
        assert dist.probs.sum() >= 1.0 - 1e-12 - 1e-12
        assert dist.tail_bound <= 1e-12

    def test_explicit_cutoff_reports_exact_tail(self):
        dist = pmf(thermal(2.0), cutoff=10)
        exact_tail = (2.0 / 3.0) ** 11
        assert dist.tail_bound == pytest.approx(exact_tail, rel=1e-12)

    def test_negative_mean_rejected(self):
        with pytest.raises(DomainError, match="mean"):
            thermal(-0.5)

    def test_fractional_fock_rejected(self):
        with pytest.raises(DomainError):
            fock(2.5)


class TestMomentsAndCoherence:
    def test_thermal_moments(self):
        mean, var = moments(pmf(thermal(1.7), tail_target=1e-13))
        assert mean == pytest.approx(1.7, rel=1e-10)
        assert var == pytest.approx(1.7 + 1.7**2, rel=1e-9)

    def test_coherent_moments(self):
        mean, var = moments(pmf(coherent(2.4), tail_target=1e-13))
        assert mean == pytest.approx(2.4, rel=1e-10)
        assert var == pytest.approx(2.4, rel=1e-9)

    def test_fock_variance_is_zero(self):
        mean, var = moments(pmf(fock(6)))
        assert mean == 6.0
        assert var == 0.0

    def test_g2_reference_points(self):
        assert g2_from_pmf(pmf(thermal(0.9), tail_target=1e-13)) == pytest.approx(2.0, abs=1e-9)
        assert g2_from_pmf(pmf(coherent(1.1), tail_target=1e-13)) == pytest.approx(1.0, abs=1e-12)
        assert g2_from_pmf(pmf(fock(5))) == pytest.approx(1.0 - 1.0 / 5.0, abs=1e-15)

    def test_g2_keeps_its_digits_at_small_means(self):
        # 1 + (var − mean)/mean² cancels to ~1e-16/mean here; ⟨n(n−1)⟩/⟨n⟩² does not
        for mean in (1e-6, 1e-9):
            assert abs(g2_from_pmf(pmf(thermal(mean), tail_target=1e-20)) - 2.0) <= 1e-12
        assert abs(g2_from_pmf(pmf(coherent(1e-6), tail_target=1e-20)) - 1.0) <= 1e-12

    def test_g2_of_vacuum_is_undefined(self):
        # so is g2 at a mean whose square underflows to 0
        for source in (fock(0), thermal(1e-300), thermal(5e-324)):
            with pytest.raises(UndefinedCoherenceError, match=r"of mean \S+, whose square is 0$"):
                g2_from_pmf(pmf(source))


class TestCombinators:
    def test_convolution_with_vacuum_is_identity(self):
        base = pmf(thermal(0.8))
        out = convolve(base, pmf(fock(0)))
        assert np.allclose(out.probs[: base.n_max + 1], base.probs, atol=1e-16)

    def test_convolution_shifts_by_fock_number(self):
        base = pmf(coherent(0.5))
        out = convolve(base, pmf(fock(3)))
        assert out.probs[0] == 0.0
        assert np.allclose(out.probs[3 : 3 + base.probs.size], base.probs, atol=1e-16)

    def test_convolution_mean_adds(self):
        a, b = pmf(thermal(0.6), tail_target=1e-13), pmf(coherent(1.4), tail_target=1e-13)
        mean, _ = moments(convolve(a, b))
        assert mean == pytest.approx(2.0, rel=1e-9)

    def test_thinned_thermal_stays_thermal(self):
        thinned = binomial_thin(pmf(thermal(2.0), tail_target=1e-13), 0.35)
        ref = pmf(thermal(0.7), cutoff=thinned.n_max)
        assert np.allclose(thinned.probs, ref.probs, atol=1e-11)

    def test_thinned_coherent_stays_coherent(self):
        thinned = binomial_thin(pmf(coherent(2.0), tail_target=1e-13), 0.25)
        ref = stats.poisson.pmf(np.arange(thinned.n_max + 1), 0.5)
        assert np.allclose(thinned.probs, ref, atol=1e-11)

    def test_thinning_edge_efficiencies(self):
        base = pmf(thermal(1.0))
        blocked = binomial_thin(base, 0.0)
        assert blocked.probs[0] == pytest.approx(base.probs.sum(), rel=1e-15)
        assert not np.any(blocked.probs[1:])
        kept = binomial_thin(base, 1.0)
        assert np.array_equal(kept.probs, base.probs)
        assert blocked.tail_bound == kept.tail_bound == base.tail_bound

    def test_blocked_thinning_matches_the_dense_kernel(self):
        source = pmf(coherent(40.0))  # support spans several kernel blocks
        n = np.arange(source.probs.size)
        dense = stats.binom.pmf(n[:, None], n[None, :], 0.3) @ source.probs
        thinned = binomial_thin(source, 0.3)
        assert np.allclose(thinned.probs, dense, rtol=1e-12, atol=1e-300)

    @pytest.mark.parametrize("mix", ["sum", "mixture"])
    def test_thinning_of_a_non_canonical_pmf_matches_the_dense_kernel(self, mix):
        far = pmf(coherent(300.0))
        if mix == "sum":
            source = convolve(pmf(coherent(5.0)), far)
        else:  # two peaks with almost no mass between them
            near = pmf(coherent(5.0), cutoff=far.n_max)
            source = PhotonNumberDistribution(0.5 * (near.probs + far.probs), 0.5 * (near.tail_bound + far.tail_bound))
        n = np.arange(source.probs.size)
        support = n[: np.flatnonzero(source.probs)[-1] + 1]  # past it every term is 0
        dense = np.concatenate([
            stats.binom.pmf(n[lo : lo + 256, None], support, 0.3) @ source.probs[support]
            for lo in range(0, n.size, 256)
        ])
        thinned = binomial_thin(source, 0.3)
        assert np.allclose(thinned.probs, dense, rtol=1e-12, atol=1e-300)
        assert not np.any(thinned.probs[support.size :])

    def test_thinning_a_wide_pmf_is_quick(self):
        source = pmf(thermal(1000.0))  # 25034 entries, 3.1e8 terms in the full kernel
        start = time.perf_counter()
        thinned = binomial_thin(source, 0.55)
        elapsed = time.perf_counter() - start
        ref = pmf(thermal(550.0), cutoff=thinned.n_max).probs
        assert np.max(np.abs(thinned.probs - ref)) < 1e-12
        # about 0.07 s on a 2-vCPU VM; the full kernel took 14 s there
        assert elapsed < 6.0, elapsed

    def test_thinning_memory_is_linear_in_the_support(self):
        source = pmf(thermal(100.0))
        dense_kernel_bytes = 8 * source.probs.size**2
        tracemalloc.start()
        try:
            thinned = binomial_thin(source, 0.55)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < dense_kernel_bytes / 2
        ref = pmf(thermal(55.0), cutoff=thinned.n_max).probs
        assert np.max(np.abs(thinned.probs - ref)) < 1e-12

    def test_subnormal_efficiency_leaves_every_row_past_one_zero(self):
        # 1 − η rounds to 1, so row 0 is the mass and row 1 is η·⟨n⟩, a
        # subnormal; η^k underflows to 0 from k = 2
        source = pmf(thermal(40.0))
        p = source.probs
        thinned = binomial_thin(source, 2.2e-311).probs
        assert np.allclose(thinned[:2], [p.sum(), 2.2e-311 * np.dot(np.arange(p.size), p)], rtol=1e-13, atol=0.0)
        assert not np.any(thinned[2:])

    def test_bad_efficiency_rejected(self):
        with pytest.raises(DomainError, match="efficiency"):
            binomial_thin(pmf(thermal(1.0)), 1.2)


def _reference_counts(mean, sd, top=None):
    """k = 0, small counts, and the mode from −60σ to +80σ, into the far tails."""
    steps = (-60, -40, -30, -20, -10, -5, -3, -1, 0, 1, 3, 5, 10, 20, 30, 40, 60, 80)
    counts = {0, 1, 2, 5, 10, 20, 40} | {round(mean + t * sd) for t in steps}
    return np.array(sorted(c for c in counts if 0 <= c <= (math.inf if top is None else top)))


def _poisson_case(mean):
    counts = _reference_counts(mean, math.sqrt(mean))
    return counts, _poisson_pmf(counts, mean), lambda mp, k: (
        mp.exp(k * mp.log(mean) - mean - mp.loggamma(k + 1)) if mean else mp.mpf(k == 0)
    )


def _negbin_case(mean, level):
    counts = _reference_counts((level + 1) * mean, math.sqrt((level + 1) * mean * (1.0 + mean)))
    return counts, _negbin_pmf(counts, level, mean), lambda mp, n: (
        mp.binomial(n + level, n) * mp.exp(n * mp.log(mean / (1 + mp.mpf(mean))) - (level + 1) * mp.log1p(mean))
        if mean else mp.mpf(n == 0)
    )


def _binomial_case(p, n):
    counts = _reference_counts(n * p, math.sqrt(n * p * (1.0 - p)), top=n)
    return counts, _binomial_pmf(counts, n, p, 1 - p), lambda mp, k: (
        mp.binomial(n, k) * mp.mpf(p) ** k * (1 - mp.mpf(p)) ** (n - k)
    )


KERNEL_CASES = (
    [pytest.param(_poisson_case, (m,), id=f"poisson-{m:g}") for m in (0.0, 1e-6, 0.3, 37.0, 2500.0, 1e5)]
    + [
        pytest.param(_negbin_case, (m, level), id=f"negbin-{m:g}-L{level}")
        for m in (0.0, 1e-6, 0.3, 100.0, 1e4)
        for level in (0, 1, 2, 3, 200)
    ]
    + [
        pytest.param(_binomial_case, (p, n), id=f"binomial-{p:g}-n{n}")
        for p in (0.0, 1e-9, 0.55, 1.0)
        for n in (0, 1, 40, 200)
    ]
    + [pytest.param(_binomial_case, (p, 10**5), id=f"binomial-{p:g}-n100000") for p in (0.3, 0.55)]
    + [pytest.param(_negbin_case, (0.01, 10**6), id="negbin-0.01-L1000000")]
)


@pytest.mark.parametrize("case, args", KERNEL_CASES)
def test_count_kernels_match_mpmath(case, args):
    """Each count-law kernel against 40-digit mpmath: within 1e-12 relative
    wherever the reference exceeds 1e-290, exactly 0 where it is 0."""
    mpmath = pytest.importorskip("mpmath")
    counts, got, reference = case(*args)
    with mpmath.workdps(40):
        ref = [reference(mpmath, int(k)) for k in counts]
    for k, value, exact in zip(counts, got, ref):
        if exact > mpmath.mpf("1e-290"):
            assert abs(value - exact) / exact <= 1e-12, (k, value, exact)
        elif exact == 0:
            assert value == 0.0, (k, value)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    st.tuples(st.just(_binomial_case), st.tuples(st.floats(0.0, 1.0), st.integers(0, 10**5)))
    | st.tuples(st.just(_negbin_case), st.tuples(st.floats(1e-4, 1e3), st.integers(0, 10**4)))
)
def test_dense_kernels_match_mpmath_over_their_boxes(case_args):
    """The binomial over n ≤ 1e5 and p ∈ [0, 1], and the negative binomial
    over L ≤ 1e4 and n̄ ∈ [1e-4, 1e3], held to `test_count_kernels_match_mpmath`'s
    1e-12 at the same cells. (`scipy.stats.binom.pmf` is no reference here:
    it is itself 1–3e-12 off below ~1e-200.)"""
    test_count_kernels_match_mpmath(*case_args)


@pytest.mark.parametrize("p", [0.3, 0.5])
@pytest.mark.parametrize("n", [30_000, 300_000])
def test_binomial_rows_meet_the_mass_contract(n, p):
    """A whole binomial row is a distribution with no tail: its sum once
    drifted to 1 + 4.4e-10 at n = 3e5, past the 1e-12 mass slack."""
    PhotonNumberDistribution(_binomial_pmf(np.arange(n + 1), n, p, 1 - p))


@pytest.mark.parametrize(
    "mean, level, n_max",
    [(0.5, 0, 40), (3.0, 0, 200), (0.3, 3, 60), (10.0, 200, 3000), (1e4, 2, 30000), (1e4, 2, 200000)],
)
def test_negbin_tail_matches_mpmath(mean, level, n_max):
    """The tail against 40-digit mpmath: fewer than L+1 successes of
    probability 1/(1+n̄) in n_max+L+1 trials."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        p, trials = 1 / (1 + mpmath.mpf(mean)), n_max + level + 1
        exact = sum(mpmath.binomial(trials, j) * p**j * (1 - p) ** (trials - j) for j in range(level + 1))
    assert abs(_negbin_tail(mean, level, n_max) - exact) / exact <= 1e-12


def _rho_before(k):
    """ρ(k) formed as before its table: the difference and the Stirling
    series over every entry, one of them picked by np.where."""
    s = np.maximum(k, 50.0)
    series = 0.5 * np.log(2.0 * math.pi * s) + (1 / 12 - (1 / 360 - 1 / (1260 * s * s)) / (s * s)) / s
    return np.where(k < 50.0, special.gammaln(k + 1.0) - special.xlogy(k, k) + k, series)


def _negbin_before(n, level, mean):
    """`_negbin_pmf` formed as before its shortcuts: log C(n+L, n) at every
    L, and both forms of n·log r under np.where at every n̄."""
    log_choose = (
        _rho_before(n + level) - _rho_before(n) - _rho_before(level)
        + special.xlog1py(n, level / np.maximum(n, 1.0)) + special.xlog1py(level, n / np.maximum(level, 1.0))
    )
    xlog_r = np.where(mean > 1.0, special.xlog1py(n, -1.0 / (1.0 + mean)), special.xlogy(n, mean / (1.0 + mean)))
    return np.exp(log_choose + xlog_r - (level + 1) * np.log1p(mean))


class TestKernelShortcuts:
    """ρ's table, the scalar-n̄ branch and the L = 0 shortcut of
    `_negbin_pmf` give the bits of the forms they replace."""

    def test_rho_is_the_difference_and_series_bit_for_bit(self):
        k = np.arange(10_001)
        for grid in (k, k.astype(float), k.reshape(73, 137), np.array([[49, 50], [50, 49]]), k[:50], k[:0]):
            assert np.array_equal(_log_factorial_rest(grid), _rho_before(grid)), grid.shape
        for whole in map(np.asarray, k):  # 0-d arrays
            assert np.array_equal(_log_factorial_rest(whole), _rho_before(whole)), whole
        for whole in (0, 49, 50, 10_000, 49.0, 50.0, np.int64(49), np.int64(50)):
            assert np.array_equal(_log_factorial_rest(whole), _rho_before(whole)), whole

    @pytest.mark.parametrize(
        "level, mean", [(0, m) for m in (0.0, 1e-3, 1.0, float(np.nextafter(1.0, 2.0)), 100.0)] + [(2, 0.0)]
    )
    def test_negbin_at_a_scalar_mean_bit_for_bit(self, mean, level):
        n = np.arange(3000)
        assert np.array_equal(_negbin_pmf(n, level, mean), _negbin_before(n, level, mean))
        assert np.array_equal(_negbin_pmf(7, level, mean), _negbin_before(7, level, mean))
        assert _negbin_tail(mean, level, 40) == float(
            (1.0 + mean) * _negbin_before(41 + level - np.arange(level + 1), np.arange(level + 1), mean).sum()
        )

    @pytest.mark.parametrize("level", [0])
    def test_negbin_at_a_mean_column_bit_for_bit(self, level):
        means = np.array([0.0, 1e-3, 0.5, 1.0, np.nextafter(1.0, 2.0), 1.5, 100.0])[:, None]
        n = np.arange(400)
        assert np.array_equal(_negbin_pmf(n, level, means), _negbin_before(n, level, means))

    @pytest.mark.parametrize("mean", [0.0, 1e-300, 0.3, 37.0, 64.0, 64.5, 2500.0])
    def test_poisson_on_the_table_bit_for_bit(self, mean, monkeypatch):
        k = np.arange(int(2 * mean) + 80)
        got = _poisson_pmf(k, mean)
        monkeypatch.setattr(states, "_log_factorial_rest", _rho_before)
        assert np.array_equal(got, _poisson_pmf(k, mean))


class TestValidation:
    def test_probability_mass_must_reach_one_minus_tail(self):
        with pytest.raises(ContractError, match="mass"):
            PhotonNumberDistribution(np.array([0.5, 0.2]), tail_bound=0.0)

    def test_negative_probability_rejected(self):
        with pytest.raises(DomainError):
            PhotonNumberDistribution(np.array([1.1, -0.1]))

    def test_probs_are_read_only(self):
        dist = pmf(thermal(0.5))
        with pytest.raises(ValueError):
            dist.probs[0] = 0.9

    def test_default_cutoff_grows_with_mean(self):
        cuts = [default_cutoff(m) for m in (0.0, 1.0, 5.0, 20.0)]
        assert cuts == sorted(cuts)
        assert cuts[0] >= 16

    @pytest.mark.parametrize("source", [thermal(1e308), coherent(1e308)], ids=["thermal", "coherent"])
    def test_a_mean_whose_baseline_cutoff_overflows_is_a_domain_error(self, source):
        # 20·(n̄+1) is inf past ~9e306; math.ceil(inf) is an OverflowError
        named = rf"^{source.kind} mean 1e\+308: its baseline cutoff 20·\(n̄\+1\) overflows"
        with pytest.raises(DomainError, match=named) as info:
            pmf(source)
        assert "mean_total" not in str(info.value)

    @pytest.mark.parametrize(("make", "named"), [
        (lambda: pmf(thermal(1e306)), r"^thermal mean 1e\+306: "),
        (lambda: pmf(coherent(5e17)), r"^coherent mean 5e\+17: "),
        (lambda: pmf(thermal(1e9)), r"^thermal mean 1000000000\.0: "),
        (lambda: pmf(coherent(1.0), cutoff=2**40), r"^cutoff 1099511627776: "),
    ], ids=["thermal-1e306", "coherent-5e17", "thermal-1e9", "cutoff"])
    def test_a_cutoff_past_the_entry_budget_is_refused_before_any_array(self, make, named):
        """Cutoffs whose pmf would not fit in 1 GiB of float64, baseline or
        given, raise DomainError naming their parameter, at once: under 1 s
        and a 1 MB allocation peak."""
        tracemalloc.start()
        try:
            start = time.perf_counter()
            with pytest.raises(DomainError, match=named + r"its pmf needs over 2\*\*27 entries"):
                make()
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 1.0
        assert peak < 2**20
