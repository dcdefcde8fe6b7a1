"""Photon-number distribution construction, moments, and serialization."""

import io
import math
import time
import tracemalloc

import numpy as np
import pytest
from scipy import stats

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
    visibility,
)
from photonstats.states import (
    _binomial_pmf,
    _negbin_pmf,
    _negbin_tail,
    _poisson_pmf,
    _thin_kernel,
    format_float,
    from_json_array,
    read_csv,
    to_json_array,
    write_csv,
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
        with pytest.raises(UndefinedCoherenceError):
            g2_from_pmf(pmf(fock(0)))


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
        assert blocked.probs[0] == pytest.approx(1.0, abs=1e-10)
        assert np.allclose(binomial_thin(base, 1.0).probs, base.probs)

    def test_blocked_thinning_matches_the_dense_kernel(self):
        source = pmf(coherent(40.0))  # support spans several kernel blocks
        n = np.arange(source.probs.size)
        dense = stats.binom.pmf(n[:, None], n[None, :], 0.3) @ source.probs
        thinned = binomial_thin(source, 0.3)
        assert np.allclose(thinned.probs, dense, rtol=1e-12, atol=1e-300)

    @pytest.mark.parametrize("mix", ["sum", "mixture"])
    def test_banded_thinning_of_a_non_canonical_pmf_matches_the_dense_kernel(self, mix):
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
        assert np.array_equal(thinned.probs == 0.0, dense == 0.0)

    def test_thinning_a_wide_pmf_sums_only_the_band(self):
        source = pmf(thermal(1000.0))  # 25034 entries, 3.1e8 terms in the full kernel
        start = time.perf_counter()
        thinned = binomial_thin(source, 0.55)
        elapsed = time.perf_counter() - start
        ref = pmf(thermal(550.0), cutoff=thinned.n_max).probs
        assert np.max(np.abs(thinned.probs - ref)) < 1e-12
        # about 0.5 s on a 2-vCPU VM; the full kernel took 14 s there
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

    @pytest.mark.parametrize("efficiency", [0.55, 0.0, 1.0, 2.2e-311, 5e-324, 1.0 - 2.0**-53])
    def test_band_kernel_is_the_binomial_kernel_bit_for_bit(self, efficiency):
        size = 300  # two full blocks of 128 rows and a partial one of 44
        kernel = _thin_kernel(size, efficiency)
        for k0 in range(0, size, 128):
            k = np.arange(k0, min(k0 + 128, size))
            # from the block's first column (its k > n corner) on, from its
            # last row's diagonal on, an interior band, one column, and both
            # empty bands
            for lo, hi in [(k0, size), (k[-1], size), (k0 + 40, k0 + 200), (k0 + 7, k0 + 8), (k0, k0), (size, size)]:
                lo, hi = min(lo, size), min(hi, size)
                got = kernel(k, lo, hi)
                want = _binomial_pmf(k[:, None], np.arange(lo, hi), efficiency)
                assert got.shape == want.shape == (k.size, hi - lo)
                assert got.flags.c_contiguous  # the same matrix-vector product as the dense rows
                assert np.array_equal(got.view(np.int64), want.view(np.int64)), (k0, lo, hi)

    def test_subnormal_efficiency_leaves_every_later_block_an_empty_band(self):
        source = pmf(thermal(40.0))  # 1034 entries: blocks past the first start at lo = hi = N
        n = np.arange(source.probs.size)
        thinned = binomial_thin(source, 2.2e-311)
        first = _binomial_pmf(n[:128, None], n, 2.2e-311) @ source.probs
        assert np.array_equal(thinned.probs[:128], first)
        assert not np.any(thinned.probs[128:])

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
    return counts, _binomial_pmf(counts, n, p), lambda mp, k: (
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


class TestVisibility:
    def test_two_point_fringe(self):
        assert visibility([(0.0, 1.0), (1.0, 3.0)]) == pytest.approx(0.5)

    def test_flat_intensity_has_zero_visibility(self):
        samples = [(float(k), 2.0) for k in range(5)]
        assert visibility(samples) == 0.0

    def test_negative_intensity_rejected(self):
        with pytest.raises(DomainError):
            visibility([(0.0, 1.0), (1.0, -0.1)])

    def test_empty_input_rejected(self):
        with pytest.raises(ContractError):
            visibility([])


class TestValidationAndSerialization:
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
        with pytest.raises(DomainError, match=r"^mean_total 1e\+308 is too large"):
            pmf(source)

    def test_csv_round_trip(self):
        dist = pmf(thermal(1.3), tail_target=1e-11)
        buf = io.StringIO()
        write_csv(dist, buf)
        buf.seek(0)
        back = read_csv(buf)
        assert np.array_equal(back.probs, dist.probs)
        assert back.tail_bound >= 1.0 - dist.probs.sum()

    def test_json_round_trip(self):
        dist = pmf(coherent(0.7))
        back = from_json_array(to_json_array(dist))
        assert np.array_equal(back.probs, dist.probs)

    def test_format_float_round_trips_exactly(self):
        for x in (1.0 / 3.0, 0.1, 2.0**-52, 1234567.89, 6.02e23):
            assert float(format_float(x)) == x

    @pytest.mark.parametrize("row", ["x,0.5", "0,0.5,1", "0,abc"])
    def test_csv_rejects_malformed_row_naming_source_and_row(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text(f"n,prob\n{row}\n", encoding="ascii")
        with pytest.raises(ContractError, match=rf"bad\.csv: data row 0 .*{row}"):
            read_csv(str(path))

    @pytest.mark.parametrize("value", ["nan", "inf", "-0.5"])
    def test_csv_rejects_a_bad_probability_naming_source_and_row(self, tmp_path, value):
        path = tmp_path / "bad.csv"
        path.write_text(f"n,prob\n0,0.5\n1,{value}\n", encoding="ascii")
        with pytest.raises(DomainError, match=rf"bad\.csv: data row 1: probability '{value}'"):
            read_csv(str(path))

    @pytest.mark.parametrize("text", ['["0.5", 0.5]', "[true, 0.0]", "[0.5, null]", "[[0.5], 0.5]",
                                      '[{"p": 1.0}]', "[0.5, 0.5"])
    def test_json_rejects_entries_that_are_not_numbers(self, text):
        with pytest.raises(ContractError):
            from_json_array(text)

    def test_json_integer_past_the_float_range_is_not_finite(self):
        with pytest.raises(DomainError, match="finite"):
            from_json_array("[1" + "0" * 400 + "]")

    def test_csv_rejects_gapped_index(self):
        bad = io.StringIO("n,prob\n0,0.5\n2,0.5\n")
        with pytest.raises(ContractError, match="contiguous"):
            read_csv(bad)
