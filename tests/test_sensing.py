"""Plasmon-subtraction sensing: conditional statistics, SNR, phase error."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from photonstats import (
    DetectorModel,
    DomainError,
    PUBLISHED_SUBTRACTION_TABLE,
    RngSeed,
    SensorConfig,
    SingularPointError,
    SplitterNetwork,
    conditional_mean,
    conditional_mean_phase_derivative,
    conditional_state_pmf,
    conditional_std,
    g2_from_pmf,
    g2_subtracted,
    moments,
    phase_uncertainty,
    pmf,
    preset,
    sample_source,
    snr,
    snr_from_pmf,
    split_and_detect,
    subtracted_pmf,
    subtraction_success_probability,
    thermal,
)


class TestPreset:
    def test_device_preset_fields(self):
        cfg = preset("thesis-ch5")
        assert cfg.gamma_loss == pytest.approx(0.0941)
        assert cfg.eta_ph == cfg.eta_pl == 0.3
        # the plasmonic share of the coupled power is pinned to 0.0176
        assert cfg.gamma_loss * (1.0 - cfg.xi) == pytest.approx(0.0176, rel=1e-12)

    def test_overrides(self):
        cfg = preset("thesis-ch5", mean=1.5, phase=math.pi)
        assert cfg.mean == 1.5
        assert cfg.phase == math.pi

    @pytest.mark.parametrize("phase", [math.nan, -0.1, 7.0])
    def test_phase_override_is_validated(self, phase):
        with pytest.raises(DomainError, match="phase"):
            preset("thesis-ch5", phase=phase)

    def test_unknown_name(self):
        with pytest.raises(DomainError, match="preset"):
            preset("bench-2019")

    def test_field_validation(self):
        with pytest.raises(DomainError):
            SensorConfig(-1.0, 0.0, 0.5, 0.5, 0.5, 0.5)
        with pytest.raises(DomainError):
            SensorConfig(1.0, 7.0, 0.5, 0.5, 0.5, 0.5)
        with pytest.raises(DomainError):
            SensorConfig(1.0, 0.0, 1.5, 0.5, 0.5, 0.5)


class TestSubtractedPmf:
    def test_zero_level_is_thermal(self):
        d = subtracted_pmf(0.8, 0)
        ref = pmf(thermal(0.8), cutoff=d.probs.size - 1)
        assert np.max(np.abs(d.probs - ref.probs)) < 1e-15

    def test_single_subtraction_closed_form(self):
        # at n̄=1, L=1: p(n) = (n+1)/2^(n+2)
        d = subtracted_pmf(1.0, 1)
        for n in range(6):
            assert d.probs[n] == pytest.approx((n + 1) / 2.0 ** (n + 2), rel=1e-14)

    @pytest.mark.parametrize("mean,level", [(1.0, 1), (2.5, 3), (4.0, 5), (0.3, 2)])
    def test_negative_binomial_moments(self, mean, level):
        m, v = moments(subtracted_pmf(mean, level, tail_target=1e-13))
        assert m == pytest.approx((level + 1) * mean, rel=1e-10)
        assert v == pytest.approx((level + 1) * mean * (1.0 + mean), rel=1e-9)

    def test_normalization_across_grid(self):
        for level in range(6):
            for mean in (0.5, 1.0, 2.0, 4.0):
                d = subtracted_pmf(mean, level)
                assert d.probs.sum() + d.tail_bound >= 1.0 - 1e-12

    @pytest.mark.parametrize(
        "mean,level", [(1e-8, 3), (4.89e-5, 1), (0.3, 2), (2.5, 3), (20.0, 0)]
    )
    def test_tail_bound_is_the_mass_past_the_cutoff(self, mean, level):
        # Summed term by term from the pmf formula; the incomplete beta of
        # stats.nbinom.sf misses this by up to ~1e-7 relative at small means.
        d = subtracted_pmf(mean, level, tail_target=1e-12)
        ratio = mean / (1.0 + mean)
        n = d.n_max + 1
        term = math.comb(n + level, n) * ratio**n / (1.0 + mean) ** (level + 1)
        terms = []
        while term > 1e-18 * d.tail_bound:
            terms.append(term)
            term *= (n + level + 1) / (n + 1) * ratio
            n += 1
        assert d.tail_bound == pytest.approx(math.fsum(terms), rel=1e-12, abs=0.0)

    def test_vacuum_input(self):
        d = subtracted_pmf(0.0, 2)
        assert d.probs[0] == 1.0

    def test_bad_arguments(self):
        with pytest.raises(DomainError):
            subtracted_pmf(1.0, -1)
        with pytest.raises(DomainError):
            subtracted_pmf(-0.5, 0)

    def test_means_too_large_for_a_cutoff_are_named_as_mean_and_level(self):
        # (L+1)·n̄ = 2e308 overflows; the caller passed no total mean to name
        with pytest.raises(DomainError, match=r"^mean 1e\+308 at level 1: its baseline cutoff") as info:
            subtracted_pmf(1e308, 1)
        assert "mean_total" not in str(info.value)


class TestG2Subtracted:
    @pytest.mark.parametrize(
        "level,expected", [(0, 2.0), (1, 1.5), (2, 4.0 / 3.0), (3, 1.25)]
    )
    def test_closed_form(self, level, expected):
        assert g2_subtracted(level) == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize("level", range(11))
    def test_agrees_with_pmf_route(self, level):
        d = subtracted_pmf(1.3, level, tail_target=1e-14)
        assert abs(g2_from_pmf(d) - g2_subtracted(level)) < 1e-10


class TestSuccessProbability:
    def test_published_cells_within_ten_percent(self):
        cfg = preset("thesis-ch5", mean=2.0, phase=math.pi)
        assert subtraction_success_probability(cfg, 1) == pytest.approx(1.0e-2, rel=0.10)
        cfg = preset("thesis-ch5", mean=1.0, phase=math.pi)
        assert subtraction_success_probability(cfg, 3) == pytest.approx(1.4e-7, rel=0.10)

    def test_whole_published_table_within_fifteen_percent(self):
        for mean, cells in PUBLISHED_SUBTRACTION_TABLE.items():
            cfg = preset("thesis-ch5", mean=mean, phase=math.pi)
            for level, published in zip((1, 2, 3), cells):
                got = subtraction_success_probability(cfg, level)
                assert got == pytest.approx(published, rel=0.15), (mean, level)

    def test_zero_phase_blocks_subtraction(self):
        cfg = preset("thesis-ch5", phase=0.0)
        assert subtraction_success_probability(cfg, 1) == 0.0
        assert subtraction_success_probability(cfg, 0) == 1.0

    def test_levels_get_rarer(self):
        cfg = preset("thesis-ch5", phase=math.pi)
        probs = [subtraction_success_probability(cfg, L) for L in range(5)]
        assert all(a > b for a, b in zip(probs, probs[1:]))


class TestConditionalState:
    def test_mean_matches_closed_form_at_preset(self):
        cfg = preset("thesis-ch5")
        for level in (0, 1, 3):
            m, _ = moments(conditional_state_pmf(cfg, level))
            assert m == pytest.approx(conditional_mean(cfg, level), rel=1e-6)

    def test_unconditioned_limit_is_thinned_thermal(self):
        cfg = preset("thesis-ch5", eta_pl=0.0)
        d = conditional_state_pmf(cfg, 0)
        m, _ = moments(d)
        expected = (
            cfg.mean * cfg.gamma_loss * cfg.xi * cfg.eta_ph
            * math.cos(cfg.phase / 2.0) ** 2
        )
        assert m == pytest.approx(expected, rel=1e-6)

    def test_impossible_conditioning_rejected(self):
        cfg = preset("thesis-ch5", xi=1.0)
        with pytest.raises(DomainError):
            conditional_state_pmf(cfg, 2)

    def test_dark_port_phase_gives_vacuum(self):
        cfg = preset("thesis-ch5", phase=math.pi)
        d = conditional_state_pmf(cfg, 0)
        assert d.probs[0] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("eta_ph", [0.0, 1.0])
    @pytest.mark.parametrize("level", [1, 2])
    @pytest.mark.parametrize(
        "mean, eta_pl",
        [(3e-300, 2.2e-16), (1e-300, 1e-20), (1e-300, 1e-17), (1e-300, 1e-300)],
    )
    def test_subnormal_subtraction_mode_mean(self, mean, eta_pl, level, eta_ph):
        # ñ(1−ξ)η_pl is subnormal (or underflows to 0) while every factor is
        # positive: the conditioning is possible and the law stays normalized.
        cfg = SensorConfig(mean, 0.0, 0.0, 1.0, eta_ph, eta_pl)
        d = conditional_state_pmf(cfg, level, tail_target=1e-8)
        assert float(d.probs.sum()) <= 1.0
        assert d.tail_bound <= 1e-8

    def test_a_level_of_a_million_meets_the_mass_contract(self):
        # the subtracted law's binomial coefficient once lost ~L·ε, and the
        # rows summed to 1 + 1.5e-11: PhotonNumberDistribution raised
        # ContractError past its 1e-12 mass slack
        conditional_state_pmf(preset("thesis-ch5"), 10**6)


def _chi2_statistic(samples, probs):
    """Pearson statistic of a histogram against a pmf and its degrees of
    freedom: single bins while each expects at least 5 counts and leaves at
    least 5 above it, then one bin for the rest."""
    shots = samples.size
    expected = shots * probs
    above = shots - np.cumsum(expected)
    k = int(np.argmax((expected < 5.0) | (above < 5.0)))
    observed = np.bincount(samples, minlength=k + 1)[: k + 1].astype(float)
    observed[k] = shots - observed[:k].sum()
    want = np.append(expected[:k], shots - expected[:k].sum())
    return float(((observed - want) ** 2 / want).sum()), k


class TestConditionalStateMonteCarloTwin:
    """The heralded law against shot-by-shot sampling: thermal light of the
    kept-branch mean n̄γcos²(φ/2) split ξ : 1−ξ, the kept arm read with
    efficiency η_ph and the herald with η_pl, shots kept where the herald
    reads L. The acceptance band comes from the chi-square law itself."""

    CHI2_TAIL = 1e-9  # two-sided tail probability of the band

    @pytest.mark.parametrize("phase", [0.0, 2.0])
    def test_heralded_histogram_follows_the_law(self, phase):
        cfg = SensorConfig(5.0, phase, 0.5, 1.0, 0.7, 0.6)
        photons = sample_source(
            thermal(cfg.mean * cfg.gamma_loss * math.cos(phase / 2.0) ** 2),
            1_000_000,
            RngSeed(5),
        )
        counts = split_and_detect(
            photons,
            SplitterNetwork((cfg.xi, 1.0 - cfg.xi)),
            (DetectorModel(cfg.eta_ph), DetectorModel(cfg.eta_pl)),
            RngSeed(5, 1),
        )
        for level in range(4):
            kept = counts[counts[:, 1] == level, 0]
            stat, dof = _chi2_statistic(kept, conditional_state_pmf(cfg, level).probs)
            assert dof >= 3
            low, high = stats.chi2.ppf(self.CHI2_TAIL, dof), stats.chi2.isf(self.CHI2_TAIL, dof)
            assert low <= stat <= high, (level, stat, dof)


class TestSnr:
    def test_dark_port_phase(self):
        cfg = preset("thesis-ch5", phase=math.pi)
        assert snr(cfg, 0) == pytest.approx(0.0, abs=1e-15)

    def test_increases_with_subtraction_level(self):
        cfg = preset("thesis-ch5")
        values = [snr(cfg, L) for L in range(5)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_sqrt_level_scaling(self):
        cfg = preset("thesis-ch5")
        assert snr(cfg, 3) / snr(cfg, 0) == pytest.approx(2.0, rel=1e-12)

    def test_pmf_route_agrees(self):
        cfg = preset("thesis-ch5")
        for level in (0, 2):
            assert snr_from_pmf(cfg, level) == pytest.approx(
                snr(cfg, level), rel=1e-6
            )

    def test_std_is_mean_over_snr(self):
        cfg = preset("thesis-ch5")
        assert conditional_std(cfg, 2) == pytest.approx(
            conditional_mean(cfg, 2) / snr(cfg, 2), rel=1e-12
        )


class TestPhaseUncertainty:
    def test_decreases_with_subtraction_level(self):
        cfg = preset("thesis-ch5")
        values = [phase_uncertainty(cfg, L) for L in range(4)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_mirror_symmetry(self):
        cfg = preset("thesis-ch5")
        phi = 2.0
        assert phase_uncertainty(replace(cfg, phase=phi), 1) == pytest.approx(
            phase_uncertainty(replace(cfg, phase=2.0 * math.pi - phi), 1), rel=1e-9
        )

    @pytest.mark.parametrize("phi", [0.0, math.pi])
    def test_stationary_points_are_singular(self, phi):
        cfg = preset("thesis-ch5")
        with pytest.raises(SingularPointError):
            phase_uncertainty(replace(cfg, phase=phi), 1)

    def test_finite_difference_matches_analytic_slope(self):
        cfg = preset("thesis-ch5")
        step = 1e-4
        for level in (0, 3):
            for phi in (0.8, math.pi / 2.0, 2.4):
                fd = (
                    conditional_mean(replace(cfg, phase=phi + step), level)
                    - conditional_mean(replace(cfg, phase=phi - step), level)
                ) / (2.0 * step)
                analytic = conditional_mean_phase_derivative(replace(cfg, phase=phi), level)
                assert fd == pytest.approx(analytic, rel=1e-6)
