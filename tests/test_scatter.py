"""Mixed source-plus-scatter photon statistics."""

import time

import numpy as np
import pytest

from photonstats import (
    DomainError,
    ScatterConfig,
    UndefinedCoherenceError,
    detected_pmf,
    g2_from_pmf,
    g2_vs_angle,
    p_function_convolution_check,
    pmf,
    thermal,
)


def closed_form_g2(a: float, b: float) -> float:
    return 1.0 + (a * a + b * b) / (a + b) ** 2


class TestScatterConfig:
    def test_mode_means_split_by_polarization(self):
        cfg = ScatterConfig(1.0, 0.25, 60.0)
        a, b = cfg.mode_means
        assert a == pytest.approx(0.25 + 0.25)  # cos²60° = 1/4
        assert b == pytest.approx(0.75)

    @pytest.mark.parametrize(
        "source,plasmon,theta",
        [(-0.1, 0.5, 0.0), (0.5, -0.1, 0.0), (0.5, 0.5, -5.0), (0.5, 0.5, 91.0)],
    )
    def test_invalid_parameters_rejected(self, source, plasmon, theta):
        with pytest.raises(DomainError):
            ScatterConfig(source, plasmon, theta)


class TestDetectedPmf:
    def test_matches_thermal_convolution(self):
        """The closed form and the convolution of two Bose-Einstein pmfs are
        the same distribution; both routes must agree to near machine level."""
        cfg = ScatterConfig(1.2, 0.4, 30.0)
        d = detected_pmf(cfg)
        a, b = cfg.mode_means
        ref = np.convolve(
            pmf(thermal(a), cutoff=d.probs.size - 1).probs,
            pmf(thermal(b), cutoff=d.probs.size - 1).probs,
        )[: d.probs.size]
        assert np.max(np.abs(d.probs - ref)) < 1e-12

    def test_closed_form_matches_the_convolution_at_large_means(self):
        cfg = ScatterConfig(120.0, 40.0, 30.0)
        start = time.perf_counter()
        d = detected_pmf(cfg)
        assert time.perf_counter() - start < 1.0
        a, b = cfg.mode_means
        assert a + b >= 100.0
        ref = np.convolve(
            pmf(thermal(a), cutoff=d.n_max).probs, pmf(thermal(b), cutoff=d.n_max).probs
        )[: d.n_max + 1]
        assert np.max(np.abs(d.probs - ref)) <= 1e-12

    def test_tail_target_is_honored(self):
        d = detected_pmf(ScatterConfig(2.0, 1.5, 45.0), tail_target=1e-10)
        assert 1.0 - d.probs.sum() <= 1e-10

    def test_means_too_large_for_a_cutoff_are_named_as_mode_means(self):
        # A + B = 2e308 overflows; the caller passed no total mean to name
        with pytest.raises(DomainError, match=r"^mode means \(1\.5e\+308, .*\): its baseline cutoff") as info:
            detected_pmf(ScatterConfig(1e308, 1e308, 45.0))
        assert "mean_total" not in str(info.value)

    def test_vertical_polarization_is_single_thermal_mode(self):
        cfg = ScatterConfig(0.8, 0.3, 0.0)
        d = detected_pmf(cfg)
        ref = pmf(thermal(1.1), cutoff=d.probs.size - 1)
        assert np.max(np.abs(d.probs - ref.probs)) < 1e-12


class TestG2:
    def test_single_mode_limit(self):
        g2 = g2_from_pmf(detected_pmf(ScatterConfig(0.8, 0.3, 0.0)))
        assert g2 == pytest.approx(2.0, rel=1e-6)

    def test_balanced_modes_limit(self):
        # cos²45° splits a plasmon-free source evenly: the 1.5 floor.
        g2 = g2_from_pmf(detected_pmf(ScatterConfig(1.0, 0.0, 45.0)))
        assert g2 == pytest.approx(1.5, rel=1e-6)

    def test_three_to_one_ratio_point(self):
        # n̄_s = 3 n̄_pl at horizontal polarization: 1 + (1+9)/16.
        g2 = g2_from_pmf(detected_pmf(ScatterConfig(0.9, 0.3, 90.0)))
        assert g2 == pytest.approx(1.625, rel=1e-6)

    @pytest.mark.parametrize("theta", [0.0, 22.5, 45.0, 70.0, 90.0])
    def test_matches_two_mode_closed_form(self, theta):
        cfg = ScatterConfig(1.4, 0.5, theta)
        a, b = cfg.mode_means
        g2 = g2_from_pmf(detected_pmf(cfg))
        assert g2 == pytest.approx(closed_form_g2(a, b), rel=1e-6)

    def test_bounded_between_floor_and_thermal(self):
        for theta in np.linspace(0.0, 90.0, 13):
            g2 = g2_from_pmf(detected_pmf(ScatterConfig(1.0, 0.4, float(theta))))
            assert 1.5 - 1e-9 <= g2 <= 2.0 + 1e-9


class TestG2Scan:
    def test_rows_sorted_by_angle(self):
        rows = g2_vs_angle(1.0, 0.3, [60.0, 0.0, 30.0])
        assert np.array_equal(rows[:, 0], [0.0, 30.0, 60.0])

    def test_scan_dips_below_thermal(self):
        """Mixing in the residual photons drags coherence away from the pure
        bunching value somewhere on the sweep."""
        rows = g2_vs_angle(1.0, 0.3, np.linspace(0.0, 90.0, 19))
        assert rows[0, 1] == pytest.approx(2.0, rel=1e-6)
        assert rows[:, 1].min() < 2.0 - 0.05

    @pytest.mark.parametrize(
        "source,plasmon", [(1.0, 1.0 / 3.0), (1.4, 0.5), (0.0, 0.7), (2.0, 0.0), (0.05, 0.01)]
    )
    def test_closed_form_matches_the_pmf_route(self, source, plasmon):
        # The oracle is the detected pmf's own g2, cut with a tail far below
        # the 1e-12 gate so that truncation does not enter.
        grid = np.linspace(0.0, 90.0, 19)
        rows = g2_vs_angle(source, plasmon, grid)
        oracle = [
            g2_from_pmf(detected_pmf(ScatterConfig(source, plasmon, float(t)), tail_target=1e-20))
            for t in grid
        ]
        assert rows[0, 0] == 0.0 and rows[-1, 0] == 90.0
        assert np.max(np.abs(rows[:, 1] - oracle) / oracle) <= 1e-12

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "source,plasmon,unit",
        [(1e-300, 0.0, (1.0, 0.0)), (1e-200, 0.0, (1.0, 0.0)), (1e-170, 1e-170, (1.0, 1.0)),
         (1e300, 1.0, (1.0, 0.0)), (1e308, 1e308, (1.0, 1.0))],
    )
    def test_extreme_means_give_the_unit_scale_curve(self, source, plasmon, unit):
        # g2 depends on the means' ratio only, while (A + B)² or A² at these
        # scales would underflow or overflow
        grid = np.linspace(0.0, 90.0, 7)
        rows = g2_vs_angle(source, plasmon, grid)
        np.testing.assert_allclose(rows, g2_vs_angle(*unit, grid), rtol=1e-15, atol=0.0)

    def test_zero_mean_field_has_no_g2(self):
        with pytest.raises(UndefinedCoherenceError):
            g2_vs_angle(0.0, 0.0, [0.0, 45.0])

    def test_empty_grid_rejected(self):
        with pytest.raises(DomainError):
            g2_vs_angle(1.0, 0.3, [])

    def test_out_of_range_angle_rejected(self):
        with pytest.raises(DomainError):
            g2_vs_angle(1.0, 0.3, [0.0, 95.0])

    def test_nan_angle_rejected_by_the_grid_check(self):
        with pytest.raises(DomainError, match="theta grid"):
            g2_vs_angle(1.0, 0.3, [0.0, np.nan])

    def test_whole_grid_matches_the_per_angle_loop(self):
        """Reference: the closed form on each angle's `ScatterConfig` mode
        means. Squaring cos θ as x·x or as pow(x, 2) may round apart by an
        ulp, so the gate is 1e-15 relative."""
        grid = np.random.default_rng(4).uniform(0.0, 90.0, 400)
        rows = g2_vs_angle(1.3, 0.45, grid)
        loop = []
        for theta in np.sort(grid):
            a, b = ScatterConfig(1.3, 0.45, float(theta)).mode_means
            loop.append(1.0 + (a * a + b * b) / (a + b) ** 2)
        assert np.array_equal(rows[:, 0], np.sort(grid))
        assert np.max(np.abs(rows[:, 1] - loop) / loop) <= 1e-15


class TestPFunctionConvolution:
    def test_equal_means_vacuum_weight(self):
        d = p_function_convolution_check(1.0, 1.0)
        assert d.probs[0] == pytest.approx(1.0 / 3.0, rel=1e-12)

    @pytest.mark.parametrize("m1,m2", [(1.0, 1.0), (0.3, 1.7), (2.5, 0.0)])
    def test_quadrature_matches_combined_thermal(self, m1, m2):
        d = p_function_convolution_check(m1, m2)
        ref = pmf(thermal(m1 + m2), cutoff=d.probs.size - 1)
        assert np.max(np.abs(d.probs - ref.probs)) < 1e-12

    def test_double_vacuum(self):
        d = p_function_convolution_check(0.0, 0.0)
        assert d.probs[0] == 1.0

    def test_negative_mean_rejected(self):
        with pytest.raises(DomainError):
            p_function_convolution_check(-1.0, 0.5)

    def test_means_too_large_for_a_cutoff_are_named_as_mean_1_and_mean_2(self):
        # n̄₁ + n̄₂ = 2e308 overflows; the caller passed no total mean to name
        with pytest.raises(DomainError, match=r"^mean_1 1e\+308 and mean_2 1e\+308: its baseline cutoff") as info:
            p_function_convolution_check(1e308, 1e308)
        assert "mean_total" not in str(info.value)


class TestTinyTailTarget:
    def test_exact_tail_reaches_a_target_below_float_resolution(self):
        # A tail taken as 1 − Σp cannot go below ~1e-16; the exact tail can.
        start = time.perf_counter()
        d = detected_pmf(ScatterConfig(1.0, 1.0, 45.0), tail_target=1e-20)
        assert time.perf_counter() - start < 1.0
        assert d.tail_bound <= 1e-20
        # P(X+Y > n) = Σ_{m≤n} BE_B(m)·r_A^(n−m+1) + r_B^(n+1), r = n̄/(1+n̄)
        a, b = ScatterConfig(1.0, 1.0, 45.0).mode_means
        r_a, r_b = a / (1.0 + a), b / (1.0 + b)
        m = np.arange(d.n_max + 1)
        be_b = pmf(thermal(b), cutoff=d.n_max).probs
        exact = float(np.sum(be_b * r_a ** (d.n_max - m + 1))) + r_b ** (d.n_max + 1)
        assert d.tail_bound == pytest.approx(exact, rel=1e-12)
