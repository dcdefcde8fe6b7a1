"""Single-pixel acquisition model and TV-regularized reconstruction."""

import math
import re
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import optimize, stats

from photonstats import (
    AccuracyError,
    ContractError,
    DetectorModel,
    DomainError,
    ReconstructionResult,
    RngSeed,
    SaturationError,
    SensingMatrix,
    SensingScene,
    SplitterNetwork,
    TwoArmDetection,
    acquire,
    arm_a_marginal,
    binary_phantom,
    cs_reconstruct,
    image_snr,
    joint_pmf_noisy,
    pmf,
    random_sensing_matrix,
    sample_source,
    scale_scene_to_projection,
    snr_post,
    snr_sub,
    split_and_detect,
    thermal,
    tv_prox,
)
from photonstats import imaging
from photonstats.imaging import (
    _SOLVER_SWEEPS,
    _conditional_mean,
    _metric_shift,
    _rank_one_metric,
    _tv,
)

IDEAL = TwoArmDetection(0.0, DetectorModel(1.0, 0.0), DetectorModel(1.0, 0.0))
NOISY = TwoArmDetection(
    math.pi / 4.0, DetectorModel(0.55, 0.05), DetectorModel(0.55, 0.05)
)


class TestSceneAndMasks:
    def test_scene_shape_roundtrip(self):
        scene = SensingScene(np.arange(6.0), width=3, height=2)
        assert scene.as_image().shape == (2, 3)
        assert scene.as_image()[1, 2] == 5.0

    def test_scene_size_mismatch(self):
        with pytest.raises(ContractError):
            SensingScene(np.arange(5.0), width=3, height=2)

    def test_scene_negative_pixel(self):
        with pytest.raises(DomainError):
            SensingScene(np.array([1.0, -0.5]), width=2, height=1)

    def test_phantom_is_binary_with_known_coverage(self):
        scene = binary_phantom(32, 32)
        assert set(np.unique(scene.values)) == {0.0, 1.0}
        assert scene.values.mean() == pytest.approx(0.199, abs=0.001)

    def test_mask_generation_is_deterministic(self):
        a = random_sensing_matrix(10, 64, seed=4)
        b = random_sensing_matrix(10, 64, seed=4)
        c = random_sensing_matrix(10, 64, seed=5)
        assert np.array_equal(a.matrix, b.matrix)
        assert not np.array_equal(a.matrix, c.matrix)

    def test_mask_fill_fraction(self):
        m = random_sensing_matrix(50, 256, fill_fraction=0.3, seed=1)
        assert m.matrix.mean() == pytest.approx(0.3, abs=0.02)

    def test_nonbinary_masks_rejected(self):
        with pytest.raises(DomainError):
            SensingMatrix(np.full((2, 4), 0.5))

    @pytest.mark.parametrize("fill", [0.0, 1.0, math.nan])
    def test_fill_fraction_outside_the_open_unit_interval_rejected(self, fill):
        with pytest.raises(DomainError):
            random_sensing_matrix(4, 16, fill_fraction=fill, seed=1)

    def test_scaling_hits_target_projection(self):
        scene = binary_phantom(16, 16)
        masks = random_sensing_matrix(40, 256, seed=2)
        scaled = scale_scene_to_projection(scene, masks, target_mean=0.8)
        assert (masks.matrix @ scaled.values).mean() == pytest.approx(0.8, rel=1e-12)


class TestJointLaw:
    def test_normalization(self):
        total = joint_pmf_noisy(0.9, NOISY, *np.indices((30, 30))).sum()
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_dark_counts_only_limit(self):
        """With no signal the two arms are independent Poisson dark counts."""
        n, m = np.array([0, 1, 2]), np.array([0, 0, 3])
        expected = stats.poisson.pmf(n, 0.05) * stats.poisson.pmf(m, 0.05)
        assert np.allclose(joint_pmf_noisy(0.0, NOISY, n, m), expected, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("n_t, arms", [(0.9, NOISY), (0.0, NOISY), (3.0, IDEAL)])
    def test_a_grid_equals_its_scalar_calls(self, n_t, arms):
        n, m = np.indices((12, 9))
        grid = joint_pmf_noisy(n_t, arms, n, m)
        cells = np.array([[joint_pmf_noisy(n_t, arms, a, b) for b in range(9)] for a in range(12)])
        assert grid.shape == (12, 9)
        assert np.max(np.abs(grid - cells) / np.maximum(cells, 1e-300)) <= 1e-15
        assert type(joint_pmf_noisy(n_t, arms, 2, 3)) is np.float64
        assert joint_pmf_noisy(n_t, arms, np.array([], dtype=int), 1).shape == (0,)

    def test_a_cell_holds_the_same_bits_on_any_grid(self):
        # 7 cells of row 7 once moved by up to 2.2e-16 with the table's length
        arms = TwoArmDetection(math.pi / 4, DetectorModel(0.55, 0.3), DetectorModel(0.55, 0.3))
        rows = joint_pmf_noisy(0.8, arms, *np.indices((8, 25)))
        for size in (25, 60):
            grid = joint_pmf_noisy(0.8, arms, *np.indices((size, size)))
            assert rows.tobytes() == grid[:8, :25].tobytes()

    def test_an_empty_list_is_an_empty_grid(self):
        assert joint_pmf_noisy(0.9, NOISY, [], 1).shape == (0,)
        assert joint_pmf_noisy(0.9, NOISY, 2, []).shape == (0,)
        for bad in ([1.5], [-1]):
            with pytest.raises(DomainError, match="n must be"):
                joint_pmf_noisy(0.9, NOISY, bad, 1)

    def test_a_tall_cell_allocates_only_its_table(self):
        """One call at (3000, 1) tabulates 3001 × 2 signal terms, not a
        (3001, 3001) convolution matrix (72 MB)."""
        tracemalloc.start()
        try:
            p = joint_pmf_noisy(0.8, NOISY, 3000, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0.0 <= p < 1e-300
        assert peak < 2**20

    def test_marginal_is_thinned_thermal_plus_darks(self):
        arms = NOISY
        n_t = 0.7
        c2, _ = arms.arm_fractions
        signal = pmf(thermal(arms.det_a.efficiency * c2 * n_t), cutoff=40).probs
        noise = stats.poisson.pmf(np.arange(41), arms.det_a.dark_rate)
        ref = np.convolve(signal, noise)[:10]
        got = np.array([arm_a_marginal(n_t, arms, n) for n in range(10)])
        assert np.max(np.abs(got - ref)) < 1e-10

    def test_marginal_of_an_array_has_its_shape_and_each_scalar_value(self):
        n_t = np.array([[0.0, 0.3, 0.7], [1.2, 2.5, 40.0]])
        got = arm_a_marginal(n_t, NOISY, 3)
        assert got.shape == n_t.shape
        cells = [arm_a_marginal(float(v), NOISY, 3) for v in n_t.ravel()]
        assert all(type(cell) is float for cell in cells)
        assert got.tobytes() == np.array(cells).reshape(n_t.shape).tobytes()

    def test_marginal_of_an_empty_grid_is_empty(self):
        got = arm_a_marginal(np.array([]), NOISY, 2)
        assert isinstance(got, np.ndarray) and got.shape == (0,)

    def test_marginal_of_a_zero_d_array_is_a_float(self):
        got = arm_a_marginal(np.array(0.7), NOISY, 2)
        assert type(got) is float
        assert got == arm_a_marginal(0.7, NOISY, 2)


class TestSnrModes:
    ARMS_POST = TwoArmDetection(0.0, DetectorModel(0.15, 0.8), DetectorModel(0.15, 0.8))

    def test_post_selection_grows_with_count(self):
        vals = [snr_post(0.8, self.ARMS_POST, n) for n in range(8)]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert vals[7] > 3.0

    def test_post_selection_needs_a_noise_floor(self):
        with pytest.raises(SaturationError):
            snr_post(0.8, IDEAL, 2)

    def test_an_underflowing_noise_floor_is_refused_by_name_and_fast(self):
        # Poisson(N; 0.8) is 0 in float64 far below N = 10**7, and the call
        # must say so before building a weight table of N + 1 columns
        start = time.perf_counter()
        with pytest.raises(SaturationError, match=r"underflows to zero at N 10000000, ν 0\.8;"):
            snr_post(0.8, self.ARMS_POST, 10**7)
        assert time.perf_counter() - start < 0.5
        with pytest.raises(SaturationError, match=r"^noise floor is zero \(no dark counts\)"):
            snr_post(0.8, IDEAL, 10**7)

    def test_subtraction_needs_a_noise_floor(self):
        with pytest.raises(SaturationError):
            snr_sub(0.8, IDEAL, 1)

    def test_subtraction_beats_unconditioned_mean(self):
        arms = TwoArmDetection(
            math.pi / 4.0, DetectorModel(0.55, 0.05), DetectorModel(0.55, 0.05)
        )
        unconditioned = (
            arms.det_a.efficiency * 0.5 * 0.08 + arms.det_a.dark_rate
        ) / arms.det_a.dark_rate
        assert snr_sub(0.08, arms, 2) > unconditioned

    def test_impossible_condition_rejected(self):
        blind_b = TwoArmDetection(
            math.pi / 4.0, DetectorModel(0.5, 0.1), DetectorModel(0.0, 0.0)
        )
        with pytest.raises(DomainError):
            snr_sub(0.5, blind_b, 2)


def _assert_same_row_laws(rows_a, rows_b, n_bins):
    """Two-sample test of two (seeds, rows) arrays of measurement rows: per
    row, both samples are counted in ``n_bins`` bins cut at the pooled
    quantiles, and the Pearson chi-square over all rows lies inside a
    two-sided 1e-9 band."""
    stat = 0.0
    for a, b in zip(rows_a.T, rows_b.T):
        edges = np.quantile(np.concatenate([a, b]), np.linspace(0.0, 1.0, n_bins + 1)[1:-1])
        in_a = np.bincount(np.searchsorted(edges, a), minlength=n_bins)
        in_b = np.bincount(np.searchsorted(edges, b), minlength=n_bins)
        stat += float(((in_a - in_b) ** 2 / (in_a + in_b)).sum())
    dof, tail = rows_a.shape[1] * (n_bins - 1), 1e-9
    assert stats.chi2.ppf(tail, dof) <= stat <= stats.chi2.isf(tail, dof), stat


class TestAcquire:
    def test_ideal_intensity_is_the_projection(self):
        scene = binary_phantom(8, 8)
        masks = random_sensing_matrix(12, 64, seed=6)
        y = acquire(scene, masks, IDEAL, mode="intensity")
        assert np.allclose(y, masks.matrix @ scene.values, rtol=0, atol=1e-12)

    def test_post_mode_matches_marginal(self):
        scene = binary_phantom(8, 8)
        masks = random_sensing_matrix(5, 64, seed=6)
        y = acquire(scene, masks, NOISY, mode="post(2)")
        proj = masks.matrix @ scene.values
        ref = [arm_a_marginal(float(p), NOISY, 2) for p in proj]
        assert np.allclose(y, ref, rtol=1e-12)

    def test_sampled_intensity_converges_to_exact(self):
        """Seeds 0..199 at 200k shots: each row's error over its exact
        standard error, sqrt((m(1+m) + ν_a)/S) with m = c²η_a·n̄_t, is a
        standard normal z. The mean z over all 1200 rows and over each row's
        200 seeds lies within 5 standard errors of 0, and the Pearson
        chi-square Σz² inside a two-sided 1e-9 band."""
        scene = binary_phantom(8, 8)
        masks = random_sensing_matrix(6, 64, seed=9)
        shots, seeds = 200_000, 200
        exact = acquire(scene, masks, NOISY, mode="intensity")
        c2, _ = NOISY.arm_fractions
        m = c2 * NOISY.det_a.efficiency * (masks.matrix @ scene.values)
        se = np.sqrt((m * (1.0 + m) + NOISY.det_a.dark_rate) / shots)
        z = np.array([
            (acquire(scene, masks, NOISY, mode="intensity", shots=shots, seed=seed) - exact) / se
            for seed in range(seeds)
        ])
        assert abs(z.mean()) <= 5.0 / math.sqrt(z.size)
        assert np.all(np.abs(z.mean(axis=0)) <= 5.0 / math.sqrt(seeds))
        stat, dof, tail = float((z**2).sum()), z.size, 1e-9
        assert stats.chi2.ppf(tail, dof) <= stat <= stats.chi2.isf(tail, dof), stat

    def test_intensity_rows_match_the_per_shot_pipeline(self):
        """Rows drawn from their totals against rows averaged shot by shot
        from `sample_source` and `split_and_detect` (one-mode network c²,
        det_a), 200 seeds each (200..399 for the per-shot route, so the
        streams are disjoint) at 2000 shots. Per row, both routes' means
        are counted in 5 bins cut at the pooled quantiles; the two-sample
        Pearson chi-square over all rows lies inside a two-sided 1e-9 band."""
        scene = binary_phantom(8, 8)
        masks = random_sensing_matrix(6, 64, seed=9)
        shots, seeds, n_bins = 2000, 200, 5
        c2, _ = NOISY.arm_fractions
        network = SplitterNetwork((c2,))
        projections = masks.matrix @ scene.values
        totals = np.array([
            acquire(scene, masks, NOISY, mode="intensity", shots=shots, seed=seed)
            for seed in range(seeds)
        ])
        per_shot = np.array([
            [
                split_and_detect(
                    sample_source(thermal(float(n_t)), shots, RngSeed(seeds + seed, 2 * t)),
                    network,
                    (NOISY.det_a,),
                    RngSeed(seeds + seed, 2 * t + 1),
                )[:, 0].mean()
                for t, n_t in enumerate(projections)
            ]
            for seed in range(seeds)
        ])
        _assert_same_row_laws(totals, per_shot, n_bins)

    def test_intensity_cost_does_not_depend_on_shots(self):
        scene = binary_phantom(8, 8)
        masks = random_sensing_matrix(6, 64, seed=9)
        tracemalloc.start()
        try:
            start = time.perf_counter()
            y = acquire(scene, masks, NOISY, mode="intensity", shots=10**12, seed=1)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(y))
        assert elapsed < 1.0
        assert peak < 2**20

    def test_dark_free_zero_projection_row_is_exactly_zero(self):
        scene = SensingScene(np.zeros(4), width=2, height=2)
        masks = random_sensing_matrix(3, 4, seed=1)
        arms = TwoArmDetection(math.pi / 4.0, DetectorModel(0.55, 0.0), NOISY.det_b)
        y = acquire(scene, masks, arms, mode="intensity", shots=20_000, seed=4)
        assert np.array_equal(y, np.zeros(3))

    def test_sampled_path_reproducible(self):
        scene = binary_phantom(8, 8)
        masks = random_sensing_matrix(4, 64, seed=9)
        a = acquire(scene, masks, NOISY, mode="post(1)", shots=2000, seed=3)
        b = acquire(scene, masks, NOISY, mode="post(1)", shots=2000, seed=3)
        assert np.array_equal(a, b)

    def test_mode_string_validation(self):
        scene = binary_phantom(8, 8)
        masks = random_sensing_matrix(2, 64, seed=0)
        for bad in ("POST(2)", "post(-1)", "post(1.5)", "mean", "subtract()", None, 3, b"post(3)"):
            with pytest.raises(DomainError):
                acquire(scene, masks, IDEAL, mode=bad)

    def test_pixel_count_mismatch(self):
        scene = binary_phantom(8, 8)
        masks = random_sensing_matrix(2, 25, seed=0)
        with pytest.raises(ContractError):
            acquire(scene, masks, IDEAL)

    def test_unreachable_conditioning_raises(self):
        scene = binary_phantom(8, 8)
        masks = random_sensing_matrix(2, 64, seed=0)
        with pytest.raises(AccuracyError, match="increase shots"):
            acquire(scene, masks, NOISY, mode="subtract(40)", shots=50, seed=1)

    @pytest.mark.parametrize(("mode", "mean"), [
        ("intensity", 1e15), ("subtract(1)", 1e15), ("post(2)", 1e20),
    ])
    def test_rows_that_cannot_fit_in_int64_are_rejected(self, mode, mean):
        """intensity and subtract(N) rows sum S shots, so S·n̄_t is bounded;
        a post(N) row draws no count above one shot's, so n̄_t is."""
        masks = random_sensing_matrix(4, 64, seed=9)
        scene = scale_scene_to_projection(binary_phantom(8, 8), masks, mean)
        with pytest.raises(DomainError, match="20000 shots"):
            acquire(scene, masks, NOISY, mode=mode, shots=20_000, seed=1)

    @pytest.mark.parametrize("mode", ["intensity", "post(3)", "subtract(1)"])
    def test_each_row_draws_on_its_own_substreams(self, mode):
        """Row t of a 256-row acquisition is, bit for bit, the one-row
        acquisition of mask t on RngSeed(seed, stream_id + 2t): rows share a
        generator and a class-split table but no draws. The scene is dyadic
        (1/64 per lit pixel), so every projection is exact whatever the
        matrix product's blocking."""
        masks = random_sensing_matrix(256, 1024, seed=7)
        scene = SensingScene(binary_phantom(32, 32).values / 64.0, width=32, height=32)
        seed = RngSeed(11, 5)
        y = acquire(scene, masks, NOISY, mode=mode, shots=20_000, seed=seed)
        for t in range(masks.n_measurements):
            row = SensingMatrix(masks.matrix[t : t + 1])
            alone = acquire(scene, row, NOISY, mode=mode, shots=20_000, seed=RngSeed(11, 5 + 2 * t))
            assert alone.tobytes() == y[t : t + 1].tobytes(), t

    def test_arm_b_is_drawn_only_when_subtracting(self):
        scene = binary_phantom(8, 8)
        masks = random_sensing_matrix(4, 64, seed=9)
        # With η_a = 1 a two-arm draw over a lossless splitter would drop its
        # loss category for the perfect det_b only, which moves arm a's stream.
        det_a = DetectorModel(1.0, 0.05)
        perfect_b = TwoArmDetection(math.pi / 4.0, det_a, DetectorModel(1.0, 0.0))
        noisy_b = TwoArmDetection(math.pi / 4.0, det_a, DetectorModel(0.3, 2.0))
        for mode, same in (("intensity", True), ("post(2)", True), ("subtract(1)", False)):
            a = acquire(scene, masks, perfect_b, mode=mode, shots=2000, seed=3)
            b = acquire(scene, masks, noisy_b, mode=mode, shots=2000, seed=3)
            assert (a.tobytes() == b.tobytes()) is same, mode


class TestHeraldedRows:
    """post(N) and subtract(N) rows drawn from per-photon-number class
    counts, against the per-shot pipeline and against the exact laws."""

    SCENE = binary_phantom(8, 8)
    MASKS = random_sensing_matrix(6, 64, seed=9)

    def _per_shot_row(self, mode, n_t, shots, seed, t):
        """One row averaged shot by shot from `sample_source` and
        `split_and_detect`: post(2) through the one-mode network c² read by
        det_a, subtract(1) through the two-mode network (c², s²)."""
        c2, s2 = NOISY.arm_fractions
        counts = sample_source(thermal(float(n_t)), shots, RngSeed(seed, 2 * t))
        if mode == "post(2)":
            arm_a = split_and_detect(
                counts, SplitterNetwork((c2,)), (NOISY.det_a,), RngSeed(seed, 2 * t + 1)
            )[:, 0]
            return float(np.mean(arm_a == 2))
        detected = split_and_detect(
            counts, SplitterNetwork((c2, s2)), (NOISY.det_a, NOISY.det_b), RngSeed(seed, 2 * t + 1)
        )
        return float(detected[detected[:, 1] == 1, 0].mean())

    @pytest.mark.parametrize("mode", ["post(2)", "subtract(1)"])
    def test_rows_match_the_per_shot_pipeline(self, mode):
        """200 seeds each at 2000 shots (200..399 for the per-shot route, so
        the streams are disjoint), 5 quantile bins per row."""
        shots, seeds = 2000, 200
        projections = self.MASKS.matrix @ self.SCENE.values
        classes = np.array([
            acquire(self.SCENE, self.MASKS, NOISY, mode=mode, shots=shots, seed=seed)
            for seed in range(seeds)
        ])
        per_shot = np.array([
            [self._per_shot_row(mode, n_t, shots, seeds + seed, t) for t, n_t in enumerate(projections)]
            for seed in range(seeds)
        ])
        _assert_same_row_laws(classes, per_shot, 5)

    def _exact_moments(self, mode, projections):
        """Each row's exact mean and its variance per shot that enters: for
        post(2) the Bernoulli variance p(1−p) and 1, for subtract(1) arm a's
        variance given one count in arm b, from the joint law's column m = 1
        (counts in arm a past 80 carry no visible mass at these means), and
        P(m = 1)."""
        if mode == "post(2)":
            p = acquire(self.SCENE, self.MASKS, NOISY, mode=mode)
            return p, p * (1.0 - p), np.ones_like(p)
        counts = np.arange(81)
        mean, var, p_b = [], [], []
        for n_t in projections:
            column = joint_pmf_noisy(float(n_t), NOISY, counts, 1)
            law = column / column.sum()
            mean.append(law @ counts)
            var.append(law @ counts**2 - mean[-1] ** 2)
            p_b.append(column.sum())
        return np.array(mean), np.array(var), np.array(p_b)

    @pytest.mark.parametrize("mode", ["post(2)", "subtract(1)"])
    def test_sampled_rows_converge_to_exact(self, mode):
        """Seeds 0..199 at 200k shots: each row's error over its standard
        error, sqrt(var/(S·p)) with p the share of shots that enter, is a
        standard normal z. The mean z over all 1200 rows and over each row's
        200 seeds lies within 5 standard errors of 0, and Σz² inside a
        two-sided 1e-9 chi-square band. The subtract(1) means come from the
        joint law, and agree with the exact rows to 1e-12."""
        shots, seeds = 200_000, 200
        projections = self.MASKS.matrix @ self.SCENE.values
        mean, var, entering = self._exact_moments(mode, projections)
        exact = acquire(self.SCENE, self.MASKS, NOISY, mode=mode)
        assert np.allclose(mean, exact, rtol=1e-12, atol=0.0)
        se = np.sqrt(var / (shots * entering))
        z = np.array([
            (acquire(self.SCENE, self.MASKS, NOISY, mode=mode, shots=shots, seed=seed) - exact) / se
            for seed in range(seeds)
        ])
        assert abs(z.mean()) <= 5.0 / math.sqrt(z.size)
        assert np.all(np.abs(z.mean(axis=0)) <= 5.0 / math.sqrt(seeds))
        stat, dof, tail = float((z**2).sum()), z.size, 1e-9
        assert stats.chi2.ppf(tail, dof) <= stat <= stats.chi2.isf(tail, dof), stat

    @pytest.mark.parametrize("mode", ["post(2)", "subtract(1)"])
    def test_cost_does_not_depend_on_shots(self, mode):
        tracemalloc.start()
        try:
            start = time.perf_counter()
            y = acquire(self.SCENE, self.MASKS, NOISY, mode=mode, shots=10**12, seed=1)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(y))
        assert elapsed < 1.0
        assert peak < 2**20

    @pytest.mark.parametrize("mode", ["post(3)", "subtract(1)"])
    def test_memory_is_bounded_by_a_block_of_rows(self, mode):
        """256 rows of 20k shots at a mean projection of 1000 hold thousands
        of photon-number classes each; reading the rows in blocks, each with
        its own class-split table, keeps the traced peak within 14 MiB, a
        quarter of what holding every row's classes at once takes (56.8 MiB)."""
        masks = random_sensing_matrix(256, 1024, 0.5, 7)
        scene = scale_scene_to_projection(binary_phantom(32, 32), masks, 1000.0)
        tracemalloc.start()
        try:
            y = acquire(scene, masks, NOISY, mode=mode, shots=20_000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(y))
        assert peak <= 14 * 2**20, peak / 2**20

    def test_dark_free_zero_projection_rows_are_exact(self):
        scene = SensingScene(np.zeros(4), width=2, height=2)
        masks = random_sensing_matrix(3, 4, seed=1)
        arms = TwoArmDetection(math.pi / 4.0, DetectorModel(0.55, 0.0), NOISY.det_b)
        for mode, row in (("post(0)", 1.0), ("post(2)", 0.0)):
            y = acquire(scene, masks, arms, mode=mode, shots=20_000, seed=4)
            assert np.array_equal(y, np.full(3, row)), mode

    def test_arm_b_taking_every_photon_leaves_arm_a_dark_counts(self):
        """At θ = π/2 with η_b = 1 every photon is detected in arm b, so arm
        a reads only its dark counts: exactly 0 without them, and otherwise
        Poisson(ν_a) per kept shot, a row mean within 5 standard errors of
        ν_a, sqrt(ν_a/C) with C ≥ 1000 kept shots here."""
        for dark_rate in (0.0, 0.3):
            arms = TwoArmDetection(
                math.pi / 2.0, DetectorModel(0.55, dark_rate), DetectorModel(1.0, 0.05)
            )
            y = acquire(self.SCENE, self.MASKS, arms, mode="subtract(1)", shots=20_000, seed=5)
            if dark_rate == 0.0:
                assert np.array_equal(y, np.zeros(self.MASKS.n_measurements))
            else:
                assert np.all(np.abs(y - dark_rate) <= 5.0 * math.sqrt(dark_rate / 1000))


class TestPrimariesAgainstTheJointLaw:
    """The vectorized primaries against sums of the whole-grid oracle."""

    NOISY_FLOOR = TwoArmDetection(
        math.pi / 4.0, DetectorModel(0.55, 0.8), DetectorModel(0.55, 0.8)
    )
    # At these means (n̄_t < 1) a count above 20 in either arm carries less
    # than 1e-13 of the mass, also given the other arm's count.
    CUT = 20

    def test_exact_rows_on_the_256_row_scene(self):
        masks = random_sensing_matrix(256, 1024, seed=7)
        scene = scale_scene_to_projection(binary_phantom(32, 32), masks, 0.8)
        arms = self.NOISY_FLOOR
        counts = np.arange(self.CUT + 1)
        post, sub = [], []
        for n_t in masks.matrix @ scene.values:
            n_t = float(n_t)
            table = joint_pmf_noisy(n_t, arms, *np.indices((self.CUT + 1,) * 2))
            post.append(table[3].sum())
            sub.append(float(counts @ table[:, 1]) / float(table[:, 1].sum()))
        got_post = acquire(scene, masks, arms, mode="post(3)")
        got_sub = acquire(scene, masks, arms, mode="subtract(1)")
        assert np.max(np.abs(got_post - post) / np.array(post)) <= 1e-12
        assert np.max(np.abs(got_sub - sub) / np.array(sub)) <= 1e-12

    def test_bright_subtraction_mean_is_small_and_exact(self):
        # Arm a's mean reaches 275 here, but given N = 3 counts in arm b its
        # conditional mean stays below (N+1)·A/(1+B) + ν_a < 5, so 120
        # counts carry all but ~1e-30 of the conditional mass.
        arms = self.NOISY_FLOOR
        n_t = np.linspace(62.5, 1000.0, 16)
        tracemalloc.start()
        try:
            got = _conditional_mean(n_t, arms, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        counts = np.arange(121)
        for row, mean in zip(n_t, got):
            column = joint_pmf_noisy(float(row), arms, counts, 3)
            assert column[-1] < 1e-30 * column.max()
            assert mean == pytest.approx(float(counts @ column) / float(column.sum()), rel=1e-12)

    def test_snr_figures(self):
        arms = TestSnrModes.ARMS_POST
        counts = np.arange(self.CUT + 1)
        signal = joint_pmf_noisy(0.8, arms, *np.indices((8, self.CUT + 1))).sum(axis=1)
        for big_n in range(8):
            noise = stats.poisson.pmf(big_n, arms.det_a.dark_rate)
            assert snr_post(0.8, arms, big_n) == pytest.approx(signal[big_n] / noise, rel=1e-12)
        table = joint_pmf_noisy(0.08, NOISY, *np.indices((self.CUT + 1, 4)))
        means = counts @ table / table.sum(axis=0)
        for big_n in range(4):
            assert snr_sub(0.08, NOISY, big_n) == pytest.approx(means[big_n] / 0.05, rel=1e-12)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: arm_a_marginal(0.5, NOISY, -1),
            lambda: arm_a_marginal(0.5, NOISY, 1.0),
            lambda: arm_a_marginal(-0.1, NOISY, 1),
            lambda: arm_a_marginal(math.inf, NOISY, 1),
            lambda: snr_post(0.5, NOISY, -2),
            lambda: snr_post(math.nan, NOISY, 2),
            lambda: snr_sub(0.5, NOISY, 1.5),
            lambda: snr_sub(-1.0, NOISY, 1),
        ],
    )
    def test_bad_counts_and_means_rejected(self, call):
        with pytest.raises(DomainError):
            call()

    # N = 2**62: a count whose weight or class-split table no array can hold
    @pytest.mark.parametrize(
        "call",
        [
            lambda: arm_a_marginal(0.5, NOISY, 2**62),
            lambda: snr_post(0.5, NOISY, 2**62),
            lambda: snr_sub(0.5, NOISY, 2**62),
            lambda: acquire(binary_phantom(8, 8), random_sensing_matrix(3, 64, seed=0), NOISY, f"post({2**62})"),
            lambda: acquire(binary_phantom(8, 8), random_sensing_matrix(3, 64, seed=0), NOISY, f"subtract({2**62})"),
            lambda: acquire(
                binary_phantom(8, 8), random_sensing_matrix(3, 64, seed=0), NOISY, f"post({2**62})", shots=50
            ),
            lambda: acquire(
                binary_phantom(8, 8), random_sensing_matrix(3, 64, seed=0), NOISY, f"subtract({2**62})", shots=50
            ),
        ],
        ids=["arm_a_marginal", "snr_post", "snr_sub", "exact-post", "exact-subtract", "mc-post", "mc-subtract"],
    )
    def test_a_count_past_the_entry_budget_is_refused_by_name(self, call):
        with pytest.raises(DomainError, match=r"^N 4611686018427387904: .* past the budget"):
            call()

    def test_impossible_condition_names_the_row(self):
        blind_b = TwoArmDetection(
            math.pi / 4.0, DetectorModel(0.5, 0.1), DetectorModel(0.0, 0.0)
        )
        scene = binary_phantom(8, 8)
        masks = random_sensing_matrix(3, 64, seed=0)
        with pytest.raises(DomainError, match="row 0"):
            acquire(scene, masks, blind_b, mode="subtract(2)")


def _grad(u):
    """Forward differences with replicate boundary (last row/col slope 0):
    the operator G of the TV prox, written with fresh arrays."""
    gx = np.zeros_like(u)
    gy = np.zeros_like(u)
    gx[:, :-1] = u[:, 1:] - u[:, :-1]
    gy[:-1, :] = u[1:, :] - u[:-1, :]
    return gx, gy


def _grad_adjoint(gx, gy):
    """Gᵀ of `_grad`, summed in the order `_TvWorkspace` sums it."""
    out = np.zeros_like(gx)
    out[:, :-1] -= gx[:, :-1]
    out[:, 1:] += gx[:, :-1]
    out[:-1, :] -= gy[:-1, :]
    out[1:, :] += gy[:-1, :]
    return out


class TestTvMachinery:
    def test_gradient_adjoint_identity(self):
        rng = np.random.default_rng(0)
        u = rng.normal(size=(7, 5))
        px = rng.normal(size=(7, 5))
        py = rng.normal(size=(7, 5))
        gx, gy = _grad(u)
        lhs = float(np.sum(gx * px) + np.sum(gy * py))
        rhs = float(np.sum(u * _grad_adjoint(px, py)))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_tv_of_constant_is_zero(self):
        assert _tv(np.full((6, 6), 3.2)) == 0.0

    @pytest.mark.parametrize("shape", [(7, 5), (1, 6), (6, 1), (32, 32)])
    def test_tv_is_the_l1_norm_of_the_gradient(self, shape):
        u = np.random.default_rng(2).normal(size=shape)
        gx, gy = _grad(u)
        assert _tv(u) == pytest.approx(float(np.abs(gx).sum() + np.abs(gy).sum()), rel=1e-13)

    def test_prox_fixes_constants(self):
        v = np.full((5, 5), 1.7)
        out = tv_prox(v, weight=0.3)
        assert np.allclose(out, v, atol=1e-12)

    def test_prox_lowers_the_rof_objective(self):
        rng = np.random.default_rng(3)
        v = rng.normal(size=(8, 8))
        weight = 0.4
        out = tv_prox(v, weight, n_inner=60)

        def objective(u):
            return 0.5 * float(np.sum((u - v) ** 2)) + weight * _tv(u)

        assert objective(out) < objective(v)
        assert _tv(out) < _tv(v)

    @pytest.mark.parametrize("weight", [math.nan, math.inf, -0.1])
    def test_bad_prox_weight_rejected(self, weight):
        with pytest.raises(DomainError):
            tv_prox(np.ones((4, 4)), weight)

    @pytest.mark.parametrize("n_inner", [-3, 0, 2.0])
    def test_bad_sweep_count_rejected(self, n_inner):
        with pytest.raises(DomainError, match="n_inner"):
            tv_prox(np.ones((4, 4)), 0.3, n_inner=n_inner)

    @pytest.mark.parametrize("rows", [20, 45])  # a wide Q, then a tall one (through its R)
    def test_metric_step_constant_matches_eigensolver(self, rows):
        rng = np.random.default_rng(1)
        q = rng.integers(0, 2, size=(rows, 30)).astype(float)
        beta, lam = _rank_one_metric(q)
        e = np.full(30, 1.0 / math.sqrt(30.0))
        off_e = np.eye(30) - np.outer(e, e)
        rest = float(np.linalg.eigvalsh(off_e @ q.T @ q @ off_e).max())
        assert 1.0 + beta == pytest.approx(float(e @ q.T @ q @ e) / rest, rel=1e-12)
        inv_root = np.eye(30) - (1.0 - 1.0 / math.sqrt(1.0 + beta)) * np.outer(e, e)
        true = float(np.linalg.eigvalsh(inv_root @ q.T @ q @ inv_root).max())
        assert lam == pytest.approx(true, rel=1e-12)
        assert lam < float(np.linalg.eigvalsh(q.T @ q).max()) / 4.0

    def test_sensing_matrix_computes_its_metric_once(self, monkeypatch):
        """`SensingMatrix.metric` is `_rank_one_metric` of its matrix, taken
        on first use and kept for every solve; a raw array has it computed
        per call. Both give the same solve, bit for bit."""
        masks = random_sensing_matrix(64, 256, seed=4)
        y = acquire(scale_scene_to_projection(binary_phantom(16, 16), masks, 0.8), masks, IDEAL)
        calls = []

        def counted(q):
            calls.append(q.shape)
            return _rank_one_metric(q)

        monkeypatch.setattr(imaging, "_rank_one_metric", counted)
        assert masks.metric == _rank_one_metric(masks.matrix)
        kept = [cs_reconstruct(masks, y, mu=100.0, max_iter=60) for _ in range(3)]
        assert len(calls) == 1
        raw = cs_reconstruct(masks.matrix, y, mu=100.0, max_iter=60)
        assert len(calls) == 2
        for res in kept:
            assert res.s_hat.tobytes() == raw.s_hat.tobytes()
            assert res.objective_trace.tobytes() == raw.objective_trace.tobytes()
            assert (res.iterations, res.restarts, res.stop_reason) == (raw.iterations, raw.restarts, raw.stop_reason)
            assert res.gradient_mapping == raw.gradient_mapping and res.residual == raw.residual

    def test_metric_is_the_identity_without_an_all_ones_mode(self):
        beta, lam = _rank_one_metric(np.eye(16))
        assert beta <= 1e-12
        assert lam == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("beta", [0.0, 0.7, 40.0])
    def test_metric_prox_matches_a_qp_solve(self, beta):
        # argmin_x weight·TV(x) + ½‖x − v‖²_M over x ≥ 0, M = I + β·eeᵀ, on
        # 3 × 3, as a QP in (x, t) with −t ≤ Gx ≤ t, against
        # max(tv_prox(v) − c, 0) with c from `_metric_shift`.
        rng = np.random.default_rng(5)
        v = rng.normal(0.2, 1.0, size=(3, 3))
        weight = 0.3
        grad_rows = []
        for k in range(9):
            gx, gy = _grad(np.eye(9)[k].reshape(3, 3))
            grad_rows.append(np.concatenate([gx.ravel(), gy.ravel()]))
        g = np.array(grad_rows).T  # 18 × 9
        metric = np.eye(9) + (beta / 9.0) * np.ones((9, 9))

        def qp_objective(z):
            d = z[:9] - v.ravel()
            return weight * z[9:].sum() + 0.5 * d @ metric @ d

        def qp_gradient(z):
            return np.concatenate([metric @ (z[:9] - v.ravel()), np.full(18, weight)])

        bounds = np.vstack([np.hstack([-g, np.eye(18)]), np.hstack([g, np.eye(18)])])
        start = np.concatenate([np.maximum(v.ravel(), 0.0), np.abs(g @ v.ravel()) + 1.0])
        qp = optimize.minimize(
            qp_objective, start, jac=qp_gradient, method="SLSQP",
            bounds=[(0.0, None)] * 9 + [(None, None)] * 18,
            constraints=[{"type": "ineq", "fun": lambda z: bounds @ z, "jac": lambda z: bounds}],
            options={"ftol": 1e-12, "maxiter": 1000},
        )
        assert qp.success
        w = tv_prox(v, weight, n_inner=20000)
        x = np.maximum(w - _metric_shift(w, v, beta), 0.0)
        assert np.min(x) == 0.0 and np.max(x) > 0.0  # the clip binds
        assert np.max(np.abs(x.ravel() - qp.x[:9])) <= 1e-6


class TestReconstruction:
    def test_identity_system_recovers_the_signal(self):
        s0 = np.abs(np.sin(np.arange(64.0)))
        masks = SensingMatrix(np.eye(64))
        res = cs_reconstruct(masks, s0, mu=1000.0, shape=(8, 8))
        assert np.linalg.norm(res.s_hat - s0) / np.linalg.norm(s0) < 0.01

    def test_zero_measurements_give_zero_image(self):
        masks = SensingMatrix(np.eye(16))
        res = cs_reconstruct(masks, np.zeros(16), mu=10.0, shape=(4, 4))
        assert np.all(res.s_hat == 0.0)

    def test_compressed_phantom_recovery(self):
        scene = binary_phantom(16, 16)
        masks = random_sensing_matrix(154, 256, seed=3)
        y = acquire(scene, masks, IDEAL, mode="intensity")
        res = cs_reconstruct(masks, y, mu=100.0, shape=(16, 16))
        rel = np.linalg.norm(res.s_hat - scene.values) / np.linalg.norm(scene.values)
        assert rel < 0.05
        assert res.residual == pytest.approx(
            float(np.linalg.norm(masks.matrix @ res.s_hat - y)), rel=1e-9
        )

    def test_nonnegativity_is_enforced(self):
        scene = binary_phantom(8, 8)
        masks = random_sensing_matrix(40, 64, seed=8)
        y = acquire(scene, masks, IDEAL, mode="intensity")
        res = cs_reconstruct(masks, y, mu=50.0, shape=(8, 8))
        assert res.s_hat.min() >= 0.0

    def test_measurement_count_mismatch(self):
        masks = random_sensing_matrix(10, 16, seed=0)
        with pytest.raises(ContractError):
            cs_reconstruct(masks, np.zeros(9), shape=(4, 4))

    @pytest.mark.parametrize(
        "kwargs",
        [{"mu": math.nan}, {"mu": math.inf}, {"mu": -1.0}, {"tol": math.nan},
         {"tol": math.inf}, {"tol": -1e-9}, {"max_iter": 0}, {"max_iter": 2.5},
         {"max_iter": True}, {"shape": (4, 4, 1)}, {"shape": (16,)}, {"shape": 16}],
    )
    def test_bad_solver_settings_rejected(self, kwargs):
        """A bad number is a DomainError; a shape that is not a pair is a
        ContractError."""
        masks = random_sensing_matrix(10, 16, seed=0)
        error = ContractError if "shape" in kwargs else DomainError
        with pytest.raises(error):
            cs_reconstruct(masks, np.ones(10), **{"shape": (4, 4), **kwargs})

    @pytest.mark.parametrize("nonneg", ["no", 2, math.nan, [0], None])
    def test_a_nonneg_that_is_not_a_bool_is_refused_by_name(self, nonneg):
        # each of these once clipped at 0 or solved unclipped by its truth value
        masks = random_sensing_matrix(10, 16, seed=0)
        with pytest.raises(DomainError, match=r"^nonneg must be a bool"):
            cs_reconstruct(masks, np.ones(10), nonneg=nonneg, shape=(4, 4))

    @pytest.mark.parametrize("nonneg", [True, False])
    def test_a_numpy_bool_nonneg_solves_as_the_python_bool(self, nonneg):
        scene = binary_phantom(8, 8)
        masks = random_sensing_matrix(40, 64, seed=8)
        y = acquire(scene, masks, IDEAL, mode="intensity")
        res, again = (cs_reconstruct(masks, y, mu=50.0, nonneg=flag) for flag in (nonneg, np.bool_(nonneg)))
        assert res.s_hat.tobytes() == again.s_hat.tobytes()
        assert res.objective_trace.tobytes() == again.objective_trace.tobytes()
        assert (res.restarts, res.gradient_mapping) == (again.restarts, again.gradient_mapping)
        assert (res.s_hat.min() < 0.0) is not nonneg

    @pytest.mark.parametrize(("masks", "mu"), [
        (random_sensing_matrix(3, 16, seed=0), 5e-324),
        (random_sensing_matrix(3, 16, seed=0), 1e-320),
        (random_sensing_matrix(3, 16, seed=0), 1e-310),
        (0.1 * np.eye(3, 16), 5e-324),  # μ·λ rounds to 0
    ], ids=["5e-324", "1e-320", "1e-310", "product-0"])
    def test_a_mu_whose_step_is_not_finite_is_refused_by_name(self, masks, mu):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=rf"^mu {mu!r} is too small"):
                cs_reconstruct(masks, np.ones(3), mu=mu, max_iter=4, shape=(4, 4))

    @pytest.mark.parametrize("mu", [1e306, 1e307, 1.7e308])
    def test_a_mu_whose_objective_can_overflow_is_refused_by_name(self, mu):
        # 1e307 overflowed the gradient's sum and 1.7e308 the gradient itself
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=rf"^mu {re.escape(repr(mu))} is too large"):
                cs_reconstruct(random_sensing_matrix(3, 16, seed=0), np.ones(3), mu=mu, max_iter=4)

    def test_a_large_mu_in_range_still_solves(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = cs_reconstruct(random_sensing_matrix(3, 16, seed=0), np.ones(3), mu=1e300, max_iter=4)
        assert res.iterations == 4 and np.all(np.isfinite(res.s_hat))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_trace_rejected(self, value):
        with pytest.raises(ContractError, match="finite"):
            ReconstructionResult(np.zeros(4), 2, np.array([1.0, value, 0.5]), 0.1)

    def test_rising_trace_rejected(self):
        with pytest.raises(ContractError, match="trace"):
            ReconstructionResult(
                s_hat=np.zeros(4),
                iterations=9,
                objective_trace=np.array([9.0, 8, 7, 6, 5, 4, 3, 2, 2.5, 2.4]),
                residual=0.1,
            )

    def test_rise_at_the_first_step_rejected(self):
        with pytest.raises(ContractError, match="trace"):
            ReconstructionResult(np.zeros(4), 3, np.array([2.0, 2.5, 1.0, 0.5]), 0.1)

    @pytest.mark.parametrize("value", [math.nan, -1e-12])
    def test_nan_or_negative_gradient_mapping_rejected(self, value):
        with pytest.raises(ContractError, match="gradient_mapping"):
            ReconstructionResult(np.zeros(4), 1, np.array([1.0, 0.5]), 0.1, "max_iter", value)

    @pytest.mark.parametrize("restarts", [-1, 3, 1.0, True, None])
    def test_restarts_outside_zero_to_iterations_rejected(self, restarts):
        with pytest.raises(ContractError, match="restarts"):
            ReconstructionResult(
                np.zeros(4), 2, np.array([1.0, 0.5, 0.4]), 0.1, "max_iter", 0.1, restarts
            )

    @pytest.mark.parametrize("iterations", [2.5, True, None, -1])
    def test_iterations_that_are_not_a_count_rejected(self, iterations):
        with pytest.raises(ContractError, match="iterations must be an integer"):
            ReconstructionResult(np.zeros(4), iterations, np.array([1.0, 0.5]), 0.1)

    @pytest.mark.parametrize("trace", [[1.0, 0.5], [1.0, 0.5, 0.4, 0.3]])
    def test_trace_not_one_longer_than_iterations_rejected(self, trace):
        with pytest.raises(ContractError, match="iterations \\+ 1 = 3"):
            ReconstructionResult(np.zeros(4), 2, np.array(trace), 0.1)

    def test_restarts_up_to_iterations_accepted(self):
        trace = np.array([1.0, 0.5, 0.4])
        for restarts in (0, 2, np.int64(1)):
            res = ReconstructionResult(np.zeros(4), 2, trace, 0.1, "max_iter", 0.1, restarts)
            assert res.restarts == restarts


def _textbook_prox(v, weight, n_inner=20, warm_dual=None):
    """The dual projected-gradient prox written with `_grad` and
    `_grad_adjoint`, fresh arrays every sweep: the reference for `tv_prox`."""
    if weight == 0.0:
        return v.copy(), (np.zeros_like(v), np.zeros_like(v))
    if warm_dual is None:
        px, py = np.zeros_like(v), np.zeros_like(v)
    else:
        px, py = warm_dual[0].copy(), warm_dual[1].copy()
    step = 1.0 / (8.0 * weight)
    for _ in range(n_inner):
        u = v - weight * _grad_adjoint(px, py)
        gx, gy = _grad(u)
        px = np.clip(px + step * gx, -1.0, 1.0)
        py = np.clip(py + step * gy, -1.0, 1.0)
    return v - weight * _grad_adjoint(px, py), (px, py)


def _power_iteration_norm_sq(q, n_steps=50):
    """λmax(QᵀQ) by plain power iteration from the all-ones start: the step
    constant of `_textbook_mfista`'s fixed reference."""
    v = np.ones(q.shape[1]) / math.sqrt(q.shape[1])
    value = 1.0
    for _ in range(n_steps):
        w = q.T @ (q @ v)
        value = float(np.linalg.norm(w))
        v = w / value
    return value


def _textbook_mfista(q, y, mu, shape, max_iter, tol, n_inner):
    """Monotone FISTA in the Euclidean metric around `_textbook_prox` with
    n_inner warm-started sweeps and a 1/λmax(QᵀQ) step: the fixed tight
    reference of `TestInexactProxAccuracy`."""
    scale = float(np.max(np.abs(y)))
    y_scaled = y / scale
    base_step = 1.0 / (mu * _power_iteration_norm_sq(q))

    def objective(s_img):
        resid = q @ s_img.ravel() - y_scaled
        return _tv(s_img) + 0.5 * mu * float(resid @ resid)

    s = np.zeros(shape)
    momentum = s
    dual = (np.zeros(shape), np.zeros(shape))
    t_k = 1.0
    trace = [objective(s)]
    stall = 0
    for _ in range(max_iter):
        gradient = (mu * (q.T @ (q @ momentum.ravel() - y_scaled))).reshape(shape)
        candidate, dual = _textbook_prox(
            momentum - base_step * gradient, base_step, n_inner, warm_dual=dual
        )
        np.clip(candidate, 0.0, None, out=candidate)
        value = objective(candidate)
        previous = trace[-1]
        s_next, accepted = (candidate, value) if value <= previous else (s, previous)
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_k * t_k))
        momentum = s_next + (t_k / t_next) * (candidate - s_next) + (
            (t_k - 1.0) / t_next
        ) * (s_next - s)
        s, t_k = s_next, t_next
        trace.append(accepted)
        if abs(previous - accepted) <= tol * max(abs(previous), 1e-300):
            stall += 1
            if stall >= 5:
                break
        else:
            stall = 0
    return s.ravel() * scale, np.asarray(trace), len(trace) - 1


def _textbook_metric_fista(
    q, y, mu, shape, max_iter=2000, tol=5e-8, nonneg=True, n_inner=None
):
    """`cs_reconstruct`'s loop written with fresh arrays: monotone FISTA in
    the metric I + β·eeᵀ around `_textbook_prox`, `_SOLVER_SWEEPS`
    warm-started sweeps per prox, Q·momentum combined from Q·s and
    Q·candidate, t reset to 1 on every step with ⟨z − x⁺, x⁺ − s⟩_M > 0,
    stopped when the relative gradient mapping is ≤ tol: the reference for
    `cs_reconstruct`, bit for bit, that mapping at the last step and the
    restart count included. With n_inner given it is the tight reference of
    `TestInexactProxAccuracy` instead: n_inner sweeps per prox, the same
    restarts, stopped once the objective has not moved (within tol) for 5
    steps in a row."""
    scale = float(np.max(np.abs(y)))
    y_scaled = y / scale
    beta, lam = _rank_one_metric(q)
    base_step = 1.0 / (mu * lam)

    def objective(s_img):
        q_s = q @ s_img.ravel()
        resid = q_s - y_scaled
        return _tv(s_img) + 0.5 * mu * float(resid @ resid), q_s

    s = np.zeros(shape)
    value, q_s = objective(s)
    momentum, q_momentum = s, q_s
    dual = (np.zeros(shape), np.zeros(shape))
    t_k = 1.0
    trace = [value]
    stall = restarts = 0
    for _ in range(max_iter):
        gradient = (mu * (q.T @ (q_momentum - y_scaled))).reshape(shape)
        gradient = gradient - (beta / (1.0 + beta)) * gradient.mean()
        v = momentum - base_step * gradient
        sweeps = _SOLVER_SWEEPS if n_inner is None else n_inner
        candidate, dual = _textbook_prox(v, base_step, sweeps, warm_dual=dual)
        if nonneg:
            candidate = np.maximum(candidate - _metric_shift(candidate, v, beta), 0.0)
        value, q_candidate = objective(candidate)
        step = candidate - momentum
        total = float(step.sum())
        gap = 0.5 * (mu * lam) * (float(np.vdot(step, step)) + beta * total * total / step.size)
        measure = gap / value if value > 0.0 else (0.0 if gap == 0.0 else math.inf)
        ahead = candidate - s
        if float(np.vdot(step, ahead)) + beta * total * float(ahead.sum()) / step.size < 0.0:
            t_k = 1.0
            restarts += 1
        previous = trace[-1]
        if value <= previous:
            s_next, q_s_next, accepted = candidate, q_candidate, value
        else:
            s_next, q_s_next, accepted = s, q_s, previous
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_k * t_k))
        momentum = s_next + (t_k / t_next) * (candidate - s_next) + (
            (t_k - 1.0) / t_next
        ) * (s_next - s)
        q_momentum = q_s_next + (t_k / t_next) * (q_candidate - q_s_next) + (
            (t_k - 1.0) / t_next
        ) * (q_s_next - q_s)
        s, q_s, t_k = s_next, q_s_next, t_next
        trace.append(accepted)
        if n_inner is None:
            if measure <= tol:
                break
        elif abs(previous - accepted) <= tol * max(abs(previous), 1e-300):
            stall += 1
            if stall >= 5:
                break
        else:
            stall = 0
    return s.ravel() * scale, np.asarray(trace), len(trace) - 1, measure, restarts


class TestBitForBitAgainstTheTextbook:
    """The in-place prox and solver do the textbook loops' floating-point
    operations in the same order: results must be equal, not close."""

    @pytest.mark.parametrize(
        "shape", [(32, 32), (7, 5), (1, 6), (6, 1), (1, 1), (1, 2), (2, 1), (2, 2), (3, 32), (32, 3)]
    )
    # At 1e-310 the step 1/(8·weight) overflows: step·0 is NaN in the dual
    # entries Gᵀ ignores, and u must still match.
    @pytest.mark.parametrize("weight", [0.0, 1e-310, 1e-6, 0.3, 10.0])
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_prox_equals_the_textbook_sweep(self, shape, weight):
        rng = np.random.default_rng(17)
        v = rng.normal(size=shape)
        for n_inner in (1, 20):
            u_ref, _ = _textbook_prox(v, weight, n_inner)
            assert np.array_equal(tv_prox(v, weight, n_inner=n_inner), u_ref)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 2), (2, 1), (3, 32), (32, 3), (32, 32)])
    @pytest.mark.parametrize("weight", [1e-310, 1e-6, 0.3, 10.0])
    def test_edge_duals_stay_zero_over_a_long_prox(self, shape, weight):
        # `_px_left` and `_py_above` read px's last column, py's last row and
        # the pad column as the +0 that Gᵀ adds there, and a sweep writes
        # those entries only through the 0 of the edge-masked step
        work = imaging._TvWorkspace(shape)
        v = np.random.default_rng(23).normal(size=shape)
        work.prox(v, weight, 2000, np.empty(shape))
        py, px = work.dual
        edges = np.concatenate([px[:, -2:].ravel(), py[-1], py[:, -1]])
        assert np.all(edges == 0.0) and not np.any(np.signbit(edges))

    def test_a_workspace_whose_weight_changes_equals_the_warm_textbook_sweep(self):
        # the step array is rebuilt only when the weight changes, so a prox
        # after a change must not sweep with the old weight's step
        shape = (7, 5)
        v = np.random.default_rng(31).normal(size=shape)
        work, u = imaging._TvWorkspace(shape), np.empty(shape)
        dual = None
        for weight in (0.3, 0.3, 10.0, 0.3):
            u_ref, dual = _textbook_prox(v, weight, 4, warm_dual=dual)
            work.prox(v, weight, 4, u)
            assert np.array_equal(u, u_ref)

    def test_prox_of_huge_values_of_both_signs_equals_the_textbook_sweep(self):
        # Across a row break these differ by more than the largest float;
        # G never takes that difference, so neither may the prox.
        v = np.array([[1.0, -1e308], [1e308, 2.0], [3.0, -1e308]])
        u_ref, _ = _textbook_prox(v, 0.3, 3)
        assert np.all(np.isfinite(u_ref))
        assert np.array_equal(tv_prox(v, 0.3, n_inner=3), u_ref)

    def test_prox_writes_to_no_input_and_shares_no_memory(self):
        rng = np.random.default_rng(4)
        v = rng.normal(size=(9, 11))
        kept = v.copy()
        first = tv_prox(v, 0.2)
        second = tv_prox(v, 0.2)
        assert np.array_equal(kept, v)
        assert not np.shares_memory(first, v)
        assert not np.shares_memory(first, second)

    @pytest.mark.parametrize(
        "nonneg, max_iter, stop_reason", [(True, 2000, "converged"), (False, 60, "max_iter")]
    )
    def test_solver_equals_the_textbook_loop(self, nonneg, max_iter, stop_reason):
        # The test_compressed_phantom_recovery problem.
        scene = binary_phantom(16, 16)
        masks = random_sensing_matrix(154, 256, seed=3)
        q = masks.matrix.copy()
        y = acquire(scene, masks, IDEAL, mode="intensity")
        kept = (q.copy(), y.copy())
        res = cs_reconstruct(q, y, mu=100.0, max_iter=max_iter, nonneg=nonneg, shape=(16, 16))
        s_ref, trace_ref, iterations_ref, measure_ref, restarts_ref = _textbook_metric_fista(
            kept[0], kept[1], 100.0, (16, 16), max_iter=max_iter, nonneg=nonneg
        )
        assert np.array_equal(res.s_hat, s_ref)
        assert np.array_equal(res.objective_trace, trace_ref)
        assert res.iterations == iterations_ref
        assert res.gradient_mapping == measure_ref
        assert res.restarts == restarts_ref
        assert res.stop_reason == stop_reason
        assert np.array_equal(q, kept[0]) and np.array_equal(y, kept[1])
        again = cs_reconstruct(q, y, mu=100.0, max_iter=max_iter, nonneg=nonneg, shape=(16, 16))
        assert np.array_equal(again.s_hat, res.s_hat)
        assert not np.shares_memory(again.s_hat, res.s_hat)
        assert not np.shares_memory(again.objective_trace, res.objective_trace)


# Small scenes and masks for the restart properties; the 20 examples take
# well under 3 s together (~0.4 s on a 2-vCPU box, BLAS at 1 thread).
@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(
    height=st.integers(1, 10),
    width=st.integers(1, 10),
    row_share=st.floats(0.2, 1.0),
    seed=st.integers(0, 2**16),
    mu=st.sampled_from([10.0, 100.0, 1000.0]),
    nonneg=st.booleans(),
    max_iter=st.sampled_from([2000, 1, 25]),
)
def test_restarted_solver_equals_the_twin_on_random_scenes(
    height, width, row_share, seed, mu, nonneg, max_iter
):
    n_pixels = height * width
    rows = max(1, round(row_share * n_pixels))
    rng = np.random.default_rng(seed)
    scene = SensingScene(rng.random(n_pixels), width, height)
    masks = random_sensing_matrix(rows, n_pixels, seed=seed)
    y = acquire(scene, masks, IDEAL, mode="intensity")
    assume(np.max(y) > 0.0)
    res = cs_reconstruct(masks, y, mu=mu, max_iter=max_iter, nonneg=nonneg, shape=(height, width))
    s_ref, trace_ref, iterations_ref, measure_ref, restarts_ref = _textbook_metric_fista(
        masks.matrix, y, mu, (height, width), max_iter=max_iter, nonneg=nonneg
    )
    assert np.array_equal(res.s_hat, s_ref)
    assert np.array_equal(res.objective_trace, trace_ref)
    assert (res.iterations, res.gradient_mapping, res.restarts) == (
        iterations_ref, measure_ref, restarts_ref
    )
    assert 0 <= res.restarts <= res.iterations
    assert np.all(np.diff(res.objective_trace) <= 0.0)
    if res.gradient_mapping <= 5e-8:
        assert res.stop_reason == "converged"
    else:
        assert res.stop_reason == "max_iter" and res.iterations == max_iter


# `_metric_shift`'s fixed point over sizes 1 to 1024, β of 0, 1e-300 and
# 1e3, and w spread, tied or all equal, shifted so that every wᵢ lies below
# c (k = 0), around it, or above it (k = n); the 200 examples take ~0.35 s
# together on a 2-vCPU box.
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 1024),
    beta=st.sampled_from([0.0, 1e-300, 1e3]),
    kind=st.sampled_from(["spread", "tied", "equal"]),
    offset=st.sampled_from([-100.0, 0.0, 100.0]),
    noise=st.sampled_from([0.0, 1.0]),
    seed=st.integers(0, 2**16),
)
@example(n=1024, beta=1e3, kind="spread", offset=-100.0, noise=0.0, seed=0)  # k = 0
@example(n=1024, beta=1e3, kind="tied", offset=100.0, noise=0.0, seed=0)  # k = n
@example(n=1, beta=1e3, kind="equal", offset=0.0, noise=1.0, seed=1)
def test_metric_shift_meets_its_fixed_point(n, beta, kind, offset, noise, seed):
    rng = np.random.default_rng(seed)
    if kind == "spread":
        w = rng.normal(size=n)
    elif kind == "tied":
        w = rng.integers(-3, 4, size=n) / 2.0
    else:
        w = np.full(n, rng.normal())
    w += offset
    v = w + noise * rng.normal(size=n)
    c = _metric_shift(w, v, beta)
    kept = np.maximum(w - c, 0.0)
    right = (beta / n) * (math.fsum(kept) - math.fsum(v))
    scale = abs(c) + (beta / n) * (math.fsum(kept) + math.fsum(np.abs(v)))
    assert abs(c - right) <= 1e-12 * scale


class TestInexactProxAccuracy:
    def test_default_solve_is_near_a_tight_reference(self):
        # The test_compressed_phantom_recovery problem, against the textbook
        # loop with 50 sweeps per prox run until it stalls exactly (tol 0).
        scene = binary_phantom(16, 16)
        masks = random_sensing_matrix(154, 256, seed=3)
        y = acquire(scene, masks, IDEAL, mode="intensity")
        res = cs_reconstruct(masks, y, mu=100.0, shape=(16, 16))
        _, trace_ref, _ = _textbook_mfista(
            masks.matrix, y, 100.0, (16, 16), max_iter=20000, tol=0.0, n_inner=50
        )
        reference = trace_ref[-1]
        assert res.stop_reason == "converged"
        assert abs(res.objective_trace[-1] - reference) <= 1e-4 * reference

    def test_noise_free_32x32_solve_is_near_a_tight_reference(self):
        # test_09's noise-free image, the input on which a solve stops
        # farthest above the minimum, against the same loop with 400 sweeps
        # per prox run until it stalls exactly (tol 0).
        phantom = binary_phantom(32, 32)
        masks = random_sensing_matrix(256, 1024, seed=7)
        y = acquire(phantom, masks, IDEAL, mode="intensity")
        res = cs_reconstruct(masks, y, mu=100.0, shape=(32, 32))
        _, trace_ref, _, _, _ = _textbook_metric_fista(
            masks.matrix, y, 100.0, (32, 32), max_iter=20000, tol=0.0, n_inner=400
        )
        reference = trace_ref[-1]
        assert res.stop_reason == "converged"
        assert abs(res.objective_trace[-1] - reference) <= 1e-4 * reference


class TestStopReason:
    def test_zero_measurements_count_as_converged(self):
        masks = SensingMatrix(np.eye(16))
        res = cs_reconstruct(masks, np.zeros(16), mu=10.0, shape=(4, 4))
        assert res.iterations == 0
        assert res.stop_reason == "converged"

    def test_exact_fit_at_zero_objective_converges(self):
        # The first step lands on the constant image with F = 0 but moved
        # from z = 0, which is no bound; the second step moves nowhere.
        res = cs_reconstruct(SensingMatrix(np.eye(16)), np.ones(16), mu=10.0, shape=(4, 4))
        assert res.stop_reason == "converged" and res.iterations == 2
        assert res.gradient_mapping == 0.0
        assert np.array_equal(res.s_hat, np.ones(16))

    def test_exhausted_budget_is_reported(self):
        scene = binary_phantom(8, 8)
        masks = random_sensing_matrix(40, 64, seed=8)
        y = acquire(scene, masks, IDEAL, mode="intensity")
        res = cs_reconstruct(masks, y, mu=50.0, max_iter=3, shape=(8, 8))
        assert res.iterations == 3
        assert res.stop_reason == "max_iter"

    def test_unknown_reason_rejected(self):
        with pytest.raises(ContractError, match="stop_reason"):
            ReconstructionResult(np.zeros(4), 1, np.array([1.0, 0.5]), 0.1, "stalled")

    def test_default_does_not_claim_convergence(self):
        res = ReconstructionResult(s_hat=np.zeros(4), iterations=1,
                                   objective_trace=np.array([1.0, 0.5]), residual=0.1)
        assert res.stop_reason == "max_iter"


class TestSolverStep:
    """`cs_reconstruct` is its checks plus a loop over `_Fista.step`, so a
    solve's first steps do not depend on its budget or its stop."""

    def test_a_shorter_budget_gives_the_first_steps_of_a_longer_solve(self):
        scene = binary_phantom(8, 8)
        masks = random_sensing_matrix(40, 64, seed=8)
        y = acquire(scene, masks, IDEAL, mode="intensity")
        full = cs_reconstruct(masks, y, mu=50.0)
        assert full.stop_reason == "converged" and full.iterations > 10
        for k in range(1, full.iterations):
            res = cs_reconstruct(masks, y, mu=50.0, max_iter=k)
            assert res.objective_trace.tobytes() == full.objective_trace[: k + 1].tobytes()
            assert res.stop_reason == "max_iter" and res.restarts <= full.restarts

    def test_steps_of_the_state_reproduce_a_budgeted_solve(self):
        # The test_compressed_phantom_recovery problem, set up as
        # cs_reconstruct sets it up: y scaled to max 1 and the masks' metric.
        scene = binary_phantom(16, 16)
        masks = random_sensing_matrix(154, 256, seed=3)
        y = acquire(scene, masks, IDEAL, mode="intensity")
        scale = float(np.max(np.abs(y)))
        solve = imaging._Fista(masks.matrix, y / scale, 100.0, *masks.metric, (16, 16), True)
        steps = 0
        for k in (1, 2, 3, 10, 40, 70):
            while steps < k:
                measure = solve.step()
                steps += 1
            res = cs_reconstruct(masks, y, mu=100.0, max_iter=k)
            assert np.array_equal(solve.trace, res.objective_trace)
            assert (solve.s[:256] * scale).tobytes() == res.s_hat.tobytes()
            assert (solve.restarts, measure) == (res.restarts, res.gradient_mapping)


class TestImageSnr:
    def test_contrast_ratio(self):
        img = np.zeros(16)
        img[:4] = 2.0
        mask = np.zeros(16, dtype=bool)
        mask[:4] = True
        img[4:] = 0.5
        assert image_snr(img, mask) == pytest.approx(4.0, rel=1e-12)

    def test_clean_background_is_capped(self):
        img = np.zeros(16)
        img[:4] = 2.0
        mask = np.zeros(16, dtype=bool)
        mask[:4] = True
        assert image_snr(img, mask) == 1e6

    def test_scale_invariance(self):
        rng = np.random.default_rng(5)
        img = rng.random(64) + 0.1
        mask = np.zeros(64, dtype=bool)
        mask[:20] = True
        assert image_snr(3.0 * img, mask) == pytest.approx(
            image_snr(img, mask), rel=1e-12
        )

    def test_degenerate_masks_rejected(self):
        img = np.ones(8)
        with pytest.raises(DomainError):
            image_snr(img, np.ones(8, dtype=bool))
        with pytest.raises(DomainError):
            image_snr(img, np.zeros(8, dtype=bool))
        with pytest.raises(ContractError):
            image_snr(img, np.ones(9, dtype=bool))
