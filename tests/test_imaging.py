"""Single-pixel acquisition model and TV-regularized reconstruction."""

import math

import numpy as np
import pytest
from scipy import stats

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
    TwoArmDetection,
    acquire,
    arm_a_marginal,
    binary_phantom,
    cs_reconstruct,
    image_snr,
    joint_pmf_noisy,
    pmf,
    random_sensing_matrix,
    scale_scene_to_projection,
    snr_post,
    snr_sub,
    thermal,
    tv_prox,
)
from photonstats.imaging import _grad, _grad_adjoint, _spectral_norm_sq, _tv

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
            SensingMatrix(np.full((2, 4), 0.5), RngSeed(0), 0.5)

    def test_scaling_hits_target_projection(self):
        scene = binary_phantom(16, 16)
        masks = random_sensing_matrix(40, 256, seed=2)
        scaled = scale_scene_to_projection(scene, masks, target_mean=0.8)
        assert (masks.matrix @ scaled.values).mean() == pytest.approx(0.8, rel=1e-12)


class TestJointLaw:
    def test_normalization(self):
        total = sum(
            joint_pmf_noisy(0.9, NOISY, n, m) for n in range(30) for m in range(30)
        )
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_dark_counts_only_limit(self):
        """With no signal the two arms are independent Poisson dark counts."""
        arms = NOISY
        for n, m in [(0, 0), (1, 0), (2, 3)]:
            expected = stats.poisson.pmf(n, 0.05) * stats.poisson.pmf(m, 0.05)
            assert joint_pmf_noisy(0.0, arms, n, m) == pytest.approx(
                expected, rel=1e-12
            )

    def test_marginal_is_thinned_thermal_plus_darks(self):
        arms = NOISY
        n_t = 0.7
        c2, _ = arms.arm_fractions
        signal = pmf(thermal(arms.det_a.efficiency * c2 * n_t), cutoff=40).probs
        noise = stats.poisson.pmf(np.arange(41), arms.det_a.dark_rate)
        ref = np.convolve(signal, noise)[:10]
        got = np.array([arm_a_marginal(n_t, arms, n) for n in range(10)])
        assert np.max(np.abs(got - ref)) < 1e-10


class TestSnrModes:
    ARMS_POST = TwoArmDetection(0.0, DetectorModel(0.15, 0.8), DetectorModel(0.15, 0.8))

    def test_post_selection_grows_with_count(self):
        vals = [snr_post(0.8, self.ARMS_POST, n) for n in range(8)]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert vals[7] > 3.0

    def test_post_selection_needs_a_noise_floor(self):
        with pytest.raises(SaturationError):
            snr_post(0.8, IDEAL, 2)

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
        scene = binary_phantom(8, 8)
        masks = random_sensing_matrix(6, 64, seed=9)
        exact = acquire(scene, masks, NOISY, mode="intensity")
        sampled = acquire(scene, masks, NOISY, mode="intensity", shots=200_000, seed=12)
        assert np.max(np.abs(sampled - exact)) < 0.02

    def test_sampled_path_reproducible(self):
        scene = binary_phantom(8, 8)
        masks = random_sensing_matrix(4, 64, seed=9)
        a = acquire(scene, masks, NOISY, mode="post(1)", shots=2000, seed=3)
        b = acquire(scene, masks, NOISY, mode="post(1)", shots=2000, seed=3)
        assert np.array_equal(a, b)

    def test_mode_string_validation(self):
        scene = binary_phantom(8, 8)
        masks = random_sensing_matrix(2, 64, seed=0)
        for bad in ("POST(2)", "post(-1)", "post(1.5)", "mean", "subtract()"):
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


class TestPrimariesAgainstTheJointLaw:
    """The vectorized primaries against sums of the cell-by-cell oracle."""

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
            post.append(sum(joint_pmf_noisy(n_t, arms, 3, m) for m in counts))
            column = np.array([joint_pmf_noisy(n_t, arms, n, 1) for n in counts])
            sub.append(float(counts @ column) / float(column.sum()))
        got_post = acquire(scene, masks, arms, mode="post(3)")
        got_sub = acquire(scene, masks, arms, mode="subtract(1)")
        assert np.max(np.abs(got_post - post) / np.array(post)) <= 1e-12
        assert np.max(np.abs(got_sub - sub) / np.array(sub)) <= 1e-12

    def test_snr_figures(self):
        arms = TestSnrModes.ARMS_POST
        counts = np.arange(self.CUT + 1)
        for big_n in range(8):
            signal = sum(joint_pmf_noisy(0.8, arms, big_n, m) for m in counts)
            noise = stats.poisson.pmf(big_n, arms.det_a.dark_rate)
            assert snr_post(0.8, arms, big_n) == pytest.approx(signal / noise, rel=1e-12)
        for big_n in range(4):
            column = np.array([joint_pmf_noisy(0.08, NOISY, n, big_n) for n in counts])
            mean = float(counts @ column) / float(column.sum())
            assert snr_sub(0.08, NOISY, big_n) == pytest.approx(mean / 0.05, rel=1e-12)

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

    def test_impossible_condition_names_the_row(self):
        blind_b = TwoArmDetection(
            math.pi / 4.0, DetectorModel(0.5, 0.1), DetectorModel(0.0, 0.0)
        )
        scene = binary_phantom(8, 8)
        masks = random_sensing_matrix(3, 64, seed=0)
        with pytest.raises(DomainError, match="row 0"):
            acquire(scene, masks, blind_b, mode="subtract(2)")


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

    def test_prox_fixes_constants(self):
        v = np.full((5, 5), 1.7)
        out, _ = tv_prox(v, weight=0.3)
        assert np.allclose(out, v, atol=1e-12)

    def test_prox_lowers_the_rof_objective(self):
        rng = np.random.default_rng(3)
        v = rng.normal(size=(8, 8))
        weight = 0.4
        out, _ = tv_prox(v, weight, n_inner=60)

        def objective(u):
            return 0.5 * float(np.sum((u - v) ** 2)) + weight * _tv(u)

        assert objective(out) < objective(v)
        assert _tv(out) < _tv(v)

    def test_spectral_norm_matches_eigensolver(self):
        rng = np.random.default_rng(1)
        q = rng.integers(0, 2, size=(20, 30)).astype(float)
        true = float(np.linalg.eigvalsh(q.T @ q).max())
        assert _spectral_norm_sq(q) == pytest.approx(true, rel=1e-3)


class TestReconstruction:
    def test_identity_system_recovers_the_signal(self):
        s0 = np.abs(np.sin(np.arange(64.0)))
        masks = SensingMatrix(np.eye(64), RngSeed(0), 0.5)
        res = cs_reconstruct(masks, s0, mu=1000.0, shape=(8, 8))
        assert np.linalg.norm(res.s_hat - s0) / np.linalg.norm(s0) < 0.01

    def test_zero_measurements_give_zero_image(self):
        masks = SensingMatrix(np.eye(16), RngSeed(0), 0.5)
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

    def test_rising_trace_rejected(self):
        with pytest.raises(ContractError, match="trace"):
            ReconstructionResult(
                s_hat=np.zeros(4),
                iterations=10,
                objective_trace=np.array([9.0, 8, 7, 6, 5, 4, 3, 2, 2.5, 2.4]),
                residual=0.1,
            )


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


def _textbook_mfista(q, y, mu, shape, max_iter=2000, tol=1e-9, nonneg=True):
    """Monotone FISTA around `_textbook_prox`, allocating as it goes: the
    reference for `cs_reconstruct`."""
    scale = float(np.max(np.abs(y)))
    y_scaled = y / scale
    base_step = 1.0 / (mu * _spectral_norm_sq(q))

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
        candidate, dual = _textbook_prox(momentum - base_step * gradient, base_step, warm_dual=dual)
        if nonneg:
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


class TestBitForBitAgainstTheTextbook:
    """The in-place prox and solver do the textbook loops' floating-point
    operations in the same order: results must be equal, not close."""

    @pytest.mark.parametrize("shape", [(32, 32), (7, 5), (1, 6), (6, 1)])
    # At 1e-310 the step 1/(8·weight) overflows: step·0 is NaN in the dual
    # entries Gᵀ ignores, and u must still match.
    @pytest.mark.parametrize("weight", [0.0, 1e-310, 1e-6, 0.3, 10.0])
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_prox_equals_the_textbook_sweep(self, shape, weight):
        rng = np.random.default_rng(17)
        v = rng.normal(size=shape)
        # Warm duals past the clamp, with a non-zero last row and column,
        # which Gᵀ must ignore.
        warm = (rng.uniform(-1.5, 1.5, size=shape), rng.uniform(-1.5, 1.5, size=shape))
        assert np.all(warm[0][:, -1] != 0.0) and np.all(warm[1][-1] != 0.0)
        for warm_dual in (None, warm):
            for n_inner in (0, 1, 20):
                u, (px, py) = tv_prox(v, weight, n_inner=n_inner, warm_dual=warm_dual)
                u_ref, (px_ref, py_ref) = _textbook_prox(v, weight, n_inner, warm_dual)
                assert np.array_equal(u, u_ref)
                assert np.array_equal(px, px_ref, equal_nan=True)
                assert np.array_equal(py, py_ref, equal_nan=True)

    def test_prox_writes_to_no_input_and_shares_no_memory(self):
        rng = np.random.default_rng(4)
        v = rng.normal(size=(9, 11))
        warm = (rng.uniform(-1, 1, size=(9, 11)), rng.uniform(-1, 1, size=(9, 11)))
        kept = (v.copy(), warm[0].copy(), warm[1].copy())
        first = tv_prox(v, 0.2, warm_dual=warm)
        second = tv_prox(v, 0.2, warm_dual=warm)
        for before, after in zip(kept, (v, *warm)):
            assert np.array_equal(before, after)
        arrays_1 = [first[0], *first[1]]
        arrays_2 = [second[0], *second[1]]
        for a in arrays_1:
            assert not np.shares_memory(a, v)
            assert not any(np.shares_memory(a, w) for w in warm)
            assert not any(np.shares_memory(a, b) for b in arrays_2)

    @pytest.mark.parametrize(
        "nonneg, max_iter, stop_reason", [(True, 2000, "converged"), (False, 150, "max_iter")]
    )
    def test_solver_equals_the_textbook_loop(self, nonneg, max_iter, stop_reason):
        # The test_compressed_phantom_recovery problem.
        scene = binary_phantom(16, 16)
        masks = random_sensing_matrix(154, 256, seed=3)
        q = masks.matrix.copy()
        y = acquire(scene, masks, IDEAL, mode="intensity")
        kept = (q.copy(), y.copy())
        res = cs_reconstruct(q, y, mu=100.0, max_iter=max_iter, nonneg=nonneg, shape=(16, 16))
        s_ref, trace_ref, iterations_ref = _textbook_mfista(
            kept[0], kept[1], 100.0, (16, 16), max_iter=max_iter, nonneg=nonneg
        )
        assert np.array_equal(res.s_hat, s_ref)
        assert np.array_equal(res.objective_trace, trace_ref)
        assert res.iterations == iterations_ref
        assert res.stop_reason == stop_reason
        assert np.array_equal(q, kept[0]) and np.array_equal(y, kept[1])
        again = cs_reconstruct(q, y, mu=100.0, max_iter=max_iter, nonneg=nonneg, shape=(16, 16))
        assert np.array_equal(again.s_hat, res.s_hat)
        assert not np.shares_memory(again.s_hat, res.s_hat)
        assert not np.shares_memory(again.objective_trace, res.objective_trace)


class TestStopReason:
    def test_zero_measurements_count_as_converged(self):
        masks = SensingMatrix(np.eye(16), RngSeed(0), 0.5)
        res = cs_reconstruct(masks, np.zeros(16), mu=10.0, shape=(4, 4))
        assert res.iterations == 0
        assert res.stop_reason == "converged"

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
