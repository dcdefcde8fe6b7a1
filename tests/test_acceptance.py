"""End-to-end acceptance gate.

One test per acceptance criterion, each printing a single PASS/FAIL line
(run with ``pytest tests/test_acceptance.py -v -s`` to see them live).
Monte Carlo checks run on frozen seeds, so every run is deterministic;
stated runtime budgets are asserted where a criterion carries one.
"""

import contextlib
import math
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy import special

from photonstats import (
    DetectorModel,
    InterferenceConfig,
    PUBLISHED_SUBTRACTION_TABLE,
    RngSeed,
    ScatterConfig,
    SensorConfig,
    SplitterNetwork,
    ThermalSplitterState,
    TwoArmDetection,
    PreselectionNetwork,
    acquire,
    binary_phantom,
    classical_envelope_oracle,
    conditional_g2_map,
    conditional_mean,
    conditional_mean_phase_derivative,
    cs_reconstruct,
    detected_pmf,
    detected_vacuum_probability,
    empirical_g2,
    farfield_g2,
    g2_from_pmf,
    g2_subtracted,
    g2_vs_angle,
    gamma_sum,
    gtilde2_thermal,
    image_snr,
    joint_pmf,
    joint_pmf_noisy,
    modulation_frequency,
    phase_uncertainty,
    pmf,
    preselection_distribution,
    preset,
    random_sensing_matrix,
    sample_source,
    scale_scene_to_projection,
    snr,
    snr_post,
    snr_sub,
    split_and_detect,
    subtracted_pmf,
    subtraction_success_probability,
    thermal,
)
from photonstats.states import convolve


@contextlib.contextmanager
def criterion(num: int, label: str):
    try:
        yield
    except BaseException:
        print(f"criterion {num:2d} FAIL  {label}")
        raise
    print(f"criterion {num:2d} PASS  {label}")


def r_squared(x: np.ndarray, y: np.ndarray) -> float:
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    return 1.0 - ss_res / ss_tot


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head, *rest)


def test_01_subtracted_light_coherence():
    t0 = time.perf_counter()
    with criterion(1, "subtracted-light coherence, closed form and pmf route"):
        exact = {0: 2.0, 1: 1.5, 2: 4.0 / 3.0, 3: 1.25}
        for level, value in exact.items():
            assert abs(g2_subtracted(level) - value) <= 1e-10
            pmf_route = g2_from_pmf(subtracted_pmf(1.0, level))
            assert abs(pmf_route - value) <= 1e-3
        assert time.perf_counter() - t0 < 1.0


def test_02_published_subtraction_probabilities():
    t0 = time.perf_counter()
    with criterion(2, "subtraction success probabilities vs published table"):
        for mean, cells in PUBLISHED_SUBTRACTION_TABLE.items():
            cfg = preset("thesis-ch5", mean=mean, phase=math.pi)
            for level, published in zip((1, 2, 3), cells):
                got = subtraction_success_probability(cfg, level)
                rel = abs(got - published) / published
                assert rel <= 0.15, (mean, level, got, published, rel)
        assert time.perf_counter() - t0 < 1.0


def test_03_two_mode_mixing_floor_and_mc_curve():
    t0 = time.perf_counter()
    with criterion(3, "two-mode mixing floor and sampled g2 across angles"):
        # equal mode means at horizontal polarization: the 1.5 floor
        floor = g2_from_pmf(detected_pmf(ScatterConfig(0.7, 0.7, 90.0), tail_target=1e-14))
        assert abs(floor - 1.5) <= 1e-9

        angles = np.linspace(0.0, 90.0, 7)
        curve = g2_vs_angle(1.0, 1.0 / 3.0, angles)
        for i, (theta, model) in enumerate(curve):
            cfg = ScatterConfig(1.0, 1.0 / 3.0, float(theta))
            a, b = cfg.mode_means
            counts_a = sample_source(thermal(a), 1_000_000, RngSeed(5 + i, 0))
            counts_b = sample_source(thermal(b), 1_000_000, RngSeed(5 + i, 1))
            emp, se = empirical_g2(counts_a + counts_b)
            assert abs(emp - model) <= 3.0 * se, (theta, emp, model, se)
        assert time.perf_counter() - t0 < 120.0


def test_04_detected_pmf_equals_thermal_convolution():
    with criterion(4, "summed detection law equals thermal convolution on a grid"):
        worst = 0.0
        for n_s in (0.2, 0.5, 1.0, 2.0, 4.0):
            for n_pl in (0.1, 0.5, 1.5):
                for theta in (0.0, 15.0, 30.0, 45.0, 60.0, 75.0, 90.0):
                    cfg = ScatterConfig(n_s, n_pl, theta)
                    d = detected_pmf(cfg)
                    a, b = cfg.mode_means
                    ref = convolve(
                        pmf(thermal(a), cutoff=d.n_max),
                        pmf(thermal(b), cutoff=d.n_max),
                    )
                    diff = float(np.max(np.abs(d.probs - ref.probs[: d.n_max + 1])))
                    worst = max(worst, diff)
        assert worst <= 1e-12, worst


SHOTS_BY_MEAN = {0.5: 43_000_000, 1.0: 2_000_000, 2.0: 1_000_000}


def _sampled_joint_histogram(mean: float, shots: int, master_seed: int) -> np.ndarray:
    """Joint count frequencies behind a balanced splitter, chunked so the
    largest runs stay inside a few hundred MB."""
    network = SplitterNetwork((0.5, 0.5))
    detectors = (DetectorModel(), DetectorModel())
    hist = np.zeros(80 * 80, dtype=np.int64)
    stream, done = 0, 0
    while done < shots:
        n = min(4_000_000, shots - done)
        counts = sample_source(thermal(mean), n, RngSeed(master_seed, stream))
        detected = split_and_detect(counts, network, detectors, RngSeed(master_seed, stream + 1))
        stream += 2
        done += n
        a, b = detected[:, 0], detected[:, 1]
        assert a.max() < 80 and b.max() < 80
        hist += np.bincount(a * 80 + b, minlength=80 * 80)
    return (hist / shots).reshape(80, 80)


def test_05_wavepacket_correlation_vs_sampling():
    t0 = time.perf_counter()
    with criterion(5, "wavepacket correlation closed form vs sampling + signs"):
        for mean, shots in SHOTS_BY_MEAN.items():
            state = ThermalSplitterState(mean, math.pi / 4.0)
            grid = _sampled_joint_histogram(mean, shots, master_seed=5)
            marg_a, marg_b = grid.sum(axis=1), grid.sum(axis=0)
            for big_n in range(6):
                for big_m in range(6):
                    if joint_pmf(state, big_n, big_m) * shots < 100:
                        continue
                    p = grid[big_n, big_m]
                    pa, pb = marg_a[big_n], marg_b[big_m]
                    g_emp = p / (pa * pb)
                    # delta-method variance of log g̃², shared-sample covariances included
                    var_log = (
                        (1.0 - p) / (p * shots)
                        - (1.0 - pa) / (pa * shots)
                        - (1.0 - pb) / (pb * shots)
                        + 2.0 * (p - pa * pb) / (pa * pb * shots)
                    )
                    se = g_emp * math.sqrt(max(var_log, 1e-300))
                    model = gtilde2_thermal(state, big_n, big_m)
                    assert abs(g_emp - model) <= 3.0 * se, (mean, big_n, big_m)

        # sign structure at unit mean per arm: bunching on the diagonal,
        # anti-correlation once the counts differ by four or more within
        # this scan range
        state = ThermalSplitterState(2.0, math.pi / 4.0)
        for n in range(6):
            assert gtilde2_thermal(state, n, n) > 1.0
        for big_n in range(6):
            for big_m in range(6):
                if abs(big_n - big_m) >= 4:
                    assert gtilde2_thermal(state, big_n, big_m) < 1.0
        assert time.perf_counter() - t0 < 120.0


def test_06_routing_identity_and_vacuum_ordering():
    with criterion(6, "routing sum identity, normalization, vacuum ordering"):
        n = np.arange(21)
        assert np.all(np.abs(gamma_sum(n) / special.factorial(n) - 1.0) <= 1e-9)

        net = PreselectionNetwork((0.5, 0.8, 0.3, 0.4, 0.6), mean=0.9)
        # the joint law over all ways to place n photons restores the
        # Bose-Einstein weight of n
        for total_n in range(4):
            placements = np.array(list(_compositions(total_n, 6))).T
            total = preselection_distribution(net, placements).sum()
            be = net.mean**total_n / (1.0 + net.mean) ** (total_n + 1)
            assert abs(total - be) <= 1e-9 * be
        # conditioning on empty detected modes raises the vacuum rate
        # whenever the loss arms carry weight
        assert detected_vacuum_probability(net) > 1.0 / (1.0 + net.mean)


def test_07_noisy_counting_law_vs_pipeline():
    t0 = time.perf_counter()
    with criterion(7, "two-arm noisy counting law vs sampled pipeline"):
        shots = 1_000_000
        arms = TwoArmDetection(
            math.pi / 4.0, DetectorModel(0.55, 0.3), DetectorModel(0.55, 0.3)
        )
        counts = sample_source(thermal(0.8), shots, RngSeed(7))
        detected = split_and_detect(
            counts, SplitterNetwork((0.5, 0.5)), (arms.det_a, arms.det_b), RngSeed(7, 1)
        )
        a, b = detected[:, 0], detected[:, 1]
        size = int(max(a.max(), b.max())) + 1
        freq = np.bincount(a * size + b, minlength=size * size).reshape(size, size) / shots
        p_model = joint_pmf_noisy(0.8, arms, *np.indices((size, size)))
        tested = p_model * shots >= 100
        sigma = np.sqrt(p_model * (1.0 - p_model) / shots)
        bad = tested & (np.abs(freq - p_model) > 3.0 * sigma)
        assert not np.any(bad), np.argwhere(bad)
        assert np.count_nonzero(tested) >= 20
        assert time.perf_counter() - t0 < 180.0


def test_08_snr_scaling_laws():
    t0 = time.perf_counter()
    with criterion(8, "post-selected SNR exponential, subtracted SNR linear"):
        post_arms = TwoArmDetection(0.0, DetectorModel(0.15, 0.8), DetectorModel(0.15, 0.8))
        big_n = np.arange(8, dtype=float)
        post = np.array([snr_post(0.8, post_arms, n) for n in range(8)])
        assert np.all(np.diff(post) > 0.0)
        assert r_squared(big_n, np.log(post)) > 0.98

        sub_arms = TwoArmDetection(
            math.pi / 4.0, DetectorModel(0.55, 0.05), DetectorModel(0.55, 0.05)
        )
        levels = np.arange(4, dtype=float)
        sub = np.array([snr_sub(0.08, sub_arms, n) for n in range(4)])
        assert np.all(np.diff(sub) > 0.0)
        assert r_squared(levels, sub) > 0.98
        assert time.perf_counter() - t0 < 10.0


def test_09_compressed_reconstruction():
    t0 = time.perf_counter()
    with criterion(9, "compressed recovery accuracy and conditional-contrast gain"):
        phantom = binary_phantom(32, 32)
        masks = random_sensing_matrix(256, 1024, seed=7)  # a quarter of the pixels
        ideal = TwoArmDetection(0.0, DetectorModel(1.0, 0.0), DetectorModel(1.0, 0.0))
        y = acquire(phantom, masks, ideal, mode="intensity")
        result = cs_reconstruct(masks, y, mu=100.0, shape=(32, 32))
        assert result.stop_reason == "converged"
        # the momentum restarts on the way, and the trace still never rises
        assert 0 < result.restarts <= result.iterations
        assert np.all(np.diff(result.objective_trace) <= 0.0)
        rel = np.linalg.norm(result.s_hat - phantom.values) / np.linalg.norm(phantom.values)
        assert rel < 0.15, rel

        # dark counts at the projection mean drown the raw intensity picture;
        # post-selecting three-photon events has to keep more contrast
        scene = scale_scene_to_projection(phantom, masks, target_mean=0.8)
        noisy = TwoArmDetection(
            math.pi / 4.0, DetectorModel(0.55, 0.8), DetectorModel(0.55, 0.8)
        )
        object_mask = phantom.values > 0.5
        for seed in (11, 23, 47, 89, 131):
            y_int = acquire(scene, masks, noisy, mode="intensity", shots=20_000, seed=RngSeed(seed))
            y_post = acquire(scene, masks, noisy, mode="post(3)", shots=20_000, seed=RngSeed(seed, 1000))
            result_int = cs_reconstruct(masks, y_int, mu=100.0, shape=(32, 32))
            result_post = cs_reconstruct(masks, y_post, mu=100.0, shape=(32, 32))
            # no solve may stop on the iteration budget
            assert result_int.stop_reason == result_post.stop_reason == "converged", seed
            contrast_int = image_snr(result_int.s_hat, object_mask)
            contrast_post = image_snr(result_post.s_hat, object_mask)
            assert contrast_post > contrast_int, (seed, contrast_post, contrast_int)
        assert time.perf_counter() - t0 < 300.0


def test_10_sensing_snr_and_phase_error():
    with criterion(10, "sensing SNR monotone in subtraction order, phase error shrinks"):
        cfg = preset("thesis-ch5")
        values = [snr(cfg, level) for level in range(4)]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert phase_uncertainty(cfg, 3) < phase_uncertainty(cfg, 0)
        step = 1e-4
        for level in range(4):
            fd = (
                conditional_mean(replace(cfg, phase=cfg.phase + step), level)
                - conditional_mean(replace(cfg, phase=cfg.phase - step), level)
            ) / (2.0 * step)
            analytic = conditional_mean_phase_derivative(cfg, level)
            assert abs(fd - analytic) <= 1e-6 * abs(analytic)


def test_11_farfield_correlation_properties():
    with criterion(11, "far-field peak value, fringe rate, and map reduction"):
        # bunching peak without a vertically polarized background
        cfg_h = InterferenceConfig(mean_h=0.7, mean_v=0.0, psi=math.pi / 3.0)
        for k in (0.0, 0.004, -0.02):
            assert abs(farfield_g2(cfg_h, k, k) - 2.0) <= 1e-12

        # classical-field oracle oscillates at twice the fringe rate
        cfg = InterferenceConfig(mean_h=1.0, mean_v=0.5, psi=math.pi / 4.0)
        scale = (cfg.slit_width / 8.0) ** 2
        dk = np.linspace(0.0, 4.0 * math.pi / cfg.beta, 129)
        g2 = np.array([classical_envelope_oracle(cfg, scale, float(d), 0.0) for d in dk])
        omega = modulation_frequency(dk, g2)
        assert abs(omega / 2.0 - cfg.beta) / cfg.beta <= 0.02

        # intensity-weighted average over count pairs restores the
        # unconditional correlation
        cfg_map = InterferenceConfig(mean_h=0.6, mean_v=0.4, psi=math.pi / 3.0, zeta=0.9)
        state = ThermalSplitterState(1.0, math.pi / 4.0)
        k1, k2 = -0.001, 0.0015
        delta = k1 - k2
        mean_a, mean_b = state.arm_means
        n_max = 40
        marg_a = pmf(thermal(mean_a), cutoff=n_max).probs
        marg_b = pmf(thermal(mean_b), cutoff=n_max).probs
        total = 0.0
        for n1 in range(1, n_max + 1):
            for n2 in range(1, n_max + 1):
                weight = n1 * n2 * marg_a[n1] * marg_b[n2] / (mean_a * mean_b)
                total += weight * conditional_g2_map(cfg_map, state, n1, n2, k1, k2)
        u = delta / cfg_map.sigma_env
        envelope = (math.sin(u) / u) ** 2
        expected = envelope * (2.0 - cfg_map.zeta * math.sin(cfg_map.beta * delta) ** 2)
        assert abs(total - expected) <= 1e-8
