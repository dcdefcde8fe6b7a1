"""Split thermal correlations, far-field fringes, and vacuum preselection."""

import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from photonstats import (
    AccuracyError,
    ContractError,
    DetectorModel,
    DomainError,
    InterferenceConfig,
    PreselectionNetwork,
    ThermalSplitterState,
    TwoArmDetection,
    arm_a_marginal,
    classical_envelope_oracle,
    conditional_g2_map,
    detected_vacuum_probability,
    farfield_g2,
    farfield_intensity,
    gamma_sum,
    gtilde2_thermal,
    joint_pmf,
    joint_pmf_noisy,
    mode_probabilities,
    modulation_frequency,
    pmf,
    preselection_distribution,
    thermal,
)
from photonstats import coherence
from photonstats.coherence import _detected_vacuum_sum, _envelope_oracle, _gauss_legendre

BALANCED = ThermalSplitterState(1.0, math.pi / 4.0)


class TestJointPmf:
    def test_frozen_values_at_balanced_splitting(self):
        assert joint_pmf(BALANCED, 0, 0) == pytest.approx(0.5, rel=1e-12)
        assert joint_pmf(BALANCED, 1, 0) == pytest.approx(0.125, rel=1e-12)

    def test_symmetric_under_arm_exchange_when_balanced(self):
        for n, m in [(2, 0), (3, 1), (4, 2)]:
            assert joint_pmf(BALANCED, n, m) == pytest.approx(
                joint_pmf(BALANCED, m, n), rel=1e-12
            )

    def test_normalization(self):
        state = ThermalSplitterState(0.7, 0.5)
        total = sum(joint_pmf(state, n, m) for n in range(60) for m in range(60))
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_marginal_is_thermal(self):
        state = ThermalSplitterState(1.3, 0.9)
        mean_a, _ = state.arm_means
        marg = [sum(joint_pmf(state, n, m) for m in range(80)) for n in range(8)]
        ref = pmf(thermal(mean_a), cutoff=7).probs
        assert np.max(np.abs(np.array(marg) - ref)) < 1e-12

    def test_vacuum_state(self):
        state = ThermalSplitterState(0.0, 0.3)
        assert joint_pmf(state, 0, 0) == 1.0
        assert joint_pmf(state, 1, 0) == 0.0

    def test_fully_reflective_splitter(self):
        # cos(pi/2) is not exactly zero in floats; the leak is ~1e-33.
        state = ThermalSplitterState(1.0, math.pi / 2.0)
        assert joint_pmf(state, 1, 0) < 1e-30
        assert joint_pmf(state, 0, 1) > 0.1

    def test_negative_count_rejected(self):
        with pytest.raises(DomainError):
            joint_pmf(BALANCED, -1, 0)


class TestWavepacketCorrelation:
    def test_frozen_values(self):
        assert gtilde2_thermal(BALANCED, 0, 0) == pytest.approx(1.125, rel=1e-12)
        assert gtilde2_thermal(BALANCED, 1, 1) == pytest.approx(1.265625, rel=1e-12)

    def test_equals_joint_over_marginals(self):
        state = ThermalSplitterState(1.6, 0.7)
        mean_a, mean_b = state.arm_means
        pa = pmf(thermal(mean_a), cutoff=12).probs
        pb = pmf(thermal(mean_b), cutoff=12).probs
        for n, m in [(0, 0), (1, 2), (3, 3), (5, 1), (0, 6)]:
            ratio = joint_pmf(state, n, m) / (pa[n] * pb[m])
            assert gtilde2_thermal(state, n, m) == pytest.approx(ratio, rel=1e-12)

    def test_sign_structure(self):
        """Bunched on the diagonal, suppressed for lopsided outcomes."""
        assert gtilde2_thermal(BALANCED, 2, 2) > 1.0
        assert gtilde2_thermal(BALANCED, 3, 0) < 1.0
        assert gtilde2_thermal(BALANCED, 0, 3) < 1.0


FAR = InterferenceConfig(mean_h=1.0, mean_v=0.5, psi=math.pi / 4.0)
SPLIT = ThermalSplitterState(1.3, 0.6)
ARMS = TwoArmDetection(0.7, DetectorModel(0.8, 0.3), DetectorModel(0.6, 0.1))
NET = PreselectionNetwork((0.3, 0.7, 0.4, 0.6, 0.5), 0.9)


def _positions(rng, shape, span):
    return rng.uniform(-span, span, (2, *shape))


def _counts(top, laws=2):
    return lambda rng, shape, span: rng.integers(0, top + 1, (laws, *shape))


# Each law that broadcasts, over its grid arguments, and how they are drawn:
# wavenumbers in ±span, counts and means from the route boxes.
POINT_LAWS = {
    "farfield_intensity": (lambda k1, k2: farfield_intensity(FAR, k1), _positions),
    "farfield_g2": (lambda k1, k2: farfield_g2(FAR, k1, k2), _positions),
    "conditional_g2_map-state": (lambda k1, k2: conditional_g2_map(FAR, BALANCED, 1, 2, k1, k2), _positions),
    "conditional_g2_map-None": (lambda k1, k2: conditional_g2_map(FAR, None, 1, 1, k1, k2), _positions),
    "joint_pmf": (lambda n, m: joint_pmf(SPLIT, n, m), _counts(60)),
    "gtilde2_thermal": (lambda n, m: gtilde2_thermal(SPLIT, n, m), _counts(60)),
    "joint_pmf_noisy": (lambda n, m: joint_pmf_noisy(1.3, ARMS, n, m), _counts(30)),
    "arm_a_marginal": (
        lambda n_t: arm_a_marginal(n_t, ARMS, 3), lambda rng, shape, span: rng.uniform(0.0, 3.0, (1, *shape))
    ),
    "gamma_sum": (gamma_sum, _counts(170, laws=1)),
    "preselection_distribution": (lambda *counts: preselection_distribution(NET, counts), _counts(8, laws=6)),
}


class TestWholeGrids:
    """Each law called on a grid equals its cell-by-cell scalar calls."""

    STATE = ThermalSplitterState(1.3, 0.6)

    def test_joint_pmf_and_gtilde2_on_an_index_grid(self):
        big_n, big_m = np.indices((7, 9))
        for law in (joint_pmf, gtilde2_thermal):
            grid = law(self.STATE, big_n, big_m)
            cells = np.array(
                [[law(self.STATE, n, m) for m in range(9)] for n in range(7)]
            )
            assert grid.shape == (7, 9)
            assert np.array_equal(grid, cells)
            assert type(law(self.STATE, 2, 3)) is np.float64

    @pytest.mark.parametrize("state", [None, STATE])
    def test_conditional_map_on_a_position_grid(self, state):
        cfg = InterferenceConfig(mean_h=0.6, mean_v=0.4, psi=math.pi / 3.0, zeta=0.9)
        ks = np.linspace(-2.0 * math.pi / cfg.beta, 2.0 * math.pi / cfg.beta, 11)
        k1, k2 = np.meshgrid(ks, ks, indexing="ij")
        grid = conditional_g2_map(cfg, state, 2, 1, k1, k2)
        cells = np.array(
            [[conditional_g2_map(cfg, state, 2, 1, float(a), float(b)) for b in ks] for a in ks]
        )
        assert np.array_equal(grid, cells)

    @pytest.mark.parametrize(("law", "draw"), POINT_LAWS.values(), ids=POINT_LAWS)
    @pytest.mark.parametrize(
        ("shape", "span"), [((1,), 1e5), ((2,), 1.0), ((7,), 1e-3), ((33, 33), 1e5), ((4000,), 1e5)],
        ids=["1", "2", "7", "33x33", "4000"],
    )
    def test_a_point_alone_has_its_grid_bits(self, law, draw, shape, span):
        """Seeded arguments: each cell of the grid equals the law at that
        point alone, bit for bit. A square written as ``** 2`` took NumPy's
        scalar pow for the point, 1 ulp off in ~1 of 1000 cells."""
        args = draw(np.random.default_rng(math.prod(shape)), shape, span)
        grid = law(*args)
        cells = np.array([law(*(a[i] for a in args)) for i in np.ndindex(shape)]).reshape(shape)
        assert np.array_equal(grid, cells)

    def test_gamma_sum_on_a_count_grid(self):
        grid = gamma_sum(np.arange(25))
        cells = np.array([gamma_sum(n) for n in range(25)])
        assert np.max(np.abs(grid - cells) / cells) <= 1e-15
        assert type(gamma_sum(3)) is np.float64

    def test_preselection_counts_broadcast(self):
        net = PreselectionNetwork((0.3, 0.7, 0.4, 0.6, 0.5), 0.9)
        counts = (0, 2, np.arange(3)[:, None], 1, np.arange(4), 0)
        grid = preselection_distribution(net, counts)
        cells = np.array(
            [[preselection_distribution(net, (0, 2, a, 1, b, 0)) for b in range(4)]
             for a in range(3)]
        )
        assert grid.shape == (3, 4)
        assert np.max(np.abs(grid - cells) / cells) <= 1e-15
        assert type(preselection_distribution(net, (0, 2, 1, 1, 3, 0))) is np.float64

    def test_envelope_oracle_on_a_separation_grid(self):
        cfg = InterferenceConfig(mean_h=1.0, mean_v=0.5, psi=math.pi / 4.0)
        scale = (cfg.slit_width / 8.0) ** 2
        dks = np.linspace(0.0, 4.0 * math.pi / cfg.beta, 17)
        grid = classical_envelope_oracle(cfg, scale, -dks / 2.0, dks / 2.0)
        cells = np.array(
            [classical_envelope_oracle(cfg, scale, -dk / 2.0, dk / 2.0) for dk in dks]
        )
        assert grid.shape == dks.shape
        assert np.max(np.abs(grid - cells) / cells) <= 1e-15

    def test_envelope_oracle_memory_does_not_grow_with_the_grid(self):
        # The pairs go through the quadrature in fixed-size blocks, so 2000
        # points peak near the 129-point default (they once took 14× more).
        cfg = InterferenceConfig(mean_h=1.0, mean_v=0.5, psi=math.pi / 4.0)
        scale = (cfg.slit_width / 8.0) ** 2
        peaks = []
        for count in (129, 2000):
            dks = np.linspace(0.0, 4.0 * math.pi / cfg.beta, count)
            tracemalloc.start()
            try:
                classical_envelope_oracle(cfg, scale, -dks / 2.0, dks / 2.0)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 2 * peaks[0], peaks

    @pytest.mark.parametrize(
        "counts", [np.array([0, 3, -1]), np.array([1.0, 2.0]), np.array([True, False])]
    )
    def test_a_bad_count_inside_an_array_is_rejected(self, counts):
        cfg = InterferenceConfig(mean_h=0.6, mean_v=0.4, psi=0.3)
        for call in (
            lambda: joint_pmf(self.STATE, counts, 0),
            lambda: gtilde2_thermal(self.STATE, 1, counts),
            lambda: conditional_g2_map(cfg, self.STATE, counts, 0, 0.0, 0.0),
        ):
            with pytest.raises(DomainError):
                call()

    def test_an_empty_list_is_an_empty_grid(self):
        for empty in ([], (), np.array([], dtype=int)):
            assert joint_pmf(self.STATE, empty, 1).shape == (0,)
        for bad in ([1.5], [-1]):
            with pytest.raises(DomainError, match="big_n"):
                joint_pmf(self.STATE, bad, 1)

    def test_preselection_rejects_a_bad_count_among_six(self):
        net = PreselectionNetwork((0.3, 0.7, 0.4, 0.6, 0.5), 0.5)
        for counts in ((0, 1, 2, -1, 0, 0), (0, 1, 2, 1.0, 0, 0)):
            with pytest.raises(DomainError):
                preselection_distribution(net, counts)


class TestFarField:
    def make_cfg(self, **kw):
        base = dict(mean_h=0.4, mean_v=0.2, psi=math.pi / 4.0)
        base.update(kw)
        return InterferenceConfig(**base)

    def test_derived_scales(self):
        cfg = self.make_cfg()
        assert cfg.beta == pytest.approx(
            math.pi * cfg.slit_separation / (cfg.wavelength * cfg.distance)
        )
        assert cfg.alpha == pytest.approx(
            cfg.wavelength * cfg.distance / (math.pi * cfg.slit_width)
        )

    def test_central_intensity(self):
        cfg = self.make_cfg(gamma_fringe=1.0)
        # envelope 1, fringe maximal: n̄_V + 2 n̄_H
        assert farfield_intensity(cfg, 0.0) == pytest.approx(1.0, rel=1e-12)

    def test_fringe_visibility_tracks_polarized_fraction(self):
        cfg = self.make_cfg(gamma_fringe=1.0)
        period = math.pi / cfg.beta
        k = np.linspace(-period / 2.0, period / 2.0, 4001)
        intensity = farfield_intensity(cfg, k)
        hi, lo = intensity.max(), intensity.min()
        expected = cfg.mean_h / (cfg.mean_h + cfg.mean_v)
        assert (hi - lo) / (hi + lo) == pytest.approx(expected, rel=1e-3)

    @pytest.mark.parametrize("gamma", [0.25, 0.5, 0.75])
    def test_fringe_visibility_scales_with_coherence(self, gamma):
        """With the slit's sinc² divided out, the fringe over one period,
        from its crest at k = 0 to its troughs at ±π/2β, has visibility
        γ n̄_H / (n̄_H + n̄_V)."""
        cfg = self.make_cfg(gamma_fringe=gamma)
        period = math.pi / cfg.beta
        k = np.linspace(-period / 2.0, period / 2.0, 4001)
        fringe = farfield_intensity(cfg, k) / np.sinc(k / (math.pi * cfg.alpha)) ** 2
        hi, lo = fringe.max(), fringe.min()
        expected = gamma * cfg.mean_h / (cfg.mean_h + cfg.mean_v)
        assert (hi - lo) / (hi + lo) == pytest.approx(expected, rel=1e-12)

    def test_incoherent_field_is_the_bare_envelope(self):
        """γ = 0 leaves no fringe: the intensity is the slit's sinc² times
        n̄_H + n̄_V at every k."""
        cfg = self.make_cfg(gamma_fringe=0.0)
        k = np.linspace(-4.0 * cfg.alpha, 4.0 * cfg.alpha, 1001)
        envelope = np.sinc(k / (math.pi * cfg.alpha)) ** 2
        got = farfield_intensity(cfg, k)
        assert np.allclose(got, (cfg.mean_h + cfg.mean_v) * envelope, rtol=0.0, atol=1e-15)

    def test_g2_peak_without_vertical_background(self):
        cfg = self.make_cfg(mean_v=0.0)
        assert farfield_g2(cfg, 0.01, 0.01) == 2.0

    def test_g2_quarter_period_dip(self):
        cfg = self.make_cfg(mean_v=0.0)
        dk = math.pi / (2.0 * cfg.beta)
        assert farfield_g2(cfg, dk, 0.0) == pytest.approx(1.0, rel=1e-12)

    def test_g2_never_drops_below_one(self):
        cfg = self.make_cfg()
        dk = np.linspace(0.0, 4.0 * math.pi / cfg.beta, 301)
        vals = farfield_g2(cfg, dk, np.zeros_like(dk))
        assert vals.min() >= 1.0

    def test_g2_without_photons_rejected(self):
        cfg = self.make_cfg(mean_h=0.0, mean_v=0.0)
        with pytest.raises(DomainError):
            farfield_g2(cfg, 0.0, 0.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        ("law", "args", "names"),
        [
            (farfield_intensity, (3e307,), "2β·k"),
            (farfield_g2, (3e307, 0.0), "β(k1 − k2)"),
            (farfield_g2, (1e308, -1e308), "β(k1 − k2)"),  # k1 − k2 itself overflows
            (conditional_g2_map, (BALANCED, 1, 1, 3e307, 0.0), "k1 − k2"),
            (conditional_g2_map, (None, 1, 1, 3e307, 0.0), "2β·k1"),
        ],
    )
    def test_a_phase_that_overflows_is_refused_by_name(self, law, args, names):
        # β ≈ 36.45 at the CLI defaults, so 2βk overflows from |k| ≈ 2.5e306;
        # a cosine of it would be NaN
        cfg = InterferenceConfig(mean_h=1.0, mean_v=0.5, psi=math.pi / 4.0)
        with pytest.raises(DomainError, match=f"{re.escape(names)}.* overflows a float"):
            law(cfg, *args)

    def test_invalid_config_rejected(self):
        with pytest.raises(DomainError):
            self.make_cfg(mean_h=-0.1)
        with pytest.raises(DomainError):
            self.make_cfg(gamma_fringe=1.5)
        with pytest.raises(DomainError):
            self.make_cfg(slit_width=0.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "geometry",
        [
            dict(wavelength=1e-200, distance=1e-200),  # λD underflows to 0
            dict(wavelength=1e200, distance=1e200),  # λD overflows
            dict(slit_separation=1e300, wavelength=1e-300),  # β overflows
            dict(slit_separation=1e-300, wavelength=1e100, distance=1e100),  # β underflows to 0
            dict(slit_width=1e-10, wavelength=1e200, distance=1e100),  # α overflows
            dict(slit_separation=1e-310, slit_width=1.0, wavelength=5e-324),  # α underflows to 0
        ],
    )
    def test_a_scale_that_is_zero_or_not_finite_is_refused_by_name(self, geometry):
        # the laws divide by λD, β and α: accepted, such a config raised a bare
        # ZeroDivisionError or a divide-by-zero RuntimeWarning in them
        with pytest.raises(DomainError, match=r"^wavelength = \S+ and distance = \S+ give λD = "):
            self.make_cfg(**geometry)


class TestConditionalMap:
    def make_cfg(self, **kw):
        base = dict(mean_h=0.6, mean_v=0.4, psi=math.pi / 3.0, zeta=0.9)
        base.update(kw)
        return InterferenceConfig(**base)

    def test_coincident_points_reduce_to_wavepacket_correlation(self):
        cfg = self.make_cfg()
        state = ThermalSplitterState(1.0, math.pi / 4.0)
        for n1, n2 in [(0, 0), (1, 1), (2, 0)]:
            assert conditional_g2_map(cfg, state, n1, n2, 0.02, 0.02) == pytest.approx(
                gtilde2_thermal(state, n1, n2), rel=1e-12
            )

    def test_quarter_period_keeps_residual_modulation(self):
        cfg = self.make_cfg(envelope_width=1e9)  # flatten the envelope
        state = ThermalSplitterState(1.0, math.pi / 4.0)
        dk = math.pi / (2.0 * cfg.beta)
        g_th = gtilde2_thermal(state, 1, 1)
        expected = 1.0 + (1.0 - cfg.zeta) * (g_th - 1.0)
        assert conditional_g2_map(cfg, state, 1, 1, dk, 0.0) == pytest.approx(
            expected, rel=1e-9
        )

    def test_default_state_read_from_intensities(self):
        cfg = self.make_cfg()
        k1, k2 = -0.001, 0.0015
        mean_a = farfield_intensity(cfg, k1)
        mean_b = farfield_intensity(cfg, k2)
        state = ThermalSplitterState(
            mean_a + mean_b, math.atan2(math.sqrt(mean_b), math.sqrt(mean_a))
        )
        assert conditional_g2_map(cfg, None, 2, 1, k1, k2) == pytest.approx(
            conditional_g2_map(cfg, state, 2, 1, k1, k2), rel=1e-12
        )

    def test_envelope_offset_shifts_the_peak(self):
        state = ThermalSplitterState(1.0, math.pi / 4.0)
        shift = 0.005
        plain = self.make_cfg()
        shifted = self.make_cfg(envelope_offset=shift)
        dk = 0.012
        assert conditional_g2_map(shifted, state, 0, 0, dk - shift, 0.0) != pytest.approx(
            conditional_g2_map(plain, state, 0, 0, dk - shift, 0.0), rel=1e-6
        )


class TestClassicalOracle:
    def test_zero_separation_gives_full_bunching(self):
        cfg = InterferenceConfig(mean_h=0.6, mean_v=0.4, psi=math.pi / 3.0)
        scale = (cfg.slit_width / 8.0) ** 2
        assert classical_envelope_oracle(cfg, scale, 0.0, 0.0) == pytest.approx(
            2.0, rel=1e-9
        )

    def test_oscillates_at_twice_the_fringe_rate(self):
        cfg = InterferenceConfig(mean_h=0.6, mean_v=0.4, psi=math.pi / 3.0)
        scale = (cfg.slit_width / 8.0) ** 2
        period = math.pi / cfg.beta
        dk = np.linspace(0.0, 2.0 * period, 65)
        vals = np.array([classical_envelope_oracle(cfg, scale, d, 0.0) for d in dk])
        omega = modulation_frequency(dk, vals)
        assert omega / 2.0 == pytest.approx(cfg.beta, rel=0.02)

    def test_invalid_coherence_scale_rejected(self):
        cfg = InterferenceConfig(mean_h=0.5, mean_v=0.5, psi=0.4)
        with pytest.raises(DomainError):
            classical_envelope_oracle(cfg, 0.0, 0.0, 0.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        ("k1", "k2", "name"),
        [(1e308, -1e308, "k1"), (0.0, -1e308, "k2"), (np.array([0.0, 3e301]), 0.0, "k1")],
    )
    def test_a_wavenumber_that_overflows_is_refused_by_name(self, k1, k2, name):
        # κ = 2π/(λD) ≈ 8.06e6 at the CLI defaults, so κk overflows past
        # |k| ≈ 2.2e301: refused before any quadrature, with no RuntimeWarning
        cfg = InterferenceConfig(mean_h=1.0, mean_v=0.5, psi=math.pi / 4.0)
        scale = (cfg.slit_width / 8.0) ** 2
        before = coherence._slit_kernel.cache_info()
        with pytest.raises(DomainError, match=rf"^{name} = \S+: its slit-plane wavenumber"):
            classical_envelope_oracle(cfg, scale, k1, k2)
        after = coherence._slit_kernel.cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses)

    @pytest.mark.parametrize("k", [math.nan, math.inf, -math.inf])
    def test_non_finite_k_rejected(self, k):
        cfg = InterferenceConfig(mean_h=0.5, mean_v=0.5, psi=0.4)
        scale = (cfg.slit_width / 8.0) ** 2
        with pytest.raises(DomainError, match="finite"):
            classical_envelope_oracle(cfg, scale, np.array([0.0, k]), 0.0)


def _two_slit_integrals(cfg, coherence_scale, k_a, k_b, order):
    """Textbook twin of `coherence._slit_integral`: each slit integrated where
    it sits, q_j(k_a, k_b) = ∫∫_slit_j exp(iκ(k_b x' − k_a x)) exp(−(x−x')²/s)
    dx dx' / w², for the photonic slit at +d/2 (column 0) and the plasmonic
    one at −d/2 (column 1)."""
    nodes, weights = _gauss_legendre(order)
    half = cfg.slit_width / 2.0
    kappa = 2.0 * math.pi / (cfg.wavelength * cfg.distance)
    out = np.empty((k_a.size, 2), dtype=complex)
    for j, center in enumerate((cfg.slit_separation / 2.0, -cfg.slit_separation / 2.0)):
        x = center + half * nodes
        diff = x[:, None] - x[None, :]
        kernel = np.exp(-(diff * diff) / coherence_scale)
        u = weights * np.exp(-1j * kappa * k_a[:, None] * x)
        v = weights * np.exp(1j * kappa * k_b[:, None] * x)
        out[:, j] = ((u @ kernel) * v).sum(axis=1) * 0.25
    return out


def _two_slit_oracle(cfg, coherence_scale, k1, k2):
    """The envelope oracle from the two slit integrals: the order doubles from
    64 until both are stable to 1e-6 relative. Returns g2 and that order."""
    c2 = math.cos(cfg.polarization_angle) ** 2
    slit_weights = np.array([c2 * math.cos(cfg.psi) ** 2 + 1.0 - c2, c2 * math.sin(cfg.psi) ** 2])
    k1, k2 = np.broadcast_arrays(np.asarray(k1, dtype=float), np.asarray(k2, dtype=float))
    k_a = np.concatenate((k1, k1, k2), axis=None)
    k_b = np.concatenate((k2, k1, k2), axis=None)
    order = 64
    prev = _two_slit_integrals(cfg, coherence_scale, k_a, k_b, order)
    while True:
        order *= 2
        assert order <= 1024
        cur = _two_slit_integrals(cfg, coherence_scale, k_a, k_b, order)
        if np.all(np.abs(cur - prev) <= 1e-6 * np.abs(prev)):
            break
        prev = cur
    cross, auto1, auto2 = (cur @ slit_weights).reshape(3, -1)
    return 1.0 + np.abs(cross) ** 2 / (auto1.real * auto2.real), order


class TestCentredSlit:
    """The oracle integrates one centred slit and gives each slit's position
    as an exact phase; the twin integrates both slits where they sit."""

    def test_the_cli_grid_matches_the_two_slit_twin(self):
        cfg = InterferenceConfig(mean_h=1.0, mean_v=0.5, psi=math.pi / 4.0)
        scale = (cfg.slit_width / 8.0) ** 2
        dks = np.linspace(0.0, 4.0 * math.pi / cfg.beta, 129)
        got, order = _envelope_oracle(cfg, scale, -dks / 2.0, dks / 2.0)
        want, twin_order = _two_slit_oracle(cfg, scale, -dks / 2.0, dks / 2.0)
        assert order == twin_order == 128
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)

    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(
        mean_h=st.floats(0.0, 2.0),
        mean_v=st.floats(0.0, 2.0),
        psi=st.floats(0.0, math.pi / 2.0),
        separation=st.floats(2e-6, 2e-5),
        width=st.floats(1e-7, 1e-6),
        coherence=st.floats(0.1, 3.0),
        k1=st.lists(st.floats(-3.0, 3.0), min_size=8, max_size=8),
        k2=st.lists(st.floats(-3.0, 3.0), min_size=8, max_size=8),
    )
    def test_asymmetric_pairs_match_the_two_slit_twin(
        self, mean_h, mean_v, psi, separation, width, coherence, k1, k2
    ):
        assume(mean_h + mean_v > 0.0)
        cfg = InterferenceConfig(mean_h, mean_v, psi, slit_separation=separation, slit_width=width)
        # positions in fringe periods, drawn apart so that, unlike on the CLI
        # grid, k₁ + k₂ ≠ 0
        k1, k2 = np.array(k1) * math.pi / cfg.beta, np.array(k2) * math.pi / cfg.beta
        assume(np.all(k1 + k2 != 0.0))
        scale = (coherence * width) ** 2
        got, order = _envelope_oracle(cfg, scale, k1, k2)
        want, twin_order = _two_slit_oracle(cfg, scale, k1, k2)
        assert order == twin_order
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("length", [1.0 / 8.0, 1.0 / 2.0, 2.0])
    def test_zero_wavenumber_integral_has_a_closed_form(self, length):
        # ∫∫ over [0, L]² of exp(−(x−x')²/s) is L√(πs)·erf(L/√s) − s(1 − e^(−L²/s)),
        # here with L = w and s = (length·w)²
        w = InterferenceConfig(1.0, 0.5, 0.0).slit_width
        s = (length * w) ** 2
        closed = w * math.sqrt(math.pi * s) * math.erf(w / math.sqrt(s)) - s * (1.0 - math.exp(-w * w / s))
        closed /= w**2
        zero = np.zeros(1)
        for order in (64, 128, 256, 512, 1024):
            # both autos and the cross term are the same integral at p = 0
            q = coherence._slit_integral(w, s, zero, zero, (order,)).ravel()
            assert q.dtype == np.float64  # real by the slit's symmetry
            assert np.all(np.abs(q - closed) <= 1e-12 * closed), order
        # the first pass's two orders are those orders' own passes, bit for bit
        both = coherence._slit_integral(w, s, zero, zero, (64, 128))
        alone = [coherence._slit_integral(w, s, zero, zero, (order,))[0] for order in (64, 128)]
        assert np.array_equal(both, alone)

    def test_the_oracle_never_reads_beta(self):
        # a fault in beta must still fail the fringe checks, so the oracle
        # builds its slit phase from d, λ and D alone
        class NoBeta(InterferenceConfig):
            @property
            def beta(self):
                raise AssertionError("the envelope oracle read cfg.beta")

        plain = InterferenceConfig(mean_h=1.0, mean_v=0.5, psi=math.pi / 4.0)
        scale = (plain.slit_width / 8.0) ** 2
        dks = np.linspace(0.0, 4.0 * math.pi / plain.beta, 9)
        no_beta = NoBeta(mean_h=1.0, mean_v=0.5, psi=math.pi / 4.0)
        got = classical_envelope_oracle(no_beta, scale, -dks / 2.0, dks / 2.0)
        assert np.array_equal(got, classical_envelope_oracle(plain, scale, -dks / 2.0, dks / 2.0))


class TestGaussLegendreCache:
    """The envelope oracle reads its quadrature rules from a per-order cache."""

    CFG = InterferenceConfig(mean_h=1.0, mean_v=0.5, psi=math.pi / 4.0)  # the CLI defaults

    def cli_grid(self):
        dks = np.linspace(0.0, 4.0 * math.pi / self.CFG.beta, 129)
        return dks, (self.CFG.slit_width / 8.0) ** 2

    def test_cached_rules_are_read_only(self):
        for order in (64, 128):
            nodes, weights = _gauss_legendre(order)
            assert nodes.shape == weights.shape == (order,)
            for arr in (nodes, weights):
                with pytest.raises(ValueError, match="read-only"):
                    arr[0] = 0.0

    def test_the_cli_grid_equals_its_per_point_calls_bit_for_bit(self):
        dks, scale = self.cli_grid()
        grid, order = _envelope_oracle(self.CFG, scale, -dks / 2.0, dks / 2.0)
        cells = np.array([classical_envelope_oracle(self.CFG, scale, -dk / 2.0, dk / 2.0) for dk in dks])
        assert order == 128
        assert np.array_equal(grid, cells)

    def test_each_order_is_built_once_per_process(self, monkeypatch):
        built = []
        roots = coherence.special.roots_legendre

        def counted(order):
            built.append(order)
            return roots(order)

        monkeypatch.setattr(coherence.special, "roots_legendre", counted)
        # the caches built on the rules go too, so that the rules are asked for
        for cache in (_gauss_legendre, coherence._half_rules, coherence._slit_kernel):
            cache.cache_clear()
        dks, scale = self.cli_grid()
        for _ in range(2):
            classical_envelope_oracle(self.CFG, scale, -dks / 2.0, dks / 2.0)
            for dk in dks[:5]:
                classical_envelope_oracle(self.CFG, scale, -dk / 2.0, dk / 2.0)
        assert sorted(built) == [64, 128]


class TestSlitKernelCache:
    """The envelope oracle reads each slit kernel from a bounded cache keyed
    by (slit width, coherence scale, order)."""

    CFG = TestGaussLegendreCache.CFG

    def setup_method(self):
        coherence._slit_kernel.cache_clear()

    def cli_grid(self):
        dks = np.linspace(0.0, 4.0 * math.pi / self.CFG.beta, 129)
        return dks, (self.CFG.slit_width / 8.0) ** 2

    def test_cached_kernel_is_read_only(self):
        dks, scale = self.cli_grid()
        classical_envelope_oracle(self.CFG, scale, -dks / 2.0, dks / 2.0)
        for order in (64, 128):
            kernel = coherence._slit_kernel(self.CFG.slit_width, scale, order)
            # [K₊, K₋] over the order/2 nodes u > 0, each block symmetric
            assert kernel.shape == (2, order // 2, order // 2)
            assert np.array_equal(kernel, kernel.transpose(0, 2, 1))
            with pytest.raises(ValueError, match="read-only"):
                kernel[0, 0] = 0.0

    def test_alternating_scales_equal_cold_calls_bit_for_bit(self):
        # s₁, s₂, s₁: a stale key would hand s₂'s kernel to the last call
        dks, base = self.cli_grid()
        cold = {}
        for scale in (base, 4.0 * base):
            coherence._slit_kernel.cache_clear()
            cold[scale] = _envelope_oracle(self.CFG, scale, -dks / 2.0, dks / 2.0)[0]
        coherence._slit_kernel.cache_clear()
        for scale in (base, 4.0 * base, base):
            warm = _envelope_oracle(self.CFG, scale, -dks / 2.0, dks / 2.0)[0]
            assert np.array_equal(warm, cold[scale])
        assert not np.array_equal(cold[base], cold[4.0 * base])

    def test_each_kernel_is_built_once_per_process(self):
        dks, scale = self.cli_grid()
        for _ in range(2):
            grid = classical_envelope_oracle(self.CFG, scale, -dks / 2.0, dks / 2.0)
            cells = [classical_envelope_oracle(self.CFG, scale, -dk / 2.0, dk / 2.0) for dk in dks]
            # a caller looping over Δk gets the grid call's values bit for bit
            assert np.array_equal(cells, grid)
        info = coherence._slit_kernel.cache_info()
        assert info.misses == 2  # orders 64 and 128, once each
        assert info.hits == 2 * 2 * (1 + dks.size) - 2

    def test_a_sweep_over_scales_keeps_at_most_five_kernels(self):
        w = self.CFG.slit_width
        for length in np.linspace(0.1, 2.0, 20):
            classical_envelope_oracle(self.CFG, (length * w) ** 2, 0.0, 1.0 / self.CFG.beta)
        info = coherence._slit_kernel.cache_info()
        assert info.misses >= 20
        assert info.currsize <= 5

    @pytest.mark.filterwarnings("error")
    def test_a_subnormal_scale_fails_by_name_without_a_warning(self):
        # (u−u')²/s overflows to inf, so each kernel entry off the diagonal
        # is exactly 0; the quadrature then cannot settle
        with pytest.raises(AccuracyError, match="did not stabilize by order 1024"):
            classical_envelope_oracle(self.CFG, 5e-324, 0.0, 0.0)


class TestModulationFrequency:
    def test_recovers_known_cosine(self):
        x = np.linspace(0.0, 40.0, 512)
        y = 1.7 + 0.3 * np.cos(5.0 * x + 0.2)
        assert modulation_frequency(x, y) == pytest.approx(5.0, rel=1e-3)

    @pytest.mark.parametrize("stop", [0.0, -40.0, math.nan])
    def test_grid_step_must_be_finite_and_positive(self, stop):
        x = np.linspace(0.0, stop, 512)
        with pytest.raises(ContractError, match="step"):
            modulation_frequency(x, np.cos(np.arange(512.0)))

    @pytest.mark.parametrize("as_text", [
        lambda x: x.astype(str),
        lambda x: [str(v) for v in x],
        lambda x: np.full(x.shape, "fringe"),
    ], ids=["numeric-array", "numeric-list", "non-numeric"])
    def test_a_grid_of_strings_is_refused(self, as_text):
        x = np.linspace(0.0, 40.0, 512)
        with pytest.raises(DomainError, match="^x must be a finite real"):
            modulation_frequency(as_text(x), np.cos(5.0 * x))

    def test_survives_a_linear_trend(self):
        x = np.linspace(0.0, 40.0, 512)
        y = 0.05 * x + np.cos(3.0 * x)
        assert modulation_frequency(x, y) == pytest.approx(3.0, rel=1e-3)

    @pytest.mark.parametrize("step", [5e-324, 1e-300, 1e-200, 6.25e298])
    def test_extreme_steps_warn_nothing(self, step):
        """The trend is fitted against the sample index, so no power of the
        step is formed: ω·step is the frequency per sample, or a ContractError
        names x where ω overflows."""
        x = np.arange(129) * step
        y = np.cos(0.7 * np.arange(129))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if 0.7 / step == math.inf:
                with pytest.raises(ContractError, match="^x grid step"):
                    modulation_frequency(x, y)
            else:
                assert modulation_frequency(x, y) * step == pytest.approx(0.7, rel=1e-2)

    def test_nonuniform_grid_rejected(self):
        x = np.array([0.0, 0.1, 0.25, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0])
        with pytest.raises(ContractError):
            modulation_frequency(x, np.cos(x))

    def test_too_few_samples_rejected(self):
        x = np.linspace(0.0, 1.0, 5)
        with pytest.raises(ContractError):
            modulation_frequency(x, np.cos(x))


NET = PreselectionNetwork((0.5, 0.8, 0.3, 0.4, 0.6), mean=0.9)


class TestPreselection:
    def test_mode_probabilities_sum_to_one(self):
        assert sum(mode_probabilities(NET)) == pytest.approx(1.0, rel=1e-12)

    def test_first_mode_formula(self):
        t1, _, _, t4, _ = NET.angles
        assert mode_probabilities(NET)[0] == pytest.approx(
            (math.sin(t1) * math.cos(t4)) ** 2, rel=1e-12
        )

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 10, 20, 170])
    def test_gamma_sum_collapses_to_factorial(self, n):
        assert gamma_sum(n) == pytest.approx(math.factorial(n), rel=1e-9)

    def test_gamma_sum_rejects_negative(self):
        with pytest.raises(DomainError):
            gamma_sum(-1)

    @pytest.mark.parametrize("n", [171, [3, 171], np.array([[0], [200]])])
    def test_gamma_sum_refuses_a_factorial_past_the_float_range_by_name(self, n):
        # 171! passes the largest float: a DomainError, never exp's overflow warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=r"^n \d+ is past 170"):
                gamma_sum(n)

    @pytest.mark.parametrize("counts", [(171, 0, 0, 0, 0, 0), (100, 71, 0, 0, 0, 0), (30, 40, 50, 60, 70, 80)])
    def test_a_total_past_170_is_the_finite_factored_law(self, counts):
        """BE(n)·multinomial at 40 digits; a Γ-sum of n! would overflow past 170."""
        mpmath = pytest.importorskip("mpmath")
        probs = mode_probabilities(NET)
        with mpmath.workdps(40):
            n, mean = sum(counts), mpmath.mpf(NET.mean)
            ref = mean**n / (1 + mean) ** (n + 1) * mpmath.factorial(n)
            for c, p in zip(counts, probs):
                ref *= mpmath.mpf(p) ** c / mpmath.factorial(c)
        got = preselection_distribution(NET, counts)
        assert math.isfinite(got) and got > 0.0
        assert got == pytest.approx(float(ref), rel=1e-12)

    def test_fixed_total_sums_to_thermal_weight(self):
        """Summed over all ways to distribute n photons, the joint law gives
        back the Bose-Einstein weight of n."""
        n = 3
        placements = np.array(list(_compositions(n, 6))).T
        total = preselection_distribution(NET, placements).sum()
        n_bar = NET.mean
        expected = n_bar**n / (1.0 + n_bar) ** (n + 1)
        assert total == pytest.approx(expected, rel=1e-9)

    def test_wrong_count_arity_rejected(self):
        with pytest.raises(ContractError):
            preselection_distribution(NET, (0, 0, 0))

    def test_detected_vacuum_matches_closed_form(self):
        probs = mode_probabilities(NET)
        loss = sum(probs[3:])
        expected = 1.0 / (1.0 + NET.mean * (1.0 - loss))
        assert detected_vacuum_probability(NET) == pytest.approx(expected, rel=1e-6)

    def test_lossless_network_has_plain_thermal_vacuum(self):
        net = PreselectionNetwork((0.5, 0.8, 0.0, 0.0, 0.0), mean=0.9)
        assert detected_vacuum_probability(net) == pytest.approx(
            1.0 / 1.9, rel=1e-9
        )

    def test_loss_raises_the_conditioned_vacuum_rate(self):
        assert detected_vacuum_probability(NET) > 1.0 / (1.0 + NET.mean)

    @pytest.mark.parametrize(
        "net", [NET, PreselectionNetwork((0.3, 0.7, 0.4, 0.6, 0.5), mean=0.3)]
    )
    def test_closed_form_vacuum_matches_the_truncated_sum(self, net):
        oracle = _detected_vacuum_sum(net)
        assert abs(detected_vacuum_probability(net) - oracle) <= 1e-9 * oracle


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head, *rest)
