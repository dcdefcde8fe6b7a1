"""One rule for real arguments: a Python or NumPy integer or float, never a
bool, a string or None, finite and in the parameter's range, taken as a Python
float (a float64 array where a law broadcasts); anything else raises
DomainError naming the parameter. The twin of test_integer_args.py."""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photonstats import (
    DetectorModel,
    InterferenceConfig,
    PreselectionNetwork,
    ScatterConfig,
    SensingMatrix,
    SensingScene,
    SourceSpec,
    SplitterNetwork,
    ThermalSplitterState,
    TwoArmDetection,
    arm_a_marginal,
    binary_phantom,
    binomial_thin,
    classical_envelope_oracle,
    coherent,
    conditional_g2_map,
    cs_reconstruct,
    default_cutoff,
    detected_pmf,
    detected_vacuum_probability,
    empirical_g2,
    farfield_g2,
    farfield_intensity,
    g2_vs_angle,
    image_snr,
    joint_pmf,
    joint_pmf_noisy,
    modulation_frequency,
    p_function_convolution_check,
    pmf,
    random_sensing_matrix,
    scale_scene_to_projection,
    snr_post,
    snr_sub,
    split_and_detect,
    thermal,
    tv_prox,
)
from photonstats.errors import DomainError, _real
from photonstats.sensing import conditional_state_pmf, preset, subtracted_pmf

HALF_PI = math.pi / 2.0
DET = DetectorModel(0.55, 0.3)
ARMS = TwoArmDetection(math.pi / 4.0, DET, DET)
SCENE = binary_phantom(8, 8)
SCENE_MASKS = random_sensing_matrix(4, 64, seed=2)
MASKS = random_sensing_matrix(3, 16, seed=0)
PAIR = (DetectorModel(), DetectorModel())


def fringe(**fields) -> InterferenceConfig:
    return InterferenceConfig(**{"mean_h": 0.6, "mean_v": 0.4, "psi": 0.3, **fields})


def arm_a_behind(det: DetectorModel) -> TwoArmDetection:
    return TwoArmDetection(math.pi / 4.0, det, DET)


def fringe_map(**fields):
    """A conditional map that reads every field of the interference config."""
    return conditional_g2_map(fringe(**fields), None, 1, 2, 1e-6, 3e-6)


SCALE = (200e-9 / 8.0) ** 2
K_GRID = np.array([-2e-6, 0.0, 1e-6, 5e-6])
WAVE_X = np.linspace(0.0, 40.0, 64)

# (call taking the real under test, parameter name, (low, high, strict),
#  a value in range, an integer in range or None)
NONNEG = (0, math.inf, False)
POSITIVE = (0, math.inf, True)
UNIT = (0, 1, False)
ANY = (-math.inf, math.inf, False)
TABLE = [
    (lambda v: pmf(coherent(v)), "mean", NONNEG, 2.5, 3),
    (lambda v: pmf(thermal(v)), "mean", NONNEG, 0.7, 1),
    (lambda v: SourceSpec("thermal", v), "mean", NONNEG, 0.7, 2),
    (lambda v: default_cutoff(v), "mean_total", NONNEG, 2.5, 3),
    (lambda v: pmf(thermal(1.0), tail_target=v), "tail_target", NONNEG, 1e-3, 1),
    (lambda v: binomial_thin(pmf(thermal(1.0)), v), "efficiency", UNIT, 0.55, 1),
    (lambda v: joint_pmf(ThermalSplitterState(v, math.pi / 4.0), 2, 3), "mean_total", NONNEG, 0.8, 2),
    (lambda v: joint_pmf(ThermalSplitterState(1.0, v), 2, 3), "split_angle", (0, HALF_PI, False), 0.7, 1),
    (lambda v: fringe_map(mean_h=v), "mean_h", NONNEG, 0.6, 1),
    (lambda v: fringe_map(mean_v=v), "mean_v", NONNEG, 0.4, 1),
    (lambda v: fringe_map(psi=v), "psi", ANY, 0.3, -2),
    (lambda v: fringe_map(slit_separation=v), "slit_separation", POSITIVE, 9.05e-6, None),
    (lambda v: fringe_map(slit_width=v), "slit_width", POSITIVE, 200e-9, None),
    (lambda v: fringe_map(distance=v), "distance", POSITIVE, 1.3, 1),
    (lambda v: fringe_map(wavelength=v), "wavelength", POSITIVE, 780e-9, None),
    (lambda v: fringe_map(gamma_fringe=v), "gamma_fringe", UNIT, 0.8, 1),
    (lambda v: fringe_map(zeta=v), "zeta", UNIT, 0.9, 0),
    (lambda v: fringe_map(envelope_width=v), "envelope_width", POSITIVE, 1e-5, None),
    (lambda v: fringe_map(envelope_offset=v), "envelope_offset", ANY, 1e-6, 0),
    (lambda v: classical_envelope_oracle(fringe(), v, 0.0, 1e-6), "coherence_scale", POSITIVE, SCALE, None),
    (
        lambda v: detected_vacuum_probability(PreselectionNetwork((0.3, 0.7, v, 0.6, 0.5), 0.3)),
        "angles[2]", (0, HALF_PI, False), 0.4, 1,
    ),
    (lambda v: detected_vacuum_probability(PreselectionNetwork((0.3, 0.7, 0.4, 0.6, 0.5), v)), "mean", NONNEG, 0.3, 2),
    (lambda v: snr_sub(0.8, TwoArmDetection(v, DET, DET), 2), "theta_split", (0, HALF_PI, False), 0.7, 1),
    (lambda v: random_sensing_matrix(3, 16, v, seed=1), "fill_fraction", (0, 1, True), 0.3, None),
    (lambda v: scale_scene_to_projection(SCENE, SCENE_MASKS, v), "target_mean", NONNEG, 0.8, 2),
    (lambda v: joint_pmf_noisy(v, ARMS, np.arange(4), 2), "n_t", NONNEG, 0.8, 1),
    (lambda v: arm_a_marginal(v, ARMS, 2), "n_t", NONNEG, 0.8, 1),
    (lambda v: snr_post(v, ARMS, 2), "n_t", NONNEG, 0.8, 1),
    (lambda v: snr_sub(v, ARMS, 2), "n_t", NONNEG, 0.8, 1),
    (lambda v: tv_prox(np.arange(16.0).reshape(4, 4), v, 3), "weight", NONNEG, 0.3, 2),
    (lambda v: cs_reconstruct(MASKS, np.ones(3), mu=v, max_iter=4), "mu", POSITIVE, 10.0, 3),
    (lambda v: cs_reconstruct(MASKS, np.ones(3), tol=v, max_iter=4), "tol", NONNEG, 0.02, 0),
    (lambda v: split_and_detect(np.array([3, 5, 0, 2]), SplitterNetwork((v, 0.3)), PAIR, 3),
     "routing_probs[0]", UNIT, 0.55, 0),
    (lambda v: snr_sub(0.8, arm_a_behind(DetectorModel(v, 0.3)), 2), "efficiency", UNIT, 0.55, 1),
    (lambda v: snr_sub(0.8, arm_a_behind(DetectorModel(0.55, v)), 2), "dark_rate", NONNEG, 0.3, 2),
    (lambda v: detected_pmf(ScatterConfig(1.0, v, 45.0)), "mean_plasmon", NONNEG, 1.0 / 3.0, 1),
    (lambda v: detected_pmf(ScatterConfig(v, 0.5, 45.0)), "mean_source", NONNEG, 1.0, 2),
    (lambda v: detected_pmf(ScatterConfig(1.0, 0.5, v)), "theta_deg", (0, 90, False), 45.0, 30),
    (lambda v: detected_pmf(ScatterConfig(1.0, 0.5, 45.0), tail_target=v), "tail_target", NONNEG, 1e-3, 1),
    (lambda v: g2_vs_angle(v, 0.3, [0.0, 45.0]), "mean_source", NONNEG, 1.0, 2),
    (lambda v: g2_vs_angle(1.0, v, [0.0, 45.0]), "mean_plasmon", NONNEG, 0.3, 2),
    (lambda v: p_function_convolution_check(v, 1.4), "mean_1", NONNEG, 0.7, 1),
    (lambda v: p_function_convolution_check(0.7, v), "mean_2", NONNEG, 1.4, 2),
    (lambda v: p_function_convolution_check(0.7, 1.4, v), "tail_target", NONNEG, 1e-3, 1),
    (lambda v: subtracted_pmf(v, 1), "mean", NONNEG, 0.7, 2),
    (lambda v: subtracted_pmf(0.7, 1, v), "tail_target", NONNEG, 1e-3, 1),
    (lambda v: conditional_state_pmf(preset("thesis-ch5", mean=v), 2), "mean", NONNEG, 3.75, 3),
    (lambda v: conditional_state_pmf(preset("thesis-ch5", phase=v), 2), "phase", (0, 2.0 * math.pi, False), 1.3, 2),
    (lambda v: conditional_state_pmf(preset("thesis-ch5", xi=v), 2), "xi", UNIT, 0.8, None),
    (lambda v: conditional_state_pmf(preset("thesis-ch5", gamma_loss=v), 2), "gamma_loss", UNIT, 0.0941, 1),
    (lambda v: conditional_state_pmf(preset("thesis-ch5", eta_ph=v), 2), "eta_ph", UNIT, 0.3, 1),
    (lambda v: conditional_state_pmf(preset("thesis-ch5", eta_pl=v), 2), "eta_pl", UNIT, 0.3, 1),
    (lambda v: conditional_state_pmf(preset("thesis-ch5"), 2, v), "tail_target", NONNEG, 1e-3, 1),
]
IDS = [f"{i}-{name}" for i, (_, name, *_) in enumerate(TABLE)]

# (call taking the grid under test, parameter name, (low, high, strict), a
#  grid in range; one of whole numbers is also tried as integer grids)
GRID_TABLE = [
    (lambda v: farfield_intensity(fringe(), v), "k", ANY, K_GRID),
    (lambda v: farfield_g2(fringe(), v, 1e-6), "k1", ANY, K_GRID),
    (lambda v: farfield_g2(fringe(), 1e-6, v), "k2", ANY, K_GRID),
    (lambda v: conditional_g2_map(fringe(), None, 1, 2, v, 1e-6), "k1", ANY, K_GRID),
    (lambda v: conditional_g2_map(fringe(), ThermalSplitterState(1.0, 0.6), 1, 2, 1e-6, v), "k2", ANY, K_GRID),
    (lambda v: classical_envelope_oracle(fringe(), SCALE, v, 1e-6), "k1", ANY, K_GRID),
    (lambda v: classical_envelope_oracle(fringe(), SCALE, 1e-6, v), "k2", ANY, K_GRID),
    (lambda v: modulation_frequency(WAVE_X, v), "y", ANY, np.round(3.0 * np.cos(1.3 * WAVE_X))),
    (lambda v: g2_vs_angle(1.0, 0.3, v), "theta grid", (0, 90, False), np.array([0.0, 30.0, 45.0, 90.0])),
    (lambda v: SensingScene(v, 2, 2), "values", NONNEG, np.array([0.5, 1.0, 0.0, 2.0])),
    (lambda v: tv_prox(v, 0.3, 3), "v", ANY, np.arange(16.0).reshape(4, 4) - 5.0),
    (lambda v: cs_reconstruct(v, np.ones(3), max_iter=4), "masks", ANY, MASKS.matrix),
    (lambda v: SensingMatrix(v), "matrix", ANY, MASKS.matrix),
    (lambda v: cs_reconstruct(MASKS, v, max_iter=4), "y", ANY, np.array([1.0, 3.0, 2.0])),
    (lambda v: image_snr(v, np.arange(4) < 2), "s_hat", ANY, np.array([2.0, 3.0, 1.0, 0.0])),
    (lambda v: empirical_g2(v), "samples", ANY, np.array([0.0, 1.0, 2.0, 3.0, 1.0])),
    (lambda v: arm_a_marginal(v, ARMS, 2), "n_t", NONNEG, np.array([[0.0, 0.8, 2.0], [0.5, 1.0, 3.0]])),
]
GRID_IDS = [f"{i}-{name}" for i, (_, name, *_) in enumerate(GRID_TABLE)]


def _same(a, b) -> bool:
    """Equal in type, shape and dtype, and bit for bit in every float."""
    if type(a) is not type(b):
        return False
    if dataclasses.is_dataclass(a):
        return all(_same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, (np.ndarray, np.generic, float)):
        a, b = np.asarray(a), np.asarray(b)
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    return a == b


def _out_of_range(low, high, strict) -> list:
    values = [low - 1] if low > -math.inf else []
    values += [high + 1] if high < math.inf else []
    return values + ([low] if strict else [])


def _refused(name):
    return pytest.raises(DomainError, match=rf"^{re.escape(name)} must be a finite real")


@pytest.mark.parametrize("call, name, bounds, good, integral", TABLE, ids=IDS)
def test_real_argument_rule(call, name, bounds, good, integral):
    bads = [math.nan, math.inf, -math.inf, *_out_of_range(*bounds), True, np.True_, "0.5"]
    if name != "envelope_width":  # where None stands for the default, 4/beta
        bads.append(None)
    for bad in bads:
        with _refused(name):
            call(bad)
    for typed in (np.float32(good), np.float16(good)):
        if typed != 0.0:  # a float16 of 6e-16 is 0, out of coherence_scale's range
            assert _same(call(typed), call(float(typed))), typed.dtype
    if integral is not None:
        for typed in (np.int16(integral), np.int64(integral), integral):
            assert _same(call(typed), call(float(typed))), type(typed)


@pytest.mark.parametrize("call, name, bounds, good", GRID_TABLE, ids=GRID_IDS)
def test_real_grid_rule(call, name, bounds, good):
    flat = good.ravel()
    for bad in [math.nan, math.inf, -math.inf, *_out_of_range(*bounds)]:
        entries = flat.copy()
        entries[-1] = bad
        with _refused(name):
            call(entries.reshape(good.shape))
    with_bool = good.tolist()
    row = with_bool[-1] if good.ndim > 1 else with_bool
    row[-1] = True
    for bad in [good.astype(bool), with_bool, good.astype(str), "0.5", None]:
        with _refused(name):
            call(bad)
    want = call(good)
    for typed in (good.astype(np.float32), good.astype(np.float16)):
        assert _same(call(typed), call(typed.astype(float))), typed.dtype
    assert _same(call(good.tolist()), want)
    if np.array_equal(good, np.round(good)):
        assert _same(call(good.astype(np.int64)), want)
        assert _same(call(good.astype(np.int16).tolist()), want)


# The calls that showed the gap: each ran in reduced precision and raised or
# returned a float16. The table above covers their parameters one by one.
PROBES = [
    (subtracted_pmf, (np.float32(0.7), 1)),
    (p_function_convolution_check, (np.float32(0.7), np.float32(1.4))),
    (lambda a, b, theta: detected_pmf(ScatterConfig(a, b, theta)), (np.float32(1), np.float32(1 / 3), 45)),
    (lambda mean: conditional_state_pmf(preset("thesis-ch5", mean=mean), 2), (np.float32(3.75),)),
    (
        lambda eta, nu: snr_sub(0.8, TwoArmDetection(math.pi / 4.0, DetectorModel(eta, nu), DetectorModel(eta, nu)), 2),
        (np.float16(0.55), np.float16(0.3)),
    ),
]


@pytest.mark.parametrize("call, args", PROBES)
def test_numpy_scalars_give_the_python_float_result(call, args):
    assert _same(call(*args), call(*(float(a) if isinstance(a, np.floating) else a for a in args)))


def test_a_scalar_parameter_rejects_an_array():
    for bad in (np.array(0.5), np.array([0.5])):
        with _refused("efficiency"):
            DetectorModel(bad)
        with _refused("mean"):
            subtracted_pmf(bad, 1)


def test_an_integer_past_the_float_range_is_not_finite():
    with _refused("mean"):
        thermal(10**400)
    with _refused("k"):
        farfield_intensity(fringe(), [10**400])


def test_configs_store_python_floats():
    det = DetectorModel(np.float16(0.55), np.int64(1))
    assert type(det.efficiency) is float and type(det.dark_rate) is float
    net = PreselectionNetwork(np.float32([0.3, 0.7, 0.4, 0.6, 0.5]), np.int8(1))
    assert all(type(a) is float for a in net.angles) and type(net.mean) is float
    assert type(snr_sub(0.8, TwoArmDetection(math.pi / 4.0, det, det), 2)) is float


SCALARS = [
    0, 0.0, -0.0, 5e-324, 2.2e-308, 1e300, 2**62, 2**64 - 1, 2**70, -(2**70), 10**5000, math.nan, math.inf,
    -math.inf, True, np.True_, np.float32(3), np.float16(0.5), np.int64(-7), np.uint64(2**64 - 1), "0.5", None,
]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    st.one_of(st.sampled_from(SCALARS), st.floats(), st.integers()),
    st.sampled_from([-math.inf, -1.0, 0, 2**62]),
    st.sampled_from([math.inf, 1.0, 1e300]),
    st.booleans(),
)
def test_a_grid_parameter_takes_a_scalar_by_the_scalar_rule(value, low, high, strict):
    """A grid parameter given a scalar returns the scalar rule's float as a
    0-d float64 array, or raises its DomainError."""
    try:
        want = np.asarray(_real(value, "x", low, high, strict=strict))
    except DomainError as refusal:
        with pytest.raises(DomainError, match=f"^{re.escape(str(refusal))}$"):
            _real(value, "x", low, high, strict=strict, grid=True)
        assert str(refusal).startswith("x must be")
    else:
        assert _same(_real(value, "x", low, high, strict=strict, grid=True), want)


def test_an_integer_past_int64_is_a_float_in_a_grid():
    assert arm_a_marginal(2**70, ARMS, 1) == arm_a_marginal(float(2**70), ARMS, 1)
    assert _same(arm_a_marginal([2**70, 3], ARMS, 1), arm_a_marginal([float(2**70), 3.0], ARMS, 1))
    for bad in ([10**400], [2**70, None], [2**70, True]):
        with _refused("n_t"):
            arm_a_marginal(bad, ARMS, 1)


# value, low, high, strict, and the Python float taken (None: refused)
SCALAR_RULE = [
    (0.25, 0.0, 1.0, False, 0.25),
    (np.float64(0.25), 0.0, 1.0, False, 0.25),
    (np.float32(0.1), 0.0, 1.0, False, 0.10000000149011612),
    (1.0, 0.0, 1.0, False, 1.0),
    (-0.0, 0, math.inf, False, -0.0),
    (-0.0, 0, math.inf, True, None),
    (0.0, 0.0, 1.0, True, None),
    (1.0, 0.0, 1.0, True, None),
    (5e-324, 0.0, 1.0, True, 5e-324),
    (math.nan, -math.inf, math.inf, False, None),
    (np.float64(math.nan), -math.inf, math.inf, False, None),
    (math.inf, -math.inf, math.inf, False, None),
    (-math.inf, -math.inf, math.inf, False, None),
    (np.float32(-math.inf), -math.inf, math.inf, False, None),
]


@pytest.mark.parametrize("grid", [False, True], ids=["scalar", "grid"])
@pytest.mark.parametrize("value, low, high, strict, want", SCALAR_RULE)
def test_a_float_scalar_is_taken_by_direct_comparisons(value, low, high, strict, want, grid):
    """A Python or NumPy float gives a Python float, or a 0-d float64 array
    with ``grid=True``, keeping the sign of −0.0; a refusal names the
    parameter, its bounds and the value."""
    if want is None:
        bounds = f"{'(' if strict else '['}{low!r}, {high!r}{')' if strict else ']'}"
        message = f"width must be a finite real in {bounds}, got {value!r}"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            _real(value, "width", low, high, strict=strict, grid=grid)
        return
    got = _real(value, "width", low, high, strict=strict, grid=grid)
    if grid:
        assert type(got) is np.ndarray and got.shape == () and got.dtype == np.float64
        got = got.item()
    assert type(got) is float
    assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)
