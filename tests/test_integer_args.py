"""One rule for integer arguments: a Python or NumPy integer, never a bool or
a float, at or above the parameter's lower bound; anything else raises
DomainError naming the parameter."""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photonstats import (
    DetectorModel,
    DomainError,
    InterferenceConfig,
    PreselectionNetwork,
    RngSeed,
    SensingScene,
    SplitterNetwork,
    ThermalSplitterState,
    TwoArmDetection,
    acquire,
    arm_a_marginal,
    binary_phantom,
    conditional_g2_map,
    cs_reconstruct,
    estimate_pmf,
    fock,
    gamma_sum,
    gtilde2_thermal,
    joint_pmf,
    joint_pmf_noisy,
    make_generator,
    pmf,
    preselection_distribution,
    random_sensing_matrix,
    sample_source,
    snr_post,
    snr_sub,
    split_and_detect,
    thermal,
    tv_prox,
)
from photonstats.sensing import (
    conditional_mean,
    conditional_mean_phase_derivative,
    conditional_state_pmf,
    conditional_std,
    g2_subtracted,
    phase_uncertainty,
    preset,
    snr,
    snr_from_pmf,
    subtracted_pmf,
    subtraction_success_probability,
)

STATE = ThermalSplitterState(1.0, math.pi / 4.0)
FRINGE = InterferenceConfig(mean_h=0.6, mean_v=0.4, psi=0.3)
NET = PreselectionNetwork((0.3, 0.7, 0.4, 0.6, 0.5), 0.5)
ARMS = TwoArmDetection(math.pi / 4.0, DetectorModel(0.55, 0.3), DetectorModel(0.55, 0.3))
SENSOR = preset("thesis-ch5")
SCENE = binary_phantom(8, 8)
MASKS = random_sensing_matrix(3, 64, seed=0)

# (call taking the integer under test, parameter name, lower bound)
TABLE = [
    (lambda v: fock(v), "n", 0),
    (lambda v: pmf(thermal(1.0), cutoff=v), "cutoff", 0),
    (lambda v: RngSeed(v).key(), "seed", 0),
    (lambda v: RngSeed(3, v).key(), "stream_id", 0),
    (lambda v: make_generator(v).random(3), "seed", 0),
    (lambda v: sample_source(thermal(1.0), v, 4), "n_samples", 1),
    (lambda v: sample_source(thermal(1.0), 5, v), "seed", 0),
    (lambda v: joint_pmf(STATE, v, 1), "big_n", 0),
    (lambda v: joint_pmf(STATE, 1, v), "big_m", 0),
    (lambda v: gtilde2_thermal(STATE, v, 1), "big_n", 0),
    (lambda v: gtilde2_thermal(STATE, 1, v), "big_m", 0),
    (lambda v: conditional_g2_map(FRINGE, STATE, v, 1, 0.0, 1e-6), "n1", 0),
    (lambda v: conditional_g2_map(FRINGE, None, 1, v, 0.0, 1e-6), "n2", 0),
    (lambda v: gamma_sum(v), "n", 0),
    (lambda v: preselection_distribution(NET, (0, 1, 0, v, 0, 2)), "counts", 0),
    (lambda v: subtracted_pmf(1.0, v), "level", 0),
    (lambda v: g2_subtracted(v), "level", 0),
    (lambda v: subtraction_success_probability(SENSOR, v), "level", 0),
    (lambda v: conditional_state_pmf(SENSOR, v), "level", 0),
    (lambda v: conditional_mean(SENSOR, v), "level", 0),
    (lambda v: conditional_std(SENSOR, v), "level", 0),
    (lambda v: snr(SENSOR, v), "level", 0),
    (lambda v: snr_from_pmf(SENSOR, v), "level", 0),
    (lambda v: conditional_mean_phase_derivative(SENSOR, v), "level", 0),
    (lambda v: phase_uncertainty(SENSOR, v), "level", 0),
    (lambda v: joint_pmf_noisy(0.8, ARMS, v, 1), "n", 0),
    (lambda v: joint_pmf_noisy(0.8, ARMS, 1, v), "m", 0),
    (lambda v: arm_a_marginal(0.8, ARMS, v), "n", 0),
    (lambda v: snr_post(0.8, ARMS, v), "big_n", 0),
    (lambda v: snr_sub(0.8, ARMS, v), "big_n", 0),
    (lambda v: SensingScene(np.ones(int(v)), v, 1), "width", 1),
    (lambda v: SensingScene(np.ones(int(v)), 1, v), "height", 1),
    (lambda v: binary_phantom(v, 8), "width", 8),
    (lambda v: binary_phantom(8, v), "height", 8),
    (lambda v: random_sensing_matrix(v, 4, seed=1), "n_measurements", 1),
    (lambda v: random_sensing_matrix(3, v, seed=1), "n_pixels", 1),
    (lambda v: random_sensing_matrix(3, 4, seed=v), "seed", 0),
    (lambda v: acquire(SCENE, MASKS, ARMS, shots=v, seed=2), "shots", 1),
    (lambda v: acquire(SCENE, MASKS, ARMS, shots=5, seed=v), "seed", 0),
    (lambda v: tv_prox(np.arange(16.0).reshape(4, 4), 0.3, n_inner=v), "n_inner", 1),
    (lambda v: cs_reconstruct(MASKS, np.ones(3), max_iter=v), "max_iter", 1),
    (lambda v: cs_reconstruct(np.eye(2, 2 * int(v)), np.ones(2), max_iter=3, shape=(2, v)), "shape", 1),
]
IDS = [f"{i}-{name}" for i, (_, name, _) in enumerate(TABLE)]


def _same(a, b) -> bool:
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            _same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a)
        )
    return np.array_equal(a, b)


@pytest.mark.parametrize("call, name, low", TABLE, ids=IDS)
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_integer_argument_rule(call, name, low, data):
    bad = data.draw(
        st.sampled_from([True, False, low - 1, np.int64(low - 1)])
        | st.floats(min_value=low - 1, max_value=low + 20)
    )
    with pytest.raises(DomainError, match=rf"^{name} must be an integer >= {low}, got "):
        call(bad)
    value = data.draw(st.integers(min_value=low, max_value=low + 12))
    assert _same(call(np.int64(value)), call(value))


# The level laws at a level of 10**400 once escaped as a bare OverflowError
# from (L+1)·n̄ or the kernel's float conversion.
LEVEL_CALLS = {
    "g2_subtracted": g2_subtracted,
    "subtraction_success_probability": lambda v: subtraction_success_probability(SENSOR, v),
    "subtracted_pmf": lambda v: subtracted_pmf(1.0, v),
    "conditional_state_pmf": lambda v: conditional_state_pmf(SENSOR, v),
    "conditional_mean": lambda v: conditional_mean(SENSOR, v),
    "snr": lambda v: snr(SENSOR, v),
}


@pytest.mark.parametrize("law", sorted(LEVEL_CALLS))
def test_a_level_past_2_64_is_refused_by_name(law):
    with pytest.raises(DomainError, match=r"^level must be below 2\*\*64, got an integer of 1329 bits$"):
        LEVEL_CALLS[law](10**400)


# Python refuses the repr of an integer past 4300 digits, so a message that
# showed one escaped as a bare ValueError; such a value is named by its size,
# and a list or tuple holding one by its type.
@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: g2_subtracted(10**5000), "level must be below 2**64, got an integer of 16610 bits"),
        (lambda: g2_subtracted(-(10**5000)), "level must be an integer >= 0, got a negative integer of 16610 bits"),
        (lambda: pmf(thermal(10**5000)), "mean must be a finite real in [0, inf], got an integer of 16610 bits"),
        (
            lambda: random_sensing_matrix(4, 4, 10**5000),
            "fill_fraction must be a finite real in (0, 1), got an integer of 16610 bits",
        ),
        (
            lambda: joint_pmf(STATE, [1, 10**5000], 1),
            "big_n must be below 2**64, got a list holding an integer past 4300 digits",
        ),
        (
            lambda: arm_a_marginal((10**5000,), ARMS, 1),
            "n_t must be a finite real in [0, inf], got a tuple holding an integer past 4300 digits",
        ),
        (
            lambda: acquire(SCENE, MASKS, ARMS, mode="post(1" + "0" * 5000 + ")", shots=None),
            "mode post(N) needs N below 2**64, got an N of 5001 digits",
        ),
        (
            lambda: acquire(SCENE, MASKS, ARMS, mode="subtract(18446744073709551616)", shots=None),
            "mode subtract(N) needs N below 2**64, got an N of 20 digits",
        ),
    ],
)
def test_an_integer_past_4300_digits_is_named_by_its_size(call, message):
    with pytest.raises(DomainError, match=rf"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize(
    "call, named",
    [
        (lambda: subtracted_pmf(0.0, 2**62), "mean 0.0 at level 4611686018427387904"),
        (lambda: conditional_state_pmf(SENSOR, 2**62), "at level 4611686018427387904"),
    ],
)
def test_a_level_past_the_entry_budget_names_the_inputs(call, named):
    # the exact tail sums L + 1 terms: refused before np.arange is asked for them
    with pytest.raises(DomainError, match=rf"{named}: its tail sum needs over 2\*\*27 entries"):
        call()


@pytest.mark.parametrize(
    "call, named",
    [
        (lambda: random_sensing_matrix(2**62, 16), "n_measurements 4611686018427387904, n_pixels 16: its masks"),
        (lambda: binary_phantom(2**62), "width 4611686018427387904, height 32: its image"),
        (lambda: estimate_pmf(np.array([0, 2**62])), "samples' largest count 4611686018427387904: its frequency table"),
    ],
)
def test_a_constructor_past_the_entry_budget_names_the_inputs(call, named):
    # refused before numpy is asked for the array, which it would call too big
    with pytest.raises(DomainError, match=rf"^{re.escape(named)} needs over 2\*\*27 entries"):
        call()


# (call taking a list of counts, parameter name) for the laws that broadcast
GRID_TABLE = [
    (lambda v: joint_pmf(STATE, v, 1), "big_n"),
    (lambda v: joint_pmf(STATE, 1, v), "big_m"),
    (lambda v: gtilde2_thermal(STATE, v, 1), "big_n"),
    (lambda v: gtilde2_thermal(STATE, 1, v), "big_m"),
    (lambda v: conditional_g2_map(FRINGE, STATE, v, 1, 0.0, 1e-6), "n1"),
    (lambda v: conditional_g2_map(FRINGE, None, 1, v, 0.0, 1e-6), "n2"),
    (lambda v: split_and_detect(v, SplitterNetwork((0.5,)), (DetectorModel(),), 3), "counts"),
    (lambda v: estimate_pmf(v)[0], "samples"),
    (lambda v: joint_pmf_noisy(0.8, ARMS, v, 1), "n"),
    (lambda v: joint_pmf_noisy(0.8, ARMS, 1, v), "m"),
    (lambda v: gamma_sum(v), "n"),
    (lambda v: preselection_distribution(NET, (0, 1, 0, v, 0, 2)), "counts"),
]
GRID_IDS = [f"{i}-{name}" for i, (_, name) in enumerate(GRID_TABLE)]


@pytest.mark.parametrize("call, name", GRID_TABLE, ids=GRID_IDS)
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_count_lists_reject_bools_among_ints(call, name, data):
    ints = data.draw(st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=4))
    at = data.draw(st.integers(min_value=0, max_value=len(ints)))
    flag = data.draw(st.sampled_from([True, False, np.True_, np.False_]))
    mixed = ints[:at] + [flag] + ints[at:]
    for bad in (mixed, tuple(mixed)):
        with pytest.raises(DomainError, match=rf"^{name} must be an integer >= 0, got "):
            call(bad)
    assert _same(call(ints), call(np.array(ints)))
    assert _same(call(tuple(ints)), call(np.array(ints)))


def test_a_count_list_past_int64_is_the_uint64_grid():
    # np.asarray makes [2**63, 1] float64, which the rule once refused
    as_array = joint_pmf(STATE, np.array([2**63, 1], dtype=np.uint64), 1)
    for listed in ([2**63, 1], (2**63, 1), [np.uint64(2**63), np.int64(1)]):
        assert np.array_equal(joint_pmf(STATE, listed, 1), as_array)


def test_a_count_list_entry_past_2_64_is_refused_by_that_bound():
    with pytest.raises(DomainError, match=r"^big_n must be below 2\*\*64, got \[18446744073709551616, 1\]$"):
        joint_pmf(STATE, [2**64, 1], 1)


def test_seed_keys_do_not_depend_on_the_integer_type():
    big = 2**64 - 1
    assert RngSeed(np.uint64(big), np.uint64(big)) == RngSeed(big, big)
    assert type(RngSeed(np.int64(3)).seed) is int


@pytest.mark.parametrize(
    "call",
    [
        lambda: arm_a_marginal(0.8, ARMS, np.array(3)),
        lambda: snr(SENSOR, np.array([1, 2])),
        lambda: RngSeed(np.array(3)),
        lambda: pmf(thermal(1.0), cutoff=np.array(5)),
        lambda: tv_prox(np.ones((4, 4)), 0.3, n_inner=np.array([2])),
        lambda: snr_post(0.8, ARMS, np.array([1, 2])),
    ],
)
def test_scalar_parameters_reject_arrays(call):
    with pytest.raises(DomainError, match="must be an integer"):
        call()
