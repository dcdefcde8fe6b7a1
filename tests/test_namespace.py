"""The package namespace is built from the modules' own `__all__` lists:
`photonstats.__all__` is `__version__` followed by each list in turn, and
every name in it is the object its module defines. Each public function is
checked by a row of `photonstats._routes` or says why it has none, and the
library never imports the CLI."""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import photonstats
from photonstats._routes import ROUTES

MODULES = ["errors", "states", "montecarlo", "scatter", "coherence", "sensing", "imaging", "pgm"]


def _module(name):
    return importlib.import_module(f"photonstats.{name}")


def test_every_module_lists_its_public_names():
    for name in MODULES:
        assert isinstance(_module(name).__all__, list), name


def test_the_package_exports_each_module_list_in_order():
    assert photonstats.__all__ == ["__version__"] + [n for m in MODULES for n in _module(m).__all__]


def test_no_two_modules_export_the_same_name():
    # a star import shadows a clashing name silently
    assert len(set(photonstats.__all__)) == len(photonstats.__all__)


def test_each_package_name_is_its_module_object():
    for name in MODULES:
        module = _module(name)
        for public in module.__all__:
            assert getattr(photonstats, public) is getattr(module, public), f"{name}.{public}"


# Each public function of the package: the `photonstats._routes` row that
# checks it against its independent twin, or why it has none, as one of
# "constructor: …", "derived from <a public law>: …", "I/O: …" or
# "checked by <test file>::<test>".
TWINS = {
    "fock": "constructor: a SourceSpec",
    "coherent": "constructor: a SourceSpec",
    "thermal": "constructor: a SourceSpec",
    "default_cutoff": "derived from pmf: the baseline cutoff its exact tail check grows",
    "pmf": "p_function_vs_thermal",
    "moments": "checked by test_states.py::TestMomentsAndCoherence::test_thermal_moments",
    "g2_from_pmf": "checked by test_states.py::TestMomentsAndCoherence::test_g2_reference_points",
    "convolve": "scatter_vs_convolution",
    "binomial_thin": "checked by test_properties.py::test_binomial_thin_matches_mpmath",
    "make_generator": "constructor: a seeded NumPy Generator",
    "sample_source": "checked by test_montecarlo.py::test_thermal_classes_follow_the_bose_einstein_law",
    "split_and_detect": "checked by test_acceptance.py::test_07_noisy_counting_law_vs_pipeline",
    "estimate_pmf": "checked by test_montecarlo.py::test_estimate_pmf_frequencies",
    "empirical_g2": "checked by test_montecarlo.py::TestEmpiricalG2::"
                    "test_matches_the_covariance_form_and_leaves_samples_unchanged",
    "detected_pmf": "scatter_vs_convolution",
    "g2_vs_angle": "checked by test_scatter.py::TestG2Scan::test_closed_form_matches_the_pmf_route",
    "p_function_convolution_check": "p_function_vs_thermal",
    "joint_pmf": "joint_pmf_vs_noisy_law",
    "gtilde2_thermal": "checked by test_coherence.py::TestWavepacketCorrelation::test_equals_joint_over_marginals",
    "farfield_intensity": "checked by test_coherence.py::TestFarField::test_fringe_visibility_scales_with_coherence",
    "farfield_g2": "checked by test_coherence.py::TestFarField::test_g2_quarter_period_dip",
    "conditional_g2_map": "derived from gtilde2_thermal: under an envelope and fringe, arm means from "
                          "farfield_intensity",
    "classical_envelope_oracle": "checked by test_coherence.py::TestCentredSlit::"
                                 "test_the_cli_grid_matches_the_two_slit_twin",
    "modulation_frequency": "checked by test_coherence.py::TestModulationFrequency::test_recovers_known_cosine",
    "mode_probabilities": "checked by test_coherence.py::TestPreselection::test_first_mode_formula",
    "gamma_sum": "gamma_sum_identity",
    "preselection_distribution": "vacuum_closed_form_vs_sum",  # the twin: its sum over the loss modes
    "detected_vacuum_probability": "vacuum_closed_form_vs_sum",
    "preset": "constructor: a SensorConfig",
    "subtracted_pmf": "checked by test_properties.py::test_subtracted_pmf_matches_mpmath",
    "g2_subtracted": "checked by test_sensing.py::TestG2Subtracted::test_agrees_with_pmf_route",
    "subtraction_success_probability": "checked by test_sensing.py::TestSuccessProbability::"
                                       "test_published_cells_within_ten_percent",
    "conditional_state_pmf": "sensing_vs_noisy_law",
    "conditional_mean": "checked by test_sensing.py::TestConditionalState::test_mean_matches_closed_form_at_preset",
    "conditional_std": "checked by test_sensing.py::TestSnr::test_std_is_mean_over_snr",
    "conditional_mean_phase_derivative": "checked by test_sensing.py::TestPhaseUncertainty::"
                                         "test_finite_difference_matches_analytic_slope",
    "snr": "checked by test_sensing.py::TestSnr::test_pmf_route_agrees",
    "snr_from_pmf": "derived from conditional_state_pmf: the mean over the standard deviation of its moments",
    "phase_uncertainty": "derived from conditional_std: over |conditional_mean_phase_derivative|",
    "binary_phantom": "constructor: a SensingScene",
    "random_sensing_matrix": "constructor: a SensingMatrix",
    "scale_scene_to_projection": "constructor: a rescaled SensingScene",
    "joint_pmf_noisy": "joint_pmf_vs_noisy_law",
    "arm_a_marginal": "post_vs_noisy_law",
    "snr_post": "derived from arm_a_marginal: over the dark-count Poisson floor",
    "snr_sub": "subtract_vs_noisy_law",  # the row checks imaging._conditional_mean, its one law
    "acquire": "checked by test_imaging.py::TestAcquire::test_sampled_intensity_converges_to_exact",
    "tv_prox": "checked by test_imaging.py::TestBitForBitAgainstTheTextbook::test_prox_equals_the_textbook_sweep",
    "cs_reconstruct": "checked by test_imaging.py::TestBitForBitAgainstTheTextbook::"
                      "test_solver_equals_the_textbook_loop",
    "image_snr": "checked by test_imaging.py::TestImageSnr::test_contrast_ratio",
    "read_pgm": "I/O: checked by test_pgm.py::test_binary_round_trip",
    "write_pgm": "I/O: checked by test_pgm.py::test_binary_round_trip",
}

# Public laws whose row leaves a twin out, and why.
GAPS = {
    "detected_pmf": "its row convolves thermal pmfs, each mean ≤ 10 in its box; no row checks it against the "
                    "P-function convolution, which refuses a combined mean from 28 (a Gauss–Laguerre rule past "
                    "order 363)",
}


def _public_functions():
    return {name for name in photonstats.__all__ if inspect.isfunction(getattr(photonstats, name))}


def _test_exists(node: str) -> bool:
    """Whether ``file::[Class::]test`` names a test defined in this directory."""
    path, *names = node.split("::")
    scope = ast.parse((Path(__file__).parent / path).read_text()).body
    for name in names:
        found = [n for n in scope if isinstance(n, (ast.ClassDef, ast.FunctionDef)) and n.name == name]
        if not found:
            return False
        scope = found[0].body
    return True


def test_every_public_function_has_a_twin_or_a_reason():
    assert set(TWINS) == _public_functions()


def test_each_twin_is_a_row_and_each_reason_names_what_it_rests_on():
    for name, entry in TWINS.items():
        if entry.startswith("derived from "):
            assert entry.removeprefix("derived from ").split(":")[0] in TWINS, name
        elif entry.startswith(("checked by ", "I/O: checked by ")):
            assert _test_exists(entry.split("checked by ")[1]), name
        else:
            assert entry in ROUTES or entry.startswith(("constructor: ", "I/O: ")), name


def test_every_row_checks_a_public_function():
    assert set(ROUTES) <= set(TWINS.values())


def test_each_known_gap_is_a_public_law_with_its_row():
    for name in GAPS:
        assert TWINS[name] in ROUTES, name


def test_the_library_never_imports_the_cli():
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    code = "import sys, photonstats, photonstats._routes; sys.exit('photonstats.cli' in sys.modules)"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
