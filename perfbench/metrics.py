"""Metric catalogue and the per-layer figures derived from a traced run.

``END_TO_END`` and ``PER_LAYER`` are the names and units the benchmark
prints; ``BENCHMARK.json`` lists the same names and the smoke test checks
that the two agree. Per-layer ``.s`` figures are seconds spent in that call
per pass (the pass plus the check of its outputs), the median over traced
passes; a layer the workload never calls reads 0.
"""

from __future__ import annotations

import statistics

from tracing import LAYERS, layer_of, per_pass, self_times
from workloads import SUBCOMMANDS

END_TO_END = (
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "1"),
)

# Calls whose time per pass is reported on its own.
TIMED_CALLS = (
    "imaging.snr_post",
    "imaging.snr_sub",
    "montecarlo.empirical_g2",
    "coherence.detected_vacuum_probability",
    "coherence.classical_envelope_oracle",
    "states.binomial_thin",
    "states.pmf",
    "states.convolve",
    "scatter.g2_vs_angle",
    "sensing.conditional_state_pmf",
    "sensing.snr_from_pmf",
    "pgm.read_pgm",
    "pgm.write_pgm",
) + tuple(f"cli.{sub}" for sub in SUBCOMMANDS)

PER_LAYER = (
    tuple((f"{layer}.{kind}", unit) for layer in LAYERS
          for kind, unit in (("calls", "count"), ("busy_s", "s"), ("failed", "count")))
    + (
        ("imaging.cs_reconstruct.s", "s"),
        ("imaging.cs_reconstruct.iterations", "count"),
        ("imaging.cs_reconstruct.s_per_iter", "s"),
        ("imaging.cs_reconstruct.converged_ratio", "1"),
        ("imaging.acquire.mc_s", "s"),
        ("imaging.acquire.exact_s", "s"),
        ("imaging.image_s", "s"),
        ("imaging.rel_err", "1"),
        ("imaging.contrast_gain", "1"),
        ("montecarlo.sample_source.ns_per_shot", "ns"),
        ("montecarlo.split_and_detect.ns_per_shot", "ns"),
        ("montecarlo.shots", "count"),
        ("montecarlo.shots_per_s", "1/s"),
        ("states.binomial_thin.peak_mb", "MB"),
        ("cli.replay.failed", "count"),
        ("trace.overhead_ratio", "1"),
        ("trace.spans", "count"),
        ("yardstick.slice_s", "s"),
        ("yardstick.slices", "count"),
    )
    + tuple((f"{name}.s", "s") for name in TIMED_CALLS)
)


def _duration(s):
    return s["end"] - s["start"]


def _sampling(s):
    """Spans that draw Monte Carlo shots."""
    if s["name"] == "imaging.acquire":
        return s["attrs"]["shots"] > 0
    return s["name"] in ("montecarlo.sample_source", "montecarlo.split_and_detect")


def _shots(s):
    if s["name"] == "imaging.acquire":
        return s["attrs"]["shots"] * s["attrs"]["rows"]
    return s["attrs"]["shots"] if s["name"] == "montecarlo.sample_source" else 0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(spans: list[dict], passes: list[int], extras: dict, overhead: float) -> dict[str, float]:
    """Every PER_LAYER metric from the spans of the traced passes."""
    spans = [s for s in spans if s["pass"] in passes]
    own = self_times(spans)
    values: dict[str, float] = {}

    def median_pass(fn):
        return per_pass(spans, passes, fn)

    def total(name, key=None, where=lambda s: True):
        return lambda group: sum(
            (s["attrs"][key] if key else _duration(s)) for s in group if s["name"] == name and where(s)
        )

    for layer in LAYERS:
        values[f"{layer}.calls"] = median_pass(lambda g: sum(layer_of(s["name"]) == layer for s in g))
        values[f"{layer}.busy_s"] = median_pass(
            lambda g: sum(own[s["id"]] for s in g if layer_of(s["name"]) == layer))
        values[f"{layer}.failed"] = sum(not s["ok"] for s in spans if layer_of(s["name"]) == layer)

    def named(name):
        return [s for s in spans if s["name"] == name]

    rec = named("imaging.cs_reconstruct")
    iterations = sum(s["attrs"]["iterations"] for s in rec)
    values["imaging.cs_reconstruct.s"] = median_pass(total("imaging.cs_reconstruct"))
    values["imaging.cs_reconstruct.iterations"] = median_pass(total("imaging.cs_reconstruct", "iterations"))
    values["imaging.cs_reconstruct.s_per_iter"] = _ratio(sum(map(_duration, rec)), iterations)
    values["imaging.cs_reconstruct.converged_ratio"] = _ratio(sum(s["attrs"]["converged"] for s in rec), len(rec))
    values["imaging.acquire.mc_s"] = median_pass(total("imaging.acquire", where=lambda s: s["attrs"]["shots"] > 0))
    values["imaging.acquire.exact_s"] = median_pass(total("imaging.acquire", where=lambda s: s["attrs"]["shots"] == 0))
    images = named("image")
    values["imaging.image_s"] = statistics.median(map(_duration, images)) if images else 0.0
    for key in ("imaging.rel_err", "imaging.contrast_gain", "cli.replay.failed"):
        values[key] = statistics.median(extras[key]) if key in extras else 0.0
    for name in ("montecarlo.sample_source", "montecarlo.split_and_detect"):
        calls = named(name)
        values[f"{name}.ns_per_shot"] = 1e9 * _ratio(sum(map(_duration, calls)), sum(s["attrs"]["shots"] for s in calls))
    values["montecarlo.shots"] = median_pass(lambda g: sum(map(_shots, g)))
    values["montecarlo.shots_per_s"] = median_pass(
        lambda g: _ratio(sum(map(_shots, g)), sum(_duration(s) for s in g if _sampling(s))))
    thin = named("states.binomial_thin")
    values["states.binomial_thin.peak_mb"] = max((s["attrs"]["peak_mb"] for s in thin), default=0.0)
    values["trace.overhead_ratio"] = overhead
    values["trace.spans"] = median_pass(len)
    for name in TIMED_CALLS:
        values[f"{name}.s"] = median_pass(total(name))
    return values
