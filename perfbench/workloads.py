"""The four benchmark workloads.

A workload builds its inputs from the seed in ``__init__`` (part of
set-up), makes one pass of library calls in ``run`` (timed) and checks that
pass's outputs against the independent routes in ``check`` (untimed).
``check`` returns ``(name, ok, value)`` triples. Every library call is made
inside a tracer span named ``layer.function``. Monte Carlo substreams are
``RngSeed(seed, k)`` with ``k`` derived from the pass id, so passes draw
fresh samples while the same seed always gives the same inputs.

``smoke=True`` shrinks every size so a pass takes a fraction of a second;
the warm-up in set-up and the benchmark's own tests use it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np

import routes
from photonstats import (
    DetectorModel,
    InterferenceConfig,
    PreselectionNetwork,
    RngSeed,
    ScatterConfig,
    SplitterNetwork,
    TwoArmDetection,
    acquire,
    binary_phantom,
    binomial_thin,
    classical_envelope_oracle,
    conditional_mean,
    conditional_state_pmf,
    cs_reconstruct,
    detected_vacuum_probability,
    empirical_g2,
    g2_vs_angle,
    image_snr,
    mode_probabilities,
    modulation_frequency,
    pmf,
    preset,
    random_sensing_matrix,
    read_pgm,
    sample_source,
    scale_scene_to_projection,
    snr,
    snr_from_pmf,
    snr_post,
    snr_sub,
    split_and_detect,
    thermal,
    write_pgm,
)
from photonstats.cli import main as cli_main

# Substreams per acquisition: acquire uses two per mask row.
STREAM_STRIDE = 1024
MASK_SEED = 7
PROJECTION_MEAN = 0.8
NOISY_ARMS = TwoArmDetection(math.pi / 4.0, DetectorModel(0.55, 0.8), DetectorModel(0.55, 0.8))
IDEAL_ARMS = TwoArmDetection(0.0, DetectorModel(1.0, 0.0), DetectorModel(1.0, 0.0))
EXACT_RTOL = 1e-10
# Counts per arm of thermal(1.0) split in two stay far below this: P(n >= 64)
# is about 2^-64 per shot.
HIST_SIZE = 64


class CallFailed(Exception):
    """A library call returned an error status instead of raising."""


def _scene(side: int, rows: int):
    phantom = binary_phantom(side, side)
    masks = random_sensing_matrix(rows, side * side, seed=MASK_SEED)
    scene = scale_scene_to_projection(phantom, masks, PROJECTION_MEAN)
    return phantom, masks, scene


def _stream(seed: int, k: int) -> RngSeed:
    return RngSeed(seed, STREAM_STRIDE * k)


def _each(tr, name: str, fn, argsets) -> list:
    """One span per call of ``fn`` over the argument tuples."""
    out = []
    for args in argsets:
        with tr.span(name):
            out.append(fn(*args))
    return out


def _mc_rows_check(tr, name, y, projections, arms, mode, shots):
    """Chi-square of Monte Carlo rows against their exact law."""
    z = []
    for y_t, n_t in zip(y, projections):
        n_t = float(n_t)
        if mode == "intensity":
            mean, var = routes.intensity_moments(n_t, arms)
            z.append((y_t - mean) / math.sqrt(var / shots))
        elif mode == "post(3)":
            p = routes.post_probability(tr, n_t, arms, 3)
            z.append((y_t - p) / math.sqrt(p * (1.0 - p) / shots))
        else:  # subtract(1)
            mean, var, p_b = routes.conditional_arm_a(tr, n_t, arms, 1)
            z.append((y_t - mean) / math.sqrt(var / (shots * p_b)))
    ok, ratio = routes.chi2_check(np.array(z))
    return (f"{name}_chi2_per_dof", ok, ratio)


class Imaging:
    """Ideal exact-intensity image, then a Monte Carlo intensity and a
    post(3) image drawn on the pass's own substreams; each is reconstructed
    with TV at mu = 100."""

    name = "imaging"

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        side, rows = (16, 128) if smoke else (32, 256)
        self.seed = seed
        self.shots = 2_000 if smoke else 20_000
        self.max_iter = 200 if smoke else 2000
        self.shape = (side, side)
        self.phantom, self.masks, self.scene = _scene(side, rows)
        self.projections = self.masks.matrix @ self.scene.values
        self.object_mask = self.phantom.values > 0.5
        self.extras = {}

    def _image(self, tr, scene, arms, mode, shots, stream):
        with tr.span("image", mode=mode):
            with tr.span("imaging.acquire", shots=shots or 0, rows=self.masks.n_measurements):
                y = acquire(scene, self.masks, arms, mode, shots=shots, seed=stream)
            with tr.span("imaging.cs_reconstruct") as sp:
                result = cs_reconstruct(self.masks, y, mu=100.0, max_iter=self.max_iter, shape=self.shape)
                sp["iterations"] = result.iterations
                sp["converged"] = result.iterations < self.max_iter
        return y, result

    def run(self, tr, pass_id):
        out = {"ideal": self._image(tr, self.phantom, IDEAL_ARMS, "intensity", None, 0)}
        for k, mode in enumerate(("intensity", "post(3)")):
            out[mode] = self._image(tr, self.scene, NOISY_ARMS, mode, self.shots, _stream(self.seed, 2 * pass_id + k))
        return out

    def check(self, tr, out, pass_id):
        y, result = out["ideal"]
        truth = self.phantom.values
        projection_err = routes.max_rel_err(y, self.masks.matrix @ truth)
        rel = float(np.linalg.norm(result.s_hat - truth) / np.linalg.norm(truth))
        results = [
            ("ideal_projection_rel_err", projection_err <= 1e-12, projection_err),
            ("ideal_image_rel_err", rel < 0.15, rel),
        ]
        contrast = {}
        for mode in ("intensity", "post(3)"):
            y, result = out[mode]
            results.append(_mc_rows_check(tr, mode, y, self.projections, NOISY_ARMS, mode, self.shots))
            with tr.span("imaging.image_snr"):
                contrast[mode] = image_snr(result.s_hat, self.object_mask)
        self.extras.setdefault("imaging.rel_err", []).append(rel)
        self.extras.setdefault("imaging.contrast_gain", []).append(contrast["post(3)"] / contrast["intensity"])
        return results


class ExactLaws:
    """Closed-form counting laws with no sampling and no reconstruction."""

    name = "exact_laws"

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        side, rows = (8, 16) if smoke else (32, 256)
        _, self.masks, self.scene = _scene(side, rows)
        self.projections = self.masks.matrix @ self.scene.values
        self.vacuum_net = PreselectionNetwork((0.3, 0.7, 0.4, 0.6, 0.5), 0.5 if smoke else 4.0)
        self.thin_mean = 10.0 if smoke else 100.0
        self.post_arms = TwoArmDetection(0.0, DetectorModel(0.15, 0.8), DetectorModel(0.15, 0.8))
        self.sub_arms = TwoArmDetection(math.pi / 4.0, DetectorModel(0.55, 0.05), DetectorModel(0.55, 0.05))
        self.interference = InterferenceConfig(mean_h=1.0, mean_v=0.5, psi=math.pi / 4.0)
        period = math.pi / self.interference.beta
        self.dks = np.linspace(0.0, 4.0 * period, 33 if smoke else 129)
        self.angles = np.linspace(0.0, 90.0, 7 if smoke else 91)
        self.sensor = preset("thesis-ch5")
        self.extras = {}

    def run(self, tr, pass_id):
        out = {}
        for mode in ("post(3)", "subtract(1)"):
            with tr.span("imaging.acquire", shots=0, rows=self.masks.n_measurements):
                out[mode] = acquire(self.scene, self.masks, NOISY_ARMS, mode)
        out["snr_post"] = _each(tr, "imaging.snr_post", snr_post, [(0.8, self.post_arms, n) for n in range(8)])
        out["snr_sub"] = _each(tr, "imaging.snr_sub", snr_sub, [(0.08, self.sub_arms, n) for n in range(4)])
        with tr.span("coherence.detected_vacuum_probability"):
            out["vacuum"] = detected_vacuum_probability(self.vacuum_net)
        with tr.span("states.pmf"):
            source = pmf(thermal(self.thin_mean))
        # tracemalloc slows allocation, so it runs in traced passes only
        if tr.enabled:
            tracemalloc.start()
        try:
            with tr.span("states.binomial_thin") as sp:
                out["thinned"] = binomial_thin(source, 0.55)
        finally:
            if tr.enabled:
                sp["peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()
        scale = (self.interference.slit_width / 8.0) ** 2
        out["envelope"] = np.array(_each(tr, "coherence.classical_envelope_oracle", classical_envelope_oracle,
                                         [(self.interference, scale, -dk / 2.0, dk / 2.0) for dk in self.dks]))
        with tr.span("scatter.g2_vs_angle"):
            out["g2_curve"] = g2_vs_angle(1.0, 1.0 / 3.0, self.angles)
        levels = [(self.sensor, level) for level in range(4)]
        out["conditional"] = _each(tr, "sensing.conditional_state_pmf", conditional_state_pmf, levels)
        out["snr_from_pmf"] = _each(tr, "sensing.snr_from_pmf", snr_from_pmf, levels)
        return out

    def check(self, tr, out, pass_id):
        rows = [float(n_t) for n_t in self.projections]
        post = [routes.post_probability(tr, n_t, NOISY_ARMS, 3) for n_t in rows]
        sub = [routes.conditional_arm_a(tr, n_t, NOISY_ARMS, 1)[0] for n_t in rows]
        nu_post = self.post_arms.det_a.dark_rate
        snr_post_route = [
            routes.post_probability(tr, 0.8, self.post_arms, n) / routes.poisson_probability(nu_post, n)
            for n in range(8)
        ]
        nu_sub = self.sub_arms.det_a.dark_rate
        snr_sub_route = [routes.conditional_arm_a(tr, 0.08, self.sub_arms, n)[0] / nu_sub for n in range(4)]
        with tr.span("coherence.mode_probabilities"):
            probs = mode_probabilities(self.vacuum_net)
        vacuum_route = 1.0 / (1.0 + self.vacuum_net.mean * sum(probs[:3]))
        thinned = out["thinned"]
        with tr.span("states.pmf"):
            thin_route = pmf(thermal(0.55 * self.thin_mean), cutoff=thinned.n_max).probs
        thin_err = float(np.max(np.abs(thinned.probs - thin_route)))
        with tr.span("coherence.modulation_frequency"):
            omega = modulation_frequency(self.dks, out["envelope"])
        fringe_err = abs(omega / 2.0 - self.interference.beta) / self.interference.beta
        g2_route = [routes.mixed_thermal_g2(*ScatterConfig(1.0, 1.0 / 3.0, float(t)).mode_means)
                    for t in out["g2_curve"][:, 0]]
        cond_means = [float(d.support() @ d.probs) for d in out["conditional"]]
        levels = [(self.sensor, level) for level in range(4)]
        snr_route = _each(tr, "sensing.snr", snr, levels)
        mean_route = _each(tr, "sensing.conditional_mean", conditional_mean, levels)

        def rel(name, got, want, rtol=EXACT_RTOL):
            err = routes.max_rel_err(got, want)
            return (name, err <= rtol, err)

        return [
            rel("post3_rows", out["post(3)"], post),
            rel("subtract1_rows", out["subtract(1)"], sub),
            rel("snr_post", out["snr_post"], snr_post_route),
            rel("snr_sub", out["snr_sub"], snr_sub_route),
            rel("vacuum_probability", out["vacuum"], vacuum_route),
            ("binomial_thin_abs_err", thin_err <= 1e-12, thin_err),
            ("envelope_fringe_rel_err", fringe_err <= 0.02, fringe_err),
            rel("g2_vs_angle", out["g2_curve"][:, 1], g2_route, 1e-6),
            rel("snr_from_pmf", out["snr_from_pmf"], snr_route, 1e-9),
            rel("conditional_state_mean", cond_means, mean_route, 1e-9),
        ]


class MCTwin:
    """Monte Carlo twins: sampled acquisitions, a joint histogram of split
    thermal light and an empirical g2."""

    name = "mc_twin"

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        side, rows = (8, 16) if smoke else (32, 256)
        self.seed = seed
        self.shots = 2_000 if smoke else 20_000
        self.hist_shots = 200_000 if smoke else 8_000_000
        self.chunk = 100_000 if smoke else 4_000_000
        self.g2_samples = 100_000 if smoke else 1_000_000
        _, self.masks, self.scene = _scene(side, rows)
        self.projections = self.masks.matrix @ self.scene.values
        self.g2_means = ScatterConfig(1.0, 1.0 / 3.0, 45.0).mode_means
        self.extras = {}

    def run(self, tr, pass_id):
        base = 8 * pass_id  # substream blocks used by this pass
        out = {}
        for k, mode in enumerate(("post(3)", "subtract(1)")):
            with tr.span("imaging.acquire", shots=self.shots, rows=self.masks.n_measurements):
                out[mode] = acquire(self.scene, self.masks, NOISY_ARMS, mode, shots=self.shots,
                                    seed=_stream(self.seed, base + k))
        network = SplitterNetwork((0.5, 0.5))
        detectors = (DetectorModel(), DetectorModel())
        hist = np.zeros(HIST_SIZE * HIST_SIZE, dtype=np.int64)
        done, k = 0, base + 2
        while done < self.hist_shots:
            n = min(self.chunk, self.hist_shots - done)
            with tr.span("montecarlo.sample_source", shots=n):
                counts = sample_source(thermal(1.0), n, RngSeed(self.seed, STREAM_STRIDE * k))
            with tr.span("montecarlo.split_and_detect", shots=n):
                detected = split_and_detect(counts, network, detectors, RngSeed(self.seed, STREAM_STRIDE * k + 1))
            if detected.max() >= HIST_SIZE:
                raise ValueError(f"a count of {detected.max()} overflows the {HIST_SIZE}x{HIST_SIZE} histogram")
            hist += np.bincount(detected[:, 0] * HIST_SIZE + detected[:, 1], minlength=HIST_SIZE * HIST_SIZE)
            done += n
            k += 1
        out["hist"] = hist.reshape(HIST_SIZE, HIST_SIZE)
        a, b = self.g2_means
        with tr.span("montecarlo.sample_source", shots=self.g2_samples):
            mode_a = sample_source(thermal(a), self.g2_samples, RngSeed(self.seed, STREAM_STRIDE * (base + 6)))
        with tr.span("montecarlo.sample_source", shots=self.g2_samples):
            mode_b = sample_source(thermal(b), self.g2_samples, RngSeed(self.seed, STREAM_STRIDE * (base + 6) + 1))
        with tr.span("montecarlo.empirical_g2"):
            out["g2"] = empirical_g2(mode_a + mode_b)
        return out

    def check(self, tr, out, pass_id):
        results = [
            _mc_rows_check(tr, mode, out[mode], self.projections, NOISY_ARMS, mode, self.shots)
            for mode in ("post(3)", "subtract(1)")
        ]
        hist = out["hist"]
        expected = routes.split_thermal_joint(1.0, hist.shape[0]) * self.hist_shots
        cells = expected >= 100.0
        z = (hist[cells] - expected[cells]) / np.sqrt(expected[cells] * (1.0 - expected[cells] / self.hist_shots))
        ok, ratio = routes.chi2_check(z)
        results.append(("joint_histogram_chi2_per_dof", ok, ratio))
        g2, se = out["g2"]
        dev = abs(g2 - routes.mixed_thermal_g2(*self.g2_means)) / se
        results.append(("empirical_g2_sigmas", dev <= 6.0, dev))
        return results


def _cli(argv: list[str]) -> tuple[int, str]:
    """Run the command line in-process; returns (exit code, stdout)."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli_main(argv)
        except SystemExit as exc:  # argparse errors exit instead of returning
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    return code, stdout.getvalue()


SUBCOMMANDS = (
    "g2-scan", "scatter", "coherence-map", "gtilde-table", "envelope-oracle", "preselect",
    "sensing-snr", "subtract-table", "image-sim", "reconstruct", "oracle-check",
)

_SMOKE_FLAGS = {
    "g2-scan": ["--theta-count", "7"],
    "coherence-map": ["--k-count", "5"],
    "envelope-oracle": ["--dk-count", "33"],
    "preselect": ["--mean", "0.3"],
    "sensing-snr": ["--phi-count", "3"],
    "image-sim": ["--width", "8", "--height", "8", "--measurements", "32", "--shots", "500"],
    "reconstruct": ["--width", "8", "--height", "8", "--max-iter", "50"],
}


class Cli:
    """All subcommands at their defaults through ``photonstats.cli.main``;
    ``reconstruct`` reads what ``image-sim`` wrote."""

    name = "cli"

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        self.seed = seed
        self.smoke = smoke
        self.workdir = workdir
        self.first_dir: Path | None = None
        self.extras = {}

    def _argv(self, sub: str, out: Path) -> list[str]:
        argv = [sub, "--out", str(out)]
        if sub == "image-sim":
            argv += ["--seed", str(self.seed)]
        if sub == "reconstruct":
            argv += ["--input", str(out / "image-sim-measurements.csv"),
                     "--masks", str(out / "image-sim-masks.csv")]
        return argv + (_SMOKE_FLAGS.get(sub, []) if self.smoke else [])

    def run(self, tr, pass_id):
        out = self.workdir / f"pass{pass_id}"
        summaries = {}
        for sub in SUBCOMMANDS:
            with tr.span(f"cli.{sub}"):
                code, stdout = _cli(self._argv(sub, out))
                if code != 0:
                    raise CallFailed(f"photonstats {sub} exited with {code}")
            summaries[sub] = json.loads(stdout)
        return {"dir": out, "summaries": summaries}

    def check(self, tr, out, pass_id):
        d, summaries = out["dir"], out["summaries"]
        config = {sub: json.loads((d / f"{sub}-manifest.json").read_text())["config"] for sub in SUBCOMMANDS}
        results = []
        for sub in SUBCOMMANDS:
            missing = [a for a in summaries[sub]["artifacts"] if not (d / a).is_file()]
            results.append((f"{sub}_artifacts", not missing, float(len(missing))))

        def data_rows(name):
            return len((d / name).read_text().splitlines()) - 1

        c = config["g2-scan"]
        curve = np.linspace(c["theta_start"], c["theta_stop"], c["theta_count"])
        g2_min = min(routes.mixed_thermal_g2(*ScatterConfig(c["n_s"], c["n_s"] / c["n_pl_ratio"], t).mode_means)
                     for t in curve)
        err = routes.max_rel_err(summaries["g2-scan"]["g2_min"], g2_min)
        results.append(("g2-scan_min_rel_err", err <= 1e-6, err))
        c = config["scatter"]
        err = routes.max_rel_err(
            summaries["scatter"]["g2"],
            routes.mixed_thermal_g2(*ScatterConfig(c["n_s"], c["n_pl"], c["theta_deg"]).mode_means))
        results.append(("scatter_g2_rel_err", err <= 1e-6, err))
        c = config["preselect"]
        with tr.span("coherence.mode_probabilities"):
            probs = mode_probabilities(PreselectionNetwork(tuple(c["angles"]), c["mean"]))
        err = routes.max_rel_err(summaries["preselect"]["vacuum_detected"], 1.0 / (1.0 + c["mean"] * sum(probs[:3])))
        results.append(("preselect_vacuum_rel_err", err <= EXACT_RTOL, err))
        err = summaries["envelope-oracle"]["relative_error"]
        results.append(("envelope-oracle_fringe_rel_err", err <= 0.02, err))
        err = summaries["subtract-table"]["worst_rel_err"]
        results.append(("subtract-table_vs_published", err <= 0.15, err))
        results.append(("oracle-check_all_passed", summaries["oracle-check"]["all_passed"] is True, 0.0))
        rows = {
            "gtilde-table.csv": (config["gtilde-table"]["n_max"] + 1) ** 2,
            "coherence-map.csv": config["coherence-map"]["k_count"] ** 2,
            "sensing-snr.csv": config["sensing-snr"]["phi_count"] * 4,
            "image-sim-measurements.csv": config["image-sim"]["measurements"],
        }
        for name, want in rows.items():
            got = data_rows(name)
            results.append((f"{name}_rows", got == want, float(got)))

        sim, rec = config["image-sim"], config["reconstruct"]
        with tr.span("pgm.read_pgm"):
            scene = read_pgm(str(d / "image-sim-scene.pgm"))
        phantom = binary_phantom(sim["width"], sim["height"]).as_image()
        want = np.where(phantom > 0.5, 255, 0)
        results.append(("image-sim_scene_pgm", scene.shape == want.shape and np.array_equal(scene, want), 0.0))
        with tr.span("pgm.read_pgm"):
            image = read_pgm(str(d / "reconstruct.pgm"))
        results.append(("reconstruct_pgm", image.shape == (rec["height"], rec["width"]) and image.max() == 255,
                        float(image.max())))
        copy = d / "roundtrip.pgm"
        with tr.span("pgm.write_pgm"):
            write_pgm(str(copy), image)
        same = copy.read_bytes() == (d / "reconstruct.pgm").read_bytes()
        results.append(("pgm_roundtrip_bytes", same, 0.0))

        artifacts = [a for s in SUBCOMMANDS for a in summaries[s]["artifacts"] if not a.endswith("-manifest.json")]
        if self.first_dir is None:
            self.first_dir = d
            self.extras["cli.replay.failed"] = [self._replay(tr, d)]
        else:
            changed = [a for a in artifacts if (d / a).read_bytes() != (self.first_dir / a).read_bytes()]
            results.append(("artifacts_repeat_bytes", not changed, float(len(changed))))
        return results

    def _replay(self, tr, d: Path) -> int:
        """Pass every manifest back through --config; count the replays that
        fail or do not reproduce the artifacts byte for byte. This probes a
        documented contract, not the workload's operations."""
        failed = 0
        for sub in SUBCOMMANDS:
            manifest = d / f"{sub}-manifest.json"
            replay_dir = d / "replay" / sub
            with tr.span("replay", subcommand=sub) as sp:
                code, _ = _cli([sub, "--config", str(manifest), "--out", str(replay_dir)])
                sp["exit_code"] = code
            artifacts = json.loads(manifest.read_text())["artifacts"]
            same = code == 0 and all(
                (replay_dir / a).is_file() and (replay_dir / a).read_bytes() == (d / a).read_bytes()
                for a in artifacts
            )
            failed += not same
        return failed


WORKLOADS = {cls.name: cls for cls in (Imaging, ExactLaws, MCTwin, Cli)}
