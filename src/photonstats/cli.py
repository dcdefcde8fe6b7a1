"""Command-line front end: seeded, reproducible analysis runs.

Every subcommand resolves its parameters from defaults, an optional JSON
config file, and explicit flags (flags win), writes its numeric artifacts
as CSV/JSON/PGM into the output directory, and drops a manifest echoing the
fully resolved configuration so the run can be repeated byte for byte. The
manifest also records the run's summary (for `reconstruct`: iterations,
residual, stop_reason, gradient_mapping), deterministic like the artifacts.
Floats are printed with 17 significant digits for exact round-trips.

Exit codes: 0 success, 2 configuration or domain error, 3 accuracy or
convergence failure. Diagnostics go to stderr; stdout carries one JSON line
summarizing the run.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .coherence import (
    InterferenceConfig,
    PreselectionNetwork,
    ThermalSplitterState,
    _detected_vacuum_sum,
    _envelope_oracle,
    conditional_g2_map,
    detected_vacuum_probability,
    gamma_sum,
    gtilde2_thermal,
    joint_pmf,
    mode_probabilities,
    modulation_frequency,
)
from .errors import AccuracyError, ConfigError, PhotonStatsError, _real
from .imaging import (
    DetectorModel,
    SensingMatrix,
    TwoArmDetection,
    _conditional_mean,
    _post_probability,
    acquire,
    binary_phantom,
    cs_reconstruct,
    joint_pmf_noisy,
    random_sensing_matrix,
    scale_scene_to_projection,
)
from .montecarlo import RngSeed
from .pgm import write_pgm
from .scatter import ScatterConfig, detected_pmf, g2_vs_angle, p_function_convolution_check
from .sensing import (
    PUBLISHED_SUBTRACTION_TABLE,
    _kept_arm,
    conditional_state_pmf,
    phase_uncertainty,
    preset,
    snr,
    subtraction_success_probability,
)
from .states import convolve, format_float, g2_from_pmf, pmf, thermal, write_csv

__all__ = ["main"]


# ===================================================================
# Config plumbing
# ===================================================================

def _load_config(path: str | None, subcommand: str) -> dict:
    """Overrides from a JSON object, or from a manifest of the same subcommand."""
    if path is None:
        return {}
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        data = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if isinstance(data, dict) and "subcommand" in data:
        if data["subcommand"] != subcommand:
            raise ConfigError(f"manifest is for {data['subcommand']!r}, not {subcommand!r}")
        data = data.get("config")
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    return data


def _from_config(key: str, value, action: argparse.Action, default):
    """A config value converted as argparse converts the flag's text: each
    JSON scalar through its JSON text, a list for a flag taking several
    values, null only where the default is None."""
    if value is None and default is None:
        return None
    values = value if action.nargs and isinstance(value, list) else [value]
    convert = action.type or str
    try:
        if len(values) != (action.nargs or 1):
            raise ValueError
        converted = [convert(v if isinstance(v, str) else json.dumps(v)) for v in values]
    except ValueError:
        raise ConfigError(
            f"config key {key!r}: invalid value {value!r} for {action.option_strings[0]}"
        ) from None
    return converted if action.nargs else converted[0]


def _resolve(args: argparse.Namespace) -> dict:
    """Defaults, overridden by the config file, overridden by explicit flags."""
    config = _load_config(args.config, args.subcommand)
    unknown = set(config) - set(args._defaults)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    config = {k: _from_config(k, v, args._actions[k], args._defaults[k]) for k, v in config.items()}
    explicit = {k: v for k, v in vars(args).items() if k in args._defaults}
    return {**args._defaults, **config, **explicit}


def _jsonify(value):
    if isinstance(value, float):
        return float(format_float(value))
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonify(v) for k, v in value.items()}
    if isinstance(value, (np.floating,)):
        return float(format_float(float(value)))
    if isinstance(value, (np.integer,)):
        return int(value)
    return value


def _write_manifest(
    out_dir: Path, name: str, params: dict, artifacts: list[str], summary: dict
) -> Path:
    manifest = {
        "subcommand": name,
        "config": _jsonify(params),
        "artifacts": sorted(artifacts),
        "summary": _jsonify(summary),
        "version": __version__,
    }
    path = out_dir / f"{name}-manifest.json"
    path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return path


def _write_rows(path: Path, header: str, rows) -> None:
    lines = [header]
    for row in rows:
        lines.append(",".join(format_float(v) if isinstance(v, float) else str(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _gray_levels(img: np.ndarray) -> np.ndarray:
    """8-bit levels: negatives clipped, the maximum at 255, all 0 if it is <= 0."""
    top = float(img.max())
    if top <= 0.0:
        return np.zeros(img.shape, dtype=np.uint8)
    return np.round(np.clip(img, 0.0, None) / top * 255.0).astype(np.uint8)


def _emit(summary: dict) -> None:
    sys.stdout.write(json.dumps(_jsonify(summary), sort_keys=True) + "\n")


# ===================================================================
# Subcommands
# ===================================================================

def _cmd_g2_scan(params: dict, out: Path) -> dict:
    n_s = params["n_s"]
    n_pl = params["n_pl"]
    if n_pl is None:
        n_pl = n_s / _real(params["n_pl_ratio"], "n_pl_ratio", 0, strict=True)
    grid = np.linspace(params["theta_start"], params["theta_stop"], params["theta_count"])
    curve = g2_vs_angle(n_s, n_pl, grid)
    path = out / "g2-scan.csv"
    _write_rows(path, "theta_deg,g2", [(float(t), float(g)) for t, g in curve])
    return {"artifacts": [path.name], "n_pl": n_pl, "g2_min": float(curve[:, 1].min())}


def _cmd_scatter(params: dict, out: Path) -> dict:
    cfg = ScatterConfig(params["n_s"], params["n_pl"], params["theta_deg"])
    dist = detected_pmf(cfg, tail_target=params["tail_target"])
    path = out / "scatter-pmf.csv"
    write_csv(dist, str(path))
    return {"artifacts": [path.name], "g2": g2_from_pmf(dist), "n_max": dist.n_max,
            "tail_bound": dist.tail_bound}


def _cmd_coherence_map(params: dict, out: Path) -> dict:
    cfg = InterferenceConfig(
        mean_h=params["mean_h"],
        mean_v=params["mean_v"],
        psi=params["psi"],
        zeta=params["zeta"],
    )
    state = ThermalSplitterState(params["mean"], params["split_angle"])
    half = 2.0 * math.pi / cfg.beta
    grid = np.linspace(-half, half, params["k_count"])
    k1, k2 = np.meshgrid(grid, grid, indexing="ij")
    n1, n2 = params["n1"], params["n2"]
    g2 = conditional_g2_map(cfg, state, n1, n2, k1, k2)
    path = out / "coherence-map.csv"
    _write_rows(path, "k1,k2,g2", zip(k1.ravel().tolist(), k2.ravel().tolist(), g2.ravel().tolist()))
    return {"artifacts": [path.name], "conditioned_on": [n1, n2], "k_span": 2.0 * half}


def _cmd_gtilde_table(params: dict, out: Path) -> dict:
    state = ThermalSplitterState(params["mean"], params["split_angle"])
    n_top = params["n_max"]
    big_n, big_m = np.indices((n_top + 1, n_top + 1)).reshape(2, -1)
    g = gtilde2_thermal(state, big_n, big_m)
    path = out / "gtilde-table.csv"
    _write_rows(path, "N,M,gtilde2", zip(big_n.tolist(), big_m.tolist(), g.tolist()))
    diag = gtilde2_thermal(state, n_top, n_top)
    return {"artifacts": [path.name], "diagonal_max": diag}


def _cmd_envelope_oracle(params: dict, out: Path) -> dict:
    cfg = InterferenceConfig(
        mean_h=params["mean_h"],
        mean_v=params["mean_v"],
        psi=params["psi"],
    )
    scale = params["coherence_scale"]
    scale = (cfg.slit_width / 8.0) ** 2 if scale is None else scale
    period = math.pi / cfg.beta
    with np.errstate(invalid="ignore"):  # the oracle rejects a non-finite grid
        dks = np.linspace(0.0, params["periods"] * period, params["dk_count"])
    g2, order = _envelope_oracle(cfg, scale, -dks / 2.0, dks / 2.0)
    path = out / "envelope-oracle.csv"
    _write_rows(path, "dk,g2", zip(dks.tolist(), g2.tolist()))
    omega = modulation_frequency(dks, g2)
    return {
        "artifacts": [path.name],
        "fringe_frequency": omega,
        "expected_frequency": 2.0 * cfg.beta,
        "relative_error": abs(omega / 2.0 - cfg.beta) / cfg.beta,
        "quadrature_order": order,
    }


def _cmd_preselect(params: dict, out: Path) -> dict:
    net = PreselectionNetwork(tuple(params["angles"]), params["mean"])
    probs = mode_probabilities(net)
    path = out / "preselect-modes.csv"
    _write_rows(path, "mode,probability", [(i + 1, float(p)) for i, p in enumerate(probs)])
    vac = detected_vacuum_probability(net)
    return {
        "artifacts": [path.name],
        "vacuum_detected": vac,
        "vacuum_unconditional": 1.0 / (1.0 + net.mean),
        "loss_mass": float(sum(probs[3:])),
    }


def _cmd_sensing_snr(params: dict, out: Path) -> dict:
    cfg = preset(params["preset"], mean=params["mean"]) if params["mean"] is not None else preset(params["preset"])
    count = params["phi_count"]
    phis = np.linspace(math.pi / 16.0, 15.0 * math.pi / 16.0, count)
    rows = []
    for phi in phis:
        at_phi = replace(cfg, phase=float(phi))
        for level in range(4):
            rows.append((float(phi), level, snr(at_phi, level), phase_uncertainty(at_phi, level)))
    path = out / "sensing-snr.csv"
    _write_rows(path, "phi,L,snr,delta_phi", rows)
    return {"artifacts": [path.name], "levels": 4, "phi_count": count}


def _cmd_subtract_table(params: dict, out: Path) -> dict:
    phase = params["phase"]
    rows = []
    worst = 0.0
    for mean, published_row in PUBLISHED_SUBTRACTION_TABLE.items():
        cfg = preset(params["preset"], mean=mean, phase=phase)
        for level, published in zip((1, 2, 3), published_row):
            prob = subtraction_success_probability(cfg, level)
            rel = abs(prob - published) / published
            worst = max(worst, rel)
            rows.append((float(mean), level, prob, published, rel))
    path = out / "subtract-table.csv"
    _write_rows(path, "mean,level,probability,published,rel_err_vs_paper", rows)
    return {"artifacts": [path.name], "worst_rel_err": worst}


def _cmd_image_sim(params: dict, out: Path) -> dict:
    seed = RngSeed(params["seed"])
    scene = binary_phantom(params["width"], params["height"])
    masks = random_sensing_matrix(
        params["measurements"],
        scene.values.size,
        params["fill"],
        seed,
    )
    scene = scale_scene_to_projection(scene, masks, params["projection_mean"])
    arms = TwoArmDetection(
        params["split_angle"],
        DetectorModel(params["efficiency"], params["dark_rate"]),
        DetectorModel(params["efficiency"], params["dark_rate"]),
    )
    y = acquire(scene, masks, arms, params["mode"], shots=params["shots"] or None, seed=RngSeed(seed.seed, 1))

    scene_path = out / "image-sim-scene.pgm"
    write_pgm(scene_path, _gray_levels(scene.as_image()))
    masks_path = out / "image-sim-masks.csv"
    _write_rows(masks_path, ",".join(f"p{i}" for i in range(masks.n_pixels)),
                [tuple(int(v) for v in row) for row in masks.matrix])
    y_path = out / "image-sim-measurements.csv"
    _write_rows(y_path, "y", [(float(v),) for v in y])
    return {
        "artifacts": [scene_path.name, masks_path.name, y_path.name],
        "mode": params["mode"],
        "rows": masks.n_measurements,
    }


def _cmd_reconstruct(params: dict, out: Path) -> dict:
    if params["input"] is None:
        raise ConfigError("reconstruct needs --input (measurement CSV)")
    tables = []
    for p, ndmin in ((Path(params["input"]), 1), (Path(params["masks"]), 2)):
        if not p.is_file():
            raise ConfigError(f"input file not found: {p}")
        try:
            tables.append(np.loadtxt(p, delimiter=",", skiprows=1, ndmin=ndmin))
        except ValueError as exc:
            raise ConfigError(f"cannot read {p}: {exc}") from None
    y, matrix = tables
    width, height = params["width"], params["height"]
    result = cs_reconstruct(
        SensingMatrix(matrix),
        y,
        mu=params["mu"],
        max_iter=params["max_iter"],
        tol=params["tol"],
        nonneg=params["nonneg"],
        shape=(height, width),
    )
    img_path = out / "reconstruct.pgm"
    write_pgm(img_path, _gray_levels(result.s_hat.reshape(height, width)))
    trace_path = out / "reconstruct-trace.csv"
    _write_rows(trace_path, "iteration,objective", [(i, float(v)) for i, v in enumerate(result.objective_trace)])
    return {
        "artifacts": [img_path.name, trace_path.name],
        "iterations": result.iterations,
        "residual": result.residual,
        "stop_reason": result.stop_reason,
        "gradient_mapping": result.gradient_mapping,
    }


def _cmd_oracle_check(params: dict, out: Path) -> dict:
    checks: list[tuple[str, bool, float]] = []

    dist = p_function_convolution_check(0.7, 1.4)
    ref = pmf(thermal(2.1), cutoff=dist.n_max)
    err = float(np.max(np.abs(dist.probs - ref.probs)))
    checks.append(("p_function_vs_thermal", err <= 1e-12, err))

    cfg = ScatterConfig(1.0, 1.0 / 3.0, 45.0)
    d = detected_pmf(cfg)
    a, b = cfg.mode_means
    conv = convolve(pmf(thermal(a), cutoff=d.n_max), pmf(thermal(b), cutoff=d.n_max))
    err = float(np.max(np.abs(d.probs - conv.probs[: d.n_max + 1])))
    checks.append(("scatter_vs_convolution", err <= 1e-12, err))

    n = np.arange(21)  # 20! < 2^63, so the int64 product is exact
    err = float(np.max(np.abs(gamma_sum(n) / np.cumprod(n.clip(1)) - 1.0)))
    checks.append(("gamma_sum_identity", err <= 1e-9, err))

    # with perfect detectors the noisy law is joint_pmf in its own arithmetic
    st = ThermalSplitterState(1.0, math.pi / 4.0)
    perfect = TwoArmDetection(st.split_angle, DetectorModel(), DetectorModel())
    grid = np.indices((60, 60))
    oracle = joint_pmf_noisy(st.mean_total, perfect, *grid)
    err = float(np.max(np.abs(joint_pmf(st, *grid) / oracle - 1.0)))
    checks.append(("joint_pmf_vs_noisy_law", err <= 1e-12, err))

    # exact post(N) and subtract(N) rows against the noisy law's row sums and
    # conditional column means; counts past 24 carry < 1e-20 of the mass
    arms = TwoArmDetection(math.pi / 4.0, DetectorModel(0.55, 0.3), DetectorModel(0.55, 0.3))
    table = joint_pmf_noisy(0.8, arms, *np.indices((25, 25)))
    for name, primary, oracle in (
        ("post_vs_noisy_law", _post_probability, table.sum(axis=1)),
        ("subtract_vs_noisy_law", _conditional_mean, np.arange(25) @ table / table.sum(axis=0)),
    ):
        got = np.concatenate([primary(0.8, arms, big_n) for big_n in range(8)])
        err = float(np.max(np.abs(got / oracle[:8] - 1.0)))
        checks.append((name, err <= 1e-12, err))

    # the heralded sensing state given L counts, L = 0..3, against the arm-a
    # column at arm b = L of a perfect-detector table with arm means A = Kc
    # and B = Bc, normalized by its own sum
    sensor = preset("thesis-ch5")
    big_k, big_b, c = _kept_arm(sensor)
    a, b = big_k * c, big_b * c
    heralded = [conditional_state_pmf(sensor, level) for level in range(4)]
    split = TwoArmDetection(math.atan(math.sqrt(b / a)), DetectorModel(), DetectorModel())
    table = joint_pmf_noisy(a + b, split, *np.indices((max(d.n_max for d in heralded) + 1, 4)))
    columns = table / table.sum(axis=0)
    err = max(
        float(np.max(np.abs(d.probs / columns[: d.n_max + 1, level] - 1.0))) for level, d in enumerate(heralded)
    )
    checks.append(("sensing_vs_noisy_law", err <= 1e-12, err))

    net = PreselectionNetwork(_PRESELECT_ANGLES, 0.3)
    oracle = _detected_vacuum_sum(net)
    err = abs(detected_vacuum_probability(net) - oracle) / oracle
    checks.append(("vacuum_closed_form_vs_sum", err <= 1e-9, err))

    path = out / "oracle-check.csv"
    _write_rows(path, "check,passed,error", [(name, int(ok), float(e)) for name, ok, e in checks])
    failed = [name for name, ok, _ in checks if not ok]
    if failed:
        raise AccuracyError(f"oracle checks failed: {failed}")
    return {"artifacts": [path.name], "checks": len(checks), "all_passed": True}


# ===================================================================
# Parser assembly
# ===================================================================

_PRESELECT_ANGLES = (0.3, 0.7, 0.4, 0.6, 0.5)


def non_negative_int(text: str) -> int:
    """Type of the grid-size flags."""
    value = int(text)
    if value < 0:
        raise ValueError(text)
    return value


def zero_or_one(text: str) -> int:
    """Type of `--nonneg`: 0 or 1."""
    value = int(text)
    if value not in (0, 1):
        raise ValueError(text)
    return value


_HANDLERS = {
    "g2-scan": _cmd_g2_scan,
    "scatter": _cmd_scatter,
    "coherence-map": _cmd_coherence_map,
    "gtilde-table": _cmd_gtilde_table,
    "envelope-oracle": _cmd_envelope_oracle,
    "preselect": _cmd_preselect,
    "sensing-snr": _cmd_sensing_snr,
    "subtract-table": _cmd_subtract_table,
    "image-sim": _cmd_image_sim,
    "reconstruct": _cmd_reconstruct,
    "oracle-check": _cmd_oracle_check,
}


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", default=None, help="JSON file with parameter overrides")
    sub.add_argument("--out", default=".", help="output directory for artifacts")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="photonstats", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"photonstats {__version__}")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    p = subs.add_parser("g2-scan", help="g2 of the mixed field versus polarization angle")
    p.add_argument("--n-s", dest="n_s", type=float, default=1.0)
    p.add_argument("--n-pl", dest="n_pl", type=float, default=None)
    p.add_argument("--n-pl-ratio", dest="n_pl_ratio", type=float, default=3.0)
    p.add_argument("--theta-start", dest="theta_start", type=float, default=0.0)
    p.add_argument("--theta-stop", dest="theta_stop", type=float, default=90.0)
    p.add_argument("--theta-count", dest="theta_count", type=non_negative_int, default=91)

    p = subs.add_parser("scatter", help="detected photon-number distribution")
    p.add_argument("--n-s", dest="n_s", type=float, default=1.0)
    p.add_argument("--n-pl", dest="n_pl", type=float, default=1.0 / 3.0)
    p.add_argument("--theta-deg", dest="theta_deg", type=float, default=45.0)
    p.add_argument("--tail-target", dest="tail_target", type=float, default=1e-10)

    p = subs.add_parser("coherence-map", help="conditional spatial correlation map")
    p.add_argument("--mean", type=float, default=1.0)
    p.add_argument("--split-angle", dest="split_angle", type=float, default=math.pi / 4.0)
    p.add_argument("--mean-h", dest="mean_h", type=float, default=0.5)
    p.add_argument("--mean-v", dest="mean_v", type=float, default=0.5)
    p.add_argument("--psi", type=float, default=math.pi / 4.0)
    p.add_argument("--zeta", type=float, default=0.9)
    p.add_argument("--n1", type=int, default=1)
    p.add_argument("--n2", type=int, default=1)
    p.add_argument("--k-count", dest="k_count", type=non_negative_int, default=33)

    p = subs.add_parser("gtilde-table", help="wavepacket correlation table")
    p.add_argument("--mean", type=float, default=1.0)
    p.add_argument("--split-angle", dest="split_angle", type=float, default=math.pi / 4.0)
    p.add_argument("--n-max", dest="n_max", type=int, default=5)

    p = subs.add_parser("envelope-oracle", help="classical-field fringe oracle")
    p.add_argument("--mean-h", dest="mean_h", type=float, default=1.0)
    p.add_argument("--mean-v", dest="mean_v", type=float, default=0.5)
    p.add_argument("--psi", type=float, default=math.pi / 4.0)
    p.add_argument("--coherence-scale", dest="coherence_scale", type=float, default=None,
                   help="squared coherence length, > 0; default (slit width / 8)^2")
    p.add_argument("--periods", type=float, default=4.0)
    p.add_argument("--dk-count", dest="dk_count", type=non_negative_int, default=129)

    p = subs.add_parser("preselect", help="five-splitter vacuum preselection")
    p.add_argument("--angles", type=float, nargs=5, default=_PRESELECT_ANGLES)
    p.add_argument("--mean", type=float, default=1.2)

    p = subs.add_parser("sensing-snr", help="phase-sensing SNR and uncertainty table")
    p.add_argument("--preset", default="thesis-ch5")
    p.add_argument("--mean", type=float, default=None)
    p.add_argument("--phi-count", dest="phi_count", type=non_negative_int, default=15)

    p = subs.add_parser("subtract-table", help="subtraction success probabilities vs published values")
    p.add_argument("--preset", default="thesis-ch5")
    p.add_argument("--phase", type=float, default=math.pi)

    p = subs.add_parser("image-sim", help="simulate single-pixel acquisition of a phantom")
    p.add_argument("--width", type=int, default=32)
    p.add_argument("--height", type=int, default=32)
    p.add_argument("--measurements", type=int, default=256)
    p.add_argument("--fill", type=float, default=0.5)
    p.add_argument("--projection-mean", dest="projection_mean", type=float, default=0.8)
    p.add_argument("--split-angle", dest="split_angle", type=float, default=math.pi / 4.0)
    p.add_argument("--efficiency", type=float, default=0.55)
    p.add_argument("--dark-rate", dest="dark_rate", type=float, default=0.8)
    p.add_argument("--mode", default="intensity")
    p.add_argument("--shots", type=int, default=20000, help="0 = exact statistics")
    p.add_argument("--seed", type=int, default=0, help="base RNG seed (u64)")

    p = subs.add_parser("reconstruct", help="TV-regularized reconstruction from measurements")
    p.add_argument("--input", default=None, help="measurement CSV (one y column)")
    p.add_argument("--masks", default="image-sim-masks.csv", help="sensing-matrix CSV of 0/1")
    p.add_argument("--width", type=int, default=32)
    p.add_argument("--height", type=int, default=32)
    p.add_argument("--mu", type=float, default=100.0)
    p.add_argument("--max-iter", dest="max_iter", type=int, default=2000)
    p.add_argument("--tol", type=float, default=5e-8)
    p.add_argument("--nonneg", type=zero_or_one, default=1)

    p = subs.add_parser("oracle-check", help="fast dual-route self checks")

    for name, sub in subs.choices.items():
        _add_common(sub)
        params = [a for a in sub._actions if a.dest not in ("help", "config", "out")]
        defaults = {a.dest: a.default for a in params}
        sub.set_defaults(_handler=_HANDLERS[name], _defaults=defaults, _actions={a.dest: a for a in params})
        for action in params:
            action.default = argparse.SUPPRESS
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        params = _resolve(args)
        summary = args._handler(params, out_dir)
        artifacts = summary.pop("artifacts", [])
        manifest = _write_manifest(out_dir, args.subcommand, params, artifacts, summary)
        _emit(
            {
                "subcommand": args.subcommand,
                "artifacts": artifacts + [manifest.name],
                "out": str(out_dir),
                **summary,
            }
        )
        return 0
    except AccuracyError as exc:
        print(f"accuracy error: {exc}", file=sys.stderr)
        return 3
    except PhotonStatsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
