"""Command-line front end: seeded, reproducible analysis runs.

Every subcommand resolves its parameters from defaults, an optional JSON
config file, and explicit flags (flags win), writes its numeric artifacts
as CSV/JSON/PGM into the output directory, and drops a manifest echoing the
fully resolved configuration so the run can be repeated byte for byte. The
manifest also records the run's summary (for `reconstruct`: iterations,
restarts, residual, stop_reason, gradient_mapping), deterministic like the
artifacts.
Floats are printed with 17 significant digits for exact round-trips.

Exit codes: 0 success, 2 configuration or domain error, 3 accuracy or
convergence failure. Diagnostics go to stderr; stdout carries one JSON line
summarizing the run.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import replace
from pathlib import Path
from types import MappingProxyType

import numpy as np

from . import __version__, _routes
from .coherence import (
    InterferenceConfig,
    PreselectionNetwork,
    ThermalSplitterState,
    _envelope_oracle,
    conditional_g2_map,
    detected_vacuum_probability,
    gtilde2_thermal,
    mode_probabilities,
    modulation_frequency,
)
from .errors import AccuracyError, ConfigError, PhotonStatsError, _real
from .imaging import (
    DetectorModel,
    SensingMatrix,
    TwoArmDetection,
    acquire,
    binary_phantom,
    cs_reconstruct,
    random_sensing_matrix,
    scale_scene_to_projection,
)
from .montecarlo import RngSeed
from .pgm import write_pgm
from .scatter import ScatterConfig, detected_pmf, g2_vs_angle
from .sensing import (
    PUBLISHED_SUBTRACTION_TABLE,
    phase_uncertainty,
    preset,
    snr,
    subtraction_success_probability,
)
from .states import g2_from_pmf

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


def _json_scalar(value):
    """``json.dumps``' fallback: a NumPy scalar as the Python number it holds."""
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _write_manifest(
    out_dir: Path, name: str, params: dict, artifacts: list[str], summary: dict
) -> Path:
    manifest = {
        "subcommand": name,
        "config": params,
        "artifacts": sorted(artifacts),
        "summary": summary,
        "version": __version__,
    }
    path = out_dir / f"{name}-manifest.json"
    path.write_text(json.dumps(manifest, sort_keys=True, indent=2, default=_json_scalar) + "\n")
    return path


def _format_float(x: float) -> str:
    """Decimal string with 17 significant digits; round-trips bit-exactly."""
    return f"{float(x):.17g}"


def _write_rows(path: Path, header: str, rows) -> None:
    lines = [header]
    for row in rows:
        lines.append(",".join(_format_float(v) if isinstance(v, float) else str(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _mask_header(pixels: int) -> bytes:
    return (",".join(f"p{i}" for i in range(pixels)) + "\n").encode()


def _write_masks(path: Path, masks: SensingMatrix) -> None:
    """The mask table as `_write_rows` prints it, one 0/1 digit per cell,
    filled into a byte buffer in place: every entry is exactly 0.0 or 1.0.
    `_read_masks` is its inverse."""
    rows, pixels = masks.matrix.shape
    text = np.empty((rows, 2 * pixels), dtype=np.uint8)
    np.add(masks.matrix, ord("0"), out=text[:, 0::2], casting="unsafe")
    text[:, 1::2] = ord(",")
    text[:, -1] = ord("\n")
    with path.open("wb") as f:
        f.write(_mask_header(pixels))
        f.write(text)


def _read_masks(path: Path) -> np.ndarray | None:
    """The matrix of a table in exactly `_write_masks`' layout, decoded from
    its bytes: the header of c columns, then whole rows `d,d,…,d\\n` of c
    digits 0 or 1. None for any other layout, which `np.loadtxt` reads; on
    this layout both give the same matrix, bit for bit."""
    data = path.read_bytes()
    pixels = data.count(b",", 0, data.find(b"\n")) + 1
    header = _mask_header(pixels)
    rows, rest = divmod(len(data) - len(header), 2 * pixels)
    if not data.startswith(header) or rows < 1 or rest:
        return None
    cells = np.frombuffer(data, dtype=np.uint8, offset=len(header)).reshape(rows, 2 * pixels)
    bits = cells[:, 0::2] - np.uint8(ord("0"))  # any byte below "0" wraps past 1
    if (bits > 1).any() or (cells[:, 1:-1:2] != ord(",")).any() or (cells[:, -1] != ord("\n")).any():
        return None
    return bits.astype(np.float64)


def _gray_levels(img: np.ndarray) -> np.ndarray:
    """8-bit levels: negatives clipped, the maximum at 255, all 0 if it is <= 0."""
    top = float(img.max())
    if top <= 0.0:
        return np.zeros(img.shape, dtype=np.uint8)
    return np.round(np.clip(img, 0.0, None) / top * 255.0).astype(np.uint8)


def _emit(summary: dict) -> None:
    sys.stdout.write(json.dumps(summary, sort_keys=True, default=_json_scalar) + "\n")


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
    _write_rows(path, "n,prob", enumerate(dist.probs))
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
    _write_masks(masks_path, masks)
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
        table = _read_masks(p) if ndmin == 2 else None
        if table is None:
            try:
                table = np.loadtxt(p, delimiter=",", skiprows=1, ndmin=ndmin)
            except ValueError as exc:
                raise ConfigError(f"cannot read {p}: {exc}") from None
        tables.append(table)
    y, matrix = tables
    width, height = params["width"], params["height"]
    result = cs_reconstruct(
        SensingMatrix(matrix),
        y,
        mu=params["mu"],
        max_iter=params["max_iter"],
        tol=params["tol"],
        nonneg=bool(params["nonneg"]),
        shape=(height, width),
    )
    img_path = out / "reconstruct.pgm"
    write_pgm(img_path, _gray_levels(result.s_hat.reshape(height, width)))
    trace_path = out / "reconstruct-trace.csv"
    _write_rows(trace_path, "iteration,objective", [(i, float(v)) for i, v in enumerate(result.objective_trace)])
    return {
        "artifacts": [img_path.name, trace_path.name],
        "iterations": result.iterations,
        "restarts": result.restarts,
        "residual": result.residual,
        "stop_reason": result.stop_reason,
        "gradient_mapping": result.gradient_mapping,
    }


def _cmd_oracle_check(params: dict, out: Path) -> dict:
    checks = [(name, _routes.route_error(*values(**point), relative), tol)
              for name, (values, point, tol, relative) in _routes.ROUTES.items()]
    path = out / "oracle-check.csv"
    _write_rows(path, "check,passed,error", [(name, int(err <= tol), err) for name, err, tol in checks])
    failed = [name for name, err, tol in checks if not err <= tol]
    if failed:
        raise AccuracyError(f"oracle checks failed: {failed}")
    return {"artifacts": [path.name], "checks": len(checks), "all_passed": True}


# ===================================================================
# Parser assembly
# ===================================================================

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


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on first use and never changed
    after: every default is a scalar, None or a tuple, and each subcommand's
    defaults and actions are read-only mappings that every call shares."""
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
    p.add_argument("--angles", type=float, nargs=5, default=_routes.PRESELECT_ANGLES)
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
        sub.set_defaults(_handler=_HANDLERS[name], _defaults=MappingProxyType(defaults),
                         _actions=MappingProxyType({a.dest: a for a in params}))
        for action in params:
            action.default = argparse.SUPPRESS
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand and return its exit code (0, 2 or 3). The parser is
    built by the first call and reused by every later call in the process."""
    try:
        args = _build_parser().parse_args(argv)
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
