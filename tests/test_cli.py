"""Command-line interface: artifacts, reproducibility, exit codes."""

import json

import numpy as np
import pytest

from photonstats import read_pgm
from photonstats.cli import _HANDLERS, main


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    summary = json.loads(captured.out.strip().splitlines()[-1]) if captured.out.strip() else {}
    return rc, summary, captured.err


def load_csv(path, **kw):
    return np.loadtxt(path, delimiter=",", skiprows=1, **kw)


class TestG2Scan:
    def test_scan_endpoints(self, tmp_path, capsys):
        rc, summary, _ = run(capsys, "g2-scan", "--out", str(tmp_path))
        assert rc == 0
        rows = load_csv(tmp_path / "g2-scan.csv")
        assert rows[0, 0] == 0.0 and rows[0, 1] == pytest.approx(2.0, rel=1e-6)
        # defaults: n̄_pl = n̄_s/3, horizontal endpoint 1 + (1+9)/16
        assert rows[-1, 0] == 90.0
        assert rows[-1, 1] == pytest.approx(1.625, rel=1e-6)
        assert summary["g2_min"] <= 1.625

    def test_manifest_lists_artifacts_and_config(self, tmp_path, capsys):
        rc, _, _ = run(capsys, "g2-scan", "--out", str(tmp_path), "--n-s", "0.5")
        assert rc == 0
        manifest = json.loads((tmp_path / "g2-scan-manifest.json").read_text())
        assert manifest["subcommand"] == "g2-scan"
        assert "g2-scan.csv" in manifest["artifacts"]
        assert manifest["config"]["n_s"] == 0.5


class TestConfigPrecedence:
    def test_flag_beats_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"n_s": 2.0, "theta_count": 5}))
        rc, _, _ = run(
            capsys, "g2-scan", "--config", str(cfg), "--n-s", "0.7",
            "--out", str(tmp_path),
        )
        assert rc == 0
        manifest = json.loads((tmp_path / "g2-scan-manifest.json").read_text())
        assert manifest["config"]["n_s"] == 0.7  # flag wins
        assert manifest["config"]["theta_count"] == 5  # config beats default

    def test_abbreviated_flag_beats_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"theta_count": 5}))
        rc, _, _ = run(
            capsys, "g2-scan", "--config", str(cfg), "--theta-c", "7",
            "--out", str(tmp_path),
        )
        assert rc == 0
        manifest = json.loads((tmp_path / "g2-scan-manifest.json").read_text())
        assert manifest["config"]["theta_count"] == 7

    def test_seed_comes_from_config_and_the_flag_wins(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"seed": 5}))
        small = ("--width", "8", "--height", "8", "--measurements", "8", "--shots", "200")
        assert run(capsys, "image-sim", *small, "--config", str(cfg), "--out", str(tmp_path / "a"))[0] == 0
        assert run(capsys, "image-sim", *small, "--seed", "5", "--out", str(tmp_path / "b"))[0] == 0
        assert run(capsys, "image-sim", *small, "--config", str(cfg), "--seed", "6",
                   "--out", str(tmp_path / "c"))[0] == 0
        y = {d: (tmp_path / d / "image-sim-measurements.csv").read_bytes() for d in "abc"}
        assert y["a"] == y["b"] != y["c"]
        manifest = json.loads((tmp_path / "c" / "image-sim-manifest.json").read_text())
        assert manifest["config"]["seed"] == 6

    def test_unknown_config_key_is_a_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"n_q": 1.0}))
        rc, _, err = run(capsys, "g2-scan", "--config", str(cfg), "--out", str(tmp_path))
        assert rc == 2
        assert "n_q" in err

    def test_malformed_config_json(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text("{not json")
        rc, _, _ = run(capsys, "g2-scan", "--config", str(cfg), "--out", str(tmp_path))
        assert rc == 2


# Small sizes for every subcommand; reconstruct reads what image-sim wrote.
SMALL = {
    "g2-scan": ["--theta-count", "7"],
    "scatter": [],
    "coherence-map": ["--k-count", "5"],
    "gtilde-table": ["--n-max", "3"],
    "envelope-oracle": ["--dk-count", "33"],
    "preselect": ["--mean", "0.3"],
    "sensing-snr": ["--phi-count", "3"],
    "subtract-table": [],
    "image-sim": ["--width", "8", "--height", "8", "--measurements", "16", "--shots", "200", "--seed", "4"],
    "reconstruct": ["--width", "8", "--height", "8", "--max-iter", "30"],
    "oracle-check": [],
}


class TestManifestReplay:
    def test_every_subcommand_is_covered(self):
        assert sorted(SMALL) == sorted(_HANDLERS)

    @pytest.mark.parametrize("sub", sorted(SMALL))
    def test_replay_reproduces_the_run_byte_for_byte(self, sub, tmp_path, capsys):
        first, replay = tmp_path / "first", tmp_path / "replay"
        argv = [sub, "--out", str(first), *SMALL[sub]]
        if sub == "reconstruct":
            assert run(capsys, "image-sim", "--out", str(first), *SMALL["image-sim"])[0] == 0
            argv += ["--input", str(first / "image-sim-measurements.csv"),
                     "--masks", str(first / "image-sim-masks.csv")]
        assert run(capsys, *argv)[0] == 0
        manifest = first / f"{sub}-manifest.json"
        rc, _, err = run(capsys, sub, "--config", str(manifest), "--out", str(replay))
        assert rc == 0, err
        for name in json.loads(manifest.read_text())["artifacts"] + [manifest.name]:
            assert (replay / name).read_bytes() == (first / name).read_bytes(), name

    def test_manifest_of_another_subcommand_is_rejected(self, tmp_path, capsys):
        assert run(capsys, "g2-scan", "--theta-count", "3", "--out", str(tmp_path))[0] == 0
        rc, _, err = run(
            capsys, "scatter", "--config", str(tmp_path / "g2-scan-manifest.json"),
            "--out", str(tmp_path),
        )
        assert rc == 2
        assert "g2-scan" in err


class TestSubtractTable:
    def test_every_cell_close_to_published(self, tmp_path, capsys):
        rc, summary, _ = run(capsys, "subtract-table", "--out", str(tmp_path))
        assert rc == 0
        assert summary["worst_rel_err"] < 0.15
        with open(tmp_path / "subtract-table.csv") as fh:
            header = fh.readline().strip().split(",")
        assert header == ["mean", "level", "probability", "published", "rel_err_vs_paper"]
        rows = load_csv(tmp_path / "subtract-table.csv")
        assert rows.shape[0] == 12
        assert rows[:, 4].max() < 0.15


class TestSensingSnr:
    def test_table_shape_and_monotonicity(self, tmp_path, capsys):
        rc, _, _ = run(capsys, "sensing-snr", "--out", str(tmp_path))
        assert rc == 0
        rows = load_csv(tmp_path / "sensing-snr.csv")
        # four subtraction levels per phase sample
        phi0 = rows[rows[:, 0] == rows[0, 0]]
        assert phi0.shape[0] == 4
        assert np.all(np.diff(phi0[:, 2]) > 0)  # snr grows with L
        assert np.all(np.diff(phi0[:, 3]) < 0)  # delta_phi shrinks with L


class TestOracleCheck:
    def test_all_dual_routes_pass(self, tmp_path, capsys):
        rc, summary, _ = run(capsys, "oracle-check", "--out", str(tmp_path))
        assert rc == 0
        assert summary["all_passed"] is True
        assert summary["checks"] >= 5
        rows = np.loadtxt(
            tmp_path / "oracle-check.csv", delimiter=",", skiprows=1, dtype=str
        )
        assert all(passed == "1" for passed in rows[:, 1])


class TestImageSim:
    def test_seeded_runs_are_byte_identical(self, tmp_path, capsys):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        args = (
            "image-sim", "--width", "8", "--height", "8", "--measurements", "24",
            "--shots", "500", "--seed", "5",
        )
        assert run(capsys, *args, "--out", str(a_dir))[0] == 0
        assert run(capsys, *args, "--out", str(b_dir))[0] == 0
        a = (a_dir / "image-sim-measurements.csv").read_bytes()
        b = (b_dir / "image-sim-measurements.csv").read_bytes()
        assert a == b

    def test_different_seeds_differ(self, tmp_path, capsys):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        args = (
            "image-sim", "--width", "8", "--height", "8", "--measurements", "24",
            "--shots", "500",
        )
        run(capsys, *args, "--seed", "5", "--out", str(a_dir))
        run(capsys, *args, "--seed", "6", "--out", str(b_dir))
        a = (a_dir / "image-sim-measurements.csv").read_bytes()
        b = (b_dir / "image-sim-measurements.csv").read_bytes()
        assert a != b

    def test_unreachable_conditioning_exits_three(self, tmp_path, capsys):
        rc, _, err = run(
            capsys, "image-sim", "--width", "8", "--height", "8",
            "--measurements", "4", "--shots", "50", "--mode", "subtract(40)",
            "--out", str(tmp_path),
        )
        assert rc == 3
        assert "increase shots" in err


class TestReconstructRoundTrip:
    def test_exact_acquisition_recovers_the_phantom(self, tmp_path, capsys):
        rc, _, _ = run(
            capsys, "image-sim", "--width", "16", "--height", "16",
            "--measurements", "154", "--shots", "0", "--dark-rate", "0",
            "--efficiency", "1", "--split-angle", "0", "--out", str(tmp_path),
        )
        assert rc == 0
        rc, summary, _ = run(
            capsys, "reconstruct",
            "--input", str(tmp_path / "image-sim-measurements.csv"),
            "--masks", str(tmp_path / "image-sim-masks.csv"),
            "--width", "16", "--height", "16", "--out", str(tmp_path),
        )
        assert rc == 0
        rec = read_pgm(str(tmp_path / "reconstruct.pgm"))
        scene = read_pgm(str(tmp_path / "image-sim-scene.pgm"))
        assert np.mean((rec > 127) == (scene > 127)) > 0.98
        trace = load_csv(tmp_path / "reconstruct-trace.csv")
        settled = trace[5:, 1]
        assert np.all(np.diff(settled) <= 1e-9 * np.maximum(1.0, settled[:-1]))
        assert summary["residual"] < 0.1

    def test_stop_reason_in_summary_and_manifest(self, tmp_path, capsys):
        rc, _, _ = run(
            capsys, "image-sim", "--width", "8", "--height", "8",
            "--measurements", "40", "--shots", "0", "--out", str(tmp_path),
        )
        assert rc == 0
        rc, summary, _ = run(
            capsys, "reconstruct",
            "--input", str(tmp_path / "image-sim-measurements.csv"),
            "--masks", str(tmp_path / "image-sim-masks.csv"),
            "--width", "8", "--height", "8", "--max-iter", "3", "--out", str(tmp_path),
        )
        assert rc == 0
        assert summary["iterations"] == 3
        assert summary["stop_reason"] == "max_iter"
        manifest = json.loads((tmp_path / "reconstruct-manifest.json").read_text())
        assert manifest["summary"] == {
            key: summary[key] for key in ("iterations", "residual", "stop_reason")
        }

    def test_missing_input_is_a_config_error(self, tmp_path, capsys):
        rc, _, err = run(
            capsys, "reconstruct", "--input", str(tmp_path / "nope.csv"),
            "--out", str(tmp_path),
        )
        assert rc == 2
        assert "not found" in err

    def test_input_is_required_after_config_merge(self, tmp_path, capsys):
        rc, _, err = run(capsys, "reconstruct", "--out", str(tmp_path))
        assert rc == 2
        assert "--input" in err


class TestArgumentErrors:
    def test_unknown_flag_exits_two(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["g2-scan", "--bogus", "1", "--out", str(tmp_path)])
        assert exc.value.code == 2

    def test_domain_error_exits_two(self, tmp_path, capsys):
        rc, _, _ = run(
            capsys, "scatter", "--theta-deg", "120", "--out", str(tmp_path)
        )
        assert rc == 2


class TestTailTarget:
    @pytest.mark.parametrize("value", ["nan", "-1"])
    def test_nan_or_negative_tail_target_exits_two(self, tmp_path, capsys, value):
        rc, _, err = run(capsys, "scatter", f"--tail-target={value}", "--out", str(tmp_path))
        assert rc == 2
        assert "tail_target" in err

    def test_tiny_tail_target_returns(self, tmp_path, capsys):
        rc, summary, _ = run(capsys, "scatter", "--tail-target", "1e-20", "--out", str(tmp_path))
        assert rc == 0
        assert summary["n_max"] > 0
