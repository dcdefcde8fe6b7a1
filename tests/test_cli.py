"""Command-line interface: artifacts, reproducibility, exit codes."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photonstats import ScatterConfig, SensingMatrix, __version__, detected_pmf, random_sensing_matrix, read_pgm
from photonstats.cli import _HANDLERS, _build_parser, _format_float, _read_masks, _write_masks, _write_rows, main


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

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_ratio_exits_two_naming_it(self, tmp_path, capsys, value):
        rc, _, err = run(capsys, "g2-scan", f"--n-pl-ratio={value}", "--out", str(tmp_path))
        assert rc == 2
        assert "n_pl_ratio" in err and "finite" in err
        assert not (tmp_path / "g2-scan-manifest.json").exists()


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


class TestConfigValueTypes:
    """Config values go through the flag's own type and arity."""

    @pytest.mark.parametrize(
        "sub,config",
        [
            ("g2-scan", {"theta_count": "abc"}),
            ("g2-scan", {"theta_count": 19.7}),
            ("g2-scan", {"theta_count": -1}),
            ("g2-scan", {"n_s": [1.0]}),
            ("g2-scan", {"theta_start": True}),
            ("scatter", {"n_pl": None}),
            ("preselect", {"angles": 0.5}),
            ("preselect", {"angles": [0.3, 0.7, 0.4, 0.6]}),
            ("preselect", {"angles": [0.3, 0.7, 0.4, 0.6, "x"]}),
            ("image-sim", {"seed": True}),
        ],
    )
    def test_bad_value_is_a_config_error_naming_the_key(self, sub, config, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        rc, _, err = run(capsys, sub, "--config", str(path), "--out", str(tmp_path))
        assert rc == 2
        assert next(iter(config)) in err
        assert not (tmp_path / f"{sub}-manifest.json").exists()

    def test_values_are_converted_like_flag_text(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"angles": [0.3, 0.7, 0.4, 0.6, 1], "mean": 1}))
        rc, _, _ = run(capsys, "preselect", "--config", str(path), "--out", str(tmp_path))
        assert rc == 0
        config = json.loads((tmp_path / "preselect-manifest.json").read_text())["config"]
        assert config["angles"] == [0.3, 0.7, 0.4, 0.6, 1.0]
        assert isinstance(config["angles"][-1], float)
        assert isinstance(config["mean"], float)

    @pytest.mark.parametrize(
        "sub,flag",
        [("g2-scan", "--theta-count"), ("coherence-map", "--k-count"),
         ("envelope-oracle", "--dk-count"), ("sensing-snr", "--phi-count")],
    )
    def test_negative_grid_count_exits_two(self, sub, flag, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main([sub, flag, "-1", "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err


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


class TestOneParserPerProcess:
    """`main` builds its parser on its first call and every later call in
    the process reuses it, so no call may leave anything in it behind."""

    def test_import_builds_no_parser(self):
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        code = "import sys, photonstats.cli as cli; sys.exit(cli._build_parser.cache_info().currsize)"
        subprocess.run([sys.executable, "-c", code], env=env, check=True)

    def test_every_subcommand_shares_read_only_immutable_defaults(self):
        parser = _build_parser()
        assert _build_parser() is parser
        for sub in _HANDLERS:
            args = parser.parse_args([sub])
            assert isinstance(args._defaults, MappingProxyType) and isinstance(args._actions, MappingProxyType)
            for value in args._defaults.values():
                assert value is None or type(value) in (int, float, str) or (
                    type(value) is tuple and all(type(v) is float for v in value)), (sub, value)

    def test_reuse_leaks_nothing_into_later_calls(self, tmp_path, capsys):
        """Non-default runs, then every subcommand at its defaults; then
        --version, each --help, an unknown flag and a reconstruct without
        --input; then the defaults again, which must write the same bytes."""
        parser = _build_parser()
        config = tmp_path / "subtract.json"
        config.write_text(json.dumps({"phase": 3.0}))
        empty = tmp_path / "empty.json"
        empty.write_text("{}")
        other = tmp_path / "other"
        flags = {**SMALL, "scatter": ["--theta-deg", "30"], "preselect": ["--angles", "0.1", "0.2", "0.3", "0.4", "0.5"],
                 "subtract-table": ["--config", str(config)], "oracle-check": ["--config", str(empty)],
                 "reconstruct": [*SMALL["reconstruct"], "--input", str(other / "image-sim-measurements.csv"),
                                 "--masks", str(other / "image-sim-masks.csv")]}
        for sub in _HANDLERS:
            rc, _, err = run(capsys, sub, "--out", str(other), *flags[sub])
            assert rc == 0, (sub, err)

        first = tmp_path / "first"
        read_back = ["--input", str(first / "image-sim-measurements.csv"), "--masks", str(first / "image-sim-masks.csv")]

        def defaults_pass(out):
            summaries = {}
            for sub in _HANDLERS:
                rc, summary, err = run(capsys, sub, "--out", str(out), *(read_back if sub == "reconstruct" else []))
                assert rc == 0, (sub, err)
                summaries[sub] = {k: v for k, v in summary.items() if k != "out"}
            return summaries

        summaries = defaults_pass(first)
        rc, _, err = run(capsys, "reconstruct", "--out", str(tmp_path / "no-input"))
        assert rc == 2 and "needs --input" in err

        for argv, code in ([(["--version"], 0)] + [([sub, "--help"], 0) for sub in _HANDLERS]
                           + [([sub, "--bogus"], 2) for sub in _HANDLERS]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == code, argv
            out = capsys.readouterr().out
            if argv == ["--version"]:
                assert out == f"photonstats {__version__}\n"
            elif code == 0:
                assert out.startswith(f"usage: photonstats {argv[0]}")

        second = tmp_path / "second"
        assert defaults_pass(second) == summaries
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in second.iterdir())
        for name in names:
            assert (second / name).read_bytes() == (first / name).read_bytes(), name
        assert _build_parser() is parser


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

    @staticmethod
    def _run_with_fault(tmp_path, capsys, monkeypatch, module, kernel):
        """oracle-check with a count kernel scaled by 1 ± 5e-10, alternating
        in k, where ``module`` binds it."""
        exact = getattr(sys.modules[module], kernel)

        def faulty(k, *args):
            return exact(k, *args) * np.where(np.asarray(k) % 2 == 0, 1.0 + 5e-10, 1.0 - 5e-10)

        monkeypatch.setattr(f"{module}.{kernel}", faulty)
        return run(capsys, "oracle-check", "--out", str(tmp_path))

    @pytest.mark.parametrize(
        "module, kernel",
        [
            ("photonstats.imaging", "_poisson_pmf"),
            ("photonstats.coherence", "_binomial_pmf"),
            ("photonstats.coherence", "_negbin_pmf"),
            ("photonstats.imaging", "_negbin_pmf"),
        ],
    )
    def test_a_kernel_fault_fails_the_check(self, tmp_path, capsys, monkeypatch, module, kernel):
        """Fault injection (DeMillo, Lipton & Sayward, IEEE Computer 1978): a
        faulty count kernel where its callers bind it makes oracle-check exit 3."""
        rc, _, err = self._run_with_fault(tmp_path, capsys, monkeypatch, module, kernel)
        assert rc == 3, err
        assert "oracle checks failed" in err

    @pytest.mark.parametrize("module", ["photonstats.states", "photonstats.sensing"])
    def test_a_negbin_fault_in_a_pmf_fails_its_mass_check(self, tmp_path, capsys, monkeypatch, module):
        """Where `pmf` and `subtracted_pmf` bind `_negbin_pmf`, the faulty law
        moves the mass past the slack of `PhotonNumberDistribution`, which
        refuses it (exit 2) before a dual-route row compares it."""
        rc, _, err = self._run_with_fault(tmp_path, capsys, monkeypatch, module, "_negbin_pmf")
        assert rc == 2, err
        assert "probability mass" in err

    def test_a_negbin_fault_that_keeps_the_mass_fails_the_sensing_row(self, tmp_path, capsys, monkeypatch):
        """Where `subtracted_pmf` binds `_negbin_pmf`, a fault that moves
        5e-10·p(1) from k = 1 to k = 0 keeps the mass within the slack of
        `PhotonNumberDistribution`, so the heralded state is built and only
        its dual-route row fails, by the 5e-10 moved."""
        exact = sys.modules["photonstats.sensing"]._negbin_pmf

        def faulty(k, *args):
            moved = 5e-10 * exact(1, *args)
            return exact(k, *args) + np.where(np.equal(k, 0), moved, 0.0) - np.where(np.equal(k, 1), moved, 0.0)

        monkeypatch.setattr("photonstats.sensing._negbin_pmf", faulty)
        rc, _, err = run(capsys, "oracle-check", "--out", str(tmp_path))
        assert rc == 3, err
        assert "oracle checks failed: ['sensing_vs_noisy_law']" in err
        rows = {name: (passed, float(error)) for name, passed, error in np.loadtxt(
            tmp_path / "oracle-check.csv", delimiter=",", skiprows=1, dtype=str
        )}
        assert len(rows) == 8
        passed, error = rows.pop("sensing_vs_noisy_law")
        assert passed == "0" and 4e-10 < error < 6e-10
        assert all(passed == "1" for passed, _ in rows.values())


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

    def test_a_count_past_the_entry_budget_exits_two_naming_it(self, tmp_path, capsys):
        rc, _, err = run(
            capsys, "image-sim", "--mode", "post(4611686018427387904)", "--shots", "0", "--out", str(tmp_path),
        )
        assert rc == 2
        assert "4611686018427387904" in err
        assert "Traceback" not in err

    def test_a_count_past_4300_digits_exits_two_naming_the_mode(self, tmp_path, capsys):
        # int() refuses such a string: the mode is refused by the length of N
        rc, _, err = run(
            capsys, "image-sim", "--mode", "post(1" + "0" * 5000 + ")", "--shots", "0", "--out", str(tmp_path),
        )
        assert rc == 2
        assert "mode post(N) needs N below 2**64" in err
        assert "Traceback" not in err

    def test_counts_past_int64_exit_two(self, tmp_path, capsys):
        rc, _, err = run(
            capsys, "image-sim", "--width", "8", "--height", "8", "--measurements", "4",
            "--projection-mean", "1e15", "--shots", "20000", "--out", str(tmp_path),
        )
        assert rc == 2
        assert "int64" in err


def mask_text(matrix, cell="{:.0f}", sep=",", end="\n", extra_columns=0):
    """A mask table in any layout: each cell through `cell`, joined by `sep`,
    each line ended by `end`, the header naming `extra_columns` too many."""
    header = ",".join(f"p{i}" for i in range(matrix.shape[1] + extra_columns))
    return "".join(line + end for line in [header] + [sep.join(map(cell.format, row)) for row in matrix])


class TestMaskTable:
    """`image-sim`'s byte writer against the per-cell route it replaced, and
    `reconstruct`'s byte reader, its inverse, against `np.loadtxt`."""

    @staticmethod
    def assert_written_as_per_cell(masks, tmp_path):
        new, old = tmp_path / "bytes.csv", tmp_path / "cells.csv"
        _write_masks(new, masks)
        _write_rows(old, ",".join(f"p{i}" for i in range(masks.n_pixels)),
                    [tuple(int(v) for v in row) for row in masks.matrix])
        assert new.read_bytes() == old.read_bytes()
        loaded, decoded = load_csv(new, ndmin=2), _read_masks(new)
        assert np.array_equal(loaded, masks.matrix)
        assert decoded.dtype == loaded.dtype and decoded.shape == loaded.shape
        assert decoded.tobytes() == loaded.tobytes()

    @pytest.mark.parametrize("shape", [(1, 1), (1, 7), (5, 1), (3, 4), (256, 1024), (7, 1)])
    def test_bytes_match_the_per_cell_writer(self, shape, tmp_path):
        self.assert_written_as_per_cell(random_sensing_matrix(*shape, 0.5, 0), tmp_path)

    def test_all_zero_and_all_one_rows(self, tmp_path):
        matrix = random_sensing_matrix(4, 9, 0.5, 1).matrix.copy()
        matrix[1], matrix[2] = 0.0, 1.0
        self.assert_written_as_per_cell(SensingMatrix(matrix), tmp_path)

    def test_default_run_writes_its_seeded_masks(self, tmp_path, capsys):
        assert run(capsys, "image-sim", "--out", str(tmp_path / "run"))[0] == 0
        masks = random_sensing_matrix(256, 1024, 0.5, 0)
        written = (tmp_path / "run" / "image-sim-masks.csv").read_bytes()
        self.assert_written_as_per_cell(masks, tmp_path)
        assert written == (tmp_path / "cells.csv").read_bytes()

    @pytest.mark.parametrize(
        "layout",
        [
            lambda m: mask_text(m, cell="{:.1f}"),
            lambda m: mask_text(m, end="\r\n"),
            lambda m: mask_text(m, sep=", "),
            lambda m: mask_text(m)[:-1],
            lambda m: mask_text(m, extra_columns=1),
            lambda m: mask_text(m, extra_columns=-1),
        ],
        ids=["float-cells", "crlf", "space-after-comma", "no-final-newline", "header-too-wide", "header-too-narrow"],
    )
    def test_other_layouts_go_to_loadtxt(self, layout, tmp_path):
        matrix = random_sensing_matrix(5, 3, 0.5, 2).matrix
        path = tmp_path / "masks.csv"
        path.write_bytes(layout(matrix).encode())
        assert _read_masks(path) is None
        assert np.array_equal(load_csv(path, ndmin=2), matrix)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        shape=st.tuples(st.integers(1, 4), st.integers(1, 5)),
        edits=st.lists(st.tuples(st.integers(0, 10**6), st.sampled_from([b""] + [bytes([c]) for c in b"01,\n\r 2.#-p"]),
                                 st.booleans()), max_size=3),
    )
    def test_a_decoded_table_is_what_loadtxt_reads(self, shape, edits, tmp_path_factory):
        """A table of `_write_masks` with a few bytes replaced, inserted or
        deleted: whatever the byte reader decodes, `np.loadtxt` reads as the
        same matrix, bit for bit."""
        data = bytearray(mask_text(random_sensing_matrix(*shape, 0.5, 3).matrix).encode())
        for at, byte, insert in edits:
            at %= len(data) + 1
            data[at : at + (not insert)] = byte
        path = tmp_path_factory.mktemp("masks") / "masks.csv"
        path.write_bytes(bytes(data))
        decoded = _read_masks(path)
        if decoded is not None:
            loaded = load_csv(path, ndmin=2)
            assert decoded.shape == loaded.shape and decoded.tobytes() == loaded.tobytes()

    def test_a_float_copy_of_image_sims_masks_reconstructs_byte_identically(self, tmp_path, capsys):
        assert run(capsys, "image-sim", "--out", str(tmp_path))[0] == 0
        masks = tmp_path / "image-sim-masks.csv"
        floats = tmp_path / "float-masks.csv"
        floats.write_bytes(mask_text(_read_masks(masks), cell="{:.1f}").encode())
        assert _read_masks(floats) is None
        summaries = []
        for table in (masks, floats):
            out = tmp_path / table.stem
            rc, summary, _ = run(capsys, "reconstruct", "--input", str(tmp_path / "image-sim-measurements.csv"),
                                 "--masks", str(table), "--out", str(out))
            assert rc == 0
            summaries.append({k: v for k, v in summary.items() if k != "out"})
        assert summaries[0] == summaries[1]
        for name in ("reconstruct.pgm", "reconstruct-trace.csv"):
            assert (tmp_path / "float-masks" / name).read_bytes() == (tmp_path / "image-sim-masks" / name).read_bytes()


class TestPmfTable:
    """`scatter`'s `n,prob` table, the one place a pmf is written out."""

    @pytest.mark.parametrize(("flags", "cfg"), [
        ((), ScatterConfig(1.0, 1.0 / 3.0, 45.0)),
        (("--n-s", "30", "--n-pl", "2", "--theta-deg", "10"), ScatterConfig(30.0, 2.0, 10.0)),
    ], ids=["defaults", "n_max-833"])
    def test_scatter_pmf_parses_back_bit_for_bit(self, flags, cfg, tmp_path, capsys):
        assert run(capsys, "scatter", *flags, "--out", str(tmp_path))[0] == 0
        path = tmp_path / "scatter-pmf.csv"
        assert path.read_text().splitlines()[0] == "n,prob"
        rows = load_csv(path, ndmin=2)
        probs = detected_pmf(cfg).probs
        assert np.array_equal(rows[:, 0], np.arange(probs.size))
        assert rows[:, 1].tobytes() == probs.tobytes()

    @pytest.mark.parametrize(("flags", "cfg"), [
        ((), ScatterConfig(1.0, 1.0 / 3.0, 45.0)),
        (("--n-s", "30", "--n-pl", "2", "--theta-deg", "10"), ScatterConfig(30.0, 2.0, 10.0)),
    ], ids=["defaults", "n_max-833"])
    def test_scatter_pmf_mass_is_one_within_its_tail_bound(self, flags, cfg, tmp_path, capsys):
        assert run(capsys, "scatter", *flags, "--out", str(tmp_path))[0] == 0
        probs = load_csv(tmp_path / "scatter-pmf.csv", ndmin=2)[:, 1]
        assert np.all((probs >= 0.0) & (probs <= 1.0))
        assert 1.0 - probs.sum() <= detected_pmf(cfg).tail_bound + 1e-15

    def test_write_rows_prints_ints_bare_and_floats_in_17_digits(self, tmp_path):
        path = tmp_path / "rows.csv"
        _write_rows(path, "n,prob", [(0, 0.1), (1, 1.0 / 3.0), (2, 0.0)])
        assert path.read_text() == "n,prob\n0,0.10000000000000001\n1,0.33333333333333331\n2,0\n"

    def test_format_float_round_trips_exactly(self):
        for x in (1.0 / 3.0, 0.1, 2.0**-52, 1234567.89, 6.02e23):
            assert float(_format_float(x)) == x

    def test_format_float_keeps_sign_subnormals_and_the_largest_float(self):
        for x in (-0.0, 5e-324, -2.5e-310, 1.7976931348623157e308):
            back = float(_format_float(x))
            assert back == x and math.copysign(1.0, back) == math.copysign(1.0, x)


def test_cli_import_leaves_scipy_stats_out():
    """`scipy.stats` costs most of a cold start of the CLI; the library
    needs `scipy.special` only."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    code = "import sys, photonstats.cli; assert 'scipy.stats' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


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
        objective = trace[:, 1]
        assert np.all(np.diff(objective) <= 1e-9 * np.maximum(1.0, objective[:-1]))
        assert summary["residual"] < 0.1
        assert summary["stop_reason"] == "converged"
        assert summary["gradient_mapping"] <= 5e-8

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
        assert type(summary["restarts"]) is int and 0 <= summary["restarts"] <= 3
        assert summary["stop_reason"] == "max_iter"
        assert summary["gradient_mapping"] > 5e-8
        manifest = json.loads((tmp_path / "reconstruct-manifest.json").read_text())
        assert manifest["summary"] == {
            key: summary[key]
            for key in ("iterations", "restarts", "residual", "stop_reason", "gradient_mapping")
        }

    @pytest.fixture
    def small_run(self, tmp_path, capsys):
        rc, _, _ = run(
            capsys, "image-sim", "--width", "8", "--height", "8",
            "--measurements", "40", "--shots", "0", "--out", str(tmp_path),
        )
        assert rc == 0
        return [
            "reconstruct", "--input", str(tmp_path / "image-sim-measurements.csv"),
            "--masks", str(tmp_path / "image-sim-masks.csv"), "--width", "8",
            "--height", "8", "--max-iter", "3", "--out", str(tmp_path),
        ]

    @pytest.mark.parametrize("flag", ["--mu=nan", "--mu=inf", "--tol=nan", "--tol=inf"])
    def test_non_finite_solver_setting_exits_two(self, small_run, flag, tmp_path, capsys):
        rc, _, err = run(capsys, *small_run, flag)
        assert rc == 2
        assert "finite" in err
        assert not (tmp_path / "reconstruct-manifest.json").exists()

    @pytest.mark.parametrize("value", ["5", "-1"])
    def test_nonneg_flag_takes_only_zero_or_one(self, small_run, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*small_run, "--nonneg", value])
        assert exc.value.code == 2
        assert "--nonneg" in capsys.readouterr().err

    @pytest.mark.parametrize("value, rc", [(0, 0), (1, 0), (5, 2), (-1, 2), (True, 2)])
    def test_nonneg_config_takes_only_zero_or_one(self, small_run, value, rc, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"nonneg": value}))
        got, _, err = run(capsys, *small_run, "--config", str(path))
        assert got == rc
        manifest = tmp_path / "reconstruct-manifest.json"
        if rc == 0:
            assert json.loads(manifest.read_text())["config"]["nonneg"] == value
        else:
            assert "nonneg" in err and not manifest.exists()

    @pytest.mark.parametrize(
        "flag, text",
        [("--input", "y\n1.0\nabc\n"), ("--masks", "p0,p1\n0,1\n1,abc\n")],
        ids=["input", "masks"],
    )
    def test_non_numeric_cell_is_a_config_error_naming_the_file(
        self, small_run, flag, text, tmp_path, capsys
    ):
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        rc, _, err = run(capsys, *small_run, flag, str(bad))
        assert rc == 2
        assert str(bad) in err

    @pytest.mark.parametrize("cell, message", [(b"abc", None), (b"2", "entries must be 0 or 1")],
                             ids=["abc", "digit-2"])
    def test_a_bad_cell_in_image_sims_layout_exits_two(self, small_run, cell, message, tmp_path, capsys):
        masks = tmp_path / "image-sim-masks.csv"
        header, rows = masks.read_bytes().split(b"\n", 1)
        bad = tmp_path / "bad.csv"
        bad.write_bytes(header + b"\n" + cell + rows[1:])
        assert _read_masks(bad) is None
        rc, _, err = run(capsys, *small_run, "--masks", str(bad))
        assert rc == 2
        assert (message or str(bad)) in err

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

    def test_seed_exists_only_where_numbers_are_drawn(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["g2-scan", "--seed", "1", "--out", str(tmp_path)])
        assert exc.value.code == 2
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"seed": 3}))
        rc, _, err = run(capsys, "preselect", "--config", str(path), "--out", str(tmp_path))
        assert rc == 2
        assert "seed" in err

    def test_domain_error_exits_two(self, tmp_path, capsys):
        rc, _, _ = run(
            capsys, "scatter", "--theta-deg", "120", "--out", str(tmp_path)
        )
        assert rc == 2


class TestEnvelopeOracle:
    @pytest.mark.parametrize("value", ["-5", "0"])
    def test_non_positive_coherence_scale_exits_two(self, tmp_path, capsys, value):
        rc, _, err = run(
            capsys, "envelope-oracle", "--coherence-scale", value, "--dk-count", "9",
            "--out", str(tmp_path),
        )
        assert rc == 2
        assert "coherence_scale" in err
        assert not (tmp_path / "envelope-oracle-manifest.json").exists()

    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
    def test_empty_reversed_or_non_finite_periods_exit_two(self, tmp_path, capsys, value):
        rc, _, _ = run(
            capsys, "envelope-oracle", f"--periods={value}", "--dk-count", "9",
            "--out", str(tmp_path),
        )
        assert rc == 2
        assert not (tmp_path / "envelope-oracle-manifest.json").exists()

    def test_summary_and_manifest_report_the_quadrature_order(self, tmp_path, capsys):
        rc, summary, _ = run(capsys, "envelope-oracle", "--out", str(tmp_path))
        assert rc == 0
        manifest = json.loads((tmp_path / "envelope-oracle-manifest.json").read_text())
        # the defaults settle at the second rule tried, 64 → 128 points per axis
        assert summary["quadrature_order"] == manifest["summary"]["quadrature_order"] == 128
        # and the fitted fringe frequency is 2β within 2%
        assert summary["relative_error"] == manifest["summary"]["relative_error"] <= 0.02

    def test_default_scale_is_recorded_as_null(self, tmp_path, capsys):
        default, explicit = tmp_path / "default", tmp_path / "explicit"
        assert run(capsys, "envelope-oracle", "--dk-count", "33", "--out", str(default))[0] == 0
        manifest = json.loads((default / "envelope-oracle-manifest.json").read_text())
        assert manifest["config"]["coherence_scale"] is None
        # the default is (slit width / 8)^2 with the 200 nm slit
        rc, _, _ = run(
            capsys, "envelope-oracle", "--dk-count", "33",
            "--coherence-scale", repr((200e-9 / 8.0) ** 2), "--out", str(explicit),
        )
        assert rc == 0
        name = "envelope-oracle.csv"
        assert (default / name).read_bytes() == (explicit / name).read_bytes()


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

    def test_tail_bound_in_summary_and_manifest(self, tmp_path, capsys):
        rc, summary, _ = run(capsys, "scatter", "--tail-target", "1e-12", "--out", str(tmp_path))
        assert rc == 0
        assert 0.0 < summary["tail_bound"] <= 1e-12
        manifest = json.loads((tmp_path / "scatter-manifest.json").read_text())
        assert manifest["summary"]["tail_bound"] == summary["tail_bound"]
        assert manifest["summary"]["n_max"] == summary["n_max"]
