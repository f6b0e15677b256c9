"""End-to-end command tests: files, columns, metadata, exit codes."""

from __future__ import annotations

import contextlib
import io
import math
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import mtdiff as mt
from mtdiff import config
from mtdiff.cli import main
from mtdiff.config import build_ensemble, build_graph, load_config

from test_theory import _entry_points

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
RING = "\n".join(f"{k} {k % 5 + 1} 0.2" for k in range(1, 6)) + "\n"

BASE = {
    "graph.source": "edges",
    "graph.path": "ring.edges",
    "ensemble.dim": "2",
    "ensemble.tau": "2, 3",
    "ensemble.profile": "uniform",
    "ensemble.sigma_u_sq": "1.0",
    "ensemble.sigma_v_sq": "0.1",
    "algo.mu": "0.01",
    "algo.eta": "0, 1, 5",
    "algo.n_iters": "300",
    "algo.n_runs": "2",
    "algo.seed": "5",
}


def _write_config(tmp_path, overrides=None, *, drop=()):
    (tmp_path / "ring.edges").write_text(RING)
    entries = dict(BASE)
    entries.update(overrides or {})
    for key in drop:
        entries.pop(key, None)
    text = "\n".join(f"{k} = {v}" for k, v in entries.items()) + "\n"
    path = tmp_path / "exp.conf"
    path.write_text(text)
    return path


def _read_csv(path):
    meta, header, rows = [], None, []
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            meta.append(line[2:])
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, header, rows


class TestTheoryCommand:
    def test_files_columns_and_noncoop_match(self, tmp_path, capsys):
        cfg = _write_config(tmp_path)
        out = tmp_path / "res"
        assert main(["theory", "--config", str(cfg), "--out", str(out)]) == 0
        meta, header, rows = _read_csv(out / "theory.csv")
        assert header == [
            "eta", "mu", "msd_total", "msd_noncoop", "msd_bar", "mismatch_sq", "bias_cross",
        ]
        assert len(rows) == 3
        assert any(m.startswith("tool = mtdiff") for m in meta)
        assert any(m.startswith("config-sha256 = ") for m in meta)
        assert "seed = 5" in meta
        # uniform R_u: at eta = 0 the prediction collapses to the solo baseline
        row0 = dict(zip(header, rows[0]))
        assert float(row0["eta"]) == 0.0
        assert float(row0["msd_total"]) == pytest.approx(
            float(row0["msd_noncoop"]), rel=1e-10
        )
        assert float(row0["mismatch_sq"]) == 0.0
        # one per-frequency file per eta, 5 graph frequencies each
        for tag in ("0", "1", "5"):
            _, fh, frows = _read_csv(out / f"theory_freq_eta{tag}.csv")
            assert fh == ["m", "lambda_m", "msd_term"]
            assert [r[0] for r in frows] == ["1", "2", "3", "4", "5"]
        svg = (out / "theory.svg").read_text()
        assert svg.startswith("<!--") and "<svg" in svg and "polyline" in svg
        assert "eta=0" in capsys.readouterr().out

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = _write_config(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["theory", "--config", str(cfg), "--out", str(a)]) == 0
        assert main(["theory", "--config", str(cfg), "--out", str(b)]) == 0
        for name in ("theory.csv", "theory_freq_eta1.csv", "theory.svg"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_seed_override_lands_in_metadata(self, tmp_path):
        cfg = _write_config(tmp_path)
        out = tmp_path / "res"
        assert main(
            ["theory", "--config", str(cfg), "--out", str(out), "--seed", "123"]
        ) == 0
        meta, _, _ = _read_csv(out / "theory.csv")
        assert "seed = 123" in meta

    def test_single_eta_skips_chart(self, tmp_path):
        cfg = _write_config(tmp_path, {"algo.eta": "2"})
        out = tmp_path / "res"
        assert main(["theory", "--config", str(cfg), "--out", str(out)]) == 0
        assert not (out / "theory.svg").exists()
        assert (out / "theory_freq_eta2.csv").exists()

    def test_colliding_file_names_exit_2(self, tmp_path, capsys):
        """Distinct etas that print alike would write one per-frequency file."""
        cfg = _write_config(tmp_path, {"algo.eta": "0, 1.0000001, 1.0000002"})
        out = tmp_path / "res"
        assert main(["theory", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "1.0000001" in err and "1.0000002" in err
        assert not out.exists()

    def test_multiple_mu_rejected(self, tmp_path):
        cfg = _write_config(tmp_path, {"algo.mu": "0.01, 0.001"})
        assert main(["theory", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2


class TestSimulateCommand:
    def test_track_long_term_key_exits_2(self, tmp_path):
        """The long-term tracking mode is gone; its key is now unknown."""
        cfg = _write_config(
            tmp_path, {"algo.eta": "1", "algo.track_long_term": "true"}
        )
        out = tmp_path / "res"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()

    def test_no_gap_column_by_default(self, tmp_path):
        cfg = _write_config(tmp_path, {"algo.eta": "1"})
        out = tmp_path / "res"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        _, header, rows = _read_csv(out / "curves.csv")
        assert header == ["iter", "msd_vs_reg", "msd_vs_target"]
        assert len(rows) == 300
        assert rows[0][0] == "0" and rows[-1][0] == "299"
        assert (out / "learning_curve.svg").exists()

    def test_unstable_pair_exits_3(self, tmp_path):
        cfg = _write_config(tmp_path, {"algo.mu": "0.1", "algo.eta": "30"})
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 3

    def test_horizon_above_budget_exits_2(self, tmp_path, monkeypatch, capsys):
        def no_block(*args):
            raise AssertionError("a block was simulated")

        monkeypatch.setattr(mt.engine, "_run_block", no_block)
        cfg = _write_config(tmp_path, {"algo.eta": "1", "algo.n_iters": "10000001"})
        out = tmp_path / "res"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error: horizon of 10000001")
        assert not out.exists()

    def test_divergence_exits_4(self, tmp_path):
        cfg = _write_config(
            tmp_path,
            {"algo.mu": "1.9", "algo.eta": "0", "algo.n_iters": "400", "algo.n_runs": "1"},
        )
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 4


class TestBiasScanCommand:
    def test_surface_slopes_and_empty_db_cell(self, tmp_path, capsys):
        cfg = _write_config(
            tmp_path,
            {"algo.mu": "1e-3, 1e-4", "algo.eta": "0, log:1e-3:1e-2:5"},
        )
        out = tmp_path / "res"
        assert main(["bias-scan", "--config", str(cfg), "--out", str(out)]) == 0
        _, header, rows = _read_csv(out / "bias_scan.csv")
        assert header == [
            "eta",
            "bias_sq[mu=0.001]", "bias_db[mu=0.001]",
            "bias_sq[mu=0.0001]", "bias_db[mu=0.0001]",
        ]
        assert float(rows[0][0]) == 0.0
        assert float(rows[0][1]) == 0.0 and rows[0][2] == ""  # no dB of zero
        assert rows[1][2] != ""
        _, sh, srows = _read_csv(out / "bias_slopes.csv")
        assert sh == ["mu", "slope_vs_eta", "n_points"]
        for row in srows:
            assert float(row[1]) == pytest.approx(4.0, abs=0.3)
            assert row[2] == "5"
        text = capsys.readouterr().out
        assert "vs log mu" in text
        assert (out / "bias_scan.svg").exists()

    def test_one_solve_per_eta_and_surface_matches_pairs(self, tmp_path, monkeypatch):
        """W0_eta is solved once per eta for all mu, and every cell equals
        the theory_report bias at its (mu, eta) pair exactly."""
        path = _write_config(
            tmp_path, {"algo.mu": "1e-3, 1e-4, 1e-5", "algo.eta": "0, 1, 5"}
        )
        solved = []
        solve = mt.theory.solve_regularized

        def record(ens, g, eta):
            solved.append(eta)
            return solve(ens, g, eta)

        monkeypatch.setattr(mt.theory, "solve_regularized", record)
        out = tmp_path / "res"
        assert main(["bias-scan", "--config", str(path), "--out", str(out)]) == 0
        assert solved == [0.0, 1.0, 5.0]
        monkeypatch.undo()
        cfg = load_config(path)
        g = build_graph(cfg)
        ens = build_ensemble(cfg, g)
        _, _, rows = _read_csv(out / "bias_scan.csv")
        for row, eta in zip(rows, cfg.algo.eta, strict=True):
            for j, mu in enumerate(cfg.algo.mu):
                want = mt.theory_report(ens, g, mu, eta).bias_sq_norm
                assert float(row[1 + 2 * j]) == want

    def test_unstable_pair_exits_3_and_writes_nothing(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, {"algo.mu": "1e-3", "algo.eta": "0, 1, 1e5"})
        out = tmp_path / "res"
        assert main(["bias-scan", "--config", str(cfg), "--out", str(out)]) == 3
        assert "laplacian-spectrum" in capsys.readouterr().err
        assert not out.exists()


class TestSweepEtaCommand:
    def test_sweep_outputs_and_metadata(self, tmp_path):
        cfg = _write_config(tmp_path, {"algo.eta": "0, lin:0.5:4:8"})
        out = tmp_path / "res"
        assert main(["sweep-eta", "--config", str(cfg), "--out", str(out)]) == 0
        meta, header, rows = _read_csv(out / "sweep.csv")
        assert header == ["eta", "msd_bar", "msd_total", "mismatch_sq", "bias_cross"]
        assert len(rows) == 9
        star = [m for m in meta if m.startswith("eta-star = ")]
        assert len(star) == 1
        assert not (out / "sweep_spot_check.csv").exists()

    def test_spot_check_simulations(self, tmp_path):
        cfg = _write_config(
            tmp_path,
            {
                "algo.eta": "0, 1, 2",
                "algo.n_iters": "500",
                "algo.n_runs": "4",
                "sweep.spot_check": "true",
            },
        )
        out = tmp_path / "res"
        assert main(["sweep-eta", "--config", str(cfg), "--out", str(out)]) == 0
        _, header, rows = _read_csv(out / "sweep_spot_check.csv")
        assert header == ["eta", "msd_sim_vs_target", "msd_bar_theory"]
        assert 2 <= len(rows) <= 3  # {0, eta*, max} dedup
        for row in rows:
            assert float(row[1]) > 0.0 and float(row[2]) > 0.0

    def test_spot_checks_equal_standalone_simulations(self, tmp_path):
        """The spot checks share their runs' draws across etas; each row is
        still the standalone monte_carlo at its eta, digit for digit."""
        cfg = _write_config(
            tmp_path,
            {
                "ensemble.tau": "8, 12",  # smooth enough that 0 < eta* = 1 < 4
                "algo.eta": "0, 1, 2, 4",
                "algo.n_iters": "150",
                "algo.n_runs": "3",
                "sweep.spot_check": "true",
            },
        )
        out = tmp_path / "res"
        assert main(["sweep-eta", "--config", str(cfg), "--out", str(out)]) == 0
        _, _, rows = _read_csv(out / "sweep_spot_check.csv")
        exp = load_config(cfg)
        g = build_graph(exp)
        ens = build_ensemble(exp, g)
        a = exp.algo
        assert len(rows) == 3
        for row in rows:
            sim = mt.SimConfig(
                mu=a.mu[0], eta=float(row[0]), n_iters=a.n_iters, n_runs=a.n_runs,
                seed=a.seed, steady_window_frac=a.steady_window_frac,
            )
            res = mt.monte_carlo(ens, g, sim)
            assert row == [repr(sim.eta), repr(res.steady_msd_vs_target), repr(res.theory.msd_bar)]

    def test_degenerate_grid(self, tmp_path):
        cfg = _write_config(tmp_path, {"algo.eta": "0"})
        out = tmp_path / "res"
        assert main(["sweep-eta", "--config", str(cfg), "--out", str(out)]) == 0
        meta, _, rows = _read_csv(out / "sweep.csv")
        assert "eta-star = 0" in meta
        assert len(rows) == 1

    def test_grid_without_zero_exits_2(self, tmp_path):
        cfg = _write_config(tmp_path, {"algo.eta": "1, 2"})
        assert main(["sweep-eta", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2


class TestFilterResponseCommand:
    def test_tables_and_unit_gain_at_eta_zero(self, tmp_path):
        cfg = _write_config(
            tmp_path, {"filter.lambda_max": "1.0", "filter.lambda_points": "11"}
        )
        out = tmp_path / "res"
        assert main(["filter-response", "--config", str(cfg), "--out", str(out)]) == 0
        _, header, rows = _read_csv(out / "filter.csv")
        assert header == ["eta", "lambda", "ratio"]
        assert len(rows) == 3 * 11
        zero_rows = [r for r in rows if float(r[0]) == 0.0]
        assert all(float(r[2]) == 1.0 for r in zero_rows)
        # closed-form check of one interior cell: eta=5, lambda=0.5, R_u = I
        cell = next(
            r for r in rows if float(r[0]) == 5.0 and math.isclose(float(r[1]), 0.5)
        )
        assert float(cell[2]) == pytest.approx(1.0 / (1.0 + 5.0 * 0.5), rel=1e-12)
        _, th, trows = _read_csv(out / "filter_targets.csv")
        assert th == ["eta", "m", "lambda_m", "ratio", "bound"]
        assert len(trows) == 3 * 5
        for row in trows:
            if row[3]:  # measured attenuation obeys the closed-form bound
                assert float(row[3]) <= float(row[4]) + 1e-12
        assert (out / "filter.svg").exists()

    def test_non_uniform_profile_exits_2(self, tmp_path):
        cfg = _write_config(tmp_path, {"ensemble.profile": "scalar"})
        assert main(
            ["filter-response", "--config", str(cfg), "--out", str(tmp_path / "r")]
        ) == 2

    @pytest.mark.parametrize("weight", ["1e10", "3e10"])
    def test_heavy_weights_keep_the_low_pass_bound(self, tmp_path, weight):
        """The bundled filter config with heavy edges: every bound is at most
        1, and the consensus rows read lambda_m = 0 and bound = 1 exactly.
        The measured ratio is not compared with the bound here: at weight
        1e10 the regularized solve is ill-conditioned (about 1e13) and its
        m = 1 ratio reads 1.0005."""
        text = (CONFIG_DIR / "filter.conf").read_text()
        assert "graph.weight = 0.1\n" in text
        cfg = tmp_path / "heavy.conf"
        cfg.write_text(text.replace("graph.weight = 0.1\n", f"graph.weight = {weight}\n"))
        out = tmp_path / "res"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["filter-response", "--config", str(cfg), "--out", str(out)]) == 0
        _, header, rows = _read_csv(out / "filter_targets.csv")
        assert all(float(row[4]) <= 1.0 for row in rows)
        first = [row for row in rows if row[1] == "1"]
        assert first and all((row[2], row[4]) == ("0.0", "1.0") for row in first)


#: per-subcommand overrides of BASE that give each command every one of its files
COMMAND_OVERRIDES = {
    "theory": {},
    "simulate": {"algo.eta": "1"},
    "bias-scan": {"algo.mu": "1e-3, 1e-4"},
    "sweep-eta": {"algo.eta": "0, 1, 2", "algo.n_iters": "200", "sweep.spot_check": "true"},
    "filter-response": {},
}


class TestOutputWriter:
    @pytest.mark.parametrize("command", sorted(COMMAND_OVERRIDES))
    def test_csv_only_format(self, tmp_path, command):
        """output.formats = csv writes no chart and the same CSV files as the
        default formats; only the config digest differs, since the two config
        files differ by their output.formats line."""
        (tmp_path / "both").mkdir()
        (tmp_path / "only").mkdir()
        overrides = COMMAND_OVERRIDES[command]
        both = _write_config(tmp_path / "both", overrides)
        only = _write_config(tmp_path / "only", {**overrides, "output.formats": "csv"})
        a, b = tmp_path / "a", tmp_path / "b"
        assert main([command, "--config", str(both), "--out", str(a)]) == 0
        assert main([command, "--config", str(only), "--out", str(b)]) == 0
        assert list(a.glob("*.svg")) and not list(b.glob("*.svg"))
        names = sorted(p.name for p in a.glob("*.csv"))
        assert names and names == sorted(p.name for p in b.glob("*.csv"))

        def lines(path):
            text = path.read_text()
            assert text.count("# config-sha256 = ") == 1
            return [ln for ln in text.splitlines(True) if not ln.startswith("# config-sha256 = ")]

        for name in names:
            assert lines(a / name) == lines(b / name)

    def test_failed_command_writes_nothing(self, tmp_path):
        """A sweep-eta whose spot check diverges exits 4 before any file is
        written, sweep.csv included."""
        cfg = _write_config(
            tmp_path,
            {
                "algo.mu": "1.9",
                "algo.eta": "0",
                "algo.n_iters": "400",
                "algo.n_runs": "1",
                "sweep.spot_check": "true",
            },
        )
        out = tmp_path / "res"
        assert main(["sweep-eta", "--config", str(cfg), "--out", str(out)]) == 4
        assert not out.exists()


class TestErrorPaths:
    @pytest.mark.parametrize(
        "overrides, files",
        [
            ({"graph.path": "missing.edges"}, {}),
            ({"ensemble.profile": "file", "ensemble.profile_path": "missing.txt"}, {}),
            (
                {"ensemble.profile": "file", "ensemble.profile_path": "profile.txt"},
                {"profile.txt": "x y\n"},
            ),
            ({"ensemble.target": "file", "ensemble.target_path": "missing.txt"}, {}),
            ({}, {"res": "a regular file\n"}),
        ],
        ids=[
            "missing-edge-file",
            "missing-profile-file",
            "malformed-profile-file",
            "missing-target-file",
            "out-is-a-file",
        ],
    )
    def test_unreadable_input_or_unwritable_out_exits_2(
        self, tmp_path, capsys, overrides, files
    ):
        cfg = _write_config(tmp_path, overrides)
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        assert main(["theory", "--config", str(cfg), "--out", str(tmp_path / "res")]) == 2
        assert capsys.readouterr().err.startswith("config error:")

    def test_overflowing_eta_laplacian_exits_4(self, tmp_path, capsys):
        """eta * lambda_max(L) = 1e308 * 4 on a unit-weight 8-ring overflows:
        SingularSystem before any matrix is built, not a numpy traceback."""
        unit_ring = "".join(f"{k} {k % 8 + 1} 1\n" for k in range(1, 9))
        (tmp_path / "unit.edges").write_text(unit_ring)
        cfg = _write_config(tmp_path, {"graph.path": "unit.edges", "algo.eta": "0, 1e308"})
        out = tmp_path / "res"
        assert main(["filter-response", "--config", str(cfg), "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("numerical failure:") and "Traceback" not in err
        assert not out.exists()

    def test_unknown_key_exits_2_without_output(self, tmp_path):
        cfg = _write_config(tmp_path, {"algo.bogus": "1"})
        out = tmp_path / "res"
        assert main(["theory", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()

    def test_missing_config_exits_2(self, tmp_path):
        assert main(
            ["theory", "--config", str(tmp_path / "nope.conf"), "--out", str(tmp_path)]
        ) == 2

    def test_config_that_is_not_text_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "exp.conf"
        cfg.write_bytes(b"algo.mu = \xc4\x00\xff\n")
        assert main(["theory", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
        assert capsys.readouterr().err.startswith("config error:")

    def test_bad_edge_file_exits_2(self, tmp_path):
        cfg = _write_config(tmp_path)
        (tmp_path / "ring.edges").write_text("1 2 -0.5\n")
        assert main(["theory", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2

    @pytest.mark.parametrize(
        "profile, edges",
        [
            ("1.0 0.1\n" * 4 + "1.0 nan\n", RING),
            ("1.0 0.1\n" * 4 + "1.0 -1\n", RING),
            ("1.0 0.1\n" * 5, RING.replace("0.2", "nan", 1)),
            ("1.0 0.1\n" * 5, RING.replace("0.2", "1e308")),
        ],
        ids=[
            "nan-noise-variance",
            "negative-noise-variance",
            "nan-edge-weight",
            "overflowing-edge-weight",
        ],
    )
    def test_bad_numeric_input_exits_2(self, tmp_path, profile, edges):
        cfg = _write_config(
            tmp_path,
            {"ensemble.profile": "file", "ensemble.profile_path": "profile.txt"},
            drop=("ensemble.sigma_u_sq", "ensemble.sigma_v_sq"),
        )
        (tmp_path / "profile.txt").write_text(profile)
        (tmp_path / "ring.edges").write_text(edges)
        assert main(["theory", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2

    @pytest.mark.parametrize(
        "key, value",
        [("algo.mu", "nan"), ("algo.mu", "inf"), ("algo.eta", "0, nan")],
        ids=["nan-mu", "inf-mu", "nan-eta"],
    )
    def test_non_finite_step_exits_2(self, tmp_path, key, value):
        cfg = _write_config(tmp_path, {key: value})
        out = tmp_path / "r"
        assert main(["theory", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()

    def test_vanishing_regressor_power_exits_4(self, tmp_path, capsys):
        """Every config value is valid, but sigma_u^2 = 1e-300 leaves the
        penalty's singular Laplacian alone in the solve: exit 4, no output."""
        cfg = _write_config(
            tmp_path,
            {
                "ensemble.profile": "scalar",
                "ensemble.sigma_u_range": "1e-300, 1e-300",
                "ensemble.sigma_v_range": "0.05, 0.15",
            },
            drop=("ensemble.sigma_u_sq", "ensemble.sigma_v_sq"),
        )
        out = tmp_path / "r"
        assert main(["theory", "--config", str(cfg), "--out", str(out)]) == 4
        assert "numerically singular" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_default_horizon_exits_2(self, tmp_path, capsys):
        """bench15_sim.conf leaves algo.n_iters at 0, so the horizon is
        30 / (mu * lambda_min), which overflows at mu = 1e-310."""
        text = (CONFIG_DIR / "bench15_sim.conf").read_text()
        assert "algo.n_iters" not in text
        cfg = tmp_path / "sim.conf"
        cfg.write_text(text.replace("algo.mu = 1e-3", "algo.mu = 1e-310"))
        out = tmp_path / "r"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "horizon" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_bad_seed_override_exits_2(self, tmp_path, capsys):
        """--seed is checked by config.validate, like the algo.seed key."""
        cfg = _write_config(tmp_path)
        out = tmp_path / "r"
        for seed in ("-1", str(2**64)):
            assert main(["theory", "--config", str(cfg), "--out", str(out), "--seed", seed]) == 2
            err = capsys.readouterr().err
            assert err == "config error: algo.seed must fit in an unsigned 64-bit integer\n"
            assert not out.exists()

    def test_zero_jobs_override_exits_2(self, tmp_path, capsys):
        """--jobs is checked by config.validate, like the algo.jobs key."""
        cfg = _write_config(tmp_path)
        out = tmp_path / "r"
        assert main(["simulate", "--config", str(cfg), "--out", str(out), "--jobs", "0"]) == 2
        err = capsys.readouterr().err
        assert err == "config error: algo.n_iters >= 0, n_runs >= 1 and jobs >= 1 required\n"
        assert not out.exists()

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("mtdiff ")


class TestDeterminismAcrossJobs:
    def test_simulate_jobs_do_not_change_csv(self, tmp_path):
        overrides = {"algo.eta": "1", "algo.n_iters": "200", "algo.n_runs": "70"}
        cfg = _write_config(tmp_path, overrides)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", str(cfg), "--out", str(a)]) == 0
        assert main(
            ["simulate", "--config", str(cfg), "--out", str(b), "--jobs", "4"]
        ) == 0
        assert (a / "curves.csv").read_bytes() == (b / "curves.csv").read_bytes()


BUNDLED = {
    "theory": "bench15.conf",
    "simulate": "bench15_sim.conf",
    "bias-scan": "bias_scan.conf",
    "sweep-eta": "sweep_smooth.conf",
    "filter-response": "filter.conf",
}
# every run is short and single-threaded unless the drawn key says otherwise
BOUNDED_RUNS = {"algo.n_iters": "200", "algo.n_runs": "2", "algo.jobs": "1"}
NUMERIC_KEYS = {  # key -> value type
    f"{name}.{f.name}": f.type
    for name, section in config._SECTIONS.items()
    for f in fields(section)
    if f.type in ("int", "float", "tuple[float, ...]")
}
# keys that size an allocation or a thread pool are drawn no larger than this
SIZE_CAPS = {
    "graph.n": 40,
    "ensemble.dim": 8,
    "algo.n_iters": 500,
    "algo.n_runs": 4,
    "algo.jobs": 2,
    "filter.lambda_points": 1000,
}
EXTREMES = ["0", "-0.0", "-1", "5e-324", "2.2e-308", "1e-300", "1e300", "1e308"]
EXTREMES += ["-1e308", "inf", "-inf", "nan", str(2**64), str(-(2**63))]


def _bundled_entries(command):
    entries = {}
    for line in (CONFIG_DIR / BUNDLED[command]).read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            key, _, value = line.partition("=")
            entries[key.strip()] = value.strip()
    return {**entries, **BOUNDED_RUNS}


def _run_bundled(command, entries, directory):
    """Run a subcommand on the given config entries, with numpy's RuntimeWarnings
    raised as errors; return the exit code, standard error and every number in
    the CSV files it wrote."""
    path = directory / "fuzz.conf"
    path.write_text("".join(f"{k} = {v}\n" for k, v in entries.items()))
    err = io.StringIO()
    with (
        contextlib.redirect_stdout(io.StringIO()),
        contextlib.redirect_stderr(err),
        warnings.catch_warnings(),
    ):
        warnings.simplefilter("error", RuntimeWarning)
        code = main([command, "--config", str(path), "--out", str(directory / "out")])
    numbers = []
    for csv in sorted((directory / "out").glob("*.csv")):
        _, _, rows = _read_csv(csv)
        numbers += [float(cell) for row in rows for cell in row if cell]
    return code, err.getvalue(), numbers


def _extreme_value(key):
    if key in SIZE_CAPS:
        return st.one_of(
            st.integers(-(2**63), SIZE_CAPS[key]).map(str),
            st.sampled_from(["nan", "inf", "1e308", "5e-324"]),
        )
    return st.one_of(
        st.sampled_from(EXTREMES),
        st.floats().map(repr),
        st.integers(-(2**70), 2**70).map(str),
    )


class TestConfigFuzz:
    """One key of a bundled config set to an extreme, negative, non-finite,
    subnormal or huge value: the matching subcommand exits 0, 2, 3 or 4,
    raises no numpy RuntimeWarning, prints no traceback, and writes only
    finite numbers when it succeeds."""

    @pytest.mark.parametrize("command", sorted(BUNDLED))
    @given(data=st.data())
    def test_one_extreme_key(self, tmp_path_factory, command, data):
        entries = _bundled_entries(command)
        key = data.draw(st.sampled_from(sorted(NUMERIC_KEYS)), label="key")
        value = data.draw(_extreme_value(key), label="value")
        if NUMERIC_KEYS[key] == "tuple[float, ...]" and key in entries:
            items = [repr(v) for v in config._parse_float_list(entries[key])]
            items[data.draw(st.integers(0, len(items) - 1), label="index")] = value
            value = ", ".join(items)
        entries[key] = value
        code, err, numbers = _run_bundled(command, entries, tmp_path_factory.mktemp("fuzz"))
        assert code in (0, 2, 3, 4)
        assert "Traceback" not in err
        if code == 0:
            assert all(math.isfinite(v) for v in numbers)

    @pytest.mark.parametrize(
        "command, key, value, code",
        [
            ("theory", "ensemble.sigma_u_range", "0.8, nan", 2),
            ("theory", "ensemble.sigma_v_range", "0.05, inf", 2),
            ("theory", "ensemble.sigma_v_range", "0.05, 1e308", 4),
            ("theory", "algo.mu", "5e-324", 4),
            ("bias-scan", "algo.mu", "1e-300, 1e-4, 1e-5", 0),
            ("bias-scan", "algo.eta", "0, 5e-324, log:1e-3:1e-2:9", 0),
            ("sweep-eta", "ensemble.sigma_u_sq", "5e-324", 4),
            ("filter-response", "ensemble.sigma_u_sq", "1e308", 2),
            ("filter-response", "filter.lambda_max", "5e-324", 0),
            ("theory", "graph.weight", "1e50", 3),
            ("theory", "graph.weight", "1e100", 3),
            ("theory", "ensemble.tau", "8, 9, inf, 11, 12", 2),
            ("sweep-eta", "ensemble.sigma_u_sq", "inf", 2),
        ],
    )
    def test_extremes_that_once_escaped(self, tmp_path, command, key, value, code):
        """Extremes the fuzzer found raising a raw numpy error, printing a numpy
        warning or writing nan or inf, each with the exit code it gets now and
        no RuntimeWarning on the way."""
        entries = {**_bundled_entries(command), key: value}
        got, err, numbers = _run_bundled(command, entries, tmp_path)
        assert got == code, err
        assert all(math.isfinite(v) for v in numbers)


def _ring_problem(weight):
    """A 5-node ring of the given edge weight with a seeded two-component profile."""
    g = mt.build_graph(weight * (np.roll(np.eye(5), 1, axis=1) + np.roll(np.eye(5), -1, axis=1)))
    return mt.varying_profile(mt.make_smooth_target(g, [2.0, 3.0], 2), seed=7), g


#: the RING graph (weight 0.2, lambda_max below 1) and a unit-weight ring, on
#: which an overflowing eta * lambda_max(L) is reachable from a finite eta
RING_PROBLEMS = [_ring_problem(0.2), _ring_problem(1.0)]
#: a fuzzed operating-point value, as a Python float or as a numpy float64
POINT_VALUE = st.builds(
    lambda x, cast: cast(x),
    st.one_of(st.sampled_from(EXTREMES).map(float), st.floats()),
    st.sampled_from([float, np.float64]),
)


def _all_finite(*values):
    return all(np.all(np.isfinite(v)) for v in values)


def _report_ok(r):
    """A report's numbers are finite and its three deviations nonnegative."""
    values = (r.msd_total, r.msd_per_frequency, r.msd_noncoop, r.msd_bar, r.mismatch_sq)
    values += (r.bias_cross_term, r.bias_vector, r.bias_sq_norm)
    return _all_finite(*values) and min(r.msd_total, r.msd_bar, r.msd_noncoop) >= 0.0


class TestLibraryFuzz:
    """mu and eta drawn from the config fuzzer's extremes and from every float,
    each as a Python float or a numpy float64: check_stability, theory_report,
    solve_regularized and optimize_eta (on the grid 0, eta, 2 eta), on a 5-node
    ring of weight 0.2 and on one of weight 1, each raise an MtdiffError or
    return finite numbers, with nonnegative deviations, and no numpy
    RuntimeWarning."""

    @given(mu=POINT_VALUE, eta=POINT_VALUE)
    @example(mu=np.float64(1e300), eta=np.float64(1e300))  # mu * eta overflowed
    @example(mu=1e-3, eta=1e308)  # eta * L overflowed on the unit ring
    @example(mu=5e-324, eta=4.8e307)  # so did A + A' in the eigendecomposition route
    def test_operating_point(self, mu, eta):
        for ensemble, graph in RING_PROBLEMS:
            calls = _entry_points(ensemble, graph, mu, eta)
            for name in ("check_stability", "theory_report", "solve_regularized", "optimize_eta"):
                with warnings.catch_warnings():
                    warnings.simplefilter("error", RuntimeWarning)
                    try:
                        result = calls[name]()
                    except mt.MtdiffError:
                        continue
                if name == "check_stability":
                    # an overflowing mu * eta reads inf, and fails its condition
                    values = [x for c in result.conditions for x in (c.value, c.bound)]
                    assert not np.any(np.isnan(values))
                    assert not result.ok or _all_finite(values)
                elif name == "theory_report":
                    assert _report_ok(result)
                elif name == "solve_regularized":
                    assert _all_finite(result.solution.values, result.mismatch_sq)
                else:
                    assert _all_finite(result.eta_star, result.msd_bar_curve)
                    assert all(_report_ok(r) for r in result.reports)
