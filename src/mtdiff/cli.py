"""Command-line experiment harness.

Five subcommands map onto the library's main entry points:

* ``theory``          closed-form predictions over an eta grid
* ``simulate``        Monte-Carlo learning curves with a theory overlay
* ``bias-scan``       steady-state bias surface over (mu, eta) with slope fits
* ``sweep-eta``       msd_bar curve over eta and its grid minimizer
* ``filter-response`` low-pass gain of the regularization filter

All take ``--config`` (flat-key file, see config.py) plus optional ``--out``,
``--seed`` and ``--jobs`` overrides.  A command computes and prints; it does
not touch the file system.  It returns its tables and charts as ``Outputs``,
and ``write_outputs`` writes them once the command has succeeded, so a
command that fails writes nothing.  Outputs are CSV (linear scale, except
bias_scan.csv's bias_db columns) and native SVG (decibels applied at render
time); every file starts with ``#``-prefixed metadata lines carrying the
config digest, the effective seed and the module versions.  Exit codes: 0 ok,
2 config or other input error (including an unreadable input file and an
unwritable ``--out``), 3 stability violation, 4 numerical divergence or
singular system.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from . import MODULE_VERSIONS, __version__
from .config import ExperimentConfig, build_ensemble, build_graph, load_config, validate
from .engine import SimConfig, monte_carlo, monte_carlo_many
from .errors import (
    ConfigError,
    MtdiffError,
    NonUniformProfile,
    NumericalDivergence,
    SingularSystem,
    UnstableConfiguration,
)
from .graphs import Graph, gft
from .svg import Series, line_chart
from .tasks import TaskEnsemble
from .theory import bias_surface, optimize_eta, solve_regularized, theory_report


class Outputs(NamedTuple):
    """What a command produced: CSV tables (file name -> header, rows), SVG
    charts (file name -> series, ``line_chart`` options) and extra metadata
    lines for every file."""

    tables: dict[str, tuple[list[str], list]]
    charts: dict[str, tuple[list[Series], dict]]
    metadata: tuple[str, ...] = ()


def _cell(v: object) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def write_outputs(cfg: ExperimentConfig, command: str, out: Outputs) -> None:
    """Create output.dir and write the tables and charts in output.formats,
    each headed by the same metadata lines.  A file-system failure (say, an
    output.dir that names a regular file) raises ConfigError."""
    modules = ", ".join(f"{k}={v}" for k, v in sorted(MODULE_VERSIONS.items()))
    meta = [
        f"tool = mtdiff {__version__}",
        f"command = {command}",
        f"config-sha256 = {cfg.sha256}",
        f"seed = {cfg.algo.seed}",
        f"modules = {modules}",
        *out.metadata,
    ]
    d = Path(cfg.output.dir)
    try:
        d.mkdir(parents=True, exist_ok=True)
        if "csv" in cfg.output.formats:
            head = "".join(f"# {line}\n" for line in meta)
            for name, (header, rows) in out.tables.items():
                with open(d / name, "w", newline="") as fh:
                    fh.write(head + ",".join(header) + "\n")
                    fh.writelines(",".join(_cell(v) for v in row) + "\n" for row in rows)
        if "svg" in cfg.output.formats:
            for name, (series, options) in out.charts.items():
                (d / name).write_text(line_chart(series, metadata=meta, **options))
    except OSError as exc:
        raise ConfigError(f"cannot write outputs to {d}: {exc}") from exc


def _db(x: float) -> str:
    return f"{10.0 * math.log10(x):.2f} dB" if x > 0.0 else "-inf dB"


def _slug(x: float) -> str:
    return f"{x:g}".replace(".", "p").replace("-", "m").replace("+", "")


def _single(values: tuple[float, ...], key: str) -> float:
    if len(values) != 1:
        raise ConfigError(f"this command expects a single {key}, got {len(values)}")
    return values[0]


def _sim_config(cfg: ExperimentConfig, mu: float, eta: float) -> SimConfig:
    a = cfg.algo
    return SimConfig(
        mu=mu,
        eta=eta,
        n_iters=a.n_iters,
        n_runs=a.n_runs,
        seed=a.seed,
        steady_window_frac=a.steady_window_frac,
    )


# ---------------------------------------------------------------- commands


def cmd_theory(cfg: ExperimentConfig, g: Graph, ens: TaskEnsemble) -> Outputs:
    mu = _single(cfg.algo.mu, "algo.mu")
    slugs: dict[str, float] = {}
    for eta in cfg.algo.eta:
        other = slugs.setdefault(_slug(eta), eta)
        if other != eta:
            raise ConfigError(
                f"algo.eta values {other!r} and {eta!r} would both write "
                f"theory_freq_eta{_slug(eta)}.csv"
            )
    reports = [theory_report(ens, g, mu, eta) for eta in cfg.algo.eta]

    rows = [
        [r.eta, r.mu, r.msd_total, r.msd_noncoop, r.msd_bar, r.mismatch_sq, r.bias_cross_term]
        for r in reports
    ]
    header = ["eta", "mu", "msd_total", "msd_noncoop", "msd_bar", "mismatch_sq", "bias_cross"]
    tables = {"theory.csv": (header, rows)}
    for r in reports:
        freq_rows = [
            [m + 1, float(g.eigenvalues[m]), float(r.msd_per_frequency[m])]
            for m in range(g.n_agents)
        ]
        tables[f"theory_freq_eta{_slug(r.eta)}.csv"] = (["m", "lambda_m", "msd_term"], freq_rows)
    charts = {}
    if len(reports) > 1:
        etas = [r.eta for r in reports]
        series = [
            Series("msd vs regularized point", etas, [r.msd_total for r in reports], markers=True),
            Series("msd vs targets", etas, [r.msd_bar for r in reports], markers=True),
            Series("non-cooperative", etas, [r.msd_noncoop for r in reports], dash="6 4"),
        ]
        chart = dict(
            title="steady-state predictions", x_label="eta", y_label="MSD", y_db=cfg.output.db
        )
        charts["theory.svg"] = (series, chart)
    for r in reports:
        print(
            f"eta={r.eta:g}  msd={r.msd_total:.6e} ({_db(r.msd_total)})  "
            f"msd_bar={r.msd_bar:.6e} ({_db(r.msd_bar)})"
        )
    return Outputs(tables, charts)


def cmd_simulate(cfg: ExperimentConfig, g: Graph, ens: TaskEnsemble) -> Outputs:
    mu = _single(cfg.algo.mu, "algo.mu")
    eta = _single(cfg.algo.eta, "algo.eta")
    res = monte_carlo(ens, g, _sim_config(cfg, mu, eta), jobs=cfg.algo.jobs)
    report = res.theory

    t = res.curve_vs_reg.size
    curves = zip(res.curve_vs_reg, res.curve_vs_target)
    rows = [[i, float(r), float(tg)] for i, (r, tg) in enumerate(curves)]
    iters = np.arange(t)
    series = [
        Series("simulation (vs regularized point)", iters, res.curve_vs_reg),
        Series("simulation (vs targets)", iters, res.curve_vs_target),
        Series("theory steady state", [0, t - 1], [report.msd_total] * 2, dash="6 4"),
        Series("theory steady state (targets)", [0, t - 1], [report.msd_bar] * 2, dash="2 3"),
    ]
    title = f"learning curves (mu={mu:g}, eta={eta:g}, {cfg.algo.n_runs} runs)"
    chart = dict(title=title, x_label="iteration", y_label="MSD", y_db=cfg.output.db)
    print(
        f"steady msd (vs reg): sim={_db(res.steady_msd_vs_reg)}  "
        f"theory={_db(report.msd_total)}"
    )
    print(
        f"steady msd (vs targets): sim={_db(res.steady_msd_vs_target)}  "
        f"theory={_db(report.msd_bar)}"
    )
    return Outputs(
        {"curves.csv": (["iter", "msd_vs_reg", "msd_vs_target"], rows)},
        {"learning_curve.svg": (series, chart)},
    )


def _loglog_slope(x: np.ndarray, y: np.ndarray) -> float:
    """Least-squares slope of log10 y against log10 x."""
    lx, ly = np.log10(x), np.log10(y)
    return float(np.polyfit(lx, ly, 1)[0])


def cmd_bias_scan(cfg: ExperimentConfig, g: Graph, ens: TaskEnsemble) -> Outputs:
    mus, etas = cfg.algo.mu, cfg.algo.eta
    surface = bias_surface(ens, g, mus, etas)

    header = ["eta"]
    for mu in mus:
        header += [f"bias_sq[mu={mu:g}]", f"bias_db[mu={mu:g}]"]
    rows = []
    for i, eta in enumerate(etas):
        row: list[object] = [eta]
        for j in range(len(mus)):
            b = float(surface[i, j])
            row.append(b)
            row.append(10.0 * math.log10(b) if b > 0.0 else None)
        rows.append(row)

    positive = np.array([e > 0.0 for e in etas])
    slope_rows = []
    for j, mu in enumerate(mus):
        keep = positive & (surface[:, j] > 0.0)  # points a log-log fit can use
        slope = _loglog_slope(np.asarray(etas)[keep], surface[keep, j]) if keep.sum() > 1 else None
        slope_rows.append([mu, slope, int(keep.sum())])
        if slope is not None:
            print(f"mu={mu:g}: slope of log||bias||^2 vs log eta = {slope:.3f}")
    i_ref = etas.index(max(etas))
    if len(mus) >= 2 and etas[i_ref] > 0.0 and np.all(surface[i_ref] > 0.0):
        slope_mu = _loglog_slope(np.asarray(mus), surface[i_ref, :])
        print(f"eta={etas[i_ref]:g}: slope of log||bias||^2 vs log mu = {slope_mu:.3f}")

    charts = {}
    if positive.sum() >= 2:
        series = [
            Series(f"mu={mu:g}", np.asarray(etas)[positive], surface[positive, j], markers=True)
            for j, mu in enumerate(mus)
        ]
        title = "steady-state bias vs regularization"
        chart = dict(title=title, x_label="eta", y_label="||bias||^2", x_log=True, y_db=True)
        charts["bias_scan.svg"] = (series, chart)
    tables = {
        "bias_scan.csv": (header, rows),
        "bias_slopes.csv": (["mu", "slope_vs_eta", "n_points"], slope_rows),
    }
    return Outputs(tables, charts)


def cmd_sweep_eta(cfg: ExperimentConfig, g: Graph, ens: TaskEnsemble) -> Outputs:
    mu = _single(cfg.algo.mu, "algo.mu")
    sweep = optimize_eta(ens, g, mu, cfg.algo.eta)
    rows = [
        [r.eta, r.msd_bar, r.msd_total, r.mismatch_sq, r.bias_cross_term]
        for r in sweep.reports
    ]
    tables = {"sweep.csv": (["eta", "msd_bar", "msd_total", "mismatch_sq", "bias_cross"], rows)}

    spot: list[list[float]] = []  # [eta, simulated msd_bar, theory msd_bar]
    if cfg.sweep.spot_check:
        etas = sorted({0.0, sweep.eta_star, float(sweep.etas[-1])})
        cfgs = [_sim_config(cfg, mu, eta) for eta in etas]
        sims = monte_carlo_many(ens, g, cfgs, jobs=cfg.algo.jobs)
        spot = [[eta, r.steady_msd_vs_target, r.theory.msd_bar] for eta, r in zip(etas, sims)]
        spot_header = ["eta", "msd_sim_vs_target", "msd_bar_theory"]
        tables["sweep_spot_check.csv"] = (spot_header, spot)

    series = [
        Series("msd_bar (theory)", sweep.etas, sweep.msd_bar_curve),
        Series("optimum", [sweep.eta_star], [float(sweep.msd_bar_curve.min())], markers=True),
    ]
    if spot:
        sims = [e for e, _, _ in spot], [v for _, v, _ in spot]
        series.append(Series("simulation spot check", *sims, markers=True))
    title = f"regularization sweep (mu={mu:g})"
    chart = dict(title=title, x_label="eta", y_label="MSD vs targets", y_db=cfg.output.db)

    base = float(sweep.msd_bar_curve[0])
    best = float(sweep.msd_bar_curve.min())
    print(
        f"eta* = {sweep.eta_star:g}  msd_bar(eta*) = {_db(best)}  "
        f"msd_bar(0) = {_db(base)}"
    )
    for eta, sim_val, _ in spot:
        print(f"spot check eta={eta:g}: sim msd (vs targets) = {_db(sim_val)}")
    return Outputs(tables, {"sweep.svg": (series, chart)}, (f"eta-star = {sweep.eta_star:g}",))


def cmd_filter_response(cfg: ExperimentConfig, g: Graph, ens: TaskEnsemble) -> Outputs:
    if not ens.is_uniform:
        raise NonUniformProfile("filter-response requires the uniform covariance profile")
    lam_u_max = float(ens.regressor_eigvals[0, -1])

    def gain(eta: float, lam: float) -> float:
        return 1.0 / (1.0 + eta * lam / lam_u_max)

    lam_grid = np.linspace(0.0, cfg.filter.lambda_max, cfg.filter.lambda_points)
    base_norms = np.linalg.norm(gft(ens.targets, g).blocks, axis=1)
    rows, target_rows, series, lines = [], [], [], []
    for eta in cfg.algo.eta:
        gains = [gain(eta, float(lam)) for lam in lam_grid]
        rows += [[eta, float(lam), v] for lam, v in zip(lam_grid, gains)]
        series.append(Series(f"eta={eta:g}", lam_grid, gains))
        lines.append(f"eta={eta:g}: gain at lambda={lam_grid[-1]:g} is {gains[-1]:.4f}")
        norms = np.linalg.norm(gft(solve_regularized(ens, g, eta).solution, g).blocks, axis=1)
        for m, lam in enumerate(g.eigenvalues.tolist()):
            ratio = float(norms[m] / base_norms[m]) if base_norms[m] > 0.0 else None
            target_rows.append([eta, m + 1, lam, ratio, gain(eta, lam)])
    chart = dict(
        title="regularization filter gain", x_label="graph frequency lambda", y_label="gain"
    )
    print("\n".join(lines))
    tables = {
        "filter.csv": (["eta", "lambda", "ratio"], rows),
        "filter_targets.csv": (["eta", "m", "lambda_m", "ratio", "bound"], target_rows),
    }
    return Outputs(tables, {"filter.svg": (series, chart)})


# ---------------------------------------------------------------- driver

_COMMANDS = {
    "theory": (cmd_theory, "closed-form steady-state predictions over an eta grid"),
    "simulate": (cmd_simulate, "Monte-Carlo learning curves with theory overlay"),
    "bias-scan": (cmd_bias_scan, "steady-state bias over (mu, eta) with slope fits"),
    "sweep-eta": (cmd_sweep_eta, "msd_bar over an eta grid; report the minimizer"),
    "filter-response": (cmd_filter_response, "low-pass gain of the penalty filter"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mtdiff",
        description="multitask diffusion experiments: theory, simulation, sweeps",
    )
    parser.add_argument(
        "--version", action="version", version=f"mtdiff {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", required=True, help="flat-key config file")
        sp.add_argument("--out", default=None, help="output directory (overrides config)")
        sp.add_argument("--seed", type=int, default=None, help="override algo.seed")
        sp.add_argument("--jobs", type=int, default=None, help="override algo.jobs")
        sp.set_defaults(func=func)
    return parser


def _apply_overrides(cfg: ExperimentConfig, args: argparse.Namespace) -> ExperimentConfig:
    seed = cfg.algo.seed if args.seed is None else args.seed
    jobs = cfg.algo.jobs if args.jobs is None else args.jobs
    output = cfg.output if args.out is None else replace(cfg.output, dir=args.out)
    return validate(replace(cfg, algo=replace(cfg.algo, seed=seed, jobs=jobs), output=output))


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _apply_overrides(load_config(args.config), args)
        g = build_graph(cfg)
        ens = build_ensemble(cfg, g)
        write_outputs(cfg, args.command, args.func(cfg, g, ens))
    except UnstableConfiguration as exc:
        print(f"stability violation: {exc}", file=sys.stderr)
        return 3
    except (NumericalDivergence, SingularSystem) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except MtdiffError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return 0
