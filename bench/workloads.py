"""Inputs, workload families and output checks of the mtdiff benchmark.

Every workload iteration runs the same three families, so every metric is
measured on every workload:

* ``mc``: ``monte_carlo`` on the bench15 problem with random full SPD
  regressor covariances, at ``jobs=1`` and then at ``jobs=min(2, nproc)``;
* ``theory``: ``theory_report`` at each point of an eta grid, then
  ``optimize_eta`` over the grid, on a 150-node geometric graph;
* ``cli``: the five ``mtdiff`` subcommands on copies of the bundled configs.

The workload's own family runs once per iteration at full size; the other
two run CONTROL_REPEATS times at a small control size.  README.md says why.
"""

from __future__ import annotations

import hashlib
import io
import math
import shutil
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import mtdiff as mt
from mtdiff import cli, config

from spans import SpanTable, Tracer

#: workload name -> the family it runs at full size
WORKLOADS = {"mc15": "mc", "theory150": "theory", "cli15": "cli"}

#: runs of each control family per iteration.  A control call is short, so a
#: slow spell of the machine can cover it whole; a second run doubles the
#: share of the run its mean covers, at the cost of fewer home-family samples.
CONTROL_REPEATS = 2

M = 5
TAU = np.linspace(8.0, 12.0, M)
MU = 1e-3

MC_ETA = 5.0
MC_RUNS = 128  # two 64-run engine blocks, so jobs=2 has two blocks to share
#: iterations per run, at full and at control size.  init = W0_eta removes the
#: start-up transient; 4096 iterations also let the gradient-noise floor build
#: up (time constant about 1/(2 mu lambda_min) = 625), so the sim-theory gap is
#: checked only at full size.
MC_ITERS = {True: 4096, False: 512}
GAP_DB = 1.0

#: eta grid points (0 plus a geometric range) at full and at control size
THEORY_POINTS = {True: 16, False: 2}
#: optimize_eta and theory_report compute msd_bar by the same formula; a
#: relative tolerance leaves room for a faster route with other rounding.
MSD_BAR_RTOL = 1e-9

SUBCOMMANDS = ("theory", "simulate", "bias-scan", "sweep-eta", "filter-response")
THEORY_CMDS = ("theory", "bias-scan", "filter-response")

# Copies of the bundled configs (configs/*.conf).  The control size caps the
# two Monte-Carlo horizons; the full size keeps the automatic horizon.
_BENCH15 = {
    "graph.source": "generator",
    "graph.n": "15",
    "graph.radius": "0.35",
    "graph.weight": "0.1",
    "graph.max_degree": "5",
    "graph.seed": "9",
    "ensemble.dim": "5",
    "ensemble.target": "smooth",
    "ensemble.tau": "lin:8:12:5",
}
_SCALAR = {
    "ensemble.profile": "scalar",
    "ensemble.sigma_u_range": "0.8, 1.2",
    "ensemble.sigma_v_range": "0.05, 0.15",
    "ensemble.seed": "7",
}
_CLI_CONFIGS = {
    "theory": {
        **_BENCH15,
        **_SCALAR,
        "algo.mu": "1e-3",
        "algo.eta": "0, 1, 2, 5, 10, 20",
        "algo.n_runs": "200",
    },
    "simulate": {
        **_BENCH15,
        **_SCALAR,
        "algo.mu": "1e-3",
        "algo.eta": "5",
        "algo.n_runs": "8",
        "algo.jobs": "4",
    },
    "bias-scan": {
        **_BENCH15,
        **_SCALAR,
        "algo.mu": "1e-3, 1e-4, 1e-5",
        "algo.eta": "0, log:1e-3:1e-2:9",
    },
    "sweep-eta": {
        **_BENCH15,
        "ensemble.profile": "uniform",
        "ensemble.sigma_u_sq": "1.0",
        "ensemble.sigma_v_sq": "1.0",
        "algo.mu": "5e-3",
        "algo.eta": "0, log:0.25:350:40",
        "algo.n_runs": "8",
        "algo.jobs": "4",
        "sweep.spot_check": "true",
    },
    "filter-response": {
        **_BENCH15,
        "ensemble.profile": "uniform",
        "ensemble.sigma_u_sq": "1.0",
        "ensemble.sigma_v_sq": "0.1",
        "algo.mu": "1e-3",
        "algo.eta": "0, 1, 5, 20, 350",
        "filter.lambda_max": "1.2",
        "filter.lambda_points": "25",
    },
}
_CONTROL_ITERS = {"simulate": 2048, "sweep-eta": 512}


class Tally:
    """Operations and output checks attempted, and how many failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def op(self, n: int = 1) -> None:
        self.attempted += n

    def fail(self) -> None:
        self.attempted += 1
        self.failed += 1

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        if ok:
            self.attempted += 1
        else:
            self.fail()
            print(f"check failed: {name} {detail}".rstrip(), file=sys.stderr, flush=True)


@dataclass
class Inputs:
    home: str
    seed: int
    jobs: int
    nproc: int
    g15: mt.Graph
    ens15: mt.TaskEnsemble
    w0: np.ndarray
    g150: mt.Graph
    ens150: mt.TaskEnsemble
    grid: np.ndarray
    configs: dict


def _full_cov_ensemble(g: mt.Graph, rng: np.random.Generator) -> mt.TaskEnsemble:
    """Random full SPD covariances with eigenvalues in [0.8, 1.2]."""
    n = g.n_agents
    q, _ = np.linalg.qr(rng.standard_normal((n, M, M)))
    lam = rng.uniform(0.8, 1.2, size=(n, M))
    covs = np.einsum("nij,nj,nkj->nik", q, lam, q)
    covs = 0.5 * (covs + covs.transpose(0, 2, 1))
    noise = rng.uniform(0.05, 0.15, size=n)
    return mt.TaskEnsemble(mt.make_smooth_target(g, TAU, M), covs, noise)


def _eta_grid(g: mt.Graph, points: int) -> np.ndarray:
    """0 plus a geometric range up to half the combine-step stability bound."""
    bound = min(2.0 / g.lambda_max, 1.0 / g.max_degree) / MU
    return np.concatenate([[0.0], np.geomspace(0.25, 0.5 * bound, points - 1)])


def _write_configs(directory: Path, full: bool) -> dict:
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for sub, keys in _CLI_CONFIGS.items():
        keys = dict(keys)
        if not full and sub in _CONTROL_ITERS:
            keys["algo.n_iters"] = str(_CONTROL_ITERS[sub])
        path = directory / f"{sub}.conf"
        path.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))
        config.load_config(path)  # schema check, as every CLI run does
        paths[sub] = path
    return paths


def setup(workload: str, seed: int, work: Path, nproc: int) -> Inputs:
    """Build every input of one workload from its seed: graphs, ensembles,
    the MC start point W0_eta, the eta grid and the CLI config copies."""
    home = WORKLOADS[workload]
    rng = np.random.default_rng(seed)
    g15 = mt.random_geometric_graph(15, 0.35, weight=0.1, seed=9, max_degree=5)
    ens15 = _full_cov_ensemble(g15, rng)
    w0 = mt.solve_regularized(ens15, g15, MC_ETA).solution.blocks
    g150 = mt.random_geometric_graph(150, 0.13, weight=0.1, seed=9)
    ens150 = mt.varying_profile(
        mt.make_smooth_target(g150, TAU, M), seed=int(rng.integers(2**32))
    )
    return Inputs(
        home=home,
        seed=seed,
        jobs=min(2, nproc),
        nproc=nproc,
        g15=g15,
        ens15=ens15,
        w0=w0,
        g150=g150,
        ens150=ens150,
        grid=_eta_grid(g150, THEORY_POINTS[home == "theory"]),
        configs=_write_configs(work / "configs", home == "cli"),
    )


def _mc_iters(inp: Inputs) -> int:
    return MC_ITERS[inp.home == "mc"]


def _run_mc(inp: Inputs, tracer: Tracer, tally: Tally) -> None:
    cfg = mt.SimConfig(
        mu=MU,
        eta=MC_ETA,
        n_iters=_mc_iters(inp),
        n_runs=MC_RUNS,
        seed=inp.seed,
        init=inp.w0,
    )
    with tracer.span("bench.mc.jobs1"):
        one = mt.monte_carlo(inp.ens15, inp.g15, cfg, jobs=1)
    with tracer.span("bench.mc.jobs2"):
        two = mt.monte_carlo(inp.ens15, inp.g15, cfg, jobs=inp.jobs)
    tally.op(2)
    same = (
        np.array_equal(one.curve_vs_reg, two.curve_vs_reg)
        and np.array_equal(one.curve_vs_target, two.curve_vs_target)
        and np.array_equal(
            one.steady_msd_per_agent_vs_reg, two.steady_msd_per_agent_vs_reg
        )
    )
    tally.check("mc.jobs-bitwise", same)
    if inp.home == "mc":
        with tracer.span("bench.mc.check"):
            report = mt.theory_report(inp.ens15, inp.g15, MU, MC_ETA)
        tally.op()
        gap = abs(10.0 * math.log10(one.steady_msd_vs_reg / report.msd_total))
        tally.check("mc.sim-theory-gap", gap <= GAP_DB, f"{gap:.3f} dB")


def _run_theory(inp: Inputs, tracer: Tracer, tally: Tally) -> None:
    with tracer.span("bench.theory.report"):
        reports = [
            mt.theory_report(inp.ens150, inp.g150, MU, float(eta)) for eta in inp.grid
        ]
    with tracer.span("bench.theory.sweep"):
        sweep = mt.optimize_eta(inp.ens150, inp.g150, MU, inp.grid)
    tally.op(len(reports) + 1)
    values = [sweep.msd_bar_curve]
    for r in reports:
        values.append(r.msd_per_frequency)
        values.append([r.msd_total, r.msd_noncoop, r.msd_bar, r.mismatch_sq, r.bias_cross_term])
    tally.check(
        "theory.finite", all(np.all(np.isfinite(np.asarray(v, float))) for v in values)
    )
    tally.check(
        "theory.sweep-equals-report",
        all(
            math.isclose(a, r.msd_bar, rel_tol=MSD_BAR_RTOL, abs_tol=0.0)
            for a, r in zip(sweep.msd_bar_curve, reports)
        ),
    )


def _cli_jobs(inp: Inputs, sub: str) -> int:
    return min(int(_CLI_CONFIGS[sub].get("algo.jobs", "1")), inp.nproc)


def _run_cli(
    inp: Inputs, out: Path, tracer: Tracer, tally: Tally, digests: dict
) -> dict:
    with tracer.span("bench.cli"):
        for sub in SUBCOMMANDS:
            argv = [
                sub,
                "--config", str(inp.configs[sub]),
                "--out", str(out / sub),
                "--seed", str(inp.seed),
                "--jobs", str(_cli_jobs(inp, sub)),
            ]
            err = io.StringIO()
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                with tracer.span("cli." + sub):
                    code = cli.main(argv)
            tally.op()
            tally.check(f"cli.{sub}.exit", code == 0, f"exit {code}: {err.getvalue()}")
    files = {
        p.relative_to(out).as_posix(): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()
    }
    shutil.rmtree(out)
    current = {name: hashlib.sha256(data).hexdigest() for name, data in files.items()}
    if digests:
        tally.check("cli.rerun-byte-identical", current == digests)
    else:
        digests.update(current)
    return {
        "svg.bytes": sum(len(d) for n, d in files.items() if n.endswith(".svg")),
        "cli.output_bytes": sum(len(d) for d in files.values()),
    }


def run_iteration(
    inp: Inputs, out: Path, tracer: Tracer, tally: Tally, digests: dict
) -> dict:
    """One closed-loop iteration: the home family once and each control family
    CONTROL_REPEATS times, interleaved.  Returns the byte counts of the CLI
    outputs; timings are read afterwards from the tracer's ``bench.*`` spans."""
    counts = {}
    for rep in range(CONTROL_REPEATS):
        if rep == 0 or inp.home != "mc":
            _run_mc(inp, tracer, tally)
        if rep == 0 or inp.home != "theory":
            _run_theory(inp, tracer, tally)
        if rep == 0 or inp.home != "cli":
            counts = _run_cli(inp, out, tracer, tally, digests)
    return counts


def end_to_end(inp: Inputs, table: SpanTable) -> dict[str, list[float]]:
    """Samples of each end-to-end metric in one iteration, from the
    benchmark's own spans: one per set-up and per run of a family, and one
    ``wall_s`` for the iteration."""
    run_iters = MC_RUNS * _mc_iters(inp)
    n_eta = inp.grid.size
    theory_cmds = zip(*(table.durations("cli." + s) for s in THEORY_CMDS))
    return {
        "setup_s": table.durations("setup"),
        "wall_s": [table.root_total("bench.")],
        "mc_us_per_run_iter": [
            d / run_iters * 1e6 for d in table.durations("bench.mc.jobs1")
        ],
        "mc_us_per_run_iter_jobs2": [
            d / run_iters * 1e6 for d in table.durations("bench.mc.jobs2")
        ],
        "theory_ms_per_eta": [
            d / n_eta * 1e3 for d in table.durations("bench.theory.report")
        ],
        "sweep_ms_per_eta": [
            d / n_eta * 1e3 for d in table.durations("bench.theory.sweep")
        ],
        "cli_simulate_s": table.durations("cli.simulate"),
        "cli_sweep_eta_s": table.durations("cli.sweep-eta"),
        "cli_theory_cmds_s": [sum(ds) for ds in theory_cmds],
    }


def per_layer(inp: Inputs, table: SpanTable) -> dict:
    """Per-layer metrics of one traced iteration.  Per-eta figures count only
    the calls made under the theory family's own spans, set-up figures are
    per set-up, and the other figures are per run of their family."""
    run_iters = MC_RUNS * _mc_iters(inp) * table.count("bench.mc.jobs1")
    n_eta = inp.grid.size * table.count("bench.theory.sweep")
    cli_runs = table.count("bench.cli")
    th = "bench.theory"
    out = {
        "engine.us_per_run_iter": table.self_sum("engine.monte_carlo", "bench.mc.jobs1")
        / run_iters
        * 1e6,
        "engine.jobs2_speedup": table.outer_sum("engine.monte_carlo", "bench.mc.jobs1")
        / table.outer_sum("engine.monte_carlo", "bench.mc.jobs2"),
    }
    for layer in ("regularized.solve", "regularized.bias", "engine.stability"):
        out[layer + ".calls_per_eta"] = table.count(layer, th) / n_eta
        out[layer + ".self_ms_per_eta"] = table.self_sum(layer, th) / n_eta * 1e3
    out["theory.report.self_ms_per_eta"] = table.self_sum("theory.report", th) / n_eta * 1e3
    out["theory.optimize_eta.self_ms_per_eta"] = (
        table.self_sum("theory.optimize_eta", th) / n_eta * 1e3
    )
    setups = table.count("setup")
    for layer in ("graphs.build_graph", "tasks.ensemble", "config.load"):
        out[layer + ".ms"] = table.outer_sum(layer, "setup") / setups * 1e3
    out["svg.line_chart.ms"] = table.outer_sum("svg.line_chart") / cli_runs * 1e3
    for sub in SUBCOMMANDS:
        out[f"cli.{sub}.self_ms"] = table.self_sum("cli." + sub) / cli_runs * 1e3
    return out


def rng_floor_us(inp: Inputs, repeats: int) -> float:
    """Philox-only cost per run-iteration in the engine's stream layout: one
    ``Philox(key=(seed << 64) + r)`` stream per run, M+1 standard normals per
    node per iteration, drawn for a 64-run block in 512-iteration chunks."""
    runs, iters = 64, 512
    z = np.empty((runs, iters, inp.g15.n_agents, M + 1))
    times = []
    for _ in range(repeats):
        gens = [
            np.random.Generator(np.random.Philox(key=(inp.seed << 64) + r))
            for r in range(runs)
        ]
        t0 = time.perf_counter()
        for i, gen in enumerate(gens):
            gen.standard_normal(out=z[i])
        times.append((time.perf_counter() - t0) / (runs * iters))
    return float(np.median(times)) * 1e6
