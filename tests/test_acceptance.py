"""Release gate: eight end-to-end checks with one summary line each.

Each test computes its verdict, records it in RESULTS (the conftest summary
hook prints one PASS/FAIL line per criterion after the run), and then asserts.
Runtimes are reported in the detail strings but never asserted.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

import mtdiff as mt
from mtdiff.theory import _noise_blocks

from helpers import (
    batch_gd_minimize,
    dense_quadratic_smoothness,
    empirical_noise_covariance,
    gradient_noise_covariances,
    lyapunov_msd,
    make_random_spd,
    pareto_solution,
    random_connected_adjacency,
    uniform_msd,
)

CRITERIA = {
    1: "theory vs simulation",
    2: "bias scaling slopes",
    3: "msd proportional to mu",
    4: "multitask benefit sweep",
    5: "solver oracle equivalence",
    6: "formula consistency chain",
    7: "noise covariance oracle",
    8: "spectral suite",
}

RESULTS: dict[int, tuple[bool, str]] = {}

SIM_ETAS = (0.0, 1.0, 5.0, 20.0)
JOBS = 4


def _record(num: int, ok: bool, detail: str) -> None:
    RESULTS[num] = (bool(ok), detail)
    assert ok, f"criterion {num} [{CRITERIA[num]}]: {detail}"


def _db(x: float) -> float:
    return 10.0 * np.log10(x)


@pytest.fixture(scope="module")
def mu3_sims(het_ensemble, bench_graph):
    """200-run benchmark simulations at mu = 1e-3, shared by criteria 1 and 3."""
    t0 = time.perf_counter()
    cfgs = [mt.SimConfig(mu=1e-3, eta=eta, n_runs=200, seed=2024) for eta in SIM_ETAS]
    runs = mt.monte_carlo_many(het_ensemble, bench_graph, cfgs, jobs=JOBS)
    return dict(zip(SIM_ETAS, runs)), time.perf_counter() - t0


def test_criterion_1_theory_vs_simulation(het_ensemble, bench_graph, mu3_sims):
    sims, elapsed = mu3_sims
    gaps = {}
    for eta in SIM_ETAS:
        theory = mt.theory_report(het_ensemble, bench_graph, 1e-3, eta).msd_total
        sim = sims[eta].steady_msd_vs_reg
        gaps[eta] = abs(_db(sim) - _db(theory))
    ok = all(g <= 1.0 for g in gaps.values())
    detail = (
        "|sim-theory| "
        + ", ".join(f"{g:.3f} dB @ eta={e:g}" for e, g in gaps.items())
        + f" (tol 1 dB; 200 runs, {elapsed:.0f}s)"
    )
    _record(1, ok, detail)


def test_criterion_2_bias_scaling_slopes(het_ensemble, bench_graph):
    t0 = time.perf_counter()
    etas = np.geomspace(1e-3, 1e-2, 9)
    b_eta = np.array(
        [
            mt.theory_report(het_ensemble, bench_graph, 1e-3, e).bias_sq_norm
            for e in etas
        ]
    )
    slope_eta = float(np.polyfit(np.log10(etas), np.log10(b_eta), 1)[0])
    mus = np.geomspace(1e-5, 1e-3, 5)
    b_mu = np.array(
        [
            mt.theory_report(het_ensemble, bench_graph, m, 1e-2).bias_sq_norm
            for m in mus
        ]
    )
    slope_mu = float(np.polyfit(np.log10(mus), np.log10(b_mu), 1)[0])
    ok = abs(slope_eta - 4.0) <= 0.2 and abs(slope_mu - 2.0) <= 0.1
    detail = (
        f"slope vs eta = {slope_eta:.3f} (4.0 +/- 0.2), "
        f"slope vs mu = {slope_mu:.3f} (2.0 +/- 0.1); "
        f"{time.perf_counter() - t0:.1f}s"
    )
    _record(2, ok, detail)


def test_criterion_3_msd_proportional_to_mu(het_ensemble, bench_graph, mu3_sims):
    sims, _ = mu3_sims
    t0 = time.perf_counter()
    cfg = mt.SimConfig(mu=1e-4, eta=5.0, n_runs=64, seed=2024)
    low = mt.monte_carlo(het_ensemble, bench_graph, cfg, jobs=JOBS)
    ratio = sims[5.0].steady_msd_vs_reg / low.steady_msd_vs_reg
    ok = 8.0 <= ratio <= 12.0
    detail = (
        f"msd(mu=1e-3)/msd(mu=1e-4) = {ratio:.2f} at eta=5 "
        f"(window [8, 12]; 64 runs at mu=1e-4, {time.perf_counter() - t0:.0f}s)"
    )
    _record(3, ok, detail)


def test_criterion_4_multitask_benefit(smooth_targets, bench_graph):
    t0 = time.perf_counter()
    ens = mt.uniform_profile(smooth_targets, sigma_u_sq=1.0, sigma_v_sq=1.0)
    mu = 5e-3
    grid = np.concatenate([[0.0], np.geomspace(0.25, 350.0, 40)])
    sweep = mt.optimize_eta(ens, bench_graph, mu, grid)
    i_star = int(np.argmin(sweep.msd_bar_curve))
    interior = 0 < i_star < grid.size - 1
    dip = sweep.msd_bar_curve[i_star] < sweep.msd_bar_curve[0]
    theory_time = time.perf_counter() - t0

    t1 = time.perf_counter()
    etas = (0.0, sweep.eta_star, float(grid[-1]))
    cfgs = [mt.SimConfig(mu=mu, eta=eta, n_runs=200, seed=2024) for eta in etas]
    runs = mt.monte_carlo_many(ens, bench_graph, cfgs, jobs=JOBS)
    checks = {eta: (res.steady_msd_vs_target, res.theory.msd_bar) for eta, res in zip(etas, runs)}
    sim_time = time.perf_counter() - t1

    overlay_ok = all(
        abs(_db(sim) - _db(th)) <= 1.0 for sim, th in checks.values()
    )
    sims = {eta: sim for eta, (sim, _) in checks.items()}
    order_ok = sims[sweep.eta_star] < sims[0.0] < sims[float(grid[-1])]
    ok = interior and dip and overlay_ok and order_ok
    dip_db = _db(sweep.msd_bar_curve[0]) - _db(sweep.msd_bar_curve[i_star])
    detail = (
        f"eta* = {sweep.eta_star:.2f} (interior: {interior}), "
        f"dip {dip_db:.2f} dB below eta=0, overlay within 1 dB: {overlay_ok}, "
        f"sim ordering eta*<0<350: {order_ok} "
        f"(theory {theory_time:.1f}s + sims {sim_time:.0f}s)"
    )
    _record(4, ok, detail)


def test_criterion_5_solver_oracle(het_ensemble, bench_graph):
    t0 = time.perf_counter()
    rng = np.random.default_rng(505)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, 4))
        g = mt.build_graph(random_connected_adjacency(rng, n))
        targets = rng.standard_normal((n, m))
        ens = mt.TaskEnsemble(
            targets=mt.StackedSignal.from_blocks(targets),
            regressor_cov=np.stack([make_random_spd(rng, m) for _ in range(n)]),
            noise_var=rng.uniform(0.05, 0.5, n),
        )
        for eta in (0.0, 0.5, 5.0):
            reg = mt.solve_regularized(ens, g, eta)
            oracle = batch_gd_minimize(
                ens.regressor_cov, targets, g.laplacian, eta
            )
            rel = float(
                np.linalg.norm(reg.solution.blocks - oracle)
                / np.linalg.norm(oracle)
            )
            worst = max(worst, rel)
    ok = worst < 1e-8
    detail = (
        f"worst relative error {worst:.2e} over 20 instances x 3 eta "
        f"(tol 1e-8; {time.perf_counter() - t0:.1f}s)"
    )
    _record(5, ok, detail)


def test_criterion_6_formula_consistency(het_ensemble, uni_ensemble, bench_graph, smooth_targets):
    t0 = time.perf_counter()
    mu = 1e-3
    parts: list[str] = []
    oks: list[bool] = []

    # (a) eta = 0 collapses to the non-cooperative value on profiles whose
    # Hessians do not mix graph frequencies: a common R_u with per-node noise,
    # and per-node sigma_u^2 * I with common noise.
    rng = np.random.default_rng(6)
    common = mt.TaskEnsemble(
        targets=smooth_targets,
        regressor_cov=np.broadcast_to(
            make_random_spd(rng, 5, eig_range=(0.5, 1.5)), (15, 5, 5)
        ).copy(),
        noise_var=rng.uniform(0.05, 0.3, 15),
    )
    scalar_u = mt.scalar_profile(
        smooth_targets, rng.uniform(0.8, 1.2, 15), np.full(15, 0.1)
    )
    worst_a = 0.0
    for ens in (common, scalar_u):
        got = mt.theory_report(ens, bench_graph, mu, 0.0).msd_total
        want = mt.msd_noncoop(ens, mu)
        worst_a = max(worst_a, abs(got - want) / want)
    oks.append(worst_a < 1e-10)
    parts.append(f"eta=0 vs noncoop rel {worst_a:.1e}")

    # (b) the general predictor on a uniform profile agrees with the
    # uniform-profile per-frequency sum.
    worst_b = 0.0
    for eta in (0.0, 1.0, 5.0, 20.0):
        exact = uniform_msd(uni_ensemble, bench_graph, mu, eta)
        general = mt.theory_report(uni_ensemble, bench_graph, mu, eta).msd_total
        worst_b = max(worst_b, abs(exact - general) / general)
    oks.append(worst_b < 1e-12)
    parts.append(f"uniform vs general rel {worst_b:.1e}")

    # (c) eta -> infinity approaches the single-task network estimating the
    # Pareto point w*: MSD = mu/(2N) Tr((sum H_k)^-1 (sum R_sk at w*)).
    mu_c, eta_c = 1e-10, 1e9  # mu*eta = 0.1 keeps the pair admissible
    w_star = pareto_solution(het_ensemble.regressor_cov, het_ensemble.targets.blocks)
    h_sum = het_ensemble.regressor_cov.sum(axis=0)
    rs_sum = sum(gradient_noise_covariances(het_ensemble, np.broadcast_to(w_star, (15, 5))))
    single_task = mu_c / (2 * 15) * float(np.trace(np.linalg.solve(h_sum, rs_sum)))
    got_c = mt.theory_report(het_ensemble, bench_graph, mu_c, eta_c).msd_total
    rel_c = abs(got_c - single_task) / single_task
    oks.append(rel_c < 0.01)
    parts.append(f"single-task limit rel {rel_c:.1e}")

    # (d) per-frequency predictor vs the brute-force matrix series, on small
    # instances (N*M <= 30) inside the predictor's validity class: a common
    # R_u decouples the graph frequencies exactly, and scalar sigma_u^2 * I
    # profiles with the benchmark's 0.8-1.2 spread stay close to it.
    worst_d = 0.0
    cases = (
        (60, 5, 3, "common"),
        (62, 6, 2, "common"),
        (63, 10, 3, "scalar"),
        (65, 9, 2, "scalar"),
    )
    for seed, n, m, kind in cases:
        r2 = np.random.default_rng(seed)
        g = mt.build_graph(random_connected_adjacency(r2, n, weight_range=(0.1, 0.5)))
        tgt = mt.StackedSignal.from_blocks(r2.standard_normal((n, m)))
        if kind == "common":
            covs = np.broadcast_to(
                make_random_spd(r2, m, eig_range=(0.8, 1.2)), (n, m, m)
            ).copy()
        else:
            covs = np.stack([s * np.eye(m) for s in r2.uniform(0.8, 1.2, n)])
        ens = mt.TaskEnsemble(
            targets=tgt, regressor_cov=covs, noise_var=r2.uniform(0.05, 0.2, n)
        )
        for eta in (0.0, 2.0):
            series = lyapunov_msd(ens, g, mu, eta)
            closed = mt.theory_report(ens, g, mu, eta).msd_total
            worst_d = max(worst_d, abs(series - closed) / series)
    oks.append(worst_d <= 0.02)
    parts.append(f"series route rel {worst_d:.1e}")

    ok = all(oks)
    detail = "; ".join(parts) + f" ({time.perf_counter() - t0:.1f}s)"
    _record(6, ok, detail)


def test_criterion_7_noise_covariance_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(707)
    worst = 0.0
    for _ in range(5):
        n = int(rng.integers(3, 7))
        m = int(rng.integers(2, 5))
        g = mt.build_graph(random_connected_adjacency(rng, n))
        ens = mt.TaskEnsemble(
            targets=mt.StackedSignal.from_blocks(rng.standard_normal((n, m))),
            regressor_cov=np.stack([make_random_spd(rng, m) for _ in range(n)]),
            noise_var=rng.uniform(0.05, 0.4, n),
        )
        eta = float(rng.uniform(1.0, 5.0))
        reg = mt.solve_regularized(ens, g, eta)
        k = int(rng.integers(0, n))
        closed = _noise_blocks(ens, reg.solution.blocks)[k, 0]
        sampled = empirical_noise_covariance(
            ens.regressor_cov[k],
            ens.targets.blocks[k],
            reg.solution.blocks[k],
            float(ens.noise_var[k]),
            1_000_000,
            rng,
        )
        rel = float(np.linalg.norm(closed - sampled) / np.linalg.norm(closed))
        worst = max(worst, rel)
    ok = worst < 0.03
    detail = (
        f"worst Frobenius-relative error {worst:.4f} over 5 instances, "
        f"1e6 samples each (tol 0.03; {time.perf_counter() - t0:.1f}s)"
    )
    _record(7, ok, detail)


def test_criterion_8_spectral_suite(uni_ensemble, bench_graph, smooth_targets):
    t0 = time.perf_counter()
    rng = np.random.default_rng(808)
    graphs = [bench_graph] + [
        mt.build_graph(random_connected_adjacency(rng, int(rng.integers(3, 10))))
        for _ in range(4)
    ]
    recon = max(
        float(
            np.abs(
                (g.eigenvectors * g.eigenvalues) @ g.eigenvectors.T - g.laplacian
            ).max()
        )
        for g in graphs
    )
    lam1 = max(abs(float(g.eigenvalues[0])) for g in graphs)

    roundtrip = 0.0
    smooth_gap = 0.0
    for g in graphs:
        sig = mt.StackedSignal.from_blocks(rng.standard_normal((g.n_agents, 3)))
        back = mt.igft(mt.gft(sig, g), g)
        roundtrip = max(roundtrip, float(np.abs(back.values - sig.values).max()))
        s_pkg = mt.smoothness(sig, g)
        s_dense = dense_quadratic_smoothness(sig.blocks, g.laplacian)
        bar = mt.gft(sig, g).blocks
        s_spec = float(np.sum(g.eigenvalues * np.sum(bar**2, axis=1)))
        smooth_gap = max(
            smooth_gap, abs(s_pkg - s_dense), abs(s_pkg - s_spec)
        )

    # low-pass ratios: bound everywhere, monotone in eta and in lambda
    base = np.linalg.norm(mt.gft(smooth_targets, bench_graph).blocks, axis=1)
    etas = np.concatenate([[0.0], np.geomspace(0.01, 100.0, 25)])
    bound_ok = True
    prev = None
    mono_eta = True
    mono_lam = True
    for eta in etas:
        reg = mt.solve_regularized(uni_ensemble, bench_graph, float(eta))
        ratio = np.linalg.norm(mt.gft(reg.solution, bench_graph).blocks, axis=1) / base
        bound = 1.0 / (1.0 + eta * bench_graph.eigenvalues / 1.0)  # R_u = I
        bound_ok &= bool(np.all(ratio <= bound + 1e-12))
        mono_lam &= bool(np.all(np.diff(ratio) <= 1e-12))
        if prev is not None:
            mono_eta &= bool(np.all(ratio <= prev + 1e-12))
        prev = ratio

    checks = {
        "reconstruction": recon < 1e-10,
        "lambda1": lam1 < 1e-12,
        "round-trip": roundtrip < 1e-10,
        "smoothness": smooth_gap < 1e-10,
        "ratio bounds": bound_ok,
        "monotone": mono_eta and mono_lam,
    }
    ok = all(checks.values())
    detail = (
        f"recon {recon:.1e}, lambda1 {lam1:.1e}, round-trip {roundtrip:.1e}, "
        f"smoothness {smooth_gap:.1e}, bounds {bound_ok}, "
        f"monotone {mono_eta and mono_lam} ({time.perf_counter() - t0:.1f}s)"
    )
    _record(8, ok, detail)
