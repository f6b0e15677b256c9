"""Steady-state predictors: theory_report, its oracles, eta search."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mtdiff as mt
from mtdiff import cli
from mtdiff.theory import GRID_ROUTE_ETAS, _certified, _noise_blocks

from helpers import (
    _rational_solve,
    dense_frequency_msd,
    empirical_noise_covariance,
    gradient_noise_covariances,
    lyapunov_msd,
    make_random_spd,
    noncoop_trace_msd,
    random_connected_adjacency,
    uniform_msd,
)
from test_regularized import KINDS, _kind_problem, _random_problem, _structured_problem


def _copy_summed(ensemble, mats):
    """(N, M, M) node matrices as copy-summed (N, G, s, s) group blocks: the
    (s, s) diagonal block of group g, copy c, sits on components
    (g*s + k)*r + c, and the blocks of the r copies are added."""
    groups, s = ensemble.coupled_cov.shape[:2]
    r = ensemble.dim // (groups * s)
    blocks = np.reshape(mats, (len(mats), groups, s, r, groups, s, r))
    return np.einsum("agkcglc->agkl", blocks)


class TestNoiseCovariance:
    def test_floor_at_eta_zero(self, het_ensemble, bench_graph):
        reg = mt.solve_regularized(het_ensemble, bench_graph, 0.0)
        got = _noise_blocks(het_ensemble, het_ensemble.targets.blocks - reg.solution.blocks)
        assert got.shape == (15, 1, 1, 1)
        floor = het_ensemble.noise_var[:, None, None] * het_ensemble.regressor_cov
        assert np.allclose(got, _copy_summed(het_ensemble, floor), rtol=0, atol=1e-15)

    def test_matches_sampled_covariance(self, het_ensemble, bench_graph):
        reg = mt.solve_regularized(het_ensemble, bench_graph, 5.0)
        k = 3
        got = _noise_blocks(het_ensemble, het_ensemble.targets.blocks - reg.solution.blocks)[k]
        emp = empirical_noise_covariance(
            het_ensemble.regressor_cov[k],
            het_ensemble.targets.blocks[k],
            reg.solution.blocks[k],
            float(het_ensemble.noise_var[k]),
            200_000,
            np.random.default_rng(2024),
        )
        want = _copy_summed(het_ensemble, emp[None])[0]
        rel = np.linalg.norm(got - want) / np.linalg.norm(got)
        assert rel < 0.05

    def test_symmetric_positive_definite(self, het_ensemble, bench_graph):
        reg = mt.solve_regularized(het_ensemble, bench_graph, 20.0)
        noise = _noise_blocks(het_ensemble, het_ensemble.targets.blocks - reg.solution.blocks)
        for block in noise.reshape(-1, 1, 1):
            assert np.allclose(block, block.T, atol=1e-14)
            assert np.linalg.eigvalsh(block).min() > 0.0

    @pytest.mark.parametrize("kind", KINDS)
    def test_blocks_match_oracle(self, kind):
        """Copy-summed blocks of the per-node R W R + R Tr(R W) + sigma_v^2 R
        for every covariance structure, and each block SPD."""
        ens, g = _kind_problem(kind)
        reg = mt.solve_regularized(ens, g, 20.0)
        got = _noise_blocks(ens, ens.targets.blocks - reg.solution.blocks)
        want = _copy_summed(ens, gradient_noise_covariances(ens, reg.solution.blocks))
        assert np.allclose(got, want, rtol=1e-14, atol=0.0)
        for block in got.reshape(-1, *got.shape[2:]):
            assert np.allclose(block, block.T, atol=1e-14)
            assert np.linalg.eigvalsh(block).min() > 0.0

    @pytest.mark.filterwarnings("error")
    def test_cancelling_overflow_raises_singular_system(self):
        """Noise blocks whose overflowing terms cancel to inf - inf raise
        SingularSystem, not an invalid-value warning."""
        g = mt.build_graph(np.roll(np.eye(5), 1, axis=1) + np.roll(np.eye(5), -1, axis=1))
        covs = np.tile(np.array([[2.0, -1.0], [-1.0, 2.0]]) * 1e300, (5, 1, 1))
        ens = mt.TaskEnsemble(mt.make_smooth_target(g, [2.0, 3.0], 2), covs, np.full(5, 0.1))
        with pytest.raises(mt.SingularSystem, match="gradient-noise covariance overflows"):
            mt.theory_report(ens, g, 1e-305, 1e300)


class TestPredictors:
    def test_per_frequency_terms_sum_to_total(self, het_ensemble, bench_graph):
        rep = mt.theory_report(het_ensemble, bench_graph, 1e-3, 5.0)
        assert rep.msd_per_frequency.shape == (15,)
        assert np.all(rep.msd_per_frequency > 0.0)
        assert rep.msd_total == float(rep.msd_per_frequency.sum())

    @settings(max_examples=40)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(["diagonal", "isotropic", "uniform", "full"]),
        st.sampled_from([0.0, 0.1, 1.0, 2.0]),
    )
    def test_per_frequency_terms_match_dense_oracle(self, seed, kind, eta):
        """The per-group block solves give the dense M x M per-frequency terms."""
        if kind == "full":
            ens, g = _random_problem(seed)
        else:
            ens, g = _structured_problem(seed, kind)
        rep = mt.theory_report(ens, g, 0.05, eta)
        want = dense_frequency_msd(ens, g, 0.05, eta, rep.solution.blocks)
        assert rep.msd_per_frequency == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_noncoop_closed_form(self, het_ensemble):
        """The closed form against the trace formula it simplifies, on the
        heterogeneous profile and on random full covariances."""
        mu = 1e-3
        for ens in [het_ensemble] + [_random_problem(seed)[0] for seed in (0, 4, 42)]:
            want = noncoop_trace_msd(ens, mu)
            assert mt.msd_noncoop(ens, mu) == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_uniform_specialization_matches_general(self, uni_ensemble, bench_graph):
        for eta in (0.0, 1.0, 5.0, 20.0):
            exact = uniform_msd(uni_ensemble, bench_graph, 1e-3, eta)
            general = mt.theory_report(uni_ensemble, bench_graph, 1e-3, eta)
            assert abs(exact - general.msd_total) < 1e-12 * general.msd_total + 1e-30

    def test_cooperation_helps_at_the_regularized_point(
        self, uni_ensemble, bench_graph
    ):
        """Measured against its own solution, coupling only filters noise."""
        mu = 1e-3
        base = mt.theory_report(uni_ensemble, bench_graph, mu, 0.0).msd_total
        for eta in (1.0, 5.0, 20.0):
            assert mt.theory_report(uni_ensemble, bench_graph, mu, eta).msd_total < base

    def test_rejects_unstable_point(self, het_ensemble, bench_graph):
        with pytest.raises(mt.UnstableConfiguration):
            mt.theory_report(het_ensemble, bench_graph, 1.0, 10.0)


class TestMsdBar:
    def test_equals_msd_total_at_eta_zero(self, het_ensemble, bench_graph):
        rep = mt.theory_report(het_ensemble, bench_graph, 1e-3, 0.0)
        assert rep.mismatch_sq == 0.0 and rep.bias_cross_term == 0.0
        assert rep.msd_bar == pytest.approx(rep.msd_total, rel=1e-14, abs=0.0)

    def test_report_identity(self, het_ensemble, bench_graph):
        rep = mt.theory_report(het_ensemble, bench_graph, 1e-3, 5.0)
        assert rep.msd_bar == pytest.approx(
            rep.msd_total + rep.mismatch_sq / 15 + rep.bias_cross_term, rel=1e-12, abs=0.0
        )
        assert rep.msd_noncoop == pytest.approx(
            mt.msd_noncoop(het_ensemble, 1e-3), rel=1e-14, abs=0.0
        )
        assert rep.mismatch_sq > 0.0

    def test_mismatch_matches_exact_solve(self):
        """mismatch_sq at etas down to 1e-8 of the combine-step bound, from
        per-point reports and from a grid of GRID_ROUTE_ETAS positive etas,
        against the squared norm of the exact rational solution d of
        (H + eta L kron I) d = eta (L kron I) W0 on the unit 5-ring with a
        full M = 2 profile.  Forming W0 - W0_eta instead loses about the
        unit roundoff divided by eta / bound."""
        g = mt.build_graph(np.roll(np.eye(5), 1, axis=1) + np.roll(np.eye(5), -1, axis=1))
        ens, mu = _full_ensemble(mt.make_smooth_target(g, [2.0, 3.0], 2)), 1e-2
        bound = min(2.0 / g.lambda_max, 1.0 / g.max_degree) / mu
        etas = bound * np.array([1e-8, 1e-6, 1e-4])
        grid = np.concatenate([[0.0], etas, bound * np.geomspace(1e-3, 0.5, GRID_ROUTE_ETAS)])
        sweep = mt.optimize_eta(ens, g, mu, grid)
        exact = np.vectorize(Fraction, otypes=[object])  # each float as the rational it is
        lap = exact(np.kron(g.laplacian, np.eye(2)))
        hess = exact(np.einsum("ab,aij->aibj", np.eye(5), ens.regressor_cov).reshape(10, 10))
        w0 = exact(ens.targets.values)
        for got, eta in zip(sweep.reports[1:], etas):
            q = Fraction(eta)
            delta = _rational_solve((hess + q * lap).tolist(), (q * (lap @ w0)).tolist())
            want = float(sum(d * d for d in delta))
            assert got.mismatch_sq == pytest.approx(want, rel=1e-12, abs=0.0)
            rep = mt.theory_report(ens, g, mu, eta)
            assert rep.mismatch_sq == pytest.approx(want, rel=1e-12, abs=0.0)


class TestOptimizeEta:
    def test_degenerate_grid(self, het_ensemble, bench_graph):
        sweep = mt.optimize_eta(het_ensemble, bench_graph, 1e-3, np.array([0.0]))
        assert sweep.eta_star == 0.0
        assert sweep.msd_bar_curve.shape == (1,)
        assert sweep.msd_bar_curve[0] == pytest.approx(
            mt.theory_report(het_ensemble, bench_graph, 1e-3, 0.0).msd_bar, rel=1e-14, abs=0.0
        )

    def test_curve_matches_pointwise_evaluation(self, het_ensemble, bench_graph):
        grid = np.array([0.0, 1.0, 5.0])
        sweep = mt.optimize_eta(het_ensemble, bench_graph, 1e-3, grid)
        assert np.array_equal(sweep.etas, grid)
        for eta, val in zip(grid, sweep.msd_bar_curve):
            assert val == pytest.approx(
                mt.theory_report(het_ensemble, bench_graph, 1e-3, float(eta)).msd_bar,
                rel=1e-14,
                abs=0.0,
            )
        assert sweep.eta_star == grid[np.argmin(sweep.msd_bar_curve)]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "grid",
        [[], [0.0, 2.0, 1.0], [0.0, 1.0, 1.0], [1.0, 2.0], [0.0, np.inf, np.inf]],
        ids=["empty", "descending", "duplicate", "missing-zero", "duplicate-inf"],
    )
    def test_bad_grids_rejected(self, het_ensemble, bench_graph, grid):
        with pytest.raises(ValueError):
            mt.optimize_eta(het_ensemble, bench_graph, 1e-3, np.array(grid))

    def test_unstable_grid_point_raises(self, het_ensemble, bench_graph):
        with pytest.raises(mt.UnstableConfiguration):
            mt.optimize_eta(
                het_ensemble, bench_graph, 1e-3, np.array([0.0, 1e6])
            )


def _count_calls(monkeypatch, names):
    """Count the calls of the named library functions wherever the library
    calls them, and the matrices np.linalg.eigh decomposes under the name
    "eigh".  The shared solve theory._solve is recorded under "solve" as one
    (mu, etas) pair per call from outside it, mu = 0 for the mismatch
    W0 - W0_eta and the etas as a tuple."""
    counts = {name: [] if name == "solve" else 0 for name in names}
    depth = []

    def counting(name, original):
        def counted(*args, **kwargs):
            counts[name] += int(np.prod(args[0].shape[:-2])) if name == "eigh" else 1
            return original(*args, **kwargs)

        return counted

    def recorded(ens, g, etas, mu=0.0, mismatches=None):
        if not depth:
            counts["solve"].append((mu, tuple(etas.tolist())))
        depth.append(mu)
        try:
            return solve(ens, g, etas, mu, mismatches)
        finally:
            depth.pop()

    for name in names:
        if name == "eigh":
            monkeypatch.setattr(np.linalg, "eigh", counting(name, np.linalg.eigh))
            continue
        if name == "solve":
            solve = mt.theory._solve
            monkeypatch.setattr(mt.theory, "_solve", recorded)
            continue
        original = getattr(mt, name)
        for module in (cli, mt.engine, mt.theory):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting(name, original))
    return counts


def _solves(mu, etas):
    """The shared solve's calls for a report at each eta of etas: the
    mismatch at all of them, then the bias at all of them."""
    return [(0.0, tuple(etas)), (mu, tuple(etas))]


class TestOneSolvePerPoint:
    """Every entry point for a (mu, eta) point, the simulation included,
    checks stability once and solves once per eta: one call of the shared
    solve for the mismatch and one for the bias, each at the point's eta.
    optimize_eta checks every grid point and then makes those two calls for
    the whole grid (TestGridRoute)."""

    @pytest.fixture
    def calls(self, monkeypatch):
        return _count_calls(monkeypatch, ("solve", "check_stability"))

    def test_theory_report(self, calls, uni_ensemble, bench_graph):
        mt.theory_report(uni_ensemble, bench_graph, 1e-3, 5.0)
        assert calls == {"solve": _solves(1e-3, [5.0]), "check_stability": 1}

    def test_optimize_eta_keeps_its_reports(self, calls, het_ensemble, bench_graph):
        grid = np.array([0.0, 1.0, 5.0])
        sweep = mt.optimize_eta(het_ensemble, bench_graph, 1e-3, grid)
        assert calls == {"solve": _solves(1e-3, grid), "check_stability": 3}
        assert [r.eta for r in sweep.reports] == list(grid)
        assert np.array_equal(sweep.msd_bar_curve, [r.msd_bar for r in sweep.reports])

    def test_monte_carlo(self, calls, het_ensemble, bench_graph):
        cfg = mt.SimConfig(mu=1e-3, eta=5.0, n_iters=50, seed=1)
        res = mt.monte_carlo(het_ensemble, bench_graph, cfg)
        assert calls == {"solve": _solves(1e-3, [5.0]), "check_stability": 1}
        assert (res.theory.mu, res.theory.eta) == (1e-3, 5.0)

    def test_simulate_command(self, calls, tmp_path):
        conf = tmp_path / "sim.conf"
        conf.write_text(
            "graph.n = 6\ngraph.radius = 0.6\nensemble.dim = 2\n"
            "ensemble.tau = 2, 3\nalgo.mu = 0.01\nalgo.eta = 1\n"
            "algo.n_iters = 50\nalgo.n_runs = 2\n"
        )
        argv = ["simulate", "--config", str(conf), "--out", str(tmp_path / "out")]
        assert cli.main(argv) == 0
        assert calls == {"solve": _solves(0.01, [1.0]), "check_stability": 1}


def _diagonal_ensemble(targets, seed=3):
    """Per-node, per-component diagonal covariances: G = M groups of one."""
    rng = np.random.default_rng(seed)
    n, m = targets.n_agents, targets.block_dim
    covs = rng.uniform(0.8, 1.2, (n, m))[:, :, None] * np.eye(m)
    return mt.TaskEnsemble(targets, covs, rng.uniform(0.05, 0.15, n))


def _full_ensemble(targets, seed=8):
    """Full SPD covariances with eigenvalues in [0.8, 1.2]: one group of M."""
    rng = np.random.default_rng(seed)
    n, m = targets.n_agents, targets.block_dim
    covs = np.stack([make_random_spd(rng, m, eig_range=(0.8, 1.2)) for _ in range(n)])
    return mt.TaskEnsemble(targets, covs, rng.uniform(0.05, 0.15, n))


def _varying150():
    """The benchmark's theory shape: the varying profile on a 150-node graph,
    with 0 and 15 geometric etas up to half the combine-step bound."""
    g = mt.random_geometric_graph(150, 0.13, weight=0.1, seed=9)
    ens = mt.varying_profile(mt.make_smooth_target(g, np.linspace(8.0, 12.0, 5), 5), seed=5)
    bound = min(2.0 / g.lambda_max, 1.0 / g.max_degree) / 1e-3
    return ens, g, 1e-3, np.concatenate([[0.0], np.geomspace(0.25, 0.5 * bound, 15)])


class TestGridRoute:
    """The shared solve takes its pencil route, one eigendecomposition per
    coupled group and pencil for every eta, for every covariance profile, at
    GRID_ROUTE_ETAS positive etas or more when mu * max h <= 1/2 (the mismatch
    has mu = 0) and the sN x sN stack is certified well conditioned; otherwise
    each eta is one stack of LU solves.  optimize_eta checks every point,
    then solves the mismatch and the bias once for the grid."""

    @pytest.fixture
    def calls(self, monkeypatch):
        return _count_calls(monkeypatch, ("eigh", "solve", "check_stability"))

    def _sweep(self, calls, ens, g, mu, grid):
        calls.update(eigh=0, solve=[], check_stability=0)
        sweep = mt.optimize_eta(ens, g, mu, grid)
        return sweep, dict(calls)

    def _counts(self, mu, grid, eigh):
        return {"eigh": eigh, "solve": _solves(mu, grid), "check_stability": grid.size}

    @pytest.mark.parametrize("case", ["criterion-4", "varying-150", "diagonal", "full"])
    def test_matches_per_point_reports(self, calls, smooth_targets, bench_graph, case):
        if case == "criterion-4":
            ens = mt.uniform_profile(smooth_targets, sigma_u_sq=1.0, sigma_v_sq=1.0)
            g, mu, grid = bench_graph, 5e-3, np.concatenate([[0.0], np.geomspace(0.25, 350.0, 40)])
        elif case == "varying-150":
            ens, g, mu, grid = _varying150()
        elif case == "full":
            ens, g, mu = _full_ensemble(smooth_targets), bench_graph, 1e-3
            grid = np.concatenate([[0.0], np.geomspace(0.25, 20.0, 10)])
            assert ens.coupled_cov.shape[:2] == (1, 5)
        else:
            ens, g, mu = _diagonal_ensemble(smooth_targets), bench_graph, 1e-3
            grid = np.concatenate([[0.0], np.geomspace(0.25, 100.0, 12)])
            assert ens.coupled_cov.shape[:2] == (5, 1)
        sweep, counts = self._sweep(calls, ens, g, mu, grid)
        assert counts == self._counts(mu, grid, 2 * ens.coupled_cov.shape[0])
        assert [r.eta for r in sweep.reports] == list(grid)
        wants = [mt.theory_report(ens, g, mu, eta) for eta in grid]
        assert sweep.eta_star == grid[np.argmin([want.msd_bar for want in wants])]
        for got, want in zip(sweep.reports, wants):
            for name in ("msd_bar", "msd_total", "bias_cross_term"):
                assert getattr(got, name) == pytest.approx(getattr(want, name), rel=1e-12, abs=0.0)
            for a, b in [
                (got.solution.values, want.solution.values),
                (got.bias_vector, want.bias_vector),
            ]:
                assert np.max(np.abs(a - b)) <= 1e-10 * np.max(np.abs(b))
            terms = want.msd_per_frequency
            assert got.msd_per_frequency == pytest.approx(terms, rel=1e-12, abs=0.0)
        assert np.array_equal(sweep.msd_bar_curve, [r.msd_bar for r in sweep.reports])

    @pytest.mark.parametrize("positive", [GRID_ROUTE_ETAS - 1, GRID_ROUTE_ETAS])
    def test_grid_size_selects_the_route(self, calls, het_ensemble, bench_graph, positive):
        grid = np.concatenate([[0.0], np.geomspace(0.25, 20.0, positive)])
        _, counts = self._sweep(calls, het_ensemble, bench_graph, 1e-3, grid)
        eigh = 2 * het_ensemble.coupled_cov.shape[0] if positive >= GRID_ROUTE_ETAS else 0
        assert counts == self._counts(1e-3, grid, eigh)

    def test_solution_certificate_counts_the_system_size(self, calls, smooth_targets, bench_graph):
        """Full covariances solve sN x sN systems, so the mismatch keeps its per-eta
        stacks when the conditioning bound certifies N x N systems but not
        sN x sN ones, while the bias, whose bound 2 max h / min h is
        certified, takes its pencil."""
        n, s = 15, 5
        grid = np.concatenate([[0.0], np.geomspace(10.0, 100.0, GRID_ROUTE_ETAS)])
        covs = np.array(_full_ensemble(smooth_targets).regressor_cov)
        tiny = (grid[-1] * bench_graph.lambda_max + 1.2) / 1.5e13
        covs[0] += (tiny - np.linalg.eigvalsh(covs[0])[0]) * np.eye(s)
        ens = mt.TaskEnsemble(smooth_targets, covs, np.full(n, 0.1))
        r_min, r_max = ens.regressor_eigvals.min(), ens.regressor_eigvals.max()
        kappas = (grid[1:] * bench_graph.lambda_max + r_max) / r_min
        assert _certified(kappas.max(), n) and not _certified(kappas.min(), s * n)
        assert _certified(2.0 * r_max / r_min, s * n)
        sweep, counts = self._sweep(calls, ens, bench_graph, 1e-3, grid)
        assert counts == self._counts(1e-3, grid, GRID_ROUTE_ETAS + 1)
        assert np.all(np.isfinite(sweep.msd_bar_curve))

    def test_indefinite_bias_pencil_takes_the_lu_route(self, calls, het_ensemble, bench_graph):
        """mu * max h >= 1 makes H (I - mu H)^-1 indefinite, though mu < 2 / max h:
        the mismatch keeps its pencils and the bias is one LU stack."""
        mu = 0.9
        assert 1.0 <= mu * het_ensemble.regressor_eigvals.max() < 2.0
        grid = np.concatenate([[0.0], np.geomspace(0.01, 1.0, 10)])
        sweep, counts = self._sweep(calls, het_ensemble, bench_graph, mu, grid)
        assert counts == self._counts(mu, grid, het_ensemble.coupled_cov.shape[0])
        assert np.all(np.isfinite(sweep.msd_bar_curve))

    @pytest.mark.parametrize("case", ["margin", "certificate"])
    def test_bias_pencil_needs_a_margin_and_a_certificate(
        self, calls, smooth_targets, bench_graph, case
    ):
        """The bias takes its LU route when mu * max h > 1/2, though
        H (I - mu H)^-1 is still SPD, or when its bound 2 max h / min h is not
        certified: the pencil's Cholesky factors could then fail where the
        per-point LU solve does not."""
        grid = np.concatenate([[0.0], np.geomspace(0.01, 1.0, 10)])
        if case == "margin":  # the mismatch takes its one pencil
            ens, eigh = mt.varying_profile(smooth_targets, seed=7), 1
            mu = 0.75 / ens.regressor_eigvals.max()
        else:  # the mismatch is not certified either: one eigh per eta in _spd_solve
            covs = np.array(_full_ensemble(smooth_targets).regressor_cov)
            covs[0] += (1e-16 - np.linalg.eigvalsh(covs[0])[0]) * np.eye(5)
            ens = mt.TaskEnsemble(smooth_targets, covs, np.full(15, 0.1))
            eigh, mu, curv = grid.size - 1, 1e-3, ens.regressor_eigvals
            assert not _certified(2.0 * curv.max() / curv.min(), 5)
        sweep, counts = self._sweep(calls, ens, bench_graph, mu, grid)
        assert counts == self._counts(mu, grid, eigh)
        assert np.all(np.isfinite(sweep.msd_bar_curve))

    @pytest.mark.filterwarnings("error")
    def test_uncertified_solution_stack_raises_as_at_one_point(
        self, calls, smooth_targets, bench_graph
    ):
        """A mismatch stack the conditioning bound cannot certify keeps the stack
        route at any grid size, so a numerically singular one raises
        SingularSystem on a grid as at one point, not an overflow warning."""
        ens = mt.uniform_profile(smooth_targets, sigma_u_sq=2.2e-308, sigma_v_sq=1.0)
        grid = np.concatenate([[0.0], np.geomspace(0.25, 350.0, 40)])
        with pytest.raises(mt.SingularSystem):
            mt.theory_report(ens, bench_graph, 5e-3, grid[1])
        calls.update(eigh=0, solve=[], check_stability=0)
        with pytest.raises(mt.SingularSystem):
            mt.optimize_eta(ens, bench_graph, 5e-3, grid)
        # no pencil: the first eta's stack goes through _spd_solve's eigendecomposition
        assert calls == {"eigh": 1, "solve": [(0.0, tuple(grid))], "check_stability": 41}

    def test_unstable_point_raises_before_any_eigh(self, calls, het_ensemble, bench_graph):
        grid = np.concatenate([[0.0], np.geomspace(0.25, 20.0, 10), [1e6]])
        calls.update(eigh=0, solve=[], check_stability=0)
        with pytest.raises(mt.UnstableConfiguration) as exc:
            mt.optimize_eta(het_ensemble, bench_graph, 1e-3, grid)
        assert "laplacian-spectrum" in exc.value.failed
        assert calls == {"eigh": 0, "solve": [], "check_stability": grid.size}


class TestBiasSurface:
    def test_unstable_pair_raises_before_any_solve(self, monkeypatch, het_ensemble, bench_graph):
        calls = _count_calls(monkeypatch, ("solve",))
        with pytest.raises(mt.UnstableConfiguration) as exc:
            mt.bias_surface(het_ensemble, bench_graph, [1e-3, 1e-4], [0.0, 1.0, 1e6])
        assert "laplacian-spectrum" in exc.value.failed
        assert "laplacian-spectrum" in str(exc.value)
        assert calls == {"solve": []}

    @pytest.mark.parametrize("mus, etas", [([], [0.0]), ([1e-3], []), ([], [])])
    def test_empty_grids_give_empty_surfaces(self, het_ensemble, bench_graph, mus, etas):
        surface = mt.bias_surface(het_ensemble, bench_graph, mus, etas)
        assert surface.shape == (len(etas), len(mus))

    def test_large_eta_grid_takes_the_pencil_route(self, monkeypatch, smooth_targets, bench_graph):
        """The mismatch is solved once for every eta, from one eigh per group, and
        the bias once per mu, from one more eigh per group."""
        ens = _diagonal_ensemble(smooth_targets)
        groups = ens.coupled_cov.shape[0]
        mus, etas = [1e-3, 1e-4, 1e-5], np.concatenate([[0.0], np.geomspace(1e-3, 1e-2, 9)])
        calls = _count_calls(monkeypatch, ("eigh", "solve"))
        surface = mt.bias_surface(ens, bench_graph, mus, etas)
        assert calls == {
            "eigh": groups * (1 + len(mus)),
            "solve": [(0.0, tuple(etas))] + [(mu, tuple(etas)) for mu in mus],
        }
        monkeypatch.undo()
        for (i, eta), (j, mu) in itertools.product(enumerate(etas), enumerate(mus)):
            want = mt.theory_report(ens, bench_graph, mu, eta).bias_sq_norm
            assert surface[i, j] == pytest.approx(want, rel=1e-12, abs=0.0)


def _entry_points(ens, g, mu, eta):
    """Every library entry point for the operating point (mu, eta), as a call."""
    return {
        "check_stability": lambda: mt.check_stability(ens, g, mu, eta),
        "theory_report": lambda: mt.theory_report(ens, g, mu, eta),
        "optimize_eta": lambda: mt.optimize_eta(ens, g, mu, [0.0, eta]),
        "bias_surface": lambda: mt.bias_surface(ens, g, [mu], [eta]),
        "msd_noncoop": lambda: mt.msd_noncoop(ens, mu),
        "solve_regularized": lambda: mt.solve_regularized(ens, g, eta),
        "monte_carlo": lambda: mt.monte_carlo(
            ens, g, mt.SimConfig(mu=mu, eta=eta, n_iters=10)
        ),
        "SimConfig": lambda: mt.SimConfig(mu=mu, eta=eta),
    }


POINT_ENTRIES = ["check_stability", "theory_report", "optimize_eta", "bias_surface"]

# values that are not a finite real number at all (a bool is a numbers.Real,
# but no step size), each given as mu and as eta
NON_REALS = [
    pytest.param(None, id="None"),
    pytest.param("1e-3", id="str"),
    pytest.param(1e-3 + 0j, id="complex"),
    pytest.param(10**400, id="huge-int"),
    pytest.param(np.array([1.0]), id="array"),
    pytest.param(True, id="True"),
    pytest.param(False, id="False"),
]


@pytest.mark.filterwarnings("error")
class TestOneInputCheck:
    """theory.check_real is the one rule for a real scalar: each entry point
    raises InvalidArgument for a mu or eta that is not a finite real number in
    range (None included), not a verdict, a number, a numpy error or a warning;
    a size mismatch raises DimensionMismatch."""

    @pytest.mark.parametrize("entry", POINT_ENTRIES + ["msd_noncoop", "SimConfig"])
    @pytest.mark.parametrize("mu", [0.0, -1e-3, math.nan, math.inf, *NON_REALS])
    def test_bad_mu(self, het_ensemble, bench_graph, entry, mu):
        with pytest.raises(mt.InvalidArgument):
            _entry_points(het_ensemble, bench_graph, mu, 1.0)[entry]()

    @pytest.mark.parametrize("entry", POINT_ENTRIES + ["solve_regularized", "SimConfig"])
    @pytest.mark.parametrize("eta", [-0.5, math.nan, math.inf, *NON_REALS])
    def test_bad_eta(self, het_ensemble, bench_graph, entry, eta):
        with pytest.raises(mt.InvalidArgument):
            _entry_points(het_ensemble, bench_graph, 1e-3, eta)[entry]()

    @pytest.mark.parametrize(
        "real", [np.float32, np.longdouble, Fraction], ids=["float32", "longdouble", "Fraction"]
    )
    def test_admitted_reals_compute_as_python_floats(self, het_ensemble, bench_graph, real):
        """A mu and eta of any real type give the results of their Python floats."""
        ens, g = het_ensemble, bench_graph
        mu, eta = real(1) / real(1000), real(7) / real(10)
        args = [(mu, eta), (float(mu), float(eta))]
        a, b = (mt.theory_report(ens, g, m, e) for m, e in args)
        assert (a.mu, a.eta, a.msd_bar, a.bias_sq_norm) == (b.mu, b.eta, b.msd_bar, b.bias_sq_norm)
        surfaces = [mt.bias_surface(ens, g, [m], [e]) for m, e in args]
        assert np.array_equal(*surfaces)
        sims = [mt.monte_carlo(ens, g, mt.SimConfig(mu=m, eta=e, n_iters=50)) for m, e in args]
        assert np.array_equal(sims[0].curve_vs_target, sims[1].curve_vs_target)

    @pytest.mark.parametrize("entry", POINT_ENTRIES + ["solve_regularized", "monte_carlo"])
    def test_size_mismatch_before_any_block(
        self, monkeypatch, het_ensemble, line_graph, entry
    ):
        """A 15-agent ensemble on a 5-node graph."""

        def no_block(*args, **kwargs):
            raise AssertionError("a block ran")

        monkeypatch.setattr(mt.engine, "_run_block", no_block)
        with pytest.raises(mt.DimensionMismatch):
            _entry_points(het_ensemble, line_graph, 1e-3, 1.0)[entry]()


def _uniform_cov_problem(seed: int, n: int = 4, m: int = 2):
    """Common regressor covariance: the per-frequency predictor is exact up to
    the O(mu) finite-step correction, so the series oracle must agree tightly."""
    rng = np.random.default_rng(seed)
    g = mt.build_graph(random_connected_adjacency(rng, n, weight_range=(0.1, 0.5)))
    targets = mt.StackedSignal.from_blocks(rng.standard_normal((n, m)))
    r_u = make_random_spd(rng, m, eig_range=(0.8, 1.2))
    covs = np.broadcast_to(r_u, (n, m, m)).copy()
    ens = mt.TaskEnsemble(
        targets=targets, regressor_cov=covs, noise_var=rng.uniform(0.05, 0.3, n)
    )
    return ens, g


def _mild_scalar_problem(seed: int, n: int = 5, m: int = 2):
    """Per-node sigma_u^2 * I with mild spread: the regime the per-frequency
    decoupling is quoted for."""
    rng = np.random.default_rng(seed)
    g = mt.build_graph(random_connected_adjacency(rng, n, weight_range=(0.1, 0.5)))
    targets = mt.StackedSignal.from_blocks(rng.standard_normal((n, m)))
    sig_u = rng.uniform(0.8, 1.2, n)
    covs = np.stack([s * np.eye(m) for s in sig_u])
    ens = mt.TaskEnsemble(
        targets=targets, regressor_cov=covs, noise_var=rng.uniform(0.05, 0.15, n)
    )
    return ens, g


class TestLyapunovRoute:
    @pytest.mark.parametrize("eta", [0.0, 1.0])
    def test_exact_under_common_covariance(self, eta):
        ens, g = _uniform_cov_problem(5)
        mu = 5e-4
        series = lyapunov_msd(ens, g, mu, eta)
        closed = mt.theory_report(ens, g, mu, eta).msd_total
        assert series == pytest.approx(closed, rel=2e-3)

    @pytest.mark.parametrize("eta", [0.0, 2.0])
    def test_close_under_mild_heterogeneity(self, eta):
        ens, g = _mild_scalar_problem(11)
        series = lyapunov_msd(ens, g, 1e-3, eta)
        closed = mt.theory_report(ens, g, 1e-3, eta).msd_total
        assert series == pytest.approx(closed, rel=0.02)

    def test_positive_and_converges(self):
        ens, g = _uniform_cov_problem(8, n=3, m=2)
        val = lyapunov_msd(ens, g, 1e-3, 0.5)
        assert np.isfinite(val) and val > 0.0
