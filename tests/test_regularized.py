"""Penalized network objective: minimizer, spectral view, steady-state bias."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mtdiff as mt

from helpers import (
    batch_gd_minimize,
    dense_regularized_solution,
    exact_bias,
    make_random_spd,
    noise_free_recursion,
    pareto_solution,
    random_connected_adjacency,
    spectral_filter_solution,
    true_gradient,
)


def _random_problem(seed: int, *, n_max: int = 6, m_max: int = 3):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, n_max + 1))
    m = int(rng.integers(1, m_max + 1))
    g = mt.build_graph(random_connected_adjacency(rng, n))
    tgt = mt.StackedSignal.from_blocks(rng.standard_normal((n, m)))
    covs = np.stack([make_random_spd(rng, m) for _ in range(n)])
    ens = mt.TaskEnsemble(
        targets=tgt, regressor_cov=covs, noise_var=rng.uniform(0.02, 0.5, n)
    )
    return ens, g


class TestSolveRegularized:
    def test_eta_zero_returns_targets(self, het_ensemble, bench_graph):
        reg = mt.solve_regularized(het_ensemble, bench_graph, 0.0)
        assert np.array_equal(reg.solution.values, het_ensemble.targets.values)
        assert reg.mismatch_sq == 0.0

    def test_first_order_optimality(self, het_ensemble, bench_graph):
        """Gradient of the penalized objective vanishes at the solution."""
        eta = 3.0
        reg = mt.solve_regularized(het_ensemble, bench_graph, eta)
        w = reg.solution.blocks
        resid = np.empty_like(w)
        for k in range(15):
            resid[k] = true_gradient(het_ensemble, k, w[k])
        resid += eta * bench_graph.laplacian @ w
        assert np.max(np.abs(resid)) < 1e-8

    def test_gradient_descent_oracle(self):
        ens, g = _random_problem(42)
        for eta in (0.0, 0.5, 5.0):
            reg = mt.solve_regularized(ens, g, eta)
            oracle = batch_gd_minimize(
                ens.regressor_cov, ens.targets.blocks, g.laplacian, eta
            )
            rel = np.linalg.norm(reg.solution.blocks - oracle) / max(
                np.linalg.norm(oracle), 1e-30
            )
            assert rel < 1e-8

    def test_mismatch_grows_smoothness_falls(self, het_ensemble, bench_graph):
        etas = [0.0, 0.5, 2.0, 10.0, 50.0]
        regs = [mt.solve_regularized(het_ensemble, bench_graph, e) for e in etas]
        mism = [r.mismatch_sq for r in regs]
        rough = [mt.smoothness(r.solution, bench_graph) for r in regs]
        assert all(a <= b + 1e-15 for a, b in zip(mism, mism[1:]))
        assert all(a >= b - 1e-15 for a, b in zip(rough, rough[1:]))

    def test_rejects_negative_eta(self, het_ensemble, bench_graph):
        with pytest.raises(ValueError):
            mt.solve_regularized(het_ensemble, bench_graph, -1.0)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_right_hand_side_raises(self):
        """eta * (L kron I) W0 = 1e300 * 4e10 overflows: SingularSystem, not
        an overflow warning."""
        g = mt.build_graph(np.roll(np.eye(5), 1, axis=1) + np.roll(np.eye(5), -1, axis=1))
        targets = mt.StackedSignal.from_blocks(np.outer([1e10, -1e10, 0.0, 0.0, 0.0], [1.0, 1.0]))
        ens = mt.TaskEnsemble(targets, np.tile(np.eye(2), (5, 1, 1)), np.full(5, 0.1))
        with pytest.raises(mt.SingularSystem, match="overflows"):
            mt.solve_regularized(ens, g, 1e300)

    @settings(max_examples=30)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.1, 1.0, 25.0]))
    def test_optimality_property(self, seed, eta):
        ens, g = _random_problem(seed)
        reg = mt.solve_regularized(ens, g, eta)
        w = reg.solution.blocks
        resid = np.stack(
            [true_gradient(ens, k, w[k]) for k in range(ens.n_agents)]
        ) + eta * g.laplacian @ w
        assert np.max(np.abs(resid)) < 1e-8 * max(1.0, float(np.abs(w).max()))


def _structured_problem(seed: int, kind: str):
    """Random problem whose covariances are diagonal, isotropic (per-node
    sigma_k^2 I) or uniform (one diagonal R shared by every node)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    m = int(rng.integers(1, 4))
    g = mt.build_graph(random_connected_adjacency(rng, n))
    tgt = mt.StackedSignal.from_blocks(rng.standard_normal((n, m)))
    if kind == "diagonal":
        diag = rng.uniform(0.5, 2.0, (n, m))
    elif kind == "isotropic":
        diag = np.repeat(rng.uniform(0.5, 2.0, (n, 1)), m, axis=1)
    else:
        diag = np.broadcast_to(rng.uniform(0.5, 2.0, m), (n, m))
    covs = diag[:, :, None] * np.eye(m)
    ens = mt.TaskEnsemble(
        targets=tgt, regressor_cov=covs, noise_var=rng.uniform(0.02, 0.5, n)
    )
    return ens, g


def _check_against_oracles(ens, g, eta, mu):
    """solve_regularized against the dense and gradient-descent oracles, and
    theory_report's bias against the noise-free recursion."""
    covs, targets, lap = ens.regressor_cov, ens.targets.blocks, g.laplacian
    reg = mt.solve_regularized(ens, g, eta)
    for oracle in (
        dense_regularized_solution(covs, targets, lap, eta),
        batch_gd_minimize(covs, targets, lap, eta),
    ):
        rel = np.linalg.norm(reg.solution.blocks - oracle) / max(
            np.linalg.norm(oracle), 1e-30
        )
        assert rel < 1e-8
    rep = mt.theory_report(ens, g, mu, eta)
    w_inf = noise_free_recursion(covs, targets, lap, mu, eta)
    offset = (reg.solution.blocks - w_inf).reshape(-1)
    assert np.max(np.abs(offset - rep.bias_vector)) < 1e-12
    assert float(offset @ offset) == pytest.approx(rep.bias_sq_norm, rel=1e-8, abs=0.0)


KINDS = ["diagonal", "isotropic", "uniform", "uniform_profile", "full"]


def _kind_problem(kind: str):
    """One small problem per covariance structure, each with M > 1: full
    random SPD, the three structured kinds and the sigma^2 I uniform profile."""
    if kind == "full":
        return _random_problem(4)
    if kind == "uniform_profile":
        ens, g = _structured_problem(4, "isotropic")
        return mt.uniform_profile(ens.targets, sigma_u_sq=1.5, sigma_v_sq=0.1), g
    return _structured_problem(4, kind)


class TestStructuredCovariances:
    """Diagonal covariances are solved per component; full ones as one
    coupled (NM) x (NM) system."""

    @settings(max_examples=30)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(["diagonal", "isotropic", "uniform"]),
        st.sampled_from([0.1, 1.0, 2.0]),
    )
    def test_diagonal_profiles_match_oracles(self, seed, kind, eta):
        ens, g = _structured_problem(seed, kind)
        _check_against_oracles(ens, g, eta, mu=0.05)

    @pytest.mark.parametrize("seed", [0, 4, 42])
    def test_full_covariances_match_oracles(self, seed):
        ens, g = _random_problem(seed)
        _check_against_oracles(ens, g, 1.0, mu=0.05)

    @pytest.mark.parametrize("kind", KINDS)
    def test_report_solves_one_stack_per_group(self, monkeypatch, kind):
        """theory_report hands _spd_solve one N x N system with M right-hand
        sides for isotropic covariances, M N x N systems for other diagonal
        ones and a single (NM) x (NM) system for full ones.  It makes exactly
        three LAPACK solves and no factorization besides: the mismatch stack,
        the bias stack, shaped like the mismatch one, and the per-frequency
        terms over the same groups ((1, N, G, s, s) curvatures against
        copy-summed (1, N, G, s, s) noise blocks, for the report's one eta)."""
        ens, g = _kind_problem(kind)
        n, m = ens.n_agents, ens.dim
        assert m > 1
        shapes, solves = [], []
        spd_solve, solve = mt.theory._spd_solve, np.linalg.solve

        def record(mat, rhs, *args):
            shapes.append((mat.shape, rhs.shape))
            return spd_solve(mat, rhs, *args)

        def record_solve(mat, rhs):
            solves.append((mat.shape, rhs.shape))
            return solve(mat, rhs)

        def forbidden(*args, **kwargs):
            raise AssertionError("a report factorized besides its LU solves")

        monkeypatch.setattr(mt.theory, "_spd_solve", record)
        monkeypatch.setattr(np.linalg, "solve", record_solve)
        monkeypatch.setattr(np.linalg, "cholesky", forbidden)
        monkeypatch.setattr(np.linalg, "eigh", forbidden)
        rep = mt.theory_report(ens, g, 0.05, 1.0)
        assert np.isfinite(rep.msd_bar) and rep.bias_cross_term != 0.0
        want = {
            "full": ((1, n * m, n * m), (1, n * m, 1)),
            "diagonal": ((m, n, n), (m, n, 1)),
            "uniform": ((m, n, n), (m, n, 1)),
            "isotropic": ((1, n, n), (1, n, m)),
            "uniform_profile": ((1, n, n), (1, n, m)),
        }
        blocks = {
            "full": (1, n, 1, m, m),
            "diagonal": (1, n, m, 1, 1),
            "uniform": (1, n, m, 1, 1),
            "isotropic": (1, n, 1, 1, 1),
            "uniform_profile": (1, n, 1, 1, 1),
        }
        assert shapes == [want[kind]]
        assert solves == [want[kind], want[kind], (blocks[kind], blocks[kind])]

    @pytest.mark.parametrize("kind", KINDS)
    def test_report_neither_groups_nor_certifies_again(self, monkeypatch, kind):
        """The covariance groups are built once, with the ensemble, and a
        well-conditioned report runs no certifying Cholesky."""
        grouped, factored = [], []
        group, cholesky = mt.tasks._coupled_covariances, np.linalg.cholesky

        def record_group(covs):
            grouped.append(covs.shape)
            return group(covs)

        def record_cholesky(mat):
            factored.append(mat.shape)
            return cholesky(mat)

        monkeypatch.setattr(mt.tasks, "_coupled_covariances", record_group)
        ens, g = _kind_problem(kind)
        assert grouped  # at construction
        grouped.clear()
        monkeypatch.setattr(np.linalg, "cholesky", record_cholesky)
        mt.theory_report(ens, g, 0.05, 1.0)
        assert grouped == [] and factored == []


class TestSpdSolve:
    def test_stack_matches_each_system(self):
        rng = np.random.default_rng(0)
        mats = np.stack([make_random_spd(rng, 4) for _ in range(3)])
        rhs = rng.standard_normal((3, 4, 2))
        got = mt.theory._spd_solve(mats, rhs, math.inf)
        for a, b, x in zip(mats, rhs, got):
            assert np.max(np.abs(a @ x - b)) < 1e-12

    def test_certified_stack_is_one_lu_solve(self):
        rng = np.random.default_rng(1)
        mats = np.stack([make_random_spd(rng, 4) for _ in range(3)])
        rhs = rng.standard_normal((3, 4, 2))
        got = mt.theory._spd_solve(mats, rhs, 4.0)  # every eigenvalue in [0.5, 2]
        assert got.tobytes() == np.linalg.solve(mats, rhs).tobytes()

    def test_stack_falls_back_to_symmetric_part(self):
        """Without a condition bound the stack is solved through the
        eigendecomposition of its symmetric part, so a matrix whose lower
        triangle alone is indefinite is solved as its SPD symmetric part."""
        odd = np.array([[1.0, -0.9], [1.5, 1.0]])
        mats = np.stack([np.eye(2), odd])
        rhs = np.ones((2, 2, 1))
        got = mt.theory._spd_solve(mats, rhs, math.inf)
        sym = 0.5 * (odd + odd.T)
        assert np.max(np.abs(sym @ got[1] - rhs[1])) < 1e-12
        assert np.allclose(got[0], rhs[0], rtol=0.0, atol=1e-15)

    def test_singular_member_of_stack_raises(self):
        mats = np.stack([np.eye(2), np.ones((2, 2))])
        with pytest.raises(mt.SingularSystem):
            mt.theory._spd_solve(mats, np.ones((2, 2, 1)), math.inf)


class TestSingularSystems:
    """A data term that vanishes next to eta * L leaves the singular
    Laplacian: SingularSystem at every eta > 0, never a solution."""

    @pytest.mark.parametrize("eta", [0.5, 1.0, 2.0, 5.0])
    def test_vanishing_covariances_raise(self, smooth_targets, bench_graph, eta):
        ens = mt.uniform_profile(smooth_targets, sigma_u_sq=1e-300, sigma_v_sq=0.1)
        with pytest.raises(mt.SingularSystem):
            mt.theory_report(ens, bench_graph, 1e-3, eta)

    def test_eta_zero_needs_no_solve(self, smooth_targets, bench_graph):
        ens = mt.uniform_profile(smooth_targets, sigma_u_sq=1e-300, sigma_v_sq=0.1)
        rep = mt.theory_report(ens, bench_graph, 1e-3, 0.0)
        assert rep.msd_total == pytest.approx(mt.msd_noncoop(ens, 1e-3), rel=1e-12, abs=0.0)


class TestLimits:
    def test_pareto_is_covariance_weighted_mean(self, het_ensemble):
        """The Pareto oracle solves the aggregate normal equations."""
        w_star = pareto_solution(het_ensemble.regressor_cov, het_ensemble.targets.blocks)
        total = np.zeros((5, 5))
        rhs = np.zeros(5)
        for k in range(15):
            total += het_ensemble.regressor_cov[k]
            rhs += het_ensemble.regressor_cov[k] @ het_ensemble.targets.blocks[k]
        assert np.allclose(total @ w_star, rhs, atol=1e-12)

    def test_large_eta_approaches_pareto(self, het_ensemble, bench_graph):
        w_star = pareto_solution(het_ensemble.regressor_cov, het_ensemble.targets.blocks)
        reg = mt.solve_regularized(het_ensemble, bench_graph, 1e9)
        gap = np.abs(reg.solution.blocks - w_star).max()
        assert gap < 1e-6

    def test_spectral_filter_matches_direct_solve(self, uni_ensemble, bench_graph):
        for eta in (0.0, 1.0, 20.0):
            direct = mt.solve_regularized(uni_ensemble, bench_graph, eta).solution
            filtered = spectral_filter_solution(uni_ensemble, bench_graph, eta)
            assert np.max(np.abs(mt.gft(direct, bench_graph).blocks - filtered)) < 1e-10

    def test_filter_ratio_bound_and_monotonicity(self, uni_ensemble, bench_graph):
        """Per-frequency attenuation obeys 1/(1 + eta*lam/lam_max(R_u))."""
        lam_u_max = 1.0  # R_u = I for this profile
        base = np.linalg.norm(
            mt.gft(uni_ensemble.targets, bench_graph).blocks, axis=1
        )
        prev = None
        for eta in (0.0, 0.5, 2.0, 8.0, 32.0):
            reg = mt.solve_regularized(uni_ensemble, bench_graph, eta)
            norms = np.linalg.norm(mt.gft(reg.solution, bench_graph).blocks, axis=1)
            ratio = norms / base
            bound = 1.0 / (1.0 + eta * bench_graph.eigenvalues / lam_u_max)
            assert np.all(ratio <= bound + 1e-12)
            assert abs(ratio[0] - 1.0) < 1e-12  # lambda_1 = 0 passes through
            if prev is not None:
                assert np.all(ratio <= prev + 1e-12)  # monotone in eta
            prev = ratio


class TestLongTermBias:
    def test_zero_at_eta_zero(self, het_ensemble, bench_graph):
        rep = mt.theory_report(het_ensemble, bench_graph, 1e-3, 0.0)
        assert rep.bias_sq_norm == 0.0
        assert np.all(rep.bias_vector == 0.0)

    def test_fixed_point_equation(self, het_ensemble, bench_graph):
        """x solves (I - B) x = (mu eta)^2 L^2 W0_eta in stacked form."""
        mu, eta = 1e-3, 4.0
        rep = mt.theory_report(het_ensemble, bench_graph, mu, eta)
        reg = mt.solve_regularized(het_ensemble, bench_graph, eta)
        m = het_ensemble.dim
        lap = np.kron(bench_graph.laplacian, np.eye(m))
        hess = np.zeros((15 * m, 15 * m))
        for k in range(15):
            hess[k * m : (k + 1) * m, k * m : (k + 1) * m] = het_ensemble.regressor_cov[k]
        eye = np.eye(15 * m)
        b = (eye - mu * eta * lap) @ (eye - mu * hess)
        lhs = (eye - b) @ rep.bias_vector
        rhs = (mu * eta) ** 2 * lap @ lap @ reg.solution.values
        assert np.max(np.abs(lhs - rhs)) < 1e-14 * max(1.0, np.abs(rhs).max() / 1e-10)

    def test_noise_free_recursion_limit_is_the_bias(self, het_ensemble, bench_graph):
        """The noise-free adapt-then-combine iterate settles at W0_eta minus
        the bias that theory_report predicts."""
        mu, eta = 0.05, 2.0
        rep = mt.theory_report(het_ensemble, bench_graph, mu, eta)
        w_reg = mt.solve_regularized(het_ensemble, bench_graph, eta).solution.blocks
        w_inf = noise_free_recursion(
            het_ensemble.regressor_cov,
            het_ensemble.targets.blocks,
            bench_graph.laplacian,
            mu,
            eta,
        )
        offset = (w_reg - w_inf).reshape(-1)
        assert np.max(np.abs(offset - rep.bias_vector)) < 1e-12
        assert float(offset @ offset) == pytest.approx(rep.bias_sq_norm, rel=1e-8, abs=0.0)

    @pytest.mark.parametrize("mu", [1e-3, 1e-5, 1e-7])
    def test_matches_exact_rational_bias(self, mu):
        """At small mu the bias matrix I - (I - mu eta L)(I - mu H) is O(mu)
        beside entries of order 1, so forming it by that difference would
        lose about u/mu relative accuracy; the report stays at roundoff."""
        for seed in (0, 3):
            rng = np.random.default_rng(seed)
            g = mt.build_graph(random_connected_adjacency(rng, 4))
            ens = mt.TaskEnsemble(
                targets=mt.StackedSignal.from_blocks(rng.standard_normal((4, 1))),
                regressor_cov=rng.uniform(0.5, 2.0, (4, 1, 1)),
                noise_var=rng.uniform(0.02, 0.5, 4),
            )
            want = exact_bias(ens.regressor_cov, ens.targets.blocks, g.laplacian, mu, 2.0)
            got = mt.theory_report(ens, g, mu, 2.0).bias_vector
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    def test_quartic_in_eta_quadratic_in_mu(self, het_ensemble, bench_graph):
        etas = np.geomspace(1e-3, 1e-2, 6)
        b_eta = [
            mt.theory_report(het_ensemble, bench_graph, 1e-3, e).bias_sq_norm
            for e in etas
        ]
        slope_eta = np.polyfit(np.log10(etas), np.log10(b_eta), 1)[0]
        assert slope_eta == pytest.approx(4.0, abs=0.05)

        mus = np.geomspace(1e-5, 1e-3, 5)
        b_mu = [
            mt.theory_report(het_ensemble, bench_graph, m_, 0.01).bias_sq_norm
            for m_ in mus
        ]
        slope_mu = np.polyfit(np.log10(mus), np.log10(b_mu), 1)[0]
        assert slope_mu == pytest.approx(2.0, abs=0.05)

    def test_unstable_pair_is_rejected(self, het_ensemble, bench_graph):
        with pytest.raises(mt.UnstableConfiguration) as exc:
            mt.theory_report(het_ensemble, bench_graph, 0.1, 1000.0)
        assert "laplacian-spectrum" in str(exc.value) or "neighborhood-weight" in str(
            exc.value
        )
