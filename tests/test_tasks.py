"""Task ensembles: targets, data profiles, streaming samples."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mtdiff as mt

from helpers import make_random_spd, sample, stochastic_gradient, true_gradient


def test_smooth_target_spectral_content(bench_graph):
    tau = np.array([0.0, 1.0, 3.0, 8.0, 20.0])
    tgt = mt.make_smooth_target(bench_graph, tau, 5)
    w_bar = mt.gft(tgt, bench_graph).blocks
    lam = bench_graph.eigenvalues
    expected = np.exp(-np.outer(lam, tau)) / np.sqrt(5)
    assert np.max(np.abs(w_bar - expected)) < 1e-12


def test_smooth_target_tau_zero_is_all_pass(bench_graph):
    tgt = mt.make_smooth_target(bench_graph, np.zeros(3), 3)
    norms = np.linalg.norm(mt.gft(tgt, bench_graph).blocks, axis=1)
    assert np.allclose(norms, 1.0, atol=1e-12)


@pytest.mark.parametrize("weight", [1e50, 1e100])
def test_smooth_target_unit_norm_at_huge_weights(weight):
    """The DC term is exp(0) whatever rounding noise eigh leaves in lambda_1,
    so a smooth family keeps its unit norm however heavy the edges are."""
    g = mt.random_geometric_graph(15, 0.35, weight=weight, seed=9, max_degree=5)
    tgt = mt.make_smooth_target(g, np.linspace(8.0, 12.0, 5), 5)
    assert np.linalg.norm(tgt.values) == pytest.approx(1.0, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("bad", [-1.0, np.inf, np.nan])
def test_smooth_target_tau_must_be_finite_and_nonnegative(bench_graph, bad):
    with pytest.raises(mt.MtdiffError, match="finite and nonnegative"):
        mt.make_smooth_target(bench_graph, [1.0, bad, 2.0], 3)


def test_smooth_target_dimension_check(bench_graph):
    with pytest.raises(mt.DimensionMismatch):
        mt.make_smooth_target(bench_graph, [1.0, 2.0], 3)


class TestProfiles:
    def test_uniform(self, smooth_targets):
        ens = mt.uniform_profile(smooth_targets, sigma_u_sq=2.0, sigma_v_sq=0.3)
        assert ens.is_uniform
        assert ens.n_agents == 15 and ens.dim == 5
        assert np.allclose(ens.regressor_cov, 2.0 * np.eye(5))
        assert np.allclose(ens.noise_var, 0.3)

    def test_scalar(self, smooth_targets):
        su = np.linspace(0.5, 2.0, 15)
        sv = np.linspace(0.01, 0.2, 15)
        ens = mt.scalar_profile(smooth_targets, su, sv)
        assert not ens.is_uniform
        for k in (0, 7, 14):
            assert np.allclose(ens.regressor_cov[k], su[k] * np.eye(5))
        assert np.allclose(ens.noise_var, sv)

    def test_varying_is_seeded_and_in_range(self, smooth_targets):
        e1 = mt.varying_profile(smooth_targets, seed=7)
        e2 = mt.varying_profile(smooth_targets, seed=7)
        e3 = mt.varying_profile(smooth_targets, seed=8)
        assert np.array_equal(e1.regressor_cov, e2.regressor_cov)
        assert not np.array_equal(e1.regressor_cov, e3.regressor_cov)
        diag = e1.regressor_cov[:, 0, 0]
        assert np.all((diag >= 0.8) & (diag <= 1.2))
        assert np.all((e1.noise_var >= 0.05) & (e1.noise_var <= 0.15))

    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_varying_rejects_bad_seed(self, smooth_targets, seed):
        with pytest.raises(mt.InvalidArgument, match="seed"):
            mt.varying_profile(smooth_targets, seed=seed)

    def test_curvature_spectrum_is_stored_read_only(self, het_ensemble):
        eigvals = het_ensemble.regressor_eigvals
        assert eigvals.shape == (15, 5) and not eigvals.flags.writeable
        for cov, vals in zip(het_ensemble.regressor_cov, eigvals):
            assert np.array_equal(vals, np.linalg.eigvalsh(cov))

    def test_rejects_not_spd(self, smooth_targets):
        covs = np.broadcast_to(np.eye(5), (15, 5, 5)).copy()
        covs[3] = -np.eye(5)
        with pytest.raises(mt.MtdiffError):
            mt.TaskEnsemble(
                targets=smooth_targets, regressor_cov=covs, noise_var=np.full(15, 0.1)
            )

    def test_rejects_asymmetric_cov(self, smooth_targets):
        covs = np.broadcast_to(np.eye(5), (15, 5, 5)).copy()
        covs[0, 0, 1] = 0.5  # not mirrored
        with pytest.raises(mt.MtdiffError):
            mt.TaskEnsemble(
                targets=smooth_targets, regressor_cov=covs, noise_var=np.full(15, 0.1)
            )

    def test_rejects_bad_cov_shape(self, smooth_targets):
        with pytest.raises(mt.DimensionMismatch, match="regressor_cov"):
            mt.TaskEnsemble(
                targets=smooth_targets, regressor_cov=np.eye(5), noise_var=np.full(15, 0.1)
            )

    def test_scalar_profile_length_mismatch(self, smooth_targets):
        with pytest.raises(mt.DimensionMismatch, match="sigma_u_sq"):
            mt.scalar_profile(smooth_targets, np.ones(14), np.full(15, 0.1))

    def test_rejects_bad_noise_length(self, smooth_targets):
        covs = np.broadcast_to(np.eye(5), (15, 5, 5)).copy()
        with pytest.raises(mt.DimensionMismatch):
            mt.TaskEnsemble(
                targets=smooth_targets, regressor_cov=covs, noise_var=np.full(7, 0.1)
            )


class TestModel:
    def test_hessian_and_true_gradient(self, het_ensemble):
        k = 4
        r = het_ensemble.regressor_cov[k]
        w0 = het_ensemble.targets.blocks[k]
        w = w0 + np.array([1.0, -1.0, 0.5, 0.0, 2.0])
        grad = true_gradient(het_ensemble, k, w)
        # the curvature is R_uk: the gradient moves by R_uk e_j along each e_j
        steps = [true_gradient(het_ensemble, k, w + e) - grad for e in np.eye(5)]
        assert np.allclose(np.stack(steps, axis=1), r, atol=1e-14)
        assert np.allclose(grad, r @ (w - w0), atol=1e-14)
        assert np.allclose(true_gradient(het_ensemble, k, w0), 0.0, atol=1e-14)

    def test_sample_stream_layout(self, het_ensemble):
        """The replay oracle's sample() must consume M regressor normals then
        one noise normal, the engine's documented stream layout."""
        k = 2
        rng = np.random.default_rng(123)
        s = sample(het_ensemble, k, rng)

        replay = np.random.default_rng(123)
        z = replay.standard_normal(6)
        chol = np.linalg.cholesky(het_ensemble.regressor_cov[k])
        u = chol @ z[:5]
        d = float(u @ het_ensemble.targets.blocks[k]) + np.sqrt(
            het_ensemble.noise_var[k]
        ) * z[5]
        assert s.agent == k
        assert np.allclose(s.regressor, u, atol=0)
        assert s.observation == pytest.approx(d, abs=0)

    def test_stochastic_gradient_identity(self, het_ensemble):
        rng = np.random.default_rng(5)
        k = 9
        w = rng.standard_normal(5)
        s = sample(het_ensemble, k, rng)
        ghat = stochastic_gradient(w, s)
        # true-gradient form u u'(w - w0_k) plus the noise term -u v
        u, w0 = s.regressor, het_ensemble.targets.blocks[k]
        v = s.observation - float(u @ w0)
        assert np.allclose(ghat, np.outer(u, u) @ (w - w0) - u * v, atol=1e-12)

    def test_stochastic_gradient_is_unbiased(self, uni_ensemble):
        k, n_draws = 3, 40_000
        rng = np.random.default_rng(11)
        w = np.array([0.4, -0.2, 0.0, 1.0, -1.5])
        acc = np.zeros(5)
        for _ in range(n_draws):
            acc += stochastic_gradient(w, sample(uni_ensemble, k, rng))
        mean = acc / n_draws
        true = true_gradient(uni_ensemble, k, w)
        # std of the mean is ~ sqrt(E||s||^2 / n); stay well above it
        assert np.max(np.abs(mean - true)) < 0.05

    @settings(max_examples=20)
    @given(st.integers(0, 2**32 - 1))
    def test_ensemble_shapes_arbitrary_spd(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, 4))
        tgt = mt.StackedSignal.from_blocks(rng.standard_normal((n, m)))
        covs = np.stack([make_random_spd(rng, m) for _ in range(n)])
        ens = mt.TaskEnsemble(
            targets=tgt, regressor_cov=covs, noise_var=rng.uniform(0.01, 1.0, n)
        )
        assert ens.n_agents == n and ens.dim == m
        assert ens.regressor_cov.shape == (n, m, m)
