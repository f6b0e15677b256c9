"""Simulation engine: replay oracle, reproducibility, stability gating."""

from __future__ import annotations

import math
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import mtdiff as mt
from helpers import make_random_spd, sample, stochastic_gradient
from mtdiff import engine
from mtdiff.config import build_ensemble, build_graph, load_config

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _uniform_ensemble(n: int, m: int, *, sigma_v_sq: float = 0.1) -> mt.TaskEnsemble:
    rng = np.random.default_rng(123)
    targets = mt.StackedSignal.from_blocks(rng.standard_normal((n, m)))
    covs = np.broadcast_to(np.eye(m), (n, m, m)).copy()
    return mt.TaskEnsemble(
        targets=targets, regressor_cov=covs, noise_var=np.full(n, sigma_v_sq)
    )


def _replay(ensemble, g, mu, eta, n_iters, seed, run_index, *, init=None):
    """Scalar re-simulation using the oracle sampler of tests/helpers.py.

    Returns the (n_iters, N, M) trajectory of estimates, consuming the same
    Philox stream the engine documents for run `run_index`.
    """
    n, m = ensemble.n_agents, ensemble.dim
    rng = np.random.Generator(np.random.Philox(key=(seed << 64) + run_index))
    w = np.zeros((n, m)) if init is None else np.array(init, dtype=float)
    out = np.empty((n_iters, n, m))
    for t in range(n_iters):
        ghat = np.empty((n, m))
        for k in range(n):
            ghat[k] = stochastic_gradient(w[k], sample(ensemble, k, rng))
        psi = w - mu * ghat
        w = psi - mu * eta * (g.laplacian @ psi)
        out[t] = w
    return out


def _replays(ensemble, g, mu, eta, n_iters, seed, n_runs, *, init=None):
    """Replays of runs 0 .. n_runs-1, stacked as (n_runs, n_iters, N, M).

    monte_carlo(n_runs=r+1) compared with the mean over these checks the
    Philox key of every run up to r and the run average together."""
    return np.stack(
        [_replay(ensemble, g, mu, eta, n_iters, seed, r, init=init) for r in range(n_runs)]
    )


class TestReplayOracle:
    def test_engine_matches_scalar_replay(self, line_graph):
        ens = _uniform_ensemble(5, 3)
        mu, eta, t = 0.05, 1.0, 200
        cfg = mt.SimConfig(mu=mu, eta=eta, n_iters=t, n_runs=3, seed=41)
        res = engine.monte_carlo(ens, line_graph, cfg)
        trajs = _replays(ens, line_graph, mu, eta, t, 41, 3)
        reg = mt.solve_regularized(ens, line_graph, eta).solution.blocks
        curve = ((trajs - reg) ** 2).sum(axis=(2, 3)).mean(axis=0) / 5
        assert np.allclose(res.curve_vs_reg, curve, rtol=1e-9, atol=1e-14)

    def test_engine_matches_replay_heterogeneous(self, het_ensemble, bench_graph):
        cfg = mt.SimConfig(mu=1e-3, eta=5.0, n_iters=100, n_runs=2, seed=7)
        res = engine.monte_carlo(het_ensemble, bench_graph, cfg)
        trajs = _replays(het_ensemble, bench_graph, 1e-3, 5.0, 100, 7, 2)
        tgt = het_ensemble.targets.blocks
        curve = ((trajs - tgt) ** 2).sum(axis=(2, 3)).mean(axis=0) / 15
        assert np.allclose(res.curve_vs_target, curve, rtol=1e-9, atol=1e-14)

    def test_general_kernel_matches_replay_across_chunks(self, line_graph):
        """Full SPD covariances, a nonzero start, a horizon that crosses two
        chunk boundaries and ends partway through a chunk, and a steady
        window that opens inside a chunk."""
        rng = np.random.default_rng(5)
        n, m = 5, 3
        ens = mt.TaskEnsemble(
            targets=mt.StackedSignal.from_blocks(rng.standard_normal((n, m))),
            regressor_cov=np.stack([make_random_spd(rng, m) for _ in range(n)]),
            noise_var=rng.uniform(0.05, 0.2, size=n),
        )
        init = rng.standard_normal((n, m))
        mu, eta, seed, runs = 0.05, 1.5, 13, 4
        chunk = engine.CHUNK_ITERS
        t = 2 * chunk + chunk // 2
        cfg = mt.SimConfig(
            mu=mu, eta=eta, n_iters=t, n_runs=runs, seed=seed, init=init,
            steady_window_frac=0.3,
        )
        start = t - cfg.window_length(t)
        assert start % chunk != 0 and start // chunk < t // chunk
        res = engine.monte_carlo(ens, line_graph, cfg)
        trajs = _replays(ens, line_graph, mu, eta, t, seed, runs, init=init)
        reg = mt.solve_regularized(ens, line_graph, eta).solution.blocks
        sq_reg = ((trajs - reg) ** 2).sum(axis=3).mean(axis=0)  # (t, n), run mean
        curve_tgt = ((trajs - ens.targets.blocks) ** 2).sum(axis=(2, 3)).mean(axis=0) / n
        tol = dict(rtol=1e-9, atol=1e-14)
        assert np.allclose(res.curve_vs_reg, sq_reg.sum(axis=1) / n, **tol)
        assert np.allclose(res.curve_vs_target, curve_tgt, **tol)
        assert np.allclose(
            res.steady_msd_per_agent_vs_reg, sq_reg[start:].mean(axis=0), **tol
        )

    def test_information_propagates_one_hop_per_iteration(self, line_graph):
        """A non-neighbor's state cannot influence a node before the graph
        distance between them has been covered by combine steps."""
        ens = _uniform_ensemble(5, 3)
        base = np.zeros((5, 3))
        bumped = base.copy()
        bumped[4] += 10.0  # distance 4 from node 0 on the path
        a = _replay(ens, line_graph, 0.5, 2.0, 6, 99, 0, init=base)
        b = _replay(ens, line_graph, 0.5, 2.0, 6, 99, 0, init=bumped)
        for t in range(3):  # < graph distance: node 0 untouched, bitwise
            assert np.array_equal(a[t, 0], b[t, 0])
        assert not np.array_equal(a[3, 0], b[3, 0])
        # the node one hop closer (distance 3) reacts one iteration earlier
        assert np.array_equal(a[1, 1], b[1, 1])
        assert not np.array_equal(a[2, 1], b[2, 1])


class TestReproducibility:
    def test_same_config_bitwise_identical(self, het_ensemble, bench_graph):
        cfg = mt.SimConfig(mu=1e-3, eta=1.0, n_iters=150, n_runs=3, seed=5)
        r1 = engine.monte_carlo(het_ensemble, bench_graph, cfg)
        r2 = engine.monte_carlo(het_ensemble, bench_graph, cfg)
        assert np.array_equal(r1.curve_vs_reg, r2.curve_vs_reg)
        assert np.array_equal(r1.curve_vs_target, r2.curve_vs_target)
        assert r1.steady_msd_vs_reg == r2.steady_msd_vs_reg

    def test_jobs_do_not_change_bits(self, het_ensemble, bench_graph):
        # two blocks of runs so the thread pool actually has work to split
        cfg = mt.SimConfig(
            mu=1e-3, eta=1.0, n_iters=120, n_runs=engine.BLOCK_RUNS + 8, seed=5
        )
        serial = engine.monte_carlo(het_ensemble, bench_graph, cfg, jobs=1)
        threaded = engine.monte_carlo(het_ensemble, bench_graph, cfg, jobs=4)
        assert np.array_equal(serial.curve_vs_reg, threaded.curve_vs_reg)
        assert np.array_equal(
            serial.steady_msd_per_agent_vs_reg, threaded.steady_msd_per_agent_vs_reg
        )

    def test_distinct_runs_differ(self, het_ensemble, bench_graph):
        """The two-run average equals run 0 only if run 1 repeats run 0."""
        cfg = mt.SimConfig(mu=1e-3, eta=2.0, n_iters=50, seed=3)
        one = engine.monte_carlo(het_ensemble, bench_graph, cfg)
        two = engine.monte_carlo(het_ensemble, bench_graph, replace(cfg, n_runs=2))
        assert not np.array_equal(one.curve_vs_reg, two.curve_vs_reg)

    def test_seed_changes_results(self, het_ensemble, bench_graph):
        base = dict(mu=1e-3, eta=2.0, n_iters=50)
        r0 = engine.monte_carlo(het_ensemble, bench_graph, mt.SimConfig(seed=3, **base))
        r1 = engine.monte_carlo(het_ensemble, bench_graph, mt.SimConfig(seed=4, **base))
        assert not np.array_equal(r0.curve_vs_reg, r1.curve_vs_reg)

    @pytest.mark.parametrize("seed", [np.int64(3), np.uint64(3), np.int32(3)])
    def test_numpy_integer_seed_is_the_python_seed(self, het_ensemble, bench_graph, seed):
        """A numpy integer seed keys the same Philox streams as the Python int."""
        cfg = mt.SimConfig(mu=1e-3, eta=2.0, n_iters=np.int64(50), n_runs=np.int16(2), seed=seed)
        assert type(cfg.seed) is type(cfg.n_iters) is type(cfg.n_runs) is int
        got = engine.monte_carlo(het_ensemble, bench_graph, cfg)
        want = engine.monte_carlo(
            het_ensemble, bench_graph, mt.SimConfig(mu=1e-3, eta=2.0, n_iters=50, n_runs=2, seed=3)
        )
        assert np.array_equal(got.curve_vs_reg, want.curve_vs_reg)
        assert np.array_equal(got.curve_vs_target, want.curve_vs_target)


class TestResultContract:
    def test_steady_values_average_final_window(self, het_ensemble, bench_graph):
        cfg = mt.SimConfig(
            mu=1e-3, eta=1.0, n_iters=100, seed=0, steady_window_frac=0.25
        )
        res = engine.monte_carlo(het_ensemble, bench_graph, cfg)
        assert res.steady_msd_vs_reg == pytest.approx(
            res.curve_vs_reg[75:].mean(), rel=1e-12
        )
        assert res.steady_msd_vs_target == pytest.approx(
            res.curve_vs_target[75:].mean(), rel=1e-12
        )
        # per-agent window errors are the same data before the 1/N average
        assert res.steady_msd_per_agent_vs_reg.mean() == pytest.approx(
            res.steady_msd_vs_reg, rel=1e-12
        )

    def test_eta_zero_decouples_from_graph(self, line_graph):
        """With no coupling the path graph and an edgeless update coincide:
        the curve equals the average of N independent single-node recursions."""
        ens = _uniform_ensemble(5, 2)
        cfg = mt.SimConfig(mu=0.05, eta=0.0, n_iters=120, seed=8)
        res = engine.monte_carlo(ens, line_graph, cfg)
        traj = _replay(ens, line_graph, 0.05, 0.0, 120, 8, 0)
        curve = ((traj - ens.targets.blocks) ** 2).sum(axis=(1, 2)) / 5
        assert np.allclose(res.curve_vs_target, curve, rtol=1e-9, atol=1e-14)

    def test_divergence_guard_raises_with_location(self, uni_ensemble, bench_graph):
        # mean-stable (mu < 2 / lambda_max(R_u)) but mean-square divergent
        cfg = mt.SimConfig(mu=1.9, eta=0.0, n_iters=500, seed=0)
        with pytest.raises(mt.NumericalDivergence) as exc:
            engine.monte_carlo(uni_ensemble, bench_graph, cfg)
        assert exc.value.run_index == 0
        assert 0 <= exc.value.iteration < 500


class TestConfigAndStability:
    def test_default_horizon_formula(self, het_ensemble):
        lam_min = min(
            np.linalg.eigvalsh(het_ensemble.regressor_cov[k]).min() for k in range(15)
        )
        mu = 1e-3
        assert engine.default_horizon(het_ensemble, mu) == math.ceil(
            30.0 / (mu * lam_min)
        )
        cfg = mt.SimConfig(mu=mu, eta=0.0)
        assert cfg.horizon(het_ensemble) == engine.default_horizon(het_ensemble, mu)
        assert mt.SimConfig(mu=mu, eta=0.0, n_iters=77).horizon(het_ensemble) == 77

    @pytest.mark.parametrize(
        "mu, sigma_u_sq", [(1e-310, 1.0), (5e-324, 0.25)], ids=["overflow", "zero-rate"]
    )
    def test_default_horizon_overflow_refused(self, smooth_targets, bench_graph, mu, sigma_u_sq):
        """A step so small that 30 / (mu * lambda_min) overflows a float, or
        that mu * lambda_min rounds to 0, is a typed error, not a raw
        OverflowError or ZeroDivisionError."""
        ens = mt.uniform_profile(smooth_targets, sigma_u_sq=sigma_u_sq, sigma_v_sq=0.1)
        with pytest.raises(mt.InvalidArgument, match="horizon"):
            engine.default_horizon(ens, mu)
        with pytest.raises(mt.InvalidArgument, match="horizon"):
            engine.monte_carlo(ens, bench_graph, mt.SimConfig(mu=mu, eta=0.0))

    @pytest.mark.parametrize(
        "kwargs", [dict(mu=1e-6), dict(mu=1e-3, n_iters=10**7 + 1)], ids=["mu", "n_iters"]
    )
    def test_horizon_above_budget_refused(self, monkeypatch, kwargs):
        """A horizon above MAX_HORIZON, the default one of a tiny step or an
        explicit one, is refused before a block is simulated."""

        def no_block(*args):
            raise AssertionError("a block was simulated")

        monkeypatch.setattr(engine, "_run_block", no_block)
        cfg = load_config(CONFIGS / "bench15.conf")
        g = build_graph(cfg)
        ens = build_ensemble(cfg, g)
        assert engine.default_horizon(ens, 1e-6) == 37_401_535
        sim = mt.SimConfig(eta=5.0, **kwargs)
        with pytest.raises(mt.InvalidArgument) as exc:
            engine.monte_carlo(ens, g, sim)
        msg = str(exc.value)
        assert f"horizon of {sim.horizon(ens)} iterations" in msg
        assert f"mu={sim.mu:g}" in msg and f"limit of {engine.MAX_HORIZON}" in msg

    def test_window_length(self):
        cfg = mt.SimConfig(mu=0.1, eta=0.0, steady_window_frac=0.1)
        assert cfg.window_length(100) == 10
        assert cfg.window_length(3) == 1  # never empty

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(mu=0.0, eta=0.0),
            dict(mu=-1e-3, eta=0.0),
            dict(mu=1e-3, eta=-0.5),
            dict(mu=math.nan, eta=0.0),
            dict(mu=math.inf, eta=0.0),
            dict(mu=1e-3, eta=math.nan),
            dict(mu=1e-3, eta=math.inf),
            dict(mu=1e-3, eta=0.0, n_iters=-1),
            dict(mu=1e-3, eta=0.0, n_runs=0),
            dict(mu=1e-3, eta=0.0, steady_window_frac=0.0),
            dict(mu=1e-3, eta=0.0, steady_window_frac=1.5),
            dict(mu=1e-3, eta=0.0, seed=-1),
            dict(mu=1e-3, eta=0.0, seed=2**64),
            dict(mu=1e-3, eta=0.0, init=np.full(75, np.nan)),
            dict(mu=1e-3, eta=0.0, init=np.array([0.0, np.inf])),
            dict(mu=1e-3, eta=0.0, n_runs=2.5),
            dict(mu=1e-3, eta=0.0, n_iters=10.5),
            dict(mu=1e-3, eta=0.0, seed=1.5),
            dict(mu=1e-3, eta=0.0, init=np.array(["a"])),
            dict(mu=1e-3, eta=0.0, init=[1.0, None]),
            dict(mu=1e-3, eta=0.0, steady_window_frac="0.1"),
            dict(mu=1e-3, eta=0.0, seed=True),
            dict(mu=1e-3, eta=0.0, n_runs=True),
            dict(mu=1e-3, eta=0.0, n_iters=False),
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(mt.InvalidArgument):
            mt.SimConfig(**kwargs)

    def test_init_size_checked(self, het_ensemble, bench_graph):
        base = dict(mu=1e-3, eta=5.0, n_iters=10, seed=2)
        bad = mt.SimConfig(init=np.zeros(3), **base)
        with pytest.raises(mt.DimensionMismatch):
            engine.monte_carlo(het_ensemble, bench_graph, bad)
        # a flat vector of N*M values is accepted too
        flat = engine.monte_carlo(
            het_ensemble, bench_graph, mt.SimConfig(init=np.zeros(75), **base)
        )
        default = engine.monte_carlo(het_ensemble, bench_graph, mt.SimConfig(**base))
        assert np.array_equal(flat.curve_vs_reg, default.curve_vs_reg)

    def test_condition_names_and_edge_semantics(self, bench_graph):
        ens = _uniform_ensemble(15, 2)
        verdict = mt.check_stability(ens, bench_graph, 1e-3, 5.0)
        assert [c.name for c in verdict.conditions] == [
            "laplacian-spectrum",
            "neighborhood-weight",
            "local-curvature",
        ]
        assert verdict.ok
        # network bounds are inclusive...
        edge = mt.check_stability(
            ens, bench_graph, 1.0, 1.0 / bench_graph.max_degree
        )
        by_name = {c.name: c for c in edge.conditions}
        assert by_name["neighborhood-weight"].value == by_name[
            "neighborhood-weight"
        ].bound
        assert by_name["neighborhood-weight"].ok
        # ...the curvature bound is strict (R_u = I here, so the bound is 2)
        curv = mt.check_stability(ens, bench_graph, 2.0, 0.0)
        assert not {c.name: c for c in curv.conditions}["local-curvature"].ok

    def test_margin_is_negative_exactly_for_failed_conditions(self, bench_graph):
        """margin = bound - value at a stable point, at a point that fails the
        neighborhood bound alone and at one that fails all three; no point
        sits on a bound, so the failed conditions are the negative margins."""
        ens = _uniform_ensemble(15, 2)
        g = bench_graph
        between = 0.5 / g.max_degree + 1.0 / g.lambda_max  # in (1/max_deg, 2/lambda_max)
        points = {
            (1e-3, 5.0): [],
            (1.0, between): ["neighborhood-weight"],
            (3.0, 100.0): ["laplacian-spectrum", "neighborhood-weight", "local-curvature"],
        }
        for (mu, eta), failed in points.items():
            conditions = mt.check_stability(ens, g, mu, eta).conditions
            assert [c.name for c in conditions if not c.ok] == failed
            for c in conditions:
                assert c.margin == c.bound - c.value
                assert (c.margin < 0.0) == (not c.ok)

    def test_unstable_simulation_refused(self, het_ensemble, bench_graph):
        cfg = mt.SimConfig(mu=1.0, eta=10.0, n_iters=10)
        with pytest.raises(mt.UnstableConfiguration):
            engine.monte_carlo(het_ensemble, bench_graph, cfg)


def _full_cov_problem():
    """Full SPD covariances for the 5-node path, a nonzero start, a horizon
    that ends partway through its third chunk and a window opening mid-chunk."""
    rng = np.random.default_rng(17)
    n, m = 5, 3
    ens = mt.TaskEnsemble(
        targets=mt.StackedSignal.from_blocks(rng.standard_normal((n, m))),
        regressor_cov=np.stack([make_random_spd(rng, m) for _ in range(n)]),
        noise_var=rng.uniform(0.05, 0.2, size=n),
    )
    cfg = mt.SimConfig(
        mu=0.05, eta=0.0, n_iters=2 * engine.CHUNK_ITERS + 5, seed=29,
        init=rng.standard_normal((n, m)), steady_window_frac=0.3,
    )
    return ens, cfg


MANY_ETAS = (0.0, 0.5, 1.5, 4.0)


class TestMonteCarloMany:
    @pytest.mark.parametrize("jobs", [1, 2, 4])
    @pytest.mark.parametrize(
        "n_runs", [8, engine.BLOCK_RUNS, engine.BLOCK_RUNS + 3], ids=["narrow", "wide", "tail"]
    )
    def test_bitwise_equal_to_monte_carlo(self, line_graph, n_runs, jobs):
        """Each result of a shuffled set of 1 to 4 etas is bitwise the
        standalone monte_carlo of its config."""
        ens, base = _full_cov_problem()
        base = replace(base, n_runs=n_runs)
        rng = np.random.default_rng(n_runs * 10 + jobs)
        for size in range(1, len(MANY_ETAS) + 1):
            etas = [float(e) for e in rng.permutation(MANY_ETAS)[:size]]
            cfgs = [replace(base, eta=eta) for eta in etas]
            many = mt.monte_carlo_many(ens, line_graph, cfgs, jobs=jobs)
            assert len(many) == size
            for cfg, got in zip(cfgs, many):
                alone = mt.monte_carlo(ens, line_graph, cfg)
                assert got.theory.eta == cfg.eta
                assert np.array_equal(got.curve_vs_reg, alone.curve_vs_reg)
                assert np.array_equal(got.curve_vs_target, alone.curve_vs_target)
                assert np.array_equal(
                    got.steady_msd_per_agent_vs_reg, alone.steady_msd_per_agent_vs_reg
                )
                assert got.steady_msd_vs_reg == alone.steady_msd_vs_reg
                assert got.steady_msd_vs_target == alone.steady_msd_vs_target

    @pytest.mark.parametrize(
        "change",
        [
            dict(mu=0.04),
            dict(seed=30),
            dict(n_runs=2),
            dict(n_iters=50),
            dict(init=None),
            dict(init=np.zeros((5, 3))),
            dict(steady_window_frac=0.2),
        ],
        ids=["mu", "seed", "n_runs", "n_iters", "init-none", "init-values", "window"],
    )
    def test_configs_must_differ_only_in_eta(self, monkeypatch, line_graph, change):
        def no_block(*args):
            raise AssertionError("a block was simulated")

        monkeypatch.setattr(engine, "_run_block", no_block)
        ens, base = _full_cov_problem()
        other = replace(base, eta=1.0, **change)
        with pytest.raises(mt.InvalidArgument, match="only in eta"):
            mt.monte_carlo_many(ens, line_graph, [base, other])

    def test_empty_config_list_refused(self, line_graph):
        ens, _ = _full_cov_problem()
        with pytest.raises(mt.InvalidArgument):
            mt.monte_carlo_many(ens, line_graph, [])

    def test_divergence_names_its_eta_and_run(self):
        """At mu = 0.35 the uncoupled nodes diverge in mean square, while
        combining over the complete graph at eta = 0.2/mu keeps them stable;
        the error raised for the pair is the one eta = 0 raises alone."""
        ens = _uniform_ensemble(5, 5)
        g = mt.build_graph(0.2 * (np.ones((5, 5)) - np.eye(5)))
        base = mt.SimConfig(mu=0.35, eta=0.2 / 0.35, n_iters=1000, n_runs=3, seed=1)
        mt.monte_carlo(ens, g, base)  # stable on its own
        with pytest.raises(mt.NumericalDivergence) as alone:
            mt.monte_carlo(ens, g, replace(base, eta=0.0))
        with pytest.raises(mt.NumericalDivergence) as exc:
            mt.monte_carlo_many(ens, g, [base, replace(base, eta=0.0)])
        err = exc.value
        assert (err.run_index, err.iteration) == (alone.value.run_index, alone.value.iteration)
        assert f"run {err.run_index} at eta=0 " in str(err)
        assert f"iteration {err.iteration}" in str(err)


def _draw_unit(block_runs: int) -> int:
    """Iterations per draw unit of a block of block_runs runs."""
    return engine.CHUNK_ITERS * max(1, engine.BLOCK_RUNS // (2 * block_runs))


@pytest.fixture
def pools(monkeypatch):
    """Replace the engine's ThreadPoolExecutor with a subclass that records
    every pool made, the threads that ran its tasks, the peak thread count
    and how many tasks were unfinished when the pool began to shut down.
    Setting ``delay`` makes each task sleep that long before it runs."""

    class Recording(ThreadPoolExecutor):
        made: list = []
        delay = 0.0

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.futures, self.workers, self.peak_threads = [], set(), 0
            self.unfinished_at_shutdown = None
            self.lock = threading.Lock()
            self.made.append(self)

        def submit(self, fn, /, *args, **kwargs):
            def task():
                with self.lock:
                    self.workers.add(threading.get_ident())
                    self.peak_threads = max(self.peak_threads, threading.active_count())
                time.sleep(self.delay)
                return fn(*args, **kwargs)

            future = super().submit(task)
            self.futures.append(future)
            return future

        def shutdown(self, *args, **kwargs):
            if self.unfinished_at_shutdown is None:
                self.unfinished_at_shutdown = sum(not f.done() for f in self.futures)
            super().shutdown(*args, **kwargs)

    monkeypatch.setattr(engine, "ThreadPoolExecutor", Recording)
    return Recording


def _bounded(call, timeout: float = 120.0):
    """Run call on its own thread; return its value or the exception it
    raised, failing the test if it has not returned within timeout."""
    out = []

    def target():
        try:
            out.append(call())
        except Exception as exc:  # handed back to the test, which inspects it
            out.append(exc)

    runner = threading.Thread(target=target)
    runner.start()
    runner.join(timeout)
    assert not runner.is_alive(), f"the call had not returned after {timeout} s"
    return out[0]


# (runs, jobs) with one block at jobs = 2, one wide block at jobs = 4 and two
# blocks at jobs = 4: each gives every block a helper that draws ahead
DRAW_AHEAD = [(8, 2), (engine.BLOCK_RUNS, 4), (engine.BLOCK_RUNS + 8, 4)]


class TestDrawAhead:
    @pytest.mark.parametrize("n_etas", [1, 3])
    @pytest.mark.parametrize("n_runs, jobs", DRAW_AHEAD, ids=["narrow", "wide", "two-blocks"])
    def test_bitwise_equal_to_one_job(self, pools, line_graph, n_runs, jobs, n_etas):
        """A horizon of three draw units of the narrowest block, then a
        partial unit ending in a partial chunk: every array equals jobs=1."""
        ens, base = _full_cov_problem()
        narrowest = n_runs % engine.BLOCK_RUNS or engine.BLOCK_RUNS
        horizon = 3 * _draw_unit(narrowest) + engine.CHUNK_ITERS + 5
        base = replace(base, n_runs=n_runs, n_iters=horizon)
        cfgs = [replace(base, eta=eta) for eta in MANY_ETAS[:n_etas]]
        serial = mt.monte_carlo_many(ens, line_graph, cfgs, jobs=1)
        assert not pools.made
        threaded = mt.monte_carlo_many(ens, line_graph, cfgs, jobs=jobs)
        (pool,) = pools.made
        n_blocks = -(-n_runs // engine.BLOCK_RUNS)
        assert len(pool.futures) > n_blocks  # the helpers drew units
        for one, other in zip(serial, threaded):
            assert np.array_equal(one.curve_vs_reg, other.curve_vs_reg)
            assert np.array_equal(one.curve_vs_target, other.curve_vs_target)
            assert np.array_equal(
                one.steady_msd_per_agent_vs_reg, other.steady_msd_per_agent_vs_reg
            )
            assert one.steady_msd_vs_reg == other.steady_msd_vs_reg
            assert one.steady_msd_vs_target == other.steady_msd_vs_target

    @pytest.mark.parametrize("n_runs, jobs", DRAW_AHEAD, ids=["narrow", "wide", "two-blocks"])
    def test_divergence_with_a_fill_pending(self, pools, n_runs, jobs):
        """Each task waits 50 ms before it runs, so the fill of the unit after
        the diverging one is still pending when the error is raised: the
        error is jobs=1's, the call returns and its threads are gone."""
        ens = _uniform_ensemble(5, 5)
        g = mt.build_graph(0.2 * (np.ones((5, 5)) - np.eye(5)))
        cfg = mt.SimConfig(mu=0.35, eta=0.0, n_iters=1000, n_runs=n_runs, seed=1)
        with pytest.raises(mt.NumericalDivergence) as serial:
            mt.monte_carlo(ens, g, cfg)
        assert serial.value.iteration + _draw_unit(8) < cfg.n_iters  # not in the last unit
        pools.delay = 0.05
        before = threading.active_count()
        err = _bounded(lambda: mt.monte_carlo(ens, g, cfg, jobs=jobs))
        assert threading.active_count() == before
        assert isinstance(err, mt.NumericalDivergence)
        assert (err.run_index, err.iteration) == (serial.value.run_index, serial.value.iteration)
        assert str(err) == str(serial.value)
        (pool,) = pools.made
        assert pool.unfinished_at_shutdown >= 1

    @pytest.mark.parametrize("jobs", [1, 2, 3, 4])
    @pytest.mark.parametrize(
        "n_runs", [8, engine.BLOCK_RUNS, engine.BLOCK_RUNS + 8, 3 * engine.BLOCK_RUNS]
    )
    def test_never_more_threads_than_jobs(self, pools, line_graph, n_runs, jobs):
        """jobs=1 starts no thread; otherwise at most jobs threads run beside
        the caller, with or without helpers, and all are gone afterwards."""
        ens, base = _full_cov_problem()
        cfg = replace(base, n_runs=n_runs, n_iters=3 * _draw_unit(8) + 5)
        before = threading.active_count()
        _bounded(lambda: mt.monte_carlo(ens, line_graph, cfg, jobs=jobs))
        assert threading.active_count() == before
        if jobs == 1:
            assert not pools.made
            return
        (pool,) = pools.made
        assert len(pool.workers) <= jobs
        assert pool.peak_threads <= before + 1 + jobs  # with the calling thread

    def test_bitwise_under_fast_thread_switching(self, line_graph):
        """Four blocks (three wide, one narrow tail) with a helper each run
        eight threads on fewer cores; with the interpreter switching threads
        every microsecond, every array still equals jobs=1."""
        ens, base = _full_cov_problem()
        cfg = replace(base, n_runs=3 * engine.BLOCK_RUNS + 8, n_iters=3 * _draw_unit(8) + 69)
        serial = mt.monte_carlo(ens, line_graph, cfg)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = _bounded(lambda: mt.monte_carlo(ens, line_graph, cfg, jobs=8))
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(serial.curve_vs_reg, threaded.curve_vs_reg)
        assert np.array_equal(serial.curve_vs_target, threaded.curve_vs_target)
        assert np.array_equal(
            serial.steady_msd_per_agent_vs_reg, threaded.steady_msd_per_agent_vs_reg
        )
