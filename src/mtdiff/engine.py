"""Online diffusion simulation with reproducible parallel Monte Carlo.

Each iteration every node takes a stochastic-gradient step on its own data
(adapt) and then moves toward its neighbors' intermediate estimates, weighted
by the graph and the regularization strength (combine).  The engine also
advances the linearized long-term error recursion in lockstep with the same
noise so the two can be compared pathwise.  Every entry point refuses an
inadmissible (mu, eta) through the stability checks of the regularized module.

Reproducibility contract
------------------------
Every Monte Carlo run r draws from its own counter-based stream,
``Philox(key = (seed << 64) + r)``, consuming standard normals in a fixed
(iteration, node, component) order: per iteration, per node, M regressor
normals then one observation-noise normal.  Runs are simulated in fixed
blocks of ``BLOCK_RUNS`` and block partial sums are combined in block order,
so results are bitwise identical for any ``jobs`` setting and any thread
schedule.  ``sample()`` in the tasks module consumes the same layout, so a
scalar replay of a run's stream reproduces the engine's data exactly.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalDivergence
from .graphs import Graph
from .regularized import require_stable, solve_regularized
from .tasks import TaskEnsemble

#: Runs per reduction block; fixed (never derived from the worker count) so the
#: floating-point reduction order is schedule-independent.
BLOCK_RUNS = 64

#: Iterations drawn and processed per chunk; bounds memory at
#: O(BLOCK_RUNS * CHUNK_ITERS * N * (M+1)) regardless of horizon.
CHUNK_ITERS = 512

#: Per-iteration error threshold beyond which a run is declared divergent.
DIVERGENCE_GUARD = 1e12


def default_horizon(ensemble: TaskEnsemble, mu: float) -> int:
    """Iterations until the slowest error mode has decayed by e^-30."""
    lam_min = min(
        float(np.linalg.eigvalsh(ensemble.hessian(k)).min())
        for k in range(ensemble.n_agents)
    )
    return int(math.ceil(30.0 / (mu * lam_min)))


@dataclass(frozen=True)
class SimConfig:
    """Simulation parameters.

    n_iters = 0 selects the default horizon.  exact_gradient replaces the
    sampled gradients with the true ones (a noiseless debugging mode; no
    random numbers are consumed).  init is the common initial estimate for
    every node (defaults to zero).
    """

    mu: float
    eta: float
    n_iters: int = 0
    n_runs: int = 1
    seed: int = 0
    init: np.ndarray | None = None
    steady_window_frac: float = 0.1
    track_long_term: bool = False
    exact_gradient: bool = False

    def __post_init__(self):
        if self.mu <= 0.0:
            raise ValueError("mu must be positive")
        if self.eta < 0.0:
            raise ValueError("eta must be nonnegative")
        if self.n_iters < 0 or self.n_runs < 1:
            raise ValueError("n_iters must be >= 0 and n_runs >= 1")
        if not (0.0 < self.steady_window_frac <= 1.0):
            raise ValueError("steady_window_frac must lie in (0, 1]")
        if self.seed < 0 or self.seed > 0xFFFFFFFFFFFFFFFF:
            raise ValueError("seed must fit in an unsigned 64-bit integer")

    @classmethod
    def for_problem(
        cls, ensemble: TaskEnsemble, g: Graph, **kwargs
    ) -> "SimConfig":
        """Construct and verify stability against a concrete problem, so an
        inadmissible (mu, eta) fails at configuration time."""
        cfg = cls(**kwargs)
        require_stable(ensemble, g, cfg.mu, cfg.eta)
        return cfg

    def horizon(self, ensemble: TaskEnsemble) -> int:
        return self.n_iters if self.n_iters > 0 else default_horizon(ensemble, self.mu)

    def window_length(self, horizon: int) -> int:
        return max(1, int(round(self.steady_window_frac * horizon)))


@dataclass(frozen=True, eq=False)
class SimResult:
    """Monte-Carlo-averaged learning curves (linear scale, per iteration).

    curve_vs_reg[i] is the run-average of ||W0_eta - W_i||^2 / N and
    curve_vs_target the same against the unregularized targets; the steady
    values average the final window.  steady_msd_per_agent_vs_reg[k] is node
    k's window-averaged squared error against its regularized block (no 1/N),
    long_term_gap the run-averaged pathwise gap ||Werr_i - Werr'_i||^2 when
    the long-term recursion is tracked, and long_term_mean its window-averaged
    state (an estimate of the steady-state mean offset).
    """

    curve_vs_reg: np.ndarray
    curve_vs_target: np.ndarray
    steady_msd_vs_reg: float
    steady_msd_vs_target: float
    steady_msd_per_agent_vs_reg: np.ndarray
    runs_completed: int
    long_term_gap: np.ndarray | None = None
    long_term_mean: np.ndarray | None = None


@dataclass(frozen=True, eq=False)
class LongTermResult:
    """Pathwise output of the linearized long-term recursion for one run."""

    trajectory: np.ndarray  # (T, N, M) states Werr'_i
    gap: np.ndarray  # (T,) ||Werr_i - Werr'_i||^2 against the paired run
    steady_mean: np.ndarray  # (N, M) window average of the trajectory


class _Problem:
    """Precomputed constants shared by every run of one simulation."""

    def __init__(self, ensemble: TaskEnsemble, g: Graph, cfg: SimConfig):
        self.n = ensemble.n_agents
        self.m = ensemble.dim
        self.mu = cfg.mu
        self.eta = cfg.eta
        self.lap = g.laplacian
        self.chol = ensemble._chol
        self.sig_v = np.sqrt(ensemble.noise_var)
        self.covs = ensemble.regressor_cov
        self.w_tgt = ensemble.targets.blocks
        reg = solve_regularized(ensemble, g, cfg.eta)
        self.w_reg = reg.solution.blocks
        # Constant forcing term of the long-term recursion.
        self.lt_drive = (cfg.mu * cfg.eta) ** 2 * (self.lap @ (self.lap @ self.w_reg))
        if cfg.init is None:
            self.w_init = np.zeros((self.n, self.m))
        else:
            self.w_init = np.asarray(cfg.init, dtype=float).reshape(self.n, self.m)


def _run_block(
    prob: _Problem,
    cfg: SimConfig,
    runs: range,
    horizon: int,
    window_start: int,
    *,
    want_trajectory: bool = False,
):
    """Simulate a contiguous block of runs, returning per-iteration sums.

    All returned curves are sums over the block's runs (the caller divides by
    the total run count in fixed block order).
    """
    b = len(runs)
    n, m, mu, eta = prob.n, prob.m, prob.mu, prob.eta
    track = cfg.track_long_term or want_trajectory

    w = np.broadcast_to(prob.w_init, (b, n, m)).copy()
    x = (prob.w_reg[None, :, :] - w).copy() if track else None

    gens = [
        np.random.Generator(np.random.Philox(key=(cfg.seed << 64) + r)) for r in runs
    ]
    sum_reg = np.zeros(horizon)
    sum_tgt = np.zeros(horizon)
    sum_gap = np.zeros(horizon) if track else None
    agent_window = np.zeros(n)
    lt_window = np.zeros((n, m)) if track else None
    trajectory = np.empty((horizon, n, m)) if want_trajectory else None

    err_reg = np.empty((b, CHUNK_ITERS))
    err_tgt = np.empty((b, CHUNK_ITERS))
    z = None if cfg.exact_gradient else np.empty((b, CHUNK_ITERS, n, m + 1))

    for t0 in range(0, horizon, CHUNK_ITERS):
        tc = min(CHUNK_ITERS, horizon - t0)
        if not cfg.exact_gradient:
            for i, gen in enumerate(gens):
                gen.standard_normal(out=z[i, :tc])
            u = np.einsum("btnj,nij->btni", z[:, :tc, :, :m], prob.chol)
            v = z[:, :tc, :, m] * prob.sig_v
        for j in range(tc):
            if cfg.exact_gradient:
                ghat = np.einsum("nij,bnj->bni", prob.covs, w - prob.w_tgt)
                s = np.zeros_like(w) if track else None
            else:
                uj = u[:, j]
                e = np.einsum("bnm,bnm->bn", uj, prob.w_tgt - w) + v[:, j]
                ghat = -uj * e[..., None]
                if track:
                    s = ghat - np.einsum("nij,bnj->bni", prob.covs, w - prob.w_tgt)
            psi = w - mu * ghat
            w = psi - (mu * eta) * np.matmul(prob.lap, psi) if eta else psi

            d_reg = w - prob.w_reg
            d_tgt = w - prob.w_tgt
            err_reg[:, j] = np.einsum("bnm,bnm->b", d_reg, d_reg) / n
            err_tgt[:, j] = np.einsum("bnm,bnm->b", d_tgt, d_tgt) / n

            if track:
                y = x - mu * np.einsum("nij,bnj->bni", prob.covs, x) + mu * s
                x = (y - (mu * eta) * np.matmul(prob.lap, y) if eta else y) + prob.lt_drive
                diff = (prob.w_reg - w) - x
                sum_gap[t0 + j] = float(np.einsum("bnm,bnm->", diff, diff))
                if t0 + j >= window_start:
                    lt_window += x.sum(axis=0)
            if want_trajectory:
                trajectory[t0 + j] = x[0]
            if t0 + j >= window_start:
                agent_window += np.einsum("bnm,bnm->n", d_reg, d_reg)

        chunk_reg = err_reg[:, :tc]
        if not np.all(chunk_reg <= DIVERGENCE_GUARD):
            bad = ~(chunk_reg <= DIVERGENCE_GUARD)
            j_idx, b_idx = np.argwhere(bad.T)[0]  # earliest iteration first
            raise NumericalDivergence(
                f"run {runs[b_idx]} exceeded the divergence guard "
                f"({DIVERGENCE_GUARD:g}) at iteration {t0 + j_idx}",
                run_index=int(runs[b_idx]),
                iteration=int(t0 + j_idx),
            )
        sum_reg[t0 : t0 + tc] += chunk_reg.sum(axis=0)
        sum_tgt[t0 : t0 + tc] += err_tgt[:, :tc].sum(axis=0)

    return sum_reg, sum_tgt, sum_gap, agent_window, lt_window, trajectory


def _combine_blocks(
    prob: _Problem, cfg: SimConfig, horizon: int, window_start: int, partials
) -> SimResult:
    n_runs = cfg.n_runs
    window_len = horizon - window_start
    sum_reg = np.zeros(horizon)
    sum_tgt = np.zeros(horizon)
    sum_gap = np.zeros(horizon) if cfg.track_long_term else None
    agent_window = np.zeros(prob.n)
    lt_window = np.zeros((prob.n, prob.m)) if cfg.track_long_term else None
    for part in partials:  # fixed block order
        sum_reg += part[0]
        sum_tgt += part[1]
        if cfg.track_long_term:
            sum_gap += part[2]
            lt_window += part[4]
        agent_window += part[3]
    curve_reg = sum_reg / n_runs
    curve_tgt = sum_tgt / n_runs
    denom = n_runs * window_len
    return SimResult(
        curve_vs_reg=curve_reg,
        curve_vs_target=curve_tgt,
        steady_msd_vs_reg=float(curve_reg[window_start:].mean()),
        steady_msd_vs_target=float(curve_tgt[window_start:].mean()),
        steady_msd_per_agent_vs_reg=agent_window / denom,
        runs_completed=n_runs,
        long_term_gap=(sum_gap / n_runs) if cfg.track_long_term else None,
        long_term_mean=(lt_window / denom) if cfg.track_long_term else None,
    )


def run_single(
    ensemble: TaskEnsemble, g: Graph, cfg: SimConfig, run_index: int = 0
) -> SimResult:
    """Simulate one run and return its (unaveraged) error trajectories."""
    require_stable(ensemble, g, cfg.mu, cfg.eta)
    if run_index < 0:
        raise ValueError("run_index must be nonnegative")
    prob = _Problem(ensemble, g, cfg)
    horizon = cfg.horizon(ensemble)
    window_start = horizon - cfg.window_length(horizon)
    single_cfg = cfg if cfg.n_runs == 1 else SimConfig(
        **{**cfg.__dict__, "n_runs": 1}
    )
    part = _run_block(
        prob, single_cfg, range(run_index, run_index + 1), horizon, window_start
    )
    return _combine_blocks(prob, single_cfg, horizon, window_start, [part])


def run_long_term(
    ensemble: TaskEnsemble, g: Graph, cfg: SimConfig, run_index: int = 0
) -> LongTermResult:
    """Advance the linearized long-term recursion for one run.

    The recursion is driven by the gradient noise of the *paired* adaptive
    run, which is reproduced here by replaying the identical per-run stream
    (nothing is cached between the two paths; memory stays O(1) in the
    horizon).  Werr'_0 starts at the true initial error, so for the built-in
    quadratic costs the pathwise gap is pure floating-point noise.
    """
    require_stable(ensemble, g, cfg.mu, cfg.eta)
    prob = _Problem(ensemble, g, cfg)
    horizon = cfg.horizon(ensemble)
    window_start = horizon - cfg.window_length(horizon)
    part = _run_block(
        prob,
        cfg,
        range(run_index, run_index + 1),
        horizon,
        window_start,
        want_trajectory=True,
    )
    _, _, sum_gap, _, _, trajectory = part
    return LongTermResult(
        trajectory=trajectory,
        gap=sum_gap,
        steady_mean=trajectory[window_start:].mean(axis=0),
    )


def monte_carlo(
    ensemble: TaskEnsemble, g: Graph, cfg: SimConfig, *, jobs: int = 1
) -> SimResult:
    """Average cfg.n_runs independent runs into one SimResult.

    Runs are partitioned into fixed blocks of BLOCK_RUNS; blocks may execute
    on a thread pool (jobs > 1) but partial sums are always combined in block
    order, so the result is a pure function of (ensemble, g, cfg).
    """
    require_stable(ensemble, g, cfg.mu, cfg.eta)
    prob = _Problem(ensemble, g, cfg)
    horizon = cfg.horizon(ensemble)
    window_start = horizon - cfg.window_length(horizon)
    blocks = [
        range(lo, min(lo + BLOCK_RUNS, cfg.n_runs))
        for lo in range(0, cfg.n_runs, BLOCK_RUNS)
    ]
    if jobs <= 1 or len(blocks) == 1:
        partials = [
            _run_block(prob, cfg, blk, horizon, window_start) for blk in blocks
        ]
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            futures = [
                pool.submit(_run_block, prob, cfg, blk, horizon, window_start)
                for blk in blocks
            ]
            partials = [f.result() for f in futures]
    return _combine_blocks(prob, cfg, horizon, window_start, partials)
