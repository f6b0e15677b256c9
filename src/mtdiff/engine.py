"""Online diffusion simulation with reproducible parallel Monte Carlo.

Each iteration every node takes a stochastic-gradient step on its own data
(adapt) and then moves toward its neighbors' intermediate estimates, weighted
by the graph and the regularization strength (combine).  The one entry point,
``monte_carlo``, reads its (mu, eta) point from one ``theory_report``: that
call refuses an inadmissible point, solves the offset W0_eta the error curves
are measured against, and comes back as ``SimResult.theory``.

State layout
------------
A block of runs is simulated in the error coordinates X = W_tgt - W, stored
node-major with the runs last, shape (N, M, runs).  One iteration is

    X <- A (X - mu u (u.X + v)) + c,    A = I - mu*eta*L,  c = mu*eta*L W_tgt,

so the combine step is a single (N x N) @ (N, M*runs) product with A and c
computed once per simulation.  Each chunk of CHUNK_ITERS iterations draws its
normals, maps them to regressors with one batched Cholesky product, and keeps
its states so the error curves and window sums are reduced once per chunk.
A block's chunk buffers are a few arrays of at most
BLOCK_RUNS * CHUNK_ITERS * N * (M+1) floats (about 3 MB each at N=15, M=5)
whatever the horizon; only the block's two per-iteration float64 curves grow
with it, and MAX_HORIZON caps them at 160 MB.

Reproducibility contract
------------------------
Every Monte Carlo run r draws from its own counter-based stream,
``Philox(key = (seed << 64) + r)``, consuming standard normals in a fixed
(iteration, node, component) order: per iteration, per node, M regressor
normals then one observation-noise normal.  Runs are simulated in fixed
blocks of ``BLOCK_RUNS`` and block partial sums are combined in block order,
so results are bitwise identical for any ``jobs`` setting and any thread
schedule.  The test suite's scalar replay oracle (``sample()`` in
``tests/helpers.py``) consumes the same layout, so a replay of a run's stream
reproduces the engine's data exactly.
"""

from __future__ import annotations

import math
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidArgument, NumericalDivergence
from .graphs import Graph
from .tasks import TaskEnsemble
from .theory import TheoryReport, theory_report

#: Runs per reduction block; fixed (never derived from the worker count) so the
#: floating-point reduction order is schedule-independent.
BLOCK_RUNS = 64

#: Iterations drawn and processed per chunk.  Small enough that a block's
#: chunk buffers stay near the cache; 32 to 128 ran equally fast.
CHUNK_ITERS = 64

#: Per-iteration error threshold beyond which a run is declared divergent.
DIVERGENCE_GUARD = 1e12

#: Largest horizon monte_carlo accepts, checked before it allocates anything.
MAX_HORIZON = 10**7


def default_horizon(ensemble: TaskEnsemble, mu: float) -> int:
    """Iterations until the slowest error mode has decayed by e^-30."""
    lam_min = float(ensemble.regressor_eigvals.min())
    return int(math.ceil(30.0 / (mu * lam_min)))


@dataclass(frozen=True)
class SimConfig:
    """Simulation parameters.

    n_iters = 0 selects the default horizon.  init is the initial estimate,
    N*M values in node order (defaults to zero).
    """

    mu: float
    eta: float
    n_iters: int = 0
    n_runs: int = 1
    seed: int = 0
    init: np.ndarray | None = None
    steady_window_frac: float = 0.1

    def __post_init__(self):
        if not (math.isfinite(self.mu) and self.mu > 0.0):
            raise InvalidArgument("mu must be finite and positive")
        if not (math.isfinite(self.eta) and self.eta >= 0.0):
            raise InvalidArgument("eta must be finite and nonnegative")
        for name in ("n_iters", "n_runs", "seed"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise InvalidArgument(f"{name} must be an integer")
        if self.n_iters < 0 or self.n_runs < 1:
            raise InvalidArgument("n_iters must be >= 0 and n_runs >= 1")
        if not (0.0 < self.steady_window_frac <= 1.0):
            raise InvalidArgument("steady_window_frac must lie in (0, 1]")
        if self.seed < 0 or self.seed > 0xFFFFFFFFFFFFFFFF:
            raise InvalidArgument("seed must fit in an unsigned 64-bit integer")
        if self.init is not None and not np.all(np.isfinite(self.init)):
            raise InvalidArgument("init must be finite")

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
    k's window-averaged squared error against its regularized block (no 1/N).
    theory is the closed-form report at the simulated (mu, eta).
    """

    curve_vs_reg: np.ndarray
    curve_vs_target: np.ndarray
    steady_msd_vs_reg: float
    steady_msd_vs_target: float
    steady_msd_per_agent_vs_reg: np.ndarray
    theory: TheoryReport


class _Problem:
    """Precomputed constants shared by every run of one simulation.

    They live in the error coordinates X = W_tgt - W: comb is
    A = I - mu*eta*L, drive is c = mu*eta*L W_tgt, offset is W_tgt - W0_eta
    and x_init is the initial error; _run_block repeats the last three,
    (N, M) each, along a trailing run axis.
    """

    def __init__(
        self, ensemble: TaskEnsemble, g: Graph, cfg: SimConfig, w_reg: np.ndarray
    ):
        n = ensemble.n_agents
        mu, eta = cfg.mu, cfg.eta
        w_tgt = ensemble.targets.blocks
        if cfg.init is not None and np.size(cfg.init) != w_tgt.size:
            raise DimensionMismatch(
                f"init must have {w_tgt.size} entries, got {np.size(cfg.init)}"
            )
        self.n = n
        self.m = ensemble.dim
        self.mu = mu
        self.chol = ensemble._chol
        self.sig_v = np.sqrt(ensemble.noise_var)
        self.comb = np.eye(n) - (mu * eta) * g.laplacian
        self.drive = (mu * eta) * (g.laplacian @ w_tgt)
        self.offset = w_tgt - w_reg
        init = 0.0 if cfg.init is None else np.reshape(cfg.init, w_tgt.shape)
        self.x_init = w_tgt - init


def _run_block(
    prob: _Problem, cfg: SimConfig, runs: range, horizon: int, window_start: int
):
    """Simulate a contiguous block of runs, returning per-iteration sums.

    All returned curves are sums over the block's runs (the caller divides by
    the total run count in fixed block order).
    """
    b = len(runs)
    n, m, mu = prob.n, prob.m, prob.mu
    chunk = min(CHUNK_ITERS, horizon)

    gens = [
        np.random.Generator(np.random.Philox(key=(cfg.seed << 64) + r)) for r in runs
    ]
    sum_reg = np.zeros(horizon)
    sum_tgt = np.zeros(horizon)
    agent_window = np.zeros(n)

    def per_run(a):
        return np.repeat(a[:, :, None], b, axis=2)

    drive, offset = per_run(prob.drive), per_run(prob.offset)
    x = per_run(prob.x_init)
    z = np.empty((b, chunk, n, m + 1))
    u = np.empty((chunk, n, m, b))
    v = np.empty((chunk, n, b))
    states = np.empty((chunk, n, m, b))
    dev = np.empty((chunk, n, m, b))
    step = np.empty((n, m, b))

    for t0 in range(0, horizon, chunk):
        tc = min(chunk, horizon - t0)
        for i, gen in enumerate(gens):
            gen.standard_normal(out=z[i, :tc])
        np.matmul(prob.chol, z[:, :tc, :, :m].transpose(1, 2, 3, 0), out=u[:tc])
        np.multiply(z[:, :tc, :, m].transpose(1, 2, 0), prob.sig_v[:, None], out=v[:tc])
        for j in range(tc):
            # step = mu * gradient = mu u (u.X + v); then X <- A (X - step) + c
            e = np.einsum("nmb,nmb->nb", u[j], x)
            e += v[j]
            e *= mu
            np.multiply(u[j], e[:, None, :], out=step)
            np.subtract(x, step, out=step)
            x = states[j]
            np.matmul(prob.comb, step.reshape(n, m * b), out=x.reshape(n, m * b))
            x += drive

        s = states[:tc]
        w0 = max(0, window_start - t0)
        d = np.subtract(s, offset, out=dev[:tc])
        err_reg = np.einsum("tnmb,tnmb->tb", d, d) / n
        if not np.all(err_reg <= DIVERGENCE_GUARD):
            j_idx, b_idx = np.argwhere(~(err_reg <= DIVERGENCE_GUARD))[0]
            raise NumericalDivergence(
                f"run {runs[b_idx]} exceeded the divergence guard "
                f"({DIVERGENCE_GUARD:g}) at iteration {t0 + j_idx}",
                run_index=int(runs[b_idx]),
                iteration=int(t0 + j_idx),
            )
        sum_reg[t0 : t0 + tc] += err_reg.sum(axis=1)
        sum_tgt[t0 : t0 + tc] += np.einsum("tnmb,tnmb->t", s, s) / n
        agent_window += np.einsum("tnmb,tnmb->n", d[w0:], d[w0:])

    return sum_reg, sum_tgt, agent_window


def monte_carlo(
    ensemble: TaskEnsemble, g: Graph, cfg: SimConfig, *, jobs: int = 1
) -> SimResult:
    """Average cfg.n_runs independent runs into one SimResult.

    Runs are partitioned into fixed blocks of BLOCK_RUNS; blocks may execute
    on a thread pool (jobs > 1) but partial sums are always combined in block
    order, so the result is a pure function of (ensemble, g, cfg).  A horizon
    above MAX_HORIZON raises InvalidArgument.
    """
    horizon = cfg.horizon(ensemble)
    if horizon > MAX_HORIZON:
        raise InvalidArgument(
            f"horizon of {horizon} iterations at mu={cfg.mu:g} exceeds the limit "
            f"of {MAX_HORIZON} iterations"
        )
    report = theory_report(ensemble, g, cfg.mu, cfg.eta)
    prob = _Problem(ensemble, g, cfg, report.solution.blocks)
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
    sum_reg, sum_tgt, agent_window = partials[0]
    for part in partials[1:]:  # fixed block order
        sum_reg += part[0]
        sum_tgt += part[1]
        agent_window += part[2]
    curve_reg = sum_reg / cfg.n_runs
    curve_tgt = sum_tgt / cfg.n_runs
    return SimResult(
        curve_vs_reg=curve_reg,
        curve_vs_target=curve_tgt,
        steady_msd_vs_reg=float(curve_reg[window_start:].mean()),
        steady_msd_vs_target=float(curve_tgt[window_start:].mean()),
        steady_msd_per_agent_vs_reg=agent_window / (cfg.n_runs * (horizon - window_start)),
        theory=report,
    )
