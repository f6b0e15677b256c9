"""Online diffusion simulation with reproducible parallel Monte Carlo.

Each iteration every node takes a stochastic-gradient step on its own data
(adapt) and then moves toward its neighbors' intermediate estimates, weighted
by the graph and the regularization strength (combine).  The one engine
entry, ``monte_carlo_many``, simulates one set of runs at several etas that
share every other setting; ``monte_carlo`` is its one-config case.  Each
(mu, eta) point is read from one ``theory_report``: that call refuses an
inadmissible point, solves the offset W0_eta the error curves are measured
against, and comes back as ``SimResult.theory``.

State layout
------------
A block of runs is simulated in the error coordinates X = W_tgt - W, stored
eta-major and node-major with the runs last, shape (E, N, M, runs) for E
etas.  One iteration is

    X <- A (X - mu u (u.X + v)) + c,    A = I - mu*eta*L,  c = mu*eta*L W_tgt,

so the combine step is a single batched (E, N, N) @ (E, N, M*runs) product
with A and c computed once per block of runs.  Each chunk of CHUNK_ITERS
iterations reads its normals once for all etas (the etas see common random
numbers), maps them to regressors with one batched Cholesky product, and
keeps its states so the error curves and window sums are reduced once per
chunk.  Each eta's slice sees exactly the arithmetic of a one-eta run, so
its result does not depend on the other etas.

The normals are drawn a unit at a time, and the chunks are views into the
unit.  For a block of b runs a unit is CHUNK_ITERS * max(1, BLOCK_RUNS //
(2b)) iterations: 256 at b = 8 and 64 at b = 64.  A block's buffers do not
grow with the horizon.  Its draw buffer holds b * unit * N * (M+1) floats
and is shared by the etas; a block whose helper draws ahead has two.  For
b <= 32 the two hold BLOCK_RUNS * CHUNK_ITERS * N * (M+1) floats together,
about 3 MB at N=15, M=5.  Two state buffers hold E times b * CHUNK_ITERS *
N * M floats each (about 2.5 MB per eta at b = 64).  Only the block's 2E
per-iteration float64 curves grow with the horizon, and MAX_HORIZON,
checked on the configs' shared horizon, caps them at 160 MB per eta.

Reproducibility contract
------------------------
Every Monte Carlo run r draws from its own counter-based stream,
``Philox(key = (seed << 64) + r)``, consuming standard normals in a fixed
(iteration, node, component) order: per iteration, per node, M regressor
normals then one observation-noise normal.  One thread at a time fills a
run's stream, in iteration order, whether that is the block's own thread or
its helper, and a standard-normal stream gives the same numbers however its
iterations are split into calls.  Runs are simulated in fixed blocks of
``BLOCK_RUNS`` and block partial sums are combined in block order, so
results are bitwise identical for any ``jobs`` setting and any thread
schedule.  The test suite's scalar replay oracle (``sample()`` in
``tests/helpers.py``) consumes the same layout, so a replay of a run's stream
reproduces the engine's data exactly.
"""

from __future__ import annotations

import math
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from functools import partial, reduce
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, InvalidArgument, NumericalDivergence
from .graphs import Graph
from .tasks import TaskEnsemble
from .theory import TheoryReport, check_inputs, theory_report

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
    """Iterations until the slowest error mode has decayed by e^-30.

    Raises InvalidArgument when that count overflows a float (mu * lambda_min
    subnormal or zero)."""
    rate = mu * float(ensemble.regressor_eigvals.min())
    if not (rate > 0.0 and math.isfinite(30.0 / rate)):
        raise InvalidArgument(f"the default horizon at mu={mu:g} is not finite")
    return int(math.ceil(30.0 / rate))


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
        check_inputs(None, None, self.mu, self.eta)
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


def _run_block(
    ensemble: TaskEnsemble, g: Graph, cfg: SimConfig, reports: list[TheoryReport],
    horizon: int, window_start: int, runs: range, helper: ThreadPoolExecutor | None = None,
):
    """Simulate a contiguous block of runs at every eta, returning sums.

    The etas share the block's draws.  The block builds its constants in the
    error coordinates, one slice per eta: comb is A = I - mu*eta*L, (E, N, N),
    and the drive c = mu*eta*L W_tgt, the offset W_tgt - W0_eta and the
    initial error are (E, N, M).  Those three are repeated along a trailing
    run axis, because the per-iteration x += drive and the per-chunk window
    deviation ran slower on broadcast operands than on contiguous copies.
    Given a helper executor, the block draws its next unit of normals on it,
    into a second buffer, while it computes on the current one; without
    one, it draws each unit itself just before using it.  All returned
    arrays are sums over the block's runs, one row per eta: two (E, horizon)
    curves and the (E, N) window sums per node (the caller divides by the
    total run count in fixed block order).
    """
    b = len(runs)
    n_eta = len(reports)
    n, m, mu = ensemble.n_agents, ensemble.dim, cfg.mu
    chunk = min(CHUNK_ITERS, horizon)
    w_tgt = ensemble.targets.blocks
    scaled = np.array([mu * r.eta for r in reports])[:, None, None]
    comb = np.eye(n) - scaled * g.laplacian
    init = 0.0 if cfg.init is None else np.reshape(cfg.init, w_tgt.shape)
    sig_v = np.sqrt(ensemble.noise_var)

    def per_run(a):
        return np.repeat(a[..., None], b, axis=-1)

    drive = per_run(scaled * (g.laplacian @ w_tgt))
    offset = per_run(w_tgt - np.stack([r.solution.blocks for r in reports]))
    x = per_run(np.broadcast_to(w_tgt - init, (n_eta, n, m)))

    gens = [
        np.random.Generator(np.random.Philox(key=(cfg.seed << 64) + r)) for r in runs
    ]
    # a whole number of chunks per unit: the chunk edges set the window sums'
    # rounding, so they must not move with the unit
    unit = min(CHUNK_ITERS * max(1, BLOCK_RUNS // (2 * b)), horizon)
    draws = [np.empty((b, unit, n, m + 1)) for _ in range(1 if helper is None else 2)]

    def fill(t0):
        z = draws[t0 // unit % len(draws)]
        for i, gen in enumerate(gens):
            gen.standard_normal(out=z[i, : min(unit, horizon - t0)])

    def start(t0):
        """The wait for the unit at t0: the helper's fill, or the fill itself."""
        return partial(fill, t0) if helper is None else helper.submit(fill, t0).result

    sum_reg = np.zeros((n_eta, horizon))
    sum_tgt = np.zeros((n_eta, horizon))
    agent_window = np.zeros((n_eta, n))
    u = np.empty((chunk, n, m, b))
    v = np.empty((chunk, 1, n, b))  # eta axis of 1: e += v[j] needs no broadcast at E=1
    states = np.empty((chunk, n_eta, n, m, b))
    dev = np.empty((chunk, n_eta, n, m, b))
    step = np.empty((n_eta, n, m, b))
    gain = np.empty((n_eta, n, 1, b))  # mu (u.X + v), broadcast over M
    e = gain[:, :, 0]
    # the combine product's (N, M*runs) views, made once
    step_flat = step.reshape(n_eta, n, m * b)
    states_flat = states.reshape(chunk, n_eta, n, m * b)

    ready = start(0)
    for t0 in range(0, horizon, chunk):
        tc = min(chunk, horizon - t0)
        k, j0 = divmod(t0, unit)
        if j0 == 0:
            ready()
            if t0 + unit < horizon:
                ready = start(t0 + unit)
        z = draws[k % len(draws)][:, j0 : j0 + tc]
        np.matmul(ensemble._chol, z[..., :m].transpose(1, 2, 3, 0), out=u[:tc])
        np.multiply(z[..., m].transpose(1, 2, 0), sig_v[:, None], out=v[:tc, 0])
        for j in range(tc):
            # step = mu * gradient = mu u (u.X + v); then X <- A (X - step) + c
            np.einsum("nmb,enmb->enb", u[j], x, out=e)
            e += v[j]
            e *= mu
            np.multiply(u[j], gain, out=step)
            np.subtract(x, step, out=step)
            np.matmul(comb, step_flat, out=states_flat[j])
            x = states[j]
            x += drive

        s = states[:tc]
        w0 = max(0, window_start - t0)
        d = np.subtract(s, offset, out=dev[:tc])
        err_reg = np.einsum("tenmb,tenmb->teb", d, d) / n
        if not np.all(err_reg <= DIVERGENCE_GUARD):
            j_idx, e_idx, b_idx = np.argwhere(~(err_reg <= DIVERGENCE_GUARD))[0]
            raise NumericalDivergence(
                f"run {runs[b_idx]} at eta={reports[e_idx].eta:g} exceeded the divergence "
                f"guard ({DIVERGENCE_GUARD:g}) at iteration {t0 + j_idx}",
                run_index=int(runs[b_idx]),
                iteration=int(t0 + j_idx),
            )
        sum_reg[:, t0 : t0 + tc] += err_reg.sum(axis=2).T
        sum_tgt[:, t0 : t0 + tc] += np.einsum("tenmb,tenmb->et", s, s) / n
        agent_window += np.einsum("tenmb,tenmb->en", d[w0:], d[w0:])

    return sum_reg, sum_tgt, agent_window


def _check_shared(cfgs: tuple[SimConfig, ...]) -> SimConfig:
    """The first config, once every config agrees with it in all but eta."""
    if not cfgs:
        raise InvalidArgument("monte_carlo_many needs at least one config")
    base = cfgs[0]
    for cfg in cfgs[1:]:
        for name in (f.name for f in fields(SimConfig) if f.name != "eta"):
            if not np.array_equal(getattr(cfg, name), getattr(base, name)):
                raise InvalidArgument(
                    f"monte_carlo_many configs must differ only in eta; their {name} differ"
                )
    return base


def monte_carlo_many(
    ensemble: TaskEnsemble, g: Graph, cfgs: Sequence[SimConfig], *, jobs: int = 1
) -> tuple[SimResult, ...]:
    """Simulate one set of runs at several etas, one SimResult per config.

    The configs must agree in every field but eta (else InvalidArgument).
    Every run's draws are made once and advance its state at each eta, so the
    etas see common random numbers, and each result is bitwise the one
    monte_carlo returns for its config alone.  Runs are partitioned into
    fixed blocks of BLOCK_RUNS; blocks may execute on a thread pool
    (jobs > 1) but partial sums are always combined in block order, so the
    results are a pure function of (ensemble, g, cfg) whatever jobs is.
    When jobs is at least twice the block count, each block also has a
    helper thread that draws its next unit of normals while the block
    computes on the current one; no call runs more than jobs threads.  A
    horizon above MAX_HORIZON raises InvalidArgument.
    """
    cfgs = tuple(cfgs)
    cfg = _check_shared(cfgs)
    horizon = cfg.horizon(ensemble)
    if horizon > MAX_HORIZON:
        raise InvalidArgument(
            f"horizon of {horizon} iterations at mu={cfg.mu:g} exceeds the limit "
            f"of {MAX_HORIZON} iterations"
        )
    reports = [theory_report(ensemble, g, c.mu, c.eta) for c in cfgs]
    size = ensemble.targets.values.size
    if cfg.init is not None and np.size(cfg.init) != size:
        raise DimensionMismatch(f"init must have {size} entries, got {np.size(cfg.init)}")
    window_start = horizon - cfg.window_length(horizon)
    blocks = [
        range(lo, min(lo + BLOCK_RUNS, cfg.n_runs))
        for lo in range(0, cfg.n_runs, BLOCK_RUNS)
    ]
    block = partial(_run_block, ensemble, g, cfg, reports, horizon, window_start)
    if jobs <= 1:
        partials = list(map(block, blocks))
    else:
        # B blocks and at most one pending fill each fit in 2B <= jobs workers,
        # so a block never waits for a fill that waits for a worker
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            helper = pool if jobs >= 2 * len(blocks) else None
            partials = list(pool.map(partial(block, helper=helper), blocks))
    # summed in fixed block order
    sum_reg, sum_tgt, agent_window = (reduce(np.add, p) for p in zip(*partials))
    curve_reg = sum_reg / cfg.n_runs
    curve_tgt = sum_tgt / cfg.n_runs
    per_agent = agent_window / (cfg.n_runs * (horizon - window_start))
    return tuple(
        SimResult(
            curve_vs_reg=curve_reg[i],
            curve_vs_target=curve_tgt[i],
            steady_msd_vs_reg=float(curve_reg[i, window_start:].mean()),
            steady_msd_vs_target=float(curve_tgt[i, window_start:].mean()),
            steady_msd_per_agent_vs_reg=per_agent[i],
            theory=report,
        )
        for i, report in enumerate(reports)
    )


def monte_carlo(
    ensemble: TaskEnsemble, g: Graph, cfg: SimConfig, *, jobs: int = 1
) -> SimResult:
    """Average cfg.n_runs independent runs into one SimResult: the
    one-config case of monte_carlo_many."""
    return monte_carlo_many(ensemble, g, (cfg,), jobs=jobs)[0]
