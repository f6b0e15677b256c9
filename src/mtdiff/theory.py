"""Closed-form steady-state error predictions for the diffusion recursion.

The small-step theory predicts the network's steady mean-square deviation one
graph frequency at a time: frequency m contributes a trace of an M x M solve
whose curvature side stiffens with eta * lambda_m while its noise side carries
the (eta-dependent) gradient-noise covariances.  On top of the per-frequency
predictor sit the non-cooperative baseline, the deviation measured against the
unregularized targets (which adds the solution mismatch and a bias cross
term), and a grid optimizer for the penalty strength.

The per-node and per-frequency terms are batched over all nodes and
frequencies for every covariance profile: one stacked formula gives the
gradient-noise covariances, and each predictor is one stacked M x M solve plus
a trace.  The regularized solution and the bias come from the regularized
module, which groups the components once per point and solves each system as
one stack over those groups: one N x N system with M right-hand sides when
the covariances are isotropic, M N x N systems for other diagonal ones, one
(NM) x (NM) system otherwise.  theory_report is the one entry point for a
(mu, eta) point: it checks stability, solves W0_eta and computes the bias
once, and its report carries all three.  optimize_eta evaluates it over a
grid, and the engine's monte_carlo runs against it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument
from .graphs import Graph, StackedSignal
from .regularized import (
    RegularizedSolution,
    _long_term_bias,
    require_stable,
    solve_regularized,
)
from .tasks import TaskEnsemble


@dataclass(frozen=True, eq=False)
class TheoryReport:
    """Closed-form steady-state predictions at one (mu, eta) point.

    msd_total is the deviation against the regularized solution, the
    per-frequency sum; msd_per_frequency its summands (length N, ordered like
    the graph eigenvalues).  msd_bar is the deviation against the
    unregularized targets: msd_total + mismatch_sq / N + bias_cross_term, with
    mismatch_sq the raw squared norm ||W0_eta - W0||^2 and the cross term
    between the mismatch and the steady-state mean offset.  Large penalties
    can push msd_bar above msd_noncoop when the targets are not smooth.
    solution is W0_eta; bias_vector is the offset E[W0_eta - W_inf] (length
    NM, node order) and bias_sq_norm its squared norm.
    """

    mu: float
    eta: float
    msd_total: float
    msd_per_frequency: np.ndarray
    msd_noncoop: float
    msd_bar: float
    mismatch_sq: float
    bias_cross_term: float
    solution: StackedSignal
    bias_vector: np.ndarray
    bias_sq_norm: float


def _noise_covariances(ensemble: TaskEnsemble, reg: RegularizedSolution) -> np.ndarray:
    """Limiting gradient-noise covariance of every node, as an (N, M, M) stack.

    For Gaussian regressors node k's covariance is R W R + R * Tr(R W) +
    sigma_v^2 R, where W = d d' for the node's regularized-vs-own-target
    mismatch d, so R W R = (R d)(R d)' and Tr(R W) = d' R d.  At eta = 0 the
    mismatch vanishes and only the sigma_v^2 R floor remains.
    """
    covs = ensemble.regressor_cov
    delta = ensemble.targets.blocks - reg.solution.blocks
    r_delta = np.einsum("kij,kj->ki", covs, delta)
    scale = np.einsum("ki,ki->k", delta, r_delta) + ensemble.noise_var
    return r_delta[:, :, None] * r_delta[:, None, :] + scale[:, None, None] * covs


def _frequency_weighted(g: Graph, stack: np.ndarray) -> np.ndarray:
    """Per-frequency mixtures sum_k v_m(k)^2 X_k of an (N, M, M) node stack."""
    n, m = stack.shape[:2]
    return ((g.eigenvectors**2).T @ stack.reshape(n, m * m)).reshape(n, m, m)


def _trace_solve(mu: float, curvature: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """mu/(2N) * Tr(curvature_m^{-1} noise_m) for each of the N stacked pairs."""
    n = curvature.shape[0]
    return mu / (2.0 * n) * np.trace(np.linalg.solve(curvature, noise), axis1=1, axis2=2)


def _per_frequency_terms(
    ensemble: TaskEnsemble, g: Graph, mu: float, reg: RegularizedSolution
) -> np.ndarray:
    """Summands of the steady-state predictor, one per graph frequency."""
    noise = _frequency_weighted(g, _noise_covariances(ensemble, reg))
    shift = reg.eta * g.eigenvalues[:, None, None] * np.eye(ensemble.dim)
    curvature = _frequency_weighted(g, ensemble.regressor_cov) + shift
    return _trace_solve(mu, curvature, noise)


def msd_noncoop(ensemble: TaskEnsemble, mu: float) -> float:
    """Steady-state deviation when every node adapts alone (no combine step).

    Each node contributes mu/2 * Tr(H_k^{-1} R_{s,k}) evaluated at its own
    target, which for the built-in quadratic model (R_{s,k} = sigma_v,k^2 H_k)
    is mu * M * sigma_v,k^2 / 2; the network value is their mean.
    """
    return mu * ensemble.dim * float(ensemble.noise_var.mean()) / 2.0


def theory_report(ensemble: TaskEnsemble, g: Graph, mu: float, eta: float) -> TheoryReport:
    """Steady-state predictions at one (mu, eta) point.

    Checks the step-size conditions once (raising UnstableConfiguration when
    any fails) and solves the regularized problem once; every field of the
    report reads that one solution, and the bias solve reuses its grouping of
    the covariances.
    """
    require_stable(ensemble, g, mu, eta)
    reg = solve_regularized(ensemble, g, eta)
    terms = _per_frequency_terms(ensemble, g, mu, reg)
    msd_total = float(terms.sum())
    bias = _long_term_bias(ensemble, g, mu, reg)
    n = ensemble.n_agents
    mismatch = ensemble.targets.values - reg.solution.values
    cross = 2.0 / n * float(mismatch @ bias)
    return TheoryReport(
        mu=float(mu),
        eta=float(eta),
        msd_total=msd_total,
        msd_per_frequency=terms,
        msd_noncoop=msd_noncoop(ensemble, mu),
        msd_bar=msd_total + reg.mismatch_sq / n + cross,
        mismatch_sq=reg.mismatch_sq,
        bias_cross_term=cross,
        solution=reg.solution,
        bias_vector=bias,
        bias_sq_norm=float(bias @ bias),
    )


@dataclass(frozen=True, eq=False)
class EtaSweep:
    """Grid-search result for the penalty strength, with every grid point's report."""

    eta_star: float
    etas: np.ndarray
    msd_bar_curve: np.ndarray
    reports: tuple[TheoryReport, ...]


def optimize_eta(
    ensemble: TaskEnsemble, g: Graph, mu: float, grid: np.ndarray
) -> EtaSweep:
    """Pick the grid point minimizing the deviation against the targets.

    Plain grid search (the curve need not be unimodal); ties resolve to the
    smallest eta.  The grid must be ascending, nonempty, and contain 0 so the
    non-cooperative corner is always a candidate.
    """
    grid = np.asarray(grid, dtype=float).reshape(-1)
    if grid.size == 0:
        raise InvalidArgument("eta grid must be nonempty")
    if np.any(np.diff(grid) <= 0.0):
        raise InvalidArgument("eta grid must be strictly ascending")
    if grid[0] != 0.0:
        raise InvalidArgument("eta grid must include 0")
    reports = tuple(theory_report(ensemble, g, mu, float(eta)) for eta in grid)
    values = np.array([r.msd_bar for r in reports])
    best = int(np.argmin(values))  # first minimum = smallest eta on ties
    return EtaSweep(
        eta_star=float(grid[best]), etas=grid, msd_bar_curve=values, reports=reports
    )

