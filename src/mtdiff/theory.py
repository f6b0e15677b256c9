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
module, which solves them per component when every R_uk is diagonal and
densely otherwise.

A brute-force matrix-series evaluator of the same steady-state variance is
included as an expensive validation path; tests compare the two routes on
small problems.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonUniformProfile
from .graphs import Graph
from .regularized import (
    RegularizedSolution,
    _long_term_bias,
    _stacked_hessian,
    _stacked_laplacian,
    require_stable,
    solve_regularized,
)
from .tasks import TaskEnsemble


@dataclass(frozen=True, eq=False)
class TheoryReport:
    """Closed-form steady-state predictions at one (mu, eta) point.

    msd_total is the per-frequency sum; msd_per_frequency its summands
    (length N, ordered like the graph eigenvalues).  mismatch_sq is the raw
    squared norm ||W0_eta - W0||^2; msd_bar = msd_total + mismatch_sq / N +
    bias_cross_term.  msd_uniform is None for non-uniform profiles.
    """

    mu: float
    eta: float
    msd_total: float
    msd_per_frequency: np.ndarray
    msd_noncoop: float | None = None
    msd_bar: float | None = None
    msd_uniform: float | None = None
    mismatch_sq: float | None = None
    bias_cross_term: float | None = None


def _noise_covariances(ensemble: TaskEnsemble, reg: RegularizedSolution) -> np.ndarray:
    """(N, M, M) stack of every node's noise_covariance, using W = d d' for
    the mismatch d: R W R = (R d)(R d)' and Tr(R W) = d' R d."""
    covs = ensemble.regressor_cov
    delta = ensemble.targets.blocks - reg.solution.blocks
    r_delta = np.einsum("kij,kj->ki", covs, delta)
    scale = np.einsum("ki,ki->k", delta, r_delta) + ensemble.noise_var
    return r_delta[:, :, None] * r_delta[:, None, :] + scale[:, None, None] * covs


def noise_covariance(
    ensemble: TaskEnsemble, agent: int, reg: RegularizedSolution
) -> np.ndarray:
    """Limiting gradient-noise covariance at node k's regularized point.

    For Gaussian regressors the covariance has the closed form
    R W R + R * Tr(R W) + sigma_v^2 R, where W is the outer product of the
    node's regularized-vs-own-target mismatch.  At eta = 0 the mismatch
    vanishes and only the sigma_v^2 R floor remains.
    """
    return _noise_covariances(ensemble, reg)[agent]


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
) -> tuple[np.ndarray, float | None]:
    """Summands of the steady-state predictor, one per graph frequency, and
    for uniform profiles the exact uniform-profile sum (None otherwise).

    Both read the same per-frequency noise mixtures; the uniform sum uses the
    curvature R_u + eta*lambda_m*I (see msd_uniform).
    """
    noise = _frequency_weighted(g, _noise_covariances(ensemble, reg))
    shift = reg.eta * g.eigenvalues[:, None, None] * np.eye(ensemble.dim)
    curvature = _frequency_weighted(g, ensemble.regressor_cov) + shift
    uniform = None
    if ensemble.is_uniform:
        uniform = float(_trace_solve(mu, ensemble.regressor_cov[0] + shift, noise).sum())
    return _trace_solve(mu, curvature, noise), uniform


def msd_theory(ensemble: TaskEnsemble, g: Graph, mu: float, eta: float) -> TheoryReport:
    """Leading-order steady-state deviation against the regularized solution.

    Requires an admissible (mu, eta); returns the per-frequency terms and
    their sum.  Use theory_report() for the fully populated report.
    """
    require_stable(ensemble, g, mu, eta)
    reg = solve_regularized(ensemble, g, eta)
    terms, _ = _per_frequency_terms(ensemble, g, mu, reg)
    return TheoryReport(
        mu=float(mu),
        eta=float(eta),
        msd_total=float(terms.sum()),
        msd_per_frequency=terms,
    )


def msd_noncoop(ensemble: TaskEnsemble, mu: float) -> float:
    """Steady-state deviation when every node adapts alone (no combine step).

    Each node contributes mu/2 * Tr(H_k^{-1} R_{s,k}) evaluated at its own
    target, which for the built-in quadratic model is mu * M * sigma_v^2 / 2.
    """
    covs = ensemble.regressor_cov
    r_s = ensemble.noise_var[:, None, None] * covs
    total = float(np.trace(np.linalg.solve(covs, r_s), axis1=1, axis2=2).sum())
    return mu / (2.0 * ensemble.n_agents) * total


def msd_uniform(
    ensemble: TaskEnsemble, g: Graph, mu: float, eta: float
) -> tuple[float, np.ndarray]:
    """Uniform-profile specialization and its per-frequency approximation.

    With a common R_u the per-frequency curvature collapses to R_u +
    eta*lambda_m*I, so the exact value coincides with the general predictor.
    The second output approximates each frequency's term by
    mu/(2N) * mean(sigma_v^2) * sum_q 1/(1 + eta*lambda_m/lambda_q(R_u)) —
    the trace with the mismatch contribution to the noise covariance dropped —
    which makes the monotone low-pass behavior in eta and lambda explicit.
    """
    if not ensemble.is_uniform:
        raise NonUniformProfile("uniform-profile predictor needs a common R_u")
    total = theory_report(ensemble, g, mu, eta).msd_uniform
    n = ensemble.n_agents
    lam_u = np.linalg.eigvalsh(ensemble.regressor_cov[0])
    sigma_v = float(ensemble.noise_var.mean())
    ratios = 1.0 / (1.0 + eta * g.eigenvalues[:, None] / lam_u[None, :])
    per_lambda = mu / (2.0 * n) * sigma_v * ratios.sum(axis=1)
    return total, per_lambda


def msd_bar(ensemble: TaskEnsemble, g: Graph, mu: float, eta: float) -> float:
    """Steady-state deviation measured against the unregularized targets.

    Adds to the regularized-point deviation the squared solution mismatch
    (per node) and the cross term between the mismatch and the steady-state
    mean offset.  Large penalties can push this above the non-cooperative
    baseline when the targets are not smooth.
    """
    return theory_report(ensemble, g, mu, eta).msd_bar


def theory_report(ensemble: TaskEnsemble, g: Graph, mu: float, eta: float) -> TheoryReport:
    """Fully populated report at one (mu, eta) point."""
    require_stable(ensemble, g, mu, eta)
    reg = solve_regularized(ensemble, g, eta)
    terms, uniform = _per_frequency_terms(ensemble, g, mu, reg)
    msd_total = float(terms.sum())
    bias = _long_term_bias(ensemble, g, mu, reg)
    n = ensemble.n_agents
    mismatch = ensemble.targets.values - reg.solution.values
    cross = 2.0 / n * float(mismatch @ bias.bias_vector)
    return TheoryReport(
        mu=float(mu),
        eta=float(eta),
        msd_total=msd_total,
        msd_per_frequency=terms,
        msd_noncoop=msd_noncoop(ensemble, mu),
        msd_bar=msd_total + reg.mismatch_sq / n + cross,
        msd_uniform=uniform,
        mismatch_sq=reg.mismatch_sq,
        bias_cross_term=cross,
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
        raise ValueError("eta grid must be nonempty")
    if np.any(np.diff(grid) <= 0.0):
        raise ValueError("eta grid must be strictly ascending")
    if grid[0] != 0.0:
        raise ValueError("eta grid must include 0")
    reports = tuple(theory_report(ensemble, g, mu, float(eta)) for eta in grid)
    values = np.array([r.msd_bar for r in reports])
    best = int(np.argmin(values))  # first minimum = smallest eta on ties
    return EtaSweep(
        eta_star=float(grid[best]), etas=grid, msd_bar_curve=values, reports=reports
    )


def lyapunov_msd(
    ensemble: TaskEnsemble,
    g: Graph,
    mu: float,
    eta: float,
    *,
    tol: float = 1e-14,
    max_terms: int = 1_000_000,
) -> float:
    """Steady-state deviation via the full matrix-series route.

    Sums (1/N) * Tr(B^n Y B'^n) over n for the closed-loop matrix
    B = (I - mu*eta*L)(I - mu*H) and the injected-noise covariance
    Y = mu^2 (I - mu*eta*L) S (I - mu*eta*L), truncating once a term's trace
    falls below tol.  Cost grows with (N*M)^3 per term — this is a validation
    path for small problems, not a production predictor.
    """
    require_stable(ensemble, g, mu, eta)
    n, m = ensemble.n_agents, ensemble.dim
    reg = solve_regularized(ensemble, g, eta)
    hess = _stacked_hessian(ensemble, at=reg.solution.blocks)
    lap = _stacked_laplacian(g, m)
    eye = np.eye(n * m)
    combine = eye - mu * eta * lap
    closed_loop = combine @ (eye - mu * hess)
    noise = np.zeros((n * m, n * m))
    for k, block in enumerate(_noise_covariances(ensemble, reg)):
        noise[k * m : (k + 1) * m, k * m : (k + 1) * m] = block
    injected = mu * mu * (combine @ noise @ combine)
    term = injected
    total = float(np.trace(term))
    for _ in range(max_terms):
        term = closed_loop @ term @ closed_loop.T
        inc = float(np.trace(term))
        total += inc
        if inc < tol:
            break
    return total / n
