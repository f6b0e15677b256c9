"""Closed-form solutions of the smoothness-regularized network problem.

The network cost is sum_k J_k(w_k) + (eta/2) * smoothness(W).  For the
built-in quadratic costs the minimizer solves the SPD linear system
(H + eta * (L kron I)) W = H W0 with H = blockdiag{R_uk}; the same system
gives the steady-state offset that the adaptive recursion carries at finite
step-size.  The step-size stability checks, which the engine and the theory
module run first, live here too.

Two routes solve the (NM)-dimensional systems.  When every R_uk is diagonal
(the scalar, varying and uniform profiles, and any diagonal covariance read
from a config) nothing couples the M components, so the solution and the bias
each come from M N x N systems solved as one stacked batch.  Any other
covariance takes the dense route through (NM) x (NM) matrices.  The choice
reads only the covariances: a stack equal to its own diagonal takes the
per-component route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SingularSystem, UnstableConfiguration
from .graphs import Graph, StackedSignal, gft
from .tasks import TaskEnsemble


@dataclass(frozen=True, eq=False)
class RegularizedSolution:
    """Minimizer of the regularized network cost at one penalty strength.

    mismatch_sq is the raw squared distance ||W0_eta - W0||^2 (no 1/N);
    spectral_blocks[m] is the graph-frequency content of the solution.
    """

    eta: float
    solution: StackedSignal
    mismatch_sq: float
    spectral_blocks: np.ndarray


@dataclass(frozen=True, eq=False)
class BiasReport:
    """Steady-state mean offset of the adaptive recursion from W0_eta."""

    mu: float
    eta: float
    bias_vector: np.ndarray
    bias_sq_norm: float


@dataclass(frozen=True)
class StabilityCondition:
    """One admissibility bound with its measured value."""

    name: str
    description: str
    value: float
    bound: float
    strict: bool

    @property
    def ok(self) -> bool:
        return self.value < self.bound if self.strict else self.value <= self.bound

    @property
    def margin(self) -> float:
        return self.bound - self.value


@dataclass(frozen=True)
class StabilityVerdict:
    conditions: tuple[StabilityCondition, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.conditions)

    def failed_messages(self) -> list[str]:
        return [
            f"{c.name}: {c.description} (value {c.value:.6g} vs bound {c.bound:.6g})"
            for c in self.conditions
            if not c.ok
        ]


def check_stability(
    ensemble: TaskEnsemble, g: Graph, mu: float, eta: float
) -> StabilityVerdict:
    """Evaluate the three step-size admissibility conditions.

    The combine step must contract on the graph (mu*eta against both the
    Laplacian spectral radius and the heaviest weighted neighborhood), and the
    adapt step must contract against the stiffest local curvature.  Returns a
    verdict listing each condition with its margin instead of raising.
    """
    lam_max = g.lambda_max
    max_deg = g.max_degree
    curv = float(np.linalg.eigvalsh(ensemble.regressor_cov).max())
    conditions = (
        StabilityCondition(
            name="laplacian-spectrum",
            description="mu*eta <= 2 / lambda_max(L)",
            value=mu * eta,
            bound=(2.0 / lam_max) if lam_max > 0 else math.inf,
            strict=False,
        ),
        StabilityCondition(
            name="neighborhood-weight",
            description="mu*eta <= 1 / max_k sum_l a_kl",
            value=mu * eta,
            bound=(1.0 / max_deg) if max_deg > 0 else math.inf,
            strict=False,
        ),
        StabilityCondition(
            name="local-curvature",
            description="mu < min_k 2 / lambda_max(R_uk)",
            value=mu,
            bound=2.0 / curv,
            strict=True,
        ),
    )
    return StabilityVerdict(conditions=conditions)


def require_stable(ensemble: TaskEnsemble, g: Graph, mu: float, eta: float) -> None:
    verdict = check_stability(ensemble, g, mu, eta)
    if not verdict.ok:
        raise UnstableConfiguration(
            "unstable (mu, eta): " + "; ".join(verdict.failed_messages()),
            failed=tuple(c.name for c in verdict.conditions if not c.ok),
        )


def _diagonal_covariances(ensemble: TaskEnsemble) -> np.ndarray | None:
    """(M, N) array of the covariance diagonals, row j holding R_uk[j, j] for
    every node k, when every R_uk is exactly diagonal; None otherwise."""
    covs = ensemble.regressor_cov
    diag = np.diagonal(covs, axis1=1, axis2=2)
    if np.array_equal(covs, diag[:, :, None] * np.eye(ensemble.dim)):
        return diag.T.copy()
    return None


def _stacked_hessian(ensemble: TaskEnsemble) -> np.ndarray:
    """Block-diagonal curvature blockdiag{R_uk} of the quadratic costs."""
    n, m = ensemble.n_agents, ensemble.dim
    big = np.zeros((n * m, n * m))
    for k, cov in enumerate(ensemble.regressor_cov):
        big[k * m : (k + 1) * m, k * m : (k + 1) * m] = cov
    return big


def _stacked_laplacian(g: Graph, m: int) -> np.ndarray:
    return np.kron(g.laplacian, np.eye(m))


def _spd_solve(mat: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve an SPD system, or a stack of them, certifying with Cholesky and
    falling back to a symmetric eigendecomposition if the factorization fails.

    mat has shape (..., n, n) and rhs (..., n, k).
    """
    try:
        np.linalg.cholesky(mat)
        return np.linalg.solve(mat, rhs)
    except np.linalg.LinAlgError:
        vals, vecs = np.linalg.eigh(0.5 * (mat + np.swapaxes(mat, -1, -2)))
        top = np.maximum(1.0, vals.max(axis=-1, keepdims=True))
        if np.any(vals <= 1e-14 * top):
            raise SingularSystem(
                f"system matrix is numerically singular (min eig {vals.min():.3e})"
            )
        return vecs @ ((np.swapaxes(vecs, -1, -2) @ rhs) / vals[..., None])


def solve_regularized(ensemble: TaskEnsemble, g: Graph, eta: float) -> RegularizedSolution:
    """Minimize the regularized network cost at penalty strength eta >= 0.

    eta = 0 returns the per-node targets themselves; as eta grows every block
    is pulled toward the common consensus solution.
    """
    if eta < 0.0:
        raise ValueError("eta must be nonnegative")
    n, m = ensemble.n_agents, ensemble.dim
    targets = ensemble.targets.values
    diag = _diagonal_covariances(ensemble)
    if eta == 0.0:
        sol = StackedSignal(n, m, targets)
    elif diag is None:
        hess = _stacked_hessian(ensemble)
        mat = hess + eta * _stacked_laplacian(g, m)
        w = _spd_solve(mat, (hess @ targets)[:, None])[:, 0]
        sol = StackedSignal(n, m, w)
    else:  # component j: (eta L + diag(R[:, j, j])) w_j = diag(R[:, j, j]) w0_j
        mats = np.broadcast_to(eta * g.laplacian, (m, n, n)).copy()
        nodes = np.arange(n)
        mats[:, nodes, nodes] += diag
        rhs = diag * ensemble.targets.blocks.T
        w = _spd_solve(mats, rhs[:, :, None])[:, :, 0]
        sol = StackedSignal.from_blocks(w.T)
    mismatch = sol.values - targets
    return RegularizedSolution(
        eta=float(eta),
        solution=sol,
        mismatch_sq=float(mismatch @ mismatch),
        spectral_blocks=gft(sol, g).blocks.copy(),
    )


def long_term_bias(
    ensemble: TaskEnsemble, g: Graph, mu: float, eta: float
) -> BiasReport:
    """Steady-state mean offset E[W0_eta - W_inf] of the adaptive recursion.

    Solves (I - B_eta) x = mu^2 eta^2 (L kron I)^2 W0_eta with
    B_eta = (I - mu*eta*L kron I)(I - mu*H_eta), i.e. the fixed point of the
    noise-free error recursion.  The system is solved, never inverted.

    Raises UnstableConfiguration when any step-size condition fails, naming
    the violated bounds.
    """
    require_stable(ensemble, g, mu, eta)
    return _long_term_bias(ensemble, g, mu, solve_regularized(ensemble, g, eta))


def _long_term_bias(
    ensemble: TaskEnsemble, g: Graph, mu: float, reg: RegularizedSolution
) -> BiasReport:
    """long_term_bias at an already admissible point, given its solution."""
    n, m, eta = ensemble.n_agents, ensemble.dim, reg.eta
    if eta == 0.0:
        bias = np.zeros(n * m)
        return BiasReport(mu=float(mu), eta=0.0, bias_vector=bias, bias_sq_norm=0.0)
    diag = _diagonal_covariances(ensemble)
    if diag is None:
        lap = _stacked_laplacian(g, m)
        hess = _stacked_hessian(ensemble)
        b_eta = (np.eye(n * m) - mu * eta * lap) @ (np.eye(n * m) - mu * hess)
        rhs = (mu * eta) ** 2 * (lap @ (lap @ reg.solution.values))
        bias = np.linalg.solve(np.eye(n * m) - b_eta, rhs)
    else:  # component j: (I - (I - mu eta L) diag(1 - mu R[:, j, j])) x_j = rhs[:, j]
        lap = g.laplacian
        combine = np.eye(n) - mu * eta * lap
        mats = -combine * (1.0 - mu * diag)[:, None, :]
        nodes = np.arange(n)
        mats[:, nodes, nodes] += 1.0
        rhs = (mu * eta) ** 2 * (lap @ (lap @ reg.solution.blocks))
        bias = np.linalg.solve(mats, rhs.T[:, :, None])[:, :, 0].T.reshape(-1)
    return BiasReport(
        mu=float(mu),
        eta=float(eta),
        bias_vector=bias,
        bias_sq_norm=float(bias @ bias),
    )
