"""Closed-form solutions of the smoothness-regularized network problem.

The network cost is sum_k J_k(w_k) + (eta/2) * smoothness(W).  For the
built-in quadratic costs the minimizer solves the SPD linear system
(H + eta * (L kron I)) W = H W0 with H = blockdiag{R_uk}; the same system
gives the steady-state offset that the adaptive recursion carries at finite
step-size.  The step-size stability checks live here too.  The theory
module's theory_report is the one caller that checks, solves and computes the
bias of a (mu, eta) point; the engine and the CLI read its report.

The smoothness penalty acts on each of the M components alike, so only the
covariances R_uk couple one component to another.  Both (NM)-dimensional
systems are therefore written once, in component-major order, over G groups
of s coupled components and solved as one (G, sN, sN) stack with r = M/(Gs)
right-hand sides each.  Isotropic R_uk = sigma_k^2 I (every bundled config)
give the M components one shared N x N system, factored once for M
right-hand sides; other diagonal R_uk give M N x N systems, and any other
covariance one group of all M components: one (NM) x (NM) system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument, SingularSystem, UnstableConfiguration
from .graphs import Graph, StackedSignal, gft
from .tasks import TaskEnsemble


@dataclass(frozen=True, eq=False)
class RegularizedSolution:
    """Minimizer of the regularized network cost at one penalty strength.

    mismatch_sq is the raw squared distance ||W0_eta - W0||^2 (no 1/N);
    spectral_blocks[m] is the graph-frequency content of the solution.
    coupled_cov is the _coupled_covariances grouping, reused by the bias solve.
    """

    eta: float
    solution: StackedSignal
    mismatch_sq: float
    spectral_blocks: np.ndarray
    coupled_cov: np.ndarray


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


def _coupled_covariances(ensemble: TaskEnsemble) -> np.ndarray:
    """The covariances over G groups of s coupled components, as a (G, s, s, N)
    stack with entry [g, k, l, a] = R_ua[j, j'] for components
    j = (g*s + k)*r + c and j' = (g*s + l)*r + c, where r = M / (G*s).

    s = 1 when every R_uk is exactly diagonal, with G = 1 if the M diagonals
    are equal, else G = M; otherwise s = M (one group).  The stack is
    C-contiguous, so the system matrices built from it are too.
    """
    covs = ensemble.regressor_cov
    diag = np.diagonal(covs, axis1=1, axis2=2)
    if not np.array_equal(covs, diag[:, :, None] * np.eye(ensemble.dim)):
        return np.ascontiguousarray(covs.transpose(1, 2, 0)[None])
    diag = diag[:, :1] if np.all(diag == diag[:, :1]) else diag
    return np.ascontiguousarray(diag.T[:, None, None, :])


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
        raise InvalidArgument("eta must be nonnegative")
    n, m = ensemble.n_agents, ensemble.dim
    targets = ensemble.targets.values
    cov = _coupled_covariances(ensemble)
    if eta == 0.0:
        sol = StackedSignal(n, m, targets)
    else:  # group g: (I_s kron eta L + H_g) w_g = H_g w0_g
        groups, s = cov.shape[:2]
        mats = np.zeros((groups, s, n, s, n))
        # einsum with a repeated index returns a writable view of that diagonal
        np.einsum("gkakb->gkab", mats)[...] = eta * g.laplacian
        np.einsum("gkala->gkla", mats)[...] += cov
        w0 = ensemble.targets.blocks.reshape(n, groups, s, -1)  # [a, g, l, c]
        rhs = np.einsum("gkla,aglc->gkac", cov, w0).reshape(groups, s * n, -1)
        w = _spd_solve(mats.reshape(groups, s * n, s * n), rhs).reshape(groups, s, n, -1)
        sol = StackedSignal.from_blocks(w.transpose(2, 0, 1, 3).reshape(n, m))
    mismatch = sol.values - targets
    return RegularizedSolution(
        eta=float(eta),
        solution=sol,
        mismatch_sq=float(mismatch @ mismatch),
        spectral_blocks=gft(sol, g).blocks.copy(),
        coupled_cov=cov,
    )


def _long_term_bias(
    ensemble: TaskEnsemble, g: Graph, mu: float, reg: RegularizedSolution
) -> np.ndarray:
    """Steady-state mean offset E[W0_eta - W_inf] of the adaptive recursion at
    an already admissible (mu, eta), given the solution W0_eta at that eta.

    Solves (I - B_eta) x = mu^2 eta^2 (L kron I)^2 W0_eta with
    B_eta = (I - mu*eta*L kron I)(I - mu*H_eta), i.e. the fixed point of the
    noise-free error recursion, and returns x (length NM, node order).  The
    system is solved, never inverted.
    """
    n, m, eta = ensemble.n_agents, ensemble.dim, reg.eta
    if eta == 0.0:
        return np.zeros(n * m)
    # group g: (I - (I - I_s kron mu eta L)(I - mu H_g)) x_g = rhs_g
    cov = reg.coupled_cov
    groups, s = cov.shape[:2]
    lap = g.laplacian
    combine = np.eye(n) - mu * eta * lap
    step = np.eye(s)[:, :, None] - mu * cov
    mats = (-combine[:, None, :] * step[:, :, None]).reshape(groups, s * n, s * n)
    diagonal = np.arange(s * n)
    mats[:, diagonal, diagonal] += 1.0
    rhs = (mu * eta) ** 2 * (lap @ (lap @ reg.solution.blocks))
    rhs = rhs.reshape(n, groups, s, -1).transpose(1, 2, 0, 3).reshape(groups, s * n, -1)
    x = np.linalg.solve(mats, rhs).reshape(groups, s, n, -1)
    return x.transpose(2, 0, 1, 3).reshape(-1)
