"""Closed-form steady state of the diffusion recursion at a (mu, eta) point.

The network cost is sum_k J_k(w_k) + (eta/2) * smoothness(W).  For the
built-in quadratic costs the minimizer W0_eta solves the SPD linear system
(H + eta * (L kron I)) W = H W0 with H = blockdiag{R_uk}; the adaptive
recursion settles near it with a long-term bias that solves a second system
of the same shape, as long as the step-size stability conditions hold.

The small-step theory predicts the network's steady mean-square deviation one
graph frequency at a time: frequency m contributes a trace of an M x M solve
whose curvature side stiffens with eta * lambda_m while its noise side carries
the (eta-dependent) gradient-noise covariances.  On top of the per-frequency
predictor sit the non-cooperative baseline, the deviation measured against the
unregularized targets (which adds the solution mismatch and a bias cross
term), a grid optimizer for the penalty strength and the bias surface over a
(mu, eta) grid.

The per-node and per-frequency terms are batched over all nodes and
frequencies for every covariance profile: one stacked formula gives the
gradient-noise covariances, and each predictor is one stacked M x M solve plus
a trace.  The smoothness penalty acts on each of the M components alike, so
only the covariances R_uk couple one component to another.  W0_eta and the
bias are therefore written once, in component-major order, over G groups of s
coupled components and solved as one (G, sN, sN) stack with r = M/(Gs)
right-hand sides each.  Isotropic R_uk = sigma_k^2 I (every bundled config)
give the M components one shared N x N system, factored once for M
right-hand sides; other diagonal R_uk give M N x N systems, and any other
covariance one group of all M components: one (NM) x (NM) system.

theory_report is the one entry point for a (mu, eta) point: it checks
stability, solves W0_eta and computes the bias once, and its report carries
all three.  optimize_eta evaluates it over a grid, bias_surface computes the
bias alone over a (mu, eta) grid with one solve per eta, and the engine's
monte_carlo runs against a report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidArgument, SingularSystem, UnstableConfiguration
from .graphs import Graph, StackedSignal
from .tasks import TaskEnsemble


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
    curv = float(ensemble.regressor_eigvals.max())
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


def _require_stable(ensemble: TaskEnsemble, g: Graph, mu: float, eta: float) -> None:
    verdict = check_stability(ensemble, g, mu, eta)
    if not verdict.ok:
        raise UnstableConfiguration(
            "unstable (mu, eta): " + "; ".join(verdict.failed_messages()),
            failed=tuple(c.name for c in verdict.conditions if not c.ok),
        )


@dataclass(frozen=True, eq=False)
class RegularizedSolution:
    """Minimizer of the regularized network cost at one penalty strength.

    mismatch_sq is the raw squared distance ||W0_eta - W0||^2 (no 1/N).
    """

    eta: float
    solution: StackedSignal
    mismatch_sq: float


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
    if eta == 0.0:
        sol = StackedSignal(n, m, targets)
    else:  # group g: (I_s kron eta L + H_g) w_g = H_g w0_g
        cov = _coupled_covariances(ensemble)
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
        eta=float(eta), solution=sol, mismatch_sq=float(mismatch @ mismatch)
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
    cov = _coupled_covariances(ensemble)
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
    report reads that one solution.
    """
    _require_stable(ensemble, g, mu, eta)
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


def bias_surface(
    ensemble: TaskEnsemble, g: Graph, mus: Sequence[float], etas: Sequence[float]
) -> np.ndarray:
    """Squared bias norm ||E[W0_eta - W_inf]||^2 over a (mu, eta) grid, as a
    (len(etas), len(mus)) array whose [i, j] cell equals
    theory_report(ensemble, g, mus[j], etas[i]).bias_sq_norm.

    Every pair is checked before anything is solved, so an inadmissible pair
    raises UnstableConfiguration without a solve.  W0_eta does not depend on
    mu, so it is solved once per eta.
    """
    for eta in etas:
        for mu in mus:
            _require_stable(ensemble, g, mu, eta)
    surface = np.empty((len(etas), len(mus)))
    for i, eta in enumerate(etas):
        reg = solve_regularized(ensemble, g, eta)
        surface[i] = [b @ b for b in (_long_term_bias(ensemble, g, mu, reg) for mu in mus)]
    return surface
