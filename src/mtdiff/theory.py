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
gradient-noise covariances, and each predictor is one stacked solve plus a
trace.  The smoothness penalty acts on each of the M components alike, so
only the covariances R_uk couple one component to another.  The ensemble
groups them once (TaskEnsemble.coupled_cov) into G groups of s coupled
components, with r = M/(Gs) copies of each group sharing its covariances.
W0_eta and the bias are written once, in component-major order, over those
groups and solved as one (G, sN, sN) stack with r right-hand sides each, and
the curvature at each frequency is block-diagonal over the same groups, so
its trace needs only the matching (s, s) diagonal blocks of the noise,
summed over the r copies: N * G solves of size s.
Isotropic R_uk = sigma_k^2 I (every bundled config) give the M components
one shared N x N system, factored once for M right-hand sides, and N scalar
per-frequency solves; other diagonal R_uk give M N x N systems and N * M
scalar solves, and any other covariance one group of all M components: one
(NM) x (NM) system and N dense M x M per-frequency solves.  The W0_eta stack
is certified well conditioned from the curvature spectrum and the Laplacian's
largest eigenvalue, without a factorization, before its one LU solve; a stack
the bound cannot certify is solved through a symmetric eigendecomposition,
which raises SingularSystem when the stack is numerically singular.

theory_report is the one entry point for a (mu, eta) point: it checks
stability, solves W0_eta and computes the bias once, and its report carries
all three; optimize_eta, bias_surface and the engine build on it.  The one
input check, check_inputs (matching sizes, finite mu > 0, finite eta >= 0),
runs first in check_stability, solve_regularized, msd_noncoop and the
engine's SimConfig, and hands the first three mu and eta as Python floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidArgument, SingularSystem, UnstableConfiguration
from .graphs import Graph, StackedSignal, _check_signal
from .tasks import TaskEnsemble

_UNIT_ROUNDOFF = 2.0**-53


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


def check_inputs(
    ensemble: TaskEnsemble | None, g: Graph | None, mu: float | None, eta: float
) -> tuple[float | None, float]:
    """DimensionMismatch unless the ensemble's targets fit g, InvalidArgument unless
    mu is finite and > 0 and eta finite and >= 0; a None argument is not checked.
    Returns mu and eta as Python floats, whose products overflow to inf silently."""
    if ensemble is not None:
        _check_signal(ensemble.targets, g)
    if mu is not None and not (math.isfinite(mu) and mu > 0.0):
        raise InvalidArgument(f"mu must be finite and positive, got {mu!r}")
    if not (math.isfinite(eta) and eta >= 0.0):
        raise InvalidArgument(f"eta must be finite and nonnegative, got {eta!r}")
    return (None if mu is None else float(mu)), float(eta)


def check_stability(
    ensemble: TaskEnsemble, g: Graph, mu: float, eta: float
) -> StabilityVerdict:
    """Evaluate the three step-size admissibility conditions.

    The combine step must contract on the graph (mu*eta against both the
    Laplacian spectral radius and the heaviest weighted neighborhood), and the
    adapt step must contract against the stiffest local curvature.  Returns a
    verdict with each condition's margin; raises only check_inputs' errors.
    """
    mu, eta = check_inputs(ensemble, g, mu, eta)
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


def _spd_solve(mat: np.ndarray, rhs: np.ndarray, kappa: float = math.inf) -> np.ndarray:
    """Solve an SPD system, or a stack of them.

    mat has shape (..., n, n) and rhs (..., n, k); kappa bounds the 2-norm
    condition number of every matrix in the stack.  When kappa * n(n+1) * u
    <= 1/2 (u the unit roundoff), floating-point Cholesky provably completes
    (a conservative form of Demmel's condition, Higham, Accuracy and Stability
    of Numerical Algorithms, 2nd ed., sec. 10.1), so the stack is solved at
    once by LU.  Otherwise it is solved through the eigendecomposition of its
    symmetric part, and SingularSystem is raised when an eigenvalue is not
    above 1e-14 times the largest (or 1, if larger).
    """
    n = mat.shape[-1]
    if kappa * n * (n + 1) * _UNIT_ROUNDOFF <= 0.5:
        return np.linalg.solve(mat, rhs)
    vals, vecs = np.linalg.eigh(0.5 * mat + 0.5 * np.swapaxes(mat, -1, -2))  # no overflow
    top = np.maximum(1.0, vals.max(axis=-1, keepdims=True))
    if np.any(vals <= 1e-14 * top):
        raise SingularSystem(
            f"system matrix is numerically singular (min eig {vals.min():.3e})"
        )
    return vecs @ ((np.swapaxes(vecs, -1, -2) @ rhs) / vals[..., None])


def _lu_solve(mat: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """np.linalg.solve, raising SingularSystem on a singular or overflowing stack."""
    try:
        x = np.linalg.solve(mat, rhs)
    except np.linalg.LinAlgError:
        x = np.array(np.nan)
    if not np.all(np.isfinite(x)):
        raise SingularSystem("system is singular or its solution overflows")
    return x


def solve_regularized(ensemble: TaskEnsemble, g: Graph, eta: float) -> RegularizedSolution:
    """Minimize the regularized network cost at penalty strength eta >= 0.

    eta = 0 returns the per-node targets, and a growing eta pulls every block
    toward the consensus solution; SingularSystem when eta * lambda_max(L) overflows.
    """
    eta = check_inputs(ensemble, g, None, eta)[1]
    if not math.isfinite(eta * g.lambda_max):
        raise SingularSystem(f"eta * lambda_max(L) overflows at eta={eta!r}")
    n, m = ensemble.n_agents, ensemble.dim
    targets = ensemble.targets.values
    if eta == 0.0:
        sol = StackedSignal(n, m, targets)
    else:  # group g: (I_s kron eta L + H_g) w_g = H_g w0_g
        cov = ensemble.coupled_cov
        groups, s = cov.shape[:2]
        mats = np.zeros((groups, s, n, s, n))
        # einsum with a repeated index returns a writable view of that diagonal
        np.einsum("gkakb->gkab", mats)[...] = eta * g.laplacian
        np.einsum("gkala->gkla", mats)[...] += cov
        w0 = ensemble.targets.blocks.reshape(n, groups, s, -1)  # [a, g, l, c]
        rhs = np.einsum("gkla,aglc->gkac", cov, w0).reshape(groups, s * n, -1)
        curv = ensemble.regressor_eigvals
        r_min, r_max = float(curv.min()), float(curv.max())
        # Weyl: L is PSD and the spectrum of H_g lies in [r_min, r_max]
        kappa = (eta * g.lambda_max + r_max) / r_min if r_min > 0.0 else math.inf
        w = _spd_solve(mats.reshape(groups, s * n, s * n), rhs, kappa)
        w = w.reshape(groups, s, n, -1)
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
    # group g: (I - (I - I_s kron mu eta L)(I - mu H_g)) x_g = rhs_g, the matrix
    # formed as mu eta (I_s kron L)(I - mu H_g) + mu H_g, not 1 - (1 - a)(1 - b)
    cov = ensemble.coupled_cov
    groups, s = cov.shape[:2]
    lap = g.laplacian
    step = np.eye(s)[:, :, None] - mu * cov
    mats = (mu * eta) * lap[:, None, :] * step[:, :, None]
    np.einsum("gkala->gkla", mats)[...] += mu * cov
    rhs = (mu * eta) ** 2 * (lap @ (lap @ reg.solution.blocks))
    rhs = rhs.reshape(n, groups, s, -1).transpose(1, 2, 0, 3).reshape(groups, s * n, -1)
    x = _lu_solve(mats.reshape(groups, s * n, s * n), rhs).reshape(groups, s, n, -1)
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


def _noise_blocks(ensemble: TaskEnsemble, reg: RegularizedSolution) -> np.ndarray:
    """Limiting gradient-noise covariance of every node as (N, G, s, s) blocks:
    each coupled group's (s, s) diagonal block, summed over its r copies (for
    full covariances [k, 0] is node k's whole M x M covariance).

    For Gaussian regressors node k's covariance is R W R + R * Tr(R W) +
    sigma_v^2 R, where W = d d' for the node's regularized-vs-own-target
    mismatch d, so R W R = (R d)(R d)' and Tr(R W) = d' R d.  At eta = 0 the
    mismatch vanishes and only the sigma_v^2 R floor remains.  SingularSystem
    when a covariance overflows.
    """
    cov = ensemble.coupled_cov
    n, groups, s = ensemble.n_agents, cov.shape[0], cov.shape[1]
    r = ensemble.dim // (groups * s)
    delta = ensemble.targets.blocks - reg.solution.blocks
    with np.errstate(over="ignore"):  # an overflow is reported below
        r_delta = np.einsum("kij,kj->ki", ensemble.regressor_cov, delta)
        scale = np.einsum("ki,ki->k", delta, r_delta) + ensemble.noise_var
        r_delta = r_delta.reshape(n, groups, s, r)
        outer = np.einsum("agkc,aglc->agkl", r_delta, r_delta)
        blocks = outer + (r * scale)[:, None, None, None] * cov.transpose(3, 0, 1, 2)
    if not np.all(np.isfinite(blocks)):
        raise SingularSystem("the gradient-noise covariance overflows")
    return blocks


def _per_frequency_terms(
    ensemble: TaskEnsemble, g: Graph, mu: float, reg: RegularizedSolution
) -> np.ndarray:
    """Summands of the steady-state predictor, one per graph frequency m:
    mu/(2N) * Tr(C_m^{-1} N_m), C_m = sum_k v_m(k)^2 R_k + eta lambda_m I and
    N_m the same mixture of the noise covariances, both mixed in one product.
    C_m is block-diagonal over the coupled groups and the trace is linear in
    N_m, so each group needs its copy-summed noise block alone: N * G solves.
    """
    cov = ensemble.coupled_cov
    n, groups, s = ensemble.n_agents, cov.shape[0], cov.shape[1]
    stack = np.concatenate((_noise_blocks(ensemble, reg), cov.transpose(3, 0, 1, 2)), axis=1)
    mixed = ((g.eigenvectors**2).T @ stack.reshape(n, -1)).reshape(stack.shape)
    noise, curvature = mixed[:, :groups], mixed[:, groups:]
    curvature += reg.eta * g.eigenvalues[:, None, None, None] * np.eye(s)
    solved = _lu_solve(curvature, noise)
    return mu / (2.0 * n) * np.trace(solved, axis1=2, axis2=3).sum(axis=1)


def msd_noncoop(ensemble: TaskEnsemble, mu: float) -> float:
    """Steady-state deviation when every node adapts alone (no combine step).

    Each node contributes mu/2 * Tr(H_k^{-1} R_{s,k}) evaluated at its own
    target, which for the built-in quadratic model (R_{s,k} = sigma_v,k^2 H_k)
    is mu * M * sigma_v,k^2 / 2; the network value is their mean.
    """
    mu = check_inputs(None, None, mu, 0.0)[0]
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
    if np.any(grid[1:] <= grid[:-1]):  # no inf - inf warning, unlike np.diff
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
