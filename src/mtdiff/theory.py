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
frequencies for every covariance profile.  The smoothness penalty acts on each
of the M components alike, so only the covariances R_uk couple one component
to another.  The ensemble groups them once (TaskEnsemble.coupled_cov) into G
groups of s coupled components, with r = M/(Gs) copies of each group sharing
its covariances.  W0_eta and the bias are solved as one (G, sN, sN) stack with
r right-hand sides each, and the curvature at each frequency is
block-diagonal over the same groups, so its trace needs only the matching
(s, s) blocks of the noise, summed over the r copies: N * G solves of size s.
Isotropic R_uk = sigma_k^2 I (every bundled config) give one shared N x N
system for M right-hand sides, other diagonal R_uk M N x N systems, and any
other covariance one (NM) x (NM) system.  The W0_eta stack is certified well
conditioned from the curvature spectrum and lambda_max(L), without a
factorization, before its one LU solve; a stack the bound cannot certify is
solved through a symmetric eigendecomposition, which raises SingularSystem
when it is numerically singular.

theory_report is the one entry point for a (mu, eta) point: it checks
stability, solves W0_eta and computes the bias once, and its report carries
all three; bias_surface and the engine build on it.  optimize_eta calls it at
each eta, except on its grid route: with diagonal covariances, mu * max h < 1
and at least GRID_ROUTE_ETAS positive etas, it checks every point, then
eigendecomposes the two symmetric-definite pencils of each group once, so each
eta costs a few matrix products in place of two LU solves, and computes the
report terms of the whole grid in one batched pass.  The one real-number
rule, check_real, admits a finite mu > 0 and a finite eta >= 0 (Python or
numpy reals but not bools, handed back as Python floats) and nothing else;
each entry point and the engine's SimConfig check only the scalars they take.
"""

from __future__ import annotations

import math
import numbers
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


def check_real(name: str, value: object, *, positive: bool) -> float:
    """value as a Python float; InvalidArgument unless it is a finite real
    number (Python or numpy), > 0 if positive and >= 0 otherwise."""
    try:  # a bool is a numbers.Real, but True is no step size
        real = isinstance(value, numbers.Real) and not isinstance(value, bool)
        x = float(value) if real else math.nan
    except OverflowError:  # an int too large for a float
        x = math.inf
    if not (math.isfinite(x) and (x > 0.0 if positive else x >= 0.0)):
        sign = "positive" if positive else "nonnegative"
        raise InvalidArgument(f"{name} must be finite and {sign}, got {value!r}")
    return x


def check_stability(
    ensemble: TaskEnsemble, g: Graph, mu: float, eta: float
) -> StabilityVerdict:
    """Evaluate the three step-size admissibility conditions.

    The combine step must contract on the graph (mu*eta against both the
    Laplacian spectral radius and the heaviest weighted neighborhood), and the
    adapt step must contract against the stiffest local curvature.  Returns a
    verdict with each condition's margin; raises only DimensionMismatch (the
    targets do not fit g) and check_real's InvalidArgument for mu and eta.
    """
    _check_signal(ensemble.targets, g)
    mu = check_real("mu", mu, positive=True)
    eta = check_real("eta", eta, positive=False)
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


def _regularized(ensemble: TaskEnsemble, eta: float, blocks: np.ndarray) -> RegularizedSolution:
    sol = StackedSignal.from_blocks(blocks)
    mismatch = sol.values - ensemble.targets.values
    return RegularizedSolution(eta=eta, solution=sol, mismatch_sq=float(mismatch @ mismatch))


def solve_regularized(ensemble: TaskEnsemble, g: Graph, eta: float) -> RegularizedSolution:
    """Minimize the regularized network cost at penalty strength eta >= 0.

    eta = 0 returns the per-node targets, and a growing eta pulls every block
    toward the consensus solution; SingularSystem when eta * lambda_max(L) overflows.
    """
    _check_signal(ensemble.targets, g)
    eta = check_real("eta", eta, positive=False)
    if not math.isfinite(eta * g.lambda_max):
        raise SingularSystem(f"eta * lambda_max(L) overflows at eta={eta!r}")
    n, m = ensemble.n_agents, ensemble.dim
    if eta == 0.0:
        return _regularized(ensemble, eta, ensemble.targets.blocks)
    # group g: (I_s kron eta L + H_g) w_g = H_g w0_g
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
    return _regularized(ensemble, eta, w.transpose(2, 0, 1, 3).reshape(n, m))


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


def _noise_blocks(ensemble: TaskEnsemble, solutions: np.ndarray) -> np.ndarray:
    """Limiting gradient-noise covariance of every node as (..., N, G, s, s)
    blocks, from W0_eta as (..., N, M) blocks: each coupled group's (s, s)
    diagonal block, summed over its r copies (for full covariances [k, 0] is
    node k's whole M x M covariance).

    For Gaussian regressors node k's covariance is R W R + R * Tr(R W) +
    sigma_v^2 R, where W = d d' for the node's regularized-vs-own-target
    mismatch d, so R W R = (R d)(R d)' and Tr(R W) = d' R d.  At eta = 0 the
    mismatch vanishes and only the sigma_v^2 R floor remains.  SingularSystem
    when a covariance overflows.
    """
    cov = ensemble.coupled_cov
    groups, s = cov.shape[:2]
    r = ensemble.dim // (groups * s)
    delta = ensemble.targets.blocks - solutions
    with np.errstate(over="ignore"):  # an overflow is reported below
        r_delta = np.einsum("kij,...kj->...ki", ensemble.regressor_cov, delta)
        scale = np.einsum("...ki,...ki->...k", delta, r_delta) + ensemble.noise_var
        r_delta = r_delta.reshape(*delta.shape[:-1], groups, s, r)
        outer = np.einsum("...agkc,...aglc->...agkl", r_delta, r_delta)
        blocks = outer + (r * scale)[..., None, None, None] * cov.transpose(3, 0, 1, 2)
    if not np.all(np.isfinite(blocks)):
        raise SingularSystem("the gradient-noise covariance overflows")
    return blocks


def _per_frequency_terms(
    ensemble: TaskEnsemble, g: Graph, mu: float, etas: np.ndarray, solutions: np.ndarray
) -> np.ndarray:
    """Summands of the steady-state predictor, one per eta of etas (E,) and
    graph frequency m, from W0_eta as (E, N, M) blocks: mu/(2N) * Tr(C_m^{-1}
    N_m), C_m = sum_k v_m(k)^2 R_k + eta lambda_m I and N_m the same mixture of
    the noise covariances, all mixed in one product.  C_m is block-diagonal
    over the coupled groups and the trace is linear in N_m, so each group
    needs its copy-summed noise block alone: E * N * G solves.
    """
    cov = ensemble.coupled_cov
    n, groups, s = ensemble.n_agents, cov.shape[0], cov.shape[1]
    noise = _noise_blocks(ensemble, solutions).transpose(1, 0, 2, 3, 4)
    stack = np.concatenate((noise.reshape(n, -1, s, s), cov.transpose(3, 0, 1, 2)), axis=1)
    mixed = ((g.eigenvectors**2).T @ stack.reshape(n, -1)).reshape(stack.shape)
    noise = mixed[:, :-groups].reshape(noise.shape).transpose(1, 0, 2, 3, 4)
    stiff = etas[:, None, None, None, None] * g.eigenvalues[:, None, None, None] * np.eye(s)
    solved = _lu_solve(mixed[:, -groups:] + stiff, noise)
    return mu / (2.0 * n) * np.trace(solved, axis1=3, axis2=4).sum(axis=2)


def msd_noncoop(ensemble: TaskEnsemble, mu: float) -> float:
    """Steady-state deviation when every node adapts alone (no combine step).

    Each node contributes mu/2 * Tr(H_k^{-1} R_{s,k}) evaluated at its own
    target, which for the built-in quadratic model (R_{s,k} = sigma_v,k^2 H_k)
    is mu * M * sigma_v,k^2 / 2; the network value is their mean.
    """
    mu = check_real("mu", mu, positive=True)
    return mu * ensemble.dim * float(ensemble.noise_var.mean()) / 2.0


def _reports(
    ensemble: TaskEnsemble, g: Graph, mu: float, regs: list, biases: np.ndarray
) -> list[TheoryReport]:
    """The reports at admissible points (mu, reg.eta), given each W0_eta and
    its bias (one row of biases each), with one batched per-frequency pass."""
    etas = np.array([reg.eta for reg in regs])
    terms = _per_frequency_terms(ensemble, g, mu, etas, np.array([r.solution.blocks for r in regs]))
    n, noncoop, reports = ensemble.n_agents, msd_noncoop(ensemble, mu), []
    for reg, bias, msd in zip(regs, biases, terms):
        total = float(msd.sum())
        cross = 2.0 / n * float((ensemble.targets.values - reg.solution.values) @ bias)
        reports.append(TheoryReport(
            mu=mu, eta=reg.eta, msd_total=total, msd_per_frequency=msd, msd_noncoop=noncoop,
            msd_bar=total + reg.mismatch_sq / n + cross, mismatch_sq=reg.mismatch_sq,
            bias_cross_term=cross, solution=reg.solution, bias_vector=bias,
            bias_sq_norm=float(bias @ bias),
        ))
    return reports


def theory_report(ensemble: TaskEnsemble, g: Graph, mu: float, eta: float) -> TheoryReport:
    """Steady-state predictions at one (mu, eta) point.

    Checks the step-size conditions once (raising UnstableConfiguration when
    any fails) and solves the regularized problem once; every field of the
    report reads that one solution.
    """
    _require_stable(ensemble, g, mu, eta)
    mu = float(mu)  # the admitted value, so a numpy scalar computes as a Python float
    reg = solve_regularized(ensemble, g, eta)
    return _reports(ensemble, g, mu, [reg], _long_term_bias(ensemble, g, mu, reg)[None])[0]


#: positive etas from which optimize_eta takes the grid route: one eigh of an
#: N x N pencil costs about as much as 8 LU solves of the same size (measured
#: eigh/LU ratios 8.1 at N=50 and N=150, 7.6 at N=400, 8.4 at N=1000, with
#: one BLAS thread), and each eta of the per-point route pays one of each pair
GRID_ROUTE_ETAS = 8


def _pencil_solve(lap: np.ndarray, d: np.ndarray, etas: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """(eta L + diag(d))^-1 rhs at every eta of etas, for a positive d, from one
    eigh of D^-1/2 L D^-1/2 = Q diag(theta) Q'.  rhs is (N, E, k), or (N, 1, k)
    when it is the same at every eta; the result is (N, E, k)."""
    n, root = len(d), np.sqrt(d)[:, None, None]
    try:
        theta, q = np.linalg.eigh(lap / root[:, :, 0] / root[:, 0, 0])
    except np.linalg.LinAlgError:  # the pencil overflows
        raise SingularSystem("a pencil D^-1/2 L D^-1/2 cannot be decomposed") from None
    coef = (q.T @ (rhs / root).reshape(n, -1)).reshape(rhs.shape)
    # L is PSD, so theta >= 0 up to rounding and every eta * theta + 1 >= 1
    coef = coef / (np.maximum(theta, 0.0)[:, None, None] * etas[:, None] + 1.0)
    return (q @ coef.reshape(n, -1)).reshape(coef.shape) / root


def _grid_reports(ensemble: TaskEnsemble, g: Graph, mu: float, grid: np.ndarray) -> list:
    """theory_report at every eta of an admissible grid with grid[0] = 0, for
    diagonal covariances H_g = diag(h) with mu * max h < 1.  Per group, the
    pencil (L, H_g) gives W0_eta at every positive eta, and (L, H'_g), H'_g =
    H_g (I - mu H_g)^-1, the bias: _long_term_bias's system is mu (eta L +
    H'_g)(I - mu H_g) x = rhs.  SingularSystem when a result is not finite."""
    n, m, lap, etas = ensemble.n_agents, ensemble.dim, g.laplacian, grid[1:]
    diags = ensemble.coupled_cov[:, 0, 0]  # (G, N)
    w0 = ensemble.targets.blocks.reshape(n, 1, len(diags), -1)  # [a, eta, g, c]
    sol, bias = np.empty((2, n, len(etas), *w0.shape[2:]))
    for j, h in enumerate(diags):
        with np.errstate(all="ignore"):  # a non-finite result is reported below
            sol[:, :, j] = _pencil_solve(lap, h, etas, h[:, None, None] * w0[:, :, j])
            rhs = (lap @ (lap @ sol[:, :, j].reshape(n, -1))).reshape(n, len(etas), -1)
            rhs *= ((mu * etas) ** 2)[:, None]
            step = (1.0 - mu * h)[:, None, None]
            bias[:, :, j] = _pencil_solve(lap, h / step[:, 0, 0], etas, rhs) / (mu * step)
    if not (np.all(np.isfinite(sol)) and np.all(np.isfinite(bias))):
        raise SingularSystem("a grid solution or bias is not finite")
    regs = [_regularized(ensemble, 0.0, ensemble.targets.blocks)]
    regs += [_regularized(ensemble, float(e), sol[:, i].reshape(n, m)) for i, e in enumerate(etas)]
    biases = np.concatenate((np.zeros((1, n * m)), bias.transpose(1, 0, 2, 3).reshape(-1, n * m)))
    return _reports(ensemble, g, mu, regs, biases)


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
    smallest eta.  The grid must be a nonempty, strictly ascending sequence of
    etas that contains 0, so the non-cooperative corner is always a candidate.
    Each report is theory_report's at its point, or on the grid route (diagonal
    covariances, mu * max h < 1, at least GRID_ROUTE_ETAS positive etas) the
    same values to rounding, from one eigendecomposition per group and pencil.
    """
    grid = np.array([check_real("eta", eta, positive=False) for eta in grid])
    if grid.size == 0:
        raise InvalidArgument("eta grid must be nonempty")
    if np.any(grid[1:] <= grid[:-1]):
        raise InvalidArgument("eta grid must be strictly ascending")
    if grid[0] != 0.0:
        raise InvalidArgument("eta grid must include 0")
    if (
        ensemble.coupled_cov.shape[1] == 1  # diagonal covariances
        and np.count_nonzero(grid) >= GRID_ROUTE_ETAS
        and check_real("mu", mu, positive=True) * ensemble.regressor_eigvals.max() < 1.0
    ):
        for eta in grid:
            _require_stable(ensemble, g, mu, eta)
        reports = tuple(_grid_reports(ensemble, g, float(mu), grid))
    else:
        reports = tuple(theory_report(ensemble, g, mu, float(eta)) for eta in grid)
    values = np.array([r.msd_bar for r in reports])
    best = int(np.argmin(values))  # first minimum = smallest eta on ties
    return EtaSweep(eta_star=float(grid[best]), etas=grid, msd_bar_curve=values, reports=reports)


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
        surface[i] = [b @ b for b in (_long_term_bias(ensemble, g, float(mu), reg) for mu in mus)]
    return surface
