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
its covariances.  The curvature at each frequency is block-diagonal over the
groups, so its trace needs only the matching (s, s) blocks of the noise,
summed over the r copies: N * G solves of size s.

One function, _solve, builds and solves both systems for a set of etas: the
mismatch W0 - W0_eta, from (H + eta * (L kron I)) d = eta * (L kron I) W0 so
that no caller subtracts two nearly equal vectors at small eta, and given it
the bias at one mu.  theory_report, optimize_eta and bias_surface call it, and
the engine reads theory_report.  Its inputs pick its route.  Each stack is
certified well conditioned from the curvature spectrum (and lambda_max(L) for
the mismatch), without a factorization.  With at least GRID_ROUTE_ETAS positive
etas, mu * max h <= 1/2 and that certificate, D = H_g (I - mu H_g)^-1 = C C' is
factored node by node and one eigendecomposition of each group's whitened
pencil C^-1 (I_s kron L) C^-T serves every eta, for every covariance profile.
Otherwise each eta's groups form one stack of sN x sN systems with r right-hand
sides each, solved one eta at a time so that memory does not grow with the
grid: isotropic R_uk = sigma_k^2 I (every bundled config) give one N x N
system, other diagonal R_uk M, and any other covariance one (NM) x (NM) system.
A certified mismatch stack takes one LU solve; one the bound cannot certify is
solved through a symmetric eigendecomposition, which raises SingularSystem when
it is numerically singular.  The one real-number rule, check_real, admits a
finite mu > 0 and a finite eta >= 0 (Python or numpy reals but not bools,
handed back as Python floats) and nothing else; each entry point and the
engine's SimConfig check only the scalars they take.
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


def _require_stable(ensemble: TaskEnsemble, g: Graph, mus: Sequence, etas: Sequence) -> None:
    for eta in etas:
        for mu in mus:
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


def _certified(kappa: float, n: int) -> bool:
    """Whether floating-point Cholesky provably completes on every n x n SPD
    matrix of 2-norm condition number at most kappa (see _spd_solve)."""
    return kappa * n * (n + 1) * _UNIT_ROUNDOFF <= 0.5


def _spd_solve(mat: np.ndarray, rhs: np.ndarray, kappa: float) -> np.ndarray:
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
    if _certified(kappa, mat.shape[-1]):
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


#: positive etas from which _solve takes its pencil route: one eigh of an
#: sN x sN pencil costs about as much as 8 LU solves of the same size (eigh/LU
#: 8.1 at sN=50 and 150, 7.6 at 400, 8.4 at 1000, 6.4-7 at 750 with full
#: covariances, one BLAS thread), and the LU route pays one solve per eta
GRID_ROUTE_ETAS = 8


def _solve(
    ensemble: TaskEnsemble, g: Graph, etas: np.ndarray, mu: float = 0.0, mismatches=None
) -> np.ndarray:
    """The mismatch W0 - W0_eta at every eta of etas (E,) when mu = 0;
    otherwise, given those mismatches, the steady-state mean offset
    E[W0_eta - W_inf] of the adaptive recursion at each admissible (mu, eta).
    Both come back as (E, N, M) blocks in node order, zero at eta = 0.

    Each coupled group g solves (c eta (I_s kron L)(I - mu H_g) + c H_g) x_g =
    rhs_g: the mismatch with c = 1 and rhs = eta (L kron I) W0, and the offset,
    the fixed point of the noise-free error recursion, with c = mu and rhs =
    mu^2 eta^2 (L kron I)^2 W0_eta, its matrix formed so rather than as
    I - (I - mu eta L kron I)(I - mu H).  The route is the module docstring's.
    SingularSystem when eta * lambda_max(L) or the mismatch's right-hand side
    overflows, or when a solution is not finite.
    """
    n, m, lap, cov = ensemble.n_agents, ensemble.dim, g.laplacian, ensemble.coupled_cov
    groups, s, values = *cov.shape[:2], etas.tolist()
    if not values or 0.0 in values:  # eta = 0 gives a zero mismatch and offset unsolved
        out = np.zeros((len(etas), n, m))
        pos = np.flatnonzero(etas)
        if len(pos):
            out[pos] = _solve(ensemble, g, etas[pos], mu, mismatches[pos] if mu else None)
        return out
    e, top = len(etas), max(values)
    curv = ensemble.regressor_eigvals
    r_min, r_max = float(curv.min()), float(curv.max())
    step = np.eye(s)[:, :, None] - mu * cov  # I - mu H_g, I for the mismatch
    if mu:  # the bias, at etas whose mismatch is already solved
        w0_eta = ensemble.targets.blocks - mismatches
        # squared by libm's pow, as a Python float is: numpy's square can differ
        rhs = np.float_power(mu * etas, 2)[:, None, None] * (lap @ (lap @ w0_eta))
        tops = [2.0 * r_max]  # D below has its spectrum in [r_min, 2 r_max] if mu r_max <= 1/2
    else:
        with np.errstate(all="ignore"):  # reported below
            rhs = etas[:, None, None] * (lap @ ensemble.targets.blocks)
        if not (math.isfinite(top * g.lambda_max) and np.all(np.isfinite(rhs))):
            raise SingularSystem(f"eta * lambda_max(L) or eta * L W0 overflows at eta={top!r}")
        # Weyl: L is PSD and the spectrum of H_g lies in [r_min, r_max]
        tops = [eta * g.lambda_max + r_max for eta in values]
    rhs = rhs.reshape(e, n, groups, s, -1).transpose(0, 2, 3, 1, 4)  # [e, g, l, a, c]
    kappas = [t / r_min if r_min > 0.0 else math.inf for t in tops]
    c = mu or 1.0
    # as at one eta, an uncertified mismatch stack takes _spd_solve's singularity check
    if e >= GRID_ROUTE_ETAS and mu * r_max <= 0.5 and _certified(max(kappas), s * n):
        # per group c (eta I_s kron L + D)(I - mu H_g) x = rhs with D = H_g (I - mu H_g)^-1
        # = C C' node by node, from one eigh of C^-1 (I_s kron L) C^-T = Q diag(theta) Q'
        step, cov = step.transpose(0, 3, 1, 2), cov.transpose(0, 3, 1, 2)  # (G, N, s, s)
        with np.errstate(all="ignore"):  # a non-finite result is reported below
            try:
                w = np.linalg.inv(np.linalg.cholesky(np.linalg.solve(step, cov)))  # C^-1
                pencils = np.einsum("gakj,ab,gblj->gakbl", w, lap, w).reshape(groups, n * s, -1)
                theta, q = np.linalg.eigh(pencils)
            except np.linalg.LinAlgError:  # a factor or a pencil overflows
                raise SingularSystem("a whitened pencil cannot be decomposed") from None
            y = np.einsum("gakl,eglac->gakec", w, rhs)  # (G, N, s, E, r)
            y = (np.swapaxes(q, 1, 2) @ y.reshape(groups, n * s, -1)).reshape(y.shape)
            # L is PSD, so theta >= 0 up to rounding and every eta * theta + 1 >= 1
            y = y / (np.maximum(theta, 0.0).reshape(groups, n, s, 1, 1) * etas[:, None] + 1.0)
            y = (q @ y.reshape(groups, n * s, -1)).reshape(y.shape)
            back = np.linalg.solve(step, np.swapaxes(w, 2, 3))  # (I - mu H_g)^-1 C^-T
            x = np.einsum("gakl,galec->eagkc", back, y) / c
        if not np.all(np.isfinite(x)):
            raise SingularSystem("a pencil solution is not finite")
        return x.reshape(e, n, m)
    out = np.empty((e, n, m))
    for i, eta in enumerate(values):  # one (G, sN, sN) stack in memory at a time
        mats = (c * eta) * lap[:, None, :] * step[:, :, None]
        np.einsum("gkala->gkla", mats)[...] += c * cov  # einsum gives a writable diagonal view
        mats = mats.reshape(groups, s * n, s * n)
        b = rhs[i].reshape(groups, s * n, -1)
        x = _lu_solve(mats, b) if mu else _spd_solve(mats, b, kappas[i])
        out[i] = x.reshape(groups, s, n, -1).transpose(2, 0, 1, 3).reshape(n, m)
    return out


def _regularized(ensemble: TaskEnsemble, eta: float, delta: np.ndarray) -> RegularizedSolution:
    sol = StackedSignal.from_blocks(ensemble.targets.blocks - delta)
    return RegularizedSolution(eta=eta, solution=sol, mismatch_sq=float(np.vdot(delta, delta)))


def solve_regularized(ensemble: TaskEnsemble, g: Graph, eta: float) -> RegularizedSolution:
    """Minimize the regularized network cost at penalty strength eta >= 0.

    eta = 0 returns the per-node targets, and a growing eta pulls every block
    toward the consensus solution; SingularSystem when eta * lambda_max(L) overflows.
    """
    _check_signal(ensemble.targets, g)
    eta = check_real("eta", eta, positive=False)
    return _regularized(ensemble, eta, _solve(ensemble, g, np.array([eta]))[0])


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


def _noise_blocks(ensemble: TaskEnsemble, delta: np.ndarray) -> np.ndarray:
    """Limiting gradient-noise covariance of every node as (..., N, G, s, s)
    blocks, from the mismatch W0 - W0_eta as (..., N, M) blocks: each coupled
    group's (s, s) diagonal block, summed over its r copies (for full
    covariances [k, 0] is node k's whole M x M covariance).

    For Gaussian regressors node k's covariance is R W R + R * Tr(R W) +
    sigma_v^2 R, where W = d d' for the node's mismatch d, so R W R =
    (R d)(R d)' and Tr(R W) = d' R d.  At eta = 0 d = 0 and only the
    sigma_v^2 R floor remains.  SingularSystem when a covariance overflows.
    """
    cov = ensemble.coupled_cov
    groups, s = cov.shape[:2]
    r = ensemble.dim // (groups * s)
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        r_delta = np.einsum("kij,...kj->...ki", ensemble.regressor_cov, delta)
        scale = np.einsum("...ki,...ki->...k", delta, r_delta) + ensemble.noise_var
        r_delta = r_delta.reshape(*delta.shape[:-1], groups, s, r)
        outer = np.einsum("...agkc,...aglc->...agkl", r_delta, r_delta)
        blocks = outer + (r * scale)[..., None, None, None] * cov.transpose(3, 0, 1, 2)
    if not np.all(np.isfinite(blocks)):
        raise SingularSystem("the gradient-noise covariance overflows")
    return blocks


def _per_frequency_terms(
    ensemble: TaskEnsemble, g: Graph, mu: float, etas: np.ndarray, deltas: np.ndarray
) -> np.ndarray:
    """Summands of the steady-state predictor, one per eta of etas (E,) and
    graph frequency m, from the mismatches W0 - W0_eta as (E, N, M) blocks:
    mu/(2N) * Tr(C_m^{-1} N_m), C_m = sum_k v_m(k)^2 R_k + eta lambda_m I and
    N_m the same mixture of the noise covariances, all mixed in one product.
    C_m is block-diagonal over the coupled groups and the trace is linear in
    N_m, so each group needs its copy-summed noise block alone: E * N * G solves.
    """
    cov = ensemble.coupled_cov
    n, groups, s = ensemble.n_agents, cov.shape[0], cov.shape[1]
    noise = _noise_blocks(ensemble, deltas).transpose(1, 0, 2, 3, 4)
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


def _reports(ensemble: TaskEnsemble, g: Graph, mu: float, etas: Sequence) -> list[TheoryReport]:
    """The report at (mu, eta) for every eta of etas: every point is checked
    first, then one mismatch solve, one bias solve and one per-frequency pass
    serve them all.  They compute with the admitted values as Python floats."""
    _require_stable(ensemble, g, [mu], etas)
    mu, etas = float(mu), np.array(etas, dtype=float)
    deltas = _solve(ensemble, g, etas)
    biases = _solve(ensemble, g, etas, mu, deltas).reshape(len(etas), -1)
    terms = _per_frequency_terms(ensemble, g, mu, etas, deltas)
    n, noncoop, reports = ensemble.n_agents, msd_noncoop(ensemble, mu), []
    for eta, delta, bias, msd in zip(etas, deltas, biases, terms):
        reg = _regularized(ensemble, float(eta), delta)
        total = float(msd.sum())
        cross = 2.0 / n * float(delta.ravel() @ bias)
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
    return _reports(ensemble, g, mu, [eta])[0]


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
    Every point is checked before anything is solved; one batched solve over
    the grid (_solve) gives theory_report's values, to rounding on its pencil
    route.
    """
    grid = np.array([check_real("eta", eta, positive=False) for eta in grid])
    if grid.size == 0:
        raise InvalidArgument("eta grid must be nonempty")
    if np.any(grid[1:] <= grid[:-1]):
        raise InvalidArgument("eta grid must be strictly ascending")
    if grid[0] != 0.0:
        raise InvalidArgument("eta grid must include 0")
    reports = tuple(_reports(ensemble, g, mu, grid))
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
    raises UnstableConfiguration without a solve.  The mismatch does not depend
    on mu, so it is solved once for all etas, and the bias once per mu.
    """
    _require_stable(ensemble, g, mus, etas)
    etas = np.array([check_real("eta", eta, positive=False) for eta in etas])
    deltas = _solve(ensemble, g, etas)
    surface = np.empty((len(etas), len(mus)))
    for j, mu in enumerate(mus):
        biases = _solve(ensemble, g, etas, check_real("mu", mu, positive=True), deltas)
        surface[:, j] = [b.ravel() @ b.ravel() for b in biases]
    return surface
