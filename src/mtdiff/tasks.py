"""Per-node least-mean-squares learning tasks and target synthesis.

Each node k estimates its own target vector w0_k from scalar observations
d = u . w0_k + v, where the row regressor u is zero-mean Gaussian with
covariance R_uk and v is independent zero-mean Gaussian measurement noise.
The ensemble also synthesizes families of targets whose variation across the
graph is controlled in the graph-frequency domain, which is what makes
cooperation between neighbors worthwhile in the first place.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, InvalidArgument, MtdiffError
from .graphs import Graph, StackedSignal


@dataclass(frozen=True, eq=False)
class TaskEnsemble:
    """Immutable bundle of N regression tasks of common dimension M.

    regressor_cov has shape (N, M, M) with SPD slices; noise_var holds the
    per-node observation-noise variances.  Cholesky factors are cached at
    construction both to validate positive definiteness and to make sampling
    cheap; regressor_eigvals (N, M) holds each covariance's ascending
    eigenvalues, the curvature spectrum that step-size bounds read, and
    coupled_cov the covariances grouped by coupled components (see
    _coupled_covariances), the layout every steady-state solve reads.
    """

    targets: StackedSignal
    regressor_cov: np.ndarray
    noise_var: np.ndarray
    regressor_eigvals: np.ndarray = field(init=False, repr=False)
    coupled_cov: np.ndarray = field(init=False, repr=False)
    _chol: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        covs = np.asarray(self.regressor_cov, dtype=float)
        nv = np.asarray(self.noise_var, dtype=float).reshape(-1)
        n, m = self.targets.n_agents, self.targets.block_dim
        if covs.shape != (n, m, m):
            raise DimensionMismatch(
                f"regressor_cov must have shape {(n, m, m)}, got {covs.shape}"
            )
        if nv.shape != (n,):
            raise DimensionMismatch(f"noise_var must have {n} entries, got {nv.shape}")
        if not (np.all(np.isfinite(covs)) and np.all(np.isfinite(nv))):
            raise MtdiffError("regressor covariances and noise variances must be finite")
        if np.any(nv <= 0.0):
            raise MtdiffError("every noise variance must be positive")
        sym_err = float(np.max(np.abs(covs - covs.transpose(0, 2, 1))))
        if sym_err > 1e-10:
            raise MtdiffError(f"regressor covariance asymmetry {sym_err:.3e}")
        with np.errstate(over="ignore"):  # an overflow is reported below
            covs = 0.5 * (covs + covs.transpose(0, 2, 1))
        if not np.all(np.isfinite(covs)):
            raise MtdiffError("regressor covariances overflow; scale them down")
        try:
            chol = np.linalg.cholesky(covs)
            eigvals = np.linalg.eigvalsh(covs)
        except np.linalg.LinAlgError as exc:
            raise MtdiffError(f"regressor covariances must be positive definite: {exc}") from exc
        coupled = _coupled_covariances(covs)
        for arr in (covs, nv, eigvals, coupled, chol):
            arr.setflags(write=False)
        object.__setattr__(self, "regressor_cov", covs)
        object.__setattr__(self, "noise_var", nv)
        object.__setattr__(self, "regressor_eigvals", eigvals)
        object.__setattr__(self, "coupled_cov", coupled)
        object.__setattr__(self, "_chol", chol)

    @property
    def n_agents(self) -> int:
        return self.targets.n_agents

    @property
    def dim(self) -> int:
        return self.targets.block_dim

    @property
    def is_uniform(self) -> bool:
        """True when every node shares the same regressor covariance."""
        return bool(np.all(self.regressor_cov == self.regressor_cov[0]))


def _coupled_covariances(covs: np.ndarray) -> np.ndarray:
    """The (N, M, M) covariances over G groups of s coupled components, as a
    (G, s, s, N) stack with entry [g, k, l, a] = R_ua[j, j'] for components
    j = (g*s + k)*r + c and j' = (g*s + l)*r + c, where r = M / (G*s).

    s = 1 when every R_uk is exactly diagonal, with G = 1 if the M diagonals
    are equal, else G = M; otherwise s = M (one group).  The stack is
    C-contiguous, so the system matrices built from it are too.
    """
    diag = np.diagonal(covs, axis1=1, axis2=2)
    if not np.array_equal(covs, diag[:, :, None] * np.eye(covs.shape[1])):
        return np.ascontiguousarray(covs.transpose(1, 2, 0)[None])
    diag = diag[:, :1] if np.all(diag == diag[:, :1]) else diag
    return np.ascontiguousarray(diag.T[:, None, None, :])


def make_smooth_target(g: Graph, tau: np.ndarray, dim: int) -> StackedSignal:
    """Synthesize targets whose graph-frequency content decays like exp(-tau_j * lambda_m).

    Component j of frequency block m is exp(-tau[j] * lambda_m) / sqrt(M), so
    tau = 0 gives unit-norm content at every frequency (an all-pass family)
    while large tau concentrates energy at the low-frequency end, i.e. targets
    that vary slowly across the graph.
    """
    tau = np.asarray(tau, dtype=float).reshape(-1)
    if tau.size != dim:
        raise DimensionMismatch(f"tau must have {dim} entries, got {tau.size}")
    if not np.all(np.isfinite(tau) & (tau >= 0.0)):
        raise MtdiffError("tau entries must be finite and nonnegative")
    spectral = np.exp(-g.eigenvalues[:, None] * tau[None, :]) / np.sqrt(dim)  # (N, M)
    return StackedSignal.from_blocks(g.eigenvectors @ spectral)


def uniform_profile(
    targets: StackedSignal,
    *,
    sigma_u_sq: float = 1.0,
    sigma_v_sq: float = 0.1,
) -> TaskEnsemble:
    """Every node gets R_u = sigma_u_sq * I and the same noise variance."""
    n = targets.n_agents
    return scalar_profile(
        targets, np.full(n, float(sigma_u_sq)), np.full(n, float(sigma_v_sq))
    )


def scalar_profile(
    targets: StackedSignal,
    sigma_u_sq: np.ndarray,
    sigma_v_sq: np.ndarray,
) -> TaskEnsemble:
    """Per-node isotropic covariances R_uk = sigma_u_sq[k] * I."""
    n, m = targets.n_agents, targets.block_dim
    su = np.asarray(sigma_u_sq, dtype=float).reshape(-1)
    if su.size != n:
        raise DimensionMismatch(f"sigma_u_sq must have {n} entries, got {su.size}")
    covs = np.zeros((n, m, m))
    covs[:, np.arange(m), np.arange(m)] = su[:, None]  # no inf * 0 off the diagonal
    return TaskEnsemble(targets, covs, np.asarray(sigma_v_sq, dtype=float))


def varying_profile(
    targets: StackedSignal,
    *,
    seed: int,
    sigma_u_sq_range: tuple[float, float] = (0.8, 1.2),
    sigma_v_sq_range: tuple[float, float] = (0.05, 0.15),
) -> TaskEnsemble:
    """Seeded heterogeneous scalar profile.

    Per-node regressor powers and noise variances are drawn uniformly from the
    given ranges.  This is a documented stand-in for heterogeneous hardware:
    the reference experiment publishes its per-node variances only as a plot,
    so the exact values are not reproducible and we settle for "same flavor,
    fixed seed".  InvalidArgument unless seed is an integer >= 0.
    """
    if not (isinstance(seed, numbers.Integral) and seed >= 0):
        raise InvalidArgument(f"seed must be an integer >= 0, got {seed!r}")
    rng = np.random.default_rng(seed)
    n = targets.n_agents
    su = rng.uniform(*sigma_u_sq_range, size=n)
    sv = rng.uniform(*sigma_v_sq_range, size=n)
    return scalar_profile(targets, su, sv)
