"""Independent oracle routines used by the test suite.

Everything in this file is deliberately written *without* calling the package
code it is used to check.  The eigenvalue oracle goes through the
characteristic polynomial, the regularized-solution oracles through plain batch
gradient descent, through one explicit dense (NM) x (NM) solve and, for
uniform profiles, through per-frequency filtering, the noise-covariance oracle
through brute-force sampling, the steady-state bias oracle through the
noise-free recursion itself, the steady-state MSD oracles through the full
matrix series, through the uniform-profile per-frequency sum and through
dense M x M per-frequency solves, the non-cooperative MSD through its trace
formula, the replay oracle's sampler through its own Cholesky factors, and the
eigenvector sign convention through a per-column loop.
Keep it that way: the moment an oracle shares a code path with the production
routine, the corresponding test stops being evidence.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np


def charpoly_coefficients(mat: np.ndarray) -> np.ndarray:
    """Coefficients of det(xI - mat) via the Faddeev-LeVerrier recursion.

    Returns c of length n+1 with the convention
    det(xI - mat) = c[0]*x^n + c[1]*x^(n-1) + ... + c[n],  c[0] = 1.
    Pure matrix arithmetic; no eigenvalue routine involved.
    """
    n = mat.shape[0]
    c = np.zeros(n + 1)
    c[0] = 1.0
    mk = np.zeros_like(mat)
    for k in range(1, n + 1):
        mk = mat @ mk + c[k - 1] * np.eye(n)
        c[k] = -np.trace(mat @ mk) / k
    return c


def _polyval(c: np.ndarray, x: float) -> float:
    acc = 0.0
    for ck in c:
        acc = acc * x + ck
    return acc


def charpoly_eigenvalues(mat: np.ndarray, *, samples: int = 40001) -> np.ndarray:
    """All eigenvalues of a small symmetric PSD matrix by root bracketing.

    Works by evaluating the characteristic polynomial on a dense grid over the
    Gershgorin interval and bisecting every sign change.  Intended for the
    n <= 4 graph Laplacians used as eigensolver cross-checks; assumes simple
    roots apart from the structural zero, which is deflated exactly.
    """
    n = mat.shape[0]
    if n == 1:
        return np.array([float(mat[0, 0])])
    c = charpoly_coefficients(mat)
    # Laplacians are singular by construction: deflate the exact zero root so
    # bracketing never has to straddle a tangency at the origin.
    deflate_zero = abs(c[-1]) < 1e-9 * max(1.0, np.abs(c).max())
    if deflate_zero:
        c = c[:-1]
    hi = float(np.max(np.sum(np.abs(mat), axis=1))) + 1.0
    xs = np.linspace(-1e-6, hi, samples)
    vals = np.array([_polyval(c, x) for x in xs])
    roots = []
    for i in range(len(xs) - 1):
        a, b = vals[i], vals[i + 1]
        if a == 0.0:
            roots.append(xs[i])
            continue
        if a * b < 0.0:
            lo_x, hi_x = xs[i], xs[i + 1]
            for _ in range(200):
                mid = 0.5 * (lo_x + hi_x)
                fm = _polyval(c, mid)
                if fm == 0.0:
                    break
                if fm * _polyval(c, lo_x) < 0.0:
                    hi_x = mid
                else:
                    lo_x = mid
            roots.append(0.5 * (lo_x + hi_x))
    if vals[-1] == 0.0:
        roots.append(xs[-1])
    if deflate_zero:
        roots.append(0.0)
    out = np.sort(np.array(roots))
    return out


def batch_gd_minimize(
    covs: np.ndarray,
    targets: np.ndarray,
    laplacian: np.ndarray,
    eta: float,
    *,
    tol: float = 1e-12,
    max_iters: int = 2_000_000,
) -> np.ndarray:
    """Minimize sum_k 1/2 (w_k-w0_k)' R_k (w_k-w0_k) + eta/2 * smoothness.

    Plain full-gradient descent with a Gershgorin-safe constant step, run until
    the gradient norm falls below tol * (1 + initial gradient norm).  This is
    the reference the closed-form solver is judged against, so it must not use
    any linear solve.

    covs: (N, M, M) per-agent SPD matrices; targets: (N, M); laplacian: (N, N).
    Returns the minimizer as an (N, M) array.
    """
    n, m = targets.shape
    lip_local = max(float(np.max(np.sum(np.abs(covs[k]), axis=1))) for k in range(n))
    lip_lap = float(np.max(np.sum(np.abs(laplacian), axis=1)))
    step = 1.0 / (lip_local + eta * lip_lap + 1e-12)

    w = np.zeros((n, m))
    diff = w - targets
    grad = np.einsum("kij,kj->ki", covs, diff) + eta * (laplacian @ w)
    g0 = np.linalg.norm(grad)
    threshold = tol * (1.0 + g0)
    for _ in range(max_iters):
        w = w - step * grad
        diff = w - targets
        grad = np.einsum("kij,kj->ki", covs, diff) + eta * (laplacian @ w)
        if np.linalg.norm(grad) <= threshold:
            break
    return w


def dense_regularized_solution(
    covs: np.ndarray, targets: np.ndarray, laplacian: np.ndarray, eta: float
) -> np.ndarray:
    """Minimizer of the same objective from the explicit (NM) x (NM) system.

    Builds blockdiag{R_k} and L kron I entry by entry and solves
    (H + eta L kron I) w = H w0 with one general dense solve, whatever the
    covariances look like.  Returns the minimizer as an (N, M) array.
    """
    n, m = targets.shape
    hess = np.zeros((n * m, n * m))
    for k in range(n):
        hess[k * m : (k + 1) * m, k * m : (k + 1) * m] = covs[k]
    lap = np.kron(laplacian, np.eye(m))
    w = np.linalg.solve(hess + eta * lap, hess @ targets.reshape(-1))
    return w.reshape(n, m)


def pareto_solution(covs: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Common vector minimizing sum_k J_k(w): the covariance-weighted mean
    (sum_k R_k)^{-1} sum_k R_k w0_k, which every block of the regularized
    solution approaches as the penalty grows without bound."""
    return np.linalg.solve(covs.sum(axis=0), np.einsum("kij,kj->i", covs, targets))


def spectral_filter_solution(ensemble, g, eta: float) -> np.ndarray:
    """Graph-frequency blocks of the regularized solution for a uniform profile.

    With a common covariance R_u the problem decouples across graph
    frequencies: block m is (eta * lambda_m I + R_u)^{-1} R_u applied to block
    m of the targets' transform.  Returns the (N, M) array of filtered blocks.
    """
    r_u = ensemble.regressor_cov[0]
    target_bar = g.eigenvectors.T @ ensemble.targets.blocks
    out = np.empty_like(target_bar)
    for m, lam in enumerate(g.eigenvalues):
        out[m] = np.linalg.solve(eta * lam * np.eye(r_u.shape[0]) + r_u, r_u @ target_bar[m])
    return out


def gradient_noise_covariances(ensemble, solution: np.ndarray) -> list[np.ndarray]:
    """R W R + R Tr(R W) + sigma_v^2 R per node, with W = d d' for the
    mismatch d between the node's target and its block of `solution`."""
    out = []
    for k in range(ensemble.n_agents):
        r = ensemble.regressor_cov[k]
        d = ensemble.targets.blocks[k] - solution[k]
        rw = r @ np.outer(d, d)
        out.append(rw @ r + r * float(np.trace(rw)) + ensemble.noise_var[k] * r)
    return out


def uniform_msd(ensemble, g, mu: float, eta: float) -> float:
    """Uniform-profile steady-state MSD as a per-frequency sum.

    With a common R_u the curvature at frequency m is R_u + eta * lambda_m I,
    so the MSD is mu/(2N) * sum_m Tr((R_u + eta lambda_m I)^{-1} S_m) with
    S_m = sum_k v_m(k)^2 R_s,k.  The gradient-noise covariances R_s,k are
    evaluated at the dense_regularized_solution point.
    """
    n, m = ensemble.n_agents, ensemble.dim
    covs, targets = ensemble.regressor_cov, ensemble.targets.blocks
    w = dense_regularized_solution(covs, targets, g.laplacian, eta)
    noise = gradient_noise_covariances(ensemble, w)
    r_u = covs[0]
    total = 0.0
    for i, lam in enumerate(g.eigenvalues):
        s_m = sum(g.eigenvectors[k, i] ** 2 * noise[k] for k in range(n))
        total += float(np.trace(np.linalg.solve(r_u + eta * lam * np.eye(m), s_m)))
    return mu / (2.0 * n) * total


def dense_frequency_msd(
    ensemble, g, mu: float, eta: float, solution: np.ndarray
) -> np.ndarray:
    """Per-frequency steady-state MSD terms from dense M x M matrices.

    Term m is mu/(2N) * Tr(C_m^{-1} N_m) with C_m = sum_k v_m(k)^2 R_k +
    eta * lambda_m I and N_m = sum_k v_m(k)^2 R_s,k, whatever the covariances
    look like; the gradient-noise covariances R_s,k are evaluated at the
    (N, M) `solution`.  Returns the length-N array of terms.
    """
    n, m = ensemble.n_agents, ensemble.dim
    weights = (g.eigenvectors**2).T  # [frequency, node]
    node_noise = np.stack(gradient_noise_covariances(ensemble, solution))
    noise = np.einsum("mk,kij->mij", weights, node_noise)
    curvature = np.einsum("mk,kij->mij", weights, ensemble.regressor_cov)
    curvature += eta * g.eigenvalues[:, None, None] * np.eye(m)
    return mu / (2.0 * n) * np.trace(np.linalg.solve(curvature, noise), axis1=1, axis2=2)


def noncoop_trace_msd(ensemble, mu: float) -> float:
    """Non-cooperative steady-state MSD as mu/(2N) * sum_k Tr(R_k^{-1} R_s,k)
    with R_s,k = sigma_v,k^2 R_k, the noise floor at each node's own target."""
    covs = ensemble.regressor_cov
    r_s = ensemble.noise_var[:, None, None] * covs
    total = float(np.trace(np.linalg.solve(covs, r_s), axis1=1, axis2=2).sum())
    return mu / (2.0 * ensemble.n_agents) * total


def lyapunov_msd(
    ensemble, g, mu: float, eta: float, *, tol: float = 1e-14, max_terms: int = 1_000_000
) -> float:
    """Steady-state MSD via the full matrix series.

    Sums (1/N) * Tr(B^n Y B'^n) over n for the closed-loop matrix
    B = (I - mu*eta*L)(I - mu*H) and the injected-noise covariance
    Y = mu^2 (I - mu*eta*L) S (I - mu*eta*L), with S = blockdiag{R_s,k} at the
    dense_regularized_solution point, truncating once a term's trace falls
    below tol.  Cost grows with (N*M)^3 per term, so keep N*M small.
    """
    n, m = ensemble.n_agents, ensemble.dim
    covs, targets = ensemble.regressor_cov, ensemble.targets.blocks
    w = dense_regularized_solution(covs, targets, g.laplacian, eta)
    hess = np.zeros((n * m, n * m))
    noise = np.zeros((n * m, n * m))
    for k, r_s in enumerate(gradient_noise_covariances(ensemble, w)):
        hess[k * m : (k + 1) * m, k * m : (k + 1) * m] = covs[k]
        noise[k * m : (k + 1) * m, k * m : (k + 1) * m] = r_s
    eye = np.eye(n * m)
    combine = eye - mu * eta * np.kron(g.laplacian, np.eye(m))
    closed_loop = combine @ (eye - mu * hess)
    term = mu * mu * (combine @ noise @ combine)
    total = float(np.trace(term))
    for _ in range(max_terms):
        term = closed_loop @ term @ closed_loop.T
        inc = float(np.trace(term))
        total += inc
        if inc < tol:
            return total / n
    raise RuntimeError(f"matrix series did not converge in {max_terms} terms")


def noise_free_recursion(
    covs: np.ndarray,
    targets: np.ndarray,
    laplacian: np.ndarray,
    mu: float,
    eta: float,
    n_iters: int = 3000,
) -> np.ndarray:
    """Run the adapt-then-combine recursion with exact gradients.

    psi_k = w_k - mu R_k (w_k - w0_k), then w = psi - mu eta L psi, from
    w = 0.  With no gradient noise the iterate settles at the deterministic
    fixed point whose offset from the regularized solution is the long-term
    bias.  Returns the final (N, M) iterate.
    """
    w = np.zeros_like(targets)
    for _ in range(n_iters):
        psi = w - mu * np.einsum("kij,kj->ki", covs, w - targets)
        w = psi - mu * eta * (laplacian @ psi)
    return w


def _rational_solve(mat: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """Solve a nonsingular system by Gauss-Jordan elimination, exactly."""
    n = len(rhs)
    aug = [row[:] + [b] for row, b in zip(mat, rhs)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col] / aug[col][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [aug[r][n] / aug[r][r] for r in range(n)]


def exact_bias(
    covs: np.ndarray, targets: np.ndarray, laplacian: np.ndarray, mu: float, eta: float
) -> np.ndarray:
    """Long-term bias E[W0_eta - W_inf] in exact rational arithmetic.

    Every float input is taken as the rational it stands for.  W0_eta solves
    (H + eta L kron I) w = H w0 and the bias x solves (I - B) x =
    (mu eta)^2 (L kron I)^2 W0_eta with B = (I - mu eta L kron I)(I - mu H),
    both without rounding, so the result carries only its final rounding to
    float.  The cost grows quickly with N*M; keep N*M <= 4.  Returns the
    length-NM bias in node order.
    """
    n, m = targets.shape
    size = n * m
    zero = Fraction(0)
    mu_q, eta_q = Fraction(mu), Fraction(eta)
    eye = [[Fraction(int(i == j)) for j in range(size)] for i in range(size)]
    lap = [
        [Fraction(laplacian[i // m, j // m]) if i % m == j % m else zero for j in range(size)]
        for i in range(size)
    ]
    hess = [
        [Fraction(covs[i // m, i % m, j % m]) if i // m == j // m else zero for j in range(size)]
        for i in range(size)
    ]

    def matvec(mat, vec):
        return [sum((a * b for a, b in zip(row, vec)), zero) for row in mat]

    def combine(p, q, a, b):  # a * p + b * q, entrywise
        return [[a * x + b * y for x, y in zip(rp, rq)] for rp, rq in zip(p, q)]

    w0 = [Fraction(v) for v in targets.reshape(-1)]
    w = _rational_solve(combine(hess, lap, 1, eta_q), matvec(hess, w0))
    left, right = combine(eye, lap, 1, -mu_q * eta_q), combine(eye, hess, 1, -mu_q)
    closed_loop = [
        [sum((left[i][k] * right[k][j] for k in range(size)), zero) for j in range(size)]
        for i in range(size)
    ]
    rhs = [(mu_q * eta_q) ** 2 * v for v in matvec(lap, matvec(lap, w))]
    x = _rational_solve(combine(eye, closed_loop, 1, -1), rhs)
    return np.array([float(v) for v in x])


@dataclass(frozen=True)
class DataSample:
    """One streaming observation for one node."""

    agent: int
    regressor: np.ndarray
    observation: float


def sample(ensemble, agent: int, rng: np.random.Generator) -> DataSample:
    """Draw one observation for a node: u ~ N(0, R_uk), d = u.w0_k + v.

    Consumes exactly M+1 standard normals from `rng` (M for the regressor,
    then one for the noise), the stream layout the simulation engine
    documents, so a scalar replay of an engine stream sees identical data.
    """
    m = ensemble.dim
    z = rng.standard_normal(m + 1)
    u = np.linalg.cholesky(ensemble.regressor_cov[agent]) @ z[:m]
    v = np.sqrt(ensemble.noise_var[agent]) * z[m]
    d = float(u @ ensemble.targets.blocks[agent] + v)
    return DataSample(agent=agent, regressor=u, observation=d)


def true_gradient(ensemble, agent: int, w: np.ndarray) -> np.ndarray:
    """Exact cost gradient R_uk (w - w0_k) of one node's quadratic cost."""
    target = ensemble.targets.blocks[agent]
    return ensemble.regressor_cov[agent] @ (np.asarray(w, float) - target)


def stochastic_gradient(w: np.ndarray, s: DataSample) -> np.ndarray:
    """Instantaneous gradient estimate -u'(d - u.w) for the quadratic cost."""
    return -s.regressor * (s.observation - float(s.regressor @ w))


def empirical_noise_covariance(
    cov: np.ndarray,
    target: np.ndarray,
    point: np.ndarray,
    noise_var: float,
    n_samples: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Sample covariance of the gradient noise at a fixed evaluation point.

    Draws regressors u ~ N(0, cov) and scalar noise v ~ N(0, noise_var),
    forms the stochastic gradient -u'(d - u.w) with d = u.target + v, subtracts
    the true gradient cov(point - target), and returns the (mean-removed)
    sample covariance of the difference.
    """
    m = cov.shape[0]
    chol = np.linalg.cholesky(cov)
    z = rng.standard_normal((n_samples, m))
    u = z @ chol.T
    v = np.sqrt(noise_var) * rng.standard_normal(n_samples)
    err = u @ (target - point) + v  # = d - u.point
    stoch = -u * err[:, None]
    true_grad = cov @ (point - target)
    s = stoch - true_grad[None, :]
    s = s - s.mean(axis=0)
    return (s.T @ s) / (n_samples - 1)


def dense_quadratic_smoothness(blocks: np.ndarray, laplacian: np.ndarray) -> float:
    """Smoothness via the explicit dense quadratic form W' (L kron I) W."""
    n, m = blocks.shape
    big = np.kron(laplacian, np.eye(m))
    w = blocks.reshape(-1)
    return float(w @ big @ w)


def fix_eigenvector_signs_loop(vecs: np.ndarray, tol: float) -> np.ndarray:
    """Flip each column, one at a time, so that its first entry larger than
    tol in magnitude is positive; columns with no such entry stay as they are."""
    out = vecs.copy()
    for m in range(out.shape[1]):
        col = out[:, m]
        nz = np.nonzero(np.abs(col) > tol)[0]
        if nz.size and col[nz[0]] < 0.0:
            out[:, m] = -col
    return out


def make_random_spd(rng: np.random.Generator, m: int, eig_range=(0.5, 2.0)) -> np.ndarray:
    """Random SPD matrix with eigenvalues drawn uniformly from eig_range."""
    q, _ = np.linalg.qr(rng.standard_normal((m, m)))
    eigs = rng.uniform(*eig_range, size=m)
    return q @ np.diag(eigs) @ q.T


def random_connected_adjacency(
    rng: np.random.Generator,
    n: int,
    *,
    extra_edge_prob: float = 0.3,
    weight_range=(0.05, 1.0),
) -> np.ndarray:
    """Random symmetric weighted adjacency, connected by construction.

    Builds a random spanning tree (guaranteeing connectivity without any
    spectral test) and sprinkles extra edges on top.
    """
    adj = np.zeros((n, n))
    order = rng.permutation(n)
    for i in range(1, n):
        a, b = order[i], order[rng.integers(0, i)]
        w = rng.uniform(*weight_range)
        adj[a, b] = adj[b, a] = w
    for i in range(n):
        for j in range(i + 1, n):
            if adj[i, j] == 0.0 and rng.random() < extra_edge_prob:
                w = rng.uniform(*weight_range)
                adj[i, j] = adj[j, i] = w
    return adj
