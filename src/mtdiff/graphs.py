"""Weighted graphs, Laplacian spectra, and graph-frequency transforms.

A `Graph` bundles the adjacency matrix with its Laplacian eigendecomposition,
since every downstream computation (smoothness penalties, spectral filters,
steady-state predictions) is phrased in terms of the eigenpairs.  Graphs are
immutable after construction and safe to share across threads.

Stacked signals assign one length-M vector to each of the N nodes; they are
stored flat (length N*M) with block k belonging to node k.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    DimensionMismatch,
    Disconnected,
    GraphError,
    InvalidArgument,
    MtdiffError,
    NegativeWeight,
    NonzeroDiagonal,
    NotSymmetric,
)

#: Eigenvalue threshold separating "connected" from "disconnected": the second
#: smallest Laplacian eigenvalue must exceed this.
CONNECTIVITY_TOLERANCE = 1e-9

_SIGN_TOLERANCE = 1e-12


@dataclass(frozen=True, eq=False)
class StackedSignal:
    """One length-M vector per node, stored as a flat length N*M array."""

    n_agents: int
    block_dim: int
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float).reshape(-1)
        if vals.size != self.n_agents * self.block_dim:
            raise DimensionMismatch(
                f"stacked signal needs {self.n_agents * self.block_dim} entries, "
                f"got {vals.size}"
            )
        if not np.all(np.isfinite(vals)):
            raise MtdiffError("stacked signal entries must be finite")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_blocks(cls, blocks: np.ndarray) -> "StackedSignal":
        blocks = np.asarray(blocks, dtype=float)
        if blocks.ndim != 2:
            raise DimensionMismatch("expected a 2-D (n_agents, block_dim) array")
        return cls(blocks.shape[0], blocks.shape[1], blocks.reshape(-1))

    @property
    def blocks(self) -> np.ndarray:
        """View of the signal as an (n_agents, block_dim) array."""
        return self.values.reshape(self.n_agents, self.block_dim)


@dataclass(frozen=True, eq=False)
class Graph:
    """Weighted undirected graph with its full Laplacian eigendecomposition.

    eigenvalues are ascending; eigenvectors[:, m] is the (sign-fixed) unit
    eigenvector for eigenvalues[m].
    """

    n_agents: int
    adjacency: np.ndarray
    laplacian: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    degrees: np.ndarray = field(repr=False)

    @property
    def lambda_max(self) -> float:
        return float(self.eigenvalues[-1])

    @property
    def max_degree(self) -> float:
        """Largest weighted degree max_k sum_l a_kl."""
        return float(self.degrees.max())


def _fix_eigenvector_signs(vecs: np.ndarray) -> np.ndarray:
    """Flip each column so its first component larger than the tolerance is
    positive.  Removes the arbitrary sign so spectral output is reproducible."""
    big = np.abs(vecs) > _SIGN_TOLERANCE
    lead = np.argmax(big, axis=0)  # row 0 for a column with no large entry
    cols = np.arange(vecs.shape[1])
    flip = big[lead, cols] & (vecs[lead, cols] < 0.0)
    return np.where(flip, -vecs, vecs)


def build_graph(adjacency: np.ndarray) -> Graph:
    """Validate an adjacency matrix and assemble the spectral graph object.

    The matrix must be square, finite, symmetric (within 1e-12), entrywise
    nonnegative, and zero on the diagonal; the resulting graph must be
    connected, with finite degrees and spectrum (GraphError on overflow).
    Eigenvalues come back sorted ascending with the structural zero first.
    """
    adj = np.asarray(adjacency, dtype=float)
    if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
        raise GraphError(f"adjacency must be square, got shape {adj.shape}")
    n = adj.shape[0]
    if n < 1:
        raise GraphError("graph needs at least one node")
    if not np.all(np.isfinite(adj)):
        raise GraphError("adjacency entries must be finite")
    asym = float(np.max(np.abs(adj - adj.T))) if n > 1 else 0.0
    if asym > 1e-12:
        raise NotSymmetric(f"adjacency asymmetry {asym:.3e} exceeds 1e-12")
    with np.errstate(over="ignore"):  # an overflow is reported below
        adj = 0.5 * (adj + adj.T)  # exact symmetry for the eigensolver
    if np.any(adj < 0.0):
        k, l = np.argwhere(adj < 0.0)[0]
        raise NegativeWeight(f"negative weight a[{k},{l}] = {adj[k, l]}")
    if np.any(np.diag(adj) != 0.0):
        k = int(np.nonzero(np.diag(adj))[0][0])
        raise NonzeroDiagonal(f"self-loop on node {k} (a[{k},{k}] = {adj[k, k]})")

    with np.errstate(over="ignore"):
        degrees = adj.sum(axis=1)
    if not np.all(np.isfinite(degrees)):
        raise GraphError("weighted degrees overflow; scale the edge weights down")
    laplacian = np.diag(degrees) - adj
    try:
        eigvals, eigvecs = np.linalg.eigh(laplacian)
    except np.linalg.LinAlgError as exc:
        raise GraphError(f"Laplacian eigendecomposition failed: {exc}") from exc
    if not np.all(np.isfinite(eigvals)):
        raise GraphError("Laplacian eigenvalues overflow; scale the edge weights down")
    order = np.argsort(eigvals, kind="stable")
    eigvals = eigvals[order]
    eigvecs = _fix_eigenvector_signs(eigvecs[:, order])

    if n > 1 and eigvals[1] <= CONNECTIVITY_TOLERANCE:
        raise Disconnected(
            f"graph is disconnected (lambda_2 = {eigvals[1]:.3e} <= "
            f"{CONNECTIVITY_TOLERANCE})"
        )

    for arr in (adj, laplacian, eigvals, eigvecs, degrees):
        arr.setflags(write=False)
    return Graph(
        n_agents=n,
        adjacency=adj,
        laplacian=laplacian,
        eigenvalues=eigvals,
        eigenvectors=eigvecs,
        degrees=degrees,
    )


def load_edge_list(path: str | Path) -> Graph:
    """Read a graph from a plain-text edge list.

    Each non-comment line is `k l weight` with 1-based node indices; lines
    starting with `#` (and blank lines) are ignored.  The node count is the
    largest index mentioned.  Re-specifying an edge is an error rather than a
    silent overwrite.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise GraphError(f"{path}: cannot read edge list: {exc}") from exc
    edges: list[tuple[int, int, float]] = []
    max_node = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise GraphError(f"{path}:{lineno}: expected 'k l weight', got {raw!r}")
        try:
            k, l = int(parts[0]), int(parts[1])
            w = float(parts[2])
        except ValueError as exc:
            raise GraphError(f"{path}:{lineno}: {exc}") from exc
        if k < 1 or l < 1:
            raise GraphError(f"{path}:{lineno}: node indices are 1-based")
        if k == l:
            raise NonzeroDiagonal(f"{path}:{lineno}: self-loop on node {k}")
        if w < 0.0:
            raise NegativeWeight(f"{path}:{lineno}: negative weight {w}")
        edges.append((k - 1, l - 1, w))
        max_node = max(max_node, k, l)
    if max_node == 0:
        raise GraphError(f"{path}: no edges found")
    adj = np.zeros((max_node, max_node))
    seen: set[tuple[int, int]] = set()
    for k, l, w in edges:
        key = (min(k, l), max(k, l))
        if key in seen:
            raise GraphError(f"{path}: edge {k + 1}-{l + 1} specified twice")
        seen.add(key)
        adj[k, l] = adj[l, k] = w
    return build_graph(adj)


def random_geometric_graph(
    n: int,
    radius: float,
    *,
    weight: float = 0.1,
    seed: int = 0,
    max_degree: int | None = None,
    max_tries: int = 100,
) -> Graph:
    """Seeded random geometric graph with a connectivity retry loop.

    Nodes (n >= 1 of them and a seed >= 0, both integers, else InvalidArgument)
    are dropped uniformly in the unit square and joined (with the given uniform
    weight) when closer than `radius`.  Draws repeat up to `max_tries` times
    until the sample is connected and, when `max_degree` is set, no node has
    more neighbors than that; the cap keeps heavily-regularized runs stable.
    """
    for name, value, low in (("n", n, 1), ("seed", seed, 0)):
        if not (isinstance(value, numbers.Integral) and value >= low):
            raise InvalidArgument(f"{name} must be an integer >= {low}, got {value!r}")
    rng = np.random.default_rng(seed)
    failures: dict[str, int] = {}  # reason -> number of draws it rejected
    detail = ""
    for _ in range(max_tries):
        pts = rng.random((n, 2))
        d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1)
        adj = np.where(d2 <= radius * radius, weight, 0.0)
        np.fill_diagonal(adj, 0.0)
        if max_degree is not None and (adj > 0).sum(axis=1).max() > max_degree:
            reason = f"over degree cap {max_degree}"
        else:
            try:
                return build_graph(adj)
            except Disconnected as exc:
                reason, detail = "disconnected", f" (last: {exc})"
        failures[reason] = failures.get(reason, 0) + 1
    counts = ", ".join(f"{v} {k}" for k, v in failures.items()) or "no attempt made"
    raise Disconnected(
        f"no admissible geometric graph in {max_tries} tries "
        f"(n={n}, radius={radius}): {counts}{detail}"
    )


def _check_signal(w: StackedSignal, g: Graph) -> None:
    if w.n_agents != g.n_agents:
        raise DimensionMismatch(
            f"signal has {w.n_agents} blocks but graph has {g.n_agents} nodes"
        )


def smoothness(w: StackedSignal, g: Graph) -> float:
    """Graph smoothness 1/2 sum_{k,l} a_kl ||w_k - w_l||^2.

    Computed by the edge-sum form; equals the quadratic form W'(L kron I)W and
    the spectral sum over eigenvalues, which the tests check independently.
    """
    _check_signal(w, g)
    blocks = w.blocks
    total = 0.0
    rows, cols = np.nonzero(np.triu(g.adjacency, k=1))
    for k, l in zip(rows, cols):
        diff = blocks[k] - blocks[l]
        total += g.adjacency[k, l] * float(diff @ diff)
    return total


def gft(w: StackedSignal, g: Graph) -> StackedSignal:
    """Graph Fourier transform: block m of the result is sum_k V[k,m] * w_k."""
    _check_signal(w, g)
    return StackedSignal.from_blocks(g.eigenvectors.T @ w.blocks)


def igft(w_bar: StackedSignal, g: Graph) -> StackedSignal:
    """Inverse graph Fourier transform (adjoint of `gft`)."""
    _check_signal(w_bar, g)
    return StackedSignal.from_blocks(g.eigenvectors @ w_bar.blocks)
