"""Spectral graph layer: construction, eigenstructure, transforms."""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mtdiff as mt
from mtdiff.graphs import _SIGN_TOLERANCE, CONNECTIVITY_TOLERANCE, _fix_eigenvector_signs

from helpers import (
    charpoly_eigenvalues,
    fix_eigenvector_signs_loop,
    random_connected_adjacency,
)


CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def ring(n: int, w: float = 0.1) -> np.ndarray:
    a = np.zeros((n, n))
    for i in range(n):
        a[i, (i + 1) % n] = a[(i + 1) % n, i] = w
    return a


class TestBuildGraph:
    def test_eigendecomposition_reconstructs_laplacian(self, bench_graph):
        g = bench_graph
        v, lam = g.eigenvectors, g.eigenvalues
        assert np.max(np.abs(v.T @ v - np.eye(g.n_agents))) < 1e-10
        assert np.max(np.abs(v @ np.diag(lam) @ v.T - g.laplacian)) < 1e-10

    def test_null_frequency(self, bench_graph):
        g = bench_graph
        assert abs(g.eigenvalues[0]) < 1e-12
        flat = np.full(g.n_agents, 1.0 / np.sqrt(g.n_agents))
        v1 = g.eigenvectors[:, 0]
        assert np.all(np.abs(np.abs(v1) - flat) < 1e-8)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: mt.random_geometric_graph(15, 0.35, weight=0.1, seed=9, max_degree=5),
            lambda: mt.load_edge_list(CONFIG_DIR / "ring8.edges"),
            lambda: mt.random_geometric_graph(15, 0.35, weight=1e10, seed=9, max_degree=5),
        ],
        ids=["bench", "ring8", "weight-1e10"],
    )
    def test_structural_zero_is_exact(self, make):
        """lambda_1 is the connected Laplacian's structural zero, not eigh's
        rounding of it (3.9e-17 on the bench graph, -6.6e-6 at weight 1e10),
        so every reader of eigenvalues sees 0.0."""
        assert make().eigenvalues[0] == 0.0

    def test_eigenvalues_sorted_nonnegative(self, bench_graph):
        lam = bench_graph.eigenvalues
        assert np.all(np.diff(lam) >= 0)
        assert lam[0] >= -1e-12

    def test_sign_convention(self, bench_graph):
        # first component larger than the tolerance in every column is positive
        for col in bench_graph.eigenvectors.T:
            nonzero = col[np.abs(col) > 1e-12]
            assert nonzero[0] > 0

    @settings(max_examples=30)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 40))
    def test_sign_fix_matches_column_loop(self, seed, n):
        """Bitwise, sign bits included, on random orthogonal matrices."""
        q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
        got = _fix_eigenvector_signs(q)
        assert got.tobytes() == fix_eigenvector_signs_loop(q, _SIGN_TOLERANCE).tobytes()

    def test_sign_fix_skips_entries_at_or_below_tolerance(self):
        tol = _SIGN_TOLERANCE
        cols = np.array(
            [
                [tol, -tol, -0.5, 0.1],  # leading entries at the tolerance
                [-1e-13, 0.7, -0.2, 0.0],  # starts with -1e-13
                [-1e-13, 1e-13, 0.0, -0.0],  # all tiny: left as it is
                [-0.0, -1e-13, 1e-13, -0.0],  # all tiny, with signed zeros
                [0.0, -2.0 * tol, 0.3, 0.0],  # first entry above the tolerance
            ]
        ).T
        got = _fix_eigenvector_signs(cols)
        want = fix_eigenvector_signs_loop(cols, tol)
        assert got.tobytes() == want.tobytes()
        assert got[2, 0] == 0.5 and got[1, 1] == 0.7 and got[1, 4] == 2.0 * tol
        assert got[:, 2].tobytes() == cols[:, 2].tobytes()
        assert got[:, 3].tobytes() == cols[:, 3].tobytes()

    def test_laplacian_rows_sum_to_zero(self, bench_graph):
        g = bench_graph
        assert np.max(np.abs(g.laplacian.sum(axis=1))) < 1e-12
        assert np.allclose(np.diag(g.laplacian), g.degrees)

    def test_rejects_asymmetric(self):
        a = ring(4)
        a[0, 1] += 1e-6
        with pytest.raises(mt.NotSymmetric):
            mt.build_graph(a)

    def test_rejects_negative_weight(self):
        a = ring(4)
        a[0, 1] = a[1, 0] = -0.1
        with pytest.raises(mt.NegativeWeight):
            mt.build_graph(a)

    def test_rejects_self_loop(self):
        a = ring(4)
        a[2, 2] = 0.3
        with pytest.raises(mt.NonzeroDiagonal):
            mt.build_graph(a)

    @pytest.mark.parametrize(
        "adj, fragment",
        [(np.zeros((2, 3)), "square"), (np.zeros(4), "square"), (np.zeros((0, 0)), "one node")],
        ids=["non-square", "1-D", "empty"],
    )
    def test_rejects_shape(self, adj, fragment):
        with pytest.raises(mt.GraphError, match=fragment):
            mt.build_graph(adj)

    def test_rejects_disconnected(self):
        a = np.zeros((4, 4))
        a[0, 1] = a[1, 0] = 0.1
        a[2, 3] = a[3, 2] = 0.1
        with pytest.raises(mt.Disconnected):
            mt.build_graph(a)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: mt.random_geometric_graph(15, 0.35, weight=5e307, seed=9, max_degree=5),
            lambda: mt.random_geometric_graph(15, 0.35, weight=1e308, seed=9, max_degree=5),
            lambda: mt.build_graph(1.7e308 * (1.0 - np.eye(2))),
        ],
        ids=["degree-overflow", "symmetrize-overflow", "spectrum-overflow"],
    )
    def test_rejects_overflowing_weights(self, make):
        with pytest.raises(mt.GraphError, match="overflow"):
            make()

    def test_connectivity_threshold_is_documented_constant(self):
        assert CONNECTIVITY_TOLERANCE == 1e-9

    def test_neighbors_and_degree(self):
        g = mt.build_graph(ring(5, 0.2))
        assert np.flatnonzero(g.adjacency[0]).tolist() == [1, 4]
        assert g.max_degree == pytest.approx(0.4)
        assert g.lambda_max == pytest.approx(g.eigenvalues[-1])

    def test_arrays_read_only(self, bench_graph):
        with pytest.raises(ValueError):
            bench_graph.laplacian[0, 0] = 1.0
        with pytest.raises(ValueError):
            bench_graph.eigenvalues[0] = 1.0


class TestCharpolyOracle:
    """Independent eigenvalue route: characteristic polynomial + bisection."""

    @pytest.mark.parametrize("seed", range(8))
    def test_small_graph_spectra(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        g = mt.build_graph(random_connected_adjacency(rng, n))
        expected = charpoly_eigenvalues(g.laplacian)
        assert np.max(np.abs(np.sort(expected) - g.eigenvalues)) < 1e-8

    def test_ring_eigenvalues_closed_form(self):
        # ring Laplacian eigenvalues are 2w(1 - cos(2 pi k / n))
        n, w = 6, 0.25
        g = mt.build_graph(ring(n, w))
        expected = np.sort(2 * w * (1 - np.cos(2 * np.pi * np.arange(n) / n)))
        assert np.allclose(g.eigenvalues, expected, atol=1e-12)


class TestEdgeList:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "g.edges"
        p.write_text("# comment line\n1 2 0.5\n2 3 0.25\n\n3 1 0.1\n")
        g = mt.load_edge_list(p)
        assert g.n_agents == 3
        assert g.adjacency[0, 1] == 0.5
        assert g.adjacency[1, 2] == 0.25
        assert g.adjacency[2, 0] == 0.1

    def test_node_count_from_max_index(self, tmp_path):
        p = tmp_path / "g.edges"
        p.write_text("1 2 1.0\n2 5 1.0\n5 3 1.0\n3 4 1.0\n")
        assert mt.load_edge_list(p).n_agents == 5

    @pytest.mark.parametrize(
        "text,exc",
        [
            ("1 2 0.5\n1 2 0.5\n", mt.GraphError),  # duplicate edge
            ("1 1 0.5\n", mt.NonzeroDiagonal),
            ("1 2 -0.5\n", mt.NegativeWeight),
            ("0 2 0.5\n", mt.GraphError),  # 1-based indexing
            ("1 2\n", mt.GraphError),
            ("", mt.GraphError),
            ("1 2 heavy\n", mt.GraphError),  # weight is not a number
        ],
    )
    def test_rejects_malformed(self, tmp_path, text, exc):
        p = tmp_path / "bad.edges"
        p.write_text(text)
        with pytest.raises(exc):
            mt.load_edge_list(p)


class TestGenerator:
    def test_deterministic_per_seed(self):
        g1 = mt.random_geometric_graph(10, 0.4, seed=3)
        g2 = mt.random_geometric_graph(10, 0.4, seed=3)
        assert np.array_equal(g1.adjacency, g2.adjacency)

    def test_degree_cap(self):
        # the generator redraws until a layout satisfies the cap
        g = mt.random_geometric_graph(15, 0.35, weight=0.1, seed=5, max_degree=5)
        assert int(round(g.degrees.max() / 0.1)) <= 5

    def test_impossible_degree_cap_raises(self):
        with pytest.raises(mt.Disconnected, match="degree cap"):
            mt.random_geometric_graph(15, 0.9, weight=0.1, seed=5, max_degree=4, max_tries=20)

    def test_connected_output(self):
        for seed in range(5):
            g = mt.random_geometric_graph(12, 0.4, seed=seed)
            assert g.eigenvalues[1] > CONNECTIVITY_TOLERANCE

    def test_failure_message_counts_every_reason(self):
        """Subnormal weights leave every capped draw disconnected, so the
        message names both reasons and counts every draw."""
        with pytest.raises(mt.Disconnected) as exc:
            mt.random_geometric_graph(15, 0.35, weight=1e-320, seed=9, max_degree=5)
        msg = str(exc.value)
        counts = re.findall(r"(\d+) (over degree cap 5|disconnected)", msg)
        assert {reason for _, reason in counts} == {"over degree cap 5", "disconnected"}
        assert sum(int(k) for k, _ in counts) == 100
        assert "lambda_2" in msg

    def test_gives_up_after_max_tries(self):
        with pytest.raises(mt.Disconnected):
            mt.random_geometric_graph(30, 0.01, seed=0, max_tries=5)

    @pytest.mark.parametrize(
        "args, kwargs",
        [((-3, 0.3), {}), ((2.5, 0.3), {}), ((0, 0.3), {}), ((5, 0.9), {"seed": -1})],
        ids=["negative-n", "fractional-n", "zero-n", "negative-seed"],
    )
    def test_rejects_bad_arguments(self, args, kwargs):
        with pytest.raises(mt.InvalidArgument):
            mt.random_geometric_graph(*args, **kwargs)


class TestSignalsAndTransforms:
    def test_gft_round_trip(self, bench_graph):
        rng = np.random.default_rng(0)
        w = mt.StackedSignal.from_blocks(rng.standard_normal((15, 5)))
        back = mt.igft(mt.gft(w, bench_graph), bench_graph)
        assert np.max(np.abs(back.values - w.values)) < 1e-10

    def test_gft_of_constant_signal_is_lowest_frequency_only(self, bench_graph):
        n = bench_graph.n_agents
        w = mt.StackedSignal.from_blocks(np.tile([1.0, -2.0], (n, 1)))
        w_bar = mt.gft(w, bench_graph).blocks
        assert np.max(np.abs(w_bar[1:])) < 1e-10
        assert np.allclose(w_bar[0], np.sqrt(n) * np.array([1.0, -2.0]))

    @settings(max_examples=25)
    @given(st.integers(0, 2**32 - 1))
    def test_smoothness_three_routes_agree(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        g = mt.build_graph(random_connected_adjacency(rng, n))
        m = int(rng.integers(1, 4))
        w = mt.StackedSignal.from_blocks(rng.standard_normal((n, m)))

        edge_sum = mt.smoothness(w, g)
        lap_big = np.kron(g.laplacian, np.eye(m))
        quad = float(w.values @ lap_big @ w.values)
        spec = mt.gft(w, g).blocks
        spectral = float(np.sum(g.eigenvalues * np.sum(spec**2, axis=1)))

        scale = max(1.0, abs(edge_sum))
        assert abs(edge_sum - quad) < 1e-10 * scale
        assert abs(edge_sum - spectral) < 1e-10 * scale

    def test_smoothness_zero_for_constant_signal(self, bench_graph):
        w = mt.StackedSignal.from_blocks(np.ones((15, 3)))
        assert mt.smoothness(w, bench_graph) < 1e-14

    def test_stacked_signal_accessors(self):
        blocks = np.arange(12.0).reshape(4, 3)
        w = mt.StackedSignal.from_blocks(blocks)
        assert w.n_agents == 4 and w.block_dim == 3
        with pytest.raises(mt.DimensionMismatch):
            mt.StackedSignal(n_agents=4, block_dim=3, values=np.zeros(11))
        with pytest.raises(mt.DimensionMismatch, match="2-D"):
            mt.StackedSignal.from_blocks(np.zeros(12))
        with pytest.raises(mt.MtdiffError, match="finite"):
            mt.StackedSignal.from_blocks(np.where(blocks == 5.0, np.nan, blocks))

    def test_signal_graph_size_mismatch(self, bench_graph):
        w = mt.StackedSignal.from_blocks(np.ones((3, 2)))
        with pytest.raises(mt.DimensionMismatch):
            mt.gft(w, bench_graph)
