"""Flat-key config: grammar, closed schema, builders."""

from __future__ import annotations

import numpy as np
import pytest

import mtdiff as mt
from mtdiff.config import build_ensemble, build_graph, load_config, parse_config

MINIMAL = """
graph.source = generator
graph.n = 8
graph.radius = 0.6
algo.mu = 1e-3
algo.eta = 0, 1
"""


class TestGrammar:
    def test_defaults_fill_unset_sections(self):
        cfg = parse_config(MINIMAL)
        assert cfg.graph.n == 8
        assert cfg.graph.weight == 0.1  # default
        assert cfg.ensemble.dim == 5
        assert cfg.algo.mu == (1e-3,)
        assert cfg.algo.eta == (0.0, 1.0)
        assert cfg.output.formats == ("csv", "svg")
        assert cfg.sweep.spot_check is False

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config("# leading comment\n\nalgo.mu = 0.1\nalgo.eta = 0\n# done\n")
        assert cfg.algo.mu == (0.1,)

    def test_lin_shorthand(self):
        cfg = parse_config("algo.mu = 1e-3\nalgo.eta = lin:0:4:5\n")
        assert cfg.algo.eta == tuple(np.linspace(0, 4, 5))

    def test_log_shorthand_concatenates(self):
        cfg = parse_config("algo.mu = 1e-3\nalgo.eta = 0, log:1e-3:1e-1:3\n")
        assert cfg.algo.eta == (0.0, *np.geomspace(1e-3, 1e-1, 3))

    def test_booleans(self):
        cfg = parse_config(MINIMAL + "output.db = false\nsweep.spot_check = yes\n")
        assert cfg.output.db is False and cfg.sweep.spot_check is True

    def test_sha_tracks_text(self):
        a = parse_config(MINIMAL)
        b = parse_config(MINIMAL)
        c = parse_config(MINIMAL + "algo.seed = 3\n")
        assert a.sha256 == b.sha256 != c.sha256

    def test_resolve_relative_to_config_dir(self, tmp_path):
        sub = tmp_path / "cfgs"
        sub.mkdir()
        p = sub / "x.conf"
        p.write_text("algo.mu = 1e-3\nalgo.eta = 0\ngraph.path = g.edges\n")
        cfg = load_config(p)
        assert cfg.resolve(cfg.graph.path) == sub / "g.edges"
        assert cfg.resolve("/abs/file").is_absolute()


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("nonsense line\n", "line 1"),
        ("planet.mu = 1\n", "unknown section"),
        ("algo.step = 1\n", "unknown key"),
        ("algo.mu = 1e-3\nalgo.mu = 1e-4\n", "line 2: duplicate"),
        ("algo.mu = fast\n", "bad value"),
        ("algo.eta = lin:0:1\n", "start:stop:count"),
        ("algo.eta = log:0:1:3\n", "positive endpoints"),
        ("algo.eta = 0,,1\n", "empty list item"),
        ("algo.eta = lin:0:1:1\n", "count must be >= 2"),
        ("algo.eta = 0, lin:1:2:1000000000000000\n", "at most 1000000"),  # refused, not allocated
        ("algo.eta = 0, log:1:2:1000000000000000\n", "at most 1000000"),
        ("algo.eta = lin:0:1:999999, lin:1:2:2\n", "at most 1000000"),  # counts add up
        ("output.db = maybe\n", "not a boolean"),
        ("algo.jobs = true\n", "bad value"),
        ("graph.n.extra = 1\n", "section.key"),
    ],
)
def test_syntax_errors_carry_line_numbers(text, fragment):
    with pytest.raises(mt.ConfigError, match=fragment):
        parse_config(text)


@pytest.mark.parametrize(
    "overrides",
    [
        "graph.source = magic",
        "graph.source = edges",  # edges without a path
        "graph.n = 1",
        "graph.max_degree = -1",  # only 0 disables the cap
        "ensemble.dim = 0",
        "ensemble.target = mystery",
        "ensemble.tau = 1, 2",  # wrong length for dim = 5
        "ensemble.target = file",  # file without a path
        "ensemble.profile = cosmic",
        "ensemble.profile = file",  # file without a path
        "ensemble.sigma_u_sq = -1",
        "ensemble.sigma_u_range = 2, 1",
        "algo.n_runs = 0",
        "algo.seed = -4",
        "graph.seed = -1",
        "ensemble.seed = -1",
        "algo.steady_window_frac = 0",
        "output.formats = csv, pdf",
        "filter.lambda_points = 1",
        "filter.lambda_points = 1000000000000000",  # refused, not allocated
        "filter.lambda_max = nan",
        "filter.lambda_max = inf",
    ],
)
def test_cross_field_validation(overrides):
    """Each override replaces MINIMAL's line for its key, so the error comes
    from validation and not from a duplicate key (syntax errors name a line)."""
    key = overrides.split("=")[0].strip()
    kept = [line for line in MINIMAL.splitlines() if line.split("=")[0].strip() != key]
    with pytest.raises(mt.ConfigError) as exc:
        parse_config("\n".join(kept + [overrides]) + "\n")
    assert not str(exc.value).startswith("line ")


def test_missing_mu_or_eta_rejected():
    with pytest.raises(mt.ConfigError, match="algo.mu"):
        parse_config("algo.eta = 0\n")
    with pytest.raises(mt.ConfigError, match="algo.eta"):
        parse_config("algo.mu = 1e-3\n")


class TestBuilders:
    def test_generator_graph(self):
        cfg = parse_config(MINIMAL)
        g = build_graph(cfg)
        assert g.n_agents == 8
        assert g.lambda_max > 0.0

    def test_edge_list_graph(self, tmp_path):
        edges = tmp_path / "tri.edges"
        edges.write_text("1 2 0.3\n2 3 0.3\n3 1 0.3\n")
        p = tmp_path / "x.conf"
        p.write_text(
            "graph.source = edges\ngraph.path = tri.edges\n"
            "ensemble.dim = 2\nensemble.tau = 1, 2\n"
            "algo.mu = 1e-3\nalgo.eta = 0\n"
        )
        cfg = load_config(p)
        g = build_graph(cfg)
        assert g.n_agents == 3
        assert g.adjacency[0, 1] == 0.3

    def test_default_tau_ladder(self):
        cfg = parse_config(MINIMAL)
        g = build_graph(cfg)
        ens = build_ensemble(cfg, g)
        explicit = mt.make_smooth_target(g, np.array([8.0, 9, 10, 11, 12]), 5)
        assert np.allclose(ens.targets.values, explicit.values, atol=1e-14)

    def test_uniform_profile_build(self):
        cfg = parse_config(MINIMAL + "ensemble.sigma_u_sq = 2.0\n")
        g = build_graph(cfg)
        ens = build_ensemble(cfg, g)
        assert ens.is_uniform
        assert np.allclose(ens.regressor_cov[0], 2.0 * np.eye(5))

    def test_scalar_profile_build_is_seeded(self):
        text = MINIMAL + "ensemble.profile = scalar\nensemble.seed = 3\n"
        g = build_graph(parse_config(text))
        a = build_ensemble(parse_config(text), g)
        b = build_ensemble(parse_config(text), g)
        assert np.array_equal(a.regressor_cov, b.regressor_cov)
        assert not a.is_uniform

    def test_file_profile_and_targets(self, tmp_path):
        tri = tmp_path / "tri.edges"
        tri.write_text("1 2 0.3\n2 3 0.3\n3 1 0.3\n")
        np.savetxt(tmp_path / "w.txt", np.arange(6.0).reshape(3, 2))
        np.savetxt(tmp_path / "prof.txt", np.column_stack([[1.0, 1.1, 0.9], [0.1, 0.2, 0.3]]))
        p = tmp_path / "x.conf"
        p.write_text(
            "graph.source = edges\ngraph.path = tri.edges\n"
            "ensemble.dim = 2\nensemble.target = file\nensemble.target_path = w.txt\n"
            "ensemble.profile = file\nensemble.profile_path = prof.txt\n"
            "algo.mu = 1e-3\nalgo.eta = 0\n"
        )
        cfg = load_config(p)
        g = build_graph(cfg)
        ens = build_ensemble(cfg, g)
        assert np.allclose(ens.targets.blocks, np.arange(6.0).reshape(3, 2))
        assert np.allclose(ens.noise_var, [0.1, 0.2, 0.3])

    def test_profile_file_shape_mismatch(self, tmp_path):
        (tmp_path / "tri.edges").write_text("1 2 0.3\n2 3 0.3\n3 1 0.3\n")
        np.savetxt(tmp_path / "prof.txt", np.ones((3, 3)))  # needs 2 columns
        p = tmp_path / "x.conf"
        p.write_text(
            "graph.source = edges\ngraph.path = tri.edges\n"
            "ensemble.dim = 2\nensemble.tau = 1, 2\n"
            "ensemble.profile = file\nensemble.profile_path = prof.txt\n"
            "algo.mu = 1e-3\nalgo.eta = 0\n"
        )
        cfg = load_config(p)
        with pytest.raises(mt.ConfigError, match="profile file has shape"):
            build_ensemble(cfg, build_graph(cfg))

    def test_target_file_shape_mismatch(self, tmp_path):
        tri = tmp_path / "tri.edges"
        tri.write_text("1 2 0.3\n2 3 0.3\n3 1 0.3\n")
        np.savetxt(tmp_path / "w.txt", np.zeros((4, 2)))  # graph has 3 nodes
        p = tmp_path / "x.conf"
        p.write_text(
            "graph.source = edges\ngraph.path = tri.edges\n"
            "ensemble.dim = 2\nensemble.target = file\nensemble.target_path = w.txt\n"
            "algo.mu = 1e-3\nalgo.eta = 0\n"
        )
        cfg = load_config(p)
        with pytest.raises(mt.ConfigError, match="shape"):
            build_ensemble(cfg, build_graph(cfg))
