"""Flat-key experiment configuration.

Files are plain text, one ``section.key = value`` per line, ``#`` comments
and blank lines ignored.  The schema is closed: unknown keys (and duplicate
keys) are rejected so a typo cannot silently fall back to a default.

Value grammar
-------------
* numbers: int or float literal
* booleans: ``true`` / ``false``
* strings: taken verbatim (no quoting)
* float lists: comma-separated items, where each item is either a literal
  or a range shorthand ``lin:start:stop:count`` / ``log:start:stop:count``
  (both endpoints included, count >= 2); items concatenate, e.g.
  ``0, log:1e-3:1e-2:9``, into at most MAX_POINTS values.

Example
-------
::

    graph.source = generator
    graph.n = 15
    ensemble.tau = lin:8:12:5
    algo.mu = 1e-3
    algo.eta = 0, 1, 5, 20
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from .errors import ConfigError
from .graphs import Graph, StackedSignal, load_edge_list, random_geometric_graph
from .tasks import (
    TaskEnsemble,
    make_smooth_target,
    scalar_profile,
    uniform_profile,
    varying_profile,
)


#: the most values a float list may expand to and filter.lambda_points may ask
#: for, far above every bundled grid, so that an absurd count is refused, not
#: allocated
MAX_POINTS = 10**6


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "yes", "1"):
        return True
    if low in ("false", "no", "0"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _parse_float_list(raw: str) -> tuple[float, ...]:
    values: list[float] = []
    for item in raw.split(","):
        item = item.strip()
        if not item:
            raise ValueError("empty list item")
        if item.startswith(("lin:", "log:")):
            kind, *parts = item.split(":")
            if len(parts) != 3:
                raise ValueError(f"range shorthand needs start:stop:count: {item!r}")
            start, stop = float(parts[0]), float(parts[1])
            count = int(parts[2])
            if not 2 <= count <= MAX_POINTS - len(values):
                raise ValueError(
                    f"range count must be >= 2 and the list at most {MAX_POINTS} long: {item!r}"
                )
            if kind == "lin":
                values.extend(np.linspace(start, stop, count).tolist())
            else:
                if start <= 0.0 or stop <= 0.0:
                    raise ValueError(f"log range needs positive endpoints: {item!r}")
                values.extend(np.geomspace(start, stop, count).tolist())
        else:
            values.append(float(item))
    return tuple(values)


def _parse_str_list(raw: str) -> tuple[str, ...]:
    return tuple(item.strip() for item in raw.split(",") if item.strip())


@dataclass(frozen=True)
class GraphSection:
    source: str = "generator"  # generator | edges
    path: str = ""
    n: int = 15
    radius: float = 0.35
    weight: float = 0.1
    max_degree: int = 5  # 0 disables the cap
    seed: int = 1


@dataclass(frozen=True)
class EnsembleSection:
    dim: int = 5
    target: str = "smooth"  # smooth | file
    tau: tuple[float, ...] = ()
    target_path: str = ""
    profile: str = "uniform"  # uniform | scalar | file
    sigma_u_sq: float = 1.0
    sigma_v_sq: float = 0.1
    sigma_u_range: tuple[float, ...] = (0.8, 1.2)
    sigma_v_range: tuple[float, ...] = (0.05, 0.15)
    profile_path: str = ""
    seed: int = 7


@dataclass(frozen=True)
class AlgoSection:
    mu: tuple[float, ...] = ()
    eta: tuple[float, ...] = ()
    n_iters: int = 0  # 0 = automatic horizon
    n_runs: int = 1
    seed: int = 0
    steady_window_frac: float = 0.1
    jobs: int = 1


@dataclass(frozen=True)
class OutputSection:
    dir: str = "out"
    formats: tuple[str, ...] = ("csv", "svg")
    db: bool = True  # decibel y-axes on SVG plots (CSV stays linear)


@dataclass(frozen=True)
class SweepSection:
    spot_check: bool = False


@dataclass(frozen=True)
class FilterSection:
    lambda_max: float = 1.2
    lambda_points: int = 25


# annotation string -> value parser (sections use `from __future__ import
# annotations`, so dataclass fields carry their types as strings)
_VALUE_PARSERS: dict[str, Callable[[str], Any]] = {
    "int": int,
    "float": float,
    "bool": _parse_bool,
    "str": lambda raw: raw.strip(),
    "tuple[float, ...]": _parse_float_list,
    "tuple[str, ...]": _parse_str_list,
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Parsed, schema-checked configuration plus the raw text's digest."""

    graph: GraphSection = field(default_factory=GraphSection)
    ensemble: EnsembleSection = field(default_factory=EnsembleSection)
    algo: AlgoSection = field(default_factory=AlgoSection)
    output: OutputSection = field(default_factory=OutputSection)
    sweep: SweepSection = field(default_factory=SweepSection)
    filter: FilterSection = field(default_factory=FilterSection)
    sha256: str = ""
    base_dir: Path = field(default_factory=Path)

    def resolve(self, path_str: str) -> Path:
        """Interpret a path value relative to the config file's directory."""
        p = Path(path_str)
        return p if p.is_absolute() else self.base_dir / p


# section name -> section class: ExperimentConfig's dataclass-valued fields, in order
_SECTIONS: dict[str, type] = {
    f.name: f.default_factory for f in fields(ExperimentConfig) if is_dataclass(f.default_factory)
}


def parse_config(text: str, *, base_dir: Path | None = None) -> ExperimentConfig:
    """Parse flat-key text into an ExperimentConfig.

    Raises ConfigError (with a line number) on syntax errors, unknown or
    duplicate keys, and unparsable values, and from validate on the rest.
    """
    staged: dict[str, dict[str, Any]] = {name: {} for name in _SECTIONS}
    field_types = {
        name: {f.name: f for f in fields(cls)} for name, cls in _SECTIONS.items()
    }
    seen: set[str] = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'section.key = value'")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key.count(".") != 1:
            raise ConfigError(f"line {lineno}: key must look like section.key: {key!r}")
        section, name = key.split(".")
        if section not in _SECTIONS:
            raise ConfigError(f"line {lineno}: unknown section {section!r}")
        f = field_types[section].get(name)
        if f is None:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        seen.add(key)
        try:
            value = _VALUE_PARSERS[f.type](raw)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from None
        staged[section][name] = value
    cfg = ExperimentConfig(
        **{name: cls(**staged[name]) for name, cls in _SECTIONS.items()},
        sha256=hashlib.sha256(text.encode()).hexdigest(),
        base_dir=base_dir or Path("."),
    )
    return validate(cfg)


def load_config(path: str | Path) -> ExperimentConfig:
    p = Path(path)
    try:
        text = p.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {p}: {exc}") from None
    return parse_config(text, base_dir=p.parent)


def validate(cfg: ExperimentConfig) -> ExperimentConfig:
    """cfg once every key holds an admissible value, else ConfigError naming the key."""
    g, e, a, o, flt = cfg.graph, cfg.ensemble, cfg.algo, cfg.output, cfg.filter
    if g.source not in ("generator", "edges"):
        raise ConfigError(f"graph.source must be generator or edges, got {g.source!r}")
    if g.source == "edges" and not g.path:
        raise ConfigError("graph.source = edges requires graph.path")
    if g.source == "generator" and (g.n < 2 or not (0.0 < g.radius) or g.weight <= 0.0):
        raise ConfigError("generator needs graph.n >= 2, radius > 0, weight > 0")
    if g.max_degree < 0:
        raise ConfigError("graph.max_degree must be >= 0 (0 disables the cap)")
    if e.dim < 1:
        raise ConfigError("ensemble.dim must be >= 1")
    if e.target not in ("smooth", "file"):
        raise ConfigError(f"ensemble.target must be smooth or file, got {e.target!r}")
    if e.target == "smooth" and len(e.tau) not in (0, e.dim):
        raise ConfigError(
            f"ensemble.tau needs {e.dim} entries (one per component), got {len(e.tau)}"
        )
    if e.target == "file" and not e.target_path:
        raise ConfigError("ensemble.target = file requires ensemble.target_path")
    if e.profile not in ("uniform", "scalar", "file"):
        raise ConfigError(
            f"ensemble.profile must be uniform, scalar or file, got {e.profile!r}"
        )
    if e.profile == "file" and not e.profile_path:
        raise ConfigError("ensemble.profile = file requires ensemble.profile_path")
    if e.profile == "uniform" and (e.sigma_u_sq <= 0.0 or e.sigma_v_sq <= 0.0):
        raise ConfigError("uniform profile needs positive sigma_u_sq and sigma_v_sq")
    for name, rng in (("sigma_u_range", e.sigma_u_range), ("sigma_v_range", e.sigma_v_range)):
        if len(rng) != 2 or not (0.0 < rng[0] <= rng[1] < math.inf):
            raise ConfigError(f"ensemble.{name} must be 'lo, hi' with 0 < lo <= hi < inf")
    if not a.mu or not all(math.isfinite(m) and m > 0.0 for m in a.mu):
        raise ConfigError("algo.mu must list at least one finite positive step size")
    if not a.eta or not all(math.isfinite(h) and h >= 0.0 for h in a.eta):
        raise ConfigError("algo.eta must list at least one finite nonnegative value")
    if a.n_iters < 0 or a.n_runs < 1 or a.jobs < 1:
        raise ConfigError("algo.n_iters >= 0, n_runs >= 1 and jobs >= 1 required")
    if a.seed < 0 or a.seed > 0xFFFFFFFFFFFFFFFF:
        raise ConfigError("algo.seed must fit in an unsigned 64-bit integer")
    if g.seed < 0 or e.seed < 0:
        raise ConfigError("graph.seed and ensemble.seed must be >= 0")
    if not (0.0 < a.steady_window_frac <= 1.0):
        raise ConfigError("algo.steady_window_frac must lie in (0, 1]")
    bad = set(o.formats) - {"csv", "svg"}
    if bad:
        raise ConfigError(f"output.formats may only contain csv, svg: {sorted(bad)}")
    if not (math.isfinite(flt.lambda_max) and flt.lambda_max > 0.0):
        raise ConfigError("filter.lambda_max must be finite and > 0")
    if not 2 <= flt.lambda_points <= MAX_POINTS:
        raise ConfigError(f"filter.lambda_points must lie in [2, {MAX_POINTS}]")
    return cfg


def build_graph(cfg: ExperimentConfig) -> Graph:
    """Materialize the configured topology."""
    g = cfg.graph
    if g.source == "edges":
        return load_edge_list(cfg.resolve(g.path))
    return random_geometric_graph(
        g.n,
        g.radius,
        weight=g.weight,
        seed=g.seed,
        max_degree=g.max_degree or None,
    )


def _load_matrix(cfg: ExperimentConfig, key: str, value: str) -> np.ndarray:
    path = cfg.resolve(value)
    try:
        return np.loadtxt(path, ndmin=2)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{key}: cannot read {path}: {exc}") from exc


def build_ensemble(cfg: ExperimentConfig, g: Graph) -> TaskEnsemble:
    """Materialize targets and data profile on the given topology."""
    e = cfg.ensemble
    if e.target == "smooth":
        tau = np.asarray(e.tau if e.tau else [7.0 + j for j in range(1, e.dim + 1)])
        targets = make_smooth_target(g, tau, e.dim)
    else:
        raw = _load_matrix(cfg, "ensemble.target_path", e.target_path)
        if raw.shape != (g.n_agents, e.dim):
            raise ConfigError(
                f"target file has shape {raw.shape}, expected ({g.n_agents}, {e.dim})"
            )
        targets = StackedSignal.from_blocks(raw)
    if e.profile == "uniform":
        return uniform_profile(targets, sigma_u_sq=e.sigma_u_sq, sigma_v_sq=e.sigma_v_sq)
    if e.profile == "scalar":
        return varying_profile(
            targets,
            seed=e.seed,
            sigma_u_sq_range=(e.sigma_u_range[0], e.sigma_u_range[1]),
            sigma_v_sq_range=(e.sigma_v_range[0], e.sigma_v_range[1]),
        )
    raw = _load_matrix(cfg, "ensemble.profile_path", e.profile_path)
    if raw.ndim != 2 or raw.shape != (g.n_agents, 2):
        raise ConfigError(
            f"profile file has shape {raw.shape}, expected ({g.n_agents}, 2) "
            "(columns sigma_u_sq, sigma_v_sq)"
        )
    return scalar_profile(targets, raw[:, 0], raw[:, 1])
