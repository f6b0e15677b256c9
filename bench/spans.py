"""In-memory span tracing around the public functions of each mtdiff layer.

Nothing here edits the library: ``traced_layers`` rebinds the names under
which each module looks a public function up (for example
``mtdiff.cli.monte_carlo`` and ``mtdiff.theory.solve_regularized``) to a
wrapper that records a span, and rebinds the originals when it exits.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from contextlib import contextmanager


class Tracer:
    """Spans kept in memory as ``[name, start, end, parent index]``.

    A span's parent is the innermost open span of the same thread, so a call
    made on a worker thread starts a new root.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._local = threading.local()

    def reset(self) -> None:
        self.spans = []

    @contextmanager
    def span(self, name: str):
        stack = self._local.__dict__.setdefault("open", [])
        spans = self.spans
        idx = len(spans)
        spans.append([name, time.perf_counter(), None, stack[-1] if stack else None])
        stack.append(idx)
        try:
            yield
        finally:
            stack.pop()
            spans[idx][2] = time.perf_counter()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced


#: (span name, module, attribute) of each public function the benchmark times.
#: Package-level names are used where the package exports one, so a function
#: that moves between modules keeps its span.
_LAYERS = [
    ("graphs.build_graph", "mtdiff", "build_graph"),
    ("tasks.ensemble", "mtdiff", "make_smooth_target"),
    ("tasks.ensemble", "mtdiff", "uniform_profile"),
    ("tasks.ensemble", "mtdiff", "scalar_profile"),
    ("tasks.ensemble", "mtdiff", "varying_profile"),
    ("config.load", "mtdiff.config", "load_config"),
    ("engine.monte_carlo", "mtdiff", "monte_carlo"),
    ("engine.stability", "mtdiff", "check_stability"),
    ("regularized.solve", "mtdiff", "solve_regularized"),
    ("regularized.bias", "mtdiff", "long_term_bias"),
    ("theory.report", "mtdiff", "theory_report"),
    ("theory.optimize_eta", "mtdiff", "optimize_eta"),
    ("svg.line_chart", "mtdiff.svg", "line_chart"),
]


def _layer_functions():
    """(span name, function) for each entry of _LAYERS that still exists."""
    found = []
    for name, module, attr in _LAYERS:
        fn = getattr(importlib.import_module(module), attr, None)
        if fn is not None:
            found.append((name, fn))
    return found


@contextmanager
def traced_layers(tracer: Tracer):
    """Rebind every ``mtdiff`` module attribute that names a layer function
    to a tracing wrapper; the ensemble constructor is wrapped on its class."""
    from mtdiff.tasks import TaskEnsemble

    by_id = {id(fn): (name, fn) for name, fn in _layer_functions()}
    patches = []
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "mtdiff" and not mod_name.startswith("mtdiff."):
            continue
        for attr, value in list(vars(mod).items()):
            hit = by_id.get(id(value))
            if hit is not None and hit[1] is value:
                patches.append((mod, attr, value))
                setattr(mod, attr, tracer.wrap(hit[0], value))
    post_init = TaskEnsemble.__post_init__
    patches.append((TaskEnsemble, "__post_init__", post_init))
    TaskEnsemble.__post_init__ = tracer.wrap("tasks.ensemble", post_init)
    try:
        yield
    finally:
        for owner, attr, value in reversed(patches):
            setattr(owner, attr, value)


class SpanTable:
    """Durations, self times and root names of one list of spans."""

    def __init__(self, spans: list[list]):
        self.names = [s[0] for s in spans]
        self.dur = [s[2] - s[1] for s in spans]
        self.self_time = list(self.dur)
        self.root = []
        for i, (_, _, _, parent) in enumerate(spans):
            if parent is None:
                self.root.append(self.names[i])
            else:
                self.self_time[parent] -= self.dur[i]
                self.root.append(self.root[parent])
        self.parent = [s[3] for s in spans]

    def _select(self, name: str, root: str | None):
        """Spans called ``name`` whose root span's name starts with ``root``."""
        return [
            i
            for i, n in enumerate(self.names)
            if n == name and (root is None or self.root[i].startswith(root))
        ]

    def count(self, name: str, root: str | None = None) -> int:
        return len(self._select(name, root))

    def self_sum(self, name: str, root: str | None = None) -> float:
        return sum(self.self_time[i] for i in self._select(name, root))

    def durations(self, name: str, root: str | None = None) -> list[float]:
        """Durations of the ``name`` spans not nested in another ``name``
        span, in the order they started."""
        out = []
        for i in self._select(name, root):
            p = self.parent[i]
            while p is not None and self.names[p] != name:
                p = self.parent[p]
            if p is None:
                out.append(self.dur[i])
        return out

    def outer_sum(self, name: str, root: str | None = None) -> float:
        """Total duration of ``name`` spans not nested in another ``name`` span."""
        return sum(self.durations(name, root))

    def root_total(self, prefix: str) -> float:
        """Total duration of the root spans whose name starts with ``prefix``."""
        return sum(
            d
            for d, n, p in zip(self.dur, self.names, self.parent)
            if p is None and n.startswith(prefix)
        )

    def self_by_name(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for n, t in zip(self.names, self.self_time):
            out[n] = out.get(n, 0.0) + t
        return out
