from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import mtdiff as mt

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=50,
    print_blob=True,  # a failure prints its @reproduce_failure blob; draws stay random
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

SRC_DIR = Path(__file__).resolve().parent.parent / "src" / "mtdiff"


@pytest.fixture(scope="session")
def bench_graph() -> mt.Graph:
    """The bundled 15-node geometric topology (distinct spectrum, degree-capped)."""
    return mt.random_geometric_graph(15, 0.35, weight=0.1, seed=9, max_degree=5)


@pytest.fixture(scope="session")
def smooth_targets(bench_graph) -> mt.StackedSignal:
    return mt.make_smooth_target(bench_graph, np.linspace(8.0, 12.0, 5), 5)


@pytest.fixture(scope="session")
def het_ensemble(smooth_targets) -> mt.TaskEnsemble:
    """Heterogeneous isotropic profile, the simulation benchmark."""
    return mt.varying_profile(smooth_targets, seed=7)


@pytest.fixture(scope="session")
def uni_ensemble(smooth_targets) -> mt.TaskEnsemble:
    return mt.uniform_profile(smooth_targets, sigma_u_sq=1.0, sigma_v_sq=0.1)


@pytest.fixture
def line_graph() -> mt.Graph:
    """Five nodes in a path - convenient for locality arguments."""
    a = np.zeros((5, 5))
    for i in range(4):
        a[i, i + 1] = a[i + 1, i] = 0.1
    return mt.build_graph(a)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """The library's source line count, in total and per module, the three
    slowest tests' call durations, then one pass/fail line per acceptance
    criterion, at the end of the run."""
    lines = {path.name: path.read_bytes().count(b"\n") for path in sorted(SRC_DIR.glob("*.py"))}
    terminalreporter.section("source size")
    terminalreporter.write_line(
        f"src/mtdiff: {sum(lines.values())} lines in {len(lines)} .py files"
    )
    for name, count in lines.items():
        terminalreporter.write_line(f"{count:6d}  {name}")
    calls = [
        report
        for reports in terminalreporter.stats.values()
        for report in reports
        if getattr(report, "when", None) == "call"
    ]
    if calls:
        terminalreporter.section("slowest tests")
        for report in sorted(calls, key=lambda r: r.duration, reverse=True)[:3]:
            terminalreporter.write_line(f"{report.duration:8.2f} s  {report.nodeid}")
    mod = sys.modules.get("test_acceptance")
    if mod is None:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(mod.CRITERIA):
        name = mod.CRITERIA[num]
        if num in mod.RESULTS:
            ok, detail = mod.RESULTS[num]
            status = "PASS" if ok else "FAIL"
            terminalreporter.write_line(f"ACCEPTANCE {num} [{name}]: {status} — {detail}")
        else:
            terminalreporter.write_line(f"ACCEPTANCE {num} [{name}]: NOT RUN")
