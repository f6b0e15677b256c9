"""The benchmark's Monte-Carlo, theory and CLI families on the current library.

bench/workloads.py is imported as it is and its families run at control
size, so an API, numerics or output change that would make the benchmark fail
its own output checks fails here first.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import numpy as np  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

from mtdiff.theory import GRID_ROUTE_ETAS  # noqa: E402


def test_mc_family_is_bitwise_identical_across_jobs(tmp_path):
    inp = workloads.setup("theory150", seed=5, work=tmp_path, nproc=2)
    assert workloads._mc_iters(inp) == workloads.MC_ITERS[False]
    assert inp.jobs == 2  # the two 64-run blocks run on two threads
    tally = workloads.Tally()
    workloads._run_mc(inp, Tracer(), tally)
    # two monte_carlo calls, then the jobs-bitwise check
    assert (tally.attempted, tally.failed) == (3, 0)


def test_theory_family_passes_its_output_checks(tmp_path):
    inp = workloads.setup("mc15", seed=5, work=tmp_path, nproc=1)
    assert inp.grid.size == workloads.THEORY_POINTS[False]
    tally = workloads.Tally()
    workloads._run_theory(inp, Tracer(), tally)
    # one operation per report and one for the sweep, then the two checks
    assert (tally.attempted, tally.failed) == (inp.grid.size + 3, 0)


def test_full_theory_grid_takes_the_grid_route(tmp_path, monkeypatch):
    """theory150's full grid: 16 reports, then optimize_eta on the pencil route,
    whose two eigendecompositions (one per pencil of the isotropic profile's
    one group) are the only eigh calls of the family."""
    inp = workloads.setup("theory150", seed=5, work=tmp_path, nproc=1)
    assert inp.grid.size == workloads.THEORY_POINTS[True] > GRID_ROUTE_ETAS
    eighs = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: eighs.append(a.shape) or eigh(a))
    tally = workloads.Tally()
    workloads._run_theory(inp, Tracer(), tally)
    assert (tally.attempted, tally.failed) == (inp.grid.size + 3, 0)
    assert eighs == [(1, 150, 150)] * 2


def test_cli_family_exits_0_and_reruns_byte_identical(tmp_path):
    inp = workloads.setup("mc15", seed=5, work=tmp_path, nproc=1)
    tally = workloads.Tally()
    digests: dict = {}
    for _ in range(2):
        counts = workloads._run_cli(inp, tmp_path / "out", Tracer(), tally, digests)
    assert counts["cli.output_bytes"] > counts["svg.bytes"] > 0
    assert {name.split("/")[0] for name in digests} == set(workloads.SUBCOMMANDS)
    # per run one operation and one exit check per subcommand, then the rerun check
    n = len(workloads.SUBCOMMANDS)
    assert (tally.attempted, tally.failed) == (4 * n + 1, 0)
