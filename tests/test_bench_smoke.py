"""The benchmark's theory family on the current library.

bench/workloads.py is imported as it is and its theory family runs at
control size, so an API or numerics change that would make the benchmark fail
its own output checks fails here first.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402


def test_theory_family_passes_its_output_checks(tmp_path):
    inp = workloads.setup("mc15", seed=5, work=tmp_path, nproc=1)
    assert inp.grid.size == workloads.THEORY_POINTS[False]
    tally = workloads.Tally()
    workloads._run_theory(inp, Tracer(), tally)
    # one operation per report and one for the sweep, then the two checks
    assert (tally.attempted, tally.failed) == (inp.grid.size + 3, 0)
