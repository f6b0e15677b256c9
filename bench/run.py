"""mtdiff benchmark: end-to-end timings, or per-layer timings with --trace 1.

Run from the root of a checkout:

    python3 bench/run.py --workload mc15 --seed 2024 --seconds 40 --trace 0

Without --workload every workload runs in turn.  The last line of standard
output for each workload is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

from spans import SpanTable, Tracer, traced_layers

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# One BLAS thread: the process already runs jobs=2 engine threads on as few as
# two cores, and a multi-threaded BLAS that loses a core to another process
# stalls at every barrier.  Set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

#: set-ups before each iteration
SETUPS_PER_ITER = 5
#: iterations per measuring loop, however short --seconds is
MIN_ITERS = 3
#: Philox calibrations per traced run; engine.rng_floor_us is their median
FLOOR_REPEATS = 9


def _units(kind: str) -> dict:
    """Metric name -> unit, as BENCHMARK.json lists them under ``kind``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def _machine(np) -> dict:
    """Facts that a timing depends on, printed beside the result."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(np),
        "commit": _git_commit(),
    }


def _blas_threads(np) -> int | None:
    """Thread count of the OpenBLAS library bundled with numpy, if any."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(lib_path))
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _mean_dict(samples: list[dict]) -> dict:
    """Per-key mean over the traced iterations of a run.  Per-layer metrics
    carry no bound, and a traced run has only a few iterations."""
    return {k: statistics.fmean(s[k] for s in samples) for k in samples[0]}


def _measure(wl, workload, seed, seconds, tracer, tally, work, digests):
    """Closed loop: run iterations while the next one is expected to end
    within ``seconds``, and at least MIN_ITERS of them.  Each iteration first
    builds the inputs SETUPS_PER_ITER times, so set-up is sampled across the
    whole run like everything else.  Returns (inputs, span table, byte counts)
    of each iteration that raised nothing."""
    nproc = len(os.sched_getaffinity(0))
    done = []
    lengths = []
    deadline = time.perf_counter() + seconds
    while len(lengths) < MIN_ITERS or (
        time.perf_counter() + statistics.median(lengths) < deadline
    ):
        tracer.reset()
        out = work / f"out{len(lengths)}"
        start = time.perf_counter()
        try:
            for _ in range(SETUPS_PER_ITER):
                with tracer.span("setup"):
                    inp = wl.setup(workload, seed, work, nproc)
            counts = wl.run_iteration(inp, out, tracer, tally, digests)
        except Exception:
            traceback.print_exc()
            tally.fail()
            shutil.rmtree(out, ignore_errors=True)
        else:
            done.append((inp, SpanTable(tracer.spans), counts))
        lengths.append(time.perf_counter() - start)
    return done


def run_workload(wl, workload: str, seed: int, seconds: float, trace: bool) -> dict | None:
    """Measure one workload; None when no iteration completed."""
    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch))
    tally = wl.Tally()
    tracer = Tracer()
    digests: dict = {}
    try:
        if not trace:
            done = _measure(wl, workload, seed, seconds, tracer, tally, work, digests)
            if not done:
                return None
            samples: dict[str, list[float]] = {}
            for inp, table, _ in done:
                for name, values in wl.end_to_end(inp, table).items():
                    samples.setdefault(name, []).extend(values)
            print("# samples " + json.dumps(samples))
            # Speed on a shared machine drifts in spells of seconds to
            # minutes.  The mean weighs each spell by its share of the run;
            # a median of a few samples jumps between spells and spreads more
            # between runs.  setup_s has dozens of samples, the first of them
            # cold, so it takes the median.
            metrics = {name: statistics.fmean(v) for name, v in samples.items()}
            metrics["setup_s"] = statistics.median(samples["setup_s"])
            metrics["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            )
            units = _units("end_to_end")
        else:
            plain = _measure(wl, workload, seed, seconds / 2, tracer, tally, work, digests)
            with traced_layers(tracer):
                traced = _measure(wl, workload, seed, seconds / 2, tracer, tally, work, digests)
            if not plain or not traced:
                return None
            metrics = _mean_dict([{**wl.per_layer(inp, t), **c} for inp, t, c in traced])
            floor = wl.rng_floor_us(traced[-1][0], FLOOR_REPEATS)
            metrics["engine.rng_floor_us"] = floor
            metrics["engine.above_floor_us"] = metrics["engine.us_per_run_iter"] - floor
            wall_plain = statistics.fmean(t.root_total("bench.") for _, t, _ in plain)
            wall_traced = statistics.fmean(t.root_total("bench.") for _, t, _ in traced)
            metrics["bench.trace_overhead_pct"] = (wall_traced / wall_plain - 1.0) * 100.0
            _print_self_times(traced)
            units = _units("per_layer")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    for name in sorted(metrics):
        print(f"{name} = {metrics[name]!r} {units[name]}")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in sorted(metrics.items())
        },
    }


def _print_self_times(traced) -> None:
    """Self time of each span name over the traced iterations, as a share of
    their wall time."""
    wall = sum(t.root_total("bench.") for _, t, _ in traced)
    totals: dict[str, float] = {}
    for _, table, _ in traced:
        for name, value in table.self_by_name().items():
            totals[name] = totals.get(name, 0.0) + value
    for name, value in sorted(totals.items(), key=lambda kv: -kv[1]):
        print(f"# self {name:<24} {value * 1e3:10.1f} ms {100.0 * value / wall:6.2f} %")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="mc15, theory150 or cli15 (default: all)")
    parser.add_argument(
        "--seed", type=int, default=2024, help="workload seed (default: the bundled algo.seed)"
    )
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must lie in [0, 2**63)")

    if not (SRC / "mtdiff" / "__init__.py").is_file():
        print(f"no mtdiff sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import mtdiff
    import numpy as np

    import workloads as wl

    if SRC.resolve() not in Path(mtdiff.__file__).resolve().parents:
        print(f"mtdiff was imported from {mtdiff.__file__}, not {SRC}", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(wl.WORKLOADS)
    if not set(names) <= set(wl.WORKLOADS):
        parser.error(f"--workload must be one of {', '.join(wl.WORKLOADS)}")

    print("# machine " + json.dumps(_machine(np)), flush=True)
    status = 0
    for workload in names:
        result = run_workload(wl, workload, args.seed, args.seconds, bool(args.trace))
        if result is None:
            print(f"{workload}: no iteration completed", file=sys.stderr)
            status = 1
            continue
        print(json.dumps(result), flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
