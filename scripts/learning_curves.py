#!/usr/bin/env python3
"""Monte-Carlo learning curves vs the closed-form steady-state level.

Runs the heterogeneous 15-node benchmark at several regularization strengths
and writes one SVG with all curves plus their predicted floors.

Usage: python3 scripts/learning_curves.py [--runs 200] [--jobs 4] [--out out/curves]
"""

from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np

import mtdiff as mt
from mtdiff.svg import Series, line_chart


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--etas", type=float, nargs="+", default=[0.0, 1.0, 5.0, 20.0])
    ap.add_argument("--mu", type=float, default=1e-3)
    ap.add_argument("--runs", type=int, default=200)
    ap.add_argument("--seed", type=int, default=2024)
    ap.add_argument("--jobs", type=int, default=4)
    ap.add_argument("--out", type=Path, default=Path("out/curves"))
    args = ap.parse_args()

    g = mt.random_geometric_graph(15, 0.35, weight=0.1, seed=9, max_degree=5)
    targets = mt.make_smooth_target(g, np.linspace(8, 12, 5), 5)
    ens = mt.varying_profile(targets, seed=7)

    series: list[Series] = []
    for eta in args.etas:
        cfg = mt.SimConfig(mu=args.mu, eta=eta, n_runs=args.runs, seed=args.seed)
        res = mt.monte_carlo(ens, g, cfg, jobs=args.jobs)
        th = mt.msd_theory(ens, g, args.mu, eta).msd_total
        t = res.curve_vs_reg.size
        series.append(Series(f"eta={eta:g}", np.arange(t), res.curve_vs_reg))
        series.append(Series(f"theory eta={eta:g}", [0, t - 1], [th, th], dash="5 4"))
        print(
            f"eta={eta:g}: sim {10 * np.log10(res.steady_msd_vs_reg):.2f} dB, "
            f"theory {10 * np.log10(th):.2f} dB"
        )

    args.out.mkdir(parents=True, exist_ok=True)
    doc = line_chart(
        series,
        title=f"learning curves, mu={args.mu:g}, {args.runs} runs",
        x_label="iteration",
        y_label="MSD vs regularized point",
        y_db=True,
    )
    (args.out / "learning_curves.svg").write_text(doc)
    print(f"wrote {args.out / 'learning_curves.svg'}")


if __name__ == "__main__":
    main()
