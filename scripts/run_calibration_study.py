#!/usr/bin/env python3
"""Sampling-distribution checks for the constrained maximum-likelihood fit.

Simulates replications from the single-covariate synthetic true model, fits
the generating zero-set model to each and summarizes two classical
diagnostics:

  deviance calibration   the deviance should behave like chi-square(df):
                         mean near df, variance near 2 df, and its p-value
                         (``FitResult.p_value``) at most a level in about
                         that share of replications
  Wald coverage          each 95% interval should cover its true coefficient
                         for about 95% of replications

With the defaults (500 reps, seeds 20000..) this reproduces the deviance
numbers quoted in the acceptance suite; the coverage band there uses
--reps 1000 --seed0 50000.  Draws whose maximum sits on the boundary of the
probability simplex (an empty observed cell) are reported separately.

Usage:
  python scripts/run_calibration_study.py
  python scripts/run_calibration_study.py --reps 1000 --seed0 50000
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from lmlreg import fit, simulate
from lmlreg.presets import single_covariate_preset
from lmlreg.selection import CI_Z


def run(args: argparse.Namespace) -> None:
    preset = single_covariate_preset()
    spec = preset.spec
    truth = preset.beta_gamma.values
    totals = tuple(int(round(t * args.scale)) for t in preset.column_totals)

    deviances = []
    p_values = []
    hits = 0
    boundary = 0
    iters = []
    t0 = time.perf_counter()
    for rep in range(args.reps):
        data = simulate(preset.beta_gamma, "lml", totals, seed=args.seed0 + rep)
        res = fit(spec, data)
        if not res.converged:
            boundary += 1
        deviances.append(res.deviance)
        p_values.append(res.p_value)
        iters.append(res.iterations)
        covered = np.abs(res.estimates - truth[tuple(res.free_pairs)]) <= CI_Z * res.std_errors
        hits = hits + covered   # counts: 0 + bool is int, and int + bool stays int
    elapsed = time.perf_counter() - t0

    df = spec.df
    dev = np.asarray(deviances)
    p_values = np.asarray(p_values)
    coverage = hits / args.reps
    print(f"reps={args.reps} seed0={args.seed0} totals={totals} model df={df} "
          f"free={len(coverage)}  [{elapsed:.1f}s]")
    print(f"deviance mean / df      {dev.mean() / df:7.3f}")
    print(f"deviance var  / 2 df    {dev.var() / (2 * df):7.3f}")
    for level in (0.50, 0.10, 0.05, 0.01):
        share = np.mean(p_values <= level)
        print(f"share p <= {level:.2f}        {share:7.3f}  (nominal {level:.2f})")
    print(f"coverage min/mean/max   {coverage.min():.3f} / {coverage.mean():.3f} / {coverage.max():.3f}")
    print(f"boundary (non-interior) {boundary} of {args.reps}")
    print(f"newton iterations       mean {np.mean(iters):.2f}, max {max(iters)}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--reps", type=int, default=500)
    ap.add_argument("--seed0", type=int, default=20000)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="multiplier on the preset cell totals")
    run(ap.parse_args(argv))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
