#!/usr/bin/env python3
"""Sampling-distribution checks for the constrained maximum-likelihood fit.

Simulates replications from the single-covariate synthetic true model, fits
the generating zero-set model to each and summarizes two classical
diagnostics:

  deviance calibration   the deviance should behave like chi-square(df):
                         mean near df, upper quantiles near the chi-square ones
  Wald coverage          each 95% interval should cover its true coefficient
                         for about 95% of replications

With the defaults (500 reps, seeds 20000..) this reproduces the deviance
numbers quoted in the acceptance suite; the coverage band there uses
--reps 1000 --seed0 50000.  Draws whose maximum sits on the boundary of the
probability simplex (an empty observed cell) are reported separately.

The chi-square quantiles come from scipy.stats, so the script needs the
``test`` extra (``pip install -e '.[test]'``).

Usage:
  python scripts/run_calibration_study.py
  python scripts/run_calibration_study.py --reps 1000 --seed0 50000
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import stats as sps

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from lmlreg import fit, simulate
from lmlreg.presets import single_covariate_preset

CI_Z = 1.96


@dataclass(frozen=True)
class CalibConfig:
    reps: int = 500
    seed0: int = 20000
    scale: float = 1.0


def run(cfg: CalibConfig) -> None:
    preset = single_covariate_preset()
    spec = preset.spec
    truth = preset.beta_gamma.values
    totals = tuple(int(round(t * cfg.scale)) for t in preset.column_totals)

    deviances = []
    hits = None
    boundary = 0
    iters = []
    t0 = time.perf_counter()
    for rep in range(cfg.reps):
        data = simulate(preset.beta_gamma, "lml", totals, seed=cfg.seed0 + rep)
        res = fit(spec, data)
        if not res.converged:
            boundary += 1
        deviances.append(res.deviance)
        iters.append(res.iterations)
        if hits is None:
            hits = np.zeros(len(res.free_index))
        for i, pos in enumerate(res.free_index):
            if abs(res.estimates[i] - truth[pos]) <= CI_Z * res.std_errors[i]:
                hits[i] += 1
    elapsed = time.perf_counter() - t0

    df = spec.df
    dev = np.asarray(deviances)
    coverage = hits / cfg.reps
    print(f"reps={cfg.reps} seed0={cfg.seed0} totals={totals} model df={df} "
          f"free={len(coverage)}  [{elapsed:.1f}s]")
    print(f"deviance mean / df      {dev.mean() / df:7.3f}")
    print(f"deviance var  / 2 df    {dev.var() / (2 * df):7.3f}")
    for q in (0.50, 0.90, 0.95, 0.99):
        ratio = np.quantile(dev, q) / sps.chi2.ppf(q, df)
        print(f"q{int(q * 100):02d} / chi2 q{int(q * 100):02d}          {ratio:7.3f}")
    print(f"coverage min/mean/max   {coverage.min():.3f} / {coverage.mean():.3f} / {coverage.max():.3f}")
    print(f"boundary (non-interior) {boundary} of {cfg.reps}")
    print(f"newton iterations       mean {np.mean(iters):.2f}, max {max(iters)}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--reps", type=int, default=500)
    ap.add_argument("--seed0", type=int, default=20000)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="multiplier on the preset cell totals")
    ns = ap.parse_args(argv)
    run(CalibConfig(ns.reps, ns.seed0, ns.scale))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
