#!/usr/bin/env python3
"""Recovery study for the stepwise selection procedures.

Simulates data from one of the bundled synthetic true models, runs forward
per-margin or backward staged selection on every replication and scores the
selected zero set against the truth:

  exact      selected zero set == true zero set
  false keep a truly zero coefficient left free (missed constraint)
  false drop a truly nonzero coefficient constrained to zero

With the defaults (forward: seeds 1000.., n scaled x2.5; backward: seeds
7000.., preset sizes) the run reproduces the recovery rates quoted in the
acceptance suite.

Usage:
  python scripts/run_selection_study.py --method forward --reps 100
  python scripts/run_selection_study.py --method backward --reps 100 --alpha 0.01
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from lmlreg import backward_staged_selection, forward_margin_selection, simulate
from lmlreg.presets import single_covariate_preset, two_covariate_preset


def run(args: argparse.Namespace) -> dict[str, float]:
    preset = single_covariate_preset() if args.method == "forward" else two_covariate_preset()
    select = forward_margin_selection if args.method == "forward" else backward_staged_selection
    true_zeros = preset.spec.zero_set
    totals = tuple(int(round(t * args.scale)) for t in preset.column_totals)

    exact = 0
    false_keeps = 0
    false_drops = 0
    sizes = []
    t0 = time.perf_counter()
    for rep in range(args.reps):
        data = simulate(preset.beta_gamma, "lml", totals, seed=args.seed0 + rep)
        trace = select(data, alpha=args.alpha)
        chosen = trace.zero_set
        exact += chosen == true_zeros
        false_keeps += len(true_zeros - chosen)
        false_drops += len(chosen - true_zeros)
        sizes.append(len(chosen))
    elapsed = time.perf_counter() - t0

    return {
        "exact_rate": exact / args.reps,
        "keep_rate": false_keeps / (args.reps * len(true_zeros)),
        "drop_rate": false_drops / (args.reps * (preset.responses.size - 1) * preset.covariates.size
                                    - args.reps * len(true_zeros)),
        "mean_zero_set": sum(sizes) / args.reps,
        "true_zero_set": float(len(true_zeros)),
        "seconds": elapsed,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--method", choices=("forward", "backward"), default="forward")
    ap.add_argument("--reps", type=int, default=100)
    ap.add_argument("--alpha", type=float, default=0.05)
    ap.add_argument("--seed0", type=int, default=None,
                    help="base seed (rep r uses seed0 + r); default 1000 forward, 7000 backward")
    ap.add_argument("--scale", type=float, default=None,
                    help="multiplier on the preset cell totals; default 2.5 forward, 1.0 backward")
    args = ap.parse_args(argv)
    forward = args.method == "forward"
    if args.seed0 is None:
        args.seed0 = 1000 if forward else 7000
    if args.scale is None:
        args.scale = 2.5 if forward else 1.0

    print(f"method={args.method} reps={args.reps} alpha={args.alpha} "
          f"seed0={args.seed0} scale={args.scale}")
    stats = run(args)
    print(f"exact recovery        {stats['exact_rate']:6.1%}")
    print(f"false-keep rate       {stats['keep_rate']:7.4f}  (per true zero)")
    print(f"false-drop rate       {stats['drop_rate']:7.4f}  (per true nonzero)")
    print(f"mean |zero set|       {stats['mean_zero_set']:6.2f}  (truth {stats['true_zero_set']:.0f})")
    print(f"elapsed               {stats['seconds']:6.1f}s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
