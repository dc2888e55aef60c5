#!/usr/bin/env python3
"""End-to-end walkthrough on synthetic data: simulate, select, fit, report.

Generates one dataset from the bundled two-covariate true model, runs
backward staged selection, refits the chosen model and prints everything an
analysis would look at: the selection trace, the coefficient table, the
response independencies the zero set implies, single-response relative
risks, and the covariate's average effect by comorbidity size.  All
artifacts (data, true and selected zero sets, fitted coefficients) are
written under --outdir.

Usage:
  python scripts/run_demo_pipeline.py --outdir /tmp/lmlreg-demo
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from lmlreg import (
    average_effects,
    backward_staged_selection,
    implied_response_independencies,
    risk_report,
    simulate,
    wald_tests,
)
from lmlreg.io import write_count_data, write_param_matrix, write_zero_set
from lmlreg.presets import two_covariate_preset


@dataclass(frozen=True)
class DemoConfig:
    outdir: Path = Path("demo-out")
    seed: int = 2026
    alpha: float = 0.05
    scale: float = 1.0
    effect: str = "h"


def run(cfg: DemoConfig) -> None:
    preset = two_covariate_preset()
    V, U = preset.responses, preset.covariates
    totals = tuple(int(round(t * cfg.scale)) for t in preset.column_totals)
    cfg.outdir.mkdir(parents=True, exist_ok=True)

    data = simulate(preset.beta_gamma, "lml", totals, seed=cfg.seed)
    with open(cfg.outdir / "data.csv", "w") as f:
        write_count_data(data, f)
    with open(cfg.outdir / "true_coeffs.csv", "w") as f:
        write_param_matrix(preset.beta_gamma, f)
    with open(cfg.outdir / "true_zeros.txt", "w") as f:
        write_zero_set(preset.spec.zero_set, V, U, f)
    print(f"simulated {sum(totals)} observations over {V.size} response patterns "
          f"x {U.size} covariate cells  (seed {cfg.seed})")

    print(f"\n== backward staged selection (alpha={cfg.alpha}) ==")
    trace = backward_staged_selection(data, alpha=cfg.alpha)
    for step in trace.steps:
        if step.fit is None:
            print(f"  {step.label:14s} skipped: {step.error}")
            continue
        print(f"  {step.label:14s} dropped {len(step.dropped):2d}   "
              f"deviance {step.fit.deviance:8.2f}  df {step.fit.df:3d}  p {step.fit.p_value:.3f}")
    chosen = trace.zero_set
    true_zeros = preset.spec.zero_set
    print(f"selected {len(chosen)} zeros; truth has {len(true_zeros)} "
          f"(missed {len(true_zeros - chosen)}, extra {len(chosen - true_zeros)})")
    with open(cfg.outdir / "selected_zeros.txt", "w") as f:
        write_zero_set(chosen, V, U, f)

    final = trace.final_fit
    print(f"\n== final fit ==  loglik {final.loglik:.2f}  deviance {final.deviance:.2f} "
          f"on {final.df} df (p={final.p_value:.3f}), {final.iterations} iterations")
    print(f"  {'pattern':12s} {'cell':8s} {'estimate':>9s} {'se':>7s} {'p':>7s}")
    for d, e, est, se, p in wald_tests(final):
        mark = " *" if p < cfg.alpha else ""
        print(f"  {V.format_mask(d):12s} {U.format_mask(e):8s} {est:9.3f} {se:7.3f} {p:7.3f}{mark}")
    with open(cfg.outdir / "fitted_coeffs.csv", "w") as f:
        write_param_matrix(final.beta_hat, f)

    print("\n== response independencies implied by the selected zeros ==")
    stmts = implied_response_independencies(trace.final_fit.spec, V, U)
    if not stmts:
        print("  none")
    for _, a, b in stmts:
        print(f"  Y_{V.format_mask(a)} independent of Y_{V.format_mask(b)} given the covariates")

    print(f"\n== relative risks for single responses, covariate {cfg.effect} ==")
    print(f"  {'response':10s} {'background':12s} {'RR':>7s}")
    for entry in risk_report(final).entries:
        if entry.u == cfg.effect and entry.d_mask.bit_count() == 1:
            print(f"  {V.format_mask(entry.d_mask):10s} {U.format_mask(entry.e_mask):12s} "
                  f"{math.exp(entry.log_rr):7.3f}")

    print(f"\n== average {cfg.effect}-effect by number of responses (with 95% CI) ==")
    for eff in average_effects(final, data, cfg.effect):
        print(f"  size {eff.k}:  {eff.estimate:7.3f}  [{eff.ci[0]:7.3f}, {eff.ci[1]:7.3f}]")

    print(f"\nartifacts in {cfg.outdir}/: data.csv, true_coeffs.csv, true_zeros.txt, "
          f"selected_zeros.txt, fitted_coeffs.csv")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--outdir", type=Path, default=Path("demo-out"))
    ap.add_argument("--seed", type=int, default=2026)
    ap.add_argument("--alpha", type=float, default=0.05)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="multiplier on the preset cell totals")
    ap.add_argument("--effect", default="h", help="covariate summarized in the risk sections")
    ns = ap.parse_args(argv)
    run(DemoConfig(ns.outdir, ns.seed, ns.alpha, ns.scale, ns.effect))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
