"""Command-line interface: fit, transform, select, risk, simulate, plot-data.

All commands read comma-separated input and write TSV (3 fixed decimals) or
JSON (6 decimals) to stdout; ``plot-data`` and ``simulate`` emit CSV data
series at full precision since their output is meant to be consumed by
other programs rather than read as a table.  Both renderings are written
from encoded columns: each command turns its numeric columns into text
with one call each (``io.fixed_floats`` for TSV, ``io.json_floats`` for
JSON) and then only joins tokens.  ``risk`` takes its columns straight from
``risk.risk_table``, with no object per entry, and ``fit`` and ``select``
take each fit's from ``_coefficient_table``, which builds the table once
with the rendering's encoder.  Every JSON document goes through
``io.write_json``, which takes tables of records as token columns, not as
one dict per entry, and writes the document from one walk; ``transform``
gives it each matrix as one ``io.Matrix`` leaf from ``io.json_matrix``, the
text of all its values, which two replaces lay out as rows.

Each call builds only the parser it uses: when the first argument names a
command, only that command's subparser is registered, and the top-level
usage still lists all six (:func:`build_parser`).  Help, no arguments or an
unknown command build every subparser.

Exit codes: 0 success, 1 the reader closed the output early, 2
configuration error, 3 data error, 4 numerical failure (boundary or
non-convergence), 5 internal error.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import io as lio
from .inference import (
    ConvergenceError,
    CountTable,
    DataError,
    FitOptions,
    FitResult,
    ModelSpec,
    _sample_counts,
    fit,
    induced_mu_stats,
)
from .io import (ConfigError, Raw, Records, Tokens, fixed_floats, json_floats, json_matrix,
                 json_strings)
from .lattice import SubsetLattice
from .params import (
    LINKS,
    BoundaryError,
    ParamMatrix,
    ValidationError,
    beta_kind_for_link,
    beta_values_from_mu,
    gamma_from_mu,
    mu_from_gamma,
    mu_from_pi,
    pi_from_beta,
    pi_from_mu,
    validate,
)
from .risk import risk_table
from .selection import (
    SelectionTrace,
    average_effects,
    backward_staged_selection,
    forward_margin_selection,
)

MAX_RESPONSES = 8
MAX_COVARIATES = 4
TSV_DECIMALS = 3


def _check_config(args: argparse.Namespace) -> tuple[SubsetLattice, SubsetLattice]:
    """Check every flag of one invocation before any file is opened.

    Returns the response and covariate lattices.  ``--totals`` becomes its
    list of per-cell totals and a missing ``--effect`` the only covariate.
    """
    responses = lio.parse_labels(args.responses, "--responses") if args.responses else ()
    covariates = lio.parse_labels(args.covariates, "--covariates") if args.covariates else ()
    if not responses:
        raise ConfigError("--responses is required")
    if not covariates:
        raise ConfigError("--covariates is required")
    if len(responses) > MAX_RESPONSES:
        raise ConfigError(f"at most {MAX_RESPONSES} responses are supported, got {len(responses)}")
    if len(covariates) > MAX_COVARIATES:
        raise ConfigError(f"at most {MAX_COVARIATES} covariates are supported, got {len(covariates)}")
    if set(responses) & set(covariates):
        clash = ", ".join(sorted(set(responses) & set(covariates)))
        raise ConfigError(f"labels used as both response and covariate: {clash}")
    if "alpha" in args and not 0.0 < args.alpha <= 1.0:
        raise ConfigError(f"--alpha must be in (0, 1], got {args.alpha}")
    if "smooth" in args and args.smooth is not None:
        try:
            FitOptions(smooth=args.smooth)
        except ValueError:
            rule = "finite" if args.smooth > 0 else "positive"
            raise ConfigError(f"--smooth must be {rule}, got {args.smooth}") from None
    try:
        V, U = SubsetLattice(responses), SubsetLattice(covariates)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if args.input is None:
        raise ConfigError("--input is required for this command")

    if "method" in args and args.method == "forward" and args.link != "lml":
        raise ConfigError("forward margin selection requires the lml link "
                          "(margin-consistent terms)")
    if "totals" in args:
        try:
            totals = [int(part) for part in args.totals.split(",")]
        except ValueError:
            raise ConfigError(f"--totals must be integers, got {args.totals!r}") from None
        if len(totals) == 1:
            totals = totals * U.size
        if len(totals) != U.size:
            raise ConfigError(f"--totals needs 1 or {U.size} values, got {len(totals)}")
        if any(n < 0 for n in totals):
            raise ConfigError("--totals must be nonnegative")
        args.totals = totals
    if "effect" in args:
        if args.effect is None:
            if U.ground_size != 1:
                raise ConfigError("--effect is required when there is more than one covariate")
            args.effect = U.labels[0]
        if args.effect not in U.labels:
            raise ConfigError(f"--effect must be a covariate label, got {args.effect!r}")
    return V, U


def _ingest(args: argparse.Namespace, V: SubsetLattice, U: SubsetLattice) -> CountTable:
    data = lio.read_count_data(args.input, V, U, args.format)
    empty = [U.format_mask(e) for e in np.flatnonzero(data.column_totals == 0).tolist()]
    if empty:
        print(f"warning: no observations in covariate cells: {', '.join(empty)}",
              file=sys.stderr)
    return data


def _fit_options(args: argparse.Namespace) -> FitOptions:
    return FitOptions(smooth=args.smooth, allow_missing_cells=args.allow_missing_cells)


def _fit_input(args: argparse.Namespace, V: SubsetLattice, U: SubsetLattice) -> FitResult:
    """Read the data, then the zero set if one is given, and fit; it must converge."""
    data = _ingest(args, V, U)
    zeros = () if args.zeros is None else lio.read_zero_set(args.zeros, V, U)
    return _require_converged(fit(ModelSpec(args.link, zeros), data, _fit_options(args)))


def _require_converged(result: FitResult) -> FitResult:
    if not result.converged:
        raise ConvergenceError(
            f"fit did not converge in {result.iterations} iterations "
            f"(gradient norm {result.grad_norm:.3e})")
    return result


# ---------------------------------------------------------------------------
# fit rendering (shared by fit and select)

def _fit_notes(result: FitResult) -> list[str]:
    V, U = result.beta_hat.rows, result.beta_hat.cols
    notes = []
    if result.missing_cells:
        cells = ", ".join(U.format_mask(e) for e in result.missing_cells)
        notes.append(f"likelihood restricted to observed cells (no data in: {cells})")
    if result.unidentified:
        pairs = ", ".join(f"{V.format_mask(d)};{U.format_mask(e)}" for d, e in result.unidentified)
        notes.append(f"unidentified coefficients forced to zero: {pairs}")
    if result.singular_information:
        notes.append("observed information is singular; standard errors unavailable")
    return notes


def _coefficient_table(result: FitResult, encode) -> tuple:
    """A fit's coefficient table, built once for both renderings.

    Returns its rows and columns; the slot of each (D, E), row by row, among
    the free coefficients, one past them when it is constrained; the
    estimate, se and p columns, each encoded once by ``encode``; and for lml
    the induced log-mean estimate and se at every cell in table order (none
    for lm).
    """
    V, U = result.beta_hat.rows, result.beta_hat.cols
    rows, cols = V.masks_by_cardinality(), U.masks_by_cardinality(include_empty=True)
    cells = np.ix_(rows, cols)
    n = result.free_pairs.shape[1]
    slot = np.full((V.size, U.size), n)
    slot[tuple(result.free_pairs)] = np.arange(n)
    coef = [encode(col) for col in (result.estimates, result.std_errors, result.wald_p)]
    induced = ([encode(m[cells]) for m in induced_mu_stats(result)]
               if result.spec.link == "lml" else [])
    return rows, cols, slot[cells].ravel().tolist(), coef, induced


def _gather(tokens: list[str], fill: str, order: list[int]) -> list[str]:
    """The token at each slot of ``order``, ``fill`` one past the end."""
    return list(map((tokens + [fill]).__getitem__, order))


def _fit_tsv(result: FitResult, stream) -> None:
    V, U = result.beta_hat.rows, result.beta_hat.cols
    rows, cols, order, coef, induced = _coefficient_table(
        result, lambda col: fixed_floats(col, TSV_DECIMALS))
    tags = [U.mask_labels[e] for e in cols]

    stream.write(f"# link: {result.spec.link}\n")
    dev, pval = fixed_floats([result.deviance, result.p_value], TSV_DECIMALS)
    if result.p_value is None:
        pval = "·"
    stream.write(f"# deviance: {dev}\tdf: {result.df}\tp: {pval}\n")
    for note in _fit_notes(result):
        stream.write(f"# note: {note}\n")

    header = ["D"] + [f"{name}{tag}" for tag in tags for name in ("est", "se", "p")]
    if induced:
        header += [f"{name}{tag}" for tag in tags for name in ("mu_est", "mu_se")]
    stream.write("\t".join(header) + "\n")
    # the text of each (D, E) in table order: estimate, se and p, then the
    # induced log-mean estimate and se
    coef = _gather(list(map("\t".join, zip(*coef))), "·\t·\t·", order)
    induced = list(map("\t".join, zip(*induced)))

    width = len(cols)
    for k, d in enumerate(rows):
        row = slice(k * width, (k + 1) * width)
        stream.write("\t".join([V.mask_labels[d], *coef[row], *induced[row]]) + "\n")


def _fit_json_obj(result: FitResult) -> dict:
    V, U = result.beta_hat.rows, result.beta_hat.cols
    rows, cols, order, (est, se, p), induced = _coefficient_table(result, json_floats)
    vtok, utok = json_strings(V.mask_labels), json_strings(U.mask_labels)
    d_col = [vtok[d] for d in rows for _ in cols]
    e_col = [utok[e] for e in cols] * len(rows)

    deviance, p_value, loglik = map(Raw, json_floats([result.deviance, result.p_value,
                                                      result.loglik]))
    obj = {
        "link": result.spec.link,
        "deviance": deviance,
        "df": result.df,
        "p_value": p_value,
        "loglik": loglik,
        "converged": result.converged,
        "iterations": result.iterations,
        "coefficients": Records({
            "D": d_col, "E": e_col, "constrained": _gather(["false"] * len(est), "true", order),
            "estimate": _gather(est, "null", order), "se": _gather(se, "null", order),
            "p": _gather(p, "null", order),
        }),
        "notes": _fit_notes(result),
    }
    if induced:
        mu_est, mu_se = induced
        obj["beta_mu_induced"] = Records({"D": d_col, "E": e_col, "estimate": mu_est, "se": mu_se})
    return obj


def cmd_fit(args: argparse.Namespace, V: SubsetLattice, U: SubsetLattice) -> int:
    result = _fit_input(args, V, U)
    if args.out == "json":
        lio.write_json(_fit_json_obj(result), sys.stdout)
    else:
        _fit_tsv(result, sys.stdout)
    return 0


# ---------------------------------------------------------------------------
# transform

_TRANSFORM_INPUT_KINDS = ("pi", "mu", "gamma", "beta_mu", "beta_gamma")


def _pi_from_any(pm: ParamMatrix) -> ParamMatrix:
    if pm.kind == "pi":
        return pm
    if pm.kind == "mu":
        return pi_from_mu(pm)
    if pm.kind == "gamma":
        return pi_from_mu(mu_from_gamma(pm))
    link = "lm" if pm.kind == "beta_mu" else "lml"
    return pi_from_beta(pm, link)


def cmd_transform(args: argparse.Namespace, V: SubsetLattice, U: SubsetLattice) -> int:
    pm = lio.read_param_matrix(args.input, V, U, args.kind)
    pi = _pi_from_any(pm)
    mu = mu_from_pi(pi)
    derived = {
        "pi": pi,
        "mu": mu,
        "gamma": gamma_from_mu(mu),
        "beta_mu": pi.with_values(beta_values_from_mu(mu.values, "lm"), "beta_mu"),
        "beta_gamma": pi.with_values(beta_values_from_mu(mu.values, "lml"), "beta_gamma"),
    }
    if args.out == "json":
        labels = {"rows": Tokens(json_strings(V.mask_labels)),
                  "cols": Tokens(json_strings(U.mask_labels))}
        doc = {name: {**labels, "values": json_matrix(m.values)}
               for name, m in derived.items()}
        lio.write_json(doc, sys.stdout)
    else:
        for name, m in derived.items():
            sys.stdout.write(f"# kind: {name}\n")
            lio.write_param_matrix(m, sys.stdout, decimals=6)
    return 0


# ---------------------------------------------------------------------------
# select

def _trace_tsv(trace: SelectionTrace, V: SubsetLattice, U: SubsetLattice, stream) -> None:
    for i, step in enumerate(trace.steps, start=1):
        stream.write(f"# step {i}: {step.label}\n")
        if step.error:
            stream.write(f"# error: {step.error}\n")
        if step.dropped:
            pairs = ", ".join(f"{V.format_mask(d)};{U.format_mask(e)}"
                              for d, e in step.dropped)
            stream.write(f"# dropped: {pairs}\n")
        else:
            stream.write("# dropped: (none)\n")
        if step.fit is not None:
            _fit_tsv(step.fit, stream)
        stream.write("\n")


def _trace_json_obj(trace: SelectionTrace, V: SubsetLattice, U: SubsetLattice) -> dict:
    steps = []
    for step in trace.steps:
        entry = {
            "label": step.label,
            "dropped": [[V.format_mask(d), U.format_mask(e)] for d, e in step.dropped],
            "error": step.error,
        }
        if step.fit is not None:
            entry["fit"] = _fit_json_obj(step.fit)
        steps.append(entry)
    return {
        "steps": steps,
        "final_zero_set": [[V.format_mask(d), U.format_mask(e)]
                           for d, e in sorted(trace.zero_set)],
        "final_fit": _fit_json_obj(trace.final_fit),
    }


def cmd_select(args: argparse.Namespace, V: SubsetLattice, U: SubsetLattice) -> int:
    data = _ingest(args, V, U)
    options = _fit_options(args)
    if args.method == "forward":
        trace = forward_margin_selection(data, args.alpha, options)
    else:
        trace = backward_staged_selection(data, args.link, args.alpha, options)
    _require_converged(trace.final_fit)
    if args.out == "json":
        lio.write_json(_trace_json_obj(trace, V, U), sys.stdout)
    else:
        _trace_tsv(trace, V, U, sys.stdout)
    return 0


# ---------------------------------------------------------------------------
# risk

def cmd_risk(args: argparse.Namespace, V: SubsetLattice, U: SubsetLattice) -> int:
    result = _fit_input(args, V, U)
    d, u, e, lrr, lref, lratio, constrained = risk_table(result)
    # the reference and ratio are NaN for |D| = 1; each column takes one exp
    rr, ref, ratio = np.exp([lrr, lref, lratio])
    encode = json_strings if args.out == "json" else list
    d_tok, u_tok, e_tok = (np.array(encode(names), dtype=object)[index].tolist() for names, index
                           in ((V.mask_labels, d), (U.labels, u), (U.mask_labels, e)))
    if args.out == "json":
        lio.write_json(Records({
            "D": d_tok, "u": u_tok, "E": e_tok,
            "log_rr": json_floats(lrr), "rr": json_floats(rr),
            "log_reference_rr": json_floats(lref), "reference_rr": json_floats(ref),
            "log_rr_ratio": json_floats(lratio), "rr_ratio": json_floats(ratio),
            "ratio_constrained_to_one": np.where(constrained, "true", "false").tolist(),
        }), sys.stdout)
    else:
        floats = (fixed_floats(col, TSV_DECIMALS) for col in (lrr, rr, lref, ref, lratio, ratio))
        cells = np.array([d_tok, u_tok, e_tok, *floats, np.where(constrained, "yes", "no")],
                         dtype=object)
        cells[5:9, np.bitwise_count(d) == 1] = "·"
        sys.stdout.write(f"# link: {result.spec.link}\n"
                         "D\tu\tE\tlog_rr\trr\tlog_ref_rr\tref_rr\tlog_ratio\tratio\tconstrained\n")
        sys.stdout.write(lio.join_rows(cells.tolist(), ["\t"] * 9, "", "\n", "\n"))
    return 0


# ---------------------------------------------------------------------------
# simulate

def cmd_simulate(args: argparse.Namespace, V: SubsetLattice, U: SubsetLattice) -> int:
    pm = lio.read_param_matrix(args.input, V, U, args.kind or beta_kind_for_link(args.link))
    table = _sample_counts(validate(_pi_from_any(pm)), args.totals, args.seed)
    lio.write_count_data(table, sys.stdout, args.format)
    return 0


# ---------------------------------------------------------------------------
# plot-data

def cmd_plot_data(args: argparse.Namespace, V: SubsetLattice, U: SubsetLattice) -> int:
    data = _ingest(args, V, U)
    options = _fit_options(args)

    series = []
    for link in ("lm", "lml"):
        result = _require_converged(fit(ModelSpec(link), data, options))
        for eff in average_effects(result, data, args.effect):
            series.append((link, eff))

    if args.out == "json":
        numbers = np.array([(eff.estimate, eff.se, *eff.ci) for _, eff in series]).reshape(-1, 4)
        estimate, se, ci_lo, ci_hi = (json_floats(col, 12) for col in numbers.T)
        lio.write_json(Records({
            "link": json_strings(link for link, _ in series),
            "k": [str(eff.k) for _, eff in series],
            "estimate": estimate, "se": se, "ci_lo": ci_lo, "ci_hi": ci_hi,
        }), sys.stdout)
    else:
        print("link,k,estimate,se,ci_lo,ci_hi")
        for link, eff in series:
            print(f"{link},{eff.k},{eff.estimate:.12g},{eff.se:.12g},"
                  f"{eff.ci[0]:.12g},{eff.ci[1]:.12g}")
    return 0


# ---------------------------------------------------------------------------
# parser and dispatch

def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The argument parser; with ``command`` one of the commands, built for it alone.

    Only the named command's subparser is registered, under a metavar that
    spells the six choices as argparse does, so the top-level usage still
    lists them all.  Any other ``command`` (None, ``-h``, an unknown name)
    registers every subparser with its help.  Parsing an argv that starts
    with the command gives the same namespace, help text and usage errors
    as the full build.
    """
    # each flag the commands draw on, declared once; a command takes --input,
    # --responses, --covariates and the ones it names, and no other
    flags = {
        "input": dict(help="input data or matrix file"),
        "format": dict(choices=lio.FORMATS, default="cases",
                       help="shape of the input (or simulate output) data file"),
        "responses": dict(help="comma-separated response column names"),
        "covariates": dict(help="comma-separated covariate column names"),
        "link": dict(choices=LINKS, default="lml",
                     help="log-mean (lm) or log-mean-linear (lml) link"),
        "alpha": dict(type=float, default=0.05, help="significance level for selection"),
        "smooth": dict(type=float, nargs="?", const=0.5, default=None,
                       help="add this constant to every cell of an observed covariate cell "
                            "(0.5 when given without a value)"),
        "zeros": dict(help="file of D;E pairs constrained to zero"),
        "seed": dict(type=int, help="random seed"),
        "out": dict(choices=("tsv", "json"), default="tsv", help="output rendering"),
        "allow-missing-cells": dict(action="store_true",
                                    help="restrict the likelihood to observed covariate "
                                         "cells instead of failing on empty ones"),
    }
    # each command: its run function, its help, the shared flags it names and
    # its own flags, added after the shared ones.  The cmd_* functions are read
    # from the module each time the parser is built, so one rebound on the
    # module (the traced benchmark wraps them this way) is the one that runs.
    fit_flags = "format link zeros smooth allow-missing-cells out"
    commands = {
        "fit": (cmd_fit, "fit one model and print coefficients", fit_flags, {}),
        "transform": (cmd_transform, "convert a parameter matrix between scales", "out", {
            "kind": dict(required=True, choices=_TRANSFORM_INPUT_KINDS,
                         help="scale of the input matrix")}),
        "select": (cmd_select, "stepwise model selection",
                   "format link alpha smooth allow-missing-cells out", {
            "method": dict(choices=("forward", "backward"), default="forward",
                           help="per-margin forward inclusion or staged backward elimination")}),
        "risk": (cmd_risk, "relative risks and reference relative risks of a fitted model",
                 fit_flags, {}),
        "simulate": (cmd_simulate, "draw data from a model given as a parameter matrix",
                     "format link seed", {
            "kind": dict(default=None, choices=_TRANSFORM_INPUT_KINDS,
                         help="scale of the input matrix (default: the link's coefficients)"),
            "totals": dict(required=True,
                           help="observations per covariate cell: one value for all "
                                "cells or a comma list in cell order")}),
        "plot-data": (cmd_plot_data, "average-effect confidence-interval series for both links",
                      "format smooth allow-missing-cells out", {
            "effect": dict(default=None,
                           help="covariate whose average effect is plotted "
                                "(default: the only covariate)")}),
    }

    parser = argparse.ArgumentParser(
        prog="lmlreg",
        description="Regression for multivariate binary responses on the "
                    "log-mean and log-mean-linear scales",
    )
    # for one command, only its subparser, under argparse's own text for the
    # six choices so the usage lines read as the full build's.  "invalid
    # choice" and "required" errors name the action by its metavar, so the
    # full build, which prints them, sets none
    metavar = None
    if command in commands:
        metavar = "{" + ",".join(commands) + "}"
        commands = {command: commands[command]}
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, (run, summary, names, own) in commands.items():
        cmd = sub.add_parser(name, help=summary)
        taken = {"input", "responses", "covariates", *names.split()}
        for flag, spec in flags.items():
            if flag in taken:
                cmd.add_argument(f"--{flag}", **spec)
        for flag, spec in own.items():
            cmd.add_argument(f"--{flag}", **spec)
        cmd.set_defaults(run=run)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser(argv[0] if argv else None).parse_args(argv)
        return args.run(args, *_check_config(args))
    except BrokenPipeError:
        # the reader closed the output early; what is still buffered goes to
        # os.devnull, so the flush at interpreter exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (DataError, ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (BoundaryError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
