"""Stepwise model selection and weighted per-size effect summaries.

Two procedures are implemented.  The *forward* procedure exploits upward
compatibility of the log-mean-linear link: the association terms of a
response subset D are computable from the marginal table of Y_D alone, so
models can be selected margin by margin, size by size, each margin
inheriting the zero constraints already selected for its sub-margins and
testing only its own top-order association row.  The *backward* procedure
starts from the model with no covariate interactions (for two or more
covariates) and removes non-significant coefficients in two fixed stages:
rows in the upper half of the response-subset sizes, then all rows.

Within a margin or stage, all coefficients failing the Wald threshold are
zeroed in one batch and the model is refitted.  This repeats until no
further coefficient fails, so the reported model contains only significant
terms; only the first backward stage stops after one batch.  No model is
fitted twice: a stage starts from the fit the step before ended with, and
the forward joint fit is that of the last margin, which is the whole table.

A step of a trace is its fit: its model is ``step.fit.spec``, a forward
margin's responses are ``step.fit.beta_hat.rows``, a failed step has none,
and the trace's ``final_fit`` is the last step's fit.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .inference import (
    ConvergenceError,
    CountTable,
    DataError,
    FitOptions,
    FitResult,
    ModelSpec,
    fit,
    sorted_pairs,
)
from .lattice import zeta_transform
from .params import BoundaryError

CI_Z = 1.96  # normal quantile used for all reported 95% intervals


@dataclass(frozen=True)
class SelectionStep:
    """One margin (forward) or stage (backward) of a selection run."""

    label: str
    fit: FitResult | None
    dropped: tuple[tuple[int, int], ...]   # joint-level (D, E) masks zeroed here
    error: str | None = None


@dataclass(frozen=True)
class SelectionTrace:
    steps: tuple[SelectionStep, ...]
    final_fit: FitResult

    @property
    def zero_set(self) -> frozenset[tuple[int, int]]:
        return self.final_fit.spec.zero_set


def _drop_rounds(result: FitResult, data: CountTable, alpha: float, rows: set[int], options: FitOptions,
                 single_batch: bool = False) -> tuple[FitResult, list[tuple[int, int]], str | None]:
    """Batch-drop non-significant coefficients from the caller's fit and refit, up to a fixpoint.

    ``result``, the fit of ``result.spec`` on ``data``, is not refitted.  Only
    coefficients whose row is in ``rows`` may be dropped; one whose Wald
    p-value is NaN (unassessable) never is, as ``nan > alpha`` is false.  With
    ``single_batch`` one batch is dropped and refitted, and no more.  On a
    fit failure the previous fit is kept and the error is reported.
    """
    dropped: list[tuple[int, int]] = []
    while True:
        flagged = [(d, e) for d, e, p in zip(*result.free_pairs.tolist(), result.wald_p.tolist())
                   if d in rows and p > alpha]
        if not flagged:
            break
        try:
            result = fit(result.spec.with_zeros(flagged), data, options)
        except (DataError, ConvergenceError, BoundaryError) as exc:
            return result, dropped, f"refit after dropping {len(flagged)} coefficients failed: {exc}"
        dropped.extend(flagged)
        if single_batch:
            break
    return result, dropped, None


def forward_margin_selection(data: CountTable, alpha: float = 0.05,
                             options: FitOptions | None = None) -> SelectionTrace:
    """Select a model margin by margin, in increasing response-subset size.

    Always fits the log-mean-linear link.  For each D (size 1, then 2, ...)
    the marginal table of Y_D is fitted with all constraints selected for
    sub-margins of D, and the coefficients of the top row (the D-association
    itself) with Wald p > alpha are zeroed.  The union of all selected zeros
    defines the final joint model: the last margin's, whose fit it reuses
    (it is refitted only when that margin's fit failed).

    Upward compatibility makes a margin fit equal the joint fit's rows only
    while every zero lies within the margin.  Zeros selected in margins that
    are not nested couple the joint rows (on preset 1 a margin's top row
    differed from the final fit's by up to 0.046), so a margin's Wald test
    is a test of the margin model, not of the joint one.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    options = options or FitOptions()
    V = data.responses
    joint_zeros: set[tuple[int, int]] = set()
    steps: list[SelectionStep] = []

    for d_joint in V.masks_by_cardinality():
        margin = data.marginalize(V.members(d_joint))
        top = margin.responses.size - 1
        inherited = {
            (margin.responses.mask_of(V.members(dz)), e)
            for (dz, e) in joint_zeros
            if dz & d_joint == dz
        }
        label = f"margin {V.format_mask(d_joint)}"
        try:
            result, dropped_margin, err = _drop_rounds(
                fit(ModelSpec("lml", inherited), margin, options), margin, alpha, {top}, options)
        except (DataError, ConvergenceError, BoundaryError) as exc:
            steps.append(SelectionStep(label=label, fit=None, dropped=(), error=str(exc)))
            continue
        dropped_joint = [(V.mask_of(margin.responses.members(d)), e) for d, e in dropped_margin]
        joint_zeros.update(dropped_joint)
        steps.append(SelectionStep(label=label, fit=result,
                                   dropped=tuple(sorted_pairs(dropped_joint)), error=err))

    # the margin on every response is the table itself, fitted with every
    # selected zero; only when it failed is the joint model fitted here
    final_fit = steps[-1].fit or fit(ModelSpec("lml", joint_zeros), data, options)
    steps.append(SelectionStep(label="joint", fit=final_fit, dropped=()))
    return SelectionTrace(tuple(steps), final_fit)


def backward_staged_selection(data: CountTable, link: str = "lml", alpha: float = 0.05,
                              options: FitOptions | None = None) -> SelectionTrace:
    """Select a model by staged backward elimination from the top.

    The start fits the model with every top-order covariate-interaction
    column zeroed (all coefficients with |E| = q, when q ≥ 2; the saturated
    model otherwise).  The first stage zeroes the non-significant
    coefficients among response rows in the upper half of the sizes and
    refits once; the second does so among all rows, repeated until no
    coefficient fails the threshold.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    options = options or FitOptions()
    V, U = data.responses, data.covariates
    p, q = V.ground_size, U.ground_size

    start_zeros = {(d, U.size - 1) for d in range(1, V.size)} if q >= 2 else set()
    result = fit(ModelSpec(link, start_zeros), data, options)
    steps = [SelectionStep(
        label="start (no covariate interactions)" if start_zeros else "start (saturated)",
        fit=result, dropped=(),
    )]

    sizes = ",".join(str(k) for k in range(p, 0, -1) if k > p / 2)
    stages = [(f"drop non-significant |D| in {{{sizes}}}",
               {d for d in range(1, V.size) if d.bit_count() > p / 2}, True),
              ("drop remaining non-significant", set(range(1, V.size)), False)]
    for label, rows, single_batch in stages:
        result, dropped, err = _drop_rounds(result, data, alpha, rows, options, single_batch)
        steps.append(SelectionStep(label=label, fit=result,
                                   dropped=tuple(sorted_pairs(dropped)), error=err))
        if err:
            break

    return SelectionTrace(tuple(steps), result)


# ---------------------------------------------------------------------------
# weighted average effects by pattern size

@dataclass(frozen=True)
class AverageEffect:
    k: int
    estimate: float
    se: float
    ci: tuple[float, float]


def pattern_weights(data: CountTable) -> np.ndarray:
    """w_D ∝ number of observations with Y^D = 1 (all responses in D present).

    Entry D of the returned vector is the raw count; normalization within
    each size happens in :func:`average_effects`.
    """
    return zeta_transform(data.counts.sum(axis=1), supersets=True)


def average_effects(fit_result: FitResult, data: CountTable, u: str) -> list[AverageEffect]:
    """Weighted mean of the fitted u-effect over response patterns of each size.

    Weights are the observed frequencies of the pattern events Y^D = 1,
    normalized within each size k.  The standard error carries the full
    covariance of the averaged coefficients (delta method with fixed
    weights); coefficients constrained to zero contribute no variance.
    """
    beta = fit_result.beta_hat
    if beta.rows.size != data.responses.size or beta.cols.size != data.covariates.size:
        raise ValueError("fit and data shapes do not match")
    u_mask = beta.cols.mask_of([u])
    raw = pattern_weights(data)
    sizes = np.bitwise_count(np.arange(beta.rows.size))
    # the row of each free coefficient in column u; row ∅ (never free) elsewhere
    rows, cols = fit_result.free_pairs
    u_rows = np.where(cols == u_mask, rows, 0)

    out: list[AverageEffect] = []
    for k in range(1, beta.rows.ground_size + 1):
        members = np.flatnonzero(sizes == k)
        # Python's sum adds the members one by one in increasing D; numpy's pairwise sum would not
        total = float(sum(raw[members]))
        if total <= 0:
            warnings.warn(f"no observations for any pattern of size {k}; skipping its average effect")
            continue
        w = np.where(sizes == k, raw / total, 0.0)
        estimate = float(sum(w[members] * beta.values[members, u_mask]))
        if fit_result.covariance is not None:
            var = float(w[u_rows] @ fit_result.covariance @ w[u_rows])
            se = float(np.sqrt(var)) if var >= 0 else float("nan")
        else:
            se = float("nan")
        out.append(AverageEffect(k, estimate, se, (estimate - CI_Z * se, estimate + CI_Z * se)))
    return out
