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
terms; only the first backward stage stops after one batch.
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
    spec: ModelSpec
    fit: FitResult | None
    dropped: tuple[tuple[int, int], ...]   # joint-level (D, E) masks zeroed here
    scope: tuple[str, ...] | None = None   # margin labels for forward steps
    error: str | None = None

    @property
    def deviance(self) -> float | None:
        return None if self.fit is None else self.fit.deviance

    @property
    def df(self) -> int | None:
        return None if self.fit is None else self.fit.df

    @property
    def p_value(self) -> float | None:
        return None if self.fit is None else self.fit.p_value


@dataclass(frozen=True)
class SelectionTrace:
    steps: tuple[SelectionStep, ...]
    final_spec: ModelSpec
    final_fit: FitResult

    @property
    def zero_set(self) -> frozenset[tuple[int, int]]:
        return self.final_spec.zero_set


def _drop_rounds(spec: ModelSpec, data: CountTable, alpha: float, rows: set[int], options: FitOptions,
                 single_batch: bool = False) -> tuple[ModelSpec, FitResult, list[tuple[int, int]], str | None]:
    """Batch-drop non-significant coefficients and refit, up to a fixpoint.

    Only coefficients whose row is in ``rows`` may be dropped; one whose
    Wald p-value is NaN (unassessable) never is, as ``nan > alpha`` is
    false.  With ``single_batch`` one batch is dropped and refitted, and no
    more.  On a fit failure the previous model is kept and the error is
    reported.
    """
    result = fit(spec, data, options)
    dropped: list[tuple[int, int]] = []
    while True:
        flagged = [(d, e) for (d, e), p in zip(result.free_index, result.wald_p.tolist())
                   if d in rows and p > alpha]
        if not flagged:
            break
        trial = spec.with_zeros(flagged)
        try:
            trial_fit = fit(trial, data, options)
        except (DataError, ConvergenceError, BoundaryError) as exc:
            return spec, result, dropped, f"refit after dropping {len(flagged)} coefficients failed: {exc}"
        spec, result = trial, trial_fit
        dropped.extend(flagged)
        if single_batch:
            break
    return spec, result, dropped, None


def forward_margin_selection(data: CountTable, alpha: float = 0.05,
                             options: FitOptions | None = None) -> SelectionTrace:
    """Select a model margin by margin, in increasing response-subset size.

    Always fits the log-mean-linear link: its upward compatibility is what
    makes the per-margin estimates consistent with the joint model.  For
    each D (size 1, then 2, ...) the marginal table of Y_D is fitted with
    all constraints selected for sub-margins of D, and the coefficients of
    the top row (the D-association itself) with Wald p > alpha are zeroed.
    The union of all selected zeros defines the final joint model.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    options = options or FitOptions()
    V = data.responses
    joint_zeros: set[tuple[int, int]] = set()
    steps: list[SelectionStep] = []

    for d_joint in V.masks_by_cardinality():
        labels = V.members(d_joint)
        margin = data.marginalize(labels)
        top = margin.responses.size - 1
        inherited = {
            (margin.responses.mask_of(V.members(dz)), e)
            for (dz, e) in joint_zeros
            if dz & d_joint == dz
        }
        spec = ModelSpec("lml", frozenset(inherited))
        try:
            spec, result, dropped_margin, err = _drop_rounds(
                spec, margin, alpha, rows={top}, options=options,
            )
        except (DataError, ConvergenceError, BoundaryError) as exc:
            steps.append(SelectionStep(
                label=f"margin {V.format_mask(d_joint)}", spec=spec, fit=None,
                dropped=(), scope=labels, error=str(exc),
            ))
            continue
        dropped_joint = [(V.mask_of(margin.responses.members(d)), e) for d, e in dropped_margin]
        joint_zeros.update(dropped_joint)
        steps.append(SelectionStep(
            label=f"margin {V.format_mask(d_joint)}", spec=spec, fit=result,
            dropped=tuple(sorted_pairs(dropped_joint)), scope=labels, error=err,
        ))

    final_spec = ModelSpec("lml", frozenset(joint_zeros))
    final_fit = fit(final_spec, data, options)
    steps.append(SelectionStep(label="joint", spec=final_spec, fit=final_fit, dropped=()))
    return SelectionTrace(tuple(steps), final_spec, final_fit)


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

    start_zeros: set[tuple[int, int]] = set()
    if q >= 2:
        full_e = U.size - 1
        start_zeros = {(d, full_e) for d in range(1, V.size)}
    spec = ModelSpec(link, frozenset(start_zeros))
    result = fit(spec, data, options)
    steps = [SelectionStep(
        label="start (no covariate interactions)" if start_zeros else "start (saturated)",
        spec=spec, fit=result, dropped=(),
    )]

    sizes = ",".join(str(k) for k in range(p, 0, -1) if k > p / 2)
    stages = [(f"drop non-significant |D| in {{{sizes}}}",
               {d for d in range(1, V.size) if d.bit_count() > p / 2}, True),
              ("drop remaining non-significant", set(range(1, V.size)), False)]
    for label, rows, single_batch in stages:
        spec, result, dropped, err = _drop_rounds(spec, data, alpha, rows, options, single_batch)
        steps.append(SelectionStep(label=label, spec=spec, fit=result,
                                   dropped=tuple(sorted_pairs(dropped)), error=err))
        if err:
            break

    return SelectionTrace(tuple(steps), spec, result)


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
    p = beta.rows.ground_size
    free_pos = {pos: i for i, pos in enumerate(fit_result.free_index)}

    out: list[AverageEffect] = []
    for k in range(1, p + 1):
        members = [d for d in range(beta.rows.size) if d.bit_count() == k]
        total = float(sum(raw[d] for d in members))
        if total <= 0:
            warnings.warn(f"no observations for any pattern of size {k}; skipping its average effect")
            continue
        w = {d: raw[d] / total for d in members}
        estimate = float(sum(w[d] * beta.values[d, u_mask] for d in members))
        if fit_result.covariance is not None:
            wvec = np.zeros(len(fit_result.free_index))
            for d in members:
                i = free_pos.get((d, u_mask))
                if i is not None:
                    wvec[i] = w[d]
            var = float(wvec @ fit_result.covariance @ wvec)
            se = float(np.sqrt(var)) if var >= 0 else float("nan")
        else:
            se = float("nan")
        out.append(AverageEffect(k, estimate, se, (estimate - CI_Z * se, estimate + CI_Z * se)))
    return out
