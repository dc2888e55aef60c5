"""Relative risks, reference values, and the independence structure of a model.

For a response pattern D (the event Y^D = 1, all responses in D equal 1),
the relative risk with respect to covariate u at background cell E compares
the two cells that differ only in u.  On the log scale it is a subset sum
of LM coefficients; its *reference* value is the same sum over the linear
combination of lower-order coefficients that the LM coefficient collapses
to when Y_D splits into two conditionally independent blocks.  The LML
coefficients measure exactly the gap between the two, which is what makes
zero LML rows readable as no-effect-on-association statements.

Every (D, u, E) summary comes from one columnar computation,
:func:`risk_table`, which the CLI prints; :func:`risk_report`'s entries are
a view of that table, one object per row, for the library API.

Independence detection and ``constrained`` are structural: they read the
zero set of a model spec, given with its lattices or through a fitted
result, as the boolean free mask the fit uses, where the biconditionals
are exact.  Fitted values are never scanned against a tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .inference import FitResult, ModelSpec, _free_mask
from .lattice import SubsetLattice, mobius_transform, zeta_transform
from .params import ParamMatrix, beta_gamma_from_beta_mu, beta_mu_from_beta_gamma


def reference_coeffs(beta_mu: ParamMatrix) -> ParamMatrix:
    """Reference coefficients: for |D| > 1,

        ref_D(E) = -Σ_{D' ⊂ D} (-1)^{|D \\ D'|} beta_mu_{D'}(E),

    the value beta_mu_D(E) takes whenever Y_D splits into conditionally
    independent blocks.  Rows with |D| ≤ 1 are zero.
    """
    if beta_mu.kind != "beta_mu":
        raise ValueError(f"expected a beta_mu matrix, got kind {beta_mu.kind!r}")
    # beta_gamma_D = Σ_{D'⊆D} (-1)^{|D\D'|} beta_mu_{D'}, so the strict-subset
    # sum above is beta_mu_D - beta_gamma_D row by row.
    ref = beta_mu.values - mobius_transform(beta_mu.values, axis=0)
    ref[np.bitwise_count(np.arange(beta_mu.rows.size)) <= 1] = 0.0
    return beta_mu.with_values(ref, "ref_b")


def _background_sums(values: np.ndarray, cols: SubsetLattice, u: str) -> tuple[np.ndarray, np.ndarray]:
    """Σ_{E' ⊆ E} values[..., E' ∪ {u}] for every background cell E ⊆ U \\ {u}.

    The cells E, in increasing mask order, are returned with the sums; they
    span a lattice of 2**(q-1) subsets, so the sums are one zeta transform
    of the u-slice of the last axis.
    """
    u_mask = cols.mask_of([u])
    cells = np.arange(cols.size)
    cells = cells[(cells & u_mask) == 0]
    return zeta_transform(values[..., cells | u_mask]), cells


def risk_table(fit_result: FitResult) -> tuple[np.ndarray, ...]:
    """All (D, u, E) risk summaries implied by a fitted model, as parallel columns.

    The columns are D, the index of u among the covariate labels, E, log RR,
    log reference RR, log ratio and ``constrained``.  Rows run over every
    nonempty D by cardinality, then every covariate u in label order, then
    every background cell E ⊆ U \\ {u} ascending.  Where |D| = 1 the
    reference and ratio are NaN.  ``constrained`` marks ratios the model's
    zero set forces to zero exactly; ``fit`` has already checked that set
    against the lattices.
    """
    beta = fit_result.beta_hat
    lml = beta.kind == "beta_gamma"
    bmu = beta_mu_from_beta_gamma(beta) if lml else beta
    bgamma = beta if lml else beta_gamma_from_beta_mu(beta)
    zeros = fit_result.spec.pairs
    gamma_zeros = zeros if lml else zeros[:, :0]   # lm zeros pin no gamma
    # stacked on a leading axis: log RR, log reference RR, log ratio, and the
    # number of unconstrained gamma terms each ratio sums
    stacked = np.stack([bmu.values, reference_coeffs(bmu).values, bgamma.values,
                        _free_mask(gamma_zeros, beta.values.shape)])
    # the per-u blocks side by side: column k of ``sums`` is (u[k], cells[k])
    sums, cells = (np.concatenate(part, axis=-1) for part in zip(
        *(_background_sums(stacked, beta.cols, u) for u in beta.cols.labels)))
    rows = np.array(beta.rows.masks_by_cardinality())
    row, k = np.divmod(np.arange(rows.size * cells.size), cells.size)
    d = rows[row]
    multi = np.bitwise_count(d) > 1
    columns = sums[:, rows].reshape(4, -1)
    columns[1:3, ~multi] = np.nan
    u = k // (cells.size // beta.cols.ground_size)
    return d, u, cells[k], *columns[:3], multi & (columns[3] == 0)


@dataclass(frozen=True)
class RiskEntry:
    d_mask: int
    u: str
    e_mask: int
    log_rr: float
    log_ref_rr: float | None      # None when |D| <= 1
    log_ratio: float | None
    constrained_zero: bool        # model forces the ratio to 0 structurally


@dataclass(frozen=True)
class RiskReport:
    responses: SubsetLattice
    covariates: SubsetLattice
    entries: tuple[RiskEntry, ...]


def risk_report(fit_result: FitResult) -> RiskReport:
    """:func:`risk_table` as one :class:`RiskEntry` per row, None for the
    reference and ratio where |D| = 1."""
    d, u, e, lrr, lref, lratio, constrained = risk_table(fit_result)
    beta = fit_result.beta_hat
    refs = np.array([lref, lratio], dtype=object)
    refs[:, np.bitwise_count(d) == 1] = None
    return RiskReport(beta.rows, beta.cols, tuple(map(
        RiskEntry, d.tolist(), np.array(beta.cols.labels, dtype=object)[u].tolist(), e.tolist(),
        lrr.tolist(), *refs.tolist(), constrained.tolist())))


# ---------------------------------------------------------------------------
# implied independence structure

def _bipartitions(d_mask: int):
    """Unordered proper bipartitions (A, B) of d_mask, A holding its lowest bit,
    in increasing A."""
    low = d_mask & -d_mask
    rest = d_mask ^ low
    sub = 0
    while sub != rest:   # the submasks of rest short of rest itself, ascending
        yield low | sub, rest ^ sub
        sub = (sub - rest) & rest


def implied_response_independencies(
    source: ModelSpec | FitResult,
    responses: SubsetLattice | None = None,
    covariates: SubsetLattice | None = None,
) -> list[tuple[int, int, int]]:
    """All (D, A, B) with A ∪ B = D and Y_A ⟂ Y_B | X_U implied by the model.

    ``source`` is a ``ModelSpec`` with its response and covariate lattices,
    or a ``FitResult``, whose spec and lattices are used.  The split holds
    iff every gamma row D' ⊆ D meeting both A and B is zero for all
    covariate cells, which the zero set decides exactly.
    """
    if isinstance(source, FitResult):
        responses = source.beta_hat.rows
        covariates = source.beta_hat.cols
        source = source.spec
    elif not isinstance(source, ModelSpec):
        raise TypeError(f"expected a ModelSpec or FitResult, got {type(source).__name__}")
    elif responses is None or covariates is None:
        raise ValueError("responses and covariates lattices are required with a ModelSpec")
    else:
        source.validate_for(responses, covariates)

    # gamma rows D ≠ ∅ the zero set does not pin whole (lm zeros pin no gamma)
    zeros = source.pairs if source.link == "lml" else source.pairs[:, :0]
    nonzero = _free_mask(zeros, (responses.size, covariates.size)).any(axis=1)
    # nonzero rows below D; the rows below A or below B are exactly those not
    # meeting both, and they share only the (never nonzero) row ∅
    below = zeta_transform(nonzero.astype(float)).tolist()
    return [
        (d, a, b)
        for d in responses.masks_by_cardinality()
        if d.bit_count() >= 2
        for a, b in _bipartitions(d)
        if below[d] - below[a] - below[b] == 0
    ]


def implied_covariate_independencies(
    spec: ModelSpec, responses: SubsetLattice, covariates: SubsetLattice
) -> list[tuple[int, int]]:
    """All (D, U') with Y_D ⟂ X_{U'} | X_{U \\ U'} forced by the zero set.

    The pattern (zero coefficients for every D' ⊆ D and every E meeting U')
    characterizes the same submodel under either link, so this scan applies
    to lm and lml specs alike.
    """
    spec.validate_for(responses, covariates)
    free = _free_mask(spec.pairs, (responses.size, covariates.size)).astype(float)
    # free coefficients with D' ⊆ D and E ⊆ W; those with E meeting U' are
    # the row total less the count at W = U \ U'
    below = zeta_transform(zeta_transform(free, axis=0), axis=1)
    full = covariates.size - 1
    uprimes = np.arange(1, covariates.size)
    hit = (below[:, [full]] == below[:, full ^ uprimes]).tolist()
    return [
        (d, int(uprime))
        for d in responses.masks_by_cardinality()
        for uprime, ok in zip(uprimes.tolist(), hit[d])
        if ok
    ]
