"""Relative risks, reference values, and the independence structure of a model.

For a response pattern D (the event Y^D = 1, all responses in D equal 1),
the relative risk with respect to covariate u at background cell E compares
the two cells that differ only in u.  On the log scale it is a subset sum
of LM coefficients; its *reference* value is the same sum over the linear
combination of lower-order coefficients that the LM coefficient collapses
to when Y_D splits into two conditionally independent blocks.  The LML
coefficients measure exactly the gap between the two, which is what makes
zero LML rows readable as no-effect-on-association statements.

Independence detection is structural by default: it consumes the zero set
of a model spec, where the biconditionals are exact, rather than fitted
values.  A tolerance-based scan over a fitted coefficient matrix is also
provided for exactly-constrained fits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .inference import FitResult, ModelSpec
from .lattice import SubsetLattice, iter_submasks, mobius_transform, zeta_transform
from .params import ParamMatrix, beta_gamma_from_beta_mu

FITTED_ZERO_TOL = 1e-8


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
    bg = mobius_transform(beta_mu.values, axis=0)
    ref = beta_mu.values - bg
    ref = np.array(ref)
    for d in range(beta_mu.rows.size):
        if d.bit_count() <= 1:
            ref[d] = 0.0
    return beta_mu.with_values(ref, "ref_b")


def _check_d_u_e(beta: ParamMatrix, d_mask: int, u: str, e_mask: int) -> tuple[int, int]:
    beta.rows.check_mask(d_mask)
    u_mask = beta.cols.mask_of([u])
    beta.cols.check_mask(e_mask)
    if e_mask & u_mask:
        raise ValueError(f"background cell E={beta.cols.format_mask(e_mask)} must not contain {u!r}")
    return u_mask, e_mask


def log_relative_risk(beta_mu: ParamMatrix, d_mask: int, u: str, e_mask: int = 0) -> float:
    """log RR_u(Y^D = 1 | E) = Σ_{E' ⊆ E} beta_mu_D(E' ∪ {u}); 0 for D = ∅."""
    if beta_mu.kind != "beta_mu":
        raise ValueError(f"expected a beta_mu matrix, got kind {beta_mu.kind!r}")
    u_mask, e_mask = _check_d_u_e(beta_mu, d_mask, u, e_mask)
    if d_mask == 0:
        return 0.0
    return float(sum(beta_mu.values[d_mask, ep | u_mask] for ep in iter_submasks(e_mask)))


def log_relative_risk_from_mu(mu: ParamMatrix, d_mask: int, u: str, e_mask: int = 0) -> float:
    """The same quantity evaluated directly as a ratio of mean parameters."""
    if mu.kind != "mu":
        raise ValueError(f"expected a mu matrix, got kind {mu.kind!r}")
    u_mask, e_mask = _check_d_u_e(mu, d_mask, u, e_mask)
    return float(np.log(mu.values[d_mask, e_mask | u_mask]) - np.log(mu.values[d_mask, e_mask]))


def log_reference_rr(beta_mu: ParamMatrix, d_mask: int, u: str, e_mask: int = 0,
                     method: str = "coeffs") -> float:
    """log of the reference relative risk of Y^D (|D| > 1) w.r.t. u at cell E.

    ``method="coeffs"`` sums reference coefficients over E' ⊆ E;
    ``method="product"`` evaluates the defining alternating product of
    lower-order relative risks.  The two agree to floating-point accuracy.
    """
    if d_mask.bit_count() <= 1:
        raise ValueError("reference relative risk requires |D| > 1")
    if method == "coeffs":
        ref = reference_coeffs(beta_mu)
        u_mask, e_mask = _check_d_u_e(ref, d_mask, u, e_mask)
        return float(sum(ref.values[d_mask, ep | u_mask] for ep in iter_submasks(e_mask)))
    if method == "product":
        out = 0.0
        for d_sub in iter_submasks(d_mask):
            if d_sub == d_mask:
                continue
            sign = -1.0 if (d_mask ^ d_sub).bit_count() % 2 == 0 else 1.0
            out += sign * log_relative_risk(beta_mu, d_sub, u, e_mask)
        return out
    raise ValueError(f"method must be 'coeffs' or 'product', got {method!r}")


def log_rr_ratio(beta_gamma: ParamMatrix, d_mask: int, u: str, e_mask: int = 0) -> float:
    """log(RR / reference RR) = Σ_{E' ⊆ E} beta_gamma_D(E' ∪ {u}), |D| > 1."""
    if beta_gamma.kind != "beta_gamma":
        raise ValueError(f"expected a beta_gamma matrix, got kind {beta_gamma.kind!r}")
    if d_mask.bit_count() <= 1:
        raise ValueError("the risk ratio against reference requires |D| > 1")
    u_mask, e_mask = _check_d_u_e(beta_gamma, d_mask, u, e_mask)
    return float(sum(beta_gamma.values[d_mask, ep | u_mask] for ep in iter_submasks(e_mask)))


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


def risk_report(fit_result: FitResult, spec: ModelSpec | None = None) -> RiskReport:
    """All (D, u, E) risk summaries implied by a fitted model.

    Covers every nonempty D, every covariate u, and every background cell
    E ⊆ U \\ {u}.  ``constrained_zero`` marks ratios the model's zero set
    forces to zero exactly.
    """
    beta = fit_result.beta_hat
    spec = spec or fit_result.spec
    if beta.kind == "beta_gamma":
        bgamma = beta
        bmu = beta.with_values(zeta_transform(beta.values, axis=0), "beta_mu")
        gamma_zeros = spec.zero_set
    else:
        bmu = beta
        bgamma = beta_gamma_from_beta_mu(beta)
        gamma_zeros = frozenset()  # lm zeros do not pin gamma coefficients
    ref = reference_coeffs(bmu).values
    entries = []
    for d in beta.rows.masks_by_cardinality():
        for u in beta.cols.labels:
            u_mask = beta.cols.mask_of([u])
            for e in range(beta.cols.size):
                if e & u_mask:
                    continue
                lrr = log_relative_risk(bmu, d, u, e)
                if d.bit_count() > 1:
                    lref = float(sum(ref[d, ep | u_mask] for ep in iter_submasks(e)))
                    lratio = log_rr_ratio(bgamma, d, u, e)
                    constrained = all(
                        (d, ep | u_mask) in gamma_zeros for ep in iter_submasks(e)
                    )
                else:
                    lref = lratio = None
                    constrained = False
                entries.append(RiskEntry(d, u, e, lrr, lref, lratio, constrained))
    return RiskReport(beta.rows, beta.cols, tuple(entries))


# ---------------------------------------------------------------------------
# implied independence structure

def _gamma_zero_rows(source: ModelSpec | ParamMatrix, responses: SubsetLattice,
                     covariates: SubsetLattice, tol: float) -> set[int]:
    """Rows D whose gamma coefficients vanish for every E, however derived."""
    zero_rows: set[int] = set()
    if isinstance(source, ModelSpec):
        if source.link != "lml":
            # lm zero constraints pin beta_mu, not gamma; they never force a
            # gamma row to vanish, so no response independencies follow.
            return zero_rows
        for d in range(1, responses.size):
            if all((d, e) in source.zero_set for e in range(covariates.size)):
                zero_rows.add(d)
    else:
        values = source.values
        if source.kind == "beta_mu":
            values = mobius_transform(values, axis=0)
        elif source.kind != "beta_gamma":
            raise ValueError(f"expected beta_mu or beta_gamma, got kind {source.kind!r}")
        for d in range(1, responses.size):
            if np.all(np.abs(values[d]) <= tol):
                zero_rows.add(d)
    return zero_rows


def _bipartitions(d_mask: int):
    """Unordered proper bipartitions (A, B) of d_mask, A holding its lowest bit."""
    low = d_mask & -d_mask
    rest = d_mask ^ low
    for sub in iter_submasks(rest):
        a = low | sub
        b = d_mask ^ a
        if b:
            yield a, b


def implied_response_independencies(
    source: ModelSpec | ParamMatrix | FitResult,
    responses: SubsetLattice | None = None,
    covariates: SubsetLattice | None = None,
    tol: float = FITTED_ZERO_TOL,
) -> list[tuple[int, int, int]]:
    """All (D, A, B) with A ∪ B = D and Y_A ⟂ Y_B | X_U implied by the model.

    The split holds iff every gamma row D' ⊆ D meeting both A and B is zero
    for all covariate cells — structurally (from a spec's zero set, exact)
    or numerically within ``tol`` (from a fitted coefficient matrix).
    """
    if isinstance(source, FitResult):
        responses = source.beta_hat.rows
        covariates = source.beta_hat.cols
        source = source.spec
    elif isinstance(source, ParamMatrix):
        responses = source.rows
        covariates = source.cols
    elif responses is None or covariates is None:
        raise ValueError("responses and covariates lattices are required with a ModelSpec")

    zero_rows = _gamma_zero_rows(source, responses, covariates, tol)
    out = []
    for d in responses.masks_by_cardinality():
        if d.bit_count() < 2:
            continue
        for a, b in _bipartitions(d):
            ok = all(
                dp in zero_rows
                for dp in iter_submasks(d)
                if dp & a and dp & b
            )
            if ok:
                out.append((d, a, b))
    return out


def implied_covariate_independencies(
    spec: ModelSpec, responses: SubsetLattice, covariates: SubsetLattice
) -> list[tuple[int, int]]:
    """All (D, U') with Y_D ⟂ X_{U'} | X_{U \\ U'} forced by the zero set.

    The pattern (zero coefficients for every D' ⊆ D and every E meeting U')
    characterizes the same submodel under either link, so this scan applies
    to lm and lml specs alike.
    """
    spec.validate_for(responses, covariates)
    hit_cols: dict[int, list[int]] = {}
    out = []
    for uprime in range(1, covariates.size):
        hit_cols[uprime] = [e for e in range(covariates.size) if e & uprime]
    for d in responses.masks_by_cardinality():
        for uprime in range(1, covariates.size):
            ok = all(
                (dp, e) in spec.zero_set
                for dp in iter_submasks(d)
                if dp
                for e in hit_cols[uprime]
            )
            if ok:
                out.append((d, uprime))
    return out
