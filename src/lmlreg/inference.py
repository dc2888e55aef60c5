"""Product-multinomial likelihood and constrained maximum-likelihood fitting.

The sampling scheme is one independent multinomial per covariate cell: the
count matrix has a column per cell E ⊆ U and a row per response pattern
D ⊆ V (the observations with exactly the responses in D equal to 1).  A
model is a link choice (``lm`` or ``lml``) plus a set of regression
coefficients constrained to zero; the remaining coefficients are free and
the closed-form coefficient→probability map makes the log-likelihood and
its gradient cheap to evaluate exactly.

Fitting is a damped Newton iteration on the free coefficients: analytic
gradient, analytic Hessian (the exact observed information, built from
per-column Gram matrices over the free coefficient rows), and step halving
whenever a step would leave the valid region (some implied cell
probability ≤ 0) or decrease the log-likelihood.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np
from scipy import stats

from .lattice import SubsetLattice, compress_mask, mobius_transform, zeta_transform
from .params import (
    BoundaryError,
    ParamMatrix,
    ValidationError,
    beta_from_pi,
    beta_kind_for_link,
    check_link,
    mu_values_from_beta,
    pi_values_from_beta,
)


class DataError(ValueError):
    """The observed counts cannot support the requested computation."""


class ConvergenceError(RuntimeError):
    """No valid interior starting point could be found."""


@dataclass(frozen=True)
class CountTable:
    """Observed counts over the 2**p response patterns x 2**q covariate cells."""

    responses: SubsetLattice
    covariates: SubsetLattice
    counts: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        c = np.asarray(self.counts)
        if c.shape != (self.responses.size, self.covariates.size):
            raise ValueError(
                f"counts shape {c.shape} does not match lattices "
                f"({self.responses.size}, {self.covariates.size})"
            )
        if np.any(c < 0) or not np.all(np.isfinite(c.astype(float))):
            raise ValueError("counts must be finite and nonnegative")
        if not np.allclose(c, np.round(c)):
            raise ValueError("counts must be integers")
        c = np.round(c).astype(np.int64)
        c.setflags(write=False)
        object.__setattr__(self, "counts", c)

    @property
    def column_totals(self) -> np.ndarray:
        return self.counts.sum(axis=0)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def marginalize(self, labels: Iterable[str]) -> "CountTable":
        """Collapse onto the responses in ``labels`` (summing out the rest)."""
        keep_mask = self.responses.mask_of(labels)
        sub = SubsetLattice(self.responses.members(keep_mask))
        out = np.zeros((sub.size, self.covariates.size), dtype=np.int64)
        for m in range(self.responses.size):
            out[compress_mask(m & keep_mask, keep_mask)] += self.counts[m]
        return CountTable(sub, self.covariates, out)

    def empirical_pi(self, smooth: float | None = None) -> ParamMatrix:
        """Per-column observed proportions, optionally with +eps smoothing.

        Raises DataError if any cell (or column) is empty and no smoothing
        is requested, since the result would not be a valid pi matrix.
        """
        counts = self.counts.astype(float)
        if smooth is not None:
            counts = counts + float(smooth)
        totals = counts.sum(axis=0)
        if np.any(totals <= 0):
            e = int(np.argwhere(totals <= 0)[0, 0])
            raise DataError(f"covariate cell {self.covariates.format_mask(e)} has no observations")
        if np.any(counts <= 0):
            d, e = (int(x) for x in np.argwhere(counts <= 0)[0])
            raise DataError(
                f"observed cell (D={self.responses.format_mask(d)}, "
                f"E={self.covariates.format_mask(e)}) is empty; use smoothing to proceed"
            )
        return ParamMatrix("pi", self.responses, self.covariates, counts / totals)


@dataclass(frozen=True)
class ModelSpec:
    """A link plus the set of (D, E) coefficients constrained to zero."""

    link: str
    zero_set: frozenset[tuple[int, int]] = frozenset()

    def __post_init__(self) -> None:
        check_link(self.link)
        zs = frozenset((int(d), int(e)) for d, e in self.zero_set)
        for d, e in zs:
            if d == 0:
                raise ValueError("zero_set must not contain row-∅ pairs (structurally zero already)")
            if d < 0 or e < 0:
                raise ValueError("zero_set masks must be nonnegative")
        object.__setattr__(self, "zero_set", zs)

    @property
    def df(self) -> int:
        return len(self.zero_set)

    @property
    def is_saturated(self) -> bool:
        return not self.zero_set

    def validate_for(self, responses: SubsetLattice, covariates: SubsetLattice) -> "ModelSpec":
        for d, e in self.zero_set:
            responses.check_mask(d)
            covariates.check_mask(e)
        return self

    def with_zeros(self, extra: Iterable[tuple[int, int]]) -> "ModelSpec":
        return ModelSpec(self.link, self.zero_set | frozenset(extra))

    def free_positions(self, responses: SubsetLattice, covariates: SubsetLattice) -> list[tuple[int, int]]:
        """Free (D, E) coefficient positions in canonical (|D|, D, |E|, E) order."""
        self.validate_for(responses, covariates)
        pos = [
            (d, e)
            for d in range(1, responses.size)
            for e in range(covariates.size)
            if (d, e) not in self.zero_set
        ]
        pos.sort(key=lambda de: (de[0].bit_count(), de[0], de[1].bit_count(), de[1]))
        return pos


@dataclass(frozen=True)
class FitOptions:
    max_iter: int = 200
    grad_tol: float = 1e-8
    max_halvings: int = 30
    max_step: float = 10.0
    smooth: float | None = None
    allow_missing_cells: bool = False


@dataclass(frozen=True)
class FitResult:
    spec: ModelSpec
    beta_hat: ParamMatrix
    pi_hat: ParamMatrix
    free_index: tuple[tuple[int, int], ...]
    estimates: np.ndarray
    covariance: np.ndarray | None
    std_errors: np.ndarray
    wald_p: np.ndarray
    loglik: float
    deviance: float
    df: int
    p_value: float | None
    converged: bool
    iterations: int
    grad_norm: float
    singular_information: bool = False
    missing_cells: tuple[int, ...] = ()
    unidentified: tuple[tuple[int, int], ...] = ()

    def estimate(self, d_mask: int, e_mask: int) -> float:
        return self.beta_hat.entry(d_mask, e_mask)

    def coefficient_stats(self, d_mask: int, e_mask: int) -> tuple[float, float, float]:
        """(estimate, se, p) for one free coefficient; KeyError if constrained."""
        try:
            i = self.free_index.index((d_mask, e_mask))
        except ValueError:
            raise KeyError(f"coefficient ({d_mask}, {e_mask}) is constrained to zero") from None
        return float(self.estimates[i]), float(self.std_errors[i]), float(self.wald_p[i])


def loglik(pi: ParamMatrix, data: CountTable) -> float:
    """Σ counts · log(pi) over all cells, the product-multinomial log-likelihood."""
    if pi.kind != "pi":
        raise ValueError(f"expected a pi matrix, got kind {pi.kind!r}")
    if pi.values.shape != data.counts.shape:
        raise ValueError(f"shape mismatch: pi {pi.values.shape} vs counts {data.counts.shape}")
    return _loglik_values(data.counts.astype(float), pi.values)


def _loglik_values(counts: np.ndarray, pi_values: np.ndarray) -> float:
    mask = counts > 0
    return float(np.sum(counts[mask] * np.log(pi_values[mask])))


def _saturated_loglik(counts: np.ndarray) -> float:
    totals = counts.sum(axis=0)
    out = 0.0
    for j in range(counts.shape[1]):
        if totals[j] <= 0:
            continue
        col = counts[:, j]
        pos = col > 0
        out += float(np.sum(col[pos] * np.log(col[pos] / totals[j])))
    return out


class LogLikelihood:
    """The log-likelihood of a model over its free coefficient vector.

    Exposes ``value``, the analytic ``gradient`` and Hessian
    (``fd_hessian``), and the free-coefficient indexing shared by the
    optimizer, the Wald tests and the tests.
    """

    def __init__(self, spec: ModelSpec, data: CountTable, smooth: float | None = None):
        spec.validate_for(data.responses, data.covariates)
        self.spec = spec
        self.data = data
        self.link = spec.link
        self.counts = data.counts.astype(float)
        if smooth is not None:
            if smooth <= 0:
                raise ValueError(f"smoothing epsilon must be positive, got {smooth}")
            self.counts = self.counts + float(smooth)
        self.free: list[tuple[int, int]] = spec.free_positions(data.responses, data.covariates)
        self._rows = np.array([d for d, _ in self.free], dtype=np.intp)
        self._cols = np.array([e for _, e in self.free], dtype=np.intp)
        self.shape = (data.responses.size, data.covariates.size)
        # Columns with no observations contribute nothing to the likelihood,
        # so validity (pi > 0) is only required where there is data.
        self._col_observed = self.counts.sum(axis=0) > 0
        self._all_observed = bool(self._col_observed.all())
        # Indicators a_d over response patterns D of the distinct free rows d:
        # the rows of log mu a unit coefficient in row d moves.
        free_rows = np.array(sorted({d for d, _ in self.free}), dtype=np.intp)
        self._row_of_free = np.searchsorted(free_rows, self._rows)
        patterns = np.arange(self.shape[0])
        if self.link == "lm":
            self._row_basis = (patterns[None, :] == free_rows[:, None]).astype(float)
        else:
            self._row_basis = ((patterns[None, :] & free_rows[:, None]) == free_rows[:, None]).astype(float)

    # -- free-vector plumbing -------------------------------------------------
    def beta_values(self, x: np.ndarray) -> np.ndarray:
        beta = np.zeros(self.shape)
        beta[self._rows, self._cols] = x
        return beta

    def free_of(self, beta_values: np.ndarray) -> np.ndarray:
        return np.asarray(beta_values, dtype=float)[self._rows, self._cols]

    # -- evaluation -----------------------------------------------------------
    def pi_values(self, x: np.ndarray) -> np.ndarray | None:
        """Implied cell probabilities, or None when x is outside the valid region.

        The region is defined by the observed columns; implied values for
        unobserved covariate cells are extrapolation and left unconstrained.
        """
        pi = pi_values_from_beta(self.beta_values(x), self.link)
        check = pi if self._all_observed else pi[:, self._col_observed]
        if not np.all(np.isfinite(check)) or np.any(check <= 0.0):
            return None
        return pi

    def value(self, x: np.ndarray) -> float:
        pi = self.pi_values(x)
        if pi is None:
            return -np.inf
        return _loglik_values(self.counts, pi)

    def _score_terms(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """mu, the score w = s⊙mu in log mu and the weights v = counts/pi² at x.

        With r = counts/pi, s = M_V^T r; r (so w and v) is 0 on unobserved
        columns.
        """
        beta = self.beta_values(x)
        mu = mu_values_from_beta(beta, self.link)
        pi = mobius_transform(mu, axis=0, supersets=True)
        check = pi if self._all_observed else pi[:, self._col_observed]
        if np.any(check <= 0.0) or not np.all(np.isfinite(check)):
            raise BoundaryError("derivatives requested outside the valid region")
        if self._all_observed:
            r = self.counts / pi
        else:
            r = np.zeros_like(pi)
            obs = self._col_observed
            r[:, obs] = self.counts[:, obs] / pi[:, obs]
        return mu, mobius_transform(r, axis=0) * mu, r / pi

    def gradient(self, x: np.ndarray) -> np.ndarray:
        """Exact score for the free coefficients.

        With r = counts/pi and s = M_V^T r, the matrix of partials of the
        log-likelihood by theta is s⊙mu (lm) or Z_V(s⊙mu) (lml); chaining
        theta = beta·Z_U turns that into superset sums along rows.
        """
        _, a, _ = self._score_terms(x)
        if self.link == "lml":
            a = zeta_transform(a, axis=0, supersets=True)
        g = zeta_transform(a, axis=1, supersets=True)
        return g[self._rows, self._cols]

    def fd_hessian(self, x: np.ndarray) -> np.ndarray:
        """Exact Hessian of the log-likelihood in the free coefficients.

        Analytic, not finite differences: the name is kept because the
        benchmark's traced run wraps this method by name.  With
        L = ∂log mu/∂β, J = ∂pi/∂β = M_V(mu⊙L), w = s⊙mu and v = counts/pi²,
        H = Lᵀ diag(w) L − Jᵀ diag(v) J.  A free coefficient (d, e) moves
        log mu by a_d[D]·[E ⊇ e], with a_d marking D = d (lm) or D ⊇ d (lml),
        so H[(d, e), (d', e')] = Σ_{E ⊇ e∪e'} K[E, d, d'] for the per-column
        Gram matrices K[E] = a diag(w) aᵀ − j diag(v) jᵀ over the distinct
        free rows, j_d = M_V(a_d⊙mu).  The n x 2**p x 2**q Jacobian is never
        built.
        """
        mu, w, v = self._score_terms(x)
        a = self._row_basis                                            # (rows, D)
        j = mobius_transform(a[:, :, None] * mu, axis=1, supersets=True)  # (rows, D, E)
        k = (np.matmul((a[:, :, None] * w).transpose(2, 0, 1), a.T)
             - np.matmul((j * v).transpose(2, 0, 1), j.transpose(2, 1, 0)))
        k = zeta_transform(k, axis=0, supersets=True)
        # the products are symmetric only up to rounding; make H exactly so
        k = (k + k.transpose(0, 2, 1)) / 2.0
        rows = self._row_of_free
        return k[self._cols[:, None] | self._cols[None, :], rows[:, None], rows[None, :]]


def _independence_mu(counts: np.ndarray, p: int) -> np.ndarray:
    """Mean matrix of the independence model with shrunk empirical margins."""
    ncols = counts.shape[1]
    totals = counts.sum(axis=0)
    mu = np.ones((1 << p, ncols))
    marg = np.empty((p, ncols))
    for v in range(p):
        rows = [m for m in range(1 << p) if m >> v & 1]
        hits = counts[rows].sum(axis=0)
        with np.errstate(invalid="ignore"):
            marg[v] = np.where(totals > 0, (hits + 0.5) / (totals + 1.0), 0.5)
    for m in range(1, 1 << p):
        acc = np.ones(ncols)
        for v in range(p):
            if m >> v & 1:
                acc = acc * marg[v]
        mu[m] = acc
    return mu


def fit(spec: ModelSpec, data: CountTable, options: FitOptions | None = None) -> FitResult:
    """Maximize the log-likelihood over the free coefficients of ``spec``.

    Returns the MLE with observed-information covariance.  Raises DataError
    for empty cells/columns the model cannot tolerate and ConvergenceError
    when no valid interior starting point exists.

    With ``allow_missing_cells`` the likelihood is restricted to observed
    covariate cells: coefficients identified only through empty cells are
    pinned to zero (reported in ``unidentified``) and the ``pi_hat`` columns
    for those cells are model extrapolation, not estimates.
    """
    options = options or FitOptions()
    spec.validate_for(data.responses, data.covariates)

    totals = data.column_totals
    missing = tuple(int(e) for e in np.flatnonzero(totals == 0))
    if missing and not options.allow_missing_cells:
        names = ", ".join(data.covariates.format_mask(e) for e in missing)
        raise DataError(
            f"covariate cells with no observations: {names} "
            f"(pass allow_missing_cells to restrict the likelihood to observed cells)"
        )
    if spec.is_saturated and options.smooth is None:
        work = data.counts if not missing else data.counts[:, [j for j in range(data.covariates.size) if j not in missing]]
        if np.any(work == 0):
            raise DataError(
                "zero observed cell in a saturated fit; enable smoothing or constrain the model"
            )

    ll = LogLikelihood(spec, data, smooth=options.smooth)

    unidentified: list[tuple[int, int]] = []
    if missing:
        observed = [e for e in range(data.covariates.size) if e not in missing]
        for d, e in list(ll.free):
            if not any((obs & e) == e for obs in observed):
                unidentified.append((d, e))
        if unidentified:
            spec_eff = spec.with_zeros(unidentified)
            ll = LogLikelihood(spec_eff, data, smooth=options.smooth)

    x, start_err = _starting_point(ll, data, options)
    if x is None:
        raise ConvergenceError(f"no valid interior starting point found ({start_err})")

    value = ll.value(x)
    grad = ll.gradient(x)
    iterations = 0
    converged = bool(np.max(np.abs(grad), initial=0.0) <= options.grad_tol)

    while not converged and iterations < options.max_iter:
        iterations += 1
        hess = ll.fd_hessian(x)
        gnorm = float(np.max(np.abs(grad)))

        directions: list[np.ndarray] = []
        if np.isfinite(hess).all():
            # Curvature-magnitude Newton: with eigenpairs (lam_i, q_i) of the
            # Hessian, step sum_i (q_i'g / max(|lam_i|, floor)) q_i.  This is
            # the exact Newton step whenever the Hessian is negative definite,
            # and it remains an ascent direction through saddle regions where
            # solving H d = -g would point along the positive-curvature axis
            # and stall the line search.
            evals, evecs = np.linalg.eigh(hess)
            floor = 1e-8 * max(1.0, float(np.max(np.abs(evals))))
            scale = np.maximum(np.abs(evals), floor)
            cand = evecs @ ((evecs.T @ grad) / scale)
            size = float(np.max(np.abs(cand)))
            if size > options.max_step:
                cand = cand * (options.max_step / size)
            directions.append(cand)
        directions.append(grad / max(1.0, gnorm))

        # the accept threshold must scale with |loglik|: near the optimum the
        # true improvement is below one ulp and an absolute cutoff would
        # reject the final Newton steps as float noise
        accept_tol = 1e-12 * max(1.0, abs(value))
        moved = False
        for direction in directions:
            if not np.isfinite(direction).all() or float(direction @ grad) <= 0.0:
                continue
            step = 1.0
            for _ in range(options.max_halvings + 1):
                candidate = x + step * direction
                cand_value = ll.value(candidate)
                if np.isfinite(cand_value) and cand_value >= value - accept_tol:
                    x, value = candidate, cand_value
                    moved = True
                    break
                step /= 2.0
            if moved:
                break
        if not moved:
            break
        grad = ll.gradient(x)
        converged = bool(np.max(np.abs(grad), initial=0.0) <= options.grad_tol)

    grad_norm = float(np.max(np.abs(grad), initial=0.0))

    covariance: np.ndarray | None = None
    singular = False
    nfree = x.size
    if nfree:
        try:
            info = -ll.fd_hessian(x)
            covariance = np.linalg.inv(info)
            if not np.isfinite(covariance).all():
                covariance, singular = None, True
        except np.linalg.LinAlgError:
            covariance, singular = None, True
    else:
        covariance = np.zeros((0, 0))

    if covariance is not None:
        variances = np.diag(covariance).copy()
        bad = variances <= 0
        std_errors = np.sqrt(np.where(bad, np.nan, variances))
        if bad.any():
            singular = True
    else:
        std_errors = np.full(nfree, np.nan)
    with np.errstate(invalid="ignore", divide="ignore"):
        z = x / std_errors
    wald_p = 2.0 * stats.norm.sf(np.abs(z))

    beta_hat = ParamMatrix(beta_kind_for_link(spec.link), data.responses, data.covariates,
                           ll.beta_values(x))
    pi_vals = ll.pi_values(x)
    if pi_vals is None:  # pragma: no cover - optimizer never accepts invalid points
        raise ConvergenceError("optimizer terminated outside the valid region")
    pi_hat = ParamMatrix("pi", data.responses, data.covariates, pi_vals)

    dev = 2.0 * (_saturated_loglik(ll.counts) - value)
    dev = 0.0 if -1e-6 < dev < 0.0 else float(dev)
    df = spec.df
    p_value = float(stats.chi2.sf(dev, df)) if df > 0 else None

    return FitResult(
        spec=spec,
        beta_hat=beta_hat,
        pi_hat=pi_hat,
        free_index=tuple(ll.free),
        estimates=x.copy(),
        covariance=covariance,
        std_errors=std_errors,
        wald_p=wald_p,
        loglik=float(value),
        deviance=dev,
        df=df,
        p_value=p_value,
        converged=converged,
        iterations=iterations,
        grad_norm=grad_norm,
        singular_information=singular,
        missing_cells=missing,
        unidentified=tuple(unidentified),
    )


def _starting_point(ll: LogLikelihood, data: CountTable,
                    options: FitOptions) -> tuple[np.ndarray | None, str]:
    """First valid start among: projected empirical fit, independence, uniform."""
    candidates: list[np.ndarray] = []

    smoothed = ll.counts
    totals = smoothed.sum(axis=0)
    if np.all(totals > 0) and np.all(smoothed > 0):
        emp = ParamMatrix("pi", data.responses, data.covariates, smoothed / totals)
        candidates.append(ll.free_of(beta_from_pi(emp, ll.link).values))

    for mu in (_independence_mu(smoothed, data.responses.ground_size),
               _independence_mu(np.ones_like(smoothed), data.responses.ground_size)):
        theta = np.log(mu)
        if ll.link == "lml":
            theta = mobius_transform(theta, axis=0)
        candidates.append(ll.free_of(mobius_transform(theta, axis=-1)))

    for x in candidates:
        if ll.pi_values(x) is not None:
            return x, ""
    return None, "all starting candidates imply non-positive cell probabilities"


def deviance(fit_result: FitResult, data: CountTable) -> tuple[float, int, float | None]:
    """(G², df, p) of a fit against the saturated model on the same data."""
    if fit_result.pi_hat.values.shape != data.counts.shape:
        raise ValueError("fit and data shapes do not match")
    return fit_result.deviance, fit_result.df, fit_result.p_value


def wald_tests(fit_result: FitResult) -> list[tuple[int, int, float, float, float]]:
    """Rows (D-mask, E-mask, estimate, se, p) for every free coefficient."""
    out = []
    for i, (d, e) in enumerate(fit_result.free_index):
        out.append((d, e, float(fit_result.estimates[i]),
                    float(fit_result.std_errors[i]), float(fit_result.wald_p[i])))
    return out


def simulate(beta: ParamMatrix, link: str, column_totals: Sequence[int],
             seed: int | None = None) -> CountTable:
    """Draw one multinomial sample per covariate cell from the implied pi."""
    from .params import pi_from_beta

    pi = pi_from_beta(beta, link)
    totals = np.asarray(column_totals, dtype=np.int64)
    if totals.shape != (beta.cols.size,):
        raise ValueError(f"expected {beta.cols.size} column totals, got shape {totals.shape}")
    if np.any(totals < 0):
        raise ValueError("column totals must be nonnegative")
    rng = np.random.default_rng(seed)
    counts = np.zeros((beta.rows.size, beta.cols.size), dtype=np.int64)
    for j in range(beta.cols.size):
        if totals[j] > 0:
            counts[:, j] = rng.multinomial(totals[j], pi.values[:, j])
    return CountTable(beta.rows, beta.cols, counts)


def induced_mu_stats(fit_result: FitResult) -> tuple[np.ndarray, np.ndarray]:
    """Multiplicative-scale coefficients implied by a fitted model, with SEs.

    For the lml link the log-mean coefficient matrix is the fixed linear
    image beta_mu[D] = sum over H subset of D of beta_gamma[H] (columnwise),
    so standard errors follow from the fitted covariance without
    approximation.  For the lm link the fit is already on that scale and
    the native estimates and SEs are returned.
    """
    beta = fit_result.beta_hat
    rows, cols = beta.rows, beta.cols
    if fit_result.spec.link == "lm":
        values = beta.values.copy()
    else:
        from .params import beta_mu_from_beta_gamma

        values = beta_mu_from_beta_gamma(beta).values.copy()
    ses = np.zeros_like(values)
    if fit_result.spec.link == "lm":
        index = {pos: i for i, pos in enumerate(fit_result.free_index)}
        for d in range(rows.size):
            for e in range(cols.size):
                i = index.get((d, e))
                ses[d, e] = fit_result.std_errors[i] if i is not None else 0.0
        return values, ses

    index = {pos: i for i, pos in enumerate(fit_result.free_index)}
    cov = fit_result.covariance
    for d in range(1, rows.size):
        for e in range(cols.size):
            members = [index[(h, e)] for h in range(1, rows.size)
                       if h & d == h and (h, e) in index]
            if not members:
                ses[d, e] = 0.0
            elif cov is None:
                ses[d, e] = np.nan
            else:
                block = cov[np.ix_(members, members)]
                var = float(block.sum())
                ses[d, e] = float(np.sqrt(var)) if var >= 0 else np.nan
    return values, ses
