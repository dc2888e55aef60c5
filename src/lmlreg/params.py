"""Parameterizations of a multivariate binary response given binary covariates.

A distribution of ``Y_V | X_U`` (p responses, q covariates) is stored as a
``2**p x 2**q`` matrix whose rows are indexed by response subsets D ⊆ V and
whose columns are indexed by covariate cells E ⊆ U (the cell where exactly
the covariates in E are 1).  Six coordinate systems share that shape:

* ``pi``          cell probabilities pr(Y_D = 1, Y_rest = 0 | cell E); columns sum to 1
* ``mu``          mean parameters mu_D(E) = pr(Y_D = 1 | cell E) (superset sums of pi)
* ``gamma``       log-mean-linear parameters, the Möbius expansion of log(mu) down columns
* ``beta_mu``     LM regression coefficients, log(mu) expanded along rows
* ``beta_gamma``  LML regression coefficients, gamma expanded along rows
* ``ref_b``       reference coefficients (the value beta_mu takes under a
                  conditional split of the responses; see the risk module)

All conversions are compositions of zeta / Möbius transforms along one of the
two axes together with elementwise exp / log, so each one is closed form and
exactly invertible inside the valid region.  ``mu`` and ``gamma`` are not
variation independent: an arbitrary matrix of either kind may imply negative
cell probabilities, detected a posteriori by :func:`pi_from_mu`.

Means and coefficients are linked once each way, on raw arrays, by
:func:`mu_values_from_beta` and its inverse :func:`beta_values_from_mu`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .lattice import SubsetLattice, mobius_transform, zeta_transform

KINDS = ("pi", "mu", "gamma", "beta_mu", "beta_gamma", "ref_b")
LINKS = ("lm", "lml")

COLUMN_SUM_TOL = 1e-12    # pi columns must sum to 1 this tightly
STRUCTURAL_TOL = 1e-9     # mu row-∅ = 1, gamma/beta row-∅ = 0


class ValidationError(ValueError):
    """A parameter matrix violates an invariant of its kind."""


class BoundaryError(ValueError):
    """A transform left the valid region (a cell probability was ≤ 0)."""

    def __init__(self, message: str, row_mask: int | None = None, col_mask: int | None = None,
                 value: float | None = None):
        super().__init__(message)
        self.row_mask = row_mask
        self.col_mask = col_mask
        self.value = value


def check_link(link: str) -> str:
    if link not in LINKS:
        raise ValueError(f"link must be one of {LINKS}, got {link!r}")
    return link


def beta_kind_for_link(link: str) -> str:
    return "beta_mu" if check_link(link) == "lm" else "beta_gamma"


@dataclass(frozen=True)
class ParamMatrix:
    """A parameter matrix of one of the six kinds, tagged with its lattices."""

    kind: str
    rows: SubsetLattice       # responses V
    cols: SubsetLattice       # covariates U
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        v = np.array(self.values, dtype=float)
        if v.shape != (self.rows.size, self.cols.size):
            raise ValueError(
                f"values shape {v.shape} does not match lattices ({self.rows.size}, {self.cols.size})"
            )
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def with_values(self, values: np.ndarray, kind: str | None = None) -> "ParamMatrix":
        return ParamMatrix(kind or self.kind, self.rows, self.cols, values)


def validate(pm: ParamMatrix) -> ParamMatrix:
    """Check the invariants of ``pm.kind``; raise ValidationError naming the failure."""
    v = pm.values
    if not np.all(np.isfinite(v)):
        raise ValidationError(f"{pm.kind}: non-finite entries present")
    if pm.kind == "pi":
        if np.any(v <= 0.0):
            d, e = np.argwhere(v <= 0.0)[0]
            raise ValidationError(
                f"pi: entries must be strictly positive; cell (D={pm.rows.format_mask(int(d))}, "
                f"E={pm.cols.format_mask(int(e))}) = {v[d, e]:.3e}"
            )
        sums = v.sum(axis=0)
        bad = np.argwhere(np.abs(sums - 1.0) > COLUMN_SUM_TOL)
        if bad.size:
            e = int(bad[0, 0])
            raise ValidationError(
                f"pi: column {pm.cols.format_mask(e)} sums to {float(sums[e]):.6g}, expected 1 within {COLUMN_SUM_TOL}"
            )
    elif pm.kind == "mu":
        if np.any(np.abs(v[0] - 1.0) > STRUCTURAL_TOL):
            raise ValidationError("mu: row ∅ must be all ones")
        if np.any(v <= 0.0) or np.any(v > 1.0 + STRUCTURAL_TOL):
            raise ValidationError("mu: entries must lie in (0, 1]")
        # monotone in D: mu_D <= mu_{D\{i}} suffices bit by bit (transitivity)
        patterns = np.arange(pm.rows.size)
        for b in range(pm.rows.ground_size):
            hi = patterns[patterns >> b & 1 == 1]
            if np.any(v[hi] > v[hi ^ 1 << b] + COLUMN_SUM_TOL):
                raise ValidationError(
                    f"mu: not monotone, mu_D > mu_D\\{{{pm.rows.labels[b]}}} somewhere"
                )
    elif pm.kind in ("gamma", "beta_mu", "beta_gamma"):
        if np.any(np.abs(v[0]) > STRUCTURAL_TOL):
            raise ValidationError(f"{pm.kind}: row ∅ must be all zeros")
    return pm


# ---------------------------------------------------------------------------
# chain pi <-> mu <-> gamma, all along the row (response) axis

def mu_from_pi(pi: ParamMatrix) -> ParamMatrix:
    """mu = Z_V pi: superset sums of cell probabilities down each column."""
    if pi.kind != "pi":
        raise ValueError(f"expected a pi matrix, got kind {pi.kind!r}")
    validate(pi)
    return pi.with_values(zeta_transform(pi.values, axis=0, supersets=True), "mu")


def pi_from_mu(mu: ParamMatrix) -> ParamMatrix:
    """pi = M_V mu; raises BoundaryError naming the first non-positive cell."""
    if mu.kind != "mu":
        raise ValueError(f"expected a mu matrix, got kind {mu.kind!r}")
    if np.any(np.abs(mu.values[0] - 1.0) > STRUCTURAL_TOL):
        raise ValidationError("mu: row ∅ must be all ones")
    values = mobius_transform(mu.values, axis=0, supersets=True)
    bad = np.argwhere(values <= 0.0)
    if bad.size:
        d, e = (int(x) for x in bad[0])
        raise BoundaryError(
            f"implied cell probability (D={mu.rows.format_mask(d)}, E={mu.cols.format_mask(e)}) "
            f"= {values[d, e]:.6g} is not positive",
            row_mask=d, col_mask=e, value=float(values[d, e]),
        )
    return mu.with_values(values, "pi")


def gamma_from_mu(mu: ParamMatrix) -> ParamMatrix:
    """gamma = M_V^T log(mu): the log-linear expansion of the means."""
    if mu.kind != "mu":
        raise ValueError(f"expected a mu matrix, got kind {mu.kind!r}")
    if np.any(mu.values <= 0.0):
        d, e = (int(x) for x in np.argwhere(mu.values <= 0.0)[0])
        raise ValidationError(
            f"mu: entry (D={mu.rows.format_mask(d)}, E={mu.cols.format_mask(e)}) must be positive to take logs"
        )
    return mu.with_values(mobius_transform(np.log(mu.values), axis=0), "gamma")


def mu_from_gamma(gamma: ParamMatrix) -> ParamMatrix:
    """mu = exp(Z_V^T gamma); always positive (validity of pi checked downstream)."""
    if gamma.kind != "gamma":
        raise ValueError(f"expected a gamma matrix, got kind {gamma.kind!r}")
    return gamma.with_values(mu_values_from_gamma(gamma.values), "mu")


# ---------------------------------------------------------------------------
# regression-coefficient algebra along the column (covariate) axis
#
# theta = beta Z_U  <=>  beta = theta M_U, row by row.  These operate on raw
# arrays; the link-aware wrappers below carry the ParamMatrix kinds.

def coeffs_from_link(theta: np.ndarray) -> np.ndarray:
    """beta = theta · M_U: Möbius-invert each row over covariate subsets."""
    return mobius_transform(np.asarray(theta, dtype=float), axis=-1)


def link_from_coeffs(beta: np.ndarray) -> np.ndarray:
    """theta = beta · Z_U: cumulative subset sums along each row."""
    return zeta_transform(np.asarray(beta, dtype=float), axis=-1)


def beta_gamma_from_beta_mu(bmu: ParamMatrix) -> ParamMatrix:
    """beta_gamma = M_V^T beta_mu (an exact linear identity between the links)."""
    if bmu.kind != "beta_mu":
        raise ValueError(f"expected a beta_mu matrix, got kind {bmu.kind!r}")
    return bmu.with_values(mobius_transform(bmu.values, axis=0), "beta_gamma")


def beta_mu_from_beta_gamma(bgamma: ParamMatrix) -> ParamMatrix:
    """Inverse of :func:`beta_gamma_from_beta_mu`: left-multiply by Z_V^T."""
    if bgamma.kind != "beta_gamma":
        raise ValueError(f"expected a beta_gamma matrix, got kind {bgamma.kind!r}")
    return bgamma.with_values(zeta_transform(bgamma.values, axis=0), "beta_mu")


# ---------------------------------------------------------------------------
# full closed-form maps between coefficients and cell probabilities

def mu_values_from_gamma(gamma_values: np.ndarray) -> np.ndarray:
    return np.exp(zeta_transform(gamma_values, axis=0))


def mu_values_from_beta(beta_values: np.ndarray, link: str) -> np.ndarray:
    """Coefficients -> means: theta = beta Z_U, then exp (lm) or the gamma chain (lml).

    For lml both subset sums run as one transform of the C-order flattened
    index d·2**q + e, whose passes are theirs in their order: bitwise equal.
    """
    if check_link(link) == "lm":
        return np.exp(zeta_transform(beta_values, axis=-1))
    return np.exp(zeta_transform(np.ravel(beta_values)).reshape(np.shape(beta_values)))


def beta_values_from_mu(mu_values: np.ndarray, link: str) -> np.ndarray:
    """Means -> coefficients, the inverse of :func:`mu_values_from_beta`.

    log, then Möbius down columns (lml only), then Möbius along rows.
    """
    theta = np.log(mu_values)
    if check_link(link) == "lml":
        theta = mobius_transform(theta, axis=0)
    return mobius_transform(theta, axis=-1)


def pi_values_from_beta(beta_values: np.ndarray, link: str) -> np.ndarray:
    """Coefficients -> cell probabilities, without positivity checks.

    Nothing in ``src/`` calls it; it stays because ``bench/spans.py`` wraps
    it by name for the traced run.
    """
    return mobius_transform(mu_values_from_beta(beta_values, link), axis=0, supersets=True)


def beta_from_pi(pi: ParamMatrix, link: str) -> ParamMatrix:
    """Cell probabilities -> regression coefficients under the given link."""
    return pi.with_values(beta_values_from_mu(mu_from_pi(pi).values, link),
                          beta_kind_for_link(link))


def pi_from_beta(beta: ParamMatrix, link: str) -> ParamMatrix:
    """Regression coefficients -> cell probabilities; BoundaryError if invalid."""
    if beta.kind != beta_kind_for_link(link):
        raise ValueError(f"link {link!r} pairs with kind {beta_kind_for_link(link)!r}, got {beta.kind!r}")
    if np.any(np.abs(beta.values[0]) > STRUCTURAL_TOL):
        raise ValidationError(f"{beta.kind}: row ∅ must be all zeros")
    mu = beta.with_values(mu_values_from_beta(beta.values, link), "mu")
    return pi_from_mu(mu)
