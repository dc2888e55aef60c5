"""Product-multinomial likelihood and constrained maximum-likelihood fitting.

The sampling scheme is one independent multinomial per covariate cell: the
count matrix has a column per cell E ⊆ U and a row per response pattern
D ⊆ V (the observations with exactly the responses in D equal to 1).  A
model is a link choice (``lm`` or ``lml``) plus a set of regression
coefficients constrained to zero, read everywhere as one boolean mask; the
free coefficients, in canonical (|D|, D, |E|, E) order, make the
log-likelihood and its gradient cheap to evaluate exactly through the
closed-form coefficient→probability map.  The Wald and deviance p-values
come from the normal and χ² tails computed here in floating point, since
numpy has neither.

Fitting is a damped Newton iteration on the free coefficients: analytic
gradient, analytic Hessian (the exact observed information), and step
halving whenever a step would leave the valid region (some implied cell
probability ≤ 0) or decrease the log-likelihood.  Each iteration factorises
the negated Hessian once, in one solve for the plain Newton step d; that
step is taken when it is finite and ascends, gᵀd > 0, which is exactly
positive curvature dᵀ(−H)d along it.  Otherwise, or when the solve finds
−H singular, the Hessian's eigenvalues, taken in magnitude, give an ascent
direction.  There is one direction per iteration: the fit stops
unconverged when the Hessian or the direction is not finite, the
direction does not ascend, or ``MAX_HALVINGS`` halvings find no step.
Every start is a mean matrix taken to coefficients by the map of
``beta_from_pi``; every covariance is the inverse of the negated Hessian,
with a standard error only where its variance is positive.

The likelihood keeps one evaluation state, for the point it saw last: the
chain β → μ → π, validity and the value, with the score terms added on the
first derivative request.  A line-search trial builds only the chain; the
accepted trial's state then serves its gradient, the next Newton
iteration's Hessian and, at the optimum, the covariance.  The Hessian is
assembled by gathers from that state: the Möbius image of a coefficient's
direction in μ is a signed copy of π (lml) or of one row of μ (lm), and the
curvature of the log link is a gather from the gradient matrix, so no
transform of a Jacobian-sized array is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Iterable, Iterator, Sequence

import numpy as np

from .lattice import SubsetLattice, mobius_transform, zeta_transform
from .params import (
    BoundaryError,
    ParamMatrix,
    beta_kind_for_link,
    beta_mu_from_beta_gamma,
    beta_values_from_mu,
    check_link,
    mu_values_from_beta,
    pi_from_beta,
)


class DataError(ValueError):
    """The observed counts cannot support the requested computation."""


class ConvergenceError(RuntimeError):
    """No valid interior starting point was found, or a fit did not converge."""


# Newton iteration limits: iterations, the score's sup-norm at convergence,
# step halvings per direction, and the largest coefficient change per step.
MAX_ITER = 200
GRAD_TOL = 1e-8
MAX_HALVINGS = 30
MAX_STEP = 10.0


def _pair_array(pairs: Iterable[tuple[int, int]]) -> np.ndarray:
    """(D, E) pairs as a (2, n) array of D and E masks, converted in one C-level pass."""
    return np.fromiter(chain.from_iterable(pairs), np.intp).reshape(-1, 2).T


def _canonical(pairs: np.ndarray) -> np.ndarray:
    """The columns of a (2, n) pair array in canonical (|D|, D, |E|, E) order,
    C-contiguous: ``pairs[:, order]`` would make each row a strided index array."""
    d, e = pairs
    return pairs.take(np.lexsort((e, np.bitwise_count(e), d, np.bitwise_count(d))), axis=1)


def sorted_pairs(pairs: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    """(D, E) coefficient positions in canonical (|D|, D, |E|, E) order."""
    return list(zip(*_canonical(_pair_array(pairs)).tolist()))


def _free_mask(zero_pairs: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """A boolean (2**p, 2**q) mask, True at every (D, E) with D ≠ ∅ not among
    the columns of the (2, n) array ``zero_pairs``."""
    free = np.ones(shape, dtype=bool)
    free[0] = False
    free[tuple(zero_pairs)] = False
    return free


@dataclass(frozen=True)
class CountTable:
    """Observed counts over the 2**p response patterns x 2**q covariate cells."""

    responses: SubsetLattice
    covariates: SubsetLattice
    counts: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        c = np.asarray(self.counts)
        if c.dtype == object:
            try:   # numbers take their own dtype; any other cell leaves it object
                c = np.array(c.tolist())
            except ValueError:   # some cells hold sequences
                pass
        if c.shape != (self.responses.size, self.covariates.size):
            raise ValueError(
                f"counts shape {c.shape} does not match lattices "
                f"({self.responses.size}, {self.covariates.size})"
            )
        integral = c.dtype.kind in "iu"   # integers need no float copy, finiteness or rounding check
        if (c.dtype.kind not in "biuf" or np.any(c < 0)
                or not (integral or np.all(np.isfinite(c.astype(float))))):
            raise ValueError("counts must be finite and nonnegative")
        if not (integral or np.allclose(c, np.round(c))):
            raise ValueError("counts must be integers")
        c = (c if integral else np.round(c)).astype(np.int64)
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
        # one axis per response, response b on axis p-1-b (row-major bit
        # order); summing the dropped axes leaves the kept bits in order
        p = self.responses.ground_size
        dropped = tuple(p - 1 - b for b in range(p) if not keep_mask >> b & 1)
        out = self.counts.reshape((2,) * p + (-1,)).sum(axis=dropped)
        return CountTable(sub, self.covariates, out.reshape(sub.size, -1))


@dataclass(frozen=True, init=False, eq=False)
class ModelSpec:
    """A link plus the set of (D, E) coefficients constrained to zero.

    ``ModelSpec(link, zero_set)`` takes the set as any iterable of (D, E)
    mask pairs and holds it as ``pairs``: one read-only (2, n) array of D
    and E masks, each pair once, in canonical (|D|, D, |E|, E) order.  Two
    specs are equal, and hash alike, when their links and sets are.
    ``zero_set``, the same pairs as a frozenset of Python ints, is built on
    first use.
    """

    link: str
    pairs: np.ndarray

    def __init__(self, link: str, zero_set: Iterable[tuple[int, int]] = ()):
        self._hold(link, _pair_array(zero_set))

    def _hold(self, link: str, pairs: np.ndarray) -> None:
        check_link(link)
        if pairs.shape[1] > 0:
            d_low, e_low = pairs.min(axis=1)
            if d_low == 0:
                raise ValueError("zero_set must not contain row-∅ pairs (structurally zero already)")
            if min(d_low, e_low) < 0:
                raise ValueError("zero_set masks must be nonnegative")
        if pairs.shape[1] > 1:
            pairs = _canonical(pairs)
            repeated = (pairs[:, 1:] == pairs[:, :-1]).all(axis=0)
            if repeated.any():
                pairs = pairs[:, np.concatenate(([True], ~repeated))]
        pairs.setflags(write=False)
        object.__setattr__(self, "link", link)
        object.__setattr__(self, "pairs", pairs)

    def _key(self) -> tuple[str, bytes]:
        return self.link, self.pairs.tobytes()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ModelSpec):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    @cached_property
    def zero_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(zip(*self.pairs.tolist()))

    @property
    def df(self) -> int:
        return self.pairs.shape[1]

    @property
    def is_saturated(self) -> bool:
        return not self.pairs.size

    def validate_for(self, responses: SubsetLattice, covariates: SubsetLattice) -> "ModelSpec":
        """Check that every constrained (D, E) lies in the lattices; ValueError if not."""
        if self.pairs.size:
            # masks are nonnegative, so the largest of each side is the one to test
            d_high, e_high = self.pairs.max(axis=1).tolist()
            responses.check_mask(d_high)
            covariates.check_mask(e_high)
        return self

    def with_zeros(self, extra: Iterable[tuple[int, int]]) -> "ModelSpec":
        spec = object.__new__(ModelSpec)
        spec._hold(self.link, np.concatenate((self.pairs, _pair_array(extra)), axis=1))
        return spec


def _free_pairs(zero_pairs: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """:func:`_free_mask`'s positions as a (2, n) array in canonical order."""
    return _canonical(np.array(np.nonzero(_free_mask(zero_pairs, shape))))


@dataclass(frozen=True)
class FitOptions:
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


# Tail probabilities for the Wald and deviance tests, to about 1e-15 absolute.
_SQRT1_2 = math.sqrt(0.5)
_EPS = 2.0 ** -53
_TAIL_TERMS = 100_000   # series or fraction terms; Q(a, x) near x = a needs about √(74a)
_PHI_SERIES = tuple(1.0 / k for k in range(28, 1, -1))   # 1/k, highest first; |t|^27 < ε at |t| < ¼


def _two_sided_normal_tail(z: np.ndarray) -> np.ndarray:
    """2·Φ(−|z|) for each entry of ``z``; NaN stays NaN.

    With a = |z|/√2 this is 1 − erf(a) below a = √½ and erfc(a) above it,
    the branches of the cephes ``ndtr``.
    """
    a = (np.abs(z) * _SQRT1_2).tolist()
    return np.array([1.0 - math.erf(v) if v < _SQRT1_2 else math.erfc(v) for v in a], np.float64)


def _log_poisson_front(a: float, x: float) -> float:
    """log(x^a e^(−x) / Γ(a+1)), computed as −a·φ(x/a) − ½·log(2πa) − s(a).

    φ(λ) = λ − 1 − log λ, and s(a) is the remainder of Stirling's series for
    log Γ(a+1).  Written out as a·log x − x − log Γ(a+1), terms of size a·log a
    cancel and lose digits when a is large and x is near a.
    """
    t = (x - a) / a
    if abs(t) < 0.25:
        # φ = t − log1p(t) = t² · Σ_{k≥2} (−t)^(k−2) / k, by Horner
        acc = 0.0
        for inv_k in _PHI_SERIES:
            acc = inv_k - t * acc
        phi = t * t * acc
    else:
        lam = x / a
        phi = lam - 1.0 - math.log(lam)
    half_log_2pi_a = 0.5 * math.log(2.0 * math.pi * a)
    if a >= 20.0:
        r = 1.0 / (a * a)
        s = (1.0 / 12 - r * (1.0 / 360 - r * (1.0 / 1260 - r * (1.0 / 1680 - r / 1188)))) / a
    else:
        s = math.lgamma(a + 1.0) - a * math.log(a) + a - half_log_2pi_a
    return -a * phi - half_log_2pi_a - s


def _chi2_tail(df: int, dev: float) -> float:
    """P(χ²_df > dev) = Q(df/2, dev/2), the upper regularized incomplete gamma.

    Below x = a + 1, Q is 1 − P with P from its power series; above it, Q
    is Legendre's continued fraction, evaluated by the modified Lentz method.
    dev = 0 gives exactly 1.0; a negative or NaN ``dev``, or a series or
    fraction that has not converged in ``_TAIL_TERMS`` terms, gives NaN.
    """
    if not dev >= 0.0:
        return math.nan
    a, x = 0.5 * df, 0.5 * dev
    if x == 0.0:
        return 1.0
    if math.isinf(x):
        return 0.0
    front = math.exp(_log_poisson_front(a, x))
    if x < a + 1.0:
        # P = front · Σ_n x^n / ((a+1)…(a+n))
        term = total = 1.0
        for n in range(1, _TAIL_TERMS):
            term *= x / (a + n)
            total += term
            if term <= _EPS * total:
                return 1.0 - front * total
        return math.nan
    # Q = a · front / (x+1−a − 1·(1−a) / (x+3−a − 2·(2−a) / (x+5−a − …)))
    tiny = 1e-300
    b = x + 1.0 - a
    c, d = 1.0 / tiny, 1.0 / b
    h = d
    for i in range(1, _TAIL_TERMS):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = b + an / c
        c = c if abs(c) > tiny else tiny
        delta = d * c
        h *= delta
        if abs(delta - 1.0) <= _EPS:
            return a * front * h
    return math.nan


@dataclass(eq=False)
class _Point:
    """What one coefficient vector implies, filled as it is asked for.

    The chain β → μ → π, validity and the value are built together, since a
    line-search trial needs exactly those.  The derivative terms follow on
    the first ``gradient`` or ``fd_hessian`` request at the same point.
    """

    key: bytes               # an exact copy of x, bit for bit
    mu: np.ndarray
    pi: np.ndarray
    valid: bool
    value: float
    grad: np.ndarray | None = None   # the full gradient matrix over every (D, E)
    v: np.ndarray | None = None      # the weights counts/pi²


class LogLikelihood:
    """The log-likelihood of a model over its free coefficient vector.

    Exposes ``value``, the analytic ``gradient`` and Hessian
    (``fd_hessian``), and the free-coefficient indexing shared by the
    optimizer, the Wald tests and the tests.

    The last point evaluated is kept: value, gradient and Hessian at the
    same x share one pass through β → μ → π, so a Newton iteration builds
    the chain once per line-search trial and not again for the accepted
    trial's gradient and the next Hessian.  The point is recognised by its
    exact bits, so a caller may reuse or mutate its array freely.
    """

    def __init__(self, spec: ModelSpec, data: CountTable, smooth: float | None = None):
        self.link = spec.link
        self.counts = data.counts.astype(float)
        if smooth is not None:
            if smooth <= 0:
                raise ValueError(f"smoothing epsilon must be positive, got {smooth}")
            self.counts = self.counts + float(smooth)
        self.shape = (data.responses.size, data.covariates.size)
        # the spec is validated once, by fit, which builds every likelihood
        free = _free_pairs(spec.pairs, self.shape)
        self.free: list[tuple[int, int]] = list(zip(*free.tolist()))
        self._rows, self._cols = free
        # Columns with no observations contribute nothing to the likelihood,
        # so validity (pi > 0) is only required where there is data.
        self._col_observed = self.counts.sum(axis=0) > 0
        self._point: _Point | None = None
        # Gather tables of the Hessian (see fd_hessian): signs and pi rows of
        # j over the distinct free rows d and the response patterns D; and,
        # for each pair of free coefficients, the flat positions for one
        # ``take`` each of the first term's gradient-matrix entry (pair row,
        # pair column) and the second term's Gram-block entry (pair column,
        # free row, free row).
        self._free_rows = free_rows = np.unique(self._rows)
        d, patterns = free_rows[:, None], np.arange(self.shape[0])[None, :]
        sign = np.where(np.bitwise_count(d & ~patterns) % 2 == 1, -1.0, 1.0)
        rows_i, rows_j = self._rows[:, None], self._rows[None, :]
        if self.link == "lm":
            self._j_sign = np.where((patterns & d) == patterns, sign, 0.0)
            pair_rows = rows_i
            self._same_row = rows_i == rows_j
        else:
            self._j_sign = sign
            self._j_index = d | patterns
            pair_rows = rows_i | rows_j
        pair_cols = self._cols[:, None] | self._cols[None, :]
        self._first_at = pair_rows * self.shape[1] + pair_cols
        row, nrows = np.searchsorted(free_rows, self._rows), free_rows.size
        self._second_at = (pair_cols * nrows + row[:, None]) * nrows + row[None, :]

    # -- free-vector plumbing -------------------------------------------------
    def beta_values(self, x: np.ndarray) -> np.ndarray:
        beta = np.zeros(self.shape)
        beta[self._rows, self._cols] = x
        return beta

    def free_of(self, beta_values: np.ndarray) -> np.ndarray:
        return np.asarray(beta_values, dtype=float)[self._rows, self._cols]

    # -- evaluation -----------------------------------------------------------
    def _at(self, x: np.ndarray) -> _Point:
        """The state at x, built unless x is the point evaluated last."""
        x = np.asarray(x, dtype=float)
        key = x.tobytes()
        point = self._point
        if point is not None and point.key == key:
            return point
        mu = mu_values_from_beta(self.beta_values(x), self.link)
        pi = mobius_transform(mu, axis=0, supersets=True)
        check = pi[:, self._col_observed]
        valid = bool(np.all(np.isfinite(check)) and not np.any(check <= 0.0))
        value = _loglik_values(self.counts, pi) if valid else -np.inf
        self._point = point = _Point(key, mu, pi, valid, value)
        return point

    def value(self, x: np.ndarray) -> float:
        return self._at(x).value

    def _derivatives(self, x: np.ndarray) -> _Point:
        """The state at x with its derivative terms filled.

        With r = counts/pi (0 on unobserved columns) and s = M_V^T r, the
        partials of the log-likelihood by log mu are w = s⊙mu, and by
        theta w itself (lm) or its superset sums Z_V w (lml); chaining
        theta = beta·Z_U turns that into superset sums along rows, the
        gradient matrix over every (D, E).
        """
        point = self._at(x)
        if not point.valid:
            raise BoundaryError("derivatives requested outside the valid region")
        if point.grad is None:
            pi = point.pi
            r = np.divide(self.counts, pi, out=np.zeros_like(pi), where=self._col_observed)
            a = mobius_transform(r, axis=0) * point.mu
            if self.link == "lml":
                a = zeta_transform(a, axis=0, supersets=True)
            point.grad = zeta_transform(a, axis=1, supersets=True)
            point.v = np.divide(r, pi, out=np.zeros_like(pi), where=self._col_observed)
        return point

    def gradient(self, x: np.ndarray) -> np.ndarray:
        """Exact score for the free coefficients."""
        return self._derivatives(x).grad[self._rows, self._cols]

    def fd_hessian(self, x: np.ndarray) -> np.ndarray:
        """Exact Hessian of the log-likelihood in the free coefficients.

        Analytic, not finite differences: the name is kept because the
        benchmark's traced run wraps this method by name.  With
        L = ∂log mu/∂β, J = ∂pi/∂β = M_V(mu⊙L), w = s⊙mu and v = counts/pi²,
        H = Lᵀ diag(w) L − Jᵀ diag(v) J.  A free coefficient (d, e) moves
        log mu by a_d[D]·[E ⊇ e], with a_d marking D = d (lm) or D ⊇ d (lml).

        Both terms are gathers.  The first, Σ_{E ⊇ e∪e'} Σ_D a_d a_d' w, is
        the gradient matrix at (d∪d', e∪e') (lml), or at (d, e∪e') when
        d = d' and 0 otherwise (lm).  In the second, the Möbius image of
        a_d⊙mu is j_d[D] = (−1)^{|d∖D|} pi[D∪d] (lml) or
        (−1)^{|d∖D|} [D ⊆ d] mu[d] (lm), gathered from the state; its
        per-column Gram matrices j diag(v) jᵀ over the distinct free rows are
        summed over E ⊇ e∪e'.  The n x 2**p x 2**q Jacobian is never built.
        """
        point = self._derivatives(x)
        first = point.grad.take(self._first_at)
        if self.link == "lml":
            # gathered from a transposed copy and signed in place: a fresh
            # (E, rows, D) array per operation costs more than the gather
            j = np.ascontiguousarray(point.pi.T).take(self._j_index, axis=1)   # (E, rows, D)
            j *= self._j_sign
        else:
            j = self._j_sign * point.mu.T[:, self._free_rows, None]
            first = np.where(self._same_row, first, 0.0)
        k = np.matmul(j * point.v.T[:, None, :], j.transpose(0, 2, 1))
        k = zeta_transform(k, axis=0, supersets=True)
        # the products are symmetric only up to rounding; make H exactly so
        k = (k + k.transpose(0, 2, 1)) / 2.0
        return first - k.take(self._second_at)


def _independence_mu(counts: np.ndarray, p: int) -> np.ndarray:
    """Mean matrix of the independence model with shrunk empirical margins.

    mu_D = Π_{v ∈ D} m_v, so log mu is the subset sum of the log margins
    placed on the singleton rows.
    """
    present = zeta_transform(counts, axis=0, supersets=True)   # counts with Y^D = 1
    singletons = 1 << np.arange(p)
    totals = present[0]
    log_marg = np.zeros_like(present)
    log_marg[singletons] = np.log(
        np.where(totals > 0, (present[singletons] + 0.5) / (totals + 1.0), 0.5))
    return np.exp(zeta_transform(log_marg, axis=0))


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
    if spec.is_saturated and options.smooth is None and np.any(data.counts[:, totals > 0] == 0):
        raise DataError(
            "zero observed cell in a saturated fit; enable smoothing or constrain the model"
        )

    unidentified: list[tuple[int, int]] = []
    if missing:
        # a coefficient (D, E) reaches the likelihood only through observed
        # cells containing E, so E is covered iff the superset sum of the
        # observed-cell indicator is positive there
        covered = zeta_transform((totals > 0).astype(float), supersets=True) > 0
        free = _free_pairs(spec.pairs, data.counts.shape)
        unidentified = list(zip(*free[:, ~covered[free[1]]].tolist()))
    ll = LogLikelihood(spec.with_zeros(unidentified) if unidentified else spec, data,
                       smooth=options.smooth)

    x = _starting_point(ll, data)
    if x is None:
        raise ConvergenceError("no valid interior starting point found "
                               "(all starting candidates imply non-positive cell probabilities)")

    value = ll.value(x)
    grad = ll.gradient(x)
    iterations = 0
    converged = bool(np.max(np.abs(grad), initial=0.0) <= GRAD_TOL)

    while not converged and iterations < MAX_ITER:
        iterations += 1
        hess = ll.fd_hessian(x)
        if not np.isfinite(hess).all():
            break
        # One factorisation: solve for the Newton step d and keep it when it
        # is finite and ascends.  gᵀd = dᵀ(-H)d, so that test is positive
        # curvature along d, and it holds for every d when H is negative
        # definite.
        try:
            direction = np.linalg.solve(-hess, grad)
            newton = bool(np.isfinite(direction).all()) and float(direction @ grad) > 0.0
        except np.linalg.LinAlgError:
            newton = False
        if not newton:
            # Curvature-magnitude Newton: with eigenpairs (lam_i, q_i) of
            # the Hessian, step sum_i (q_i'g / max(|lam_i|, floor)) q_i.
            # This is the Newton step above whenever the Hessian is
            # negative definite, and it remains an ascent direction
            # through saddle regions where solving H d = -g would point
            # along the positive-curvature axis and stall the line search.
            evals, evecs = np.linalg.eigh(hess)
            floor = 1e-8 * max(1.0, float(np.max(np.abs(evals))))
            scale = np.maximum(np.abs(evals), floor)
            direction = evecs @ ((evecs.T @ grad) / scale)
        size = float(np.max(np.abs(direction)))
        if size > MAX_STEP:
            direction = direction * (MAX_STEP / size)
        if not np.isfinite(direction).all() or float(direction @ grad) <= 0.0:
            break

        # the accept threshold must scale with |loglik|: near the optimum the
        # true improvement is below one ulp and an absolute cutoff would
        # reject the final Newton steps as float noise
        accept_tol = 1e-12 * max(1.0, abs(value))
        step = 1.0
        for _ in range(MAX_HALVINGS + 1):
            candidate = x + step * direction
            cand_value = ll.value(candidate)
            if np.isfinite(cand_value) and cand_value >= value - accept_tol:
                x, value = candidate, cand_value
                break
            step /= 2.0
        else:
            break
        grad = ll.gradient(x)
        converged = bool(np.max(np.abs(grad), initial=0.0) <= GRAD_TOL)

    grad_norm = float(np.max(np.abs(grad), initial=0.0))

    # with no free coefficient the Hessian is 0 x 0 and so is its inverse
    try:
        covariance = np.linalg.inv(-ll.fd_hessian(x))
    except np.linalg.LinAlgError:
        covariance = None
    if covariance is not None and not np.isfinite(covariance).all():
        covariance = None
    variances = np.full(x.size, np.nan) if covariance is None else np.diag(covariance)
    std_errors = np.sqrt(np.where(variances > 0, variances, np.nan))
    singular = covariance is None or bool(np.any(variances <= 0))
    with np.errstate(invalid="ignore", divide="ignore"):
        z = x / std_errors
    wald_p = _two_sided_normal_tail(z)

    beta_hat = ParamMatrix(beta_kind_for_link(spec.link), data.responses, data.covariates,
                           ll.beta_values(x))
    # the optimizer accepts only valid points, so pi is positive on observed columns
    pi_hat = ParamMatrix("pi", data.responses, data.covariates, ll._at(x).pi)

    dev = 2.0 * (_saturated_loglik(ll.counts) - value)
    dev = 0.0 if -1e-6 < dev < 0.0 else float(dev)
    df = spec.df
    p_value = _chi2_tail(df, dev) if df > 0 else None

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


def _starting_point(ll: LogLikelihood, data: CountTable) -> np.ndarray | None:
    """First valid start among: projected empirical fit, independence, uniform."""
    return next((x for x in _start_candidates(ll, data) if ll._at(x).valid), None)


def _start_candidates(ll: LogLikelihood, data: CountTable) -> Iterator[np.ndarray]:
    """The starting candidates in order, each built only when the one before is rejected."""
    smoothed = ll.counts
    totals = smoothed.sum(axis=0)
    if np.all(totals > 0) and np.all(smoothed > 0):
        empirical = zeta_transform(smoothed / totals, axis=0, supersets=True)
        yield ll.free_of(beta_values_from_mu(empirical, ll.link))
    for counts in (smoothed, np.ones_like(smoothed)):
        mu = _independence_mu(counts, data.responses.ground_size)
        yield ll.free_of(beta_values_from_mu(mu, ll.link))


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
    free = np.array(fit_result.free_index, dtype=np.intp).reshape(-1, 2)
    rows, cols = free[:, 0], free[:, 1]
    if fit_result.spec.link == "lm":
        ses = np.zeros(beta.values.shape)
        ses[rows, cols] = fit_result.std_errors
        return beta.values.copy(), ses

    values = beta_mu_from_beta_gamma(beta).values.copy()
    ses = np.zeros_like(values)
    cov = fit_result.covariance
    patterns = np.arange(beta.rows.size)[:, None]
    for e in range(beta.cols.size):
        idx = np.flatnonzero(cols == e)
        if not idx.size:
            continue
        # a[D, i] = 1 iff free row H_i ⊆ D, so Var beta_mu[D, e] = a_Dᵀ Σ a_D
        a = ((patterns & rows[idx]) == rows[idx]).astype(float)
        if cov is None:
            ses[a.any(axis=1), e] = np.nan
            continue
        var = np.sum((a @ cov[np.ix_(idx, idx)]) * a, axis=1)
        ses[:, e] = np.sqrt(np.where(var >= 0, var, np.nan))
    return values, ses
