"""Product-multinomial likelihood and constrained maximum-likelihood fitting.

The sampling scheme is one independent multinomial per covariate cell: the
count matrix has a column per cell E ⊆ U and a row per response pattern
D ⊆ V (the observations with exactly the responses in D equal to 1).  A
model is a link choice (``lm`` or ``lml``) plus a set of regression
coefficients constrained to zero, which ``ModelSpec`` takes as an integer
(n, 2) array of (D, E) rows or as any iterable of (D, E) mask pairs, and
which is read everywhere as one boolean mask.  The free coefficients are
one read-only (2, n) array, ``free_pairs``, laid out and ordered as
``ModelSpec.pairs``; the fit result carries the likelihood's array, and
every read-out indexes by its two rows.  The Wald and deviance p-values
come from the normal and χ² tails computed here in floating point, since
numpy has neither.

What the data can see is derived once per table and smoothing value,
shared by every fit on it, from the raw counts, as two masks: the observed
covariate cells (positive totals) and, by one superset sum, the
coefficients (D, E) some observed cell E′ ⊇ E reaches.  Smoothing, the
validity test and the likelihood read only observed cells; free
coefficients outside the reached mask are pinned at zero, and only the
zero constraints inside it count as degrees of freedom.  ``fit`` takes
its two refusals and ``df`` from these terms before it builds any
likelihood.  They also hold the smoothed counts, their positive cells, the
saturated log-likelihood and each link's start candidates, so the refits
of a selection and both links on one table derive none of them again.  A
point is valid (π finite and positive on every observed column) exactly
when its log-likelihood is finite; an invalid one's is −inf.

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
``beta_from_pi``.  A fit keeps the negated Hessian at its optimum as
``FitResult.information``; the covariance is derived from it on first
read, as its inverse, with a standard error only where its variance is
positive.

The likelihood keeps one evaluation state, for the point it saw last: the
chain β → μ → π and the value, with the score terms added on the
first derivative request.  A line-search trial builds only the chain; the
accepted trial's state then serves its gradient, the next Newton
iteration's Hessian and, at the optimum, the information.  The Hessian is
assembled by gathers from that state, one body for both links: the Möbius
image of a coefficient's direction in μ is a signed copy of π (lml) or of
one row of μ (lm), and the curvature of the log link is a gather from the
gradient matrix, so no transform of a Jacobian-sized array is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

from .lattice import SubsetLattice, mobius_transform, zeta_transform
from .params import (
    BoundaryError,
    ParamMatrix,
    beta_kind_for_link,
    beta_mu_from_beta_gamma,
    beta_values_from_mu,
    check_kind,
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


def _pair_array(pairs: np.ndarray | Iterable[tuple[int, int]]) -> np.ndarray:
    """An integer (n, 2) array, or an iterable of two-integer items, converted in
    one C-level pass to a new (2, n) array of D and E masks; ValueError for others."""
    try:
        rows = np.array(pairs if isinstance(pairs, np.ndarray)
                        else list(pairs) or np.empty((0, 2), np.intp))
    except ValueError:   # items of unequal lengths
        rows = None
    if rows is None or rows.ndim != 2 or rows.shape[1] != 2 or rows.dtype.kind not in "iu":
        raise ValueError("zero_set items must be (D, E) pairs of two integer masks")
    return rows.astype(np.intp, copy=False).T


def _canonical(pairs: np.ndarray) -> np.ndarray:
    """The columns of a (2, n) pair array in canonical (|D|, D, |E|, E) order,
    C-contiguous: ``pairs[:, order]`` would make each row a strided index array."""
    d, e = pairs
    return pairs.take(np.lexsort((e, np.bitwise_count(e), d, np.bitwise_count(d))), axis=1)


def sorted_pairs(pairs: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    """(D, E) coefficient positions in canonical (|D|, D, |E|, E) order."""
    if not isinstance(pairs, np.ndarray):
        pairs = list(pairs)
        if not pairs:   # selection sorts a mostly empty list on every step
            return []
    return list(zip(*_canonical(_pair_array(pairs)).tolist()))


# the pairs of a spec with no zeros, shared by every such spec
_NO_PAIRS = np.empty((2, 0), np.intp)
_NO_PAIRS.setflags(write=False)


def _free_mask(zero_pairs: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """A boolean (2**p, 2**q) mask, True at every (D, E) with D ≠ ∅ not among
    the columns of the (2, n) array ``zero_pairs``."""
    free = np.ones(shape, dtype=bool)
    free[0] = False
    free[tuple(zero_pairs)] = False
    return free


@dataclass(frozen=True)
class CountTable:
    """Observed counts over the 2**p response patterns x 2**q covariate cells.

    The table is immutable, so what a fit reads of it at one smoothing value
    is derived once, on the first fit, and kept with it in ``_terms``, keyed
    by ``smooth``: every fit on the table then shares those terms.
    """

    responses: SubsetLattice
    covariates: SubsetLattice
    counts: np.ndarray = field(repr=False)
    _terms: dict[float | None, _TableTerms] = field(
        default_factory=dict, init=False, repr=False, compare=False)

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

    ``ModelSpec(link, zero_set)`` takes the set as an integer (n, 2) array
    of (D, E) rows, as ``io.read_zero_set`` returns it, or as any iterable
    of (D, E) mask pairs, and holds it as ``pairs``: one read-only (2, n)
    array of D and E masks, each pair once, in canonical (|D|, D, |E|, E)
    order.  Two specs are equal, and hash alike, when their links and sets
    are.  ``zero_set``, the same pairs as a frozenset of Python ints, is
    built on first use.
    """

    link: str
    pairs: np.ndarray

    def __init__(self, link: str, zero_set: np.ndarray | Iterable[tuple[int, int]] = ()):
        check_link(link)
        if isinstance(zero_set, (tuple, list, set, frozenset)) and not zero_set:
            pairs = _NO_PAIRS
        else:
            pairs = _pair_array(zero_set)
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

    def validate_for(self, responses: SubsetLattice, covariates: SubsetLattice) -> "ModelSpec":
        """Check that every constrained (D, E) lies in the lattices; ValueError if not."""
        if self.pairs.size:
            # masks are nonnegative, so the largest of each side is the one to test
            d_high, e_high = self.pairs.max(axis=1).tolist()
            responses.check_mask(d_high)
            covariates.check_mask(e_high)
        return self

    def with_zeros(self, extra: np.ndarray | Iterable[tuple[int, int]]) -> "ModelSpec":
        return ModelSpec(self.link, np.concatenate((self.pairs, _pair_array(extra)), axis=1).T)


@dataclass(frozen=True)
class FitOptions:
    """``smooth``, finite and positive, is added to every cell of an observed
    covariate cell (one with a positive total), never to an empty one.
    ``allow_missing_cells`` restricts the fit to the observed cells."""

    smooth: float | None = None
    allow_missing_cells: bool = False

    def __post_init__(self) -> None:
        if self.smooth is not None and not 0.0 < self.smooth < math.inf:
            raise ValueError(f"smoothing epsilon must be finite and positive, got {self.smooth}")


@dataclass(frozen=True)
class FitResult:
    """A fit and its observed ``information``, −H at the estimates.

    ``free_pairs`` is the likelihood's free-set array, column i naming
    ``estimates[i]``; ``free_index``, the same as a tuple, is kept because
    the benchmark's fit check hashes its items.  ``covariance``,
    ``std_errors``, ``wald_p`` and ``singular_information`` are derived from
    ``information`` on first read, so a caller that reads none of them
    never inverts it.
    """

    spec: ModelSpec
    beta_hat: ParamMatrix
    pi_hat: ParamMatrix
    free_pairs: np.ndarray
    estimates: np.ndarray
    information: np.ndarray
    loglik: float
    deviance: float
    df: int
    p_value: float | None
    converged: bool
    iterations: int
    grad_norm: float
    missing_cells: tuple[int, ...] = ()
    unidentified: tuple[tuple[int, int], ...] = ()

    @cached_property
    def free_index(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(*self.free_pairs.tolist()))

    @cached_property
    def covariance(self) -> np.ndarray | None:
        """The inverse of ``information``; None when it has no finite inverse.
        With no free coefficient it is 0 x 0, and so is its inverse."""
        try:
            covariance = np.linalg.inv(self.information)
        except np.linalg.LinAlgError:
            return None
        return covariance if np.isfinite(covariance).all() else None

    @cached_property
    def std_errors(self) -> np.ndarray:
        """A standard error only where the variance is positive, NaN elsewhere."""
        covariance = self.covariance
        if covariance is None:
            return np.full(self.estimates.size, np.nan)
        variances = np.diag(covariance)
        return np.sqrt(np.where(variances > 0, variances, np.nan))

    @cached_property
    def wald_p(self) -> np.ndarray:
        with np.errstate(invalid="ignore", divide="ignore"):
            z = self.estimates / self.std_errors
        return _two_sided_normal_tail(z)

    @cached_property
    def singular_information(self) -> bool:
        return bool(np.isnan(self.std_errors).any())


def loglik(pi: ParamMatrix, data: CountTable) -> float:
    """Σ counts · log(pi) over all cells, the product-multinomial log-likelihood."""
    check_kind(pi, "pi")
    if pi.values.shape != data.counts.shape:
        raise ValueError(f"shape mismatch: pi {pi.values.shape} vs counts {data.counts.shape}")
    return _loglik_values(data.counts.astype(float), pi.values)


def _loglik_values(counts: np.ndarray, pi_values: np.ndarray) -> float:
    mask = counts > 0
    return float(np.sum(counts[mask] * np.log(pi_values[mask])))


def _saturated_loglik(counts: np.ndarray) -> float:
    return sum((_loglik_values(col, col / total)
                for col, total in zip(counts.T, counts.sum(axis=0)) if total > 0), 0.0)


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


class _TableTerms:
    """What every fit on one table at one smoothing value reads, all read-only.

    ``observed`` and ``reached`` are the two masks of the module docstring
    (the second by column E), ``counts`` the smoothed float counts, and
    ``positive`` the flat index of their positive cells, which lie in
    observed columns, with ``positive_counts`` the counts there.  The start
    candidates' β matrices are built per link on first request, in
    candidate order, so a fit that takes the first builds no other.
    """

    def __init__(self, data: CountTable, smooth: float | None):
        self.observed = observed = data.column_totals > 0
        self.missing = tuple(np.flatnonzero(~observed).tolist())
        self.reached = zeta_transform(observed.astype(float), supersets=True) > 0
        self.counts = counts = data.counts.astype(float)
        if smooth is not None:
            counts[:, observed] += smooth
        self.positive = np.flatnonzero(counts > 0)
        self.positive_counts = counts.take(self.positive)
        for array in (observed, self.reached, counts, self.positive, self.positive_counts):
            array.setflags(write=False)
        self.saturated_loglik = _saturated_loglik(counts)
        # the start candidates' means, in order: the empirical fit when no
        # cell is empty, then independence with shrunk and with flat margins
        p = data.responses.ground_size
        self._start_mus = [lambda: _independence_mu(counts, p),
                           lambda: _independence_mu(np.ones_like(counts), p)]
        if self.positive.size == counts.size:
            self._start_mus.insert(0, lambda: zeta_transform(
                counts / counts.sum(axis=0), axis=0, supersets=True))
        self._start_betas: dict[str, dict[int, np.ndarray]] = {}

    def start_betas(self, link: str) -> Iterator[np.ndarray]:
        """The start candidates' coefficient matrices for ``link``, in order."""
        built = self._start_betas.setdefault(link, {})
        for i, start_mu in enumerate(self._start_mus):
            if i not in built:
                beta = beta_values_from_mu(start_mu(), link)
                beta.setflags(write=False)
                built[i] = beta
            yield built[i]

    def evaluate(self, pi: np.ndarray) -> float:
        """The log-likelihood of ``pi``: finite when ``pi`` is valid, finite
        and positive on every observed column, and −inf when it is not."""
        check = pi[:, self.observed] if self.missing else pi
        # NaN propagates through both reductions and fails both tests; an
        # empty check takes the initial values and passes
        if not (np.minimum.reduce(check, axis=None, initial=np.inf) > 0.0
                and np.maximum.reduce(check, axis=None, initial=-np.inf) < np.inf):
            return -np.inf
        return float(np.add.reduce(self.positive_counts * np.log(pi.take(self.positive))))


def _table_terms(data: CountTable, smooth: float | None) -> _TableTerms:
    """The terms of ``data`` at ``smooth``, built on the first request and kept on the table."""
    terms = data._terms.get(smooth)
    if terms is None:
        terms = data._terms.setdefault(smooth, _TableTerms(data, smooth))
    return terms


@dataclass(eq=False)
class _Point:
    """What one coefficient vector implies, filled as it is asked for.

    The chain β → μ → π and the value, finite exactly at a valid point, are
    built together, since a line-search trial needs exactly those.  The
    derivative terms follow on the first ``gradient`` or ``fd_hessian``.
    """

    key: bytes               # an exact copy of x, bit for bit
    mu: np.ndarray
    pi: np.ndarray
    value: float
    grad: np.ndarray | None = None   # the full gradient matrix over every (D, E)
    root_v: np.ndarray | None = None   # √v, the roots of the weights v = counts/pi²


class LogLikelihood:
    """The log-likelihood of a model over its free coefficient vector.

    Exposes ``value``, the analytic ``gradient`` and Hessian
    (``fd_hessian``), and the free coefficients ``free_pairs`` that index
    them, which the fit result carries on.  What depends only on the table
    and ``smooth`` is read from the table's shared ``terms``, from which
    ``fit`` counts ``df`` before it builds a likelihood; ``counts``, the
    smoothed counts, is theirs and read-only.

    The last point evaluated is kept: value, gradient and Hessian at the
    same x share one pass through β → μ → π, so a Newton iteration builds
    the chain once per line-search trial and not again for the accepted
    trial's gradient and the next Hessian.  The point is recognised by its
    exact bits, so a caller may reuse or mutate its array freely.
    """

    def __init__(self, spec: ModelSpec, data: CountTable, smooth: float | None = None):
        self.link = spec.link
        self.shape = (data.responses.size, data.covariates.size)
        self.terms = terms = _table_terms(data, smooth)
        self.counts = terms.counts
        # the spec is validated once, by fit, which builds every likelihood
        free = _canonical(np.array(np.nonzero(_free_mask(spec.pairs, self.shape))))
        seen = terms.reached[free[1]]
        self.unidentified: tuple[tuple[int, int], ...] = tuple(zip(*free[:, ~seen].tolist()))
        self.free_pairs = free = free.compress(seen, axis=1)
        free.setflags(write=False)
        self._rows, self._cols = free
        self._point: _Point | None = None
        # Gather tables of the Hessian (see fd_hessian), one set for both
        # links: j over the distinct free rows d and the patterns D, as
        # positions in the signed rows [srcᵀ | −srcᵀ | 0], lm's D ⊄ d at the 0
        # column; and, for each pair of free coefficients, the flat positions
        # for one ``take`` each of the first term's entry (pair row, pair
        # column) in the gradient matrix with a 0 appended, lm's pairs in
        # different rows at the 0, and the second term's Gram-block entry
        # (pair column, free row, free row).  The first is the OR of the
        # flat keys d·2**q + e: e < 2**q, so its bits never meet d's.
        free_rows = np.unique(self._rows)
        d, patterns = free_rows[:, None], np.arange(self.shape[0])[None, :]
        odd = np.bitwise_count(d & ~patterns) % 2 == 1
        self._j_index = (d | patterns) + np.where(odd, self.shape[0], 0)
        keys = self._rows * self.shape[1] + self._cols
        self._first_at = np.bitwise_or.outer(keys, keys)
        pair_cols = self._first_at & (self.shape[1] - 1)
        if self.link == "lm":
            self._j_index[(patterns & d) != patterns] = 2 * self.shape[0]
            self._first_at[np.not_equal.outer(self._rows, self._rows)] = (
                self.shape[0] * self.shape[1])
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
        self._point = point = _Point(key, mu, pi, self.terms.evaluate(pi))
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
        if point.value == -np.inf:
            raise BoundaryError("derivatives requested outside the valid region")
        if point.grad is None:
            pi = point.pi
            if not self.terms.missing:
                r = self.counts / pi
                v = r / pi
            else:
                observed = self.terms.observed
                r = np.divide(self.counts, pi, out=np.zeros_like(pi), where=observed)
                v = np.divide(r, pi, out=np.zeros_like(pi), where=observed)
            a = mobius_transform(r, axis=0) * point.mu
            if self.link == "lml":
                a = zeta_transform(a, axis=0, supersets=True)
            point.grad = zeta_transform(a, axis=1, supersets=True)
            point.root_v = np.sqrt(v)
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

        Both terms are gathers, by one body for both links.  The first,
        Σ_{E ⊇ e∪e'} Σ_D a_d a_d' w, is the gradient matrix at (d∪d', e∪e')
        (lml), or at (d, e∪e') when d = d' and the 0 appended to it
        otherwise (lm).  In the second, the Möbius image of a_d⊙mu is
        j_d[D] = (−1)^{|d∖D|} src[D∪d], with src = pi (lml), or mu and 0
        where D ⊄ d (lm), gathered from the signed rows [srcᵀ | −srcᵀ | 0].
        Its per-column Gram matrices j diag(v) jᵀ over the distinct free
        rows are summed over E ⊇ e∪e'.  As v ≥ 0 (0 on unobserved columns), each is
        a aᵀ with a = j⊙√v, one operand, so numpy hands every column's slice
        to a symmetric rank-k BLAS product and H comes out exactly
        symmetric.  The n x 2**p x 2**q Jacobian is never built.
        """
        point = self._derivatives(x)
        first = np.append(point.grad, 0.0).take(self._first_at)
        src = (point.mu if self.link == "lm" else point.pi).T
        a = np.concatenate((src, -src, np.zeros((src.shape[0], 1))), axis=1).take(
            self._j_index, axis=1)   # (E, rows, D)
        # scaled in place: a second (E, rows, D) array per operation costs
        # more than the gather
        a *= point.root_v.T[:, None, :]
        k = zeta_transform(np.matmul(a, a.transpose(0, 2, 1)), axis=0, supersets=True)
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

    Returns the MLE with its observed information −H; the covariance,
    standard errors and Wald p-values are derived from it on first read, so
    a caller that reads only the estimates never inverts it.  Raises
    DataError, read from the table's terms before any likelihood is built,
    for empty cells/columns the model cannot tolerate, and ConvergenceError
    when no valid interior starting point exists.

    With ``allow_missing_cells`` the likelihood is restricted to the
    observed covariate cells: free coefficients no observed cell reaches are
    pinned to zero (``unidentified``), ``df`` counts only the constraints
    some observed cell reaches, and smoothing adds nothing to empty cells,
    whose ``pi_hat`` columns are model extrapolation, not estimates.
    """
    options = options or FitOptions()
    spec.validate_for(data.responses, data.covariates)
    terms = _table_terms(data, options.smooth)

    missing = terms.missing
    if missing and not options.allow_missing_cells:
        names = ", ".join(data.covariates.format_mask(e) for e in missing)
        raise DataError(
            f"covariate cells with no observations: {names} "
            f"(pass allow_missing_cells to restrict the likelihood to observed cells)"
        )
    # the zero constraints some observed cell reaches
    df = int(np.count_nonzero(terms.reached[spec.pairs[1]]))
    if df == 0 and options.smooth is None and np.any(data.counts[:, terms.observed] == 0):
        raise DataError(
            "zero observed cell in a saturated fit; enable smoothing or constrain the model"
        )
    ll = LogLikelihood(spec, data, smooth=options.smooth)

    x = _starting_point(ll)
    if x is None:
        raise ConvergenceError("no valid interior starting point found "
                               "(all starting candidates imply non-positive cell probabilities)")

    value = ll.value(x)
    grad = ll.gradient(x)
    grad_norm = float(np.abs(grad).max(initial=0.0))
    iterations = 0

    # written so that a NaN score iterates on
    while not grad_norm <= GRAD_TOL and iterations < MAX_ITER:
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
            newton = _ascends(direction, grad)
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
        size = float(np.abs(direction).max())
        if size > MAX_STEP:
            direction = direction * (MAX_STEP / size)
        # a kept Newton step has passed the test; an eigenvalue or rescaled
        # step takes it now
        if (not newton or size > MAX_STEP) and not _ascends(direction, grad):
            break

        # the accept threshold must scale with |loglik|: near the optimum the
        # true improvement is below one ulp and an absolute cutoff would
        # reject the final Newton steps as float noise
        accept_tol = 1e-12 * max(1.0, abs(value))
        step = 1.0
        for _ in range(MAX_HALVINGS + 1):
            candidate = x + step * direction
            cand_value = ll.value(candidate)
            if math.isfinite(cand_value) and cand_value >= value - accept_tol:
                x, value = candidate, cand_value
                break
            step /= 2.0
        else:
            break
        grad = ll.gradient(x)
        grad_norm = float(np.abs(grad).max(initial=0.0))

    beta_hat = ParamMatrix(beta_kind_for_link(spec.link), data.responses, data.covariates,
                           ll.beta_values(x))
    # the optimizer accepts only valid points, so pi is positive on observed columns
    pi_hat = ParamMatrix("pi", data.responses, data.covariates, ll._at(x).pi)

    dev = 2.0 * (terms.saturated_loglik - value)
    dev = 0.0 if -1e-6 < dev < 0.0 else float(dev)
    p_value = _chi2_tail(df, dev) if df > 0 else None

    return FitResult(
        spec=spec,
        beta_hat=beta_hat,
        pi_hat=pi_hat,
        free_pairs=ll.free_pairs,
        estimates=x.copy(),
        information=-ll.fd_hessian(x),
        loglik=float(value),
        deviance=dev,
        df=df,
        p_value=p_value,
        converged=grad_norm <= GRAD_TOL,
        iterations=iterations,
        grad_norm=grad_norm,
        missing_cells=missing,
        unidentified=ll.unidentified,
    )


def _ascends(direction: np.ndarray, grad: np.ndarray) -> bool:
    """Whether ``direction`` is finite and ascends, gᵀd > 0."""
    return bool(np.isfinite(direction).all()) and float(direction @ grad) > 0.0


def _starting_point(ll: LogLikelihood) -> np.ndarray | None:
    """The first start of finite value, so valid, among: projected empirical
    fit, independence, uniform; each is built only when the one before fails."""
    return next((x for x in map(ll.free_of, ll.terms.start_betas(ll.link))
                 if ll._at(x).value > -np.inf), None)


def wald_tests(fit_result: FitResult) -> list[tuple[int, int, float, float, float]]:
    """Rows (D-mask, E-mask, estimate, se, p) for every free coefficient."""
    return list(zip(*fit_result.free_pairs.tolist(), fit_result.estimates.tolist(),
                    fit_result.std_errors.tolist(), fit_result.wald_p.tolist()))


def simulate(beta: ParamMatrix, link: str, column_totals: Sequence[int],
             seed: int | None = None) -> CountTable:
    """Draw one multinomial sample per covariate cell from the implied pi."""
    return _sample_counts(pi_from_beta(beta, link), column_totals, seed)


def _sample_counts(pi: ParamMatrix, column_totals: Sequence[int], seed: int | None) -> CountTable:
    """One multinomial sample per cell of a valid ``pi``; integral float totals are taken."""
    totals = np.asarray(column_totals)
    if totals.shape != (pi.cols.size,):
        raise ValueError(f"expected {pi.cols.size} column totals, got shape {totals.shape}")
    if (totals.dtype.kind not in "iuf"
            or not np.all(np.isfinite(totals) & (totals == np.round(totals)))):
        raise ValueError("column totals must be integers")
    totals = totals.astype(np.int64)
    if np.any(totals < 0):
        raise ValueError("column totals must be nonnegative")
    # one draw per cell, in cell order (a cell of total 0 draws nothing), copied to C order
    counts = np.random.default_rng(seed).multinomial(totals, pi.values.T).T.copy()
    return CountTable(pi.rows, pi.cols, counts)


def induced_mu_stats(fit_result: FitResult) -> tuple[np.ndarray, np.ndarray]:
    """Multiplicative-scale coefficients implied by a fitted model, with SEs.

    For the lml link the log-mean coefficient matrix is the fixed linear
    image beta_mu[D] = sum over H subset of D of beta_gamma[H] (columnwise),
    so standard errors follow from the fitted covariance without
    approximation.  For the lm link the fit is already on that scale and
    the native estimates and SEs are returned.
    """
    beta = fit_result.beta_hat
    rows, cols = fit_result.free_pairs
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
