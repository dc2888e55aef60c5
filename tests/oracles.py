"""Independent reference implementations used to cross-check the library.

Everything here is written with explicit subset loops, row-by-row and
entry-by-entry code and generic optimizers on purpose: no fast transforms,
no shared code with the package internals beyond data containers.  Seven
exceptions reuse package pieces: the finite-difference Hessian oracle
differentiates the package's analytic score (itself checked against
differences of the log-likelihood), the Gram-matrix Hessian oracle builds
the same quantity from the package's transforms by another route, the
start-point oracle builds every candidate from the package's own maps
before checking any, so the lazy search must return the same vector bit for
bit, ``implied_pi`` runs the likelihood's β → μ → π chain through the
package's maps, so the validity it reports is the fit's, bit for bit, the
single-entry risk functions (``log_relative_risk`` and its kin) sum with
``lmlreg.risk._background_sums`` over ``reference_coeffs``, so a risk
report's entries must equal them, and the report built from them entry by
entry (``entry_by_entry_risk_entries``), bit for bit, and the tolerance
scan of a fitted coefficient matrix (``fitted_response_independencies``)
takes the gamma rows of a ``beta_mu`` matrix with the package's Möbius
transform; it lists the splits with its own loop; and the per-cell matrix
reader (``oracle_read_param_matrix``, the package's reader before it
converted the cells in one block) takes its text and lines from
``lmlreg.io``'s ``_read_text`` and ``_lines``, so what it checks is the
handling of rows and cells.

The dense zeta and Möbius matrices (the reference for every transform, and
the maps of the brute-force maximiser's objective), the
single-entry risk functions, the closed-form saturated fit
(``empirical_pi``), a spec's free positions (``free_positions``), the
implied cell probabilities (``implied_pi``) and the tolerance scan are test
references, not package API.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import json
import math
from typing import IO

import numpy as np
from scipy import optimize

from lmlreg.inference import (CountTable, DataError, LogLikelihood, ModelSpec, _independence_mu,
                              induced_mu_stats)
from lmlreg.io import ConfigError, _lines, _read_text
from lmlreg.lattice import SubsetLattice, mobius_transform, zeta_transform
from lmlreg.params import (KINDS, ParamMatrix, beta_from_pi, beta_gamma_from_beta_mu,
                            beta_mu_from_beta_gamma, mu_values_from_beta)
from lmlreg.risk import RiskEntry, _background_sums, reference_coeffs

FITTED_ZERO_TOL = 1e-8


@functools.lru_cache(maxsize=None)
def subsets_of(mask: int) -> tuple[int, ...]:
    """Every submask of ``mask``, by cardinality then combination order.

    Memoised: the loop oracles ask for the same few masks many times over.
    """
    bits = [b for b in range(mask.bit_length()) if mask >> b & 1]
    out = []
    for k in range(len(bits) + 1):
        for combo in itertools.combinations(bits, k):
            m = 0
            for b in combo:
                m |= 1 << b
            out.append(m)
    return tuple(out)


def zeta_matrix(lattice: SubsetLattice) -> np.ndarray:
    """Z with entry 1 at (E, H) iff E ⊆ H, else 0."""
    m = np.arange(lattice.size)
    sub = (m[:, None] & m[None, :]) == m[:, None]
    return sub.astype(float)


def mobius_matrix(lattice: SubsetLattice) -> np.ndarray:
    """M = Z**-1, with entry (-1)**|H \\ E| at (E, H) iff E ⊆ H."""
    m = np.arange(lattice.size)
    sub = (m[:, None] & m[None, :]) == m[:, None]
    odd = np.bitwise_count(m[None, :] & ~m[:, None]) % 2 == 1
    return np.where(sub, np.where(odd, -1.0, 1.0), 0.0)


def oracle_loglik(counts: np.ndarray, pi: np.ndarray) -> float:
    mask = counts > 0
    return float(np.sum(counts[mask] * np.log(pi[mask])))


def empirical_pi(table: CountTable, smooth: float | None = None) -> ParamMatrix:
    """Per-column observed proportions, optionally with +eps smoothing.

    This is the closed-form maximum of a saturated fit.  Raises DataError if
    any cell (or column) is empty and no smoothing is requested, since the
    result would not be a valid pi matrix.
    """
    counts = table.counts.astype(float)
    if smooth is not None:
        counts = counts + float(smooth)
    totals = counts.sum(axis=0)
    if np.any(totals <= 0):
        e = int(np.argwhere(totals <= 0)[0, 0])
        raise DataError(f"covariate cell {table.covariates.format_mask(e)} has no observations")
    if np.any(counts <= 0):
        d, e = (int(x) for x in np.argwhere(counts <= 0)[0])
        raise DataError(
            f"observed cell (D={table.responses.format_mask(d)}, "
            f"E={table.covariates.format_mask(e)}) is empty; use smoothing to proceed"
        )
    return ParamMatrix("pi", table.responses, table.covariates, counts / totals)


def free_positions(spec: ModelSpec, responses: SubsetLattice,
                   covariates: SubsetLattice) -> list[tuple[int, int]]:
    """The free (D, E) positions of ``spec``, D ≠ ∅, in canonical (|D|, D, |E|, E) order."""
    free = [(d, e) for d in range(1, responses.size) for e in range(covariates.size)
            if (d, e) not in spec.zero_set]
    return sorted(free, key=lambda de: (de[0].bit_count(), de[0], de[1].bit_count(), de[1]))


def oracle_empirical_start(spec: ModelSpec, data: CountTable) -> np.ndarray:
    """Free coefficients of the smoothed empirical distribution, by loops."""
    p = data.responses.ground_size
    q = data.covariates.ground_size
    nrow, ncol = 2**p, 2**q
    counts = np.asarray(data.counts, dtype=float) + 0.5
    pi = counts / counts.sum(axis=0, keepdims=True)
    logmu = np.zeros((nrow, ncol))
    for d in range(nrow):
        for cell in range(ncol):
            logmu[d, cell] = np.log(sum(pi[h, cell] for h in range(nrow) if h & d == d))
    if spec.link == "lm":
        theta = logmu
    else:
        theta = np.zeros_like(logmu)
        for d in range(nrow):
            for cell in range(ncol):
                theta[d, cell] = sum(
                    (-1.0 if (d ^ h).bit_count() % 2 else 1.0) * logmu[h, cell]
                    for h in subsets_of(d))
    beta = np.zeros_like(theta)
    for d in range(nrow):
        for cell in range(ncol):
            beta[d, cell] = sum(
                (-1.0 if (cell ^ e).bit_count() % 2 else 1.0) * theta[d, e]
                for e in subsets_of(cell))
    free = free_positions(spec, data.responses, data.covariates)
    return np.array([beta[d, e] for d, e in free])


def brute_force_max_loglik(spec: ModelSpec, data: CountTable, n_starts: int = 12,
                           seed: int = 0) -> float:
    """Best log-likelihood a generic optimizer finds over the free coefficients.

    Starts at the free-coefficient projection of the smoothed empirical
    distribution (jittered for the remaining restarts); purely random
    starts sit on the invalid-region penalty plateau too often.
    """
    free = free_positions(spec, data.responses, data.covariates)
    rows, cols = np.array(free, dtype=np.intp).reshape(-1, 2).T
    counts = np.asarray(data.counts, dtype=float)
    # the maps as dense matrices: theta = beta Z_U, log mu = Z_V^T theta
    # (lml) and pi = M_V mu, independent of the library's butterfly
    zeta_u = zeta_matrix(data.covariates)
    zeta_v_t = zeta_matrix(data.responses).T
    mobius_v = mobius_matrix(data.responses)

    def negloglik(x: np.ndarray) -> float:
        beta = np.zeros(counts.shape)
        beta[rows, cols] = x
        theta = beta @ zeta_u
        pi = mobius_v @ np.exp(theta if spec.link == "lm" else zeta_v_t @ theta)
        if np.any(pi <= 0):
            return 1e10
        return -oracle_loglik(counts, pi)

    center = oracle_empirical_start(spec, data)
    rng = np.random.default_rng(seed)
    best = np.inf
    for start in range(n_starts):
        x0 = center.copy()
        if start:
            jitter = rng.normal(scale=0.1 + 0.05 * start, size=len(free))
            for _ in range(8):
                if negloglik(center + jitter) < 1e10:
                    x0 = center + jitter
                    break
                jitter *= 0.5
        for method in ("Nelder-Mead", "Powell"):
            res = optimize.minimize(
                negloglik, x0, method=method,
                options={"maxiter": 20000, "xatol": 1e-10, "fatol": 1e-12}
                if method == "Nelder-Mead" else {"maxiter": 20000},
            )
            if res.fun < best:
                best = res.fun
                x0 = res.x  # chain the two methods from the better point
    return -best


def central_difference_hessian(ll: LogLikelihood, x: np.ndarray, step: float = 1e-6) -> np.ndarray:
    """Central finite differences of ``ll.gradient`` at x, symmetrized.

    x must lie far enough inside the valid region that every x ± step·e_j
    is valid too; the error is O(step²) plus rounding of order 1e-16/step.
    """
    n = x.size
    h = np.zeros((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = step
        h[:, j] = (ll.gradient(x + e) - ll.gradient(x - e)) / (2 * step)
    return (h + h.T) / 2.0


def oracle_gram_hessian(ll: LogLikelihood, x: np.ndarray) -> np.ndarray:
    """The analytic Hessian through per-column Gram matrices of a Möbius-transformed cube.

    H = Lᵀ diag(w) L − Jᵀ diag(v) J, with the indicators a_d over response
    patterns of the distinct free rows d (D = d for lm, D ⊇ d for lml),
    j_d = M_V(a_d⊙mu) by a transform of the (rows, D, E) cube, and the Gram
    matrices K[E] = a diag(w) aᵀ − j diag(v) jᵀ summed over E ⊇ e∪e'.
    Everything at x is rebuilt from the package's maps, not read from the
    likelihood's cached state.
    """
    mu = mu_values_from_beta(ll.beta_values(x), ll.link)
    pi = mobius_transform(mu, axis=0, supersets=True)
    observed = ll.counts.sum(axis=0) > 0
    r = np.zeros_like(pi)
    r[:, observed] = ll.counts[:, observed] / pi[:, observed]
    w = mobius_transform(r, axis=0) * mu
    v = r / pi
    free_rows = np.array(sorted({d for d, _ in ll.free}), dtype=np.intp)
    patterns = np.arange(pi.shape[0])
    if ll.link == "lm":
        a = (patterns[None, :] == free_rows[:, None]).astype(float)
    else:
        a = ((patterns[None, :] & free_rows[:, None]) == free_rows[:, None]).astype(float)
    j = mobius_transform(a[:, :, None] * mu, axis=1, supersets=True)          # (rows, D, E)
    k = (np.matmul((a[:, :, None] * w).transpose(2, 0, 1), a.T)
         - np.matmul((j * v).transpose(2, 0, 1), j.transpose(2, 1, 0)))
    k = zeta_transform(k, axis=0, supersets=True)
    rows = np.searchsorted(free_rows, [d for d, _ in ll.free])
    cols = np.array([e for _, e in ll.free], dtype=np.intp)
    h = k[cols[:, None] | cols[None, :], rows[:, None], rows[None, :]]
    return (h + h.T) / 2.0


def _check_d_u_e(beta: ParamMatrix, d_mask: int, u: str, e_mask: int) -> tuple[int, int]:
    beta.rows.check_mask(d_mask)
    u_mask = beta.cols.mask_of([u])
    beta.cols.check_mask(e_mask)
    if e_mask & u_mask:
        raise ValueError(f"background cell E={beta.cols.format_mask(e_mask)} must not contain {u!r}")
    return u_mask, e_mask


def _background_sum(beta: ParamMatrix, d_mask: int, u: str, e_mask: int) -> float:
    _check_d_u_e(beta, d_mask, u, e_mask)
    sums, cells = _background_sums(beta.values[d_mask], beta.cols, u)
    return float(sums[np.searchsorted(cells, e_mask)])


def log_relative_risk(beta_mu: ParamMatrix, d_mask: int, u: str, e_mask: int = 0) -> float:
    """log RR_u(Y^D = 1 | E) = Σ_{E' ⊆ E} beta_mu_D(E' ∪ {u}); 0 for D = ∅."""
    if beta_mu.kind != "beta_mu":
        raise ValueError(f"expected a beta_mu matrix, got kind {beta_mu.kind!r}")
    lrr = _background_sum(beta_mu, d_mask, u, e_mask)
    return 0.0 if d_mask == 0 else lrr


def log_relative_risk_from_mu(mu: ParamMatrix, d_mask: int, u: str, e_mask: int = 0) -> float:
    """The same quantity evaluated directly as a ratio of mean parameters."""
    if mu.kind != "mu":
        raise ValueError(f"expected a mu matrix, got kind {mu.kind!r}")
    u_mask, e_mask = _check_d_u_e(mu, d_mask, u, e_mask)
    return float(np.log(mu.values[d_mask, e_mask | u_mask]) - np.log(mu.values[d_mask, e_mask]))


def log_reference_rr(beta_mu: ParamMatrix, d_mask: int, u: str, e_mask: int = 0) -> float:
    """log of the reference relative risk of Y^D (|D| > 1) w.r.t. u at cell E.

    The sum of reference coefficients over E' ⊆ E; it equals the defining
    alternating sum of lower-order log relative risks.
    """
    if d_mask.bit_count() <= 1:
        raise ValueError("reference relative risk requires |D| > 1")
    return _background_sum(reference_coeffs(beta_mu), d_mask, u, e_mask)


def log_rr_ratio(beta_gamma: ParamMatrix, d_mask: int, u: str, e_mask: int = 0) -> float:
    """log(RR / reference RR) = Σ_{E' ⊆ E} beta_gamma_D(E' ∪ {u}), |D| > 1."""
    if beta_gamma.kind != "beta_gamma":
        raise ValueError(f"expected a beta_gamma matrix, got kind {beta_gamma.kind!r}")
    if d_mask.bit_count() <= 1:
        raise ValueError("the risk ratio against reference requires |D| > 1")
    return _background_sum(beta_gamma, d_mask, u, e_mask)


def entry_by_entry_risk_entries(fit_result) -> list[RiskEntry]:
    """``risk_report(fit_result).entries``, one single-entry call per field.

    D by cardinality, then u in label order, then E ascending; for |D| = 1
    the reference and ratio are None and nothing is constrained, otherwise
    the ratio is constrained when the zero set holds every gamma term it sums.
    """
    beta = fit_result.beta_hat
    if fit_result.spec.link == "lml":
        bmu, bgamma, gamma_zeros = beta_mu_from_beta_gamma(beta), beta, fit_result.spec.zero_set
    else:
        bmu, bgamma, gamma_zeros = beta, beta_gamma_from_beta_mu(beta), frozenset()
    out = []
    for d in beta.rows.masks_by_cardinality():
        for u in beta.cols.labels:
            u_mask = beta.cols.mask_of([u])
            for e in range(beta.cols.size):
                if e & u_mask:
                    continue
                lrr = log_relative_risk(bmu, d, u, e)
                if d.bit_count() == 1:
                    out.append(RiskEntry(d, u, e, lrr, None, None, False))
                    continue
                constrained = all((d, ep | u_mask) in gamma_zeros for ep in subsets_of(e))
                out.append(RiskEntry(d, u, e, lrr, log_reference_rr(bmu, d, u, e),
                                     log_rr_ratio(bgamma, d, u, e), constrained))
    return out


def _sign(mask: int) -> float:
    return -1.0 if mask.bit_count() % 2 else 1.0


def oracle_log_reference_rr_product(beta_mu: np.ndarray, d: int, u_mask: int, e: int) -> float:
    """log reference RR as the defining alternating sum of lower-order log RRs."""
    out = 0.0
    for d_sub in subsets_of(d):
        if d_sub == d:
            continue
        lrr = sum(beta_mu[d_sub, ep | u_mask] for ep in subsets_of(e))
        out -= _sign(d ^ d_sub) * lrr
    return out


def oracle_risk_entries(beta: np.ndarray, link: str, zero_set: frozenset) -> dict:
    """(D, u-mask, E) -> (log RR, log ref RR, log ratio, constrained), by loops.

    ``beta`` holds beta_gamma (lml) or beta_mu (lm) values; for |D| ≤ 1 the
    last three fields are None, None, False.
    """
    nrow, ncol = beta.shape
    bmu = np.zeros_like(beta)
    bgamma = np.zeros_like(beta)
    for d in range(nrow):
        for e in range(ncol):
            if link == "lml":
                bgamma[d, e] = beta[d, e]
                bmu[d, e] = sum(beta[h, e] for h in subsets_of(d))
            else:
                bmu[d, e] = beta[d, e]
                bgamma[d, e] = sum(_sign(d ^ h) * beta[h, e] for h in subsets_of(d))
    gamma_zeros = zero_set if link == "lml" else frozenset()
    out = {}
    for d in range(1, nrow):
        for b in range(ncol.bit_length() - 1):
            u_mask = 1 << b
            for e in range(ncol):
                if e & u_mask:
                    continue
                below = [ep | u_mask for ep in subsets_of(e)]
                lrr = sum(bmu[d, c] for c in below)
                if d.bit_count() <= 1:
                    out[d, u_mask, e] = (lrr, None, None, False)
                    continue
                lref = sum(-_sign(d ^ dp) * bmu[dp, c]
                           for dp in subsets_of(d) if dp != d for c in below)
                lratio = sum(bgamma[d, c] for c in below)
                constrained = all((d, c) in gamma_zeros for c in below)
                out[d, u_mask, e] = (lrr, lref, lratio, constrained)
    return out


def _splits(zero_rows: set[int], p: int) -> list[tuple[int, int, int]]:
    """Splits (D, A, B) of the nonempty D ⊆ {0..p-1} whose straddling rows D' ⊆ D
    (those meeting both A and B) all lie in ``zero_rows``, in the package's
    order: D by cardinality, A holding D's lowest bit, A ascending."""
    out = []
    for d in sorted(range(1, 2**p), key=lambda m: (m.bit_count(), _bits(m))):
        low = d & -d
        for sub in sorted(subsets_of(d ^ low)):
            a, b = low | sub, d ^ low ^ sub
            if b and all(dp in zero_rows for dp in subsets_of(d) if dp & a and dp & b):
                out.append((d, a, b))
    return out


def oracle_response_independencies(spec: ModelSpec, p: int, q: int) -> list[tuple[int, int, int]]:
    """Splits (D, A, B) whose straddling gamma rows the zero set zeroes, by loops."""
    zero_rows = set()
    if spec.link == "lml":
        zero_rows = {d for d in range(1, 2**p)
                     if all((d, e) in spec.zero_set for e in range(2**q))}
    return _splits(zero_rows, p)


def fitted_response_independencies(beta: ParamMatrix,
                                   tol: float = FITTED_ZERO_TOL) -> list[tuple[int, int, int]]:
    """Splits (D, A, B) whose straddling gamma rows of a fitted coefficient
    matrix (``beta_mu`` or ``beta_gamma``) are all within ``tol`` of zero."""
    values = beta.values
    if beta.kind == "beta_mu":
        values = mobius_transform(values, axis=0)
    elif beta.kind != "beta_gamma":
        raise ValueError(f"expected beta_mu or beta_gamma, got kind {beta.kind!r}")
    zero_rows = {d for d in range(1, beta.rows.size) if np.all(np.abs(values[d]) <= tol)}
    return _splits(zero_rows, beta.rows.ground_size)


def oracle_covariate_independencies(spec: ModelSpec, p: int, q: int) -> list[tuple[int, int]]:
    """Pairs (D, U') whose coefficients for D' ⊆ D and E meeting U' are all zero."""
    out = []
    for d in sorted(range(1, 2**p), key=lambda m: (m.bit_count(), _bits(m))):
        for uprime in range(1, 2**q):
            if all((dp, e) in spec.zero_set
                   for dp in subsets_of(d) if dp
                   for e in range(2**q) if e & uprime):
                out.append((d, uprime))
    return out


def _bits(mask: int) -> tuple[int, ...]:
    return tuple(b for b in range(mask.bit_length()) if mask >> b & 1)


def oracle_induced_mu_ses(free_index, covariance: np.ndarray, p: int, q: int) -> np.ndarray:
    """SEs of beta_mu[D, E] = Σ_{H ⊆ D} beta_gamma[H, E] from an lml covariance, by loops."""
    index = {pos: i for i, pos in enumerate(free_index)}
    ses = np.zeros((2**p, 2**q))
    for d in range(1, 2**p):
        for e in range(2**q):
            members = [index[h, e] for h in subsets_of(d) if (h, e) in index]
            if members:
                ses[d, e] = np.sqrt(covariance[np.ix_(members, members)].sum())
    return ses


def oracle_pattern_weights(counts: np.ndarray) -> np.ndarray:
    """Number of observations with every response in D present, per D."""
    row_totals = counts.sum(axis=1).astype(float)
    n = row_totals.size
    return np.array([sum(row_totals[m] for m in range(n) if m & d == d) for d in range(n)])


def oracle_independence_mu(counts: np.ndarray, p: int) -> np.ndarray:
    """Products of shrunk empirical response margins, by loops."""
    totals = counts.sum(axis=0)
    marg = []
    for v in range(p):
        hits = sum(counts[m] for m in range(2**p) if m >> v & 1)
        marg.append(np.where(totals > 0, (hits + 0.5) / (totals + 1.0), 0.5))
    mu = np.ones((2**p, counts.shape[1]))
    for m in range(2**p):
        for v in range(p):
            if m >> v & 1:
                mu[m] = mu[m] * marg[v]
    return mu


def oracle_read_count_data(source, responses: SubsetLattice, covariates: SubsetLattice,
                           fmt: str = "cases") -> CountTable:
    """The row-by-row ``csv.DictReader`` reader: a strip and compare per label per row.

    It accepts a 0/1 cell only when it reads exactly ``0`` or ``1`` once
    stripped; the package reader also takes other integer spellings of them.
    """
    stream = open(source, "r", encoding="utf-8", newline="") if isinstance(source, str) else source
    try:
        reader = csv.DictReader(stream)
        if reader.fieldnames is None:
            raise DataError("input file is empty (no header row)")
        reader.fieldnames = header = [name.strip() for name in reader.fieldnames]
        needed = list(responses.labels) + list(covariates.labels)
        if fmt == "counts":
            needed.append("count")
        missing = [name for name in needed if name not in header]
        if missing:
            raise DataError(f"input is missing columns: {', '.join(missing)}")
        counts = np.zeros((responses.size, covariates.size), dtype=np.int64)
        for row in reader:
            line = reader.line_num
            masks = []
            for lattice in (responses, covariates):
                mask = 0
                for i, lab in enumerate(lattice.labels):
                    raw = (row.get(lab) or "").strip()
                    if raw == "1":
                        mask |= 1 << i
                    elif raw != "0":
                        raise DataError(f"line {line}: column {lab!r} must be 0 or 1, got {raw!r}")
                masks.append(mask)
            n = 1
            if fmt == "counts":
                raw = (row.get("count") or "").strip()
                try:
                    n = int(raw)
                except ValueError:
                    raise DataError(f"line {line}: count must be an integer, got {raw!r}") from None
                if n < 0:
                    raise DataError(f"line {line}: count must be non-negative, got {n}")
            counts[masks[0], masks[1]] += n
        return CountTable(responses, covariates, counts)
    finally:
        if isinstance(source, str):
            stream.close()


def oracle_read_zero_set(source, responses: SubsetLattice,
                         covariates: SubsetLattice) -> frozenset[tuple[int, int]]:
    """The zero-set reader as one loop over lines: each line's two sides are
    looked up as printed labels, and the line is parsed when either misses or
    it holds a ``#``.  Lines end at LF, CRLF or a bare CR; one leading BOM is
    dropped."""
    if isinstance(source, str):
        with open(source, encoding="utf-8", newline="") as f:
            text = f.read()
    else:
        text = source.read()
    pairs: set[tuple[int, int]] = set()
    by_d, by_e = responses._mask_by_label.get, covariates._mask_by_label.get
    for line_no, raw in enumerate(io.StringIO(text.removeprefix("\ufeff"), newline=""), start=1):
        d_text, _, e_text = raw.rstrip("\r\n").partition(";")
        d, e = by_d(d_text), by_e(e_text)
        if d is None or e is None or "#" in raw:
            line = raw.partition("#")[0].strip()
            if not line:
                continue
            d_text, sep, e_text = line.partition(";")
            if not sep:
                raise DataError(f"line {line_no}: expected 'D;E', got {line!r}")
            try:
                d, e = responses.parse_subset(d_text), covariates.parse_subset(e_text)
            except ValueError as exc:
                raise DataError(f"line {line_no}: {exc}") from None
        if d == 0:
            raise DataError(f"line {line_no}: the empty response row cannot be constrained")
        pairs.add((d, e))
    return frozenset(pairs)


def oracle_read_param_matrix(source: str | IO[str], responses: SubsetLattice,
                             covariates: SubsetLattice, kind: str) -> ParamMatrix:
    """Read a matrix CSV: a ``D`` column plus one value column per covariate subset."""
    if kind not in KINDS:
        raise ConfigError(f"unknown parameter kind {kind!r} (expected one of {', '.join(KINDS)})")
    reader = csv.reader(_lines(_read_text(source)))
    header = next(reader, None)
    if header is None:
        raise DataError("matrix file is empty")
    if not header or header[0].strip() != "D":
        raise DataError("matrix header must start with a 'D' column")
    col_masks = []
    for name in header[1:]:
        try:
            col_masks.append(covariates.parse_subset(name))
        except ValueError as exc:
            raise DataError(f"matrix header: {exc}") from None
    if sorted(col_masks) != list(range(covariates.size)):
        raise DataError("matrix header must list every covariate subset exactly once")

    values = np.empty((responses.size, covariates.size))
    seen: set[int] = set()
    for row in reader:
        line = reader.line_num
        if not row or not any(cell.strip() for cell in row):
            continue
        try:
            d = responses.parse_subset(row[0])
        except ValueError as exc:
            raise DataError(f"line {line}: {exc}") from None
        if len(row) != len(header):
            raise DataError(f"line {line}: expected {len(header)} fields, got {len(row)}")
        if d in seen:
            raise DataError(f"line {line}: duplicate row for {responses.format_mask(d)}")
        seen.add(d)
        for e, cell in zip(col_masks, row[1:]):
            try:
                value = float(cell)
            except ValueError:
                raise DataError(f"line {line}: not a number: {cell!r}") from None
            if not math.isfinite(value):
                raise DataError(f"line {line}: not a finite number: {cell!r}")
            values[d, e] = value
    if len(seen) < responses.size:
        d = min(set(range(responses.size)) - seen)
        raise DataError(f"matrix is missing a row for {responses.format_mask(d)}")
    return ParamMatrix(kind, responses, covariates, values)


def oracle_marginalize(table: CountTable, labels) -> np.ndarray:
    """Margin counts by a loop over every response pattern, re-indexed one at a time."""
    V = table.responses
    keep_mask = V.mask_of(labels)
    margin = SubsetLattice(V.members(keep_mask))
    out = np.zeros((margin.size, table.covariates.size), dtype=np.int64)
    for m in range(V.size):
        out[margin.mask_of(V.members(m & keep_mask))] += table.counts[m]
    return out


def implied_pi(ll: LogLikelihood, x: np.ndarray) -> np.ndarray | None:
    """The cell probabilities the free coefficients x imply, or None when x is
    outside the valid region: some observed column has a π that is not
    finite and positive.  Unobserved columns are left unconstrained."""
    pi = mobius_transform(mu_values_from_beta(ll.beta_values(x), ll.link), axis=0, supersets=True)
    observed = pi[:, ll.counts.sum(axis=0) > 0]
    return pi if np.all(np.isfinite(observed)) and np.all(observed > 0) else None


def oracle_starting_point(ll: LogLikelihood, data: CountTable) -> np.ndarray | None:
    """The first valid start, with every candidate built before any is checked."""
    candidates = []
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
        if implied_pi(ll, x) is not None:
            return x
    return None


# ---------------------------------------------------------------------------
# CLI renderers, one entry and one scalar at a time

def _oracle_fmt_num(x, decimals: int) -> str:
    if x is None or np.isnan(x):
        return "nan"
    text = f"{float(x):.{decimals}f}"
    if float(text) == 0.0:
        text = f"{0.0:.{decimals}f}"
    return text


def _oracle_json_num(x, decimals: int = 6):
    if x is None:
        return None
    x = float(x)
    if np.isnan(x) or np.isinf(x):
        return None
    r = round(x, decimals)
    return 0.0 if r == 0 else r


def _oracle_fit_notes(result) -> list[str]:
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


def _oracle_fit_json_obj(result) -> dict:
    V, U = result.beta_hat.rows, result.beta_hat.cols
    free = {pos: i for i, pos in enumerate(result.free_index)}
    rows = list(V.masks_by_cardinality())
    cols = [0] + list(U.masks_by_cardinality())
    coeffs = []
    for d in rows:
        for e in cols:
            i = free.get((d, e))
            entry = {"D": V.format_mask(d), "E": U.format_mask(e)}
            if i is None:
                entry.update(constrained=True, estimate=None, se=None, p=None)
            else:
                entry.update(constrained=False,
                             estimate=_oracle_json_num(result.estimates[i]),
                             se=_oracle_json_num(result.std_errors[i]),
                             p=_oracle_json_num(result.wald_p[i]))
            coeffs.append(entry)
    obj = {
        "link": result.spec.link,
        "deviance": _oracle_json_num(result.deviance),
        "df": result.df,
        "p_value": _oracle_json_num(result.p_value),
        "loglik": _oracle_json_num(result.loglik),
        "converged": result.converged,
        "iterations": result.iterations,
        "coefficients": coeffs,
        "notes": _oracle_fit_notes(result),
    }
    if result.spec.link == "lml":
        mu_values, mu_ses = induced_mu_stats(result)
        obj["beta_mu_induced"] = [
            {"D": V.format_mask(d), "E": U.format_mask(e),
             "estimate": _oracle_json_num(mu_values[d, e]),
             "se": _oracle_json_num(mu_ses[d, e])}
            for d in rows for e in cols
        ]
    return obj


def oracle_fit_stdout(result, out: str) -> str:
    """What ``lmlreg fit --out {tsv,json}`` prints for a fitted model."""
    V, U = result.beta_hat.rows, result.beta_hat.cols
    free = {pos: i for i, pos in enumerate(result.free_index)}
    rows = list(V.masks_by_cardinality())
    cols = [0] + list(U.masks_by_cardinality())
    is_lml = result.spec.link == "lml"
    if is_lml:
        mu_values, mu_ses = induced_mu_stats(result)
    if out == "json":
        return json.dumps(_oracle_fit_json_obj(result), indent=2) + "\n"
    lines = [f"# link: {result.spec.link}"]
    pval = "·" if result.p_value is None else _oracle_fmt_num(result.p_value, 3)
    lines.append(f"# deviance: {_oracle_fmt_num(result.deviance, 3)}\tdf: {result.df}\tp: {pval}")
    lines += [f"# note: {note}" for note in _oracle_fit_notes(result)]
    header = ["D"]
    for e in cols:
        tag = U.format_mask(e)
        header += [f"est{tag}", f"se{tag}", f"p{tag}"]
    if is_lml:
        for e in cols:
            tag = U.format_mask(e)
            header += [f"mu_est{tag}", f"mu_se{tag}"]
    lines.append("\t".join(header))
    for d in rows:
        cells = [V.format_mask(d)]
        for e in cols:
            i = free.get((d, e))
            if i is None:
                cells += ["·", "·", "·"]
            else:
                cells += [_oracle_fmt_num(result.estimates[i], 3),
                          _oracle_fmt_num(result.std_errors[i], 3),
                          _oracle_fmt_num(result.wald_p[i], 3)]
        if is_lml:
            for e in cols:
                cells += [_oracle_fmt_num(mu_values[d, e], 3), _oracle_fmt_num(mu_ses[d, e], 3)]
        lines.append("\t".join(cells))
    return "\n".join(lines) + "\n"


def oracle_risk_stdout(result, report, out: str) -> str:
    """What ``lmlreg risk --out {tsv,json}`` prints: three scalar exps per entry."""
    V, U = report.responses, report.covariates
    if out == "json":
        obj = [{
            "D": V.format_mask(en.d_mask), "u": en.u, "E": U.format_mask(en.e_mask),
            "log_rr": _oracle_json_num(en.log_rr), "rr": _oracle_json_num(np.exp(en.log_rr)),
            "log_reference_rr": _oracle_json_num(en.log_ref_rr),
            "reference_rr": (_oracle_json_num(np.exp(en.log_ref_rr))
                             if en.log_ref_rr is not None else None),
            "log_rr_ratio": _oracle_json_num(en.log_ratio),
            "rr_ratio": (_oracle_json_num(np.exp(en.log_ratio))
                         if en.log_ratio is not None else None),
            "ratio_constrained_to_one": en.constrained_zero,
        } for en in report.entries]
        return json.dumps(obj, indent=2) + "\n"
    lines = [f"# link: {result.spec.link}",
             "D\tu\tE\tlog_rr\trr\tlog_ref_rr\tref_rr\tlog_ratio\tratio\tconstrained"]
    for en in report.entries:
        ref = ("·", "·") if en.log_ref_rr is None else (
            _oracle_fmt_num(en.log_ref_rr, 3), _oracle_fmt_num(np.exp(en.log_ref_rr), 3))
        ratio = ("·", "·") if en.log_ratio is None else (
            _oracle_fmt_num(en.log_ratio, 3), _oracle_fmt_num(np.exp(en.log_ratio), 3))
        lines.append("\t".join([
            V.format_mask(en.d_mask), en.u, U.format_mask(en.e_mask),
            _oracle_fmt_num(en.log_rr, 3), _oracle_fmt_num(np.exp(en.log_rr), 3),
            ref[0], ref[1], ratio[0], ratio[1],
            "yes" if en.constrained_zero else "no",
        ]))
    return "\n".join(lines) + "\n"


def oracle_transform_json_stdout(derived: dict) -> str:
    """What ``lmlreg transform --out json`` prints for the derived matrices."""
    obj = {}
    for name, m in derived.items():
        V, U = m.rows, m.cols
        obj[name] = {
            "rows": [V.format_mask(d) for d in range(V.size)],
            "cols": [U.format_mask(e) for e in range(U.size)],
            "values": [[_oracle_json_num(m.values[d, e]) for e in range(U.size)]
                       for d in range(V.size)],
        }
    return json.dumps(obj, indent=2) + "\n"


def oracle_transform_tsv_stdout(derived: dict) -> str:
    """What ``lmlreg transform`` prints: per matrix a kind line and a CSV, value by value."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for name, m in derived.items():
        V, U = m.rows, m.cols
        buf.write(f"# kind: {name}\n")
        writer.writerow(["D"] + [U.format_mask(e) for e in range(U.size)])
        for d in range(V.size):
            writer.writerow([V.format_mask(d)]
                            + [_oracle_fmt_num(float(m.values[d, e]), 6) for e in range(U.size)])
    return buf.getvalue()


def oracle_select_tsv_stdout(trace, V: SubsetLattice, U: SubsetLattice) -> str:
    """What ``lmlreg select`` prints for a selection trace: each step's fit table."""
    out = []
    for i, step in enumerate(trace.steps, start=1):
        out.append(f"# step {i}: {step.label}\n")
        if step.error:
            out.append(f"# error: {step.error}\n")
        pairs = ", ".join(f"{V.format_mask(d)};{U.format_mask(e)}" for d, e in step.dropped)
        out.append(f"# dropped: {pairs or '(none)'}\n")
        if step.fit is not None:
            out.append(oracle_fit_stdout(step.fit, "tsv"))
        out.append("\n")
    return "".join(out)


def oracle_select_json_stdout(trace, V: SubsetLattice, U: SubsetLattice) -> str:
    """What ``lmlreg select --out json`` prints for a selection trace."""
    steps = []
    for step in trace.steps:
        entry = {
            "label": step.label,
            "dropped": [[V.format_mask(d), U.format_mask(e)] for d, e in step.dropped],
            "error": step.error,
        }
        if step.fit is not None:
            entry["fit"] = _oracle_fit_json_obj(step.fit)
        steps.append(entry)
    obj = {
        "steps": steps,
        "final_zero_set": [[V.format_mask(d), U.format_mask(e)]
                           for d, e in sorted(trace.zero_set)],
        "final_fit": _oracle_fit_json_obj(trace.final_fit),
    }
    return json.dumps(obj, indent=2) + "\n"


def oracle_plot_data_json_stdout(series) -> str:
    """What ``lmlreg plot-data --out json`` prints for (link, AverageEffect) pairs."""
    return json.dumps([{
        "link": link, "k": eff.k,
        "estimate": _oracle_json_num(eff.estimate, 12), "se": _oracle_json_num(eff.se, 12),
        "ci_lo": _oracle_json_num(eff.ci[0], 12), "ci_hi": _oracle_json_num(eff.ci[1], 12),
    } for link, eff in series], indent=2) + "\n"


# ---------------------------------------------------------------------------
# writers, one row at a time

def render_to_string(write_fn) -> str:
    """What a writer taking a text stream writes, as a string."""
    buf = io.StringIO()
    write_fn(buf)
    return buf.getvalue()


def oracle_write_count_data(table: CountTable, stream, fmt: str = "counts") -> None:
    """The count-table CSV written one ``csv.writer`` row per cell or per case."""
    writer = csv.writer(stream, lineterminator="\n")
    header = list(table.responses.labels) + list(table.covariates.labels)
    if fmt == "counts":
        header.append("count")
    writer.writerow(header)
    for y in range(table.responses.size):
        y_bits = [(y >> i) & 1 for i in range(table.responses.ground_size)]
        for x in range(table.covariates.size):
            x_bits = [(x >> i) & 1 for i in range(table.covariates.ground_size)]
            n = int(table.counts[y, x])
            if fmt == "counts":
                writer.writerow(y_bits + x_bits + [n])
            else:
                for _ in range(n):
                    writer.writerow(y_bits + x_bits)
