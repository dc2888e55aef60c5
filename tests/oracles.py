"""Independent reference implementations used to cross-check the library.

Everything here is written with explicit subset loops and generic
optimizers on purpose: no fast transforms, no shared code with the package
internals beyond data containers.  The one exception is the Hessian oracle,
which differentiates the package's analytic score (itself checked against
differences of the log-likelihood) to check the analytic Hessian.
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy import optimize

from lmlreg.inference import CountTable, LogLikelihood, ModelSpec


def subsets_of(mask: int) -> list[int]:
    bits = [b for b in range(mask.bit_length()) if mask >> b & 1]
    out = []
    for k in range(len(bits) + 1):
        for combo in itertools.combinations(bits, k):
            m = 0
            for b in combo:
                m |= 1 << b
            out.append(m)
    return out


def oracle_pi_from_beta(beta: np.ndarray, link: str, p: int, q: int) -> np.ndarray | None:
    """Cell probabilities from regression coefficients, by explicit loops."""
    nrow, ncol = 2**p, 2**q
    theta = np.zeros((nrow, ncol))
    for d in range(nrow):
        for cell in range(ncol):
            theta[d, cell] = sum(beta[d, e] for e in subsets_of(cell))
    if link == "lm":
        logmu = theta
    else:
        logmu = np.zeros_like(theta)
        for d in range(nrow):
            for cell in range(ncol):
                logmu[d, cell] = sum(theta[h, cell] for h in subsets_of(d))
    mu = np.exp(logmu)
    pi = np.zeros_like(mu)
    for d in range(nrow):
        for cell in range(ncol):
            total = 0.0
            for h in range(nrow):
                if h & d == d:
                    sign = -1.0 if (h ^ d).bit_count() % 2 else 1.0
                    total += sign * mu[h, cell]
            pi[d, cell] = total
    if np.any(pi <= 0):
        return None
    return pi


def oracle_loglik(counts: np.ndarray, pi: np.ndarray) -> float:
    mask = counts > 0
    return float(np.sum(counts[mask] * np.log(pi[mask])))


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
    free = spec.free_positions(data.responses, data.covariates)
    return np.array([beta[d, e] for d, e in free])


def brute_force_max_loglik(spec: ModelSpec, data: CountTable, n_starts: int = 12,
                           seed: int = 0) -> float:
    """Best log-likelihood a generic optimizer finds over the free coefficients.

    Starts at the free-coefficient projection of the smoothed empirical
    distribution (jittered for the remaining restarts); purely random
    starts sit on the invalid-region penalty plateau too often.
    """
    p = data.responses.ground_size
    q = data.covariates.ground_size
    free = spec.free_positions(data.responses, data.covariates)
    counts = np.asarray(data.counts, dtype=float)

    def negloglik(x: np.ndarray) -> float:
        beta = np.zeros((2**p, 2**q))
        for value, (d, e) in zip(x, free):
            beta[d, e] = value
        pi = oracle_pi_from_beta(beta, spec.link, p, q)
        if pi is None:
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


def oracle_response_independencies(spec: ModelSpec, p: int, q: int) -> list[tuple[int, int, int]]:
    """Splits (D, A, B) whose straddling gamma rows the zero set zeroes, by loops."""
    zero_rows = set()
    if spec.link == "lml":
        zero_rows = {d for d in range(1, 2**p)
                     if all((d, e) in spec.zero_set for e in range(2**q))}
    out = []
    for d in sorted(range(1, 2**p), key=lambda m: (m.bit_count(), _bits(m))):
        if d.bit_count() < 2:
            continue
        low = d & -d
        for sub in subsets_of(d ^ low):
            a, b = low | sub, d ^ (low | sub)
            if b and all(dp in zero_rows for dp in subsets_of(d) if dp & a and dp & b):
                out.append((d, a, b))
    return sorted(out, key=lambda t: (t[0].bit_count(), _bits(t[0]), t[1]))


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
