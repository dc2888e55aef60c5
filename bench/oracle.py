"""Independent dense-matrix model used to build the benchmark's references.

Nothing here imports lmlreg.  Every map is written with explicit subset
matrices (Z[a, b] = 1 iff a ⊆ b and its Möbius inverse), the observed
information is the exact analytic second derivative, and the fitter is a
plain eigenvalue-safeguarded Newton ascent.  The benchmark compares the
program's outputs against what this module computes from the same inputs,
so a later change to the program cannot move its own yardstick.

Conventions follow the program's documented maths: rows of a
``2**p x 2**q`` matrix are response subsets D, columns covariate cells E;
theta = beta Z_U, log mu = theta (lm) or Z_V^T theta (lml), pi = M_V mu.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import stats

ALPHA = 0.05
GRAD_TOL = 1e-8
MAX_ITER = 100
MAX_STEP = 10.0
MAX_HALVINGS = 30
CI_Z = 1.96


def popcount(m: int) -> int:
    return bin(m).count("1")


def subset_matrix(n: int) -> np.ndarray:
    """Z with Z[a, b] = 1 iff a ⊆ b over the 2**n subsets of n elements."""
    m = np.arange(1 << n)
    return ((m[:, None] & m[None, :]) == m[:, None]).astype(float)


def mobius_matrix(n: int) -> np.ndarray:
    """Inverse of :func:`subset_matrix`: (-1)**|b \\ a| on the same support."""
    m = np.arange(1 << n)
    odd = np.bitwise_count(m[None, :] & ~m[:, None]) % 2 == 1
    return np.where(subset_matrix(n) > 0, np.where(odd, -1.0, 1.0), 0.0)


def submasks(mask: int) -> list[int]:
    """All submasks of ``mask`` in increasing order."""
    return [s for s in range(mask + 1) if s & mask == s]


def masks_by_cardinality(n: int) -> list[int]:
    """Nonempty masks ordered by size, then by their sequence of member indices."""
    masks = list(range(1, 1 << n))
    masks.sort(key=lambda m: (popcount(m), [i for i in range(n) if m >> i & 1]))
    return masks


def canonical_key(de: tuple[int, int]) -> tuple[int, int, int, int]:
    d, e = de
    return (popcount(d), d, popcount(e), e)


class Lattices:
    """Dense subset matrices for p responses and q covariates."""

    def __init__(self, p: int, q: int):
        self.p, self.q = p, q
        self.R, self.C = 1 << p, 1 << q
        self.ZV, self.MV = subset_matrix(p), mobius_matrix(p)
        self.ZU, self.MU = subset_matrix(q), mobius_matrix(q)

    # -- parameter maps ---------------------------------------------------
    def log_mu(self, beta: np.ndarray, link: str) -> np.ndarray:
        theta = beta @ self.ZU
        return theta if link == "lm" else self.ZV.T @ theta

    def pi(self, beta: np.ndarray, link: str) -> np.ndarray:
        return self.MV @ np.exp(self.log_mu(beta, link))

    def beta_from_pi(self, pi: np.ndarray, link: str) -> np.ndarray:
        theta = np.log(self.ZV @ pi)
        if link == "lml":
            theta = self.MV.T @ theta
        return theta @ self.MU

    def all_kinds(self, beta_gamma: np.ndarray) -> dict[str, np.ndarray]:
        """pi, mu, gamma, beta_mu, beta_gamma implied by an lml coefficient matrix."""
        pi = self.pi(beta_gamma, "lml")
        mu = self.ZV @ pi
        return {
            "pi": pi,
            "mu": mu,
            "gamma": self.MV.T @ np.log(mu),
            "beta_mu": self.beta_from_pi(pi, "lm"),
            "beta_gamma": self.beta_from_pi(pi, "lml"),
        }


def simulate_counts(pi: np.ndarray, totals, seed: int) -> np.ndarray:
    """One multinomial draw per column, in column order, from one generator."""
    rng = np.random.default_rng(seed)
    counts = np.zeros(pi.shape, dtype=np.int64)
    for j, n in enumerate(totals):
        if n > 0:
            counts[:, j] = rng.multinomial(int(n), pi[:, j])
    return counts


def free_positions(p: int, q: int, zero_set) -> list[tuple[int, int]]:
    zs = set(zero_set)
    pos = [(d, e) for d in range(1, 1 << p) for e in range(1 << q) if (d, e) not in zs]
    pos.sort(key=canonical_key)
    return pos


@dataclass
class OracleFit:
    link: str
    zero_set: frozenset
    free: list[tuple[int, int]]
    estimates: np.ndarray
    covariance: np.ndarray
    std_errors: np.ndarray
    wald_p: np.ndarray
    loglik: float
    deviance: float
    df: int
    converged: bool
    beta: np.ndarray

    def by_key(self) -> dict[tuple[int, int], tuple[float, float, float]]:
        return {de: (float(x), float(s), float(pv)) for de, x, s, pv in
                zip(self.free, self.estimates, self.std_errors, self.wald_p)}


class Model:
    """Log-likelihood, score and exact information of one (link, zero set)."""

    def __init__(self, lat: Lattices, counts: np.ndarray, link: str, zero_set):
        self.lat, self.link = lat, link
        self.counts = np.asarray(counts, dtype=float)
        self.zero_set = frozenset(zero_set)
        self.free = free_positions(lat.p, lat.q, self.zero_set)
        rows = np.array([d for d, _ in self.free], dtype=np.intp)
        cols = np.array([e for _, e in self.free], dtype=np.intp)
        self.rows, self.cols = rows, cols
        A = np.eye(lat.R) if link == "lm" else lat.ZV.T     # d log mu / d theta along rows
        # L[d, e, j] = d log mu[d, e] / d beta[free_j]
        self.L = A[:, rows][:, None, :] * lat.ZU[cols, :].T[None, :, :]

    def beta(self, x: np.ndarray) -> np.ndarray:
        b = np.zeros((self.lat.R, self.lat.C))
        b[self.rows, self.cols] = x
        return b

    def _state(self, x):
        mu = np.exp(self.lat.log_mu(self.beta(x), self.link))
        return mu, self.lat.MV @ mu

    def value(self, x: np.ndarray) -> float:
        _, pi = self._state(x)
        if not np.all(np.isfinite(pi)) or np.any(pi <= 0.0):
            return -np.inf
        pos = self.counts > 0
        return float(np.sum(self.counts[pos] * np.log(pi[pos])))

    def score_and_hessian(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        mu, pi = self._state(x)
        r = self.counts / pi
        a = mu * (self.lat.MV.T @ r)                      # d loglik / d log mu
        n = len(self.free)
        L2 = self.L.reshape(-1, n)
        g = L2.T @ a.reshape(-1)
        J = (self.lat.MV @ (mu[:, :, None] * self.L).reshape(self.lat.R, -1)).reshape(-1, n)
        w = np.sqrt(self.counts / pi ** 2).reshape(-1, 1)
        h = (a.reshape(-1, 1) * L2).T @ L2 - (w * J).T @ (w * J)
        return g, (h + h.T) / 2.0

    def start(self) -> np.ndarray:
        """Empirical, then shrunk-independence, then uniform-independence start."""
        lat, counts = self.lat, self.counts
        cands = []
        if np.all(counts > 0):
            emp = lat.beta_from_pi(counts / counts.sum(axis=0), self.link)
            cands.append(emp[self.rows, self.cols])
        for c in (counts, np.ones_like(counts)):
            totals = c.sum(axis=0)
            mu = np.ones((lat.R, lat.C))
            for v in range(lat.p):
                hits = sum(c[m] for m in range(lat.R) if m >> v & 1)
                marg = (hits + 0.5) / (totals + 1.0)
                for m in range(lat.R):
                    if m >> v & 1:
                        mu[m] = mu[m] * marg
            theta = np.log(mu)
            if self.link == "lml":
                theta = lat.MV.T @ theta
            cands.append((theta @ lat.MU)[self.rows, self.cols])
        for x in cands:
            if np.isfinite(self.value(x)):
                return x
        raise ArithmeticError("no valid starting point")

    def fit(self) -> OracleFit:
        x = self.start()
        value = self.value(x)
        converged = False
        for _ in range(MAX_ITER):
            g, h = self.score_and_hessian(x)
            if np.max(np.abs(g), initial=0.0) <= GRAD_TOL:
                converged = True
                break
            evals, evecs = np.linalg.eigh(h)
            scale = np.maximum(np.abs(evals), 1e-8 * max(1.0, float(np.max(np.abs(evals)))))
            step = evecs @ ((evecs.T @ g) / scale)
            size = float(np.max(np.abs(step)))
            if size > MAX_STEP:
                step *= MAX_STEP / size
            tol = 1e-12 * max(1.0, abs(value))
            moved = False
            for direction in (step, g / max(1.0, float(np.max(np.abs(g))))):
                t = 1.0
                for _ in range(MAX_HALVINGS + 1):
                    cand = x + t * direction
                    v = self.value(cand)
                    if np.isfinite(v) and v >= value - tol:
                        x, value, moved = cand, v, True
                        break
                    t /= 2.0
                if moved:
                    break
            if not moved:
                break
        g, h = self.score_and_hessian(x)
        converged = converged or bool(np.max(np.abs(g), initial=0.0) <= GRAD_TOL)
        cov = np.linalg.inv(-h)
        se = np.sqrt(np.diag(cov))
        wald_p = 2.0 * stats.norm.sf(np.abs(x / se))
        c = self.counts
        tot = c.sum(axis=0)
        pos = c > 0
        sat = float(np.sum(c[pos] * np.log((c / tot)[pos])))
        dev = 2.0 * (sat - value)
        return OracleFit(self.link, self.zero_set, self.free, x, cov, se, wald_p,
                         value, dev, len(self.zero_set), converged, self.beta(x))


def fit(lat: Lattices, counts, link: str, zero_set) -> OracleFit:
    return Model(lat, counts, link, zero_set).fit()


# ---------------------------------------------------------------------------
# selection rules

def compress(mask: int, within: int) -> int:
    out, j = 0, 0
    for pos in range(within.bit_length()):
        if within >> pos & 1:
            out |= (mask >> pos & 1) << j
            j += 1
    return out


def expand(mask: int, within: int) -> int:
    out, j = 0, 0
    for pos in range(within.bit_length()):
        if within >> pos & 1:
            out |= (mask >> j & 1) << pos
            j += 1
    return out


def marginal_counts(counts: np.ndarray, keep: int) -> np.ndarray:
    k = popcount(keep)
    out = np.zeros((1 << k, counts.shape[1]), dtype=counts.dtype)
    for m in range(counts.shape[0]):
        out[compress(m & keep, keep)] += counts[m]
    return out


def _drop_rounds(lat, counts, link, zeros, alpha, allowed, rounds):
    result = fit(lat, counts, link, zeros)
    dropped = set()
    done = 0
    while rounds is None or done < rounds:
        done += 1
        flagged = {de for de, (_x, _s, pv) in result.by_key().items()
                   if allowed(de) and not np.isnan(pv) and pv > alpha}
        if not flagged:
            break
        zeros = zeros | flagged
        result = fit(lat, counts, link, zeros)
        dropped |= flagged
    return zeros, result, dropped


def forward_selection(counts: np.ndarray, p: int, q: int, alpha: float = ALPHA):
    """Zero set and final fit of margin-by-margin forward selection (lml)."""
    joint = set()
    for dj in masks_by_cardinality(p):
        k = popcount(dj)
        top = (1 << k) - 1
        margin = marginal_counts(counts, dj)
        inherited = frozenset((compress(dz, dj), e) for dz, e in joint if dz & dj == dz)
        _z, _r, dropped = _drop_rounds(Lattices(k, q), margin, "lml", inherited, alpha,
                                       lambda de: de[0] == top, None)
        joint |= {(expand(d, dj), e) for d, e in dropped}
    zeros = frozenset(joint)
    return zeros, fit(Lattices(p, q), counts, "lml", zeros)


def backward_selection(counts: np.ndarray, p: int, q: int, link: str, alpha: float = ALPHA):
    """Zero set and final fit of staged backward elimination."""
    lat = Lattices(p, q)
    zeros = frozenset((d, (1 << q) - 1) for d in range(1, 1 << p)) if q >= 2 else frozenset()
    high = {k for k in range(1, p + 1) if k > p / 2}
    zeros, _r, _d = _drop_rounds(lat, counts, link, zeros, alpha,
                                 lambda de: popcount(de[0]) in high, 1)
    zeros, result, _d = _drop_rounds(lat, counts, link, zeros, alpha, lambda de: True, None)
    return zeros, result


# ---------------------------------------------------------------------------
# reports on a fitted model

def risk_entries(lat: Lattices, res: OracleFit, labels_u) -> list[tuple]:
    """(D, u, E, log_rr, log_ref_rr, log_ratio, constrained) in report order."""
    if res.link == "lml":
        bgamma, bmu = res.beta, lat.ZV.T @ res.beta
        gamma_zeros = res.zero_set
    else:
        bmu, bgamma = res.beta, lat.MV.T @ res.beta
        gamma_zeros = frozenset()
    tmu, tgamma = bmu @ lat.ZU, bgamma @ lat.ZU
    out = []
    for d in masks_by_cardinality(lat.p):
        for i, u in enumerate(labels_u):
            um = 1 << i
            for e in range(lat.C):
                if e & um:
                    continue
                lrr = tmu[d, e | um] - tmu[d, e]
                if popcount(d) > 1:
                    lratio = tgamma[d, e | um] - tgamma[d, e]
                    lref = lrr - lratio
                    constrained = all((d, s | um) in gamma_zeros for s in submasks(e))
                else:
                    lref = lratio = None
                    constrained = False
                out.append((d, u, e, lrr, lref, lratio, constrained))
    return out


def response_independencies(lat: Lattices, res: OracleFit) -> list[tuple[int, int, int]]:
    zero_rows = set()
    if res.link == "lml":
        zero_rows = {d for d in range(1, lat.R)
                     if all((d, e) in res.zero_set for e in range(lat.C))}
    out = []
    for d in masks_by_cardinality(lat.p):
        if popcount(d) < 2:
            continue
        low = d & -d
        for sub in submasks(d ^ low):
            a = low | sub
            b = d ^ a
            if b and all(dp in zero_rows for dp in submasks(d) if dp & a and dp & b):
                out.append((d, a, b))
    return out


def average_effects(lat: Lattices, res: OracleFit, counts: np.ndarray, u_index: int):
    """(k, estimate, se, ci_lo, ci_hi) per response-pattern size."""
    um = 1 << u_index
    row_totals = counts.sum(axis=1).astype(float)
    raw = lat.ZV @ row_totals                     # w_D = Σ_{M ⊇ D} n_M
    index = {de: i for i, de in enumerate(res.free)}
    out = []
    for k in range(1, lat.p + 1):
        members = [d for d in range(lat.R) if popcount(d) == k]
        total = float(sum(raw[d] for d in members))
        w = {d: raw[d] / total for d in members}
        est = float(sum(w[d] * res.beta[d, um] for d in members))
        wvec = np.zeros(len(res.free))
        for d in members:
            if (d, um) in index:
                wvec[index[(d, um)]] = w[d]
        se = float(np.sqrt(wvec @ res.covariance @ wvec))
        out.append((k, est, se, est - CI_Z * se, est + CI_Z * se))
    return out


def induced_mu(lat: Lattices, res: OracleFit) -> tuple[np.ndarray, np.ndarray]:
    """beta_mu implied by an lml fit, with standard errors from its covariance."""
    values = lat.ZV.T @ res.beta
    A = np.zeros((lat.R * lat.C, len(res.free)))
    for j, (h, e) in enumerate(res.free):
        for d in range(lat.R):
            if h & d == h:
                A[d * lat.C + e, j] = 1.0
    var = ((A @ res.covariance) * A).sum(axis=1)
    return values, np.sqrt(np.maximum(var, 0.0)).reshape(lat.R, lat.C)
