"""Likelihood, constrained Newton fitting, and simulation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lmlreg.inference import (
    ConvergenceError,
    CountTable,
    DataError,
    FitOptions,
    FitResult,
    LogLikelihood,
    ModelSpec,
    deviance,
    fit,
    induced_mu_stats,
    loglik,
    simulate,
    wald_tests,
)
from lmlreg.lattice import SubsetLattice
from lmlreg.params import ParamMatrix, beta_from_pi, pi_from_beta

from oracles import brute_force_max_loglik, central_difference_hessian, oracle_loglik


def lattices(p: int, q: int) -> tuple[SubsetLattice, SubsetLattice]:
    return (SubsetLattice(tuple(f"y{i}" for i in range(p))),
            SubsetLattice(tuple(f"x{i}" for i in range(q))))


def random_table(p: int, q: int, seed: int, n: int = 5000) -> CountTable:
    rng = np.random.default_rng(seed)
    V, U = lattices(p, q)
    raw = rng.gamma(2.0, size=(2**p, 2**q))
    pi = raw / raw.sum(axis=0, keepdims=True)
    counts = np.zeros((2**p, 2**q), dtype=np.int64)
    for j in range(2**q):
        counts[:, j] = rng.multinomial(n, pi[:, j])
    return CountTable(V, U, counts)


def random_constrained_spec(p: int, q: int, seed: int, link: str = "lml") -> ModelSpec:
    """A random zero set over covariate-effect positions (e != empty).

    Zeroing an intercept-column coefficient of a singleton row (either link)
    or of any row (lm) forces mu = 1 somewhere, i.e. a boundary distribution
    with no interior MLE, so feasible random specs avoid the e=0 column.
    """
    rng = np.random.default_rng(seed)
    positions = [(d, e) for d in range(1, 2**p) for e in range(1, 2**q)]
    k = int(rng.integers(1, min(3, len(positions)) + 1))
    chosen = rng.choice(len(positions), size=k, replace=False)
    return ModelSpec(link, frozenset(positions[i] for i in chosen))


class TestCountTable:
    def test_validation(self):
        V, U = lattices(2, 1)
        with pytest.raises(ValueError):
            CountTable(V, U, np.zeros((4, 3), dtype=np.int64))
        with pytest.raises(ValueError):
            CountTable(V, U, -np.ones((4, 2), dtype=np.int64))

    def test_column_totals_and_total(self):
        t = random_table(2, 1, 0)
        assert t.total == int(t.counts.sum())
        assert np.array_equal(t.column_totals, t.counts.sum(axis=0))

    def test_marginalize_sums_out_other_responses(self):
        t = random_table(3, 1, 1)
        m = t.marginalize(["y0", "y2"])
        assert m.responses.labels == ("y0", "y2")
        # row {y0} of the margin collects joint rows with y0=1, y2=0, any y1
        expected = t.counts[0b001] + t.counts[0b011]
        assert np.array_equal(m.counts[1], expected)
        assert m.total == t.total

    def test_empirical_pi_errors_name_cells(self):
        V, U = lattices(1, 1)
        t = CountTable(V, U, np.array([[3, 0], [1, 0]], dtype=np.int64))
        with pytest.raises(DataError, match="x0"):
            t.empirical_pi()

    def test_empirical_pi_smoothing(self):
        V, U = lattices(1, 1)
        t = CountTable(V, U, np.array([[3, 5], [1, 0]], dtype=np.int64))
        pi = t.empirical_pi(smooth=0.5)
        assert pi.values[1, 1] == pytest.approx(0.5 / 6.0)
        assert np.allclose(pi.values.sum(axis=0), 1.0)


class TestModelSpec:
    def test_df_counts_constraints(self):
        spec = ModelSpec("lml", frozenset({(1, 0), (3, 1)}))
        assert spec.df == 2
        assert not spec.is_saturated
        assert ModelSpec("lm").is_saturated

    def test_empty_response_row_rejected(self):
        with pytest.raises(ValueError):
            ModelSpec("lml", frozenset({(0, 1)}))

    def test_unknown_link_rejected(self):
        with pytest.raises(ValueError):
            ModelSpec("logit")

    def test_validate_for_checks_ranges(self):
        V, U = lattices(2, 1)
        with pytest.raises(ValueError):
            ModelSpec("lml", frozenset({(9, 0)})).validate_for(V, U)

    def test_free_positions_order_and_content(self):
        V, U = lattices(2, 1)
        spec = ModelSpec("lml", frozenset({(3, 1)}))
        free = spec.free_positions(V, U)
        assert (3, 1) not in free
        assert len(free) == 5
        assert free[0] == (1, 0)

    def test_with_zeros_extends(self):
        spec = ModelSpec("lml", frozenset({(1, 0)}))
        assert spec.with_zeros([(2, 1)]).df == 2


class TestLoglik:
    def test_matches_direct_formula(self):
        t = random_table(2, 2, 3)
        pi = t.empirical_pi(smooth=0.5)
        assert loglik(pi, t) == pytest.approx(
            oracle_loglik(t.counts.astype(float), pi.values), rel=1e-12)

    def test_empirical_pi_maximizes(self):
        t = random_table(2, 1, 4)
        base = loglik(t.empirical_pi(), t)
        rng = np.random.default_rng(5)
        for _ in range(10):
            raw = rng.gamma(1.0, size=(4, 2))
            other = ParamMatrix("pi", *lattices(2, 1), raw / raw.sum(axis=0))
            assert loglik(other, t) <= base + 1e-9


class TestSaturatedFit:
    @pytest.mark.parametrize("link", ["lm", "lml"])
    def test_equals_empirical_distribution(self, link):
        t = random_table(3, 1, 6)
        res = fit(ModelSpec(link), t)
        assert res.converged
        assert res.iterations == 0
        emp = t.empirical_pi()
        assert np.max(np.abs(res.pi_hat.values - emp.values)) < 1e-10
        assert res.deviance == pytest.approx(0.0, abs=1e-8)
        assert res.df == 0
        assert res.p_value is None

    def test_coefficients_match_closed_form(self):
        t = random_table(2, 2, 7)
        for link in ("lm", "lml"):
            res = fit(ModelSpec(link), t)
            closed = beta_from_pi(t.empirical_pi(), link)
            assert np.max(np.abs(res.beta_hat.values - closed.values)) < 1e-8

    def test_zero_cell_needs_smoothing(self):
        V, U = lattices(2, 1)
        counts = np.array([[50, 40], [10, 0], [5, 3], [1, 2]], dtype=np.int64)
        t = CountTable(V, U, counts)
        with pytest.raises(DataError):
            fit(ModelSpec("lml"), t)
        res = fit(ModelSpec("lml"), t, FitOptions(smooth=0.5))
        assert res.converged
        smoothed = t.empirical_pi(smooth=0.5)
        assert np.max(np.abs(res.pi_hat.values - smoothed.values)) < 1e-10

    def test_constrained_fit_tolerates_zero_cells(self):
        V, U = lattices(2, 1)
        counts = np.array([[50, 40], [10, 0], [5, 3], [1, 2]], dtype=np.int64)
        t = CountTable(V, U, counts)
        res = fit(ModelSpec("lml", frozenset({(3, 0), (3, 1)})), t)
        assert res.converged


class TestGradient:
    @pytest.mark.parametrize("link", ["lm", "lml"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_analytic_matches_finite_differences(self, link, seed):
        t = random_table(3, 1, 40 + seed)
        spec = random_constrained_spec(3, 1, seed, link)
        ll = LogLikelihood(spec, t)
        res = fit(spec, t)
        rng = np.random.default_rng(seed)
        x = ll.free_of(res.beta_hat.values) + rng.normal(scale=0.05, size=len(res.free_index))
        if ll.pi_values(x) is None:
            x = ll.free_of(res.beta_hat.values)
        g = ll.gradient(x)
        step = 1e-6
        fd = np.zeros_like(g)
        for i in range(len(x)):
            up = x.copy(); up[i] += step
            dn = x.copy(); dn[i] -= step
            fd[i] = (ll.value(up) - ll.value(dn)) / (2 * step)
        denom = max(1.0, float(np.linalg.norm(g)))
        assert np.linalg.norm(g - fd) / denom < 1e-5


def interior_point(ll: LogLikelihood, x: np.ndarray, seed: int) -> np.ndarray:
    """x moved by a random jitter, halved until the result is valid."""
    jitter = np.random.default_rng(seed).normal(scale=0.05, size=x.size)
    for _ in range(20):
        if ll.pi_values(x + jitter) is not None:
            return x + jitter
        jitter *= 0.5
    return x


class TestHessian:
    """The analytic Hessian against central differences of the analytic score."""

    def check(self, ll: LogLikelihood, x: np.ndarray) -> None:
        h = ll.fd_hessian(x)
        fd = central_difference_hessian(ll, x)
        assert h.shape == (x.size, x.size)
        assert np.array_equal(h, h.T)
        assert np.max(np.abs(h - fd)) <= 1e-6 * max(1.0, float(np.max(np.abs(fd))))

    @pytest.mark.parametrize("link", ["lm", "lml"])
    @pytest.mark.parametrize("p, q", [(2, 1), (3, 2), (4, 1)])
    def test_saturated(self, link, p, q):
        t = random_table(p, q, 60 + p + q)
        spec = ModelSpec(link)
        ll = LogLikelihood(spec, t)
        x = interior_point(ll, fit(spec, t).estimates, p * q)
        self.check(ll, x)

    @pytest.mark.parametrize("link", ["lm", "lml"])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_constrained(self, link, seed):
        p, q = [(2, 1), (3, 1), (2, 2), (3, 2)][seed]
        t = random_table(p, q, 70 + seed)
        spec = random_constrained_spec(p, q, seed, link)
        ll = LogLikelihood(spec, t)
        x = interior_point(ll, fit(spec, t).estimates, seed)
        self.check(ll, x)

    @pytest.mark.parametrize("link", ["lm", "lml"])
    def test_smoothed(self, link):
        V, U = lattices(2, 1)
        t = CountTable(V, U, np.array([[50, 40], [10, 0], [5, 3], [1, 2]], dtype=np.int64))
        spec = ModelSpec(link)
        ll = LogLikelihood(spec, t, smooth=0.5)
        x = interior_point(ll, fit(spec, t, FitOptions(smooth=0.5)).estimates, 5)
        self.check(ll, x)

    @pytest.mark.parametrize("link", ["lm", "lml"])
    def test_missing_cells(self, link):
        t = TestMissingCells().make_table_with_empty_column()
        res = fit(ModelSpec(link), t, FitOptions(allow_missing_cells=True))
        assert res.missing_cells == (3,)
        ll = LogLikelihood(ModelSpec(link).with_zeros(res.unidentified), t)
        self.check(ll, interior_point(ll, res.estimates, 6))
        # coefficients seen only through the empty cell have no curvature
        spec = ModelSpec(link)
        ll_all = LogLikelihood(spec, t)
        x = interior_point(ll_all, ll_all.free_of(res.beta_hat.values), 7)
        self.check(ll_all, x)
        seen_only_there = [i for i, (_, e) in enumerate(ll_all.free) if e == 3]
        assert seen_only_there
        assert np.all(ll_all.fd_hessian(x)[seen_only_there] == 0.0)


class TestConstrainedFit:
    def test_against_brute_force_oracle(self):
        for seed in (0, 1):
            t = random_table(2, 1, 100 + seed, n=800)
            spec = ModelSpec("lml", frozenset({(3, 1)}))
            res = fit(spec, t)
            assert res.converged
            oracle = brute_force_max_loglik(spec, t, n_starts=8, seed=seed)
            assert res.loglik >= oracle - 1e-6

    def test_zero_association_row_gives_independence(self):
        # constraining the whole pair row makes the responses independent per cell
        V, U = lattices(2, 1)
        rng = np.random.default_rng(9)
        counts = rng.integers(20, 400, size=(4, 2)).astype(np.int64)
        t = CountTable(V, U, counts)
        res = fit(ModelSpec("lml", frozenset({(3, 0), (3, 1)})), t)
        pi = res.pi_hat.values
        for j in range(2):
            p1 = pi[1, j] + pi[3, j]
            p2 = pi[2, j] + pi[3, j]
            assert pi[3, j] == pytest.approx(p1 * p2, abs=1e-9)

    def test_estimates_recover_truth_within_3se(self):
        preset_bg = np.zeros((4, 2))
        preset_bg[1] = [-1.5, 0.8]
        preset_bg[2] = [-1.2, 0.5]
        preset_bg[3] = [0.4, 0.0]
        V, U = lattices(2, 1)
        beta = ParamMatrix("beta_gamma", V, U, preset_bg)
        spec = ModelSpec("lml", frozenset({(3, 1)}))
        data = simulate(beta, "lml", [30000, 30000], seed=17)
        res = fit(spec, data)
        for i, (d, e) in enumerate(res.free_index):
            z = abs(res.estimates[i] - preset_bg[d, e]) / res.std_errors[i]
            assert z < 3.0, (d, e, z)

    def test_deviance_nested_monotone(self):
        t = random_table(2, 1, 11)
        small = fit(ModelSpec("lml", frozenset({(3, 1)})), t)
        smaller = fit(ModelSpec("lml", frozenset({(3, 0), (3, 1)})), t)
        assert smaller.deviance >= small.deviance - 1e-9
        assert smaller.df == 2 and small.df == 1

    def test_wald_tests_align_with_result(self):
        t = random_table(2, 1, 12)
        res = fit(ModelSpec("lml", frozenset({(3, 1)})), t)
        rows = wald_tests(res)
        assert len(rows) == len(res.free_index)
        d, e, est, se, p = rows[0]
        assert (d, e) == res.free_index[0]
        assert est == pytest.approx(res.estimates[0])

    def test_deviance_helper_matches_fields(self):
        t = random_table(2, 1, 13)
        res = fit(ModelSpec("lm", frozenset({(1, 1)})), t)
        dev, df, p = deviance(res, t)
        assert dev == pytest.approx(res.deviance)
        assert df == res.df == 1
        assert 0.0 <= p <= 1.0

    @given(st.integers(min_value=0, max_value=500))
    @settings(max_examples=25, deadline=None)
    def test_random_constrained_fits_converge(self, seed):
        t = random_table(2, 1, seed, n=2000)
        spec = random_constrained_spec(2, 1, seed)
        res = fit(spec, t)
        assert res.converged
        assert res.grad_norm <= 1e-8
        assert np.all(res.pi_hat.values > 0)
        assert np.allclose(res.pi_hat.values.sum(axis=0), 1.0, atol=1e-9)


class TestMissingCells:
    def make_table_with_empty_column(self):
        V, U = lattices(2, 2)
        counts = np.zeros((4, 4), dtype=np.int64)
        rng = np.random.default_rng(14)
        for j in (0, 1, 2):
            counts[:, j] = rng.integers(10, 200, size=4)
        return CountTable(V, U, counts)

    def test_empty_column_rejected_by_default(self):
        t = self.make_table_with_empty_column()
        with pytest.raises(DataError, match="x0,x1"):
            fit(ModelSpec("lml"), t)

    def test_allow_missing_cells_restricts_likelihood(self):
        t = self.make_table_with_empty_column()
        res = fit(ModelSpec("lml"), t, FitOptions(allow_missing_cells=True))
        assert res.converged
        assert res.missing_cells == (3,)
        # the interaction column is unidentifiable once cell {x0,x1} is gone
        assert all(e == 3 for _, e in res.unidentified)
        assert len(res.unidentified) == 3


class TestInducedMu:
    def test_saturated_lml_matches_native_lm(self):
        t = random_table(3, 1, 15)
        lml = fit(ModelSpec("lml"), t)
        lm = fit(ModelSpec("lm"), t)
        mu_vals, mu_ses = induced_mu_stats(lml)
        assert np.max(np.abs(mu_vals - lm.beta_hat.values)) < 1e-8
        native = np.zeros_like(mu_ses)
        idx = {pos: i for i, pos in enumerate(lm.free_index)}
        for d in range(8):
            for e in range(2):
                i = idx.get((d, e))
                native[d, e] = lm.std_errors[i] if i is not None else 0.0
        rel = np.abs(mu_ses - native) / np.where(native > 0, native, 1.0)
        assert np.max(rel) < 1e-6

    def test_lm_fit_returns_native_values(self):
        t = random_table(2, 1, 16)
        res = fit(ModelSpec("lm", frozenset({(3, 1)})), t)
        vals, ses = induced_mu_stats(res)
        assert np.allclose(vals, res.beta_hat.values)
        assert ses[3, 1] == 0.0


class TestSimulate:
    def test_deterministic_under_seed(self):
        V, U = lattices(2, 1)
        bg = np.zeros((4, 2))
        bg[1] = [-1.0, 0.4]
        bg[2] = [-0.9, 0.3]
        beta = ParamMatrix("beta_gamma", V, U, bg)
        a = simulate(beta, "lml", [500, 300], seed=42)
        b = simulate(beta, "lml", [500, 300], seed=42)
        c = simulate(beta, "lml", [500, 300], seed=43)
        assert np.array_equal(a.counts, b.counts)
        assert not np.array_equal(a.counts, c.counts)
        assert np.array_equal(a.column_totals, [500, 300])

    def test_frequencies_approach_truth(self):
        V, U = lattices(2, 1)
        bg = np.zeros((4, 2))
        bg[1] = [-1.0, 0.4]
        bg[2] = [-0.9, 0.3]
        beta = ParamMatrix("beta_gamma", V, U, bg)
        pi = pi_from_beta(beta, "lml")
        data = simulate(beta, "lml", [200_000, 200_000], seed=1)
        freq = data.counts / data.column_totals
        assert np.max(np.abs(freq - pi.values)) < 0.01

    def test_bad_totals_rejected(self):
        V, U = lattices(1, 1)
        beta = ParamMatrix("beta_gamma", V, U, np.array([[0.0, 0.0], [-1.0, 0.2]]))
        with pytest.raises(ValueError):
            simulate(beta, "lml", [100], seed=0)
        with pytest.raises(ValueError):
            simulate(beta, "lml", [100, -1], seed=0)
