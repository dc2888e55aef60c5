"""Likelihood, constrained Newton fitting, and simulation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

import lmlreg.inference

from lmlreg.inference import (
    CountTable,
    DataError,
    FitOptions,
    GRAD_TOL,
    LogLikelihood,
    ModelSpec,
    _chi2_tail,
    _independence_mu,
    _start_candidates,
    _starting_point,
    _two_sided_normal_tail,
    fit,
    induced_mu_stats,
    loglik,
    simulate,
    wald_tests,
)
from lmlreg.io import read_count_data, read_zero_set
from lmlreg.lattice import SubsetLattice
from lmlreg.params import (BoundaryError, ParamMatrix, beta_from_pi, beta_mu_from_beta_gamma,
                           mu_values_from_beta, pi_from_beta)
from lmlreg.selection import backward_staged_selection

from oracles import (
    brute_force_max_loglik,
    empirical_pi,
    central_difference_hessian,
    free_positions,
    implied_pi,
    oracle_gram_hessian,
    oracle_independence_mu,
    oracle_induced_mu_ses,
    oracle_loglik,
    oracle_marginalize,
    oracle_starting_point,
    oracle_validity_and_value,
)
from test_golden import cap_inputs


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

    @pytest.mark.parametrize("dtype", [np.int8, np.int32, np.int64, np.uint8, np.uint16, np.uint64])
    def test_integer_counts_are_stored_as_int64(self, dtype):
        V, U = lattices(2, 1)
        raw = np.arange(8, dtype=dtype).reshape(4, 2)
        t = CountTable(V, U, raw)
        assert t.counts.dtype == np.int64 and not t.counts.flags.writeable
        assert np.array_equal(t.counts, np.arange(8).reshape(4, 2))
        # the caller's array is copied, not frozen
        assert raw.flags.writeable and not np.shares_memory(t.counts, raw)

    @pytest.mark.parametrize("dtype", [np.int8, np.int64])
    def test_negative_integer_counts_rejected(self, dtype):
        V, U = lattices(2, 1)
        raw = np.ones((4, 2), dtype=dtype)
        raw[2, 1] = -1
        with pytest.raises(ValueError, match="^counts must be finite and nonnegative$"):
            CountTable(V, U, raw)

    def test_float_counts_keep_their_checks(self):
        V, U = lattices(2, 1)
        near = np.arange(8.0).reshape(4, 2) + np.array([1e-12, -1e-12])
        t = CountTable(V, U, near)
        assert t.counts.dtype == np.int64
        assert np.array_equal(t.counts, np.arange(8).reshape(4, 2))
        assert np.array_equal(CountTable(V, U, near > 3).counts, np.arange(8).reshape(4, 2) > 3)
        for bad, message in ((np.nan, "finite and nonnegative"), (np.inf, "finite and nonnegative"),
                             (-1.0, "finite and nonnegative"), (2.5, "must be integers")):
            with pytest.raises(ValueError, match=message):
                CountTable(V, U, np.where(np.eye(4, 2, dtype=bool), bad, near))

    def test_object_counts_of_integers_build_the_int_table(self):
        V, U = lattices(1, 1)
        t = CountTable(V, U, np.array([[1, 2], [3, 4]], dtype=object))
        assert t.counts.dtype == np.int64
        assert np.array_equal(t.counts, CountTable(V, U, np.array([[1, 2], [3, 4]])).counts)

    @pytest.mark.parametrize("bad", [None, "a", "3", [1]])
    def test_non_number_counts_rejected(self, bad):
        V, U = lattices(1, 1)
        raw = np.array([[1, 2], [3, 4]], dtype=object)
        raw[1, 0] = bad
        with pytest.raises(ValueError, match="^counts must be finite and nonnegative$"):
            CountTable(V, U, raw)

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

    @pytest.mark.parametrize("p", range(1, 7))
    def test_marginalize_matches_loop_oracle(self, p):
        t = random_table(p, 1 + p % 2, 90 + p, n=400)
        for keep in range(1, 2**p):
            labels = t.responses.members(keep)
            m = t.marginalize(labels)
            assert m.responses.labels == labels
            assert np.array_equal(m.counts, oracle_marginalize(t, labels))

    def test_empirical_pi_errors_name_cells(self):
        V, U = lattices(1, 1)
        t = CountTable(V, U, np.array([[3, 0], [1, 0]], dtype=np.int64))
        with pytest.raises(DataError, match="x0"):
            empirical_pi(t)

    def test_empirical_pi_smoothing(self):
        V, U = lattices(1, 1)
        t = CountTable(V, U, np.array([[3, 5], [1, 0]], dtype=np.int64))
        pi = empirical_pi(t, smooth=0.5)
        assert pi.values[1, 1] == pytest.approx(0.5 / 6.0)
        assert np.allclose(pi.values.sum(axis=0), 1.0)


class TestModelSpec:
    def test_df_counts_constraints(self):
        spec = ModelSpec("lml", frozenset({(1, 0), (3, 1)}))
        assert spec.df == 2
        assert ModelSpec("lm").df == 0

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
        with pytest.raises(ValueError, match="^mask 5 out of range for ground set of size 1$"):
            ModelSpec("lml", frozenset({(1, 0), (3, 5), (2, 1)})).validate_for(V, U)

    def test_free_positions_order_and_content(self):
        V, U = lattices(2, 1)
        spec = ModelSpec("lml", frozenset({(3, 1)}))
        free = free_positions(spec, V, U)
        assert (3, 1) not in free
        assert len(free) == 5
        assert free[0] == (1, 0)

    def test_with_zeros_extends(self):
        spec = ModelSpec("lml", frozenset({(1, 0)}))
        assert spec.with_zeros([(2, 1)]).df == 2


class TestModelSpecPairs:
    """A spec holds its zero set as one canonical, repeat-free pair array."""

    def test_a_spec_from_a_file_equals_and_hashes_like_one_from_a_frozenset(self, tmp_path):
        V, U = lattices(3, 2)
        path = tmp_path / "zeros.txt"
        path.write_text("{y0,y1};{x1}\n{y2};{}\n# again\n{y1,y0};{x1}\n{y0,y1,y2};{x0,x1}\n")
        want = frozenset({(3, 2), (4, 0), (7, 3)})
        for link in ("lm", "lml"):
            from_file, from_set = ModelSpec(link, read_zero_set(str(path), V, U)), ModelSpec(link, want)
            assert from_file == from_set and hash(from_file) == hash(from_set)
            assert from_file.zero_set == want and from_file.df == 3
        assert ModelSpec("lm", want) != ModelSpec("lml", want)
        assert ModelSpec("lml", want) != ModelSpec("lml", want - {(4, 0)})

    def test_order_and_repeats_do_not_matter(self):
        a = ModelSpec("lml", [(3, 1), (1, 0), (3, 1), (2, 3)])
        b = ModelSpec("lml", iter([(2, 3), (1, 0), (3, 1)]))
        assert a == b and hash(a) == hash(b) and a.df == b.df == 3
        assert a.pairs.tolist() == [[1, 2, 3], [0, 3, 1]]   # canonical (|D|, D, |E|, E)
        assert not a.pairs.flags.writeable

    def test_with_zeros_deduplicates(self):
        spec = ModelSpec("lml", frozenset({(1, 0), (3, 1)}))
        grown = spec.with_zeros([(2, 1), (3, 1), (2, 1)])
        assert grown.df == 3 and grown == ModelSpec("lml", {(1, 0), (2, 1), (3, 1)})
        assert spec.with_zeros([]) == spec and spec.with_zeros([]).link == "lml"

    def test_zero_set_holds_python_ints(self):
        spec = ModelSpec("lm", {(np.int64(3), np.int64(1))}).with_zeros([(np.intp(1), 2)])
        assert spec.zero_set == {(3, 1), (1, 2)}
        assert all(type(d) is int and type(e) is int for d, e in spec.zero_set)

    @pytest.mark.parametrize("pairs, message", [
        ([(1, 0), (0, 1)], "^zero_set must not contain row-∅ pairs \\(structurally zero already\\)$"),
        ([(1, 0), (-1, 1)], "^zero_set masks must be nonnegative$"),
        ([(1, -2)], "^zero_set masks must be nonnegative$"),
    ])
    def test_bad_masks_keep_their_messages(self, pairs, message):
        with pytest.raises(ValueError, match=message):
            ModelSpec("lml", pairs)
        with pytest.raises(ValueError, match=message):
            ModelSpec("lml").with_zeros(pairs)

    @pytest.mark.parametrize("pairs", [
        [(1, 0, 5), (3, 1, 2)], [(1, 0), (3,)], [(1, 0), 3], [("1", 0)], [(1.7, 0)],
        np.array([[1, 0, 5]]), np.array([1, 0]), np.array([[1.0, 0.0]]),
    ], ids=["triples", "a single", "a bare int", "a string", "a float",
            "an (n, 3) array", "a 1-D array", "a float array"])
    def test_items_that_are_not_two_integers_are_refused(self, pairs):
        message = r"^zero_set items must be \(D, E\) pairs of two integer masks$"
        with pytest.raises(ValueError, match=message):
            ModelSpec("lml", pairs)
        with pytest.raises(ValueError, match=message):
            ModelSpec("lml", [(1, 0)]).with_zeros(pairs)

    @pytest.mark.parametrize("rows", [[[3, 1], [1, 0], [3, 1]], [[3, 1]]])
    def test_an_integer_array_of_rows_is_taken_as_a_copy(self, rows):
        array = np.array(rows, dtype=np.int32)
        spec = ModelSpec("lml", array)
        array[0] = [7, 7]
        assert spec == ModelSpec("lml", map(tuple, rows)) and spec.pairs.dtype == np.intp
        assert ModelSpec("lml", np.empty((0, 2), np.int64)) == ModelSpec("lml")


class TestLoglik:
    def test_matches_direct_formula(self):
        t = random_table(2, 2, 3)
        pi = empirical_pi(t, smooth=0.5)
        assert loglik(pi, t) == pytest.approx(
            oracle_loglik(t.counts.astype(float), pi.values), rel=1e-12)

    def test_empirical_pi_maximizes(self):
        t = random_table(2, 1, 4)
        base = loglik(empirical_pi(t), t)
        rng = np.random.default_rng(5)
        for _ in range(10):
            raw = rng.gamma(1.0, size=(4, 2))
            other = ParamMatrix("pi", *lattices(2, 1), raw / raw.sum(axis=0))
            assert loglik(other, t) <= base + 1e-9

    @pytest.mark.parametrize("kind, shape, message", [
        ("mu", (4, 2), "expected a pi matrix, got kind 'mu'"),
        ("pi", (2, 2), "shape mismatch: pi (2, 2) vs counts (4, 2)"),
    ], ids=["kind", "shape"])
    def test_guards(self, kind, shape, message):
        t = random_table(2, 1, 4)
        V, U = lattices(shape[0].bit_length() - 1, 1)
        with pytest.raises(ValueError) as err:
            loglik(ParamMatrix(kind, V, U, np.full(shape, 0.5)), t)
        assert str(err.value) == message


class TestSaturatedFit:
    @pytest.mark.parametrize("link", ["lm", "lml"])
    def test_equals_empirical_distribution(self, link):
        t = random_table(3, 1, 6)
        res = fit(ModelSpec(link), t)
        assert res.converged
        assert res.iterations == 0
        emp = empirical_pi(t)
        assert np.max(np.abs(res.pi_hat.values - emp.values)) < 1e-10
        assert res.deviance == pytest.approx(0.0, abs=1e-8)
        assert res.df == 0
        assert res.p_value is None

    def test_coefficients_match_closed_form(self):
        t = random_table(2, 2, 7)
        for link in ("lm", "lml"):
            res = fit(ModelSpec(link), t)
            closed = beta_from_pi(empirical_pi(t), link)
            assert np.max(np.abs(res.beta_hat.values - closed.values)) < 1e-8

    def test_zero_cell_needs_smoothing(self):
        V, U = lattices(2, 1)
        counts = np.array([[50, 40], [10, 0], [5, 3], [1, 2]], dtype=np.int64)
        t = CountTable(V, U, counts)
        with pytest.raises(DataError):
            fit(ModelSpec("lml"), t)
        res = fit(ModelSpec("lml"), t, FitOptions(smooth=0.5))
        assert res.converged
        smoothed = empirical_pi(t, smooth=0.5)
        assert np.max(np.abs(res.pi_hat.values - smoothed.values)) < 1e-10

    @pytest.mark.parametrize("smooth", [np.nan, np.inf, -np.inf, 0.0, -0.5])
    def test_smoothing_must_be_finite_and_positive(self, smooth):
        with pytest.raises(ValueError, match="finite and positive"):
            FitOptions(smooth=smooth)

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
        if implied_pi(ll, x) is None:
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
        if implied_pi(ll, x + jitter) is not None:
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
        ll = LogLikelihood(ModelSpec(link), t)
        assert np.array_equal(ll.free_pairs, res.free_pairs) and ll.unidentified == res.unidentified
        self.check(ll, interior_point(ll, res.estimates, 6))


class TestEvaluationState:
    """Value, gradient and Hessian share one state per point, never a stale one."""

    def points(self, link: str):
        t = random_table(3, 2, 80)
        spec = random_constrained_spec(3, 2, 8, link)
        x1 = fit(spec, t).estimates
        x2 = interior_point(LogLikelihood(spec, t), x1, 9)
        assert not np.array_equal(x1, x2)
        return spec, t, x1, x2

    @pytest.mark.parametrize("link", ["lm", "lml"])
    def test_interleaved_calls_match_a_fresh_likelihood(self, link):
        spec, t, x1, x2 = self.points(link)
        ll = LogLikelihood(spec, t)
        calls = [("value", x1), ("gradient", x2), ("fd_hessian", x1), ("value", x2),
                 ("fd_hessian", x2), ("gradient", x1), ("fd_hessian", x1),
                 ("gradient", x2), ("value", x1)]
        for name, x in calls:
            got = getattr(ll, name)(x)
            want = getattr(LogLikelihood(spec, t), name)(x)
            assert np.array_equal(got, want), name

    @pytest.mark.parametrize("link", ["lm", "lml"])
    def test_mutating_the_callers_array_is_not_stale(self, link):
        spec, t, x1, x2 = self.points(link)
        ll = LogLikelihood(spec, t)
        x = x1.copy()
        ll.value(x), ll.gradient(x), ll.fd_hessian(x)
        x[:] = x2
        fresh = LogLikelihood(spec, t)
        assert ll.value(x) == fresh.value(x2)
        assert np.array_equal(ll.gradient(x), fresh.gradient(x2))
        assert np.array_equal(ll.fd_hessian(x), fresh.fd_hessian(x2))

    @pytest.mark.parametrize("link", ["lm", "lml"])
    def test_derivatives_at_an_invalid_point_raise(self, link):
        spec, t, x1, _ = self.points(link)
        ll = LogLikelihood(spec, t)
        bad = x1.copy()
        bad[ll.free_pairs.T.tolist().index([1, 0])] = 5.0    # pr(y0 = 1) = e**5 in the first cell
        ll.gradient(x1)
        with pytest.raises(BoundaryError):
            ll.gradient(bad)
        ll.fd_hessian(x1)
        with pytest.raises(BoundaryError):
            ll.fd_hessian(bad)
        assert ll.value(bad) == -np.inf and implied_pi(ll, bad) is None

    @pytest.mark.parametrize("link", ["lm", "lml"])
    def test_one_chain_per_point(self, monkeypatch, link):
        spec, t, x1, x2 = self.points(link)
        ll = LogLikelihood(spec, t)
        built = []
        real = lmlreg.inference.mu_values_from_beta
        monkeypatch.setattr(lmlreg.inference, "mu_values_from_beta",
                            lambda beta, link: built.append(1) or real(beta, link))
        ll.value(x1), ll.gradient(x1), ll.fd_hessian(x1)
        assert len(built) == 1
        ll.fd_hessian(x2)
        assert len(built) == 2


class TestGatherHessian:
    """The gather-form Hessian against the Gram matrices of the Möbius cube."""

    def check(self, ll: LogLikelihood, x: np.ndarray) -> None:
        want = oracle_gram_hessian(ll, x)
        got = ll.fd_hessian(x)
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, float(np.max(np.abs(want))))
        assert np.array_equal(got, got.T)

    @pytest.mark.parametrize("link", ["lm", "lml"])
    @pytest.mark.parametrize("p, q", [(1, 1), (2, 2), (3, 1), (4, 2), (5, 1), (6, 3)])
    def test_saturated(self, link, p, q):
        t = random_table(p, q, 300 + p + q)
        ll = LogLikelihood(ModelSpec(link), t, smooth=0.5)
        self.check(ll, interior_point(ll, _starting_point(ll), p + q))

    @pytest.mark.parametrize("link", ["lm", "lml"])
    @pytest.mark.parametrize("seed", range(6))
    def test_constrained(self, link, seed):
        p, q = [(2, 1), (3, 2), (4, 1), (5, 1), (4, 2), (5, 2)][seed]
        t = random_table(p, q, 310 + seed)
        ll = LogLikelihood(random_constrained_spec(p, q, seed, link), t)
        self.check(ll, interior_point(ll, _starting_point(ll), seed))

    @pytest.mark.parametrize("link", ["lm", "lml"])
    def test_smoothed(self, link):
        V, U = lattices(2, 1)
        t = CountTable(V, U, np.array([[50, 40], [10, 0], [5, 3], [1, 2]], dtype=np.int64))
        ll = LogLikelihood(ModelSpec(link), t, smooth=0.5)
        self.check(ll, fit(ModelSpec(link), t, FitOptions(smooth=0.5)).estimates)

    @pytest.mark.parametrize("link", ["lm", "lml"])
    def test_missing_cells(self, link):
        t = TestMissingCells().make_table_with_empty_column()
        res = fit(ModelSpec(link), t, FitOptions(allow_missing_cells=True))
        self.check(LogLikelihood(ModelSpec(link), t), res.estimates)

    def test_cli_cap(self, tmp_path):
        """lml on the CLI cap's model: 8 responses, 4 covariates, 236 free coefficients.
        Its zero set leaves lm no valid start."""
        argv = cap_inputs(tmp_path)[0]
        flags = dict(zip(argv[1::2], argv[2::2]))
        V, U = (SubsetLattice(tuple(flags[f].split(","))) for f in ("--responses", "--covariates"))
        t = read_count_data(str(tmp_path / flags["--input"]), V, U)
        zeros = read_zero_set(str(tmp_path / flags["--zeros"]), V, U)
        ll = LogLikelihood(ModelSpec("lml", zeros), t)
        assert ll.free_pairs.shape == (2, 236)
        self.check(ll, interior_point(ll, _starting_point(ll), 8))


class TestTailProbabilities:
    """fit's Wald and deviance tails against scipy's, kept as a test-only oracle."""

    def test_normal_tail(self):
        grid = np.linspace(0.0, 40.0, 40001)
        z = np.concatenate([grid, -grid, [np.nan, np.inf, -np.inf]])
        got = _two_sided_normal_tail(z)
        np.testing.assert_allclose(got, 2.0 * special.ndtr(-np.abs(z)), rtol=0, atol=1e-15)

    def test_chi_square_tail(self):
        rng = np.random.default_rng(3)
        df = rng.integers(1, 300, size=6000)
        dev = np.where(np.arange(6000) % 10 == 0, 0.0, rng.gamma(2.0, df / 2.0))
        got = np.array([_chi2_tail(k, x) for k, x in zip(df.tolist(), dev.tolist())])
        np.testing.assert_allclose(got, special.chdtrc(df, dev), rtol=0, atol=1e-14)
        assert np.all(got[::10] == 1.0)

    @pytest.mark.parametrize("df", [1, 2, 3, 5, 39, 40, 41, 64, 399, 400, 401, 1000, 2048, 3844, 4096])
    def test_chi_square_tail_near_its_mean(self, df):
        # x ≈ df is where 1 − P cancels and a·log x loses digits at large df
        band = 3.0 * np.sqrt(2.0 * df)
        dev = np.linspace(max(df - band, 0.0), df + band, 401)
        got = np.array([_chi2_tail(df, x) for x in dev.tolist()])
        np.testing.assert_allclose(got, special.chdtrc(df, dev), rtol=0, atol=1e-14)

    def test_chi_square_tail_edges(self):
        dev = [np.inf, np.nan, -1.0, 0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e300]
        got = [_chi2_tail(3, x) for x in dev]
        np.testing.assert_array_equal(got, special.chdtrc(3, dev))


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
        assert rows == [(d, e, float(res.estimates[i]), float(res.std_errors[i]),
                         float(res.wald_p[i])) for i, (d, e) in enumerate(res.free_index)]
        assert all(type(v) is int for row in rows for v in row[:2])
        assert all(type(v) is float for row in rows for v in row[2:])

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


class TestInvariance:
    """A fit on a small table with positive counts, under relabelling and rescaling."""

    @staticmethod
    def case(p: int, q: int, seed: int, link: str) -> tuple[CountTable, ModelSpec]:
        V, U = lattices(p, q)
        counts = np.random.default_rng(seed).integers(1, 200, size=(V.size, U.size))
        return CountTable(V, U, counts), random_constrained_spec(p, q, seed, link)

    @given(st.integers(1, 3), st.integers(1, 2), st.integers(0, 10**6),
           st.sampled_from(["lm", "lml"]), st.integers(2, 50))
    @settings(max_examples=25, deadline=None)
    def test_scaling_the_counts(self, p, q, seed, link, k):
        """k times every count: the same estimates, standard errors over sqrt(k)."""
        data, spec = self.case(p, q, seed, link)
        base = fit(spec, data)
        scaled = fit(spec, CountTable(data.responses, data.covariates, k * data.counts))
        assert base.converged and scaled.converged
        np.testing.assert_allclose(scaled.estimates, base.estimates, rtol=0, atol=1e-8)
        np.testing.assert_allclose(scaled.std_errors, base.std_errors / np.sqrt(k), rtol=1e-6)

    @given(st.integers(1, 3), st.integers(1, 2), st.integers(0, 10**6),
           st.sampled_from(["lm", "lml"]), st.data())
    @settings(max_examples=25, deadline=None)
    def test_permuting_the_responses(self, p, q, seed, link, draw):
        """Responses listed in another order: every coefficient moves with its subset."""
        data, spec = self.case(p, q, seed, link)
        V, U = data.responses, data.covariates
        W = SubsetLattice(draw.draw(st.permutations(V.labels)))
        move = [W.mask_of(V.members(d)) for d in range(V.size)]   # row of each V mask in W
        counts = np.empty_like(data.counts)
        counts[move] = data.counts
        moved_spec = ModelSpec(link, frozenset((move[d], e) for d, e in spec.zero_set))
        base, moved = fit(spec, data), fit(moved_spec, CountTable(W, U, counts))
        assert base.converged and moved.converged
        np.testing.assert_allclose(moved.beta_hat.values[move], base.beta_hat.values,
                                   rtol=0, atol=1e-8)

    @given(st.integers(1, 3), st.integers(2, 3), st.integers(0, 10**6), st.data())
    @settings(max_examples=25, deadline=None)
    def test_swapping_two_covariates(self, p, q, seed, draw):
        """Two covariates' count columns and zero-set masks swapped: under
        either link every coefficient moves with its covariate subset."""
        i, j = draw.draw(st.lists(st.integers(0, q - 1), min_size=2, max_size=2, unique=True))
        cells = np.arange(2**q)
        move = cells ^ ((cells >> i ^ cells >> j) & 1) * (1 << i | 1 << j)   # bits i, j swapped
        for link in ("lm", "lml"):
            data, spec = self.case(p, q, seed, link)
            counts = np.empty_like(data.counts)
            counts[:, move] = data.counts
            moved_spec = ModelSpec(link, frozenset((d, int(move[e])) for d, e in spec.zero_set))
            base = fit(spec, data)
            moved = fit(moved_spec, CountTable(data.responses, data.covariates, counts))
            assert base.converged and moved.converged
            np.testing.assert_allclose(moved.beta_hat.values[:, move], base.beta_hat.values,
                                       rtol=0, atol=1e-9)

    @given(st.integers(1, 3), st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_one_response_links_agree(self, q, seed):
        """With one response the lm and lml parameters coincide: the fits are bitwise equal.

        The zero sets leave out (y, {}), which forces pr(Y = 1 | {}) = 1, a
        boundary point that neither link can fit.
        """
        data, spec = self.case(1, q, seed, "lm")
        lm, lml = fit(spec, data), fit(ModelSpec("lml", spec.zero_set), data)
        assert lm.converged and lml.converged
        assert np.array_equal(lm.estimates, lml.estimates)
        assert np.array_equal(lm.std_errors, lml.std_errors)
        assert (lm.deviance, lm.iterations) == (lml.deviance, lml.iterations)


class TestNewtonStep:
    """The Newton step is one solve, kept when it is finite and ascends; the
    eigenvalue step is the fallback when the solve raises or its step is refused."""

    @pytest.mark.parametrize("link", ["lm", "lml"])
    def test_no_eigendecomposition_when_negative_definite(self, monkeypatch, link):
        eigh_calls = []
        real_eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: eigh_calls.append(1) or real_eigh(a))
        result = fit(random_constrained_spec(3, 2, 5, link), random_table(3, 2, 5))
        assert result.converged and result.iterations > 0
        assert not eigh_calls

    @pytest.mark.parametrize("link", ["lm", "lml"])
    def test_eigenvalue_step_when_the_factor_fails(self, monkeypatch, link):
        """Where the solve cannot factor -H, the eigenvalue step reaches the same optimum."""
        spec, data = random_constrained_spec(3, 2, 6, link), random_table(3, 2, 6)
        want = fit(spec, data)
        refused, eigh_calls = [], []
        real_eigh = np.linalg.eigh

        def no_factor(a, b):
            refused.append(1)
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", no_factor)
        monkeypatch.setattr(np.linalg, "eigh", lambda a: eigh_calls.append(1) or real_eigh(a))
        got = fit(spec, data)
        assert got.converged and len(refused) == len(eigh_calls) == got.iterations > 0
        np.testing.assert_allclose(got.estimates, want.estimates, rtol=0, atol=1e-8)
        assert got.loglik == pytest.approx(want.loglik, rel=1e-12)

    @pytest.mark.parametrize("refusal", ["non-finite", "not-ascending"])
    @pytest.mark.parametrize("link", ["lm", "lml"])
    def test_eigenvalue_step_when_the_newton_step_is_refused(self, monkeypatch, link, refusal):
        """A solved step that is not finite, or has gᵀd ≤ 0, gives way to one
        eigenvalue step per iteration, which reaches the same optimum."""
        spec, data = random_constrained_spec(3, 2, 6, link), random_table(3, 2, 6)
        want = fit(spec, data)
        solves, eigh_calls = [], []
        real_solve, real_eigh = np.linalg.solve, np.linalg.eigh

        def refused_solve(a, b):
            solves.append(1)
            d = real_solve(a, b)
            if refusal == "non-finite":
                d[0] = np.copysign(np.inf, b[0])   # gᵀd = +inf: only the finiteness test refuses it
            else:
                d = -d
            return d

        monkeypatch.setattr(np.linalg, "solve", refused_solve)
        monkeypatch.setattr(np.linalg, "eigh", lambda a: eigh_calls.append(1) or real_eigh(a))
        got = fit(spec, data)
        assert got.converged and len(solves) == len(eigh_calls) == got.iterations > 0
        np.testing.assert_allclose(got.estimates, want.estimates, rtol=0, atol=1e-8)
        assert got.loglik == pytest.approx(want.loglik, rel=1e-12)

    def spy_ascents(self, monkeypatch) -> list[float]:
        """The size, max |d|, of every direction the ascent test sees."""
        sizes = []
        real = lmlreg.inference._ascends
        monkeypatch.setattr(lmlreg.inference, "_ascends", lambda d, g: (
            sizes.append(float(np.abs(d).max())) or real(d, g)))
        return sizes

    @pytest.mark.parametrize("link", ["lm", "lml"])
    def test_a_kept_newton_step_is_tested_once(self, monkeypatch, link):
        sizes = self.spy_ascents(monkeypatch)
        result = fit(random_constrained_spec(3, 2, 5, link), random_table(3, 2, 5))
        assert result.converged and result.iterations > 0
        assert len(sizes) == result.iterations and max(sizes) <= lmlreg.inference.MAX_STEP

    @pytest.mark.parametrize("link", ["lm", "lml"])
    def test_a_rescaled_newton_step_is_tested_again(self, monkeypatch, link):
        """With a small ``MAX_STEP`` the first Newton steps are longer; each is
        rescaled to ``MAX_STEP`` and tested again, and the fit reaches the same optimum."""
        spec, data = random_constrained_spec(3, 2, 5, link), random_table(3, 2, 5)
        want = fit(spec, data)
        monkeypatch.setattr(lmlreg.inference, "MAX_STEP", 0.01)
        sizes = self.spy_ascents(monkeypatch)
        eigh_calls = []
        real_eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: eigh_calls.append(1) or real_eigh(a))
        got = fit(spec, data)
        retests = [size for size in sizes if size == pytest.approx(0.01, rel=1e-12)]
        assert not eigh_calls and len(sizes) == got.iterations + len(retests) > got.iterations
        assert got.converged and got.converged == (got.grad_norm <= GRAD_TOL)
        np.testing.assert_allclose(got.estimates, want.estimates, rtol=0, atol=1e-8)

    @pytest.mark.parametrize("link", ["lm", "lml"])
    def test_a_rescaled_step_that_fails_the_test_stops_unconverged(self, monkeypatch, link):
        """The test after a rescale decides: refused there, the fit stops at its start."""
        spec, data = random_constrained_spec(3, 2, 5, link), random_table(3, 2, 5)
        start = _starting_point(LogLikelihood(spec, data))
        monkeypatch.setattr(lmlreg.inference, "MAX_STEP", 0.01)
        real = lmlreg.inference._ascends
        monkeypatch.setattr(lmlreg.inference, "_ascends", lambda d, g: (
            float(np.abs(d).max()) > 0.011 and real(d, g)))
        result = fit(spec, data)
        assert not result.converged and result.iterations == 1
        assert result.converged == (result.grad_norm <= GRAD_TOL)
        assert np.array_equal(result.estimates, start)

    @pytest.mark.parametrize("link", ["lm", "lml"])
    def test_an_eigenvalue_step_is_tested(self, monkeypatch, link):
        """A refused Newton step gives way to the eigenvalue step, which is tested in its turn."""
        spec, data = random_constrained_spec(3, 2, 6, link), random_table(3, 2, 6)
        sizes = self.spy_ascents(monkeypatch)
        eigh_calls = []
        real_solve, real_eigh = np.linalg.solve, np.linalg.eigh
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: -real_solve(a, b))
        monkeypatch.setattr(np.linalg, "eigh", lambda a: eigh_calls.append(1) or real_eigh(a))
        result = fit(spec, data)
        assert len(eigh_calls) == result.iterations > 0
        assert len(sizes) == 2 * result.iterations
        assert result.converged and result.converged == (result.grad_norm <= GRAD_TOL)

    def test_non_finite_hessian_stops_unconverged(self, monkeypatch):
        spec, data = random_constrained_spec(3, 2, 5), random_table(3, 2, 5)
        monkeypatch.setattr(LogLikelihood, "fd_hessian",
                            lambda self, x: np.full((x.size, x.size), np.nan))
        result = fit(spec, data)
        assert not result.converged and result.iterations == 1
        assert result.converged == (result.grad_norm <= GRAD_TOL)
        assert result.singular_information and result.covariance is None

    def test_a_direction_that_does_not_ascend_stops_unconverged(self, monkeypatch):
        """The solved step descends and the eigenvalue step is zero, so no direction ascends."""
        spec, data = random_constrained_spec(3, 2, 5), random_table(3, 2, 5)
        start = _starting_point(LogLikelihood(spec, data))
        real_solve, real_eigh = np.linalg.solve, np.linalg.eigh
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: -real_solve(a, b))

        def no_eigenvectors(a):
            evals, evecs = real_eigh(a)
            return evals, np.zeros_like(evecs)

        monkeypatch.setattr(np.linalg, "eigh", no_eigenvectors)
        result = fit(spec, data)
        assert not result.converged and result.iterations == 1
        assert result.converged == (result.grad_norm <= GRAD_TOL)
        assert np.array_equal(result.estimates, start)

    @pytest.mark.parametrize("link", ["lm", "lml"])
    def test_max_iter_stops_unconverged(self, monkeypatch, link):
        spec, data = random_constrained_spec(3, 2, 5, link), random_table(3, 2, 5)
        monkeypatch.setattr(lmlreg.inference, "MAX_ITER", 1)
        result = fit(spec, data)
        assert result.iterations == 1 and result.grad_norm > GRAD_TOL
        assert not result.converged
        assert result.converged == (result.grad_norm <= GRAD_TOL)

    @pytest.mark.parametrize("link", ["lm", "lml"])
    def test_spent_halvings_stop_unconverged_at_the_start(self, monkeypatch, link):
        """Every trial point away from the start has value −inf, so the line
        search spends its ``MAX_HALVINGS`` halvings and the fit stops where it began."""
        spec, data = random_constrained_spec(3, 2, 5, link), random_table(3, 2, 5)
        start = _starting_point(LogLikelihood(spec, data))
        real_value = LogLikelihood.value
        monkeypatch.setattr(LogLikelihood, "value", lambda self, x: (
            real_value(self, x) if np.array_equal(x, start) else -np.inf))
        result = fit(spec, data)
        assert result.iterations == 1 and np.array_equal(result.estimates, start)
        assert not result.converged
        assert result.converged == (result.grad_norm <= GRAD_TOL)


class TestSingularInformation:
    """When the information matrix has no usable inverse, the fit has no SEs."""

    @pytest.mark.parametrize("inverse", ["raises", "non-finite", "negative-variance"])
    def test_branches(self, monkeypatch, inverse):
        spec, data = random_constrained_spec(3, 2, 5), random_table(3, 2, 5)
        want = fit(spec, data)
        # derived now, before inv is patched: the fields are read lazily
        assert not want.singular_information and np.isfinite(want.std_errors).all()
        real_inv = np.linalg.inv

        def broken_inv(a):
            if inverse == "raises":
                raise np.linalg.LinAlgError("Singular matrix")
            out = real_inv(a)
            if inverse == "non-finite":
                out[0, 1] = np.nan
            else:
                out[0, 0] = -out[0, 0]
            return out

        monkeypatch.setattr(np.linalg, "inv", broken_inv)
        got = fit(spec, data)
        assert got.singular_information
        assert got.converged and np.array_equal(got.estimates, want.estimates)
        if inverse == "negative-variance":
            assert got.covariance is not None
            assert np.isnan(got.std_errors[0]) and np.isnan(got.wald_p[0])
            assert np.array_equal(got.std_errors[1:], want.std_errors[1:])
        else:
            assert got.covariance is None
            assert np.isnan(got.std_errors).all() and np.isnan(got.wald_p).all()


class TestCovarianceOnRead:
    """A fit keeps its information; the covariance and what follows from it
    are derived on first read, and equal a direct derivation."""

    @staticmethod
    def case(kind: str, link: str) -> tuple[ModelSpec, CountTable, FitOptions]:
        if kind == "constrained":
            return random_constrained_spec(3, 2, 5, link), random_table(3, 2, 5), FitOptions()
        if kind == "no-free":   # every coefficient unidentified: a 0 x 0 information
            V, U = lattices(2, 1)
            return (ModelSpec(link), CountTable(V, U, np.zeros((4, 2), dtype=np.int64)),
                    FitOptions(allow_missing_cells=True))
        # observed cells not closed under subsets: a singular information
        V, U = lattices(2, 2)
        counts = np.random.default_rng(3).integers(10, 200, size=(4, 4))
        counts[:, [1, 2]] = 0
        return ModelSpec(link), CountTable(V, U, counts), FitOptions(allow_missing_cells=True)

    @pytest.mark.parametrize("link", ["lm", "lml"])
    @pytest.mark.parametrize("kind", ["constrained", "no-free", "singular"])
    def test_fields_follow_from_the_information(self, monkeypatch, kind, link):
        spec, data, options = self.case(kind, link)
        calls = []
        real_inv = np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda a: calls.append(1) or real_inv(a))
        res = fit(spec, data, options)
        assert res.converged and not calls
        info = res.information
        assert np.array_equal(info, -LogLikelihood(spec, data).fd_hessian(res.estimates))
        assert info.shape == (res.estimates.size,) * 2

        try:
            cov = real_inv(info)
        except np.linalg.LinAlgError:
            cov = None
        if cov is not None and not np.isfinite(cov).all():
            cov = None
        var = np.full(info.shape[0], np.nan) if cov is None else np.diag(cov)
        se = np.where(var > 0, np.sqrt(np.abs(var)), np.nan)
        p = 2.0 * special.ndtr(-np.abs(res.estimates / se))

        assert res.singular_information == (cov is None or bool(np.any(var <= 0)))
        assert res.singular_information == (kind == "singular")
        assert (res.covariance is None) == (cov is None)
        if cov is not None:
            assert np.array_equal(res.covariance, cov)
        assert np.array_equal(res.std_errors, se, equal_nan=True)
        np.testing.assert_allclose(res.wald_p, p, rtol=0, atol=1e-15)
        assert len(calls) == 1   # all four from one inverse, kept


class TestFreePairs:
    """The free set is one read-only (2, n) array, from the likelihood that
    builds it to the fit result and the readers."""

    @staticmethod
    def case(kind: str, link: str) -> tuple[ModelSpec, CountTable, FitOptions]:
        if kind == "constrained":
            return random_constrained_spec(3, 2, 7, link), random_table(3, 2, 7), FitOptions()
        # every coefficient zeroed, on a table with no observation: 0 free
        V, U = lattices(2, 1)
        return (ModelSpec(link, [(d, e) for d in range(1, 4) for e in range(2)]),
                CountTable(V, U, np.zeros((4, 2), dtype=np.int64)),
                FitOptions(allow_missing_cells=True))

    @pytest.mark.parametrize("link", ["lm", "lml"])
    @pytest.mark.parametrize("kind", ["constrained", "all-zero"])
    def test_layout(self, monkeypatch, kind, link):
        spec, data, options = self.case(kind, link)
        likelihoods = []

        class RecordedLikelihood(LogLikelihood):
            def __init__(self, *args, **kwargs):
                likelihoods.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(lmlreg.inference, "LogLikelihood", RecordedLikelihood)
        res = fit(spec, data, options)
        pairs = res.free_pairs
        assert pairs is likelihoods[0].free_pairs
        assert pairs.dtype == np.intp and pairs.shape == (2, res.estimates.size)
        assert not pairs.flags.writeable
        expected = free_positions(spec, data.responses, data.covariates)
        assert (not expected) == (kind == "all-zero")
        assert pairs.T.tolist() == [list(de) for de in expected]   # canonical order
        assert res.free_index == tuple(zip(*pairs.tolist()))
        assert all(type(m) is int for de in res.free_index for m in de)
        # the rows of a per-pair zip over free_index
        old = [(d, e, estimate, se, p) for (d, e), estimate, se, p in zip(
            res.free_index, res.estimates.tolist(), res.std_errors.tolist(), res.wald_p.tolist())]
        rows = wald_tests(res)
        assert rows == old and all(type(d) is type(e) is int for d, e, *_ in rows)


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

    @pytest.mark.parametrize("link", ["lm", "lml"])
    def test_table_with_no_observation_fits_silently(self, link):
        # every coefficient is unidentified, so the fit has none free; beta =
        # 0 puts pi = 0 in the unobserved columns, where no weight divides
        V, U = lattices(2, 1)
        res = fit(ModelSpec(link), CountTable(V, U, np.zeros((4, 2), dtype=np.int64)),
                  FitOptions(allow_missing_cells=True))
        assert res.converged and res.missing_cells == (0, 1)
        assert res.unidentified == tuple(free_positions(ModelSpec(link), V, U))
        assert res.estimates.shape == res.std_errors.shape == (0,)
        assert res.covariance.shape == (0, 0) and not res.singular_information

    @pytest.mark.parametrize("link", ["lm", "lml"])
    def test_unreached_coefficients_leave_observed_cells_alone(self, link):
        # why they are pinned: moving one changes mu only in empty cells
        t = self.make_table_with_empty_column()
        res = fit(ModelSpec(link), t, FitOptions(allow_missing_cells=True))
        observed = t.column_totals > 0
        base = mu_values_from_beta(res.beta_hat.values, link)
        assert res.unidentified
        for d, e in res.unidentified:
            beta = res.beta_hat.values.copy()
            beta[d, e] += 0.25
            moved = mu_values_from_beta(beta, link)
            assert np.array_equal(moved[:, observed], base[:, observed])
            assert not np.array_equal(moved, base)

    @pytest.mark.parametrize("link", ["lm", "lml"])
    def test_observed_cells_not_closed_under_subsets_report_singular_information(self, link):
        # cells {x0} and {x1} empty, {x0,x1} observed: every coefficient is
        # reached, but the cells alone do not identify them (README)
        V, U = lattices(2, 2)
        counts = np.random.default_rng(3).integers(10, 200, size=(4, 4))
        counts[:, [1, 2]] = 0
        res = fit(ModelSpec(link), CountTable(V, U, counts), FitOptions(allow_missing_cells=True))
        assert res.converged and res.singular_information
        assert res.covariance is None and np.isnan(res.std_errors).all()
        assert (res.df, res.unidentified, res.missing_cells) == (0, (), (1, 2))

    def test_df_counts_only_reached_constraints(self):
        # (3, 3) and (1, 7) sit in empty cells no observed cell reaches:
        # spelling them out changes neither the fit nor its test
        t = self.table_without_x0_interactions()
        options = FitOptions(allow_missing_cells=True)
        one = fit(ModelSpec("lml", [(3, 6)]), t, options)
        three = fit(ModelSpec("lml", [(3, 6), (3, 3), (1, 7)]), t, options)
        assert one.df == three.df == 1 and one.p_value == pytest.approx(0.0128, abs=5e-5)
        assert (three.loglik, three.deviance, three.p_value) == (one.loglik, one.deviance,
                                                                 one.p_value)

    def table_without_x0_interactions(self) -> CountTable:
        V, U = lattices(2, 3)
        counts = np.random.default_rng(15).integers(10, 200, size=(4, 8))
        counts[:, [3, 5, 7]] = 0
        return CountTable(V, U, counts)

    def test_unidentified_scan_matches_loop_and_builds_one_likelihood(self, monkeypatch):
        # cells {x0,x1}, {x0,x2} and {x0,x1,x2} empty: every E holding x0 and
        # another covariate is reached by no observed cell
        t = self.table_without_x0_interactions()
        V, U = t.responses, t.covariates
        spec = ModelSpec("lml", frozenset({(3, 3), (3, 6), (1, 7)}))
        observed = [e for e in range(8) if e not in (3, 5, 7)]
        expected = tuple((d, e) for d, e in free_positions(spec, V, U)
                         if not any(obs & e == e for obs in observed))
        likelihoods, validations = [], []
        validate_for = ModelSpec.validate_for

        def counted_validate_for(self, responses, covariates):
            validations.append(self)
            return validate_for(self, responses, covariates)

        class CountedLikelihood(LogLikelihood):
            def __init__(self, *args, **kwargs):
                likelihoods.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(ModelSpec, "validate_for", counted_validate_for)
        monkeypatch.setattr(lmlreg.inference, "LogLikelihood", CountedLikelihood)
        res = fit(spec, t, FitOptions(allow_missing_cells=True))
        assert res.unidentified == expected
        assert (3, 5) in expected and (3, 3) not in expected
        assert len(likelihoods) == 1
        assert len(validations) <= 2
        assert res.free_pairs is likelihoods[0].free_pairs


class TestObservedCellMasks:
    """Tables whose empty covariate cells hold every superset of a drawn few,
    so the observed cells are closed under subsets and reach exactly their
    own columns."""

    @staticmethod
    def case(p: int, q: int, seed: int, link: str, hit: set[int],
             low: int) -> tuple[CountTable, ModelSpec, np.ndarray]:
        """Counts in [low, 50] on the observed cells; the spec; the observed-cell mask."""
        V, U = lattices(p, q)
        cells = np.arange(U.size)
        observed = ~np.any([(cells & e) == e for e in hit], axis=0)
        counts = np.random.default_rng(seed).integers(low, 51, size=(V.size, U.size))
        counts[:, ~observed] = 0
        return CountTable(V, U, counts), random_constrained_spec(p, q, seed, link), observed

    @given(st.integers(1, 2), st.integers(1, 2), st.integers(0, 10**6),
           st.sampled_from(["lm", "lml"]), st.data())
    @settings(max_examples=25, deadline=None)
    def test_smoothing_is_the_fit_of_doubled_counts_plus_one(self, p, q, seed, link, draw):
        """c + 1/2 on the observed cells is (2c + 1)/2 there: the same estimates
        and pinned set, half the deviance, and a saturated fit with none."""
        hit = draw.draw(st.sets(st.integers(1, 2**q - 1), min_size=1))
        data, spec, observed = self.case(p, q, seed, link, hit, low=0)
        options = FitOptions(smooth=0.5, allow_missing_cells=True)
        smoothed = fit(spec, data, options)
        doubled = fit(spec, CountTable(data.responses, data.covariates,
                                       np.where(observed, 2 * data.counts + 1, 0)),
                      FitOptions(allow_missing_cells=True))
        assert smoothed.converged and doubled.converged
        # each fit stops at a score within GRAD_TOL of 0, so within
        # GRAD_TOL · |Σ| of its optimum, Σ the smoothed fit's covariance
        spread = np.abs(smoothed.covariance).sum(axis=1).max(initial=1.0)
        np.testing.assert_allclose(smoothed.estimates, doubled.estimates,
                                   rtol=0, atol=2 * GRAD_TOL * spread)
        assert smoothed.deviance == pytest.approx(doubled.deviance / 2, rel=0, abs=1e-8)
        assert (smoothed.df, smoothed.unidentified) == (doubled.df, doubled.unidentified)
        assert fit(ModelSpec(link), data, options).deviance <= 1e-8

    @given(st.integers(1, 2), st.integers(1, 2), st.integers(0, 10**6),
           st.sampled_from(["lm", "lml"]), st.data())
    @settings(max_examples=25, deadline=None)
    def test_zeros_no_observed_cell_reaches_change_nothing(self, p, q, seed, link, draw):
        hit = draw.draw(st.sets(st.integers(1, 2**q - 1), min_size=1))
        data, spec, observed = self.case(p, q, seed, link, hit, low=1)
        unreached = [(d, e) for d in range(1, 2**p) for e in np.flatnonzero(~observed).tolist()]
        extra = draw.draw(st.lists(st.sampled_from(unreached), min_size=1))
        options = FitOptions(allow_missing_cells=True)
        base, more = fit(spec, data, options), fit(spec.with_zeros(extra), data, options)
        assert base.converged and more.converged
        assert ((more.loglik, more.deviance, more.df, more.p_value)
                == (base.loglik, base.deviance, base.df, base.p_value))


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

    @pytest.mark.parametrize("seed", [17, 18])
    def test_constrained_lml_matches_loop_oracle(self, seed):
        t = random_table(3, 2, seed, n=20000)
        spec = ModelSpec("lml", frozenset({(3, 2), (5, 3), (6, 1), (7, 3), (7, 1)}))
        res = fit(spec, t)
        assert res.covariance is not None
        vals, ses = induced_mu_stats(res)
        expected = oracle_induced_mu_ses(res.free_index, res.covariance, 3, 2)
        assert np.all(ses[1:] > 0)
        assert np.max(np.abs(ses - expected) / np.where(expected > 0, expected, 1.0)) < 1e-12
        assert np.array_equal(vals, beta_mu_from_beta_gamma(res.beta_hat).values)

    def test_lm_fit_returns_native_values(self):
        t = random_table(2, 1, 16)
        res = fit(ModelSpec("lm", frozenset({(3, 1)})), t)
        vals, ses = induced_mu_stats(res)
        assert np.allclose(vals, res.beta_hat.values)
        assert ses[3, 1] == 0.0


class TestIndependenceStart:
    @pytest.mark.parametrize("p,q", [(1, 1), (3, 2), (4, 1)])
    def test_matches_loop_oracle(self, p, q):
        counts = random_table(p, q, 19).counts.astype(float) + 0.5
        counts[:, 0] = 0.0  # an empty column takes the 0.5 margins
        for c in (counts, np.ones_like(counts)):
            got = _independence_mu(c, p)
            assert np.allclose(got, oracle_independence_mu(c, p), rtol=1e-13, atol=0)


class TestStartingPoint:
    """The lazy candidate search returns the eager search's start bit for bit."""

    @pytest.mark.parametrize("link", ["lm", "lml"])
    def test_empirical_start_is_beta_from_pi_bit_for_bit(self, link):
        for p, q, seed in [(1, 1, 40), (2, 2, 41), (3, 1, 42), (4, 2, 43)]:
            t = random_table(p, q, seed)
            ll = LogLikelihood(random_constrained_spec(p, q, seed, link), t)
            emp = ParamMatrix("pi", t.responses, t.covariates, ll.counts / ll.counts.sum(axis=0))
            assert np.all(t.counts > 0)
            assert np.array_equal(next(_start_candidates(ll)),
                                  ll.free_of(beta_from_pi(emp, link).values))

    @pytest.mark.parametrize("link", ["lm", "lml"])
    def test_matches_eager_oracle(self, link):
        later = 0
        for seed in range(24):
            p, q = [(2, 1), (3, 1), (2, 2), (3, 2)][seed % 4]
            t = random_table(p, q, 200 + seed, n=60)   # sparse: some candidates fail
            ll = LogLikelihood(random_constrained_spec(p, q, seed, link), t)
            x = _starting_point(ll)
            assert np.array_equal(x, oracle_starting_point(ll, t))
            later += not np.array_equal(x, next(_start_candidates(ll)))
        assert later > 0   # the search went past the first candidate

    @pytest.mark.parametrize("link", ["lm", "lml"])
    def test_saturated_and_smoothed(self, link):
        V, U = lattices(2, 1)
        sparse = CountTable(V, U, np.array([[50, 40], [10, 0], [5, 3], [1, 2]], dtype=np.int64))
        for t, options in ((random_table(3, 2, 31), FitOptions()),
                           (sparse, FitOptions(smooth=0.5))):
            ll = LogLikelihood(ModelSpec(link), t, smooth=options.smooth)
            x = _starting_point(ll)
            assert np.array_equal(x, oracle_starting_point(ll, t))


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

    def test_totals_must_be_integers(self):
        V, U = lattices(1, 1)
        beta = ParamMatrix("beta_gamma", V, U, np.array([[0.0, 0.0], [-1.0, 0.2]]))
        for totals in ([2.9, 3.7], ["5", 3], [np.nan, 3], [np.inf, 3]):
            with pytest.raises(ValueError, match="^column totals must be integers$"):
                simulate(beta, "lml", totals, seed=0)
        # integral floats are counts, as in CountTable
        assert np.array_equal(simulate(beta, "lml", [5.0, 3.0], seed=1).counts,
                              simulate(beta, "lml", [5, 3], seed=1).counts)


class TestTableTerms:
    """What depends only on the table and the smoothing value is built once per
    (table, smooth), kept on the table and shared by every fit on it."""

    def test_backward_lml_then_lm_build_each_term_once(self, monkeypatch):
        data = random_table(3, 2, 7, n=400)
        saturated, starts, likelihoods = [], [], []
        real_saturated = lmlreg.inference._saturated_loglik
        real_start = lmlreg.inference.beta_values_from_mu
        real_init = LogLikelihood.__init__
        monkeypatch.setattr(lmlreg.inference, "_saturated_loglik",
                            lambda counts: saturated.append(1) or real_saturated(counts))
        monkeypatch.setattr(lmlreg.inference, "beta_values_from_mu",
                            lambda mu, link: starts.append(link) or real_start(mu, link))
        monkeypatch.setattr(LogLikelihood, "__init__",
                            lambda self, *args, **kw: likelihoods.append(1) or real_init(self, *args, **kw))
        traces = [backward_staged_selection(data, link) for link in ("lml", "lm")]
        assert all(step.fit is not None for trace in traces for step in trace.steps)
        assert len(likelihoods) > 4   # refits of both links
        assert len(saturated) == 1
        (terms,) = data._terms.values()
        assert all(1 <= starts.count(link) <= len(terms._start_mus) for link in ("lml", "lm"))
        # a second pass over the table builds neither again
        before = len(starts)
        for link in ("lml", "lm"):
            backward_staged_selection(data, link)
        assert len(starts) == before and len(saturated) == 1

    def test_each_smoothing_value_has_its_own_read_only_terms(self):
        data = random_table(2, 2, 8)
        plain = fit(ModelSpec("lml"), data)
        smoothed = fit(ModelSpec("lml"), data, FitOptions(smooth=0.5))
        assert set(data._terms) == {None, 0.5}
        assert data._terms[None] is not data._terms[0.5]
        assert plain.loglik != smoothed.loglik
        for terms in data._terms.values():
            arrays = [terms.observed, terms.reached, terms.counts, terms.positive,
                      terms.positive_counts, *terms.start_betas("lml")]
            assert not any(array.flags.writeable for array in arrays)
            with pytest.raises(ValueError):
                terms.counts[0, 0] = 1.0
        assert LogLikelihood(ModelSpec("lml"), data, smooth=0.5).counts is data._terms[0.5].counts

    @pytest.mark.parametrize("link", ["lm", "lml"])
    def test_a_fit_on_a_table_with_terms_equals_one_on_a_fresh_copy(self, link):
        missing = TestMissingCells().make_table_with_empty_column()
        cases = [(random_table(3, 2, 9), random_constrained_spec(3, 2, 9, link), FitOptions()),
                 (random_table(3, 2, 9), ModelSpec(link), FitOptions()),
                 (random_table(3, 2, 9), ModelSpec(link), FitOptions(smooth=0.5)),
                 (missing, ModelSpec(link), FitOptions(smooth=0.5, allow_missing_cells=True)),
                 (missing, ModelSpec(link, {(1, 2), (3, 1)}),
                  FitOptions(smooth=0.5, allow_missing_cells=True))]
        for data, spec, options in cases:
            # other fits on the table first, so the terms are built and some starts cached
            for other in ("lm", "lml"):
                fit(ModelSpec(other), data, options)
            shared = fit(spec, data, options)
            fresh = fit(spec, CountTable(data.responses, data.covariates, data.counts.copy()),
                        options)
            assert shared.estimates.tobytes() == fresh.estimates.tobytes()
            assert shared.information.tobytes() == fresh.information.tobytes()
            assert (shared.loglik, shared.deviance, shared.iterations, shared.unidentified) == (
                fresh.loglik, fresh.deviance, fresh.iterations, fresh.unidentified)


class TestEvaluationAgainstTheFirstRule:
    """Validity and value of π against the rule as first written: finite and
    positive on every observed column, and Σ counts·log π at the positive counts."""

    SPECIAL = (np.nan, np.inf, -np.inf, 0.0, -0.0, -1e-300, -5e-324)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 2), st.integers(0, 10**6), st.data())
    def test_matches(self, p, q, seed, draw):
        rng = np.random.default_rng(seed)
        V, U = lattices(p, q)
        counts = rng.integers(0, 4, size=(2**p, 2**q))
        empty = draw.draw(st.lists(st.booleans(), min_size=2**q, max_size=2**q))
        counts[:, empty] = 0   # any set of unobserved columns, all of them included
        smooth = draw.draw(st.sampled_from([None, 0.5]))
        terms = lmlreg.inference._table_terms(CountTable(V, U, counts), smooth)
        pi = rng.uniform(1e-3, 1.0, size=counts.shape)
        for _ in range(draw.draw(st.integers(0, 3))):
            cell = (draw.draw(st.integers(0, 2**p - 1)), draw.draw(st.integers(0, 2**q - 1)))
            pi[cell] = draw.draw(st.sampled_from(self.SPECIAL))
        want_counts = counts.astype(float)
        observed = counts.sum(axis=0) > 0
        if smooth is not None:
            want_counts[:, observed] += smooth
        want = oracle_validity_and_value(want_counts, pi, observed)
        got = terms.evaluate(pi)
        assert got[0] == want[0]
        assert np.float64(got[1]).tobytes() == np.float64(want[1]).tobytes()
