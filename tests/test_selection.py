"""Stepwise selection procedures and weighted per-size effect summaries."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lmlreg.selection
from lmlreg.inference import (ConvergenceError, CountTable, FitOptions, FitResult, ModelSpec,
                              fit, simulate)
from lmlreg.lattice import SubsetLattice
from lmlreg.params import ParamMatrix
from lmlreg.presets import single_covariate_preset, two_covariate_preset
from lmlreg.selection import (
    CI_Z,
    _drop_rounds,
    average_effects,
    backward_staged_selection,
    forward_margin_selection,
    pattern_weights,
)

from oracles import oracle_pattern_weights


def lattices(p: int, q: int) -> tuple[SubsetLattice, SubsetLattice]:
    return (SubsetLattice(tuple(f"y{i}" for i in range(p))),
            SubsetLattice(tuple(f"x{i}" for i in range(q))))


def random_table(p: int, q: int, seed: int, n: int = 4000) -> CountTable:
    rng = np.random.default_rng(seed)
    V, U = lattices(p, q)
    raw = rng.gamma(2.0, size=(2**p, 2**q))
    pi = raw / raw.sum(axis=0, keepdims=True)
    counts = np.zeros((2**p, 2**q), dtype=np.int64)
    for j in range(2**q):
        counts[:, j] = rng.multinomial(n, pi[:, j])
    return CountTable(V, U, counts)


class TestMarginConsistency:
    def test_margin_fit_equals_joint_rows(self):
        # the association terms of a response subset depend on its marginal
        # table alone, so a saturated margin fit reproduces the joint rows
        t = random_table(3, 1, 0)
        joint = fit(ModelSpec("lml"), t)
        keep = ["y0", "y2"]
        margin = fit(ModelSpec("lml"), t.marginalize(keep))
        keep_mask = t.responses.mask_of(keep)
        for d_sub in range(margin.beta_hat.rows.size):
            d_joint = 0
            bit = 0
            for v in range(t.responses.ground_size):
                if keep_mask >> v & 1:
                    if d_sub >> bit & 1:
                        d_joint |= 1 << v
                    bit += 1
            assert np.allclose(margin.beta_hat.values[d_sub],
                               joint.beta_hat.values[d_joint], atol=1e-10)

    @staticmethod
    def joint_rows(V: SubsetLattice, labels) -> np.ndarray:
        """The joint row of each row of the margin on ``labels``, in margin order."""
        sub = SubsetLattice(labels)
        return np.array([V.mask_of(sub.members(d)) for d in range(sub.size)])

    @given(st.integers(1, 4), st.integers(1, 2), st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_saturated_margin_fits_equal_the_joint_rows(self, p, q, seed):
        # Upward compatibility (Roverato, Lupparelli & La Rocca 2013).  Both
        # fits start at the empirical optimum, so only rounding separates
        # them: at most 1.2e-15 over 300 random tables and all their margins.
        V, U = lattices(p, q)
        t = CountTable(V, U, np.random.default_rng(seed).integers(1, 300, size=(V.size, U.size)))
        joint = fit(ModelSpec("lml"), t)
        for m in range(1, V.size):
            labels = V.members(m)
            margin = fit(ModelSpec("lml"), t.marginalize(labels))
            np.testing.assert_allclose(margin.beta_hat.values,
                                       joint.beta_hat.values[self.joint_rows(V, labels)],
                                       rtol=0, atol=1e-13)

    @given(st.integers(1, 4), st.integers(1, 2), st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_margin_fits_with_constraints_inside_the_margin_equal_the_joint_rows(self, p, q, seed):
        # The same holds when every zero lies in a row D within the margin.
        # The fits stop at a score sup-norm of 1e-8, so they agree only to
        # that accuracy: at most 3.1e-11 over 2,050 margins of 300 tables.
        # The data come from an independence truth (valid for any draw), plus
        # one in every cell; no singleton intercept is constrained, since
        # that would force mu_v(∅) = 1.
        rng = np.random.default_rng(seed)
        V, U = lattices(p, q)
        beta = np.zeros((V.size, U.size))
        singles = 1 << np.arange(p)
        beta[singles] = rng.uniform(-0.2, 0.2, (p, U.size))
        beta[singles, 0] = np.log(rng.uniform(0.2, 0.5, p))
        drawn = simulate(ParamMatrix("beta_gamma", V, U, beta), "lml", [2000] * U.size, seed=rng)
        t = CountTable(V, U, drawn.counts + 1)
        for m in range(1, V.size):
            labels = V.members(m)
            rows = self.joint_rows(V, labels)
            zeros = {(d, e) for d in range(1, rows.size) for e in range(U.size)
                     if (e or d & (d - 1)) and rng.random() < 0.4}
            joint = fit(ModelSpec("lml", {(int(rows[d]), e) for d, e in zeros}), t)
            margin = fit(ModelSpec("lml", zeros), t.marginalize(labels))
            assert joint.converged and margin.converged
            np.testing.assert_allclose(margin.beta_hat.values, joint.beta_hat.values[rows],
                                       rtol=0, atol=1e-9)


class TestForward:
    def test_alpha_validated(self):
        t = random_table(2, 1, 2)
        with pytest.raises(ValueError, match="alpha"):
            forward_margin_selection(t, alpha=0.0)
        with pytest.raises(ValueError, match="alpha"):
            forward_margin_selection(t, alpha=1.5)

    def test_alpha_one_keeps_the_saturated_model(self):
        t = random_table(2, 1, 3)
        trace = forward_margin_selection(t, alpha=1.0)
        assert trace.final_fit.spec.df == 0
        assert trace.zero_set == frozenset()
        assert all(not step.dropped for step in trace.steps)

    def test_visits_margins_by_size_then_joint(self):
        t = random_table(2, 1, 4)
        trace = forward_margin_selection(t, alpha=1.0)
        scopes = [step.scope for step in trace.steps]
        assert scopes == [("y0",), ("y1",), ("y0", "y1"), None]
        assert trace.steps[-1].label == "joint"
        assert trace.final_fit.spec == trace.steps[-1].spec

    def test_recovers_the_generating_zero_set(self):
        preset = single_covariate_preset()
        data = simulate(preset.beta_gamma, "lml", preset.column_totals, seed=1000)
        trace = forward_margin_selection(data)
        assert trace.zero_set == preset.spec.zero_set
        assert trace.final_fit.converged

    def test_margin_estimates_only_approximate_the_joint_fit(self):
        # Zeros selected in margins that are not nested couple the rows of
        # the final joint fit, so a margin step's top row is not that fit's
        # row.  On preset 1 at 2.5 times its totals, seeds 0-9, the largest
        # gap per run was 0.006-0.046; seed 3 gives the 0.046.
        preset = single_covariate_preset()
        totals = tuple(int(2.5 * n) for n in preset.column_totals)
        data = simulate(preset.beta_gamma, "lml", totals, seed=3)
        trace = forward_margin_selection(data)
        joint = trace.final_fit.beta_hat.values
        gaps = [np.abs(step.fit.beta_hat.values[-1] - joint[data.responses.mask_of(step.scope)])
                for step in trace.steps if step.scope is not None]
        assert 1e-3 < np.max(gaps) < 0.1

    def test_margins_inherit_submargin_zeros(self):
        preset = single_covariate_preset()
        data = simulate(preset.beta_gamma, "lml", preset.column_totals, seed=1000)
        trace = forward_margin_selection(data)
        selected: set[tuple[int, int]] = set()
        for step in trace.steps:
            if step.scope is None:
                continue
            V, margin = data.responses, SubsetLattice(step.scope)
            d_joint = V.mask_of(step.scope)
            expected = {
                (margin.mask_of(V.members(dz)), e)
                for (dz, e) in selected
                if dz & d_joint == dz
            }
            own = {(margin.mask_of(V.members(dz)), e) for (dz, e) in step.dropped}
            assert set(step.spec.zero_set) == expected | own
            assert step.fit is not None and step.fit.df == len(step.spec.zero_set)
            selected.update(step.dropped)

    def test_dropping_a_whole_singleton_row_is_reverted(self):
        # an absurd threshold flags boundary-forcing drops; the margin keeps
        # its previous model and records the failure instead of crashing
        V, U = lattices(2, 1)
        pi = np.empty((4, 2))
        for j, (p0, p1) in enumerate(((0.9, 0.5), (0.905, 0.6))):
            pi[:, j] = [(1 - p0) * (1 - p1), p0 * (1 - p1), (1 - p0) * p1, p0 * p1]
        counts = np.round(pi * 2000).astype(np.int64)
        t = CountTable(V, U, counts)
        trace = forward_margin_selection(t, alpha=1e-250)
        by_scope = {step.scope: step for step in trace.steps}
        assert by_scope[("y0",)].error is not None
        assert "failed" in by_scope[("y0",)].error
        assert by_scope[("y0",)].dropped == ()
        assert by_scope[("y0", "y1")].dropped == ((3, 0), (3, 1))
        assert trace.zero_set == frozenset({(3, 0), (3, 1)})

    def test_a_margin_whose_fit_fails_is_recorded_and_skipped(self, monkeypatch):
        t = random_table(2, 1, 5)
        real_fit = lmlreg.selection.fit

        def failing_fit(spec, data, options=None):
            if data.responses.labels == ("y1",):
                raise ConvergenceError("no valid interior starting point found")
            return real_fit(spec, data, options)

        monkeypatch.setattr(lmlreg.selection, "fit", failing_fit)
        trace = forward_margin_selection(t, alpha=1.0)
        step = trace.steps[1]
        assert (step.label, step.scope) == ("margin {y1}", ("y1",))
        assert step.fit is None and step.dropped == ()
        assert step.error == "no valid interior starting point found"
        assert [s.fit is not None for s in trace.steps] == [True, False, True, True]
        assert trace.final_fit.converged


class TestBackward:
    def test_alpha_validated(self):
        t = random_table(2, 1, 5)
        with pytest.raises(ValueError, match="alpha"):
            backward_staged_selection(t, alpha=-0.1)

    def test_single_covariate_starts_saturated(self):
        t = random_table(2, 1, 6)
        trace = backward_staged_selection(t, alpha=1.0)
        assert trace.steps[0].label == "start (saturated)"
        assert trace.steps[0].spec.df == 0
        assert trace.final_fit.spec.df == 0

    def test_two_covariates_start_without_interactions(self):
        t = random_table(2, 2, 7)
        trace = backward_staged_selection(t, alpha=1.0)
        start = trace.steps[0]
        assert start.label == "start (no covariate interactions)"
        assert start.spec.zero_set == frozenset({(d, 3) for d in (1, 2, 3)})
        # nothing beyond the structural zeros is removed at alpha = 1
        assert trace.zero_set == start.spec.zero_set

    def test_stages_run_high_sizes_first(self):
        t = random_table(3, 1, 8)
        trace = backward_staged_selection(t, alpha=1.0)
        labels = [step.label for step in trace.steps]
        assert labels[0] == "start (saturated)"
        assert "{3,2}" in labels[1]
        assert labels[2] == "drop remaining non-significant"

    def test_first_stage_drops_only_the_upper_half_of_sizes(self):
        # independent responses: association terms of every size are null
        V, U = lattices(4, 1)
        marg = np.array([0.3, 0.4, 0.5, 0.6])
        pi = np.array([np.prod(np.where([y >> i & 1 for i in range(4)], marg, 1 - marg))
                       for y in range(16)])
        rng = np.random.default_rng(11)
        counts = np.stack([rng.multinomial(4000, pi) for _ in range(2)], axis=1)
        trace = backward_staged_selection(CountTable(V, U, counts), alpha=0.05)
        first, rest = trace.steps[1].dropped, trace.steps[2].dropped
        assert first and all(d.bit_count() > 2 for d, _ in first)
        assert any(d.bit_count() == 2 for d, _ in rest)

    def test_recovers_the_generating_zero_set(self):
        preset = two_covariate_preset()
        data = simulate(preset.beta_gamma, "lml", preset.column_totals, seed=7000)
        trace = backward_staged_selection(data)
        assert trace.zero_set == preset.spec.zero_set
        assert trace.final_fit.converged

    def test_lm_link_supported(self):
        t = random_table(2, 1, 9)
        trace = backward_staged_selection(t, link="lm", alpha=0.2)
        assert trace.final_fit.spec.link == "lm"
        assert trace.final_fit.converged


class TestDropRounds:
    def test_nan_p_is_never_dropped(self, monkeypatch):
        V, U = lattices(1, 1)
        spec = ModelSpec("lml")
        beta = ParamMatrix("beta_gamma", V, U, np.array([[0.0, 0.0], [-1.0, 0.2]]))
        pi = ParamMatrix("pi", V, U, np.full((2, 2), 0.5))
        res = FitResult(
            spec=spec, beta_hat=beta, pi_hat=pi,
            free_index=((1, 0), (1, 1)),
            estimates=np.array([-1.0, 0.2]),
            covariance=None,
            std_errors=np.array([np.nan, 0.1]),
            wald_p=np.array([np.nan, 0.5]),
            loglik=-10.0, deviance=0.0, df=0, p_value=None,
            converged=True, iterations=1, grad_norm=0.0,
        )
        specs = []
        monkeypatch.setattr(lmlreg.selection, "fit",
                            lambda spec, data, options: specs.append(spec) or res)
        table = CountTable(V, U, np.ones((2, 2), dtype=np.int64))
        _, dropped, err = _drop_rounds(res, table, 0.05, {1}, FitOptions(), single_batch=True)
        assert dropped == [(1, 1)] and err is None
        assert specs[-1].zero_set == {(1, 1)}


class TestFitsOnce:
    """Selection fits no (model, table) pair twice: a stage starts from the
    fit the step before ended with, and the forward joint step reuses the
    last margin's fit, the margin on every response being the table itself."""

    @staticmethod
    def counting_fit(monkeypatch) -> list[tuple]:
        real_fit = lmlreg.selection.fit
        seen: list[tuple] = []

        def counted(spec, data, options=None):
            seen.append((spec, data.responses, data.counts.tobytes()))
            return real_fit(spec, data, options)

        monkeypatch.setattr(lmlreg.selection, "fit", counted)
        return seen

    def test_forward_fits_each_model_once(self, monkeypatch):
        seen = self.counting_fit(monkeypatch)
        preset = single_covariate_preset()
        data = simulate(preset.beta_gamma, "lml", preset.column_totals, seed=1000)
        trace = forward_margin_selection(data)
        assert len(seen) == len(set(seen))
        assert trace.final_fit is trace.steps[-2].fit
        assert trace.steps[-1].fit is trace.final_fit

    def test_backward_fits_each_model_once(self, monkeypatch):
        seen = self.counting_fit(monkeypatch)
        preset = two_covariate_preset()
        data = simulate(preset.beta_gamma, "lml", preset.column_totals, seed=7000)
        steps = [trace.steps for trace in (backward_staged_selection(data, link="lml"),
                                           backward_staged_selection(data, link="lm"))]
        assert len(seen) == len(set(seen))
        # on this sample lml drops in both stages and lm in neither
        idle = [(run[i - 1], run[i]) for run in steps for i in range(1, len(run)) if not run[i].dropped]
        assert len(idle) == 2
        for before, stage in idle:
            assert stage.fit is before.fit


class TestPatternWeights:
    def test_counts_observations_covering_each_pattern(self):
        V, U = lattices(2, 1)
        counts = np.array([[5, 1], [7, 2], [11, 3], [13, 4]], dtype=np.int64)
        t = CountTable(V, U, counts)
        w = pattern_weights(t)
        totals = counts.sum(axis=1)
        assert w[0] == totals.sum()
        assert w[1] == totals[1] + totals[3]
        assert w[2] == totals[2] + totals[3]
        assert w[3] == totals[3]

    @pytest.mark.parametrize("p,q", [(1, 1), (3, 2), (5, 1)])
    def test_matches_loop_oracle_exactly(self, p, q):
        t = random_table(p, q, 40 + p)
        assert np.array_equal(pattern_weights(t), oracle_pattern_weights(t.counts))


class TestAverageEffects:
    def make_fit(self, seed: int = 10):
        t = random_table(2, 1, seed)
        return fit(ModelSpec("lml"), t), t

    def test_weighted_mean_of_fitted_effects(self):
        res, t = self.make_fit()
        w = pattern_weights(t)
        effects = {ae.k: ae for ae in average_effects(res, t, "x0")}
        b = res.beta_hat.values
        k1 = (w[1] * b[1, 1] + w[2] * b[2, 1]) / (w[1] + w[2])
        assert effects[1].estimate == pytest.approx(k1, abs=1e-12)
        assert effects[2].estimate == pytest.approx(b[3, 1], abs=1e-12)

    def test_top_size_matches_single_coefficient_stats(self):
        res, t = self.make_fit(11)
        ae = {e.k: e for e in average_effects(res, t, "x0")}[2]
        i = res.free_index.index((3, 1))
        est, se = res.estimates[i], res.std_errors[i]
        assert ae.estimate == pytest.approx(est)
        assert ae.se == pytest.approx(se, rel=1e-12)

    def test_ci_is_z_times_se(self):
        res, t = self.make_fit(12)
        for ae in average_effects(res, t, "x0"):
            assert ae.ci[0] == pytest.approx(ae.estimate - CI_Z * ae.se)
            assert ae.ci[1] == pytest.approx(ae.estimate + CI_Z * ae.se)

    def test_constrained_coefficients_contribute_no_variance(self):
        t = random_table(2, 1, 13)
        res = fit(ModelSpec("lml", frozenset({(3, 1)})), t)
        ae = {e.k: e for e in average_effects(res, t, "x0")}[2]
        assert ae.estimate == 0.0
        assert ae.se == 0.0
        assert ae.ci == (0.0, 0.0)

    def test_weights_are_scale_invariant(self):
        res, t = self.make_fit(14)
        doubled = CountTable(t.responses, t.covariates, t.counts * 2)
        a = average_effects(res, t, "x0")
        b = average_effects(res, doubled, "x0")
        for x, y in zip(a, b):
            assert x.estimate == pytest.approx(y.estimate, abs=1e-12)

    def test_unobserved_size_is_skipped_with_warning(self):
        V, U = lattices(2, 1)
        counts = np.array([[40, 30], [20, 10], [15, 12], [0, 0]], dtype=np.int64)
        t = CountTable(V, U, counts)
        res = fit(ModelSpec("lml"), t, FitOptions(smooth=0.5))
        with pytest.warns(UserWarning, match="size 2"):
            effects = average_effects(res, t, "x0")
        assert [ae.k for ae in effects] == [1]

    def test_shape_mismatch_rejected(self):
        res, _ = self.make_fit(15)
        other = random_table(3, 1, 16)
        with pytest.raises(ValueError, match="do not match"):
            average_effects(res, other, "x0")
