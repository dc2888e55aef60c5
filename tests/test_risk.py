"""Relative risks, reference values, and implied independence structure."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from lmlreg.inference import CountTable, ModelSpec, fit
from lmlreg.lattice import SubsetLattice, iter_submasks
from lmlreg.params import (
    ParamMatrix,
    beta_from_pi,
    beta_mu_from_beta_gamma,
    gamma_from_mu,
    mu_from_pi,
    pi_from_beta,
)
from lmlreg.risk import (
    RiskEntry,
    implied_covariate_independencies,
    implied_response_independencies,
    reference_coeffs,
    risk_report,
)

from oracles import (
    entry_by_entry_risk_entries,
    fitted_response_independencies,
    log_reference_rr,
    log_relative_risk,
    log_relative_risk_from_mu,
    log_rr_ratio,
    oracle_covariate_independencies,
    oracle_log_reference_rr_product,
    oracle_response_independencies,
    oracle_risk_entries,
)


def lattices(p: int, q: int) -> tuple[SubsetLattice, SubsetLattice]:
    return (SubsetLattice(tuple(f"y{i}" for i in range(p))),
            SubsetLattice(tuple(f"x{i}" for i in range(q))))


def random_pi(p: int, q: int, seed: int) -> ParamMatrix:
    rng = np.random.default_rng(seed)
    raw = rng.gamma(2.0, size=(2**p, 2**q))
    V, U = lattices(p, q)
    return ParamMatrix("pi", V, U, raw / raw.sum(axis=0, keepdims=True))


def gamma_from_pi(pi: ParamMatrix) -> ParamMatrix:
    return gamma_from_mu(mu_from_pi(pi))


def block_product_pi(p_a: int, p_b: int, q: int, seed: int) -> ParamMatrix:
    """pi in which the first p_a responses are independent of the rest per cell."""
    rng = np.random.default_rng(seed)
    na, nb = 2**p_a, 2**p_b
    V, U = lattices(p_a + p_b, q)
    values = np.empty((na * nb, 2**q))
    for j in range(2**q):
        fa = rng.gamma(2.0, size=na)
        fb = rng.gamma(2.0, size=nb)
        fa /= fa.sum()
        fb /= fb.sum()
        for m in range(na * nb):
            values[m, j] = fa[m & (na - 1)] * fb[m >> p_a]
    return ParamMatrix("pi", V, U, values)


class TestReferenceCoeffs:
    def test_requires_beta_mu(self):
        pi = random_pi(2, 1, 0)
        with pytest.raises(ValueError, match="beta_mu"):
            reference_coeffs(pi)

    def test_low_order_rows_are_zero(self):
        bmu = beta_from_pi(random_pi(3, 1, 1), "lm")
        ref = reference_coeffs(bmu)
        assert ref.kind == "ref_b"
        assert np.all(ref.values[0] == 0) and np.all(ref.values[1] == 0)
        assert np.all(ref.values[2] == 0) and np.all(ref.values[4] == 0)

    def test_matches_alternating_subset_sum(self):
        bmu = beta_from_pi(random_pi(3, 1, 2), "lm")
        ref = reference_coeffs(bmu)
        for d in range(2**3):
            if d.bit_count() <= 1:
                continue
            for e in range(2):
                acc = 0.0
                for dp in iter_submasks(d):
                    if dp == d:
                        continue
                    acc += (-1.0) ** ((d ^ dp).bit_count()) * bmu.values[dp, e]
                assert ref.values[d, e] == pytest.approx(-acc, abs=1e-12)


class TestRelativeRisk:
    def test_coefficient_sum_equals_mu_ratio(self):
        pi = random_pi(3, 2, 3)
        bmu = beta_from_pi(pi, "lm")
        mu = mu_from_pi(pi)
        for d in range(1, 8):
            for u, avoid in (("x0", 1), ("x1", 2)):
                for e in range(4):
                    if e & avoid:
                        continue
                    assert log_relative_risk(bmu, d, u, e) == pytest.approx(
                        log_relative_risk_from_mu(mu, d, u, e), abs=1e-10)

    def test_empty_pattern_has_unit_rr(self):
        bmu = beta_from_pi(random_pi(2, 1, 4), "lm")
        assert log_relative_risk(bmu, 0, "x0") == 0.0

    def test_background_cell_must_exclude_u(self):
        bmu = beta_from_pi(random_pi(2, 2, 5), "lm")
        with pytest.raises(ValueError, match="must not contain"):
            log_relative_risk(bmu, 1, "x0", 1)

    def test_kind_checked(self):
        g = gamma_from_pi(random_pi(2, 1, 6))
        with pytest.raises(ValueError, match="beta_mu"):
            log_relative_risk(g, 1, "x0")


class TestReferenceRR:
    def test_two_computations_agree(self):
        for seed in range(5):
            pi = random_pi(3, 2, 10 + seed)
            bmu = beta_from_pi(pi, "lm")
            for d in range(8):
                if d.bit_count() <= 1:
                    continue
                for u, avoid in (("x0", 1), ("x1", 2)):
                    for e in range(4):
                        if e & avoid:
                            continue
                        a = log_reference_rr(bmu, d, u, e)
                        b = oracle_log_reference_rr_product(bmu.values, d, avoid, e)
                        assert a == pytest.approx(b, abs=1e-10)

    def test_singleton_rejected(self):
        bmu = beta_from_pi(random_pi(2, 1, 7), "lm")
        with pytest.raises(ValueError, match=r"\|D\| > 1"):
            log_reference_rr(bmu, 1, "x0")

    def test_ratio_closes_the_identity(self):
        # log RR - log refRR must equal the gamma-coefficient subset sum
        pi = random_pi(3, 2, 9)
        bmu = beta_from_pi(pi, "lm")
        bg = beta_from_pi(pi, "lml")
        for d in (3, 5, 6, 7):
            for u, avoid in (("x0", 1), ("x1", 2)):
                for e in range(4):
                    if e & avoid:
                        continue
                    gap = log_relative_risk(bmu, d, u, e) - log_reference_rr(bmu, d, u, e)
                    assert gap == pytest.approx(log_rr_ratio(bg, d, u, e), abs=1e-10)

    def test_rr_ratio_kind_and_order_checks(self):
        pi = random_pi(2, 1, 11)
        with pytest.raises(ValueError, match="beta_gamma"):
            log_rr_ratio(beta_from_pi(pi, "lm"), 3, "x0")
        with pytest.raises(ValueError, match=r"\|D\| > 1"):
            log_rr_ratio(beta_from_pi(pi, "lml"), 1, "x0")


class TestBlockProduct:
    """Distributions with an exact conditional split of the responses."""

    def test_straddling_gamma_rows_vanish(self):
        pi = block_product_pi(1, 2, 1, 20)
        g = gamma_from_pi(pi)
        for d in (0b011, 0b101, 0b111):  # rows meeting both blocks
            assert np.max(np.abs(g.values[d])) < 1e-10

    def test_rr_equals_reference_on_straddling_patterns(self):
        pi = block_product_pi(1, 2, 1, 21)
        bmu = beta_from_pi(pi, "lm")
        for d in (0b011, 0b101, 0b111):
            lrr = log_relative_risk(bmu, d, "x0")
            lref = log_reference_rr(bmu, d, "x0")
            assert lrr == pytest.approx(lref, abs=1e-10)

    def test_within_block_patterns_keep_their_association(self):
        pi = block_product_pi(1, 2, 1, 22)
        g = gamma_from_pi(pi)
        assert np.max(np.abs(g.values[0b110])) > 1e-6

    def test_independencies_recovered_from_gamma_matrix(self):
        pi = block_product_pi(1, 2, 1, 23)
        bg = beta_from_pi(pi, "lml")
        found = fitted_response_independencies(bg)
        assert (0b011, 0b001, 0b010) in found
        assert (0b101, 0b001, 0b100) in found
        assert (0b111, 0b001, 0b110) in found
        assert (0b110, 0b010, 0b100) not in found

    def test_full_independence_lists_every_bipartition(self):
        pi = block_product_pi(1, 1, 1, 24)
        extended = block_product_pi(2, 1, 1, 24)  # not fully independent
        bg = beta_from_pi(pi, "lml")
        found = fitted_response_independencies(bg)
        assert found == [(3, 1, 2)]
        # the (y0,y1)-block split shows up for every straddling pattern
        assert fitted_response_independencies(beta_from_pi(extended, "lml")) == [
            (0b101, 0b001, 0b100), (0b110, 0b010, 0b100), (0b111, 0b011, 0b100)]


class TestEffectOnAssociationOnly:
    """A covariate can move the pair risk while leaving the association alone."""

    def setup_method(self):
        V, U = lattices(2, 1)
        bg = np.zeros((4, 2))
        bg[1] = [-1.6, 0.7]
        bg[2] = [-1.3, 0.4]
        bg[3] = [0.8, 0.0]  # association present, unmoved by the covariate
        self.beta = ParamMatrix("beta_gamma", V, U, bg)
        self.pi = pi_from_beta(self.beta, "lml")

    def test_ratio_is_zero_but_association_is_not(self):
        bmu = beta_from_pi(self.pi, "lm")
        assert log_rr_ratio(self.beta, 3, "x0") == pytest.approx(0.0, abs=1e-12)
        assert log_relative_risk(bmu, 3, "x0") == pytest.approx(
            log_reference_rr(bmu, 3, "x0"), abs=1e-10)
        g = gamma_from_pi(self.pi)
        assert abs(g.values[3, 0]) > 0.5  # still associated

    def test_joint_rr_factorizes_despite_the_dependence(self):
        # for a pair the reference is the product of marginal RRs, so a zero
        # ratio makes the joint RR multiply out even though the responses
        # remain dependent
        bmu = beta_from_pi(self.pi, "lm")
        joint = log_relative_risk(bmu, 3, "x0")
        split = log_relative_risk(bmu, 1, "x0") + log_relative_risk(bmu, 2, "x0")
        assert joint == pytest.approx(split, abs=1e-10)

    def test_nonzero_ratio_breaks_the_factorization(self):
        moved = np.array(self.beta.values)
        moved[3, 1] = -0.5
        pi = pi_from_beta(self.beta.with_values(moved), "lml")
        bmu = beta_from_pi(pi, "lm")
        joint = log_relative_risk(bmu, 3, "x0")
        split = log_relative_risk(bmu, 1, "x0") + log_relative_risk(bmu, 2, "x0")
        assert joint == pytest.approx(split - 0.5, abs=1e-10)


class TestRiskReport:
    def test_covers_all_pattern_covariate_cell_triples(self):
        pi = random_pi(2, 2, 30)
        V, U = lattices(2, 2)
        counts = np.round(pi.values * 10000).astype(np.int64)
        res = fit(ModelSpec("lml"), CountTable(V, U, counts))
        report = risk_report(res)
        assert len(report.entries) == 3 * 2 * 2
        keys = {(en.d_mask, en.u, en.e_mask) for en in report.entries}
        assert (3, "x0", 2) in keys and (3, "x1", 1) in keys
        assert all(not (en.e_mask & U.mask_of([en.u])) for en in report.entries)

    def test_singletons_have_no_reference(self):
        pi = random_pi(2, 1, 31)
        V, U = lattices(2, 1)
        counts = np.round(pi.values * 10000).astype(np.int64)
        res = fit(ModelSpec("lml"), CountTable(V, U, counts))
        for en in risk_report(res).entries:
            if en.d_mask.bit_count() == 1:
                assert en.log_ref_rr is None and en.log_ratio is None
                assert not en.constrained_zero
            else:
                assert en.log_rr - en.log_ref_rr == pytest.approx(en.log_ratio, abs=1e-9)

    @pytest.mark.parametrize("link", ["lm", "lml"])
    def test_reference_entries_equal_log_reference_rr(self, link):
        V, U = lattices(3, 2)
        counts = np.round(random_pi(3, 2, 34).values * 10000).astype(np.int64)
        res = fit(ModelSpec(link), CountTable(V, U, counts))
        bmu = res.beta_hat if link == "lm" else beta_mu_from_beta_gamma(res.beta_hat)
        for en in risk_report(res).entries:
            if en.d_mask.bit_count() > 1:
                assert en.log_ref_rr == log_reference_rr(bmu, en.d_mask, en.u, en.e_mask)

    @pytest.mark.parametrize("link", ["lm", "lml"])
    def test_matches_loop_oracle(self, link):
        # q = 3 puts a covariate in the middle bit, so the u-slice skips a bit
        V, U = lattices(3, 3)
        counts = np.round(random_pi(3, 3, 37).values * 20000).astype(np.int64)
        zeros = {(3, 2), (3, 6), (5, 2), (5, 3), (7, 2), (7, 3), (7, 6), (6, 5)}
        spec = ModelSpec(link, frozenset(zeros))
        res = fit(spec, CountTable(V, U, counts))
        expected = oracle_risk_entries(res.beta_hat.values, link, spec.zero_set)
        report = risk_report(res)
        assert len(report.entries) == len(expected)
        assert any(en.constrained_zero for en in report.entries) == (link == "lml")
        for en in report.entries:
            lrr, lref, lratio, constrained = expected[en.d_mask, U.mask_of([en.u]), en.e_mask]
            assert en.log_rr == pytest.approx(lrr, abs=1e-12)
            assert en.constrained_zero == constrained
            if lref is None:
                assert en.log_ref_rr is None and en.log_ratio is None
            else:
                assert en.log_ref_rr == pytest.approx(lref, abs=1e-12)
                assert en.log_ratio == pytest.approx(lratio, abs=1e-12)

    @pytest.mark.parametrize("p,q", [(p, q) for p in (1, 2, 3) for q in (1, 2, 3)])
    @pytest.mark.parametrize("link", ["lm", "lml"])
    def test_entries_equal_entry_by_entry_build(self, p, q, link):
        V, U = lattices(p, q)
        rng = np.random.default_rng(10 * p + q)
        counts = np.round(random_pi(p, q, 50 + 10 * p + q).values * 20000).astype(np.int64)
        zeros = frozenset((d, e) for d in range(1, 2**p) for e in range(1, 2**q)
                          if rng.random() < 0.3)
        res = fit(ModelSpec(link, zeros), CountTable(V, U, counts))
        assert res.converged
        assert list(risk_report(res).entries) == entry_by_entry_risk_entries(res)

    def test_constrained_zero_follows_the_zero_set(self):
        V, U = lattices(2, 1)
        rng = np.random.default_rng(32)
        counts = rng.integers(50, 500, size=(4, 2)).astype(np.int64)
        spec = ModelSpec("lml", frozenset({(3, 1)}))
        res = fit(spec, CountTable(V, U, counts))
        entries = {(en.d_mask, en.u, en.e_mask): en for en in risk_report(res).entries}
        en = entries[(3, "x0", 0)]
        assert en.constrained_zero
        assert en.log_ratio == pytest.approx(0.0, abs=1e-12)

    def test_lm_fits_mark_nothing_constrained(self):
        V, U = lattices(2, 1)
        rng = np.random.default_rng(33)
        counts = rng.integers(50, 500, size=(4, 2)).astype(np.int64)
        res = fit(ModelSpec("lm", frozenset({(3, 1)})), CountTable(V, U, counts))
        assert not any(en.constrained_zero for en in risk_report(res).entries)


class TestImpliedResponseIndependencies:
    def test_structural_from_spec_zero_rows(self):
        V, U = lattices(2, 1)
        spec = ModelSpec("lml", frozenset({(3, 0), (3, 1)}))
        assert implied_response_independencies(spec, V, U) == [(3, 1, 2)]

    def test_partial_row_is_not_enough(self):
        V, U = lattices(2, 1)
        spec = ModelSpec("lml", frozenset({(3, 1)}))
        assert implied_response_independencies(spec, V, U) == []

    def test_lm_specs_imply_none(self):
        V, U = lattices(2, 1)
        spec = ModelSpec("lm", frozenset({(3, 0), (3, 1)}))
        assert implied_response_independencies(spec, V, U) == []

    def test_spec_source_requires_lattices(self):
        spec = ModelSpec("lml", frozenset({(3, 0), (3, 1)}))
        with pytest.raises(ValueError, match="lattices"):
            implied_response_independencies(spec)

    @pytest.mark.parametrize("link", ["lml", "lm"])
    @pytest.mark.parametrize("pair, message", [((4, 0), "mask 4 out of range for ground set of size 2"),
                                               ((3, 2), "mask 2 out of range for ground set of size 1")])
    def test_spec_outside_lattices_rejected_like_its_twin(self, link, pair, message):
        V, U = lattices(2, 1)
        spec = ModelSpec(link, frozenset({pair}))
        for scan in (implied_response_independencies, implied_covariate_independencies):
            with pytest.raises(ValueError, match=f"^{message}$"):
                scan(spec, V, U)

    def test_coefficient_matrix_source_rejected(self):
        bg = beta_from_pi(block_product_pi(1, 1, 1, 35), "lml")
        for args in ((bg,), (bg, bg.rows, bg.cols)):
            with pytest.raises(TypeError, match="ModelSpec or FitResult"):
                implied_response_independencies(*args)

    def test_fit_result_uses_its_structural_spec(self):
        V, U = lattices(2, 1)
        rng = np.random.default_rng(34)
        counts = rng.integers(50, 500, size=(4, 2)).astype(np.int64)
        res = fit(ModelSpec("lml", frozenset({(3, 0), (3, 1)})), CountTable(V, U, counts))
        assert implied_response_independencies(res) == [(3, 1, 2)]

    def test_tolerance_scan_on_fitted_matrix(self):
        pi = block_product_pi(1, 1, 1, 35)
        bg = beta_from_pi(pi, "lml")
        noisy = bg.with_values(bg.values + 1e-10 * np.sign(np.random.default_rng(0).normal(size=bg.values.shape)))
        assert fitted_response_independencies(noisy) == [(3, 1, 2)]
        shifted = np.array(bg.values)
        shifted[3] += 1e-3
        assert fitted_response_independencies(bg.with_values(shifted)) == []

    def test_triple_split_requires_all_straddling_rows(self):
        V, U = lattices(3, 1)
        full = {(d, e) for d in (0b011, 0b101, 0b111) for e in range(2)}
        spec = ModelSpec("lml", frozenset(full))
        found = implied_response_independencies(spec, V, U)
        assert (0b111, 0b001, 0b110) in found
        # dropping one straddling row breaks the triple split
        spec2 = ModelSpec("lml", frozenset(full - {(0b111, 0)}))
        assert (0b111, 0b001, 0b110) not in implied_response_independencies(spec2, V, U)


class TestImpliedCovariateIndependencies:
    def test_structural_pattern(self):
        V, U = lattices(2, 1)
        spec = ModelSpec("lml", frozenset({(1, 1)}))
        found = implied_covariate_independencies(spec, V, U)
        assert (1, 1) in found and (3, 1) not in found
        spec_all = ModelSpec("lml", frozenset({(1, 1), (2, 1), (3, 1)}))
        found_all = implied_covariate_independencies(spec_all, V, U)
        assert {(1, 1), (2, 1), (3, 1)} <= set(found_all)

    @pytest.mark.parametrize("link", ["lm", "lml"])
    def test_pattern_really_removes_the_covariate(self, link):
        # zero out every x0-effect: the implied pi must match across cells
        V, U = lattices(2, 1)
        rng = np.random.default_rng(36)
        vals = np.zeros((4, 2))
        vals[1, 0] = -1.2
        vals[2, 0] = -0.8
        vals[3, 0] = 0.3 if link == "lml" else -1.7
        kind = "beta_gamma" if link == "lml" else "beta_mu"
        beta = ParamMatrix(kind, V, U, vals)
        pi = pi_from_beta(beta, link)
        assert np.max(np.abs(pi.values[:, 0] - pi.values[:, 1])) < 1e-12
        spec = ModelSpec(link, frozenset({(1, 1), (2, 1), (3, 1)}))
        assert (3, 1) in implied_covariate_independencies(spec, V, U)


def random_zero_set(p: int, q: int, seed: int, rate: float) -> frozenset[tuple[int, int]]:
    rng = np.random.default_rng(seed)
    return frozenset((d, e) for d in range(1, 2**p) for e in range(2**q) if rng.random() < rate)


class TestIndependenceScansAgainstOracle:
    @pytest.mark.parametrize("p,q", [(2, 1), (3, 2), (4, 1), (3, 3)])
    @pytest.mark.parametrize("link", ["lm", "lml"])
    def test_random_zero_sets(self, p, q, link):
        V, U = lattices(p, q)
        found_any = [0, 0]
        for seed in range(12):
            rate = (0.5, 0.8, 0.95)[seed % 3]
            spec = ModelSpec(link, random_zero_set(p, q, 100 * p + 10 * q + seed, rate))
            resp = implied_response_independencies(spec, V, U)
            cov = implied_covariate_independencies(spec, V, U)
            assert resp == oracle_response_independencies(spec, p, q)
            assert cov == oracle_covariate_independencies(spec, p, q)
            found_any[0] += len(resp)
            found_any[1] += len(cov)
        assert found_any[1] > 0
        assert (found_any[0] > 0) == (link == "lml")
