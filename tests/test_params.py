"""Parameterization chain: pi <-> mu <-> gamma <-> regression coefficients."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lmlreg.lattice import SubsetLattice
from lmlreg.params import (
    BoundaryError,
    ParamMatrix,
    ValidationError,
    beta_from_pi,
    beta_gamma_from_beta_mu,
    beta_mu_from_beta_gamma,
    coeffs_from_link,
    gamma_from_mu,
    link_from_coeffs,
    mu_from_gamma,
    mu_from_pi,
    pi_from_beta,
    pi_from_mu,
    validate,
)

from oracles import zeta_matrix


def random_pi(p: int, q: int, seed: int, concentration: float = 1.0) -> ParamMatrix:
    rng = np.random.default_rng(seed)
    V = SubsetLattice(tuple(f"y{i}" for i in range(p)))
    U = SubsetLattice(tuple(f"x{i}" for i in range(q)))
    raw = rng.gamma(concentration, size=(2**p, 2**q))
    raw = np.clip(raw, 1e-6, None)
    return ParamMatrix("pi", V, U, raw / raw.sum(axis=0, keepdims=True))


class TestParamMatrix:
    def test_shape_checked(self):
        V = SubsetLattice(("y",))
        U = SubsetLattice(("x",))
        with pytest.raises(ValueError):
            ParamMatrix("pi", V, U, np.zeros((3, 2)))

    def test_values_write_locked(self):
        pm = random_pi(2, 1, 0)
        with pytest.raises(ValueError):
            pm.values[0, 0] = 0.5

    def test_unknown_kind_rejected(self):
        V = SubsetLattice(("y",))
        U = SubsetLattice(("x",))
        with pytest.raises(ValueError):
            ParamMatrix("theta", V, U, np.zeros((2, 2)))


class TestValidate:
    def test_valid_pi_accepted(self):
        validate(random_pi(3, 2, 1))

    def test_zero_probability_rejected_with_cell(self):
        pm = random_pi(2, 1, 2)
        vals = pm.values.copy()
        vals[2, 1] = 0.0
        vals[:, 1] /= vals[:, 1].sum()
        with pytest.raises(ValidationError, match="y1"):
            validate(pm.with_values(vals))

    def test_bad_column_sum_rejected(self):
        pm = random_pi(2, 1, 3)
        with pytest.raises(ValidationError, match="sums to"):
            validate(pm.with_values(pm.values * 1.01))

    def test_mu_monotonicity_enforced(self):
        V = SubsetLattice(("y0", "y1"))
        U = SubsetLattice(("x",))
        vals = np.array([[1, 1], [0.3, 0.3], [0.4, 0.4], [0.35, 0.39]])
        with pytest.raises(ValidationError):
            validate(ParamMatrix("mu", V, U, vals))

    def test_gamma_empty_row_must_be_zero(self):
        V = SubsetLattice(("y",))
        U = SubsetLattice(("x",))
        with pytest.raises(ValidationError):
            validate(ParamMatrix("gamma", V, U, np.array([[0.1, 0.0], [-1.0, -1.0]])))


class TestChain:
    @pytest.mark.parametrize("p,q,seed", [(1, 1, 0), (2, 1, 1), (3, 2, 2), (4, 2, 3), (5, 3, 4)])
    def test_full_round_trip(self, p, q, seed):
        pi = random_pi(p, q, seed)
        mu = mu_from_pi(pi)
        gamma = gamma_from_mu(mu)
        back = pi_from_mu(mu_from_gamma(gamma))
        assert np.max(np.abs(back.values - pi.values)) < 1e-12

    def test_mu_is_superset_sums(self):
        pi = random_pi(3, 1, 5)
        mu = mu_from_pi(pi)
        for d in range(8):
            for e in range(2):
                expected = sum(pi.values[m, e] for m in range(8) if m & d == d)
                assert mu.values[d, e] == pytest.approx(expected, abs=1e-14)

    def test_mu_empty_row_is_one(self):
        mu = mu_from_pi(random_pi(4, 2, 6))
        assert np.allclose(mu.values[0], 1.0)

    def test_gamma_of_independence_has_zero_interactions(self):
        # independent responses: gamma vanishes above singletons
        V = SubsetLattice(("y0", "y1", "y2"))
        U = SubsetLattice(("x",))
        m = np.array([0.3, 0.5, 0.25])
        pi_vals = np.zeros((8, 2))
        for mask in range(8):
            prob = 1.0
            for i in range(3):
                prob *= m[i] if mask >> i & 1 else 1 - m[i]
            pi_vals[mask] = prob
        gamma = gamma_from_mu(mu_from_pi(ParamMatrix("pi", V, U, pi_vals)))
        for d in range(8):
            if d.bit_count() > 1:
                assert np.allclose(gamma.values[d], 0.0, atol=1e-12)

    def test_pi_from_mu_boundary_error_names_cell(self):
        V = SubsetLattice(("y0", "y1"))
        U = SubsetLattice(("x",))
        vals = np.array([[1, 1], [0.6, 0.5], [0.6, 0.5], [0.1, 0.2]])
        with pytest.raises(BoundaryError) as err:
            pi_from_mu(ParamMatrix("mu", V, U, vals))
        assert err.value.row_mask == 0
        assert err.value.col_mask == 0

    def test_nonpositive_mu_rejected_by_gamma(self):
        V = SubsetLattice(("y",))
        U = SubsetLattice(("x",))
        with pytest.raises(ValidationError):
            gamma_from_mu(ParamMatrix("mu", V, U, np.array([[1.0, 1.0], [0.5, 0.0]])))


class TestCoefficients:
    def test_coeffs_round_trip(self):
        rng = np.random.default_rng(7)
        theta = rng.normal(size=(8, 4))
        assert np.allclose(link_from_coeffs(coeffs_from_link(theta)), theta, atol=1e-12)

    def test_beta_empty_covariate_column_is_intercept(self):
        # with a single covariate cell the coefficients equal the link values
        rng = np.random.default_rng(8)
        theta = rng.normal(size=(4, 1))
        assert np.allclose(coeffs_from_link(theta), theta)

    def test_link_conversion_is_columnwise_zeta(self):
        rng = np.random.default_rng(9)
        V = SubsetLattice(("y0", "y1"))
        bg = rng.normal(size=(4, 2))
        bg[0] = 0.0
        Z = zeta_matrix(V)
        U = SubsetLattice(("x",))
        bm = beta_mu_from_beta_gamma(ParamMatrix("beta_gamma", V, U, bg))
        assert np.allclose(bm.values, Z.T @ bg, atol=1e-13)
        back = beta_gamma_from_beta_mu(bm)
        assert np.allclose(back.values, bg, atol=1e-13)

    @pytest.mark.parametrize("link", ["lm", "lml"])
    def test_beta_pi_round_trip(self, link):
        pi = random_pi(3, 2, 10)
        beta = beta_from_pi(pi, link)
        assert beta.kind == ("beta_mu" if link == "lm" else "beta_gamma")
        assert np.allclose(beta.values[0], 0.0)
        back = pi_from_beta(beta, link)
        assert np.max(np.abs(back.values - pi.values)) < 1e-11

    def test_beta_kind_must_match_link(self):
        pi = random_pi(2, 1, 11)
        beta = beta_from_pi(pi, "lm")
        with pytest.raises(ValueError):
            pi_from_beta(beta, "lml")

    def test_invalid_beta_hits_boundary(self):
        V = SubsetLattice(("y0", "y1"))
        U = SubsetLattice(("x",))
        vals = np.zeros((4, 2))
        vals[1] = vals[2] = [-0.1, 0.0]   # huge marginals, strong overlap
        vals[3] = [0.5, 0.0]
        with pytest.raises(BoundaryError):
            pi_from_beta(ParamMatrix("beta_gamma", V, U, vals), "lml")


class TestChainProperty:
    @given(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=2),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip_many(self, p, q, seed):
        pi = random_pi(p, q, seed)
        for link in ("lm", "lml"):
            back = pi_from_beta(beta_from_pi(pi, link), link)
            assert np.max(np.abs(back.values - pi.values)) < 1e-11
