"""Subset lattice, zeta/Möbius matrices, and fast transforms."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lmlreg.lattice import (
    SubsetLattice,
    mobius_transform,
    zeta_transform,
)
from lmlreg.params import mu_values_from_beta

from oracles import mobius_matrix, zeta_matrix


@pytest.fixture
def bcdr() -> SubsetLattice:
    return SubsetLattice(("b", "c", "d", "r"))


class TestSubsetLattice:
    def test_sizes(self, bcdr):
        assert bcdr.ground_size == 4
        assert bcdr.size == 16

    def test_mask_round_trip(self, bcdr):
        for mask in range(16):
            assert bcdr.mask_of(bcdr.members(mask)) == mask

    def test_format_and_parse(self, bcdr):
        assert bcdr.format_mask(0) == "{}"
        assert bcdr.format_mask(0b0101) == "{b,d}"
        assert bcdr.parse_subset("{b,d}") == 0b0101
        assert bcdr.parse_subset("d,b") == 0b0101
        assert bcdr.parse_subset("{}") == 0

    def test_parse_rejects_unknown_label(self, bcdr):
        with pytest.raises(ValueError, match="unknown"):
            bcdr.parse_subset("{b,x}")

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_every_spelling_parses(self, data):
        """The printed label, a reordered, an unbraced, a repeated and a padded
        spelling (``{ }`` for the empty set) all parse to the mask; an unknown
        member still names itself."""
        label = st.text(st.characters(blacklist_characters=",;{} \t",
                                      blacklist_categories=("Cs", "Cc", "Zs", "Zl", "Zp")),
                        min_size=1, max_size=4)
        labels = data.draw(st.lists(label, min_size=1, max_size=5, unique=True))
        lat = SubsetLattice(tuple(labels))
        for mask in range(lat.size):
            members = list(lat.members(mask))
            shuffled = data.draw(st.permutations(members))
            spellings = [lat.format_mask(mask), "{" + ",".join(shuffled) + "}",
                         ",".join(shuffled), "{" + ",".join(members + members[:1]) + "}",
                         " { " + " , ".join(members) + " }\t"]
            assert [lat.parse_subset(text) for text in spellings] == [mask] * len(spellings)
        unknown = data.draw(label.filter(lambda lab: lab not in labels))
        with pytest.raises(ValueError) as exc:
            lat.parse_subset("{" + ",".join([labels[0], unknown]) + "}")
        assert str(exc.value) == f"unknown label {unknown!r}; expected one of {tuple(labels)}"

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            SubsetLattice(("a", "a"))

    def test_reserved_characters_rejected(self):
        for bad in ("a,b", "a;b", "{a}", "a b"):
            with pytest.raises(ValueError):
                SubsetLattice((bad,))

    def test_ground_size_limits(self):
        with pytest.raises(ValueError):
            SubsetLattice(())
        with pytest.raises(ValueError):
            SubsetLattice(tuple(f"v{i}" for i in range(21)))
        assert SubsetLattice(tuple(f"v{i}" for i in range(20))).size == 2**20

    def test_masks_by_cardinality_order(self, bcdr):
        order = list(bcdr.masks_by_cardinality())
        labels = [bcdr.format_mask(m) for m in order]
        assert labels[:4] == ["{b}", "{c}", "{d}", "{r}"]
        assert labels[4:10] == ["{b,c}", "{b,d}", "{b,r}", "{c,d}", "{c,r}", "{d,r}"]
        assert labels[-1] == "{b,c,d,r}"
        assert len(order) == 15


class TestTransformShape:
    @pytest.mark.parametrize("n", [0, 3, 6])
    def test_axis_length_not_a_power_of_two(self, n):
        with pytest.raises(ValueError, match=f"^axis length {n} is not a power of two$"):
            zeta_transform(np.zeros((2, n)))


class TestDenseMatrices:
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_mobius_inverts_zeta(self, n):
        lat = SubsetLattice(tuple(f"v{i}" for i in range(n)))
        Z = zeta_matrix(lat)
        M = mobius_matrix(lat)
        assert np.array_equal(M @ Z, np.eye(2**n))
        assert np.array_equal(Z @ M, np.eye(2**n))

    def test_zeta_entries(self):
        lat = SubsetLattice(("x", "y"))
        Z = zeta_matrix(lat)
        # Z[E, H] = 1 iff E is a subset of H
        expected = np.array([[1, 1, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1], [0, 0, 0, 1]])
        assert np.array_equal(Z, expected)


class TestFastTransforms:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
    def test_matches_dense_products(self, n):
        lat = SubsetLattice(tuple(f"v{i}" for i in range(n)))
        Z = zeta_matrix(lat)
        M = mobius_matrix(lat)
        rng = np.random.default_rng(n)
        A = rng.normal(size=(2**n, 3))
        v = rng.normal(size=2**n)

        assert np.allclose(zeta_transform(A, axis=0), Z.T @ A)
        assert np.allclose(zeta_transform(A, axis=0, supersets=True), Z @ A)
        assert np.allclose(mobius_transform(A, axis=0), M.T @ A)
        assert np.allclose(mobius_transform(A, axis=0, supersets=True), M @ A)
        assert np.allclose(zeta_transform(A.T, axis=1), A.T @ Z)
        assert np.allclose(mobius_transform(A.T, axis=1), A.T @ M)
        assert np.allclose(zeta_transform(v), v @ Z)
        assert np.allclose(mobius_transform(v), v @ M)

    @given(st.integers(min_value=0, max_value=5), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=60)
    def test_round_trip_property(self, n, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=2**n)
        back = mobius_transform(zeta_transform(x))
        assert np.allclose(back, x, atol=1e-12)

    def test_subset_sum_semantics(self):
        # zeta over subsets: entry H accumulates all E below it
        x = np.zeros(8)
        x[0b011] = 1.0
        y = zeta_transform(x)
        hits = {h for h in range(8) if y[h] == 1.0}
        assert hits == {h for h in range(8) if 0b011 & h == 0b011}

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            zeta_transform(np.zeros(6))
        with pytest.raises(ValueError):
            mobius_transform(np.zeros((5, 2)), axis=0)


def dense_apply(x: np.ndarray, axis: int, supersets: bool, inverse: bool) -> np.ndarray:
    """The transform as the dense matrix product along ``axis``."""
    n = x.shape[axis].bit_length() - 1
    lat = SubsetLattice(tuple(f"v{i}" for i in range(n)))
    mat = (mobius_matrix if inverse else zeta_matrix)(lat)
    # out[S] = Σ_T mat[T, S] x[T] for subsets, Σ_T mat[S, T] x[T] for supersets
    mat = mat if supersets else mat.T
    return np.moveaxis(np.tensordot(mat, x, axes=([1], [axis])), 0, axis)


TRANSFORMS = [(zeta_transform, False), (mobius_transform, True)]


class TestKernel:
    """The one butterfly behind both transforms against the dense matrices."""

    @pytest.mark.parametrize("axis", [0, 1, 2, -1, -2, -3])
    @pytest.mark.parametrize("supersets", [False, True])
    @pytest.mark.parametrize("transform,inverse", TRANSFORMS)
    def test_every_axis_of_a_3d_array(self, axis, supersets, transform, inverse):
        rng = np.random.default_rng(axis + 7)
        x = rng.normal(size=(4, 8, 2))
        got = transform(x, axis=axis, supersets=supersets)
        assert got.shape == x.shape
        assert np.allclose(got, dense_apply(x, axis, supersets, inverse), atol=1e-12)

    @pytest.mark.parametrize("supersets", [False, True])
    @pytest.mark.parametrize("transform,inverse", TRANSFORMS)
    def test_non_contiguous_input(self, supersets, transform, inverse):
        x = np.random.default_rng(3).normal(size=(16, 8, 3)).transpose(2, 0, 1)
        assert not x.flags.c_contiguous
        for axis in (1, 2):
            got = transform(x, axis=axis, supersets=supersets)
            assert np.allclose(got, dense_apply(x, axis, supersets, inverse), atol=1e-12)

    @pytest.mark.parametrize("shape,axis", [((0, 8), 1), ((8, 0), 0)])
    @pytest.mark.parametrize("transform,inverse", TRANSFORMS)
    def test_zero_size_batch_axes(self, shape, axis, transform, inverse):
        for supersets in (False, True):
            got = transform(np.zeros(shape), axis=axis, supersets=supersets)
            assert got.shape == shape

    @pytest.mark.parametrize("supersets", [False, True])
    @pytest.mark.parametrize("transform,inverse", TRANSFORMS)
    def test_input_left_unmodified(self, supersets, transform, inverse):
        x = np.random.default_rng(4).normal(size=(8, 4))
        before = x.copy()
        out = transform(x, axis=0, supersets=supersets)
        assert np.array_equal(x, before)
        assert not np.shares_memory(out, x)
        ints = np.arange(8)
        assert np.array_equal(transform(ints, supersets=supersets),
                              dense_apply(ints.astype(float), 0, supersets, inverse))
        assert np.array_equal(ints, np.arange(8))

    def test_plans_do_not_leak_between_layouts(self):
        # The pass layout is memoised per (shape, axis, orientation).  One
        # sequence of calls reuses and mixes the plans: square arrays, whose
        # axes differ only by the axis, a transposed view and an F-order copy
        # of the same values, every axis of a 3-D array, and negative axes.
        rng = np.random.default_rng(5)
        square = rng.normal(size=(8, 8))
        block = rng.normal(size=(4, 8, 2))
        cases = [(square, 0), (square, 1), (square, -1), (square.T, 0), (square.T, -2),
                 (np.asfortranarray(square), 0), (np.asfortranarray(square), 1),
                 (rng.normal(size=(4, 8)).T, 1), (np.asfortranarray(block), 1)]
        cases += [(block, axis) for axis in (0, 1, 2, -1, -2, -3)]
        for _ in range(2):
            for x, axis in cases:
                for supersets in (False, True):
                    for transform, inverse in TRANSFORMS:
                        got = transform(x, axis=axis, supersets=supersets)
                        assert got.shape == x.shape
                        np.testing.assert_allclose(got, dense_apply(x, axis, supersets, inverse),
                                                   rtol=0, atol=1e-12)


class TestFusedTransform:
    """Two subset sums, along rows and then down columns, are one subset sum
    over the C-order flattened index d·2**q + e: the passes over the bits of
    e and then of d are the same additions in the same order."""

    @given(st.integers(1, 6), st.integers(1, 4), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_flattened_transform_is_the_two_axis_transform_bitwise(self, p, q, seed):
        b = np.random.default_rng(seed).normal(size=(2**p, 2**q))
        b[0] = 0.0
        both = zeta_transform(zeta_transform(b, axis=-1), axis=0)
        assert np.array_equal(zeta_transform(b.reshape(-1)).reshape(b.shape), both)
        assert np.array_equal(mu_values_from_beta(b, "lml"), np.exp(both))
