import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from kframes import (
    ShapeMismatchError,
    SubspaceBasis,
    TolerancePolicy,
    null_space_basis,
    operator_norm,
    pseudo_inverse,
    range_basis,
    range_projector,
    rank_of,
    restricted_operator,
    svd_factor,
)
from kframes.linalg import column_blocks, stacked_ranks
from kframes.fixtures import FIXTURES

FC = FIXTURES["FIX-C"].F
FB_K = FIXTURES["FIX-B"].K


def _collinear(u, v, atol=1e-9):
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    return np.linalg.norm(np.outer(u, v) - np.outer(v, u)) < atol * (
        1 + np.linalg.norm(u) * np.linalg.norm(v)
    )


class TestSvdFactor:
    def test_identity(self):
        _, s, _ = svd_factor(np.eye(3))
        np.testing.assert_allclose(s, [1.0, 1.0, 1.0])

    def test_zero_matrix(self):
        _, s, _ = svd_factor(np.zeros((2, 4)))
        np.testing.assert_allclose(s, [0.0, 0.0])

    def test_reconstruction_and_ordering(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((5, 3))
        u, s, v = svd_factor(m)
        sigma = np.zeros((5, 3))
        sigma[:3, :3] = np.diag(s)
        np.testing.assert_allclose(u @ sigma @ v.T, m, atol=1e-12)
        assert np.all(np.diff(s) <= 0) and np.all(s >= 0)

    def test_fixture_against_second_implementation(self):
        # Cross-check singular values with a different LAPACK driver and
        # with the eigendecomposition of the Gram matrix.
        _, s, _ = svd_factor(FC)
        _, s_gesvd, _ = scipy.linalg.svd(FC, lapack_driver="gesvd")
        np.testing.assert_allclose(s, s_gesvd, atol=1e-9)
        eigs = np.sort(np.linalg.eigvalsh(FC.T @ FC))[::-1]
        np.testing.assert_allclose(s, np.sqrt(np.clip(eigs, 0, None)), atol=1e-9)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            svd_factor(np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestRank:
    def test_identity(self):
        assert rank_of(np.eye(4)) == 4

    def test_operator_fixture(self):
        assert rank_of(FB_K) == 2

    def test_synthesis_fixture(self):
        # One kernel direction (column 4 = column 1 / 2 + column 2), so 3.
        assert rank_of(FC) == 3

    def test_scale_invariance(self):
        m = np.array([[1.0, 2.0], [2.0, 4.0]])
        assert rank_of(m) == rank_of(1e8 * m) == rank_of(1e-8 * m) == 1


class TestStackedRanks:
    """One stacked SVD decides each block as an SVD of that block alone."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        count=st.integers(1, 5),
        n=st.integers(1, 5),
        k=st.integers(0, 6),
        rank=st.integers(0, 5),
        exponent=st.integers(-300, 300),
    )
    def test_bit_equal_to_one_svd_per_block(self, seed, count, n, k, rank, exponent):
        rng = np.random.default_rng(seed)
        r = min(rank, n, k)
        blocks = rng.standard_normal((count, n, r)) @ rng.standard_normal((count, r, k))
        blocks = blocks * 2.0**exponent
        blocks[0] = 0.0
        cutoff = 1e-9 * 2.0**exponent
        ranks, fixed = stacked_ranks(blocks), stacked_ranks(blocks, cutoff=cutoff)
        assert ranks.shape == fixed.shape == (count,)
        stacked = np.linalg.svd(blocks, compute_uv=False) if k else None
        for i, block in enumerate(blocks):
            assert ranks[i] == rank_of(block)
            if k == 0:
                assert ranks[i] == fixed[i] == 0
                continue
            alone = np.linalg.svd(block, compute_uv=False)
            assert np.array_equal(stacked[i], alone)
            assert fixed[i] == np.count_nonzero(alone > cutoff)
        assert ranks[0] == 0

    def test_column_blocks(self):
        mat = np.arange(12.0).reshape(3, 4)
        subsets = np.array([[0, 2], [1, 3], [2, 3]])
        blocks = column_blocks(mat, subsets)
        assert blocks.shape == (3, 3, 2)
        for block, cols in zip(blocks, subsets):
            assert np.array_equal(block, mat[:, cols])
        assert column_blocks(mat, np.zeros((1, 0), dtype=int)).shape == (1, 3, 0)


class TestPseudoInverse:
    def test_invertible_diagonal(self):
        p = pseudo_inverse(np.diag([2.0, 4.0]))
        np.testing.assert_allclose(p, np.diag([0.5, 0.25]))

    def test_orthonormal_columns(self):
        f = FIXTURES["FIX-A"].F
        np.testing.assert_allclose(pseudo_inverse(f), f.T, atol=1e-12)

    def test_rank_one(self):
        p = pseudo_inverse(np.ones((2, 2)))
        np.testing.assert_allclose(p, 0.25 * np.ones((2, 2)), atol=1e-12)

    @seed(20240)
    @settings(max_examples=60, deadline=None)
    @given(
        arrays(
            np.float64,
            (4, 3),
            elements=st.floats(min_value=-10, max_value=10, allow_nan=False),
        )
    )
    def test_penrose_identities(self, m):
        p = pseudo_inverse(m)
        m_scale = 1e-8 * (1 + np.linalg.norm(m))
        p_scale = 1e-8 * (1 + np.linalg.norm(p))
        assert np.linalg.norm(m @ p @ m - m) <= m_scale
        assert np.linalg.norm(p @ m @ p - p) <= p_scale
        assert np.linalg.norm((m @ p).T - m @ p) <= 1e-8 * (1 + np.linalg.norm(m @ p))
        assert np.linalg.norm((p @ m).T - p @ m) <= 1e-8 * (1 + np.linalg.norm(p @ m))


class TestNullSpace:
    def test_identity_empty(self):
        assert null_space_basis(np.eye(3)).dim == 0

    def test_synthesis_fixture(self):
        basis = null_space_basis(FC)
        assert basis.dim == 1
        expected = np.array([0.5, 1.0, 0.0, -1.0]) / 1.5
        np.testing.assert_allclose(basis.basis[:, 0], expected, atol=1e-10)

    def test_wide_row(self):
        basis = null_space_basis(np.array([[1.0, 1.0]]))
        np.testing.assert_allclose(
            basis.basis[:, 0], np.array([1.0, -1.0]) / np.sqrt(2), atol=1e-12
        )

    @seed(20241)
    @settings(max_examples=60, deadline=None)
    @given(
        arrays(
            np.float64,
            (3, 5),
            elements=st.floats(min_value=-5, max_value=5, allow_nan=False),
        )
    )
    def test_rank_nullity(self, m):
        assert rank_of(m) + null_space_basis(m).dim == m.shape[1]

    def test_basis_annihilates(self):
        rng = np.random.default_rng(11)
        m = rng.standard_normal((3, 6))
        basis = null_space_basis(m)
        assert np.linalg.norm(m @ basis.basis) < 1e-10


class TestRangeProjector:
    def test_operator_fixture(self):
        p = range_projector(FIXTURES["FIX-A"].K)
        np.testing.assert_allclose(p, np.diag([1.0, 0.0, 0.0]), atol=1e-12)

    def test_full_rank_square(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((4, 4)) + 4 * np.eye(4)
        np.testing.assert_allclose(range_projector(m), np.eye(4), atol=1e-10)

    def test_zero(self):
        np.testing.assert_allclose(range_projector(np.zeros((3, 2))), np.zeros((3, 3)))

    def test_matches_gram_projector(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            m = rng.standard_normal((4, 3)) @ rng.standard_normal((3, 5))
            np.testing.assert_allclose(
                range_projector(m), range_projector(m @ m.T), atol=1e-8
            )

    def test_idempotent_and_fixing(self):
        rng = np.random.default_rng(7)
        m = rng.standard_normal((5, 2))
        p = range_projector(m)
        np.testing.assert_allclose(p @ p, p, atol=1e-10)
        np.testing.assert_allclose(p @ m, m, atol=1e-10)
        np.testing.assert_allclose(p, p.T, atol=1e-12)


class TestOperatorNorm:
    def test_diagonal(self):
        assert operator_norm(np.diag([3.0, 1.0])) == pytest.approx(3.0)

    def test_rank_one(self):
        u = np.array([1.0, 2.0, -2.0])
        v = np.array([0.5, 0.5])
        assert operator_norm(np.outer(u, v)) == pytest.approx(
            np.linalg.norm(u) * np.linalg.norm(v)
        )

    def test_dual_vector_outer(self):
        f1 = np.array([1.0, 0.0, 0.0])
        g1 = np.array([1.0, 1.0, 0.5])
        assert operator_norm(np.outer(f1, g1)) == pytest.approx(1.5)

    def test_submultiplicative(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            a = rng.standard_normal((4, 4))
            b = rng.standard_normal((4, 4))
            assert operator_norm(a @ b) <= operator_norm(a) * operator_norm(b) + 1e-10


class TestRestrictedOperator:
    def test_projector_restriction_is_identity(self):
        s = np.diag([1.0, 1.0, 0.0])
        domain = SubspaceBasis(3, np.array([[1.0], [0.0], [0.0]]))
        coord, image = restricted_operator(s, domain)
        np.testing.assert_allclose(coord, [[1.0]], atol=1e-12)
        np.testing.assert_allclose(image.basis, domain.basis, atol=1e-12)

    def test_frame_operator_restriction_invertible(self):
        fb = FIXTURES["FIX-B"].F
        s = fb @ fb.T
        domain = SubspaceBasis(4, np.eye(4)[:, :2])
        coord, image = restricted_operator(s, domain)
        assert coord.shape == (2, 2)
        assert abs(np.linalg.det(coord)) > 1e-9
        # e1 goes to 2 e1 + e3, e2 stays fixed.
        np.testing.assert_allclose(s @ domain.basis[:, 0], [2.0, 0.0, 1.0, 0.0])
        np.testing.assert_allclose(s @ domain.basis[:, 1], [0.0, 1.0, 0.0, 0.0])

    def test_zero_operator(self):
        domain = SubspaceBasis(3, np.eye(3)[:, :2])
        coord, image = restricted_operator(np.zeros((3, 3)), domain)
        assert coord.shape == (0, 2)
        assert image.dim == 0

    def test_shape_guards(self):
        domain = SubspaceBasis(3, np.eye(3)[:, :1])
        with pytest.raises(ShapeMismatchError):
            restricted_operator(np.zeros((2, 3)), domain)
        with pytest.raises(ShapeMismatchError):
            restricted_operator(np.zeros((4, 4)), domain)


class TestPolicyAndBasis:
    def test_policy_bounds(self):
        with pytest.raises(ValueError):
            TolerancePolicy(rank_cutoff_rel=0.0)
        with pytest.raises(ValueError):
            TolerancePolicy(residual_rel=0.5)

    def test_basis_rejects_non_orthonormal(self):
        with pytest.raises(ValueError):
            SubspaceBasis(2, np.array([[1.0, 1.0], [0.0, 0.0]]))

    def test_range_basis_spans(self):
        rng = np.random.default_rng(9)
        m = rng.standard_normal((4, 2))
        basis = range_basis(m)
        assert basis.dim == 2
        np.testing.assert_allclose(
            basis.projector() @ m, m, atol=1e-10
        )
