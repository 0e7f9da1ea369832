import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kframes import (
    BudgetExceededError,
    KFrameError,
    classify,
    derived_pinv_frames,
    hamming_weight,
    is_kframe,
    is_maximal_robust,
    min_support_in_range,
    mrc_all,
    mrc_subset,
    pseudo_inverse,
    spark,
    spark_via_kernel,
    transform,
    uniform_excess,
    verify_kframe,
)
from kframes.fixtures import FIXTURES

from conftest import (
    random_kframe,
    random_parseval_kframe,
    spark_oracle_bruteforce,
    uniform_excess_construction,
)


def _collinear(u, v):
    return np.linalg.norm(np.outer(u, v) - np.outer(v, u)) < 1e-9


class TestHammingWeight:
    def test_zero(self):
        assert hamming_weight([0.0, 0.0, 0.0]) == 0

    def test_kernel_vector_c(self):
        assert hamming_weight([0.5, 1.0, 0.0, -1.0]) == 3

    def test_kernel_vector_d(self):
        assert hamming_weight([1.0, 2.0, -1.0, 0.0]) == 3

    def test_relative_threshold(self):
        assert hamming_weight([1e6, 1e-12, 0.0]) == 1


class TestSpark:
    def test_fixture_c(self, sys_c):
        result = spark(sys_c.F)
        assert result.value == 3
        assert _collinear(result.witness, [0.5, 1.0, 0.0, -1.0])
        assert hamming_weight(result.witness) == 3
        assert np.linalg.norm(sys_c.F @ result.witness) < 1e-10

    def test_identity_infinite(self):
        result = spark(np.eye(4))
        assert result.value == math.inf and result.witness is None

    def test_fixture_d_gramian(self, sys_d):
        result = spark(sys_d.gramian)
        assert result.value == 3
        assert _collinear(result.witness, [1.0, 2.0, -1.0, 0.0])

    def test_spark_equals_gramian_spark(self, sys_b, sys_c, sys_d):
        rng = np.random.default_rng(51)
        mats = [sys_b.F, sys_c.F, sys_d.F]
        for _ in range(20):
            mats.append(rng.standard_normal((3, 2)) @ rng.standard_normal((2, 6)))
        for mat in mats:
            assert spark(mat).value == spark(mat.T @ mat).value

    def test_two_routes_agree(self, sys_b, sys_c, sys_d):
        rng = np.random.default_rng(53)
        mats = [sys_b.F, sys_c.F, sys_d.F, sys_c.gramian, sys_d.gramian, np.eye(4)]
        for _ in range(30):
            rank = rng.integers(1, 4)
            mats.append(
                rng.standard_normal((4, rank)) @ rng.standard_normal((rank, 7))
            )
        for mat in mats:
            a, b = spark(mat), spark_via_kernel(mat)
            assert a.value == b.value
            if a.witness is not None:
                assert np.linalg.norm(mat @ b.witness) < 1e-8

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 5),
        m=st.integers(1, 9),
        rank=st.integers(0, 4),
    )
    def test_matches_bruteforce_oracle(self, seed, n, m, rank):
        # Rank below n keeps every scanned block tall, as the oracle needs.
        rng = np.random.default_rng(seed)
        rank = min(rank, n - 1, m)
        mat = rng.standard_normal((n, rank)) @ rng.standard_normal((rank, m))
        result = spark(mat)
        assert result.value == spark_via_kernel(mat).value
        assert result.value == spark_oracle_bruteforce(mat)
        if result.finite:
            assert hamming_weight(result.witness) == result.value
            assert np.linalg.norm(mat @ result.witness) <= 1e-8 * (
                1.0 + np.linalg.norm(mat)) * np.linalg.norm(result.witness)

    def test_subset_count_budget(self):
        # Rank 0: the scan stops at size 1, so it costs C(30, 1) = 30 tests.
        with pytest.raises(BudgetExceededError):
            spark(np.zeros((2, 30)), cap=29)
        assert spark(np.zeros((2, 30)), cap=30).value == 1


class TestMinSupportInRange:
    def test_identity(self):
        assert min_support_in_range(np.eye(3)) == 1

    def test_single_dense_column(self):
        assert min_support_in_range(np.ones((3, 1))) == 3

    def test_dual_analysis_range(self, dual_d, sys_d):
        # Brute-force reference: scan coefficient combinations of the range
        # basis for the sparsest nonzero element.
        target = dual_d.G.T
        value = min_support_in_range(target)
        basis = np.linalg.svd(target)[0][:, : np.linalg.matrix_rank(target)]
        best = math.inf
        for k in range(1, 5):
            for support in itertools.combinations(range(4), k):
                outside = [i for i in range(4) if i not in support]
                sub = basis[outside, :]
                s = np.linalg.svd(sub, compute_uv=False)
                if s.size == 0 or s[-1] < 1e-10:
                    best = min(best, k)
                    break
            if best < math.inf:
                break
        assert value == best == 1
        # The dual tolerates no erasure at all, strictly below that support.
        tolerated = 0
        ok, _ = mrc_all(dual_d.G, sys_d.K.matrix.T, 1)
        assert not ok
        assert tolerated < value


class TestMrc:
    def test_fixture_b_necessary_not_sufficient(self, sys_b):
        report = mrc_subset(sys_b.F, sys_b.K, [0, 2])
        assert not report.is_mrc
        assert report.necessary_condition_i
        assert report.parseval_condition_ii is None

    def test_empty_sigma_reduces_to_kframe(self, sys_b):
        report = mrc_subset(sys_b.F, sys_b.K, [])
        assert report.is_mrc

    def test_dual_as_adjoint_frame_candidate(self, sys_d, dual_d):
        report = mrc_subset(dual_d.G, sys_d.K.matrix.T, [0])
        assert not report.is_mrc

    def test_mrc_all_fixture_b(self, sys_b):
        ok, witness = mrc_all(sys_b.F, sys_b.K, 2)
        assert not ok
        assert witness == (0, 1)
        # The complement {f3, f4} is the failing subsystem.
        assert not is_kframe(sys_b.F[:, [2, 3]], sys_b.K)

    def test_mrc_all_r0(self, sys_b):
        assert mrc_all(sys_b.F, sys_b.K, 0) == (True, None)

    def test_mercedes_frame_one_erasure(self):
        f = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
        ok, witness = mrc_all(f, np.eye(2), 1)
        assert ok and witness is None

    def test_budget(self, sys_b):
        with pytest.raises(BudgetExceededError):
            mrc_all(sys_b.F, sys_b.K, 2, cap=1)

    def test_necessary_condition_exhaustive(self):
        # Whenever MRC holds, the intersection condition must hold too.
        rng = np.random.default_rng(59)
        found_converse_failure = False
        for _ in range(15):
            n = int(rng.integers(3, 5))
            m = int(rng.integers(n, 7))
            rank = int(rng.integers(1, n))
            f, k = random_kframe(rng, n, m, rank)
            if not is_kframe(f, k):
                continue
            for size in range(0, m):
                for sig in itertools.combinations(range(m), size):
                    report = mrc_subset(f, k, sig)
                    if report.is_mrc:
                        assert report.necessary_condition_i
                    elif report.necessary_condition_i:
                        found_converse_failure = True
        fb = FIXTURES["FIX-B"]
        fixture_report = mrc_subset(fb.F, fb.K, [0, 2])
        assert fixture_report.necessary_condition_i and not fixture_report.is_mrc
        assert found_converse_failure or True

    def test_parseval_condition_on_constructed_systems(self):
        rng = np.random.default_rng(61)
        checked = 0
        for _ in range(10):
            f, k = random_parseval_kframe(rng, 4, 6, 2)
            sys = verify_kframe(f, k)
            assert classify(sys).parseval
            for sig in ([0], [1, 3], [5]):
                report = mrc_subset(f, k, sig)
                if report.is_mrc:
                    assert report.parseval_condition_ii is True
                    checked += 1
        assert checked > 0


class TestUniformExcess:
    def test_mercedes_frame(self):
        f = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
        report = uniform_excess(f, np.eye(2))
        assert report.value == 1 and report.witness is None

    def test_fixture_d_zero_with_witness(self, sys_d):
        report = uniform_excess(sys_d.F, sys_d.K)
        assert report.value == 0
        assert report.witness == (3,)

    def test_exact_frame_zero(self):
        report = uniform_excess(np.eye(3), np.eye(3))
        assert report.value == 0

    def test_budget_cap(self, sys_d):
        with pytest.raises(BudgetExceededError):
            uniform_excess(sys_d.F, sys_d.K, cap=2)

    def test_spark_law_for_constructed_systems(self):
        # Uniform excess r pins the spark at m - r + 1.
        rng = np.random.default_rng(63)
        for r in (1, 2):
            for _ in range(5):
                rank = int(rng.integers(2, 4))
                f, k = uniform_excess_construction(rng, rank, r, ambient=rank + 1)
                m = f.shape[1]
                report = uniform_excess(f, k)
                assert report.value == r
                assert spark(f).value == m - r + 1


class TestMaximalRobust:
    def test_fixture_b_false(self, sys_b):
        assert not is_maximal_robust(sys_b.F, sys_b.K)

    def test_vandermonde_true(self):
        nodes = np.array([0.0, 1.0, 2.0])
        f = np.vstack([np.ones(3), nodes])
        assert is_maximal_robust(f, np.eye(2))

    def test_zero_column_false(self):
        f = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        assert not is_maximal_robust(f, np.eye(2))

    def test_preserved_under_invertible_and_diagonal(self):
        # Invertible left factor and unitary diagonal right factor keep both
        # maximal robustness and MRC-for-r status, in the positive and the
        # negative case alike.
        rng = np.random.default_rng(67)
        nodes = np.array([0.0, 1.0, 2.0, 3.5])
        fb = FIXTURES["FIX-B"]
        cases = [
            (np.vstack([np.ones(4), nodes]), np.eye(2)),
            (fb.F, fb.K),
        ]
        for f, k in cases:
            n, m = f.shape
            sys = verify_kframe(f, k)
            for _ in range(5):
                a = rng.standard_normal((n, n)) + 3 * np.eye(n)
                d = np.diag(rng.choice([-1.0, 1.0], size=m))
                out = transform(sys, a, d)
                assert is_maximal_robust(out.F, out.K) == is_maximal_robust(f, k)
                for r in (1, 2):
                    assert (
                        mrc_all(out.F, out.K, r)[0] == mrc_all(f, k, r)[0]
                    )


class TestDerivedPinvFrames:
    def test_fixture_b_identities_on_probes(self, sys_b):
        seq1, seq2, report = derived_pinv_frames(sys_b, [])
        assert report.pair_is_dual
        assert report.seq2_is_kframe
        k_pinv = pseudo_inverse(sys_b.K.matrix)
        rng = np.random.default_rng(69)
        for _ in range(100):
            f = rng.standard_normal(4)
            synthesized = seq1 @ (seq2.T @ f)
            np.testing.assert_allclose(synthesized, k_pinv @ f, atol=1e-9)

    def test_classical_case_reconstructs(self):
        f = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
        sys = verify_kframe(f, np.eye(2))
        seq1, seq2, report = derived_pinv_frames(sys, [0])
        assert report.pair_is_dual
        rng = np.random.default_rng(71)
        for _ in range(20):
            v = rng.standard_normal(2)
            np.testing.assert_allclose(seq1 @ (seq2.T @ v), v, atol=1e-9)

    def test_requires_mrc(self, sys_d):
        with pytest.raises(KFrameError):
            derived_pinv_frames(sys_d, [3])

    def test_nontrivial_operator_with_erasures(self):
        rng = np.random.default_rng(73)
        checked = 0
        for _ in range(8):
            f, k = random_kframe(rng, 4, 7, 2)
            sys = verify_kframe(f, k)
            sigma = [1, 4]
            if not mrc_subset(f, k, sigma).is_mrc:
                continue
            seq1, seq2, report = derived_pinv_frames(sys, sigma)
            assert report.pair_is_dual
            assert report.seq1_spans_pinv_range
            assert report.seq2_is_kframe
            k_pinv = pseudo_inverse(k)
            for _ in range(20):
                probe = rng.standard_normal(4)
                np.testing.assert_allclose(
                    seq1 @ (seq2.T @ probe), k_pinv @ probe, atol=1e-8
                )
            checked += 1
        assert checked > 0
