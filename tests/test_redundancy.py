import itertools
import math
from unittest import mock

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
from kframes import frames
from kframes.fixtures import FIXTURES
from kframes.frames import SCAN_CHUNK, OperatorK

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

    def test_witness_from_a_two_column_removal(self):
        # Every 3 columns are a K-frame, but removing {0, 1} leaves the
        # K-frame {2, 3}, so {2, 3, i} is not exact for i = 0 or 1.
        e = np.eye(3)
        f = np.column_stack([e[1] + e[2], e[0] + e[2], e[0], e[1]])
        report = uniform_excess(f, np.diag([1.0, 1.0, 0.0]))
        assert (report.value, report.witness) == (0, (0,))

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


def _reference_exact(f, op, cols):
    """A K-frame that stops being one when any single column is removed."""
    sub = f[:, cols]
    return is_kframe(sub, op) and not any(
        is_kframe(sub[:, [i for i in range(len(cols)) if i != j]], op)
        for j in range(len(cols)))


def _reference_scans(f, op, r):
    """uniform_excess, is_maximal_robust and mrc_all subset by subset."""
    m = f.shape[1]
    rest = lambda lam: [i for i in range(m) if i not in lam]  # noqa: E731
    best, first = 0, None
    for size in range(1, m):
        failing = [lam for lam in itertools.combinations(range(m), size)
                   if not _reference_exact(f, op, rest(lam))]
        if not failing:
            best = size
        elif size == 1:
            first = failing[0]
    robust = op.rank <= m and all(
        _reference_exact(f, op, list(sub))
        for sub in itertools.combinations(range(m), op.rank))
    mrc_fail = next((lam for lam in itertools.combinations(range(m), r)
                     if not is_kframe(f[:, rest(lam)], op)), None)
    return ((best, None if best else first), robust,
            (mrc_fail is None, mrc_fail or None))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 4),
    extra=st.integers(0, 3),
    rank_k=st.integers(0, 4),
    damage=st.sampled_from(["none", "duplicate", "zero", "faint_k"]),
    r=st.integers(0, 3),
    chunk=st.sampled_from([1, 3, SCAN_CHUNK]),
)
def test_table_scans_match_subset_by_subset_reference(
    seed, n, extra, rank_k, damage, r, chunk
):
    rng = np.random.default_rng(seed)
    m = n + extra
    f, k = random_kframe(rng, n, m, min(rank_k, n))
    if damage == "faint_k":
        # Beside F, K falls under the relative rank cutoff: a rank test then
        # reads any columns as a K-frame, but K alone keeps its rank.
        k = k * 1e-13
    elif damage != "none" and m >= 2:
        i, j = rng.choice(m, size=2, replace=False)
        f[:, j] = f[:, i] if damage == "duplicate" else 0.0
    op = OperatorK.from_matrix(k)
    r = min(r, m)
    excess, robust, mrc = _reference_scans(f, op, r)
    # Small chunks split levels, so the tables are read across chunks.
    with mock.patch.object(frames, "SCAN_CHUNK", chunk):
        got = uniform_excess(f, k)
        assert (got.value, got.witness) == excess
        assert is_maximal_robust(f, k) == robust
        assert mrc_all(f, k, r) == mrc
