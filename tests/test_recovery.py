import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kframes import (
    AmbiguityError,
    ExpansionError,
    KFrameError,
    TolerancePolicy,
    canonical_kdual,
    compose_recovery_matrices,
    encode,
    erase,
    erasure_error_split,
    find_rk_matrix,
    null_space_basis,
    plan_recovery,
    projected_dual_expansion,
    ranges_nested,
    recover_blind,
    recover_consistency,
    recover_side_info,
    spark,
    validate_rk_matrix,
    verify_kdual,
    verify_kframe,
    worst_residual_error,
)
from kframes.fixtures import FIXTURES
from kframes.linalg import range_basis
from kframes.redundancy import INFINITE, spark_via_kernel

from conftest import random_inrange_kframe, random_kframe, uniform_excess_construction


def mercedes_system():
    f = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
    return verify_kframe(f, np.eye(2))


class TestEncodeErase:
    def test_fixture_a_third_axis(self, sys_a):
        dual = verify_kdual(sys_a, FIXTURES["FIX-A"].dual)
        np.testing.assert_allclose(encode(dual, [0, 0, 1]), [0.5, 0.0])

    def test_zero_signal(self, dual_d):
        np.testing.assert_allclose(encode(dual_d, np.zeros(4)), np.zeros(4))

    def test_fixture_d_first_axis(self, sys_d, dual_d):
        c = encode(dual_d, [1, 0, 0, 0])
        np.testing.assert_allclose(c, [0, 0, 0, 1])
        np.testing.assert_allclose(sys_d.F @ c, [1, 0, 0, 0])

    def test_erase_empty_is_identity(self):
        coded = erase([1.0, 2.0, 3.0], [])
        np.testing.assert_array_equal(coded.coefficients, [1.0, 2.0, 3.0])
        assert coded.mask == ()

    def test_erase_survivors_bit_exact(self):
        coded = erase([1.0, 2.0, 3.0], [1])
        assert coded.mask == (1,)
        np.testing.assert_array_equal(np.delete(coded.coefficients, coded.mask), [1.0, 3.0])
        assert np.isnan(coded.coefficients[1])

    def test_erase_out_of_range(self):
        with pytest.raises(ValueError):
            erase([1.0, 2.0], [5])


class TestValidateRkMatrix:
    def test_gramian_certificate(self, sys_d, dual_d):
        cert = validate_rk_matrix(sys_d, dual_d, sys_d.gramian)
        assert cert.annihilation_residual == pytest.approx(0.0, abs=1e-12)
        assert cert.annihilation_ok
        assert cert.spark_M.value == 3
        assert cert.r_side_info == 2

    def test_modified_column_keeps_annihilation(self, sys_d, dual_d):
        # The third dual vector vanishes, so any third column annihilates.
        mat = sys_d.gramian.copy()
        mat[:, 2] = 1.0
        cert = validate_rk_matrix(sys_d, dual_d, mat)
        assert cert.annihilation_ok
        assert cert.spark_M.value == math.inf
        assert np.linalg.det(mat) == pytest.approx(-2.0)
        assert cert.r_side_info == sys_d.m

    def test_gramian_always_annihilates(self, sys_a, sys_c):
        for sys in (sys_a, sys_c):
            dual = canonical_kdual(sys).dual
            cert = validate_rk_matrix(sys, dual, sys.gramian)
            assert cert.annihilation_residual == pytest.approx(0.0, abs=1e-12)

    def test_published_family_member(self, sys_c, dual_c):
        mat = np.array([
            [1.0, 0.0, 1.0, 0.0],
            [1.0, -1.0, 1.0, -0.5],
            [-1.0, 1.0, 2.0, 1.0],
            [0.5, 0.0, 0.5, 0.0],
        ])
        cert = validate_rk_matrix(sys_c, dual_c, mat)
        assert cert.annihilation_ok
        assert cert.spark_M.value == 4
        assert cert.r_side_info == 3

    def test_ordering_when_sparks_ordered(self, sys_d, dual_d):
        cert = validate_rk_matrix(sys_d, dual_d, sys_d.gramian)
        if cert.spark_N.value <= cert.spark_M.value:
            assert cert.r_blind <= cert.r_side_info


class TestFindRkMatrix:
    def test_target_zero_returns_gramian(self, sys_d, dual_d):
        found = find_rk_matrix(sys_d, dual_d, 0)
        np.testing.assert_array_equal(found.certificate.M, sys_d.gramian)
        assert found.mode == "both" and found.trial == 0

    def test_fixture_d_target_two(self, sys_d, dual_d):
        found = find_rk_matrix(sys_d, dual_d, 2, trials=64, seed=5)
        assert found.certificate.annihilation_ok
        assert found.certificate.r_side_info >= 2
        assert found.certificate.spark_M.value >= 3

    def test_rejects_oversized_target(self, sys_d, dual_d):
        with pytest.raises(ValueError):
            find_rk_matrix(sys_d, dual_d, 4)

    def test_deterministic_for_seed(self, sys_d, dual_d):
        a = find_rk_matrix(sys_d, dual_d, 1, seed=9)
        b = find_rk_matrix(sys_d, dual_d, 1, seed=9)
        np.testing.assert_array_equal(a.certificate.M, b.certificate.M)
        assert a.trial == b.trial

    def test_exhausted_trials_fail_explicitly(self, sys_d, dual_d):
        with pytest.raises(KFrameError):
            find_rk_matrix(sys_d, dual_d, 1, trials=0)


class TestRecoverSideInfo:
    def test_hand_checked_case(self, sys_d, dual_d):
        f = np.array([1.0, 1.0, 1.0, 1.0])
        c = encode(dual_d, f)
        np.testing.assert_allclose(c, [-2.0, 1.0, 0.0, 1.0])
        coded = erase(c, [0, 1])
        v = sys_d.F.T @ (sys_d.K.matrix @ f)
        report = recover_side_info(sys_d, sys_d.gramian, coded, v, dual=dual_d)
        assert report.certified_exact
        np.testing.assert_allclose(report.coefficients, c, atol=1e-10)
        np.testing.assert_allclose(report.reconstructed, sys_d.K.matrix @ f, atol=1e-10)

    def test_no_erasure_identity(self, sys_d, dual_d):
        c = encode(dual_d, np.array([0.3, -1.0, 2.0, 0.7]))
        coded = erase(c, [])
        v = sys_d.F.T @ sys_d.K.matrix @ np.array([0.3, -1.0, 2.0, 0.7])
        report = recover_side_info(sys_d, sys_d.gramian, coded, v)
        np.testing.assert_array_equal(report.coefficients, c)
        assert report.certified_exact

    def test_all_two_erasures_fixture_c(self, sys_c):
        dual = canonical_kdual(sys_c).dual
        rng = np.random.default_rng(73)
        for lam in itertools.combinations(range(4), 2):
            for _ in range(25):
                f = rng.standard_normal(4)
                c = encode(dual, f)
                v = sys_c.F.T @ sys_c.K.matrix @ f
                report = recover_side_info(sys_c, sys_c.gramian, erase(c, lam), v)
                assert report.certified_exact
                np.testing.assert_allclose(report.coefficients, c, atol=1e-8)

    def test_annihilation_precondition(self, sys_d, dual_d):
        bad = sys_d.gramian.copy()
        bad[:, 0] += 1.0
        coded = erase(encode(dual_d, np.ones(4)), [0])
        with pytest.raises(KFrameError):
            recover_side_info(sys_d, bad, coded, np.zeros(4), dual=dual_d)

    def test_too_many_erasures_ambiguous(self, sys_d, dual_d):
        f = np.array([0.2, 0.4, -1.0, 0.9])
        c = encode(dual_d, f)
        v = sys_d.F.T @ sys_d.K.matrix @ f
        with pytest.raises(AmbiguityError) as err:
            recover_side_info(sys_d, sys_d.gramian, erase(c, [0, 1, 2]), v)
        assert err.value.deficiency >= 1


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 4),
    extra=st.integers(1, 3),
    rank_k=st.integers(1, 4),
    use_gramian=st.booleans(),
)
# P kept a 5e-16 singular value of G^T when numpy's default rcond ranked it.
@example(seed=271, n=4, extra=1, rank_k=1, use_gramian=False)
def test_exact_recovery_up_to_spark_minus_one(seed, n, extra, rank_k, use_gramian):
    # The paper's guarantee: against a certified M, side-info recovery is exact
    # for every erasure set L with |L| <= spark(M) - 1, and blind recovery for
    # every L with |L| <= spark(M - Gram) - 1. Both sparks come from the
    # independent kernel route.
    rng = np.random.default_rng(seed)
    m = n + extra
    f_mat, k_mat = random_kframe(rng, n, m, min(rank_k, n))
    sys = verify_kframe(f_mat, k_mat)
    dual = verify_kdual(sys, (np.linalg.pinv(f_mat) @ k_mat).T)
    m_mat = sys.gramian.copy()
    if not use_gramian:
        # P projects onto the row space of the dual under the system's rank
        # rule, as find_rk_matrix builds it.
        proj = range_basis(dual.G.T, sys.tol).projector()
        m_mat += rng.standard_normal((m, m)) @ (np.eye(m) - proj)
    assert validate_rk_matrix(sys, dual, m_mat).annihilation_ok
    signal = rng.standard_normal(n)
    c, kf = encode(dual, signal), k_mat @ signal
    for strategy, mat in (("side-info", m_mat), ("blind", m_mat - sys.gramian)):
        value = spark_via_kernel(mat).value
        most = m if value == INFINITE else int(value) - 1
        for size in range(most + 1):
            for lam in itertools.combinations(range(m), size):
                coded = erase(c, lam)
                if strategy == "side-info":
                    report = recover_side_info(sys, m_mat, coded, f_mat.T @ kf, dual=dual)
                else:
                    report = recover_blind(sys, m_mat, coded, dual=dual)
                assert report.certified_exact, (strategy, lam)
                error = np.linalg.norm(report.reconstructed - kf)
                assert error <= 1e-8 * (1.0 + np.linalg.norm(kf)), (strategy, lam)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 4),
    extra=st.integers(1, 3),
    rank_k=st.integers(1, 4),
    noise_seed=st.integers(0, 2**32 - 1),
    ulps=st.integers(1, 16),
    scale=st.sampled_from([1.0, 2.0**-400, 2.0**400]),
)
@example(seed=3, n=3, extra=3, rank_k=2, noise_seed=0, ulps=1, scale=1.0)
def test_round_off_recovery_matrix_gives_no_blind_power(
    seed, n, extra, rank_k, noise_seed, ulps, scale
):
    # M = Gram (1 + delta noise), delta at rounding level: N = M - Gram is
    # round-off, so its certificate reads spark 1 (r_blind 0) and every blind
    # erasure set is deficient, at any scale of F and K.
    f_mat, k_mat = random_kframe(np.random.default_rng(seed), n, n + extra, min(rank_k, n))
    sys = verify_kframe(scale * f_mat, scale * k_mat)
    dual = canonical_kdual(sys).dual
    noise = np.random.default_rng(noise_seed).standard_normal((sys.m, sys.m))
    m_mat = sys.gramian * (1.0 + ulps * 2.0**-52 * noise)
    cert = validate_rk_matrix(sys, dual, m_mat)
    assert (cert.spark_N.value, cert.r_blind, cert.annihilation_ok) == (1, 0, True)
    assert not cert.N.any()
    for r in range(1, sys.m):
        sets = list(itertools.combinations(range(sys.m), r))
        assert (plan_recovery(sys, "blind", sets, m_mat=m_mat).deficiency > 0).all()
    with pytest.raises(AmbiguityError):
        recover_blind(sys, m_mat, erase(encode(dual, np.ones(sys.n)), [0]), dual=dual)


class TestRecoverBlind:
    def test_gramian_gives_no_blind_power(self, sys_d, dual_d):
        coded = erase(encode(dual_d, np.ones(4)), [1])
        with pytest.raises(AmbiguityError):
            recover_blind(sys_d, sys_d.gramian, coded)

    def test_single_erasures_with_annihilator_matrix(self):
        sys = mercedes_system()
        dual = canonical_kdual(sys).dual
        proj = dual.G.T @ np.linalg.pinv(dual.G.T)
        mat = sys.gramian + (np.eye(3) - proj)
        rng = np.random.default_rng(77)
        for lam in ([0], [1], [2]):
            for _ in range(20):
                f = rng.standard_normal(2)
                c = encode(dual, f)
                report = recover_blind(sys, mat, erase(c, lam), dual=dual)
                assert report.certified_exact
                np.testing.assert_allclose(report.coefficients, c, atol=1e-9)

    def test_fixture_d_zero_dual_vector_column(self, sys_d, dual_d):
        mat = sys_d.gramian.copy()
        mat[:, 2] = [1.0, 1.0, 1.0, 1.0]
        f = np.array([0.5, -2.0, 1.5, 3.0])
        c = encode(dual_d, f)
        report = recover_blind(sys_d, mat, erase(c, [2]), dual=dual_d)
        assert report.certified_exact
        assert report.coefficients[2] == pytest.approx(0.0, abs=1e-12)

    def test_soundness_when_certified(self):
        rng = np.random.default_rng(79)
        for _ in range(10):
            f_mat, k_mat = random_kframe(rng, 4, 6, 2)
            sys = verify_kframe(f_mat, k_mat)
            dual = canonical_kdual(sys).dual
            try:
                found = find_rk_matrix(sys, dual, 1, trials=16, seed=7)
            except KFrameError:
                continue
            f = rng.standard_normal(4)
            c = encode(dual, f)
            lam = [int(rng.integers(0, 6))]
            try:
                report = recover_blind(sys, found.certificate.M, erase(c, lam))
            except AmbiguityError:
                continue
            if report.certified_exact:
                np.testing.assert_allclose(report.coefficients, c, atol=1e-8)


class TestRecoverConsistency:
    def test_no_erasure_exact(self, sys_d, dual_d):
        rng = np.random.default_rng(81)
        f = rng.standard_normal(4)
        report = recover_consistency(sys_d, dual_d, erase(encode(dual_d, f), []))
        np.testing.assert_allclose(
            report.reconstructed, sys_d.K.matrix @ f, atol=1e-9
        )

    def test_fixture_d_survivor_coverage(self, sys_d, dual_d):
        rng = np.random.default_rng(83)
        f = rng.standard_normal(4)
        c = encode(dual_d, f)
        good = recover_consistency(sys_d, dual_d, erase(c, [2]))
        assert good.certified_exact
        np.testing.assert_allclose(good.reconstructed, sys_d.K.matrix @ f, atol=1e-8)
        bad = recover_consistency(sys_d, dual_d, erase(c, [0]))
        assert not bad.certified_exact


class TestProjectedExpansion:
    def test_mercedes_single_erasure(self):
        sys = mercedes_system()
        dual = canonical_kdual(sys).dual
        exp = projected_dual_expansion(sys, dual, [0])
        assert exp.expansion_residual == pytest.approx(0.0, abs=1e-12)
        # Identity block at the erased column, minus coefficients elsewhere.
        assert exp.recovery_matrix.shape == (1, 3)
        assert exp.recovery_matrix[0, 0] == 1.0
        target = sys.K.range.projector() @ dual.G[:, 0]
        rebuilt = sys.F[:, [1, 2]] @ exp.alpha[0]
        np.testing.assert_allclose(rebuilt, target, atol=1e-10)

    def test_empty_mask(self, sys_d, dual_d):
        exp = projected_dual_expansion(sys_d, dual_d, [])
        assert exp.alpha.shape == (0, 4)
        assert exp.expansion_residual == 0.0

    def test_fixture_d_hypothesis_failure(self, sys_d, dual_d):
        # pi g4 = e1 is not spanned by the three surviving columns.
        with pytest.raises(ExpansionError):
            projected_dual_expansion(sys_d, dual_d, [3])

    def test_recover_matches_direct_inner_products(self):
        rng = np.random.default_rng(87)
        f_mat, k_mat = uniform_excess_construction(rng, 2, 1, ambient=3)
        sys = verify_kframe(f_mat, k_mat)
        dual = canonical_kdual(sys).dual
        exp = projected_dual_expansion(sys, dual, [0])
        proj = sys.K.range.projector()
        for _ in range(100):
            f = rng.standard_normal(3)
            survivors = sys.F[:, [1, 2]].T @ f
            got = exp.alpha @ survivors
            expected = np.array([f @ (proj @ dual.G[:, 0])])
            np.testing.assert_allclose(got, expected, atol=1e-9)

    def test_orthogonal_signal_gives_zero(self):
        sys = mercedes_system()
        dual = canonical_kdual(sys).dual
        exp = projected_dual_expansion(sys, dual, [0])
        # K = I here, so only the zero signal is orthogonal to the range;
        # zero input must map to zero output.
        np.testing.assert_allclose(
            exp.alpha @ np.zeros(2), [0.0]
        )

    def test_zero_alpha_rows(self, sys_a):
        dual = canonical_kdual(sys_a).dual
        exp = projected_dual_expansion(sys_a, dual, [1])
        np.testing.assert_allclose(exp.alpha, np.zeros((1, 1)), atol=1e-12)
        np.testing.assert_allclose(
            exp.alpha @ [3.0], [0.0], atol=1e-12
        )


class TestErrorSplit:
    def test_in_range_dual_no_residual(self):
        rng = np.random.default_rng(89)
        f_mat, k_mat = random_inrange_kframe(rng, 4, 6, 2)
        sys = verify_kframe(f_mat, k_mat)
        dual = canonical_kdual(sys).dual
        split = erasure_error_split(sys, dual, [0, 2])
        assert split.norms[2] == pytest.approx(0.0, abs=1e-10)

    def test_empty_mask_zero(self, sys_a):
        dual = canonical_kdual(sys_a).dual
        split = erasure_error_split(sys_a, dual, [])
        assert split.norms == (0.0, 0.0, 0.0)

    def test_fixture_a_values(self, sys_a):
        dual = verify_kdual(sys_a, FIXTURES["FIX-A"].dual)
        split = erasure_error_split(sys_a, dual, [0])
        assert split.norms[0] == pytest.approx(1.5)
        assert split.norms[2] == pytest.approx(np.sqrt(5) / 2)

    def test_decomposition_identity(self, sys_b, sys_c, sys_d, dual_d):
        cases = [
            (sys_b, canonical_kdual(sys_b).dual),
            (sys_c, canonical_kdual(sys_c).dual),
            (sys_d, dual_d),
        ]
        for sys, dual in cases:
            for r in range(1, sys.m + 1):
                for lam in itertools.combinations(range(sys.m), r):
                    split = erasure_error_split(sys, dual, lam)
                    np.testing.assert_allclose(
                        split.error, split.recoverable + split.residual, atol=1e-12
                    )


class TestWorstResidualError:
    def test_in_range_dual_zero(self):
        rng = np.random.default_rng(91)
        f_mat, k_mat = random_inrange_kframe(rng, 4, 6, 2)
        sys = verify_kframe(f_mat, k_mat)
        dual = canonical_kdual(sys).dual
        for r in range(1, sys.m):
            assert worst_residual_error(sys, dual, r)[0] <= 1e-10

    def test_fixture_a_single(self, sys_a):
        dual = verify_kdual(sys_a, FIXTURES["FIX-A"].dual)
        value, lam = worst_residual_error(sys_a, dual, 1)
        assert value == pytest.approx(np.sqrt(5) / 2)
        assert lam == (0,)

    def test_monotone_on_fixtures(self, sys_b, sys_c, sys_d, dual_d):
        cases = [
            (sys_b, canonical_kdual(sys_b).dual),
            (sys_c, canonical_kdual(sys_c).dual),
            (sys_d, dual_d),
        ]
        for sys, dual in cases:
            values = [
                worst_residual_error(sys, dual, r)[0] for r in range(1, sys.m)
            ]
            assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))


class TestComposeRecoveryMatrices:
    def test_zero_recovery_matrix_degenerate(self, sys_c):
        out = compose_recovery_matrices(sys_c, np.zeros((2, 4)), sys_c.gramian)
        assert out.degenerate
        assert out.spark.value == math.inf
        assert out.spark_not_decreased

    @pytest.mark.parametrize("scale", [1.0, 1e-4, 1e-5])
    def test_degenerate_is_free_of_scale(self, scale):
        """N M with M = Gram + 0.1 s^2 I has norm 0.1 s^2 ||N||: not degenerate
        at any scale s, while an exactly zero product is."""
        f, k = random_kframe(np.random.default_rng(0), 3, 6, 2)
        sys = verify_kframe(f * scale, k * scale)
        n_mat = null_space_basis(sys.F).basis.T
        m_mat = sys.gramian + 0.1 * scale**2 * np.eye(6)
        out = compose_recovery_matrices(sys, n_mat, m_mat)
        assert not out.degenerate
        assert out.spark.value == spark(n_mat).value
        assert compose_recovery_matrices(sys, n_mat, 0 * m_mat).degenerate

    def test_fixture_c_kernel_rows(self, sys_c):
        # Any annihilating matrix has rows along the kernel, whose third
        # coordinate vanishes, so it can protect at most one erasure.
        kernel = null_space_basis(sys_c.F)
        n_mat = kernel.basis.T
        np.testing.assert_allclose(n_mat[:, 2], 0.0, atol=1e-12)
        assert spark(n_mat).value == 1
        out = compose_recovery_matrices(sys_c, n_mat, sys_c.gramian)
        # Gram columns live in the row space, so the composition collapses.
        assert out.degenerate

    def test_kernel_containment_checked(self):
        f = np.array([[1.0, 0.0, 1.0, 1.0], [0.0, 1.0, 1.0, -1.0]])
        sys = verify_kframe(f, np.eye(2))
        dual = canonical_kdual(sys).dual
        kernel = null_space_basis(sys.F)
        n_mat = kernel.basis.T
        found = find_rk_matrix(sys, dual, 1, trials=32, seed=11)
        out = compose_recovery_matrices(sys, n_mat, found.certificate.M)
        assert out.kernel_contained
        # Enumeration cross-check of the containment.
        null_m = null_space_basis(found.certificate.M)
        for j in range(null_m.dim):
            assert np.linalg.norm(out.product @ null_m.basis[:, j]) < 1e-8

    def test_precondition_enforced(self, sys_c):
        with pytest.raises(KFrameError):
            compose_recovery_matrices(sys_c, np.eye(4), sys_c.gramian)

    def test_kernel_containment_is_judged_by_the_system_policy(self):
        # With M's smallest singular value at 1e-6 of its largest, a coarse
        # rank cutoff finds a kernel direction k of M, and |N M k| is about
        # 3e-6: inside the coarse residual rule, far outside the default one.
        f = np.array([[1.0, 0.0, 1.0, 1.0], [0.0, 1.0, 1.0, -1.0]])
        sys = verify_kframe(f, np.eye(2))
        found = find_rk_matrix(sys, canonical_kdual(sys).dual, 1, trials=32, seed=11)
        u, s, vt = np.linalg.svd(found.certificate.M)
        s[-1] = 1e-6 * s[0]
        coarse = verify_kframe(f, np.eye(2), TolerancePolicy(1e-3, 1e-4))
        n_mat = null_space_basis(f).basis.T
        out = compose_recovery_matrices(coarse, n_mat, u @ np.diag(s) @ vt)
        assert out.kernel_contained


class TestClassicalCorollaries:
    def test_full_spark_frames_recover_n_erasures(self):
        # Classical pairs: spark F = n + 1, so any n erased dual-frame
        # coefficients are recoverable from the Gram equation.
        rng = np.random.default_rng(97)
        n, m = 3, 6
        f_mat = rng.standard_normal((n, m))
        sys = verify_kframe(f_mat, np.eye(n))
        from kframes import spark

        assert spark(sys.F).value == n + 1
        dual = canonical_kdual(sys).dual
        for _ in range(20):
            f = rng.standard_normal(n)
            c = encode(dual, f)
            lam = tuple(sorted(rng.choice(m, size=n, replace=False).tolist()))
            v = sys.F.T @ f
            report = recover_side_info(sys, sys.gramian, erase(c, lam), v)
            assert report.certified_exact
            np.testing.assert_allclose(report.coefficients, c, atol=1e-8)

    def test_single_erasure_always_recoverable(self):
        rng = np.random.default_rng(99)
        f_mat = rng.standard_normal((3, 5))
        sys = verify_kframe(f_mat, np.eye(3))
        dual = canonical_kdual(sys).dual
        for lam in range(5):
            f = rng.standard_normal(3)
            c = encode(dual, f)
            report = recover_side_info(
                sys, sys.gramian, erase(c, [lam]), sys.F.T @ f
            )
            assert report.certified_exact
            np.testing.assert_allclose(report.coefficients, c, atol=1e-8)


class TestSurvivorFrameProperty:
    def test_blind_spark_forces_adjoint_frames(self):
        # Whenever spark(M - Gram) = s is finite, every erasure of at most
        # s - 1 coefficients leaves the dual family an adjoint-range frame.
        rng = np.random.default_rng(101)
        checked = 0
        for _ in range(12):
            n = int(rng.integers(3, 5))
            m = int(rng.integers(n, 7))
            rank = int(rng.integers(1, n))
            f_mat, k_mat = random_kframe(rng, n, m, rank)
            sys = verify_kframe(f_mat, k_mat)
            dual = canonical_kdual(sys).dual
            try:
                found = find_rk_matrix(sys, dual, 1, trials=8, seed=13)
            except KFrameError:
                continue
            cert = found.certificate
            if cert.spark_N.value == math.inf:
                continue
            s = int(cert.spark_N.value)
            checked += 1
            for size in range(0, s):
                for lam in itertools.combinations(range(m), size):
                    survivors = [i for i in range(m) if i not in lam]
                    assert ranges_nested(
                        sys.K.matrix.T, dual.G[:, survivors], sys.tol
                    )
        assert checked > 0
