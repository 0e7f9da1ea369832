import dataclasses
import importlib
import inspect
import itertools
from math import comb
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from kframes import (
    KFrameSystem,
    NotKFrameError,
    OperatorK,
    ShapeMismatchError,
    ZeroOperatorError,
    canonical_kdual,
    classify,
    dual_perturbation,
    frame_bounds,
    is_kframe,
    normalize_erasure_set,
    TolerancePolicy,
    is_maximal_robust,
    mrc_all,
    operator_norm,
    pseudo_inverse,
    rank_of,
    spark,
    transform,
    uniform_excess,
    verify_kdual,
    verify_kframe,
    worst_erasure_error,
    worst_residual_error,
)
from kframes import frames
from kframes.fixtures import FIXTURES
from kframes.frames import SCAN_CHUNK
from kframes.linalg import _canonical_signs, svd_factor, unit_scaled

from conftest import lower_bound_oracle, projector, random_kframe, random_operator


class TestVerifyKFrame:
    def test_fixture_a_valid(self, sys_a):
        assert sys_a.n == 3 and sys_a.m == 2
        assert sys_a.K.rank == 1

    def test_identity_frame(self):
        sys = verify_kframe(np.eye(3), np.eye(3))
        assert sys.bounds == pytest.approx((1.0, 1.0))

    def test_subfamily_failure_with_witness(self):
        fix = FIXTURES["FIX-B"]
        # Columns 3 and 4 span {e1, e3} which misses e2 from the range.
        with pytest.raises(NotKFrameError) as err:
            verify_kframe(fix.F[:, [2, 3]], fix.K)
        witness = err.value.witness
        span = fix.F[:, [2, 3]]
        proj = span @ np.linalg.pinv(span)
        assert np.linalg.norm(witness - proj @ witness) > 1e-6
        assert np.linalg.norm(fix.K @ np.linalg.pinv(fix.K) @ witness - witness) < 1e-8

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            verify_kframe(np.eye(3), np.eye(4))

    def test_faint_operator_outside_the_span(self):
        """R(K) = span(e3) lies outside R(F) however small K is."""
        f = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [0.0, 0.0, 0.0]])
        k = np.diag([0.0, 0.0, 1e-9])
        assert not is_kframe(f, k)
        with pytest.raises(NotKFrameError):
            verify_kframe(f, k)

    def test_rank_characterization_both_ways(self):
        rng = np.random.default_rng(21)
        for trial in range(30):
            n, m, rk = 4, 5, 2
            f, k = random_kframe(rng, n, m, rk)
            stacked_rank = rank_of(np.hstack([f, k]))
            assert is_kframe(f, k) == (stacked_rank == rank_of(f))
            # Break the inclusion: operator range poking out of a thin frame.
            thin = rng.standard_normal((4, 2))
            k_full = np.eye(4)
            assert is_kframe(thin, k_full) == (
                rank_of(np.hstack([thin, k_full])) == rank_of(thin)
            )

    def test_zero_operator_always_valid(self):
        sys = verify_kframe(np.ones((3, 1)), np.zeros((3, 3)))
        assert sys.bounds is None
        with pytest.raises(ZeroOperatorError):
            frame_bounds(sys)


class TestFrameBounds:
    def test_upper_bound_orthonormal(self, sys_a):
        assert frame_bounds(sys_a)[1] == pytest.approx(1.0)

    def test_lower_bound_fixture_value(self, sys_a):
        assert frame_bounds(sys_a)[0] == pytest.approx(4.0 / 9.0, abs=1e-12)

    def test_lower_bound_against_grid_oracle(self, sys_a):
        a_formula = frame_bounds(sys_a)[0]
        a_oracle = lower_bound_oracle(sys_a.F, sys_a.K.matrix)
        assert a_oracle >= a_formula - 1e-9
        assert a_oracle <= a_formula * 1.01

    def test_sandwich_on_random_probes(self, sys_d):
        a, b = frame_bounds(sys_d)
        rng = np.random.default_rng(13)
        for _ in range(1000):
            f = rng.standard_normal(4)
            f /= np.linalg.norm(f)
            analysis = np.linalg.norm(sys_d.F.T @ f) ** 2
            assert a * np.linalg.norm(sys_d.K.matrix.T @ f) ** 2 <= analysis + 1e-9
            assert analysis <= b + 1e-9

    def test_bounds_attained_at_extremals(self, sys_d):
        a, b = frame_bounds(sys_d)
        u, _, _ = np.linalg.svd(sys_d.F)
        top = u[:, 0]
        assert np.linalg.norm(sys_d.F.T @ top) ** 2 == pytest.approx(b, rel=1e-9)
        # Extremal direction for the lower bound from the coefficient map.
        x = np.linalg.pinv(sys_d.F) @ sys_d.K.matrix
        ux, _, _ = np.linalg.svd(x)
        f_low = np.linalg.pinv(sys_d.F.T) @ ux[:, 0]
        ratio = np.linalg.norm(sys_d.F.T @ f_low) ** 2 / np.linalg.norm(
            sys_d.K.matrix.T @ f_low
        ) ** 2
        assert ratio == pytest.approx(a, rel=0.01)


class TestGramian:
    def test_fixture_c(self, sys_c):
        expected = np.array([
            [2.0, -1.0, 1.0, 0.0],
            [-1.0, 1.0, -1.0, 0.5],
            [1.0, -1.0, 5.0, -0.5],
            [0.0, 0.5, -0.5, 0.5],
        ])
        np.testing.assert_array_equal(sys_c.gramian, expected)

    def test_fixture_d(self, sys_d):
        expected = np.array([
            [1.0, 0.0, 1.0, 0.0],
            [0.0, 1.0, 2.0, 0.0],
            [1.0, 2.0, 5.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ])
        np.testing.assert_array_equal(sys_d.gramian, expected)

    def test_orthonormal_columns(self, sys_a):
        np.testing.assert_allclose(sys_a.gramian, np.eye(2), atol=1e-12)

    def test_entry_convention(self, sys_c):
        g = sys_c.gramian
        for i in range(4):
            for j in range(4):
                assert g[j, i] == pytest.approx(sys_c.F[:, i] @ sys_c.F[:, j])


class TestClassify:
    def test_identity_system(self):
        sys = verify_kframe(np.eye(3), np.eye(3))
        cls = classify(sys)
        assert cls.tight_alpha == pytest.approx(1.0)
        assert cls.parseval and cls.equal_norm

    def test_fixture_a_not_tight(self, sys_a):
        cls = classify(sys_a)
        assert cls.tight_alpha is None and not cls.parseval

    def test_doubled_vector_tight_alpha_two(self):
        f = np.array([[1.0, 1.0], [0.0, 0.0]])
        k = np.diag([1.0, 0.0])
        cls = classify(verify_kframe(f, k))
        assert cls.tight_alpha == pytest.approx(2.0)
        assert not cls.parseval and cls.equal_norm


class TestVerifyKDual:
    def test_fixture_a_canonical(self, sys_a):
        dual = verify_kdual(sys_a, FIXTURES["FIX-A"].dual)
        assert dual.is_valid and dual.residual == pytest.approx(0.0, abs=1e-14)

    def test_fixture_d_published(self, dual_d):
        assert dual_d.is_valid

    def test_fixture_c_published_discrepancy(self, sys_c, dual_c):
        assert not dual_c.is_valid
        assert dual_c.residual == pytest.approx(2.0, abs=1e-9)
        product = sys_c.F @ dual_c.G.T
        np.testing.assert_allclose(product[:, 3], [1.0, 0.0, 0.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(
            sys_c.K.matrix[:, 3], [-1.0, 0.0, 0.0, 1.0], atol=1e-12
        )

    def test_shape_mismatch(self, sys_a):
        with pytest.raises(ShapeMismatchError):
            verify_kdual(sys_a, np.eye(3))

    def test_gram_equation_for_valid_duals(self, sys_d, dual_d):
        # Gram G^T = F^T M_K holds for every valid dual.
        rng = np.random.default_rng(17)
        duals = [dual_d, canonical_kdual(sys_d).dual]
        from kframes import null_space_basis

        null = null_space_basis(sys_d.F)
        for _ in range(10):
            coeffs = rng.standard_normal((sys_d.n, null.shape[1]))
            duals.append(dual_perturbation(sys_d, dual_d, coeffs))
        bound = 1e-8 * (1 + operator_norm(sys_d.K.matrix))
        for dual in duals:
            lhs = sys_d.gramian @ dual.G.T
            rhs = sys_d.F.T @ sys_d.K.matrix
            assert operator_norm(lhs - rhs) <= bound


class TestDualPerturbation:
    def test_zero_coeffs_identity(self, sys_d, dual_d):
        out = dual_perturbation(sys_d, dual_d, np.zeros((4, 1)))
        np.testing.assert_array_equal(out.G, dual_d.G)

    def test_always_valid_fixture_c(self, sys_c):
        base = canonical_kdual(sys_c).dual
        rng = np.random.default_rng(23)
        for _ in range(10):
            out = dual_perturbation(sys_c, base, rng.standard_normal((4, 1)))
            assert out.is_valid
            assert out.residual == pytest.approx(base.residual, abs=1e-9)

    def test_invertible_frame_has_no_freedom(self):
        sys = verify_kframe(np.eye(3), np.eye(3))
        base = canonical_kdual(sys).dual
        out = dual_perturbation(sys, base, np.zeros((3, 0)))
        np.testing.assert_array_equal(out.G, base.G)
        with pytest.raises(ShapeMismatchError):
            dual_perturbation(sys, base, np.ones((3, 1)))


class TestWorstErasureError:
    def test_fixture_a_single_erasure(self, sys_a):
        dual = canonical_kdual(sys_a).dual
        value, lam = worst_erasure_error(sys_a, dual, 1)
        assert value == pytest.approx(1.5)
        assert lam == (0,)

    def test_zero_operator_zero_dual(self):
        sys = verify_kframe(np.eye(2), np.zeros((2, 2)))
        dual = verify_kdual(sys, np.zeros((2, 2)))
        assert worst_erasure_error(sys, dual, 1)[0] == pytest.approx(0.0)

    def test_matches_bruteforce_on_fixture_d(self, sys_d, dual_d):
        value, lam = worst_erasure_error(sys_d, dual_d, 3)
        best = -1.0
        best_lam = None
        for cand in itertools.combinations(range(4), 3):
            idx = list(cand)
            norm = np.linalg.svd(
                sys_d.F[:, idx] @ dual_d.G[:, idx].T, compute_uv=False
            )[0]
            if norm > best:
                best, best_lam = norm, cand
        assert value == pytest.approx(best)
        assert lam == best_lam

    def test_monotone_on_fixture_d(self, sys_d, dual_d):
        values = [worst_erasure_error(sys_d, dual_d, r)[0] for r in range(1, sys_d.m)]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))

    def test_not_monotone_in_general(self, sys_c):
        # Operator-norm cancellation: adding a term to the error operator can
        # shrink its norm, so the worst case over larger erasure sets may
        # drop. The canonical dual here is a concrete witness.
        dual = canonical_kdual(sys_c).dual
        d2 = worst_erasure_error(sys_c, dual, 2)[0]
        d3 = worst_erasure_error(sys_c, dual, 3)[0]
        assert d2 == pytest.approx(2.147053311172947, abs=1e-9)
        assert d3 == pytest.approx(2.133906222871393, abs=1e-9)
        assert d3 < d2

    def test_range_validation(self, sys_a):
        dual = canonical_kdual(sys_a).dual
        with pytest.raises(ValueError):
            worst_erasure_error(sys_a, dual, 0)
        with pytest.raises(ValueError):
            worst_erasure_error(sys_a, dual, sys_a.m)

    def test_budget_cap(self, sys_d, dual_d):
        from kframes import BudgetExceededError

        with pytest.raises(BudgetExceededError):
            worst_erasure_error(sys_d, dual_d, 2, cap=3)


def _first_max_by_loop(f, g, r):
    """Largest ||F_L G_L^T|| by one operator_norm per subset, first maximizer kept."""
    best = None
    for lam in itertools.combinations(range(f.shape[1]), r):
        norm = operator_norm(f[:, list(lam)] @ g[:, list(lam)].T)
        if best is None or norm > best[0]:
            best = (norm, lam)
    return best


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 6),
    extra=st.integers(1, 6),
    rank_k=st.integers(0, 6),
    r=st.integers(1, 11),
)
def test_stacked_erasure_norms_match_a_per_subset_loop(seed, n, extra, rank_k, r):
    """Both worst errors equal a per-subset operator_norm loop bit for bit, with
    the same first maximizing set, at column scales 2^-40..2^40, from one SVD
    per chunk of the scan."""
    rng = np.random.default_rng(seed)
    m, r = n + extra, min(r, n + extra - 1)
    f, k = random_kframe(rng, n, m, min(rank_k, n))
    # Scaled columns can leave R(K) outside F's numerical span; the errors ask no K-frame.
    sys = KFrameSystem(f * 2.0 ** rng.integers(-40, 41, m), OperatorK.from_matrix(k),
                       TolerancePolicy())
    dual = verify_kdual(sys, rng.standard_normal((n, m)) * 2.0 ** rng.integers(-40, 41, m))
    residual_g = (np.eye(n) - projector(sys.K.range)) @ dual.G
    chunks, left, size = 0, comb(m, r), 1
    while left > 0:
        chunks, left, size = chunks + 1, left - size, min(8 * size, SCAN_CHUNK)
    for worst, g in ((worst_erasure_error, dual.G), (worst_residual_error, residual_g)):
        with mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd:
            got = worst(sys, dual, r)
        assert got == _first_max_by_loop(sys.F, g, r)
        assert svd.call_count == chunks


class TestTransform:
    def test_identity_transform(self, sys_a):
        out = transform(sys_a, np.eye(3), np.eye(2))
        np.testing.assert_array_equal(out.F, sys_a.F)
        np.testing.assert_array_equal(out.K.matrix, sys_a.K.matrix)

    def test_scaled_left_factor_keeps_dual(self, sys_a):
        a = np.diag([2.0, 1.0, 1.0])
        out = transform(sys_a, a, np.eye(2))
        dual = verify_kdual(out, FIXTURES["FIX-A"].dual)
        assert dual.is_valid

    def test_permutation_preserves_classification(self, sys_d):
        u = np.eye(4)[:, [1, 0, 2, 3]]
        out = transform(sys_d, np.eye(4), u)
        before, after = classify(sys_d), classify(out)
        assert before.parseval == after.parseval
        assert before.equal_norm == after.equal_norm
        assert (before.tight_alpha is None) == (after.tight_alpha is None)

    def test_tightness_preserved_under_unitary(self):
        f = np.array([[1.0, 1.0], [0.0, 0.0]])
        k = np.diag([1.0, 0.0])
        sys = verify_kframe(f, k)
        theta = 0.3
        u = np.array([
            [np.cos(theta), -np.sin(theta)],
            [np.sin(theta), np.cos(theta)],
        ])
        out = transform(sys, np.eye(2), u)
        assert classify(out).tight_alpha == pytest.approx(2.0)

    def test_rejects_non_unitary(self, sys_a):
        with pytest.raises(ValueError):
            transform(sys_a, np.eye(3), np.diag([1.0, 2.0]))

    def test_dual_equivalence_both_directions(self):
        # With invertible A and unitary U: G dual of (F, K) iff G U dual of
        # the transformed system.
        rng = np.random.default_rng(29)
        for _ in range(10):
            f, k = random_kframe(rng, 4, 6, 2)
            sys = verify_kframe(f, k)
            a = rng.standard_normal((4, 4)) + 4 * np.eye(4)
            u = np.linalg.qr(rng.standard_normal((6, 6)))[0]
            out = transform(sys, a, u)
            dual = canonical_kdual(sys).dual
            assert verify_kdual(out, dual.G @ u).is_valid
            dual_t = canonical_kdual(out).dual
            assert verify_kdual(sys, dual_t.G @ u.T).is_valid


class TestErasureSetValidation:
    def test_sorted_dedup(self):
        assert normalize_erasure_set([3, 1], 5) == (1, 3)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            normalize_erasure_set([5], 5)

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            normalize_erasure_set([1, 1], 5)


def _planted_kframe(rng, n, extra, rank_k, planted):
    """Random K-frame whose last `planted` columns copy or combine earlier ones,
    so its spark and redundancy verdicts are not all generic."""
    f, k = random_kframe(rng, n, n + extra, rank_k)
    for j in range(f.shape[1] - planted, f.shape[1]):
        picks = rng.choice(j, size=min(j, int(rng.integers(1, 3))), replace=False)
        f[:, j] = f[:, picks] @ rng.choice([-2.0, -1.0, 1.0, 3.0], size=len(picks))
    return f, k


def _verdicts(sys, duals):
    f, k, tol = sys.F, sys.K, sys.tol
    return (
        spark(f, tol).value,
        uniform_excess(f, k, tol=tol).value,
        is_maximal_robust(f, k, tol=tol),
        [mrc_all(f, k, r, tol=tol)[0] for r in range(sys.m + 1)],
        [verify_kdual(sys, g).is_valid for g in duals],
    )


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 4),
    extra=st.integers(1, 3),
    rank_k=st.integers(1, 4),
    planted=st.integers(0, 2),
)
def test_verdicts_are_invariant_under_transform(seed, n, extra, rank_k, planted):
    """Spark, uniform excess, maximal robustness, MRC at every r and dual validity
    agree on (F, K) with duals G and on (A F U, A K) with duals G U, for A = random
    + 3I and U a random signed permutation; the new system keeps the policy."""
    rng = np.random.default_rng(seed)
    rank_k = min(rank_k, n)
    f, k = _planted_kframe(rng, n, extra, rank_k, min(planted, extra))
    policy = TolerancePolicy(rank_cutoff_rel=1e-9, residual_rel=1e-8)
    sys = verify_kframe(f, k, policy)
    a = rng.standard_normal((n, n)) + 3 * np.eye(n)
    u = np.eye(sys.m)[:, rng.permutation(sys.m)] * rng.choice([-1.0, 1.0], size=sys.m)
    out = transform(sys, a, u)
    assert out.tol == policy
    duals = [canonical_kdual(sys).dual.G, rng.standard_normal((n, sys.m))]
    assert _verdicts(out, [g @ u for g in duals]) == _verdicts(sys, duals)


def _takes_a_system(fn) -> bool:
    params = list(inspect.signature(fn).parameters.values())
    return bool(params) and params[0].annotation in ("KFrameSystem", KFrameSystem)


def test_functions_of_a_system_read_its_policy():
    """A function whose first parameter is a KFrameSystem has no tol of its own;
    the system carries F, K and tol only, and K carries no policy."""
    takers = {}
    for module in ("frames", "canonical", "recovery", "redundancy"):
        mod = importlib.import_module(f"kframes.{module}")
        for name in mod.__all__:
            fn = getattr(mod, name)
            if inspect.isfunction(fn) and _takes_a_system(fn):
                takers[name] = fn
    assert {"classify", "verify_kdual", "transform", "is_canonical", "plan_recovery",
            "validate_rk_matrix", "compose_recovery_matrices"} <= takers.keys()
    assert [name for name, fn in takers.items()
            if "tol" in inspect.signature(fn).parameters] == []
    assert [fl.name for fl in dataclasses.fields(KFrameSystem)] == ["F", "K", "tol"]
    assert "tol" not in {fl.name for fl in dataclasses.fields(OperatorK)}
    assert not hasattr(OperatorK, "adjoint_range")


@pytest.mark.parametrize("scale", [1.0, 1e200, 1e-200])
@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_bounds_are_formed_on_first_read(name, scale):
    """verify_kframe leaves the bounds unformed; the first read gives the eager
    formula's value bit for bit."""
    fix = FIXTURES[name]
    f, k = scale * fix.F, scale * fix.K
    sys = verify_kframe(f, k)
    assert "bounds" not in vars(sys)
    with np.errstate(over="ignore", divide="ignore"):
        upper = np.float64(operator_norm(f)) ** 2
        lower = 1.0 / np.float64(operator_norm(pseudo_inverse(f) @ k)) ** 2
    assert sys.bounds == (lower, upper)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), rank=st.integers(0, 6),
       exponent=st.integers(-300, 300))
def test_operator_range_is_formed_once_on_first_read(seed, n, rank, exponent):
    """OperatorK.range is the signed basis that from_matrix once built eagerly,
    from the first rank left singular vectors of the SVD of K at unit size, bit
    for bit; it is signed on the first read only, and range_perp is the rest of U."""
    k = random_operator(np.random.default_rng(seed), n, min(rank, n)) * 2.0**exponent
    op = OperatorK.from_matrix(k)
    u = svd_factor(unit_scaled(k)[0])[0]
    eager = _canonical_signs(u[:, :op.rank])
    assert "range" not in vars(op)
    with mock.patch.object(frames, "_canonical_signs", wraps=_canonical_signs) as signs:
        first, again = op.range, op.range
    assert signs.call_count == 1 and first is again
    assert first.tobytes() == eager.tobytes() and first.shape == (n, op.rank)
    assert op.range_perp.tobytes() == u[:, op.rank:].tobytes()


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), rank=st.integers(0, 6),
       j=st.integers(-1080, 1030))
# K of random_kframe(default_rng(3), 2, 2, 2), whose derived pinv pair once read
# no K-dual pair at these scales (test_derived_pair_of_a_scaled_system_is_dual).
@example(seed=3, n=2, rank=2, j=500)
@example(seed=3, n=2, rank=2, j=-500)
@example(seed=3, n=2, rank=2, j=1000)
@example(seed=3, n=2, rank=2, j=-1000)
def test_operator_k_is_free_of_scale(seed, n, rank, j):
    """OperatorK of 2^j K has the rank of K and a bit-identical left, for every j
    at which 2^j K stays exact and normal: K is factored at unit size, so neither
    depends on LAPACK's rescaling of entries past about 2^±459."""
    k = random_operator(np.random.default_rng(seed), n, min(rank, n))
    with np.errstate(over="ignore", under="ignore"):
        scaled = np.ldexp(k, j)
    nonzero = np.abs(scaled[k != 0])
    assume(np.array_equal(np.ldexp(scaled, -j), k) and (nonzero >= np.finfo(float).tiny).all()
           and np.isfinite(nonzero).all())
    op, op_j = OperatorK.from_matrix(k), OperatorK.from_matrix(scaled)
    assert op_j.rank == op.rank
    assert op_j.left.tobytes() == op.left.tobytes()


def _two_norm_kdual(sys, g):
    """verify_kdual's residual and verdict from one operator_norm per norm."""
    residual = operator_norm(sys.F @ g.T - sys.K.matrix)
    return residual, bool(sys.tol.accepts(residual, operator_norm(sys.K.matrix)))


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5), extra=st.integers(0, 3),
       rank_k=st.integers(0, 5), exponent=st.integers(-300, 300),
       offset=st.sampled_from([0.0, 1e-13, 1e-9, 1e-6, 1.0]))
def test_kdual_norms_match_two_operator_norms(seed, n, extra, rank_k, exponent, offset):
    """The stacked SVD gives verify_kdual the residual and verdict of two
    operator_norm calls bit for bit, for K-duals and duals off by offset."""
    rng = np.random.default_rng(seed)
    f, k = random_kframe(rng, n, n + extra, min(rank_k, n))
    sys = verify_kframe(f * 2.0**exponent, k * 2.0**exponent)
    g = (pseudo_inverse(f) @ k).T + offset * rng.standard_normal(f.shape)
    dual = verify_kdual(sys, g)
    residual, is_valid = _two_norm_kdual(sys, g)
    assert type(dual.residual) is float and dual.residual == residual
    assert dual.is_valid is is_valid


def test_kdual_refuses_a_residual_past_float64_as_operator_norm_does():
    fix = FIXTURES["FIX-D"]
    sys = verify_kframe(1e200 * fix.F, 1e200 * fix.K)
    g = 1e200 * fix.dual
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError) as norm:
            operator_norm(sys.F @ g.T - sys.K.matrix)
        with pytest.raises(ValueError) as dual:
            verify_kdual(sys, g)
    assert str(dual.value) == str(norm.value) == "matrix contains non-finite entries"


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5), extra=st.integers(0, 3),
       rank_k=st.integers(0, 5), exponent=st.integers(-300, 300),
       offsets=st.lists(st.sampled_from([0.0, 1e-13, 1e-9, 1e-6, 1.0]), min_size=1,
                        max_size=4))
def test_many_kduals_match_one_verify_kdual_per_dual(seed, n, extra, rank_k, exponent,
                                                     offsets):
    """_verify_kduals, one stacked SVD for every G and K, returns bit for bit what
    one verify_kdual per G returns: the same G, residual and verdict."""
    rng = np.random.default_rng(seed)
    f, k = random_kframe(rng, n, n + extra, min(rank_k, n))
    sys = verify_kframe(f * 2.0**exponent, k * 2.0**exponent)
    base = (pseudo_inverse(f) @ k).T
    gs = [base + offset * rng.standard_normal(f.shape) for offset in offsets]
    many = frames._verify_kduals(sys, gs)
    for dual, g in zip(many, gs, strict=True):
        one = verify_kdual(sys, g)
        assert dual.G.tobytes() == one.G.tobytes()
        assert type(dual.residual) is float and dual.residual == one.residual
        assert dual.is_valid is one.is_valid
        assert (dual.residual, dual.is_valid) == _two_norm_kdual(sys, g)
