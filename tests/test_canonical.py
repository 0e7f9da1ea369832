import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from kframes import (
    canonical_kdual,
    canonical_kdual_restricted,
    dual_perturbation,
    is_canonical,
    null_space_basis,
    operator_norm,
    pseudo_inverse,
    range_basis,
    rank_of,
    verify_kdual,
    verify_kframe,
)
from kframes.fixtures import FIXTURES
from kframes.linalg import unit_scaled

from conftest import random_inrange_kframe, random_kframe, random_parseval_kframe


class TestCanonicalKdual:
    def test_fixture_a_exact(self, sys_a):
        result = canonical_kdual(sys_a)
        np.testing.assert_allclose(result.dual.G, FIXTURES["FIX-A"].dual, atol=1e-12)
        assert result.dual.is_valid
        assert result.analysis_norm == pytest.approx(1.5)

    def test_orthonormal_basis_self_dual(self):
        sys = verify_kframe(np.eye(4), np.eye(4))
        result = canonical_kdual(sys)
        np.testing.assert_allclose(result.dual.G, np.eye(4), atol=1e-12)

    def test_minimal_norm_against_perturbations(self, sys_d):
        result = canonical_kdual(sys_d)
        null = null_space_basis(sys_d.F)
        rng = np.random.default_rng(31)
        for _ in range(50):
            coeffs = rng.standard_normal((sys_d.n, null.shape[1]))
            other = dual_perturbation(sys_d, result.dual, coeffs)
            assert result.analysis_norm <= operator_norm(other.G.T) + 1e-9

    def test_factorization_invariants(self, sys_c):
        result = canonical_kdual(sys_c)
        # F X = M_K, columns of X inside the row space of F, X = F^T C.
        np.testing.assert_allclose(
            sys_c.F @ result.analysis_map, sys_c.K.matrix, atol=1e-10
        )
        row_proj = pseudo_inverse(sys_c.F) @ sys_c.F
        np.testing.assert_allclose(
            row_proj @ result.analysis_map, result.analysis_map, atol=1e-10
        )
        np.testing.assert_allclose(
            sys_c.F.T @ result.vector_map, result.analysis_map, atol=1e-10
        )

    def test_invariant_under_joint_column_permutation(self, sys_d):
        perm = [2, 0, 3, 1]
        sys_p = verify_kframe(sys_d.F[:, perm], sys_d.K.matrix)
        g_p = canonical_kdual(sys_p).dual.G
        g = canonical_kdual(sys_d).dual.G
        inverse = np.argsort(perm)
        np.testing.assert_allclose(g_p[:, inverse], g, atol=1e-9)


class TestDualVectorMap:
    def test_reproduces_dual_vectors(self, sys_a):
        c = canonical_kdual(sys_a).vector_map
        g = canonical_kdual(sys_a).dual.G
        np.testing.assert_allclose(c.T @ sys_a.F, g, atol=1e-12)

    def test_parseval_shortcut(self):
        # For a Parseval system the map is the transposed pseudo-inverse of
        # the operator and the canonical dual collapses to K^+ F.
        rng = np.random.default_rng(33)
        for _ in range(10):
            f, k = random_parseval_kframe(rng, 5, 7, 3)
            sys = verify_kframe(f, k)
            c = canonical_kdual(sys).vector_map
            np.testing.assert_allclose(c, pseudo_inverse(k).T, atol=1e-8)
            np.testing.assert_allclose(
                canonical_kdual(sys).dual.G, pseudo_inverse(k) @ f, atol=1e-8
            )

    def test_projector_frame_consistency(self):
        rng = np.random.default_rng(34)
        q = np.linalg.qr(rng.standard_normal((5, 3)))[0]
        f = q
        k = f @ f.T
        sys = verify_kframe(f, k)
        c = canonical_kdual(sys).vector_map
        x = canonical_kdual(sys).analysis_map
        np.testing.assert_allclose(f.T @ c, x, atol=1e-10)


class TestIsCanonical:
    def test_fixture_a_true(self, sys_a):
        dual = verify_kdual(sys_a, FIXTURES["FIX-A"].dual)
        assert is_canonical(sys_a, dual)

    def test_perturbed_false(self, sys_d, dual_d):
        can = canonical_kdual(sys_d).dual
        null = null_space_basis(sys_d.F)
        coeffs = np.ones((sys_d.n, null.shape[1]))
        perturbed = dual_perturbation(sys_d, can, coeffs)
        assert not is_canonical(sys_d, perturbed)
        # The published dual differs from canonical, so it cannot pass.
        assert not is_canonical(sys_d, dual_d)

    def test_unique_dual_always_canonical(self):
        sys = verify_kframe(np.eye(3), np.eye(3))
        assert is_canonical(sys, canonical_kdual(sys).dual)

    def test_forward_identity_for_canonical(self, sys_c):
        # For the canonical dual, G G^T equals G Z^T for every sampled dual.
        can = canonical_kdual(sys_c).dual
        null = null_space_basis(sys_c.F)
        rng = np.random.default_rng(37)
        gram = can.G @ can.G.T
        for _ in range(20):
            z = dual_perturbation(
                sys_c, can, rng.standard_normal((sys_c.n, null.shape[1]))
            )
            assert operator_norm(gram - can.G @ z.G.T) <= 1e-8

    def test_rejects_invalid_dual(self, sys_c, dual_c):
        with pytest.raises(ValueError):
            is_canonical(sys_c, dual_c)


class TestRestrictedFormulas:
    def test_fixture_a_both_formulas_canonical(self, sys_a):
        report = canonical_kdual_restricted(sys_a)
        expected = FIXTURES["FIX-A"].dual
        np.testing.assert_allclose(report.dual_image.G, expected, atol=1e-10)
        np.testing.assert_allclose(report.dual_domain.G, expected, atol=1e-10)
        assert report.hypotheses == {
            "frame_in_operator_range": False,
            "operator_range_in_image": True,
            "frame_in_image": False,
        }

    def test_fixture_b_formula_not_a_dual(self, sys_b):
        report = canonical_kdual_restricted(sys_b)
        np.testing.assert_allclose(report.dual_image.G, FIXTURES["FIX-B"].dual,
                                   atol=1e-10)
        assert not report.dual_image.is_valid
        assert not any(report.hypotheses.values())

    def test_frame_inside_operator_range_gives_canonical(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            f, k = random_inrange_kframe(rng, 5, 6, 3)
            sys = verify_kframe(f, k)
            report = canonical_kdual_restricted(sys)
            assert report.hypotheses["frame_in_operator_range"]
            assert report.dual_image.is_valid
            np.testing.assert_allclose(
                report.dual_image.G, canonical_kdual(sys).dual.G, atol=1e-8
            )

    def test_domain_formula_under_its_hypothesis(self):
        # R(K) invariant under the frame operator makes the domain formula
        # land on the canonical dual as well.
        rng = np.random.default_rng(43)
        for _ in range(10):
            f, k = random_inrange_kframe(rng, 5, 7, 2)
            sys = verify_kframe(f, k)
            report = canonical_kdual_restricted(sys)
            if report.hypotheses["operator_range_in_image"]:
                np.testing.assert_allclose(
                    report.dual_domain.G, canonical_kdual(sys).dual.G, atol=1e-8
                )

    @pytest.mark.parametrize("scale", [1e200, 1e-200, 2.0**1000, 2.0**-1000],
                             ids=["1e200", "1e-200", "2^1000", "2^-1000"])
    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_fixtures_at_extreme_scale_match_scale_one(self, name, scale):
        fix = FIXTURES[name]
        base = canonical_kdual_restricted(verify_kframe(fix.F, fix.K))
        scaled = canonical_kdual_restricted(verify_kframe(scale * fix.F, scale * fix.K))
        assert scaled.hypotheses == base.hypotheses
        for attr in ("dual_image", "dual_domain"):
            want, got = getattr(base, attr), getattr(scaled, attr)
            assert got.is_valid == want.is_valid
            np.testing.assert_allclose(got.G, want.G, rtol=1e-9,
                                       atol=1e-9 * np.abs(want.G).max())


class TestMinimality:
    def test_douglas_minimality_random_systems(self):
        rng = np.random.default_rng(47)
        for _ in range(30):
            f, k = random_kframe(rng, 4, 6, 2)
            sys = verify_kframe(f, k)
            result = canonical_kdual(sys)
            null = null_space_basis(sys.F)
            for _ in range(3):
                other = dual_perturbation(
                    sys, result.dual, rng.standard_normal((sys.n, null.shape[1]))
                )
                assert result.analysis_norm <= operator_norm(other.G.T) + 1e-9


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    inrange=st.booleans(),
    n=st.integers(2, 4),
    extra=st.integers(1, 3),
    rank_k=st.integers(1, 4),
    exponent=st.integers(-60, 60),
    k_exponent=st.integers(-30, 0),
)
def test_canonical_dual_is_minimal(seed, inrange, n, extra, rank_k, exponent, k_exponent):
    """On K-frames with a nontrivial kernel, with F and K scaled by 10^exponent
    and K alone by a further 10^k_exponent, is_canonical accepts the canonical
    dual G and rejects G + C N^T for C != 0 (N a kernel basis of F), whose
    analysis norm is no smaller than the canonical one. G scales by
    10^k_exponent, and so does C. K is not scaled up: for K far larger than F,
    verify_kframe itself misjudges the range inclusion."""
    rng = np.random.default_rng(seed)
    draw = random_inrange_kframe if inrange else random_kframe
    f, k = draw(rng, n, n + extra, min(rank_k, n))
    c = 10.0 ** exponent
    sys = verify_kframe(c * f, c * 10.0 ** k_exponent * k)
    result = canonical_kdual(sys)
    assert is_canonical(sys, result.dual)
    null = null_space_basis(sys.F, sys.tol)
    assert null.shape[1] >= extra
    coeffs = rng.standard_normal((sys.n, null.shape[1]))
    coeffs[0, 0] += np.copysign(1.0, coeffs[0, 0])  # keeps C away from 0
    other = dual_perturbation(sys, result.dual, 10.0 ** k_exponent * coeffs)
    assert other.is_valid
    assert not is_canonical(sys, other)
    assert result.analysis_norm <= operator_norm(other.G.T) * (1 + 1e-12)


def _reference_range(a):
    """Orthonormal basis of R(a) from scipy's SVD under the policy's default rank
    rule (1e-10 max(shape) sigma_max), and whether a singular value lies within a
    factor 1e2 of that cutoff."""
    u, s, _ = scipy.linalg.svd(a)
    cut = 1e-10 * max(a.shape) * s.max(initial=0.0)
    return u[:, :np.count_nonzero(s > cut)], bool(((s > cut / 1e2) & (s < cut * 1e2)).any())


def _reference_included(inner, outer):
    """Whether R(inner) lies in R(outer), by scipy SVDs: the largest principal-angle
    sine, ||(I - Q_o Q_o^T) Q_i||, against the cutoff of a unit-norm n-row block;
    and whether any decision was within a factor 1e2 of its cutoff."""
    (qi, near_i), (qo, near_o) = _reference_range(inner), _reference_range(outer)
    sine = scipy.linalg.svdvals(qi - qo @ (qo.T @ qi)).max(initial=0.0)
    cut = 1e-10 * inner.shape[0]
    return bool(sine <= cut), near_i or near_o or cut / 1e2 < sine < cut * 1e2


def _hypothesis_system(rng, kind, n, extra, rank_f, rank_k):
    """F (n x (n + extra)) and K with R(K) in R(F): a generic F with rank K of
    rank_k; F inside R(K); a Parseval system; or an F of rank rank_f whose range
    holds the range of K, of rank min(rank_k, rank_f)."""
    m = n + extra
    if kind == "generic":
        return random_kframe(rng, n, m, rank_k)
    if kind == "inrange":
        return random_inrange_kframe(rng, n, m, max(rank_k, 1))
    if kind == "parseval":
        return random_parseval_kframe(rng, n, m, max(rank_k, 1))
    a = rng.standard_normal((n, rank_f))
    rank_k = min(rank_k, rank_f)
    return a @ rng.standard_normal((rank_f, m)), a[:, :rank_k] @ rng.standard_normal((rank_k, n))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(("generic", "inrange", "parseval", "lowrank")),
    n=st.integers(2, 5),
    extra=st.integers(0, 3),
    rank_f=st.integers(1, 5),
    rank_k=st.integers(0, 5),
    exponent=st.integers(-300, 300),
)
def test_restricted_hypotheses_match_scipy_inclusions(seed, kind, n, extra, rank_f, rank_k,
                                                      exponent):
    """The three restricted hypotheses, read from one rank of F and from K's own
    R(K)^perp, equal subspace inclusions found by scipy: R(F) in R(K), R(K) in
    S R(K) and R(F) in S R(K), S = F F^T, on systems with F or K rank deficient
    (K = 0 among them) and scaled by 2^exponent. A draw with a rank or inclusion
    decision within a factor 1e2 of its cutoff, or whose S R(K) reads short of
    rank K there, is skipped and counted."""
    rng = np.random.default_rng(seed)
    f, k = _hypothesis_system(rng, kind, n, extra, min(rank_f, n), min(rank_k, n))
    (q_k, near_k), (_, near_f) = _reference_range(k), _reference_range(f)
    q_image, near_image = _reference_range(f @ (f.T @ q_k)) if q_k.size else (q_k, False)
    checks = {
        "frame_in_operator_range": _reference_included(f, q_k),
        "operator_range_in_image": _reference_included(q_k, q_image),
        "frame_in_image": _reference_included(f, q_image),
    }
    if near_k or near_f or near_image or any(near for _, near in checks.values()):
        event("skipped: a decision within 1e2 of its cutoff")
        assume(False)
    if q_image.shape[1] < q_k.shape[1]:
        event("skipped: S restricted to R(K) reads singular")
        assume(False)
    sys = verify_kframe(np.ldexp(f, exponent), np.ldexp(k, exponent))
    held = {name: verdict for name, (verdict, _) in checks.items()}
    event(f"hypotheses {sorted(name for name in held if held[name])}")
    assert canonical_kdual_restricted(sys).hypotheses == held


def _restricted_duals_ranked(sys):
    """The restricted duals as they were computed while the restriction was
    ranked: range_basis of S d (S = F F^T at unit size, d K's signed range
    basis) and the inverse of the coordinate matrix r^T S d; None where that
    route refused, the basis having fewer than rank K columns."""
    f, f_exp = unit_scaled(sys.F)
    d = sys.K.range
    image = (f @ f.T) @ d
    r = range_basis(image, sys.tol)
    if r.shape[1] < d.shape[1]:
        return None
    inv = np.linalg.inv(r.T @ image)
    mk_t = sys.K.matrix.T
    return (np.ldexp(mk_t @ d @ inv @ r.T @ f, -f_exp),
            np.ldexp(mk_t @ r @ inv.T @ d.T @ f, -f_exp))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(("generic", "inrange", "parseval", "lowrank")),
    n=st.integers(2, 5),
    extra=st.integers(0, 3),
    rank_f=st.integers(1, 5),
    rank_k=st.integers(0, 5),
    exponent=st.integers(-300, 300),
)
def test_restricted_duals_match_the_ranked_route(seed, kind, n, extra, rank_f, rank_k,
                                                 exponent):
    """Wherever the ranked route answers, both restricted duals equal its duals
    bit for bit: the unranked basis differs from range_basis's only in column
    signs, which cancel exactly in inv r^T and r inv^T, and K taken at unit size
    is scaled by a power of two, which is exact. Systems as in the scipy
    property, F or K rank deficient (K = 0 among them), scaled by 2^exponent.
    Both R(F) hypotheses read rank F = rank K."""
    rng = np.random.default_rng(seed)
    f, k = _hypothesis_system(rng, kind, n, extra, min(rank_f, n), min(rank_k, n))
    sys = verify_kframe(np.ldexp(f, exponent), np.ldexp(k, exponent))
    report = canonical_kdual_restricted(sys)
    ranked = _restricted_duals_ranked(sys)
    event(f"{kind}: the ranked route {'refused' if ranked is None else 'answered'}")
    if ranked is not None:
        for dual, want in zip((report.dual_image, report.dual_domain), ranked):
            assert dual.G.tobytes() == want.tobytes()
    spans = rank_of(sys.F, sys.tol) == sys.K.rank
    hyp = report.hypotheses
    assert hyp["frame_in_operator_range"] == hyp["frame_in_image"] == spans
