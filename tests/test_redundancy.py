import ast
import contextlib
import inspect
import itertools
import math
import re
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from kframes import (
    BudgetExceededError,
    KFrameError,
    ShapeMismatchError,
    classify,
    derived_pinv_frames,
    hamming_weight,
    is_kframe,
    is_maximal_robust,
    mrc_all,
    mrc_subset,
    null_space_basis,
    pseudo_inverse,
    spark,
    spark_via_kernel,
    transform,
    uniform_excess,
    verify_kframe,
)
from kframes import frames, redundancy
from kframes.fixtures import FIXTURES
from kframes.frames import SCAN_CHUNK, DualSystem, KFrameSystem, OperatorK, kframe_flags
from kframes.linalg import (
    DEFAULT_TOL,
    TolerancePolicy,
    _canonical_signs,
    intersection_dims,
    ranges_nested,
    unit_scaled,
)
from kframes.recovery import plan_recovery
from kframes.redundancy import (
    ExcessReport,
    MrcReport,
    SparkResult,
    _kframe_table,
    analyze_scans,
)

from conftest import (
    counting_dets,
    counting_subsets,
    counting_svds,
    random_kframe,
    random_operator,
    random_parseval_kframe,
    spark_oracle_bruteforce,
    stacked_blocks,
    uniform_excess_construction,
)


def _size_ascending_spark(mat, tol):
    """Reference spark: the parent's cutoff, sizes 1..rank in order, then the
    first (rank + 1)-set, dependent under that cutoff by interlacing, and the
    first dependent set's smallest right singular vector as witness."""
    m = mat.shape[1]
    s = np.linalg.svd(mat, compute_uv=False)
    cutoff = tol.rank_cutoff(s, mat.shape)
    r = int(np.count_nonzero(s > cutoff))
    if r == m:
        return SparkResult(math.inf, None)
    for size in range(1, r + 2):
        for subset in itertools.combinations(range(m), size):
            block = mat[:, list(subset)]
            values = np.linalg.svd(block, compute_uv=False)
            if size > r or int(np.count_nonzero(values > cutoff)) < size:
                witness = np.zeros(m)
                witness[list(subset)] = np.linalg.svd(block)[2][-1]
                return SparkResult(size, _canonical_signs(witness[:, None])[:, 0])


def _one_support_kernel_spark(mat, tol):
    """Reference kernel route: one SVD per support, sizes in order, each size's
    supports in lexicographic order, under the route's cutoff on the rows of an
    orthonormal kernel basis outside the support."""
    m = mat.shape[1]
    nb = null_space_basis(mat, tol).basis
    d = nb.shape[1]
    if d == 0:
        return SparkResult(math.inf, None)
    cutoff = tol.rank_cutoff_rel * max(nb.shape)
    for size in range(1, m + 1):
        for support in itertools.combinations(range(m), size):
            rows = nb[[i for i in range(m) if i not in support], :]
            values = np.linalg.svd(rows, compute_uv=False) if rows.size else np.zeros(0)
            if int(np.count_nonzero(values > cutoff)) < d:
                coeff = np.linalg.svd(rows)[2][-1] if rows.size else np.eye(d)[:, 0]
                return SparkResult(size, _canonical_signs((nb @ coeff)[:, None])[:, 0])


def _damaged_matrix(rng, n, m, rank, damage, eps, column_scales):
    """Random n x m matrix of rank <= rank, with one column zero, a duplicate,
    the sum of n - 1 others ("top": at rank n, one dependent n-set), within
    about eps of the others' span, or faint (x 1e-11), as damage says."""
    rank = min(rank, n, m)
    mat = rng.standard_normal((n, rank)) @ rng.standard_normal((rank, m))
    if m >= 2 and damage != "none":
        i, j = rng.choice(m, size=2, replace=False)
        if damage == "zero":
            mat[:, j] = 0.0
        elif damage == "duplicate":
            mat[:, j] = mat[:, i]
        elif damage == "top":
            others = rng.choice(np.delete(np.arange(m), j), size=min(n, m) - 1, replace=False)
            mat[:, j] = mat[:, others].sum(axis=1)
        elif damage == "near":
            others = np.delete(mat, j, axis=1)
            mat[:, j] = others @ rng.standard_normal(m - 1) + eps * rng.standard_normal(n)
        else:
            mat[:, j] *= 1e-11
    if column_scales:
        mat = mat * 10.0 ** rng.uniform(-3, 3, size=m)
    return mat


def _far_from_cutoffs(mat, tol, margin=1e2) -> bool:
    """Whether every singular value that spark or the kernel route compares
    with a cutoff lies outside a factor margin of it: those of mat and the
    smallest of each subset of at most n columns against spark's cutoff, and
    the smallest of the kernel basis rows outside each support of size up to
    m - d against the route's own. The routes rank different matrices, so they
    agree only there."""
    n, m = mat.shape
    s = np.linalg.svd(mat, compute_uv=False)
    cutoff = tol.rank_cutoff(s, mat.shape)
    ranked = [(s, cutoff)]
    for size in range(1, min(n, m) + 1):
        blocks = mat.T[list(itertools.combinations(range(m), size))].transpose(0, 2, 1)
        ranked.append((np.linalg.svd(blocks, compute_uv=False)[:, -1], cutoff))
    nb = null_space_basis(mat, tol).basis
    d = nb.shape[1]
    for size in range(1, m - d + 1 if d else 1):
        outside = [[i for i in range(m) if i not in support]
                   for support in itertools.combinations(range(m), size)]
        ranked.append((np.linalg.svd(nb[outside], compute_uv=False)[:, -1],
                       tol.rank_cutoff_rel * m))
    return not any(np.any((v > c / margin) & (v < c * margin)) for v, c in ranked)


@contextlib.contextmanager
def without_certificate():
    """Every subset goes to the SVD: the full-rank certificate answers unknown."""
    def unknown(mat, subsets, *args):
        return np.zeros(len(subsets), dtype=bool)

    with mock.patch.object(redundancy, "certified_full_rank", unknown):
        yield


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
        # Rank 1: the scan tests level 1 only, so it costs C(30, 1) = 30 tests.
        mat = np.vstack([np.ones(30), np.zeros(30)])
        with pytest.raises(BudgetExceededError):
            spark(mat, cap=29)
        assert spark(mat, cap=30).value == 2
        # Rank 0 has no level to test: the first column is the witness.
        assert spark(np.zeros((2, 30)), cap=1).value == 1

    def test_generic_frame_reads_only_its_rank_level(self):
        # A generic 7x14 F is full spark: C(14, 7) independent 7-sets, and
        # the first 8-set is named untested. Sizes 1..6 (6,475 more sets)
        # are never read.
        rng = np.random.default_rng(5)
        k = rng.standard_normal((7, 5)) @ rng.standard_normal((5, 7))
        f = np.hstack([k @ rng.standard_normal((7, 5)), rng.standard_normal((7, 9))])
        with counting_subsets() as seen:
            result = spark(f)
        assert result.value == 8
        assert seen[0] == math.comb(14, 7)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 6),
        m=st.integers(1, 10),
        rank=st.integers(0, 6),
        damage=st.sampled_from(["none", "zero", "duplicate", "near", "faint"]),
        eps=st.sampled_from([1e-12, 1e-10, 1e-9, 1e-8, 1e-7]),
        column_scales=st.booleans(),
        scale=st.sampled_from([1e-150, 1.0, 1e150]),
        coarse=st.booleans(),
        chunk=st.sampled_from([1, 3, SCAN_CHUNK]),
    )
    # A 3x3 whose faint column reads as zero to spark (value 1), while the
    # kernel route's rows outside it sit at 1.4 times its own cutoff (value 2).
    @example(seed=7, n=3, m=3, rank=3, damage="faint", eps=1e-12, column_scales=False,
             scale=1e-150, coarse=False, chunk=1)
    def test_matches_size_ascending_reference(
        self, seed, n, m, rank, damage, eps, column_scales, scale, coarse, chunk
    ):
        """Rank level first gives the value and witness of a size-ascending scan."""
        mat = _damaged_matrix(np.random.default_rng(seed), n, m, rank, damage, eps,
                              column_scales) * scale
        tol = TolerancePolicy(1e-3, 1e-4) if coarse else DEFAULT_TOL
        with mock.patch.object(frames, "SCAN_CHUNK", chunk):
            got = spark(mat, tol)
        want = _size_ascending_spark(mat, tol)
        assert got.value == want.value
        assert (got.witness is None) == (want.witness is None)
        if got.witness is not None:
            assert got.witness.tobytes() == want.witness.tobytes()
        # The kernel route ranks other matrices, so near a cutoff it may differ:
        # it is asked only where no column was brought near one, and only where
        # every value either route ranks lies far from its cutoff (a faint
        # column can land near one).
        if coarse or column_scales or damage == "near":
            return
        if not _far_from_cutoffs(mat, tol):
            event("a ranked singular value within 1e2 of its cutoff, kernel route skipped")
            assume(False)
        assert got.value == spark_via_kernel(mat, tol).value

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 7),
        m=st.integers(1, 12),
        rank=st.integers(0, 7),
        damage=st.sampled_from(["none", "zero", "duplicate", "near", "faint"]),
        eps=st.sampled_from([1e-12, 1e-10, 1e-9, 1e-8, 1e-7]),
        column_scales=st.booleans(),
        scale=st.sampled_from([1e-150, 1.0, 1e150]),
        coarse=st.booleans(),
        chunk=st.sampled_from([1, 3, SCAN_CHUNK]),
    )
    def test_certificate_changes_no_value_or_witness(
        self, seed, n, m, rank, damage, eps, column_scales, scale, coarse, chunk
    ):
        """Also when small blocks split each certified level."""
        mat = _damaged_matrix(np.random.default_rng(seed), n, m, rank, damage, eps,
                              column_scales) * scale
        tol = TolerancePolicy(1e-3, 1e-4) if coarse else DEFAULT_TOL
        with mock.patch.object(frames, "SCAN_CHUNK", chunk):
            got = spark(mat, tol)
        with without_certificate():
            want = spark(mat, tol)
        assert got.value == want.value
        assert (got.witness is None) == (want.witness is None)
        if got.witness is not None:
            assert got.witness.tobytes() == want.witness.tobytes()

    def test_generic_frame_needs_a_handful_of_svds(self):
        """A generic 7x14 F: the rank level's first set goes to the SVD alone
        and the certificate proves the other C(14, 7) - 1 independent, so SVDs
        run only on the parent, that first set and the witness. Without it the
        rank level goes to the SVD in chunks of 1, 8, 64, 512 and the rest of
        its first block of 2048, then its second block of 1383."""
        f = np.random.default_rng(5).standard_normal((7, 14))
        with counting_svds() as svd:
            assert spark(f).value == 8
        assert (svd.call_count, stacked_blocks(svd)) == (3, 3)
        with without_certificate(), counting_svds() as svd:
            spark(f)
        assert (svd.call_count, stacked_blocks(svd)) == (8, math.comb(14, 7) + 2)

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 6),
        m=st.integers(1, 10),
        rank=st.integers(0, 6),
        damage=st.sampled_from(["none", "zero", "duplicate", "top", "near", "faint"]),
        eps=st.sampled_from([1e-12, 1e-10, 1e-9, 1e-8, 1e-7]),
        column_scales=st.booleans(),
        scale=st.sampled_from([1e-150, 1.0, 1e150]),
        coarse=st.booleans(),
        chunk=st.sampled_from([1, 3, redundancy._KERNEL_CHUNK]),
    )
    # Zero matrices (d = m, no top size to rank), full column rank, one row,
    # repeated columns in chunks of one, and a 6x12 whose levels 5 and 6 span
    # two chunks of 512.
    @example(seed=0, n=1, m=1, rank=0, damage="none", eps=1e-9, column_scales=False,
             scale=1.0, coarse=False, chunk=1)
    @example(seed=0, n=2, m=5, rank=0, damage="none", eps=1e-9, column_scales=False,
             scale=1.0, coarse=False, chunk=512)
    @example(seed=1, n=4, m=3, rank=4, damage="none", eps=1e-9, column_scales=True,
             scale=1.0, coarse=False, chunk=512)
    @example(seed=2, n=1, m=10, rank=1, damage="zero", eps=1e-9, column_scales=False,
             scale=1e150, coarse=True, chunk=3)
    @example(seed=3, n=5, m=9, rank=5, damage="duplicate", eps=1e-9, column_scales=False,
             scale=1.0, coarse=False, chunk=1)
    @example(seed=4, n=6, m=12, rank=6, damage="none", eps=1e-9, column_scales=False,
             scale=1.0, coarse=False, chunk=512)
    # 6x12s whose one dependent set lies at the top size 6, as its 9th, 10th,
    # 73rd, 74th, 585th and 586th support: each side of the 1 | 8 | 64 | 512
    # chunk boundaries.
    @example(seed=1000, n=6, m=12, rank=6, damage="top", eps=1e-9, column_scales=False,
             scale=1.0, coarse=False, chunk=512)
    @example(seed=703, n=6, m=12, rank=6, damage="top", eps=1e-9, column_scales=False,
             scale=1.0, coarse=False, chunk=512)
    @example(seed=958, n=6, m=12, rank=6, damage="top", eps=1e-9, column_scales=False,
             scale=1.0, coarse=False, chunk=512)
    @example(seed=396, n=6, m=12, rank=6, damage="top", eps=1e-9, column_scales=False,
             scale=1.0, coarse=False, chunk=512)
    @example(seed=649, n=6, m=12, rank=6, damage="top", eps=1e-9, column_scales=False,
             scale=1.0, coarse=False, chunk=512)
    @example(seed=691, n=6, m=12, rank=6, damage="top", eps=1e-9, column_scales=False,
             scale=1.0, coarse=False, chunk=512)
    def test_kernel_route_matches_one_support_reference(
        self, seed, n, m, rank, damage, eps, column_scales, scale, coarse, chunk
    ):
        """Stacked chunks give the value and witness bytes of one SVD per support."""
        mat = _damaged_matrix(np.random.default_rng(seed), n, m, rank, damage, eps,
                              column_scales) * scale
        tol = TolerancePolicy(1e-3, 1e-4) if coarse else DEFAULT_TOL
        with mock.patch.object(redundancy, "_KERNEL_CHUNK", chunk):
            got = spark_via_kernel(mat, tol)
        want = _one_support_kernel_spark(mat, tol)
        assert got.value == want.value
        assert (got.witness is None) == (want.witness is None)
        if got.witness is not None:
            assert got.witness.tobytes() == want.witness.tobytes()

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), extra=st.integers(0, 6))
    def test_kernel_route_ranks_only_the_top_size_of_a_generic_frame(self, seed, n, extra):
        """An undamaged generic n x m F with m > n has d = m - n and no
        dependent n-set: the C(m, m - d) top supports are ranked and nothing
        below, and the first (n + 1)-set is the witness, untested. Each top
        block goes to the LU, and the ones it leaves unproven to the SVD. At
        m = n the kernel is trivial and no support is ranked."""
        m = n + extra
        f = np.random.default_rng(seed).standard_normal((n, m))
        prove, proven = redundancy._lu_proven, [0]

        def lu_proven(*args):
            out = prove(*args)
            proven[0] += int(out.sum())
            return out

        with counting_subsets() as seen, counting_svds() as svd, counting_dets() as det, \
                mock.patch.object(redundancy, "_lu_proven", lu_proven):
            got = spark_via_kernel(f)
        assert got.value == (n + 1 if extra else math.inf)
        assert seen[0] == stacked_blocks(det) == (math.comb(m, n) if extra else 0)
        # Beside the unproven blocks, one SVD finds the kernel and, when the
        # d - 1 rows outside the witness's support are not empty, one the witness.
        assert stacked_blocks(svd) == seen[0] - proven[0] + 1 + (extra >= 2)

    def test_kernel_route_counts_on_7x14(self):
        """A generic 7x14 ranks its 3,432 top supports in 10 stacked LU
        determinants, which prove every block full rank, so the SVD only
        finds the kernel and the witness; sizes 1..7 in order, in chunks of
        512, would rank 9,907 supports in 22 stacked SVDs. With its last
        column repeating its first, the top size's first deficient support,
        (0..5, 13), lies in its second chunk, and the ramps of sizes 1 and 2
        end in the chunk holding (0, 13): 9 + 14 + 73 supports, against 105
        for sizes in order in chunks of 512."""
        f = np.random.default_rng(5).standard_normal((7, 14))
        with counting_subsets() as seen, counting_svds() as svd, counting_dets() as det:
            assert spark_via_kernel(f).value == 8
        assert (seen[0], det.call_count, svd.call_count) == (math.comb(14, 7), 10, 2)
        f[:, 13] = f[:, 0]
        with counting_subsets() as seen:
            got = spark_via_kernel(f)
        assert got.value == 2 and np.flatnonzero(abs(got.witness) > 1e-9).tolist() == [0, 13]
        assert seen[0] == 96

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(1, 12),
        delta=st.sampled_from([None, -1e-3, 0.0, 1e-6, 1e-3, 1.0, 1e3]),
        cutoff_rel=st.sampled_from([1e-10, 1e-3]),
        spread=st.sampled_from([0.1, 0.5, 0.9]),
    )
    def test_lu_proof_implies_full_svd_rank(self, seed, d, delta, cutoff_rel, spread):
        """A d x d block with sigma_max <= 1 that _lu_proven proves ranks d
        under its own SVD against the same cutoff. Planted blocks get
        sigma_min = cutoff (1 + delta) and the other singular values in
        [spread, 0.99); None draws d rows of an orthonormal 2d x d basis."""
        rng = np.random.default_rng(seed)
        cutoff = cutoff_rel * 2 * d
        if delta is None:
            block = np.linalg.qr(rng.standard_normal((2 * d, d)))[0][rng.permutation(2 * d)[:d]]
        else:
            u, v = (np.linalg.qr(rng.standard_normal((d, d)))[0] for _ in range(2))
            sigma = rng.uniform(spread, 0.99, d)
            sigma[-1] = cutoff * (1 + delta)
            block = (u * sigma) @ v.T
        proven = redundancy._lu_proven(block[None], cutoff, 1.0)[0]
        event(f"proven: {bool(proven)}")
        if proven:
            assert np.count_nonzero(np.linalg.svd(block, compute_uv=False) > cutoff) == d

    def test_lu_proof_proves_well_conditioned_blocks(self):
        """The proof is not vacuous: blocks far from the cutoff are proven up
        to d = 12, and a singular one or one below the cutoff is not."""
        for d in range(1, 13):
            block = np.diag(np.linspace(0.5, 0.9, d))
            assert redundancy._lu_proven(block[None], 1e-10 * 2 * d, 1.0).all()
        assert not redundancy._lu_proven(np.diag([0.5, 2e-10])[None], 4e-10, 1.0).any()
        assert not redundancy._lu_proven(np.zeros((1, 3, 3)), 6e-10, 1.0).any()

    def test_lu_proof_skips_blocks_where_its_error_reaches_the_cutoff(self):
        """At the default tolerance the LU's error bound eta reaches the cutoff
        from d = 14 (m = 2d): a 14 x 14 stack, however well conditioned, proves
        nothing and runs no slogdet, while d = 13 still runs it."""
        for d, runs in ((13, 1), (14, 0)):
            blocks = np.broadcast_to(np.diag(np.linspace(0.5, 0.9, d)), (3, d, d))
            with counting_dets() as det:
                proven = redundancy._lu_proven(blocks, DEFAULT_TOL.rank_cutoff_rel * 2 * d, 1.0)
            assert (det.call_count, proven.tolist()) == (runs, [bool(runs)] * 3)

    def test_kernel_route_reads_no_scan_kernel(self):
        """spark_via_kernel checks spark: it ranks its own row sets, with none
        of the subset table's or the certificate's code."""
        tree = ast.parse(inspect.getsource(redundancy.spark_via_kernel))
        called = {getattr(node.func, "attr", getattr(node.func, "id", None))
                  for node in ast.walk(tree) if isinstance(node, ast.Call)}
        assert not called & {"SubsetTable", "stacked_ranks", "certified_full_rank",
                             "_spark_scan", "spark"}

    def test_lu_proof_reads_no_scan_kernel(self):
        """The route's LU proof is its own as well."""
        tree = ast.parse(inspect.getsource(redundancy._lu_proven))
        called = {getattr(node.func, "attr", getattr(node.func, "id", None))
                  for node in ast.walk(tree) if isinstance(node, ast.Call)}
        assert "slogdet" in called and not called & {
            "SubsetTable", "stacked_ranks", "certified_full_rank", "_spark_scan", "spark"}


def _min_support_in_range(a) -> int | float:
    """The sparsest nonzero vector of R(A) has weight spark(N^T), N an orthonormal
    basis of R(A)^perp, as the kernel of N^T is R(A)."""
    return spark(null_space_basis(np.asarray(a, dtype=float).T).basis.T).value


class TestMinSupportInRange:
    def test_identity(self):
        assert _min_support_in_range(np.eye(3)) == 1

    def test_single_dense_column(self):
        assert _min_support_in_range(np.ones((3, 1))) == 3

    def test_dual_analysis_range(self, dual_d, sys_d):
        # Brute-force reference: scan coefficient combinations of the range
        # basis for the sparsest nonzero element.
        target = dual_d.G.T
        value = _min_support_in_range(target)
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

    @pytest.mark.parametrize("parseval, widths", [(False, [2]), (True, [2, 4])],
                             ids=["fix_b", "parseval"])
    def test_full_frame_range_test_runs_once(self, sys_b, monkeypatch, parseval, widths):
        """One K-frame test of the 2 survivors, then, for a Parseval system alone,
        one of the full frame of 4: condition (ii) is reported only there.

        is_kframe is kframe_flags on one subset, so the widths of the subsets
        that kframe_flags receives count the tests. FIX-B is not Parseval."""
        f, k = random_parseval_kframe(np.random.default_rng(5), 3, 4, 2) if parseval \
            else (sys_b.F, sys_b.K)
        seen = []
        real = frames.kframe_flags

        def counted(f, op, subsets, tol):
            seen.extend([subsets.shape[1]] * len(subsets))
            return real(f, op, subsets, tol)

        monkeypatch.setattr(frames, "kframe_flags", counted)
        report = mrc_subset(f, k, [0, 2])
        assert seen == widths
        assert (report.parseval_condition_ii is None) is not parseval

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

    def test_operator_rank_above_m_false(self):
        """rank K = 3 > m = 2: no set of m columns can be a K-frame."""
        f = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        assert not is_maximal_robust(f, np.eye(3))

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


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), dim=st.integers(1, 4),
       extra=st.integers(0, 3), rank_k=st.integers(0, 4), built=st.booleans())
def test_raw_entry_points_refuse_f_and_k_of_different_dimensions(seed, n, dim, extra, rank_k,
                                                                 built):
    """F with n rows and K acting on R^dim, dim != n: the question has no
    meaning, and every function on raw F and K raises verify_kframe's
    ShapeMismatchError rather than answer it. K comes as a matrix or as an
    OperatorK."""
    assume(dim != n)
    rng = np.random.default_rng(seed)
    m = n + extra
    f = rng.standard_normal((n, m))
    k = random_operator(rng, dim, min(rank_k, dim))
    if built:
        k = OperatorK.from_matrix(k)
    message = re.escape(f"F has {n} rows but K acts on dimension {dim}")
    for call in (lambda: is_kframe(f, k), lambda: mrc_subset(f, k, [0]),
                 lambda: mrc_all(f, k, 1), lambda: uniform_excess(f, k),
                 lambda: is_maximal_robust(f, k), lambda: analyze_scans(f, k, 1)):
        with pytest.raises(ShapeMismatchError, match=message):
            call()


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

    @pytest.mark.parametrize("scale", [1e200, 1e-200, 2.0**1000, 2.0**-1000],
                             ids=["1e200", "1e-200", "2^1000", "2^-1000"])
    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_fixtures_at_extreme_scale_match_scale_one(self, name, scale):
        """On every erasure set of at most one vector that satisfies MRC, seq1 is
        scale free and seq2 scales as 1 / scale, with the verdicts of scale 1."""
        fix = FIXTURES[name]
        base, scaled = verify_kframe(fix.F, fix.K), verify_kframe(scale * fix.F, scale * fix.K)
        for sigma in [[]] + [[i] for i in range(base.m)]:
            if not is_kframe(np.delete(fix.F, sigma, axis=1), base.K):
                continue
            want, got = derived_pinv_frames(base, sigma), derived_pinv_frames(scaled, sigma)
            _assert_derived_pair_scaled(got, want, scale)


def _assert_derived_pair_scaled(got, want, scale):
    """got is derived_pinv_frames of a system scaled by scale, want of the system."""
    (seq1, seq2, report), (seq1_0, seq2_0, report_0) = got, want
    for name in ("pair_is_dual", "seq1_spans_pinv_range", "seq2_is_kframe"):
        assert getattr(report, name) == getattr(report_0, name)
    np.testing.assert_allclose(seq1, seq1_0, rtol=1e-9, atol=1e-9 * np.abs(seq1_0).max())
    np.testing.assert_allclose(seq2 * scale, seq2_0, rtol=1e-9,
                               atol=1e-9 * np.abs(seq2_0).max())


def _ldexp_exact(a, sign=1):
    """(lo, hi): np.ldexp(a, sign * j) is exact and keeps every nonzero entry of
    a, and every singular value above the default rank cutoff, normal and
    finite exactly when lo <= j <= hi."""
    s = np.linalg.svd(a, compute_uv=False)
    values = np.concatenate((a[a != 0], s[s > DEFAULT_TOL.rank_cutoff(s, a.shape)]))
    e = np.frexp(values)[1]
    lo, hi = int(-1021 - e.min()), int(1024 - e.max())
    return (lo, hi) if sign > 0 else (-hi, -lo)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 4),
    extra=st.integers(0, 3),
    rank_k=st.integers(1, 4),
    r=st.integers(0, 3),
    data=st.data(),
)
def test_derived_pinv_frames_is_scale_free(seed, n, extra, rank_k, r, data):
    """derived_pinv_frames on F and K scaled by 2^j gives the verdicts of scale
    1, seq1 unchanged and seq2 scaled by 2^-j. j is any exponent at which ldexp
    keeps F and K, and the scale-1 seq2 and K^+ at 2^-j, exact, with their
    entries and singular values normal: the frame operator is restricted at unit
    size, and (K^+)^T K^+ is never formed. A draw whose pair residual lies
    within 1e3 of its threshold is skipped and counted."""
    rng = np.random.default_rng(seed)
    f, k = random_kframe(rng, n, n + extra, min(rank_k, n))
    sigma = rng.choice(n + extra, size=min(r, n + extra - 1), replace=False)
    base = verify_kframe(f, k)
    assume(is_kframe(np.delete(f, sigma, axis=1), base.K))
    want = derived_pinv_frames(base, sigma)
    if want[2].dual_residual > 1e-3 * base.tol.residual_rel * (
            1 + np.linalg.norm(pseudo_inverse(k), 2)):
        event("skipped: the pair's residual within 1e3 of its threshold")
        assume(False)
    bounds = [_ldexp_exact(f), _ldexp_exact(k), _ldexp_exact(want[1], -1),
              _ldexp_exact(pseudo_inverse(k), -1)]
    j = data.draw(st.integers(max(lo for lo, _ in bounds), min(hi for _, hi in bounds)))
    event(f"|j| {'above' if abs(j) > 500 else 'up to'} 500")
    got = derived_pinv_frames(verify_kframe(np.ldexp(f, j), np.ldexp(k, j)), sigma)
    _assert_derived_pair_scaled(got, want, 2.0**j)


def _orth(a):
    """Orthonormal basis of R(a) by scipy's SVD, cut off by the default relative rule."""
    if a.size == 0:
        return np.zeros((a.shape[0], 0))
    return scipy.linalg.orth(a, rcond=DEFAULT_TOL.rank_cutoff_rel * max(a.shape))


def _reference_kframe(f, k):
    """R(K) within R(F), at unit scale: orth(K) beside orth(F) adds no rank."""
    qf = _orth(f)
    both = np.hstack([qf, _orth(k)])
    cut = DEFAULT_TOL.rank_cutoff_rel * max(both.shape)
    return np.linalg.matrix_rank(both, tol=cut) == qf.shape[1]


def _reference_exact(f, k, cols):
    """A K-frame that stops being one when any single column is removed."""
    sub = f[:, cols]
    return _reference_kframe(sub, k) and not any(
        _reference_kframe(sub[:, [i for i in range(len(cols)) if i != j]], k)
        for j in range(len(cols)))


def _reference_scans(f, k, r):
    """uniform_excess, is_maximal_robust and mrc_all subset by subset."""
    m = f.shape[1]
    rank_k = _orth(k).shape[1]
    rest = lambda lam: [i for i in range(m) if i not in lam]  # noqa: E731
    best, first = 0, None
    for size in range(1, m):
        failing = [lam for lam in itertools.combinations(range(m), size)
                   if not _reference_exact(f, k, rest(lam))]
        if not failing:
            best = size
        elif size == 1:
            first = failing[0]
    robust = rank_k <= m and all(
        _reference_exact(f, k, list(sub))
        for sub in itertools.combinations(range(m), rank_k))
    mrc_fail = next((lam for lam in itertools.combinations(range(m), r)
                     if not _reference_kframe(f[:, rest(lam)], k)), None)
    return ((best, None if best else first), robust,
            (mrc_fail is None, mrc_fail or None))


def _damaged_kframe(rng, n, m, rank_k, damage):
    """random_kframe, with one column a copy of another or zero, or two
    columns copies of two others, as damage says."""
    f, k = random_kframe(rng, n, m, min(rank_k, n))
    if damage in ("duplicate", "zero") and m >= 2:
        i, j = rng.choice(m, size=2, replace=False)
        f[:, j] = f[:, i] if damage == "duplicate" else 0.0
    elif damage == "two_duplicates" and m >= 4:
        i, j, a, b = rng.choice(m, size=4, replace=False)
        f[:, j], f[:, b] = f[:, i], f[:, a]
    return f, k


# K invertible with duplicate columns: the first read of T_3 stops at an
# unproven set inside a block, and a later read must resume at its next one.
@example(seed=1, n=3, extra=2, rank_k=4, damage="two_duplicates", r=1, chunk=3)
@example(seed=380, n=3, extra=1, rank_k=4, damage="duplicate", r=1, chunk=3)
@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 4),
    extra=st.integers(0, 3),
    rank_k=st.integers(0, 4),
    damage=st.sampled_from(["none", "duplicate", "two_duplicates", "zero", "faint_k"]),
    r=st.integers(0, 3),
    chunk=st.sampled_from([1, 3, SCAN_CHUNK]),
)
def test_table_scans_match_subset_by_subset_reference(
    seed, n, extra, rank_k, damage, r, chunk
):
    """Two duplicate pairs leave several unproven sets in one certified block,
    so a level read again after an early stop must resume inside that block."""
    rng = np.random.default_rng(seed)
    m = n + extra
    f, k = _damaged_kframe(rng, n, m, rank_k, damage)
    if damage == "faint_k":
        # K far below F's scale: the verdicts must follow R(K), which the
        # reference reads at unit scale, not K's size next to F's.
        k = k * 1e-13
    r = min(r, m)
    excess, robust, mrc = _reference_scans(f, k, r)
    # Small chunks split levels, so the tables are read across chunks.
    with mock.patch.object(frames, "SCAN_CHUNK", chunk):
        got = uniform_excess(f, k)
        assert (got.value, got.witness) == excess
        assert got.maximal_robust == robust
        assert is_maximal_robust(f, k) == robust
        assert mrc_all(f, k, r) == mrc
        assert spark(f).value == spark_via_kernel(f).value


_SCALES = st.one_of(st.sampled_from([1e-150, 1e150]),
                    st.floats(-150, 150).map(lambda e: 10.0 ** e))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 5),
    extra=st.integers(0, 4),
    damage=st.sampled_from(["none", "duplicate", "two_duplicates", "zero"]),
    r=st.integers(0, 3),
    a=_SCALES,
    b=_SCALES,
)
def test_analyze_reads_t_n_off_spark_as_uniform_excess_would(seed, n, extra, damage, r, a, b):
    """With K invertible, analyze takes T_n all true when spark's rank level
    holds no dependent set (spark n + 1; undamaged), and reads it itself when
    spark is at most n (damaged): either way its uniform excess and maximal
    robustness are uniform_excess's own, under independent scalings of F and K."""
    rng = np.random.default_rng(seed)
    m = n + extra
    f, k = _damaged_kframe(rng, n, m, n, damage)
    f, k = a * f, b * k
    r = min(r, m)
    spark_f, excess, mrc = analyze_scans(f, k, r)
    assert excess == uniform_excess(f, k)
    assert (spark_f.value, mrc) == (spark(f).value, mrc_all(f, k, r))


def _kframe_verdicts(f, k, sigma, r):
    excess = uniform_excess(f, k)
    return (is_kframe(f, k), mrc_subset(f, k, sigma).is_mrc, mrc_all(f, k, r),
            (excess.value, excess.witness, excess.maximal_robust), is_maximal_robust(f, k))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 4),
    extra=st.integers(0, 3),
    rank_k=st.integers(0, 4),
    damage=st.sampled_from(["none", "duplicate", "zero"]),
    r=st.integers(0, 3),
    e_f=st.integers(-490, 490),
    e_k=st.integers(-490, 490),
)
def test_kframe_verdicts_are_invariant_under_scaling(seed, n, extra, rank_k, damage, r,
                                                     e_f, e_k):
    """K-frame, MRC, uniform excess and maximal robustness verdicts agree on (F, K)
    and (2^e_f F, 2^e_k K): scaling by a power of two is exact, and K enters the
    test only through orthonormal bases."""
    rng = np.random.default_rng(seed)
    m = n + extra
    f, k = _damaged_kframe(rng, n, m, rank_k, damage)
    r = min(r, m)
    sigma = rng.choice(m, size=r, replace=False)
    assert _kframe_verdicts(np.ldexp(f, e_f), np.ldexp(k, e_k), sigma, r) == (
        _kframe_verdicts(f, k, sigma, r))


def _mrc_subset_before(f, k, sigma):
    """mrc_subset as it was written before it classified first: condition (i)
    through the signed basis op.range, and the whole-frame K-frame test run
    before classify, on every system."""
    op = OperatorK.from_matrix(k)
    m = f.shape[1]
    sig = tuple(sorted(int(i) for i in sigma))
    survivors = [i for i in range(m) if i not in sig]
    mrc = is_kframe(f[:, survivors], op)
    coeffs = unit_scaled(f)[0].T @ op.range.basis
    cond_i = not intersection_dims(coeffs[None], np.eye(m)[:, survivors])[0]
    cond_ii = None
    if is_kframe(f, op):
        sys_full = KFrameSystem(f, op, DEFAULT_TOL)
        with np.errstate(over="ignore"):
            parseval = classify(sys_full).parseval
        if parseval:
            cond_ii = redundancy._parseval_condition(sys_full, sig, survivors)
    return MrcReport(sigma=sig, is_mrc=mrc, necessary_condition_i=cond_i,
                     parseval_condition_ii=cond_ii)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["parseval", "tight", "none", "duplicate", "zero", "not_kframe"]),
    n=st.integers(1, 4),
    extra=st.integers(0, 3),
    rank_k=st.integers(0, 4),
    r=st.integers(0, 3),
    exponent=st.integers(-300, 300),
)
def test_mrc_subset_matches_its_former_formulation(seed, kind, n, extra, rank_k, r, exponent):
    """mrc_subset reports what it did when it tested the whole frame before
    classify and read condition (i) through K's signed range: on Parseval
    systems, tight ones with frame bound 4, damaged K-frames and pairs that are no
    K-frame (F of rank below n, K invertible), each scaled by 2^exponent."""
    rng = np.random.default_rng(seed)
    m = n + extra
    if kind in ("parseval", "tight"):
        f, k = random_parseval_kframe(rng, n, m, max(min(rank_k, n), 1))
        f = 2 * f if kind == "tight" else f
    elif kind == "not_kframe":
        f = random_operator(rng, n, n - 1) @ rng.standard_normal((n, m))
        k = random_operator(rng, n, n)
    else:
        f, k = _damaged_kframe(rng, n, m, rank_k, kind)
    f, k = np.ldexp(f, exponent), np.ldexp(k, exponent)
    sigma = rng.choice(m, size=min(r, m), replace=False)
    report = mrc_subset(f, k, sigma)
    event(f"{kind}: condition (ii) {report.parseval_condition_ii}")
    assert report == _mrc_subset_before(f, k, sigma)


def _intersection_verdicts(f, k, g, sigma, r):
    """ranges_nested both ways between F and K, consistency range_ok for every
    r-set, and MRC condition (i) for sigma."""
    sys = KFrameSystem(f, OperatorK.from_matrix(k), DEFAULT_TOL)
    sets = np.array(list(itertools.combinations(range(f.shape[1]), r)), dtype=np.intp)
    # plan_recovery reads G and is_valid of the dual, never K: cG is a K-dual of
    # acK, not of bK, and marked valid so that its F-ambiguity rule is compared.
    plan = plan_recovery(sys, "consistency", sets, dual=DualSystem(g, math.nan, True))
    return (ranges_nested(k, f), ranges_nested(f, k), plan.range_ok.tolist(),
            mrc_subset(f, k, sigma).necessary_condition_i)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 4),
    extra=st.integers(1, 3),
    rank_k=st.integers(0, 4),
    damage=st.sampled_from(["none", "duplicate", "zero"]),
    r=st.integers(0, 3),
    a=st.floats(-150, 150),
    b=st.floats(-150, 150),
    c=st.floats(-150, 150),
)
def test_intersection_verdicts_are_invariant_under_scaling(seed, n, extra, rank_k, damage, r,
                                                           a, b, c):
    """Every caller of the one intersection rule, and consistency's F-ambiguity
    rule, keeps its verdicts under F -> aF, K -> bK and G -> cG, for
    independent a, b and c in 10^±150, not only powers of two."""
    rng = np.random.default_rng(seed)
    m = n + extra
    f, k = _damaged_kframe(rng, n, m, rank_k, damage)
    g = (np.linalg.pinv(f) @ k).T
    r = min(r, m - 1)
    sigma = rng.choice(m, size=r, replace=False)
    a, b, c = 10.0 ** a, 10.0 ** b, 10.0 ** c
    assert _intersection_verdicts(a * f, b * k, c * g, sigma, r) == (
        _intersection_verdicts(f, k, g, sigma, r))


@pytest.mark.parametrize("scale", [1e-10, 1e8, 1e9, 1e10])
def test_kframe_verdicts_ignore_the_size_of_k(scale):
    """Neither a K far larger than F nor a faint one moves a verdict: F is a
    K-frame, every 3-set erasure meets MRC, and uniform excess is 0."""
    f, k = random_kframe(np.random.default_rng(0), 3, 6, 2)
    verdicts = lambda k: (is_kframe(f, k), mrc_all(f, k, 3), uniform_excess(f, k))  # noqa: E731
    assert verdicts(scale * k) == verdicts(k) == (
        True, (True, None), ExcessReport(value=0, witness=(0,), maximal_robust=False))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 6),
    extra=st.integers(0, 6),
    rank=st.integers(0, 6),
    damage=st.sampled_from(["none", "zero", "duplicate", "near", "faint"]),
    eps=st.sampled_from([1e-12, 1e-10, 1e-8]),
    column_scales=st.booleans(),
    scale=st.sampled_from([1e-150, 1.0, 1e150]),
    coarse=st.booleans(),
    chunk=st.sampled_from([1, 3, SCAN_CHUNK]),
)
def test_certificate_changes_no_kframe_flag(seed, n, extra, rank, damage, eps, column_scales,
                                            scale, coarse, chunk):
    """With K invertible, the K-frame table gives every subset the flag that
    kframe_flags, the SVD alone, gives it, also when a level is read again
    after its first failing set stopped a read inside a certified block."""
    rng = np.random.default_rng(seed)
    m = n + extra
    f = _damaged_matrix(rng, n, m, rank, damage, eps, column_scales) * scale
    tol = TolerancePolicy(1e-3, 1e-4) if coarse else DEFAULT_TOL
    op = OperatorK.from_matrix(rng.standard_normal((n, n)), tol)
    with mock.patch.object(frames, "SCAN_CHUNK", chunk):
        table = _kframe_table("t", f, op, range(1, m + 1), 2**m, tol)
        for size in range(1, m + 1):
            subsets = list(itertools.combinations(range(m), size))
            want = kframe_flags(f, op, np.array(subsets), tol)
            failing = np.flatnonzero(~want)
            assert table.first(size, False) == (subsets[failing[0]] if failing.size else None)
            assert np.array_equal(table.results(size), want)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 6),
    extra=st.integers(1, 6),
    rank_k=st.integers(1, 6),
    push=st.integers(5, 13),
    damage=st.sampled_from(["none", "duplicate", "zero", "both"]),
    f_scale=_SCALES,
    k_scale=_SCALES,
    r=st.integers(0, 6),
)
def test_span_proofs_never_contradict_the_svd(seed, n, extra, rank_k, push, damage,
                                              f_scale, k_scale, r):
    """Wherever the certificate proves that F_S, of at least n columns, spans
    R^n, kframe_flags reads a K-frame, and wherever it proves that of an
    erasure set's complement, mrc_subset reads MRC: for K of any rank, F's
    sigma_n pushed down to 10^-push sigma_1, duplicate and zero columns, and
    F and K scaled apart by up to 10^300."""
    rng = np.random.default_rng(seed)
    m, rank_k = n + extra, min(rank_k, n)
    u, s, vt = np.linalg.svd(rng.standard_normal((n, m)), full_matrices=False)
    s[-1] = s[0] * 10.0**-push
    f = (u * s) @ vt
    if damage in ("duplicate", "both"):
        f[:, 1] = f[:, 0]
    if damage in ("zero", "both"):
        f[:, -1] = 0.0
    f *= f_scale
    op = OperatorK.from_matrix(random_operator(rng, n, rank_k) * k_scale)
    prove = redundancy._span_prover(f, op, DEFAULT_TOL)
    levels = {size: np.array(list(itertools.combinations(range(m), size)),
                             dtype=np.intp).reshape(math.comb(m, size), size)
              for size in range(m + 1)}
    for size in range(n, m + 1):
        assert kframe_flags(f, op, levels[size][prove(levels[size])]).all()
    sets = levels[min(r, m - n)]
    proven = sets[prove(frames._complements(sets, m))]
    for sigma in proven[rng.permutation(len(proven))[:20]]:
        assert mrc_subset(f, op, sigma).is_mrc


def test_uniform_excess_with_k_invertible_needs_a_handful_of_svds():
    """T_7's first set goes to the SVD alone and its other C(14, 7) - 1 sets
    are proven K-frames, so only K's SVD and that first test run. Without the
    certificate T_7 goes to the SVD in six chunks (1, 8, 64, 512, 1464 and
    1383 sets)."""
    f, k = random_kframe(np.random.default_rng(5), 7, 14, 7)
    with counting_svds() as svd:
        report = uniform_excess(f, k)
    assert (report.value, report.maximal_robust) == (7, True)
    assert (svd.call_count, stacked_blocks(svd)) == (2, 2)
    with without_certificate(), counting_svds() as svd:
        uniform_excess(f, k)
    assert (svd.call_count, stacked_blocks(svd)) == (7, math.comb(14, 7) + 1)


def _straddling_operator():
    """The first default_rng(0) K, column 3 = column 1 + 1e-9 noise, whose
    values-only and full SVDs differ in the last singular value, with a policy
    whose cutoff lies between the two; and the rng, to draw on from there."""
    rng = np.random.default_rng(0)
    while True:
        k = rng.standard_normal((3, 3))
        k[:, 2] = k[:, 0] + 1e-9 * rng.standard_normal(3)
        routes = np.linalg.svd(k, compute_uv=False), np.linalg.svd(k)[1]
        if routes[0][-1] != routes[1][-1]:
            break
    # The values differ by an ulp or two: step the cutoff to the lower one.
    rel = float(min(routes[0][-1], routes[1][-1]) / (3 * routes[1][0]))
    for _ in range(16):
        tol = TolerancePolicy(rel)
        ranks = {int(np.count_nonzero(s > tol.rank_cutoff(s, k.shape))) for s in routes}
        if len(ranks) == 2:
            return k, tol, rng
        rel = float(np.nextafter(rel, 0.0 if ranks == {2} else 1.0))
    raise AssertionError("no cutoff between the two routes")


def test_operator_rank_and_range_come_from_one_svd():
    """With K's two SVD routes on either side of the cutoff, rank K is still its
    range's dimension, and maximal robustness follows the K-frame tables: every
    rank-K set of F, drawn inside R(K), is exact."""
    k, tol, rng = _straddling_operator()
    op = OperatorK.from_matrix(k, tol)
    assert op.rank == op.range.dim
    f = op.range.basis @ rng.standard_normal((op.rank, 4))
    sets = lambda s: np.array(list(itertools.combinations(range(4), s)))  # noqa: E731
    exact = (kframe_flags(f, op, sets(op.range.dim), tol).all()
             and not kframe_flags(f, op, sets(op.range.dim - 1), tol).any())
    assert exact
    assert uniform_excess(f, op, tol=tol).maximal_robust == exact
    assert is_maximal_robust(f, op, tol=tol) == exact
