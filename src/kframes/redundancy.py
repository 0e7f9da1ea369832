"""Combinatorial redundancy diagnostics: spark, MRC, uniform excess, robustness.

The spark of a matrix is the minimal Hamming weight over nonzero kernel
vectors, equivalently the size of the smallest linearly dependent column
subset; it is +inf when the kernel is trivial. Brute-force enumeration is
intentional: the quantities are NP-hard in general but the target instances
are desk scale.

Every scan takes its subsets from frames.scan_subsets under one budget rule,
frames.scan_budget: before the first subset test, count the tests the scan
can run in the worst case and raise BudgetExceededError when that exceeds cap
(default 10**6). A test is one rank decision on a submatrix or one K-frame
check. Subsets come in chunks of one size, growing from 1 to
frames.SCAN_CHUNK, and each chunk's tests are decided by one stacked SVD per
rank test, which gives every subset the singular values of its own SVD.

An index set sigma satisfies the minimal redundancy condition (MRC) when
the frame restricted to the complement is still a K-frame. "Exact K-frame"
means a K-frame that stops being one when any single column is removed.
Exactness is read from per-size tables T_s (is every s-column subset a
K-frame?): every s-set is exact exactly when all of T_s holds and none of
T_(s-1) does, because every (s-1)-set is some s-set minus one column. A
table is read only until its all/none is decided, so these are worst cases:
is_maximal_robust tests at most C(m, rank K) + C(m, rank K - 1) subsets, and
uniform_excess, which may need T_s for every s < m, at most 2^m - 1.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import KFrameError, RestrictedInverseError
from .frames import (
    KFrameSystem,
    OperatorK,
    _unit_scaled,
    classify,
    is_kframe,
    kframe_flags,
    normalize_erasure_set,
    scan_budget,
    scan_subsets,
    verify_kframe,
)
from .linalg import (
    DEFAULT_TOL,
    _TINY,
    TolerancePolicy,
    _canonical_signs,
    column_blocks,
    ensure_matrix,
    ensure_vector,
    null_space_basis,
    operator_norm,
    pseudo_inverse,
    range_basis,
    rank_of,
    ranges_nested,
    restricted_operator,
    stacked_ranks,
)

__all__ = [
    "SparkResult",
    "hamming_weight",
    "spark",
    "spark_via_kernel",
    "min_support_in_range",
    "MrcReport",
    "mrc_subset",
    "mrc_all",
    "ExcessReport",
    "uniform_excess",
    "is_maximal_robust",
    "derived_pinv_frames",
    "DerivedPairReport",
]

INFINITE = math.inf


@dataclass(frozen=True)
class SparkResult:
    """Spark value with a minimal-support kernel witness when finite."""

    value: int | float
    witness: np.ndarray | None

    @property
    def finite(self) -> bool:
        return self.value != INFINITE


def hamming_weight(x, tol: float = 1e-9) -> int:
    """Entries counted as nonzero above tol * max(1, ||x||_inf)."""
    arr = ensure_vector(x)
    if arr.size == 0:
        return 0
    cut = tol * max(1.0, float(np.max(np.abs(arr))))
    return int(np.sum(np.abs(arr) > cut))


def spark(mat, tol: TolerancePolicy = DEFAULT_TOL, cap: int = 10**6) -> SparkResult:
    """Smallest dependent column subset, scanned size-ascending.

    Submatrix rank tests use a cutoff anchored to the parent matrix scale,
    matching the global rank decision (a column of pure round-off counts as
    zero). Short-circuits at k = rank + 1, which is always dependent, so
    the scan terminates even without finding smaller dependencies; the
    budget counts the subsets of sizes 1..rank + 1.
    """
    arr = ensure_matrix(mat)
    m = arr.shape[1]
    r = rank_of(arr, tol)
    if r == m:
        return SparkResult(INFINITE, None)
    sigma_max = operator_norm(arr)
    cutoff = max(tol.rank_cutoff_rel * max(arr.shape) * sigma_max, _TINY)
    for chunk in scan_subsets("spark", m, range(1, r + 2), cap):
        k = chunk.shape[1]
        dependent = np.flatnonzero(stacked_ranks(column_blocks(arr, chunk), cutoff=cutoff) < k)
        if dependent.size:
            subset = chunk[dependent[0]]
            witness = np.zeros(m)
            witness[subset] = _small_singular_vector(arr[:, subset], k)
            return SparkResult(k, _canonical_signs(witness[:, None])[:, 0])
    raise AssertionError("unreachable: a dependent subset exists at rank + 1")


def spark_via_kernel(
    mat, tol: TolerancePolicy = DEFAULT_TOL, cap: int = 10**6
) -> SparkResult:
    """Independent spark route: support search inside the kernel.

    Enumerates candidate supports and tests whether the kernel meets the
    corresponding coordinate subspace, using row-rank tests on a kernel
    basis instead of column-rank tests on submatrices. Its loop is its own:
    it shares only the budget with spark, to stay an independent route.
    """
    arr = ensure_matrix(mat)
    m = arr.shape[1]
    kernel = null_space_basis(arr, tol)
    d = kernel.dim
    if d == 0:
        return SparkResult(INFINITE, None)
    # Supports of size m - d + 1 leave d - 1 rows, which cannot have rank d.
    scan_budget("spark_via_kernel", m, range(1, m - d + 2), cap)
    nb = kernel.basis
    # Row submatrices of an orthonormal basis must be ranked against the
    # basis scale (1), not their own largest entry, or pure round-off rows
    # read as full rank.
    cutoff = tol.rank_cutoff_rel * max(nb.shape)
    for k in range(1, m + 1):
        for support in itertools.combinations(range(m), k):
            outside = [i for i in range(m) if i not in support]
            rows = nb[outside, :]
            s = np.linalg.svd(rows, compute_uv=False) if rows.size else np.zeros(0)
            if int(np.sum(s > cutoff)) < d:
                coeff = _small_singular_vector(rows, d)
                return SparkResult(k, _canonical_signs((nb @ coeff)[:, None])[:, 0])
    raise AssertionError("unreachable: the kernel is nontrivial")


def _small_singular_vector(rows: np.ndarray, d: int) -> np.ndarray:
    if rows.size == 0:
        return np.eye(d)[:, 0]
    _, _, vt = np.linalg.svd(rows)
    return vt[-1, :]


def min_support_in_range(
    mat, tol: TolerancePolicy = DEFAULT_TOL, cap: int = 10**6
) -> int | float:
    """Minimal Hamming weight over nonzero vectors in the column space.

    That is the spark of N^T for an orthonormal basis N of the orthogonal
    complement of the range, as the kernel of N^T is the range itself.
    """
    complement = null_space_basis(ensure_matrix(mat).T, tol)
    return spark(complement.basis.T, tol, cap).value


@dataclass(frozen=True)
class MrcReport:
    """MRC verdict for one erasure set plus the necessary-condition checks.

    necessary_condition_i tests trivial intersection of R(F^T M_K) with the
    erased coordinate directions; it must hold whenever is_mrc does, but not
    conversely. parseval_condition_ii is filled only for Parseval systems.
    """

    sigma: tuple[int, ...]
    is_mrc: bool
    necessary_condition_i: bool
    parseval_condition_ii: bool | None


def _as_operator(k, tol: TolerancePolicy) -> OperatorK:
    return k if isinstance(k, OperatorK) else OperatorK.from_matrix(k, tol)


def mrc_subset(f, k, sigma, tol: TolerancePolicy = DEFAULT_TOL) -> MrcReport:
    arr = ensure_matrix(f, "F")
    op = _as_operator(k, tol)
    m = arr.shape[1]
    sig = normalize_erasure_set(sigma, m)
    survivors = [i for i in range(m) if i not in sig]
    mrc = is_kframe(arr[:, survivors], op, tol)
    cond_i = _trivial_intersection(arr, op, sig, tol)
    cond_ii = None
    if is_kframe(arr, op, tol):
        sys_full = verify_kframe(arr, op, tol)
        if classify(sys_full).parseval:
            cond_ii = _parseval_condition(sys_full, sig, survivors)
    return MrcReport(
        sigma=sig,
        is_mrc=mrc,
        necessary_condition_i=cond_i,
        parseval_condition_ii=cond_ii,
    )


def _trivial_intersection(
    arr: np.ndarray, op: OperatorK, sig: tuple[int, ...], tol: TolerancePolicy
) -> bool:
    if not sig:
        return True
    # Positive scalings keep R(F^T M_K); at unit size the product cannot overflow.
    f, _ = _unit_scaled(arr)
    k, _ = _unit_scaled(op.matrix)
    coeff_range = range_basis(f.T @ k, tol)
    erased = np.eye(arr.shape[1])[:, list(sig)]
    stacked = np.hstack([coeff_range.basis, erased])
    return rank_of(stacked, tol) == coeff_range.dim + len(sig)


def _parseval_condition(
    sys: KFrameSystem, sig: tuple[int, ...], survivors: list[int]
) -> bool:
    # Invertibility of (K - theta_sigma xi_sigma^T) restricted to R(K^T),
    # onto the image of R(K) under the survivor frame operator. Positive
    # scalings of F and K keep every range compared here, and at unit size
    # no product over- or underflows.
    f, _ = _unit_scaled(sys.F)
    k, _ = _unit_scaled(sys.K.matrix)
    x = pseudo_inverse(f, sys.tol) @ k
    t = k - f[:, list(sig)] @ x[list(sig), :]
    domain = sys.K.adjoint_range
    coord, image = restricted_operator(t, domain, sys.tol)
    injective = image.dim == domain.dim and coord.shape[0] == coord.shape[1]
    f_c = f[:, survivors]
    target = (f_c @ f_c.T) @ sys.K.range.basis
    same_range = ranges_nested(image.basis, target, sys.tol) and ranges_nested(
        target, image.basis, sys.tol
    )
    return injective and same_range


def mrc_all(
    f, k, r: int, cap: int = 10**6, tol: TolerancePolicy = DEFAULT_TOL
) -> tuple[bool, tuple[int, ...] | None]:
    """Conjunction of mrc_subset over all size-r sets, lexicographic scan."""
    arr = ensure_matrix(f, "F")
    op = _as_operator(k, tol)
    m = arr.shape[1]
    if not (0 <= r <= m):
        raise ValueError(f"erasure count must satisfy 0 <= r <= m, got {r}")
    for chunk in scan_subsets("mrc_all", m, [r], cap):
        survive = kframe_flags(arr, op, _complements(chunk, m), tol)
        if not survive.all():
            # The one set of size 0 is (), reported as no failing set.
            return False, tuple(chunk[np.argmin(survive)].tolist()) or None
    return True, None


def _complements(subsets: np.ndarray, m: int) -> np.ndarray:
    """Ascending complement in range(m) of every row of an N x k index array."""
    keep = np.ones((len(subsets), m), dtype=bool)
    keep[np.arange(len(subsets))[:, None], subsets] = False
    return np.nonzero(keep)[1].reshape(len(subsets), m - subsets.shape[1])


@dataclass(frozen=True)
class ExcessReport:
    """Uniform excess value; witness is the first failing removal set when 0."""

    value: int
    witness: tuple[int, ...] | None


class _KFrameTable:
    """T_s: is each s-column subset a K-frame? Tested chunk by chunk on demand.

    A read tests chunks only until it is decided, and keeps what it tested,
    so each subset is tested at most once and the levels s and s + 1, which
    both read T_s, share its tests.
    """

    def __init__(self, arr: np.ndarray, op: OperatorK, chunks, tol: TolerancePolicy):
        self._test = lambda chunk: kframe_flags(arr, op, chunk, tol)
        self._chunks = chunks
        self._flags: list[np.ndarray] = []
        self._seen: set[bool] = set()

    def holds(self, value: bool) -> bool:
        """Whether some s-subset's flag is value."""
        while value not in self._seen:
            chunk = next(self._chunks, None)
            if chunk is None:
                return False
            self._flags.append(self._test(chunk))
            self._seen.update(self._flags[-1].tolist())
        return True

    def flags(self) -> np.ndarray:
        """Every flag, lexicographic in the subsets."""
        self._flags.extend(self._test(chunk) for chunk in self._chunks)
        return np.concatenate(self._flags)


def uniform_excess(
    f, k, cap: int = 10**6, tol: TolerancePolicy = DEFAULT_TOL
) -> ExcessReport:
    """Largest r >= 1 with every r-column removal leaving an exact K-frame.

    Returns 0 with the lexicographically first failing removal set when no
    positive r qualifies.
    """
    arr = ensure_matrix(f, "F")
    op = _as_operator(k, tol)
    m = arr.shape[1]
    # One budget for all the tables; each table's own check is part of it.
    scan_budget("uniform_excess", m, range(m), cap)
    tables = [_KFrameTable(arr, op, scan_subsets("uniform_excess", m, [s], cap), tol)
              for s in range(m)]

    def exact(s: int) -> bool:
        # Every s-set is exact: all of T_s and none of T_(s-1). The verdict
        # does not depend on the order of the two reads, only the cost does:
        # fewer than rank K columns are no K-frame, so below rank K "all of
        # T_s" fails at once, and above it "none of T_(s-1)" does.
        if s < op.rank:
            return not tables[s].holds(False) and not tables[s - 1].holds(True)
        return not tables[s - 1].holds(True) and not tables[s].holds(False)

    # Removing r columns leaves s = m - r; the largest r is the smallest exact s.
    best = next((m - s for s in range(1, m) if exact(s)), 0)
    if best or m < 2:
        return ExcessReport(value=best, witness=None)
    # Removing {i} fails when range(m) - {i} is no K-frame or some
    # range(m) - {i, j} is one. The complements of lexicographic k-subsets
    # run in reverse lexicographic order, so the reversed tables list the
    # removals {i} and {i, j} lexicographically, as triu_indices does. Some
    # {i} fails, as s = m - 1 is not exact.
    fails = ~tables[m - 1].flags()[::-1]
    pairs = tables[m - 2].flags()[::-1]
    first, second = np.triu_indices(m, 1)
    fails[first[pairs]] = fails[second[pairs]] = True
    return ExcessReport(value=0, witness=(int(np.argmax(fails)),))


def is_maximal_robust(
    f, k, cap: int = 10**6, tol: TolerancePolicy = DEFAULT_TOL
) -> bool:
    """True when every rank(K)-column subset is an exact K-frame."""
    arr = ensure_matrix(f, "F")
    op = _as_operator(k, tol)
    m = arr.shape[1]
    rk = op.rank
    if rk > m:
        return False
    # All of T_rk and none of T_(rk-1). Size rk comes first: a set that is
    # no K-frame usually turns up in its first chunk.
    for chunk in scan_subsets("is_maximal_robust", m, [rk, rk - 1] if rk else [0], cap):
        flags = kframe_flags(arr, op, chunk, tol)
        if not (flags.all() if chunk.shape[1] == rk else not flags.any()):
            return False
    return True


@dataclass(frozen=True)
class DerivedPairReport:
    dual_residual: float
    pair_is_dual: bool
    seq1_spans_pinv_range: bool
    seq2_is_kframe: bool


def derived_pinv_frames(
    sys: KFrameSystem, sigma
) -> tuple[np.ndarray, np.ndarray, DerivedPairReport]:
    """Survivor families after an MRC erasure: a pinv-frame with its pinv-dual.

    seq1 applies the inverted survivor frame operator restriction to the
    surviving frame vectors; seq2 applies (K^+)^T K^+ to them. The report
    certifies that seq1 synthesizes K^+ against seq2 coefficients and that
    seq2 is itself a K-frame.
    """
    sig = normalize_erasure_set(sigma, sys.m)
    survivors = [i for i in range(sys.m) if i not in sig]
    if not is_kframe(sys.F[:, survivors], sys.K, sys.tol):
        raise KFrameError(f"erasure set {sig} does not satisfy MRC")
    f_c = sys.F[:, survivors]
    s_c = f_c @ f_c.T
    coord, image = restricted_operator(s_c, sys.K.range, sys.tol)
    if coord.shape[0] < coord.shape[1]:
        raise RestrictedInverseError(
            "survivor frame operator restricted to R(K) is singular",
            defect=coord.shape[1] - coord.shape[0],
        )
    inv = np.linalg.inv(coord)
    seq1 = sys.K.matrix.T @ sys.K.range.basis @ inv @ image.basis.T @ f_c
    seq2 = sys.K.pinv.T @ sys.K.pinv @ f_c
    k_pinv = sys.K.pinv
    residual = operator_norm(seq1 @ seq2.T - k_pinv)
    threshold = sys.tol.residual_rel * (1.0 + operator_norm(k_pinv))
    report = DerivedPairReport(
        dual_residual=residual,
        pair_is_dual=residual <= threshold,
        seq1_spans_pinv_range=ranges_nested(k_pinv, seq1, sys.tol),
        seq2_is_kframe=is_kframe(seq2, sys.K, sys.tol),
    )
    return seq1, seq2, report
