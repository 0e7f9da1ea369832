"""Combinatorial redundancy diagnostics: spark, MRC, uniform excess, robustness.

The spark of a matrix is the minimal Hamming weight over nonzero kernel
vectors, equivalently the size of the smallest linearly dependent column
subset; it is +inf when the kernel is trivial. Brute-force enumeration is
intentional: the quantities are NP-hard in general but the target instances
are desk scale.

Every scan reads one frames.SubsetTable, which checks the one budget rule,
frames.scan_budget, before its first subset test: BudgetExceededError when
the worst-case count of tests exceeds cap (DEFAULT_CAP). A test is one
rank decision on a submatrix or one K-frame check, made for a whole chunk by
one stacked SVD, which gives every subset the singular values of its own
SVD. Where full rank is the expected answer, the table is certificate
first: in spark's levels it proves independence, and in every K-frame level
of at least n columns (T_s for s >= n, and mrc_all's complements when
m - r >= n) it proves that F_S spans R^n, which contains R(K) for any K of
rank > 0. A certified level's first subset goes to the SVD alone, so an
early hit, or a level read only for its first result, costs one test; from
the second subset on, linalg.certified_full_rank proves each block of
SCAN_CHUNK subsets from one Gram of the block's smaller side, and only the
unproven subsets go to the SVD, so no value, witness or flag depends on it.
spark tests level rank first and scans below it only when that level holds
a dependent set: under its one fixed cutoff, interlacing keeps every subset
of an independent set independent, and makes every (rank + 1)-set
dependent, so that level is neither tested nor counted in its budget.
analyze_scans checks the budgets of analyze's three scans before the first
runs, and reads T_n off spark's rank level when it can.

An index set sigma satisfies the minimal redundancy condition (MRC) when
the frame restricted to the complement is still a K-frame. "Exact K-frame"
means a K-frame that stops being one when any single column is removed.
Exactness is read from the levels T_s of one table (is each s-column subset
a K-frame?): every s-set is exact exactly when all of T_s holds and none of
T_(s-1) does, as every (s-1)-set is some s-set minus one column. No set of
fewer than rank K columns is a K-frame, so the table holds the sizes from
rank K on, and the budgets count only those: is_maximal_robust C(m, rank K),
and uniform_excess, which also reports maximal robustness, the C(m, s) of
s = rank K..m - 1, or 1 when rank K = m.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import KFrameError
from .frames import (
    DEFAULT_CAP,
    KFrameSystem,
    SubsetTable,
    _complements,
    _operands,
    classify,
    is_kframe,
    kframe_flags,
    normalize_erasure_set,
    scan_budget,
)
from .linalg import (
    DEFAULT_TOL,
    TolerancePolicy,
    _canonical_signs,
    _restricted_inverse,
    certified_full_rank,
    column_blocks,
    ensure_matrix,
    ensure_vector,
    intersection_dims,
    null_space_basis,
    operator_norm,
    pseudo_inverse,
    range_basis,
    ranges_nested,
    stacked_ranks,
    unit_scaled,
)

__all__ = [
    "SparkResult",
    "hamming_weight",
    "spark",
    "spark_via_kernel",
    "MrcReport",
    "mrc_subset",
    "mrc_all",
    "ExcessReport",
    "uniform_excess",
    "analyze_scans",
    "is_maximal_robust",
    "derived_pinv_frames",
    "DerivedPairReport",
]

INFINITE = math.inf
# Supports per stacked SVD in spark_via_kernel: bounds its memory per level.
_KERNEL_CHUNK = 512


@dataclass(frozen=True)
class SparkResult:
    """Spark value with a minimal-support kernel witness when finite."""

    value: int | float
    witness: np.ndarray | None

    @property
    def finite(self) -> bool:
        return self.value != INFINITE


def hamming_weight(x, tol: float = 1e-9) -> int:
    """The tests' support oracle: entries above tol * ||x||_inf count, at any scale."""
    arr = np.abs(ensure_vector(x))
    return int(np.sum(arr > tol * arr.max(initial=0.0)))


def spark(mat, tol: TolerancePolicy = DEFAULT_TOL, cap: int = DEFAULT_CAP) -> SparkResult:
    """Smallest dependent column subset, rank level first.

    Submatrix rank tests use one cutoff, anchored to the parent matrix scale
    (a column of pure round-off counts as zero). Under a fixed cutoff,
    interlacing (sigma_(k+1)(A) <= sigma_k(A minus a column) <= sigma_k(A))
    keeps subsets of an independent set independent and makes every
    (rank + 1)-set dependent. So level rank is scanned first: with no
    dependent set there, the first (rank + 1)-set is the witness, untested;
    otherwise sizes 1..rank - 1 go in order, then that first dependent
    rank-set. The budget counts sizes 1..rank, the levels it can test,
    before any subset.
    """
    return _spark_scan(mat, tol, cap)()


def _spark_scan(mat, tol: TolerancePolicy, cap: int):
    """spark with its budget checked now and its scan left to a call."""
    arr = ensure_matrix(mat)
    m = arr.shape[1]
    # One SVD of the parent gives its rank and the fixed cutoff of every subset.
    s = np.linalg.svd(arr, compute_uv=False)
    cutoff = tol.rank_cutoff(s, arr.shape)
    r = int(np.count_nonzero(s > cutoff))
    if r == m:
        return lambda: SparkResult(INFINITE, None)

    def independent(chunk):
        return stacked_ranks(column_blocks(arr, chunk), cutoff=cutoff) == chunk.shape[1]

    def prove(chunk):
        return certified_full_rank(arr, chunk, tol, cutoff)

    # Levels 1..rank are certified: none has more columns than arr has rows.
    table = SubsetTable("spark", m, range(1, r + 1), cap, independent,
                        dict.fromkeys(range(1, r + 1), prove))

    def run():
        # Rank 0 has no level to test first.
        top = table.first(r, False) if r else None
        if top is None:
            subset = tuple(range(r + 1))
        else:
            subset = next(filter(None, (table.first(s, False) for s in range(1, r))), top)
        cols = list(subset)
        witness = np.zeros(m)
        witness[cols] = _small_singular_vector(arr[:, cols], len(cols))
        return SparkResult(len(subset), _canonical_signs(witness[:, None])[:, 0])

    return run


def spark_via_kernel(
    mat, tol: TolerancePolicy = DEFAULT_TOL, cap: int = DEFAULT_CAP
) -> SparkResult:
    """Perfbench's oracle, an independent spark route: support search inside the kernel.

    A support is deficient when the rows outside it of an orthonormal m x d
    kernel basis rank below d: the kernel meets its coordinate subspace. Under
    the route's fixed cutoff, adding rows never lowers sigma_min
    (interlacing), so supersets of a deficient support are deficient. The
    top size m - d goes first: with no deficient support there, no smaller
    one is, and the first (m - d + 1)-set is the witness, untested; else
    sizes 1..m - d - 1 go in order, then the top size's first deficient
    support. Each size is ranked in lexicographic chunks of 1, 8, 64, then
    _KERNEL_CHUNK supports; at the top size _lu_proven proves most d x d
    blocks full rank from one stacked LU, and one stacked SVD, giving each
    support the singular values of its own SVD, decides every other block.
    Its loop and cutoff are its own: it shares only spark's budget (sizes
    1..m - d), to stay an independent route, one only away from the cutoff.
    """
    arr = ensure_matrix(mat)
    m = arr.shape[1]
    kernel = null_space_basis(arr, tol)
    d = kernel.dim
    if d == 0:
        return SparkResult(INFINITE, None)
    # Sizes 1..m - d are spark's 1..rank; the (m - d + 1)-set witness is untested.
    scan_budget("spark_via_kernel", m, range(1, m - d + 1), cap)
    nb = kernel.basis
    # Row submatrices of an orthonormal basis must be ranked against the
    # basis scale (1), not their own largest entry, or pure round-off rows
    # read as full rank.
    cutoff = tol.rank_cutoff_rel * max(nb.shape)
    # sigma_max(nb)^2 <= ||nb^T nb||_inf, plus the rounding of Gram and root.
    t = math.sqrt(np.abs(nb.T @ nb).sum(axis=1).max() + 4 * m * d * np.finfo(float).eps)

    def first_deficient(k):
        supports, size = itertools.combinations(range(m), k), 1
        while len(chunk := np.fromiter(itertools.chain.from_iterable(
                itertools.islice(supports, size)), np.intp).reshape(-1, k)):
            outside = np.ones((len(chunk), m), dtype=bool)
            outside[np.arange(len(chunk))[:, None], chunk] = False
            rows = nb.take(np.nonzero(outside)[1].reshape(-1, m - k), axis=0)
            if k == m - d:  # only the blocks the LU leaves unproven go to the SVD
                chunk, rows = chunk[keep := ~_lu_proven(rows, cutoff, t)], rows[keep]
            s = np.linalg.svd(rows, compute_uv=False) if len(rows) else np.zeros((0, d))
            deficient = np.count_nonzero(s > cutoff, axis=1) < d
            if deficient.any():
                return tuple(chunk[np.argmax(deficient)])
            size = min(8 * size, _KERNEL_CHUNK)
        return None

    # A zero F (d = m) has no top size to rank.
    top = first_deficient(m - d) if m > d else None
    if top is None:
        return _kernel_witness(nb, range(m - d + 1))
    return _kernel_witness(nb, next(filter(None, map(first_deficient, range(1, m - d))), top))


def _lu_proven(rows: np.ndarray, cutoff: float, t: float) -> np.ndarray:
    """True where a d x d block R of the stack rows, sigma_max(R) <= t, is
    sure to have the sigma_d of its own SVD above cutoff. slogdet's LU with
    partial pivoting gives L U = P (R + E), ||E||_2 <= eta = eps d^3 2^(d-1) t,
    as |E| <= gamma_d |L| |U|, |L| <= 1 and |U| <= 2^(d-1) t (Higham, Accuracy
    and Stability of Numerical Algorithms, ch. 9). As prod |u_ii| = |det(R +
    E)| <= sigma_d(R + E) (t + eta)^(d-1), sigma_d(R) >= prod |u_ii| / (t +
    eta)^(d-1) - eta, which must exceed the cutoff plus certified_full_rank's
    SVD error, 8 (d + 1) d eps ||R||_F, after the log-sum's rounding (sum
    |log u_ii| <= 2 d^2 + |log det|). Where eta reaches the cutoff, no LU runs.
    """
    d, eps = rows.shape[-1], np.finfo(float).eps
    eta = eps * d**3 * 2.0 ** (d - 1) * t
    if eta >= cutoff:
        return np.zeros(len(rows), dtype=bool)
    need = (cutoff + 8 * (d + 1) * d * eps * math.sqrt(d) * t + eta) * (t + eta) ** (d - 1)
    logdet = np.linalg.slogdet(rows)[1]
    return logdet - 4 * (d + 2) * eps * (2 * d * d + np.abs(logdet)) > math.log(need)


def _kernel_witness(nb: np.ndarray, support) -> SparkResult:
    """The kernel vector nb @ c supported on support: c spans the rows outside it."""
    rows = np.delete(nb, support, axis=0)
    coeff = _small_singular_vector(rows, nb.shape[1])
    return SparkResult(len(support), _canonical_signs((nb @ coeff)[:, None])[:, 0])


def _small_singular_vector(rows: np.ndarray, d: int) -> np.ndarray:
    if rows.size == 0:
        return np.eye(d)[:, 0]
    _, _, vt = np.linalg.svd(rows)
    return vt[-1, :]


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


def mrc_subset(f, k, sigma, tol: TolerancePolicy = DEFAULT_TOL) -> MrcReport:
    arr, op = _operands(f, k, tol)
    m = arr.shape[1]
    sig = normalize_erasure_set(sigma, m)
    survivors = [i for i in range(m) if i not in sig]
    mrc = is_kframe(arr[:, survivors], op, tol)
    # R(F^T M_K) = R(F^T Q), Q K's unsigned range columns, meets no erased axis;
    # the survivor axes span their complement. At unit size F^T Q cannot overflow.
    coeffs = unit_scaled(arr)[0].T @ op.left[:, :op.rank]
    cond_i = not intersection_dims(coeffs[None], np.eye(m)[:, survivors], tol)[0]
    sys_full = KFrameSystem(arr, op, tol)  # unverified: classify reads only F and K
    with np.errstate(over="ignore"):  # a tight bound past float64 is no Parseval frame
        parseval = classify(sys_full).parseval
    # Condition (ii) is for Parseval K-frames: only a Parseval F is tested as one.
    cond_ii = _parseval_condition(sys_full, sig, survivors) if (
        parseval and is_kframe(arr, op, tol)) else None
    return MrcReport(sigma=sig, is_mrc=mrc, necessary_condition_i=cond_i,
                     parseval_condition_ii=cond_ii)


def _parseval_condition(
    sys: KFrameSystem, sig: tuple[int, ...], survivors: list[int]
) -> bool:
    # Invertibility of (K - theta_sigma xi_sigma^T) restricted to R(K^T),
    # onto the image of R(K) under the survivor frame operator. Positive
    # scalings of F and K keep every range compared here, and at unit size
    # no product over- or underflows.
    f, _ = unit_scaled(sys.F)
    k, _ = unit_scaled(sys.K.matrix)
    x = pseudo_inverse(f, sys.tol) @ k
    t = k - f[:, list(sig)] @ x[list(sig), :]
    domain = range_basis(sys.K.matrix.T, sys.tol)
    image = range_basis(t @ domain.basis, sys.tol)
    f_c = f[:, survivors]
    target = (f_c @ f_c.T) @ sys.K.range.basis
    return image.dim == domain.dim and ranges_nested(
        image.basis, target, sys.tol) and ranges_nested(target, image.basis, sys.tol)


def mrc_all(
    f, k, r: int, cap: int = DEFAULT_CAP, tol: TolerancePolicy = DEFAULT_TOL
) -> tuple[bool, tuple[int, ...] | None]:
    """Conjunction of mrc_subset over all size-r sets, lexicographic scan."""
    return _mrc_scan(f, k, r, cap, tol)()


def _mrc_scan(f, k, r: int, cap: int, tol: TolerancePolicy):
    """mrc_all with its budget checked now and its scan left to a call."""
    arr, op = _operands(f, k, tol)
    m = arr.shape[1]
    if not (0 <= r <= m):
        raise ValueError(f"erasure count must satisfy 0 <= r <= m, got {r}")
    prove = _span_prover(arr, op, tol)
    # Complements of at least n columns are K-frames wherever they span R^n.
    certify = {r: lambda chunk: prove(_complements(chunk, m))} if (
        prove and m - r >= arr.shape[0]) else None
    table = SubsetTable("mrc_all", m, [r], cap,
                        lambda chunk: kframe_flags(arr, op, _complements(chunk, m), tol),
                        certify)

    def run():
        failing = table.first(r, False)
        # The one set of size 0 is (), reported as no failing set.
        return failing is None, failing or None

    return run


@dataclass(frozen=True)
class ExcessReport:
    """Uniform excess value, its witness (the first failing removal set when 0)
    and maximal robustness, all read from the same K-frame tables."""

    value: int
    witness: tuple[int, ...] | None
    maximal_robust: bool


def _exact(table: SubsetTable, rank_k: int, s: int) -> bool:
    """Every s-subset is an exact K-frame: all of T_s and none of T_(s-1).

    T_(s-1) is read first, which sets only the cost: above rank K it usually
    holds a K-frame at once, and up to rank K it is free.
    """
    return (rank_k <= s and (s == rank_k or table.first(s - 1, True) is None)
            and table.first(s, False) is None)


def uniform_excess(
    f, k, cap: int = DEFAULT_CAP, tol: TolerancePolicy = DEFAULT_TOL
) -> ExcessReport:
    """Largest r >= 1 with every r-column removal leaving an exact K-frame.

    Returns 0 with the lexicographically first failing removal set when no
    positive r qualifies. Maximal robustness comes from the same table.
    """
    return _excess_scan(f, k, cap, tol)()


def _span_prover(arr: np.ndarray, op, tol: TolerancePolicy):
    """A prover for kframe_flags on sets of at least n columns: an F_S proven
    to span R^n contains R(K), and certified_full_rank's margin covers both
    ranks of the test. None where kframe_flags needs no SVD (rank K = 0)."""
    if op.rank == 0:
        return None
    return lambda subsets: certified_full_rank(arr, subsets, tol)


def _kframe_table(what: str, arr: np.ndarray, op, sizes, cap: int, tol: TolerancePolicy):
    """The K-frame table T_s over the given sizes; T_s is certified for s >= n."""
    prove = _span_prover(arr, op, tol)
    certify = {s: prove for s in sizes if s >= arr.shape[0]} if prove else None
    return SubsetTable(what, arr.shape[1], sizes, cap,
                       lambda chunk: kframe_flags(arr, op, chunk, tol), certify)


def _excess_scan(f, k, cap: int, tol: TolerancePolicy):
    """uniform_excess with its budget checked now and its scan left to a call.

    run(spark_value) takes T_n all true when K is invertible and spark of F
    under the same policy found no dependent n-set (value n + 1, so m > n):
    each n-set's own cutoff, rel n sigma_max(F_S), lies below spark's fixed
    cutoff, rel m sigma_max(F), by a factor m / n that covers the rounding of
    both sigma_max, so every n-set spark found independent is a K-frame.
    """
    arr, op = _operands(f, k, tol)
    (n, m), rk = arr.shape, op.rank
    # T_s from s = rank K on; only maximal robustness at rank K = m reads T_m.
    table = _kframe_table("uniform_excess", arr, op, range(rk, m + (rk >= m)), cap, tol)

    def run(spark_value=None):
        if spark_value == n + 1 and rk == n:
            table.settle(n, True)
        # Removing r columns leaves s = m - r; the largest r is the smallest exact s.
        best = next((m - s for s in range(1, m) if _exact(table, rk, s)), 0)
        robust = rk <= m and _exact(table, rk, rk)
        if best or m < 2:
            return ExcessReport(value=best, witness=None, maximal_robust=robust)
        # Removing {i} fails when range(m) - {i} is no K-frame or some
        # range(m) - {i, j} is one. The complements of lexicographic k-subsets
        # run in reverse lexicographic order, so the reversed levels list the
        # removals {i} and {i, j} lexicographically, as triu_indices does. Some
        # {i} fails, as s = m - 1 is not exact. Below rank K no set is a K-frame.
        first, second = np.triu_indices(m, 1)
        fails = ~table.results(m - 1)[::-1] if m - 1 >= rk else np.ones(m, dtype=bool)
        pairs = table.results(m - 2)[::-1] if m - 2 >= rk else np.zeros(len(first), dtype=bool)
        fails[first[pairs]] = fails[second[pairs]] = True
        return ExcessReport(value=0, witness=(int(np.argmax(fails)),), maximal_robust=robust)

    return run


def analyze_scans(f, k, r: int, cap: int = DEFAULT_CAP, tol: TolerancePolicy = DEFAULT_TOL):
    """spark of F, uniform_excess and mrc_all at r, each as its own call returns it.

    Their budgets are checked in that order before any of them scans. With K
    invertible, T_n is read off spark's rank level when that level holds no
    dependent set, so level n is enumerated and certified once.
    """
    spark_run, excess_run = _spark_scan(f, tol, cap), _excess_scan(f, k, cap, tol)
    mrc_run = _mrc_scan(f, k, r, cap, tol)
    spark_f = spark_run()
    return spark_f, excess_run(spark_f.value), mrc_run()


def is_maximal_robust(
    f, k, cap: int = DEFAULT_CAP, tol: TolerancePolicy = DEFAULT_TOL
) -> bool:
    """True when every rank(K)-column subset is an exact K-frame."""
    arr, op = _operands(f, k, tol)
    rk = op.rank
    if rk > arr.shape[1]:
        return False
    return _exact(_kframe_table("is_maximal_robust", arr, op, [rk], cap, tol), rk, rk)


@dataclass(frozen=True)
class DerivedPairReport:
    dual_residual: float
    pair_is_dual: bool
    seq1_spans_pinv_range: bool
    seq2_is_kframe: bool


def derived_pinv_frames(
    sys: KFrameSystem, sigma
) -> tuple[np.ndarray, np.ndarray, DerivedPairReport]:
    """The survivors after an MRC erasure: a pinv-frame with its pinv-dual.

    seq1 applies the inverted survivor frame operator restriction to the
    surviving frame vectors; seq2 applies (K^+)^T K^+ to them. The report
    certifies that seq1 synthesizes K^+ against seq2 coefficients and that
    seq2 is itself a K-frame.
    """
    sig = normalize_erasure_set(sigma, sys.m)
    survivors = [i for i in range(sys.m) if i not in sig]
    f_c = sys.F[:, survivors]
    if not is_kframe(f_c, sys.K, sys.tol):
        raise KFrameError(f"erasure set {sig} does not satisfy MRC")
    # Restricted, and seq1 formed, with F_c and K at unit size, seq1 then scaled
    # back exactly; (K^+)^T K^+, which can over- or underflow, is never formed.
    unit, e = unit_scaled(f_c)
    k, k_e = unit_scaled(sys.K.matrix)
    d = sys.K.range.basis
    r, inv = _restricted_inverse(unit, d)
    seq1 = np.ldexp(k.T @ d @ inv @ r.T @ unit, k_e - e)
    k_pinv = pseudo_inverse(sys.K.matrix, sys.tol)
    seq2 = k_pinv.T @ (k_pinv @ f_c)
    residual = operator_norm(seq1 @ seq2.T - k_pinv)
    report = DerivedPairReport(
        dual_residual=residual,
        pair_is_dual=sys.tol.accepts(residual, operator_norm(k_pinv)),
        seq1_spans_pinv_range=ranges_nested(k_pinv, seq1, sys.tol),
        seq2_is_kframe=is_kframe(seq2, sys.K, sys.tol),
    )
    return seq1, seq2, report
