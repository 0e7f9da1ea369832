"""K-frame modeling: verification, bounds, Gramian, duals and transforms, and
SubsetTable, the one subset-enumeration kernel under every scan's budget.

A K-frame is a column family F whose span contains the range of a square
operator K. Reconstruction then targets Kf rather than f itself: a K-dual
G satisfies F G^T = M_K, i.e. Kf = sum_i <f, g_i> f_i.

Conventions: synthesis matrices are n x m with frame vectors as columns.
Erasure sets are 0-based index tuples internally; the CLI converts from the
1-based JSON convention.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    BudgetExceededError,
    KFrameError,
    NotKFrameError,
    ShapeMismatchError,
    ZeroOperatorError,
)
from .linalg import (
    _TINY,
    DEFAULT_TOL,
    SubspaceBasis,
    TolerancePolicy,
    _canonical_signs,
    _svd_rank,
    column_blocks,
    ensure_matrix,
    intersection_dims,
    null_space_basis,
    operator_norm,
    pseudo_inverse,
    range_basis,
    svd_factor,
    unit_scaled,
)

__all__ = [
    "OperatorK",
    "KFrameSystem",
    "DualSystem",
    "Classification",
    "normalize_erasure_set",
    "DEFAULT_CAP",
    "scan_budget",
    "SubsetTable",
    "is_kframe",
    "kframe_flags",
    "verify_kframe",
    "frame_bounds",
    "classify",
    "verify_kdual",
    "dual_perturbation",
    "worst_erasure_error",
    "transform",
]


@dataclass(frozen=True)
class OperatorK:
    """A square operator, its rank and U of one SVD: U's first rank columns span
    R(K), the rest R(K)^perp (range_perp); the signed range is formed on first read."""

    matrix: np.ndarray
    rank: int
    left: np.ndarray

    @classmethod
    def from_matrix(cls, m, tol: TolerancePolicy = DEFAULT_TOL) -> "OperatorK":
        arr = ensure_matrix(m, "K")
        if arr.shape[0] != arr.shape[1]:
            raise ShapeMismatchError(f"K must be square, got {arr.shape}")
        u, s, _ = svd_factor(arr)
        return cls(matrix=arr, rank=_svd_rank(s, arr.shape, tol), left=u)

    @cached_property
    def range(self) -> SubspaceBasis:
        return SubspaceBasis(self.dim, _canonical_signs(self.left[:, :self.rank]))

    @property
    def range_perp(self) -> np.ndarray:
        return self.left[:, self.rank:]

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class KFrameSystem:
    """A verified K-frame: synthesis matrix F, operator K and tolerance policy.

    The system owns its policy: every function that takes a system judges
    with sys.tol and has no tol parameter of its own; functions on raw
    matrices take tol. Derived data (gramian, bounds) is formed on first
    read. Construct through verify_kframe, or directly once is_kframe holds.
    """

    F: np.ndarray
    K: OperatorK
    tol: TolerancePolicy

    @cached_property
    def gramian(self) -> np.ndarray:
        """F^T F, entry (j, i) = <f_i, f_j>; formed on first read, as it can overflow,
        and refused when F's entries lie below 2^e with 2e <= -1022: their squares underflow."""
        e = unit_scaled(self.F)[1]
        if 2 * e <= np.finfo(float).minexp:
            raise KFrameError("computed values leave the float64 range (F^T F underflows: "
                              f"every entry of F lies below 2^{e})")
        return self.F.T @ self.F

    @cached_property
    def bounds(self) -> tuple[float, float] | None:
        """Optimal frame bounds (lower, upper); None exactly when K = 0."""
        if self.K.rank == 0:
            return None
        # Squared in float64: a bound out of range reads inf or 0, not an error.
        with np.errstate(over="ignore", divide="ignore"):
            upper = np.float64(operator_norm(self.F)) ** 2
            # Minimal-norm solution of F X = M_K; its norm is the reciprocal
            # root of the optimal lower bound.
            x = pseudo_inverse(self.F, self.tol) @ self.K.matrix
            lower = 1.0 / np.float64(operator_norm(x)) ** 2
        return (lower, upper)

    @property
    def n(self) -> int:
        return self.F.shape[0]

    @property
    def m(self) -> int:
        return self.F.shape[1]


@dataclass(frozen=True)
class DualSystem:
    """A candidate K-dual with its verification residual.

    residual = ||F G^T - M_K|| in operator norm; is_valid applies the
    policy's relative threshold against 1 + ||M_K||, with M_K and the
    residual scaled exactly to the unit size of M_K.
    """

    G: np.ndarray
    residual: float
    is_valid: bool


@dataclass(frozen=True)
class Classification:
    tight_alpha: float | None
    parseval: bool
    equal_norm: bool


def normalize_erasure_set(indices, m: int) -> tuple[int, ...]:
    """Sorted tuple of distinct 0-based indices within range."""
    lam = tuple(sorted(int(i) for i in indices))
    if len(set(lam)) != len(lam):
        raise ValueError(f"erasure set has repeated indices: {lam}")
    if lam and (lam[0] < 0 or lam[-1] >= m):
        raise ValueError(f"erasure indices must lie in [0, {m}), got {lam}")
    return lam


def _complements(sets: np.ndarray, m: int) -> np.ndarray:
    """Sorted complement in range(m) of each row; ValueError on bad or repeated indices."""
    count, r = sets.shape
    if sets.size and (sets.min() < 0 or sets.max() >= m):
        raise ValueError(f"erasure sets must hold indices in 0..{m - 1}")
    keep = np.ones((count, m), dtype=bool)
    keep[np.arange(count)[:, None], sets] = False
    if np.count_nonzero(keep) != count * (m - r):
        raise ValueError("an erasure set repeats an index")
    return np.nonzero(keep)[1].reshape(count, m - r)


# Most subsets per chunk: enough to spread the fixed cost of one stacked SVD or
# Cholesky thin, and few enough that a chunk's blocks stay small next to a level.
# Recovery's apply passes take this many signals each.
SCAN_CHUNK = 2048
# The first chunk of a level with this many subsets or more builds the level's
# index table, and every later chunk is cut from it; the ramp's smaller first
# chunks are streamed, so a read that they answer builds no table.
_TABLE_FROM = 512
# Most subsets of a level that builds an index table: 20/10 is 1.8 MB as uint8.
# A larger level is streamed from itertools.combinations to its end.
_TABLE_ROWS = 2**19


# Every scan's default cap, in subset tests: the library's and --cap-subsets'.
DEFAULT_CAP = 10**6


def scan_budget(what: str, m: int, sizes, cap: int) -> None:
    """The one budget rule: refuse a scan whose worst case exceeds cap subset tests.

    The scan tests every subset of range(m) of the given sizes at most once.
    """
    tests = sum(math.comb(m, k) for k in sizes)
    if tests > cap:
        raise BudgetExceededError(
            f"{what} needs {tests} subset tests, more than the cap of {cap}"
        )


class SubsetTable:
    """The one subset-enumeration kernel: test's result for each subset of
    range(m) of the given sizes, read lazily, one level at a time.

    scan_budget runs once, when the table is made. test gets a level in
    chunks, N x s index arrays in lexicographic order whose N grows 1, 8, 64,
    ... up to SCAN_CHUNK, and returns one result per row. certify maps some
    sizes to a prover: certify[s](chunk) is True where test is sure to return
    True. Such a level's first subset goes to test alone; from the second on
    it is enumerated in SCAN_CHUNK blocks, each proven first, and only a
    block's unproven rows go to test, in order and in the same growing
    chunks, and the table holds them until they are tested. So every
    result is test's own. The table keeps the results, never the chunks, and
    reads a level only as far as a question needs: a read that stopped inside
    a block resumes at its next unproven row, and each subset is tested at
    most once.

    A level's first chunks, while under _TABLE_FROM subsets, are streamed from
    itertools.combinations. The first larger one builds the level's index
    table (_table), every s-subset of range(m) as small unsigned integers,
    and every later chunk is cut from it; a level of more than _TABLE_ROWS
    subsets builds none and is streamed to its end. A table lives as long as
    its level's read: nothing is cached across levels or tables.
    """

    def __init__(self, what: str, m: int, sizes, cap: int, test, certify=None):
        scan_budget(what, m, sizes, cap)
        self._m = m
        certify = certify or {}
        # Generators of results that hold no reference back to the table, so
        # a table is freed without the cyclic garbage collector.
        self._runs = {s: self._level(m, s, test, certify.get(s)) for s in sizes}
        self._results: dict[int, list[np.ndarray]] = {s: [] for s in sizes}

    @staticmethod
    def _level(m: int, s: int, test, certify):
        """Level s's results in runs, lexicographic, each known in full when yielded."""
        chunks = SubsetTable._chunks(m, s, certify is not None)
        # A certified level's first subset goes to test alone: an early hit
        # costs one test, and a level read only for its first result proves
        # no block. Blocks start at the second subset, and test's chunks of
        # their unproven rows go on growing from 8.
        yield from map(test, itertools.islice(chunks, None if certify is None else 1))
        size = 8
        for chunk in chunks:
            results, done = certify(chunk), 0
            unproven = np.flatnonzero(~results)
            while len(unproven):
                # Every result before the next unproven row is known.
                if unproven[0] > done:
                    yield results[done:unproven[0]]
                    done = unproven[0]
                rows, unproven = unproven[:size], unproven[size:]
                results[rows] = test(chunk[rows])
                size = min(8 * size, SCAN_CHUNK)
            yield results[done:]

    @staticmethod
    def _chunks(m: int, s: int, certified: bool):
        """The s-subsets of range(m), lexicographic, as fresh N x s intp arrays:
        N grows 1, 8, 64, ... up to SCAN_CHUNK, or is 1 and then SCAN_CHUNK on a
        certified level."""
        total, done, size = math.comb(m, s), 0, 1
        stream, table = itertools.combinations(range(m), s), None
        while done < total:
            count = min(size, total - done)
            if table is None and (count < _TABLE_FROM or total > _TABLE_ROWS):
                flat = itertools.chain.from_iterable(itertools.islice(stream, count))
                yield np.fromiter(flat, np.intp).reshape(count, s)
            else:
                if table is None:
                    table = SubsetTable._table(m, s)
                yield table[done:done + count].astype(np.intp)
            done += count
            size = SCAN_CHUNK if certified else min(8 * size, SCAN_CHUNK)

    @staticmethod
    def _table(m: int, s: int) -> np.ndarray:
        """The s-subsets of range(m), lexicographic, in the smallest unsigned dtype."""
        table = np.zeros((1, 0), np.min_scalar_type(m))
        for k in range(1, s + 1):
            # The k-subsets of range(s - k, m): each first entry a beside the
            # (k - 1)-subsets of range(a + 1, m), the last rows of the table before.
            # Each is no larger than the level.
            firsts = range(s - k, m - k + 1)
            tails = [table[len(table) - math.comb(m - 1 - a, k - 1):] for a in firsts]
            table = np.column_stack((np.repeat(np.array(firsts, table.dtype),
                                               [len(t) for t in tails]), np.concatenate(tails)))
        return table

    def settle(self, s: int, value) -> None:
        """Take value as every result of level s, unread so far, without a test:
        for a caller that has proven it another way."""
        self._results[s] = [np.full(math.comb(self._m, s), value)]
        self._runs[s] = iter(())

    def _read(self, s: int):
        """Level s's results run by run: those kept, then each new run's, kept too."""
        yield from self._results[s]
        for results in self._runs[s]:
            self._results[s].append(results)
            yield results

    def first(self, s: int, value) -> tuple[int, ...] | None:
        """The lexicographically first s-subset whose result is value; None if none is."""
        before = 0
        for results in self._read(s):
            if (hits := results == value).any():
                return self._subset(s, before + int(hits.argmax()))
            before += len(results)
        return None

    def results(self, s: int) -> np.ndarray:
        """Every result of level s, lexicographic in the subsets."""
        return np.concatenate(list(self._read(s)))

    def _subset(self, s: int, p: int) -> tuple[int, ...]:
        """The p-th s-subset of range(m), lexicographic, counted from 0."""
        subset, low = [], 0
        for left in range(s, 0, -1):
            while p >= (after := math.comb(self._m - low - 1, left - 1)):
                p, low = p - after, low + 1
            subset.append(low)
            low += 1
        return tuple(subset)


def _operands(f, k, tol: TolerancePolicy) -> tuple[np.ndarray, OperatorK]:
    """F checked by ensure_matrix and K as an OperatorK, built under tol unless it
    is one: the entry of every function on raw F and K. ShapeMismatchError when
    F's rows differ from K's dimension."""
    arr = ensure_matrix(f, "F")
    op = k if isinstance(k, OperatorK) else OperatorK.from_matrix(k, tol)
    if arr.shape[0] != op.dim:
        raise ShapeMismatchError(f"F has {arr.shape[0]} rows but K acts on dimension {op.dim}")
    return arr, op


def is_kframe(f, k, tol: TolerancePolicy = DEFAULT_TOL) -> bool:
    """Whether R(K) lies in R(F): kframe_flags on the one subset of all columns."""
    arr, op = _operands(f, k, tol)
    return bool(kframe_flags(arr, op, np.arange(arr.shape[1])[None], tol)[0])


def kframe_flags(
    f: np.ndarray, op: OperatorK, subsets: np.ndarray, tol: TolerancePolicy = DEFAULT_TOL
) -> np.ndarray:
    """Whether R(K) lies in R(F_S), for every row S of an N x k index array.

    S is a K-frame when dim(R(F_S) & R(K)), by intersection_dims through
    Q = op.range_perp, reaches rank K; so the verdict is free of the scale of
    F and of K. Each rank is one stacked SVD over the chunk, and an F_S that
    spans R^n takes only the first: it passes for any K of rank > 0, and
    linalg.certified_full_rank can prove that for a subset table. F and op
    must act on the same R^n, as _operands checks.
    """
    rank_k = op.rank
    if rank_k == 0:
        return np.ones(len(subsets), dtype=bool)
    # Exactly, the dimension never exceeds rank K; >= keeps a rounding excess a K-frame.
    return intersection_dims(column_blocks(f, subsets), op.range_perp, tol) >= rank_k


def verify_kframe(f, k, tol: TolerancePolicy = DEFAULT_TOL) -> KFrameSystem:
    """Check R(K) within R(F) and build the system with cached products.

    Raises NotKFrameError with a witness vector (in R(K) but outside R(F))
    when the inclusion fails, ShapeMismatchError on incompatible shapes.
    """
    arr, op = _operands(f, k, tol)
    if not kframe_flags(arr, op, np.arange(arr.shape[1])[None], tol)[0]:
        proj = range_basis(arr, tol).projector()
        leftover = op.range.basis - proj @ op.range.basis
        worst = int(np.argmax(np.linalg.norm(leftover, axis=0)))
        raise NotKFrameError(
            "operator range is not contained in the frame span",
            witness=op.range.basis[:, worst].copy(),
        )
    return KFrameSystem(F=arr, K=op, tol=tol)


def frame_bounds(sys: KFrameSystem) -> tuple[float, float]:
    """Optimal bounds (A, B) with A ||K^T f||^2 <= ||F^T f||^2 <= B ||f||^2.

    Raises KFrameError when a bound over- or underflowed float64.
    """
    if sys.bounds is None:
        raise ZeroOperatorError("lower frame bound is undefined for K = 0")
    if not all(_TINY <= bound < math.inf for bound in sys.bounds):
        raise KFrameError(f"frame bounds {sys.bounds} lie outside the float64 range")
    return sys.bounds


def classify(sys: KFrameSystem) -> Classification:
    """Tightness (least-squares alpha fit of FF^T vs M_K M_K^T) and norms.

    Both tests run on F and K scaled exactly to unit size, so the thresholds
    are relative to the input scale and no product under- or overflows.
    """
    tol = sys.tol
    f, f_exp = unit_scaled(sys.F)
    k, k_exp = unit_scaled(sys.K.matrix)
    ss = f @ f.T
    kk = k @ k.T
    kk_sq = float(np.sum(kk * kk))
    alpha = None
    if kk_sq > 0.0:
        fit = float(np.sum(ss * kk)) / kk_sq
        resid = np.linalg.norm(ss - fit * kk)
        if tol.accepts(resid, np.linalg.norm(ss)):
            alpha = float(np.ldexp(fit, 2 * (f_exp - k_exp)))
    elif tol.accepts(np.linalg.norm(ss)):
        alpha = 1.0
    norms = np.linalg.norm(f, axis=0)
    spread = float(norms.max() - norms.min()) if norms.size else 0.0
    equal_norm = tol.accepts(spread, float(norms.max(initial=0.0)))
    parseval = alpha is not None and tol.accepts(abs(alpha - 1.0), factor=10)
    return Classification(tight_alpha=alpha, parseval=parseval, equal_norm=equal_norm)


def verify_kdual(sys: KFrameSystem, g) -> DualSystem:
    """Residual-based K-dual check: ||F G^T - M_K|| against the threshold."""
    return _verify_kduals(sys, [g])[0]


def _verify_kduals(sys: KFrameSystem, gs) -> list[DualSystem]:
    """verify_kdual of each G in gs. Every residual and ||K|| come from one stacked
    SVD, each bit for bit its operator_norm, and a non-finite residual is refused
    as operator_norm refuses it."""
    arrs, blocks = [], []
    for g in gs:
        arr = ensure_matrix(g, "G")
        if arr.shape != sys.F.shape:
            raise ShapeMismatchError(f"G shape {arr.shape} != F shape {sys.F.shape}")
        arrs.append(arr)
        blocks.append(ensure_matrix(sys.F @ arr.T - sys.K.matrix))
    *residuals, k_norm = np.linalg.svd(np.array((*blocks, sys.K.matrix)),
                                       compute_uv=False).max(axis=1, initial=0.0)
    # Judged at K's unit size (both sides scaled exactly by 2^-e), so that
    # scaling F and K together keeps the verdict.
    e = unit_scaled(sys.K.matrix)[1]
    with np.errstate(over="ignore"):  # past float64 at K's unit size: far above any threshold
        scaled = np.ldexp(residuals, -e)
    valid = sys.tol.accepts(scaled, np.ldexp(k_norm, -e))
    return [DualSystem(G=arr, residual=float(residual), is_valid=bool(ok))
            for arr, residual, ok in zip(arrs, residuals, valid)]


def dual_perturbation(sys: KFrameSystem, base: DualSystem, coeffs) -> DualSystem:
    """Structure of the canonical K-dual: add a kernel perturbation to a K-dual.

    coeffs has shape (n, d) where d is the kernel dimension of F; the result
    G + coeffs N^T is always another K-dual of the same residual class.
    """
    if not base.is_valid:
        raise ValueError("base dual must be valid before perturbing")
    null = null_space_basis(sys.F, sys.tol)
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.size == 0:
        coeffs = coeffs.reshape(sys.n, null.dim) if null.dim == 0 else coeffs
    if coeffs.shape != (sys.n, null.dim):
        raise ShapeMismatchError(
            f"coeffs shape {coeffs.shape} != (n, kernel dim) = ({sys.n}, {null.dim})"
        )
    if null.dim == 0:
        return base
    return verify_kdual(sys, base.G + coeffs @ null.basis.T)


def _max_erasure_norm(
    what: str, f: np.ndarray, g: np.ndarray, r: int, cap: int
) -> tuple[float, tuple[int, ...]]:
    """Largest ||F_L G_L^T|| over |L| = r with the lexicographically first such L;
    a stacked SVD per chunk gives each norm bit for bit as operator_norm would."""
    if not (1 <= r < f.shape[1]):
        raise ValueError(f"erasure count must satisfy 1 <= r < m, got {r}")

    def norms(chunk):
        products = column_blocks(f, chunk) @ column_blocks(g, chunk).transpose(0, 2, 1)
        if not np.isfinite(products).all():
            raise ValueError("matrix contains non-finite entries")
        return np.linalg.svd(products, compute_uv=False)[:, 0]

    table = SubsetTable(what, f.shape[1], [r], cap, norms)
    top = float(table.results(r).max())
    return top, table.first(r, top)


def worst_erasure_error(
    sys: KFrameSystem, dual: DualSystem, r: int, cap: int = DEFAULT_CAP
) -> tuple[float, tuple[int, ...]]:
    """Erasure error: the exact maximum of ||sum_{i in L} f_i g_i^T|| over all |L| = r.

    Returns the value and the lexicographically first maximizing index set.
    """
    return _max_erasure_norm("worst_erasure_error", sys.F, dual.G, r, cap)


def transform(sys: KFrameSystem, a, u) -> KFrameSystem:
    """Structure of the canonical K-dual under A F U, A square and U unitary.

    (A F U, A M_K) is again a valid system for the transported operator, and
    G U is a dual of it whenever G was a dual of the original; the new
    system keeps sys.tol.
    """
    a = ensure_matrix(a, "A")
    u = ensure_matrix(u, "U")
    if a.shape != (sys.n, sys.n):
        raise ShapeMismatchError(f"A must be {sys.n}x{sys.n}, got {a.shape}")
    if u.shape != (sys.m, sys.m):
        raise ShapeMismatchError(f"U must be {sys.m}x{sys.m}, got {u.shape}")
    unitary_defect = operator_norm(u.T @ u - np.eye(sys.m))
    if not sys.tol.accepts(unitary_defect, factor=10):
        raise ValueError(f"U is not unitary (||U^T U - I|| = {unitary_defect:.3e})")
    return verify_kframe(a @ sys.F @ u, a @ sys.K.matrix, sys.tol)
