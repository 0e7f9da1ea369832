"""K-frame modeling: verification, bounds, Gramian, duals and transforms.

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
    column_blocks,
    ensure_matrix,
    null_space_basis,
    operator_norm,
    pseudo_inverse,
    range_basis,
    rank_of,
    stacked_ranks,
)

__all__ = [
    "OperatorK",
    "KFrameSystem",
    "DualSystem",
    "Classification",
    "normalize_erasure_set",
    "scan_budget",
    "scan_subsets",
    "is_kframe",
    "kframe_flags",
    "verify_kframe",
    "frame_bounds",
    "gramian",
    "classify",
    "verify_kdual",
    "dual_perturbation",
    "worst_erasure_error",
    "transform",
]


@dataclass(frozen=True)
class OperatorK:
    """A square operator with cached range data and pseudo-inverse."""

    matrix: np.ndarray
    rank: int
    range: SubspaceBasis
    pinv: np.ndarray
    adjoint_range: SubspaceBasis

    @classmethod
    def from_matrix(cls, m, tol: TolerancePolicy = DEFAULT_TOL) -> "OperatorK":
        arr = ensure_matrix(m, "K")
        if arr.shape[0] != arr.shape[1]:
            raise ShapeMismatchError(f"K must be square, got {arr.shape}")
        return cls(
            matrix=arr,
            rank=rank_of(arr, tol),
            range=range_basis(arr, tol),
            pinv=pseudo_inverse(arr, tol),
            adjoint_range=range_basis(arr.T, tol),
        )

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class KFrameSystem:
    """A verified K-frame: synthesis matrix F plus operator and cached data.

    bounds is None exactly when K = 0 (the lower bound is undefined there).
    Construct through verify_kframe, which enforces the range inclusion.
    """

    F: np.ndarray
    K: OperatorK
    tol: TolerancePolicy
    bounds: tuple[float, float] | None

    @cached_property
    def gramian(self) -> np.ndarray:
        """F^T F, formed on first read: at extreme scales it overflows."""
        return self.F.T @ self.F

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
    policy's relative threshold against 1 + ||M_K||.
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


# Most subsets per chunk: enough to spread the Python cost of one stacked SVD
# thin, and few enough that a chunk's blocks stay small next to a whole level.
SCAN_CHUNK = 256


def scan_budget(what: str, m: int, sizes, cap: int) -> None:
    """The one budget rule: refuse a scan whose worst case exceeds cap subset tests.

    The scan tests every subset of range(m) of the given sizes once.
    """
    tests = sum(math.comb(m, k) for k in sizes)
    if tests > cap:
        raise BudgetExceededError(
            f"{what} needs {tests} subset tests, more than the cap of {cap}"
        )


def scan_subsets(what: str, m: int, sizes, cap: int):
    """Subsets of range(m) of the given sizes in that order, lexicographic within a size.

    They come in chunks: N x k index arrays of one size k, so no level is
    held whole. Within a level N doubles from 1 up to SCAN_CHUNK, so a scan
    that its first subset decides tests one subset, and a long level still
    goes in full chunks. scan_budget runs here, once, before any subset is
    handed out, so sizes is read twice and must be a range or a sequence.
    """
    scan_budget(what, m, sizes, cap)

    def chunks():
        for k in sizes:
            level = itertools.combinations(range(m), k)
            size = 1
            while batch := list(itertools.islice(level, size)):
                yield np.array(batch, dtype=np.intp)
                size = min(2 * size, SCAN_CHUNK)

    return chunks()


def _range_inclusion_ok(f: np.ndarray, op: OperatorK, tol: TolerancePolicy) -> bool:
    if op.rank == 0:
        return True
    return rank_of(np.hstack([f, op.matrix]), tol) == rank_of(f, tol)


def is_kframe(f, k, tol: TolerancePolicy = DEFAULT_TOL) -> bool:
    """Cheap predicate form of verify_kframe (no system construction)."""
    arr = ensure_matrix(f, "F")
    op = k if isinstance(k, OperatorK) else OperatorK.from_matrix(k, tol)
    return arr.shape[0] == op.dim and _range_inclusion_ok(arr, op, tol)


def kframe_flags(
    f: np.ndarray, op: OperatorK, subsets: np.ndarray, tol: TolerancePolicy = DEFAULT_TOL
) -> np.ndarray:
    """is_kframe(f[:, S], op) for every row S of an N x k index array.

    Each of the test's two ranks, of [F_S, K] and of F_S, comes from one
    stacked SVD over the chunk.
    """
    if f.shape[0] != op.dim:
        return np.zeros(len(subsets), dtype=bool)
    if op.rank == 0:
        return np.ones(len(subsets), dtype=bool)
    blocks = column_blocks(f, subsets)
    k = np.broadcast_to(op.matrix, (len(subsets),) + op.matrix.shape)
    return stacked_ranks(np.concatenate([blocks, k], axis=2), tol) == stacked_ranks(blocks, tol)


def verify_kframe(f, k, tol: TolerancePolicy = DEFAULT_TOL) -> KFrameSystem:
    """Check R(K) within R(F) and build the system with cached products.

    Raises NotKFrameError with a witness vector (in R(K) but outside R(F))
    when the inclusion fails, ShapeMismatchError on incompatible shapes.
    """
    arr = ensure_matrix(f, "F")
    op = k if isinstance(k, OperatorK) else OperatorK.from_matrix(k, tol)
    if arr.shape[0] != op.dim:
        raise ShapeMismatchError(
            f"F has {arr.shape[0]} rows but K acts on dimension {op.dim}"
        )
    if not _range_inclusion_ok(arr, op, tol):
        proj = range_basis(arr, tol).projector()
        leftover = op.range.basis - proj @ op.range.basis
        worst = int(np.argmax(np.linalg.norm(leftover, axis=0)))
        raise NotKFrameError(
            "operator range is not contained in the frame span",
            witness=op.range.basis[:, worst].copy(),
        )
    bounds = None if op.rank == 0 else _compute_bounds(arr, op, tol)
    return KFrameSystem(F=arr, K=op, tol=tol, bounds=bounds)


def _compute_bounds(f: np.ndarray, op: OperatorK, tol: TolerancePolicy) -> tuple[float, float]:
    # Squared in float64: a bound out of range reads inf or 0, not an error.
    with np.errstate(over="ignore", divide="ignore"):
        upper = np.float64(operator_norm(f)) ** 2
        # Minimal-norm solution of F X = M_K; its norm is the reciprocal
        # root of the optimal lower bound.
        x = pseudo_inverse(f, tol) @ op.matrix
        lower = 1.0 / np.float64(operator_norm(x)) ** 2
    return (lower, upper)


def frame_bounds(sys: KFrameSystem) -> tuple[float, float]:
    """Optimal bounds (A, B) with A ||K^T f||^2 <= ||F^T f||^2 <= B ||f||^2.

    Raises KFrameError when a bound over- or underflowed float64.
    """
    if sys.bounds is None:
        raise ZeroOperatorError("lower frame bound is undefined for K = 0")
    if not all(_TINY <= bound < math.inf for bound in sys.bounds):
        raise KFrameError(f"frame bounds {sys.bounds} lie outside the float64 range")
    return sys.bounds


def gramian(sys: KFrameSystem) -> np.ndarray:
    """m x m matrix of pairwise inner products, entry (j, i) = <f_i, f_j>."""
    return sys.gramian


def _unit_scaled(a: np.ndarray) -> tuple[np.ndarray, int]:
    """a / 2^e with the largest entry in [1/2, 1), and e; the scaling is exact."""
    e = int(np.frexp(np.max(np.abs(a), initial=0.0))[1])
    return np.ldexp(a, -e), e


def classify(sys: KFrameSystem, tol: TolerancePolicy | None = None) -> Classification:
    """Tightness (least-squares alpha fit of FF^T vs M_K M_K^T) and norms.

    Both tests run on F and K scaled exactly to unit size, so the thresholds
    are relative to the input scale and no product under- or overflows.
    """
    tol = tol or sys.tol
    f, f_exp = _unit_scaled(sys.F)
    k, k_exp = _unit_scaled(sys.K.matrix)
    ss = f @ f.T
    kk = k @ k.T
    kk_sq = float(np.sum(kk * kk))
    alpha = None
    if kk_sq > 0.0:
        fit = float(np.sum(ss * kk)) / kk_sq
        resid = np.linalg.norm(ss - fit * kk)
        if resid <= tol.residual_rel * (1.0 + np.linalg.norm(ss)):
            alpha = float(np.ldexp(fit, 2 * (f_exp - k_exp)))
    elif np.linalg.norm(ss) <= tol.residual_rel:
        alpha = 1.0
    norms = np.linalg.norm(f, axis=0)
    spread = float(norms.max() - norms.min()) if norms.size else 0.0
    equal_norm = spread <= tol.residual_rel * (1.0 + float(norms.max(initial=0.0)))
    parseval = alpha is not None and abs(alpha - 1.0) <= tol.residual_rel * 10
    return Classification(tight_alpha=alpha, parseval=parseval, equal_norm=equal_norm)


def verify_kdual(sys: KFrameSystem, g, tol: TolerancePolicy | None = None) -> DualSystem:
    """Residual-based K-dual check: ||F G^T - M_K|| against the threshold."""
    tol = tol or sys.tol
    arr = ensure_matrix(g, "G")
    if arr.shape != sys.F.shape:
        raise ShapeMismatchError(
            f"G shape {arr.shape} != F shape {sys.F.shape}"
        )
    residual = operator_norm(sys.F @ arr.T - sys.K.matrix)
    threshold = tol.residual_rel * (1.0 + operator_norm(sys.K.matrix))
    return DualSystem(G=arr, residual=residual, is_valid=residual <= threshold)


def dual_perturbation(sys: KFrameSystem, base: DualSystem, coeffs) -> DualSystem:
    """Add a kernel perturbation: rows of the update are null-space combinations.

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
    """Largest ||F_L G_L^T|| over |L| = r with the lexicographically first such L."""
    if not (1 <= r < f.shape[1]):
        raise ValueError(f"erasure count must satisfy 1 <= r < m, got {r}")
    return max(
        ((operator_norm(f[:, lam] @ g[:, lam].T), tuple(lam))
         for chunk in scan_subsets(what, f.shape[1], [r], cap) for lam in chunk.tolist()),
        key=lambda pair: pair[0],
    )


def worst_erasure_error(
    sys: KFrameSystem, dual: DualSystem, r: int, cap: int = 10**6
) -> tuple[float, tuple[int, ...]]:
    """Exact maximum of ||sum_{i in L} f_i g_i^T|| over all |L| = r.

    Returns the value and the lexicographically first maximizing index set.
    """
    return _max_erasure_norm("worst_erasure_error", sys.F, dual.G, r, cap)


def transform(sys: KFrameSystem, a, u, tol: TolerancePolicy | None = None) -> KFrameSystem:
    """Left-multiply by a square A and right-multiply by a unitary U.

    (A F U, A M_K) is again a valid system for the transported operator, and
    G U is a dual of it whenever G was a dual of the original.
    """
    tol = tol or sys.tol
    a = ensure_matrix(a, "A")
    u = ensure_matrix(u, "U")
    if a.shape != (sys.n, sys.n):
        raise ShapeMismatchError(f"A must be {sys.n}x{sys.n}, got {a.shape}")
    if u.shape != (sys.m, sys.m):
        raise ShapeMismatchError(f"U must be {sys.m}x{sys.m}, got {u.shape}")
    unitary_defect = operator_norm(u.T @ u - np.eye(sys.m))
    if unitary_defect > tol.residual_rel * 10:
        raise ValueError(f"U is not unitary (||U^T U - I|| = {unitary_defect:.3e})")
    return verify_kframe(a @ sys.F @ u, a @ sys.K.matrix, tol)
