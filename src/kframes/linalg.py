"""Tolerance-aware dense real linear algebra primitives.

All matrices are 2-D float64 numpy arrays with finite entries. Rank
decisions are relative to the largest singular value so they are invariant
under global scaling. Orthonormal bases always come from the SVD, with a
deterministic sign convention (largest-magnitude entry of each basis vector
is positive), so repeated runs produce identical bases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatchError

__all__ = [
    "TolerancePolicy",
    "DEFAULT_TOL",
    "SubspaceBasis",
    "ensure_matrix",
    "svd_factor",
    "rank_of",
    "stacked_ranks",
    "column_blocks",
    "pseudo_inverse",
    "pinv_and_rank",
    "null_space_basis",
    "range_basis",
    "range_projector",
    "operator_norm",
    "matvec_rows",
    "row_norms",
    "restricted_operator",
    "ranges_nested",
]


@dataclass(frozen=True)
class TolerancePolicy:
    """Numerical cutoffs used across the package.

    rank_cutoff_rel scales the singular-value threshold for rank decisions;
    residual_rel scales acceptance thresholds for matrix-equation residuals.
    Both must be positive and below 1e-2.
    """

    rank_cutoff_rel: float = 1e-10
    residual_rel: float = 1e-9

    def __post_init__(self):
        for name in ("rank_cutoff_rel", "residual_rel"):
            value = getattr(self, name)
            if not (0.0 < value < 1e-2):
                raise ValueError(f"{name} must lie in (0, 1e-2), got {value!r}")


DEFAULT_TOL = TolerancePolicy()


def ensure_matrix(m, name: str = "matrix") -> np.ndarray:
    """Validate and return a finite 2-D float64 array."""
    arr = np.asarray(m, dtype=float)
    if arr.ndim != 2:
        raise ShapeMismatchError(f"{name} must be 2-D, got shape {arr.shape}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def ensure_vector(v, name: str = "vector") -> np.ndarray:
    arr = np.asarray(v, dtype=float).reshape(-1)
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True)
class SubspaceBasis:
    """Orthonormal basis of a subspace of R^ambient_dim, columns are vectors.

    An empty basis (zero columns) is a legal value representing the trivial
    subspace.
    """

    ambient_dim: int
    basis: np.ndarray

    def __post_init__(self):
        b = ensure_matrix(self.basis, "basis")
        if b.shape[0] != self.ambient_dim:
            raise ShapeMismatchError(
                f"basis rows {b.shape[0]} != ambient dim {self.ambient_dim}"
            )
        if b.shape[1]:
            gram = b.T @ b
            if not np.allclose(gram, np.eye(b.shape[1]), atol=1e-8):
                raise ValueError("basis columns are not orthonormal")
        object.__setattr__(self, "basis", b)

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def projector(self) -> np.ndarray:
        return self.basis @ self.basis.T


def _canonical_signs(columns: np.ndarray) -> np.ndarray:
    """Flip column signs so the leading near-maximal entry is positive.

    Ties in magnitude break toward the first index, within a relative
    epsilon, so the convention is stable under last-bit noise.
    """
    if columns.size == 0:
        return columns
    out = columns.copy()
    for j in range(out.shape[1]):
        mags = np.abs(out[:, j])
        lead = int(np.argmax(mags >= (1.0 - 1e-12) * mags.max()))
        if out[lead, j] < 0:
            out[:, j] = -out[:, j]
    return out


def svd_factor(m) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Full SVD, returned as (U, singular_values, V) with M = U diag(s) V^T."""
    arr = ensure_matrix(m)
    try:
        u, s, vt = np.linalg.svd(arr, full_matrices=True)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"SVD did not converge for {arr.shape[0]}x{arr.shape[1]} matrix"
        ) from exc
    return u, s, vt.T


# Singular values below the smallest normal double cannot be inverted
# without overflow; they count as zero in every rank decision.
_TINY = float(np.finfo(float).tiny)


def _rank_cutoff(s: np.ndarray, shape, tol: TolerancePolicy) -> float:
    if s.size == 0:
        return 0.0
    return max(tol.rank_cutoff_rel * max(shape) * s[0], _TINY)


def rank_of(m, tol: TolerancePolicy = DEFAULT_TOL) -> int:
    """Number of singular values above the relative cutoff."""
    arr = ensure_matrix(m)
    if arr.size == 0:
        return 0
    s = np.linalg.svd(arr, compute_uv=False)
    return int(np.sum(s > _rank_cutoff(s, arr.shape, tol)))


def stacked_ranks(
    blocks: np.ndarray, tol: TolerancePolicy = DEFAULT_TOL, cutoff: float | None = None
) -> np.ndarray:
    """Rank of every block of an N x n x k stack, from one stacked SVD.

    The stacked SVD returns the singular values that a separate SVD of each
    block returns, so each rank equals that block's own rank decision: by
    rank_of's relative cutoff, or by the fixed cutoff when one is given.
    Blocks without rows or columns have rank 0.
    """
    if blocks.shape[-1] == 0 or blocks.shape[-2] == 0:
        return np.zeros(len(blocks), dtype=np.intp)
    s = np.linalg.svd(blocks, compute_uv=False)
    if cutoff is None:
        # _rank_cutoff, block by block.
        cutoff = np.maximum(tol.rank_cutoff_rel * max(blocks.shape[1:]) * s[:, :1], _TINY)
    return np.count_nonzero(s > cutoff, axis=1)


def column_blocks(m: np.ndarray, subsets: np.ndarray) -> np.ndarray:
    """N x n x k stack of the submatrices m[:, S], one per row S of an index array."""
    return m.T[subsets].transpose(0, 2, 1)


def pinv_and_rank(m, tol: TolerancePolicy = DEFAULT_TOL) -> tuple[np.ndarray, int]:
    """Pseudo-inverse and numerical rank, both read off one SVD."""
    arr = ensure_matrix(m)
    if arr.size == 0:
        return np.zeros((arr.shape[1], arr.shape[0])), 0
    u, s, v = svd_factor(arr)
    r = int(np.sum(s > _rank_cutoff(s, arr.shape, tol)))
    return v[:, :r] @ np.diag(1.0 / s[:r]) @ u[:, :r].T, r


def pseudo_inverse(m, tol: TolerancePolicy = DEFAULT_TOL) -> np.ndarray:
    """Moore-Penrose pseudo-inverse via SVD with the policy's rank cutoff."""
    return pinv_and_rank(m, tol)[0]


def range_basis(m, tol: TolerancePolicy = DEFAULT_TOL) -> SubspaceBasis:
    """Orthonormal basis of the column space (left singular vectors)."""
    arr = ensure_matrix(m)
    n = arr.shape[0]
    if arr.size == 0:
        return SubspaceBasis(n, np.zeros((n, 0)))
    u, s, _ = svd_factor(arr)
    r = int(np.sum(s > _rank_cutoff(s, arr.shape, tol)))
    return SubspaceBasis(n, _canonical_signs(u[:, :r]))


def null_space_basis(m, tol: TolerancePolicy = DEFAULT_TOL) -> SubspaceBasis:
    """Orthonormal basis of the kernel; empty basis when the kernel is trivial."""
    arr = ensure_matrix(m)
    cols = arr.shape[1]
    if arr.size == 0:
        return SubspaceBasis(cols, np.eye(cols))
    u, s, v = svd_factor(arr)
    r = int(np.sum(s > _rank_cutoff(s, arr.shape, tol)))
    return SubspaceBasis(cols, _canonical_signs(v[:, r:]))


def range_projector(m, tol: TolerancePolicy = DEFAULT_TOL) -> np.ndarray:
    """Symmetric idempotent projecting onto the column space of m."""
    return range_basis(m, tol).projector()


def operator_norm(m) -> float:
    """Largest singular value; 0 for empty matrices."""
    arr = ensure_matrix(m)
    if arr.size == 0:
        return 0.0
    return float(np.linalg.svd(arr, compute_uv=False)[0])


def matvec_rows(m: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """m @ x for each row x of a B x k block, rounded exactly as m @ x alone."""
    return (m @ np.ascontiguousarray(rows)[..., None])[..., 0]


def row_norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norm of every row, rounded as np.linalg.norm of that row."""
    rows = np.ascontiguousarray(rows)
    return np.sqrt((rows[:, None, :] @ rows[..., None])[:, 0, 0])


def restricted_operator(
    t, domain: SubspaceBasis, tol: TolerancePolicy = DEFAULT_TOL
) -> tuple[np.ndarray, SubspaceBasis]:
    """Coordinate matrix of a square operator restricted to a subspace.

    Returns (matrix_in_bases, image_basis) where image_basis spans t(domain)
    and matrix_in_bases = image_basis^T t domain_basis. The restriction,
    viewed as a map from the domain onto its image, is invertible exactly
    when matrix_in_bases is square and invertible. Rank deficiency is
    visible in the shape, not raised here.
    """
    arr = ensure_matrix(t, "operator")
    if arr.shape[0] != arr.shape[1]:
        raise ShapeMismatchError(f"operator must be square, got {arr.shape}")
    if domain.ambient_dim != arr.shape[0]:
        raise ShapeMismatchError(
            f"domain ambient dim {domain.ambient_dim} != operator size {arr.shape[0]}"
        )
    image = arr @ domain.basis
    img_basis = range_basis(image, tol)
    matrix = img_basis.basis.T @ image
    return matrix, img_basis


def ranges_nested(inner, outer, tol: TolerancePolicy = DEFAULT_TOL) -> bool:
    """True when the column space of inner is contained in that of outer."""
    a = ensure_matrix(inner, "inner")
    b = ensure_matrix(outer, "outer")
    if a.shape[0] != b.shape[0]:
        raise ShapeMismatchError("range comparison needs equal row counts")
    r_outer = rank_of(b, tol)
    return rank_of(np.hstack([b, a]), tol) == r_outer
