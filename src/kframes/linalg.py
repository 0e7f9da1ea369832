"""Tolerance-aware dense real linear algebra primitives.

All matrices are 2-D float64 numpy arrays with finite entries. Every
numerical verdict applies one of TolerancePolicy's two purely relative rules,
so none depends on the input's scale: rank_cutoff, relative to the largest
singular value, and accepts, relative to the scale of the terms a residual
sums. A pseudo-inverse whose kept 1 / sigma overflows is refused with
KFrameError. Orthonormal bases come from the SVD, signed deterministically
(the largest-magnitude entry of each basis vector is positive).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import KFrameError, ShapeMismatchError

__all__ = [
    "TolerancePolicy",
    "DEFAULT_TOL",
    "SubspaceBasis",
    "ensure_matrix",
    "svd_factor",
    "rank_of",
    "stacked_ranks",
    "intersection_dims",
    "unit_scaled",
    "certified_full_rank",
    "column_blocks",
    "pseudo_inverse",
    "pinv_and_rank",
    "stacked_pinv_and_rank",
    "null_space_basis",
    "range_basis",
    "operator_norm",
    "matvec_rows",
    "row_norms",
    "ranges_nested",
]


_EPS = float(np.finfo(float).eps)
# Least ||B||_F^2 at the parent's unit size that certified_full_rank can prove.
_GRAM_FLOOR = 2.0**-600
# Below this norm the squares that underflow can reach a row norm's last bit.
_ROW_FLOOR = 2.0**-480


@dataclass(frozen=True)
class TolerancePolicy:
    """The package's two numerical rules, each written only here, both purely
    relative. A rank counts the singular values above rank_cutoff_rel
    max(shape) sigma_1; a residual passes at or under residual_rel factor
    scale, scale the size of the terms it sums, named by each caller (README's
    design notes list them). Both lie in (0, 1e-2).
    """

    rank_cutoff_rel: float = 1e-10
    residual_rel: float = 1e-9

    def __post_init__(self):
        for name in ("rank_cutoff_rel", "residual_rel"):
            value = getattr(self, name)
            if not (0.0 < value < 1e-2):
                raise ValueError(f"{name} must lie in (0, 1e-2), got {value!r}")

    def rank_cutoff(self, s: np.ndarray, shape) -> np.ndarray:
        """Per-block cutoff for singular values s (... x k), relative to s[..., 0].

        LAPACK returns inf, raising nothing, for a largest singular value past
        float64; every value would then read as zero, so that is refused.
        """
        top = s[..., :1]
        if not np.isfinite(top).all():
            raise KFrameError("computed values leave the float64 range "
                              "(a largest singular value overflows)")
        return self.rank_cutoff_rel * max(shape[-2:]) * top

    def accepts(self, residual, scale, factor=1.0):
        """Residual test: residual <= residual_rel * factor * scale."""
        return residual <= self.residual_rel * factor * scale


DEFAULT_TOL = TolerancePolicy()


def ensure_matrix(m, name: str = "matrix") -> np.ndarray:
    """Validate and return a finite 2-D float64 array."""
    arr = np.asarray(m, dtype=float)
    if arr.ndim != 2:
        raise ShapeMismatchError(f"{name} must be 2-D, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def ensure_vector(v, name: str = "vector") -> np.ndarray:
    arr = np.asarray(v, dtype=float).reshape(-1)
    if not np.isfinite(arr).all():
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
            # np.allclose(gram, I, atol=1e-8) written out, without its overhead.
            eye = np.eye(b.shape[1])
            if not (np.abs(b.T @ b - eye) <= 1e-8 + 1e-5 * eye).all():
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


def rank_of(m, tol: TolerancePolicy = DEFAULT_TOL) -> int:
    """Number of singular values above the relative cutoff."""
    arr = ensure_matrix(m)
    return _svd_rank(np.linalg.svd(arr, compute_uv=False), arr.shape, tol)


def stacked_ranks(
    blocks: np.ndarray, tol: TolerancePolicy = DEFAULT_TOL, cutoff: float | None = None
) -> np.ndarray:
    """Rank of every block of an N x n x k stack, from one stacked SVD.

    The stacked SVD returns the singular values that a separate SVD of each
    block returns, so each rank equals that block's own rank decision: by
    rank_of's relative cutoff, or by the fixed cutoff when one is given.
    Blocks without rows or columns have rank 0, with no SVD: kframe_flags
    meets them whenever K is invertible.
    """
    if blocks.shape[-1] == 0 or blocks.shape[-2] == 0:
        return np.zeros(len(blocks), dtype=np.intp)
    s = np.linalg.svd(blocks, compute_uv=False)
    if cutoff is None:
        cutoff = tol.rank_cutoff(s, blocks.shape)
    return np.count_nonzero(s > cutoff, axis=1)


def intersection_dims(
    blocks: np.ndarray, perp: np.ndarray, tol: TolerancePolicy = DEFAULT_TOL
) -> np.ndarray:
    """dim(R(B) & V) = min(rank B - rank(perp^T B), dim V) for every block B of an
    N x n x k stack, perp an orthonormal n x d basis of V^perp (dim V = n - d): the
    package's one intersection rule. Both ranks are cut off against B's largest
    singular value, so the result is free of B's scale, and V enters only through
    perp. A block of rank n meets all of V, as rank(perp^T B) <= d, so only blocks of
    lower rank take the second SVD: the stack as it is if all do, else gathered."""
    s = np.linalg.svd(blocks, compute_uv=False)
    cutoff = tol.rank_cutoff(s, blocks.shape)
    dims = np.count_nonzero(s > cutoff, axis=1)
    low = dims < blocks.shape[1]
    count = np.count_nonzero(low)
    if count == len(low):
        dims -= stacked_ranks(perp.T @ blocks, cutoff=cutoff)
    elif count:
        dims[low] -= stacked_ranks(perp.T @ blocks[low], cutoff=cutoff[low])
    return np.minimum(dims, blocks.shape[1] - perp.shape[1])


def unit_scaled(a: np.ndarray, axis: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """a / 2^e with the largest entry (of each slice along axis) in [1/2, 1), and e
    (kept along axis); e = 0 where a is zero. The package's one unit-size rule:
    scaling by a power of two is exact, so verdicts judged on the copy keep their bits."""
    e = np.frexp(np.abs(a).max(axis=axis, initial=0.0, keepdims=axis is not None))[1]
    return np.ldexp(a, -e), e


def certified_full_rank(
    mat: np.ndarray, subsets: np.ndarray, tol: TolerancePolicy = DEFAULT_TOL,
    cutoff: float | None = None
) -> np.ndarray:
    """True where stacked_ranks(mat[:, S], tol, cutoff) is sure to read rank
    k = min(p, q), for every row S of an N x q index array of distinct
    indices, p the rows of mat: F_S is proven independent (q <= p) or to span
    R^p (q > p).

    mat is scaled once, exactly, by 2^-e to unit size. For each block B =
    F[:, S] (F = mat / 2^e) the Gram of the smaller side is formed: on the
    column side G[S, S], gathered from G = F^T F formed once; on the row
    side B B^T = sum_(i in S) f_i f_i^T, one product of the chunk's 0/1
    membership with the per-column outer products. Its diagonal is lowered
    by tau = (c + 8 (k + 1) max(p, q) eps ||B||_F)^2 + 8 (p + q) eps
    ||B||_F^2 and a Cholesky run along the stack; a subset is proven when all
    its k pivots are positive. c is the cutoff at unit size: the fixed
    cutoff times 2^-e, clamped at 2^64 so that it stays finite and then
    proves nothing; else the policy's rule with sigma_max bounded by ||B||_F.

    Why a proof holds. Each Gram entry is a dot product of length p (column
    side) or q (row side: the membership's zeros add exactly), so the Gram
    is B^T B or B B^T plus E, ||E||_2 <= max(p, q) u ||B||_F^2 (u = eps / 2,
    to first order). A Cholesky that succeeds on A = Gram - tau I factors
    A + D, ||D||_2 <= (k + 1) u trace A, whatever the order of elimination
    (Higham, Accuracy and Stability of Numerical Algorithms, ch. 10). The
    shift, the trace and sigma_max's bound each round once more. So
    lambda_min > tau - 8 (p + q) eps ||B||_F^2 and sigma_k(B) > c +
    8 (k + 1) max(p, q) eps ||B||_F, which is more than the SVD's own error,
    about max(p, q) eps ||B||: its sigma_k of mat[:, S] exceeds the cutoff.
    A block with ||B||_F^2 < _GRAM_FLOOR is unknown, so the margin, at least
    2^-648 in the Gram and 2^-349 in B, also covers every absolute error of
    subnormal entries, products and sums (each below 2^-1074 per
    operation). A non-positive or NaN pivot, from a rank deficient block,
    one near its cutoff or an overflow past one, leaves its subset unknown.

    This is all kframe_flags needs when B spans R^p (k = p <= q): each rank is
    one stacked SVD, and intersection_dims reads a block of rank p as meeting
    R(K) in all of it, rank K, with no second rank of Q^T B to cover.
    """
    (p, m), (count, q) = mat.shape, subsets.shape
    k = min(p, q)
    unit, e = unit_scaled(mat)
    # a[i, j] = Gram[i, j] for j <= i, one length-N vector per entry; the
    # Cholesky factor overwrites it column by column and never reads above.
    if q <= p:
        gram = (unit.T @ unit).ravel()
        cols = np.ascontiguousarray(subsets.T)
        a = np.empty((q, q, count))
        for i in range(q):
            a[i, : i + 1] = gram[cols[i] * m + cols[: i + 1]]
    else:
        member = np.zeros((m, count))
        member[subsets, np.arange(count)[:, None]] = 1.0
        a = ((unit[:, None] * unit).reshape(p * p, m) @ member).reshape(p, p, count)
    diag = a.reshape(k * k, count)[:: k + 1]
    sq = diag.sum(axis=0)
    norm = np.sqrt(sq)
    c = tol.rank_cutoff(norm[:, None], (p, q))[:, 0] if cutoff is None else np.ldexp(
        cutoff, np.minimum(-e, 64 - np.frexp(cutoff)[1]))
    diag -= (c + 8 * (k + 1) * max(p, q) * _EPS * norm) ** 2 + 8 * (p + q) * _EPS * sq
    # A failed pivot leaves NaN or a non-positive diagonal, which stays unknown.
    with np.errstate(all="ignore"):
        for j in range(k):
            col = a[j:, j] - np.einsum("ikn,kn->in", a[j:, :j], a[j, :j])
            a[j:, j] = col / np.sqrt(col[0])
    return (sq >= _GRAM_FLOOR) & (diag > 0).all(axis=0)


def column_blocks(m: np.ndarray, subsets: np.ndarray) -> np.ndarray:
    """N x n x k stack of the submatrices m[:, S], one per row S of an index array."""
    return m.T.take(subsets, axis=0).transpose(0, 2, 1)


def _svd_rank(s: np.ndarray, shape, tol: TolerancePolicy) -> int:
    return int(np.count_nonzero(s > tol.rank_cutoff(s, shape)))


def _reciprocals(s: np.ndarray) -> np.ndarray:
    """1 / s of kept singular values; KFrameError where one overflows."""
    with np.errstate(over="ignore"):
        if np.isinf(inv := 1.0 / s).any():
            raise KFrameError("computed values leave the float64 range (1 / sigma overflows)")
    return inv


def pinv_and_rank(m, tol: TolerancePolicy = DEFAULT_TOL) -> tuple[np.ndarray, int]:
    """Pseudo-inverse and numerical rank, both read off one SVD."""
    arr = ensure_matrix(m)
    u, s, v = svd_factor(arr)
    r = _svd_rank(s, arr.shape, tol)
    return v[:, :r] @ np.diag(_reciprocals(s[:r])) @ u[:, :r].T, r


def stacked_pinv_and_rank(
    blocks: np.ndarray, cutoff: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pseudo-inverse, rank and right singular vectors of every block of an
    N x n x k stack, from one stacked SVD ranked against one fixed cutoff.

    The stacked SVD returns each block's own factors, and the pseudo-inverses
    are formed in pinv_and_rank's operand order, one batch per distinct rank;
    so a block that both rank alike gets pinv_and_rank's result bit for bit.
    When one rank covers the whole stack, U and V^T are read as views, not
    gathered. Column j of a block's V (k x k) is its j-th right singular
    vector; those from its rank on span its numerical kernel.
    """
    count, rows, cols = blocks.shape
    pinvs = np.zeros((count, cols, rows))
    u, s, vt = np.linalg.svd(blocks, full_matrices=True)
    ranks = np.count_nonzero(s > cutoff, axis=1)
    classes = set(ranks.tolist())
    for r in classes - {0}:
        sel = slice(None) if len(classes) == 1 else np.flatnonzero(ranks == r)
        diag = np.eye(r) * _reciprocals(s[sel, :r, None])
        v, ut = vt[sel, :r].transpose(0, 2, 1), u[sel, :, :r].transpose(0, 2, 1)
        pinvs[sel] = v @ diag @ ut
    return pinvs, ranks, vt.transpose(0, 2, 1)


def pseudo_inverse(m, tol: TolerancePolicy = DEFAULT_TOL) -> np.ndarray:
    """Moore-Penrose pseudo-inverse via SVD with the policy's rank cutoff."""
    return pinv_and_rank(m, tol)[0]


def range_basis(m, tol: TolerancePolicy = DEFAULT_TOL) -> SubspaceBasis:
    """Orthonormal basis of the column space (left singular vectors)."""
    arr = ensure_matrix(m)
    u, s, _ = svd_factor(arr)
    return SubspaceBasis(arr.shape[0], _canonical_signs(u[:, :_svd_rank(s, arr.shape, tol)]))


def null_space_basis(m, tol: TolerancePolicy = DEFAULT_TOL) -> SubspaceBasis:
    """Orthonormal basis of the kernel; empty basis when the kernel is trivial."""
    arr = ensure_matrix(m)
    _, s, v = svd_factor(arr)
    return SubspaceBasis(arr.shape[1], _canonical_signs(v[:, _svd_rank(s, arr.shape, tol):]))


def operator_norm(m) -> float:
    """Largest singular value; 0 for empty matrices."""
    return float(np.linalg.svd(ensure_matrix(m), compute_uv=False).max(initial=0.0))


def matvec_rows(m: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """m @ x for each row x of a B x k block, rounded exactly as m @ x alone."""
    return (m @ np.ascontiguousarray(rows)[..., None])[..., 0]


def row_norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norm of every row, rounded as np.linalg.norm of that row.

    A finite nonzero row whose sum of squares overflows, or whose norm is
    below 2^-480 where squares that underflow can reach its last bit, is
    redone at its unit size (unit_scaled), so its norm over- or underflows
    only when it is itself past float64; every other row keeps its bits.
    """
    rows = np.ascontiguousarray(rows)
    with np.errstate(over="ignore"):
        norms = np.sqrt((rows[:, None, :] @ rows[..., None])[:, 0, 0])
    redo = np.flatnonzero((norms < _ROW_FLOOR) | np.isinf(norms))
    if redo.size:  # zero rows, common as exact residuals, keep their 0
        sub = rows[redo]
        redo = redo[np.isfinite(sub).all(axis=1) & sub.any(axis=1)]
    if redo.size:
        scaled, e = unit_scaled(rows[redo], axis=1)
        norms[redo] = np.ldexp(np.sqrt((scaled[:, None, :] @ scaled[..., None])[:, 0, 0]), e[:, 0])
    return norms


def _restricted_inverse(f: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(r, (r^T S d)^-1) for S = f f^T, f at unit size, and d an orthonormal
    n x k basis of a subspace V of R(f): r, the first k left singular vectors
    of S d, is an orthonormal basis of S V. No rank is decided: S is positive
    definite on R(f), so its restriction to V is injective and S V has
    dimension k. A restriction that is numerically singular reaches
    np.linalg.inv's LinAlgError."""
    image = (f @ f.T) @ d
    # Contiguous, as range_basis's basis is: a strided single column rounds r^T S d apart.
    r = svd_factor(image)[0][:, : d.shape[1]].copy()
    return r, np.linalg.inv(r.T @ image)


def ranges_nested(inner, outer, tol: TolerancePolicy = DEFAULT_TOL) -> bool:
    """True when R(inner) lies in R(outer): they meet in rank inner dimensions."""
    a = ensure_matrix(inner, "inner")
    b = ensure_matrix(outer, "outer")
    if a.shape[0] != b.shape[0]:
        raise ShapeMismatchError("range comparison needs equal row counts")
    u, s, _ = svd_factor(a)
    r = _svd_rank(s, a.shape, tol)
    return bool(intersection_dims(b[None], u[:, r:], tol)[0] >= r)
