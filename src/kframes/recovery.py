"""Erasure recovery for K-dual coefficients.

A signal f is encoded as c = G^T f against a K-dual G; synthesis F c then
returns Kf. When entries of c are erased at known positions, three solvers
reconstruct them:

* side-info: solve M_L c_L = v - M_known c_known against a certified
  recovery matrix M and the side vector v of K-frame measurements <Kf, f_j>.
* blind: solve the homogeneous relation (M - Gram) c = 0, which needs no
  side information at all.
* consistency: the blind solve against Q, the projector onto Ker G, so
  Q G^T = 0; an ambiguity dc of the erased slots is G^T df with
  G_known^T df = 0, and F dc = K df.

A recovery matrix here is any m x m matrix M with (M - Gram) G^T = 0; its
two sparks bound how many erasures each solver tolerates.

For a fixed erasure set each solver is one linear map. plan_recovery builds
the maps of one strategy for many erasure sets at once: one stacked SVD of
all the erased blocks, ranked against spark's cutoff for the whole matrix,
gives each set its rank, pseudo-inverse and ambiguities (one rank rule), and
a set is exact when F maps every ambiguity to 0 (one exactness rule); a
rank-deficient set is marked, not raised. RecoveryPlan.apply then recovers a
batch of signals, each erased on one of the sets, with a solver residual and
a certified-exact flag per signal; each signal is rounded as if planned and
recovered alone. The recover_* functions plan one set, raise AmbiguityError
for a rank-deficient one, and apply for one signal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    AmbiguityError,
    ExpansionError,
    KFrameError,
    ShapeMismatchError,
)
from .frames import (
    DEFAULT_CAP,
    SCAN_CHUNK,
    DualSystem,
    KFrameSystem,
    _complements,
    _max_erasure_norm,
    normalize_erasure_set,
)
from .linalg import (
    TolerancePolicy,
    _svd_rank,
    column_blocks,
    ensure_matrix,
    ensure_vector,
    matvec_rows,
    null_space_basis,
    operator_norm,
    pseudo_inverse,
    range_basis,
    row_norms,
    stacked_pinv_and_rank,
    svd_factor,
    unit_scaled,
)
from .redundancy import INFINITE, SparkResult, spark

__all__ = [
    "CodedSignal",
    "encode",
    "erase",
    "RkCertificate",
    "validate_rk_matrix",
    "RkSearchResult",
    "find_rk_matrix",
    "RecoveryPlan",
    "plan_recovery",
    "RecoveryReport",
    "recover_side_info",
    "recover_blind",
    "recover_consistency",
    "ProjectedDualExpansion",
    "projected_dual_expansion",
    "ErrorSplit",
    "erasure_error_split",
    "worst_residual_error",
    "ComposedRecovery",
    "compose_recovery_matrices",
]


@dataclass(frozen=True)
class CodedSignal:
    """Coefficient vector with an erasure mask.

    Erased slots hold NaN sentinels but the mask is authoritative; surviving
    entries are preserved bit-exactly.
    """

    coefficients: np.ndarray
    mask: tuple[int, ...]


def encode(dual: DualSystem, f) -> np.ndarray:
    """User need: coefficients c = G^T f; synthesis F c returns Kf for valid duals."""
    vec = ensure_vector(f, "signal")
    if vec.shape[0] != dual.G.shape[0]:
        raise ShapeMismatchError(
            f"signal length {vec.shape[0]} != dimension {dual.G.shape[0]}"
        )
    return dual.G.T @ vec


def erase(c, lam) -> CodedSignal:
    vec = ensure_vector(c, "coefficients")
    mask = normalize_erasure_set(lam, vec.shape[0])
    out = vec.copy()
    out[list(mask)] = np.nan
    return CodedSignal(coefficients=out, mask=mask)


def _r_from_spark(value: int | float, m: int) -> int:
    # Infinite spark means every erasure size up to m stays solvable.
    return m if value == INFINITE else int(value) - 1


def _recovery_matrix(sys: KFrameSystem, m_mat) -> np.ndarray:
    """M as a checked m x m array, the Gramian when m_mat is None."""
    mat = ensure_matrix(sys.gramian if m_mat is None else m_mat, "M")
    if mat.shape != (sys.m, sys.m):
        raise ShapeMismatchError(f"M must be {sys.m}x{sys.m}, got {mat.shape}")
    return mat


def _blind_matrix(sys: KFrameSystem, mat: np.ndarray) -> np.ndarray:
    """N = M - Gram, exactly zero when it is round-off: ||N|| at or under the rank
    cutoff at max(||M||, ||Gram||). Frobenius norms, within sqrt(m) of the spectral
    rule, taken at the unit size of N, M and Gram so they neither over- nor underflow."""
    gram = sys.gramian
    n_mat = mat - gram
    size, *scales = np.linalg.norm(unit_scaled(np.array((n_mat, mat, gram)))[0], axis=(1, 2))
    round_off = size <= sys.tol.rank_cutoff(np.array([max(scales)]), mat.shape)[0]
    return np.zeros_like(n_mat) if round_off else n_mat


def _vanishes(tol: TolerancePolicy, a: np.ndarray, b: np.ndarray) -> bool:
    """Whether A B is zero up to round-off: ||A B|| against ||A|| ||B||, with A and B
    scaled exactly to unit size, so that the verdict is free of their scales. An A
    that is exactly zero, as N = M - Gram is for the Gramian, takes no SVD."""
    if not a.any():
        return True
    a, b = unit_scaled(a)[0], unit_scaled(b)[0]
    return bool(tol.accepts(operator_norm(a @ b), operator_norm(a) * operator_norm(b)))


@dataclass(frozen=True)
class RkCertificate:
    """Recovery-matrix certificate: both sparks and the annihilation residual.

    r_side_info = spark(M) - 1 bounds erasures recoverable with the side
    vector; r_blind = spark(M - Gram) - 1 bounds erasures recoverable from
    the homogeneous equation alone. Failed annihilation shows up in the
    residual, never as an exception.
    """

    M: np.ndarray
    spark_M: SparkResult
    N: np.ndarray
    spark_N: SparkResult
    annihilation_residual: float
    annihilation_ok: bool
    r_side_info: int
    r_blind: int


def validate_rk_matrix(
    sys: KFrameSystem, dual: DualSystem, m_mat, cap: int = DEFAULT_CAP
) -> RkCertificate:
    mat = _recovery_matrix(sys, m_mat)
    n_mat = _blind_matrix(sys, mat)
    spark_m = spark(mat, sys.tol, cap)
    spark_n = spark(n_mat, sys.tol, cap)
    return RkCertificate(
        M=mat,
        spark_M=spark_m,
        N=n_mat,
        spark_N=spark_n,
        annihilation_residual=operator_norm(n_mat @ dual.G.T),
        annihilation_ok=_vanishes(sys.tol, n_mat, dual.G.T),
        r_side_info=_r_from_spark(spark_m.value, sys.m),
        r_blind=_r_from_spark(spark_n.value, sys.m),
    )


@dataclass(frozen=True)
class RkSearchResult:
    """A certified matrix, the modes that reach the target, trial 0 (Gramian) or 1."""

    certificate: RkCertificate
    mode: str
    trial: int


def find_rk_matrix(
    sys: KFrameSystem, dual: DualSystem, r_target: int, cap: int = DEFAULT_CAP
) -> RkSearchResult:
    """The Gramian at r_target 0, else the one candidate Gram + A (I - P), certified.

    P projects onto the row space of the dual, so annihilation holds exactly,
    and A is default_rng(0)'s first m x m standard normal draw. An invertible A
    gives Ker(A (I - P)) = Ker(I - P), the best blind level, and a generic A the
    best side-info level, so no other draw does better. Below the target in both
    modes it raises KFrameError naming both levels and the 1-based columns of
    each spark witness; cap is the certificate's subset budget.
    """
    if not (0 <= r_target < sys.m):
        raise ValueError(f"r_target must satisfy 0 <= r_target < m, got {r_target}")
    if r_target == 0:
        cert = validate_rk_matrix(sys, dual, sys.gramian, cap=cap)
        return RkSearchResult(certificate=cert, mode="both", trial=0)
    annihilator = np.eye(sys.m) - range_basis(dual.G.T, sys.tol).projector()
    a = np.random.default_rng(0).standard_normal((sys.m, sys.m))
    cert = validate_rk_matrix(sys, dual, sys.gramian + a @ annihilator, cap=cap)
    blind_ok = cert.r_blind >= r_target
    side_ok = cert.r_side_info >= r_target
    if blind_ok or side_ok:
        mode = "both" if blind_ok and side_ok else ("blind" if blind_ok else "side-info")
        return RkSearchResult(certificate=cert, mode=mode, trial=1)
    cols_m, cols_n = ((np.flatnonzero(s.witness) + 1).tolist()
                      for s in (cert.spark_M, cert.spark_N))
    raise KFrameError(
        f"no recovery matrix with r >= {r_target}: Gram + A (I - P) reaches "
        f"r_side_info {cert.r_side_info} (spark_M witness on columns {cols_m}) "
        f"and r_blind {cert.r_blind} (spark_N witness on columns {cols_n})"
    )


STRATEGIES = ("side-info", "blind", "consistency")


@dataclass(frozen=True)
class RecoveryPlan:
    """Recovery maps of one strategy for G erasure sets, the rows of erased.

    matrix is m x m. Set g fits matrix_L @ x = rhs by its pseudo-inverse
    solver[g] and fills its erased slots L with x. side-info: matrix = M,
    rhs = v - M_known c_known; blind: matrix = N = M - Gram, rhs = -N_known
    c_known; consistency: the same with N = Q (plan_recovery). rank is each
    block's numerical rank, and range_ok says whether F_L maps the block's
    kernel to 0 and the dual, when one is given, is a K-dual.
    """

    strategy: str
    matrix: np.ndarray
    erased: np.ndarray
    known: np.ndarray
    solver: np.ndarray
    rank: np.ndarray
    range_ok: np.ndarray
    tol: TolerancePolicy

    @property
    def deficiency(self) -> np.ndarray:
        """Rank deficiency of each set's erased columns of M (side-info) or
        M - Gram (blind); a set with deficiency > 0 is refused. Always 0
        for consistency, whose ambiguities range_ok judges instead."""
        if self.strategy == "consistency":
            return np.zeros_like(self.rank)
        return self.erased.shape[1] - self.rank

    def apply(
        self, coefficients: np.ndarray, which: np.ndarray, side: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Recovered coefficients, solver residuals and certified flags of B signals.

        coefficients and side (side-info only) are B x m, one row per signal,
        and signal i was erased at the set erased[which[i]]. Each signal gets
        its own matrix-vector products with its set's map, so it is rounded
        exactly as when recovered alone. Signals go in passes of SCAN_CHUNK,
        read at call time; a pass gathers about 8 m(m + r) bytes per signal,
        3 MiB for m = 12 and r = 4. A signal is certified when its set's
        range_ok holds and tol.accepts(residual, scale), scale the size of rhs's
        terms before they cancel (rhs can be pure round-off, at a zero column of
        F): ||N||_F ||c_known||, N at unit size, plus ||side|| for side-info.
        """
        full = coefficients.copy()
        residual = np.zeros(len(full))
        certified = self.range_ok[which]
        if self.erased.shape[1] == 0:
            # Nothing erased: the survivors are the whole coefficient vector.
            return full, residual, certified
        unit, e = unit_scaled(self.matrix)
        for start in range(0, len(full), SCAN_CHUNK):
            rows = slice(start, start + SCAN_CHUNK)
            sets = which[rows]
            known, erased = self.known[sets], self.erased[sets]
            signal = np.arange(start, start + len(sets))[:, None]
            survivors = coefficients[signal, known]
            coupled = matvec_rows(column_blocks(self.matrix, known), survivors)
            rhs = side[rows] - coupled if self.strategy == "side-info" else -coupled
            x = matvec_rows(self.solver[sets], rhs)
            residual[rows] = row_norms(matvec_rows(column_blocks(self.matrix, erased), x) - rhs)
            full[signal, erased] = x
            with np.errstate(over="ignore"):  # terms past float64 read inf
                scale = np.ldexp(np.linalg.norm(unit) * row_norms(survivors), e)
                if self.strategy == "side-info":
                    scale += row_norms(side[rows])
            certified[rows] &= self.tol.accepts(residual[rows], scale)
        return full, residual, certified


def plan_recovery(
    sys: KFrameSystem,
    strategy: str,
    sets,
    m_mat=None,
    dual: DualSystem | None = None,
) -> RecoveryPlan:
    """Plan recovery of every erasure set (row of the G x r index array sets).

    side-info and blind read m_mat (default: the Gramian), consistency the
    dual; N is M, M - Gram or Q, the projector onto Ker G (bit for bit
    null_space_basis(G).projector()), exactly 0 when that kernel is trivial.
    One stacked SVD of the erased blocks N_L, each ranked against spark's
    cutoff at sigma_max(N), gives every set its rank, pseudo-inverse and null
    right singular vectors; a rank-deficient set is marked by its deficiency,
    not raised. range_ok: F_L maps each null vector to 0 (rank cutoff at F's
    Frobenius norm, at unit size) and the dual, when one is given, is a
    K-dual, as F c is Kf only then.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    if strategy == "consistency" and dual is None:
        raise ValueError("consistency recovery needs the dual")
    tol = sys.tol
    erased = np.asarray(sets, dtype=np.intp)
    if erased.ndim != 2:
        raise ShapeMismatchError(f"erasure sets must be a G x r array, got {erased.shape}")
    known = _complements(erased, sys.m)
    if strategy == "consistency":
        # Unsigned kernel vectors: a sign flip leaves each v v^T bit-identical, and a
        # C-ordered N rounds as null_space_basis's basis.
        _, s, v = svd_factor(dual.G)
        null = np.ascontiguousarray(v[:, _svd_rank(s, dual.G.shape, tol):])
        mat = null @ null.T
    else:
        mat = _recovery_matrix(sys, m_mat)
        if strategy == "blind":
            mat = _blind_matrix(sys, mat)
    cutoff = tol.rank_cutoff(np.linalg.svd(mat, compute_uv=False), mat.shape)
    solver, rank, v = stacked_pinv_and_rank(column_blocks(mat, erased), cutoff)
    null = np.arange(erased.shape[1]) >= rank[:, None]
    range_ok = np.full(len(erased), dual is None or dual.is_valid)
    if null.any():  # a block of full rank leaves no ambiguity to judge
        f_unit = unit_scaled(sys.F)[0]
        f_cutoff = tol.rank_cutoff(np.array([np.linalg.norm(f_unit)]), f_unit.shape)
        moved = np.linalg.norm(column_blocks(f_unit, erased) @ v, axis=1)
        range_ok &= ~(null & (moved > f_cutoff)).any(axis=1)
    return RecoveryPlan(strategy, mat, erased, known, solver, rank, range_ok, tol)


@dataclass(frozen=True)
class RecoveryReport:
    """Recovered coefficients plus the synthesized reconstruction F c."""

    coefficients: np.ndarray
    reconstructed: np.ndarray
    strategy: str
    solver_residual: float
    certified_exact: bool


def _recover_one(
    sys: KFrameSystem, strategy: str, coded: CodedSignal, side=None, m_mat=None,
    dual: DualSystem | None = None,
) -> RecoveryReport:
    """Plan and recover coded's erasure set; AmbiguityError when it is rank
    deficient. Given the dual, M must first annihilate it (side-info, blind)."""
    plan = plan_recovery(sys, strategy, [coded.mask], m_mat=m_mat, dual=dual)
    if strategy != "consistency" and dual is not None:
        # (M - Gram) G^T = 0; a blind plan already holds N.
        n_mat = plan.matrix if strategy == "blind" else _blind_matrix(sys, plan.matrix)
        if not _vanishes(sys.tol, n_mat, dual.G.T):
            raise KFrameError(f"recovery matrix fails annihilation against the dual "
                              f"(residual {operator_norm(n_mat @ dual.G.T):.3e})")
    if plan.deficiency[0]:
        raise AmbiguityError(
            f"{plan.strategy}: erased columns are rank deficient "
            f"({plan.rank[0]} < {len(coded.mask)}); recovery is ambiguous",
            deficiency=int(plan.deficiency[0]),
        )
    full, residual, certified = plan.apply(
        coded.coefficients[None, :], np.zeros(1, dtype=np.intp),
        None if side is None else side[None, :])
    return RecoveryReport(full[0], sys.F @ full[0], strategy, float(residual[0]),
                          bool(certified[0]))


def recover_side_info(
    sys: KFrameSystem,
    m_mat,
    coded: CodedSignal,
    v,
    dual: DualSystem | None = None,
) -> RecoveryReport:
    """Recover erased entries from M_L c_L = v - M_known c_known.

    v is the side vector of K-frame measurements <Kf, f_j>, supplied by the
    caller and never fabricated here. Passing the dual enables the
    annihilation precondition check on M.
    """
    side = ensure_vector(v, "side vector")
    if side.shape[0] != sys.m:
        raise ShapeMismatchError(f"side vector length {side.shape[0]} != m = {sys.m}")
    return _recover_one(sys, "side-info", coded, side, m_mat=m_mat, dual=dual)


def recover_blind(
    sys: KFrameSystem, m_mat, coded: CodedSignal, dual: DualSystem | None = None
) -> RecoveryReport:
    """Recover erased entries from the homogeneous relation (M - Gram) c = 0."""
    return _recover_one(sys, "blind", coded, m_mat=m_mat, dual=dual)


def recover_consistency(
    sys: KFrameSystem, dual: DualSystem, coded: CodedSignal
) -> RecoveryReport:
    """Recover erased entries from Q c = 0, Q the projector onto Ker G.

    Certified exact when F maps every ambiguity of the erased slots to 0 and
    G is a K-dual, which pins Kf even though the recovered coefficients
    may differ from c by G^T df with df in Ker K.
    """
    return _recover_one(sys, "consistency", coded, dual=dual)


@dataclass(frozen=True)
class ProjectedDualExpansion:
    """Expansion of projected dual vectors over surviving frame vectors.

    alpha[i, j] expresses the R(K)-projection of the i-th erased dual vector
    in the surviving frame columns; recovery_matrix is the stacked
    [identity | -alpha] block aligned to the full index set.
    """

    mask: tuple[int, ...]
    alpha: np.ndarray
    recovery_matrix: np.ndarray
    expansion_residual: float


def projected_dual_expansion(
    sys: KFrameSystem, dual: DualSystem, lam
) -> ProjectedDualExpansion:
    """Earlier approach the (r,k)-matrix is compared with: solve
    pi_{R(K)} g_i = sum_{j notin L} alpha_ij f_j for each erased i.

    Guaranteed solvable when the erasure count is at most the uniform
    excess; otherwise the residual check raises ExpansionError.
    """
    tol = sys.tol
    mask = normalize_erasure_set(lam, sys.m)
    survivors = [j for j in range(sys.m) if j not in mask]
    projector = sys.K.range.projector()
    targets = projector @ dual.G[:, list(mask)]
    basis = sys.F[:, survivors]
    alpha = (pseudo_inverse(basis, tol) @ targets).T
    residual = float(np.max(np.linalg.norm(basis @ alpha.T - targets, axis=0), initial=0.0))
    if not tol.accepts(residual, float(np.linalg.norm(targets))):
        raise ExpansionError(
            f"projected dual vectors leave the survivor span "
            f"(residual {residual:.3e})"
        )
    recovery = np.zeros((len(mask), sys.m))
    recovery[np.arange(len(mask)), list(mask)] = 1.0
    recovery[:, survivors] = -alpha
    return ProjectedDualExpansion(
        mask=mask,
        alpha=alpha,
        recovery_matrix=recovery,
        expansion_residual=residual,
    )


@dataclass(frozen=True)
class ErrorSplit:
    """Erasure error operator split into recoverable and residual parts.

    error = recoverable + residual holds identically; recoverable collects
    the R(K) components of the erased dual vectors, residual the orthogonal
    leftovers that no in-range reconstruction can repair.
    """

    error: np.ndarray
    recoverable: np.ndarray
    residual: np.ndarray
    norms: tuple[float, float, float]


def erasure_error_split(
    sys: KFrameSystem, dual: DualSystem, lam
) -> ErrorSplit:
    """Erasure error and uniform excess: F_L G_L^T split as ErrorSplit describes."""
    n = sys.n
    idx = list(normalize_erasure_set(lam, sys.m))
    projector = sys.K.range.projector()
    f_part = sys.F[:, idx]
    g_part = dual.G[:, idx]
    error = f_part @ g_part.T
    recoverable = f_part @ (projector @ g_part).T
    residual = f_part @ ((np.eye(n) - projector) @ g_part).T
    return ErrorSplit(
        error=error,
        recoverable=recoverable,
        residual=residual,
        norms=(operator_norm(error), operator_norm(recoverable), operator_norm(residual)),
    )


def worst_residual_error(
    sys: KFrameSystem, dual: DualSystem, r: int, cap: int = DEFAULT_CAP
) -> tuple[float, tuple[int, ...]]:
    """Erasure error and uniform excess: the exact worst residual error over |L| = r."""
    residual_dual = (np.eye(sys.n) - sys.K.range.projector()) @ dual.G
    return _max_erasure_norm("worst_residual_error", sys.F, residual_dual, r, cap)


@dataclass(frozen=True)
class ComposedRecovery:
    """Composition of a classical erasure-recovery matrix with a recovery matrix.

    degenerate flags a product that is zero up to round-off, ||N M|| within
    the residual threshold of ||N|| ||M|| at unit size, reported with
    infinite spark by convention. kernel_contained confirms Ker M lands inside
    Ker(N M); spark_not_decreased records whether the composed spark stayed
    at or above spark(M), which the kernel containment does not force.
    """

    product: np.ndarray
    spark: SparkResult
    degenerate: bool
    kernel_contained: bool
    spark_not_decreased: bool


def compose_recovery_matrices(
    sys: KFrameSystem, n_mat, m_mat, cap: int = DEFAULT_CAP
) -> ComposedRecovery:
    """Earlier approach the (r,k)-matrix is compared with: N (N F^T = 0) times M."""
    tol = sys.tol
    n_arr = ensure_matrix(n_mat, "N")
    m_arr = ensure_matrix(m_mat, "M")
    if n_arr.shape[1] != sys.m or m_arr.shape != (sys.m, sys.m):
        raise ShapeMismatchError(
            f"expected N with {sys.m} columns and M {sys.m}x{sys.m}, "
            f"got {n_arr.shape} and {m_arr.shape}"
        )
    if not _vanishes(tol, n_arr, sys.F.T):
        raise KFrameError(
            f"N is not an erasure-recovery matrix for the frame "
            f"(||N F^T|| = {operator_norm(n_arr @ sys.F.T):.3e})"
        )
    product = n_arr @ m_arr
    degenerate = _vanishes(tol, n_arr, m_arr)
    if degenerate:
        composed_spark = SparkResult(INFINITE, None)
    else:
        composed_spark = spark(product, tol, cap)
    spark_m = spark(m_arr, tol, cap)
    kernel = null_space_basis(m_arr, tol)
    contained = not kernel.dim or bool(tol.accepts(
        np.max(np.abs(product @ kernel.basis), initial=0.0), operator_norm(product), factor=10))
    return ComposedRecovery(
        product=product,
        spark=composed_spark,
        degenerate=degenerate,
        kernel_contained=contained,
        spark_not_decreased=composed_spark.value >= spark_m.value,
    )
