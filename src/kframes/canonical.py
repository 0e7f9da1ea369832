"""Canonical K-dual construction and certification.

The canonical dual is the K-dual whose analysis operator has minimal norm.
It is produced by the minimal-norm factorization: the unique X with
F X = M_K and column range inside the row space of F is X = F^+ M_K, and
the dual vectors are the rows of X. Two alternative restricted-inverse
formulas are provided; they reproduce the canonical dual under inclusion
hypotheses which this module reports rather than assumes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .frames import DualSystem, KFrameSystem, _verify_kduals, verify_kdual
from .linalg import (
    _restricted_inverse,
    intersection_dims,
    null_space_basis,
    operator_norm,
    pseudo_inverse,
    rank_of,
    unit_scaled,
)

__all__ = [
    "CanonicalDual",
    "RestrictedDualReport",
    "canonical_kdual",
    "is_canonical",
    "canonical_kdual_restricted",
]


@dataclass(frozen=True)
class CanonicalDual:
    """Canonical K-dual plus the operators that produce it.

    analysis_map is the m x n coefficient matrix X with F X = M_K (it equals
    G^T); vector_map is the n x n operator C with g_i = C^T f_i; the columns
    of analysis_map lie in the row space of F, which is what makes the
    analysis norm minimal among all K-duals.
    """

    dual: DualSystem
    analysis_map: np.ndarray
    vector_map: np.ndarray
    analysis_norm: float


def canonical_kdual(sys: KFrameSystem) -> CanonicalDual:
    pinv = pseudo_inverse(sys.F, sys.tol)
    x = pinv @ sys.K.matrix
    # pinv(F^T) = pinv(F)^T, so C = pinv(F^T) X needs no second SVD.
    return CanonicalDual(dual=verify_kdual(sys, x.T), analysis_map=x,
                         vector_map=pinv.T @ x, analysis_norm=operator_norm(x))


def is_canonical(sys: KFrameSystem, dual: DualSystem) -> bool:
    """Structure of the canonical K-dual: whether G's analysis range lies in R(F^T),
    i.e. G N = 0 for a kernel basis N of F, which holds for that one K-dual alone.

    Judged with G scaled exactly to unit size, so the verdict does not depend
    on the scale of F or K. Raises ValueError for an invalid dual.
    """
    if not dual.is_valid:
        raise ValueError("is_canonical requires a valid dual")
    g, _ = unit_scaled(dual.G)
    null = null_space_basis(sys.F, sys.tol)
    return sys.tol.accepts(operator_norm(g @ null.basis), operator_norm(g), factor=10)


@dataclass(frozen=True)
class RestrictedDualReport:
    """Both restricted-inverse dual formulas with hypothesis bookkeeping.

    dual_image applies the inverted restriction after projecting frame
    vectors onto the image S_F(R(K)); dual_domain applies the transposed
    inverse after projecting onto R(K). hypotheses records which of the
    three sufficient inclusions hold; when one holds, the corresponding
    formula is guaranteed to reproduce the canonical dual.
    """

    dual_image: DualSystem
    dual_domain: DualSystem
    hypotheses: dict[str, bool]


def canonical_kdual_restricted(sys: KFrameSystem) -> RestrictedDualReport:
    # The frame operator is formed on F scaled exactly by 2^-e to unit size,
    # where it neither over- nor underflows, and the duals on F and K at unit
    # size. Positive scalings keep every range compared here, and the duals,
    # each 2^(e - e_K) times the unscaled one, are scaled back exactly.
    f, f_exp = unit_scaled(sys.F)
    k, k_exp = unit_scaled(sys.K.matrix)
    d = sys.K.range.basis
    r, inv = _restricted_inverse(f, d)
    g_image = np.ldexp(k.T @ d @ inv @ r.T @ f, k_exp - f_exp)
    g_domain = np.ldexp(k.T @ r @ inv.T @ d.T @ f, k_exp - f_exp)
    # R(K) lies in R(F), and S R(K) in R(F) has dimension rank K: R(F) lies in
    # either exactly when rank F = rank K. R(K) in S R(K) is judged against R(K)^perp.
    spans = rank_of(f, sys.tol) == sys.K.rank
    in_image = intersection_dims(r[None], sys.K.range_perp, sys.tol)[0] >= sys.K.rank
    return RestrictedDualReport(*_verify_kduals(sys, (g_image, g_domain)), hypotheses={
        "frame_in_operator_range": spans,
        "operator_range_in_image": bool(in_image),
        "frame_in_image": spans,
    })
