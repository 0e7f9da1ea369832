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

from .errors import RestrictedInverseError
from .frames import DualSystem, KFrameSystem, _unit_scaled, verify_kdual
from .linalg import (
    null_space_basis,
    operator_norm,
    pseudo_inverse,
    ranges_nested,
    restricted_operator,
)

__all__ = [
    "CanonicalDual",
    "RestrictedDualReport",
    "canonical_kdual",
    "dual_vector_map",
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
    x = pseudo_inverse(sys.F, sys.tol) @ sys.K.matrix
    vector_map = pseudo_inverse(sys.F.T, sys.tol) @ x
    dual = verify_kdual(sys, x.T)
    return CanonicalDual(
        dual=dual,
        analysis_map=x,
        vector_map=vector_map,
        analysis_norm=operator_norm(x),
    )


def dual_vector_map(sys: KFrameSystem) -> np.ndarray:
    """Operator C with canonical dual vectors g_i = C^T f_i and R(C) in R(F).

    For Parseval systems this is the transposed pseudo-inverse of the
    operator, so the canonical dual collapses to K^+ F.
    """
    return canonical_kdual(sys).vector_map


def is_canonical(sys: KFrameSystem, dual: DualSystem, trials: int = 16, seed: int = 0) -> bool:
    """Minimal-norm test: G is canonical iff G G^T = G Z^T for every dual Z.

    Probes one perturbation per kernel basis vector (which makes the test
    complete, not statistical), the canonical dual itself, and `trials`
    seeded random duals.
    """
    if not dual.is_valid:
        raise ValueError("is_canonical requires a valid dual")
    g = dual.G
    null = null_space_basis(sys.F, sys.tol)
    probes: list[np.ndarray] = [canonical_kdual(sys).dual.G]
    unit = np.ones((sys.n, 1))
    for j in range(null.dim):
        probes.append(g + unit @ null.basis[:, j][None, :])
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        if null.dim == 0:
            break
        probes.append(g + rng.standard_normal((sys.n, null.dim)) @ null.basis.T)
    gram = g @ g.T
    scale = operator_norm(gram)
    return all(sys.tol.accepts(operator_norm(gram - g @ z.T), scale, factor=10) for z in probes)


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
    # where it neither over- nor underflows. Positive scalings keep every
    # range compared here, and the duals, each 2^e times the unscaled one,
    # are scaled back exactly.
    f, f_exp = _unit_scaled(sys.F)
    domain = sys.K.range
    coord, image = restricted_operator(f @ f.T, domain, sys.tol)
    if coord.shape[0] < coord.shape[1]:
        raise RestrictedInverseError(
            "frame operator restricted to R(K) is singular",
            defect=coord.shape[1] - coord.shape[0],
        )
    inv = np.linalg.inv(coord)
    d, r = domain.basis, image.basis
    mk_t = sys.K.matrix.T
    g_image = np.ldexp(mk_t @ d @ inv @ r.T @ f, -f_exp)
    g_domain = np.ldexp(mk_t @ r @ inv.T @ d.T @ f, -f_exp)
    hypotheses = {
        "frame_in_operator_range": ranges_nested(f, d, sys.tol),
        "operator_range_in_image": ranges_nested(d, r, sys.tol),
        "frame_in_image": ranges_nested(f, r, sys.tol),
    }
    return RestrictedDualReport(
        dual_image=verify_kdual(sys, g_image),
        dual_domain=verify_kdual(sys, g_domain),
        hypotheses=hypotheses,
    )

