"""K-frame analysis, canonical duals, redundancy diagnostics and erasure recovery."""

from .canonical import (
    CanonicalDual,
    RestrictedDualReport,
    canonical_kdual,
    canonical_kdual_restricted,
    is_canonical,
)
from .errors import (
    AmbiguityError,
    BudgetExceededError,
    ExpansionError,
    KFrameError,
    MatrixFormatError,
    NotKFrameError,
    ShapeMismatchError,
    ZeroOperatorError,
)
from .frames import (
    Classification,
    DualSystem,
    KFrameSystem,
    OperatorK,
    classify,
    dual_perturbation,
    frame_bounds,
    is_kframe,
    normalize_erasure_set,
    transform,
    verify_kdual,
    verify_kframe,
    worst_erasure_error,
)
from .linalg import (
    DEFAULT_TOL,
    SubspaceBasis,
    TolerancePolicy,
    null_space_basis,
    operator_norm,
    pseudo_inverse,
    range_basis,
    rank_of,
    ranges_nested,
    svd_factor,
)
from .recovery import (
    CodedSignal,
    ComposedRecovery,
    ErrorSplit,
    ProjectedDualExpansion,
    RecoveryPlan,
    RecoveryReport,
    RkCertificate,
    RkSearchResult,
    compose_recovery_matrices,
    encode,
    erase,
    erasure_error_split,
    find_rk_matrix,
    plan_recovery,
    projected_dual_expansion,
    recover_blind,
    recover_consistency,
    recover_side_info,
    validate_rk_matrix,
    worst_residual_error,
)
from .redundancy import (
    INFINITE,
    ExcessReport,
    MrcReport,
    SparkResult,
    derived_pinv_frames,
    hamming_weight,
    is_maximal_robust,
    mrc_all,
    mrc_subset,
    spark,
    spark_via_kernel,
    uniform_excess,
)

__version__ = "0.1.0"
