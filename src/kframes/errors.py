"""Exception hierarchy shared by all kframes modules."""


class KFrameError(Exception):
    """Base class for contract violations raised by this package."""


class ShapeMismatchError(KFrameError):
    """Operands have incompatible dimensions."""


class MatrixFormatError(KFrameError):
    """A matrix file or JSON object does not follow the documented format."""


class MissingKeyError(MatrixFormatError):
    """A JSON matrix file lacks the key asked for."""


class NotKFrameError(KFrameError):
    """Range inclusion fails: the operator range is not covered by the frame.

    Carries a witness vector that lies in the operator range but not in the
    column span of the synthesis matrix.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class ZeroOperatorError(KFrameError):
    """The operator is zero, so the lower frame bound is undefined."""


class BudgetExceededError(KFrameError):
    """A combinatorial scan would exceed the configured subset cap."""


class AmbiguityError(KFrameError):
    """An erasure solve is underdetermined; carries the rank deficiency."""

    def __init__(self, message, deficiency=0):
        super().__init__(message)
        self.deficiency = deficiency


class ExpansionError(KFrameError):
    """Projected dual vectors do not lie in the span of surviving columns."""

