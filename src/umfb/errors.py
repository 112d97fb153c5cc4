"""Exception types shared across the package."""


class UmfbError(Exception):
    """Base class for all package errors."""


class PartsMismatch(UmfbError):
    """Parts do not sum to the target multi-index."""


class ZeroIndex(UmfbError):
    """Operation undefined for the zero multi-index."""


class DimensionMismatch(UmfbError):
    """Operands disagree on the number of outer arguments or inner variables."""


class MissingValue(UmfbError):
    """A moment sequence has no value at a required index."""


class SingularSigma(UmfbError):
    """Covariance matrix is singular (pivot below tolerance)."""


class TermCapExceeded(UmfbError):
    """Predicted term count exceeds the configured cap."""
