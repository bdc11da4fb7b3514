"""Exception taxonomy shared across the package."""


class SuperrootError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatchError(SuperrootError):
    pass


class ZeroMatrixError(SuperrootError):
    pass


class NotARootError(SuperrootError):
    pass


class NotARealRootError(SuperrootError):
    pass


class NotIsotropicOddError(SuperrootError):
    pass


class NotRegularInBaseError(SuperrootError):
    pass


class IsotropicReflectorError(SuperrootError):
    pass


class NonRegularBaseError(SuperrootError):
    """A base whose Cartan matrix fails regularity or admissibility.

    Carries the offending matrix so the caller can show a diagnostic.
    """

    def __init__(self, message, matrix=None):
        super().__init__(message)
        self.matrix = matrix


class UnsupportedTypeError(SuperrootError):
    pass


class NotInLatticeError(SuperrootError):
    pass


class PairingNotIntegralError(SuperrootError):
    pass


class NotClosedError(SuperrootError):
    pass


class InconclusiveError(SuperrootError):
    """A truncated computation cannot certify the requested statement."""


class BrokenStringError(SuperrootError):
    pass


class PatternViolationError(SuperrootError):
    pass


class TruncationHitError(InconclusiveError):
    """A nonzero loop element or root vector left the degree window of a realization."""
