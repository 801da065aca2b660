"""Exception and warning types shared across the package."""


class UnivalenceLabError(Exception):
    """Base class for all package errors."""


class DomainError(ValueError, UnivalenceLabError):
    """An argument left the domain an operation is defined on.  It is a
    ValueError too, as ConfigError is, so a caller that catches the
    ValueError of a bad argument catches it."""


class HypothesisViolation(UnivalenceLabError):
    """A hypothesis of the criterion/operator being evaluated does not hold."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class DerivativeVanishes(HypothesisViolation):
    """f'(z) = 0 at a scanned point; carries the witness z."""


class SingularPowerError(UnivalenceLabError):
    """0 raised to a power with non-positive real part."""


class BranchCrossingError(UnivalenceLabError):
    """A value a computation needs was flagged for a branch crossing, so it
    is not the continuous branch and cannot be used."""


class TransferPoleError(UnivalenceLabError):
    """Denominator of the transfer function w vanished."""


class DegeneratePointError(UnivalenceLabError):
    """Both derivative magnitudes too small to form a meaningful residual."""


class ConvergenceError(UnivalenceLabError):
    """A computed value is not representable (an operator value that is not
    finite or has underflowed to 0), or the 2F1 series did not converge."""


class InconclusiveError(UnivalenceLabError):
    """A sampling-based check cannot decide (point too close to a curve,
    curve undersampled)."""


class ConfigError(ValueError, UnivalenceLabError):
    """Invalid problem configuration; message carries the field path."""


class TruncationWarning(UserWarning):
    """Series tail bound exceeded at the evaluation radius; values past the
    certified radius are approximate."""
