"""Exception types shared across the package."""


class StructuralError(ValueError):
    """Malformed input: shape mismatch, non-square matrix, bad parse, ..."""


class DomainMismatchError(StructuralError):
    """Operands live in different rings (universe, order or coefficient domain)."""


class CapacityError(RuntimeError):
    """A configured size bound was exceeded; the message suggests a remedy."""


class PreconditionError(ValueError):
    """A documented precondition of an operation does not hold."""


class GroebnerTimeout(RuntimeError):
    """A step ran past its time budget (see :mod:`permvar.budget`): a basis
    computation, a Hilbert recursion, a certificate or a probe loop.

    Carries the phase it stopped in and the work done so far in ``stats``.
    """

    def __init__(self, message, stats=None):
        super().__init__(message)
        self.stats = stats or {}


class InternalConsistencyError(AssertionError):
    """A construction self-check failed; indicates a bug, never expected data."""
