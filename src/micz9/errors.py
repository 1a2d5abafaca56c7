"""Exception taxonomy.

Three groups, mirroring the CLI exit codes: input validation (exit 2),
numerical failures (exit 3), and internal-consistency breaches that
indicate a bug rather than bad input (exit 4).
"""


class Micz9Error(Exception):
    exit_code = 1


class ValidationError(Micz9Error):
    """The caller's input is outside the domain of the operation."""

    exit_code = 2


class NumericalError(Micz9Error):
    """A numerical procedure failed to meet its accuracy contract."""

    exit_code = 3


class InternalConsistencyError(Micz9Error):
    """An exact identity that must hold by construction was violated."""

    exit_code = 4


class NegativeQuantumNumber(ValidationError):
    pass


class ParityMismatch(ValidationError):
    """Q and L+J have different parity; the angular ladder is not integer-stepped."""


class EmptySector(ValidationError):
    """The quantum numbers admit no states (block dimension < 1)."""


class NonpositiveCharge(ValidationError):
    pass


class IndexOutOfRange(ValidationError):
    pass


class LambdaOutOfRange(IndexOutOfRange):
    """An angular label lambda off the sector's ladder (L+J)/2 .. n+Q/2."""


class DomainError(ValidationError):
    """An evaluation point lies outside the open domain of the equation."""


class ConvergenceFailure(NumericalError):
    pass


class ResourceExhausted(NumericalError):
    """The process could not get the memory a computation needs (a MemoryError)."""


class LimitMismatch(NumericalError):
    """A coordinate-degeneration limit check exceeded its tolerance."""


class DegenerateShift(NumericalError):
    """The continuant recurrence met a zero coupling or gave a non-finite column."""


class OrthogonalityViolation(InternalConsistencyError):
    """An exactly-orthogonal matrix failed its orthogonality check."""


class RadicandMismatch(InternalConsistencyError):
    """Attempted sum of radicals with different reduced radicands."""
