"""Exception and warning types shared across the package."""


class UsageError(ValueError):
    """Input the caller can correct: a setting, file or record the run cannot use (CLI exit 2)."""


class DimensionMismatchError(UsageError):
    """Operands carry different truncation orders or vector lengths."""


class DomainError(UsageError):
    """A value lies outside its mathematical domain (|a| >= 1, broken symmetry, ...)."""


class ConfigError(UsageError):
    """A configuration object is unusable (empty grid, bad radius, ...)."""


class DegenerateInputError(UsageError):
    """An operation that needs a nonzero signal received (numerically) zero."""


class TruncationError(ArithmeticError):
    """Truncation order too small for the requested operation to stay accurate."""


class IngestError(UsageError):
    """Input file could not be parsed or violates the input contract."""


class RecordFormatError(UsageError):
    """A stored decomposition record is malformed or has the wrong version."""


class InvariantViolation(RuntimeError):
    """A decomposition or its record fails one of its internal consistency checks."""


class SpanDegeneracyError(RuntimeError):
    """Candidate atom is (numerically) inside the span of the current frame.

    ``OrthoFrame.extend`` raises it, with the residual norm ``r`` in its
    message.  The selection loop never sees it: the reduction of each scan
    block marks the grid atoms with ``r < EPS_SPAN`` and the selected ones
    degenerate, ``poga._reduce`` compares the escalated candidates' ``r``
    with ``EPS_SPAN`` itself, and ``poga._select`` marks a grid winner whose
    direct residual is below it and scans again.  The degenerate candidates
    escalate to the next multiplicity order.
    """


class TruncationWarning(UserWarning):
    """Atom decay and truncation order mismatch degrades unit norms."""
