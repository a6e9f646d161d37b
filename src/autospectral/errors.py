"""Exception types shared across the package."""


class NumericalError(RuntimeError):
    """A numerical routine failed (non-SPD factorization, indefinite kernel, ...)."""


class EigsolverError(NumericalError):
    """Partial eigensolver (ARPACK) did not converge within its iteration cap."""


class DegenerateError(RuntimeError):
    """Base class for degeneracies the search treats as invalid candidates."""


class DegenerateCandidateError(DegenerateError):
    """A candidate produced an unusable graph (zero column, isolated vertex, ...)."""


class DegenerateDataError(DegenerateError):
    """The data itself is degenerate for the requested operation (e.g. zero bandwidth)."""


class SearchFailedError(RuntimeError):
    """Every candidate in the search space was degenerate."""

    def __init__(self, message, candidates=None):
        super().__init__(message)
        self.candidates = candidates or []


class TrainingDivergedError(RuntimeError):
    """Network training hit a non-finite loss. Carries the epoch index."""

    def __init__(self, message, epoch):
        super().__init__(message)
        self.epoch = epoch


class DataFormatError(ValueError):
    """Malformed input file. ``line`` is the 1-based offending line when known."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line
